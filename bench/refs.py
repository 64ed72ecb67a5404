"""Reference computations made apart from the program under test.

Everything here uses numpy, closed forms or brute force over the benchmark's
own copy of the inputs; nothing calls into zpwiener.  A job's check compares
the program's output against these values or against a property the method
must have, and returns a message on mismatch (None when the output holds).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def dense(p: int, d: int, points, values=None) -> np.ndarray:
    """Dense complex table of a function given as point and value lists."""
    arr = np.zeros((p,) * d, dtype=np.complex128)
    pts = np.asarray(points, dtype=np.int64).reshape(-1, d)
    arr[tuple(pts.T)] = 1.0 if values is None else np.asarray(values)
    return arr


def wiener(arr: np.ndarray) -> float:
    """sum |fhat| with fhat = p^{-d} * (numpy forward transform)."""
    return float(np.abs(np.fft.fftn(arr)).sum() / arr.size)


def ap_norm(p: int, n: int) -> float:
    """Closed-form Wiener norm of {-n..n} mod p, a Dirichlet-kernel sum."""
    xi = np.arange(1, p)
    kernel = np.abs(np.sin(np.pi * (2 * n + 1) * xi / p) / np.sin(np.pi * xi / p))
    return float((2 * n + 1 + kernel.sum()) / p)


def kfold_counts(points, p: int, d: int, k: int) -> np.ndarray:
    """Exact number of ordered k-tuples of the set summing to each point of Z_p^d."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, d)
    shape = (p,) * d
    counts = np.bincount(np.ravel_multi_index(tuple(pts.T), shape), minlength=p**d)
    for _ in range(k - 1):
        idx = np.flatnonzero(counts)
        coords = np.stack(np.unravel_index(idx, shape), axis=1)
        sums = (coords[:, None, :] + pts[None, :, :]) % p
        flat = np.ravel_multi_index(tuple(sums.reshape(-1, d).T), shape)
        weights = np.repeat(counts[idx], len(pts)).astype(np.float64)
        counts = np.rint(np.bincount(flat, weights=weights, minlength=p**d)).astype(np.int64)
    return counts


def tk_indicator(points, p: int, d: int, k: int) -> int:
    """T_k of a set's indicator: the number of additive 2k-tuples, exactly."""
    counts = kfold_counts(points, p, d, k)
    return int(np.dot(counts, counts))


def tk_fft(arr: np.ndarray, k: int) -> float:
    """T_k of a complex function as sum |R_k|^2, R_k its k-fold FFT convolution."""
    r = np.fft.ifftn(np.fft.fftn(arr) ** k)
    return float((np.abs(r) ** 2).sum())


def signed_sums(values, p: int) -> np.ndarray:
    """The 3^m sums sum eps_i x_i mod p over every pattern eps in {-1,0,1}^m."""
    sums = np.zeros(1, dtype=np.int64)
    for x in values:
        sums = np.concatenate([(sums - x) % p, sums, (sums + x) % p])
    return sums


def dissociated(values, p: int) -> bool:
    """Only the all-zero pattern sums to 0; enumerates every pattern."""
    return int(np.count_nonzero(signed_sums(values, p) == 0)) == 1


def max_dissociated(values, p: int) -> int:
    """Largest dissociated subset size, by brute force over subsets."""
    vals = sorted(set(values))
    for m in range(len(vals), 0, -1):
        if any(dissociated(sub, p) for sub in itertools.combinations(vals, m)):
            return m
    return 0


def check_dimension_subset(subset, support, p: int) -> str | None:
    """Subset lies in the set, is dissociated, and no point of the set extends it."""
    sub, pts = sorted(subset), sorted(set(support))
    if not set(sub) <= set(pts):
        return "subset is not contained in the set"
    sums = signed_sums(sub, p)
    if int(np.count_nonzero(sums == 0)) != 1:
        return "subset is not dissociated"
    rest = np.array([x for x in pts if x not in set(sub)], dtype=np.int64)
    if rest.size and not np.isin(rest, sums).all():
        return "subset is not inclusion-maximal"
    return None


def det_mod(matrix, p: int) -> int:
    """Determinant mod p by the Leibniz expansion in exact integers."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total % p


def hyperplane_count(points, eta, u: int, p: int) -> int:
    pts = np.asarray(points, dtype=np.int64)
    return int(np.count_nonzero((pts @ np.asarray(eta, dtype=np.int64)) % p == u % p))


def line_count(points, direction, base, p: int) -> int:
    """Points x with x - base parallel to direction: every 2x2 minor vanishes mod p."""
    diff = (np.asarray(points, dtype=np.int64) - np.asarray(base, dtype=np.int64)) % p
    b = np.asarray(direction, dtype=np.int64)
    on = np.ones(len(diff), dtype=bool)
    for i, j in itertools.combinations(range(len(b)), 2):
        on &= (diff[:, i] * b[j] - diff[:, j] * b[i]) % p == 0
    return int(np.count_nonzero(on))


def dirichlet_ok(q: int, lams, p: int) -> str | None:
    """q meets max|q lam|^n <= p^{n-1}, and a scan of every smaller q shows none does."""
    lam = np.asarray(sorted(set(int(x) % p for x in lams)), dtype=np.int64)
    n = len(lam)

    def max_abs(qs):
        r = (qs[:, None] * lam[None, :]) % p
        return np.minimum(r, p - r).max(axis=1)

    if int(max_abs(np.array([q]))[0]) ** n > p ** (n - 1):
        return f"q = {q} misses the bound"
    smaller = max_abs(np.arange(1, q, dtype=np.int64))
    if any(int(m) ** n <= p ** (n - 1) for m in np.unique(smaller)):
        return f"a smaller q than {q} meets the bound"
    return None


def zero_patterns(values, p: int) -> int:
    """Number of {-1,0,1} patterns (the zero one included) summing to 0 mod p.

    Every pattern is a pair of half patterns, so the count is the number of
    pairs of half sums that cancel.
    """
    vals = sorted(set(int(x) % p for x in values))
    left = signed_sums(vals[: len(vals) // 2], p)
    right = np.sort(signed_sums(vals[len(vals) // 2 :], p))
    need = (-left) % p
    return int((np.searchsorted(right, need, "right") - np.searchsorted(right, need, "left")).sum())
