"""Arithmetic over Z_p^d: canonical residues, direction enumeration, affine maps,
lines and hyperplanes, and the array form of point sets.

Points of Z_p^d are plain tuples of residues in [0, p) at the API; every
public operation returns fully reduced tuples.  Inside, the array kernels take
a point set as the (N, d) int64 array of `GroupContext.point_array` (reduced,
distinct, lexicographic), and pack a row into one int64 code where they need
one integer per point (`_codes`, which keeps that order).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

import numpy as np

from .config import _check_work, active
from .errors import BudgetError

Point = tuple[int, ...]

# the sum of two int64 codes must not overflow
_CODE_LIMIT = 1 << 62


def is_odd_prime(n: int) -> bool:
    """Trial-division primality test, restricted to odd primes >= 3."""
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.lru_cache(maxsize=1024)
def _is_odd_prime_cached(n: int) -> bool:
    # groups are built per instance, over a handful of primes
    return is_odd_prime(n)


def canonical_abs(x: int, p: int) -> int:
    """min |z| over integers z congruent to x mod p; always <= (p-1)/2."""
    r = x % p
    return min(r, p - r)


def signed_rep(x: int, p: int) -> int:
    """The representative of x mod p in [-(p-1)/2, (p-1)/2]."""
    r = x % p
    return r if r <= (p - 1) // 2 else r - p


@dataclass(frozen=True)
class GroupContext:
    """The group Z_p^d for an odd prime p and dimension d >= 1."""

    p: int
    d: int = 1

    def __post_init__(self):
        p, d = self.p, self.d
        # plain ints, the usual case, skip the slower abc checks
        if not (type(p) is int or isinstance(p, Integral)) or not _is_odd_prime_cached(int(p)):
            raise ValueError(f"p must be an odd prime >= 3, got {p!r}")
        if not (type(d) is int or isinstance(d, Integral)) or d < 1:
            raise ValueError(f"d must be an integer >= 1, got {d!r}")
        if type(p) is not int or type(d) is not int:
            object.__setattr__(self, "p", int(p))
            object.__setattr__(self, "d", int(d))

    @property
    def size(self) -> int:
        return self.p**self.d

    def check_dense_budget(self) -> None:
        """Refuse a dense table of p^d cells past the dense_budget in force."""
        budget = active().dense_budget
        if self.size > budget:
            raise BudgetError(
                f"dense table of size p^d = {self.size} exceeds budget {budget} "
                f"by {self.size - budget}; raise dense_budget", knob="dense_budget"
            )

    def point(self, x) -> Point:
        """Normalize an int (d = 1) or an iterable of ints to a reduced tuple."""
        # fast paths: a plain int, and a tuple of plain ints already reduced
        if type(x) is int:
            if self.d == 1:
                return (x % self.p,)
        elif type(x) is tuple and len(x) == self.d:
            for c in x:
                if type(c) is not int or not 0 <= c < self.p:
                    break
            else:
                return x
        if isinstance(x, Integral):
            if self.d != 1:
                raise ValueError(f"scalar point {x} given for d = {self.d}")
            return (int(x) % self.p,)
        coords = tuple(int(c) % self.p for c in x)
        if len(coords) != self.d:
            raise ValueError(f"point {x!r} has {len(coords)} coords, expected {self.d}")
        return coords

    def point_array(self, points) -> np.ndarray:
        """The distinct points of an iterable, reduced and sorted, as an (N, d)
        int64 array; each point is read as `point` reads it, errors included.

        A list of d-tuples is read in one `np.fromiter`, which converts each
        coordinate as int() does; other inputs go through `np.asarray`, and
        what neither reads into int64 (coordinates past int64, what `point`
        rejects) is read point by point.  Below p^d = 2^62 the rows are
        sorted and de-duplicated by their int64 codes (left as they are when
        the codes already increase), past it by lexsort.
        """
        pts = list(points)
        d = self.d
        arr = None
        if set(map(type, pts)) == {tuple} and set(map(len, pts)) == {d}:
            try:
                arr = np.fromiter(itertools.chain.from_iterable(pts), np.int64, len(pts) * d)
                arr = arr.reshape(-1, d)
            except (TypeError, ValueError, OverflowError):  # past int64, or not int()
                pass
        if arr is None:
            try:
                arr = np.asarray(pts)
            except (ValueError, OverflowError):  # ragged, or ints mixed with tuples
                arr = np.empty(0, dtype=object)
            if d == 1 and arr.ndim == 1:
                arr = arr[:, None]
        if arr.dtype.kind in "iu" and arr.shape[1:] == (d,):
            arr = (arr % self.p).astype(np.int64)
        else:  # big or odd coordinates, and what `point` rejects
            arr = np.array([self.point(x) for x in pts], dtype=np.int64).reshape(-1, d)
        if self.size < _CODE_LIMIT:
            codes = _codes(self, arr)
            if (codes[1:] > codes[:-1]).all():  # sorted and distinct already
                return arr
            order = np.argsort(codes)
            keys = codes[order, None]
        else:
            order = np.lexsort(arr.T[::-1])
            keys = arr[order]
        keep = np.ones(len(arr), dtype=bool)
        keep[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        return arr[order[keep]]

    def points(self) -> Iterator[Point]:
        """All p^d points in lexicographic order."""
        return itertools.product(range(self.p), repeat=self.d)

    def zero(self) -> Point:
        return (0,) * self.d

    def add(self, a: Point, b: Point) -> Point:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def scale(self, c: int, a: Point) -> Point:
        return tuple((c * x) % self.p for x in a)

    def dot(self, a: Point, b: Point) -> int:
        return sum(x * y for x, y in zip(a, b)) % self.p


# ---------------------------------------------------------------------------
# point arrays: int64 codes and dot products
# ---------------------------------------------------------------------------


def _check_codes(ctx: GroupContext) -> None:
    if ctx.size >= _CODE_LIMIT:
        raise BudgetError(
            f"points of Z_p^d are packed into int64 codes, which needs p^d < 2^62; "
            f"got p^d = {ctx.size}"
        )


def _weights(ctx: GroupContext) -> np.ndarray:
    """The place values p^{d-1}, ..., p, 1 of a code's digits, in int64."""
    if ctx.p ** (ctx.d - 1) >= 1 << 63:
        raise BudgetError(
            f"the place value p^(d-1) = {ctx.p ** (ctx.d - 1)} of int64 codes "
            f"overflows int64 (p = {ctx.p}, d = {ctx.d})"
        )
    return ctx.p ** np.arange(ctx.d - 1, -1, -1, dtype=np.int64)


def _codes(ctx: GroupContext, pts) -> np.ndarray:
    """int64 codes x_0 p^{d-1} + ... + x_{d-1} of reduced points, the last
    axis of pts running over coordinates.

    The code order is the lexicographic order of the points, so tie-breaks
    made on codes are the ones made on tuples.
    """
    _check_codes(ctx)
    arr = np.asarray(pts, dtype=np.int64)
    if ctx.d == 1:
        return arr[..., 0]
    return arr @ _weights(ctx)


def _decode(ctx: GroupContext, codes) -> np.ndarray:
    """The (N, d) int64 points of a 1-d array of codes; the inverse of _codes.

    Codes given as an object array of Python ints are decoded exactly, so
    codes past int64 work too.
    """
    codes = np.asarray(codes)
    if codes.dtype == object:
        weights = np.array([ctx.p**i for i in range(ctx.d - 1, -1, -1)], dtype=object)
    else:
        codes, weights = codes.astype(np.int64), _weights(ctx)
    return (codes[:, None] // weights % ctx.p).astype(np.int64)


def _add_codes(ctx: GroupContext, a: np.ndarray, b) -> np.ndarray:
    """Codes of the sums, coordinate-wise mod p, of broadcastable code arrays."""
    p = ctx.p
    if ctx.d == 1:
        return (a + b) % p
    out = a + b
    w = 1
    for _ in range(ctx.d):
        out -= (a // w % p + b // w % p >= p) * (w * p)
        w *= p
    return out


def _dots(ctx: GroupContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for arrays of reduced coordinates, contracting over d."""
    if ctx.d * (ctx.p - 1) ** 2 >= 1 << 63:
        raise BudgetError(
            f"dot products of points mod p = {ctx.p} overflow int64 in d = {ctx.d}"
        )
    return a @ b % ctx.p


def _direction_rows(ctx: GroupContext, index: np.ndarray) -> np.ndarray:
    """The directions of `enumerate_directions` numbered by a 1-d array of
    indices, as int64 rows.

    A canonical direction, first nonzero coordinate 1, is a point whose code
    lies in a block [p^k, 2 p^k), k < d, and code order is lexicographic: so
    block k starts at direction (p^k - 1)/(p - 1), and direction i in it has
    code i + p^k - (p^k - 1)/(p - 1).
    """
    powers = _weights(ctx)[::-1]  # p^0, ..., p^(d-1)
    firsts = (powers - 1) // (ctx.p - 1)
    i = np.asarray(index, dtype=np.int64)
    k = np.searchsorted(firsts, i, side="right") - 1
    return _decode(ctx, i + powers[k] - firsts[k])


def enumerate_directions(ctx: GroupContext) -> list[Point]:
    """One canonical representative per projective direction of Z_p^d.

    Returns exactly r = (p^d - 1)/(p - 1) vectors, each with first nonzero
    coordinate equal to 1, in lexicographic order, and their r d coordinates
    count against the op_budget in force.  Every nonzero vector of Z_p^d is
    a scalar multiple of exactly one of them.
    """
    r = (ctx.size - 1) // (ctx.p - 1)
    _check_work(r * ctx.d, "direction list")
    return list(map(tuple, _direction_rows(ctx, np.arange(r)).tolist()))


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + shift over Z_p^d."""

    ctx: GroupContext
    matrix: tuple[tuple[int, ...], ...]
    shift: Point = None  # type: ignore[assignment]

    def __post_init__(self):
        d, p = self.ctx.d, self.ctx.p
        rows = tuple(tuple(int(c) % p for c in row) for row in self.matrix)
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ValueError(f"matrix must be {d}x{d}")
        object.__setattr__(self, "matrix", rows)
        shift = self.ctx.zero() if self.shift is None else self.ctx.point(self.shift)
        object.__setattr__(self, "shift", shift)

    def __call__(self, x) -> Point:
        pt, p = self.ctx.point(x), self.ctx.p
        return tuple((sum(r * c for r, c in zip(row, pt)) + s) % p
                     for row, s in zip(self.matrix, self.shift))

    def determinant(self) -> int:
        """det(matrix) mod p, by Gaussian elimination with first-nonzero pivots."""
        p = self.ctx.p
        m = list(self.matrix)
        det = 1
        for col in range(len(m)):
            pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det = det * m[col][col] % p
            inv = pow(m[col][col], -1, p)
            for r in range(col + 1, len(m)):
                factor = m[r][col] * inv
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
        return det

    def is_invertible(self) -> bool:
        return self.determinant() != 0


@dataclass(frozen=True)
class Hyperplane:
    """{x in Z_p^d : x . eta = u} for a nonzero normal eta."""

    ctx: GroupContext
    eta: Point
    u: int

    def __post_init__(self):
        eta = self.ctx.point(self.eta)
        if all(c == 0 for c in eta):
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "u", int(self.u) % self.ctx.p)

    def contains(self, x) -> bool:
        """x . eta = u, one point at a time: the brute-force oracle that the
        array counts of the hyperplane searches are tested against."""
        return self.ctx.dot(self.ctx.point(x), self.eta) == self.u


@dataclass(frozen=True)
class Line:
    """{u*direction + base : u in Z_p}, a one-dimensional affine subset."""

    ctx: GroupContext
    direction: Point
    base: Point = None  # type: ignore[assignment]

    def __post_init__(self):
        b = self.ctx.point(self.direction)
        if all(c == 0 for c in b):
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", b)
        base = self.ctx.zero() if self.base is None else self.ctx.point(self.base)
        object.__setattr__(self, "base", base)

    # point_at, points and contains are the named oracles of `parameters`:
    # library code reads whole arrays through `parameters`, and the tests
    # (the acceptance criteria among them) enumerate lines point by point.

    def point_at(self, u: int) -> Point:
        """u * direction + base, by scalar group arithmetic."""
        return self.ctx.add(self.ctx.scale(u, self.direction), self.base)

    def points(self) -> list[Point]:
        """The p points of the line in parameter order."""
        return [self.point_at(u) for u in range(self.ctx.p)]

    def contains(self, x) -> bool:
        """Whether the one point x lies on the line."""
        return bool(self.parameters([self.ctx.point(x)])[0] >= 0)

    def parameters(self, arr) -> np.ndarray:
        """For each row x of an (N, d) array of reduced points, the s with
        x = s * direction + base (the one s the pivot coordinate allows), or -1
        where x is off the line."""
        p = self.ctx.p
        # products of two residues stay below 2^63 in int64 while p < 2^31
        arr = np.asarray(arr, dtype=np.int64 if p < 1 << 31 else object)
        arr = arr.reshape(len(arr), self.ctx.d)
        pivot = next(i for i, c in enumerate(self.direction) if c != 0)
        s = (arr[:, pivot] - self.base[pivot]) * pow(self.direction[pivot], -1, p) % p
        on = (s[:, None] * np.array(self.direction) + self.base) % p == arr
        return np.where(on.all(axis=1), s, -1)
