"""Constructive reductions: balanced hyperplane and line search, restriction to
a line, short-interval dilation of a support, and the coordinate-separating
linear map that takes Z_p^d problems down to Z_p.

The hyperplane search is derandomized: the second-moment argument guarantees a
hyperplane whose intersection count deviates from the expected density by less
than sqrt(density) * p^{(d-1)/2}, so an exhaustive scan over all (direction, u)
pairs always finds one, and ties are broken lexicographically for
reproducibility.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import ARRAY_CHUNK, LINE_DENSITY_CONST, _check_work, active
from .energy import _signed_sum_member, _signed_sums, additive_dimension
from .fourier import SparseFunction, magnitudes
from .groups import (
    AffineMap,
    GroupContext,
    Hyperplane,
    Line,
    Point,
    _decode,
    _direction_rows,
    _dots,
    _weights,
    signed_rep,
)


@dataclass(frozen=True)
class BalanceReport:
    """How far a hyperplane or line count sits from its density target.

    deviation = |count - target|, bound = sqrt(density) * p^{(codim space)/2}
    is the guaranteed-achievable deviation, theta = deviation / bound.
    """

    found: object
    count: int
    target: float
    deviation: float
    bound: float
    theta: float


def _multiples(ctx: GroupContext, tc: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The codes of t eta, for the directions eta number start ... stop - 1
    (rows) and t < p // 2 + 1 (columns), from the table tc of `_t_c`."""
    block = _direction_rows(ctx, np.arange(start, stop))
    return sum(tc[block[:, k]] * w for k, w in enumerate(_weights(ctx).tolist()))


def _t_c(p: int) -> np.ndarray:
    """t c mod p for c < p (rows) and t < p // 2 + 1 (columns)."""
    return np.arange(p, dtype=np.int64)[:, None] * np.arange(p // 2 + 1) % p


@functools.lru_cache(maxsize=16)
def _multiples_table(p: int, d: int) -> np.ndarray:
    """`_multiples` of every direction of Z_p^d, read-only.  The scan asks
    for it only when its r h entries fit in ARRAY_CHUNK (256 KiB of int64),
    so the 16 tables the cache keeps take at most 4 MiB."""
    ctx = GroupContext(p, d)
    table = _multiples(ctx, _t_c(p), 0, (ctx.size - 1) // (p - 1))
    table.flags.writeable = False
    return table


def _scan_hyperplanes(sets: list[tuple[GroupContext, np.ndarray]]) -> list[BalanceReport]:
    """The scan of find_balanced_hyperplane on each (ctx, array of distinct
    points of ctx) pair, in order: `_scan_group` on each group, in order of
    first appearance.  A budget depends only on the group, so a refusal is
    the one the first refusing set gives alone."""
    groups: dict[GroupContext, list[int]] = {}
    for i, (ctx, _) in enumerate(sets):
        groups.setdefault(ctx, []).append(i)
    found = {}
    for ctx, idx in groups.items():
        found.update(zip(idx, _scan_group(ctx, [sets[i][1] for i in idx])))
    return [found[i] for i in range(len(sets))]


def _scan_group(ctx: GroupContext, arrs: list[np.ndarray]) -> list[BalanceReport]:
    """The hyperplane scan of each array of distinct points of ctx in arrs.

    Projection-slice: with F the transform of the indicator of A, the count
    of A on {x . eta = u} is the inverse transform over t of t -> F(t eta)
    at u, so one dense transform gives every count.  The indicator is real,
    so F(-xi) is the conjugate of F(xi): a real transform along axis 0 keeps
    the half table xi_0 < h = p // 2 + 1.  Every direction has eta_0 in
    {0, 1}, so F(t eta) for t < h lies in it, and a real inverse transform
    of those h values gives the p counts.  When the r h codes of the t eta
    fit in ARRAY_CHUNK entries they come from a table kept per (p, d),
    `_multiples_table`, else directions are decoded a chunk at a time; the
    first minimiser of a set's flattened (direction, u) table is the
    lexicographically first one, and only its direction is decoded.

    The budgets are checked once, before any transform.  When a set's r
    directions fit one chunk of ARRAY_CHUNK // (2 p) rows, as many sets as
    fit are stacked and scanned with one transform per axis, one gather and
    one inverse transform; pocketfft transforms each line on its own, so a
    set's counts do not depend on its stack.  Else each set is scanned
    alone, its directions a chunk at a time.
    """
    p, d = ctx.p, ctx.d
    ctx.check_dense_budget()
    r = (ctx.size - 1) // (p - 1)
    _check_work(r * p, "hyperplane scan")
    h = p // 2 + 1
    table = _multiples_table(p, d) if r * h <= ARRAY_CHUNK else None
    tc = _t_c(p) if table is None else None
    rows = max(1, ARRAY_CHUNK // (2 * p))  # h complex entries and p counts a row
    per = max(1, rows // r)  # sets a stack
    reports = []
    for lo in range(0, len(arrs), per):
        group = arrs[lo : lo + per]
        sizes = [len(arr) for arr in group]
        targets = [n / ctx.size * p ** (d - 1) for n in sizes]
        indicator = np.zeros((len(group),) + (p,) * d)
        owner = np.repeat(np.arange(len(group)), sizes)
        indicator[(owner, *np.concatenate(group).T)] = 1.0
        # per set, the calls np.fft.rfftn(indicator[i], axes=(*range(1, d), 0))
        # makes, without its bookkeeping; the half table's flat index of xi
        # (xi_0 < h) is its code
        spectrum = np.fft.rfft(indicator, axis=1)
        for axis in range(2, d + 1):
            spectrum = np.fft.fft(spectrum, axis=axis)
        spectrum = spectrum.reshape(len(group), -1)
        at = np.arange(len(group))
        best = np.full((len(group), 4), np.inf)  # deviation, direction, u, count
        step = max(1, rows // len(group))  # directions a chunk
        for start in range(0, r, step):
            stop = min(start + step, r)
            flat = _multiples(ctx, tc, start, stop) if table is None else table[start:stop]
            exact = np.fft.irfft(spectrum[:, flat], n=p, axis=2)
            counts = np.rint(exact)
            if np.abs(exact - counts).max() > 1e-6:
                raise RuntimeError("hyperplane counts from the transform are not integers")
            counts = counts.astype(np.int64)
            if (counts.sum(axis=2) != np.array(sizes)[:, None]).any():
                raise RuntimeError("hyperplane counts along a direction do not sum to |A|")
            counts = counts.reshape(len(group), -1)
            dev = np.abs(counts - np.array(targets)[:, None])
            j = dev.argmin(axis=1)
            cand = np.stack((dev[at, j], start + j // p, j % p, counts[at, j]), axis=1)
            best = np.where(cand[:, :1] < best[:, :1], cand, best)
        best = best[:, 1:].astype(np.int64)
        etas = _direction_rows(ctx, best[:, 0]).tolist()
        for n, target, eta, (_, u, count) in zip(sizes, targets, etas, best.tolist()):
            bound = math.sqrt(n / ctx.size) * p ** ((d - 1) / 2)
            dev = abs(count - target)
            found = Hyperplane(ctx, tuple(eta), u)
            reports.append(BalanceReport(found, count, target, dev, bound, dev / bound))
    return reports


def _scan_points(points: Iterable, ctx: GroupContext) -> np.ndarray:
    """The point array of a hyperplane or line search: d >= 2, nonempty."""
    if ctx.d < 2:
        raise ValueError("hyperplane balancing needs d >= 2")
    arr = ctx.point_array(points)
    if not len(arr):
        raise ValueError("point set must be nonempty")
    return arr


def find_balanced_hyperplane(points: Iterable, ctx: GroupContext) -> BalanceReport:
    """A hyperplane whose |A intersect L| deviates least from density * p^{d-1}.

    Scans every (direction, u) pair in lexicographic order and returns the
    first minimizer; the returned deviation is always at most the bound.  It
    transforms a table of p^d <= dense_budget cells and counts r p <= op_budget
    (direction, u) pairs, r = (p^d - 1)/(p - 1), with the budgets in force.
    """
    return _scan_hyperplanes([(ctx, _scan_points(points, ctx))])[0]


@dataclass(frozen=True)
class LineSearchResult:
    """A balanced line with the exact per-step bookkeeping that produced it."""

    line: Line
    steps: tuple[BalanceReport, ...]
    count: int
    base_density: float
    line_density: float
    composed_bound: float  # sum of per-step density deviations guaranteed


def find_balanced_line(points: Iterable, ctx: GroupContext) -> LineSearchResult:
    """Iterate balanced-hyperplane steps down to a line in Z_p^d.

    One chart, y -> origin + sum of y_j * basis[j], covers the current flat.
    On a found hyperplane {y . eta = u} the coordinates other than eta's
    pivot fix the pivot one, so the points on it drop their pivot column and
    the pivot's basis vector folds into the origin and the other vectors.
    The last hyperplane, of a chart Z_p^2, is the line, lifted by the chart.
    Every step's report obeys theta <= 1, and the line's density deviates
    from the base density by at most the sum of per-step bounds (tracked
    exactly, no asymptotics).  Each step is an exhaustive hyperplane scan,
    bounded as `find_balanced_hyperplane` is, the first one the most.
    """
    if ctx.d < 2:
        raise ValueError("line search needs d >= 2")
    arr = _scan_points(points, ctx)
    p = ctx.p
    if LINE_DENSITY_CONST > p:
        raise ValueError(
            f"no set of Z_{p}^d meets the density hypothesis {LINE_DENSITY_CONST}/p > 1: "
            f"the line search needs p >= LINE_DENSITY_CONST"
        )
    base_density = len(arr) / ctx.size
    if base_density < LINE_DENSITY_CONST / p:
        raise ValueError(f"density {base_density:.6g} below required {LINE_DENSITY_CONST}/p")

    steps: list[BalanceReport] = []
    origin = (0,) * ctx.d  # the chart, in Python ints
    basis = [tuple(int(i == j) for j in range(ctx.d)) for i in range(ctx.d)]
    cur = arr
    composed_bound = 0.0
    for dim in range(ctx.d, 1, -1):
        cur_ctx = GroupContext(p, dim)
        report = _scan_hyperplanes([(cur_ctx, cur)])[0]
        steps.append(report)
        composed_bound += report.bound / p ** (dim - 1)
        eta, u = report.found.eta, report.found.u
        pivot = next(i for i, c in enumerate(eta) if c != 0)
        inv = pow(eta[pivot], -1, p)
        lead = basis[pivot]
        origin = tuple((o + u * inv * c) % p for o, c in zip(origin, lead))
        if dim == 2:
            break
        # the points on the hyperplane, in the chart of its other coordinates;
        # they stay distinct, and the scans do not depend on their order
        on = _dots(cur_ctx, cur, np.array(eta)) == u
        cur = np.delete(cur[on], pivot, axis=1)
        if not len(cur):
            raise ValueError("balanced hyperplane missed the whole set; density too low")
        basis = [tuple((b - eta[j] * inv * c) % p for b, c in zip(basis[j], lead))
                 for j in range(dim) if j != pivot]

    # origin now holds the last hyperplane's chart point (u / eta_pivot) e_pivot,
    # and the line runs along its chart direction (-eta_1, eta_0)
    direction = tuple((-eta[1] * a + eta[0] * b) % p for a, b in zip(*basis))
    line = Line(ctx, direction, origin)

    count = int(np.count_nonzero(line.parameters(arr) >= 0))
    if count != steps[-1].count:
        raise RuntimeError(
            f"the lifted line holds {count} points, the last step counted {steps[-1].count}"
        )
    return LineSearchResult(
        line, tuple(steps), count, base_density, count / p, composed_bound
    )


def restrict_to_line(f: SparseFunction, line: Line) -> SparseFunction:
    """The one-variable function u -> f(u * direction + base) on Z_p."""
    ctx = f.ctx
    if line.ctx != ctx:
        raise ValueError("line and function live on different groups")
    params = line.parameters(list(f.entries))
    out = {(int(s),): v for s, v in zip(params, f.entries.values()) if s >= 0}
    return SparseFunction(GroupContext(ctx.p, 1), out)


# ---------------------------------------------------------------------------
# short-interval dilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletRescaling:
    """A dilation q pushing every residue of a set into a short interval."""

    q: int
    max_abs: int
    bound: float
    rescaled_support: tuple[int, ...]

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("dilation must be nonzero")
        if self.max_abs > self.bound:
            raise ValueError("rescaling violates its own bound")


def find_dirichlet_q(lams: Iterable[int], ctx: GroupContext) -> DirichletRescaling:
    """Smallest q in [1, p) with |q*lam| <= p^{1 - 1/n} for every lam.

    Existence below p is a pigeonhole fact, and the scan walks q upward from
    1, so any hit is the global minimum.  The bound test is exact integer
    arithmetic: max_abs^n <= p^{n-1} exactly when max_abs <= t, the largest
    integer with t^n <= p^{n-1}.  The scan tests a block of q at a time,
    64 at first and twice as many each block up to ARRAY_CHUNK // n, so a
    small q pays for a small block; it works in int64 while every product
    q*lam fits, and in Python ints past that.  Each q costs n residues, so
    the scan tests q while q n <= op_budget and past that gives up with a
    budget error.
    """
    if ctx.d != 1:
        raise ValueError("dilation search runs over Z_p (d = 1)")
    p = ctx.p
    vals = sorted({int(l) % p for l in lams})
    if not vals or 0 in vals:
        raise ValueError("the set must be nonempty and must not contain 0")
    n = len(vals)
    bound = p ** (1.0 - 1.0 / n)
    limit = min(p, active().op_budget // n + 1)
    top = p ** (n - 1)
    t = int(bound)  # then correct the float to the exact integer root
    while t**n > top:
        t -= 1
    while (t + 1) ** n <= top:
        t += 1
    dtype = np.int64 if limit * (p - 1) < 1 << 63 else object
    lam_arr = np.array(vals, dtype=dtype)
    most = max(1, ARRAY_CHUNK // n)
    q, rows = 1, min(64, most)
    while q < limit:
        stop = min(q + rows, limit)
        r = np.arange(q, stop, dtype=dtype)[:, None] * lam_arr
        r %= p
        max_abs = np.minimum(r, p - r, out=r).max(axis=1)
        hits = np.flatnonzero(max_abs <= t)
        if hits.size:
            q += int(hits[0])
            return DirichletRescaling(
                q, int(max_abs[hits[0]]), bound,
                tuple(sorted(signed_rep(q * l, p) for l in vals)),
            )
        q, rows = stop, min(2 * rows, most)
    if limit < p:  # q = limit takes the work past op_budget
        _check_work(limit * n, f"dilation scan (the smallest q lies in [{limit}, {p - 1}])")
    raise RuntimeError(f"no dilation q < {p} found, although pigeonhole guarantees one")


@dataclass(frozen=True)
class RescaleResult:
    """A dilated copy of a function whose support sits in a short interval."""

    function: SparseFunction
    support_signed: tuple[int, ...]
    q: int
    within_third: bool  # support contained in [-p/3, p/3]
    rescaling: DirichletRescaling


def rescale_to_short_interval(f: SparseFunction) -> RescaleResult:
    """Dilate f so its support lands near zero, driven by a dissociated core.

    The core is the greedy maximal dissociated subset of supp f, so every
    support point is a {-1,0,1} combination of it; that is checked, not
    assumed.  The result records, rather than assumes, whether the dilated
    support fits inside [-p/3, p/3]: that containment is an asymptotic fact
    and can fail at small p.
    """
    ctx = f.ctx
    if ctx.d != 1:
        raise ValueError("short-interval rescaling runs over Z_p (d = 1)")
    if not len(f):
        raise ValueError("function must have nonempty support")
    p = ctx.p
    _, core = additive_dimension(f.support, ctx, mode="greedy")
    lam_vals = [x[0] for x in core]
    # greedy maximality makes each support point a signed sum of the core; check it
    halves = np.array(lam_vals, dtype=np.int64).reshape(-1, 1)
    left = np.sort(_signed_sums(ctx, halves[: len(halves) // 2]))
    right = _signed_sums(ctx, halves[len(halves) // 2 :])
    rest = np.array(sorted({x[0] for x in f.support} - set(lam_vals)), dtype=np.int64)
    missing = [(int(x),) for x in rest[~_signed_sum_member(ctx, left, right, rest)]]
    if missing:
        raise RuntimeError(
            f"support points {missing[:3]} are not {{-1,0,1}} combinations of the core"
        )
    resc = find_dirichlet_q(lam_vals, ctx)
    q = resc.q
    dilated = SparseFunction(ctx, {(q * x[0]) % p: v for x, v in f.entries.items()})
    support_signed = tuple(sorted(signed_rep(x[0], p) for x in dilated.support))
    within = max(abs(b) for b in support_signed) * 3 <= p
    return RescaleResult(dilated, support_signed, q, within, resc)


# ---------------------------------------------------------------------------
# coordinate separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparatingMap:
    """Invertible linear map making first coordinates of a set distinct."""

    map: AffineMap
    row: Point
    first_coords: tuple[int, ...]


def find_separating_map(points: Iterable, ctx: GroupContext) -> SeparatingMap:
    """Lexicographically smallest first row t with t.(a_i - a_j) != 0 for all
    pairs, completed to an invertible matrix by standard basis rows.

    Requires |A|^2 < 2p, which makes the number of pairs smaller than p and
    guarantees a valid t exists.  Candidate rows are tested a chunk at a
    time, in lexicographic order, against every pair at once.
    """
    if ctx.d < 2:
        raise ValueError("coordinate separation needs d >= 2")
    arr = ctx.point_array(points)
    n = len(arr)
    if n * n >= 2 * ctx.p:
        raise ValueError(
            f"|A| = {n} violates the smallness hypothesis |A| < sqrt(2p) for p = {ctx.p}"
        )
    p, d = ctx.p, ctx.d
    left, right = np.triu_indices(n, 1)
    deltas = (arr[left] - arr[right]) % p
    # a difference whose last nonzero coordinate is i fails every row with
    # t_0 = ... = t_i = 0, the rows coded below p^(d-1-i); code 0 is the zero row
    last = d - 1 - (deltas[:, ::-1] != 0).argmax(axis=1)
    first_code = p ** (d - 1 - int(last.min())) if len(deltas) else 1
    chunk = max(1, ARRAY_CHUNK // max(len(deltas), d))
    # past int64 the codes are Python ints, decoded exactly
    dtype = np.int64 if ctx.size <= 1 << 63 else object
    row = None
    for start in range(first_code, ctx.size, chunk):
        codes = np.arange(start, min(start + chunk, ctx.size), dtype=dtype)
        cand = _decode(ctx, codes)
        good = np.flatnonzero((_dots(ctx, cand, deltas.T) != 0).all(axis=1))
        if good.size:
            row = tuple(int(c) for c in cand[good[0]])
            break
    if row is None:
        raise RuntimeError(f"no separating row for {n} points, although |A|^2 < 2p")
    pivot = next(i for i, c in enumerate(row) if c != 0)
    rows = [row] + [tuple(1 if j == i else 0 for j in range(d)) for i in range(d) if i != pivot]
    tmap = AffineMap(ctx, tuple(rows))
    if not tmap.is_invertible():
        raise RuntimeError(f"the separating map with first row {row} is singular")
    first = tuple(_dots(ctx, arr, np.array(row)).tolist())
    if len(set(first)) != n:
        raise RuntimeError(f"row {row} leaves two first coordinates equal")
    return SeparatingMap(tmap, row, first)


def pushforward(f: SparseFunction, tmap: AffineMap) -> SparseFunction:
    """h(x) = f(tmap^{-1} x); support maps forward, Wiener norm is preserved."""
    if tmap.ctx != f.ctx:
        raise ValueError("map and function live on different groups")
    if not tmap.is_invertible():
        raise ValueError("pushforward requires an invertible map")
    return SparseFunction(f.ctx, {tmap(x): v for x, v in f.entries.items()})


@dataclass(frozen=True)
class SeparationBound:
    """Both sides of the separated inner-sum inequality:

    wiener_norm(f) equals the average over the remaining frequencies of the
    one-dimensional Wiener norm of the twisted projection, hence dominates
    the minimum.  With T the separating map, the inner norm at xi_rest is
    p^{d-1} * sum over xi_0 of |fhat(T^t (xi_0, xi_rest))|, read off |fhat|
    along that line; inner_norms lists them with xi_rest in product order.
    """

    separating: SeparatingMap
    norm: float
    min_inner: float
    mean_inner: float
    inner_norms: tuple[float, ...]


def separated_projection_bound(f: SparseFunction) -> SeparationBound:
    """Compare wiener_norm(f) with the projected one-dimensional norms.

    After separating first coordinates by T, fixing the other frequency
    components xi_rest twists the projected function x_0 -> sum of
    h(x_0, a_rest) e(-a_rest . xi_rest / p), h = f o T^{-1}, by a unimodular
    factor; each twist gives a one-dimensional Wiener norm and f's norm is
    their exact average.  Since hhat(xi) = fhat(T^t xi), all of them come
    from the one transform of f: T^t (xi_0, xi_rest) has s = xi_0 * t_pivot
    at the pivot of the separating row t and xi_rest + s * shift elsewhere,
    shift = t_others / t_pivot mod p, so the inner norms are p^{d-1} times
    the sum over s of the slice of |fhat| at pivot coordinate s, rolled back
    by s * shift.
    """
    ctx = f.ctx
    sep = find_separating_map(f.support, ctx)
    mags = magnitudes(f)
    norm = float(mags.ravel().sum())  # the sum wiener_norm(f) takes
    p, d, row = ctx.p, ctx.d, sep.row
    pivot = next(i for i, c in enumerate(row) if c)
    t_inv = pow(row[pivot], -1, p)
    shift = [c * t_inv % p for i, c in enumerate(row) if i != pivot]
    acc = np.zeros((p,) * (d - 1))
    for s in range(p):
        # acc += np.roll(slice s, -s * shift): one add per corner block of
        # the roll, so each cell gets the same additions in the same order
        src = mags[(slice(None),) * pivot + (s,)]
        blocks = []
        for c in shift:
            r = s * c % p
            blocks.append([(slice(None), slice(None))] if r == 0 else
                          [(slice(0, p - r), slice(r, p)), (slice(p - r, p), slice(0, r))])
        for corner in itertools.product(*blocks):
            to, frm = zip(*corner)
            acc[to] += src[frm]
    inner = (acc.ravel() * p ** (d - 1)).tolist()
    return SeparationBound(
        sep, norm, min(inner), sum(inner) / len(inner), tuple(inner)
    )
