"""Additive energies T_k, dissociated sets, additive dimension, dyadic level
sets, and scattered shell families.

For a function g on an abelian group (Z_p^d here, or Z for shell families),

    T_k(g) = sum over 2k-tuples with x_1+...+x_k = x_1'+...+x_k' of
             g(x_1)...g(x_k) * conj(g(x_1'))...conj(g(x_k'))
           = sum_s |R_k(s)|^2,   R_k = k-fold convolution of g,

which is how the direct path computes it: k - 1 rounds, each of which forms
the sums of the table's keys with the support and groups equal keys.  A round
groups by sorting, or, when the values are real integers with
(sum |v|)^{2k} <= 2^53 and the keys lie in a span of at most ARRAY_CHUNK
codes, by counting: a boolean mask marks the keys hit and a weighted
np.bincount sums their values.  Under that guard every partial sum is an
exact integer in float64, so the order of the additions cannot change a bit
and both ways give the same table and the same float.  Complex, fractional
and larger inputs are always sorted.  A literal 2k-tuple enumeration is kept
as a micro-oracle for supports of size at most 8.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .config import ARRAY_CHUNK, _check_work, active
from .errors import BudgetError
from .fourier import SparseFunction, _magnitude_stacks
from .groups import (
    _CODE_LIMIT,
    GroupContext,
    Point,
    _add_codes,
    _check_codes,
    _codes,
    signed_rep,
)

# a dimension search in a group of fewer than this many elements keeps its
# signed sums as a mask over the group; else as one sorted left half while they
# number at most this, and the points chosen after that form the right half
_SUMS_CAP = 1 << 18

# T_k tables whose first round forms at most this many sums, (k - 1) |supp|^2,
# are built in a dict: below it numpy's per-call cost loses to the loop
# (measured crossover: |supp| = 4 at k = 2, |supp| = 3 at k = 3; T_1 always)
_LOOP_TK_WORK = 20


# ---------------------------------------------------------------------------
# T_k energies
# ---------------------------------------------------------------------------


def _group(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the sum of the values under each."""
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return keys[starts], np.add.reduceat(vals, starts)


def _group_by_sort(chunks) -> tuple[np.ndarray, np.ndarray]:
    """_group over all the (keys, values) chunks: each chunk, then their union."""
    parts = [_group(keys, vals) for keys, vals in chunks]
    if len(parts) == 1:
        return parts[0]
    return _group(*(np.concatenate(part) for part in zip(*parts)))


def _group_by_count(chunks, span: int) -> tuple[np.ndarray, np.ndarray]:
    """_group over all the chunks, for keys in [0, span) and real values:
    a key is present iff it is hit, so a key whose values sum to 0 stays."""
    hit, sums = np.zeros(span, dtype=bool), None
    for keys, vals in chunks:
        hit[keys] = True
        part = np.bincount(keys, weights=vals, minlength=span)
        if sums is None:  # most rounds are one chunk: no zeroed table to add to
            sums = part
        else:
            sums += part
    keys = hit.nonzero()[0]
    return keys, sums[keys]


def _exact_in_float(vals: np.ndarray, k: int) -> bool:
    """Whether vals are real integers with (sum |v|)^{2k} <= 2^53.

    Then every partial sum of every R_r(s), r <= k, and of T_k is an integer
    of absolute value at most 2^53, exact in float64 whatever the order of
    the additions.
    """
    if vals.dtype.kind == "c" or not (vals == np.trunc(vals)).all():
        return False
    total = np.abs(vals).sum()
    return total <= 1 << 53 and int(total) ** (2 * k) <= 1 << 53


def _tk_from_entries(entries: dict, add, k: int) -> float:
    """The dict form of _tk_table, for supports below _LOOP_TK_WORK."""
    table = dict(entries)
    work = 0
    for _ in range(k - 1):
        work += len(table) * len(entries)
        _check_work(work)
        nxt: dict = {}
        for z, vz in table.items():
            for x, vx in entries.items():
                key = add(z, x)
                nxt[key] = nxt.get(key, 0j) + vz * vx
        table = nxt
    return float(sum(abs(v) ** 2 for v in table.values()))


def _tk_table(keys: np.ndarray, vals: np.ndarray, add, k: int, span: int) -> float:
    """sum_s |R_k(s)|^2 for the function keys -> vals, R_k its k-fold convolution.

    Each of the k - 1 rounds forms the outer sum of the table's keys with the
    base keys and the outer product of the values, a chunk of table rows at a
    time, and groups equal keys.  The work count and budget are those of
    _tk_from_entries.  The keys of every round lie in [0, span).  When that
    span is at most ARRAY_CHUNK and the values pass _exact_in_float, a round
    groups by counting (_group_by_count, two tables of span cells, at most
    256 KiB each), else by sorting (_group_by_sort).  Under the guard both
    give the same sorted keys, zero-sum keys included, and the same exact
    integer sums: the same work, the same refusals and the same float.
    """
    if not vals.imag.any():
        vals = vals.real
    rows = max(1, ARRAY_CHUNK // len(keys))
    count = span <= ARRAY_CHUNK and _exact_in_float(vals, k)
    tkeys, tvals = keys, vals
    work = 0
    for _ in range(k - 1):
        work += len(tkeys) * len(keys)
        _check_work(work)
        chunks = (
            (
                add(tkeys[i : i + rows, None], keys).ravel(),
                (tvals[i : i + rows, None] * vals).ravel(),
            )
            for i in range(0, len(tkeys), rows)
        )
        tkeys, tvals = _group_by_count(chunks, span) if count else _group_by_sort(chunks)
    return float(np.vdot(tvals, tvals).real)


def t_k_direct(g: SparseFunction, k: int) -> float:
    """T_k via the k-fold representation table over Z_p^d."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(g):
        return 0.0
    ctx = g.ctx
    _check_codes(ctx)
    if (k - 1) * len(g) ** 2 <= _LOOP_TK_WORK:
        if ctx.d == 1:  # keyed by residues: the same order and the same sums
            p = ctx.p
            entries = {x: v for (x,), v in g.entries.items()}
            return _tk_from_entries(entries, lambda a, b: (a + b) % p, k)
        return _tk_from_entries(dict(g.entries), ctx.add, k)
    keys = _codes(ctx, list(g.entries))
    vals = np.array(list(g.entries.values()), dtype=np.complex128)
    return _tk_table(keys, vals, functools.partial(_add_codes, ctx), k, ctx.size)


def _indicator_t2(sets: list) -> list[float]:
    """T_2 of the indicator of each (ctx, points) pair, bit for bit
    `t_k_direct(SparseFunction.indicator(ctx, points), 2)`.

    Every set's |S|^2 work counts against op_budget, in order, before any
    set is counted.  Under _exact_in_float (for values 1: |S|^4 <= 2^53)
    every R_2(s) and T_2 itself are exact integers, so the sets of one group
    of at most ARRAY_CHUNK elements are counted together: one np.bincount of
    their pairwise sums, keyed by (set, sum), gives every R_2, and T_2 is
    the sum of their squares.  Other sets go to t_k_direct.
    """
    out = [0.0] * len(sets)
    groups: dict[GroupContext, list[int]] = {}
    for i, (ctx, pts) in enumerate(sets):
        if pts:
            _check_codes(ctx)
            _check_work(len(pts) ** 2)
            groups.setdefault(ctx, []).append(i)
    for ctx, idx in groups.items():
        biggest = max(len(sets[i][1]) for i in idx)
        if ctx.size > ARRAY_CHUNK or not _exact_in_float(np.ones(biggest), 2):
            for i in idx:
                out[i] = t_k_direct(SparseFunction.indicator(ctx, sets[i][1]), 2)
            continue
        span = ctx.size
        per = max(1, ARRAY_CHUNK // max(span, biggest**2))  # sets a bincount
        for lo in range(0, len(idx), per):
            chunk = idx[lo : lo + per]
            sizes = [len(sets[i][1]) for i in chunk]
            codes = _codes(ctx, [pt for i in chunk for pt in sets[i][1]])
            # row j of the padded table holds set j's codes, then -1
            owner = np.repeat(np.arange(len(chunk)), sizes)
            starts = np.cumsum(sizes) - sizes
            table = np.full((len(chunk), biggest), -1, dtype=np.int64)
            table[owner, np.arange(len(codes)) - starts[owner]] = codes
            held = table >= 0
            pairs = held[:, :, None] & held[:, None, :]
            sums = _add_codes(ctx, table[:, :, None], table[:, None, :])
            keys = (np.arange(len(chunk))[:, None, None] * span + sums)[pairs]
            counts = np.bincount(keys, minlength=len(chunk) * span).reshape(len(chunk), span)
            for i, t2 in zip(chunk, (counts * counts).sum(axis=1).tolist()):
                out[i] = float(t2)
    return out


def t_k_int(values: dict[int, complex], k: int) -> float:
    """T_k of a finitely supported function on the integers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = {int(x): complex(v) for x, v in values.items() if complex(v) != 0}
    if not entries:
        return 0.0
    if k * max(abs(x) for x in entries) >= _CODE_LIMIT:
        raise BudgetError(
            f"k-fold sums of these integers reach 2^62 and do not fit in int64 (k = {k})"
        )
    if (k - 1) * len(entries) ** 2 <= _LOOP_TK_WORK:
        return _tk_from_entries(entries, operator.add, k)
    # shifted by their minimum, the k-fold sums lie in [0, k (max - min)]
    lo, hi = min(entries), max(entries)
    keys = np.array(list(entries), dtype=np.int64) - lo
    vals = np.array(list(entries.values()), dtype=np.complex128)
    return _tk_table(keys, vals, np.add, k, k * (hi - lo) + 1)


def t_k_int_set(points: Iterable[int], k: int) -> float:
    """T_k of the indicator of a set of integers."""
    return t_k_int({int(x): 1.0 for x in set(points)}, k)


def t_k_spectral(g: SparseFunction, k: int) -> float:
    """T_k via |G|^{2k-1} * sum_xi |ghat(xi)|^{2k}; g's row of `_t_k_spectrals`."""
    return _t_k_spectrals([g], [k])[0]


def _t_k_spectrals(functions: list, ks: list[int]) -> list[float]:
    """`[t_k_spectral(g, k) for g, k in zip(functions, ks)]`, |ghat| from the
    stacks of `_magnitude_stacks`, so the functions may live on different
    groups; every k is checked before any transform.  |G| is folded into
    each coefficient first: |G|^{2k-1} alone can exceed the float range when
    the sum itself does not."""
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    out = [0.0] * len(functions)
    for at, mags in _magnitude_stacks(functions):
        for i, row in zip(at, mags):
            size = functions[i].ctx.size
            row *= size
            row **= 2 * ks[i]
            out[i] = float(row.sum() / size)
    return out


def t_k_enumerated(g: SparseFunction, k: int) -> float:
    """Micro-oracle: literal enumeration of all 2k-tuples; |supp g| <= 8.

    Each right-hand k-tuple's sum and conjugate product is formed once; the
    left and right tuples are still walked in product order, so the terms
    enter the total in the order of the plain double loop.
    """
    if g.support_size > 8:
        raise BudgetError(f"literal enumeration capped at support 8, got {g.support_size}")
    ctx = g.ctx
    pts = sorted(g.support)
    total = 0j

    def ksum(tup):
        acc = ctx.zero()
        for t in tup:
            acc = ctx.add(acc, t)
        return acc

    rights = []
    for right in itertools.product(pts, repeat=k):
        vr = 1.0 + 0j
        for t in right:
            vr *= g[t].conjugate()
        rights.append((ksum(right), vr))
    for left in itertools.product(pts, repeat=k):
        sl = ksum(left)
        vl = 1.0 + 0j
        for t in left:
            vl *= g[t]
        for sr, vr in rights:
            if sr == sl:
                total += vl * vr
    return float(total.real)


# ---------------------------------------------------------------------------
# dissociated sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DissociationCertificate:
    """Verdict plus, for the negative case, a nonzero {-1,0,1} relation."""

    dissociated: bool
    witness: Optional[dict[Point, int]] = None

    def __post_init__(self):
        if not self.dissociated and self.witness is None:
            raise ValueError("non-dissociated verdict requires a witness")
        if self.dissociated and self.witness is not None:
            raise ValueError("dissociated verdict must not carry a witness")


def _signed_sums(ctx: GroupContext, arr: np.ndarray) -> np.ndarray:
    """Codes of all signed sums of the rows of a point array, in
    itertools.product((-1, 0, 1), ...) order."""
    codes = _codes(ctx, arr)
    steps = np.stack((_codes(ctx, -arr % ctx.p), np.zeros_like(codes), codes), axis=1)
    sums = np.zeros(1, dtype=np.int64)
    for step in steps:
        sums = _add_codes(ctx, sums[:, None], step).ravel()
    return sums


def _grow_sums(ctx: GroupContext, sums: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The sorted distinct codes of s, s + x and s - x over the codes s; steps codes x, -x."""
    out = np.sort(np.concatenate((sums, _add_codes(ctx, steps[:, None], sums).ravel())))
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _signed_sum_member(ctx: GroupContext, left, right, codes: np.ndarray) -> np.ndarray:
    """Whether each code x is a signed sum of points whose signed sums split
    into the sorted codes `left` and the negation-closed codes `right`: x + r
    in left for some r in right, tested a chunk of codes at a time."""
    if len(right) == 1:  # right is {0}: one lookup a code
        return left.take(left.searchsorted(codes), mode="clip") == codes
    rows = max(1, ARRAY_CHUNK // len(right))
    out = np.empty(len(codes), dtype=bool)
    for start in range(0, len(codes), rows):
        want = _add_codes(ctx, codes[start : start + rows, None], right)
        hit = left.take(left.searchsorted(want), mode="clip") == want
        out[start : start + rows] = hit.any(axis=1)
    return out


def _pattern(index: int, m: int) -> tuple[int, ...]:
    """Entry `index` of itertools.product((-1, 0, 1), repeat=m)."""
    return tuple(index // 3 ** (m - 1 - i) % 3 - 1 for i in range(m))


def is_dissociated(points: Iterable, ctx: GroupContext) -> DissociationCertificate:
    """Search all nonzero {-1,0,1} patterns for one summing to zero.

    Meet-in-the-middle over the two halves of the (sorted) set, so the cost is
    O(3^{n/2}) rather than O(3^n): the 3^{floor(n/2)} + 3^{ceil(n/2)} signed
    sums of the halves count against op_budget before any is formed, which
    at the default admits 28 points.  The witness is the first zero-sum pattern
    of the left half, or else the first right pattern (in product order)
    whose negated sum is a left sum, paired with the first left pattern
    reaching that sum.
    """
    arr = ctx.point_array(points)
    n = len(arr)
    _check_work(3 ** (n // 2) + 3 ** (n - n // 2), "dissociation search")
    pts = list(map(tuple, arr.tolist()))
    left, right = pts[: n // 2], pts[n // 2 :]
    lsums = _signed_sums(ctx, arr[: n // 2])
    # the all-zero pattern sits in the middle of the product order
    zeros = np.flatnonzero(lsums == 0)
    zeros = zeros[zeros != (3 ** len(left) - 1) // 2]
    if zeros.size:
        witness = dict(zip(left, _pattern(int(zeros[0]), len(left))))
        witness.update({pt: 0 for pt in right})
        return DissociationCertificate(False, witness)
    # negating a pattern mirrors its index, so these are the negated right sums
    targets = _signed_sums(ctx, arr[n // 2 :])[::-1]
    hit = _signed_sum_member(ctx, np.sort(lsums), np.zeros(1, dtype=np.int64), targets)
    # all-zero on both sides is no relation; the only zero-sum left pattern
    # is all-zero here, so that pair is the all-zero right pattern's hit
    hit[(3 ** len(right) - 1) // 2] = False
    hits = np.flatnonzero(hit)
    if not hits.size:
        return DissociationCertificate(True)
    j = int(hits[0])
    first = int(np.flatnonzero(lsums == targets[j])[0])  # in product order
    witness = dict(zip(left, _pattern(first, len(left))))
    witness.update(zip(right, _pattern(j, len(right))))
    return DissociationCertificate(False, witness)


def verify_witness(witness: dict[Point, int], ctx: GroupContext) -> bool:
    """True iff the witness is a nonzero {-1,0,1} relation summing to zero."""
    if not any(witness.values()):
        return False
    if any(e not in (-1, 0, 1) for e in witness.values()):
        return False
    acc = ctx.zero()
    for pt, e in witness.items():
        acc = ctx.add(acc, ctx.scale(e, ctx.point(pt)))
    return acc == ctx.zero()


def additive_dimension(
    points: Iterable,
    ctx: GroupContext,
    mode: str = "exact",
) -> tuple[int, tuple[Point, ...]]:
    """Size of a maximal dissociated subset, with the subset itself.

    exact: maximum cardinality by depth-first branch and bound (first maximum
    in lexicographic inclusion order wins ties), which stops once a subset
    reaches floor(log2 |G|), the most a dissociated set can have.  greedy:
    the first path of the same search, an inclusion-maximal subset and a
    lower bound for the exact value.  A subset extends by x iff x is not one
    of its signed sums.  When |G| < _SUMS_CAP the sums are a boolean mask
    over the codes of G; else a sorted left half while they number at
    most _SUMS_CAP, then the right half of the points chosen since.  In both
    modes the search's work counts against op_budget: per node, the sums
    kept and the points tested times the right half's size (1 for a mask).
    """
    arr = ctx.point_array(points)
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    pts = list(map(tuple, arr.tolist()))
    n = len(pts)
    codes = _codes(ctx, arr)
    work, budget = 0, active().op_budget

    if ctx.size < _SUMS_CAP:
        # the sums never pass the cap, so the sorted right half would stay
        # {0}: a mask of at most 256 KiB a level, grown by shifting.  The
        # sorted halves do not split at |G| = _SUMS_CAP either, so with the
        # cap set to |G| they run the same search on the same work.
        p, d = ctx.p, ctx.d
        shape = (p,) * d

        def grow(mask: np.ndarray, i: int) -> np.ndarray:
            """The mask of the signed sums once pts[i] = x joins: mask, and
            mask shifted by x and by -x."""
            if d == 1:  # np.roll costs more than these four slices
                (c,) = pts[i]
                out = mask.copy()
                out[c:] |= mask[: p - c]
                out[:c] |= mask[p - c :]
                out[: p - c] |= mask[c:]
                out[p - c :] |= mask[:c]
                return out
            view, axes = mask.reshape(shape), tuple(range(d))
            out = view | np.roll(view, pts[i], axis=axes)
            out |= np.roll(view, tuple(-c for c in pts[i]), axis=axes)
            return out.ravel()

        def member(mask: np.ndarray, cand: np.ndarray) -> np.ndarray:
            return mask[cand]

        def node_work(mask: np.ndarray, tested: int) -> int:
            return int(np.count_nonzero(mask)) + tested

        root = np.zeros(ctx.size, dtype=bool)
        root[0] = True  # no points' sums: {0}
    else:
        steps = np.stack((codes, _codes(ctx, -arr % ctx.p)), axis=1)

        def grow(sums, i):
            """The halves of the signed sums once pts[i] joins."""
            left, right = sums
            if len(right) == 1 and len(out := _grow_sums(ctx, left, steps[i])) <= _SUMS_CAP:
                return out, right
            return left, _grow_sums(ctx, right, steps[i])

        def member(sums, cand):
            return _signed_sum_member(ctx, *sums, cand)

        def node_work(sums, tested):
            # the sums its grow kept, and the points it tests times |right|
            left, right = sums
            return (len(right) if len(right) > 1 else len(left)) + tested * len(right)

        root = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))  # {0}, {0}

    best: list[Point] = []
    # a dissociated set of m points has 2^m distinct subset sums, so m is at
    # most floor(log2 |G|); once best has that many, no branch can beat it
    ceiling = ctx.size.bit_length() - 1

    def dfs(i: int, chosen: list[Point], sums) -> None:
        # test at once the j that may still join, len(chosen) + (n - j) > len(best)
        nonlocal best, work
        hi = n - len(best) + len(chosen)
        work += node_work(sums, hi - i)
        if work > budget:
            _check_work(work, f"{mode} dimension search")
        for j in ((~member(sums, codes[i:hi])).nonzero()[0] + i).tolist():
            if len(best) >= ceiling or len(chosen) + (n - j) <= len(best):
                return
            child = chosen + [pts[j]]
            if len(child) > len(best):
                best = child
            if len(best) < ceiling and len(child) + (n - j - 1) > len(best):
                dfs(j + 1, child, grow(sums, j))
            if mode == "greedy":
                return

    dfs(0, [], root)
    return len(best), tuple(best)


# ---------------------------------------------------------------------------
# dyadic level sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetDecomposition:
    """S_j = {x : 2^{j-1} <= |f(x)| < 2^j}, j = 1 .. floor(log2 M) + 1."""

    levels: dict[int, frozenset[Point]]


def level_index(a: float) -> int:
    """j with 2^{j-1} <= a < 2^j, exact on binary boundaries (a >= 1)."""
    if a < 1:
        raise ValueError(f"level index needs a >= 1, got {a}")
    return math.frexp(a)[1]


def level_sets(f: SparseFunction) -> LevelSetDecomposition:
    """Partition supp f into dyadic level sets; requires |f| >= 1 on supp f."""
    buckets: dict[int, set[Point]] = {}
    for pt, v in f.entries.items():
        a = abs(v)
        if a < 1:
            raise ValueError(
                f"level sets need |f(x)| >= 1 on the support; |f({pt})| = {a}"
            )
        buckets.setdefault(level_index(a), set()).add(pt)
    return LevelSetDecomposition({j: frozenset(s) for j, s in buckets.items()})


# ---------------------------------------------------------------------------
# scattered shell families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatteredFamily:
    """Disjoint shells Q_i of common size N, Q_i inside the integer ring
    (4^i m / 2, 4^i m] in absolute value.

    thin_at records the first ring index l in [1, l0] whose dyadic ring
    D_l \\ D_{l-1} held fewer than N elements (None when every ring was
    thick enough); shells collect the selections from the even rings that
    were thick regardless.
    """

    m: int
    shell_size: int
    shells: tuple[tuple[int, tuple[int, ...]], ...]
    thin_at: Optional[int] = None

    def __post_init__(self):
        seen: set[int] = set()
        for i, vals in self.shells:
            if i < 1:
                raise ValueError("shell indices start at 1")
            if len(vals) != self.shell_size:
                raise ValueError(f"shell {i} has {len(vals)} elements, want {self.shell_size}")
            bound = 4**i * self.m
            for v in vals:
                if not (2 * abs(v) > bound and abs(v) <= bound):
                    raise ValueError(f"value {v} outside shell-{i} ring")
                if v in seen:
                    raise ValueError(f"shells overlap at {v}")
                seen.add(v)

    @property
    def shell_count(self) -> int:
        return len(self.shells)

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(v for _, vals in self.shells for v in vals)


def build_scattered_family(
    residues: Iterable[int], ctx: GroupContext, m: int, shell_size: int
) -> ScatteredFamily:
    """Select shells from the dyadic rings D_l = {b : |b| <= 2^l m} of a set
    of residues (signed representatives), one shell per even l with ring
    population >= shell_size; rings run while 2^l m <= p/3.
    """
    if ctx.d != 1:
        raise ValueError("shell families are built over Z_p (d = 1)")
    if m < 1 or shell_size < 1:
        raise ValueError("m and shell_size must be >= 1")
    p = ctx.p
    signed = sorted({signed_rep(int(b), p) for b in residues})
    l0 = -1
    while 3 * (2 ** (l0 + 1)) * m <= p:
        l0 += 1

    def ring(l: int) -> list[int]:  # D_l \ D_{l-1}, for l >= 1
        return [v for v in signed if 2 ** (l - 1) * m < abs(v) <= 2**l * m]

    thin_at = None
    for l in range(1, l0 + 1):
        if len(ring(l)) < shell_size:
            thin_at = l
            break
    shells = []
    for l in range(2, l0 + 1, 2):
        members = sorted(ring(l))
        if len(members) >= shell_size:
            shells.append((l // 2, tuple(members[:shell_size])))
    return ScatteredFamily(m, shell_size, tuple(shells), thin_at)


def scattered_energy_bound(k: int, shell_count: int, shell_size: int) -> int:
    """Upper bound 2^{8k} k^k I^k N^{2k-1} for T_k of a scattered union."""
    return 2 ** (8 * k) * k**k * shell_count**k * shell_size ** (2 * k - 1)


# ---------------------------------------------------------------------------
# Rudin-constant monitoring
# ---------------------------------------------------------------------------


def rudin_ratio(points: Iterable, ctx: GroupContext, k: int) -> float:
    """Empirical constant T_k(set)^{1/k} / (k |set|) for a dissociated set.

    Reported as data only; no absolute constant is asserted against it.
    """
    arr = ctx.point_array(points)
    cert = is_dissociated(arr, ctx)
    if not cert.dissociated:
        raise ValueError("rudin_ratio requires a dissociated set")
    tk = t_k_direct(SparseFunction.indicator(ctx, arr.tolist()), k)
    return tk ** (1.0 / k) / (k * len(arr))
