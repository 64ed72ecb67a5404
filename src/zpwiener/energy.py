"""Additive energies T_k, dissociated sets, additive dimension, dyadic level
sets, and scattered shell families.

For a function g on an abelian group (Z_p^d here, or Z for shell families),

    T_k(g) = sum over 2k-tuples with x_1+...+x_k = x_1'+...+x_k' of
             g(x_1)...g(x_k) * conj(g(x_1'))...conj(g(x_k'))
           = sum_s |R_k(s)|^2,   R_k = k-fold convolution of g,

which is how the direct path computes it.  A literal 2k-tuple enumeration is
kept as a micro-oracle for supports of size at most 8.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

from .config import DEFAULT_CONFIG
from .errors import BudgetError
from .fourier import SparseFunction, dft
from .groups import GroupContext, Point, signed_rep

# dissociation searches fall back from sum-set growth to meet-in-the-middle
# once the reachable-sum set would exceed this
_SUMS_CAP = 1 << 18


# ---------------------------------------------------------------------------
# T_k energies
# ---------------------------------------------------------------------------


def _tk_from_entries(entries: dict, add, k: int, op_budget: int) -> float:
    table = dict(entries)
    work = 0
    for _ in range(k - 1):
        work += len(table) * len(entries)
        if work > op_budget:
            raise BudgetError(f"T_k convolution work {work} exceeds budget {op_budget}")
        nxt: dict = {}
        for z, vz in table.items():
            for x, vx in entries.items():
                key = add(z, x)
                nxt[key] = nxt.get(key, 0j) + vz * vx
        table = nxt
    return float(sum(abs(v) ** 2 for v in table.values()))


def t_k_direct(
    g: SparseFunction, k: int, op_budget: int = DEFAULT_CONFIG.op_budget
) -> float:
    """T_k via the k-fold representation table over Z_p^d."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(g):
        return 0.0
    return _tk_from_entries(dict(g.entries), g.ctx.add, k, op_budget)


def t_k_int(
    values: dict[int, complex], k: int, op_budget: int = DEFAULT_CONFIG.op_budget
) -> float:
    """T_k of a finitely supported function on the integers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = {int(x): complex(v) for x, v in values.items() if complex(v) != 0}
    if not entries:
        return 0.0
    return _tk_from_entries(entries, operator.add, k, op_budget)


def t_k_int_set(points: Iterable[int], k: int, **kw) -> float:
    """T_k of the indicator of a set of integers."""
    return t_k_int({int(x): 1.0 for x in set(points)}, k, **kw)


def t_k_spectral(
    g: SparseFunction,
    k: int,
    method: str = "fast",
    budget: int = DEFAULT_CONFIG.dense_budget,
) -> float:
    """T_k via |G|^{2k-1} * sum_xi |ghat(xi)|^{2k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    spec = dft(g, method=method, budget=budget)
    mags = abs(spec.coefficients.ravel(order="C"))
    return float(g.ctx.size ** (2 * k - 1) * (mags ** (2 * k)).sum())


def t_k_enumerated(g: SparseFunction, k: int, support_cap: int = 8) -> float:
    """Micro-oracle: literal enumeration of all 2k-tuples; |supp g| <= 8."""
    if g.support_size > support_cap:
        raise BudgetError(
            f"literal enumeration capped at support {support_cap}, got {g.support_size}"
        )
    ctx = g.ctx
    pts = sorted(g.support)
    total = 0j

    def ksum(tup):
        acc = ctx.zero()
        for t in tup:
            acc = ctx.add(acc, t)
        return acc

    for left in itertools.product(pts, repeat=k):
        sl = ksum(left)
        vl = 1.0 + 0j
        for t in left:
            vl *= g[t]
        for right in itertools.product(pts, repeat=k):
            if ksum(right) != sl:
                continue
            vr = 1.0 + 0j
            for t in right:
                vr *= g[t].conjugate()
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


def _half_sums(ctx: GroupContext, pts: list[Point]):
    """All signed sums of a half: map sum -> first sign pattern producing it."""
    table: dict[Point, tuple[int, ...]] = {}
    zero_nonzero = None
    for eps in itertools.product((-1, 0, 1), repeat=len(pts)):
        acc = ctx.zero()
        for e, pt in zip(eps, pts):
            if e == 1:
                acc = ctx.add(acc, pt)
            elif e == -1:
                acc = ctx.sub(acc, pt)
        if acc not in table:
            table[acc] = eps
        if acc == ctx.zero() and any(eps) and zero_nonzero is None:
            zero_nonzero = eps
    return table, zero_nonzero


def is_dissociated(
    points: Iterable, ctx: GroupContext, cap: int = DEFAULT_CONFIG.dissociation_cap
) -> DissociationCertificate:
    """Search all nonzero {-1,0,1} patterns for one summing to zero.

    Meet-in-the-middle over the two halves of the (sorted) set, so the cost is
    O(3^{n/2}) rather than O(3^n).
    """
    pts = sorted({ctx.point(x) for x in points})
    n = len(pts)
    if n > cap:
        raise BudgetError(f"dissociation search capped at {cap} elements, got {n}")
    left, right = pts[: n // 2], pts[n // 2 :]
    ltable, lzero = _half_sums(ctx, left)
    if lzero is not None:
        witness = {pt: e for pt, e in zip(left, lzero)}
        witness.update({pt: 0 for pt in right})
        return DissociationCertificate(False, witness)
    for eps in itertools.product((-1, 0, 1), repeat=len(right)):
        acc = ctx.zero()
        for e, pt in zip(eps, right):
            if e == 1:
                acc = ctx.add(acc, pt)
            elif e == -1:
                acc = ctx.sub(acc, pt)
        target = ctx.neg(acc)
        if target in ltable:
            leps = ltable[target]
            if not any(leps) and not any(eps):
                continue
            witness = {pt: e for pt, e in zip(left, leps)}
            witness.update({pt: e for pt, e in zip(right, eps)})
            return DissociationCertificate(False, witness)
    return DissociationCertificate(True)


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


def _grow_sums(ctx: GroupContext, sums: set[Point], x: Point) -> Optional[set[Point]]:
    out = set(sums)
    for s in sums:
        out.add(ctx.add(s, x))
        out.add(ctx.sub(s, x))
    if len(out) > _SUMS_CAP:
        return None
    return out


def _extends(ctx: GroupContext, chosen: list[Point], sums, x: Point) -> bool:
    """Whether chosen + [x] stays dissociated, given chosen already is."""
    if sums is not None:
        return x not in sums
    return is_dissociated(chosen + [x], ctx, cap=len(chosen) + 1).dissociated


def additive_dimension(
    points: Iterable,
    ctx: GroupContext,
    mode: str = "exact",
    exact_cap: int = DEFAULT_CONFIG.exact_dim_cap,
) -> tuple[int, tuple[Point, ...]]:
    """Size of a maximal dissociated subset, with the subset itself.

    exact: maximum cardinality by depth-first branch and bound (first maximum
    in lexicographic inclusion order wins ties).  greedy: lexicographic scan,
    returning an inclusion-maximal subset, a lower bound for the exact value.
    """
    pts = sorted({ctx.point(x) for x in points})
    if mode == "greedy":
        chosen: list[Point] = []
        sums: Optional[set[Point]] = {ctx.zero()}
        for x in pts:
            if _extends(ctx, chosen, sums, x):
                chosen.append(x)
                if sums is not None:
                    sums = _grow_sums(ctx, sums, x)
        return len(chosen), tuple(chosen)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if len(pts) > exact_cap:
        raise BudgetError(
            f"exact dimension capped at {exact_cap} elements, got {len(pts)}"
        )
    best: list[Point] = []

    def dfs(i: int, chosen: list[Point], sums) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if i == len(pts) or len(chosen) + (len(pts) - i) <= len(best):
            return
        x = pts[i]
        if _extends(ctx, chosen, sums, x):
            dfs(i + 1, chosen + [x], None if sums is None else _grow_sums(ctx, sums, x))
        dfs(i + 1, chosen, sums)

    dfs(0, [], {ctx.zero()})
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
    if l0 < 0:
        return ScatteredFamily(m, shell_size, ())

    def ring(l: int) -> list[int]:
        lo = 2 ** (l - 1) * m if l >= 1 else 0
        hi = 2**l * m
        if l == 0:
            return [v for v in signed if abs(v) <= hi]
        return [v for v in signed if lo < abs(v) <= hi]

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


def rudin_ratio(
    points: Iterable,
    ctx: GroupContext,
    k: int,
    cap: int = DEFAULT_CONFIG.dissociation_cap,
) -> float:
    """Empirical constant T_k(set)^{1/k} / (k |set|) for a dissociated set.

    Reported as data only; no absolute constant is asserted against it.
    """
    pts = sorted({ctx.point(x) for x in points})
    cert = is_dissociated(pts, ctx, cap=cap)
    if not cert.dissociated:
        raise ValueError("rudin_ratio requires a dissociated set")
    tk = t_k_direct(SparseFunction.indicator(ctx, pts), k)
    return tk ** (1.0 / k) / (k * len(pts))
