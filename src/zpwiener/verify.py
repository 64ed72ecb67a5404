"""Named inequality harness: every constant-free inequality in scope gets a
registered check that evaluates both sides exactly on generated or supplied
instances; asymptotic bounds with unspecified constants are monitored as
empirical ratios and never asserted.

Instances are plain JSON-able dicts so each report can carry a stable digest
of exactly what was tested; two runs with the same seed produce byte-identical
reports.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import active
from .energy import (
    ScatteredFamily,
    _grow_sums,
    _indicator_t2,
    _signed_sum_member,
    _t_k_spectrals,
    additive_dimension,
    level_index,
    level_sets,
    rudin_ratio,
    t_k_direct,
    t_k_int_set,
    scattered_energy_bound,
)
from .errors import BudgetError
from .fileio import _CANONICAL
from .fourier import SparseFunction, dft_naive, wiener_norm, wiener_norms
from .groups import GroupContext, Line, _decode, enumerate_directions
from .reduction import _scan_hyperplanes, _scan_points, restrict_to_line


def digest(obj) -> str:
    """Stable 64-bit digest of the canonical JSON that report files use."""
    return hashlib.sha256(_CANONICAL.encode(obj).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class VerificationReport:
    """Both sides of a named inequality plus pass/fail and slack.

    For one-sided claims (lhs >= rhs) slack = lhs - rhs; for identities slack
    = -|lhs - rhs| so that pass <=> slack >= -tolerance holds in both cases.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool
    digest: str

    def as_record(self) -> dict:
        return {
            "record": "check",
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "digest": self.digest,
        }


@dataclass(frozen=True)
class MonitorRecord:
    """An empirical ratio for a bound whose absolute constant is unspecified."""

    name: str
    ratio: float
    details: dict
    digest: str


@dataclass(frozen=True)
class ScanRow:
    """One row of a Wiener-norm growth scan; ratio is norm / ln(size)."""

    p: int
    size: int
    structure: str
    wiener_norm: float
    log_size: float
    ratio: Optional[float]  # None flags sizes < 2 where the ratio is undefined


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _cached_group(p: int, d: int) -> GroupContext:
    return GroupContext(p, d)


def _group_of(inst: dict) -> GroupContext:
    """The group of an instance: one GroupContext per (p, d) of plain ints."""
    p, d = inst["p"], inst.get("d", 1)
    if type(p) is int and type(d) is int:
        return _cached_group(p, d)
    return GroupContext(p, d)  # checked, and refused, as given


def _fn_from(inst: dict) -> SparseFunction:
    """The function of an instance's entries; a point listed twice, as given
    or up to a multiple of p, is refused as a duplicate."""
    return SparseFunction(
        _group_of(inst),
        ((tuple(e["x"]), complex(e["re"], e["im"])) for e in inst["entries"]),
    )


def _points_from(inst: dict, key: str = "points") -> tuple[GroupContext, list]:
    return _group_of(inst), [tuple(x) for x in inst[key]]


def _rand_rows(rng, ctx: GroupContext, size: int) -> list[list[int]]:
    """size distinct points of ctx drawn at random, sorted, as lists of ints."""
    # codes sort as their points do, so the decoded rows come out sorted
    codes = rng.choice(ctx.size, size=size, replace=False)
    codes.sort()
    if ctx.d == 1:
        return codes[:, None].tolist()
    return _decode(ctx, codes).tolist()


def _rand_points(rng, ctx: GroupContext, size: int) -> list[tuple[int, ...]]:
    return list(map(tuple, _rand_rows(rng, ctx, size)))


def _rand_values(rng, size: int, kind: str) -> list[complex]:
    if kind == "indicator":
        return [1.0 + 0j] * size
    if kind == "unimodular":
        return [complex(np.exp(2j * np.pi * t)) for t in rng.random(size)]
    if kind == "gaussian":
        real, imag = rng.standard_normal(size).tolist(), rng.standard_normal(size).tolist()
        return list(map(complex, real, imag))
    if kind == "geq1":
        # unit-circle values scaled by dyadic magnitudes; the 1.01 floor keeps
        # |f| >= 1 safe from the rounding of the unit phase factor
        mags = 2.0 ** rng.integers(0, 5, size=size) * (1.01 + 0.98 * rng.random(size))
        phases = np.exp(2j * np.pi * rng.random(size))
        return [complex(m * z) for m, z in zip(mags, phases)]
    raise ValueError(f"unknown value kind {kind!r}")


def _instance(ctx: GroupContext, rows, values, **extra) -> dict:
    """The instance of the function rows -> values, whose rows are sorted,
    distinct lists of residues; exact zeros are not stored."""
    entries = [{"x": x, "re": v.real, "im": v.imag} for x, v in zip(rows, values) if v]
    return {"p": ctx.p, "d": ctx.d, "entries": entries, **extra}


def _rand_instance(rng, ctx: GroupContext, size: int, value_kind: str, **extra) -> dict:
    rows = _rand_rows(rng, ctx, size)
    return _instance(ctx, rows, _rand_values(rng, size, value_kind), **extra)


def _dissociated_rows(rng, ctx: GroupContext, size: int) -> list[list[int]]:
    """A dissociated set of Z_p grown greedily along a random order of the
    nonzero residues, sorted, as rows; it stops at size points, or short of
    them when no residue is left to add."""
    chosen: list[int] = []
    # the chosen set is dissociated, so it stays so with x iff x is not one of
    # its signed sums; those are kept sorted as the set grows
    sums = zero = np.zeros(1, dtype=np.int64)
    for x in rng.permutation(np.arange(1, ctx.p)).tolist():
        if len(chosen) == size:
            break
        if not _signed_sum_member(ctx, sums, zero, np.array([x]))[0]:
            chosen.append(x)
            sums = _grow_sums(ctx, sums, np.array([x, ctx.p - x]))
    return [[x] for x in sorted(chosen)]


def random_instance(kind: str, seed: int, *, p: int = 101, d: int = 1, size: int = 5) -> dict:
    """Deterministic generator for the public instance kinds.  A
    "dissociated" instance (d = 1 only) is a set of points, not a function,
    and may hold fewer than size points (`_dissociated_rows`)."""
    ctx = GroupContext(p, d)
    if not 0 <= size <= ctx.size:
        raise ValueError(f"size {size} is not in [0, {ctx.size}]: Z_{p}^{d} has {ctx.size} points")
    rng = np.random.default_rng(seed)
    if kind == "indicator":
        return _rand_instance(rng, ctx, size, "indicator", kind=kind)
    if kind == "unimodular-function":
        return _rand_instance(rng, ctx, size, "unimodular", kind=kind)
    if kind == "dissociated":
        if d != 1:
            raise ValueError(f"dissociated instances need d = 1, not d = {d}")
        return {"p": p, "d": 1, "points": _dissociated_rows(rng, ctx, size), "kind": kind}
    raise ValueError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# registered checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    """A registered check of the claim lhs >= rhs, or lhs = rhs when
    `identity` is set, within the `ToolConfig` tolerance named by `tol`.

    `sides` takes a list of instances and returns the (lhs, rhs) pair of each
    in order; `evaluate` makes their reports.  A list is evaluated at once:
    its norms, spectral T_k, scans and T_2 counts each come from one call
    (`wiener_norms`, `_t_k_spectrals`, `_scan_hyperplanes`, `_indicator_t2`),
    which groups what it is given by group, so each transform serves a stack
    of instances of one group.  Of the budget refusals, a list raises the one
    its first refusing instance gives alone.
    """

    name: str
    sides: Callable[[list[dict]], list[tuple[float, float]]]
    generate: Callable[[np.random.Generator, int], list]
    doc: str
    tol: str = "norm_tol"  # or "energy_tol"
    identity: bool = False

    def evaluate(self, insts: list[dict]) -> list[VerificationReport]:
        pairs = self.sides(insts)
        tol_base = getattr(active(), self.tol)  # as set when evaluate runs
        reports = []
        for inst, (lhs, rhs) in zip(insts, pairs):
            tol = tol_base * max(1.0, abs(lhs), abs(rhs))
            slack = -abs(lhs - rhs) if self.identity else lhs - rhs
            reports.append(
                VerificationReport(self.name, lhs, rhs, slack, tol, slack >= -tol, digest(inst))
            )
        return reports


_PRIMES = (5, 7, 11, 101)


def _gen_functions(kind: str, sizes=(2, 8)):
    def gen(rng, count):
        out = []
        for i in range(count):
            p = int(_PRIMES[i % len(_PRIMES)])
            ctx = GroupContext(p)
            size = int(rng.integers(sizes[0], min(sizes[1], p) + 1))
            out.append(_rand_instance(rng, ctx, size, kind))
        return out

    return gen


def _eval_banach(insts):
    fs = []
    for inst in insts:
        f, g = _fn_from(inst["f"]), _fn_from(inst["g"])
        fs += (f, g, f.pointwise_mul(g))
    norms = wiener_norms(fs)
    return [(nf * ng, nfg) for nf, ng, nfg in zip(norms[::3], norms[1::3], norms[2::3])]


def _gen_banach(rng, count):
    out = []
    for i in range(count):
        p = int(_PRIMES[i % len(_PRIMES)])
        ctx = GroupContext(p)
        fa, gb = (
            _rand_instance(rng, ctx, int(rng.integers(1, min(8, p) + 1)), "gaussian")
            for _ in range(2)
        )
        out.append({"f": fa, "g": gb})
    return out


def _eval_inversion(insts):
    fs = [_fn_from(inst) for inst in insts]
    return [(lhs, f.max_abs) for f, lhs in zip(fs, wiener_norms(fs))]


def _eval_parseval_upper(insts):
    fs = [_fn_from(inst) for inst in insts]
    return [(f.l2_norm, rhs) for f, rhs in zip(fs, wiener_norms(fs))]


def _eval_complement(insts):
    fs = []
    for inst in insts:
        ctx, pts = _points_from(inst)
        a = SparseFunction.indicator(ctx, pts)
        held = a.entries
        fs += (a, SparseFunction._reduced(ctx, ((x, 1.0) for x in ctx.points() if x not in held)))
    norms = wiener_norms(fs)
    # |A| counts distinct points: the indicator holds each point once
    return [
        (lhs, comp + 2 * len(a) / a.ctx.size - 1)
        for a, lhs, comp in zip(fs[::2], norms[::2], norms[1::2])
    ]


def _gen_complement(rng, count):
    out = []
    for i in range(count):
        p = int(_PRIMES[i % len(_PRIMES)])
        ctx = GroupContext(p)
        size = int(rng.integers(1, p))
        out.append({"p": p, "d": 1, "points": _rand_rows(rng, ctx, size)})
    return out


def _eval_tk_identity(insts):
    fs, ks = [_fn_from(inst) for inst in insts], [inst["k"] for inst in insts]
    direct = [t_k_direct(f, k) for f, k in zip(fs, ks)]
    return list(zip(direct, _t_k_spectrals(fs, ks)))


def _gen_tk(rng, count):
    base = _gen_functions("gaussian", sizes=(1, 8))(rng, count)
    for i, inst in enumerate(base):
        inst["k"] = 1 + i % 3
    return base


def _eval_energy_lower(insts):
    """T_k(Q*f) >= |Q|^{2k} L^{4k} / (||f||_2^2 K^{2k-2}) with K the Wiener norm.

    Q is the set of the reduced points of q_points: a point listed twice, as
    given or up to a multiple of p, counts once."""
    fs = [_fn_from(inst) for inst in insts]
    qs = [set(map(f.ctx.point, inst["q_points"])) for inst, f in zip(insts, fs)]
    if not all(qs):
        raise ValueError("energy-lower needs a non-empty q_points")
    if not all(f.support_size for f in fs):
        raise ValueError("energy-lower needs |S| >= 1")
    pairs = []
    for inst, f, q, big_k in zip(insts, fs, qs, wiener_norms(fs)):
        k = inst["k"]
        g = f.restrict(q)
        level = min(abs(g[x]) for x in q)
        rhs = len(q) ** (2 * k) * level ** (4 * k) / (f.l2_norm**2 * big_k ** (2 * k - 2))
        pairs.append((t_k_direct(g, k), rhs))
    return pairs


def _gen_energy_lower(rng, count):
    out = []
    for i in range(count):
        p = int(_PRIMES[i % len(_PRIMES)])
        ctx = GroupContext(p)
        size = int(rng.integers(2, min(8, p) + 1))
        rows = _rand_rows(rng, ctx, size)
        if i % 2:
            values = _rand_values(rng, size, "geq1")
        else:
            # adversarial: all mass concentrated in a single dyadic level
            level = 2.0 ** int(rng.integers(0, 4))
            mags = level * (1.01 + 0.89 * rng.random(size))
            phases = np.exp(2j * np.pi * rng.random(size))
            values = [complex(m * z) for m, z in zip(mags, phases)]
        # the most populous dyadic level set, the first such level on a tie
        levels: dict[int, list] = {}
        for x, v in zip(rows, values):
            levels.setdefault(level_index(abs(v)), []).append(x)
        q_rows = max(levels.values(), key=len)
        out.append(_instance(ctx, rows, values, k=2 + i % 2, q_points=q_rows))
    return out


def _eval_superadditivity(insts):
    sets, levels = [], []  # each instance's support, then its level sets
    for inst in insts:
        f = _fn_from(inst)
        parts = [pts for _, pts in sorted(level_sets(f).levels.items())]
        sets += [(f.ctx, pts) for pts in [f.support, *parts]]
        levels.append(len(parts))
    t2 = iter(_indicator_t2(sets))
    return [(next(t2), sum(next(t2) for _ in range(n))) for n in levels]


def _eval_scattered(insts):
    pairs = []
    for inst in insts:
        fam = ScatteredFamily(
            inst["m"],
            inst["shell_size"],
            tuple((i, tuple(vals)) for i, vals in inst["shells"]),
            inst.get("thin_at"),
        )
        k = inst["k"]
        lhs = float(scattered_energy_bound(k, fam.shell_count, fam.shell_size))
        pairs.append((lhs, t_k_int_set(fam.points, k)))
    return pairs


def _gen_scattered(rng, count):
    pools: dict[tuple[int, int], np.ndarray] = {}  # the ring of shell idx, by (m, idx)
    out = []
    for i in range(count):
        m = int(rng.integers(1, 4))
        shell_size = int(rng.integers(1, 5))
        n_shells = int(rng.integers(1, 5))
        shells = []
        for idx in range(1, n_shells + 1):
            if (m, idx) not in pools:
                bound = 4**idx * m
                lo = bound // 2 + 1
                pools[m, idx] = np.concatenate(
                    [np.arange(lo, bound + 1), np.arange(-bound, -lo + 1)]
                )
            vals = sorted(rng.choice(pools[m, idx], shell_size, replace=False).tolist())
            shells.append([idx, vals])
        out.append({"m": m, "shell_size": shell_size, "shells": shells, "k": 1 + i % 2})
    return out


def _eval_line_monotone(insts):
    fs = []
    for inst in insts:
        f = _fn_from(inst)
        line = Line(f.ctx, tuple(inst["line"]["b"]), tuple(inst["line"]["c"]))
        fs += (f, restrict_to_line(f, line))
    norms = wiener_norms(fs)
    return list(zip(norms[::2], norms[1::2]))


def _gen_line_monotone(rng, count):
    ctxs = [GroupContext(p, 2) for p in (3, 5)]
    dirs = [enumerate_directions(ctx) for ctx in ctxs]
    out = []
    for i in range(count):
        ctx, ds = ctxs[i % 2], dirs[i % 2]
        p = ctx.p
        inst = _rand_instance(rng, ctx, int(rng.integers(1, p * p // 2 + 1)), "gaussian")
        b = ds[int(rng.integers(0, len(ds)))]
        inst["line"] = {"b": list(b), "c": rng.integers(0, p, size=2).tolist()}
        out.append(inst)
    return out


def _eval_hyperplane_balance(insts):
    # find_balanced_hyperplane on each instance, in one scan
    sets = [(ctx, _scan_points(pts, ctx)) for ctx, pts in map(_points_from, insts)]
    return [(report.bound, report.deviation) for report in _scan_hyperplanes(sets)]


def _gen_hyperplane_balance(rng, count):
    out = []
    for i in range(count):
        p = (5, 7)[i % 2]
        d = 2 + (i // 2) % 2
        ctx = GroupContext(p, d)
        size = int(rng.integers(1, ctx.size))
        out.append({"p": p, "d": d, "points": _rand_rows(rng, ctx, size)})
    return out


CHECKS: dict[str, CheckDef] = {c.name: c for c in (
    CheckDef("banach", _eval_banach, _gen_banach, "norm(f)*norm(g) >= norm(f*g)"),
    CheckDef("inversion", _eval_inversion, _gen_functions("gaussian"),
             "wiener norm >= max |f|"),
    CheckDef("parseval-upper", _eval_parseval_upper, _gen_functions("gaussian"),
             "l2 norm >= wiener norm"),
    CheckDef("complement-identity", _eval_complement, _gen_complement,
             "norm(A) = norm(complement) + 2|A|/p - 1", identity=True),
    CheckDef("tk-identity", _eval_tk_identity, _gen_tk,
             "T_k(g) = |G|^{2k-1} sum |ghat|^{2k}", tol="energy_tol", identity=True),
    CheckDef("energy-lower", _eval_energy_lower, _gen_energy_lower,
             "T_k(Q*f) >= |Q|^{2k} L^{4k} / (||f||_2^2 K^{2k-2})", tol="energy_tol"),
    CheckDef("superadditivity-T2", _eval_superadditivity, _gen_functions("geq1"),
             "T_2(S) >= sum_j T_2(S_j) over level sets", tol="energy_tol"),
    CheckDef("scattered-upper", _eval_scattered, _gen_scattered,
             "T_k(Q) <= 2^{8k} k^k I^k N^{2k-1} for shell families", tol="energy_tol"),
    CheckDef("line-monotone", _eval_line_monotone, _gen_line_monotone,
             "wiener norm >= wiener norm of any line restriction"),
    CheckDef("hyperplane-balance", _eval_hyperplane_balance, _gen_hyperplane_balance,
             "exhaustive search deviation <= sqrt(density) p^{(d-1)/2}"),
)}


def check(name: str, instance: dict) -> VerificationReport:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    return CHECKS[name].evaluate([instance])[0]


def _suite_rng(seed: int, name: str) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, salt])


def run_suite(name: str = "all", seed: int = 0, count: int = 50) -> list[VerificationReport]:
    """Run one named suite (or all of them) on seeded generated instances."""
    names = sorted(CHECKS) if name == "all" else [name]
    for n in names:
        if n not in CHECKS:
            raise ValueError(f"unknown suite {n!r}; known: {sorted(CHECKS)} or 'all'")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    reports = []
    for n in names:
        reports += CHECKS[n].evaluate(CHECKS[n].generate(_suite_rng(seed, n), count))
    return sorted(reports, key=lambda r: (r.name, r.digest))


# ---------------------------------------------------------------------------
# monitors (empirical ratios only; nothing asserted)
# ---------------------------------------------------------------------------


def _mon_dim_bound(inst):
    """dim(supp f) relative to K^2 (1 + log(||f||_2 / K))."""
    f = _fn_from(inst)
    if f.support_size < 1:
        raise ValueError("dim-bound ratio needs |S| >= 1")
    big_k = wiener_norm(f)
    try:
        mode, (dim, _) = "exact", additive_dimension(f.support, f.ctx, mode="exact")
    except BudgetError:  # past the exact search's op_budget, the greedy lower bound
        mode, (dim, _) = "greedy", additive_dimension(f.support, f.ctx, mode="greedy")
    denom = big_k**2 * (1 + math.log(max(f.l2_norm / big_k, 1.0)))
    return dim / denom, {"dim": dim, "mode": mode, "K": big_k}


def _mon_rudin(inst):
    ctx, pts = _points_from(inst)
    k = inst["k"]
    return rudin_ratio(pts, ctx, k), {"k": k, "size": len(pts)}


def _mon_log_support(inst):
    f = _fn_from(inst)
    if f.support_size < 2:
        raise ValueError("log-support ratio needs |S| >= 2")
    return wiener_norm(f) / math.log(f.support_size), {"size": f.support_size}


def _mon_t2_lower(inst):
    """T_2(S) * M * K^2 / |S|^3, the scale-free form of the T_2 lower bound."""
    f = _fn_from(inst)
    if f.support_size < 1:
        raise ValueError("t2-lower ratio needs |S| >= 1")
    support_ind = SparseFunction.indicator(f.ctx, f.support)
    t2 = t_k_direct(support_ind, 2)
    big_k = wiener_norm(f)
    return t2 * f.max_abs * big_k**2 / f.support_size**3, {"T2": t2, "K": big_k}


# each returns (ratio, details); `monitor` names and digests the record
MONITORS: dict[str, Callable[[dict], tuple[float, dict]]] = {
    "dim-bound": _mon_dim_bound,
    "rudin": _mon_rudin,
    "log-support": _mon_log_support,
    "t2-lower": _mon_t2_lower,
}


def monitor(name: str, instance: dict) -> MonitorRecord:
    if name not in MONITORS:
        raise ValueError(f"unknown monitor {name!r}; known: {sorted(MONITORS)}")
    ratio, details = MONITORS[name](instance)
    return MonitorRecord(name, ratio, details, digest(instance))


# ---------------------------------------------------------------------------
# growth scans
# ---------------------------------------------------------------------------


def _scan_rows(p: int, structure: str, sizes, norms) -> list[ScanRow]:
    """The rows of sets of the given sizes and Wiener norms."""
    logs = [math.log(size) for size in sizes]
    return [ScanRow(p, size, structure, norm, log, norm / log if size >= 2 else None)
            for size, norm, log in zip(sizes, norms, logs)]


def ap_scan(p: int, ns: list[int], method: str = "fast") -> list[ScanRow]:
    """Wiener norms of symmetric progressions A = {-n..n} mod p.

    Requires |A| = 2n+1 < p/2 for every n; rows report norm / ln|A| (None for
    the singleton n = 0).  method "naive" takes the norms from the oracle
    `dft_naive`, as `scripts/calibrate_ap_band.py` asks.
    """
    if method not in ("fast", "naive"):
        raise ValueError(f"unknown method {method!r}; expected 'fast' or 'naive'")
    ctx = GroupContext(p)
    for n in ns:  # every n is checked before the first transform
        if n < 0:
            raise ValueError("n must be >= 0")
        if 2 * (2 * n + 1) >= p:
            raise ValueError(f"|A| = {2 * n + 1} violates the hypothesis |A| < p/2")
    fs = [SparseFunction.indicator(ctx, range(-n, n + 1)) for n in ns]
    norms = wiener_norms(fs) if method == "fast" else [dft_naive(f).l1 for f in fs]
    return _scan_rows(p, "ap", [2 * n + 1 for n in ns], norms)


def random_set_scan(p: int, sizes: list[int], seed: int = 0) -> list[ScanRow]:
    """Same row shape for uniform random subsets of Z_p."""
    ctx = GroupContext(p)
    for size in sizes:  # every size is checked before the first transform
        if not 1 <= size < p / 2:
            raise ValueError(f"size {size} must satisfy 1 <= size < p/2")
    rng = np.random.default_rng(seed)
    fs = [SparseFunction.indicator(ctx, _rand_points(rng, ctx, size)) for size in sizes]
    return _scan_rows(p, "random", sizes, wiener_norms(fs))
