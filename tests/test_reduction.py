import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from zpwiener import groups, reduction
from zpwiener.config import ToolConfig, active, using
from zpwiener.errors import BudgetError
from zpwiener.fourier import SparseFunction, magnitudes, wiener_norm
from zpwiener.groups import (
    AffineMap,
    GroupContext,
    Hyperplane,
    Line,
    enumerate_directions,
    signed_rep,
)
from zpwiener.reduction import (
    find_balanced_hyperplane,
    find_balanced_line,
    find_dirichlet_q,
    find_separating_map,
    pushforward,
    rescale_to_short_interval,
    restrict_to_line,
    separated_projection_bound,
)
from zpwiener.verify import _rand_points


def all_lines(ctx):
    seen = set()
    lines = []
    for b in enumerate_directions(ctx):
        for c in ctx.points():
            line = Line(ctx, b, c)
            key = frozenset(line.points())
            if key not in seen:
                seen.add(key)
                lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# hyperplane and line balancing
# ---------------------------------------------------------------------------


def test_balanced_hyperplane_diagonal():
    ctx = GroupContext(3, 2)
    report = find_balanced_hyperplane([(t, t) for t in range(3)], ctx)
    assert report.count == 1
    assert report.deviation == pytest.approx(0.0)


def test_balanced_hyperplane_uniform_set():
    ctx = GroupContext(3, 2)
    report = find_balanced_hyperplane(list(ctx.points()), ctx)
    assert report.count == 3
    assert report.deviation == pytest.approx(0.0)
    # every hyperplane is perfect for the full set
    for eta in enumerate_directions(ctx):
        for u in range(3):
            from zpwiener.groups import Hyperplane

            assert sum(Hyperplane(ctx, eta, u).contains(x) for x in ctx.points()) == 3


def test_balanced_hyperplane_single_point():
    ctx = GroupContext(5, 2)
    report = find_balanced_hyperplane([(2, 3)], ctx)
    assert report.target == pytest.approx(1 / 5)
    # hyperplanes through the point are off by 4/5; the best miss it entirely
    assert report.deviation == pytest.approx(1 / 5)
    assert report.theta <= 1.0


def test_balanced_hyperplane_theta_bound_random():
    rng = np.random.default_rng(0)
    for p, d in [(5, 2), (7, 2), (5, 3)]:
        ctx = GroupContext(p, d)
        for _ in range(10):
            size = int(rng.integers(1, ctx.size))
            report = find_balanced_hyperplane(_rand_points(rng, ctx, size), ctx)
            assert report.deviation <= report.bound + 1e-9
            assert report.count == pytest.approx(report.target, abs=report.bound + 1e-9)


def brute_force_hyperplane(ctx, pts):
    """The first (eta, u, count) minimising |count - |A|/p|, counting with
    Hyperplane.contains over every Hyperplane(ctx, eta, u), eta then u in
    lexicographic order."""
    target = len(pts) / ctx.p
    best = None
    for eta in enumerate_directions(ctx):
        for u in range(ctx.p):
            count = sum(Hyperplane(ctx, eta, u).contains(x) for x in pts)
            if best is None or abs(count - target) < abs(best[2] - target):
                best = (eta, u, count)
    return best


def test_hyperplane_scan_matches_brute_force():
    # (3, 4) reaches every leading-1 block of the direction list, and (11, 2)
    # an even-sized half table (p // 2 + 1 = 6)
    rng = np.random.default_rng(10)
    for p, d in [(3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (7, 3), (3, 4)]:
        ctx = GroupContext(p, d)
        for _ in range(4):
            pts = _rand_points(rng, ctx, int(rng.integers(1, ctx.size + 1)))
            report = find_balanced_hyperplane(pts, ctx)
            assert (report.found.eta, report.found.u, report.count) == brute_force_hyperplane(ctx, pts)


def test_hyperplane_scan_matches_brute_force_on_every_subset_of_z3_squared():
    ctx = GroupContext(3, 2)
    cells = list(ctx.points())
    for mask in range(1, 1 << len(cells)):
        pts = [x for i, x in enumerate(cells) if mask >> i & 1]
        report = find_balanced_hyperplane(pts, ctx)
        assert (report.found.eta, report.found.u, report.count) == brute_force_hyperplane(ctx, pts)


def test_scan_invariants_raise_without_asserts(monkeypatch):
    # off-integer counts, then integer counts that miss |A|: each must raise,
    # also under python -O
    ctx = GroupContext(7, 2)
    pts = _rand_points(np.random.default_rng(0), ctx, 20)
    irfft = np.fft.irfft
    for shift, message in ((0.25, "not integers"), (1.0, "do not sum")):
        monkeypatch.setattr(reduction.np.fft, "irfft", lambda *a, s=shift, **k: irfft(*a, **k) + s)
        with pytest.raises(RuntimeError, match=message):
            find_balanced_hyperplane(pts, ctx)


def test_balanced_hyperplanes_are_pinned():
    # (eta, u, count) recorded from the per-direction scan, seeded sets
    cases = [
        (5, 2, 1, 7, (0, 1), 4, 1),
        (7, 3, 2, 60, (0, 0, 1), 4, 9),
        (31, 3, 3, 5958, (0, 1, 1), 12, 192),
        (11, 4, 4, 5856, (0, 0, 1, 0), 7, 532),
        (13, 2, 5, 40, (0, 1), 3, 3),
    ]
    for p, d, seed, size, eta, u, count in cases:
        ctx = GroupContext(p, d)
        report = find_balanced_hyperplane(_rand_points(np.random.default_rng(seed), ctx, size), ctx)
        assert (report.found.eta, report.found.u, report.count) == (eta, u, count)


def test_exhaustive_scan_needs_the_dense_budget():
    ctx = GroupContext(7, 3)
    pts = _rand_points(np.random.default_rng(0), ctx, 100)
    dense = _rand_points(np.random.default_rng(0), ctx, 200)  # density >= 4/p
    with using(ToolConfig(dense_budget=ctx.size - 1)):
        with pytest.raises(BudgetError, match="dense_budget"):
            find_balanced_hyperplane(pts, ctx)
        with pytest.raises(BudgetError, match="dense_budget"):
            find_balanced_line(dense, ctx)
    with using(ToolConfig(dense_budget=ctx.size)):
        assert find_balanced_hyperplane(pts, ctx).theta <= 1.0
        assert find_balanced_line(dense, ctx).count >= 1


@pytest.mark.parametrize("p,d", [(3, 4), (7, 3), (5, 2)])
def test_scan_is_the_same_in_chunks_of_one_two_and_three_directions(p, d, monkeypatch):
    # the code blocks [p^k, 2 p^k) start at direction (p^k - 1)/(p - 1): at
    # 1, 4 and 13, at 1 and 8, and at 1 here, so a chunk of 2 or 3 directions
    # straddles each start, and a chunk of 1 begins at each
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p * d)
    sets = [_rand_points(rng, ctx, int(rng.integers(1, ctx.size + 1))) for _ in range(3)]
    reports = [find_balanced_hyperplane(pts, ctx) for pts in sets]
    for rows in (1, 2, 3):
        monkeypatch.setattr(reduction, "ARRAY_CHUNK", 2 * p * rows)
        assert [find_balanced_hyperplane(pts, ctx) for pts in sets] == reports


def test_scan_builds_no_direction_table():
    # Z_3^12 has r = 265,720 directions: an (r, d) int64 table of them alone
    # takes 25.5 MB, more than the whole scan may peak at
    ctx = GroupContext(3, 12)
    pts = _rand_points(np.random.default_rng(12), ctx, 2000)
    table = (ctx.size - 1) // 2 * ctx.d * 8
    tracemalloc.start()
    try:
        report = find_balanced_hyperplane(pts, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.theta <= 1.0
    assert peak < table, (peak, table)


@pytest.mark.parametrize("p, d", [(5, 2), (7, 3), (23, 3), (31, 3), (11, 4)])
def test_cached_scan_table_matches_the_streamed_scan(p, d, monkeypatch):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p * d)
    sets = [ctx.point_array(_rand_points(rng, ctx, n)) for n in (1, ctx.size // 7, ctx.size // 2)]
    cached = [reduction._scan_hyperplanes([(ctx, arr)])[0] for arr in sets]
    table = reduction._multiples_table(p, d)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    # with ARRAY_CHUNK below the table's r h entries the scan decodes its
    # directions chunk by chunk: one direction a chunk, then nearly all
    monkeypatch.setattr(reduction, "_multiples_table", lambda *_: pytest.fail("table read"))
    for chunk in (1, table.size - 1):
        monkeypatch.setattr(reduction, "ARRAY_CHUNK", chunk)
        assert [reduction._scan_hyperplanes([(ctx, arr)])[0] for arr in sets] == cached, chunk


def _scan_one(arr, ctx):
    """The hyperplane scan of one point array as it was before sets were
    stacked, kept as the oracle of the stacked scan."""
    p, d = ctx.p, ctx.d
    r = (ctx.size - 1) // (p - 1)
    indicator = np.zeros((p,) * d)
    indicator[tuple(arr.T)] = 1.0
    spectrum = np.fft.rfft(indicator, axis=0)
    for axis in range(1, d):
        spectrum = np.fft.fft(spectrum, axis=axis)
    spectrum = spectrum.ravel()
    chunk = reduction.ARRAY_CHUNK
    table = reduction._multiples_table(p, d) if r * (p // 2 + 1) <= chunk else None
    tc = reduction._t_c(p) if table is None else None
    n = len(arr)
    density = n / ctx.size
    target = density * p ** (d - 1)
    best = None
    rows = max(1, chunk // (2 * p))
    for start in range(0, r, rows):
        stop = min(start + rows, r)
        if table is None:
            flat = reduction._multiples(ctx, tc, start, stop)
        else:
            flat = table[start:stop]
        exact = np.fft.irfft(spectrum[flat], n=p, axis=1)
        counts = np.rint(exact).astype(np.int64)
        dev = np.abs(counts - target)
        j = int(dev.argmin())
        if best is None or dev.flat[j] < best[0]:
            best = (dev.flat[j], start + j // p, j % p, int(counts.flat[j]))
    _, i, u, count = best
    eta = tuple(groups._direction_rows(ctx, np.arange(i, i + 1))[0].tolist())
    bound = math.sqrt(density) * p ** ((d - 1) / 2)
    dev = abs(count - target)
    return reduction.BalanceReport(Hyperplane(ctx, eta, u), count, target, dev, bound, dev / bound)


@pytest.mark.parametrize("p, d", [(5, 2), (7, 3), (23, 3), (31, 3), (11, 4)])
def test_stacked_scan_matches_the_single_array_scan(p, d, monkeypatch):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p + d)
    sizes = [1, 2, ctx.size // 50 + 1, ctx.size // 3, ctx.size - 1, 3, ctx.size // 2]
    sets = [ctx.point_array(_rand_points(rng, ctx, n)) for n in sizes]
    want = [_scan_one(arr, ctx) for arr in sets]
    assert reduction._scan_hyperplanes([(ctx, arr) for arr in sets]) == want
    r = (ctx.size - 1) // (p - 1)
    # stacks of 2 and of 3 sets (the last one short), then one set a stack
    # with its directions 3 a chunk
    for chunk in (2 * p * r * 2, 2 * p * r * 3, 2 * p * 3):
        monkeypatch.setattr(reduction, "ARRAY_CHUNK", chunk)
        assert reduction._scan_hyperplanes([(ctx, arr) for arr in sets]) == want, chunk


def _mixed_sets(rng, groups_and_sizes):
    return [(ctx, ctx.point_array(_rand_points(rng, ctx, n))) for ctx, n in groups_and_sizes]


def test_scan_of_interleaved_groups_is_each_set_scanned_alone():
    z52, z73 = GroupContext(5, 2), GroupContext(7, 3)
    sets = _mixed_sets(np.random.default_rng(29),
                       [(z52, 7), (z73, 100), (z52, 12), (z73, 5), (z52, 1), (z73, 342)])
    alone = [reduction._scan_hyperplanes([s])[0] for s in sets]
    assert alone == [_scan_one(arr, ctx) for ctx, arr in sets]
    assert reduction._scan_hyperplanes(sets) == alone


@pytest.mark.parametrize(
    "config,says",
    [(ToolConfig(dense_budget=100), "p^d = 121 "), (ToolConfig(op_budget=100), "work 132 ")],
)
def test_scan_of_mixed_groups_refuses_as_its_first_refusing_set(config, says):
    # Z_5^2 fits both budgets; Z_11^2, the second set, and Z_7^3 do not
    sets = _mixed_sets(np.random.default_rng(30), [
        (GroupContext(5, 2), 6), (GroupContext(11, 2), 20), (GroupContext(7, 3), 30),
        (GroupContext(5, 2), 9), (GroupContext(11, 2), 3),
    ])
    with using(config):
        with pytest.raises(BudgetError) as first:
            for s in sets:
                reduction._scan_hyperplanes([s])
        with pytest.raises(BudgetError) as batch:
            reduction._scan_hyperplanes(sets)
    assert str(batch.value) == str(first.value)
    assert says in str(first.value)


def test_removed_keywords_are_refused():
    ctx = GroupContext(7, 2)
    with pytest.raises(TypeError):
        find_balanced_hyperplane([(0, 1), (2, 3)], ctx, mode="sampled")
    with pytest.raises(TypeError):
        rescale_to_short_interval(SparseFunction.indicator(GroupContext(101), [1, 35]), [1])


def test_line_search_d2_is_single_step():
    ctx = GroupContext(5, 2)
    rng = np.random.default_rng(2)
    pts = _rand_points(rng, ctx, 20)
    result = find_balanced_line(pts, ctx)
    assert len(result.steps) == 1
    assert result.count == result.steps[0].count
    hp = result.steps[0].found
    assert set(result.line.points()) == {x for x in ctx.points() if hp.contains(x)}


def test_line_search_full_set_zero_deviation():
    ctx = GroupContext(5, 3)
    result = find_balanced_line(list(ctx.points()), ctx)
    assert result.count == 5
    assert all(step.deviation == pytest.approx(0.0) for step in result.steps)


def test_line_search_random_set_per_step_bounds():
    ctx = GroupContext(5, 3)
    rng = np.random.default_rng(3)
    pts = _rand_points(rng, ctx, 100)  # density 4/5 meets the hypothesis 4/p
    result = find_balanced_line(pts, ctx)
    for step in result.steps:
        assert step.theta <= 1.0 + 1e-12
    assert result.count == sum(1 for x in pts if result.line.contains(x))
    assert abs(result.line_density - result.base_density) <= result.composed_bound + 1e-12


def test_line_search_density_hypothesis():
    ctx = GroupContext(5, 3)
    with pytest.raises(ValueError, match="density"):
        find_balanced_line([(0, 0, 0)], ctx)  # default constant 4 demands 4/p
    cube = GroupContext(3, 3)  # 4/3 > 1: no set meets it, not even the whole group
    with pytest.raises(ValueError, match=r"no set of Z_3\^d .* needs p >= LINE_DENSITY_CONST"):
        find_balanced_line(cube.points(), cube)


def test_balanced_lines_are_pinned():
    # recorded from the tuple-based search: direction, base, count and steps
    cases = [
        (5, 3, 1, 110, (4, 0, 0), (0, 3, 0), 4, [((0, 0, 1), 0), ((0, 1), 3)]),
        (7, 3, 2, 200, (6, 0, 0), (0, 0, 2), 4, [((0, 0, 1), 2), ((0, 1), 0)]),
        (5, 4, 3, 520, (4, 0, 0, 0), (0, 0, 0, 0), 4,
         [((0, 0, 1, 1), 0), ((0, 1, 0), 0), ((0, 1), 0)]),
        (11, 3, 4, 600, (10, 0, 0), (0, 8, 3), 5, [((0, 1, 5), 1), ((0, 1), 3)]),
        (5, 5, 9, 2600, (4, 0, 0, 0, 0), (0, 2, 2, 1, 2), 4,
         [((0, 0, 1, 0, 4), 0), ((0, 0, 1, 4), 4), ((0, 0, 1), 2), ((0, 1), 2)]),
    ]
    for p, d, seed, size, direction, base, count, steps in cases:
        ctx = GroupContext(p, d)
        result = find_balanced_line(_rand_points(np.random.default_rng(seed), ctx, size), ctx)
        assert (result.line.direction, result.line.base, result.count) == (direction, base, count)
        assert [(s.found.eta, s.found.u) for s in result.steps] == steps


@pytest.mark.parametrize("p,d,seed", [(5, 3, 5), (7, 3, 6), (5, 4, 7), (5, 5, 8)])
def test_lifted_line_lies_in_the_first_hyperplane(p, d, seed, monkeypatch):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(seed)
    pts = _rand_points(rng, ctx, ctx.size * 9 // 10)
    result = find_balanced_line(pts, ctx)
    assert all(result.steps[0].found.contains(x) for x in result.line.points())

    # the scan's normals have a leading 1; any nonzero normal must lift too
    def any_hyperplane(sets):
        ((sub, arr),) = sets  # the line search scans one array a step
        eta = tuple(int(c) for c in rng.integers(0, p, sub.d))
        if not any(eta):
            eta = (1,) + eta[1:]
        u = int(arr[0] @ eta % p)
        count = int(np.count_nonzero(arr @ eta % p == u))
        return [reduction.BalanceReport(Hyperplane(sub, eta, u), count, 0.0, 0.0, 1.0, 0.0)]

    monkeypatch.setattr(reduction, "_scan_hyperplanes", any_hyperplane)
    for _ in range(10):
        result = find_balanced_line(pts, ctx)
        assert all(result.steps[0].found.contains(x) for x in result.line.points())
        assert result.count == len(set(result.line.points()) & set(pts))


def test_line_pipeline_norm_monotone_end_to_end():
    ctx = GroupContext(5, 3)
    rng = np.random.default_rng(99)
    pts = _rand_points(rng, ctx, 100)
    mags = 1.0 + rng.random(100)
    phases = np.exp(2j * np.pi * rng.random(100))
    f = SparseFunction(ctx, dict(zip(pts, mags * phases)))
    result = find_balanced_line(f.support, ctx)
    restricted = restrict_to_line(f, result.line)
    assert restricted.support_size == result.count
    assert wiener_norm(f) >= wiener_norm(restricted) - 1e-9
    assert abs(result.line_density - result.base_density) <= result.composed_bound + 1e-12


# ---------------------------------------------------------------------------
# restriction to a line
# ---------------------------------------------------------------------------


def test_restriction_examples():
    ctx = GroupContext(5, 2)
    f = SparseFunction(ctx, {(1, 0): 2 - 1j})
    axis = Line(ctx, (1, 0), (0, 0))
    fl = restrict_to_line(f, axis)
    assert dict(fl.entries) == {(1,): 2 - 1j}

    ones = SparseFunction.indicator(GroupContext(3, 2), GroupContext(3, 2).points())
    for line in all_lines(GroupContext(3, 2)):
        fl = restrict_to_line(ones, line)
        assert fl.support_size == 3
        assert all(fl[(u,)] == 1 for u in range(3))


def test_restriction_norm_is_parametrization_invariant():
    ctx = GroupContext(5, 2)
    rng = np.random.default_rng(4)
    pts = _rand_points(rng, ctx, 8)
    vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    line = Line(ctx, (1, 2), (0, 3))
    # same point set, different parametrization: direction doubled, base shifted
    same = Line(ctx, (2, 4), (1, 0))
    assert set(line.points()) == set(same.points())
    a = wiener_norm(restrict_to_line(f, line))
    b = wiener_norm(restrict_to_line(f, same))
    assert a == pytest.approx(b, abs=1e-9)


def test_line_monotonicity_spot_checks():
    ctx = GroupContext(3, 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        size = int(rng.integers(1, 9))
        pts = _rand_points(rng, ctx, size)
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        norm = wiener_norm(f)
        for line in all_lines(ctx):
            assert norm >= wiener_norm(restrict_to_line(f, line)) - 1e-9


# ---------------------------------------------------------------------------
# short-interval dilation
# ---------------------------------------------------------------------------


def test_dirichlet_examples():
    ctx = GroupContext(101)
    assert find_dirichlet_q([1], ctx).q == 1
    found = find_dirichlet_q([1, 35], ctx)
    assert found.q == 3
    assert found.max_abs == 4
    assert found.rescaled_support == (3, 4)
    assert find_dirichlet_q([50], ctx).q == 2


def test_dirichlet_bound_and_minimality():
    from zpwiener.groups import canonical_abs

    rng = np.random.default_rng(6)
    for p in (101, 1009):
        ctx = GroupContext(p)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            lams = [int(v) for v in rng.choice(np.arange(1, p), n, replace=False)]
            found = find_dirichlet_q(lams, ctx)
            assert found.max_abs**n <= p ** (n - 1)
            for q in range(1, found.q):
                assert max(canonical_abs(q * l, p) for l in lams) ** n > p ** (n - 1)


def dirichlet_loop(lams, p):
    """Oracle: the literal scan, one q and one canonical_abs at a time, for
    q below the scan's limit; (q, max_abs), or None past the limit."""
    from zpwiener.groups import canonical_abs

    vals = sorted({l % p for l in lams})
    n = len(vals)
    for q in range(1, min(p, active().op_budget // n + 1)):
        max_abs = max(canonical_abs(q * l, p) for l in vals)
        if max_abs**n <= p ** (n - 1):
            return q, max_abs
    return None


def lams_with_q(rng, p, q, n):
    """n distinct lambdas a / q mod p with small a, so q * lambda is short."""
    inv = pow(q, -1, p)
    return [int(a) * inv % p for a in rng.choice(np.r_[-60:0, 1:61], n, replace=False)]


def test_dirichlet_blocks_match_the_literal_loop():
    # blocks of 64, 128, 256, ... q: q = 1 and q on each side of the first
    # two block boundaries, random sets, and one set whose products pass int64
    rng = np.random.default_rng(21)
    cases = [(p, [int(v) for v in rng.choice(np.arange(1, p), n, replace=False)], 1 << 20)
             for p in (101, 1009, 10007) for n in (1, 2, 3, 5)]
    cases += [(p, lams_with_q(rng, p, q, n), 1 << 20)
              for p in (1000003, 16777213, 2147483647)
              for q, n in ((1, 3), (64, 3), (65, 3), (192, 4), (193, 4), (999, 6))]
    p_big = 4294967311  # (p - 1) * limit passes 2^63: Python ints
    cases += [(p_big, lams_with_q(rng, p_big, q, 3), 1 << 40) for q in (64, 65, 300)]
    hits = []
    for p, lams, budget in cases:
        with using(ToolConfig(op_budget=budget)):
            want = dirichlet_loop(lams, p)
            found = find_dirichlet_q(lams, GroupContext(p))
        assert (found.q, found.max_abs) == want
        assert found.rescaled_support == tuple(sorted(signed_rep(found.q * l, p) for l in lams))
        hits.append(want[0])
    assert {1, 64, 65, 192, 193, 300} <= set(hits)


def test_dirichlet_refuses_exactly_past_the_budget():
    # q* = 65 with n = 3 costs 195 residues: answered at op_budget 195,
    # refused at 194, where the limit is 65
    lams = lams_with_q(np.random.default_rng(3), 1000003, 65, 3)
    ctx = GroupContext(1000003)
    with using(ToolConfig(op_budget=3 * 65)):
        assert find_dirichlet_q(lams, ctx).q == 65
    with using(ToolConfig(op_budget=3 * 65 - 1)), pytest.raises(BudgetError) as err:
        find_dirichlet_q(lams, ctx)
    assert str(err.value) == (
        "dilation scan (the smallest q lies in [65, 1000002]) work 195 exceeds "
        "budget 194 by 1; raise op_budget"
    )


def test_dirichlet_rejects_zero():
    ctx = GroupContext(101)
    with pytest.raises(ValueError):
        find_dirichlet_q([0, 3], ctx)
    with pytest.raises(ValueError):
        find_dirichlet_q([], ctx)


def test_rescale_examples():
    ctx = GroupContext(101)
    single = SparseFunction(ctx, {7: 1.5})
    out = rescale_to_short_interval(single)  # the greedy core is [7]
    assert abs(out.support_signed[0]) <= 1

    f = SparseFunction.indicator(ctx, [1, 35])
    out2 = rescale_to_short_interval(f)  # the greedy core is [1, 35]
    assert out2.q == 3
    assert out2.support_signed == (3, 4)
    assert out2.within_third
    assert wiener_norm(out2.function) == pytest.approx(wiener_norm(f), abs=1e-9)


def test_rescale_norm_preserved_random():
    ctx = GroupContext(101)
    rng = np.random.default_rng(7)
    pts = sorted(int(i) for i in rng.choice(np.arange(1, 101), 5, replace=False))
    vals = np.exp(2j * np.pi * rng.random(5)) * (1 + rng.random(5))
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    out = rescale_to_short_interval(f)  # greedy dissociated core
    assert out.function.support_size == f.support_size
    assert wiener_norm(out.function) == pytest.approx(wiener_norm(f), abs=1e-9)


def test_rescale_checks_a_large_group_quickly():
    # the core's signed sums are matched half against half, never listed in full
    ctx = GroupContext(16777213)
    f = SparseFunction.indicator(ctx, _rand_points(np.random.default_rng(0), ctx, 15))
    start = time.perf_counter()
    out = rescale_to_short_interval(f)
    assert time.perf_counter() - start < 1.0
    assert out.function.support_size == 15


def test_rescale_rejects_non_spanning_core(monkeypatch):
    # greedy maximality makes the core span the support; a core that does
    # not breaks an invariant, which raises without relying on assert
    monkeypatch.setattr(reduction, "additive_dimension", lambda pts, ctx, mode: (1, [(1,)]))
    f = SparseFunction.indicator(GroupContext(101), [1, 50])
    with pytest.raises(RuntimeError, match="combinations"):
        rescale_to_short_interval(f)


# ---------------------------------------------------------------------------
# coordinate separation
# ---------------------------------------------------------------------------


def test_separating_map_examples():
    ctx5 = GroupContext(5, 2)
    sep = find_separating_map([(0, 0), (0, 1)], ctx5)
    assert sep.row == (0, 1)
    assert sorted(sep.first_coords) == [0, 1]

    single = find_separating_map([(3, 4)], ctx5)
    assert single.row == (0, 1)  # smallest nonzero row, no constraints to meet

    ctx11 = GroupContext(11, 2)
    sep2 = find_separating_map([(1, 0), (2, 0), (3, 0)], ctx11)
    assert sep2.row == (1, 0)
    assert sorted(sep2.first_coords) == [1, 2, 3]


def test_separating_row_matches_brute_force():
    rng = np.random.default_rng(11)
    for p, d in [(11, 2), (13, 2), (7, 3), (5, 3), (5, 4)]:
        ctx = GroupContext(p, d)
        max_size = math.isqrt(2 * p - 1)
        for trial in range(12):
            pts = _rand_points(rng, ctx, int(rng.integers(1, max_size + 1)))
            if trial % 2 and len(pts) >= 2:
                # a pair agreeing on the last d - 1 - trial % d coordinates
                keep = d - 1 - trial % d
                pts[1] = pts[1][: d - keep] + pts[0][d - keep :]
                pts = list(dict.fromkeys(pts))
            deltas = [
                tuple((x - y) % p for x, y in zip(a, b)) for a in pts for b in pts if a != b
            ]
            want = next(
                t for t in ctx.points()
                if any(t) and all(ctx.dot(t, delta) for delta in deltas)
            )
            assert find_separating_map(pts, ctx).row == want


def test_separating_rows_are_pinned():
    # recorded from the row-at-a-time scan, and checked against the brute
    # force lexicographic scan; the paired sets hold two points that differ
    # only in coordinate 0
    cases = [
        (13, 2, 1, 5, (0, 1), (1, 2)),
        (101, 2, 2, 14, (0, 1), (1, 4)),
        (101, 3, 3, 14, (0, 0, 1), (1, 0, 6)),
        (7, 3, 4, 3, (0, 0, 1), (1, 0, 0)),
        (1009, 2, 5, 40, (1, 0), (1, 2)),
    ]
    for p, d, seed, size, row, paired_row in cases:
        ctx = GroupContext(p, d)
        rng = np.random.default_rng(seed)
        pts = _rand_points(rng, ctx, size)
        tail = tuple(int(c) for c in rng.integers(0, p, size=d - 1))
        paired = [(0,) + tail, (1,) + tail] + [x for x in pts if x[1:] != tail][: size - 2]
        assert find_separating_map(pts, ctx).row == row
        assert find_separating_map(paired, ctx).row == paired_row
    ctx = GroupContext(101, 3)
    assert find_separating_map([(0, 0, 5), (1, 1, 5), (2, 7, 3)], ctx).row == (0, 1, 0)
    assert find_separating_map([(0, 0, 5), (1, 1, 5), (2, 7, 3), (0, 1, 5)], ctx).row == (1, 1, 0)


def test_separating_row_past_int64_codes():
    # p^d is about 2^90 here; the row was recorded before point sets moved
    # to the array form
    ctx = GroupContext(1073741789, 3)
    assert find_separating_map([(0, 0, 0), (1, 0, 0), (0, 1, 5)], ctx).row == (1, 0, 1)


def test_separating_row_past_int64_place_values():
    # the coordinate-0 pair starts the scan at code p^3, about 2^90; the row
    # is the lexicographically first t with t0 != 0, t3 != 0 and t3 != t0
    ctx = GroupContext(1073741789, 4)
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
    assert find_separating_map(pts, ctx).row == (1, 0, 0, 2)
    p = ctx.p
    assert groups._decode(ctx, np.array([p**3 + 2], dtype=object)).tolist() == [[1, 0, 0, 2]]
    with pytest.raises(BudgetError, match="int64"):
        groups._weights(ctx)


def test_separating_map_refuses_int64_overflow():
    # dot products of residues near p = 4294967291 leave int64
    p = 4294967291
    pts = [(p - 1, p - 2), (p - 3, 1), (2, p - 5)]
    with pytest.raises(BudgetError, match="overflow int64"):
        find_separating_map(pts, GroupContext(p, 2))


def test_singular_maps_raise_without_asserts(monkeypatch):
    monkeypatch.setattr(AffineMap, "is_invertible", lambda self: False)
    with pytest.raises(RuntimeError, match="singular"):
        find_separating_map([(0, 1), (2, 3)], GroupContext(11, 2))


def test_separating_map_hypothesis_enforced():
    ctx = GroupContext(11, 2)
    too_big = [(i, 0) for i in range(5)]  # 25 >= 2*11
    with pytest.raises(ValueError, match="sqrt"):
        find_separating_map(too_big, ctx)


def test_pushforward_properties():
    ctx = GroupContext(5, 2)
    rng = np.random.default_rng(8)
    pts = _rand_points(rng, ctx, 6)
    vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    from zpwiener.groups import AffineMap

    t = AffineMap(ctx, ((1, 2), (3, 2)), (4, 1))
    h = pushforward(f, t)
    assert h.support == frozenset(t(x) for x in f.support)
    assert wiener_norm(h) == pytest.approx(wiener_norm(f), abs=1e-9)
    assert pushforward(f, AffineMap(ctx, ((1, 0), (0, 1)))).entries == f.entries

    q_dilation = AffineMap(GroupContext(7), ((3,),))
    g = SparseFunction(GroupContext(7), {1: 1.0, 2: -2.0})
    hg = pushforward(g, q_dilation)
    assert hg.support == frozenset({(3,), (6,)})
    assert wiener_norm(hg) == pytest.approx(wiener_norm(g), abs=1e-9)


def test_separated_projection_bound_small():
    for p in (11, 13):
        ctx = GroupContext(p, 2)
        rng = np.random.default_rng(p)
        size = int(math.isqrt(2 * p - 1))  # largest size allowed by |A|^2 < 2p
        pts = _rand_points(rng, ctx, size)
        vals = np.exp(2j * np.pi * rng.random(size))
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        bound = separated_projection_bound(f)
        assert len(set(bound.separating.first_coords)) == size
        assert bound.norm >= bound.min_inner - 1e-9
        # the norm is exactly the average of the twisted projections
        assert bound.norm == pytest.approx(bound.mean_inner, abs=1e-9)


def _rolled_inner_norms(f):
    """The inner norms as p rolls of |fhat| slices, one `np.roll` a slice."""
    p, d = f.ctx.p, f.ctx.d
    row = find_separating_map(f.support, f.ctx).row
    pivot = next(i for i, c in enumerate(row) if c)
    shift = [c * pow(row[pivot], -1, p) % p for i, c in enumerate(row) if i != pivot]
    mags = magnitudes(f)
    acc = np.zeros((p,) * (d - 1))
    for s in range(p):
        acc += np.roll(mags.take(s, axis=pivot), [-s * c % p for c in shift], axis=tuple(range(d - 1)))
    return (acc.ravel() * p ** (d - 1)).tolist()


@pytest.mark.parametrize(
    "p,d,pts",
    [
        (101, 2, [(0, 0), (1, 0), (0, 1)]),  # row (1, 2)
        (1009, 2, [(0, 0), (1, 0), (0, 1), (2, 0), (0, 3)]),
        (11, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),  # row (1, 2, 3)
        (13, 3, [(0, 0, 0), (0, 1, 0), (0, 0, 1)]),  # pivot 1
        (13, 4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        (17, 4, [(3, 1, 4, 1), (5, 9, 2, 6)]),  # row (0, 0, 0, 1): no shift
    ],
)
def test_separated_projection_inner_norms_are_the_rolled_sums(p, d, pts):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p + d)
    f = SparseFunction(ctx, dict(zip(pts, rng.standard_normal(len(pts)) + 1j)))
    bound = separated_projection_bound(f)
    want = _rolled_inner_norms(f)
    assert np.array(bound.inner_norms).tobytes() == np.array(want).tobytes()
    assert bound.min_inner == min(want) and bound.mean_inner == sum(want) / len(want)


@pytest.mark.parametrize("p,d", [(11, 2), (13, 2), (11, 3), (13, 3)])
def test_separated_projection_inner_norms_match_per_row(p, d):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p * d)
    size = int(math.isqrt(2 * p - 1))
    pts = _rand_points(rng, ctx, size)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    bound = separated_projection_bound(f)
    h = pushforward(f, bound.separating.map)
    want = []
    for xi_rest in itertools.product(range(p), repeat=d - 1):
        twisted = {
            (a[0],): v * np.exp(-2j * np.pi * (sum(ai * xi for ai, xi in zip(a[1:], xi_rest)) % p) / p)
            for a, v in h.entries.items()
        }
        want.append(wiener_norm(SparseFunction(GroupContext(p), twisted)))
    assert np.allclose(bound.inner_norms, want, rtol=0, atol=1e-12)
    assert bound.norm == wiener_norm(f)
    assert bound.norm == pytest.approx(bound.mean_inner, abs=1e-9)


def _separable_set(rng, p, d, size, pivot):
    """size points with distinct last coordinates, so the separating row is
    e_{d-1}.  For pivot 0, two points differ only in x_0, which rules out
    every row with t_0 = 0, and two others share x_0, which rules out e_0."""
    last = rng.choice(p, size=size, replace=False)
    pts = [tuple(int(c) for c in rng.integers(0, p, d - 1)) + (int(y),) for y in last]
    if pivot == 0:
        pts[1] = ((pts[0][0] + 1) % p,) + pts[0][1:]
        pts[3] = pts[2][:1] + pts[3][1:]
    return pts


@pytest.mark.parametrize("p,d", [(101, 2), (31, 3)])
@pytest.mark.parametrize("pivot", ["first", "last"])
def test_separation_bound_reads_inner_norms_off_the_transform(p, d, pivot):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p + d)
    size = int(math.isqrt(2 * p - 1))
    pivot = 0 if pivot == "first" else d - 1
    pts = _separable_set(rng, p, d, size, pivot)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    bound = separated_projection_bound(f)
    assert next(i for i, c in enumerate(bound.separating.row) if c) == pivot
    assert bound.norm == wiener_norm(f)
    # the per-row oracle: the one-dimensional norm of each twisted projection
    h = pushforward(f, bound.separating.map)
    want = [
        wiener_norm(SparseFunction(GroupContext(p), {
            (a[0],): v * np.exp(-2j * np.pi * (np.dot(a[1:], xi_rest) % p) / p)
            for a, v in h.entries.items()
        }))
        for xi_rest in itertools.product(range(p), repeat=d - 1)
    ]
    assert np.allclose(bound.inner_norms, want, rtol=1e-12, atol=0)
