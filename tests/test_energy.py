import itertools
import math
import operator
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpwiener import energy, groups
from zpwiener.config import ARRAY_CHUNK, ToolConfig, using
from zpwiener.energy import (
    additive_dimension,
    build_scattered_family,
    is_dissociated,
    level_index,
    level_sets,
    rudin_ratio,
    scattered_energy_bound,
    t_k_direct,
    t_k_enumerated,
    t_k_int,
    t_k_int_set,
    t_k_spectral,
    verify_witness,
)
from zpwiener.errors import BudgetError
from zpwiener.fourier import SparseFunction
from zpwiener.groups import GroupContext
from zpwiener.verify import _rand_points


def brute_dissociated(pts, ctx):
    """Independent oracle: literal scan of all 3^n sign patterns."""
    pts = sorted({ctx.point(x) for x in pts})
    for eps in itertools.product((-1, 0, 1), repeat=len(pts)):
        if not any(eps):
            continue
        acc = ctx.zero()
        for e, x in zip(eps, pts):
            acc = ctx.add(acc, ctx.scale(e, x))
        if acc == ctx.zero():
            return False
    return True


def brute_dimension(pts, ctx):
    """Independent oracle: the first dissociated subset of largest size, in
    lexicographic order of sorted subsets (the exact search's tie-break)."""
    pts = sorted({ctx.point(x) for x in pts})
    for size in range(len(pts), -1, -1):
        for subset in itertools.combinations(pts, size):
            if brute_dissociated(subset, ctx):
                return size, subset


def test_t_k_examples():
    ctx5 = GroupContext(5)
    delta = SparseFunction.indicator(ctx5, [0])
    assert t_k_direct(delta, 2) == pytest.approx(1.0)
    two = SparseFunction.indicator(ctx5, [0, 1])
    assert t_k_direct(two, 1) == pytest.approx(2.0)
    assert t_k_direct(two, 2) == pytest.approx(6.0)
    assert t_k_spectral(two, 2) == pytest.approx(6.0, rel=1e-9)
    assert t_k_enumerated(two, 2) == pytest.approx(6.0)


def test_t1_is_l2_mass():
    ctx = GroupContext(7)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = SparseFunction(ctx, dict(zip([(0,), (2,), (3,), (6,)], vals)))
    assert t_k_direct(f, 1) == pytest.approx(f.l2_norm**2, rel=1e-12)


@pytest.mark.parametrize("p", [5, 7, 11, 101])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_spectral_matches_direct(p, k):
    ctx = GroupContext(p)
    rng = np.random.default_rng(p * 10 + k)
    size = min(6, p - 1)
    pts = _rand_points(rng, ctx, size)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    direct = t_k_direct(f, k)
    spectral = t_k_spectral(f, k)
    assert abs(direct - spectral) <= 1e-6 * max(1.0, direct)


def test_t_k_multidim():
    ctx = GroupContext(3, 2)
    rng = np.random.default_rng(32)
    pts = [(0, 1), (1, 1), (2, 0), (1, 2)]
    vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    for k in (1, 2):
        direct = t_k_direct(f, k)
        assert t_k_spectral(f, k) == pytest.approx(direct, rel=1e-9)
        assert t_k_enumerated(f, k) == pytest.approx(direct, rel=1e-9)


def test_enumerated_micro_oracle_matches_convolution():
    rng = np.random.default_rng(42)
    for trial in range(10):
        p = (5, 7, 11)[trial % 3]
        ctx = GroupContext(p)
        size = int(rng.integers(1, min(8, p) + 1))
        pts = _rand_points(rng, ctx, size)
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        for k in (1, 2):
            assert t_k_enumerated(f, k) == pytest.approx(t_k_direct(f, k), rel=1e-9)
    # both table paths, d = 2 and k = 3; indicator counts agree exactly
    for trial in range(12):
        ctx = (GroupContext(3, 2), GroupContext(5, 2), GroupContext(7))[trial % 3]
        size = int(rng.integers(1, 6))
        pts = _rand_points(rng, ctx, size)
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        ind = SparseFunction.indicator(ctx, pts)
        for k in (2, 3):
            assert t_k_enumerated(f, k) == pytest.approx(t_k_direct(f, k), rel=1e-9)
            assert t_k_enumerated(ind, k) == t_k_direct(ind, k)
    with pytest.raises(BudgetError):
        t_k_enumerated(SparseFunction.indicator(GroupContext(11), range(9)), 2)


@pytest.mark.parametrize("k", [2, 3])
def test_t_k_loop_and_array_paths_agree(k):
    # supports on both sides of the crossover that picks the dict loop
    rng = np.random.default_rng(k)
    for ctx in (GroupContext(101), GroupContext(7, 2), GroupContext(3, 3)):
        for size in range(1, 9):
            pts = _rand_points(rng, ctx, min(size, ctx.size))
            vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
            keys = groups._codes(ctx, pts)
            for v in (vals, np.ones(len(pts), dtype=complex)):
                loop = energy._tk_from_entries(dict(zip(pts, v)), ctx.add, k)
                array = energy._tk_table(keys, v, partial(groups._add_codes, ctx), k, ctx.size)
                if v is vals:
                    assert array == pytest.approx(loop, rel=1e-12)
                else:
                    assert array == loop
    for size in (2, 3, 6, 12):
        xs = [int(x) for x in rng.choice(np.arange(-50, 50), size, replace=False)]
        vals = dict(zip(xs, rng.standard_normal(size)))
        loop = energy._tk_from_entries(vals, operator.add, k)
        assert t_k_int(vals, k) == pytest.approx(loop, rel=1e-12)


def test_t_k_work_budget_on_both_paths():
    ctx = GroupContext(101)
    for size in (3, 20):
        f = SparseFunction.indicator(ctx, range(size))
        with using(ToolConfig(op_budget=size * size)):
            with pytest.raises(BudgetError, match="work"):
                t_k_direct(f, 3)
            assert t_k_direct(f, 2) > 0


def _integer_tables(rng):
    """(keys, values, add, span) of seeded integer-valued functions on Z_p^d,
    d = 1..4: indicators, values in -3..3 (some keys then sum to exactly 0)
    and positive integers, each small enough to pass the counting guard."""
    for ctx in (GroupContext(10007), GroupContext(101, 2), GroupContext(23, 3),
                GroupContext(11, 4)):
        add = partial(groups._add_codes, ctx)
        for size in (5, 17, 60):
            keys = groups._codes(ctx, _rand_points(rng, ctx, size))
            signed = rng.integers(1, 4, size) * rng.choice((-1, 1), size)
            for vals in (np.ones(size), signed, rng.integers(1, 6, size)):
                yield keys, vals.astype(complex), add, ctx.size


def test_counting_and_sorting_give_the_same_float(monkeypatch):
    # a span past ARRAY_CHUNK is still a bound on the keys, and takes the sort
    calls = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    rng = np.random.default_rng(18)
    for keys, vals, add, span in _integer_tables(rng):
        for k in (2, 3):
            before = len(calls)
            fast = energy._tk_table(keys, vals, add, k, span)
            after = len(calls)
            slow = energy._tk_table(keys, vals, add, k, ARRAY_CHUNK + 1)
            assert before < after == len(calls)
            assert fast.hex() == slow.hex()
    for size, k in ((12, 2), (50, 3)):  # t_k_int, shifted to [0, k (max - min)]
        xs = rng.choice(np.arange(-3000, 3000), size, replace=False).tolist()
        vals = dict(zip(xs, rng.integers(-3, 4, size).tolist()))
        entries = {x: v for x, v in vals.items() if v}
        keys = np.array(list(entries)) - min(entries)
        slow = energy._tk_table(keys, np.array(list(entries.values()), dtype=complex),
                                np.add, k, ARRAY_CHUNK + 1)
        before = len(calls)
        assert t_k_int(vals, k).hex() == slow.hex()
        assert len(calls) > before


def test_only_exact_integer_inputs_reach_bincount(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.bincount reached")

    monkeypatch.setattr(np, "bincount", refuse)
    rng = np.random.default_rng(7)
    ctx = GroupContext(101)
    pts = _rand_points(rng, ctx, 30)
    cases = [
        rng.standard_normal(30) + 1j * rng.standard_normal(30),  # complex
        rng.integers(-3, 4, 30) + 0.5,  # fractional
        np.full(30, 1.0 + 1j),  # integer parts, nonzero imaginary part
        np.full(30, 42.0),  # (sum |v|)^4 = 1260^4 < 2^53, but (sum |v|)^6 is not
    ]
    for vals in cases:
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        t_k_direct(f, 3)
    huge = GroupContext(101, 3)  # span p^3 = 1030301 > ARRAY_CHUNK
    t_k_direct(SparseFunction.indicator(huge, _rand_points(rng, huge, 30)), 2)
    t_k_int({x: 1.0 for x in range(0, 20 * 5000, 5000)}, 2)  # span 2 * 95000 + 1
    t_k_int({x: 3000.0 for x in range(20)}, 2)  # (20 * 3000)^4 > 2^53
    # the guard itself: 9741^4 <= 2^53 < 9742^4
    assert energy._exact_in_float(np.array([9741.0]), 2)
    assert not energy._exact_in_float(np.array([9742.0]), 2)


def test_counting_and_sorting_refuse_with_the_same_work():
    # values in -3..3 give keys whose values sum to exactly 0; both ways keep
    # them, so the second round's work, and the refusal, are the same
    rng = np.random.default_rng(5)
    ctx = GroupContext(31)
    keys = np.arange(0, 31, 2)
    vals = (rng.integers(1, 4, len(keys)) * rng.choice((-1, 1), len(keys))).astype(complex)
    add = partial(groups._add_codes, ctx)
    table = energy._group_by_sort([(add(keys[:, None], keys).ravel(),
                                    np.outer(vals, vals).real.ravel())])
    assert (table[1] == 0).any()
    messages = []
    for span in (ctx.size, ARRAY_CHUNK + 1):
        with using(ToolConfig(op_budget=len(keys) ** 2 + 1)), pytest.raises(BudgetError) as exc:
            energy._tk_table(keys, vals, add, 3, span)
        messages.append(str(exc.value))
    work = len(keys) ** 2 + len(table[0]) * len(keys)
    assert messages == [f"T_k convolution work {work} exceeds budget {len(keys) ** 2 + 1} "
                        f"by {work - len(keys) ** 2 - 1}; raise op_budget"] * 2


def _indicator_sets(rng):
    """(ctx, points) pairs over mixed groups, interleaved: sizes 0 to 8 in
    five groups, one of them past ARRAY_CHUNK, a set whose sums wrap around
    and one of 40 points."""
    ctxs = [GroupContext(5), GroupContext(101), GroupContext(7, 2), GroupContext(3, 3),
            GroupContext(101, 3)]
    sets = []
    for i in range(60):
        ctx = ctxs[i % len(ctxs)]
        n = int(rng.integers(0, min(8, ctx.size) + 1))
        sets.append((ctx, frozenset(_rand_points(rng, ctx, n))))
    sets.append((GroupContext(11), frozenset({(10,), (9,), (0,)})))
    sets.append((GroupContext(1009), frozenset(_rand_points(rng, GroupContext(1009), 40))))
    return sets


def test_stacked_t2_is_t_k_direct_and_the_enumeration():
    sets = _indicator_sets(np.random.default_rng(21))
    got = energy._indicator_t2(sets)
    want = [t_k_direct(SparseFunction.indicator(ctx, pts), 2) for ctx, pts in sets]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    for (ctx, pts), t2 in zip(sets, got):
        if len(pts) <= 8:
            assert t2 == t_k_enumerated(SparseFunction.indicator(ctx, pts), 2)


def test_stacked_t2_in_small_chunks_and_past_the_guard(monkeypatch):
    sets = _indicator_sets(np.random.default_rng(22))
    want = energy._indicator_t2(sets)
    monkeypatch.setattr(energy, "ARRAY_CHUNK", 150)  # a few sets a bincount
    assert energy._indicator_t2(sets) == want
    counted = []
    direct = energy.t_k_direct
    monkeypatch.setattr(energy, "t_k_direct", lambda g, k: counted.append(g) or direct(g, k))
    monkeypatch.setattr(energy, "_exact_in_float", lambda vals, k: False)
    assert energy._indicator_t2(sets) == want
    assert len(counted) == sum(1 for _, pts in sets if pts)  # every set went to t_k_direct


def test_stacked_t2_refuses_as_the_first_refusing_set():
    sets = _indicator_sets(np.random.default_rng(23))
    with using(ToolConfig(op_budget=30)):  # sets of 6 points or more refuse
        with pytest.raises(BudgetError) as first:
            for ctx, pts in sets:
                t_k_direct(SparseFunction.indicator(ctx, pts), 2)
        with pytest.raises(BudgetError) as batch:
            energy._indicator_t2(sets)
    assert str(batch.value) == str(first.value)


def test_int64_code_limits():
    huge = GroupContext(2147483647, 3)  # p^3 >= 2^62
    with pytest.raises(BudgetError, match="int64"):
        t_k_direct(SparseFunction.indicator(huge, [(1, 2, 3)]), 2)
    with pytest.raises(BudgetError, match="int64"):
        is_dissociated([(1, 2, 3)], huge)
    with pytest.raises(BudgetError, match="int64"):
        additive_dimension([(1, 2, 3)], huge)
    with pytest.raises(BudgetError, match="int64"):
        t_k_int({2**61: 1.0, 1: 1.0}, 2)
    assert t_k_int({2**60: 1.0, 1: 1.0}, 2) == 6.0
    big = GroupContext(2147483647)
    assert t_k_direct(SparseFunction.indicator(big, [2147483646, 5, 9]), 3) == t_k_enumerated(
        SparseFunction.indicator(big, [2147483646, 5, 9]), 3
    )


def test_dissociated_examples():
    ctx7 = GroupContext(7)
    assert is_dissociated([1, 2], ctx7).dissociated
    cert = is_dissociated([1, 2, 3], ctx7)
    assert not cert.dissociated
    assert verify_witness(cert.witness, ctx7)
    assert is_dissociated([3], ctx7).dissociated
    assert is_dissociated([], ctx7).dissociated
    assert not is_dissociated([0], ctx7).dissociated


def test_dissociation_matches_brute_oracle():
    rng = np.random.default_rng(3)
    for ctx in (GroupContext(11), GroupContext(5, 2)):
        for _ in range(40):
            size = int(rng.integers(0, 9))
            pts = _rand_points(rng, ctx, size)
            cert = is_dissociated(pts, ctx)
            assert cert.dissociated == brute_dissociated(pts, ctx)
            if not cert.dissociated:
                assert verify_witness(cert.witness, ctx)
                assert set(cert.witness) == set(pts)


def test_dissociation_witnesses_are_pinned():
    # recorded from the tuple-by-tuple search: left-half relations, relations
    # across the halves and right-half relations keep their first witness
    cases = [
        (GroupContext(11), [1, 2, 3], {(1,): -1, (2,): -1, (3,): 1}),
        (GroupContext(101), [1, 2, 3, 50, 60, 70],
         {(1,): -1, (2,): -1, (3,): 1, (50,): 0, (60,): 0, (70,): 0}),
        (GroupContext(101), [1, 5, 20, 26, 40, 77],
         {(1,): 1, (5,): 1, (20,): 1, (26,): -1, (40,): 0, (77,): 0}),
        (GroupContext(101), [10, 30, 31, 62, 90, 95, 99],
         {(10,): -1, (30,): 1, (31,): 1, (62,): -1, (90,): -1, (95,): 0, (99,): 0}),
        (GroupContext(101), [1, 2, 40, 50, 90],
         {(1,): 0, (2,): 0, (40,): -1, (50,): -1, (90,): 1}),
        (GroupContext(101), [0, 5], {(0,): -1, (5,): 0}),
        (GroupContext(5, 2), [(0, 1), (1, 0), (1, 1), (2, 3), (4, 4)],
         {(0, 1): 0, (1, 0): -1, (1, 1): -1, (2, 3): -1, (4, 4): 1}),
        (GroupContext(2147483647), [2**i for i in range(15)] + [2**15 - 1],
         {**{(2**i,): -1 for i in range(15)}, (2**15 - 1,): 1}),
    ]
    for ctx, pts, witness in cases:
        cert = is_dissociated(pts, ctx)
        assert not cert.dissociated
        assert cert.witness == witness


def test_dissociation_cap():
    # the sign-pattern search counts the 2 * 3^12 signed sums of 24 points'
    # halves against op_budget before it forms them; the default admits them
    ctx = GroupContext(101)
    assert not is_dissociated(range(1, 25), ctx).dissociated
    with using(ToolConfig(op_budget=2 * 3**12 - 1)), pytest.raises(
        BudgetError, match="dissociation search work 1062882 .* raise op_budget"
    ):
        is_dissociated(range(1, 25), ctx)


def test_dimension_examples():
    ctx7 = GroupContext(7)
    assert additive_dimension([1, 2, 3], ctx7, "exact") == (2, ((1,), (2,)))
    assert additive_dimension([4], ctx7, "exact") == (1, ((4,),))
    assert additive_dimension([], ctx7, "exact") == (0, ())


def test_exact_dimension_matches_subset_brute_force():
    rng = np.random.default_rng(12)
    for ctx in (GroupContext(11), GroupContext(5, 2)):
        for _ in range(25):
            pts = _rand_points(rng, ctx, int(rng.integers(0, 8)))
            assert additive_dimension(pts, ctx, "exact") == brute_dimension(pts, ctx)


def test_dimension_subsets_are_pinned():
    # recorded from the set-based search: (exact, greedy) per seeded set
    cases = [
        (GroupContext(23), 1, 8, (4, ((3,), (13,), (18,), (22,))), (3, ((3,), (7,), (8,)))),
        (GroupContext(23), 2, 9, (4, ((1,), (2,), (4,), (9,))), (4, ((1,), (2,), (4,), (9,)))),
        (GroupContext(5, 2), 4, 8, (4, ((0, 2), (2, 0), (3, 4), (4, 0))),
         (4, ((0, 2), (2, 0), (3, 4), (4, 0)))),
        (GroupContext(7, 2), 5, 9, (4, ((1, 6), (3, 0), (3, 2), (5, 0))),
         (4, ((1, 6), (3, 0), (3, 2), (5, 0)))),
        (GroupContext(101), 6, 10, (6, ((32,), (37,), (40,), (44,), (48,), (99,))),
         (5, ((32,), (35,), (37,), (44,), (48,)))),
    ]
    for ctx, seed, size, exact, greedy in cases:
        pts = _rand_points(np.random.default_rng(seed), ctx, size)
        assert additive_dimension(pts, ctx, "exact") == exact
        assert additive_dimension(pts, ctx, "greedy") == greedy


def test_dimension_sum_set_fallback_matches_default(monkeypatch):
    # past _SUMS_CAP signed sums the search keeps the points it chooses next
    # in the right half; both must choose the same subsets
    cases = []
    for i, (p, d) in enumerate([(101, 1), (10007, 1), (7, 2), (31, 2)] * 4):
        rng = np.random.default_rng(i)
        ctx = GroupContext(p, d)
        cases.append((ctx, _rand_points(rng, ctx, int(rng.integers(4, 12)))))

    def both(ctx, pts):
        return additive_dimension(pts, ctx, "exact"), additive_dimension(pts, ctx, "greedy")

    expected = [both(ctx, pts) for ctx, pts in cases]
    split_tests = 0
    member = energy._signed_sum_member

    def counting(ctx, left, right, codes):
        nonlocal split_tests
        split_tests += len(right) > 1
        return member(ctx, left, right, codes)

    monkeypatch.setattr(energy, "_signed_sum_member", counting)
    for cap in (1, 3, 27):
        monkeypatch.setattr(energy, "_SUMS_CAP", cap)
        start = split_tests
        assert [both(ctx, pts) for ctx, pts in cases] == expected
        assert split_tests > start


def test_dimension_mask_matches_sorted_sums(monkeypatch):
    # below _SUMS_CAP elements the search keeps its sums as a mask over G; with
    # the cap set to |G| it keeps them as sorted codes that never split, and
    # must return the same subsets and refuse with the same messages
    def run(ctx, pts, mode, budget):
        with using(ToolConfig(op_budget=budget)):
            try:
                return additive_dimension(pts, ctx, mode)
            except BudgetError as err:
                return str(err)

    outcomes = set()
    for i, (p, d) in enumerate([(101, 1), (10007, 1), (65537, 1), (31, 2), (11, 3)]):
        ctx = GroupContext(p, d)
        rng = np.random.default_rng(70 + i)
        for size in (6, 12, 24, 40):
            pts = _rand_points(rng, ctx, size)
            for mode in ("exact", "greedy"):
                for budget in (1 << 10, 1 << 14, 1 << 18):
                    monkeypatch.setattr(energy, "_SUMS_CAP", 1 << 18)
                    mask = run(ctx, pts, mode, budget)
                    monkeypatch.setattr(energy, "_SUMS_CAP", ctx.size)
                    assert run(ctx, pts, mode, budget) == mask
                    outcomes.add(type(mask))
    assert outcomes == {tuple, str}


def search_halves(ctx, arr):
    """The left and right halves of the signed sums of arr, split at
    _SUMS_CAP as the dimension search splits them."""
    steps = np.stack((groups._codes(ctx, arr), groups._codes(ctx, -arr % ctx.p)), axis=1)
    left = right = np.zeros(1, dtype=np.int64)
    for step in steps:
        grown = energy._grow_sums(ctx, left, step)
        if len(right) == 1 and len(grown) <= energy._SUMS_CAP:
            left = grown
        else:
            right = energy._grow_sums(ctx, right, step)
    return left, right


@pytest.mark.parametrize("cap", [1, 3, 27, 1 << 18])
def test_signed_sum_membership_matches_literal_enumeration(monkeypatch, cap):
    monkeypatch.setattr(energy, "_SUMS_CAP", cap)
    splits = 0
    for i, (p, d) in enumerate([(101, 1), (10007, 1), (31, 2), (101, 3)] * 2):
        rng = np.random.default_rng(50 + i)
        ctx = GroupContext(p, d)
        arr = ctx.point_array(_rand_points(rng, ctx, int(rng.integers(3, 8))))
        sums = set()
        for eps in itertools.product((-1, 0, 1), repeat=len(arr)):
            sums.add(tuple(int(c) for c in np.array(eps) @ arr % p))
        # every signed sum, and a seeded draw of the other points
        draw = _rand_points(rng, ctx, min(ctx.size, 2000))
        queries = ctx.point_array(sorted(sums) + draw)
        left, right = search_halves(ctx, arr)
        assert (len(right) > 1) == (len(sums) > cap)
        splits += len(right) > 1
        got = energy._signed_sum_member(ctx, left, right, groups._codes(ctx, queries))
        assert got.tolist() == [tuple(x) in sums for x in queries.tolist()]
    assert splits >= (8 if cap < 27 else 1 if cap == 27 else 0)


def test_exact_dimension_reaches_the_ceiling_on_a_large_input():
    # 1,000 points of Z_1009 hold a dissociated set of floor(log2 1009) = 9
    ctx = GroupContext(1009)
    pts = _rand_points(np.random.default_rng(0), ctx, 1000)
    value, subset = additive_dimension(pts, ctx, "exact")
    assert value == len(subset) == 9
    assert is_dissociated(subset, ctx).dissociated


def test_default_op_budget_answers_sixteen_points_and_refuses_seventeen():
    # 16 points was the most the old |S| cap let in; at the default op_budget
    # they are still answered, and 17 of Z_10007 run past it
    ctx = GroupContext(10007)
    assert additive_dimension(_rand_points(np.random.default_rng(1000), ctx, 16), ctx)[0] == 10
    with pytest.raises(BudgetError, match="raise op_budget"):
        additive_dimension(_rand_points(np.random.default_rng(1000), ctx, 17), ctx)


def test_exact_dimension_is_bounded_by_the_op_budget():
    # the search recurses only as deep as the chosen subset, so a large input
    # runs into op_budget and not into the recursion limit
    ctx = GroupContext(10007)
    pts = _rand_points(np.random.default_rng(0), ctx, 2000)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="exact dimension search work .* raise op_budget"):
        additive_dimension(pts, ctx, "exact")
    assert time.perf_counter() - start < 3.0


def test_dimension_fallback_is_bounded_by_the_dissociation_cap():
    # 24 random points of a large group are dissociated, so the greedy scan
    # passes _SUMS_CAP sums and then grows the right half of its signed sums;
    # that work counts against op_budget, which the default admits
    ctx = GroupContext(1599977, 3)
    pts = _rand_points(np.random.default_rng(0), ctx, 24)
    start = time.perf_counter()
    value, subset = additive_dimension(pts, ctx, "greedy")
    assert time.perf_counter() - start < 1.0
    assert value == len(subset) == 24
    assert is_dissociated(subset, ctx).dissociated
    with using(ToolConfig(op_budget=1 << 21)), pytest.raises(
        BudgetError, match="greedy dimension search work .* raise op_budget"
    ):
        additive_dimension(pts, ctx, "greedy")


def dimension_without_ceiling(points, ctx):
    """The exact search as it was before the floor(log2 |G|) ceiling: the
    include-first DFS over sorted points, signed sums kept as sorted codes."""
    arr = ctx.point_array(points)
    pts = list(map(tuple, arr.tolist()))
    codes = groups._codes(ctx, arr)
    negs = groups._codes(ctx, -arr % ctx.p)
    best = []

    def dfs(i, chosen, sums):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if i == len(pts) or len(chosen) + (len(pts) - i) <= len(best):
            return
        if codes[i] not in sums:
            plus = groups._add_codes(ctx, sums, codes[i])
            minus = groups._add_codes(ctx, sums, negs[i])
            dfs(i + 1, chosen + [pts[i]], np.unique(np.concatenate((sums, plus, minus))))
        dfs(i + 1, chosen, sums)

    dfs(0, [], np.zeros(1, dtype=np.int64))
    return len(best), tuple(best)


def test_exact_dimension_ceiling_keeps_the_first_maximum():
    # the ceiling binds in Z_101 (dim 6 = floor(log2 101)) and rarely elsewhere
    binds = 0
    for i, (p, d, size) in enumerate([(101, 1, 16), (10007, 1, 12), (31, 2, 12)] * 3):
        ctx = GroupContext(p, d)
        pts = _rand_points(np.random.default_rng(100 + i), ctx, size)
        got = additive_dimension(pts, ctx, "exact")
        assert got == dimension_without_ceiling(pts, ctx)
        binds += got[0] == ctx.size.bit_length() - 1
    assert binds >= 3


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_greedy_dimension_never_exceeds_exact(data):
    ctx = GroupContext(11)
    pts = data.draw(
        st.lists(st.integers(0, 10), min_size=0, max_size=7, unique=True)
    )
    exact, exact_set = additive_dimension(pts, ctx, "exact")
    greedy, greedy_set = additive_dimension(pts, ctx, "greedy")
    assert greedy <= exact
    assert is_dissociated(exact_set, ctx).dissociated
    assert is_dissociated(greedy_set, ctx).dissociated
    # greedy result is inclusion-maximal: nothing else can be added
    chosen = set(greedy_set)
    for x in sorted({ctx.point(v) for v in pts} - chosen):
        assert not is_dissociated(list(chosen) + [x], ctx).dissociated


def test_level_sets_examples():
    ctx = GroupContext(11)
    flat = SparseFunction.indicator(ctx, [1, 5, 9])
    decomposition = level_sets(flat)
    assert set(decomposition.levels) == {1}
    assert decomposition.levels[1] == flat.support

    f = SparseFunction(ctx, {0: 3.0})
    assert set(level_sets(f).levels) == {2}

    g = SparseFunction(ctx, {0: 1.0, 1: 2.0, 2: 5.0})
    levels = level_sets(g).levels
    assert {j: sorted(v) for j, v in levels.items()} == {
        1: [(0,)],
        2: [(1,)],
        3: [(2,)],
    }


def test_level_sets_reject_small_values():
    ctx = GroupContext(11)
    with pytest.raises(ValueError):
        level_sets(SparseFunction(ctx, {0: 0.5}))


def test_level_index_binary_boundaries():
    assert level_index(1.0) == 1
    assert level_index(2.0) == 2
    assert level_index(1.999999) == 1
    assert level_index(4.0) == 3
    assert level_index(3.999999) == 2


def test_scattered_family_examples():
    ctx = GroupContext(101)
    fam = build_scattered_family([], ctx, 1, 1)
    assert fam.shell_count == 0

    fam2 = build_scattered_family(range(1, 13), ctx, 1, 1)
    assert [i for i, _ in fam2.shells] == [1, 2]
    for i, vals in fam2.shells:
        assert len(vals) == 1
        for v in vals:
            assert 4**i // 2 < abs(v) <= 4**i

    concentrated = build_scattered_family([0, 1, 100], ctx, 1, 1)
    assert concentrated.thin_at == 1


def test_scattered_bound_holds_on_constructed_families():
    ctx = GroupContext(1009)
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        n_size = int(rng.integers(1, 4))
        vals = []
        for i in (1, 2, 3):
            bound = 4**i * m
            lo = bound // 2 + 1
            ring = list(range(lo, bound + 1)) + list(range(-bound, -lo + 1))
            vals.extend(int(v) % 1009 for v in rng.choice(ring, n_size, replace=False))
        fam = build_scattered_family(vals, ctx, m, n_size)
        assert fam.shell_count >= 1
        for k in (1, 2):
            tk = t_k_int_set(fam.points, k)
            assert tk <= scattered_energy_bound(k, fam.shell_count, fam.shell_size) + 1e-9


def test_superadditivity_of_t2_over_level_sets():
    rng = np.random.default_rng(17)
    ctx = GroupContext(11)
    for _ in range(20):
        size = int(rng.integers(2, 8))
        pts = _rand_points(rng, ctx, size)
        mags = 2.0 ** rng.integers(0, 4, size=size) * (1 + rng.random(size))
        f = SparseFunction(ctx, dict(zip(pts, mags)))
        decomposition = level_sets(f)
        whole = t_k_direct(SparseFunction.indicator(ctx, f.support), 2)
        parts = sum(
            t_k_direct(SparseFunction.indicator(ctx, s), 2)
            for s in decomposition.levels.values()
        )
        assert whole >= parts - 1e-6 * max(1.0, whole)


def test_pointwise_domination_of_t_k():
    # T_k(g_j) <= 2^{2jk} T_k(S_j) when 2^{j-1} <= |g_j| < 2^j on S_j
    rng = np.random.default_rng(23)
    ctx = GroupContext(11)
    for _ in range(20):
        size = int(rng.integers(2, 7))
        pts = _rand_points(rng, ctx, size)
        mags = 2.0 ** rng.integers(0, 4, size=size) * (1 + rng.random(size))
        phases = np.exp(2j * np.pi * rng.random(size))
        f = SparseFunction(ctx, dict(zip(pts, mags * phases)))
        for j, s_j in level_sets(f).levels.items():
            g_j = f.restrict(s_j)
            for k in (1, 2):
                lhs = t_k_direct(g_j, k)
                rhs = 2.0 ** (2 * j * k) * t_k_direct(
                    SparseFunction.indicator(ctx, s_j), k
                )
                assert lhs <= rhs + 1e-6 * max(1.0, rhs)


def test_rudin_ratio_examples():
    ctx7 = GroupContext(7)
    assert rudin_ratio([3], ctx7, 1) == pytest.approx(1.0)
    expected = math.sqrt(t_k_direct(SparseFunction.indicator(ctx7, [1, 2]), 2)) / 4
    assert rudin_ratio([1, 2], ctx7, 2) == pytest.approx(expected)
    ctx101 = GroupContext(101)
    brute = t_k_direct(SparseFunction.indicator(ctx101, [1, 2, 4]), 2)
    assert rudin_ratio([1, 2, 4], ctx101, 2) == pytest.approx(math.sqrt(brute) / 6)
    with pytest.raises(ValueError):
        rudin_ratio([1, 2, 3], ctx7, 2)
