import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpwiener import energy, fourier
from zpwiener.config import ZERO_CLAMP, ToolConfig, using
from zpwiener.errors import BudgetError
from zpwiener.fourier import (
    SparseFunction,
    Spectrum,
    dft,
    dft_direct_sum,
    dft_naive,
    inverse_dft,
    magnitudes,
    wiener_norm,
    wiener_norms,
    _dft1d_fast,
    _dft1d_naive,
    _dft_naive,
)
from zpwiener.groups import AffineMap, GroupContext
from zpwiener.reduction import pushforward, separated_projection_bound
from zpwiener.verify import _rand_points, ap_scan


@st.composite
def sparse_functions(draw, primes=(3, 5, 7, 11), dims=(1,), max_support=6):
    p = draw(st.sampled_from(primes))
    d = draw(st.sampled_from(dims))
    ctx = GroupContext(p, d)
    size = draw(st.integers(1, min(max_support, ctx.size)))
    coords = st.tuples(*[st.integers(0, p - 1)] * d)
    pts = draw(st.lists(coords, min_size=size, max_size=size, unique=True))
    values = draw(
        st.lists(
            st.complex_numbers(
                min_magnitude=1e-3, max_magnitude=8, allow_nan=False, allow_infinity=False
            ),
            min_size=size,
            max_size=size,
        )
    )
    return SparseFunction(ctx, dict(zip(pts, values)))


def test_dft_delta_and_constant():
    ctx = GroupContext(3)
    delta = SparseFunction.indicator(ctx, [0])
    spec = dft(delta)
    assert np.allclose(spec.coefficients, np.full(3, 1 / 3))
    const = SparseFunction.indicator(ctx, range(3))
    spec2 = dft(const)
    assert abs(spec2[(0,)] - 1) < 1e-12
    assert abs(spec2[(1,)]) < 1e-12 and abs(spec2[(2,)]) < 1e-12


def test_dft_two_point_closed_form():
    ctx = GroupContext(5)
    f = SparseFunction.indicator(ctx, [0, 1])
    spec = dft(f)
    for xi in range(5):
        expected = (2 / 5) * abs(math.cos(math.pi * xi / 5))
        assert abs(abs(spec[(xi,)]) - expected) < 1e-12


def test_wiener_norm_examples():
    ctx5 = GroupContext(5)
    assert wiener_norm(SparseFunction.indicator(ctx5, range(5))) == pytest.approx(1.0)
    two = SparseFunction.indicator(ctx5, [0, 1])
    expected = 0.4 * (1 + 2 * math.cos(math.pi / 5) + 2 * math.cos(2 * math.pi / 5))
    assert wiener_norm(two) == pytest.approx(expected, abs=1e-12)
    ctx32 = GroupContext(3, 2)
    diagonal = SparseFunction.indicator(ctx32, [(t, t) for t in range(3)])
    assert wiener_norm(diagonal) == pytest.approx(1.0, abs=1e-12)


def test_inverse_roundtrips():
    ctx = GroupContext(3)
    delta = SparseFunction.indicator(ctx, [0])
    back = inverse_dft(dft(delta))
    assert back.support == delta.support
    assert back[(0,)] == pytest.approx(1.0, abs=1e-12)

    empty = inverse_dft(Spectrum(ctx, np.zeros(3, dtype=complex)))
    assert empty.support_size == 0

    ctx101 = GroupContext(101)
    rng = np.random.default_rng(5)
    pts = _rand_points(rng, ctx101, 10)
    vals = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    f = SparseFunction(ctx101, dict(zip(pts, vals)))
    back = inverse_dft(dft(f))
    assert back.support == f.support
    err = math.sqrt(sum(abs(back[x] - f[x]) ** 2 for x in f.support))
    assert err <= 1e-9 * f.l2_norm


def test_zero_clamp_drops_noise():
    # the inverse transform drops values of magnitude at most ZERO_CLAMP
    ctx = GroupContext(5)
    arr = np.array([1.0, 1e-12, 0, 0, 5e-11], dtype=complex)
    f = inverse_dft(Spectrum(ctx, np.fft.fft(arr, norm="forward")))
    assert f.support == frozenset({(0,)})


def test_prime_fast_examples():
    out = _dft1d_fast(np.array([1, 0, 0, 0, 0], dtype=complex)) / 5
    assert np.allclose(out, np.full(5, 1 / 5))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert np.allclose(_dft1d_fast(x) / 7, _dft1d_naive(x) / 7, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 1009])
def test_fast_matches_naive_ladder(p):
    rng = np.random.default_rng(p)
    x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    fast, naive = _dft1d_fast(x), _dft1d_naive(x)
    assert np.linalg.norm(fast - naive) <= 1e-9 * np.linalg.norm(naive)


@pytest.mark.parametrize("p,d", [(7, 1), (101, 1), (5, 2), (7, 2), (101, 2), (5, 3), (11, 3)])
def test_dft_method_paths_agree(p, d):
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p * d)
    pts = _rand_points(rng, ctx, min(6, ctx.size))
    vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    a = dft_naive(f).coefficients
    b = dft(f).coefficients
    assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)
    spec = Spectrum(ctx, a)
    # the inverse oracle: conjugate, transform with the quadratic DFT, conjugate
    oracle = np.conj(_dft_naive(np.conj(a)))
    fast = inverse_dft(spec)
    kept = {x for x in ctx.points() if abs(oracle[x]) > ZERO_CLAMP}
    assert kept == fast.support == f.support
    assert list(fast.entries) == sorted(kept)  # in C order
    for g in (oracle, fast):
        assert max(abs(g[x] - f[x]) for x in f.support) <= 1e-9 * f.l2_norm


def test_unknown_method_raises():
    for bad in ("auto", "rader", ""):
        with pytest.raises(ValueError, match="unknown method"):
            ap_scan(101, [1, 5], method=bad)


def test_multidim_examples():
    ctx = GroupContext(3, 2)
    delta = SparseFunction.indicator(ctx, [(0, 0)])
    assert np.allclose(dft(delta).coefficients, np.full((3, 3), 1 / 9))

    # separability: spectrum of g(x1)*h(x2) is the product of 1-d spectra
    ctx5 = GroupContext(5)
    g = SparseFunction(ctx5, {0: 1.0, 2: -1j})
    h = SparseFunction(ctx5, {1: 2.0, 3: 0.5})
    prod = SparseFunction(
        GroupContext(5, 2),
        {(a[0], b[0]): g[a] * h[b] for a in g.support for b in h.support},
    )
    sg, sh = dft(g).coefficients, dft(h).coefficients
    assert np.allclose(dft(prod).coefficients, np.outer(sg, sh), atol=1e-12)


def test_multidim_matches_direct_sum_oracle():
    rng = np.random.default_rng(11)
    for ctx in (GroupContext(5, 2), GroupContext(5, 3)):
        pts = _rand_points(rng, ctx, 6)
        vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        a = dft(f).coefficients
        b = dft_direct_sum(f).coefficients
        assert np.abs(a - b).max() < 1e-9


@given(f=sparse_functions())
@settings(max_examples=60, deadline=None)
def test_parseval(f):
    spec = dft(f)
    lhs = (abs(spec.coefficients) ** 2).sum()
    rhs = sum(abs(v) ** 2 for v in f.entries.values()) / f.ctx.size
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@given(f=sparse_functions())
@settings(max_examples=60, deadline=None)
def test_inversion_and_parseval_upper_bounds(f):
    norm = wiener_norm(f)
    assert norm >= f.max_abs - 1e-9
    assert norm <= f.l2_norm + 1e-9


@given(f=sparse_functions(), g=sparse_functions(primes=(5,), max_support=5))
@settings(max_examples=40, deadline=None)
def test_banach_submultiplicativity(f, g):
    if f.ctx != g.ctx:
        g = SparseFunction(f.ctx, {f.ctx.point(x[0] % f.ctx.p): v for x, v in g.entries.items()})
    lhs = wiener_norm(f) * wiener_norm(g)
    rhs = wiener_norm(f.pointwise_mul(g))
    assert lhs >= rhs - 1e-9 * max(1.0, lhs)


def test_affine_invariance_of_norm():
    ctx = GroupContext(5, 2)
    rng = np.random.default_rng(2)
    pts = _rand_points(rng, ctx, 7)
    vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f = SparseFunction(ctx, dict(zip(pts, vals)))
    for t in (AffineMap(ctx, ((1, 2), (3, 2)), (4, 1)), AffineMap(ctx, ((0, 3), (2, 1)), (1, 0))):
        assert t.is_invertible()
        assert wiener_norm(pushforward(f, t)) == pytest.approx(wiener_norm(f), abs=1e-9)


def test_budget_errors():
    ctx = GroupContext(101, 4)  # 104 million cells
    f = SparseFunction.indicator(ctx, [(0, 0, 0, 0)])
    with pytest.raises(BudgetError):
        dft(f)
    small = SparseFunction.indicator(GroupContext(5), [0])
    with using(ToolConfig(dense_budget=3)), pytest.raises(BudgetError):
        dft(small)


def test_entries_reject_duplicates_and_drop_zeros():
    ctx = GroupContext(5)
    f = SparseFunction(ctx, {0: 1.0, 1: 0.0})
    assert f.support_size == 1
    with pytest.raises(ValueError):
        SparseFunction(ctx, [((0,), 1.0), ((0,), 2.0)])


def test_indicator_matches_the_normalised_dict():
    for ctx, pts in [
        (GroupContext(7), [3, 10, -4, np.int64(3), (2,), [9], True, 1, 3]),
        (GroupContext(7, 2), [(8, -1), (1, 6), [1, 6], (np.int64(15), np.int32(-7)), (1, 0),
                              np.array([0, 0]), (7, 7)]),
        (GroupContext(5, 3), [(0, 0, 1), (5, 5, 6), (4, 3, 2), (-1, -2, -3), (0, 0, 1)]),
    ]:
        f = SparseFunction.indicator(ctx, pts)
        want = SparseFunction(ctx, {ctx.point(x): 1.0 for x in pts})
        assert list(f.entries.items()) == list(want.entries.items())
        assert all(type(c) is int for x in f.entries for c in x)


def test_entries_reject_non_finite_values():
    ctx = GroupContext(7)
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ValueError, match=r"\(1,\)"):
            SparseFunction(ctx, {1: bad})
    spectrum = np.zeros(7, dtype=complex)
    spectrum[3] = float("nan")  # every value of the inverse is NaN
    with pytest.raises(ValueError, match="non-finite value"):
        inverse_dft(Spectrum(ctx, spectrum))


def test_products_and_restrictions_check_their_values():
    ctx = GroupContext(7)
    f = SparseFunction(ctx, {1: 1e200, 2: 3.0})
    with pytest.raises(ValueError, match=r"non-finite value .* at point \(1,\)"):
        f.pointwise_mul(f)
    tiny = SparseFunction(ctx, {1: 1e-200, 2: 3.0})
    assert dict(tiny.pointwise_mul(tiny).entries) == {(2,): 9 + 0j}  # 1e-400 is 0
    g = SparseFunction(ctx, {1: 2.0, 2: 0.5j, 5: -1.0})
    assert list(g.restrict([9, -2, 4]).entries.items()) == [((2,), 0.5j), ((5,), -1 + 0j)]


@pytest.mark.parametrize("p", [3, 101, 10007])
def test_one_dim_dft_is_fftn_bit_for_bit(p):
    rng = np.random.default_rng(p)
    ctx = GroupContext(p)
    pts = _rand_points(rng, ctx, min(p, 40))
    f = SparseFunction(ctx, dict(zip(pts, rng.standard_normal(len(pts)) + 1j)))
    want = np.fft.fftn(f.to_dense(), norm="forward")
    got = dft(f).coefficients
    assert got.tobytes() == want.tobytes()
    assert wiener_norm(f) == float(np.abs(want).sum())


def _switch_supports(p, d):
    """Supports around dft's switch: empty, one point, one full last-axis
    line, and just below and at 2 |supp| = p^{d-1}."""
    ctx = GroupContext(p, d)
    rng = np.random.default_rng(p * d)
    at = (p ** (d - 1) + 1) // 2
    line = [(1,) * (d - 1) + (y,) for y in range(p)]
    return ctx, rng, {
        "empty": [],
        "one": _rand_points(rng, ctx, 1),
        "line": line,
        "below": _rand_points(rng, ctx, at - 1),
        "at": _rand_points(rng, ctx, at),
    }


@pytest.mark.parametrize(
    "p,d", [(3, 1), (101, 1), (3, 2), (11, 2), (101, 2), (3, 3), (11, 3), (101, 3)]
)
def test_dft_is_fftn_bit_for_bit_around_the_switch(p, d):
    ctx, rng, supports = _switch_supports(p, d)
    for name, pts in supports.items():
        vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        want = np.fft.fftn(f.to_dense(), norm="forward")
        assert dft(f).coefficients.tobytes() == want.tobytes(), name
        if ctx.size > 20_000:
            continue  # the norms read the table just compared; skip the slow repeats
        assert wiener_norm(f) == float(np.abs(want).sum()), name
        mags = np.abs(want).ravel()
        assert energy.t_k_spectral(f, 2) == float(((ctx.size * mags) ** 4).sum() / ctx.size), name


@pytest.mark.parametrize(
    "p,d,slab",
    [
        (101, 1, None),
        (257, 2, None),  # the default slab: 255 columns, then 2
        (101, 2, 3 * 101),  # 3 columns a slab; 101 is not a multiple of 3
        (101, 2, 100),  # p^{d-1} exceeds the slab: one column a slab
        (11, 3, 4 * 121),
        (11, 3, 120),
        (7, 4, 2 * 343),
        (7, 4, 342),
    ],
)
def test_magnitudes_is_abs_fftn_bit_for_bit(p, d, slab, monkeypatch):
    if slab is not None:
        monkeypatch.setattr(fourier, "SLAB_CELLS", slab)
    lines = p ** (d - 1)
    transforms = []  # complex p^d tables: dft's, or the dense path's stacks it shares
    dense = fourier._dense_tables
    monkeypatch.setattr(fourier, "dft", lambda g: transforms.append(g) or dft(g))
    monkeypatch.setattr(fourier, "_dense_tables", lambda c, fs: transforms.append(fs) or dense(c, fs))
    ctx, rng, supports = _switch_supports(p, d)
    for name, pts in supports.items():
        vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        want = np.abs(np.fft.fftn(f.to_dense(), norm="forward"))
        transforms.clear()
        got = magnitudes(f)
        assert got.dtype == np.float64 and got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
        # below the switch, on a table wider than one slab, no complex table
        sliced = 2 * len(f) < lines and fourier.SLAB_CELLS // lines < p
        assert bool(transforms) != sliced, name


def _norm_functions(p, d, rng):
    """Functions of Z_p^d on both sides of dft's switch: empty, one point,
    below the switch (d >= 2), at it, and a denser one."""
    ctx = GroupContext(p, d)
    at = (p ** (d - 1) + 1) // 2
    sizes = {0, 1, at, max(at, min(ctx.size // 4, 2000))} | ({at - 1} if d >= 2 else set())
    out = []
    for n in sorted(sizes):
        pts = _rand_points(rng, ctx, min(n, ctx.size))
        vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        out.append(SparseFunction(ctx, dict(zip(pts, vals))))
    return out


def _bits(norms):
    return np.array(norms, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "p,d",
    [(p, d) for p in (3, 5, 7, 11, 101) for d in (1, 2, 3)] + [(1009, 1), (1009, 2), (10007, 1)],
)
def test_wiener_norms_is_wiener_norm_bit_for_bit(p, d):
    rng = np.random.default_rng(p + d)
    fs = _norm_functions(p, d, rng) * 2  # a stack holds several of each
    assert _bits(wiener_norms(fs)) == _bits([wiener_norm(f) for f in fs])


def test_wiener_norms_of_mixed_groups_keep_their_order():
    rng = np.random.default_rng(8)
    fs = [f for p, d in ((7, 1), (5, 2), (101, 1), (7, 2), (3, 3)) for f in _norm_functions(p, d, rng)]
    order = rng.permutation(len(fs))
    fs = [fs[i] for i in order]  # the groups interleaved
    want = [wiener_norm(f) for f in fs]
    assert _bits(wiener_norms(fs)) == _bits(want)
    assert wiener_norms(iter(fs)) == want
    assert wiener_norms([]) == []


@pytest.mark.parametrize("p,d,per", [(101, 1, 2), (7, 3, 3), (11, 2, 1)])
def test_wiener_norms_across_slab_chunks(p, d, per, monkeypatch):
    rng = np.random.default_rng(p * d)
    ctx = GroupContext(p, d)
    fs = []
    for _ in range(7):  # 7 dense tables: stacks of per, the last one short
        pts = _rand_points(rng, ctx, ctx.size // 2)
        fs.append(SparseFunction(ctx, dict(zip(pts, rng.standard_normal(len(pts))))))
    want = [wiener_norm(f) for f in fs]
    calls = []
    dense = fourier._dense_tables
    monkeypatch.setattr(fourier, "SLAB_CELLS", per * ctx.size + ctx.size - 1)
    monkeypatch.setattr(fourier, "_dense_tables", lambda c, gs: calls.append(len(gs)) or dense(c, gs))
    assert _bits(wiener_norms(fs)) == _bits(want)
    assert calls == [7]  # one call for the group, which makes stacks of per


def test_wiener_norms_refuses_as_the_first_refusing_norm():
    rng = np.random.default_rng(3)
    fs = [SparseFunction.indicator(GroupContext(p, d), _rand_points(rng, GroupContext(p, d), 3))
          for p, d in ((5, 1), (101, 1), (7, 2), (11, 2), (101, 2))]
    with using(ToolConfig(dense_budget=100)):
        with pytest.raises(BudgetError) as first:
            for f in fs:
                wiener_norm(f)
        with pytest.raises(BudgetError) as batch:
            wiener_norms(fs)
    assert str(batch.value) == str(first.value)
    assert "p^d = 101 " in str(first.value)


def test_dft_below_the_switch_builds_no_dense_input(monkeypatch):
    ctx, _, supports = _switch_supports(11, 3)
    f = SparseFunction.indicator(ctx, supports["below"])
    small = SparseFunction.indicator(ctx, supports["below"][:4])  # |A| < sqrt(2p)
    want = np.fft.fftn(f.to_dense(), norm="forward")
    mags = np.abs(want).ravel()
    monkeypatch.setattr(SparseFunction, "to_dense", lambda self: pytest.fail("to_dense"))
    assert dft(f).coefficients.tobytes() == want.tobytes()
    assert wiener_norm(f) == float(mags.sum())
    assert energy.t_k_spectral(f, 2) == float(((ctx.size * mags) ** 4).sum() / ctx.size)
    assert separated_projection_bound(small).norm == wiener_norm(small)


def test_magnitudes_checks_the_dense_budget_before_it_allocates():
    ctx = GroupContext(1009, 2)
    rng = np.random.default_rng(5)
    for n in (30, 600):  # the slab path, then the dense path
        f = SparseFunction.indicator(ctx, _rand_points(rng, ctx, n))
        tracemalloc.start()
        try:
            with using(ToolConfig(dense_budget=ctx.size - 1)):
                with pytest.raises(BudgetError, match="dense_budget"):
                    magnitudes(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ctx.size, n  # less than one byte a cell


def _peak_bytes_per_cell(call, f) -> float:
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        call(f)
        return tracemalloc.get_traced_memory()[1] / f.ctx.size
    finally:
        tracemalloc.stop()


def test_transforms_hold_one_table_at_a_time():
    # the parent of the in-place transforms measured 32, 32 and 40 B/cell
    ctx = GroupContext(1009, 2)
    rng = np.random.default_rng(7)
    sparse = SparseFunction.indicator(ctx, _rand_points(rng, ctx, 30))
    dense = SparseFunction.indicator(ctx, _rand_points(rng, ctx, 600))
    assert 2 * len(sparse) < ctx.p <= 2 * len(dense)  # both sides of the switch
    assert _peak_bytes_per_cell(wiener_norm, sparse) <= 12
    assert _peak_bytes_per_cell(dft, dense) <= 17
    assert _peak_bytes_per_cell(lambda g: energy.t_k_spectral(g, 2), sparse) <= 17


def test_dft_below_the_switch_keeps_the_dense_budget():
    ctx = GroupContext(11, 3)
    f = SparseFunction.indicator(ctx, [(0, 0, 1), (4, 2, 9)])
    assert 2 * len(f) < 11**2  # the occupied-lines path
    with using(ToolConfig(dense_budget=11**3 - 1)):
        with pytest.raises(BudgetError, match="dense_budget"):
            dft(f)
        with pytest.raises(BudgetError, match="dense_budget"):
            wiener_norm(f)
    with using(ToolConfig(dense_budget=11**3)):
        assert wiener_norm(f) == float(np.abs(np.fft.fftn(f.to_dense(), norm="forward")).sum())


# ---------------------------------------------------------------------------
# the second core: every transform's bytes at one thread and at two
# ---------------------------------------------------------------------------


@pytest.fixture(params=[1, 2], ids=["1-thread", "2-threads"])
def threads(request, monkeypatch):
    """Transforms at 1 and 2 threads, with the size threshold so low that
    every table of two or more lines is shared out."""
    monkeypatch.setattr(fourier, "_THREADS", request.param)
    monkeypatch.setattr(fourier, "THREAD_CELLS", 8)
    return request.param


def _serially(call, *args):
    saved = fourier._THREADS
    fourier._THREADS = 1
    try:
        return call(*args)
    finally:
        fourier._THREADS = saved


@pytest.mark.parametrize(
    "p,d,slab",
    [(101, 1, None), (257, 2, None), (101, 2, 3 * 101), (11, 3, 4 * 121), (11, 3, 120), (7, 4, 2 * 343)],
)
def test_threaded_transforms_are_bit_for_bit(p, d, slab, threads, monkeypatch):
    if slab is not None:
        monkeypatch.setattr(fourier, "SLAB_CELLS", slab)
    ctx, rng, supports = _switch_supports(p, d)
    fs = []
    for name, pts in supports.items():
        vals = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        f = SparseFunction(ctx, dict(zip(pts, vals)))
        fs.append(f)
        want = np.fft.fftn(f.to_dense(), norm="forward")
        mags = np.abs(want)
        assert dft(f).coefficients.tobytes() == want.tobytes(), name
        assert magnitudes(f).tobytes() == mags.tobytes(), name
        assert wiener_norm(f) == float(mags.sum()), name
        assert energy.t_k_spectral(f, 2) == float(((ctx.size * mags.ravel()) ** 4).sum() / ctx.size), name
    fs *= 3  # stacks of several tables
    assert _bits(wiener_norms(fs)) == _bits(_serially(wiener_norms, fs))


@pytest.mark.parametrize("p,d", [(1009, 2), (11, 3), (13, 4)])
def test_threaded_separation_bound_is_bit_for_bit(p, d, threads, monkeypatch):
    monkeypatch.setattr(fourier, "SLAB_CELLS", 4 * p ** (d - 1))
    ctx = GroupContext(p, d)
    # 0 and the unit vectors: the separating row has no zero entry
    pts = [(0,) * d] + [tuple(int(i == j) for i in range(d)) for j in range(d)]
    f = SparseFunction(ctx, dict(zip(pts, np.random.default_rng(p).standard_normal(len(pts)))))
    got, want = separated_projection_bound(f), _serially(separated_projection_bound, f)
    assert got.separating.row == want.separating.row and all(got.separating.row)
    assert _bits(got.inner_norms) == _bits(want.inner_norms)
    assert (got.norm, got.min_inner, got.mean_inner) == (want.norm, want.min_inner, want.mean_inner)


@pytest.mark.parametrize(
    "shape,axis,cells,chunks",
    [
        ((3, 11, 11), 2, 200, [3]),  # split along axis 1, the longest other: rows 4, 4, 3
        ((3, 11, 11), 1, 8, [11]),  # split along axis 2: one column a chunk
        ((3, 11, 11), 0, 150, [4]),  # ties go to the first axis: rows 3, 3, 3, 2 of axis 1
        ((1, 101), 1, 8, [1]),  # one row: nothing to split, so the caller runs it
        ((5, 7), 0, 8, [7]),
        ((3, 11, 11), 2, 364, []),  # below the threshold
    ],
)
def test_fft_axis_chunks(shape, axis, cells, chunks, monkeypatch):
    monkeypatch.setattr(fourier, "_THREADS", 2)
    monkeypatch.setattr(fourier, "THREAD_CELLS", cells)
    claimed, run = [], fourier._claimed
    monkeypatch.setattr(fourier, "_claimed", lambda n, make: claimed.append(n) or run(n, make))
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.fft.fft(arr, axis=axis, norm="forward")
    fourier._fft_axis(arr, axis)
    assert arr.tobytes() == want.tobytes()
    assert claimed == chunks


def _recorded_task(done, ran):
    """make_task for `_claimed` whose task i stores i * i in done[i] and
    the running thread's name in ran[i]."""

    def make_task():
        def task(i):
            ran[i] = threading.current_thread().name
            done[i] = i * i

        return task

    return make_task


def test_claimed_runs_each_task_once_around_a_stalled_thread(monkeypatch):
    monkeypatch.setattr(fourier, "_THREADS", 2)
    n = 40
    done, ran = [None] * n, [None] * n
    all_done = threading.Event()
    inner = _recorded_task(done, ran)

    def make_task():
        task = inner()
        in_pool = threading.current_thread() is not threading.main_thread()

        def slow(i):
            task(i)
            if sum(x is not None for x in done) == n:
                all_done.set()
            if in_pool:  # the pool's first task stalls until every task is done
                assert all_done.wait(10)

        return slow

    fourier._claimed(n, make_task)
    assert done == [i * i for i in range(n)]
    caller = threading.main_thread().name
    assert ran[:-1] == [caller] * (n - 1)  # the caller counts up from 0
    assert ran[-1] in (caller, "zpwiener-pool")  # the pool thread, if it began, took the last and stalled


def test_claimed_does_not_wait_for_a_pool_thread_that_has_not_begun(monkeypatch):
    monkeypatch.setattr(fourier, "_THREADS", 2)
    busy, release, idle = threading.Event(), threading.Event(), threading.Event()
    released = []  # whether the job holding the pool thread saw its release
    fourier._pool_jobs().put(lambda: busy.set() or released.append(release.wait(10)))
    try:
        assert busy.wait(10)
        done, ran = [None] * 5, [None] * 5
        fourier._claimed(5, _recorded_task(done, ran))  # its pool share queues behind
        assert done == [0, 1, 4, 9, 16]
        assert set(ran) == {threading.main_thread().name}
    finally:
        release.set()
    fourier._pool_jobs().put(idle.set)
    assert idle.wait(10)
    assert released == [True]  # _claimed returned while the pool thread was held


def test_claimed_from_several_callers_runs_each_task_once(monkeypatch):
    # four callers share the one pool thread; a lost update of the claim
    # counter would run a task twice or not at all
    monkeypatch.setattr(fourier, "_THREADS", 2)
    n, rounds = 300, 5
    counts = {}

    def caller(c):
        for r in range(rounds):
            hits = counts[c, r] = [0] * n

            def make_task():
                def task(i):
                    hits[i] += 1
                    time.sleep(0)  # lets the other threads in

                return task

            fourier._claimed(n, make_task)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(counts) == 4 * rounds
    assert all(hits == [1] * n for hits in counts.values())


def test_pool_thread_runs_on_the_cores_a_pinned_caller_may_not(monkeypatch):
    monkeypatch.setattr(fourier, "_THREADS", 2)
    cores = fourier._CORES
    seen = {}

    def make_task():
        def task(i):
            if threading.current_thread() is not threading.main_thread():
                seen[i] = frozenset(os.sched_getaffinity(0))
            time.sleep(0.001)  # the pool thread gets some tasks

        return task

    for pin in [min(cores), None]:
        seen.clear()
        if pin is not None:
            os.sched_setaffinity(0, {pin})
        try:
            fourier._claimed(40, make_task)
        finally:
            os.sched_setaffinity(0, cores)
        want = cores - {pin} or cores
        assert seen and set(seen.values()) == {want}, pin


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_claimed_raises_a_task_error_in_the_caller(where, monkeypatch):
    monkeypatch.setattr(fourier, "_THREADS", 2)
    pool_began = threading.Event()

    def make_task():
        in_pool = threading.current_thread() is not threading.main_thread()
        ran = []

        def task(i):
            ran.append(i)
            if in_pool:
                pool_began.set()
                if where == "pool":
                    raise ValueError(f"task {i} failed")
            elif len(ran) == 1:  # the caller's first task
                assert pool_began.wait(10)  # both threads are in
                if where == "caller":
                    raise ValueError(f"task {i} failed")

        return task

    with pytest.raises(ValueError, match=r"task \d+ failed"):
        fourier._claimed(50, make_task)
    done, ran = [None] * 4, [None] * 4
    fourier._claimed(4, _recorded_task(done, ran))  # the pool still serves
    assert done == [0, 1, 4, 9]


def _norm_in_child(f, conn):
    try:
        fresh = fourier._pool is None
        conn.send((fresh, wiener_norm(f), hash(magnitudes(f).tobytes())))
    finally:
        conn.close()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_makes_its_own_pool(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(fourier, "_THREADS", 2)
    ctx = GroupContext(101, 3)
    f = SparseFunction.indicator(ctx, _rand_points(np.random.default_rng(4), ctx, 50))
    norm, mags = wiener_norm(f), hash(magnitudes(f).tobytes())
    assert fourier._pool is not None  # the parent's pool thread has run
    mp = multiprocessing.get_context("fork")
    recv, send = mp.Pipe(duplex=False)
    child = mp.Process(target=_norm_in_child, args=(f, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child hung on a threaded norm"
        got = recv.recv()
    finally:
        recv.close()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == (True, norm, mags)
    assert child.exitcode == 0
