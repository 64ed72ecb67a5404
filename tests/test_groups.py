from numbers import Integral

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpwiener.config import ToolConfig, using
from zpwiener.errors import BudgetError
from zpwiener.fourier import SparseFunction
from zpwiener.groups import (
    AffineMap,
    GroupContext,
    Hyperplane,
    Line,
    canonical_abs,
    enumerate_directions,
    signed_rep,
)
from zpwiener.reduction import pushforward

PRIMES = [3, 5, 7, 11, 101]


def test_context_rejects_non_primes():
    for bad in [0, 1, 2, 4, 9, 15, 1001]:
        with pytest.raises(ValueError):
            GroupContext(bad)
    with pytest.raises(ValueError):
        GroupContext(5, 0)


def test_canonical_abs_examples():
    assert canonical_abs(0, 7) == 0
    assert canonical_abs(6, 7) == 1
    assert canonical_abs(91, 101) == 10


@given(p=st.sampled_from(PRIMES), x=st.integers(0, 10**6))
def test_canonical_abs_properties(p, x):
    a = canonical_abs(x, p)
    assert 0 <= a <= (p - 1) // 2
    assert a == canonical_abs(p - x, p)  # |-x| = |x|
    assert a == min(x % p, (p - x) % p)
    if x % p != 0:
        assert (x % p) + ((p - x) % p) == p


@given(p=st.sampled_from(PRIMES), x=st.integers(-(10**6), 10**6))
def test_signed_rep_matches_abs(p, x):
    s = signed_rep(x, p)
    assert abs(s) == canonical_abs(x, p)
    assert s % p == x % p


def test_directions_examples():
    assert enumerate_directions(GroupContext(3, 1)) == [(1,)]
    assert enumerate_directions(GroupContext(3, 2)) == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert len(enumerate_directions(GroupContext(5, 2))) == 6


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2), (7, 2), (5, 3)])
def test_directions_cover_every_nonzero_vector_once(p, d):
    ctx = GroupContext(p, d)
    dirs = enumerate_directions(ctx)
    assert len(dirs) == (p**d - 1) // (p - 1)
    assert dirs == sorted(dirs)
    for v in ctx.points():
        if all(c == 0 for c in v):
            continue
        matches = [(c, e) for c in range(1, p) for e in dirs if ctx.scale(c, e) == v]
        assert len(matches) == 1


def test_directions_budget():
    # (3^15 - 1) / 2 = 7,174,453 directions of 15 coordinates each; the
    # op_budget refuses the list before any is built
    with pytest.raises(BudgetError, match="direction list work 107616795 exceeds budget"):
        enumerate_directions(GroupContext(3, 15))
    # Z_5^3 has 31 directions, 93 coordinates
    with using(ToolConfig(op_budget=92)), pytest.raises(BudgetError, match="raise op_budget"):
        enumerate_directions(GroupContext(5, 3))
    with using(ToolConfig(op_budget=93)):
        assert len(enumerate_directions(GroupContext(5, 3))) == 31


def test_affine_apply_examples():
    ctx = GroupContext(5, 2)
    eye = AffineMap(ctx, ((1, 0), (0, 1)))
    assert eye((2, 3)) == (2, 3)
    shear = AffineMap(ctx, ((1, 1), (0, 1)))
    assert shear((0, 1)) == (1, 1)
    ctx7 = GroupContext(7, 1)
    m = AffineMap(ctx7, ((2,),), (1,))
    assert m((3,)) == (0,)


def test_determinant_matches_permutation_expansion():
    import itertools
    import random

    rnd = random.Random(4)
    for p, n in [(3, 3), (5, 2), (7, 3), (11, 4)]:
        ctx = GroupContext(p, n)
        for _ in range(40):
            rows = tuple(tuple(rnd.randrange(p) for _ in range(n)) for _ in range(n))
            expected = 0
            for perm in itertools.permutations(range(n)):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                term = (-1) ** inversions
                for i, j in enumerate(perm):
                    term *= rows[i][j]
                expected += term
            t = AffineMap(ctx, rows)
            assert t.determinant() == expected % p
            if p**n <= 125:  # invertible exactly when the map is a bijection
                assert t.is_invertible() == (len({t(x) for x in ctx.points()}) == p**n)


def test_singular_map_raises():
    ctx = GroupContext(5, 2)
    singular = AffineMap(ctx, ((1, 2), (2, 4)))
    assert singular.determinant() == 0
    f = SparseFunction.indicator(ctx, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="invertible"):
        pushforward(f, singular)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (5, 3), (7, 2), (11, 3), (31, 2)])
def test_line_and_hyperplane_cardinalities(p, d):
    ctx = GroupContext(p, d)
    line = Line(ctx, (1,) + (0,) * (d - 1), (0,) * d)
    pts = line.points()
    assert len(set(pts)) == p
    hp = Hyperplane(ctx, (0,) * (d - 1) + (1,), 2)
    on = [x for x in ctx.points() if hp.contains(x)]
    assert len(on) == p ** (d - 1)
    assert all(x[-1] == 2 for x in on)


def test_line_contains_matches_enumeration():
    ctx = GroupContext(5, 3)
    line = Line(ctx, (2, 0, 1), (1, 4, 0))
    members = set(line.points())
    for x in ctx.points():
        assert line.contains(x) == (x in members)


def test_line_parameters_invert_point_at():
    ctx = GroupContext(5, 3)
    line = Line(ctx, (0, 2, 1), (1, 4, 0))
    pts = list(ctx.points())
    params = line.parameters(pts)
    assert sorted(int(s) for s in params if s >= 0) == list(range(5))
    for x, s in zip(pts, params):
        assert (line.point_at(int(s)) == x) if s >= 0 else not line.contains(x)
    # past p = 2^31 the products of residues leave int64
    p = 4294967291
    ctx = GroupContext(p, 2)
    line = Line(ctx, (3, p - 2), (p - 1, 5))
    for s in (0, 1, 12345, p - 1):
        x = line.point_at(s)
        assert line.parameters([x]).tolist() == [s]
        assert line.contains(x)
        assert not line.contains(ctx.add(x, (1, 0)))


@st.composite
def point_lists(draw):
    p = draw(st.sampled_from([3, 5, 7, 101]))
    d = draw(st.integers(1, 3))
    coord = st.integers(-3 * p, 3 * p) | st.integers(-(2**70), 2**70)
    point = st.tuples(*[coord] * d) | st.lists(coord, min_size=d, max_size=d)
    if d == 1:
        point = point | coord
    pts = draw(st.lists(point, max_size=12))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=4))  # duplicates
    if draw(st.integers(0, 4)) == 0:
        wrong = st.lists(coord, max_size=4).filter(lambda x: len(x) != d)
        if d > 1:
            wrong = wrong | coord
        pts.insert(draw(st.integers(0, len(pts))), draw(wrong))
    return p, d, pts


@given(point_lists())
def test_point_array_matches_point(case):
    p, d, pts = case
    ctx = GroupContext(p, d)
    try:
        want = sorted({ctx.point(x) for x in pts})
    except ValueError:
        with pytest.raises(ValueError):
            ctx.point_array(pts)
        return
    arr = ctx.point_array(pts)
    assert arr.dtype == np.int64 and arr.shape == (len(want), d)
    assert list(map(tuple, arr.tolist())) == want


def test_point_array_reads_arrays_and_rejects_like_point():
    ctx = GroupContext(7, 2)
    arr = ctx.point_array(np.array([[8, -1], [1, 6], [0, 0]]))
    assert arr.tolist() == [[0, 0], [1, 6]]
    assert ctx.point_array(iter([])).shape == (0, 2)
    with pytest.raises(ValueError, match="scalar point"):
        ctx.point_array([1, 2])
    with pytest.raises(ValueError, match="has 3 coords"):
        ctx.point_array([(1, 2, 3)])
    assert GroupContext(7).point_array(np.arange(-3, 10)).ravel().tolist() == list(range(7))


def point_reference(ctx, x):
    """`GroupContext.point` without its fast paths: the abc check, then int()."""
    if isinstance(x, Integral):
        if ctx.d != 1:
            raise ValueError(f"scalar point {x} given for d = {ctx.d}")
        return (int(x) % ctx.p,)
    coords = tuple(int(c) % ctx.p for c in x)
    if len(coords) != ctx.d:
        raise ValueError(f"point {x!r} has {len(coords)} coords, expected {ctx.d}")
    return coords


def outcome(fn, *args):
    """The point and its coordinate types, or the error message."""
    try:
        pt = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return pt, [type(c) for c in pt]


def test_point_fast_paths_keep_the_reference_semantics():
    big = 2**70
    scalars = [0, 6, 7, -1, -8, big, -big, True, False, np.int64(9), np.int32(-3),
               np.uint8(200), np.int64(2**62)]
    tuples = [(1, 2), (6, 6), (7, 0), (-1, 3), (big, -big), (True, 2), (False, False),
              (np.int64(8), 1), (1.5, 2), [1, 2], [8, -1], (1,), (1, 2, 3), (), "12"]
    for ctx in (GroupContext(7), GroupContext(7, 2), GroupContext(7, 3)):
        for x in scalars + tuples + [(x,) for x in scalars]:
            assert outcome(ctx.point, x) == outcome(point_reference, ctx, x), (ctx, x)


def test_point_array_keeps_the_reference_semantics(monkeypatch):
    big = 2**70
    huge = GroupContext(4294967291, 2)  # p^d >= 2^62: no int64 codes
    cases = [
        (GroupContext(7), [3, -4, True, np.int64(10), big, (2,), [9]]),
        (GroupContext(7), [np.int64(3), np.int64(-4)]),
        (GroupContext(7, 2), [(1, 2), [8, -5], (big, 0), (True, False), (np.int32(6), 13)]),
        (GroupContext(7, 2), [(1, 2), 3]),
        (GroupContext(7, 2), [(1, 2), (1, 2, 3)]),
        (GroupContext(7, 2), [(1, 2), (1,)]),
        # d-tuples, read in bulk: floats, bools and numpy ints inside them
        (GroupContext(7, 2), [(1.5, -2.5), (True, np.int64(9)), (np.uint8(200), -3.7),
                              (np.float64(8.9), False), (1, 2)]),
        (GroupContext(7, 3), [(np.int64(-1), np.int32(7), np.uint64(2**63)), (6, 0, 1)]),
        (GroupContext(7, 2), [(1, 2), (3, big), (8, 9)]),
        (GroupContext(7, 2), [(1, 2), [8, -5], (3, 4), [1, 2]]),
        (GroupContext(7, 2), [(1, 2), (1, 2, 3), (4,)]),  # ragged, 4 coordinates in all
        (GroupContext(7, 2), [(1, 2), (float("nan"), 1)]),
        (GroupContext(7, 2), [(1, 2), ("x", 1)]),
        (huge, [(big, 1), (-1, 5), (3, 4), (big, 1), (huge.p + 3, 4)]),
    ]
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(keys) or lexsort(keys))
    for ctx, pts in cases:
        try:
            want = sorted({point_reference(ctx, x) for x in pts})
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ctx.point_array(pts)
            assert str(info.value) == str(exc)
            continue
        assert ctx.point_array(pts).tolist() == [list(x) for x in want]
    # only the group past int64 codes sorts by lexsort
    assert len(lexsorts) == 1 and lexsorts[0].shape == (2, 5)


def test_nonzero_constraints():
    ctx = GroupContext(5, 2)
    with pytest.raises(ValueError):
        Line(ctx, (0, 0))
    with pytest.raises(ValueError):
        Hyperplane(ctx, (0, 0), 1)
