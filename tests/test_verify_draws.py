"""The suite generators and `random_instance` write instances straight from
the drawn points and values.  The oracle here is the older path, kept as it
was: build a SparseFunction from the draws, then serialise its entries.  Both
must give the same instances, key order and JSON bytes included, from the
same generator state."""

import json

import numpy as np
import pytest

from zpwiener.energy import level_sets
from zpwiener.fourier import SparseFunction
from zpwiener.groups import GroupContext, _decode, enumerate_directions
from zpwiener.verify import CHECKS, random_instance

PRIMES = (5, 7, 11, 101)


def old_rand_points(rng, ctx, size):
    codes = np.sort(rng.choice(ctx.size, size=size, replace=False))
    return list(map(tuple, _decode(ctx, codes).tolist()))


def old_rand_values(rng, size, kind):
    if kind == "indicator":
        return [1.0 + 0j] * size
    if kind == "unimodular":
        return [complex(np.exp(2j * np.pi * t)) for t in rng.random(size)]
    if kind == "gaussian":
        return [complex(a, b) for a, b in zip(rng.standard_normal(size), rng.standard_normal(size))]
    mags = 2.0 ** rng.integers(0, 5, size=size) * (1.01 + 0.98 * rng.random(size))
    phases = np.exp(2j * np.pi * rng.random(size))
    return [complex(m * z) for m, z in zip(mags, phases)]


def old_rand_function(rng, ctx, size, kind):
    pts = old_rand_points(rng, ctx, size)
    return SparseFunction._reduced(ctx, zip(pts, old_rand_values(rng, size, kind)))


def old_fn_instance(f, **extra):
    entries = [{"x": list(x), "re": v.real, "im": v.imag} for x, v in sorted(f.entries.items())]
    return {"p": f.ctx.p, "d": f.ctx.d, "entries": entries, **extra}


def old_functions(kind, sizes=(2, 8)):
    def gen(rng, count):
        out = []
        for i in range(count):
            p = PRIMES[i % len(PRIMES)]
            size = int(rng.integers(sizes[0], min(sizes[1], p) + 1))
            out.append(old_fn_instance(old_rand_function(rng, GroupContext(p), size, kind)))
        return out

    return gen


def old_banach(rng, count):
    out = []
    for i in range(count):
        ctx = GroupContext(PRIMES[i % len(PRIMES)])
        fa, gb = (
            old_rand_function(rng, ctx, int(rng.integers(1, min(8, ctx.p) + 1)), "gaussian")
            for _ in range(2)
        )
        out.append({"f": old_fn_instance(fa), "g": old_fn_instance(gb)})
    return out


def old_complement(rng, count):
    out = []
    for i in range(count):
        p = PRIMES[i % len(PRIMES)]
        size = int(rng.integers(1, p))
        pts = old_rand_points(rng, GroupContext(p), size)
        out.append({"p": p, "d": 1, "points": [list(x) for x in pts]})
    return out


def old_tk(rng, count):
    base = old_functions("gaussian", sizes=(1, 8))(rng, count)
    for i, inst in enumerate(base):
        inst["k"] = 1 + i % 3
    return base


def old_energy_lower(rng, count):
    out = []
    for i in range(count):
        ctx = GroupContext(PRIMES[i % len(PRIMES)])
        size = int(rng.integers(2, min(8, ctx.p) + 1))
        pts = old_rand_points(rng, ctx, size)
        if i % 2:
            values = old_rand_values(rng, size, "geq1")
        else:
            level = 2.0 ** int(rng.integers(0, 4))
            mags = level * (1.01 + 0.89 * rng.random(size))
            phases = np.exp(2j * np.pi * rng.random(size))
            values = [complex(m * z) for m, z in zip(mags, phases)]
        f = SparseFunction(ctx, dict(zip(pts, values)))
        levels = level_sets(f).levels
        q_pts = sorted(levels[max(levels, key=lambda j: len(levels[j]))])
        out.append(old_fn_instance(f, k=2 + i % 2, q_points=[list(x) for x in q_pts]))
    return out


def old_scattered(rng, count):
    out = []
    for i in range(count):
        m = int(rng.integers(1, 4))
        shell_size = int(rng.integers(1, 5))
        n_shells = int(rng.integers(1, 5))
        shells = []
        for idx in range(1, n_shells + 1):
            bound = 4**idx * m
            lo = bound // 2 + 1
            pool = list(range(lo, bound + 1)) + list(range(-bound, -lo + 1))
            vals = sorted(int(v) for v in rng.choice(pool, shell_size, replace=False))
            shells.append([idx, vals])
        out.append({"m": m, "shell_size": shell_size, "shells": shells, "k": 1 + i % 2})
    return out


def old_line_monotone(rng, count):
    out = []
    for i in range(count):
        p = (3, 5)[i % 2]
        ctx = GroupContext(p, 2)
        f = old_rand_function(rng, ctx, int(rng.integers(1, p * p // 2 + 1)), "gaussian")
        dirs = enumerate_directions(ctx)
        b = dirs[int(rng.integers(0, len(dirs)))]
        c = tuple(int(v) for v in rng.integers(0, p, size=2))
        out.append(old_fn_instance(f, line={"b": list(b), "c": list(c)}))
    return out


def old_hyperplane_balance(rng, count):
    out = []
    for i in range(count):
        p, d = (5, 7)[i % 2], 2 + (i // 2) % 2
        ctx = GroupContext(p, d)
        size = int(rng.integers(1, ctx.size))
        out.append({"p": p, "d": d, "points": [list(x) for x in old_rand_points(rng, ctx, size)]})
    return out


OLD_GENERATORS = {
    "banach": old_banach,
    "inversion": old_functions("gaussian"),
    "parseval-upper": old_functions("gaussian"),
    "complement-identity": old_complement,
    "tk-identity": old_tk,
    "energy-lower": old_energy_lower,
    "superadditivity-T2": old_functions("geq1"),
    "scattered-upper": old_scattered,
    "line-monotone": old_line_monotone,
    "hyperplane-balance": old_hyperplane_balance,
}


def same(new, old):
    # == alone would take 1 for 1.0; the JSON bytes hold the types and key order
    return new == old and json.dumps(new) == json.dumps(old)


def test_every_check_has_an_oracle_generator():
    assert set(OLD_GENERATORS) == set(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_suite_draws_match_the_function_path(name):
    for seed in range(10):
        new = CHECKS[name].generate(np.random.default_rng(seed), 16)
        old = OLD_GENERATORS[name](np.random.default_rng(seed), 16)
        assert same(new, old), (name, seed)


@pytest.mark.parametrize(
    "params", [{}, {"p": 5, "d": 2, "size": 25}, {"p": 7, "d": 3, "size": 40}, {"p": 10007, "size": 300}]
)
def test_random_instance_matches_the_function_path(params):
    p, d, size = params.get("p", 101), params.get("d", 1), params.get("size", 5)
    for kind, values in (("indicator", "indicator"), ("unimodular-function", "unimodular")):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            old = old_fn_instance(old_rand_function(rng, GroupContext(p, d), size, values), kind=kind)
            assert same(random_instance(kind, seed, **params), old), (kind, seed)
