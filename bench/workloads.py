"""The three seeded job lists and the checks on their outputs.

A job's `run` is the only timed part: one call into zpwiener's public API.
`summarize` turns the result into a small comparable value outside the timed
interval, and `check` compares that value against refs.py (computed once,
lazily, after the timed passes) and returns a message on mismatch.

Every call goes through the `zpwiener` package or module attributes at call
time, so the wrappers tracing.py installs are seen by the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Optional

import numpy as np

import zpwiener as Z
import zpwiener.cli
import zpwiener.fileio

import refs

WORKLOADS = ("spectral", "search", "harness")

# Primes used below; 16777213 is the largest prime under 2^24, the default
# dense budget, and 2147483647 = 2^31 - 1.
BIG_DIM_P = 16777213
BIG_DISSOC_P = 2147483647


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    identical: bool = False  # every repetition must give the same summary


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _points(rng, p: int, d: int, size: int, low: int = 0) -> list[tuple[int, ...]]:
    """Distinct sorted points of Z_p^d whose first coordinate is >= low."""
    flat = rng.choice((p - low) * p ** (d - 1), size=size, replace=False)
    coords = np.stack(np.unravel_index(flat, (p - low,) + (p,) * (d - 1)), axis=1)
    coords[:, 0] += low
    return sorted(tuple(int(c) for c in row) for row in coords)


def _gaussian(rng, size: int) -> list[complex]:
    return [complex(a, b) for a, b in rng.standard_normal((size, 2))]


def _function(p: int, d: int, pts, vals):
    return Z.SparseFunction(Z.GroupContext(p, d), dict(zip(pts, vals)))


def _generic_set(rng, p: int, size: int) -> list[int]:
    """Residues with no {-1,0,1} relation, drawn again until refs finds none,
    so the searches on them take the same path on every seed."""
    while True:
        values = [x[0] for x in _points(rng, p, 1, size, low=1)]
        if refs.zero_patterns(values, p) == 1:
            return values


def _separable_points(rng, p: int, d: int, size: int) -> list[tuple[int, ...]]:
    """A set whose two smallest points differ only in coordinate 0.

    find_separating_map scans rows in lexicographic order, so every row with
    t_0 = 0 (p^(d-1) - 1 of them) fails, each on the first pair; the rows
    after them fail with a chance set by the number of pairs.  Without such a
    pair the scan length hinged on the draw: in d = 3, p = 101 a pair of
    random points that happened to differ only in coordinate 0 (about one
    seed in 36) made the scan test all p^2 rows with t_0 = 0, each up to that
    pair, up to 0.5 s per set against 0.7 ms.  With the pair first, that scan
    runs on every seed at one cost, about 18 ms per set.
    """
    tail = tuple(int(c) for c in rng.integers(0, p, size=d - 1))
    return sorted([(0,) + tail, (1,) + tail] + _points(rng, p, d, size - 2, low=2))


def _write(path: str, p: int, d: int, pts, vals) -> None:
    """An input file, written in set-up with the program's own writer, so that
    fileio's cost shows in setup_s; the checks use the benchmark's copy."""
    zpwiener.fileio.write_function_file(path, _function(p, d, pts, vals))


# ---------------------------------------------------------------------------
# job builders shared by the workloads
# ---------------------------------------------------------------------------


def _norm_job(name, p, d, pts, vals) -> Job:
    f = _function(p, d, pts, vals)
    ref = cache(lambda: refs.wiener(refs.dense(p, d, pts, vals)))
    return Job(
        name,
        lambda: Z.wiener_norm(f),
        float,
        lambda got: None if refs.close(got, ref(), 1e-9) else f"norm {got} != {ref()}",
    )


def _roundtrip_job(name, p, d, pts, vals) -> Job:
    f = _function(p, d, pts, vals)
    want = dict(zip(pts, vals))

    def summarize(g):
        got = dict(g.entries)
        if set(got) != set(want):
            return math.inf
        return max(abs(got[x] - want[x]) / abs(want[x]) for x in want)

    return Job(
        name,
        lambda: Z.inverse_dft(Z.dft(f)),
        summarize,
        lambda err: None if err <= 1e-9 else f"round trip differs by {err}",
    )


def _tk_indicator_job(name, p, d, pts, k, spectral: bool) -> Job:
    """T_k of an indicator; the direct path is exact, the spectral one within 1e-6."""
    g = Z.SparseFunction.indicator(Z.GroupContext(p, d), pts)
    ref = cache(lambda: refs.tk_indicator(pts, p, d, k))
    rel = 1e-6 if spectral else 1e-12
    return Job(
        name,
        lambda: (Z.t_k_spectral if spectral else Z.t_k_direct)(g, k),
        float,
        lambda got: None if refs.close(got, ref(), rel) else f"T_{k} {got} != {ref()}",
    )


def _tk_complex_job(name, p, pts, vals, k) -> Job:
    g = _function(p, 1, pts, vals)
    ref = cache(lambda: refs.tk_fft(refs.dense(p, 1, pts, vals), k))
    return Job(
        name,
        lambda: Z.t_k_direct(g, k),
        float,
        lambda got: None if refs.close(got, ref(), 1e-9) else f"T_{k} {got} != {ref()}",
    )


def _sep_map_check(pts, p):
    def check(sep) -> Optional[str]:
        first = [sum(a * b for a, b in zip(sep.row, x)) % p for x in pts]
        if len(set(first)) != len(pts) or tuple(first) != tuple(sep.first_coords):
            return "first coordinates are not distinct"
        if tuple(sep.map.matrix[0]) != tuple(sep.row):
            return "first row of the map is not the separating row"
        if refs.det_mod([list(r) for r in sep.map.matrix], p) == 0:
            return "separating map is singular"
        return None

    return check


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = zpwiener.cli.main(argv)
        return rc, out.getvalue()

    return run


def _cli_job(name, argv, outputs=(), check=None) -> Job:
    """A CLI call; the summary is (exit code, stdout, bytes of each output file).

    Reports are promised byte-identical across runs, so every repetition must
    match the first."""

    def summarize(result):
        rc, text = result
        files = []
        for path in outputs if rc == 0 else ():
            with open(path, "rb") as handle:
                files.append(handle.read())
        return rc, text, tuple(files)

    def full_check(summary):
        rc, text, files = summary
        if rc != 0:
            return f"exit code {rc}"
        return check(text, files) if check else None

    return Job(name, _cli_run(argv), summarize, full_check, identical=True)


def _printed(text: str, key: str) -> float:
    for line in text.splitlines():
        fields = line.split()
        if key in fields:
            return float(fields[fields.index(key) + 1])
    raise ValueError(f"{key} not printed")


def _signed(x: int, p: int) -> int:
    r = x % p
    return r - p if r > (p - 1) // 2 else r


def _records(blob: bytes) -> list[dict]:
    return [json.loads(line) for line in blob.decode().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# spectral: dense transforms
# ---------------------------------------------------------------------------


def spectral(rng, workdir: str) -> list[Job]:
    jobs: list[Job] = []
    for p in (1009, 2003, 4099, 10007):
        for i in range(2):
            pts = _points(rng, p, 1, 64)
            jobs.append(_norm_job(f"norm-d1-p{p}-{i}", p, 1, pts, _gaussian(rng, 64)))
    for p, d in ((257, 2), (509, 2), (61, 3), (101, 3)):
        pts = _points(rng, p, d, 400)
        jobs.append(_norm_job(f"norm-d{d}-p{p}", p, d, pts, _gaussian(rng, 400)))
    for p, d in ((10007, 1), (257, 2)):
        pts = _points(rng, p, d, 300)
        jobs.append(_roundtrip_job(f"roundtrip-d{d}-p{p}", p, d, pts, _gaussian(rng, 300)))
    for p, d, size, k in ((10007, 1, 200, 2), (4099, 1, 40, 3), (127, 2, 100, 2)):
        pts = _points(rng, p, d, size)
        jobs.append(_tk_indicator_job(f"tk-spectral-k{k}-d{d}-p{p}", p, d, pts, k, True))
    jobs.append(_ap_scan_job("ap-scan-p10007", 10007, [10, 31, 100, 316, 1000, 2000]))
    jobs.append(_separation_job("separation-bound-d2-p1009", rng, 1009, 30))
    # registered checks and a monitor at large p: transform-bound, with small
    # direct sides
    jobs.append(_tk_identity_check_job("check-tk-identity-p10007", rng, 10007, 8, 3))
    jobs.append(_complement_check_job("check-complement-p10007", rng, 10007, 500))
    jobs.append(_dim_bound_monitor_job("monitor-dim-bound-p10007", rng, 10007, 10))
    # end-to-end calls through the CLI on files written in set-up
    p, d = 257, 2
    pts = _points(rng, p, d, 300)
    vals = _gaussian(rng, 300)
    path = os.path.join(workdir, "eval-d2-p257.txt")
    _write(path, p, d, pts, vals)
    jobs.append(_cli_eval_job("cli-eval-d2-p257", path, p, d, pts, vals))
    jobs.append(_cli_dirichlet_job("cli-reduce-dirichlet-p10007", rng, workdir, 10007, 10))
    jobs.append(_cli_line_job("cli-reduce-line-d2-p101", rng, workdir, 101, 2, 600))
    return jobs


def _ap_scan_job(name, p, ns) -> Job:
    return Job(
        name,
        lambda: Z.ap_scan(p, ns),
        lambda rows: [(r.size, r.wiener_norm, r.ratio) for r in rows],
        lambda rows: _check_ap_rows(p, ns, rows),
    )


def _separation_job(name, rng, p, size) -> Job:
    pts = _separable_points(rng, p, 2, size)
    vals = _gaussian(rng, size)
    f = _function(p, 2, pts, vals)
    ref = cache(lambda: refs.wiener(refs.dense(p, 2, pts, vals)))
    sep_map = _sep_map_check(pts, p)

    def check(b) -> Optional[str]:
        if not refs.close(b.norm, ref(), 1e-9):
            return f"norm {b.norm} != {ref()}"
        if not refs.close(b.norm, b.mean_inner, 1e-9):
            return f"norm {b.norm} != mean inner norm {b.mean_inner}"
        if b.norm < b.min_inner * (1 - 1e-9) or len(b.inner_norms) != p:
            return "norm is below the smallest inner norm"
        return sep_map(b.separating)

    return Job(name, lambda: Z.separated_projection_bound(f), lambda b: b, check)


def _tk_identity_check_job(name, rng, p, size, k) -> Job:
    pts = _points(rng, p, 1, size)
    vals = _gaussian(rng, size)
    inst = _instance(p, 1, pts, vals, k=k)
    ref = cache(lambda: refs.tk_fft(refs.dense(p, 1, pts, vals), k))

    def check(r) -> Optional[str]:
        passed, direct, spectral = r
        if passed and refs.close(direct, ref(), 1e-9) and refs.close(spectral, ref(), 1e-6):
            return None
        return f"tk-identity report {r} vs T_{k} {ref()}"

    return Job(name, lambda: Z.check("tk-identity", inst), lambda r: (r.passed, r.lhs, r.rhs), check)


def _complement_check_job(name, rng, p, size) -> Job:
    pts = _points(rng, p, 1, size)
    inst = {"p": p, "d": 1, "points": [list(x) for x in pts]}

    @cache
    def ref():
        a = refs.dense(p, 1, pts)
        return refs.wiener(a), refs.wiener(1 - a) + 2 * size / p - 1

    def check(r) -> Optional[str]:
        passed, lhs, rhs = r
        if passed and refs.close(lhs, ref()[0], 1e-9) and refs.close(rhs, ref()[1], 1e-9):
            return None
        return f"complement report {r} vs {ref()}"

    return Job(
        name, lambda: Z.check("complement-identity", inst), lambda r: (r.passed, r.lhs, r.rhs), check
    )


def _dim_bound_monitor_job(name, rng, p, size) -> Job:
    pts = _points(rng, p, 1, size)
    vals = _gaussian(rng, size)
    inst = _instance(p, 1, pts, vals)

    @cache
    def ref():
        big_k = refs.wiener(refs.dense(p, 1, pts, vals))
        l2 = math.sqrt(sum(abs(v) ** 2 for v in vals))
        dim = refs.max_dissociated([x[0] for x in pts], p)
        return dim, big_k, dim / (big_k**2 * (1 + math.log(max(l2 / big_k, 1.0))))

    def check(m) -> Optional[str]:
        ratio, dim, big_k = m
        want_dim, want_k, want_ratio = ref()
        if dim == want_dim and refs.close(big_k, want_k, 1e-9) and refs.close(ratio, want_ratio, 1e-9):
            return None
        return f"dim-bound {m} vs {ref()}"

    return Job(
        name,
        lambda: Z.monitor("dim-bound", inst),
        lambda m: (m.ratio, m.details["dim"], m.details["K"]),
        check,
    )


def _instance(p, d, pts, vals, **extra) -> dict:
    entries = [{"x": list(x), "re": v.real, "im": v.imag} for x, v in zip(pts, vals)]
    return {"p": p, "d": d, "entries": entries, **extra}


def _check_ap_rows(p, ns, rows) -> Optional[str]:
    if [r[0] for r in rows] != [2 * n + 1 for n in ns]:
        return "scan sizes differ from the requested progressions"
    for (size, norm, ratio), n in zip(rows, ns):
        want = refs.ap_norm(p, n)
        if not refs.close(norm, want, 1e-9):
            return f"ap norm at n = {n}: {norm} != {want}"
        if ratio is None or not math.isfinite(ratio):
            return f"ratio at n = {n} is not finite"
    return None


def _cli_eval_job(name, path, p, d, pts, vals) -> Job:
    ref = cache(lambda: refs.wiener(refs.dense(p, d, pts, vals)))

    def check(text, files):
        got = _printed(text, "wiener_norm")
        if not refs.close(got, ref(), 1e-9, 1e-11):
            return f"printed norm {got} != {ref()}"
        if int(_printed(text, "support")) != len(pts):
            return "printed support size is wrong"
        return None

    return _cli_job(name, ["eval", path], check=check)


def _cli_dirichlet_job(name, rng, workdir, p, size) -> Job:
    pts = _points(rng, p, 1, size, low=1)
    vals = _gaussian(rng, size)
    path = os.path.join(workdir, f"{name}.txt")
    out = os.path.join(workdir, f"{name}.jsonl")
    _write(path, p, 1, pts, vals)
    ref = cache(lambda: refs.wiener(refs.dense(p, 1, pts, vals)))

    def check(text, files):
        rec = _records(files[0])[-1]
        q = rec["q"]
        signed = sorted(_signed(q * x[0], p) for x in pts)
        if rec["support_signed"] != signed:
            return "dilated support is not q times the support"
        # max_abs is taken over the dissociated core, a subset of the support
        if rec["max_abs"] > rec["bound"] or rec["max_abs"] > max(abs(b) for b in signed):
            return "dilated core exceeds the bound"
        for key in ("norm_before", "norm_after"):
            if not refs.close(rec[key], ref(), 1e-9):
                return f"{key} {rec[key]} != {ref()}"
        return None

    return _cli_job(name, ["reduce", "dirichlet", "--input", path, "--output", out], (out,), check)


def _cli_line_job(name, rng, workdir, p, d, size) -> Job:
    pts = _points(rng, p, d, size)
    vals = _gaussian(rng, size)
    path = os.path.join(workdir, f"{name}.txt")
    out = os.path.join(workdir, f"{name}.jsonl")
    _write(path, p, d, pts, vals)
    ref = cache(lambda: refs.wiener(refs.dense(p, d, pts, vals)))

    def check(text, files):
        recs = _records(files[0])
        steps = [r for r in recs if r["record"] == "balance"]
        line = [r for r in recs if r["record"] == "line"][0]
        if len(steps) != d - 1 or any(s["theta"] > 1 + 1e-12 for s in steps):
            return "a balance step exceeds its bound"
        if line["count"] != refs.line_count(pts, line["direction"], line["base"], p):
            return "line count differs from an independent count"
        if not refs.close(line["norm_before"], ref(), 1e-9):
            return f"norm_before {line['norm_before']} != {ref()}"
        if line["norm_after"] > line["norm_before"] * (1 + 1e-9):
            return "restriction increased the norm"
        return None

    return _cli_job(name, ["reduce", "line", "--input", path, "--output", out], (out,), check)


# ---------------------------------------------------------------------------
# search: the Python-loop kernels
# ---------------------------------------------------------------------------


def _dimension_job(name, p, values) -> Job:
    ctx = Z.GroupContext(p)

    def check(result) -> Optional[str]:
        dim, subset = result
        sub = [x[0] for x in subset]
        if dim != len(sub):
            return "dimension differs from the subset size"
        msg = refs.check_dimension_subset(sub, values, p)
        if msg:
            return msg
        greedy, _ = Z.additive_dimension(values, ctx, mode="greedy")
        return None if dim >= greedy else f"exact {dim} < greedy {greedy}"

    return Job(name, lambda: Z.additive_dimension(values, ctx), lambda r: r, check)


def _greedy_job(name, p, values) -> Job:
    ctx = Z.GroupContext(p)

    def check(result) -> Optional[str]:
        dim, subset = result
        sub = [x[0] for x in subset]
        if dim != len(sub):
            return "dimension differs from the subset size"
        return refs.check_dimension_subset(sub, values, p)

    return Job(name, lambda: Z.additive_dimension(values, ctx, mode="greedy"), lambda r: r, check)


def _dissociation_job(name, p, values) -> Job:
    ctx = Z.GroupContext(p)
    ref = cache(lambda: refs.zero_patterns(values, p) == 1)

    def check(cert) -> Optional[str]:
        if cert.dissociated != ref():
            return f"verdict {cert.dissociated} != {ref()}"
        if not cert.dissociated:
            eps = {x[0]: e for x, e in cert.witness.items()}
            if set(eps) != set(values) or not any(eps.values()):
                return "witness does not cover the set"
            if any(e not in (-1, 0, 1) for e in eps.values()):
                return "witness has a coefficient outside {-1, 0, 1}"
            if sum(e * x for x, e in eps.items()) % p:
                return "witness does not sum to zero"
        return None

    return Job(name, lambda: Z.is_dissociated(values, ctx), lambda c: c, check)


def _hyperplane_job(name, p, d, pts) -> Job:
    ctx = Z.GroupContext(p, d)

    def check(rep) -> Optional[str]:
        h = rep.found
        if rep.count != refs.hyperplane_count(pts, h.eta, h.u, p):
            return "count differs from an independent count"
        target = len(pts) / p
        if not refs.close(rep.deviation, abs(rep.count - target), 1e-12, 1e-12):
            return "deviation is not |count - density p^{d-1}|"
        bound = math.sqrt(len(pts) / p**d) * p ** ((d - 1) / 2)
        if rep.deviation > bound * (1 + 1e-12):
            return f"deviation {rep.deviation} above bound {bound}"
        return None

    return Job(name, lambda: Z.find_balanced_hyperplane(pts, ctx), lambda r: r, check)


def _line_job(name, p, d, pts) -> Job:
    ctx = Z.GroupContext(p, d)

    def check(res) -> Optional[str]:
        if len(res.steps) != d - 1 or any(s.theta > 1 + 1e-12 for s in res.steps):
            return "a balance step exceeds its bound"
        if res.count != refs.line_count(pts, res.line.direction, res.line.base, p):
            return "line count differs from an independent count"
        return None

    return Job(name, lambda: Z.find_balanced_line(pts, ctx), lambda r: r, check)


def _separating_job(name, p, d, pts) -> Job:
    ctx = Z.GroupContext(p, d)
    return Job(name, lambda: Z.find_separating_map(pts, ctx), lambda s: s, _sep_map_check(pts, p))


def _dirichlet_job(name, p, lams) -> Job:
    ctx = Z.GroupContext(p)

    def check(res) -> Optional[str]:
        return refs.dirichlet_ok(res.q, lams, p)

    return Job(name, lambda: Z.find_dirichlet_q(lams, ctx), lambda r: r, check)


def _rescale_job(name, p, pts) -> Job:
    f = Z.SparseFunction.indicator(Z.GroupContext(p), pts)

    def check(res) -> Optional[str]:
        # undo the dilation on the reported core: lam = q^{-1} * (q lam)
        inv = pow(res.q, -1, p)
        core = [(inv * b) % p for b in res.rescaling.rescaled_support]
        msg = refs.dirichlet_ok(res.q, core, p)
        if msg:
            return msg
        dilated = sorted((res.q * x[0]) % p for x in pts)
        if sorted(x[0] for x in res.function.support) != dilated:
            return "dilated support is not q times the support"
        if list(res.support_signed) != sorted(_signed(x, p) for x in dilated):
            return "signed support does not match the dilated support"
        return None

    return Job(name, lambda: Z.rescale_to_short_interval(f), lambda r: r, check)


def _batch(name, parts: list[Job]) -> Job:
    """Several calls timed as one job, so that costs which depend on the
    drawn data (search-tree size, where a scan stops) average out."""

    def check(summaries) -> Optional[str]:
        for part, summary in zip(parts, summaries):
            msg = part.check(summary)
            if msg is not None:
                return f"{part.name}: {msg}"
        return None

    return Job(
        name,
        lambda: [part.run() for part in parts],
        lambda results: [part.summarize(r) for part, r in zip(parts, results)],
        check,
    )


def search(rng, workdir: str) -> list[Job]:
    jobs: list[Job] = []
    p = 10007
    for size, k, i in ((200, 2, 0), (200, 2, 1), (60, 3, 0)):
        pts = _points(rng, p, 1, size)
        jobs.append(_tk_indicator_job(f"tk-direct-k{k}-n{size}-{i}", p, 1, pts, k, False))
    for size, k in ((150, 2), (40, 3)):
        pts = _points(rng, p, 1, size)
        jobs.append(_tk_complex_job(f"tk-direct-complex-k{k}-n{size}", p, pts, _gaussian(rng, size), k))

    # exact dimension: a family of random sets in Z_10007, where branch and
    # bound prunes, and one dissociated set below 2^24, where the search is
    # one path of growing sum sets.  A random 10-point set costs 15-55 ms
    # depending on the draw; twelve 9-point sets cost about half of eight
    # 10-point ones and spread half as far
    jobs.append(_batch("dim-exact-n9-x12", [
        _dimension_job(f"dim-exact-n9-{i}", p, [x[0] for x in _points(rng, p, 1, 9, low=1)])
        for i in range(12)
    ]))
    values = _generic_set(rng, BIG_DIM_P, 11)
    jobs.append(_dimension_job(f"dim-exact-n11-p{BIG_DIM_P}", BIG_DIM_P, values))
    jobs.append(_batch("dim-greedy-n40-x2", [
        _greedy_job(f"dim-greedy-n40-{i}", p, [x[0] for x in _points(rng, p, 1, 40, low=1)])
        for i in range(2)
    ]))
    jobs.append(_batch(f"dissociated-n16-p{BIG_DISSOC_P}-x2", [
        _dissociation_job(f"dissociated-n16-{i}", BIG_DISSOC_P, _generic_set(rng, BIG_DISSOC_P, 16))
        for i in range(2)
    ]))
    jobs.append(_batch(f"dissociated-n14-p{p}-x4", [
        _dissociation_job(f"dissociated-n14-{i}", p, [x[0] for x in _points(rng, p, 1, 14, low=1)])
        for i in range(4)
    ]))

    pts = _points(rng, 31, 3, int(0.2 * 31**3))
    jobs.append(_hyperplane_job("hyperplane-d3-p31", 31, 3, pts))
    for q, d, dens in ((31, 3, 0.2), (11, 4, 0.4)):
        pts = _points(rng, q, d, int(dens * q**d))
        jobs.append(_line_job(f"line-d{d}-p{q}", q, d, pts))
    jobs.append(_batch("separating-map-x6", [
        _separating_job(f"separating-map-d{d}-p{q}-{i}", q, d, _separable_points(rng, q, d, size))
        for q, d, size in ((1009, 2, 40), (101, 3, 14))
        for i in range(3)
    ]))
    jobs.append(_batch("dirichlet-n5-8", [
        _dirichlet_job(f"dirichlet-n{n}", p, [x[0] for x in _points(rng, p, 1, n, low=1)])
        for n in (5, 6, 7, 8)
    ]))
    # where the Dirichlet scan stops hinges on the draw: six small sets cost
    # about as much as two of twelve points, with a third of their spread
    jobs.append(_batch("rescale-n8-x6", [
        _rescale_job(f"rescale-n8-{i}", p, _points(rng, p, 1, 8, low=1)) for i in range(6)
    ]))
    jobs.append(_balance_check_job("check-hyperplane-balance-d3-p23", rng, 23, 3, 0.2))

    # a dissociated set, so the CLI's exact search takes one path on every seed
    values = _generic_set(rng, BIG_DIM_P, 9)
    path = os.path.join(workdir, "dim-n9.txt")
    _write(path, BIG_DIM_P, 1, [(v,) for v in values], [1.0 + 0j] * len(values))
    jobs.append(_cli_dim_job(f"cli-dim-exact-n9-p{BIG_DIM_P}", path, BIG_DIM_P, values, "exact"))
    jobs.append(_cli_dirichlet_job("cli-reduce-dirichlet-p10007", rng, workdir, p, 10))
    return jobs


def _balance_check_job(name, rng, p, d, density) -> Job:
    pts = _points(rng, p, d, int(density * p**d))
    inst = {"p": p, "d": d, "points": [list(x) for x in pts]}
    bound = math.sqrt(len(pts) / p**d) * p ** ((d - 1) / 2)

    def check(r) -> Optional[str]:
        passed, got_bound, deviation = r
        if passed and refs.close(got_bound, bound, 1e-12) and deviation <= bound * (1 + 1e-12):
            return None
        return f"hyperplane-balance report {r}, bound {bound}"

    return Job(
        name, lambda: Z.check("hyperplane-balance", inst), lambda r: (r.passed, r.lhs, r.rhs), check
    )


def _cli_dim_job(name, path, p, values, mode) -> Job:
    def check(text, files):
        dim = int(_printed(text, "dim"))
        subset_line = [ln for ln in text.splitlines() if ln.startswith("subset")][0]
        sub = [int(tok.strip("()")) for tok in subset_line.split()[1:]]
        if dim != len(sub):
            return "printed dimension differs from the subset size"
        return refs.check_dimension_subset(sub, values, p)

    return _cli_job(name, ["dim", "--input", path, "--mode", mode], check=check)


# ---------------------------------------------------------------------------
# harness: the CLI end to end, many tiny calls
# ---------------------------------------------------------------------------


# instances per verify suite: enough that a suite is thousands of small calls
HARNESS_COUNT = 150


def harness(rng, workdir: str, seed: int) -> list[Job]:
    jobs: list[Job] = []
    for suite in sorted(Z.CHECKS):
        out = os.path.join(workdir, f"verify-{suite}.jsonl")
        jobs.append(
            _cli_job(
                f"cli-verify-{suite}",
                ["verify", suite, "--seed", str(seed), "--count", str(HARNESS_COUNT), "--output", out],
                (out,),
                _check_verify,
            )
        )

    p = 101
    for d, size in ((1, 8), (2, 8)):
        pts = _points(rng, p, d, size)
        vals = _gaussian(rng, size)
        path = os.path.join(workdir, f"eval-d{d}.txt")
        _write(path, p, d, pts, vals)
        jobs.append(_cli_eval_job(f"cli-eval-d{d}-p{p}", path, p, d, pts, vals))
    spec = os.path.join(workdir, "spectrum-d1.jsonl")
    jobs.append(
        _cli_job(
            "cli-eval-spectrum-d1-p101",
            ["eval", os.path.join(workdir, "eval-d1.txt"), "--spectrum", spec],
            (spec,),
            lambda text, files: None if len(_records(files[0])) == p + 1 else "spectrum size",
        )
    )

    for k, d in ((2, 1), (3, 2)):
        pts = _points(rng, p, d, 8)
        vals = _gaussian(rng, 8)
        path = os.path.join(workdir, f"energy-k{k}.txt")
        _write(path, p, d, pts, vals)
        jobs.append(_cli_energy_job(f"cli-energy-k{k}-d{d}-p{p}", path, p, d, pts, vals, k))

    values = [x[0] for x in _points(rng, p, 1, 8, low=1)]
    path = os.path.join(workdir, "dim-p101.txt")
    _write(path, p, 1, [(v,) for v in values], [1.0 + 0j] * len(values))
    for mode in ("exact", "greedy"):
        jobs.append(_cli_dim_job(f"cli-dim-{mode}-p{p}", path, p, values, mode))

    jobs.append(_cli_line_job("cli-reduce-line-d2-p31", rng, workdir, 31, 2, 200))
    jobs.append(_cli_separating_job("cli-reduce-separating-map-d2-p101", rng, workdir, p, 8))
    jobs.append(_cli_dirichlet_job("cli-reduce-dirichlet-p101", rng, workdir, p, 6))

    ns = [0, 1, 2, 5, 10, 20]
    out = os.path.join(workdir, "scan-ap.csv")
    jobs.append(
        _cli_job(
            "cli-scan-ap-p101",
            ["scan", "ap", "--p", str(p), "--sizes", ",".join(map(str, ns)), "--output", out],
            (out,),
            lambda text, files: _check_scan(files[0], p, ns),
        )
    )
    sizes = [5, 10, 20, 40]
    out = os.path.join(workdir, "scan-random.csv")
    jobs.append(
        _cli_job(
            "cli-scan-random-p101",
            ["scan", "random", "--p", str(p), "--sizes", ",".join(map(str, sizes)),
             "--seed", str(seed), "--output", out],
            (out,),
            lambda text, files: _check_scan(files[0], p, None),
        )
    )
    return jobs



def _check_verify(text, files) -> Optional[str]:
    recs = _records(files[0])
    checks = [r for r in recs if r["record"] == "check"]
    if recs[0]["record"] != "header" or len(checks) != HARNESS_COUNT:
        return "report is not a header plus one record per instance"
    for r in checks:
        if not r["pass"] or not all(math.isfinite(r[k]) for k in ("lhs", "rhs", "slack")):
            return f"check record failed: {r}"
    return None


def _check_scan(blob: bytes, p: int, ns) -> Optional[str]:
    rows = [line.split(",") for line in blob.decode().splitlines()[1:]]
    for i, (rp, size, structure, norm, log_size, ratio) in enumerate(rows):
        size, norm = int(size), float(norm)
        if int(rp) != p or not math.isfinite(norm):
            return "scan row is malformed"
        if ns is not None and not refs.close(norm, refs.ap_norm(p, ns[i]), 1e-9):
            return f"ap norm at n = {ns[i]}: {norm}"
        if size >= 2 and not math.isfinite(float(ratio)):
            return "scan ratio is not finite"
        if size >= 2 and not refs.close(float(ratio), norm / math.log(size), 1e-12):
            return "scan ratio is not norm / ln(size)"
    return None


def _cli_energy_job(name, path, p, d, pts, vals, k) -> Job:
    ref = cache(lambda: refs.tk_fft(refs.dense(p, d, pts, vals), k))

    def check(text, files):
        direct, spectral = _printed(text, f"t{k}_direct"), _printed(text, f"t{k}_spectral")
        if not refs.close(direct, spectral, 1e-6):
            return f"direct {direct} != spectral {spectral}"
        if not refs.close(direct, ref(), 1e-9):
            return f"direct {direct} != {ref()}"
        return None

    return _cli_job(name, ["energy", "--input", path, "--k", str(k), "--method", "both"], check=check)


def _cli_separating_job(name, rng, workdir, p, size) -> Job:
    pts = _separable_points(rng, p, 2, size)
    vals = _gaussian(rng, size)
    path = os.path.join(workdir, f"{name}.txt")
    out = os.path.join(workdir, f"{name}.jsonl")
    _write(path, p, 2, pts, vals)
    ref = cache(lambda: refs.wiener(refs.dense(p, 2, pts, vals)))

    def check(text, files):
        rec = _records(files[0])[-1]
        row = rec["row"]
        first = [sum(a * b for a, b in zip(row, x)) % p for x in pts]
        if len(set(first)) != size or first != rec["first_coords"]:
            return "first coordinates are not distinct"
        if refs.det_mod(rec["matrix"], p) == 0:
            return "separating map is singular"
        for key in ("norm_before", "norm_after"):
            if not refs.close(rec[key], ref(), 1e-9):
                return f"{key} {rec[key]} != {ref()}"
        return None

    return _cli_job(name, ["reduce", "separating-map", "--input", path, "--output", out], (out,), check)


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Generate one workload's inputs from its seed and write its input files."""
    salt = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, salt])
    if workload == "spectral":
        return spectral(rng, workdir)
    if workload == "search":
        return search(rng, workdir)
    return harness(rng, workdir, seed)
