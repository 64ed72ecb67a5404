import argparse
import hashlib
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from zpwiener import cli, verify
from zpwiener.cli import build_parser, main
from zpwiener.config import DEFAULT_CONFIG, ToolConfig, using
from zpwiener.energy import additive_dimension, is_dissociated, t_k_direct
from zpwiener.errors import BudgetError
from zpwiener.fileio import (
    dump_records,
    dump_scan_csv,
    read_function_file,
    read_report_file,
    write_function_file,
    write_report_file,
)
from zpwiener.fourier import SparseFunction
from zpwiener.groups import GroupContext, enumerate_directions
from zpwiener.reduction import find_balanced_hyperplane, find_dirichlet_q
from zpwiener.verify import CHECKS, _rand_points, ap_scan


def write_file(tmp_path, name, ctx, entries):
    f = SparseFunction(ctx, entries)
    path = tmp_path / name
    write_function_file(str(path), f)
    return str(path)


def test_function_file_roundtrip_is_canonical(tmp_path):
    ctx = GroupContext(7, 2)
    f = SparseFunction(ctx, {(3, 1): 1 + 2j, (0, 5): -0.25, (6, 6): 1e-3j})
    path = tmp_path / "f.txt"
    write_function_file(str(path), f)
    back = read_function_file(str(path))
    assert dict(back.entries) == dict(f.entries)
    path2 = tmp_path / "g.txt"
    write_function_file(str(path2), back)
    assert path.read_text() == path2.read_text()


def test_function_file_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("zpwiener-function 1\np 5 d 1\n0 1\n")
    code = main(["eval", str(bad)])
    assert code == 2

    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("something else\n")
    assert main(["eval", str(bad2)]) == 2

    version = tmp_path / "version.txt"
    version.write_text("zpwiener-function x\np 5 d 1\n")
    assert main(["eval", str(version)]) == 2
    assert f"{version}:1: unsupported version x" in capsys.readouterr().err

    missing = tmp_path / "nope.txt"
    assert main(["eval", str(missing)]) == 2


def test_non_finite_values_exit_2(tmp_path, capsys):
    nan = tmp_path / "nan.txt"
    nan.write_text("zpwiener-function 1\np 5 d 1\n0 nan 0\n")
    assert main(["eval", str(nan)]) == 2
    assert f"{nan}:3: non-finite value" in capsys.readouterr().err  # the file and line
    inf = tmp_path / "inf.txt"
    inf.write_text("zpwiener-function 1\np 5 d 1\n1 1 0\n2 inf 0\n")
    assert main(["energy", "--input", str(inf), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{inf}:4: non-finite value" in captured.err


def test_method_choices(tmp_path, capsys):
    path = write_file(tmp_path, "f.txt", GroupContext(5), {0: 1.0, 1: 1.0})
    assert main(["eval", path]) == 0
    assert "wiener_norm 1.294427191000" in capsys.readouterr().out
    assert main(["scan", "ap", "--p", "101", "--sizes", "1,5"]) == 0
    assert capsys.readouterr().out == dump_scan_csv(ap_scan(101, [1, 5]))
    for fast, naive in zip(ap_scan(101, [1, 5]), ap_scan(101, [1, 5], method="naive")):
        assert naive.wiener_norm == pytest.approx(fast.wiener_norm, rel=1e-9)
    # the transform is no longer chosen on the command line
    for argv in (["eval", path], ["scan", "ap", "--p", "101", "--sizes", "1"]):
        for method in ("fast", "naive", "auto"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--method", method])
            assert exc.value.code == 2


def test_eval_subgroup_prints_one(tmp_path, capsys):
    ctx = GroupContext(3, 2)
    path = write_file(tmp_path, "v.txt", ctx, {(t, t): 1.0 for t in range(3)})
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert "wiener_norm 1.000000000000" in out


def test_eval_two_point_value(tmp_path, capsys):
    path = write_file(tmp_path, "f.txt", GroupContext(5), {0: 1.0, 1: 1.0})
    assert main(["eval", path]) == 0
    assert "wiener_norm 1.294427191000" in capsys.readouterr().out


def test_eval_empty_function_warns(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("zpwiener-function 1\np 5 d 1\n")
    assert main(["eval", str(empty)]) == 0
    captured = capsys.readouterr()
    assert "wiener_norm 0.000000000000" in captured.out
    assert "empty support" in captured.err


def test_eval_budget_exit_code(tmp_path):
    path = write_file(tmp_path, "f.txt", GroupContext(101), {0: 1.0})
    assert main(["eval", path, "--budget", "50"]) == 3


def test_verify_suite_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["verify", "banach", "--seed", "7", "--count", "5",
                 "--output", str(out)]) == 0
    records = read_report_file(str(out))
    assert records[0]["record"] == "header"
    checks = [r for r in records if r["record"] == "check"]
    assert len(checks) == 5
    assert all(r["pass"] for r in checks)

    capsys.readouterr()
    assert main(["verify", "bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unknown suite 'bogus'; known: {sorted(CHECKS)} or 'all'\n"


def test_verify_rejects_counts_below_one(capsys):
    for count in ("0", "-5"):
        assert main(["verify", "all", "--count", count]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: count must be >= 1, got {count}\n"


def test_parser_is_reused_without_leaking_options(tmp_path, capsys):
    # main builds its parser once per process; an option given to one call
    # must not reach the next, so each in-process call matches a fresh one
    path = write_file(tmp_path, "f.txt", GroupContext(101), {0: 1.0, 5: 2.0})
    calls = [
        ["eval", path, "--budget", "50"],
        ["eval", path],
        ["verify", "banach", "--count", "3", "--tolerance", "0.5"],
        ["verify", "banach", "--count", "3"],
    ]
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "zpwiener.cli", *argv], capture_output=True, text=True
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [main(argv) for argv in calls] == [3, 0, 0, 0]


def test_verify_all_covers_registry(tmp_path):
    out = tmp_path / "all.jsonl"
    assert main(["verify", "all", "--seed", "1", "--count", "2",
                 "--output", str(out)]) == 0
    names = {r["name"] for r in read_report_file(str(out)) if r["record"] == "check"}
    assert names == set(CHECKS)


def test_verify_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["verify", "all", "--seed", "3", "--count", "3", "--output", str(a)])
    main(["verify", "all", "--seed", "3", "--count", "3", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_stdout_is_pinned(capsys):
    # sha256 of the report recorded before point sets moved to the array form.
    # Byte-identical means per numpy build and per CPU SIMD level: with numpy
    # 2.4.6 restricted to baseline SSE (NPY_DISABLE_CPU_FEATURES="AVX512_SPR
    # AVX512_ICL X86_V4 X86_V3") 14 records differ in their last digit; CI
    # prints both before the tests run
    assert main(["verify", "all", "--seed", "1", "--count", "20"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "44bd8a79e20bef3353679a2ad7171508e93303df321689d5883ce157e595eb22"
    )


def test_reduce_dirichlet(tmp_path, capsys):
    path = write_file(tmp_path, "lam.txt", GroupContext(101), {1: 1.0, 35: 1.0})
    out = tmp_path / "red.jsonl"
    assert main(["reduce", "dirichlet", "--input", path, "--output", str(out)]) == 0
    assert "q 3" in capsys.readouterr().out
    rec = [r for r in read_report_file(str(out)) if r["record"] == "dirichlet"][0]
    assert rec["q"] == 3
    assert rec["support_signed"] == [3, 4]
    assert rec["norm_before"] == pytest.approx(rec["norm_after"], abs=1e-9)


def test_reduce_separating_map(tmp_path, capsys):
    path = write_file(tmp_path, "a.txt", GroupContext(5, 2), {(0, 0): 1.0, (0, 1): 1.0})
    out = tmp_path / "sep.jsonl"
    assert main(["reduce", "separating-map", "--input", path, "--output", str(out)]) == 0
    rec = [r for r in read_report_file(str(out)) if r["record"] == "separating-map"][0]
    assert sorted(rec["first_coords"]) == [0, 1]
    assert rec["norm_before"] == pytest.approx(rec["norm_after"], abs=1e-9)


def test_reduce_separating_map_hypothesis_error(tmp_path):
    ctx = GroupContext(11, 2)
    path = write_file(tmp_path, "big.txt", ctx, {(i, 0): 1.0 for i in range(5)})
    assert main(["reduce", "separating-map", "--input", path]) == 2


def test_reduce_separating_map_past_int64(tmp_path, capsys):
    # the row scan passes code 2^63; the report's Wiener norms then need a
    # dense table of p^4 cells, which the budget refuses with exit code 3
    ctx = GroupContext(1073741789, 4)
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
    path = write_file(tmp_path, "far.txt", ctx, {x: 1.0 for x in pts})
    assert main(["reduce", "separating-map", "--input", path]) == 3
    assert capsys.readouterr().err.endswith("; raise dense_budget with --budget\n")


def test_budget_errors_name_their_knob():
    ctx = GroupContext(101)
    cases = [
        (ToolConfig(dense_budget=100), lambda: GroupContext(101, 2).check_dense_budget(),
         "budget 100 by 10101; raise dense_budget$"),
        (ToolConfig(op_budget=10),
         lambda: t_k_direct(SparseFunction.indicator(ctx, range(20)), 3),
         "work 400 exceeds budget 10 by 390; raise op_budget"),
        (ToolConfig(op_budget=10), lambda: additive_dimension(range(1, 18), ctx),
         "exact dimension search work 18 exceeds budget 10 by 8; raise op_budget"),
        (ToolConfig(op_budget=10),
         lambda: additive_dimension(range(1, 18), ctx, "greedy"),
         "greedy dimension search work 18 exceeds budget 10 by 8; raise op_budget"),
        (ToolConfig(op_budget=4), lambda: find_dirichlet_q([1, 35], ctx),
         r"dilation scan \(the smallest q lies in \[3, 100\]\) work 6 exceeds budget 4 "
         r"by 2; raise op_budget"),
        (DEFAULT_CONFIG, lambda: enumerate_directions(GroupContext(3, 15)),
         "direction list work 107616795 exceeds budget 16777216 by 90839579; raise op_budget"),
        (ToolConfig(op_budget=154),
         lambda: find_balanced_hyperplane([(0, 0, 0)], GroupContext(5, 3)),
         "hyperplane scan work 155 exceeds budget 154 by 1; raise op_budget"),
        (ToolConfig(op_budget=10), lambda: is_dissociated(range(1, 25), ctx),
         "dissociation search work 1062882 exceeds budget 10 by 1062872; raise op_budget"),
    ]
    knobs = {field.name for field in fields(ToolConfig)}
    for config, call, message in cases:
        with using(config), pytest.raises(BudgetError, match=message) as exc:
            call()
        # a message names only a knob a caller can turn, never a constant or
        # a flag, and the error carries that knob for the CLI to name its flag
        assert re.findall(r"raise (\w+)$", str(exc.value)) == [exc.value.knob]
        assert exc.value.knob in knobs
        assert "--" not in str(exc.value)


def test_reduce_line(tmp_path, capsys):
    ctx = GroupContext(5, 3)
    rng = np.random.default_rng(1)
    pts = {x: 1.0 for x in _rand_points(rng, ctx, 100)}  # density 4/5 meets 4/p
    path = write_file(tmp_path, "cube.txt", ctx, pts)
    out = tmp_path / "line.jsonl"
    assert main(["reduce", "line", "--input", path, "--output", str(out)]) == 0
    records = read_report_file(str(out))
    balances = [r for r in records if r["record"] == "balance"]
    assert len(balances) == 2
    assert all(r["theta"] <= 1.0 + 1e-12 for r in balances)
    line = [r for r in records if r["record"] == "line"][0]
    assert line["norm_before"] >= line["norm_after"] - 1e-9


def test_reduce_line_budget(tmp_path, capsys):
    # the full cube has density 1, which meets 4/p from p = 5 on
    ctx = GroupContext(5, 3)
    path = write_file(tmp_path, "cube.txt", ctx, {x: 1.0 for x in ctx.points()})
    assert main(["reduce", "line", "--input", path, "--budget", "124"]) == 3
    assert "budget error" in capsys.readouterr().err
    assert main(["reduce", "line", "--input", path, "--budget", "125"]) == 0


def test_reduce_line_op_budget(tmp_path, capsys):
    # the scan of Z_5^3 makes 31 directions x 5 offsets = 155 (direction, u)
    # pairs, the larger of its two scans
    ctx = GroupContext(5, 3)
    path = write_file(tmp_path, "cube.txt", ctx, {x: 1.0 for x in ctx.points()})
    assert main(["reduce", "line", "--input", path, "--op-budget", "154"]) == 3
    assert "hyperplane scan work 155 exceeds budget 154" in capsys.readouterr().err
    assert main(["reduce", "line", "--input", path, "--op-budget", "155"]) == 0


def test_reduce_line_has_no_density_constant_flag(tmp_path, capsys):
    ctx = GroupContext(3, 3)
    path = write_file(tmp_path, "cube.txt", ctx, {x: 1.0 for x in ctx.points()})
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "line", "--input", path, "--min-density-const", "1.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --min-density-const" in capsys.readouterr().err


def test_reduce_line_refuses_p_3(tmp_path, capsys):
    # density >= 4/p exceeds 1 at p = 3, so not even the full cube meets it
    ctx = GroupContext(3, 3)
    path = write_file(tmp_path, "cube.txt", ctx, {x: 1.0 for x in ctx.points()})
    assert main(["reduce", "line", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "no set of Z_3^d meets the density hypothesis" in err
    assert "needs p >= LINE_DENSITY_CONST" in err


def test_reduce_line_checks_density_by_default(tmp_path, capsys):
    ctx = GroupContext(31, 2)
    path = write_file(tmp_path, "sparse.txt", ctx, {(0, 0): 1.0, (1, 2): 1.0, (5, 7): 1.0})
    assert main(["reduce", "line", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below required 4.0/p" in captured.err


def test_scan_ap_csv(tmp_path, capfdbinary):
    out = tmp_path / "scan.csv"
    assert main(["scan", "ap", "--p", "101", "--sizes", "1,5,10",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,size,structure,wiener_norm,log_size,ratio"
    assert len(lines) == 4
    capfdbinary.readouterr()
    assert main(["scan", "ap", "--p", "101", "--sizes", "1,5,10"]) == 0
    sys.stdout.flush()
    assert capfdbinary.readouterr().out == out.read_bytes()

    assert main(["scan", "ap", "--p", "101", "--sizes", "30"]) == 2  # |A| >= p/2


def test_scan_takes_the_budget(capsys):
    assert main(["scan", "ap", "--p", "101", "--sizes", "1", "--budget", "100"]) == 3
    assert "exceeds budget 100 by 1" in capsys.readouterr().err
    assert main(["scan", "ap", "--p", "101", "--sizes", "1", "--budget", "101"]) == 0


def test_bad_config_values_exit_2(tmp_path, capsys):
    path = write_file(tmp_path, "f.txt", GroupContext(5), {0: 1.0, 1: 1.0})
    cases = [
        (["verify", "banach", "--count", "4", "--tolerance", "nan"],
         "norm_tol must be a finite number >= 0, got nan"),
        (["verify", "banach", "--count", "4", "--tolerance", "inf"],
         "norm_tol must be a finite number >= 0, got inf"),
        (["eval", path, "--budget", "-3"], "dense_budget must be an integer >= 1, got -3"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


def test_scan_random_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["scan", "random", "--p", "101", "--sizes", "5,9", "--seed", "3",
          "--output", str(a)])
    main(["scan", "random", "--p", "101", "--sizes", "5,9", "--seed", "3",
          "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_dim_command(tmp_path, capsys):
    path = write_file(tmp_path, "s.txt", GroupContext(7), {1: 1.0, 2: 1.0, 3: 1.0})
    assert main(["dim", "--input", path, "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert "dim 2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--mode", "exact"],
        ["dim", "--mode", "greedy"],
        ["energy", "--k", "2", "--method", "direct"],
        ["reduce", "dirichlet"],
    ],
)
def test_op_budget_flag_reaches_the_searches(tmp_path, capsys, argv):
    path = write_file(tmp_path, "s.txt", GroupContext(101), {1: 1.0, 2: 1.0, 35: 1.0})
    assert main(argv + ["--input", path, "--op-budget", "1"]) == 3
    assert capsys.readouterr().err.endswith("; raise op_budget with --op-budget\n")
    assert main(argv + ["--input", path, "--op-budget", str(1 << 24)]) == 0
    assert main(argv + ["--input", path, "--op-budget", "0"]) == 2
    assert "op_budget must be an integer >= 1, got 0" in capsys.readouterr().err


def test_dim_answers_forty_points_with_a_raised_op_budget(tmp_path, capsys):
    # 13 unit multiples of the powers of two (2^13 distinct subset sums below
    # p, so dissociated) among 27 random points: the search finds dimension
    # floor(log2 p) = 13 after 28.7M operations, past the default 2^24
    p = 10007
    rng = np.random.default_rng(32)
    unit = int(rng.integers(2, p - 1))
    core = [unit * 2**i % p for i in range(13)]
    rest = rng.choice(np.setdiff1d(np.arange(1, p), core), 27, replace=False).tolist()
    path = write_file(tmp_path, "s.txt", GroupContext(p), {x: 1.0 for x in core + rest})
    assert main(["dim", "--input", path, "--mode", "exact"]) == 3
    assert capsys.readouterr().err == (
        "budget error: exact dimension search work 16785267 exceeds budget 16777216 by 8051; "
        "raise op_budget with --op-budget\n"
    )
    assert main(["dim", "--input", path, "--mode", "exact", "--op-budget", str(1 << 25)]) == 0
    assert capsys.readouterr().out.startswith("dim 13  mode exact\n")


def test_energy_command(tmp_path, capsys):
    path = write_file(tmp_path, "s.txt", GroupContext(5), {0: 1.0, 1: 1.0})
    assert main(["energy", "--input", path, "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "t2_direct 6" in out
    assert "t2_spectral 6" in out


def test_energy_spectral_at_large_k(tmp_path, capsys):
    # |G|^{2k-1} = 10007^79 alone does not fit in a float
    path = write_file(tmp_path, "s.txt", GroupContext(10007), {3: 1.0, 500: 1.0})
    assert main(["energy", "--input", path, "--k", "40", "--method", "spectral"]) == 0
    spectral = float(capsys.readouterr().out.split()[1])
    assert main(["energy", "--input", path, "--k", "40", "--method", "direct"]) == 0
    direct = float(capsys.readouterr().out.split()[1])
    assert direct == pytest.approx(math.comb(80, 40), rel=1e-11)  # printed to 12 digits
    assert spectral == pytest.approx(direct, rel=DEFAULT_CONFIG.energy_tol)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zpwiener.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_eval_spectrum_of_a_sparse_plane_function_is_pinned(tmp_path, monkeypatch, capsys):
    # sha256 of the spectrum report recorded before `dft` transformed only
    # the occupied last-axis lines.  Each occupied line holds v and -v, so its
    # transform nearly cancels at xi_last = 0, and p = 89 is a length whose
    # empty line transforms to signed zeros: a drift in the rounding of either
    # changes the bytes.  Like every pin, byte-identical means per numpy
    # build and per CPU SIMD level (see test_verify_all_stdout_is_pinned).
    ctx = GroupContext(89, 2)
    rng = np.random.default_rng(2024)
    rows = rng.choice(89, size=6, replace=False)
    cols = rng.integers(0, 89, size=6)
    vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    entries = {}
    for x, y, v in zip(rows.tolist(), cols.tolist(), vals):
        entries[(x, y)] = v
        entries[(x, (y + 44) % 89)] = -v
    monkeypatch.chdir(tmp_path)
    write_function_file("f.txt", SparseFunction(ctx, entries))
    assert main(["eval", "f.txt", "--spectrum", "out.jsonl"]) == 0
    assert capsys.readouterr().out.startswith("wiener_norm 3.754163659989\n")
    digest = hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest()
    assert digest == "172213a1527692767ea9e6ba056bffba3a1d951a83ec20cd38633c930a5c2163"


def test_eval_spectrum_streams_its_records(tmp_path, monkeypatch):
    # the report is written as its records are made: the peak stays far below
    # one record dict per coefficient (the spectrum table itself is 16 bytes
    # a coefficient, its magnitudes 8 more); a small chunk keeps the records'
    # source values small next to the table
    ctx = GroupContext(127, 2)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "ARRAY_CHUNK", 1024)
    write_function_file("f.txt", SparseFunction(ctx, {(0, 0): 1.0, (3, 5): 2.0 - 1j}))
    tracemalloc.start()
    try:
        assert main(["eval", "f.txt", "--spectrum", "out.jsonl"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = {"record": "coefficient", "xi": [0, 0], "re": 0.0, "im": 0.0}
    per_record = sys.getsizeof(record) + sys.getsizeof(record["xi"])
    assert peak < ctx.size * per_record // 4
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    assert len(lines) == ctx.size + 1
    assert lines[-1].startswith('{"im":') and '"xi":[126,126]' in lines[-1]


# Each (command, mode), the argv that runs it and the cap flags it reads.
# A mode must offer exactly those: each refuses at 1 with exit code 3 and
# names its field and its flag; any other cap flag is a usage error.
_CAP_FLAGS = {"--budget": "dense_budget", "--op-budget": "op_budget"}
_BOTH = set(_CAP_FLAGS)
_COMMAND_MODES = {
    ("eval", "norm"): (["eval", "{plane}"], {"--budget"}),
    ("eval", "spectrum"): (["eval", "{plane}", "--spectrum", "out.jsonl"], {"--budget"}),
    ("verify", "all"): (["verify", "all", "--count", "1"], set()),
    ("reduce", "line"): (["reduce", "line", "--input", "{square}"], _BOTH),
    ("reduce", "separating-map"): (["reduce", "separating-map", "--input", "{pair}"],
                                   {"--budget"}),
    ("reduce", "dirichlet"): (["reduce", "dirichlet", "--input", "{line}"], _BOTH),
    ("scan", "ap"): (["scan", "ap", "--p", "101", "--sizes", "5"], {"--budget"}),
    ("scan", "random"): (["scan", "random", "--p", "101", "--sizes", "5"], {"--budget"}),
    ("dim", "exact"): (["dim", "--input", "{line}", "--mode", "exact"], {"--op-budget"}),
    ("dim", "greedy"): (["dim", "--input", "{line}", "--mode", "greedy"], {"--op-budget"}),
    ("energy", "direct"): (["energy", "--input", "{line}", "--k", "2", "--method", "direct"],
                           {"--op-budget"}),
    ("energy", "spectral"): (["energy", "--input", "{line}", "--k", "2", "--method",
                              "spectral"], {"--budget"}),
    ("energy", "both"): (["energy", "--input", "{line}", "--k", "2", "--method", "both"], _BOTH),
}


def _subparsers(parser):
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _mode_parsers():
    """(command, mode) -> the parser that reads that mode's flags: a mode's
    own sub-parser, else the command's parser."""
    walked = {}
    for name, sub in _subparsers(build_parser()).choices.items():
        modes = _subparsers(sub)
        if modes is not None:
            walked.update({(name, mode): parser for mode, parser in modes.choices.items()})
            continue
        choices = [a.choices for a in sub._actions if a.choices]
        for mode in choices[0] if choices else [m for c, m in _COMMAND_MODES if c == name]:
            walked[(name, mode)] = sub
    return walked


def test_every_command_reaches_every_cap_it_reads(tmp_path, monkeypatch, capsys):
    assert cli._CAP_FLAGS == _CAP_FLAGS
    assert set(_CAP_FLAGS.values()) <= {field.name for field in fields(ToolConfig)}
    parsers = _mode_parsers()
    # the table covers every command and every choice of its mode
    assert set(parsers) == set(_COMMAND_MODES)
    monkeypatch.chdir(tmp_path)
    inputs = {
        "plane": write_file(tmp_path, "plane.txt", GroupContext(11, 2), {(1, 2): 1.0}),
        "square": write_file(tmp_path, "square.txt", GroupContext(5, 2),
                             {x: 1.0 for x in GroupContext(5, 2).points()}),
        "pair": write_file(tmp_path, "pair.txt", GroupContext(5, 2),
                           {(0, 0): 1.0, (0, 1): 1.0}),
        "line": write_file(tmp_path, "line.txt", GroupContext(101),
                           {1: 1.0, 2: 1.0, 35: 1.0}),
    }
    for (command, mode), (template, reads) in _COMMAND_MODES.items():
        argv = [arg.format(**inputs) for arg in template]
        offered = {f for a in parsers[command, mode]._actions for f in a.option_strings}
        assert reads <= offered, (command, mode)
        for flag, field in _CAP_FLAGS.items():
            if flag in reads:
                assert main(argv + [flag, "1"]) == 3, (argv, flag)
                err = capsys.readouterr().err
                assert f"raise {field} with {flag}\n" in err, (argv, flag, err)
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv + [flag, "1"])
                assert exc.value.code == 2, (argv, flag)
                assert flag in capsys.readouterr().err, (argv, flag)
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_scan_ap_takes_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "ap", "--p", "101", "--sizes", "5", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("zpwiener ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        args = build_parser().parse_args(argv)
        assert callable(args.func), line


def test_os_errors_on_paths_exit_2(tmp_path, capsys):
    # a directory where a file is read or written is the caller's error, not
    # a failed check (exit code 1), and leaves no temporary file behind
    target = tmp_path / "out"
    target.mkdir()
    assert main(["eval", str(target)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
    assert main(["verify", "banach", "--count", "3", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eval_spectrum_of_an_empty_function(tmp_path, monkeypatch, capsys, d):
    # the transform of the zero function: a header and p^d zero coefficients
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.txt").write_text(f"zpwiener-function 1\np 5 d {d}\n")
    assert main(["eval", "empty.txt", "--spectrum", "s.jsonl"]) == 0
    out, err = capsys.readouterr()
    assert out == "wiener_norm 0.000000000000\n"
    assert err == "warning: function has empty support\n"
    records = read_report_file("s.jsonl")
    assert records[0]["record"] == "header"
    assert records[0]["config"] == {"input": "empty.txt"}
    coefficients = records[1:]
    assert [tuple(r["xi"]) for r in coefficients] == list(GroupContext(5, d).points())
    assert all(r["re"] == 0 and r["im"] == 0 for r in coefficients)


@pytest.mark.parametrize("argv", [["verify", "banach", "--count", "1", "--output"],
                                  ["eval", "f.txt", "--spectrum"]])
def test_write_errors_name_the_given_path(tmp_path, monkeypatch, capsys, argv):
    # the error is the one of the temporary file, named by the path asked for
    monkeypatch.chdir(tmp_path)
    write_file(tmp_path, "f.txt", GroupContext(5), {1: 1.0})
    (tmp_path / "out").mkdir()
    for target, errno in ((str(tmp_path / "missing" / "r.jsonl"), 2), ("out", 21)):
        assert main(argv + [target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [Errno {errno}] ") and err.endswith(f": '{target}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "out"]
        assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "argv,label",
    [
        (["eval", "big.txt"], "l2"),  # |1e200|^2
        (["eval", "big.txt", "--spectrum", "s.jsonl"], "l2"),
        (["energy", "--input", "big.txt", "--k", "1"], "t1_direct"),
        (["energy", "--input", "big.txt", "--k", "2"], "t2_direct"),
        (["energy", "--input", "big.txt", "--k", "2", "--method", "spectral"], "t2_spectral"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_overflow_exits_2(tmp_path, monkeypatch, capsys, argv, label):
    monkeypatch.chdir(tmp_path)
    write_file(tmp_path, "big.txt", GroupContext(101), {0: 1e200})
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {label} overflows float64\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.txt"]


@pytest.mark.parametrize(
    "mode,ctx,points",
    [("dirichlet", GroupContext(5), [1, 2]),
     ("separating-map", GroupContext(101, 2), [(0, 0), (0, 1)])],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduce_refuses_norms_that_overflow(tmp_path, monkeypatch, capsys, mode, ctx, points):
    # 2e308 overflows in the transform: inf, or nan once inf - inf is taken
    monkeypatch.chdir(tmp_path)
    write_file(tmp_path, "big.txt", ctx, {x: 1e308 for x in points})
    assert main(["reduce", mode, "--input", "big.txt", "--output", "r.jsonl"]) == 2
    assert capsys.readouterr() == ("", "error: norm_before overflows float64\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.txt"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_reports_refuse_values_that_are_not_json(tmp_path, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    records = [{"record": "check", "lhs": 1.0}, {"record": "check", "lhs": value}]
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report_file("r.jsonl", records)
    assert list(tmp_path.iterdir()) == []  # neither the report nor its temporary
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_records(records)
    with pytest.raises(ValueError, match="not JSON compliant"):
        verify.digest({"p": 5, "entries": [{"x": [1], "re": value, "im": 0.0}]})


def test_arithmetic_bugs_are_not_usage_errors(tmp_path, monkeypatch):
    # main maps an overflow to exit 2, but not every ArithmeticError
    path = write_file(tmp_path, "s.txt", GroupContext(5), {0: 1.0})
    monkeypatch.setitem(cli._ENERGY_METHODS, "direct", (lambda g, k: 1 / 0, "op_budget"))
    with pytest.raises(ZeroDivisionError):
        main(["energy", "--input", path, "--k", "2"])
