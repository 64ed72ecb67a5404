"""The scripts under scripts/ run against the library and print what they say."""

import csv
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, returncode=0):
    """The finished process; its exit code must be returncode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_run_monitors_writes_one_row_per_monitor_and_size():
    out = run_script("run_monitors.py", "--p", "101", "--sizes", "4,6").stdout
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["monitor", "size", "ratio"]
    names = ["dim-bound", "log-support", "t2-lower", "rudin-k2", "rudin-k3"]
    assert [row[0] for row in rows[1:]] == names * 2
    assert [int(row[1]) for row in rows[1:4] + rows[6:9]] == [4] * 3 + [6] * 3
    assert all(float(row[2]) > 0 for row in rows[1:])


def test_run_monitors_defaults_reach_every_requested_size():
    proc = run_script("run_monitors.py")  # p = 1009, so sizes up to 9
    assert proc.stderr == ""
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert [int(row[1]) for row in rows] == [s for s in (4, 6, 8) for _ in range(5)]


def test_run_monitors_default_csv_is_pinned():
    # sha256 of the default CSV (its \r\n line ends read as \n) recorded when
    # each candidate was tested with is_dissociated on the whole grown set;
    # byte-identical means on one numpy build and one CPU SIMD level (README)
    out = run_script("run_monitors.py").stdout
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4c0921a7ef2aa9aebdee8c9a098620e40ffe3ef380309e26ea99a8cc0e157868"
    )


def test_run_monitors_rejects_sizes_past_log2_p():
    proc = run_script("run_monitors.py", "--p", "101", "--sizes", "4,7", returncode=2)
    assert proc.stdout == ""
    assert "sizes [7] exceed floor(log2 p) = 6" in proc.stderr


def test_run_monitors_warns_when_the_walk_stops_short():
    proc = run_script("run_monitors.py", "--sizes", "9")
    assert proc.stderr == (
        "warning: the greedy walk found a dissociated set of 8 points in Z_1009, "
        "short of the 9 requested (seed 0)\n"
    )
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert [(row[0], int(row[1])) for row in rows[3:]] == [("rudin-k2", 8), ("rudin-k3", 8)]



def test_run_monitors_output_file_is_the_stdout_table(tmp_path):
    out = tmp_path / "monitors.csv"
    proc = run_script("run_monitors.py", "--p", "101", "--sizes", "4", "--output", str(out))
    assert proc.stdout == f"wrote 5 rows to {out}\n"
    table = run_script("run_monitors.py", "--p", "101", "--sizes", "4").stdout
    assert out.read_bytes() == table.encode()  # \n line ends, as fileio writes every CSV
    assert [p.name for p in tmp_path.iterdir()] == ["monitors.csv"]


def test_run_monitors_names_an_unwritable_output(tmp_path):
    target = str(tmp_path / "missing" / "x.csv")
    args = ("--p", "101", "--sizes", "4", "--output", target)
    proc = run_script("run_monitors.py", *args, returncode=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and target in proc.stderr
    assert len(proc.stderr.splitlines()) == 1

def test_calibrate_ap_band_prints_sizes_range_and_band():
    lines = run_script("calibrate_ap_band.py", "--p", "101", "--ns", "1,2,5").stdout.splitlines()
    assert lines[0] == "p = 101 (quadratic oracle)"
    row = re.compile(r"  size +(\d+)  norm +[\d.]+  ratio [\d.]+")
    sizes = [int(row.fullmatch(line).group(1)) for line in lines[1:4]]
    assert sizes == [3, 5, 11]
    observed = re.fullmatch(r"observed ratio range: \[([\d.]+), ([\d.]+)\]", lines[4])
    lo, hi = float(observed.group(1)), float(observed.group(2))
    assert 0 < lo <= hi
    band = re.fullmatch(r"suggested band \(\+-20%\): \[([\d.]+), ([\d.]+)\]", lines[5])
    assert float(band.group(1)) < lo and float(band.group(2)) > hi
    assert len(lines) == 6
