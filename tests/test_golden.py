"""Golden outputs: every command's stdout and report file, hashed.

tests/golden/manifest.json maps each argv to its exit code and to the sha256
of its stdout and of the report file it writes (null when it writes none).
The inputs are seeded function files built in a fresh working directory, so
report headers hold relative paths.  The cases cover every command and
`reduce` mode, `reduce line` at d = 2, 3 and 4, sparse and dense
functions at d = 1, 2 and 3, both of the |fhat| paths (the dense stacks and,
past one slab, the slab path) and the default `scripts/run_monitors.py`.

Float outputs are byte-identical per numpy build and per CPU SIMD level
(numpy picks its kernels at run time), so the manifest records the numpy
version and the SIMD extensions found, and a mismatch names both sides.  A
mismatch on another numpy or SIMD level is an output change too.  An output
that changes on purpose is re-recorded with

    PYTHONPATH=src python tests/test_golden.py

and the change is named in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from zpwiener import cli
from zpwiener.fileio import write_function_file
from zpwiener.fourier import SparseFunction
from zpwiener.groups import GroupContext

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

# each case is an argv; the file after --output or --spectrum is its report
_CASES = [
    "eval line.txt",
    "eval line.txt --spectrum report.jsonl",
    "eval sparse2.txt --spectrum report.jsonl",
    "eval dense2.txt --spectrum report.jsonl",
    "eval sparse3.txt --spectrum report.jsonl",
    "eval dense3.txt --spectrum report.jsonl",
    "eval dense3.txt",
    "eval dense3.txt --budget 1000",
    "verify all --seed 1 --count 5",
    "verify banach --seed 2 --count 3 --output report.jsonl",
    "verify hyperplane-balance --count 4 --tolerance 1e-8 --output report.jsonl",
    "reduce line --input square.txt",
    "reduce line --input cube.txt --output report.jsonl",
    "reduce line --input tess.txt --output report.jsonl",
    "reduce separating-map --input pair2.txt --output report.jsonl",
    "reduce separating-map --input pair3.txt",
    "reduce dirichlet --input line.txt --output report.jsonl",
    "scan ap --p 101 --sizes 1,5,10",
    "scan random --p 101 --sizes 3,7 --seed 4 --output report.csv",
    "dim --input line.txt --mode exact",
    "dim --input line.txt --mode greedy",
    "dim --input sparse2.txt",
    "dim --input sparse3.txt --mode greedy",
    "energy --input line.txt --k 2",
    "energy --input sparse2.txt --k 3",
    "energy --input sparse3.txt --k 2 --method direct",
    "energy --input dense2.txt --k 2 --method spectral",
    "eval slab2.txt",
    "energy --input slab2.txt --k 2 --method spectral",
    "reduce separating-map --input slab2.txt",
]


def _write_inputs() -> None:
    """The seeded function files the cases read, in the working directory."""
    rng = np.random.default_rng(2020)

    def points(ctx, n):
        codes = rng.choice(ctx.size, size=n, replace=False)
        return [tuple(int(c) for c in np.unravel_index(code, (ctx.p,) * ctx.d))
                for code in codes]

    def write(name, ctx, n, complex_values=True):
        pts = points(ctx, n)
        if complex_values:
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            vals = np.ones(n)
        write_function_file(name, SparseFunction(ctx, dict(zip(pts, vals.tolist()))))

    write("line.txt", GroupContext(1009), 12)
    # tables of one slab or less: sparse or dense, |fhat| comes from the stacks
    write("sparse2.txt", GroupContext(31, 2), 6)
    write("dense2.txt", GroupContext(31, 2), 40)
    write("sparse3.txt", GroupContext(11, 3), 20)
    write("dense3.txt", GroupContext(11, 3), 200)
    # the line search needs density >= 4/p
    write("square.txt", GroupContext(11, 2), 60, complex_values=False)
    write("cube.txt", GroupContext(7, 3), 250, complex_values=False)
    write("tess.txt", GroupContext(5, 4), 550, complex_values=False)
    # the row scan needs |A|^2 < 2p
    write("pair2.txt", GroupContext(101, 2), 5)
    write("pair3.txt", GroupContext(31, 3), 3)
    # |fhat| of a table larger than one slab whose points fill fewer than
    # half its last-axis lines (2 |supp| < p^(d-1)) takes the slab path
    write("slab2.txt", GroupContext(263, 2), 6)


def _sha(data) -> str:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _run(case: str) -> dict:
    """cli.main on one case in the working directory, hashed."""
    argv = case.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report = None
    for flag in ("--output", "--spectrum"):
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            report = path.read_bytes()
            path.unlink()
    return {"exit": code, "stdout": _sha(out.getvalue().encode()), "report": _sha(report)}


def _outputs() -> dict:
    """Every case's hashes, run in the working directory."""
    from test_scripts import run_script

    _write_inputs()
    outputs = {case: _run(case) for case in _CASES}
    monitors = run_script("run_monitors.py").stdout
    outputs["scripts/run_monitors.py"] = {
        "exit": 0, "stdout": _sha(monitors.encode()), "report": None,
    }
    return outputs


def _environment() -> dict:
    """The numpy version and the SIMD extensions `numpy.show_runtime()` finds."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    except ImportError:  # numpy moved its private module
        found = None
    return {"numpy": np.__version__, "simd_extensions": found}


def test_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    monkeypatch.chdir(tmp_path)
    outputs = _outputs()
    expected = manifest["outputs"]
    changed = sorted(set(outputs) ^ set(expected)
                     | {case for case in outputs if outputs[case] != expected.get(case)})
    env = _environment()
    assert not changed, (
        f"{len(changed)} outputs differ from {MANIFEST.name}: {changed}.  Recorded on "
        f"numpy {manifest['numpy']}, SIMD extensions {manifest['simd_extensions']}; "
        f"run on numpy {env['numpy']}, SIMD extensions {env['simd_extensions']}"
    )


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    with tempfile.TemporaryDirectory() as workdir:
        home = os.getcwd()
        os.chdir(workdir)
        try:
            manifest = {**_environment(), "outputs": _outputs()}
        finally:
            os.chdir(home)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['outputs'])} outputs to {MANIFEST}")
