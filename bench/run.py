"""zpwiener benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 bench/run.py [--workload spectral|search|harness|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload runs in fresh interpreters started here, with the OpenBLAS and
OpenMP pools at one thread, the allocator settings below and PYTHONHASHSEED
fixed before numpy loads.  With --trace 0, INTERPRETERS interpreters run one
after another; each sets up (imports, inputs, input files, one warm-up pass)
and then makes timed passes for about S / INTERPRETERS seconds.
setup_s is the median of their set-up times, and the timing metrics are
medians over every timed pass of the three.
With --trace 1 one interpreter reports the per-layer table of a traced run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (for --workload all, metric names carry the workload as a
prefix).  Full results, with the environment, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("spectral", "search", "harness")
INTERPRETERS = 3
DEADLINE_S = 170  # each workload ends, children included, within this

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "pass_p50_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {"calls": "count", "transform_points": "count", "directions": "count",
                   "q_scanned": "count", "checks": "count", "bytes_written": "bytes",
                   "bytes_read": "bytes"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    tail = name.split(".", 1)[1]
    if tail.endswith("_per_s"):
        return "1/s"
    return PER_LAYER_UNITS.get(tail, "s")


def child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its last JSON line."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # glibc malloc keeps freed blocks instead of returning them to the
        # kernel, so a repeated large transform does not fault in fresh pages
        # on every call; that cost varies with machine-wide memory pressure
        MALLOC_MMAP_THRESHOLD_=str(1 << 30),
        MALLOC_TRIM_THRESHOLD_=str(1 << 32),
        # numpy asks for transparent huge pages on large arrays, and whether
        # the kernel grants them depends on what ran before: with the advice
        # the d = 3, p = 101 transform ran a median 17 % slower in the first
        # of three interpreters than in the other two, without it 4 %
        NUMPY_MADVISE_HUGEPAGE="0",
        PYTHONPATH=SRC,
        BENCH_T0=repr(time.time()),
    )
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], list[float]]:
    """End-to-end metrics from the pooled timed passes of several interpreters,
    and each job's median repetition.

    Medians, not minima: on a shared host a job's fastest time depends on how
    many passes happened to meet a quiet moment, and read about twice as
    far apart between runs as the medians did (README, "Noise control").
    """
    passes = [p for run in runs for p in run["pass_job_s"]]
    typical = [statistics.median(col) for col in zip(*passes)]
    metrics = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "jobs_per_s": len(typical) * len(passes) / sum(map(sum, passes)),
        "pass_p50_s": statistics.median(map(sum, passes)),
        "job_p50_s": statistics.median(typical),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    return metrics, typical


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        result = child(workload, seed, seconds, "trace", deadline)
        result["jobs"] = len(result.pop("job_names"))
    else:
        runs = [child(workload, seed, seconds / INTERPRETERS, "run", deadline)
                for _ in range(INTERPRETERS)]
        metrics, typical = end_to_end(runs)
        result = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
            "environment": runs[0]["environment"],
            "jobs": len(typical),
            "passes": sum(len(run["pass_job_s"]) for run in runs),
            "setup_runs_s": [run["setup_s"] for run in runs],
            "job_names": runs[0]["job_names"],
            "job_p50_s": typical,
            "pass_job_s": [run["pass_job_s"] for run in runs],
        }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "zpwiener", "__init__.py")):
        print(f"error: no zpwiener package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   time.monotonic() + DEADLINE_S)
                   for w in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = next(iter(results.values()))["environment"]
    print(f"# numpy {env['numpy']}  python {env['python']}  cores {env['cores']}  "
          f"threads {env['threads']}  PYTHONHASHSEED {env['pythonhashseed']}")
    for workload, result in results.items():
        print(f"# {workload}: seed {args.seed}  jobs {result['jobs']}  passes {result['passes']}"
              f"  attempted {result['attempted']}  failed {result['failed']}")
        for name, value in result["metrics"].items():
            print(f"{workload:9s} {name:28s} {value:16.6f} {unit_of(name)}")

    def metric(name, value):
        return {"value": value, "unit": unit_of(name)}

    if len(results) == 1:
        metrics = {n: metric(n, v) for n, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}.{n}": metric(n, v) for w, r in results.items()
                   for n, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
