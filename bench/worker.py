"""One workload in one fresh interpreter; started by run.py, never directly.

Modes:
  run    generate inputs, write input files and make one warm-up pass (the
         set-up), then timed passes for about --seconds; print the
         set-up time, every job's time in every pass and the peak RSS
  trace  the same set-up, then pairs of passes for about --seconds: an
         untraced pass and a pass with the tracing wrappers installed; print
         the per-layer table

The last line of stdout is one JSON object.  run.py sets the thread pools,
the allocator, PYTHONHASHSEED and PYTHONPATH before this interpreter starts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

START_WALL = float(os.environ.get("BENCH_T0", time.time()))

import numpy as np  # noqa: E402  (the imports are part of set-up time)

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports zpwiener)

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
MIN_PASSES = 1


def run_job(job):
    """Time one call; the summary is taken outside the timed interval."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - start
        return elapsed, ("error", f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return elapsed, ("ok", job.summarize(result))


def run_pass(jobs, outputs) -> list[float]:
    times = []
    for job in jobs:
        elapsed, summary = run_job(job)
        times.append(elapsed)
        outputs[job.name].append(summary)
    return times


def timed_passes(jobs, outputs, seconds: float, rec=None):
    """Whole passes, at least MIN_PASSES, while the next one is expected to
    end no more than half a pass after `seconds`, so that on average the
    passes take `seconds`.

    Returns (plain, traced) lists of per-job times.  Given a recorder, each
    plain pass is followed by a traced pass on the same core, so the two see
    the same machine.  Pass i is pinned to the i-th allowed core, round robin:
    on a shared host one core can run 30-40 % slow for tens of seconds while
    the other does not, and alternating keeps such a spell from covering
    every repetition.
    """
    cores = sorted(os.sched_getaffinity(0))
    plain, traced = [], []
    start = last = time.perf_counter()
    round_s = 0.0
    try:
        while len(plain) < MIN_PASSES or last - start + round_s / 2 <= seconds:
            os.sched_setaffinity(0, {cores[len(plain) % len(cores)]})
            plain.append(run_pass(jobs, outputs))
            if rec is not None:
                undo = tracing.install(rec)
                try:
                    traced.append(run_pass(jobs, outputs))
                finally:
                    tracing.uninstall(undo)
            now = time.perf_counter()
            round_s, last = now - last, now
    finally:
        os.sched_setaffinity(0, cores)
    return plain, traced


def median_pass(passes) -> float:
    return statistics.median(map(sum, passes))


def check_outputs(jobs, outputs) -> tuple[int, int, int, list[str]]:
    """Counts (attempted, raised, wrong): a call that raised or whose output
    fails its check is a failed operation; `wrong` counts only the latter."""
    attempted = raised = wrong = 0
    messages = []
    for job in jobs:
        first = outputs[job.name][0]
        checked: list[tuple[object, str | None]] = []  # repetitions mostly agree
        for status, summary in outputs[job.name]:
            attempted += 1
            if status != "ok":
                raised += 1
                msg = summary
            else:
                msg = next((m for s, m in checked if s == summary), ...)  # ... = unseen
                if msg is ...:
                    try:
                        msg = job.check(summary)
                    except Exception as exc:  # a malformed output fails its check
                        msg = f"check raised {type(exc).__name__}: {exc}"
                    checked.append((summary, msg))
                if msg is None and job.identical and (status, summary) != first:
                    msg = "output differs from the first repetition"
                wrong += msg is not None
            if msg is not None and len(messages) < 20:
                messages.append(f"{job.name}: {msg}")
    return attempted, raised, wrong, messages


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "memory": {
            k: os.environ.get(k)
            for k in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "NUMPY_MADVISE_HUGEPAGE")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    args = parser.parse_args()

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        outputs = {job.name: [] for job in jobs}
        run_pass(jobs, outputs)  # warm-up, on whichever core the kernel picks
        setup_s = time.time() - START_WALL
        if args.mode == "run":
            passes, _ = timed_passes(jobs, outputs, args.seconds)
            extra = {
                "setup_s": setup_s,
                "pass_job_s": passes,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            rec = tracing.Recorder()
            plain, traced = timed_passes(jobs, outputs, args.seconds, rec)
            metrics = tracing.layer_table(rec, len(traced))
            metrics["trace.overhead_s"] = median_pass(traced) - median_pass(plain)
            spans = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl")
            rec.write(spans)
            extra = {"metrics": metrics, "passes": len(traced), "spans": len(rec.spans),
                     "spans_file": os.path.relpath(spans)}

        attempted, raised, wrong, messages = check_outputs(jobs, outputs)
        for msg in messages:
            print(f"FAILED {msg}", file=sys.stderr)
        print(json.dumps({
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": raised + wrong,
            "job_names": [job.name for job in jobs],
            "environment": environment(),
            **extra,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
