"""Spans and counters recorded from wrappers the benchmark installs around the
program's public functions, and the per-layer table derived from them.

A layer is one module of zpwiener.  The wrappers cover every public function
a module defines, and the public methods of SparseFunction, Spectrum,
AffineMap, Line and Hyperplane.  Each wrapper replaces the name in the
defining module and in every zpwiener module that imported it, so a call such
as reduction's `wiener_norm` counts to fourier.  GroupContext element
arithmetic, `canonical_abs` and `signed_rep` are too fine to wrap; their cost
lands in the caller's self time.  Nothing is installed unless `install` runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("groups", "fourier", "energy", "reduction", "verify", "fileio", "cli")
CLASSES = {
    "fourier": ("SparseFunction", "Spectrum"),
    "groups": ("AffineMap", "Line", "Hyperplane"),
}
ELEMENT_ARITHMETIC = {"canonical_abs", "signed_rep"}


class Recorder:
    """In-memory spans [name, layer, start, end, parent index] and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, _, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
            handle.write(json.dumps({"counters": self.counters}) + "\n")


# Counters computed from a call's inputs and result: name -> hook(rec, args,
# kwargs, result, seconds).


def _arg(args, kwargs, pos: int, key: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _transform(rec, args, kwargs, result, seconds):
    rec.add("fourier.transform_points", _arg(args, kwargs, 0, "f").ctx.size)


def _inverse_transform(rec, args, kwargs, result, seconds):
    rec.add("fourier.transform_points", _arg(args, kwargs, 0, "spectrum").ctx.size)


def _tk_direct(rec, args, kwargs, result, seconds):
    rec.add("energy.tk_direct_s", seconds)


def _dimension(rec, args, kwargs, result, seconds):
    if _arg(args, kwargs, 2, "mode", "exact") == "exact":
        rec.add("energy.dim_exact_s", seconds)


def _hyperplane(rec, args, kwargs, result, seconds):
    rec.add("reduction.hyperplane_s", seconds)
    if _arg(args, kwargs, 2, "mode", "exhaustive") == "exhaustive":
        ctx = _arg(args, kwargs, 1, "ctx")
        rec.add("reduction.directions", (ctx.p**ctx.d - 1) // (ctx.p - 1))


def _dirichlet(rec, args, kwargs, result, seconds):
    rec.add("reduction.q_scanned", result.q)


def _reports(rec, args, kwargs, result, seconds):
    rec.add("verify.checks", len(result) if isinstance(result, list) else 1)
    rec.add("verify.report_s", seconds)


def _written(rec, args, kwargs, result, seconds):
    rec.add("fileio.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _read(rec, args, kwargs, result, seconds):
    rec.add("fileio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


HOOKS = {
    "fourier.dft": _transform,
    "fourier.inverse_dft": _inverse_transform,
    "energy.t_k_direct": _tk_direct,
    "energy.additive_dimension": _dimension,
    "reduction.find_balanced_hyperplane": _hyperplane,
    "reduction.find_dirichlet_q": _dirichlet,
    "verify.run_suite": _reports,
    "verify.check": _reports,
    "verify.monitor": _reports,
    "fileio.write_function_file": _written,
    "fileio.write_report_file": _written,
    "fileio.write_scan_csv": _written,
    "fileio.read_function_file": _read,
    "fileio.read_report_file": _read,
}


def _wrap(fn, rec: Recorder, layer: str, name: str):
    hook = HOOKS.get(name)
    spans, stack = rec.spans, rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(rec, args, kwargs, result, span[3] - span[2])
        return result

    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every public function and method; returns what `uninstall` restores."""
    undo: list[tuple[object, str, object]] = []
    package = [m for n, m in sys.modules.items() if n == "zpwiener" or n.startswith("zpwiener.")]
    for layer in LAYERS:
        module = sys.modules[f"zpwiener.{layer}"]
        for name, obj in list(vars(module).items()):
            if (
                name.startswith("_")
                or name in ELEMENT_ARITHMETIC
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            wrapped = _wrap(obj, rec, layer, f"{layer}.{name}")
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                qual = f"{layer}.{cls_name}.{name}"
                if isinstance(attr, (classmethod, staticmethod)):
                    new = type(attr)(_wrap(attr.__func__, rec, layer, qual))
                elif inspect.isfunction(attr):
                    new = _wrap(attr, rec, layer, qual)
                else:  # properties and class attributes stay as they are
                    continue
                undo.append((cls, name, attr))
                setattr(cls, name, new)
    return undo


def uninstall(undo) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


def layer_table(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics: calls, self times, counters and rates."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, layer, start, end, parent) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (end - start) - child[i]
    c = rec.counters
    per = 1.0 / passes

    def rate(count_key: str, seconds: float) -> float:
        return c.get(count_key, 0.0) / seconds if seconds > 0 else 0.0

    out = {
        "fourier.calls": calls["fourier"] * per,
        "fourier.self_s": self_s["fourier"] * per,
        "fourier.transform_points": c.get("fourier.transform_points", 0.0) * per,
        "fourier.points_per_s": rate("fourier.transform_points", self_s["fourier"]),
        "energy.calls": calls["energy"] * per,
        "energy.self_s": self_s["energy"] * per,
        "energy.tk_direct_s": c.get("energy.tk_direct_s", 0.0) * per,
        "energy.dim_exact_s": c.get("energy.dim_exact_s", 0.0) * per,
        "reduction.calls": calls["reduction"] * per,
        "reduction.self_s": self_s["reduction"] * per,
        "reduction.hyperplane_s": c.get("reduction.hyperplane_s", 0.0) * per,
        "reduction.directions": c.get("reduction.directions", 0.0) * per,
        "reduction.directions_per_s": rate(
            "reduction.directions", c.get("reduction.hyperplane_s", 0.0)
        ),
        "reduction.q_scanned": c.get("reduction.q_scanned", 0.0) * per,
        "groups.self_s": self_s["groups"] * per,
        "verify.self_s": self_s["verify"] * per,
        "verify.checks": c.get("verify.checks", 0.0) * per,
        "verify.checks_per_s": rate("verify.checks", c.get("verify.report_s", 0.0)),
        "fileio.self_s": self_s["fileio"] * per,
        "fileio.bytes_written": c.get("fileio.bytes_written", 0.0) * per,
        "fileio.bytes_read": c.get("fileio.bytes_read", 0.0) * per,
        "cli.self_s": self_s["cli"] * per,
    }
    return out
