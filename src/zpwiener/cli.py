"""Command-line surface.

Commands: eval, verify, reduce, scan, dim, energy.
Exit codes: 0 success, 1 check failure, 2 usage, parse or file error, 3 budget error.
All randomness flows from --seed, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from dataclasses import replace

from . import __version__
from .config import ARRAY_CHUNK, DEFAULT_CONFIG, active, using
from .energy import additive_dimension, t_k_direct, t_k_spectral
from .errors import BudgetError, FileFormatError
from .fileio import (
    dump_records,
    dump_scan_csv,
    read_function_file,
    report_header,
    write_report_file,
    write_scan_csv,
)
from .fourier import dft, wiener_norm, wiener_norms
from .reduction import (
    find_balanced_line,
    find_separating_map,
    pushforward,
    rescale_to_short_interval,
    restrict_to_line,
)
from .verify import ap_scan, random_set_scan, run_suite


# each cap flag and the ToolConfig field it sets: the field is the flag's
# dest, the override it makes, and the knob that a budget refusal names
_CAP_FLAGS = {"--budget": "dense_budget", "--op-budget": "op_budget"}


def _add_caps(parser, *fields) -> None:
    for flag, field in _CAP_FLAGS.items():
        if field in fields:
            parser.add_argument(flag, dest=field, type=int,
                                help=f"sets {field} (default {getattr(DEFAULT_CONFIG, field)})")


def _emit(records, output) -> None:
    if output:
        write_report_file(output, records)
    else:
        sys.stdout.write(dump_records(records))


def cmd_eval(args) -> int:
    f = read_function_file(args.input)
    spec = dft(f) if args.spectrum else None  # else only the norm: no complex table
    if not len(f):
        print("warning: function has empty support", file=sys.stderr)
        print("wiener_norm 0.000000000000")
    else:
        print(f"wiener_norm {wiener_norm(f) if spec is None else spec.l1:.12f}")
        print(f"support {f.support_size}  max_abs {f.max_abs:.12g}  l2 {f.l2_norm:.12g}")
    if spec is not None:
        # points() runs in lexicographic order, the C order of the table; the
        # records are made as they are written, from one chunk of it at a time
        table = spec.coefficients.ravel()
        values = itertools.chain.from_iterable(
            table[lo : lo + ARRAY_CHUNK].tolist() for lo in range(0, len(table), ARRAY_CHUNK)
        )
        records = ({"record": "coefficient", "xi": list(xi), "re": c.real, "im": c.imag}
                   for xi, c in zip(f.ctx.points(), values))
        header = report_header(__version__, {"input": args.input})
        write_report_file(args.spectrum, itertools.chain([header], records))
    return 0


def cmd_verify(args) -> int:
    config = active()
    if args.tolerance is not None:
        config = replace(config, norm_tol=args.tolerance, energy_tol=args.tolerance)
    with using(config):
        reports = run_suite(args.suite, seed=args.seed, count=args.count)
    records = [
        report_header(
            __version__,
            {"suite": args.suite, "seed": args.seed, "count": args.count,
             "tolerance": args.tolerance},
        )
    ]
    records.extend(r.as_record() for r in reports)
    _emit(records, args.output)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed", file=sys.stderr)
    return 1 if failed else 0


# Each reduction returns its report records, the last of which gets the two
# Wiener norms, and the function whose norm is norm_after.


def _reduce_line(f):
    result = find_balanced_line(f.support, f.ctx)
    records = [
        {"record": "balance", "eta": list(step.found.eta), "u": step.found.u,
         "count": step.count, "target": step.target, "deviation": step.deviation,
         "bound": step.bound, "theta": step.theta}
        for step in result.steps
    ]
    records.append(
        {"record": "line", "direction": list(result.line.direction),
         "base": list(result.line.base), "count": result.count,
         "base_density": result.base_density, "line_density": result.line_density,
         "composed_bound": result.composed_bound}
    )
    return records, restrict_to_line(f, result.line)


def _reduce_separating_map(f):
    sep = find_separating_map(f.support, f.ctx)
    record = {"record": "separating-map", "matrix": [list(row) for row in sep.map.matrix],
              "row": list(sep.row), "first_coords": list(sep.first_coords)}
    return [record], pushforward(f, sep.map)


def _reduce_dirichlet(f):
    if f.ctx.d != 1:
        raise ValueError("dirichlet mode needs a d = 1 input")
    rescaled = rescale_to_short_interval(f)
    record = {"record": "dirichlet", "q": rescaled.q,
              "max_abs": rescaled.rescaling.max_abs, "bound": rescaled.rescaling.bound,
              "support_signed": list(rescaled.support_signed),
              "within_third": rescaled.within_third}
    return [record], rescaled.function


# each mode's reduction and the caps it reads (every mode's two norms read dense_budget)
_REDUCTIONS = {
    "line": (_reduce_line, ("dense_budget", "op_budget")),
    "separating-map": (_reduce_separating_map, ("dense_budget",)),
    "dirichlet": (_reduce_dirichlet, ("dense_budget", "op_budget")),
}


def cmd_reduce(args) -> int:
    f = read_function_file(args.input)
    records, g = _REDUCTIONS[args.mode][0](f)
    before, after = wiener_norms([f, g])
    records[-1].update(norm_before=before, norm_after=after)
    if args.mode == "dirichlet":
        print(f"q {records[-1]['q']}")
    print(f"norm_before {before:.12f}  norm_after {after:.12f}")
    header = report_header(__version__, {"mode": args.mode, "input": args.input})
    _emit([header] + records, args.output)
    return 0


def cmd_scan(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise ValueError("--sizes must list at least one integer")
    if args.kind == "ap":
        rows = ap_scan(args.p, sizes)
    else:
        rows = random_set_scan(args.p, sizes, seed=args.seed)
    if args.output:
        write_scan_csv(args.output, rows)
    else:
        sys.stdout.write(dump_scan_csv(rows))
    return 0


def cmd_dim(args) -> int:
    f = read_function_file(args.input)
    value, subset = additive_dimension(f.support, f.ctx, mode=args.mode)
    print(f"dim {value}  mode {args.mode}")
    print("subset " + " ".join("(" + ",".join(map(str, x)) + ")" for x in subset))
    return 0


# each T_k method and the cap it reads; --method both runs the two in this order
_ENERGY_METHODS = {"direct": (t_k_direct, "op_budget"), "spectral": (t_k_spectral, "dense_budget")}


def cmd_energy(args) -> int:
    methods = list(_ENERGY_METHODS) if args.method == "both" else [args.method]
    reads = {_ENERGY_METHODS[m][1] for m in methods}
    for flag, field in _CAP_FLAGS.items():
        if getattr(args, field) is not None and field not in reads:
            _parser().error(f"argument {flag}: not read by energy --method {args.method}")
    f = read_function_file(args.input)
    for m in methods:
        print(f"t{args.k}_{m} {_ENERGY_METHODS[m][0](f, args.k):.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpwiener",
        description="Wiener norms, additive energies, and reductions over Z_p^d",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="Wiener norm and spectrum summary of a function file")
    p_eval.add_argument("input")
    p_eval.add_argument("--spectrum", help="write the full spectrum to this report file")
    _add_caps(p_eval, "dense_budget")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a named check suite (or all)")
    p_verify.add_argument("suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=50)
    p_verify.add_argument("--tolerance", type=float, help="sets norm_tol and energy_tol")
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_reduce = sub.add_parser("reduce", help="run a reduction on a function file")
    modes = p_reduce.add_subparsers(dest="mode", required=True)
    for mode, (_, caps) in _REDUCTIONS.items():
        p_mode = modes.add_parser(mode)
        p_mode.add_argument("--input", required=True)
        p_mode.add_argument("--output")
        _add_caps(p_mode, *caps)
    p_reduce.set_defaults(func=cmd_reduce)

    p_scan = sub.add_parser("scan", help="Wiener-norm growth scan to CSV")
    kinds = p_scan.add_subparsers(dest="kind", required=True)
    for kind in ("ap", "random"):
        p_kind = kinds.add_parser(kind)
        p_kind.add_argument("--p", type=int, required=True)
        p_kind.add_argument("--sizes", required=True, help="comma-separated list")
        if kind == "random":
            p_kind.add_argument("--seed", type=int, default=0)
        p_kind.add_argument("--output")
        _add_caps(p_kind, "dense_budget")
    p_scan.set_defaults(func=cmd_scan)

    p_dim = sub.add_parser("dim", help="additive dimension of a file's support")
    p_dim.add_argument("--input", required=True)
    p_dim.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    _add_caps(p_dim, "op_budget")
    p_dim.set_defaults(func=cmd_dim)

    p_energy = sub.add_parser("energy", help="T_k energy of a function file")
    p_energy.add_argument("--input", required=True)
    p_energy.add_argument("--k", type=int, required=True)
    p_energy.add_argument("--method", choices=[*_ENERGY_METHODS, "both"], default="both")
    _add_caps(p_energy, *(cap for _, cap in _ENERGY_METHODS.values()))
    p_energy.set_defaults(func=cmd_energy)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    caps = {k: v for k, v in vars(args).items() if k in _CAP_FLAGS.values() and v is not None}
    try:
        with using(replace(DEFAULT_CONFIG, **caps)):
            return args.func(args)
    except BudgetError as exc:
        # a refusal names the flag that raises its knob, where this mode offers one
        offered = {k: f" with {flag}" for flag, k in _CAP_FLAGS.items() if k in vars(args)}
        print(f"budget error: {exc}{offered.get(exc.knob, '')}", file=sys.stderr)
        return 3
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
