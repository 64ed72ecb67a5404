"""Command-line surface.

Commands: eval, verify, reduce, scan, dim, energy.
Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 budget error.
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
from .config import ARRAY_CHUNK, DEFAULT_CONFIG, ToolConfig, using
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


def _config_from(args) -> ToolConfig:
    overrides = {}
    if getattr(args, "budget", None) is not None:
        overrides["dense_budget"] = args.budget
    if getattr(args, "op_budget", None) is not None:
        overrides["op_budget"] = args.op_budget
    if getattr(args, "tolerance", None) is not None:
        overrides["norm_tol"] = args.tolerance
        overrides["energy_tol"] = args.tolerance
    return replace(DEFAULT_CONFIG, **overrides)


def _emit(records, output) -> None:
    if output:
        write_report_file(output, records)
    else:
        sys.stdout.write(dump_records(records))


def cmd_eval(args) -> int:
    f = read_function_file(args.input)
    if not len(f):
        print("warning: function has empty support", file=sys.stderr)
        print("wiener_norm 0.000000000000")
        return 0
    spec = dft(f) if args.spectrum else None  # else only the norm: no complex table
    print(f"wiener_norm {wiener_norm(f) if spec is None else spec.l1:.12f}")
    print(f"support {f.support_size}  max_abs {f.max_abs:.12g}  l2 {f.l2_norm:.12g}")
    if args.spectrum:
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


_REDUCTIONS = {
    "line": _reduce_line,
    "separating-map": _reduce_separating_map,
    "dirichlet": _reduce_dirichlet,
}


def cmd_reduce(args) -> int:
    f = read_function_file(args.input)
    records, g = _REDUCTIONS[args.mode](f)
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
        print("error: --sizes must list at least one integer", file=sys.stderr)
        return 2
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


def cmd_energy(args) -> int:
    f = read_function_file(args.input)
    if args.method in ("direct", "both"):
        print(f"t{args.k}_direct {t_k_direct(f, args.k):.12g}")
    if args.method in ("spectral", "both"):
        print(f"t{args.k}_spectral {t_k_spectral(f, args.k):.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpwiener",
        description="Wiener norms, additive energies, and reductions over Z_p^d",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the commands that build dense tables share one --budget
    dense = argparse.ArgumentParser(add_help=False)
    dense.add_argument("--budget", type=int,
                       help="max p^d for dense tables (dense_budget): transforms, "
                            "Wiener norms, energy --method spectral or both, "
                            "reduce line's hyperplane scans")
    # the commands that run a search or a T_k convolution share one --op-budget
    ops = argparse.ArgumentParser(add_help=False)
    ops.add_argument("--op-budget", type=int,
                     help="max work in element operations (op_budget): dim's search, "
                          "energy --method direct or both, reduce line's hyperplane "
                          "scans (directions x p), reduce dirichlet's core and dilation scan")

    p_eval = sub.add_parser("eval", parents=[dense],
                            help="Wiener norm and spectrum summary of a function file")
    p_eval.add_argument("input")
    p_eval.add_argument("--spectrum", help="write the full spectrum to this report file")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a named check suite (or all)")
    p_verify.add_argument("suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=50)
    p_verify.add_argument("--tolerance", type=float)
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_reduce = sub.add_parser("reduce", parents=[dense, ops],
                              help="run a reduction on a function file")
    p_reduce.add_argument("mode", choices=list(_REDUCTIONS))
    p_reduce.add_argument("--input", required=True)
    p_reduce.add_argument("--output")
    p_reduce.set_defaults(func=cmd_reduce)

    p_scan = sub.add_parser("scan", parents=[dense], help="Wiener-norm growth scan to CSV")
    p_scan.add_argument("kind", choices=["ap", "random"])
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--sizes", required=True, help="comma-separated list")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--output")
    p_scan.set_defaults(func=cmd_scan)

    p_dim = sub.add_parser("dim", parents=[ops], help="additive dimension of a file's support")
    p_dim.add_argument("--input", required=True)
    p_dim.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p_dim.set_defaults(func=cmd_dim)

    p_energy = sub.add_parser("energy", parents=[dense, ops],
                              help="T_k energy of a function file")
    p_energy.add_argument("--input", required=True)
    p_energy.add_argument("--k", type=int, required=True)
    p_energy.add_argument("--method", choices=["direct", "spectral", "both"], default="both")
    p_energy.set_defaults(func=cmd_energy)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with using(_config_from(args)):
            return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (FileFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
