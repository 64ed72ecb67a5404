#!/usr/bin/env python3
"""Sweep the empirical-ratio monitors over seeded instances and write a CSV.

These track bounds whose absolute constants are unspecified, so nothing is
asserted: the point is to eyeball how the ratios behave as instances grow.
Sizes may not exceed floor(log2 p), the largest a dissociated set in Z_p can
have, since the Rudin rows need one of each requested size.
"""

import argparse
import sys

from zpwiener.fileio import dump_csv, write_csv
from zpwiener.verify import monitor, random_instance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=1009)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", default="4,6,8")
    parser.add_argument("--output", default="-")
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    ceiling = args.p.bit_length() - 1
    too_big = [s for s in sizes if s > ceiling]
    if too_big:
        parser.error(
            f"sizes {too_big} exceed floor(log2 p) = {ceiling}, the largest "
            f"dissociated set in Z_{args.p}"
        )
    rows = []
    for i, size in enumerate(sizes):
        seed = args.seed * 1000 + i
        uni = random_instance("unimodular-function", seed, p=args.p, size=size)
        rows.append(("dim-bound", size, monitor("dim-bound", uni).ratio))
        rows.append(("log-support", size, monitor("log-support", uni).ratio))
        geq1 = random_instance("indicator", seed, p=args.p, size=size)
        rows.append(("t2-lower", size, monitor("t2-lower", geq1).ratio))
        lam = random_instance("dissociated", seed, p=args.p, size=size)
        if len(lam["points"]) < size:
            print(
                f"warning: the greedy walk found a dissociated set of {len(lam['points'])} "
                f"points in Z_{args.p}, short of the {size} requested (seed {seed})",
                file=sys.stderr,
            )
        for k in (2, 3):
            ratio = monitor("rudin", {**lam, "k": k}).ratio
            rows.append((f"rudin-k{k}", len(lam["points"]), ratio))

    header = ["monitor", "size", "ratio"]
    cells = [[name, size, f"{ratio:.8f}"] for name, size, ratio in rows]
    if args.output == "-":
        sys.stdout.write(dump_csv(header, cells))
        return
    try:
        write_csv(args.output, header, cells)
    except OSError as exc:  # names the path, as zpwiener's file errors do
        parser.exit(2, f"error: {exc}\n")
    print(f"wrote {len(rows)} rows to {args.output}")


if __name__ == "__main__":
    main()
