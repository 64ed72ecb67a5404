#!/usr/bin/env python3
"""Sweep the empirical-ratio monitors over seeded instances and write a CSV.

These track bounds whose absolute constants are unspecified, so nothing is
asserted: the point is to eyeball how the ratios behave as instances grow.
Sizes may not exceed floor(log2 p), the largest a dissociated set in Z_p can
have, since the Rudin rows need one of each requested size.
"""

import argparse
import csv
import sys

import numpy as np

from zpwiener.energy import _grow_sums, _signed_sum_member
from zpwiener.groups import GroupContext
from zpwiener.verify import monitor, random_instance


def dissociated_instance(seed: int, p: int, size: int) -> dict:
    """Grow a dissociated candidate greedily, up to size points; the walk
    warns on stderr when it stops short."""
    ctx = GroupContext(p)
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    # the chosen set is dissociated, so it stays so with x iff x is not one of
    # its signed sums; those are kept sorted as the set grows
    sums = zero = np.zeros(1, dtype=np.int64)
    for x in rng.permutation(np.arange(1, p)).tolist():
        if len(chosen) == size:
            break
        if not _signed_sum_member(ctx, sums, zero, np.array([x]))[0]:
            chosen.append(x)
            sums = _grow_sums(ctx, sums, np.array([x, p - x]))
    if len(chosen) < size:
        print(
            f"warning: the greedy walk found a dissociated set of {len(chosen)} points "
            f"in Z_{p}, short of the {size} requested (seed {seed})",
            file=sys.stderr,
        )
    return {"p": p, "d": 1, "points": [[x] for x in sorted(chosen)]}


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
        lam = dissociated_instance(seed, args.p, size)
        for k in (2, 3):
            ratio = monitor("rudin", {**lam, "k": k}).ratio
            rows.append((f"rudin-k{k}", len(lam["points"]), ratio))

    handle = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    writer = csv.writer(handle)
    writer.writerow(["monitor", "size", "ratio"])
    for name, size, ratio in rows:
        writer.writerow([name, size, f"{ratio:.8f}"])
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {len(rows)} rows to {args.output}")


if __name__ == "__main__":
    main()
