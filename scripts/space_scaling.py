#!/usr/bin/env python3
"""Peak-storage scaling across book sizes.

The sampled working set should track m * kappa / T up to the logarithmic
factor, so the normalized ratio peak * T / (m * kappa) ought to stay within
a small band as the instance grows. Prints one row per size plus the
max/min spread. Each size is a one-trial `triad bench` manifest row.

Example:
    python scripts/space_scaling.py --sizes 250 500 1000 2000 --scale 0.004
"""

import argparse

from triad.cli import parse_manifest, run_row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[250, 500, 1000, 2000])
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--scale", type=float, default=0.004)
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    config = {"epsilon": args.epsilon, "repetitions": args.repetitions, "scale": args.scale}
    rows = parse_manifest([{"family": "book", "params": {"k": k}, "seed": args.seed,
                            "config": config} for k in args.sizes])

    print(f"{'k':>6} {'m':>7} {'T':>7} {'r':>6} {'ell':>6} {'peak':>8} "
          f"{'peak*T/(m*kappa)':>18}  flags")
    ratios = []
    for row in rows:
        [(truth, _, _, report, _)] = run_row(row)
        ratio = report.stored_edges_peak * truth.triangles / (truth.m * truth.kappa)
        notable = [f for f in report.flags if f in ("exact-fallback", "space-abort")]
        if not notable:
            ratios.append(ratio)
        print(f"{row.params['k']:>6} {truth.m:>7} {truth.triangles:>7} {report.r:>6} "
              f"{report.ell:>6} {report.stored_edges_peak:>8} {ratio:>18.1f}  "
              f"{','.join(notable)}")
    if len(ratios) >= 2:
        print(f"\nspread over clean runs: {max(ratios) / min(ratios):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
