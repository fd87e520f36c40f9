#!/usr/bin/env python3
"""Fixed-seed accuracy trials for one graph family.

Runs the six-pass estimator repeatedly against a generated instance with
known ground truth and prints a per-trial table plus the fraction of trials
whose median lands within the target band. The flags make one `triad bench`
manifest row: trial t seeds the estimator and stream order with --seed + t.

Examples:
    python scripts/accuracy_trials.py --family book --size 998 --scale 0.005
    python scripts/accuracy_trials.py --family wheel --size 1001 \
        --epsilon 0.2 --trials 30 --repetitions 11
"""

import argparse
import sys

from triad.cli import parse_manifest, run_row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("book", "wheel", "lb"), default="book")
    parser.add_argument("--size", type=int, default=998,
                        help="pages / vertices / block count")
    parser.add_argument("--p", type=int, default=4)
    parser.add_argument("--q", type=int, default=4)
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--scale", type=float, default=0.005)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--repetitions", type=int, default=11)
    parser.add_argument("--band", type=float, default=0.25,
                        help="relative error band counted as a success")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    params = {"book": {"k": args.size}, "wheel": {"n": args.size},
              "lb": {"p": args.p, "q": args.q, "N": args.size, "kind": "no"}}[args.family]
    config = {"epsilon": args.epsilon, "repetitions": args.repetitions, "scale": args.scale}
    [row] = parse_manifest([{"family": args.family, "params": params, "config": config,
                             "trials": args.trials, "seed": args.seed}])
    good = 0
    for trial, (truth, _, value, report, _) in enumerate(run_row(row)):
        if trial == 0:  # once the instance is generated
            print(f"{args.family}: n={truth.n} m={truth.m} T={truth.triangles} "
                  f"kappa={truth.kappa}", file=sys.stderr)
            print(f"{'trial':>5} {'estimate':>12} {'rel_err':>8} {'r':>6} {'ell':>6} "
                  f"{'peak':>7}  flags")
        rel = abs(value - truth.triangles) / truth.triangles if truth.triangles else 0.0
        good += rel <= args.band
        notable = [f for f in report.flags
                   if f in ("exact-fallback", "space-abort", "sparse-sample")]
        print(f"{trial:>5} {value:>12.2f} {rel:>8.4f} {report.r:>6} "
              f"{report.ell:>6} {report.stored_edges_peak:>7}  {','.join(notable)}")
    print(f"\nwithin {args.band:.0%}: {good}/{args.trials}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
