#!/usr/bin/env python3
"""Fixed-seed accuracy trials for one graph family.

Runs the six-pass estimator repeatedly against a generated instance with
known ground truth and prints a per-trial table plus the fraction of trials
whose median lands within the target band. The flags make one `triad bench`
manifest row: trial t seeds the estimator and stream order with --seed + t.

Each family has its own default --size and --scale: book(998) and
wheel(1001) at scale 0.005, and the lower-bound NO gadget with p = q = 40
and N = 150 blocks (m = 161,600, T = 64,000) at scale 0.0005, where it
samples rather than falling back to the exact count. A --size the
generator refuses (an lb block count that is not a positive multiple of 3)
exits 2 with one line.

Examples:
    python scripts/accuracy_trials.py --family book --size 998 --scale 0.005
    python scripts/accuracy_trials.py --family wheel --size 1001 \
        --epsilon 0.2 --trials 30 --repetitions 11
    python scripts/accuracy_trials.py --family lb --trials 5
"""

import argparse
import sys

from triad.cli import parse_manifest, run_row
from triad.errors import InputError

# per family: the default --size (pages, vertices or blocks) and --scale
DEFAULTS = {"book": (998, 0.005), "wheel": (1001, 0.005), "lb": (150, 0.0005)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=("book", "wheel", "lb"), default="book")
    parser.add_argument("--size", type=int,
                        help="pages / vertices / block count (default: per family)")
    parser.add_argument("--p", type=int, default=40)
    parser.add_argument("--q", type=int, default=40)
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--scale", type=float, help="(default: per family)")
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--repetitions", type=int, default=11)
    parser.add_argument("--band", type=float, default=0.25,
                        help="relative error band counted as a success")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    size, scale = DEFAULTS[args.family]
    args.size = size if args.size is None else args.size
    args.scale = scale if args.scale is None else args.scale

    params = {"book": {"k": args.size}, "wheel": {"n": args.size},
              "lb": {"p": args.p, "q": args.q, "N": args.size, "kind": "no"}}[args.family]
    config = {"epsilon": args.epsilon, "repetitions": args.repetitions, "scale": args.scale}
    try:
        [row] = parse_manifest([{"family": args.family, "params": params, "config": config,
                                 "trials": args.trials, "seed": args.seed}])
        good = _print_trials(row, args)
    except InputError as exc:  # ConfigError included
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(f"\nwithin {args.band:.0%}: {good}/{args.trials}")
    return 0


def _print_trials(row, args) -> int:
    """Print one table line per trial; the count within the band."""
    good = 0
    for trial, (truth, _, value, report, _) in enumerate(run_row(row)):
        if trial == 0:  # once the instance is generated
            print(f"{args.family}: n={truth.n} m={truth.m} T={truth.triangles} "
                  f"kappa={truth.kappa}", file=sys.stderr)
            print(f"{'trial':>5} {'estimate':>12} {'rel_err':>8} {'r':>6} {'ell':>6} "
                  f"{'peak':>7}  flags")
        rel = abs(value - truth.triangles) / truth.triangles if truth.triangles else 0.0
        good += rel <= args.band
        notable = [f for f in report.flags if f in ("exact-fallback", "space-abort")]
        print(f"{trial:>5} {value:>12.2f} {rel:>8.4f} {report.r:>6} "
              f"{report.ell:>6} {report.stored_edges_peak:>7}  {','.join(notable)}")
    return good


if __name__ == "__main__":
    raise SystemExit(main())
