#!/usr/bin/env python3
"""Feature and anchor-strategy ablation.

Compares the four observation variants (none, spectral only, distance
only, combined) and the three anchor-selection strategies at a fixed
mid-transition configuration k=4, m=2, eta=0.5 where the channels are
individually informative but only their combination approaches
injectivity.
"""

from __future__ import annotations

import argparse
import sys

from obsmap.harness import SweepConfig, run_sweep
from obsmap.observation import sequential_sum

FEATURES = ("nope", "spectral", "distance", "full")
STRATEGIES = ("random", "degree", "farthest")


def mean_error(n_list, trials, seed, jobs, feature, strategy):
    cfg = SweepConfig(
        n_list=n_list, k_list=(4,), m_list=(2,), eta_list=("0.5",),
        feature=feature, anchor_strategy=strategy, trials=trials, seed=seed)
    result = run_sweep(cfg, jobs=jobs)
    errors = [rec.error for rec in result.records if rec.failure is None]
    return sequential_sum(errors) / len(errors)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="n up to 2000 with 20 trials")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=None)
    args = ap.parse_args()

    n_list = (500, 1000, 2000) if args.full else (500, 1000)
    trials = 20 if args.full else 5
    print(f"n in {n_list}, {trials} trials, k=4 m=2 eta=0.5", file=sys.stderr)

    print("feature ablation (mean error, lower is better):")
    for feature in FEATURES:
        err = mean_error(n_list, trials, args.seed, args.jobs, feature, "random")
        print(f"  {feature:>9} {err:.4f}")

    print("anchor strategies (combined features):")
    for strategy in STRATEGIES:
        err = mean_error(n_list, trials, args.seed, args.jobs, "full", strategy)
        print(f"  {strategy:>9} {err:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
