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

from obsmap.harness import STRATEGIES, SweepConfig, run_sweep
from obsmap.observation import sequential_sum

FEATURES = ("nope", "spectral", "distance", "full")  # in printed order


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
    # One sweep over every feature and strategy solves each graph once.
    cfg = SweepConfig(
        n_list=n_list, k_list=(4,), m_list=(2,), eta_list=("0.5",), trials=trials,
        feature_list=FEATURES, anchor_strategy_list=STRATEGIES, seed=args.seed)
    records = run_sweep(cfg, jobs=args.jobs).records

    def mean_error(feature: str, strategy: str) -> float:
        errors = [rec.error for rec in records if rec.failure is None
                  and (rec.feature, rec.anchor_strategy) == (feature, strategy)]
        return sequential_sum(errors) / len(errors)

    print("feature ablation (mean error, lower is better):")
    for feature in FEATURES:
        print(f"  {feature:>9} {mean_error(feature, 'random'):.4f}")
    print("anchor strategies (combined features):")
    for strategy in STRATEGIES:
        print(f"  {strategy:>9} {mean_error('full', strategy):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
