#!/usr/bin/env python3
"""Bucketwise refinement diagnostics across three quantization regimes.

Runs (k, m, eta) = (2, 1, 2.0), (2, 2, 1.0), (2, 5, 0.3) on 2000-vertex
cubic graphs. Graph instances and anchor draws are shared across regimes,
so the distance buckets are identical row to row and only the spectral
codes change. Reduced default: 5 graphs x 5 resamples; --full runs the
20 x 10 protocol.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from obsmap.harness import SweepConfig, run_sweep, write_records_csv

REGIMES = (("high", 1, "2.0"), ("mid", 2, "1.0"), ("low", 5, "0.3"))

COLUMNS = (
    ("error", "error"),
    ("weighted_collision", "wcoll"),
    ("median_code_ratio", "med_ratio"),
    ("q90_balance", "q90_bal"),
    ("singleton_bucket_frac", "singleton"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="20 graphs x 10 resamples")
    ap.add_argument("--out", help="optional CSV of all trial rows")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=None)
    args = ap.parse_args()

    trials, resamples = (20, 10) if args.full else (5, 5)
    header = f"{'regime':>7} {'m':>2} {'eta':>4}"
    header += "".join(f" {label:>10}" for _, label in COLUMNS)
    print(header)
    cfg = SweepConfig(
        n_list=(2000,), k_list=(2,), m_list=tuple(m for _, m, _ in REGIMES),
        eta_list=tuple(eta for _, _, eta in REGIMES),
        trials=trials, anchor_resamples=resamples, seed=args.seed)
    # One sweep solves each graph once; only the three regime cells of its
    # m x eta grid are reported.
    result = run_sweep(cfg, jobs=args.jobs)
    first = next(cfg.points())
    for name, m, eta in REGIMES:
        agg = result.aggregates[dataclasses.replace(first, m=m, eta=eta).grid_key()]
        line = f"{name:>7} {m:>2} {eta:>4}"
        for metric, _ in COLUMNS:
            line += f" {agg.means[metric]:>10.4g}"
        print(line)
        print(f"{name}: {agg.count} rows", file=sys.stderr)

    if args.out:
        regimes = {(m, eta) for _, m, eta in REGIMES}
        rows = [rec for rec in result.records if (rec.m, rec.eta) in regimes]
        write_records_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
