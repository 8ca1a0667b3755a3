"""Command-line entry point.

Subcommands map thinly onto library operations: gen-regular and
graph-stats onto the graph module, analyze and diagnose-buckets onto the
instance pipeline, sweep and kemp onto the harness. Human-readable output
goes to stdout, progress to stderr, data only through --out/--csv.

Exit codes: 0 success, 2 parameter error, 1 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from .graphs import (
    ConnectivityError,
    EdgeListParseError,
    Graph,
    from_edge_list,
    largest_connected_component,
    random_regular,
    serialize_edge_list,
    structural_stats,
    write_edge_list,
)
from .harness import (
    DEFAULT_THRESHOLD,
    FEATURES,
    QUANTIZERS,
    STRATEGIES,
    ConfigPoint,
    SweepConfig,
    _aggregate,
    _GraphCodes,
    _parse_bool,
    analyze_records,
    kemp_table,
    parse_sweep_config,
    read_csv_rows,
    run_sweep,
    write_csv,
    write_records_csv,
)
from .spectral import energy_embedding, write_basis_tsv, write_embedding_tsv


def _parse_regular(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected N,R (e.g. 500,3), got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"expected integers N,R, got {text!r}") from exc


def _load_graph(args: argparse.Namespace) -> tuple[Graph, int | None]:
    """Resolve the graph source flags; returns (graph, regular degree or None)."""
    if args.graph is not None and args.regular is not None:
        raise ValueError("pass exactly one of --graph and --regular")
    if args.graph is not None:
        with open(args.graph, "r", encoding="utf-8") as fh:
            parsed = from_edge_list(fh)
        g = parsed.graph
        if parsed.duplicate_edges or parsed.self_loops:
            print(
                f"dropped {parsed.duplicate_edges} duplicate edges and "
                f"{parsed.self_loops} self-loops",
                file=sys.stderr,
            )
        r = None
    elif args.regular is not None:
        n, r = _parse_regular(args.regular)
        g = random_regular(n, r, args.seed)
    else:
        raise ValueError("pass one of --graph and --regular")
    if args.lcc:
        before = g.n
        g = largest_connected_component(g)
        if g.n != before:
            print(f"kept largest component: {g.n} of {before} vertices", file=sys.stderr)
    return g, r


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", metavar="PATH", help="edge-list file (two tokens per line)")
    parser.add_argument("--regular", metavar="N,R", help="random regular graph, e.g. 500,3")
    parser.add_argument("--seed", type=int, default=0, help="seed for graph and anchor draws")
    parser.add_argument("--lcc", action="store_true", help="restrict to the largest connected component")


def _add_observation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--anchors", type=int, required=True, metavar="K", help="anchor count (at least 1)")
    parser.add_argument("--strategy", default="random", choices=STRATEGIES, help="anchor selection strategy")
    parser.add_argument("--m", type=int, default=0, help="spectral embedding width")
    parser.add_argument("--eta", default="0.1", help="quantization scale (decimal string, kept verbatim)")
    parser.add_argument("--quantizer", default="absolute", choices=QUANTIZERS, help="quantization rule")
    parser.add_argument("--scaled", default="true", metavar="BOOL", help="scale embedding entries by n (true/false)")


def _or_na(value: object, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def _warn_if_degenerate(degenerate: bool) -> None:
    """Warn on stderr when a row's spectral codes are basis-dependent."""
    if degenerate:
        print("warning: near-degenerate eigenvalues; spectral codes are "
              "basis-dependent at this m", file=sys.stderr)


def _cmd_gen_regular(args: argparse.Namespace) -> int:
    g = random_regular(args.n, args.r, args.seed)
    if args.out is not None:
        write_edge_list(g, args.out)
    else:
        for line in serialize_edge_list(g):
            print(line)
    print(
        f"generated {args.r}-regular graph: n={g.n} edges={g.edge_count} seed={args.seed}",
        file=sys.stderr,
    )
    return 0


def _cmd_graph_stats(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    stats = structural_stats(g)
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, float):
            print(f"{field.name} {value:.12g}")
        else:
            print(f"{field.name} {value}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, r = _load_graph(args)
    scaled = _parse_bool(args.scaled)
    graph_codes = _GraphCodes(g, args.m)
    records = analyze_records(
        g,
        r=r,
        k=args.anchors,
        m=args.m,
        eta=args.eta,
        quantizer=args.quantizer,
        scaled=scaled,
        anchor_strategy=args.strategy,
        seed=args.seed,
        resamples=args.resamples,
        graph_codes=graph_codes,
    )
    _warn_if_degenerate(records[0].degenerate)
    if args.basis_tsv is not None:
        write_basis_tsv(graph_codes.basis(), args.basis_tsv)
    if args.embedding_tsv is not None:
        write_embedding_tsv(
            energy_embedding(graph_codes.basis(), args.m, scaled), args.embedding_tsv
        )

    (agg,) = _aggregate(records).values()
    print(f"n {g.n}")
    print(f"resamples {len(records)}")
    print(f"error {agg.means['error']:.6g} +- {agg.stds['error']:.6g}")
    for metric in ("image_frac", "mean_preimage", "singleton_frac"):
        print(f"{metric} {agg.means[metric]:.6g}")
    print(f"codebook_size {records[0].codebook_size}")
    print(f"profile_count {agg.means['profile_count']:.6g}")
    generic_ok = all(rec.bounds_ok for rec in records)
    refined_na = sum(1 for rec in records if rec.refined_bound is None)
    print(f"bounds_ok {'true' if generic_ok else 'false'}")
    print(f"refined_bound_na {refined_na}")
    if args.csv is not None:
        write_records_csv(records, args.csv, include_timing=args.timings)
        print(f"wrote {len(records)} rows to {args.csv}", file=sys.stderr)
    return 0


def _cmd_diagnose_buckets(args: argparse.Namespace) -> int:
    g, r = _load_graph(args)
    if args.anchors < 1:
        raise ValueError("anchor count must be at least 1")
    # The resample-0 row that analyze evaluates on the same flags.
    point = ConfigPoint(g.n, r, args.anchors, args.m, args.eta, args.quantizer,
                        _parse_bool(args.scaled), "full", args.strategy)
    (report,) = _GraphCodes(g, args.m).rows([point], args.seed)
    if isinstance(report, Exception):
        raise report
    _warn_if_degenerate(report.degenerate)
    diag = report.diagnostics

    print(f"n {diag.n}")
    print(f"buckets {report.bounds.profile_bound}")
    print(f"singleton_vertex_fraction {diag.singleton_vertex_fraction:.6g}")
    for level in diag.levels:
        prefix = f"cutoff_{level.cutoff}"
        print(f"{prefix}.buckets {level.bucket_count}")
        print(f"{prefix}.below_cutoff_vertex_fraction {level.below_cutoff_vertex_fraction:.6g}")
        for name, value in (
            ("weighted_collision", level.weighted_collision),
            ("median_code_ratio", level.median_code_ratio),
            ("q90_balance", level.q90_balance),
        ):
            print(f"{prefix}.{name} {_or_na(value, '.6g')}")
    if diag.sizes.size and args.top > 0:
        print("largest buckets (profile size codes collision balance):")
        # Size descending, then profile ascending; lexsort's last key is primary.
        order = np.lexsort((*diag.profiles.T[::-1], -diag.sizes))[: args.top]
        for i in order.tolist():
            label = ",".join(str(d) for d in diag.profiles[i].tolist())
            print(
                f"  ({label}) {diag.sizes[i]} {diag.code_counts[i]} "
                f"{diag.collisions[i]:.6g} {diag.balances[i]:.6g}"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    text = ""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    # Each sweep flag's dest is the SweepConfig field it sets; SweepConfig
    # reads each axis value as its CSV cell, so --scaled takes true/false.
    fields = (f.name for f in dataclasses.fields(SweepConfig))
    flags = {name: getattr(args, name) for name in fields if getattr(args, name) is not None}
    cfg = parse_sweep_config(text, flags)
    print(f"sweep: {sum(1 for _ in cfg.points())} trial rows", file=sys.stderr)

    def progress(done: int, total: int) -> None:
        step = max(1, total // 20)
        if done % step == 0 or done == total:
            print(f"progress {done}/{total} graph batches", file=sys.stderr)

    result = run_sweep(cfg, jobs=args.jobs, progress=progress)
    write_csv(result, args.out, include_timing=args.timings)
    failures = Counter(rec.failure for rec in result.records if rec.failure is not None)
    print(f"wrote {len(result.records)} rows to {args.out}", file=sys.stderr)
    if failures:
        print(f"warning: {failures.total()} failed trials recorded", file=sys.stderr)
        for reason, count in failures.most_common():
            print(f"  {count} x {reason}", file=sys.stderr)
    return 0


def _cmd_kemp(args: argparse.Namespace) -> int:
    table = kemp_table(read_csv_rows(args.in_path), args.threshold)
    settings = [
        f"# r={_or_na(row.r, 'd')} quantizer={row.quantizer} scaled={str(row.scaled).lower()} "
        f"feature={row.feature} strategy={row.anchor_strategy}" for row in table
    ]
    print(f"{'n':>6} {'m':>3} {'eta':>8} {'k_emp':>5} {'rho_eng':>8} "
          f"{'image_frac':>10} {'preimage':>9} {'codebook':>9}")
    # A CSV joining several settings names each before its rows.
    shown = settings[0] if len(set(settings)) == 1 else None
    for row, setting in zip(table, settings):
        if setting != shown:
            print(setting)
            shown = setting
        k_text = "none" if row.k_emp is None else str(row.k_emp)
        print(f"{row.n:>6} {row.m:>3} {row.eta:>8} {k_text:>5} {_or_na(row.rho, '.3f'):>8} "
              f"{_or_na(row.image_frac, '.4f'):>10} {_or_na(row.mean_preimage, '.4f'):>9} "
              f"{_or_na(row.codebook, '.1f'):>9}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsmap",
        description="Observation maps on graphs: anchor distances plus "
        "quantized spectral signatures, with identifiability diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-regular", help="generate a connected random regular graph")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, default=3, help="degree (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="edge-list output (default stdout)")
    p.set_defaults(func=_cmd_gen_regular)

    p = sub.add_parser("graph-stats", help="structural statistics of a graph")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_graph_stats)

    p = sub.add_parser("analyze", help="evaluate one observation-map configuration")
    _add_graph_source(p)
    _add_observation_flags(p)
    p.add_argument("--resamples", type=int, default=1, help="independent anchor draws")
    p.add_argument("--csv", metavar="PATH", help="write per-resample records")
    p.add_argument("--timings", action="store_true", help="put wall times in the CSV")
    p.add_argument("--basis-tsv", metavar="PATH", help="dump retained eigenvectors as TSV")
    p.add_argument("--embedding-tsv", metavar="PATH", help="dump embedding values as TSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p.add_argument("--config", metavar="PATH", help="key=value grid file; each flag below overrides its key")
    p.add_argument("--n", dest="n_list", action="append", type=int, help="grid n (repeatable)")
    p.add_argument("--k", dest="k_list", action="append", type=int, help="grid k (repeatable)")
    p.add_argument("--m", dest="m_list", action="append", type=int, help="grid m (repeatable)")
    p.add_argument("--eta", dest="eta_list", action="append", help="grid eta (repeatable, decimal strings)")
    p.add_argument("--trials", type=int, help="graphs per grid cell")
    p.add_argument("--resamples", dest="anchor_resamples", type=int, help="anchor draws per graph")
    p.add_argument("--r", dest="r_list", action="append", type=int, help="regular degree (repeatable)")
    p.add_argument("--quantizer", dest="quantizer_list", action="append", choices=QUANTIZERS,
                   help="quantization rule (repeatable)")
    p.add_argument("--scaled", dest="scaled_list", action="append", metavar="BOOL",
                   help="true/false (repeatable)")
    p.add_argument("--feature", dest="feature_list", action="append", choices=FEATURES,
                   help="observation components (repeatable)")
    p.add_argument("--strategy", dest="anchor_strategy_list", action="append", choices=STRATEGIES,
                   help="anchor selection strategy (repeatable)")
    p.add_argument("--seed", type=int, help="master seed")
    # The CPUs this process may run on, where the platform says which.
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    p.add_argument("--jobs", type=int, default=usable, help="worker processes (default: usable CPUs)")
    p.add_argument("--timings", action="store_true", help="put wall times in the CSV")
    p.add_argument("--out", metavar="PATH", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("kemp", help="anchor thresholds from a sweep CSV")
    p.add_argument("--in", dest="in_path", metavar="PATH", required=True, help="sweep CSV")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD, help="mean-error threshold")
    p.set_defaults(func=_cmd_kemp)

    p = sub.add_parser("diagnose-buckets", help="bucket-level collision diagnostics")
    _add_graph_source(p)
    _add_observation_flags(p)
    p.add_argument("--top", type=int, default=10, help="largest buckets to list")
    p.set_defaults(func=_cmd_diagnose_buckets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectivityError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
