"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one client: one process making
sequential calls into obsmap's public functions. A workload pass writes one
trial-record CSV and reports how many trial rows it produced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from obsmap import cli, graphs, harness, observation, spectral

# The reduced phase-transition grid: 6 k x 4 m x 20 trials = 480 rows on 20
# graphs of 500 vertices.
PHASE_GRID = dict(
    n_list=(500,), k_list=(1, 2, 3, 4, 6, 8), m_list=(0, 1, 2, 5),
    eta_list=("0.1",), trials=20,
)
PHASE_ROWS = 480
PHASE_FLAGS = (
    ["--n", "500"]
    + [arg for k in PHASE_GRID["k_list"] for arg in ("--k", str(k))]
    + [arg for m in PHASE_GRID["m_list"] for arg in ("--m", str(m))]
    + ["--eta", "0.1", "--trials", "20"]
)
KEMP_THRESHOLD = "0.1"

# The three bucketwise regimes (m, eta), each its own run_sweep call at
# n=2000, k=2, 5 graphs x 5 anchor resamples, as the bucketwise script runs them.
BUCKETWISE_REGIMES = ((1, "2.0"), (2, "1.0"), (5, "0.3"))
BUCKETWISE_ROWS = 75

ANALYZE_N = 6000
ANALYZE_RESAMPLES = 20

WARMUP_POLICY = (
    "imports plus one dense scipy.linalg.eigh (n=300) in the measuring process "
    "before the first pass; no warm-up pass; BLAS thread variables and the "
    "multiprocessing start method left unset"
)


def warm_up() -> None:
    """Pay OpenBLAS's first-call cost (about 1 s cold) before timing."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    scipy.linalg.eigh(a + a.T, subset_by_index=(0, 5))


def phase_config(seed: int) -> harness.SweepConfig:
    return harness.SweepConfig(**PHASE_GRID, seed=seed)


def _cli(argv: list[str]) -> str:
    """Run one obsmap command in-process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"obsmap {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


@dataclass(frozen=True)
class Output:
    """What one workload pass produced besides its CSV."""

    rows: int
    kemp: list[str] | None = None  # k_emp table lines, one per (n, m, eta)
    sweep: harness.SweepResult | None = None


def kemp_lines(table: list[harness.KempRow]) -> list[str]:
    """k_emp rows as text, floats at full precision; the first four fields
    are n, m, eta, k_emp as in `obsmap kemp` output."""
    return [
        f"{r.n} {r.m} {r.eta} {'none' if r.k_emp is None else r.k_emp} "
        f"{r.rho!r} {r.image_frac!r} {r.mean_preimage!r} {r.codebook!r}"
        for r in table
    ]


def run_phase_n500(seed: int, csv_path: str) -> Output:
    result = harness.run_sweep(phase_config(seed), jobs=1)
    harness.write_csv(result, csv_path)
    table = harness.kemp_table(harness.read_csv_rows(csv_path), float(KEMP_THRESHOLD))
    return Output(len(result.records), kemp_lines(table), result)


def run_bucketwise_n2000(seed: int, csv_path: str) -> Output:
    records = []
    for m, eta in BUCKETWISE_REGIMES:
        cfg = harness.SweepConfig(
            n_list=(2000,), k_list=(2,), m_list=(m,), eta_list=(eta,),
            trials=5, anchor_resamples=5, seed=seed,
        )
        records.extend(harness.run_sweep(cfg, jobs=1).records)
    harness.write_records_csv(records, csv_path)
    return Output(len(records))


def run_analyze_n6000(seed: int, csv_path: str) -> Output:
    _cli([
        "analyze", "--regular", f"{ANALYZE_N},3", "--seed", str(seed),
        "--anchors", "8", "--m", "5", "--eta", "0.1",
        "--resamples", str(ANALYZE_RESAMPLES), "--csv", csv_path,
    ])
    return Output(ANALYZE_RESAMPLES)


def run_sweep_cli_jobs2(seed: int, csv_path: str) -> Output:
    _cli(["sweep", *PHASE_FLAGS, "--seed", str(seed), "--jobs", "2", "--out", csv_path])
    kemp = _cli(["kemp", "--in", csv_path, "--threshold", KEMP_THRESHOLD])
    return Output(PHASE_ROWS, kemp.splitlines()[1:])


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, str], Output]
    rows: int
    reference: str  # key of the default-seed CSV digests in reference.json


WORKLOADS = {
    w.name: w
    for w in (
        Workload("phase_n500", run_phase_n500, PHASE_ROWS, "phase_n500"),
        Workload("bucketwise_n2000", run_bucketwise_n2000, BUCKETWISE_ROWS, "bucketwise_n2000"),
        Workload("analyze_n6000", run_analyze_n6000, ANALYZE_RESAMPLES, "analyze_n6000"),
        # The CSV must not depend on --jobs, so its reference is phase_n500's.
        # Not in BENCHMARK.json: its pass time swings 2x between passes (see
        # README.md), wider than any bound the benchmark may set.
        Workload("sweep_cli_jobs2", run_sweep_cli_jobs2, PHASE_ROWS, "phase_n500"),
    )
}


def line_digests(data: bytes) -> list[str]:
    """Short digest of every CSV line, header included."""
    return [hashlib.sha256(line).hexdigest()[:16] for line in data.splitlines()]


def mismatched_lines(got: list[str], want: list[str]) -> set[int]:
    """Line indices that differ, counting missing and extra lines."""
    out = {i for i, (a, b) in enumerate(zip(got, want)) if a != b}
    out.update(range(min(len(got), len(want)), max(len(got), len(want))))
    return out


def csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def row_ok(row: dict[str, str]) -> bool:
    """A row passes when it did not fail, its optimal error is exactly
    1 - image_frac, and its counting bounds hold."""
    try:
        error = float(row["error"])
        image_frac = float(row["image_frac"])
    except (KeyError, ValueError):
        return False
    return error == 1.0 - image_frac and row.get("bounds_ok") == "true"


def section_attains_optimum(workload: str, seed: int, row: dict[str, str]) -> bool:
    """Rebuild the row's instance and check that the minimum-id section
    attains the optimal recovery rate, and that the row reports it."""
    n, r, k, m = (int(row[c]) for c in ("n", "r", "k", "m"))
    strategy, scaled = row["anchor_strategy"], row["scaled"] == "true"
    if workload == "analyze_n6000":
        graph_seed = seed
        anchor_base = seed
    else:
        graph_seed = harness.graph_seed_for(seed, n, r, int(row["trial"]))
        if str(graph_seed) != row["seed"]:
            return False
        anchor_base = graph_seed
    g = graphs.random_regular(n, r, graph_seed)
    if m > 0:
        basis = spectral.low_frequency_basis(spectral.normalized_laplacian(g), m)
        emb = spectral.energy_embedding(basis, m, scaled)
    else:
        emb = spectral.empty_embedding(n, scaled)
    if row["quantizer"] == "absolute":
        codes = spectral.quantize_absolute(emb, float(row["eta"]))
    else:
        codes = spectral.quantize_relative(emb, float(row["eta"]))
    aseed = harness.anchor_seed_for(anchor_base, k, strategy, int(row["resample"]))
    anchors = harness.select_anchors(g, k, strategy, aseed)
    table = observation.build_observation(g, anchors, codes)
    stats = observation.fiber_stats(table)
    attained = observation.section_success(table, observation.min_id_section(table))
    return attained == stats.success and format(stats.error, ".17g") == row["error"]


def kemp_disagreements(lines: list[str], result: harness.SweepResult) -> set[int]:
    """Indices of k_emp table lines that disagree with harness.k_emp.

    The table is computed from CSV rows read back from disk while k_emp
    works on the in-memory sweep result, so the two are independent paths to
    the same threshold.
    """
    bad = set()
    for i, line in enumerate(lines):
        n, m, eta, k_text = line.split()[:4]
        expected = harness.k_emp(result, n=int(n), m=int(m), eta=eta,
                                 threshold=float(KEMP_THRESHOLD))
        if k_text != ("none" if expected is None else str(expected)):
            bad.add(i)
    return bad
