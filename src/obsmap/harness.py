"""Trial execution, parameter sweeps, anchor strategies, empirical anchor
thresholds, and deterministic CSV export.

Seeds derive from the master seed so that every row is reproducible in
isolation: the graph of (n, r, trial) is shared by every configuration that
touches it, and anchor draws depend only on (graph, k, strategy, resample).
That keeps graph instances and anchor resamples identical across embedding
regimes, which the bucketwise comparisons rely on.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import AnchorSet, Graph, bfs_distances, random_regular
from .observation import (
    BucketDiagnostics,
    FiberStats,
    build_observation,
    bucket_diagnostics,
    fiber_stats,
)
from .spectral import (
    EnergyEmbedding,
    QuantizedCodes,
    SpectralBasis,
    codebook_size,
    empty_embedding,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_absolute,
    quantize_relative,
)
from .theory import BoundReport, bound_report

__all__ = [
    "QUANTIZERS",
    "FEATURES",
    "STRATEGIES",
    "CSV_COLUMNS",
    "ConfigPoint",
    "SweepConfig",
    "TrialRecord",
    "Aggregate",
    "SweepResult",
    "InstanceReport",
    "KempRow",
    "CsvFormatError",
    "mix64",
    "graph_seed_for",
    "anchor_seed_for",
    "select_anchors",
    "evaluate_instance",
    "analyze_records",
    "run_trial",
    "run_sweep",
    "k_emp",
    "write_csv",
    "write_records_csv",
    "read_csv_rows",
    "kemp_table",
    "parse_sweep_config",
]


class CsvFormatError(RuntimeError):
    """A CSV input does not follow the trial-record schema."""

QUANTIZERS = ("absolute", "relative")
FEATURES = ("nope", "distance", "spectral", "full")
STRATEGIES = ("random", "degree", "farthest")

CSV_COLUMNS = (
    "n", "r", "k", "m", "eta", "quantizer", "scaled", "feature",
    "anchor_strategy", "trial", "resample", "seed", "error", "image_frac",
    "mean_preimage", "singleton_frac", "codebook_size", "profile_count",
    "singleton_bucket_frac", "weighted_collision", "median_code_ratio",
    "q90_balance", "generic_bound", "refined_bound", "bounds_ok",
    "wall_time_ms",
)

# Metric columns; a failed trial writes the failure marker in each of them.
_METRIC_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("error"):]
_FAILURE_MARKER = "error"
_NA = "n/a"

_AGGREGATED_METRICS = (
    "error", "image_frac", "mean_preimage", "singleton_frac",
    "codebook_size", "profile_count", "singleton_bucket_frac",
    "weighted_collision", "median_code_ratio", "q90_balance",
    "generic_bound", "refined_bound",
)


def mix64(*parts: object) -> int:
    """Stable 64-bit mix of heterogeneous parts (order-sensitive)."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        encoded = str(part).encode("utf-8")
        h.update(len(encoded).to_bytes(4, "big"))
        h.update(encoded)
    return int.from_bytes(h.digest(), "big")


def graph_seed_for(master_seed: int, n: int, r: int, trial: int) -> int:
    """Graph seed; independent of k, m, eta, quantizer, and feature so the
    same graph instances are shared across embedding regimes."""
    return mix64("graph", master_seed, n, r, trial)


def anchor_seed_for(graph_seed: int, k: int, strategy: str, resample: int) -> int:
    """Anchor seed; independent of the spectral configuration so anchor
    resamples are shared across embedding regimes."""
    return mix64("anchors", graph_seed, k, strategy, resample)


def _check_eta(eta: str) -> None:
    try:
        value = float(eta)
    except ValueError as exc:
        raise ValueError(f"eta {eta!r} is not a decimal number") from exc
    if not value > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    if not math.isfinite(value):
        raise ValueError(f"eta must be finite, got {eta!r}")


@dataclass(frozen=True)
class ConfigPoint:
    """One cell of a sweep grid, including its trial and resample indices.

    eta is carried as its exact decimal string; use eta_float for
    arithmetic. feature selects which observation components are active:
    nope drops both, distance keeps anchors only, spectral keeps codes
    only, full keeps both.
    """

    n: int
    r: int
    k: int
    m: int
    eta: str
    quantizer: str
    scaled: bool
    feature: str
    anchor_strategy: str
    trial: int = 0
    resample: int = 0

    def __post_init__(self) -> None:
        if self.r < 3:
            raise ValueError("regular degree must be at least 3")
        if self.n <= self.r:
            raise ValueError("n must exceed the regular degree")
        if self.k < 0 or self.k > self.n:
            raise ValueError("k must lie in [0, n]")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        _check_eta(self.eta)
        if self.quantizer not in QUANTIZERS:
            raise ValueError(f"unknown quantizer {self.quantizer!r}")
        if self.feature not in FEATURES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if self.anchor_strategy not in STRATEGIES:
            raise ValueError(f"unknown anchor strategy {self.anchor_strategy!r}")
        if self.trial < 0 or self.resample < 0:
            raise ValueError("trial and resample indices must be non-negative")

    @property
    def eta_float(self) -> float:
        return float(self.eta)

    def effective_dims(self) -> tuple[int, int]:
        """(active anchor count, active embedding width) under the feature."""
        if self.feature == "nope":
            return 0, 0
        if self.feature == "distance":
            return self.k, 0
        if self.feature == "spectral":
            return 0, self.m
        return self.k, self.m

    def grid_key(self) -> tuple:
        return (
            self.n, self.r, self.k, self.m, self.eta, self.quantizer,
            self.scaled, self.feature, self.anchor_strategy,
        )


def _as_int_tuple(values: Iterable[int], name: str) -> tuple[int, ...]:
    out = tuple(int(v) for v in values)
    if not out:
        raise ValueError(f"{name} must be non-empty")
    return out


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for run_sweep.

    The grid is the product n_list x k_list x m_list x eta_list; every cell
    runs `trials` independent graphs with `anchor_resamples` anchor draws
    each. eta values are decimal strings and keep their exact spelling in
    keys and CSV output.
    """

    n_list: Sequence[int]
    k_list: Sequence[int]
    m_list: Sequence[int]
    eta_list: Sequence[str]
    trials: int = 20
    anchor_resamples: int = 1
    r: int = 3
    quantizer: str = "absolute"
    scaled: bool = True
    feature: str = "full"
    anchor_strategy: str = "random"
    seed: int = 0
    error_threshold: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_list", _as_int_tuple(self.n_list, "n_list"))
        object.__setattr__(self, "k_list", _as_int_tuple(self.k_list, "k_list"))
        object.__setattr__(self, "m_list", _as_int_tuple(self.m_list, "m_list"))
        etas = tuple(str(e) for e in self.eta_list)
        if not etas:
            raise ValueError("eta_list must be non-empty")
        object.__setattr__(self, "eta_list", etas)
        for eta in etas:
            _check_eta(eta)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.anchor_resamples < 1:
            raise ValueError("anchor_resamples must be at least 1")
        if not (0.0 < self.error_threshold < 1.0):
            raise ValueError("error_threshold must lie strictly between 0 and 1")
        # Fail the whole grid early on structurally impossible cells.
        for n in self.n_list:
            if n <= self.r:
                raise ValueError(f"n={n} must exceed r={self.r}")
            if (n * self.r) % 2 != 0:
                raise ValueError(f"n*r must be even, got n={n}, r={self.r}")
            for k in self.k_list:
                if k < 0 or k > n:
                    raise ValueError(f"k={k} must lie in [0, n={n}]")
        for m in self.m_list:
            if m < 0:
                raise ValueError("m values must be non-negative")
            if m + 1 > min(self.n_list):
                raise ValueError(f"m={m} needs more than m+1 vertices")
        if self.quantizer not in QUANTIZERS:
            raise ValueError(f"unknown quantizer {self.quantizer!r}")
        if self.feature not in FEATURES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if self.anchor_strategy not in STRATEGIES:
            raise ValueError(f"unknown anchor strategy {self.anchor_strategy!r}")

    def points(self) -> Iterator[ConfigPoint]:
        """Grid cells in the deterministic output order: config
        lexicographic (eta ordered numerically), then trial, then resample."""
        for n in sorted(set(self.n_list)):
            for k in sorted(set(self.k_list)):
                for m in sorted(set(self.m_list)):
                    for eta in sorted(set(self.eta_list), key=lambda e: (float(e), e)):
                        for trial in range(self.trials):
                            for resample in range(self.anchor_resamples):
                                yield ConfigPoint(
                                    n=n, r=self.r, k=k, m=m, eta=eta,
                                    quantizer=self.quantizer, scaled=self.scaled,
                                    feature=self.feature,
                                    anchor_strategy=self.anchor_strategy,
                                    trial=trial, resample=resample,
                                )


@dataclass(frozen=True)
class TrialRecord:
    """One executed grid cell. Metric fields are None when the trial failed
    (failure holds the reason) or when a diagnostic is inapplicable."""

    n: int
    r: int | None
    k: int
    m: int
    eta: str
    quantizer: str
    scaled: bool
    feature: str
    anchor_strategy: str
    trial: int
    resample: int
    seed: int
    error: float | None
    image_frac: float | None
    mean_preimage: float | None
    singleton_frac: float | None
    codebook_size: int | None
    profile_count: int | None
    singleton_bucket_frac: float | None
    weighted_collision: float | None
    median_code_ratio: float | None
    q90_balance: float | None
    generic_bound: int | None
    refined_bound: float | None
    bounds_ok: bool | None
    wall_time_ms: float | None
    degenerate: bool = False
    failure: str | None = None

    def grid_key(self) -> tuple:
        return (
            self.n, self.r, self.k, self.m, self.eta, self.quantizer,
            self.scaled, self.feature, self.anchor_strategy,
        )


@dataclass(frozen=True)
class Aggregate:
    """Per-grid-cell summary. means/stds cover successful records where the
    metric was applicable; available counts how many contributed. stds are
    population standard deviations."""

    count: int
    failures: int
    means: Mapping[str, float]
    stds: Mapping[str, float]
    available: Mapping[str, int]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    records: tuple[TrialRecord, ...]
    aggregates: Mapping[tuple, Aggregate]


@dataclass(frozen=True)
class InstanceReport:
    """Everything measured on one (graph, anchors, codes) instance."""

    stats: FiberStats
    diagnostics: BucketDiagnostics
    bounds: BoundReport
    codebook: int
    degenerate: bool


def select_anchors(g: Graph, k: int, strategy: str, seed: int) -> AnchorSet:
    """Draw k anchors by the named strategy.

    random: uniform without replacement, in draw order. degree: top-k by
    degree, ties to the smaller id. farthest: first anchor uniform by seed,
    then repeatedly the vertex maximizing the minimum distance to the
    chosen set, ties to the smaller id.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > g.n:
        raise ValueError(f"k={k} exceeds the vertex count {g.n}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown anchor strategy {strategy!r}")
    if k == 0:
        return AnchorSet(())
    if strategy == "degree":
        degs = g.degrees()
        order = sorted(range(g.n), key=lambda v: (-int(degs[v]), v))
        return AnchorSet(tuple(order[:k]))
    rng = np.random.default_rng(seed)
    if strategy == "random":
        picks = rng.choice(g.n, size=k, replace=False)
        return AnchorSet(tuple(int(v) for v in picks))
    first = int(rng.integers(g.n))
    chosen = [first]
    min_dist = bfs_distances(g, first)
    while len(chosen) < k:
        nxt = int(np.argmax(min_dist))  # first max: smallest id wins ties
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, bfs_distances(g, nxt))
    return AnchorSet(tuple(chosen))


class _GraphCodes:
    """Quantized codes of one graph, each (m, eta, quantizer, scaled) built
    once, every m cut from a single eigensolve at m_max, the largest m the
    caller needs. The solve runs on first use, so m=0 work never pays it."""

    def __init__(self, g: Graph, m_max: int) -> None:
        self.g = g
        self.m_max = m_max
        self._basis: SpectralBasis | None = None
        self._codes: dict[tuple, tuple[QuantizedCodes, bool]] = {}

    def get(
        self, m: int, eta: float, quantizer: str, scaled: bool
    ) -> tuple[QuantizedCodes, bool]:
        """Codes for one spectral configuration and their degeneracy flag."""
        key = (m, eta, quantizer, scaled)
        if key not in self._codes:
            if m == 0:
                emb = empty_embedding(self.g.n, scaled)
                degenerate = False
            else:
                if self._basis is None:
                    lap = normalized_laplacian(self.g)
                    self._basis = low_frequency_basis(lap, self.m_max)
                basis = self._basis.leading(m)
                emb = energy_embedding(basis, m, scaled)
                degenerate = basis.degeneracy_flag
            if quantizer == "absolute":
                codes = quantize_absolute(emb, eta)
            else:
                codes = quantize_relative(emb, eta)
            self._codes[key] = (codes, degenerate)
        return self._codes[key]


def evaluate_instance(
    g: Graph, anchors: AnchorSet, codes: QuantizedCodes, degenerate: bool = False
) -> InstanceReport:
    """Observation table statistics, bucket diagnostics, and bounds for one
    fully specified instance."""
    table = build_observation(g, anchors, codes)
    diagnostics = bucket_diagnostics(table)
    codebook = codebook_size(codes)
    return InstanceReport(
        stats=fiber_stats(table),
        diagnostics=diagnostics,
        bounds=bound_report(table, codes, diagnostics=diagnostics, codebook=codebook),
        codebook=codebook,
        degenerate=degenerate,
    )


def _record_from_report(
    identity: dict, seed: int, report: InstanceReport, wall_ms: float
) -> TrialRecord:
    stats = report.stats
    base = report.diagnostics.level(2)
    bounds = report.bounds
    if bounds.refined_satisfied is None:
        bounds_ok = bounds.generic_satisfied
    else:
        bounds_ok = bounds.generic_satisfied and bounds.refined_satisfied
    return TrialRecord(
        **identity,
        seed=seed,
        error=stats.error,
        image_frac=stats.success,
        mean_preimage=stats.vertex_mean_preimage,
        singleton_frac=stats.singleton_fraction,
        codebook_size=report.codebook,
        profile_count=bounds.profile_bound,
        singleton_bucket_frac=report.diagnostics.singleton_vertex_fraction,
        weighted_collision=base.weighted_collision,
        median_code_ratio=base.median_code_ratio,
        q90_balance=base.q90_balance,
        generic_bound=bounds.generic_bound,
        refined_bound=bounds.refined_bound,
        bounds_ok=bounds_ok,
        wall_time_ms=wall_ms,
        degenerate=report.degenerate,
    )


def _point_identity(point: ConfigPoint) -> dict:
    return dict(
        n=point.n, r=point.r, k=point.k, m=point.m, eta=point.eta,
        quantizer=point.quantizer, scaled=point.scaled, feature=point.feature,
        anchor_strategy=point.anchor_strategy, trial=point.trial,
        resample=point.resample,
    )


def _failure_record(point: ConfigPoint, seed: int, reason: str) -> TrialRecord:
    return TrialRecord(
        n=point.n, r=point.r, k=point.k, m=point.m, eta=point.eta,
        quantizer=point.quantizer, scaled=point.scaled, feature=point.feature,
        anchor_strategy=point.anchor_strategy, trial=point.trial,
        resample=point.resample, seed=seed,
        error=None, image_frac=None, mean_preimage=None, singleton_frac=None,
        codebook_size=None, profile_count=None, singleton_bucket_frac=None,
        weighted_collision=None, median_code_ratio=None, q90_balance=None,
        generic_bound=None, refined_bound=None, bounds_ok=None,
        wall_time_ms=None, failure=reason,
    )


def _instance_record(
    point: ConfigPoint,
    g: Graph,
    graph_seed: int,
    graph_codes: _GraphCodes,
) -> TrialRecord:
    start = time.perf_counter()
    k_eff, m_eff = point.effective_dims()
    codes, degenerate = graph_codes.get(
        m_eff, point.eta_float, point.quantizer, point.scaled
    )
    if k_eff > 0:
        aseed = anchor_seed_for(graph_seed, point.k, point.anchor_strategy, point.resample)
        anchors = select_anchors(g, k_eff, point.anchor_strategy, aseed)
    else:
        anchors = AnchorSet(())
    report = evaluate_instance(g, anchors, codes, degenerate=degenerate)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return _record_from_report(_point_identity(point), graph_seed, report, wall_ms)


def _point_label(point: ConfigPoint) -> str:
    return (
        f"n={point.n} r={point.r} k={point.k} m={point.m} eta={point.eta} "
        f"{point.quantizer}/{'scaled' if point.scaled else 'unscaled'} "
        f"feature={point.feature} strategy={point.anchor_strategy} "
        f"trial={point.trial} resample={point.resample}"
    )


def run_trial(point: ConfigPoint, master_seed: int) -> TrialRecord:
    """Execute one grid cell standalone; deterministic in (point, seed).

    Errors from the underlying modules propagate with the configuration
    attached to the message.
    """
    try:
        gseed = graph_seed_for(master_seed, point.n, point.r, point.trial)
        g = random_regular(point.n, point.r, gseed)
        graph_codes = _GraphCodes(g, point.effective_dims()[1])
        return _instance_record(point, g, gseed, graph_codes)
    except Exception as exc:
        message = f"{_point_label(point)}: {exc}"
        try:
            wrapped = type(exc)(message)
        except Exception:
            wrapped = RuntimeError(message)
        raise wrapped from exc


def analyze_records(
    g: Graph,
    *,
    r: int | None,
    k: int,
    m: int,
    eta: str,
    quantizer: str = "absolute",
    scaled: bool = True,
    anchor_strategy: str = "random",
    seed: int = 0,
    resamples: int = 1,
) -> list[TrialRecord]:
    """Evaluate one graph under repeated anchor resamples.

    The spectral part is computed once (it does not depend on the anchor
    draw); resample i draws anchors from anchor_seed_for(seed, k,
    strategy, i). Records carry trial index 0 and the given seed.
    """
    if k < 1:
        raise ValueError("anchor count must be at least 1")
    if k > g.n:
        raise ValueError(f"k={k} exceeds the vertex count {g.n}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if resamples < 1:
        raise ValueError("resamples must be at least 1")
    _check_eta(eta)
    if quantizer not in QUANTIZERS:
        raise ValueError(f"unknown quantizer {quantizer!r}")
    if anchor_strategy not in STRATEGIES:
        raise ValueError(f"unknown anchor strategy {anchor_strategy!r}")

    codes, degenerate = _GraphCodes(g, m).get(m, float(eta), quantizer, scaled)

    records = []
    for i in range(resamples):
        start = time.perf_counter()
        aseed = anchor_seed_for(seed, k, anchor_strategy, i)
        anchors = select_anchors(g, k, anchor_strategy, aseed)
        report = evaluate_instance(g, anchors, codes, degenerate=degenerate)
        wall_ms = (time.perf_counter() - start) * 1000.0
        identity = dict(
            n=g.n, r=r, k=k, m=m, eta=eta, quantizer=quantizer, scaled=scaled,
            feature="full", anchor_strategy=anchor_strategy, trial=0, resample=i,
        )
        records.append(_record_from_report(identity, seed, report, wall_ms))
    return records


def _run_job(
    master_seed: int, n: int, r: int, trial: int,
    indexed_points: list[tuple[int, ConfigPoint]],
) -> list[tuple[int, TrialRecord]]:
    """Execute all points sharing one graph (n, r, trial)."""
    gseed = graph_seed_for(master_seed, n, r, trial)
    try:
        g = random_regular(n, r, gseed)
    except Exception as exc:
        return [(i, _failure_record(p, gseed, str(exc))) for i, p in indexed_points]
    m_max = max(point.effective_dims()[1] for _, point in indexed_points)
    graph_codes = _GraphCodes(g, m_max)
    out = []
    for idx, point in indexed_points:
        try:
            out.append((idx, _instance_record(point, g, gseed, graph_codes)))
        except Exception as exc:
            out.append((idx, _failure_record(point, gseed, str(exc))))
    return out


def _aggregate(records: Sequence[TrialRecord]) -> dict[tuple, Aggregate]:
    groups: dict[tuple, list[TrialRecord]] = defaultdict(list)
    for rec in records:
        groups[rec.grid_key()].append(rec)
    out: dict[tuple, Aggregate] = {}
    for key, group in groups.items():
        means: dict[str, float] = {}
        stds: dict[str, float] = {}
        available: dict[str, int] = {}
        for metric in _AGGREGATED_METRICS:
            values = [
                float(getattr(rec, metric))
                for rec in group
                if rec.failure is None and getattr(rec, metric) is not None
            ]
            available[metric] = len(values)
            if values:
                mean = sum(values) / len(values)
                var = sum((v - mean) ** 2 for v in values) / len(values)
                means[metric] = mean
                stds[metric] = math.sqrt(max(var, 0.0))
        out[key] = Aggregate(
            count=len(group),
            failures=sum(1 for rec in group if rec.failure is not None),
            means=means,
            stds=stds,
            available=available,
        )
    return out


def run_sweep(
    cfg: SweepConfig,
    jobs: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> SweepResult:
    """Run the full grid deterministically.

    Points sharing a graph instance are batched so the graph, its one
    eigensolve (at the batch's largest m) and each of its code tables are
    computed once. jobs > 1 distributes batches over a process pool; the
    output order and content are identical regardless of worker count. A
    failing trial yields a failure record and the sweep continues.
    """
    points = list(cfg.points())
    batches: dict[tuple[int, int], list[tuple[int, ConfigPoint]]] = defaultdict(list)
    for idx, point in enumerate(points):
        batches[(point.n, point.trial)].append((idx, point))
    batch_list = [
        (cfg.seed, n, cfg.r, trial, indexed)
        for (n, trial), indexed in sorted(batches.items())
    ]
    records: list[TrialRecord | None] = [None] * len(points)
    done = 0
    total = len(batch_list)
    if jobs is None or jobs <= 1 or total <= 1:
        for args in batch_list:
            for idx, rec in _run_job(*args):
                records[idx] = rec
            done += 1
            if progress is not None:
                progress(done, total)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_job, *args) for args in batch_list]
            for fut in as_completed(futures):
                for idx, rec in fut.result():
                    records[idx] = rec
                done += 1
                if progress is not None:
                    progress(done, total)
    final = tuple(records)  # type: ignore[arg-type]
    return SweepResult(config=cfg, records=final, aggregates=_aggregate(final))


def _match_eta(cfg: SweepConfig, eta: str | float) -> str:
    if isinstance(eta, str):
        if eta in cfg.eta_list:
            return eta
        candidates = [e for e in cfg.eta_list if float(e) == float(eta)]
    else:
        candidates = [e for e in cfg.eta_list if float(e) == eta]
    if not candidates:
        raise ValueError(f"eta {eta!r} not in the sweep grid")
    return candidates[0]


def k_emp(
    result: SweepResult, n: int, m: int, eta: str | float,
    threshold: float | None = None,
) -> int | None:
    """Smallest tested k whose mean error is at or below the threshold.

    Scans the configured k grid in ascending order; returns None when no
    tested k qualifies (no extrapolation beyond the grid). Every k cell
    must carry at least one successful record.
    """
    cfg = result.config
    if threshold is None:
        threshold = cfg.error_threshold
    eta_key = _match_eta(cfg, eta)
    if n not in cfg.n_list:
        raise ValueError(f"n={n} not in the sweep grid")
    if m not in cfg.m_list:
        raise ValueError(f"m={m} not in the sweep grid")
    for k in sorted(set(cfg.k_list)):
        key = (
            n, cfg.r, k, m, eta_key, cfg.quantizer, cfg.scaled,
            cfg.feature, cfg.anchor_strategy,
        )
        agg = result.aggregates.get(key)
        if agg is None or "error" not in agg.means:
            raise ValueError(
                f"no successful records for n={n} k={k} m={m} eta={eta_key}"
            )
        if agg.means["error"] <= threshold:
            return k
    return None


def _format_cell(value: object) -> str:
    if value is None:
        return _NA
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_records_csv(
    records: Sequence[TrialRecord], path: str, include_timing: bool = False
) -> None:
    """Write trial records as CSV in the fixed column order.

    Floats carry 17 significant digits; inapplicable diagnostics are the
    literal "n/a"; a failed trial fills its metric columns with the failure
    marker. wall_time_ms is "n/a" unless include_timing is set, which keeps
    re-runs of the same config byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                if rec.failure is not None and col in _METRIC_COLUMNS:
                    row.append(_FAILURE_MARKER)
                    continue
                if col == "wall_time_ms" and not include_timing:
                    row.append(_NA)
                    continue
                row.append(_format_cell(getattr(rec, col)))
            writer.writerow(row)


def write_csv(result: SweepResult, path: str, include_timing: bool = False) -> None:
    """Write a sweep result as CSV; see write_records_csv for the format."""
    write_records_csv(result.records, path, include_timing=include_timing)


def read_csv_rows(path: str) -> list[dict[str, str]]:
    """Read a trial-record CSV back as raw string dicts.

    Raises CsvFormatError when the header misses schema columns or the
    file has no data rows.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CsvFormatError(f"{path}: empty file")
        missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise CsvFormatError(f"{path}: missing columns {missing}")
        rows = list(reader)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return rows


@dataclass(frozen=True)
class KempRow:
    """Anchor threshold summary for one (n, m, eta) group.

    The trailing metrics are means over the successful rows at k_emp; all
    of them are None when no tested k meets the threshold. rho is the
    budget ratio at k_emp (None when n is too small for it).
    """

    n: int
    m: int
    eta: str
    k_emp: int | None
    rho: float | None
    image_frac: float | None
    mean_preimage: float | None
    codebook: float | None


def _try_float(text: str | None) -> float | None:
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def kemp_table(rows: Sequence[Mapping[str, str]], threshold: float) -> list[KempRow]:
    """Anchor thresholds per (n, m, eta) group from raw CSV rows.

    Rows whose metrics hold failure or n/a markers are skipped; a k cell
    with no usable rows cannot qualify. eta groups by the exact string.
    """
    from .theory import BudgetInputs, rho_eng

    cells: dict[tuple[int, int, str], dict[int, list[Mapping[str, str]]]] = {}
    for row in rows:
        try:
            n = int(row["n"])
            m = int(row["m"])
            k = int(row["k"])
            eta = row["eta"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CsvFormatError(f"bad identity columns in row {row!r}") from exc
        cells.setdefault((n, m, eta), {}).setdefault(k, []).append(row)

    out = []
    for (n, m, eta) in sorted(cells, key=lambda g: (g[0], g[1], float(g[2]), g[2])):
        by_k = cells[(n, m, eta)]
        k_hit = None
        hit_rows: list[Mapping[str, str]] = []
        for k in sorted(by_k):
            errors = [e for e in (_try_float(r["error"]) for r in by_k[k]) if e is not None]
            if not errors:
                continue
            if sum(errors) / len(errors) <= threshold:
                k_hit = k
                hit_rows = by_k[k]
                break
        if k_hit is None:
            out.append(KempRow(n, m, eta, None, None, None, None, None))
            continue

        def cell_mean(col: str) -> float | None:
            values = [v for v in (_try_float(r[col]) for r in hit_rows) if v is not None]
            return sum(values) / len(values) if values else None

        try:
            rho = rho_eng(BudgetInputs(n=n, k=k_hit, m=m, eta=float(eta)))
        except ValueError:
            rho = None
        out.append(
            KempRow(
                n=n, m=m, eta=eta, k_emp=k_hit, rho=rho,
                image_frac=cell_mean("image_frac"),
                mean_preimage=cell_mean("mean_preimage"),
                codebook=cell_mean("codebook_size"),
            )
        )
    return out


_LIST_FIELDS = {
    "n_list": "n_list", "n": "n_list",
    "k_list": "k_list", "k": "k_list",
    "m_list": "m_list", "m": "m_list",
    "eta_list": "eta_list", "eta": "eta_list",
}
_INT_FIELDS = {
    "trials": "trials",
    "anchor_resamples": "anchor_resamples", "resamples": "anchor_resamples",
    "r": "r",
    "seed": "seed",
}
_STR_FIELDS = {
    "quantizer": "quantizer",
    "feature": "feature",
    "anchor_strategy": "anchor_strategy", "strategy": "anchor_strategy",
}


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _tokens(value: str) -> list[str]:
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        value = value[1:-1]
    parts = [p.strip().strip('"') for p in value.split(",")]
    return [p for p in parts if p]


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the key=value sweep grid format.

    One `key = value` per line; `#` starts a comment; list values are
    bracketed or bare comma lists. eta values keep their exact decimal
    spelling. Unknown keys are rejected.
    """
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ValueError(f"config line {lineno}: empty value for {key!r}")
        if key in _LIST_FIELDS:
            field = _LIST_FIELDS[key]
            tokens = _tokens(value)
            if field == "eta_list":
                fields[field] = tuple(tokens)
            else:
                try:
                    fields[field] = tuple(int(t) for t in tokens)
                except ValueError as exc:
                    raise ValueError(
                        f"config line {lineno}: {field} needs integers"
                    ) from exc
        elif key in _INT_FIELDS:
            try:
                fields[_INT_FIELDS[key]] = int(value.strip('"'))
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {key} needs an integer") from exc
        elif key in _STR_FIELDS:
            fields[_STR_FIELDS[key]] = value.strip('"')
        elif key == "scaled":
            token = value.strip('"').lower()
            if token not in ("true", "false"):
                raise ValueError(f"config line {lineno}: scaled needs true or false")
            fields["scaled"] = token == "true"
        elif key in ("error_threshold", "threshold"):
            try:
                fields["error_threshold"] = float(value.strip('"'))
            except ValueError as exc:
                raise ValueError(
                    f"config line {lineno}: error_threshold needs a number"
                ) from exc
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    for required in ("n_list", "k_list", "m_list", "eta_list"):
        if required not in fields:
            raise ValueError(f"config is missing {required}")
    return SweepConfig(**fields)  # type: ignore[arg-type]
