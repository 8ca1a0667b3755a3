"""Trial execution, parameter sweeps, anchor strategies, empirical anchor
thresholds, and deterministic CSV export and read-back.

Seeds derive from the master seed so that every row is reproducible in
isolation: the graph of (n, r, trial) is shared by every configuration that
touches it, and anchor draws depend only on (graph, k, strategy, resample).
That keeps graph instances and anchor resamples identical across embedding
regimes, which the bucketwise comparisons rely on.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import (
    _WORD_BITS, AnchorSet, Graph, _bfs, _check_regular, anchor_profile, bfs_distances,
    random_regular,
)
from .observation import (
    AnchorStage,
    BoundReport,
    BucketDiagnostics,
    FiberStats,
    anchor_stage,
    build_observation,
    bucket_diagnostics,
    evaluate_rows,
    fiber_stats,
    sequential_sum,
)
from .spectral import (
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
from .theory import bound_report, rho_eng

__all__ = [
    "QUANTIZERS",
    "FEATURES",
    "STRATEGIES",
    "CSV_COLUMNS",
    "DEFAULT_THRESHOLD",
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

_FAILURE_MARKER = "error"
_NA = "n/a"

# The mean error at or below which an anchor count counts as enough (k_emp).
DEFAULT_THRESHOLD = 0.1

# Fields that name a grid cell; records sharing them aggregate together.
_GRID_FIELDS = (
    "n", "r", "k", "m", "eta", "quantizer", "scaled", "feature", "anchor_strategy",
)

_AGGREGATED_METRICS = (
    "error", "image_frac", "mean_preimage", "singleton_frac",
    "codebook_size", "profile_count", "singleton_bucket_frac",
    "weighted_collision", "median_code_ratio", "q90_balance",
    "generic_bound", "refined_bound",
)

# Vertex-rows one evaluate_rows batch holds at most: _GraphCodes.rows hands
# it as many consecutive rows as fit, and at least one: 32 rows at n = 500,
# 8 at 2000, 2 at 6000 and one from n = 16 384 up, so a large graph holds no
# more than one row's arrays at a time. On a 2-core x86-64 VM, best of 10 to
# 200 runs, ms for 48 rows of one cubic graph (6 anchor sets x 8 code
# tables) with their records, in batches of B rows, against each row refined
# into its own table and evaluated alone (alone):
#   n       B=1   B=2   B=4   B=8   B=16  B=32  B=48  alone
#   500     7.6   4.7   3.2   2.4   2.0   1.9   2.0   4.3
#   2000    9.8   6.8   5.2   5.0   5.7   5.8   6.3   8.3
#   6000    15.0  13.1  11.4  12.3  11.9  11.9  16.1  16.4
#   20000   32.6  31.3  30.4  29.7  37.1  45.0  43.2  49.8
# Past about 16 000 vertex-rows a batch gains little, and it loses at large
# n, where rows padded and sorted together cost more than they save.
_BATCH_VERTEX_ROWS = 1 << 14


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


def _eta(text: str) -> str:
    """text, once it reads as a positive, finite decimal number."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"eta {text!r} is not a decimal number") from exc
    if not math.isfinite(value):
        raise ValueError(f"eta must be finite, got {text!r}")
    if not value > 0:
        raise ValueError(f"eta must be positive, got {text!r}")
    return text


def _choice(name: str, choices: tuple[str, ...]) -> Callable[[str], str]:
    """A check that returns its value when it is one of choices."""
    def check(value: str) -> str:
        if value not in choices:
            raise ValueError(f"unknown {name} {value!r}")
        return value
    return check


# The rule each option field's value meets wherever it comes from: a
# ConfigPoint (every sweep cell and analyze row) or a CSV cell. Each check
# returns the value it accepts and raises ValueError otherwise.
_OPTION_CHECKS: dict[str, Callable[[str], str]] = {
    "eta": _eta,
    "quantizer": _choice("quantizer", QUANTIZERS),
    "feature": _choice("feature", FEATURES),
    "anchor_strategy": _choice("anchor strategy", STRATEGIES),
}


def _grid_key(source: object) -> tuple:
    """The _GRID_FIELDS values of source."""
    return tuple(getattr(source, f) for f in _GRID_FIELDS)


@dataclass(frozen=True)
class ConfigPoint:
    """The identity of one row: a sweep grid cell with its trial and
    resample indices, or one anchor resample of a supplied graph.

    r is the degree of the random regular graph the row is drawn on, None
    for a supplied graph; a set (n, r) meets random_regular's rules
    (graphs._check_regular). m+1 is at most n, the eigenpairs the solve
    takes. eta is carried as its exact decimal string. feature selects
    which observation components are active: nope drops both, distance
    keeps anchors only, spectral keeps codes only, full keeps both.
    """

    n: int
    r: int | None
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
        if self.r is not None:
            _check_regular(self.n, self.r)
        if self.k < 0 or self.k > self.n:
            raise ValueError(f"k={self.k} must lie in [0, n={self.n}]")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.m + 1 > self.n:  # the solve's m+1 eigenpairs
            raise ValueError(f"m={self.m} needs at least {self.m + 1} vertices, n={self.n}")
        for name, check in _OPTION_CHECKS.items():
            check(getattr(self, name))
        if self.trial < 0 or self.resample < 0:
            raise ValueError("trial and resample indices must be non-negative")

    def effective_dims(self) -> tuple[int, int]:
        """(active anchor count, active embedding width) under the feature."""
        k = self.k if self.feature in ("distance", "full") else 0
        m = self.m if self.feature in ("spectral", "full") else 0
        return k, m

    def grid_key(self) -> tuple:
        return _grid_key(self)


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for run_sweep.

    The grid is the product of nine axes, one per grid field in _GRID_FIELDS
    order: n_list x r_list x k_list x m_list x eta_list x quantizer_list x
    scaled_list x feature_list x anchor_strategy_list. Every cell runs
    `trials` independent graphs with `anchor_resamples` anchor draws each,
    and all cells of one (n, r) share their graphs. Each axis value reads as
    its CSV cell does, so eta values are decimal strings that keep their
    exact spelling, and "false" on the scaled axis is False.
    """

    n_list: Sequence[int]
    k_list: Sequence[int]
    m_list: Sequence[int]
    eta_list: Sequence[str]
    trials: int = 20
    anchor_resamples: int = 1
    r_list: Sequence[int] = (3,)
    quantizer_list: Sequence[str] = ("absolute",)
    scaled_list: Sequence[bool] = (True,)
    feature_list: Sequence[str] = ("full",)
    anchor_strategy_list: Sequence[str] = ("random",)
    seed: int = 0

    def __post_init__(self) -> None:
        # An axis value decodes as its CSV column does, which puts the
        # option axes through _OPTION_CHECKS.
        decoders = {column: decode for column, _, decode, _ in _CSV_CODECS}
        for name in _GRID_FIELDS:
            field = f"{name}_list"
            values = getattr(self, field)
            if isinstance(values, str):
                raise ValueError(f"{field} takes a list of values, not the string {values!r}")
            axis = tuple(decoders[name](str(v)) for v in values)
            if not axis:
                raise ValueError(f"{field} must be non-empty")
            object.__setattr__(self, field, axis)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.anchor_resamples < 1:
            raise ValueError("anchor_resamples must be at least 1")
        # The grid is valid when each distinct cell is: the first bad one
        # raises the ConfigPoint's own message.
        for cell in self._cells():
            ConfigPoint(*cell)

    def _cells(self, *indices: range) -> Iterator[tuple]:
        """The product of the axes in _GRID_FIELDS order, each sorted (eta
        by value), then of indices."""
        axes = [
            sorted(set(getattr(self, f"{name}_list")),
                   key=(lambda e: (float(e), e)) if name == "eta" else None)
            for name in _GRID_FIELDS
        ]
        return itertools.product(*axes, *indices)

    def points(self) -> Iterator[ConfigPoint]:
        """Grid cells in the deterministic output order: config
        lexicographic in _GRID_FIELDS order (eta ordered numerically), then
        trial, then resample."""
        cells = self._cells(range(self.trials), range(self.anchor_resamples))
        return itertools.starmap(ConfigPoint, cells)


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One executed grid cell: the ConfigPoint fields, the graph seed, and
    the metrics. Metric fields are None when the trial failed (failure holds
    the reason) or when a diagnostic is inapplicable."""

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
    error: float | None = None
    image_frac: float | None = None
    mean_preimage: float | None = None
    singleton_frac: float | None = None
    codebook_size: int | None = None
    profile_count: int | None = None
    singleton_bucket_frac: float | None = None
    weighted_collision: float | None = None
    median_code_ratio: float | None = None
    q90_balance: float | None = None
    generic_bound: int | None = None
    refined_bound: float | None = None
    bounds_ok: bool | None = None
    wall_time_ms: float | None = None
    degenerate: bool = False
    failure: str | None = None

    def grid_key(self) -> tuple:
        return _grid_key(self)


# The CSV schema: every TrialRecord field but the two the CSV does not write.
CSV_COLUMNS = tuple(
    f.name for f in dataclasses.fields(TrialRecord) if f.name not in ("degenerate", "failure")
)
# Metric columns; a failed trial writes the failure marker in each of them.
_METRIC_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("error"):]


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
    """Records in grid order; aggregates, keyed by grid cell, are computed
    from them on first access."""

    config: SweepConfig
    records: tuple[TrialRecord, ...]

    @cached_property
    def aggregates(self) -> Mapping[tuple, Aggregate]:
        return _aggregate(self.records)


@dataclass(frozen=True)
class InstanceReport:
    """Everything measured on one (graph, anchors, codes) instance."""

    stats: FiberStats
    diagnostics: BucketDiagnostics
    bounds: BoundReport
    codebook: int
    degenerate: bool


def select_anchors(g: Graph, k: int, strategy: str, seed: int) -> AnchorSet:
    """Draw k anchors by the named strategy; k = 0 gives the empty set
    under every strategy.

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
        return AnchorSet(tuple(np.argsort(-g.degrees(), kind="stable")[:k].tolist()))
    if strategy == "random":
        picks = np.random.default_rng(seed).choice(g.n, size=k, replace=False)
        return AnchorSet(tuple(int(v) for v in picks))
    chosen = [int(np.random.default_rng(seed).integers(g.n))]
    min_dist = bfs_distances(g, chosen[0])
    while len(chosen) < k:
        chosen.append(int(np.argmax(min_dist)))  # first max: smallest id wins ties
        np.minimum(min_dist, bfs_distances(g, chosen[-1]), out=min_dist)
    return AnchorSet(tuple(chosen))


class _GraphCodes:
    """The per-graph work object: one eigensolve and the code tables of one
    graph, and the one evaluation of its rows (rows).

    Every m is cut by energy_embedding from a single eigensolve at m_max,
    the largest m the caller needs, solved on first use, so m=0 work never
    pays it. Each code table (m, eta, quantizer, scaled) is built once and
    carries its own degeneracy flag; one that fails is kept as its
    exception.
    """

    def __init__(self, g: Graph, m_max: int) -> None:
        self.g = g
        self.m_max = m_max
        self._basis: SpectralBasis | None = None
        self._codes: dict[tuple, QuantizedCodes | Exception] = {}

    def basis(self) -> SpectralBasis:
        """The bottom m_max+1 eigenpairs, solved on the first call."""
        if self._basis is None:
            self._basis = low_frequency_basis(normalized_laplacian(self.g), self.m_max)
        return self._basis

    def get(self, m: int, eta: float, quantizer: str,
            scaled: bool) -> QuantizedCodes | Exception:
        """The code table of one spectral configuration, flagged as its
        embedding is, or the exception that failed it; either is built once."""
        key = (m, eta, quantizer, scaled)
        if key not in self._codes:
            quantize = quantize_absolute if quantizer == "absolute" else quantize_relative
            try:
                emb = (energy_embedding(self.basis(), m, scaled) if m
                       else empty_embedding(self.g.n, scaled))
                self._codes[key] = quantize(emb, eta)
            except Exception as exc:
                # Kept without its traceback, whose frames would hold self.
                self._codes[key] = exc.with_traceback(None)
        return self._codes[key]

    def rows(
        self, points: Sequence[ConfigPoint], seed: int
    ) -> Iterator[InstanceReport | Exception]:
        """Each point's InstanceReport, or the exception that failed it, in
        points' order: its code table refining its anchor stage, drawn from
        anchor_seed_for(seed, ...). Every anchor set, empty ones included,
        is drawn once by select_anchors, in order of first use; one _bfs
        call searches the distinct anchors of consecutive sets, up to
        _WORD_BITS, and each stage takes its own set's columns. A failed
        draw is its set's failure; when a search fails, each of its sets
        searches alone, failing with its own message. Each stage is built
        once for the consecutive rows sharing it, after the row's code
        table; a row whose table failed builds no stage and yields the
        table's failure. A failed table or stage is yielded, never raised,
        as one exception object. The other rows go to evaluate_rows in
        batches of consecutive rows, as many as fit _BATCH_VERTEX_ROWS
        vertex-rows and at least one; a failed row ends the batch before it.
        Timing each request charges the first row with every draw, and the
        first row of a batch with its evaluation and with the tables,
        stages and joint searches its rows first build."""
        ids = [(p.k, p.anchor_strategy, p.resample) for p in points]
        seeds = {i: anchor_seed_for(seed, *i) for i in dict.fromkeys(ids)}
        keys = [(p.effective_dims()[0], p.anchor_strategy, seeds[i])
                for p, i in zip(points, ids)]
        drawn = {key: self._draw(*key) for key in dict.fromkeys(keys)}
        chunk: dict[tuple, tuple[np.ndarray, np.ndarray] | None] = {}
        per_batch = max(_BATCH_VERTEX_ROWS // self.g.n, 1)
        batch: list[tuple[AnchorStage, QuantizedCodes]] = []
        built = stage = None
        for point, key in zip(points, keys):
            codes = self.get(point.effective_dims()[1], float(point.eta),
                             point.quantizer, point.scaled)
            if not isinstance(codes, Exception) and key != built:
                built, stage = key, None  # release the old stage before building
                stage = self._build_stage(key, drawn, chunk)
            failure = codes if isinstance(codes, Exception) else stage
            if isinstance(failure, Exception):
                yield from _evaluated(batch)
                batch = []
                yield failure
                continue
            batch.append((stage, codes))
            if len(batch) == per_batch:
                yield from _evaluated(batch)
                batch = []
        yield from _evaluated(batch)

    def _draw(self, k: int, strategy: str, seed: int) -> AnchorSet | Exception:
        """The anchor set of (k, strategy, seed), or the exception that
        failed its draw."""
        try:
            return select_anchors(self.g, k, strategy, seed)
        except Exception as exc:
            return exc

    def _build_stage(self, key: tuple, drawn: dict, chunk: dict) -> AnchorStage | Exception:
        """key's anchor stage, or the exception that failed it; chunk holds
        the last joint search and is replaced when it misses key's set."""
        anchors = drawn[key]
        if isinstance(anchors, Exception):
            return anchors
        try:
            if key not in chunk:
                chunk.clear()  # release the old distances before searching
                chunk.update(self._search_from(key, drawn))
            if chunk[key] is None:  # the set's own search names its own failure
                return anchor_stage(anchor_profile(self.g, anchors))
            distances, columns = chunk[key]
            return anchor_stage(distances[:, columns].astype(np.int64))
        except Exception as exc:
            return exc

    def _search_from(self, key: tuple, drawn: dict) -> dict:
        """The drawn sets from key's on whose distinct anchors, at most
        _WORD_BITS (or key's set), one _bfs call searches: each maps to the
        distances and its columns, or to None if the search failed."""
        keys = list(drawn)
        sources: dict[int, int] = {}  # anchor -> column
        members = {}
        for later in keys[keys.index(key):]:
            anchors = drawn[later]
            if isinstance(anchors, Exception):
                continue
            fresh = [a for a in anchors.anchors if a not in sources]
            # More sources per call would hold more distances and make no search cheaper.
            if members and len(sources) + len(fresh) > _WORD_BITS:
                break
            for a in fresh:
                sources[a] = len(sources)
            members[later] = np.array([sources[a] for a in anchors.anchors], dtype=np.intp)
        try:
            distances = _bfs(self.g, list(sources))
        except Exception:
            return dict.fromkeys(members)
        return {later: (distances, columns) for later, columns in members.items()}


def _evaluated(batch: list[tuple[AnchorStage, QuantizedCodes]]) -> list[InstanceReport | Exception]:
    """Each (stage, codes) row's InstanceReport from one evaluate_rows call;
    an evaluation that fails is every row's failure."""
    try:
        evaluated = evaluate_rows([(stage, codes.groups) for stage, codes in batch])
        return [InstanceReport(*report, codebook_size(codes), codes.degenerate)
                for report, (_, codes) in zip(evaluated, batch)]
    except Exception as exc:
        return [exc] * len(batch)


def evaluate_instance(g: Graph, anchors: AnchorSet, codes: QuantizedCodes) -> InstanceReport:
    """Observation table statistics, bucket diagnostics, and bounds for one
    fully specified instance; the report is degenerate when the codes are,
    that is when their basis has near-degenerate eigenvalues at their m.
    The table's diagnostics are its one row of evaluate_rows."""
    table = build_observation(g, anchors, codes)
    return InstanceReport(fiber_stats(table), bucket_diagnostics(table),
                          bound_report(table, codes), codebook_size(codes), codes.degenerate)


def _records(graph_codes: _GraphCodes, points: Sequence[ConfigPoint],
             seed: int) -> Iterator[TrialRecord | Exception]:
    """graph_codes.rows as records, each timed from its request to its
    report (rows says what a row is charged with), and exceptions."""
    reports = graph_codes.rows(points, seed)
    for point in points:
        start = time.perf_counter()
        report = next(reports)
        wall_ms = (time.perf_counter() - start) * 1000.0
        yield report if isinstance(report, Exception) else _record(point, seed, report, wall_ms)
        del report  # release it before the next row is built


def _record(point: ConfigPoint, seed: int, report: InstanceReport, wall_ms: float) -> TrialRecord:
    """The one record builder: point's row from its report and its wall
    time in ms. seed is the seed the record carries, the base of its
    anchor seed."""
    stats = report.stats
    base = report.diagnostics.level(2)
    bounds = report.bounds
    if bounds.refined_satisfied is None:
        bounds_ok = bounds.generic_satisfied
    else:
        bounds_ok = bounds.generic_satisfied and bounds.refined_satisfied
    return TrialRecord(
        **_point_identity(point),
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
    """The identity fields of a TrialRecord, which are ConfigPoint's fields:
    the names in its __match_args__, which dataclass sets to its fields in
    order, read without the walk dataclasses.fields makes on every call."""
    return {name: getattr(point, name) for name in ConfigPoint.__match_args__}


def _failure_record(point: ConfigPoint, seed: int, reason: str) -> TrialRecord:
    return TrialRecord(**_point_identity(point), seed=seed, failure=reason)


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
    graph_codes: _GraphCodes | None = None,
) -> list[TrialRecord]:
    """Evaluate one graph under repeated anchor resamples.

    Resample i is the row ConfigPoint(g.n, r, ..., feature="full",
    trial=0, resample=i), so it draws anchors from anchor_seed_for(seed, k,
    strategy, i). The spectral part is computed once (it does not depend
    on the anchor draw). Records carry the given seed. A caller that also
    needs the basis passes its own _GraphCodes(g, m) and reads
    graph_codes.basis() afterwards, so the graph is solved once.
    """
    if k < 1:
        raise ValueError("anchor count must be at least 1")
    if resamples < 1:
        raise ValueError("resamples must be at least 1")
    points = [
        ConfigPoint(g.n, r, k, m, eta, quantizer, scaled, "full", anchor_strategy, 0, i)
        for i in range(resamples)
    ]
    if graph_codes is None:
        graph_codes = _GraphCodes(g, m)
    records = []
    for rec in _records(graph_codes, points, seed):
        if isinstance(rec, Exception):
            raise rec
        records.append(rec)
    return records


def _run_job(
    master_seed: int, n: int, r: int, trial: int,
    indexed_points: list[tuple[int, ConfigPoint]],
) -> list[tuple[int, TrialRecord]]:
    """Execute all points sharing one graph (n, r, trial).

    The points of one anchor set run together, so its anchor stage is built
    once and dropped with the last batch of rows that reads it; records
    keep their indices.
    """
    gseed = graph_seed_for(master_seed, n, r, trial)
    try:
        g = random_regular(n, r, gseed)
    except Exception as exc:
        return [(i, _failure_record(p, gseed, str(exc))) for i, p in indexed_points]
    graph_codes = _GraphCodes(g, max(p.effective_dims()[1] for _, p in indexed_points))
    ordered = sorted(indexed_points, key=lambda item: (
        item[1].effective_dims()[0], item[1].k, item[1].anchor_strategy, item[1].resample))
    records = _records(graph_codes, [point for _, point in ordered], gseed)
    return [
        (idx, _failure_record(point, gseed, str(rec)) if isinstance(rec, Exception) else rec)
        for (idx, point), rec in zip(ordered, records)
    ]


def _aggregate(records: Sequence[TrialRecord]) -> dict[tuple, Aggregate]:
    groups: dict[tuple, list[TrialRecord]] = defaultdict(list)
    for rec in records:
        groups[rec.grid_key()].append(rec)
    out: dict[tuple, Aggregate] = {}
    for key, group in groups.items():
        ok = [rec for rec in group if rec.failure is None]
        means, stds, available = {}, {}, {}
        for metric in _AGGREGATED_METRICS:
            values = [float(v) for v in (getattr(rec, metric) for rec in ok) if v is not None]
            available[metric] = len(values)
            if values:
                mean = sequential_sum(values) / len(values)
                var = sequential_sum((v - mean) ** 2 for v in values) / len(values)
                means[metric] = mean
                stds[metric] = math.sqrt(max(var, 0.0))
        out[key] = Aggregate(len(group), len(group) - len(ok), means, stds, available)
    return out


def _run_jobs(batch_list: list[tuple], jobs: int | None) -> Iterator[list]:
    """Each batch's _run_job result: in order in this process when jobs is
    at most 1 or there is one batch, else in completion order from a pool
    of jobs worker processes."""
    if jobs is None or jobs <= 1 or len(batch_list) <= 1:
        yield from itertools.starmap(_run_job, batch_list)
        return
    # concurrent.futures loads its process pool (and multiprocessing) on
    # this first attribute access, so serial sweeps never import it.
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_job, *args) for args in batch_list]
        for fut in concurrent.futures.as_completed(futures):
            yield fut.result()


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
    batches: dict[tuple[int, int, int], list[tuple[int, ConfigPoint]]] = defaultdict(list)
    for idx, point in enumerate(points):
        batches[(point.n, point.r, point.trial)].append((idx, point))
    batch_list = [(cfg.seed, *graph, indexed) for graph, indexed in sorted(batches.items())]
    records: list[TrialRecord | None] = [None] * len(points)
    for done, job in enumerate(_run_jobs(batch_list, jobs), 1):
        for idx, rec in job:
            records[idx] = rec
        if progress is not None:
            progress(done, len(batch_list))
    final = tuple(records)  # type: ignore[arg-type]
    return SweepResult(config=cfg, records=final)


def _match_eta(cfg: SweepConfig, eta: str | float) -> str:
    if eta in cfg.eta_list:
        return eta  # type: ignore[return-value]
    value = float(_eta(str(eta)))
    candidates = [e for e in cfg.eta_list if float(e) == value]
    if not candidates:
        raise ValueError(f"eta {eta!r} not in the sweep grid")
    return candidates[0]


def _threshold_k(mean_errors: Mapping[int, float | None], threshold: float) -> int | None:
    """The k_emp rule: the smallest k whose mean error is at or below the
    threshold. A k cell with no usable rows (mean None) cannot qualify;
    None when no k does (no extrapolation beyond the grid)."""
    for k in sorted(mean_errors):
        mean = mean_errors[k]
        if mean is not None and mean <= threshold:
            return k
    return None


@dataclass(frozen=True)
class KempRow:
    """Anchor threshold of one (n, m, eta) in one setting (r, quantizer,
    scaled, feature, anchor_strategy). The metrics are means over the
    successful rows at k_emp, all None when no tested k meets the threshold;
    rho is the budget ratio at k_emp (None when n is too small for it)."""

    n: int
    m: int
    eta: str
    k_emp: int | None
    rho: float | None
    image_frac: float | None
    mean_preimage: float | None
    codebook: float | None
    r: int | None
    quantizer: str
    scaled: bool
    feature: str
    anchor_strategy: str


def _kemp_rows(aggregates: Mapping[tuple, Aggregate], threshold: float) -> list[KempRow]:
    """The k_emp table of grid-cell aggregates, one row per grid key without
    k: by setting, then by n, m and eta (by value, then spelling)."""
    cells: dict[tuple, dict[int, Aggregate]] = defaultdict(dict)
    for key, agg in aggregates.items():
        fields = dict(zip(_GRID_FIELDS, key))
        k = fields.pop("k")
        cells[tuple(fields.items())][k] = agg
    out = []
    for cell, by_k in cells.items():
        fields = dict(cell)
        k_hit = _threshold_k({k: agg.means.get("error") for k, agg in by_k.items()}, threshold)
        means, rho = {}, None
        if k_hit is not None:
            means = by_k[k_hit].means
            rho = rho_eng(fields["n"], k_hit, fields["m"], float(fields["eta"]))
        out.append(KempRow(
            **fields, k_emp=k_hit, rho=rho, image_frac=means.get("image_frac"),
            mean_preimage=means.get("mean_preimage"), codebook=means.get("codebook_size"),
        ))
    return sorted(out, key=lambda row: (
        row.r is None, row.r or 0, row.quantizer, row.scaled, row.feature,
        row.anchor_strategy, row.n, row.m, float(row.eta), row.eta,
    ))


def kemp_table(records: Sequence[TrialRecord], threshold: float) -> list[KempRow]:
    """Anchor thresholds per grid cell without k, from trial records such as
    read_csv_rows returns. Records aggregate by grid key as a SweepResult's
    do: a k cell without successful records cannot qualify, and eta groups
    by its exact string."""
    return _kemp_rows(_aggregate(records), threshold)


def k_emp(
    result: SweepResult, n: int, m: int, eta: str | float,
    threshold: float = DEFAULT_THRESHOLD,
) -> int | None:
    """Smallest tested k whose mean error is at or below the threshold: the
    (n, m, eta) row of the sweep's kemp table; None when no tested k does.
    Raises ValueError when the sweep holds that cell in more than one
    setting (r, quantizer, scaled, feature, anchor_strategy); kemp_table
    gives each setting its own row."""
    eta_key = _match_eta(result.config, eta)
    rows = [
        row for row in _kemp_rows(result.aggregates, threshold)
        if (row.n, row.m, row.eta) == (n, m, eta_key)
    ]
    if not rows:
        raise ValueError(f"n={n} m={m} eta={eta_key} is not in the sweep grid")
    if len(rows) > 1:
        settings = "; ".join(
            f"r={row.r} quantizer={row.quantizer} scaled={row.scaled} "
            f"feature={row.feature} strategy={row.anchor_strategy}" for row in rows
        )
        raise ValueError(
            f"n={n} m={m} eta={eta_key} holds {len(rows)} settings ({settings}); "
            "use kemp_table for one row per setting")
    return rows[0].k_emp


def _parse_bool(text: str) -> bool:
    """The one grammar of a boolean: in a config file, a flag or a CSV cell."""
    token = text.strip().lower()
    if token in ("true", "1", "yes"):
        return True
    if token in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


# How each TrialRecord field kind, its annotation less "| None", is written
# to a CSV cell and read back: ints in decimal, floats with 17 significant
# digits, booleans as true/false. None (an inapplicable diagnostic) is
# written n/a, and only a "| None" field reads n/a back.
_KIND_CODECS: dict[str, tuple[Callable[[object], str], Callable[[str], object]]] = {
    "int": (lambda v: str(int(v)), int),
    "float": (lambda v: format(v, ".17g"), float),
    "bool": (lambda v: "true" if v else "false", _parse_bool),
    "str": (str, str),
}


def _column_codec(field: dataclasses.Field) -> tuple:
    """(column, encode, decode, reads n/a) of one CSV column; an option
    column decodes through its option check."""
    kind = field.type.removesuffix(" | None")
    encode, decode = _KIND_CODECS[kind]
    return field.name, encode, _OPTION_CHECKS.get(field.name, decode), kind != field.type


# One codec per CSV column, in CSV_COLUMNS order, which is the order of
# TrialRecord's leading fields, so decoded cells fill a record by position.
_CSV_CODECS = tuple(
    _column_codec(f) for f in dataclasses.fields(TrialRecord) if f.name in CSV_COLUMNS
)


def write_records_csv(
    records: Sequence[TrialRecord], path: str, include_timing: bool = False
) -> None:
    """Write trial records as CSV in the fixed column order, each cell by
    its field kind's codec (_KIND_CODECS), which read_csv_rows reads back.

    A failed trial fills its metric columns with the failure marker.
    wall_time_ms is "n/a" unless include_timing is set, which keeps re-runs
    of the same config byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            row = []
            for col, encode, _, _ in _CSV_CODECS:
                value = getattr(rec, col)
                if rec.failure is not None and col in _METRIC_COLUMNS:
                    row.append(_FAILURE_MARKER)
                elif value is None or (col == "wall_time_ms" and not include_timing):
                    row.append(_NA)
                else:
                    row.append(encode(value))
            writer.writerow(row)


def write_csv(result: SweepResult, path: str, include_timing: bool = False) -> None:
    """Write a sweep result as CSV; see write_records_csv for the format."""
    write_records_csv(result.records, path, include_timing=include_timing)


def read_csv_rows(path: str) -> list[TrialRecord]:
    """Read a trial-record CSV back as TrialRecords: n/a cells read as None,
    and a row whose metric columns all hold the failure marker reads as a
    failed record, failure holding the marker. Raises CsvFormatError when
    the header misses schema columns, the file has no data rows, or a cell
    does not parse, naming the cell's 1-based line and its column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise CsvFormatError(f"{path}: missing columns {missing}")
        columns = [(header.index(name), decode, na) for name, _, decode, na in _CSV_CODECS]
        identity = columns[: len(CSV_COLUMNS) - len(_METRIC_COLUMNS)]
        metric_at = [header.index(c) for c in _METRIC_COLUMNS]
        records = []
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise CsvFormatError(f"{where}: {len(row)} cells, header has {len(header)}")
            failed = all(row[i] == _FAILURE_MARKER for i in metric_at)
            values: list[object] = []
            try:
                for i, decode, na in identity if failed else columns:
                    values.append(None if na and row[i] == _NA else decode(row[i]))
            except ValueError:
                name = CSV_COLUMNS[len(values)]  # the column that did not parse
                raise CsvFormatError(
                    f"{where}: column {name}: cannot read {row[header.index(name)]!r}") from None
            records.append(TrialRecord(*values, failure=_FAILURE_MARKER if failed else None))
    if not records:
        raise CsvFormatError(f"{path}: no data rows")
    return records


# Config keys onto the SweepConfig fields they set: every field's own name,
# each axis's name without _list, and the short names that the sweep
# command's flags also use.
_SWEEP_KEYS = {
    **{f.name: f.name for f in dataclasses.fields(SweepConfig)},
    **{f.name.removesuffix("_list"): f.name for f in dataclasses.fields(SweepConfig)},
    "resamples": "anchor_resamples", "strategy": "anchor_strategy_list",
}


def _tokens(value: str) -> list[str]:
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        value = value[1:-1]
    parts = [p.strip().strip('"') for p in value.split(",")]
    return [p for p in parts if p]


def parse_sweep_config(text: str, flags: Mapping[str, object] | None = None) -> SweepConfig:
    """The SweepConfig of the key = value sweep grid format, where flags,
    keyed by field name, override the fields the text sets.

    One `key = value` per line; `#` starts a comment; list values are
    bracketed or bare comma lists. Each axis token reads as its CSV column
    does, so eta values keep their exact decimal spelling; trials,
    resamples and seed read as integers. Unknown keys and values that do
    not read are rejected, naming the line.
    """
    decoders = {column: decode for column, _, decode, _ in _CSV_CODECS}
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ValueError(f"config line {lineno}: empty value for {key!r}")
        if key not in _SWEEP_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        field = _SWEEP_KEYS[key]
        axis = field.endswith("_list")
        decode = decoders[field.removesuffix("_list")] if axis else int
        values = []
        for token in _tokens(value) if axis else [value.strip('"')]:
            try:
                values.append(decode(token))
            except ValueError:
                raise ValueError(
                    f"config line {lineno}: {key}: cannot read {token!r}") from None
        fields[field] = tuple(values) if axis else values[0]
    fields.update(flags or {})
    for field in ("n_list", "k_list", "m_list", "eta_list"):
        if field not in fields:
            key = field.removesuffix("_list")
            raise ValueError(f"{field} missing: pass --{key} or set {key} in --config")
    return SweepConfig(**fields)  # type: ignore[arg-type]

