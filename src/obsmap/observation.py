"""Observation tables: joint anchor-distance / spectral-code fibers,
identifiability statistics, and per-bucket collision diagnostics.

A vertex's observation is the pair (distance profile, code row). Vertices
sharing a full observation form a fiber; vertices sharing just the distance
profile form a bucket, so the spectral codes refine the buckets. The best
possible reconstruction answers one vertex per fiber, which makes the
optimal error 1 - (number of fibers) / n.

A table is built in two stages, each at most one call of the grouping
kernel over an int64 matrix. The anchor stage groups the profile matrix into
buckets; it depends only on the graph and the anchors, so one stage serves
every code table. The refinement stage groups bucket ids beside the code
ids of the code table, whose rows are grouped once per table, into fibers.
Every statistic is computed from group ids and sizes, and bucket aggregates
are built only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .graphs import AnchorSet, Graph, anchor_profile

if TYPE_CHECKING:
    from .spectral import QuantizedCodes

__all__ = [
    "Groups",
    "AnchorStage",
    "ObservationTable",
    "FiberStats",
    "BucketLevel",
    "BucketDiagnostics",
    "BUCKET_CUTOFFS",
    "anchor_stage",
    "refine_observation",
    "build_observation",
    "fiber_stats",
    "min_id_section",
    "section_success",
    "bucket_diagnostics",
    "sequential_sum",
]

# Bucket-size cutoffs reported by bucket_diagnostics. The base cutoff 2
# covers all non-singleton buckets; the larger ones isolate buckets where
# collisions have room to matter.
BUCKET_CUTOFFS = (2, 3, 10)

# Ceiling of the packed int64 row key; below 2**63 with room to spare.
_KEY_LIMIT = 1 << 62


@dataclass(frozen=True, eq=False)
class Groups:
    """The partition of matrix rows into groups of equal rows.

    Groups are numbered in order of first appearance: ids[v] is the group of
    row v, first[i] the smallest row in group i, and sizes[i] its size.
    """

    ids: np.ndarray
    first: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return self.sizes.size


def _sorted_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An ascending order of a non-empty int64 array, and the mask of the
    positions in that order where a run of equal values starts."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return order, starts


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each value among the distinct values of a non-empty int64
    array, and the number of distinct values."""
    order, starts = _sorted_runs(values)
    runs = np.cumsum(starts)
    rank = np.empty(values.size, dtype=np.int64)
    rank[order] = runs - 1
    return rank, int(runs[-1])


def _group_rows(matrix: np.ndarray) -> Groups:
    """Group the equal rows of an (n, w) integer matrix.

    Packs each row into one int64 key, column by column: the key so far
    times the column's value span, plus the column value minus its minimum.
    Before the key could reach _KEY_LIMIT it is replaced by its rank among
    the distinct keys so far, and if that is still too wide the column is
    replaced by its rank too; ranks never exceed n, so any n below 2**31
    fits. w = 0 puts every row in one group.

    Equal rows have equal keys, so one sort of the key lays each group out
    as one run. The sort need not be stable: ties are rows of one group, so
    their order inside the run can change neither the run nor its smallest
    row, and groups are numbered by that smallest row, not by where the
    sort put them.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    n, w = matrix.shape
    if n == 0:
        empty = np.zeros(0, dtype=np.intp)
        return Groups(ids=empty, first=empty, sizes=empty)
    key = np.zeros(n, dtype=np.int64)
    bound = 1  # key values lie in [0, bound)
    for j in range(w):
        col = matrix[:, j]
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if bound * span >= _KEY_LIMIT:
            key, bound = _dense_rank(key)
        if bound * span >= _KEY_LIMIT:
            col, span = _dense_rank(col)
            lo = 0
        key = key * span + (col - lo)
        bound *= span
    order, starts = _sorted_runs(key)
    run_starts = np.flatnonzero(starts)
    first = np.minimum.reduceat(order, run_starts)
    sizes = np.diff(run_starts, append=n)
    # Runs lie in key order; renumber them by first appearance.
    by_appearance = np.argsort(first)
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(by_appearance.size)
    ids = np.empty(n, dtype=np.intp)
    ids[order] = np.repeat(rank, sizes)
    return Groups(ids=ids, first=first[by_appearance], sizes=sizes[by_appearance])


@dataclass(frozen=True, eq=False)
class AnchorStage:
    """The distance profiles of one anchor set and their buckets.

    profile_matrix (n, k) is read-only; bucket_groups partitions the
    vertices by profile row.
    """

    profile_matrix: np.ndarray
    bucket_groups: Groups

    @property
    def n(self) -> int:
        return self.profile_matrix.shape[0]


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Per-vertex observations with their fiber and bucket partitions.

    profile_matrix (n, k) and code_matrix (n, m) hold each vertex's distance
    profile and code row, its observation being the two rows side by side;
    fiber_groups partitions the vertices by the full observation and
    bucket_groups by the profile alone.
    """

    n: int
    profile_matrix: np.ndarray
    code_matrix: np.ndarray
    fiber_groups: Groups
    bucket_groups: Groups

    @cached_property
    def diagnostics(self) -> BucketDiagnostics:
        """bucket_diagnostics of this table, computed on first read."""
        buckets = self.bucket_groups
        fibers = self.fiber_groups
        # Every fiber lies in one bucket; its code classes are that bucket's.
        fiber_bucket = buckets.ids[fibers.first]
        code_count = np.bincount(fiber_bucket, minlength=len(buckets))
        c = fibers.sizes
        same = np.bincount(fiber_bucket, weights=c * (c - 1), minlength=len(buckets))
        largest = np.zeros(len(buckets), dtype=np.int64)
        np.maximum.at(largest, fiber_bucket, c)

        # Non-singleton buckets in first-appearance order.
        multi = np.flatnonzero(buckets.sizes > 1)
        size = buckets.sizes[multi]
        code_count = code_count[multi]
        collision = same[multi] / (size * (size - 1))
        balance = (code_count / size) * largest[multi]

        return BucketDiagnostics(
            n=self.n,
            profile_matrix=self.profile_matrix,
            firsts=buckets.first[multi],
            sizes=size,
            code_counts=code_count,
            collisions=collision,
            balances=balance,
            singleton_vertex_fraction=int(np.count_nonzero(buckets.sizes == 1)) / self.n,
        )


@dataclass(frozen=True)
class FiberStats:
    """Identifiability summary of an observation table.

    success is the best attainable exact-recovery rate |image|/n; error is
    its complement. vertex_mean_preimage averages the fiber size seen by a
    uniformly random vertex (sum of squared fiber sizes over n).
    """

    image_size: int
    success: float
    error: float
    vertex_mean_preimage: float
    singleton_fraction: float


@dataclass(frozen=True)
class BucketLevel:
    """Aggregates over buckets at one size cutoff.

    below_cutoff_vertex_fraction is the fraction of vertices living in
    buckets smaller than the cutoff (at cutoff 2: the singleton-bucket
    vertex fraction). The remaining aggregates cover buckets of size at
    least the cutoff and are None when no bucket qualifies.
    """

    cutoff: int
    bucket_count: int
    below_cutoff_vertex_fraction: float
    weighted_collision: float | None
    median_code_ratio: float | None
    q90_balance: float | None


@dataclass(frozen=True, eq=False)
class BucketDiagnostics:
    """Per-bucket arrays plus cutoff-level aggregates.

    The arrays cover the B non-singleton buckets in order of first
    appearance: firsts holds each bucket's smallest vertex, sizes its member
    count b, code_counts its number M of distinct code rows, collisions the
    probability that two distinct members share a code row (ordered pairs
    with equal rows over b(b-1)), and balances (M / b) times its largest
    code-class size (1 for uniform occupancy).

    Built on first read: profiles (B, k), each bucket's distance profile
    (rows of profile_matrix, the table's (n, k) matrix); level(cutoff), the
    BucketLevel of one cutoff in BUCKET_CUTOFFS; levels, all of them in order.
    """

    n: int
    profile_matrix: np.ndarray
    firsts: np.ndarray
    sizes: np.ndarray
    code_counts: np.ndarray
    collisions: np.ndarray
    balances: np.ndarray
    singleton_vertex_fraction: float
    _levels: dict[int, BucketLevel] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def profiles(self) -> np.ndarray:
        return self.profile_matrix[self.firsts]

    def level(self, cutoff: int) -> BucketLevel:
        if cutoff not in BUCKET_CUTOFFS:
            raise KeyError(f"no aggregate at cutoff {cutoff}")
        if cutoff not in self._levels:
            self._levels[cutoff] = _bucket_level(self, cutoff)
        return self._levels[cutoff]

    @cached_property
    def levels(self) -> tuple[BucketLevel, ...]:
        return tuple(self.level(cutoff) for cutoff in BUCKET_CUTOFFS)


def anchor_stage(profile_matrix: np.ndarray) -> AnchorStage:
    """The anchor stage: bucket the vertices of an (n, k) distance profile
    matrix, as graphs.anchor_profile returns it. The matrix is made
    read-only and kept."""
    profile_matrix.setflags(write=False)
    return AnchorStage(profile_matrix=profile_matrix, bucket_groups=_group_rows(profile_matrix))


def refine_observation(stage: AnchorStage, codes: QuantizedCodes) -> ObservationTable:
    """The refinement stage: split each bucket of the stage into fibers by
    code row. The code table must have one row per vertex."""
    if codes.n != stage.n:
        raise ValueError(
            f"code table has {codes.n} rows for a graph with {stage.n} vertices"
        )
    buckets = stage.bucket_groups
    classes = codes.groups
    # Groups are numbered by first appearance, so a partition has one Groups
    # whatever matrix produced it: when one side cannot split the other, the
    # fibers are the other side's groups.
    if len(classes) == 1 or len(buckets) == stage.n:
        fibers = buckets
    elif len(buckets) == 1 or len(classes) == stage.n:
        fibers = classes
    else:
        fibers = _group_rows(np.column_stack([buckets.ids, classes.ids]))
    return ObservationTable(
        n=stage.n,
        profile_matrix=stage.profile_matrix,
        code_matrix=codes.codes,
        fiber_groups=fibers,
        bucket_groups=buckets,
    )


def build_observation(
    g: Graph, anchors: AnchorSet, codes: QuantizedCodes
) -> ObservationTable:
    """Join distance profiles with code rows into fibers and buckets: both
    stages on one anchor set.

    The code table must have one row per vertex. Connectivity errors from
    the distance computation propagate.
    """
    return refine_observation(anchor_stage(anchor_profile(g, anchors)), codes)


def fiber_stats(table: ObservationTable) -> FiberStats:
    """Fiber statistics; .error is the optimal exact-recovery error
    1 - |image|/n, the floor no decoder of the observation can beat."""
    sizes = table.fiber_groups.sizes
    image = len(table.fiber_groups)
    n = table.n
    return FiberStats(
        image_size=image,
        success=image / n,
        error=1.0 - image / n,
        vertex_mean_preimage=int(np.dot(sizes, sizes)) / n,
        singleton_fraction=int(np.count_nonzero(sizes == 1)) / n,
    )


def min_id_section(table: ObservationTable) -> np.ndarray:
    """One representative per fiber, in fiber order: the smallest member id."""
    return table.fiber_groups.first.copy()


def section_success(table: ObservationTable, section: np.ndarray | None = None) -> float:
    """Exact-recovery rate of a reconstruction map given as a section.

    The section lists vertices; the map sends an observation to the first
    of them that has it. Every vertex's observation row is looked up among
    the section's rows, independently of the table's fiber ids, and the
    vertices the map sends back to themselves are counted. Any section (one member
    per fiber) attains the optimal rate, which is the point of reporting it.
    """
    if section is None:
        section = min_id_section(table)
    section = np.asarray(section, dtype=np.intp)
    rows = np.hstack([table.profile_matrix, table.code_matrix])
    if section.size == 0 or rows.shape[1] == 0:
        # No vertex to send anything to, or one observation, sent to the
        # first section vertex.
        return min(section.size, 1) / table.n
    # Equal rows have equal bytes, so one void key per row compares them.
    keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
    # The section's vertices by key; a stable sort keeps the first of ties first.
    ranked = section[np.argsort(keys[section], kind="stable")]
    decoded = ranked[np.searchsorted(keys[ranked], keys).clip(max=section.size - 1)]
    return int(np.count_nonzero(decoded == np.arange(table.n))) / table.n


def sequential_sum(values: Iterable[float]) -> float:
    """The sum of floats added strictly left to right.

    Builtin sum() did exactly this up to Python 3.11; from 3.12 it uses
    compensated summation, whose last bits differ. Reported means go
    through this helper so they do not depend on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty float array, bit for bit, from one sort."""
    ordered = np.sort(values)
    half = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2.0)


def _bucket_level(diag: BucketDiagnostics, cutoff: int) -> BucketLevel:
    """The aggregates of the buckets of size at least cutoff."""
    qual = diag.sizes >= cutoff
    b = diag.sizes[qual]
    if b.size:
        weights = b * (b - 1)
        # Left to right: np.sum adds pairwise, which would change the last bits.
        weighted = sequential_sum((weights * diag.collisions[qual]).tolist())
        wcoll = weighted / int(weights.sum())
        med = _median(diag.code_counts[qual] / b)
        # Nearest-rank 0.9 quantile.
        balances = np.sort(diag.balances[qual])
        q90 = float(balances[int(np.ceil(0.9 * balances.size)) - 1])
    else:
        wcoll = med = q90 = None
    return BucketLevel(
        cutoff=cutoff,
        bucket_count=int(b.size),
        below_cutoff_vertex_fraction=(diag.n - int(b.sum())) / diag.n,
        weighted_collision=wcoll,
        median_code_ratio=med,
        q90_balance=q90,
    )


def bucket_diagnostics(table: ObservationTable) -> BucketDiagnostics:
    """Collision and balance diagnostics per bucket and per size cutoff.

    Weighted collision at a cutoff averages bucket collisions with weights
    b(b-1) over buckets of size b at or above the cutoff; the median code
    ratio is the median of (distinct codes in bucket) / (bucket size); the
    q0.9 balance is the nearest-rank 0.9 quantile of bucket balances.
    Inapplicable aggregates are None, not zero. The table computes the
    per-bucket arrays once, on the first call; each cutoff's aggregates
    are computed on their first read.
    """
    return table.diagnostics
