"""Observation tables: joint anchor-distance / spectral-code fibers,
identifiability statistics, per-bucket collision diagnostics and the
counting bounds.

A vertex's observation is the pair (distance profile, code row). Vertices
sharing a full observation form a fiber; vertices sharing just the distance
profile form a bucket, so the spectral codes refine the buckets. The best
possible reconstruction answers one vertex per fiber, which makes the
optimal error 1 - (number of fibers) / n.

One grouping kernel over an int64 matrix groups the vertices into buckets,
once per anchor set (the anchor stage), and into code classes, once per
code table. evaluate_rows takes a batch of rows of one graph, each a stage
beside a table's classes, and one sort of their packed (bucket, class) keys
gives every row's fiber statistics, bucket diagnostics and bound report.
A table from refine_observation also groups its fibers, for the decoder
that checks them, and reaches evaluate_rows with one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

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
    "BoundReport",
    "BUCKET_CUTOFFS",
    "anchor_stage",
    "refine_observation",
    "build_observation",
    "evaluate_rows",
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
    row v, first[i] the smallest row in group i, and sizes[i] its size. The
    arrays are made read-only, since one Groups can be shared by many tables.
    """

    ids: np.ndarray
    first: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.ids, self.first, self.sizes):
            array.setflags(write=False)

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
    """Per-vertex observations with their fiber, bucket and code-class
    partitions.

    profile_matrix (n, k) and code_matrix (n, m) hold each vertex's distance
    profile and code row, its observation being the two rows side by side;
    fiber_groups partitions the vertices by the full observation,
    bucket_groups by the profile alone and class_groups by the code row
    alone.
    """

    n: int
    profile_matrix: np.ndarray
    code_matrix: np.ndarray
    fiber_groups: Groups
    bucket_groups: Groups
    class_groups: Groups

    @cached_property
    def diagnostics(self) -> BucketDiagnostics:
        """bucket_diagnostics of this table, computed on first read: the
        table's buckets and code classes as one row of evaluate_rows."""
        stage = AnchorStage(profile_matrix=self.profile_matrix, bucket_groups=self.bucket_groups)
        return evaluate_rows([(stage, self.class_groups)])[0][1]


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
    BucketLevel of one cutoff in BUCKET_CUTOFFS (evaluate_rows fills in
    cutoff 2); levels, all of them in order.
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
            (self._levels[cutoff],) = _bucket_levels(
                self.n, [0, self.sizes.size], self.sizes, self.code_counts,
                self.collisions, self.balances, cutoff)
        return self._levels[cutoff]

    @cached_property
    def levels(self) -> tuple[BucketLevel, ...]:
        return tuple(self.level(cutoff) for cutoff in BUCKET_CUTOFFS)


@dataclass(frozen=True)
class BoundReport:
    """Measured image size against its counting bounds.

    profile_bound is the measured number of attained distance profiles D;
    generic_bound is D times the codebook size; refined_bound is
    D * (1 + beta_hat / coll_hat) with beta_hat the largest bucket balance
    and coll_hat the smallest non-singleton bucket collision. refined_bound
    and refined_satisfied are None when no non-singleton bucket exists or
    some non-singleton bucket has zero collision (the substitution is then
    undefined or vacuous).
    """

    image_size: int
    profile_bound: int
    generic_bound: int
    generic_satisfied: bool
    refined_bound: float | None
    refined_satisfied: bool | None


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
    return ObservationTable(
        n=stage.n,
        profile_matrix=stage.profile_matrix,
        code_matrix=codes.codes,
        fiber_groups=_group_rows(np.column_stack([stage.bucket_groups.ids, codes.groups.ids])),
        bucket_groups=stage.bucket_groups,
        class_groups=codes.groups,
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


def _fiber_stats(n: int, image: int, square_sum: int, singletons: int) -> FiberStats:
    """FiberStats of n vertices in image fibers, given the sum of squared
    fiber sizes and the number of one-vertex fibers."""
    return FiberStats(image, image / n, 1.0 - image / n, square_sum / n, singletons / n)


def fiber_stats(table: ObservationTable) -> FiberStats:
    """Fiber statistics of the table's fiber partition; .error is the
    optimal exact-recovery error 1 - |image|/n, the floor no decoder of the
    observation can beat."""
    sizes = table.fiber_groups.sizes
    return _fiber_stats(table.n, len(sizes), int(np.dot(sizes, sizes)),
                        int(np.count_nonzero(sizes == 1)))


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


def _row_medians(ordered: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.median of each row's first counts[i] entries, bit for bit, where
    every row of the 2-D array ordered is sorted; rows without entries
    read as inf or nan."""
    rows = np.arange(ordered.shape[0])
    half = counts // 2
    upper = ordered[rows, half]
    return np.where(counts % 2 == 1, upper, (ordered[rows, half - 1] + upper) / 2.0)


def _bucket_levels(
    n: int, offsets: Sequence[int], sizes: np.ndarray, code_counts: np.ndarray,
    collisions: np.ndarray, balances: np.ndarray, cutoff: int,
) -> list[BucketLevel]:
    """The aggregates of the buckets of size at least cutoff in each row of
    a batch, whose per-bucket arrays lie side by side: row i's buckets are
    entries offsets[i] to offsets[i + 1].

    A row's qualifying values fill a row of padded matrices. A cumulative
    sum along a row adds strictly left to right, as sequential_sum does
    (np.sum adds pairwise, which would change the last bits); +inf padding
    sorts last, so the median and the nearest-rank 0.9 quantile read the
    sorted values alone.
    """
    count = len(offsets) - 1
    keep = np.flatnonzero(sizes >= cutoff)
    bounds = np.searchsorted(keep, offsets)
    per_row = np.diff(bounds)
    row = np.repeat(np.arange(count), per_row)
    column = np.arange(keep.size) - np.repeat(bounds[:-1], per_row)
    b = sizes[keep]
    weights = b * (b - 1)
    width = max(int(per_row.max(initial=0)), 1)
    sums = np.zeros((3, count, width))
    sums[:, row, column] = (b, weights, weights * collisions[keep])
    members, total_weight, weighted = np.cumsum(sums, axis=2)[:, :, -1].tolist()
    ordered = np.full((2, count, width), np.inf)
    ordered[:, row, column] = (code_counts[keep] / b, balances[keep])
    ordered.sort(axis=2)
    median = _row_medians(ordered[0], per_row).tolist()
    quantile = ordered[1, np.arange(count), np.ceil(0.9 * per_row).astype(np.intp) - 1].tolist()
    return [
        BucketLevel(cutoff, c, (n - int(members[i])) / n, *(
            (weighted[i] / total_weight[i], median[i], quantile[i]) if c else (None,) * 3))
        for i, c in enumerate(per_row.tolist())
    ]


def _bound_reports(
    images: Sequence[int], profiles: Sequence[int], codebooks: Sequence[int],
    offsets: Sequence[int], collisions: np.ndarray, balances: np.ndarray,
) -> list[BoundReport]:
    """The bound report of each row of a batch with images[i] fibers,
    profiles[i] buckets and codebooks[i] code classes, its non-singleton
    buckets laid out as in _bucket_levels; theory.bound_report states the
    rule."""
    # Each row's extremes. A row without buckets reads a later row's value
    # or the sentinel, which the rule never uses.
    coll_hat = np.minimum.reduceat(np.append(collisions, np.inf), offsets[:-1]).tolist()
    beta_hat = np.maximum.reduceat(np.append(balances, 0.0), offsets[:-1]).tolist()
    out = []
    for i, (image, d, codebook) in enumerate(zip(images, profiles, codebooks)):
        applies = offsets[i + 1] > offsets[i] and coll_hat[i] > 0.0
        refined = d * (1.0 + beta_hat[i] / coll_hat[i]) if applies else None
        out.append(BoundReport(image, d, d * codebook, image <= d * codebook, refined,
                               image <= refined if applies else None))
    return out


def evaluate_rows(
    rows: Sequence[tuple[AnchorStage, Groups]],
) -> list[tuple[FiberStats, BucketDiagnostics, BoundReport]]:
    """The fiber statistics, bucket diagnostics (cutoff 2 filled in) and
    bound report of each row, in order. A row pairs an anchor stage with a
    code table's class Groups; all rows cover the same n >= 1 vertices.

    One sort along the rows of the (rows, n) matrix of keys bucket id *
    class count + class id lays out each row's fibers as runs of equal
    keys. A fiber's bucket is its key // class count, so a bucket's fibers
    are adjacent, and buckets come in row, then bucket-id order, which is
    each row's first-appearance order.
    """
    if not rows:
        return []
    count, n = len(rows), rows[0][0].n
    buckets = [stage.bucket_groups for stage, _ in rows]
    classes = np.array([len(c) for _, c in rows], dtype=np.int64)
    keys = np.array([groups.ids for groups in buckets], dtype=np.int64)
    keys *= classes[:, np.newaxis]
    keys += np.array([c.ids for _, c in rows])
    keys.sort(axis=1)
    flat = keys.ravel()

    starts = np.diff(flat, prepend=-1) != 0  # keys are never negative
    starts[::n] = True  # no fiber spans two rows
    run = np.flatnonzero(starts)
    fiber = np.diff(run, append=flat.size)
    row_fibers = np.searchsorted(run, np.arange(count) * n)  # each row's first fiber
    image = np.diff(row_fibers, append=run.size).tolist()
    square_sum = np.add.reduceat(fiber * fiber, row_fibers).tolist()
    singletons = np.add.reduceat(fiber == 1, row_fibers, dtype=np.intp).tolist()

    fiber_row = run // n
    bucket = fiber_row * n + flat[run] // classes[fiber_row]
    head = np.flatnonzero(np.diff(bucket, prepend=-1))  # each bucket's first fiber
    sizes = np.concatenate([groups.sizes for groups in buckets])
    multi = np.flatnonzero(sizes > 1)
    b = sizes[multi]
    firsts = np.concatenate([groups.first for groups in buckets])[multi]
    code_counts = np.diff(head, append=run.size)[multi]
    collisions = np.add.reduceat(fiber * (fiber - 1), head)[multi] / (b * (b - 1))
    balances = (code_counts / b) * np.maximum.reduceat(fiber, head)[multi]
    profiles = [len(groups) for groups in buckets]
    offsets = np.searchsorted(multi, np.cumsum([0] + profiles)).tolist()
    levels = _bucket_levels(n, offsets, b, code_counts, collisions, balances, 2)
    bounds = _bound_reports(image, profiles, classes.tolist(), offsets, collisions, balances)

    out = []
    for i, (stage, _) in enumerate(rows):
        lo, hi = offsets[i], offsets[i + 1]
        diag = BucketDiagnostics(
            n, stage.profile_matrix, firsts[lo:hi], b[lo:hi], code_counts[lo:hi],
            collisions[lo:hi], balances[lo:hi], (profiles[i] - (hi - lo)) / n)
        diag._levels[2] = levels[i]
        out.append((_fiber_stats(n, image[i], square_sum[i], singletons[i]), diag, bounds[i]))
    return out


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
