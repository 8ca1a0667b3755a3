"""Observation tables: joint anchor-distance / spectral-code fibers,
identifiability statistics, and per-bucket collision diagnostics.

A vertex's observation is the pair (distance profile, code row). Vertices
sharing a full observation form a fiber; vertices sharing just the distance
profile form a bucket, so the spectral codes refine the buckets. The best
possible reconstruction answers one vertex per fiber, which makes the
optimal error 1 - (number of fibers) / n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graphs import AnchorSet, Graph, anchor_profile
from .spectral import QuantizedCodes

__all__ = [
    "ObservationTable",
    "FiberStats",
    "BucketRow",
    "BucketLevel",
    "BucketDiagnostics",
    "BUCKET_CUTOFFS",
    "build_observation",
    "fiber_stats",
    "min_id_section",
    "section_success",
    "bucket_collision",
    "bucket_balance",
    "bucket_diagnostics",
]

Profile = tuple[int, ...]
Code = tuple[int, ...]
Observation = tuple[Profile, Code]

# Bucket-size cutoffs reported by bucket_diagnostics. The base cutoff 2
# covers all non-singleton buckets; the larger ones isolate buckets where
# collisions have room to matter.
BUCKET_CUTOFFS = (2, 3, 10)


@dataclass(frozen=True)
class ObservationTable:
    """Per-vertex observations with their fiber and bucket partitions.

    profiles[v] and codes[v] are the distance tuple and code tuple of
    vertex v. fibers maps (profile, code) to the sorted tuple of member
    vertices; buckets does the same for profile alone.
    """

    n: int
    profiles: tuple[Profile, ...]
    codes: tuple[Code, ...]
    fibers: Mapping[Observation, tuple[int, ...]]
    buckets: Mapping[Profile, tuple[int, ...]]


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
class BucketRow:
    """Diagnostics of one non-singleton bucket."""

    size: int
    code_count: int
    collision: float
    balance: float


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


@dataclass(frozen=True)
class BucketDiagnostics:
    """Per-bucket rows plus cutoff-level aggregates.

    rows holds every non-singleton bucket keyed by its distance profile.
    levels holds one BucketLevel per cutoff in BUCKET_CUTOFFS, in order.
    """

    n: int
    rows: Mapping[Profile, BucketRow]
    levels: tuple[BucketLevel, ...]
    singleton_vertex_fraction: float

    def level(self, cutoff: int) -> BucketLevel:
        for lv in self.levels:
            if lv.cutoff == cutoff:
                return lv
        raise KeyError(f"no aggregate at cutoff {cutoff}")


def build_observation(
    g: Graph, anchors: AnchorSet, codes: QuantizedCodes
) -> ObservationTable:
    """Join distance profiles with code rows into fibers and buckets.

    The code table must have one row per vertex. Connectivity errors from
    the distance computation propagate.
    """
    if codes.n != g.n:
        raise ValueError(
            f"code table has {codes.n} rows for a graph with {g.n} vertices"
        )
    profile_matrix = anchor_profile(g, anchors)
    profiles = tuple(tuple(int(d) for d in row) for row in profile_matrix)
    code_rows = tuple(tuple(int(c) for c in row) for row in codes.codes)

    fiber_members: dict[Observation, list[int]] = {}
    bucket_members: dict[Profile, list[int]] = {}
    for v in range(g.n):
        obs = (profiles[v], code_rows[v])
        fiber_members.setdefault(obs, []).append(v)
        bucket_members.setdefault(profiles[v], []).append(v)

    fibers = {obs: tuple(vs) for obs, vs in fiber_members.items()}
    buckets = {p: tuple(vs) for p, vs in bucket_members.items()}
    return ObservationTable(
        n=g.n, profiles=profiles, codes=code_rows, fibers=fibers, buckets=buckets
    )


def fiber_stats(table: ObservationTable) -> FiberStats:
    """Fiber statistics; .error is the optimal exact-recovery error
    1 - |image|/n, the floor no decoder of the observation can beat."""
    sizes = [len(vs) for vs in table.fibers.values()]
    image = len(sizes)
    n = table.n
    singletons = sum(1 for s in sizes if s == 1)
    return FiberStats(
        image_size=image,
        success=image / n,
        error=1.0 - image / n,
        vertex_mean_preimage=sum(s * s for s in sizes) / n,
        singleton_fraction=singletons / n,
    )


def min_id_section(table: ObservationTable) -> dict[Observation, int]:
    """One representative per fiber: the smallest member id."""
    return {obs: vs[0] for obs, vs in table.fibers.items()}


def section_success(
    table: ObservationTable, section: Mapping[Observation, int] | None = None
) -> float:
    """Exact-recovery rate of a reconstruction map given as a section.

    Evaluates the map vertex by vertex; any section (one member per fiber)
    attains the optimal rate, which is the point of reporting it.
    """
    if section is None:
        section = min_id_section(table)
    hits = 0
    for v in range(table.n):
        obs = (table.profiles[v], table.codes[v])
        if section.get(obs) == v:
            hits += 1
    return hits / table.n


def _member_code_counts(bucket: Sequence[int], codes: QuantizedCodes) -> Counter:
    counts: Counter = Counter()
    for v in bucket:
        if not (0 <= v < codes.n):
            raise ValueError(f"vertex {v} out of range for a {codes.n}-row code table")
        counts[tuple(int(c) for c in codes.codes[v])] += 1
    return counts


def bucket_collision(bucket: Sequence[int], codes: QuantizedCodes) -> float:
    """Probability two distinct bucket members share a spectral code row.

    Counts ordered pairs: (1/(b(b-1))) times the number of ordered pairs
    u != v with identical code rows. Needs at least two members.
    """
    b = len(bucket)
    if b < 2:
        raise ValueError("collision needs a bucket with at least two members")
    counts = _member_code_counts(bucket, codes)
    same = sum(c * (c - 1) for c in counts.values())
    return same / (b * (b - 1))


def bucket_balance(bucket: Sequence[int], codes: QuantizedCodes) -> float:
    """(M / b) times the largest code-class size; 1 for uniform occupancy.

    M is the number of distinct code rows among the b bucket members.
    """
    b = len(bucket)
    if b < 1:
        raise ValueError("balance needs a non-empty bucket")
    counts = _member_code_counts(bucket, codes)
    return (len(counts) / b) * max(counts.values())


def _nearest_rank_q90(values: list[float]) -> float:
    ordered = sorted(values)
    idx = int(np.ceil(0.9 * len(ordered))) - 1
    return ordered[idx]


def bucket_diagnostics(table: ObservationTable) -> BucketDiagnostics:
    """Collision and balance diagnostics per bucket and per size cutoff.

    Weighted collision at a cutoff averages bucket collisions with weights
    b(b-1) over buckets of size b at or above the cutoff; the median code
    ratio is the median of (distinct codes in bucket) / (bucket size); the
    q0.9 balance is the nearest-rank 0.9 quantile of bucket balances.
    Inapplicable aggregates are None, not zero.
    """
    rows: dict[Profile, BucketRow] = {}
    singleton_vertices = 0
    for profile, members in table.buckets.items():
        b = len(members)
        if b == 1:
            singleton_vertices += 1
            continue
        counts = Counter(table.codes[v] for v in members)
        same = sum(c * (c - 1) for c in counts.values())
        rows[profile] = BucketRow(
            size=b,
            code_count=len(counts),
            collision=same / (b * (b - 1)),
            balance=(len(counts) / b) * max(counts.values()),
        )

    levels = []
    for cutoff in BUCKET_CUTOFFS:
        qual = [r for r in rows.values() if r.size >= cutoff]
        below = table.n - sum(r.size for r in qual)
        if qual:
            weights = [r.size * (r.size - 1) for r in qual]
            wcoll = sum(w * r.collision for w, r in zip(weights, qual)) / sum(weights)
            med = float(np.median([r.code_count / r.size for r in qual]))
            q90 = _nearest_rank_q90([r.balance for r in qual])
        else:
            wcoll = med = q90 = None
        levels.append(
            BucketLevel(
                cutoff=cutoff,
                bucket_count=len(qual),
                below_cutoff_vertex_fraction=below / table.n,
                weighted_collision=wcoll,
                median_code_ratio=med,
                q90_balance=q90,
            )
        )

    return BucketDiagnostics(
        n=table.n,
        rows=rows,
        levels=tuple(levels),
        singleton_vertex_fraction=singleton_vertices / table.n,
    )
