"""Shared graph builders and dict views for the test suite."""

from __future__ import annotations

import numpy as np

from obsmap.graphs import Graph, graph_from_edges
from obsmap.harness import ConfigPoint, SweepConfig, TrialRecord, run_sweep


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def one_point_record(point: ConfigPoint, seed: int) -> TrialRecord:
    """The sweep record of one regular-graph point under master seed: the
    point's grid cell run up to its trial and resample, whose last record it
    is. A failed record fails the calling test."""
    cfg = SweepConfig(
        n_list=(point.n,), k_list=(point.k,), m_list=(point.m,), eta_list=(point.eta,),
        trials=point.trial + 1, anchor_resamples=point.resample + 1, r_list=(point.r,),
        quantizer_list=(point.quantizer,), scaled_list=(point.scaled,),
        feature_list=(point.feature,), anchor_strategy_list=(point.anchor_strategy,),
        seed=seed,
    )
    rec = run_sweep(cfg).records[-1]
    assert rec.failure is None, rec.failure
    return rec


def random_connected_graph(seed: int, n_min: int = 4, n_max: int = 30) -> Graph:
    """Random spanning tree plus extra edges; always connected, deterministic."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    extra = int(rng.integers(0, max(1, n)))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges.add(key)
    return graph_from_edges(n, sorted(edges))


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbour tuple of each vertex, read off the CSR arrays."""
    csr = g.to_sparse()
    indptr, indices = csr.indptr.tolist(), csr.indices.tolist()
    return tuple(tuple(indices[a:b]) for a, b in zip(indptr, indptr[1:]))


def row_tuples(matrix: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row) for row in matrix.tolist()]


def ref_join(profile_rows, code_rows):
    """Fibers keyed by (profile, code) and buckets keyed by profile, each
    mapping to its ascending member tuple, in first-appearance order."""
    fibers, buckets = {}, {}
    for v, (p, c) in enumerate(zip(profile_rows, code_rows)):
        fibers.setdefault((p, c), []).append(v)
        buckets.setdefault(p, []).append(v)
    return (
        {obs: tuple(vs) for obs, vs in fibers.items()},
        {p: tuple(vs) for p, vs in buckets.items()},
    )


def observations(table) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each vertex's (profile, code) observation, read off the table's matrices."""
    return list(zip(row_tuples(table.profile_matrix), row_tuples(table.code_matrix)))


def assert_groups_match(groups, ref) -> None:
    """The groups are the reference dict's member tuples, in its order."""
    members = list(ref.values())
    assert groups.first.tolist() == [vs[0] for vs in members]
    assert groups.sizes.tolist() == [len(vs) for vs in members]
    for i, vs in enumerate(members):
        assert np.flatnonzero(groups.ids == i).tolist() == list(vs)


def table_views(table):
    """(fibers, buckets) of an observation table, joined from its matrices,
    once the table's fiber and bucket groups are checked against them."""
    fibers, buckets = ref_join(row_tuples(table.profile_matrix), row_tuples(table.code_matrix))
    assert_groups_match(table.fiber_groups, fibers)
    assert_groups_match(table.bucket_groups, buckets)
    return fibers, buckets
