"""Graph construction, BFS, and structural statistics against brute-force
oracles."""

from __future__ import annotations

import contextlib
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from obsmap import graphs
from obsmap.graphs import (
    MAX_REGULAR_DEGREE,
    AnchorSet,
    ConnectivityError,
    EdgeListParseError,
    anchor_profile,
    bfs_distances,
    from_edge_list,
    graph_from_edges,
    largest_connected_component,
    random_regular,
    serialize_edge_list,
    structural_stats,
)
from obsmap.harness import graph_seed_for

from conftest import (
    adjacency,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)

INF = float("inf")


def floyd_warshall(g) -> list[list[float]]:
    n = g.n
    dist = [
        [0.0 if i == j else (1.0 if j in adjacency(g)[i] else INF) for j in range(n)]
        for i in range(n)
    ]
    for mid in range(n):
        for i in range(n):
            dmi = dist[i][mid]
            if dmi == INF:
                continue
            row = dist[i]
            mid_row = dist[mid]
            for j in range(n):
                cand = dmi + mid_row[j]
                if cand < row[j]:
                    row[j] = cand
    return dist


def naive_stats(g) -> dict:
    """Independent O(n^3) recomputation of every structural statistic."""
    n = g.n
    adj = [set(nb) for nb in adjacency(g)]
    dist = floyd_warshall(g)
    pairs = [dist[i][j] for i in range(n) for j in range(i + 1, n)]
    assert all(d < INF for d in pairs)
    degs = [len(a) for a in adj]
    tri = []
    for v in range(n):
        nb = sorted(adj[v])
        t = 0
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if nb[j] in adj[nb[i]]:
                    t += 1
        tri.append(t)
    clustering = [
        0.0 if degs[v] < 2 else tri[v] / (degs[v] * (degs[v] - 1) / 2.0)
        for v in range(n)
    ]
    wedges = sum(d * (d - 1) / 2.0 for d in degs)
    mean_deg = sum(degs) / n
    total = sum(degs)
    return {
        "density": 2.0 * g.edge_count / (n * (n - 1)),
        "diameter": int(max(pairs)),
        "avg_path": sum(pairs) / len(pairs),
        "avg_clustering": sum(clustering) / n,
        "transitivity": (sum(tri) / wedges) if wedges > 0 else 0.0,
        "variance": sum((d - mean_deg) ** 2 for d in degs) / n,
        "gini": sum(abs(a - b) for a in degs for b in degs) / (2.0 * n * total),
    }


class TestGraphFromEdges:
    def test_builds_sorted_adjacency(self):
        g = graph_from_edges(4, [(2, 0), (0, 1), (3, 1)])
        assert adjacency(g) == ((1, 2), (0, 3), (0,), (1,))
        assert g.edge_count == 3
        assert g.degrees().tolist() == [2, 2, 1, 1]

    def test_csr_built_once_and_read_only(self):
        g = graph_from_edges(4, [(2, 0), (0, 1), (3, 1)])
        csr = g.to_sparse()
        assert g.to_sparse() is csr
        assert csr.indptr.tolist() == [0, 2, 4, 5, 6]
        assert csr.indices.tolist() == [1, 2, 0, 3, 0, 1]
        assert csr.data.tolist() == [1.0] * 6
        with pytest.raises(ValueError):
            csr.indices[0] = 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_edges(2, [(0, 2)])


class TestRandomRegular:
    def test_k4_is_forced(self):
        for seed in range(5):
            g = random_regular(4, 3, seed)
            assert adjacency(g) == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

    @pytest.mark.parametrize("n,r", [(500, 3), (20, 4), (11, 4), (10, 5)])
    def test_degrees_simple_connected(self, n, r):
        g = random_regular(n, r, 12345)
        degs = g.degrees()
        assert degs.min() == degs.max() == r
        adj = adjacency(g)
        for v, nbrs in enumerate(adj):
            assert list(nbrs) == sorted(set(nbrs))
            assert v not in nbrs
            for u in nbrs:
                assert v in adj[u]
        assert bfs_distances(g, 0).max() >= 1  # raises if disconnected

    def test_deterministic_in_seed(self):
        a = random_regular(60, 3, 7)
        b = random_regular(60, 3, 7)
        c = random_regular(60, 3, 8)
        assert adjacency(a) == adjacency(b)
        assert adjacency(a) != adjacency(c)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            random_regular(10, 2, 0)
        with pytest.raises(ValueError, match="degree 7 exceeds 6"):
            random_regular(200, 7, 0)
        with pytest.raises(ValueError):
            random_regular(3, 3, 0)
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)

    def test_highest_accepted_degree_generates(self):
        assert MAX_REGULAR_DEGREE == 6
        g = random_regular(200, 6, 0)
        assert g.degrees().tolist() == [6] * 200
        assert bfs_distances(g, 0).max() >= 1

    @given(st.integers(MAX_REGULAR_DEGREE + 1, 12), st.integers(0, 400), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_degree_above_ceiling_rejected(self, r, n, seed):
        # Checked before the other parameters and before any draw, which
        # would otherwise spend 100 000 attempts and raise RuntimeError.
        with pytest.raises(ValueError, match=f"^degree {r} exceeds {MAX_REGULAR_DEGREE}: "):
            random_regular(n, r, seed)

    def test_diameter_regression_n1000(self):
        # Exact diameters for these 20 derived seeds measured 12..13 (19 of
        # 20 at 13).  Sampled eccentricities lower-bound the diameter, so the
        # window [11, 14] holds with headroom on both sides.
        for trial in range(20):
            g = random_regular(1000, 3, graph_seed_for(0, 1000, 3, trial))
            ecc = max(
                int(bfs_distances(g, v).max()) for v in range(0, 1000, 211)
            )
            assert 11 <= ecc <= 14


class TestBfs:
    def test_path_example(self):
        assert bfs_distances(path_graph(3), 0).tolist() == [0, 1, 2]

    def test_k4_example(self):
        assert bfs_distances(complete_graph(4), 2).tolist() == [1, 1, 0, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_floyd_warshall(self, seed):
        g = random_connected_graph(seed, n_max=50)
        oracle = floyd_warshall(g)
        mat = np.stack([bfs_distances(g, s) for s in range(g.n)])
        assert np.array_equal(mat, np.array(oracle, dtype=np.int64))
        assert np.array_equal(mat, mat.T)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            i, j, k3 = rng.integers(0, g.n, size=3)
            assert mat[i][j] <= mat[i][k3] + mat[k3][j]

    def test_unreachable_raises(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConnectivityError, match="^vertex 2 unreachable from source 0$"):
            bfs_distances(g, 0)
        with pytest.raises(ConnectivityError, match="^vertex 0 unreachable from source 3$"):
            bfs_distances(g, 3)

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 3)


def graphs_of_every_shape():
    """Random regular graphs, random edge lists (often disconnected), and
    paths and complete graphs from one vertex up."""
    regular = st.tuples(st.integers(6, 40), st.sampled_from((3, 4)), st.integers(0, 10**6)).map(
        lambda t: random_regular(t[0] + t[0] * t[1] % 2, t[1], t[2])
    )
    edge_list = st.integers(1, 30).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60
        ).map(
            lambda pairs: graph_from_edges(
                n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
            )
        )
    )
    return st.one_of(
        regular,
        edge_list,
        st.integers(1, 12).map(path_graph),
        st.integers(1, 8).map(complete_graph),
    )


def unreachable_message(dist: np.ndarray, sources) -> str | None:
    """The ConnectivityError message for the reference distance rows of
    sources: the first failing source and its smallest unreachable vertex."""
    for source, row in zip(sources, dist):
        missing = np.flatnonzero(np.isinf(row))
        if missing.size:
            return f"vertex {missing[0]} unreachable from source {source}"
    return None


class TestBfsMatchesShortestPath:
    """bfs_distances, anchor_profile and structural_stats against csgraph's
    unweighted shortest paths (a heap-based search, independent of the
    queue-order kernel)."""

    @given(graphs_of_every_shape(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_csgraph(self, g, data):
        ref = shortest_path(g.to_sparse(), unweighted=True)
        for s in range(g.n):
            message = unreachable_message(ref[[s]], [s])
            if message is None:
                assert bfs_distances(g, s).tolist() == ref[s].astype(np.int64).tolist()
            else:
                with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
                    bfs_distances(g, s)

        order = data.draw(st.permutations(range(g.n)))
        anchors = order[: data.draw(st.integers(0, min(g.n, 5)))]
        message = unreachable_message(ref[anchors], anchors)
        if message is None:
            expected = ref[anchors].T.astype(np.int64)
            assert anchor_profile(g, AnchorSet(anchors)).tolist() == expected.tolist()
        else:
            with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
                anchor_profile(g, AnchorSet(anchors))

        if g.n < 2:
            return
        message = unreachable_message(ref[[0]], [0])
        if message is not None:
            with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
                structural_stats(g)
        else:
            upper = ref[np.triu_indices(g.n, k=1)]
            s = structural_stats(g)
            assert s.diameter == int(upper.max())
            assert s.avg_shortest_path_length == int(upper.sum()) / upper.size


class TestPackedSearchMatchesShortestPath:
    """_bfs, which packs the sources after the first up to 64 to a level
    pass, and the level pass itself, against csgraph's unweighted shortest
    paths: source counts on both sides of the packing rule and at the
    64-source chunk edges, repeated sources, isolated vertices and one
    vertex. _bfs names the first failing source; the level pass runs only
    on connected graphs with two or more vertices, where it is tested."""

    COUNTS = (
        1, 2, graphs._PACKED_MIN_SOURCES, graphs._PACKED_MIN_SOURCES + 1, 40, 63, 64, 65, 129,
    )

    @given(graphs_of_every_shape(), st.sampled_from(COUNTS), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_against_csgraph(self, g, count, seed):
        ref = shortest_path(g.to_sparse(), unweighted=True)
        sources = np.random.default_rng(seed).integers(0, g.n, count).tolist()
        message = unreachable_message(ref[sources], sources)
        if message is None:
            dist = graphs._bfs(g, np.array(sources))
            assert dist.dtype == np.min_scalar_type(int(ref[sources].max()))
            assert dist.T.tolist() == ref[sources].astype(np.int64).tolist()
        else:
            with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
                graphs._bfs(g, np.array(sources))
        if g.n < 2 or np.isinf(ref).any():
            return
        packed = sources[:64]
        expected = ref[packed].T.astype(np.int64)
        out = np.zeros(expected.shape, dtype=np.min_scalar_type(int(expected.max())))
        assert graphs._packed_search(g, np.array(packed), out, graphs._PassBuffers(g)) is out
        assert out.tolist() == expected.tolist()

    def test_distances_past_255_widen_the_dtype(self):
        g = path_graph(600)
        ref = shortest_path(g.to_sparse(), unweighted=True).astype(np.int64)
        every = graphs._bfs(g, range(600))  # ten level passes after the first search
        assert every.dtype == np.uint16
        assert np.array_equal(every, ref)
        sparse = np.arange(0, 600, 10)
        out = np.zeros((600, sparse.size), dtype=np.uint16)
        packed = graphs._packed_search(g, sparse, out, graphs._PassBuffers(g))
        assert np.array_equal(packed, ref[:, sparse])
        near = graphs._bfs(g, [300, 301])  # each searched alone; eccentricity 300
        assert near.dtype == np.uint16
        assert np.array_equal(near, ref[:, [300, 301]])
        assert graphs._bfs(path_graph(200), [0, 5]).dtype == np.uint8

    def test_isolated_vertex_is_never_reached(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a level pass ran on a disconnected graph")

        monkeypatch.setattr(graphs, "_packed_search", refuse)
        # Vertex 2 has an empty CSR row, right before vertex 3's. Nine
        # sources and eccentricity 3 would pass the packing rule.
        g = graph_from_edges(5, [(0, 1), (1, 3), (3, 4)])
        cases = (([0, 4, 1, 3, 0, 4, 1, 3, 0], "vertex 2 unreachable from source 0"),
                 ([2, 4, 1, 3, 0, 4, 1, 3, 0], "vertex 0 unreachable from source 2"))
        for sources, message in cases:
            with pytest.raises(ConnectivityError, match=f"^{message}$"):
                graphs._bfs(g, sources)
        with pytest.raises(ConnectivityError, match="^vertex 2 unreachable from source 0$"):
            structural_stats(g)

    @pytest.mark.parametrize("edges", [
        [(i, (i + 1) % 20) for i in range(20)] + [(20 + i, 20 + (i + 1) % 20) for i in range(20)],
        [(2 * i, 2 * i + 1) for i in range(20)],
    ], ids=["two-cycles", "matching"])
    def test_disconnected_regular_graph(self, edges):
        g = graph_from_edges(40, edges)
        ref = shortest_path(g.to_sparse(), unweighted=True)
        sources = [5, 9, 3, 30, 5]
        message = unreachable_message(ref[sources], sources)
        with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
            graphs._bfs(g, sources)
        message = unreachable_message(ref[[0]], [0])
        with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
            structural_stats(g)

    @given(graphs_of_every_shape(), st.sampled_from(COUNTS), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_level_pass_runs_only_on_connected_graphs(self, g, count, seed):
        """Every level pass that _bfs or structural_stats runs is on a
        connected graph with two or more vertices; structural_stats runs
        one on every such graph."""
        passes = []
        search = graphs._packed_search

        def checked(h, sources, out, work):
            assert h.n >= 2 and connected_components(h.to_sparse())[0] == 1
            passes.append(len(sources))
            return search(h, sources, out, work)

        sources = np.random.default_rng(seed).integers(0, g.n, count).tolist()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_packed_search", checked)
            with contextlib.suppress(ConnectivityError):
                graphs._bfs(g, sources)
            passes.clear()
            with contextlib.suppress(ConnectivityError, ValueError):
                structural_stats(g)
        if g.n >= 2 and connected_components(g.to_sparse())[0] == 1:
            assert sum(passes) == g.n

    def test_structural_stats_past_255_levels(self):
        s = structural_stats(path_graph(600))
        assert s.diameter == 599
        assert s.avg_shortest_path_length == 601 / 3


class TestAnchorProfile:
    def test_star_center(self):
        g = star_graph(3)
        prof = anchor_profile(g, AnchorSet((0,)))
        assert prof.tolist() == [[0], [1], [1], [1]]

    def test_path_two_anchors_injective(self):
        g = path_graph(4)
        prof = anchor_profile(g, AnchorSet((0, 3)))
        rows = [tuple(r) for r in prof.tolist()]
        assert rows == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert len(set(rows)) == 4

    def test_duplicate_anchor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="distinct"):
            AnchorSet((1, 1))

    def test_anchor_out_of_range(self):
        with pytest.raises(ValueError):
            anchor_profile(path_graph(3), AnchorSet((5,)))

    def test_empty_anchor_set(self):
        prof = anchor_profile(path_graph(3), AnchorSet(()))
        assert prof.shape == (3, 0)

    def test_unreachable_names_first_failing_anchor(self):
        g = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
        with pytest.raises(ConnectivityError, match="^vertex 2 unreachable from source 0$"):
            anchor_profile(g, AnchorSet((0, 2)))
        with pytest.raises(ConnectivityError, match="^vertex 0 unreachable from source 3$"):
            anchor_profile(g, AnchorSet((3, 0)))


class TestFromEdgeList:
    def test_path(self):
        parsed = from_edge_list(["0 1", "1 2"])
        assert parsed.graph.n == 3
        assert parsed.graph.edge_count == 2
        assert parsed.duplicate_edges == 0
        assert parsed.self_loops == 0

    def test_duplicates_and_self_loops_dropped(self):
        parsed = from_edge_list(["a b", "b a", "a a"])
        assert parsed.graph.n == 2
        assert parsed.graph.edge_count == 1
        assert parsed.duplicate_edges == 1
        assert parsed.self_loops == 1
        assert parsed.token_ids == {"a": 0, "b": 1}

    def test_first_appearance_order(self):
        parsed = from_edge_list(["x9 c", "c a", "a x9"])
        assert parsed.token_ids == {"x9": 0, "c": 1, "a": 2}

    def test_comments_and_blanks_skipped(self):
        parsed = from_edge_list(["# header", "", "0 1", "   ", "# tail"])
        assert parsed.graph.edge_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            from_edge_list(["0 1", "1 2", "2 3 4"])

    def test_self_loop_only_token_is_isolated_vertex(self):
        parsed = from_edge_list(["a b", "c c"])
        assert parsed.graph.n == 3
        assert parsed.graph.degree(2) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_serialize_round_trip(self, seed):
        # Parsing re-indexes by first appearance, so the round trip is an
        # isomorphism under the token map, not an identity on labels.
        g = random_connected_graph(seed)
        parsed = from_edge_list(serialize_edge_list(g))
        assert parsed.graph.n == g.n
        assert parsed.graph.edge_count == g.edge_count
        relabel = {v: parsed.token_ids[str(v)] for v in range(g.n)}
        for u in range(g.n):
            mapped = sorted(relabel[w] for w in adjacency(g)[u])
            assert tuple(mapped) == adjacency(parsed.graph)[relabel[u]]


class TestLargestConnectedComponent:
    def test_two_triangles_plus_isolated(self):
        g = graph_from_edges(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        lcc = largest_connected_component(g)
        assert lcc.n == 3
        assert lcc.edge_count == 3
        assert adjacency(lcc) == ((1, 2), (0, 2), (0, 1))

    def test_connected_graph_is_identity(self):
        g = random_connected_graph(3)
        lcc = largest_connected_component(g)
        assert adjacency(lcc) == adjacency(g)

    def test_tie_goes_to_smallest_id(self):
        # components {0,1,2,3} as a path and {4,5,6,7} as a cycle
        g = graph_from_edges(
            8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
        )
        lcc = largest_connected_component(g)
        assert lcc.n == 4
        assert lcc.edge_count == 3  # the path component, containing vertex 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            largest_connected_component(graph_from_edges(0, []))

    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_edge_loop_reference(self, case):
        n, pairs = case
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
        g = graph_from_edges(n, sorted(edges))
        assert largest_connected_component(g) == edge_loop_lcc(g)


def edge_loop_lcc(g):
    """Largest component by re-indexing the kept edges one by one."""
    _, labels = connected_components(g.to_sparse(), directed=False)
    sizes = np.bincount(labels)
    first = int(np.flatnonzero(sizes[labels] == sizes.max())[0])
    keep = np.flatnonzero(labels == labels[first])
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    edges = [(int(remap[u]), int(remap[v])) for u, v in g.edges() if remap[u] >= 0]
    return graph_from_edges(keep.size, edges)


class Reference(NamedTuple):
    """A graph as the tuple-based construction held it: sorted neighbour
    tuples first, then a CSR laid out from those tuples."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def csr(self) -> csr_matrix:
        degrees = [len(a) for a in self.adjacency]
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        indices = np.array([v for a in self.adjacency for v in a], dtype=np.int64)
        return csr_matrix((np.ones(indices.size), indices, indptr), shape=(self.n, self.n))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, a in enumerate(self.adjacency) for v in a if u < v]


def reference_from_edges(n: int, edges) -> Reference:
    """Per-edge validation into neighbour lists, each sorted into a tuple:
    the first offending edge in input order raises."""
    seen = set()
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Reference(n, tuple(tuple(sorted(a)) for a in nbrs), len(seen))


def reference_regular(n: int, r: int, seed: int) -> Reference:
    """The pairing model on the same generator stream, each accepted draw
    turned into neighbour tuples by sorting packed directed edge keys."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), r)
    attempts = max(graphs._MAX_PAIRING_ATTEMPTS, graphs._PAIRING_STUB_BUDGET // (n * r))
    for _ in range(attempts):
        rng.shuffle(stubs)
        us, vs = stubs[0::2], stubs[1::2]
        if np.any(us == vs):
            continue
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        directed = np.sort(np.concatenate([keys, hi * n + lo]))
        targets = (directed % n).tolist()
        ref = Reference(n, tuple(zip(*(targets[j::r] for j in range(r)))), len(lo))
        if connected_components(ref.csr(), directed=False)[0] == 1:
            return ref
    raise RuntimeError(
        f"pairing model failed to produce a simple connected graph "
        f"after {attempts} attempts (n={n}, r={r})"
    )


def reference_lcc(ref: Reference) -> Reference:
    """Largest component, smallest id winning ties, kept edges re-indexed
    one by one."""
    _, labels = connected_components(ref.csr(), directed=False)
    sizes = np.bincount(labels)
    first = int(np.flatnonzero(sizes[labels] == sizes.max())[0])
    keep = np.flatnonzero(labels == labels[first])
    remap = {int(v): i for i, v in enumerate(keep)}
    kept = [(remap[u], remap[v]) for u, v in ref.edges() if u in remap]
    return reference_from_edges(keep.size, kept)


def assert_matches_reference(g, ref: Reference) -> None:
    assert not hasattr(g, "adjacency")  # the CSR is the one storage
    want = ref.csr()
    csr = g.to_sparse()
    assert g.to_sparse() is csr
    assert csr.shape == want.shape
    for name in ("indptr", "indices", "data"):
        got, expected = getattr(csr, name), getattr(want, name)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()
        assert not got.flags.writeable
    assert csr.has_sorted_indices
    assert g.n == ref.n
    assert g.edge_count == ref.edge_count
    assert g.degrees().dtype == np.int64
    assert g.degrees().tolist() == [len(a) for a in ref.adjacency]
    assert [g.degree(v) for v in range(g.n)] == [len(a) for a in ref.adjacency]
    assert adjacency(g) == ref.adjacency
    assert list(g.edges()) == ref.edges()
    twin = graph_from_edges(ref.n, reversed(ref.edges()))
    assert g == twin and hash(g) == hash(twin)
    assert g != graph_from_edges(ref.n + 1, ref.edges())
    if ref.edges():
        assert g != graph_from_edges(ref.n, ref.edges()[1:])


def edge_lists(low: int, high: int):
    """(n, edges) with endpoints from low to n + high inclusive; with
    (-1, 0), out-of-range ends, self-loops and duplicates in both
    orientations all occur."""
    return st.integers(0, 25).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(low, n + high), st.integers(low, n + high)), max_size=50),
        )
    )


@st.composite
def faulty_edge_lists(draw):
    """(n, edges): in-range edges mixed with out-of-range pairs (near and
    far), self-loops, and repeats of any of them in either orientation, as
    Python or numpy ints."""
    n = draw(st.integers(0, 12))
    end = st.integers(0, n - 1) if n else st.nothing()
    stray = st.one_of(st.integers(-2, n + 2), st.integers(-(2**40), 2**40))
    edges = draw(st.lists(st.one_of(
        st.tuples(end, end),
        st.tuples(stray, stray),
        stray.map(lambda v: (v, v)),
    ), max_size=30))
    for pick, flip, at in draw(st.lists(
            st.tuples(st.integers(0, 99), st.booleans(), st.integers(0, 99)), max_size=6)):
        if edges:
            u, v = edges[pick % len(edges)]
            edges.insert(at % (len(edges) + 1), (v, u) if flip else (u, v))
    if draw(st.booleans()):
        edges = [(np.int64(u), np.int64(v)) for u, v in edges]
    return n, edges


class TestConstructionMatchesTupleReference:
    """Every producer against the tuple-based construction it replaced."""

    @staticmethod
    def check_graph_from_edges(n, edges):
        try:
            ref = reference_from_edges(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                graph_from_edges(n, edges)
        else:
            assert_matches_reference(graph_from_edges(n, edges), ref)

    @given(edge_lists(-1, 0))
    @settings(max_examples=300, deadline=None)
    def test_graph_from_edges(self, case):
        self.check_graph_from_edges(*case)

    @given(faulty_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_graph_from_edges_names_first_fault(self, case):
        self.check_graph_from_edges(*case)

    @given(
        st.integers(0, 10**6).flatmap(
            lambda seed: st.sampled_from((3, 4, 5, 6)).flatmap(
                lambda r: st.integers(r + 1, 30)
                .filter(lambda n: n * r % 2 == 0)
                .map(lambda n: (n, r, seed))
            )
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_random_regular(self, case):
        # Should a draw ever exhaust the attempts, both sides must fail alike.
        n, r, seed = case
        try:
            ref = reference_regular(n, r, seed)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                random_regular(n, r, seed)
        else:
            assert_matches_reference(random_regular(n, r, seed), ref)

    def test_random_regular_large(self):
        # Each seed rejects at least one draw for a repeated pair (1 to 7 of
        # them) before the kept one, so the duplicate check decides the graph.
        for n, r, seed in [(500, 3, 11), (2000, 3, 1), (2000, 3, 3), (6000, 3, 0), (6000, 3, 1)]:
            assert_matches_reference(random_regular(n, r, seed), reference_regular(n, r, seed))

    def test_random_regular_exhausted_attempts(self, monkeypatch):
        # The stub budget, not the floor, sets the ceiling of a small graph.
        monkeypatch.setattr(graphs, "_MAX_PAIRING_ATTEMPTS", 10)
        monkeypatch.setattr(graphs, "_PAIRING_STUB_BUDGET", 50 * 60)
        with pytest.raises(RuntimeError, match="after 50 attempts") as ref:
            reference_regular(10, 6, 0)
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(ref.value))}$"):
            random_regular(10, 6, 0)

    @pytest.mark.parametrize("n, r, seed", [(10, 6, 0), (8, 6, 2)])
    def test_random_regular_small_dense(self, n, r, seed):
        # The first simple draw needs 150 819 and 286 205 attempts, more
        # than the 100 000 that suffice for large n.
        g = random_regular(n, r, seed)
        assert g.degrees().tolist() == [r] * n
        assert connected_components(g.to_sparse(), directed=False)[0] == 1
        assert_matches_reference(g, reference_regular(n, r, seed))

    @given(edge_lists(0, 0), st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_edge_list(self, case, data):
        n, pairs = case
        # Tokens are names, so re-indexing by first appearance is not the identity.
        lines = [f"t{u * 7 % 11} t{v * 7 % 11}" for u, v in pairs if u < n and v < n]
        lines += data.draw(st.lists(st.sampled_from(["# note", "", "t3 t3", "t1 t4"]), max_size=4))
        lines = data.draw(st.permutations(lines))
        ids: dict[str, int] = {}
        edge_set = set()
        duplicates = loops = 0
        for line in lines:
            if not line or line.startswith("#"):
                continue
            u, v = (ids.setdefault(tok, len(ids)) for tok in line.split())
            if u == v:
                loops += 1
            elif (min(u, v), max(u, v)) in edge_set:
                duplicates += 1
            else:
                edge_set.add((min(u, v), max(u, v)))
        parsed = from_edge_list(lines)
        assert (parsed.token_ids, parsed.duplicate_edges, parsed.self_loops) == (
            ids, duplicates, loops)
        assert_matches_reference(parsed.graph, reference_from_edges(len(ids), sorted(edge_set)))

    @given(edge_lists(0, 0))
    @settings(max_examples=150, deadline=None)
    def test_largest_connected_component(self, case):
        n, pairs = case
        if n == 0:
            return
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n})
        g = graph_from_edges(n, edges)
        assert_matches_reference(largest_connected_component(g), reference_lcc(
            reference_from_edges(n, edges)))


class TestGraphIdentity:
    """Equality, hash and edges() read the CSR arrays."""

    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=50, deadline=None)
    def test_permuted_edge_lists_give_equal_graphs(self, seed, data):
        g = random_connected_graph(seed)
        edges = data.draw(st.permutations(list(g.edges())))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        twin = graph_from_edges(g.n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])
        assert twin == g and hash(twin) == hash(g)
        assert len({g, twin}) == 1
        assert list(twin.edges()) == list(g.edges()) == sorted(g.edges())

    def test_graphs_differing_only_in_n_are_unequal(self):
        assert graph_from_edges(5, [(0, 1), (1, 2)]) != graph_from_edges(6, [(0, 1), (1, 2)])
        assert graph_from_edges(3, []) != graph_from_edges(4, [])
        assert graph_from_edges(0, []) != graph_from_edges(1, [])
        assert graph_from_edges(3, []) == graph_from_edges(3, [])
        assert graph_from_edges(2, [(0, 1)]) != ((0, 1),)

    def test_edges_of_empty_and_edgeless_graphs(self):
        assert list(graph_from_edges(0, []).edges()) == []
        assert list(graph_from_edges(5, []).edges()) == []
        assert list(graph_from_edges(5, [(3, 1)]).edges()) == [(1, 3)]


class TestStructuralStats:
    def test_k4(self):
        s = structural_stats(complete_graph(4))
        assert s.density == 1.0
        assert s.diameter == 1
        assert s.avg_shortest_path_length == 1.0
        assert s.avg_clustering == 1.0
        assert s.transitivity == 1.0
        assert s.degree_variance == 0.0
        assert s.degree_gini == 0.0

    def test_star(self):
        s = structural_stats(star_graph(3))
        assert s.avg_degree == 1.5
        assert s.density == 0.5
        assert s.diameter == 2
        assert s.avg_clustering == 0.0
        assert s.transitivity == 0.0
        assert s.degree_variance == pytest.approx(0.75)
        assert s.degree_gini == pytest.approx(0.25)

    def test_regular_graph_degree_spread_is_zero(self):
        s = structural_stats(random_regular(30, 3, 5))
        assert s.degree_variance == 0.0
        assert s.degree_gini == 0.0
        assert s.avg_degree == 3.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle(self, seed):
        g = random_connected_graph(seed, n_max=30)
        s = structural_stats(g)
        o = naive_stats(g)
        assert s.diameter == o["diameter"]
        assert s.density == pytest.approx(o["density"], abs=1e-12)
        assert s.avg_shortest_path_length == pytest.approx(o["avg_path"], abs=1e-12)
        assert s.avg_clustering == pytest.approx(o["avg_clustering"], abs=1e-12)
        assert s.transitivity == pytest.approx(o["transitivity"], abs=1e-12)
        assert s.degree_variance == pytest.approx(o["variance"], abs=1e-12)
        assert s.degree_gini == pytest.approx(o["gini"], abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            structural_stats(graph_from_edges(1, []))

    def test_disconnected_rejected(self):
        with pytest.raises(ConnectivityError):
            structural_stats(graph_from_edges(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("seed", range(6))
    def test_chunked_rows_match_dense_matrix(self, seed, monkeypatch):
        g = random_connected_graph(seed, n_min=20, n_max=60)
        dense = shortest_path(g.to_sparse(), unweighted=True)
        upper = dense[np.triu_indices(g.n, k=1)]
        whole = structural_stats(g)
        monkeypatch.setattr(graphs, "_WORD_BITS", 7)  # sources per pass, smaller than n
        chunked = structural_stats(g)
        assert chunked == whole
        assert chunked.diameter == int(upper.max())
        assert chunked.avg_shortest_path_length == float(upper.mean())
