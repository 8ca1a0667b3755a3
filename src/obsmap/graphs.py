"""Graph construction, BFS distances, and structural statistics.

Vertices are dense integer ids 0..n-1. All graphs are simple and
undirected, stored as one read-only CSR matrix and immutable after
construction. Parameter violations raise ValueError, reachability
violations raise ConnectivityError.

Every distance comes from one search kernel, _bfs: a C-level search per
source when there are few sources or the graph's levels are many, and
otherwise one level-synchronous pass per 64 sources, each source a bit of a
uint64 word per vertex, so one pass over the edges per level serves them
all. The pass runs only on a connected graph of two or more vertices, as
its callers, _bfs and structural_stats, first prove by one C-level search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, triu
from scipy.sparse.csgraph import breadth_first_order, connected_components

__all__ = [
    "ConnectivityError",
    "EdgeListParseError",
    "Graph",
    "AnchorSet",
    "GraphStats",
    "MAX_REGULAR_DEGREE",
    "ParsedEdgeList",
    "graph_from_edges",
    "random_regular",
    "from_edge_list",
    "serialize_edge_list",
    "write_edge_list",
    "largest_connected_component",
    "bfs_distances",
    "anchor_profile",
    "structural_stats",
]

# Sources one level pass searches together: one bit of a uint64 word each.
_WORD_BITS = 64

# _bfs packs the sources after the first into level passes when there are at
# least _PACKED_MIN_SOURCES of them and at least as many as the first search's
# eccentricity: a pass costs a gather per level, the alternative a search per
# source. On a 2-core x86-64 VM, best of 3-10 runs, one level pass over S
# sources against S per-source searches, ms:
#   graph (eccentricity)  S=4         S=8         S=16        S=32        S=63
#   cubic n=500 (11)      0.38/0.26   0.41/0.57   0.40/1.17   0.42/2.36   0.41/4.80
#   cubic n=6000 (15)     3.56/1.26   3.50/2.63   3.52/5.38   3.53/10.8   3.63/21.2
#   cubic n=20000 (16)    16.0/4.48   14.5/7.92   14.6/15.9   14.5/31.6   14.4/62.5
#   torus 60x60 (60)      7.16/0.81   7.31/1.59   7.21/3.56   7.46/7.11   7.69/14.1
#   cycle n=3000 (1500)   137/8.67    122/18.0    128/34.4    146/79.6    144/156
#   path n=2050 (2049)    146/10.1    151/19.7    149/40.9    143/77.2    156/160
# The pass wins about once the sources outnumber the levels. A cycle or a path
# breaks even only near 63 sources; the rule leaves them to the per-source
# searches.
_PACKED_MIN_SOURCES = 8

# Pairing-model attempts before giving up. The probability that a draw is
# simple, and so accepted, approaches p = exp((1-r^2)/4) for large n, and all
# attempts fail with probability about exp(-100000 p): negligible up to r = 6
# (p ~ 1.6e-4), but about 0.54 at r = 7 (p ~ 6e-6) and 0.99 at r = 8.
_MAX_PAIRING_ATTEMPTS = 100_000

# Small graphs accept less often (r = 6, n = 8: p = 105 * 6!^8 / 47!! ~ 6.4e-6),
# so they get attempts up to this many shuffled stubs: about 20 / p at n = 8.
_PAIRING_STUB_BUDGET = 150_000_000

# Largest degree random_regular (and so a sweep grid) accepts. From r = 7 the
# attempts above fail more often than not; at r = 6 they suffice at every n.
MAX_REGULAR_DEGREE = 6


class ConnectivityError(RuntimeError):
    """A vertex required by the operation is unreachable."""


class EdgeListParseError(ValueError):
    """Malformed edge-list input; message carries the 1-based line number."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The one storage is the symmetric CSR adjacency matrix (unit weights,
    sorted column indices, read-only arrays); edge_count is the number of
    undirected edges. Every constructor builds the CSR the same way, so
    graphs compare and hash by n and its indptr and indices arrays.
    """

    n: int
    edge_count: int
    _csr: csr_matrix = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self._csr.data, self._csr.indices, self._csr.indptr):
            arr.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not (isinstance(other, Graph) and self.n == other.n):
            return False
        a, b = self._csr, other._csr
        return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)

    def __hash__(self) -> int:
        return hash((self.n, self._csr.indptr.tobytes(), self._csr.indices.tobytes()))

    def degree(self, v: int) -> int:
        return int(self._csr.indptr[v + 1] - self._csr.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self._csr.indptr).astype(np.int64)

    def edges(self) -> Iterator[tuple[int, int]]:
        """The undirected edges as (u, v) with u < v, in lexicographic order."""
        rows = np.repeat(np.arange(self.n), np.diff(self._csr.indptr))
        upper = self._csr.indices > rows
        return zip(rows[upper].tolist(), self._csr.indices[upper].tolist())

    def to_sparse(self) -> csr_matrix:
        """Adjacency matrix as CSR with unit weights, sorted column indices
        and read-only arrays; the same object on every call."""
        return self._csr


@dataclass(frozen=True)
class AnchorSet:
    """Ordered tuple of distinct anchor vertex ids.

    Order is significant: distance profiles are reported in anchor order.
    Membership in a particular graph is checked by the consuming operation.
    """

    anchors: tuple[int, ...]

    def __post_init__(self) -> None:
        anchors = tuple(int(a) for a in self.anchors)
        object.__setattr__(self, "anchors", anchors)
        if len(set(anchors)) != len(anchors):
            raise ValueError("anchor ids must be distinct")
        if any(a < 0 for a in anchors):
            raise ValueError("anchor ids must be non-negative")

    @property
    def k(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
class GraphStats:
    n: int
    edge_count: int
    avg_degree: float
    density: float
    diameter: int
    avg_shortest_path_length: float
    avg_clustering: float
    transitivity: float
    degree_variance: float
    degree_gini: float


@dataclass(frozen=True)
class ParsedEdgeList:
    """Result of ingesting a whitespace-separated edge list.

    token_ids maps original vertex tokens to dense ids in first-appearance
    order. duplicate_edges and self_loops count dropped input lines.
    """

    graph: Graph
    token_ids: Mapping[str, int]
    duplicate_edges: int
    self_loops: int


def _graph(n: int, lo: np.ndarray, hi: np.ndarray) -> Graph:
    """Graph on n vertices with the distinct, loop-free edges (lo[i], hi[i])."""
    ends = (np.concatenate([lo, hi]), np.concatenate([hi, lo]))
    csr = coo_matrix((np.ones(2 * len(lo)), ends), shape=(n, n)).tocsr()  # sorts each row
    return Graph(n=n, edge_count=len(lo), _csr=csr)


def _repeats(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The mask of the pairs (lo[i], hi[i]) that repeat an earlier pair.

    A stable sort of the keys puts each repeat after the pair's first
    occurrence, in the same run. Pairs within [0, n) have distinct keys.
    """
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(key.size, dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    return repeated


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from explicit undirected edges.

    Rejects out-of-range endpoints, self-loops, and duplicate edges; use
    from_edge_list for tolerant ingestion of raw files. The error names the
    first offending edge in input order, and an edge out of range is
    reported as such even if it is also a loop or a repeat.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    us, vs = np.fromiter(edges, dtype=np.dtype((np.int64, 2))).T
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    out_of_range = (lo < 0) | (hi >= n)
    # Out-of-range keys can collide with others without misnaming the first
    # fault: such an edge is reported as out of range, before any later edge.
    bad = out_of_range | (lo == hi) | _repeats(n, lo, hi)
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(us[i]), int(vs[i])
        if out_of_range[i]:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
    return _graph(n, lo, hi)


def _check_regular(n: int, r: int) -> None:
    """The rules of an (n, r) that random_regular samples; ValueError otherwise."""
    if r < 3:
        raise ValueError(f"degree must be at least 3, got r={r}")
    if r > MAX_REGULAR_DEGREE:
        raise ValueError(
            f"degree {r} exceeds {MAX_REGULAR_DEGREE}: pairing draws are rarely simple")
    if n <= r:
        raise ValueError(f"n={n} must exceed r={r}")
    if (n * r) % 2 != 0:
        raise ValueError(f"n * r must be even, got n={n}, r={r}")


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Sample a connected random r-regular graph by the pairing model.

    Each attempt pairs the n*r half-edge stubs uniformly; attempts with
    self-loops, parallel edges, or a disconnected result are discarded
    whole and redrawn from the same generator stream, so the sample is
    uniform over connected simple r-regular graphs.

    Args:
        n: vertex count, must exceed r.
        r: degree, from 3 to MAX_REGULAR_DEGREE.
        seed: generator seed; equal seeds give identical graphs.
    """
    _check_regular(n, r)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), r)
    attempts = max(_MAX_PAIRING_ATTEMPTS, _PAIRING_STUB_BUDGET // (n * r))
    for _ in range(attempts):
        rng.shuffle(stubs)
        us = stubs[0::2]
        vs = stubs[1::2]
        if np.any(us == vs):
            continue
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        # A repeated pair is a parallel edge; sorted, its keys are adjacent.
        keys = np.sort(lo * n + hi)
        if np.any(keys[1:] == keys[:-1]):
            continue
        g = _graph(n, lo, hi)
        if connected_components(g.to_sparse(), directed=False)[0] == 1:
            return g
    raise RuntimeError(
        f"pairing model failed to produce a simple connected graph "
        f"after {attempts} attempts (n={n}, r={r})"
    )


def from_edge_list(lines: Iterable[str]) -> ParsedEdgeList:
    """Ingest a whitespace-separated edge list.

    Each non-blank, non-comment line holds two vertex tokens. Tokens are
    re-indexed densely in first-appearance order. Duplicate edges and
    self-loops are dropped and counted (a token seen only on a dropped
    line still registers as a vertex). Lines starting with '#' and blank
    lines are skipped.

    Raises:
        EdgeListParseError: if a line does not hold exactly two tokens;
            the message names the 1-based line number.
    """
    token_ids: dict[str, int] = {}
    ends: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two vertex tokens, got {len(tokens)}"
            )
        ends.extend(token_ids.setdefault(tok, len(token_ids)) for tok in tokens)
    us, vs = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    loops = lo == hi
    repeated = _repeats(len(token_ids), lo, hi) & ~loops
    kept = ~(loops | repeated)
    return ParsedEdgeList(
        graph=_graph(len(token_ids), lo[kept], hi[kept]),
        token_ids=token_ids,
        duplicate_edges=int(np.count_nonzero(repeated)),
        self_loops=int(np.count_nonzero(loops)),
    )


def serialize_edge_list(g: Graph) -> Iterator[str]:
    """Yield one 'u v' line per edge, endpoints ascending, lexicographic order."""
    for u, v in g.edges():
        yield f"{u} {v}"


def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in serialize_edge_list(g):
            fh.write(line + "\n")


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, re-indexed to 0..n'-1.

    Kept vertices are re-indexed in ascending original id order. Among
    equal-size components the one containing the smallest original id wins.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    _, labels = connected_components(g.to_sparse(), directed=False)
    sizes = np.bincount(labels)
    # The smallest id lying in a component of the largest size picks the winner.
    first = int(np.flatnonzero(sizes[labels] == sizes.max())[0])
    keep = np.flatnonzero(labels == labels[first])
    # Slicing rows and columns by the ascending keep re-indexes both ends.
    upper = triu(g.to_sparse()[keep][:, keep], format="coo")
    return _graph(keep.size, upper.row, upper.col)


def _search_one(g: Graph, source: int) -> np.ndarray:
    """Hop distances from one source by one C-level search, in the smallest
    unsigned dtype that holds them.

    csgraph's breadth_first_order (the adjacency is symmetric, so the
    directed search sees every edge both ways) dequeues in FIFO order, so
    the queue positions of the parents never decrease along the visiting
    order and each level is a contiguous run of it: the run of level d+1
    ends after the last vertex whose parent lies in level d, which one
    searchsorted per level finds.
    """
    n = g.n
    order, parent = breadth_first_order(
        g.to_sparse(), source, directed=True, return_predecessors=True
    )
    if order.size < n:
        reached = np.zeros(n, dtype=bool)
        reached[order] = True
        missing = int(np.flatnonzero(~reached)[0])
        raise ConnectivityError(f"vertex {missing} unreachable from source {source}")
    # The search returns int32 arrays, which numpy converts to intp each
    # time it indexes with them; the level pass converts the order once.
    order = order.astype(np.intp)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    parent_position = position.take(parent.take(order[1:]))
    ends = [1]  # level d occupies order[ends[d-1]:ends[d]], level 0 the source
    while ends[-1] < n:
        ends.append(1 + int(parent_position.searchsorted(ends[-1])))
    levels = np.arange(len(ends), dtype=np.min_scalar_type(len(ends) - 1))
    dist = np.empty(n, dtype=levels.dtype)
    dist[order] = np.repeat(levels, np.diff(ends, prepend=0))
    return dist


class _PassBuffers:
    """The arrays the level passes over one graph work in, allocated once
    per _bfs or structural_stats call rather than once per pass: the CSR
    indices as intp (numpy converts other index types on every gather), the
    row starts, the gathered neighbour words, the seen, frontier, plane and
    scratch words per vertex, and the distance counters, added as a pass
    first needs each and zeroed by every pass that uses it."""

    def __init__(self, g: Graph) -> None:
        csr = g.to_sparse()
        self.indices = csr.indices.astype(np.intp)
        self.starts = csr.indptr[:-1]
        self.gathered = np.empty(self.indices.size, dtype=np.uint64)
        self.seen, self.frontier, self.plane, self.unseen = np.empty((4, g.n), dtype=np.uint64)
        self.counters: list[np.ndarray] = []


def _packed_search(g: Graph, sources: np.ndarray, out: np.ndarray,
                   work: _PassBuffers) -> np.ndarray:
    """Hop distances from up to 64 sources by one level-synchronous pass,
    written into and returned as out: shape (n, len(sources)), zeroed, of a
    dtype that holds them. g must be connected with at least two vertices,
    as a _search_one that reached every vertex proves: then every CSR row
    has a neighbour for reduceat (over an empty row it returns the next
    row's first value), and the pass ends once each source has reached
    every vertex, which on any other graph it never would. The pass works in
    work, which must be g's.

    Bit j of a vertex's uint64 word stands for sources[j]. Each level ORs
    the frontier words of a vertex's neighbours (one gather of the CSR
    indices, then one bitwise_or.reduceat over the row starts) and keeps
    the bits not seen before: the plane of bits first reached at that
    level d. Each plane is ORed into counter b for every set bit b of d, so
    bit j of counters[b][v] is bit b of the distance from sources[j] to v.
    """
    n = g.n
    bits = np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64))
    every = np.bitwise_or.reduce(bits)
    seen, frontier, plane, unseen = work.seen, work.frontier, work.plane, work.unseen
    seen.fill(0)
    np.bitwise_or.at(seen, sources, bits)
    np.copyto(frontier, seen)
    counters = work.counters
    used = 0  # the counters this pass has zeroed: one per bit of its levels
    levels = 0
    while seen.min() != every:
        # take buffers its output under mode="raise"; the indices are in
        # range, so "clip" gathers the same words straight into the buffer.
        gathered = frontier.take(work.indices, out=work.gathered, mode="clip")
        np.bitwise_or.reduceat(gathered, work.starts, out=plane)
        np.bitwise_and(plane, np.invert(seen, out=unseen), out=plane)
        levels += 1
        np.bitwise_or(seen, plane, out=seen)
        if levels == 1 << used:
            if used == len(counters):
                counters.append(np.zeros(n, dtype=np.uint64))
            else:
                counters[used].fill(0)
            used += 1
        for b in range(used):
            if levels >> b & 1:
                np.bitwise_or(counters[b], plane, out=counters[b])
        frontier, plane = plane, frontier
    for b in range(used):
        # Byte i of a little-endian word holds bits 8i..8i+7, so unpacking
        # each word's bytes little-end first puts bit j of word v at [v, j].
        octets = counters[b].astype("<u8", copy=False).view(np.uint8).reshape(n, 8)
        unpacked = np.unpackbits(octets, axis=1, count=len(sources), bitorder="little")
        unpacked = unpacked.astype(out.dtype, copy=False)  # wider only past distance 255
        np.multiply(unpacked, out.dtype.type(1 << b), out=unpacked)
        np.bitwise_or(out, unpacked, out=out)
        del unpacked  # so the next counter's bits are not unpacked beside these
    return out


def _bfs(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Hop distances from each source, shape (n, len(sources)): column j
    holds the distances from sources[j], in the smallest unsigned dtype
    that holds them (callers that compute with them cast).

    The first source is searched alone (_search_one), and its eccentricity
    decides the rest: when they number at least _PACKED_MIN_SOURCES and at
    least that eccentricity, which must be positive (the first search proved
    the graph connected, and this that it has two vertices), all sources,
    the first again, are searched 64 to a level pass (_packed_search), whose
    cost grows with the levels, not the sources; otherwise each is searched
    alone as well. Each search writes its own columns of one result array.

    Raises:
        ConnectivityError: naming the first source, in the given order, that
            leaves a vertex unreachable, and its smallest unreachable vertex.
    """
    sources = np.asarray(sources, dtype=np.intp).reshape(-1)
    if sources.size == 0:
        return np.zeros((g.n, 0), dtype=np.uint8)
    first = _search_one(g, int(sources[0]))
    eccentricity = int(first.max())
    # The first search reached every vertex, so no distance exceeds twice
    # its eccentricity; the result narrows to the largest one found.
    dist = np.zeros((g.n, sources.size), dtype=np.min_scalar_type(2 * eccentricity))
    rest = sources.size - 1
    if rest >= _PACKED_MIN_SOURCES and 0 < eccentricity <= rest:
        # From column 0, so a pass over every source writes whole rows.
        work = _PassBuffers(g)
        for start in range(0, sources.size, _WORD_BITS):
            stop = start + _WORD_BITS
            _packed_search(g, sources[start:stop], dist[:, start:stop], work)
    else:
        dist[:, 0] = first
        for j in range(1, sources.size):
            dist[:, j] = _search_one(g, int(sources[j]))
    return dist.astype(np.min_scalar_type(int(dist.max())), copy=False)


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from source to every vertex.

    Raises:
        ValueError: source out of range.
        ConnectivityError: some vertex is unreachable from source.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    return _bfs(g, [source])[:, 0].astype(np.int64)


def anchor_profile(g: Graph, anchors: AnchorSet) -> np.ndarray:
    """Distance profile matrix, shape (n, k): column j is distance to anchor j.

    Column order follows the anchor order. Connectivity errors from BFS
    propagate.
    """
    for a in anchors.anchors:
        if a >= g.n:
            raise ValueError(f"anchor {a} out of range for n={g.n}")
    return _bfs(g, anchors.anchors).astype(np.int64)


def _triangles_per_vertex(g: Graph) -> np.ndarray:
    adj = g.to_sparse()
    # (A @ A) .* A counts, per vertex, ordered neighbour pairs closed by an edge.
    paths = (adj @ adj).multiply(adj)
    return np.asarray(paths.sum(axis=1)).ravel() / 2.0


def structural_stats(g: Graph) -> GraphStats:
    """Structural summary of a connected graph with at least two vertices.

    Clustering of a vertex with degree below 2 is defined as 0. Degree
    variance is the population variance; the Gini coefficient is computed
    on the sorted degree sequence.
    """
    if g.n < 2:
        raise ValueError("structural statistics need at least two vertices")
    degs = g.degrees().astype(np.float64)
    # One search proves the graph connected, as each level pass needs, and
    # bounds every distance by twice its eccentricity. The exact total of
    # each pass's chunk of distances makes the mean the dense one.
    eccentricity = int(_search_one(g, 0).max())
    chunk = np.empty((g.n, _WORD_BITS), dtype=np.min_scalar_type(2 * eccentricity))
    work = _PassBuffers(g)
    diameter = distance_total = 0
    for start in range(0, g.n, _WORD_BITS):
        sources = np.arange(start, min(start + _WORD_BITS, g.n))
        dist = chunk[:, : sources.size]
        dist.fill(0)
        _packed_search(g, sources, dist, work)
        diameter = max(diameter, int(dist.max()))
        distance_total += int(dist.sum(dtype=np.int64))
    pair_count = g.n * (g.n - 1) // 2
    tri = _triangles_per_vertex(g)

    clustering = np.zeros(g.n, dtype=np.float64)
    mask = degs >= 2
    pairs = degs[mask] * (degs[mask] - 1.0) / 2.0
    clustering[mask] = tri[mask] / pairs

    wedges = float(np.sum(degs * (degs - 1.0) / 2.0))
    closed = float(np.sum(tri))  # equals 3 * triangle count
    transitivity = closed / wedges if wedges > 0 else 0.0

    sorted_degs = np.sort(degs)
    total = float(sorted_degs.sum())
    idx = np.arange(1, g.n + 1, dtype=np.float64)
    gini = float(np.sum((2.0 * idx - g.n - 1.0) * sorted_degs) / (g.n * total))

    return GraphStats(
        n=g.n,
        edge_count=g.edge_count,
        avg_degree=float(degs.mean()),
        density=2.0 * g.edge_count / (g.n * (g.n - 1)),
        diameter=diameter,
        avg_shortest_path_length=distance_total // 2 / pair_count,
        avg_clustering=float(clustering.mean()),
        transitivity=transitivity,
        degree_variance=float(np.var(degs)),
        degree_gini=gini,
    )
