"""Fibers, buckets, optimal reconstruction, and collision diagnostics."""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsmap import cli
from obsmap.graphs import (
    AnchorSet,
    anchor_profile,
    from_edge_list,
    largest_connected_component,
    random_regular,
)
from obsmap.harness import anchor_seed_for, select_anchors
from obsmap.observation import (
    BUCKET_CUTOFFS,
    BoundReport,
    BucketDiagnostics,
    BucketLevel,
    FiberStats,
    Groups,
    _group_rows,
    _row_medians,
    anchor_stage,
    bucket_diagnostics,
    build_observation,
    evaluate_rows,
    fiber_stats,
    min_id_section,
    refine_observation,
    section_success,
    sequential_sum,
)
from obsmap.spectral import (
    QuantizedCodes,
    codebook_size,
    empty_embedding,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_absolute,
    quantize_relative,
)
from obsmap.theory import bound_report

from conftest import (
    assert_groups_match,
    observations,
    path_graph,
    random_connected_graph,
    ref_join,
    row_tuples,
    star_graph,
    table_views,
)


def codes_from_rows(rows) -> QuantizedCodes:
    arr = np.array(rows, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(len(rows), 0)
    arr.setflags(write=False)
    return QuantizedCodes(codes=arr, rule="absolute", eta=1.0, delta=1.0)


def no_codes(n: int) -> QuantizedCodes:
    return quantize_absolute(empty_embedding(n, scaled=False), 1.0)


def one_bucket(rows) -> BucketDiagnostics:
    """Diagnostics of a table without anchors: one bucket holding every
    vertex, whose code rows are the given rows."""
    codes = codes_from_rows(rows)
    return bucket_diagnostics(build_observation(path_graph(codes.n), AnchorSet(()), codes))


def random_instance(seed: int, m: int = 2, eta: float = 0.5):
    """A connected graph with anchors and quantized spectral codes."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(seed, n_min=m + 4, n_max=40)
    k = int(rng.integers(1, 4))
    anchors = AnchorSet(tuple(int(a) for a in rng.choice(g.n, size=k, replace=False)))
    basis = low_frequency_basis(normalized_laplacian(g), m)
    emb = energy_embedding(basis, m, scaled=True)
    codes = quantize_absolute(emb, eta)
    return g, anchors, codes


class TestBuildObservation:
    def test_star_center_anchor(self):
        g = star_graph(3)
        fibers, buckets = table_views(build_observation(g, AnchorSet((0,)), no_codes(4)))
        assert len(fibers) == 2
        assert buckets[(0,)] == (0,)
        assert buckets[(1,)] == (1, 2, 3)

    def test_path_end_anchors_injective(self):
        g = path_graph(4)
        table = build_observation(g, AnchorSet((0, 3)), no_codes(4))
        assert len(table_views(table)[0]) == 4

    def test_m0_fibers_equal_buckets(self):
        g, anchors, _ = random_instance(3)
        fibers, buckets = table_views(build_observation(g, anchors, no_codes(g.n)))
        assert set(fibers.values()) == set(buckets.values())

    def test_partition_invariants(self):
        g, anchors, codes = random_instance(7)
        fibers, buckets = table_views(build_observation(g, anchors, codes))
        assert sum(len(vs) for vs in fibers.values()) == g.n
        assert sum(len(vs) for vs in buckets.values()) == g.n
        for (profile, _), members in fibers.items():
            bucket = set(buckets[profile])
            assert set(members) <= bucket

    def test_row_count_mismatch(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="rows"):
            build_observation(g, AnchorSet((0,)), no_codes(5))


class TestFiberStats:
    def test_injective_table(self):
        g = path_graph(4)
        stats = fiber_stats(build_observation(g, AnchorSet((0, 3)), no_codes(4)))
        assert stats.error == 0.0
        assert stats.vertex_mean_preimage == 1.0
        assert stats.singleton_fraction == 1.0

    def test_star_counts(self):
        g = star_graph(3)
        stats = fiber_stats(build_observation(g, AnchorSet((0,)), no_codes(4)))
        assert stats.success == 0.5
        assert stats.error == 0.5
        assert stats.vertex_mean_preimage == 2.5
        assert stats.singleton_fraction == 0.25

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_consistency(self, seed):
        g, anchors, codes = random_instance(seed)
        stats = fiber_stats(build_observation(g, anchors, codes))
        assert 0.0 < stats.success <= 1.0
        assert stats.error == pytest.approx(1.0 - stats.success, abs=1e-15)
        assert stats.vertex_mean_preimage >= 1.0
        assert 0.0 <= stats.singleton_fraction <= 1.0


class TestOptimalError:
    def test_star_no_map_does_better(self):
        # Brute force over every reconstruction map on the 2-observation
        # table: none beats success 0.5.
        g = star_graph(3)
        table = build_observation(g, AnchorSet((0,)), no_codes(4))
        observed = observations(table)
        obs = sorted(set(observed))
        best = 0
        for assignment in itertools.product(range(4), repeat=len(obs)):
            guess = dict(zip(obs, assignment))
            hits = sum(guess[o] == v for v, o in enumerate(observed))
            best = max(best, hits)
        assert best / 4 == 0.5
        assert fiber_stats(table).error == 0.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_section_attains_optimum(self, seed):
        g, anchors, codes = random_instance(seed)
        table = build_observation(g, anchors, codes)
        assert section_success(table) == pytest.approx(
            1.0 - fiber_stats(table).error, abs=1e-15
        )

    @given(st.integers(0, 300))
    @settings(max_examples=12, deadline=None)
    def test_no_map_beats_image_count(self, seed):
        # Exhaustive enumeration stays feasible when the image is tiny, so
        # shrink to n <= 8 with a single coarse anchor.
        g = random_connected_graph(seed, n_min=4, n_max=8)
        table = build_observation(g, AnchorSet((0,)), no_codes(g.n))
        observed = observations(table)
        obs = sorted(set(observed))
        if len(obs) > 4:
            return
        best = 0
        for assignment in itertools.product(range(g.n), repeat=len(obs)):
            guess = dict(zip(obs, assignment))
            hits = sum(guess[o] == v for v, o in enumerate(observed))
            best = max(best, hits)
        assert best == len(table_views(table)[0])

    def test_min_id_section_picks_smallest(self):
        g = star_graph(3)
        table = build_observation(g, AnchorSet((0,)), no_codes(4))
        section = min_id_section(table)
        assert section.tolist() == [0, 1]
        assert section is not table.fiber_groups.first


class TestBucketCollision:
    def test_two_of_three_shared(self):
        assert one_bucket([[1], [1], [2]]).collisions[0] == pytest.approx(1.0 / 3.0)

    def test_all_equal(self):
        assert one_bucket([[5], [5], [5], [5]]).collisions[0] == 1.0

    def test_all_distinct(self):
        assert one_bucket([[1], [2], [3]]).collisions[0] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_all_pairs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 12))
        rows = rng.integers(0, 3, size=(b, 2))
        bucket = list(range(b))
        same = sum(
            1
            for u in bucket
            for v in bucket
            if u != v and tuple(rows[u]) == tuple(rows[v])
        )
        diag = one_bucket(rows.tolist())
        assert diag.collisions[0] == pytest.approx(same / (b * (b - 1)))


class TestBucketBalance:
    def test_two_of_three_shared(self):
        assert one_bucket([[1], [1], [2]]).balances[0] == pytest.approx(4.0 / 3.0)

    def test_uniform_occupancy(self):
        assert one_bucket([[1], [2], [3]]).balances[0] == 1.0

    def test_three_of_four_shared(self):
        assert one_bucket([[1], [1], [1], [2]]).balances[0] == 1.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 12))
        rows = rng.integers(0, 4, size=(b, 1))
        balances = one_bucket(rows.tolist()).balances
        # A single vertex is a singleton bucket, which has no row.
        assert balances.size == (b > 1)
        assert np.all(balances >= 1.0)


class TestBucketDiagnostics:
    def build_five_vertex_example(self):
        # One bucket of three vertices with codes [z1, z1, z2] plus two
        # singleton buckets.
        g = star_graph(4)  # center 0, leaves 1..4
        # anchor (1,) splits: vertex 1 profile (0,), center (1,),
        # leaves 2,3,4 profile (2,); that bucket carries codes [z1, z1, z2]
        codes = codes_from_rows([[9], [8], [1], [1], [2]])
        table = build_observation(g, AnchorSet((1,)), codes)
        assert len(table_views(table)[1]) == 3
        return table

    def test_five_vertex_example(self):
        diag = bucket_diagnostics(self.build_five_vertex_example())
        assert diag.singleton_vertex_fraction == pytest.approx(0.4)
        level2 = diag.level(2)
        assert level2.bucket_count == 1
        assert level2.weighted_collision == pytest.approx(1.0 / 3.0)
        assert level2.median_code_ratio == pytest.approx(2.0 / 3.0)
        assert level2.q90_balance == pytest.approx(4.0 / 3.0)
        level3 = diag.level(3)
        assert level3.weighted_collision == pytest.approx(1.0 / 3.0)
        level10 = diag.level(10)
        assert level10.bucket_count == 0
        assert level10.weighted_collision is None
        assert level10.median_code_ratio is None
        assert level10.q90_balance is None
        assert level10.below_cutoff_vertex_fraction == 1.0

    def test_all_singletons(self):
        g = path_graph(4)
        table = build_observation(g, AnchorSet((0, 3)), no_codes(4))
        diag = bucket_diagnostics(table)
        assert diag.singleton_vertex_fraction == 1.0
        assert diag.profiles.shape == (0, 2)
        assert diag.sizes.size == 0
        for level in diag.levels:
            assert level.weighted_collision is None

    def test_cutoffs_are_fixed(self):
        assert BUCKET_CUTOFFS == (2, 3, 10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_row_values_match_standalone_ops(self, seed):
        g, anchors, codes = random_instance(seed, m=1, eta=2.0)
        table = build_observation(g, anchors, codes)
        diag = bucket_diagnostics(table)
        _, buckets = table_views(table)
        code_rows = row_tuples(table.code_matrix)
        for i, profile in enumerate(diag.profiles.tolist()):
            members = buckets[tuple(profile)]
            counts = Counter(code_rows[v] for v in members)
            b = len(members)
            same = sum(c * (c - 1) for c in counts.values())
            assert diag.sizes[i] == b
            assert diag.code_counts[i] == len(counts)
            assert diag.collisions[i] == pytest.approx(same / (b * (b - 1)))
            assert diag.balances[i] == pytest.approx(len(counts) / b * max(counts.values()))
            assert 0.0 <= diag.collisions[i] <= 1.0
            assert diag.balances[i] >= 1.0
            assert diag.code_counts[i] <= diag.sizes[i]

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_image_is_sum_of_bucket_code_counts(self, seed):
        g, anchors, codes = random_instance(seed, m=1, eta=1.0)
        table = build_observation(g, anchors, codes)
        diag = bucket_diagnostics(table)
        fibers, buckets = table_views(table)
        singleton_buckets = sum(1 for vs in buckets.values() if len(vs) == 1)
        total = singleton_buckets + int(diag.code_counts.sum())
        assert total == len(fibers)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_per_bucket_refinement_inequality(self, seed):
        g, anchors, codes = random_instance(seed, m=1, eta=1.0)
        table = build_observation(g, anchors, codes)
        diag = bucket_diagnostics(table)
        bound = diag.balances * diag.sizes / (1.0 + (diag.sizes - 1) * diag.collisions)
        assert np.all(diag.code_counts <= bound + 1e-12)

    def test_refinement_inequality_worked_example(self):
        diag = one_bucket([[1], [1], [2]])
        coll, bal = diag.collisions[0], diag.balances[0]
        assert bal * 3 / (1.0 + 2 * coll) == pytest.approx(2.4)
        assert diag.code_counts[0] == 2 <= 2.4


class TestRefinement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_adding_code_coordinates_never_merges_fibers(self, seed):
        g, anchors, codes = random_instance(seed, m=2, eta=0.5)
        full = table_views(build_observation(g, anchors, codes))[0]
        distance_only = table_views(build_observation(g, anchors, no_codes(g.n)))[0]
        assert len(full) >= len(distance_only)
        # spectral-only lower bound: distinct code rows
        spectral_rows = len(set(row_tuples(codes.codes)))
        assert len(full) >= spectral_rows


def test_near_injective_regime_matches_published_row():
    # Cubic graphs at n=2000 with two anchors and five fine-grained
    # spectral coordinates: collisions nearly vanish. Published row:
    # weighted collision 4.45e-4 (+-30%), overall error 0.012 (+-0.02),
    # median code ratio 0.9999. Measured here across 4 instances drawn
    # from the same distribution at reduced count for test runtime; the
    # full 20x10 protocol is exercised by the sweep-level suite.
    from obsmap.harness import analyze_records, graph_seed_for

    errs = []
    wcolls = []
    meds = []
    for trial in range(2):
        seed = graph_seed_for(0, 2000, 3, trial)
        g = random_regular(2000, 3, seed)
        recs = analyze_records(
            g, r=3, k=2, m=5, eta="0.3", quantizer="absolute",
            scaled=True, anchor_strategy="random", seed=seed, resamples=2,
        )
        for rec in recs:
            errs.append(rec.error)
            wcolls.append(rec.weighted_collision)
            meds.append(rec.median_code_ratio)
    assert abs(sum(errs) / len(errs) - 0.012) <= 0.02
    assert sum(meds) / len(meds) >= 0.995
    # per-instance collision fluctuates at this sample size; the mean must
    # stay inside an order of magnitude of the published value
    mean_wcoll = sum(wcolls) / len(wcolls)
    assert 4.45e-5 <= mean_wcoll <= 4.45e-3


# Dict/Counter reference implementation of the observation join (ref_join,
# in conftest) and its statistics, built vertex by vertex. The array-native
# module must agree with it exactly, float bits included.


def ref_fiber_stats(fibers, n):
    sizes = [len(vs) for vs in fibers.values()]
    return FiberStats(
        image_size=len(sizes),
        success=len(sizes) / n,
        error=1.0 - len(sizes) / n,
        vertex_mean_preimage=sum(s * s for s in sizes) / n,
        singleton_fraction=sum(1 for s in sizes if s == 1) / n,
    )


RefBucket = namedtuple("RefBucket", "size code_count collision balance")
RefDiagnostics = namedtuple("RefDiagnostics", "rows levels singleton_vertex_fraction")


def ref_bucket_diagnostics(buckets, code_rows, n):
    """Non-singleton buckets keyed by profile, in first-appearance order,
    plus the cutoff levels and the singleton-bucket vertex fraction."""
    rows = {}
    singletons = 0
    for profile, members in buckets.items():
        b = len(members)
        if b == 1:
            singletons += 1
            continue
        counts = Counter(code_rows[v] for v in members)
        same = sum(c * (c - 1) for c in counts.values())
        rows[profile] = RefBucket(
            size=b,
            code_count=len(counts),
            collision=same / (b * (b - 1)),
            balance=(len(counts) / b) * max(counts.values()),
        )
    levels = []
    for cutoff in BUCKET_CUTOFFS:
        qual = [r for r in rows.values() if r.size >= cutoff]
        if qual:
            weights = [r.size * (r.size - 1) for r in qual]
            weighted = 0.0
            for w, r in zip(weights, qual):
                weighted += w * r.collision  # left to right, as reported means add
            wcoll = weighted / sum(weights)
            med = float(np.median([r.code_count / r.size for r in qual]))
            balances = sorted(r.balance for r in qual)
            q90 = balances[int(np.ceil(0.9 * len(balances))) - 1]
        else:
            wcoll = med = q90 = None
        levels.append(BucketLevel(
            cutoff=cutoff,
            bucket_count=len(qual),
            below_cutoff_vertex_fraction=(n - sum(r.size for r in qual)) / n,
            weighted_collision=wcoll,
            median_code_ratio=med,
            q90_balance=q90,
        ))
    return RefDiagnostics(rows, tuple(levels), singletons / n)


def assert_diagnostics_match(diag, ref, k):
    """Every array and every level of diag equals the reference exactly."""
    assert diag.profiles.shape == (len(ref.rows), k)
    assert [tuple(p) for p in diag.profiles.tolist()] == list(ref.rows)
    for array, field in (
        (diag.sizes, "size"),
        (diag.code_counts, "code_count"),
        (diag.collisions, "collision"),
        (diag.balances, "balance"),
    ):
        assert array.tolist() == [getattr(r, field) for r in ref.rows.values()]
    assert diag.levels == ref.levels
    assert diag.singleton_vertex_fraction == ref.singleton_vertex_fraction


INT64 = np.iinfo(np.int64)

# Per-column value pools. "narrow" collides often and goes negative;
# "moderate" spans 2**26 per column, so a few columns overflow the packed
# key and force the key re-ranking path; "wide" spans the whole int64
# range, which forces re-ranking the column as well.
CODE_RANGES = ("narrow", "moderate", "wide")


def synthetic_codes(seed: int, n: int, m: int, code_range: str) -> QuantizedCodes:
    rng = np.random.default_rng(seed)
    if code_range == "narrow":
        pool = rng.integers(-3, 4, size=(m, 4))
    elif code_range == "moderate":
        pool = rng.integers(-(2**25), 2**25, size=(m, 4), endpoint=True)
        pool[:, :2] = (-(2**25), 2**25)
    else:
        pool = rng.integers(INT64.min, INT64.max, size=(m, 4), dtype=np.int64, endpoint=True)
        pool[:, :2] = (INT64.min, INT64.max)
    picks = rng.integers(0, 4, size=(n, m))
    return codes_from_rows(pool[np.arange(m), picks].reshape(n, m).tolist())


@st.composite
def regular_graphs(draw):
    r = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(r + 1, 40).filter(lambda v: v * r % 2 == 0))
    return random_regular(n, r, draw(st.integers(0, 10**6)))


@st.composite
def edge_list_graphs(draw):
    pairs = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=50))
    parsed = from_edge_list(f"v{u} v{v}" for u, v in pairs)
    return largest_connected_component(parsed.graph)


@st.composite
def instances(draw):
    g = draw(st.one_of(regular_graphs(), edge_list_graphs()))
    anchors = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=min(4, g.n)))
    m = draw(st.integers(0, 3))
    codes = synthetic_codes(draw(st.integers(0, 10**6)), g.n, m, draw(st.sampled_from(CODE_RANGES)))
    return g, AnchorSet(tuple(anchors)), codes


class TestArrayNativeMatchesReference:
    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_join_statistics_and_codebook(self, instance):
        g, anchors, codes = instance
        table = build_observation(g, anchors, codes)
        profile_rows = [tuple(int(d) for d in row) for row in anchor_profile(g, anchors)]
        code_rows = [tuple(int(c) for c in row) for row in codes.codes]
        fibers, buckets = ref_join(profile_rows, code_rows)

        assert row_tuples(table.profile_matrix) == profile_rows
        assert row_tuples(table.code_matrix) == code_rows
        assert_groups_match(table.fiber_groups, fibers)
        assert_groups_match(table.bucket_groups, buckets)
        assert fiber_stats(table) == ref_fiber_stats(fibers, g.n)
        diag = bucket_diagnostics(table)
        assert diag.n == g.n
        assert_diagnostics_match(diag, ref_bucket_diagnostics(buckets, code_rows, g.n), anchors.k)
        assert codebook_size(codes) == len(set(code_rows))

    def test_k0_and_m0_is_one_fiber(self):
        g = random_regular(10, 3, 1)
        table = build_observation(g, AnchorSet(()), no_codes(g.n))
        fibers, _ = table_views(table)
        assert fibers == {((), ()): tuple(range(10))}
        assert fiber_stats(table) == ref_fiber_stats(fibers, 10)
        assert codebook_size(no_codes(g.n)) == 1


def ref_bound_report(fibers, buckets, code_rows, ref) -> BoundReport:
    """The counting bounds from the dict-walk join and diagnostics."""
    image, profiles = len(fibers), len(buckets)
    generic = profiles * len(set(code_rows))
    rows = list(ref.rows.values())
    refined = None
    if rows and min(r.collision for r in rows) > 0:
        refined = profiles * (1.0 + max(r.balance for r in rows) / min(r.collision for r in rows))
    return BoundReport(image, profiles, generic, image <= generic, refined,
                       None if refined is None else image <= refined)


@st.composite
def row_batches(draw):
    """Rows of one graph for evaluate_rows: anchor sets, k = 0 included,
    beside code tables of either quantizer, scaled or not, with m = 0
    included and steps down to 1e-6."""
    g = draw(st.one_of(regular_graphs(), edge_list_graphs(), st.integers(2, 12).map(path_graph))
             .filter(lambda g: g.n >= 2))  # a lone vertex has no Laplacian
    m_max = min(3, g.n - 1)
    basis = low_frequency_basis(normalized_laplacian(g), m_max)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        anchors = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=min(4, g.n)))
        m, scaled = draw(st.integers(0, m_max)), draw(st.booleans())
        emb = energy_embedding(basis, m, scaled) if m else empty_embedding(g.n, scaled)
        quantize = draw(st.sampled_from((quantize_absolute, quantize_relative)))
        rows.append((AnchorSet(tuple(anchors)), quantize(emb, draw(st.sampled_from(ETAS)))))
    return g, rows


ETAS = (2.0, 0.5, 0.1, 1e-6)


class TestBatchedRows:
    """evaluate_rows against the dict-walk join, row by row, and against
    the one-row paths of a table."""

    @given(row_batches())
    @settings(max_examples=100, deadline=None)
    def test_every_row_matches_dict_walk(self, drawn):
        g, rows = drawn
        stages = [anchor_stage(anchor_profile(g, anchors)) for anchors, _ in rows]
        got = evaluate_rows([(stage, codes.groups) for stage, (_, codes) in zip(stages, rows)])
        assert len(got) == len(rows)
        for (anchors, codes), stage, (stats, diag, bounds) in zip(rows, stages, got):
            code_rows = row_tuples(codes.codes)
            fibers, buckets = ref_join(row_tuples(stage.profile_matrix), code_rows)
            ref = ref_bucket_diagnostics(buckets, code_rows, g.n)
            assert stats == ref_fiber_stats(fibers, g.n)
            assert diag.n == g.n
            assert_diagnostics_match(diag, ref, anchors.k)
            assert bounds == ref_bound_report(fibers, buckets, code_rows, ref)
            table = refine_observation(stage, codes)
            assert fiber_stats(table) == stats
            assert bound_report(table, codes) == bounds

    def test_inapplicable_aggregates_and_bounds(self):
        g = path_graph(6)
        singletons = anchor_stage(anchor_profile(g, AnchorSet((0,))))
        one_bucket = anchor_stage(anchor_profile(g, AnchorSet(())))
        distinct = codes_from_rows([[v] for v in range(6)])
        shared = codes_from_rows([[0], [0], [1], [1], [1], [2]])
        (_, alone, alone_bounds), (_, apart, apart_bounds), (stats, diag, bounds) = evaluate_rows(
            [(singletons, shared.groups), (one_bucket, distinct.groups),
             (one_bucket, shared.groups)])
        # No non-singleton bucket: every aggregate and the refined bound are n/a.
        assert alone.sizes.size == 0 and alone.singleton_vertex_fraction == 1.0
        assert all(level.weighted_collision is None for level in alone.levels)
        assert alone_bounds.refined_bound is None and alone_bounds.refined_satisfied is None
        # One bucket of distinct codes: zero collision leaves the refined bound n/a.
        assert apart.collisions.tolist() == [0.0]
        assert apart.level(2).weighted_collision == 0.0
        assert apart_bounds.refined_bound is None and apart_bounds.refined_satisfied is None
        # Classes of 2, 3 and 1: 8 ordered pairs of 30 share a code.
        assert stats.image_size == 3 and stats.vertex_mean_preimage == 14 / 6
        assert diag.collisions.tolist() == [8 / 30] and diag.balances.tolist() == [1.5]
        assert bounds.refined_bound == 1.0 + 1.5 / (8 / 30) and bounds.refined_satisfied


def ref_section_success(observed, section):
    """The decoder as a dict: each observation goes to the first section
    vertex that has it, and a vertex is recovered when it comes back."""
    decode = {}
    for v in section:
        decode.setdefault(observed[v], v)
    return sum(decode.get(obs) == v for v, obs in enumerate(observed)) / len(observed)


def with_fibers(table, ids):
    """The table with its fiber partition replaced by the groups of ids."""
    ids = np.asarray(ids)
    first = np.array([np.flatnonzero(ids == i)[0] for i in range(ids.max() + 1)])
    return dataclasses.replace(
        table, fiber_groups=Groups(ids=ids, first=first, sizes=np.bincount(ids)))


class TestSectionDecoder:
    """section_success reads observation rows, not fiber ids, so it scores
    a wrong section or a wrong partition below the optimum."""

    @given(instances(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_dict_decoder(self, instance, data):
        table = build_observation(*instance)
        observed = observations(table)
        fibers, _ = table_views(table)
        chosen = [data.draw(st.sampled_from(vs)) for vs in fibers.values()]
        optimum = fiber_stats(table).success
        assert section_success(table) == ref_section_success(observed, min_id_section(table))
        assert section_success(table) == optimum
        assert section_success(table, np.array(chosen)) == optimum
        arbitrary = data.draw(st.lists(st.integers(0, table.n - 1), max_size=2 * table.n))
        assert section_success(table, np.array(arbitrary, dtype=np.intp)) == (
            ref_section_success(observed, arbitrary))

    @pytest.mark.parametrize("seed", range(6))
    def test_swapped_representative_scores_below_optimum(self, seed):
        g, anchors, codes = random_instance(seed)
        table = build_observation(g, anchors, codes)
        fibers = table.fiber_groups
        assert len(fibers) >= 2
        big = int(np.argmax(fibers.sizes))
        other = (big + 1) % len(fibers)
        for stranger in np.flatnonzero(fibers.ids == big):
            section = min_id_section(table)
            section[other] = stranger
            assert section_success(table, section) == (len(fibers) - 1) / g.n
            assert section_success(table, section) < fiber_stats(table).success

    @pytest.mark.parametrize("seed", range(6))
    def test_wrong_partition_is_caught(self, seed):
        # Coarse codes, so some fiber has two members to split.
        g, anchors, codes = random_instance(seed, m=1, eta=2.0)
        table = build_observation(g, anchors, codes)
        ids, image = table.fiber_groups.ids, len(table.fiber_groups)
        optimum = fiber_stats(table).success
        # Two distinct observations merged into one fiber.
        merged = with_fibers(table, np.where(ids > 0, ids - 1, 0))
        assert section_success(merged) == (image - 1) / g.n < optimum
        # One fiber split in two: the claimed optimum rises, the decoder's rate
        # cannot.
        big = int(np.argmax(table.fiber_groups.sizes))
        split = ids.copy()
        split[np.flatnonzero(ids == big)[-1]] = image
        split = with_fibers(table, split)
        assert fiber_stats(split).success == (image + 1) / g.n
        assert section_success(split) == optimum

    @pytest.mark.parametrize("k,m", [(0, 0), (0, 2), (2, 0)])
    def test_one_observation_scores_one_vertex(self, k, m):
        g = random_regular(12, 3, 2)
        anchors = AnchorSet(tuple(range(k)))
        codes = codes_from_rows([[0] * m for _ in range(g.n)] if m else [()] * g.n)
        table = build_observation(g, anchors, codes)
        if k or m:
            # Equal but non-empty rows: the vertex lookup runs.
            table = dataclasses.replace(
                table, profile_matrix=np.zeros((g.n, k), dtype=np.int64))
        assert section_success(table) == 1 / g.n
        assert section_success(table, np.array([5, 3])) == 1 / g.n
        assert section_success(table, np.zeros(0, dtype=np.intp)) == 0.0


class TestLargestBucketsListing:
    """The `diagnose-buckets` listing: size descending, then profile
    ascending, with the reference's values in the CLI's formats."""

    ARGS = ("--regular", "300,3", "--seed", "5", "--anchors", "2", "--m", "2", "--eta", "0.5")

    def reference_lines(self):
        g = random_regular(300, 3, 5)
        anchors = select_anchors(g, 2, "random", anchor_seed_for(5, 2, "random", 0))
        basis = low_frequency_basis(normalized_laplacian(g), 2)
        codes = quantize_absolute(energy_embedding(basis, 2, scaled=True), 0.5)
        profile_rows = [tuple(int(d) for d in row) for row in anchor_profile(g, anchors)]
        code_rows = [tuple(int(c) for c in row) for row in codes.codes]
        _, buckets = ref_join(profile_rows, code_rows)
        rows = ref_bucket_diagnostics(buckets, code_rows, g.n).rows
        ranked = sorted(rows.items(), key=lambda kv: (-kv[1].size, kv[0]))
        return [
            f"  ({','.join(map(str, p))}) {r.size} {r.code_count} "
            f"{r.collision:.6g} {r.balance:.6g}"
            for p, r in ranked
        ]

    @pytest.mark.parametrize("top", [6, 10_000])
    def test_order_and_values_match_reference(self, capsys, top):
        want = self.reference_lines()
        sizes = [int(line.split()[1]) for line in want]
        # Equal sizes at the cut and beyond: the profile decides the order.
        assert sizes[5] == sizes[6]
        assert len(want) < 10_000
        assert cli.main(["diagnose-buckets", *self.ARGS, "--top", str(top)]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out.index("largest buckets (profile size codes collision balance):")
        assert out[header + 1:] == want[:top]


def ref_groups(rows):
    """(ids, first, sizes) from a dict walk in first-appearance order."""
    index, first, sizes, ids = {}, [], [], []
    for v, row in enumerate(rows):
        if row not in index:
            index[row] = len(first)
            first.append(v)
            sizes.append(0)
        ids.append(index[row])
        sizes[index[row]] += 1
    return ids, first, sizes


class TestGroupingKernel:
    @pytest.mark.parametrize("rows", [
        np.zeros((5, 0), dtype=np.int64),  # w = 0: one group
        np.zeros((0, 3), dtype=np.int64),  # no rows: no groups
        np.array([[-1, 2], [-1, 2], [3, -4], [-1, 3]]),
        np.array([[INT64.min], [INT64.max], [INT64.min], [0]]),  # column re-rank
        np.array([[INT64.min, INT64.max], [INT64.max, INT64.min], [INT64.min, INT64.max]]),
        np.array([[0] * 5 + [2**20], [2**20] * 6, [0] * 6, [0] * 5 + [2**20]]),  # key re-rank
    ])
    def test_matches_dict_walk(self, rows):
        groups = _group_rows(rows)
        ids, first, sizes = ref_groups([tuple(r) for r in rows.tolist()])
        assert groups.ids.tolist() == ids
        assert groups.first.tolist() == first
        assert groups.sizes.tolist() == sizes
        assert len(groups) == len(sizes)

    # Thousands of rows in few groups: long runs of tied keys, whose order an
    # unstable sort is free to change.
    @pytest.mark.parametrize("rows", [
        # 5000 rows over 7 distinct rows.
        np.random.default_rng(1).integers(-3, 4, size=(7, 3))[
            np.random.default_rng(2).integers(0, 7, size=5000)],
        # Key re-rank: 64 distinct rows whose packed key outgrows _KEY_LIMIT.
        (2**20 * np.random.default_rng(3).integers(0, 2, size=(64, 6)))[
            np.random.default_rng(4).integers(0, 64, size=3000)],
        # Column re-rank: the first column spans all of int64.
        np.column_stack([
            np.random.default_rng(5).choice([INT64.min, -1, 0, INT64.max], size=3000),
            np.random.default_rng(6).integers(0, 3, size=3000),
        ]),
    ], ids=["7keys_n5000", "key_rerank_n3000", "column_rerank_n3000"])
    def test_many_ties_match_dict_walk(self, rows):
        groups = _group_rows(rows)
        ids, first, sizes = ref_groups([tuple(r) for r in rows.tolist()])
        assert groups.ids.tolist() == ids
        assert groups.first.tolist() == first
        assert groups.sizes.tolist() == sizes

    def test_bfs_profile_matches_dict_walk(self):
        g = random_regular(6000, 3, 0)
        anchors = select_anchors(g, 8, "random", anchor_seed_for(0, 8, "random", 0))
        profile = anchor_profile(g, anchors)
        groups = _group_rows(profile)
        ids, first, sizes = ref_groups([tuple(r) for r in profile.tolist()])
        assert groups.ids.tolist() == ids
        assert groups.first.tolist() == first
        assert groups.sizes.tolist() == sizes

    @given(st.integers(0, 10**6), st.integers(1, 60), st.integers(0, 6), st.sampled_from(CODE_RANGES))
    @settings(max_examples=100, deadline=None)
    def test_random_matrices(self, seed, n, w, code_range):
        rows = synthetic_codes(seed, n, w, code_range).codes
        groups = _group_rows(rows)
        ids, first, sizes = ref_groups([tuple(r) for r in rows.tolist()])
        assert (groups.ids.tolist(), groups.first.tolist(), groups.sizes.tolist()) == (
            ids, first, sizes
        )


@st.composite
def stages_and_code_tables(draw):
    """An anchor stage and a code table of one size. Each side is drawn
    from the shapes where one side cannot split the other and from random
    ones: every vertex its own bucket or code, one bucket or one code, or
    random rows."""
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    profile_kind = draw(st.sampled_from(("singletons", "one bucket", "random")))
    if profile_kind == "singletons":
        profile = rng.permutation(n).reshape(n, 1)
    elif profile_kind == "one bucket":
        profile = np.zeros((n, draw(st.integers(0, 2))), dtype=np.int64)
    else:
        profile = rng.integers(0, draw(st.integers(1, 4)), size=(n, draw(st.integers(1, 3))))
    code_kind = draw(st.sampled_from(("distinct", "one code", "random")))
    if code_kind == "distinct":
        codes = codes_from_rows(rng.permutation(n).reshape(n, 1).tolist())
    elif code_kind == "one code":
        m = draw(st.integers(0, 3))
        codes = codes_from_rows([[7] * m for _ in range(n)] if m else [()] * n)
    else:
        codes = synthetic_codes(seed, n, draw(st.integers(1, 4)), draw(st.sampled_from(CODE_RANGES)))
    return anchor_stage(profile.astype(np.int64)), codes


def assert_same_groups(got, want):
    assert got.ids.tolist() == want.ids.tolist()
    assert got.first.tolist() == want.first.tolist()
    assert got.sizes.tolist() == want.sizes.tolist()


def distinct_codes(n):
    return codes_from_rows(np.random.default_rng(5).permutation(n).reshape(n, 1).tolist())


# Stages and code tables where one side cannot split the other.
UNSPLIT_CASES = {
    "one code class": (lambda n: np.arange(n).reshape(n, 1) % 5, no_codes),
    "one bucket": (lambda n: np.zeros((n, 0)), lambda n: synthetic_codes(3, n, 2, "narrow")),
    "singleton buckets": (lambda n: np.arange(n).reshape(n, 1),
                          lambda n: synthetic_codes(3, n, 2, "narrow")),
    "distinct code rows": (lambda n: np.arange(n).reshape(n, 1) % 5, distinct_codes),
}


class TestRefinementStage:
    @given(stages_and_code_tables())
    @settings(max_examples=200, deadline=None)
    def test_fibers_equal_grouping_bucket_ids_beside_code_rows(self, drawn):
        stage, codes = drawn
        assert_same_groups(refine_observation(stage, codes).fiber_groups,
                           _group_rows(np.column_stack([stage.bucket_groups.ids, codes.codes])))

    @pytest.mark.parametrize("case", list(UNSPLIT_CASES))
    def test_unsplit_sides_are_grouped_like_any_other(self, case):
        profiles, code_table = UNSPLIT_CASES[case]
        stage, codes = anchor_stage(profiles(40).astype(np.int64)), code_table(40)
        table = refine_observation(stage, codes)
        assert_same_groups(table.fiber_groups,
                           _group_rows(np.column_stack([stage.bucket_groups.ids, codes.codes])))
        assert fiber_stats(table) == evaluate_rows([(stage, codes.groups)])[0][0]
        assert section_success(table) == fiber_stats(table).success
        assert table.fiber_groups is not codes.groups
        assert table.fiber_groups is not stage.bucket_groups

    def test_code_table_is_grouped_once(self):
        codes = synthetic_codes(3, 40, 2, "narrow")
        stage = anchor_stage(np.arange(40, dtype=np.int64).reshape(40, 1) % 5)
        assert codes.groups is codes.groups
        assert codebook_size(codes) == len(codes.groups)
        # Every bucket a singleton: the buckets are the fibers.
        singletons = anchor_stage(np.arange(40, dtype=np.int64).reshape(40, 1))
        assert_same_groups(refine_observation(singletons, codes).fiber_groups,
                           singletons.bucket_groups)
        assert_same_groups(refine_observation(stage, no_codes(40)).fiber_groups,
                           stage.bucket_groups)

    def test_groups_are_read_only(self):
        codes = synthetic_codes(3, 40, 2, "narrow")
        stage = anchor_stage(np.arange(40, dtype=np.int64).reshape(40, 1) % 5)
        table = refine_observation(stage, codes)
        for array in (codes.groups.ids, table.fiber_groups.first, stage.bucket_groups.sizes):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0
        assert min_id_section(table).flags.writeable


class TestSequentialSum:
    VALUES = [0.1] * 10 + [1e16, 1.0, -1e16]

    def test_adds_left_to_right(self):
        total = 0.0
        for value in self.VALUES:
            total += value
        assert sequential_sum(self.VALUES) == total
        # Compensated summation recovers the 1.0 and the tenths' sum here.
        assert math.fsum(self.VALUES) != total

    def test_empty_and_generator(self):
        assert sequential_sum([]) == 0.0
        assert sequential_sum(x / 4 for x in range(4)) == 1.5


class TestMedian:
    @given(st.lists(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40),
                    min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_numpy(self, rows):
        # Rows of different lengths, each sorted and padded with inf.
        counts = np.array([len(values) for values in rows])
        ordered = np.full((len(rows), counts.max()), np.inf)
        for i, values in enumerate(rows):
            ordered[i, : len(values)] = np.sort(values)
        got = _row_medians(ordered, counts)
        assert [float(v).hex() for v in got] == [float(np.median(v)).hex() for v in rows]
