"""Budget ratio, counting bounds, and the reconstruction floor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsmap.graphs import AnchorSet, random_regular
from obsmap.harness import evaluate_instance
from obsmap.observation import bucket_diagnostics, build_observation, fiber_stats
from obsmap.spectral import (
    QuantizedCodes,
    empty_embedding,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_absolute,
)
from obsmap.theory import BoundReport, bound_report, rho_eng

from conftest import path_graph, random_connected_graph, star_graph, table_views


def codes_from_rows(rows) -> QuantizedCodes:
    arr = np.array(rows, dtype=np.int64)
    arr.setflags(write=False)
    return QuantizedCodes(codes=arr, rule="absolute", eta=1.0, delta=1.0)


def no_codes(n: int) -> QuantizedCodes:
    return quantize_absolute(empty_embedding(n, scaled=False), 1.0)


def spectral_instance(seed: int, n: int = 40, k: int = 2, m: int = 2, eta: float = 0.5):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(seed, n_min=m + 4, n_max=n)
    anchors = AnchorSet(tuple(int(a) for a in rng.choice(g.n, size=k, replace=False)))
    basis = low_frequency_basis(normalized_laplacian(g), m)
    codes = quantize_absolute(energy_embedding(basis, m, scaled=True), eta)
    return build_observation(g, anchors, codes), codes


class TestRhoEng:
    def test_distance_only_value(self):
        assert rho_eng(500, 6, 0, 0.1) == pytest.approx(
            1.764, abs=5e-4
        )

    def test_mixed_value_small_n(self):
        assert rho_eng(500, 1, 5, 0.1) == pytest.approx(
            2.704, abs=5e-4
        )

    def test_mixed_value_large_n(self):
        assert rho_eng(4000, 1, 5, 0.1) == pytest.approx(
            2.061, abs=5e-4
        )

    def test_strictly_increasing_in_k(self):
        vals = [
            rho_eng(300, k, 2, 0.5) for k in range(0, 8)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_strictly_increasing_in_m_for_small_eta(self):
        for eta in (0.1, 0.5, 1.0, 1.9):
            vals = [
                rho_eng(300, 1, m, eta) for m in range(0, 8)
            ]
            assert all(b > a for a, b in zip(vals, vals[1:])), eta

    def test_not_increasing_in_m_at_eta_equal_C_ent(self):
        a = rho_eng(300, 1, 1, 2.0)
        b = rho_eng(300, 1, 5, 2.0)
        assert a == b

    def test_strictly_decreasing_in_eta(self):
        vals = [
            rho_eng(300, 1, 2, eta)
            for eta in (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_entropy_constants_enter_formula(self):
        assert rho_eng(256, 0, 1, 1.0) == pytest.approx(np.log(2.0) / np.log(256.0))


class TestBudgetInputs:
    """The inputs (n, k, m, eta) rho_eng accepts."""

    def test_n_floor(self):
        assert rho_eng(16, 1, 1, 0.5) is not None
        assert rho_eng(15, 1, 1, 0.5) is None

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            rho_eng(100, 1, 1, 0.0)
        with pytest.raises(ValueError):
            rho_eng(100, 1, 1, -0.5)

    def test_counts_non_negative(self):
        with pytest.raises(ValueError):
            rho_eng(100, -1, 0, 0.5)
        with pytest.raises(ValueError):
            rho_eng(100, 0, -1, 0.5)
        with pytest.raises(ValueError):  # checked below the n floor too
            rho_eng(15, -1, 0, 0.5)


class TestGenericBound:
    def test_m0_bound_equals_image(self):
        g = star_graph(3)
        table = build_observation(g, AnchorSet((0,)), no_codes(4))
        report = bound_report(table, no_codes(4))
        assert report.generic_bound == report.image_size == 2
        assert report.generic_satisfied
        # The leaf bucket {1, 2, 3} shares one code: collision 1, balance 1,
        # so the refined bound is 2 * (1 + 1/1).
        assert report.refined_bound == 4.0
        assert report.refined_bound is not None
        assert report.refined_satisfied

    def test_arithmetic(self):
        report = BoundReport(
            image_size=7,
            profile_bound=3,
            generic_bound=12,
            generic_satisfied=True,
            refined_bound=None,
            refined_satisfied=None,
        )
        assert report.generic_bound == 12

    def test_holds_on_random_instances(self):
        for seed in range(20):
            g = random_regular(60, 3, seed)
            rng = np.random.default_rng(seed)
            anchors = AnchorSet(
                tuple(int(a) for a in rng.choice(60, size=2, replace=False))
            )
            basis = low_frequency_basis(normalized_laplacian(g), 2)
            codes = quantize_absolute(energy_embedding(basis, 2, scaled=True), 0.5)
            report = bound_report(build_observation(g, anchors, codes), codes)
            assert report.generic_satisfied
            assert report.image_size <= report.generic_bound

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_holds_always(self, seed):
        table, codes = spectral_instance(seed)
        report = bound_report(table, codes)
        assert report.generic_satisfied


class TestRefinedBound:
    def test_single_bucket_worked_example(self):
        # one distance profile over three vertices, codes [z1, z1, z2]
        g = path_graph(3)
        codes = codes_from_rows([[1], [1], [2]])
        table = build_observation(g, AnchorSet(()), codes)
        assert len(table_views(table)[1]) == 1
        report = bound_report(table, codes)
        assert report.refined_bound == pytest.approx(5.0)
        assert report.image_size == 2
        assert report.refined_satisfied

    def test_all_singleton_buckets_not_applicable(self):
        g = path_graph(4)
        table = build_observation(g, AnchorSet((0,)), no_codes(4))
        report = bound_report(table, no_codes(4))
        assert report.refined_bound is None
        assert report.refined_satisfied is None

    def test_zero_collision_bucket_not_applicable(self):
        # non-singleton bucket with all-distinct codes: the collision
        # substitution vanishes, so the bound is reported n/a
        g = path_graph(3)
        codes = codes_from_rows([[1], [2], [3]])
        table = build_observation(g, AnchorSet(()), codes)
        report = bound_report(table, codes)
        assert report.refined_bound is None

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_holds_whenever_applicable(self, seed):
        table, codes = spectral_instance(seed, m=1, eta=1.0)
        report = bound_report(table, codes)
        if report.refined_bound is not None:
            assert report.refined_satisfied
            assert report.image_size <= report.refined_bound + 1e-12


def test_bound_report_reads_the_tables_diagnostics():
    g = random_regular(60, 3, 7)
    anchors = AnchorSet((3, 41))
    basis = low_frequency_basis(normalized_laplacian(g), 2)
    codes = quantize_absolute(energy_embedding(basis, 2, scaled=True), 0.5)
    table = build_observation(g, anchors, codes)
    # The table computes its diagnostics once and hands out that object.
    assert bucket_diagnostics(table) is bucket_diagnostics(table)
    assert bound_report(table, codes) == evaluate_instance(g, anchors, codes).bounds


class TestImpossibilityFloor:
    def test_injective(self):
        g = path_graph(4)
        table = build_observation(g, AnchorSet((0, 3)), no_codes(4))
        assert fiber_stats(table).error == 0.0

    def test_star(self):
        g = star_graph(3)
        table = build_observation(g, AnchorSet((0,)), no_codes(4))
        assert fiber_stats(table).error == 0.5


class TestSubcriticalCheck:
    """The subcritical question rho_eng <= 1 - epsilon0, asked directly."""

    def test_subcritical(self):
        rho = rho_eng(100_000, 1, 0, 0.5)
        assert rho < 0.7
        assert rho <= 1.0 - 0.3

    def test_supercritical_table_row(self):
        rho = rho_eng(500, 6, 0, 0.1)
        for eps in (0.01, 0.3, 0.9, 0.99):
            assert not rho <= 1.0 - eps
