"""Sweep execution, seed derivation, anchor strategies, CSV round trips,
and the anchor-threshold table."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import re
import subprocess
import sys
import traceback
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obsmap.harness as harness
from obsmap import graphs
from obsmap.graphs import AnchorSet, random_regular
from obsmap.harness import (
    CSV_COLUMNS,
    DEFAULT_THRESHOLD,
    FEATURES,
    QUANTIZERS,
    STRATEGIES,
    ConfigPoint,
    CsvFormatError,
    SweepConfig,
    TrialRecord,
    analyze_records,
    anchor_seed_for,
    evaluate_instance,
    graph_seed_for,
    k_emp,
    kemp_table,
    mix64,
    parse_sweep_config,
    read_csv_rows,
    run_sweep,
    select_anchors,
    write_csv,
    write_records_csv,
)

from obsmap.spectral import (
    empty_embedding, energy_embedding, low_frequency_basis, normalized_laplacian,
    quantize_absolute,
)

from conftest import cycle_graph, one_point_record, path_graph, random_connected_graph, star_graph


def point(**overrides) -> ConfigPoint:
    base = dict(
        n=64, r=3, k=2, m=1, eta="0.5", quantizer="absolute", scaled=True,
        feature="full", anchor_strategy="random", trial=0, resample=0,
    )
    base.update(overrides)
    return ConfigPoint(**base)


def trial_records():
    """TrialRecords of every field kind: n/a diagnostics, a None r, and
    failed records, whose metrics are None as the sweep builds them."""
    floats = st.floats(allow_nan=False)
    identity = dict(
        n=st.integers(), r=st.none() | st.integers(), k=st.integers(), m=st.integers(),
        eta=st.floats(1e-9, 1e9).map(repr) | st.sampled_from(["0.10", "2", "5e-1"]),
        quantizer=st.sampled_from(QUANTIZERS), scaled=st.booleans(),
        feature=st.sampled_from(FEATURES), anchor_strategy=st.sampled_from(STRATEGIES),
        trial=st.integers(0), resample=st.integers(0), seed=st.integers(0, 2**64 - 1),
    )
    metrics = {
        f.name: st.none() | (st.booleans() if f.type == "bool | None" else
                             st.integers() if f.type == "int | None" else floats)
        for f in dataclasses.fields(TrialRecord)
        if f.name in CSV_COLUMNS and f.name not in identity
    }
    ok = st.builds(TrialRecord, **identity, **metrics, degenerate=st.booleans())
    failed = st.builds(TrialRecord, **identity, failure=st.text(min_size=1))
    return ok | failed


def strip_timing(rec):
    return dataclasses.replace(rec, wall_time_ms=None)


def count_computations(monkeypatch) -> dict[str, list[int] | int]:
    """Live counts of the work behind the reports: the rows of each
    evaluate_rows call ("batches", one entry per call) and the code tables
    grouped (spectral._group_rows, which only QuantizedCodes.groups calls)."""
    from obsmap import observation, spectral

    counts: dict[str, list[int] | int] = {"batches": [], "groupings": 0}
    evaluate, group = observation.evaluate_rows, spectral._group_rows

    def evaluating(rows):
        counts["batches"].append(len(rows))
        return evaluate(rows)

    def grouping(*args, **kwargs):
        counts["groupings"] += 1
        return group(*args, **kwargs)

    for module in (observation, harness):
        monkeypatch.setattr(module, "evaluate_rows", evaluating)
    monkeypatch.setattr(spectral, "_group_rows", grouping)
    return counts


def csv_fields(rec) -> tuple:
    """The fields of a record that its CSV row carries."""
    return tuple(getattr(rec, column) for column in CSV_COLUMNS)


def row_setting(row) -> tuple:
    """The grid fields of a k_emp row besides n, m and eta."""
    return (row.r, row.quantizer, row.scaled, row.feature, row.anchor_strategy)


class TestSeedDerivation:
    def test_mix64_frozen_value(self):
        # Frozen so an accidental change to the derivation (which silently
        # changes every experiment) fails loudly.
        assert mix64("graph", 0, 1000, 3, 0) == 1179374090756487322

    def test_graph_seed_matches_mix(self):
        assert graph_seed_for(0, 1000, 3, 0) == mix64("graph", 0, 1000, 3, 0)

    def test_anchor_seed_frozen_value(self):
        assert anchor_seed_for(123, 2, "random", 0) == 4165352070560776709

    def test_sensitivity_to_every_argument(self):
        base = graph_seed_for(0, 500, 3, 0)
        assert graph_seed_for(1, 500, 3, 0) != base
        assert graph_seed_for(0, 501, 3, 0) != base
        assert graph_seed_for(0, 500, 4, 0) != base
        assert graph_seed_for(0, 500, 3, 1) != base

    def test_no_concatenation_collision(self):
        # length-prefixed parts: ("ab", "c") must differ from ("a", "bc")
        assert mix64("ab", "c") != mix64("a", "bc")

    def test_range(self):
        assert 0 <= mix64("x") < 2**64


class TestSelectAnchors:
    def test_degree_star_center_first(self):
        g = star_graph(3)
        assert select_anchors(g, 1, "degree", 0).anchors == (0,)
        assert select_anchors(g, 2, "degree", 99).anchors == (0, 1)

    def test_degree_ties_to_smaller_id(self):
        g = path_graph(4)  # degrees 1,2,2,1
        assert select_anchors(g, 2, "degree", 0).anchors == (1, 2)
        assert select_anchors(g, 3, "degree", 0).anchors == (1, 2, 0)

    @pytest.mark.parametrize("graph", [
        *(star_graph(leaves) for leaves in (1, 2, 7)),
        *(random_connected_graph(seed) for seed in range(40)),
        *(random_regular(n, 3, seed) for n, seed in ((4, 0), (50, 1), (500, 2))),
    ])
    def test_degree_matches_python_sort_reference(self, graph):
        degs = graph.degrees()
        reference = sorted(range(graph.n), key=lambda v: (-int(degs[v]), v))
        for k in range(graph.n + 1):
            assert select_anchors(graph, k, "degree", 0).anchors == tuple(reference[:k])

    def test_farthest_second_anchor_is_an_endpoint(self):
        g = path_graph(5)
        for seed in range(10):
            anchors = select_anchors(g, 2, "farthest", seed).anchors
            first, second = anchors
            assert second in (0, 4)
            assert abs(second - first) >= max(first, 4 - first)

    def test_farthest_covers_path(self):
        g = path_graph(9)
        anchors = select_anchors(g, 3, "farthest", 7).anchors
        assert len(set(anchors)) == 3
        assert {0, 8} <= set(anchors) | {anchors[0]}

    def test_random_deterministic(self):
        g = random_regular(40, 3, 5)
        a = select_anchors(g, 4, "random", 11)
        b = select_anchors(g, 4, "random", 11)
        c = select_anchors(g, 4, "random", 12)
        assert a.anchors == b.anchors
        assert a.anchors != c.anchors

    def test_random_without_replacement(self):
        g = path_graph(6)
        anchors = select_anchors(g, 6, "random", 3).anchors
        assert sorted(anchors) == list(range(6))

    def test_k_zero(self):
        assert select_anchors(path_graph(3), 0, "random", 0).anchors == ()

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_anchors(path_graph(3), 4, "random", 0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_anchors(path_graph(3), 1, "closest", 0)


class TestRunTrial:
    """One trial's record, as the sweep computes it."""

    def test_nope_error_is_one_minus_one_over_n(self):
        rec = one_point_record(point(feature="nope"), 0)
        assert rec.error == 1.0 - 1.0 / 64.0
        assert rec.image_frac == 1.0 / 64.0
        assert rec.codebook_size == 1
        assert rec.failure is None

    def test_distance_feature_matches_m0(self):
        distance = one_point_record(point(feature="distance", m=5), 0)
        m0 = one_point_record(point(feature="full", m=0), 0)
        for field in ("error", "image_frac", "mean_preimage", "codebook_size",
                      "profile_count", "generic_bound"):
            assert getattr(distance, field) == getattr(m0, field), field

    def test_deterministic(self):
        a = one_point_record(point(), 7)
        b = one_point_record(point(), 7)
        assert strip_timing(a) == strip_timing(b)

    def test_seed_column_is_graph_seed(self):
        rec = one_point_record(point(trial=3), 9)
        assert rec.seed == graph_seed_for(9, 64, 3, 3)

    def test_identity_error_image_frac(self):
        rec = one_point_record(point(), 0)
        assert rec.error == 1.0 - rec.image_frac


class TestAnalyzeRecords:
    def test_matches_run_trial_on_shared_seed_path(self):
        p = point(n=80, k=3, m=2, eta="0.5", trial=0, resample=0)
        via_trial = one_point_record(p, 4)
        gseed = graph_seed_for(4, 80, 3, 0)
        g = random_regular(80, 3, gseed)
        via_analyze = analyze_records(
            g, r=3, k=3, m=2, eta="0.5", quantizer="absolute", scaled=True,
            anchor_strategy="random", seed=gseed, resamples=1,
        )[0]
        assert strip_timing(via_analyze) == strip_timing(via_trial)

    def test_resample_indices(self):
        g = random_regular(30, 3, 2)
        recs = analyze_records(g, r=None, k=2, m=0, eta="0.1", seed=5, resamples=3)
        assert [r.resample for r in recs] == [0, 1, 2]
        assert all(r.r is None for r in recs)
        # resamples draw different anchors, trials stay 0
        assert all(r.trial == 0 for r in recs)

    def test_k_zero_rejected(self):
        g = random_regular(30, 3, 2)
        with pytest.raises(ValueError):
            analyze_records(g, r=3, k=0, m=0, eta="0.1")


class TestEvaluateInstance:
    @pytest.mark.parametrize("g, flag", [(cycle_graph(3000), True), (path_graph(300), False)],
                             ids=["cycle3000", "path300"])
    def test_reports_the_codes_degeneracy_flag(self, g, flag):
        # C_3000 doubles every nontrivial eigenvalue; a path's are simple.
        basis = low_frequency_basis(normalized_laplacian(g), 4)
        codes = quantize_absolute(energy_embedding(basis, 2, True), 0.5)
        assert codes.degenerate is flag
        assert evaluate_instance(g, AnchorSet((0,)), codes).degenerate is flag


class TestSweepConfigValidation:
    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match=r"^n \* r must be even, got n=65, r=3$"):
            SweepConfig(n_list=(65,), k_list=(1,), m_list=(0,), eta_list=("0.1",))

    def test_regular_rules_are_the_samplers(self, monkeypatch):
        # One draw per call: a valid (n, r) returns or runs out of attempts.
        monkeypatch.setattr(graphs, "_MAX_PAIRING_ATTEMPTS", 1)
        monkeypatch.setattr(graphs, "_PAIRING_STUB_BUDGET", 0)
        for n in range(21):
            for r in range(9):
                try:
                    random_regular(n, r, 0)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        point(n=n, r=r, k=0, m=0)
                    continue
                except RuntimeError:  # out of attempts, which a valid (n, r) may be
                    pass
                point(n=n, r=r, k=0, m=0)

    def test_k_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_list=(10,), k_list=(11,), m_list=(0,), eta_list=("0.1",))

    def test_degree_outside_sampler_range_rejected(self, monkeypatch):
        # Rejected at construction, before any graph is drawn.
        monkeypatch.setattr(harness, "random_regular", None)
        with pytest.raises(ValueError, match="degree 7 exceeds 6: pairing draws are rarely simple"):
            SweepConfig(n_list=(200,), k_list=(1,), m_list=(0,), eta_list=("0.1",), r_list=(7,))
        with pytest.raises(ValueError, match="degree 7 exceeds 6: pairing draws are rarely simple"):
            point(n=200, r=7)
        with pytest.raises(ValueError, match="degree must be at least 3, got r=2"):
            SweepConfig(n_list=(200,), k_list=(1,), m_list=(0,), eta_list=("0.1",), r_list=(2,))
        assert point(n=200, r=6).r == 6
        assert SweepConfig(
            n_list=(200,), k_list=(1,), m_list=(0,), eta_list=("0.1",), r_list=(6,)).r_list == (6,)

    def test_m_beyond_n_rejected(self):
        message = "m=10 needs at least 11 vertices, n=10"
        with pytest.raises(ValueError, match=message):
            SweepConfig(n_list=(10,), k_list=(1,), m_list=(10,), eta_list=("0.1",))

    def test_bad_eta_rejected(self):
        for eta, message in (
            ("zero", "eta 'zero' is not a decimal number"),
            ("-1", "eta must be positive, got '-1'"),
            ("0", "eta must be positive, got '0'"),
            ("nan", "eta must be finite, got 'nan'"),
            ("inf", "eta must be finite, got 'inf'"),
        ):
            with pytest.raises(ValueError) as info:
                SweepConfig(n_list=(10,), k_list=(1,), m_list=(0,), eta_list=(eta,))
            assert str(info.value) == message
        cfg = SweepConfig(n_list=(10,), k_list=(1,), m_list=(0,), eta_list=("0.5",))
        with pytest.raises(ValueError) as info:
            k_emp(harness.SweepResult(config=cfg, records=()), 10, 0, eta="abc")
        assert str(info.value) == "eta 'abc' is not a decimal number"

    def test_bare_string_axis_rejected(self):
        # A string is not split into one-character values.
        with pytest.raises(ValueError, match="feature_list takes a list of values"):
            SweepConfig(n_list=(40,), k_list=(1,), m_list=(0,), eta_list=("0.5",),
                        feature_list="full")
        with pytest.raises(ValueError, match="eta_list takes a list of values"):
            SweepConfig(n_list=(40,), k_list=(1,), m_list=(0,), eta_list="0.5")

    def test_every_option_axis_checked(self):
        base = dict(n_list=(40,), k_list=(1,), m_list=(0,), eta_list=("0.5",))
        # A bad value anywhere on an axis rejects the grid.
        for field, values, message in (
            ("quantizer_list", ("absolute", "round"), "unknown quantizer 'round'"),
            ("feature_list", ("full", "edges"), "unknown feature 'edges'"),
            ("anchor_strategy_list", ("random", "central"), "unknown anchor strategy 'central'"),
            ("scaled_list", (True, "maybe"), "expected true or false, got 'maybe'"),
            ("r_list", (3, 2), "degree must be at least 3, got r=2"),
        ):
            with pytest.raises(ValueError, match=message):
                SweepConfig(**base, **{field: values})
        with pytest.raises(ValueError, match="quantizer_list must be non-empty"):
            SweepConfig(**base, quantizer_list=())

    @pytest.mark.parametrize("axes, bad_cell", [
        (dict(n_list=(200,), r_list=(3, 7)), dict(n=200, r=7)),
        (dict(n_list=(64, 65, 67), r_list=(3,)), dict(n=65, r=3)),
        (dict(n_list=(40, 10), m_list=(0, 10)), dict(n=10, m=10)),
    ])
    def test_first_bad_cell_message(self, axes, bad_cell):
        # The grid check is the ConfigPoint check of each distinct cell, so
        # the grid fails with the message of its first bad cell in grid order.
        with pytest.raises(ValueError) as cell_error:
            point(**{"k": 1, "m": 0, **bad_cell})
        grid = {"k_list": (1,), "m_list": (0,), "eta_list": ("0.5",), **axes}
        with pytest.raises(ValueError, match=f"^{re.escape(str(cell_error.value))}$"):
            SweepConfig(**grid)

    def test_points_order(self):
        cfg = SweepConfig(
            n_list=(10, 8), k_list=(2, 1), m_list=(0,),
            eta_list=("0.5", "0.125"), trials=2, anchor_resamples=2,
            r_list=(4, 3, 4), quantizer_list=("relative", "absolute"), scaled_list=(True, False),
            feature_list=("spectral", "nope"), anchor_strategy_list=("random", "degree"),
        )
        pts = list(cfg.points())
        keys = [
            (p.n, p.r, p.k, p.m, float(p.eta), p.quantizer, p.scaled, p.feature,
             p.anchor_strategy, p.trial, p.resample) for p in pts
        ]
        assert keys == sorted(keys)
        assert len(pts) == len(set(keys)) == 2 * 2 * 1 * 2 * 2 * 2 * 2 ** 5


class TestRunSweep:
    def small_config(self, **overrides) -> SweepConfig:
        base = dict(
            n_list=(40,), k_list=(2,), m_list=(0, 1), eta_list=("0.5",),
            trials=3, anchor_resamples=2, seed=1,
        )
        base.update(overrides)
        return SweepConfig(**base)

    @pytest.mark.parametrize("axes", [{}, dict(
        r_list=(3, 4), quantizer_list=QUANTIZERS, scaled_list=(True, False),
        feature_list=("spectral", "full"), anchor_strategy_list=("degree", "farthest"),
    )], ids=["one_setting", "multi_axis"])
    def test_worker_count_does_not_change_output(self, tmp_path, axes):
        cfg = self.small_config(**axes)
        serial = run_sweep(cfg, jobs=None)
        parallel = run_sweep(cfg, jobs=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(serial, str(p1))
        write_csv(parallel, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg), str(p1))
        write_csv(run_sweep(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_aggregate_counts(self):
        cfg = self.small_config()
        res = run_sweep(cfg)
        assert len(res.records) == 2 * 3 * 2
        for agg in res.aggregates.values():
            assert agg.count == 3 * 2
            assert agg.failures == 0
            assert agg.available["error"] == 6
            assert 0.0 <= agg.means["error"] <= 1.0
            assert agg.stds["error"] >= 0.0

    def test_every_record_satisfies_bounds(self):
        res = run_sweep(self.small_config())
        for rec in res.records:
            assert rec.failure is None
            assert rec.bounds_ok
            assert rec.error == 1.0 - rec.image_frac

    def test_graph_failure_yields_failure_records(self, monkeypatch, tmp_path):
        cfg = self.small_config()
        real = harness.random_regular

        def flaky(n, r, seed):
            if seed == graph_seed_for(cfg.seed, 40, 3, 1):
                raise RuntimeError("synthetic graph failure")
            return real(n, r, seed)

        monkeypatch.setattr(harness, "random_regular", flaky)
        res = run_sweep(cfg, jobs=None)
        failed = [r for r in res.records if r.failure is not None]
        good = [r for r in res.records if r.failure is None]
        # trial 1 spans both m cells and both resamples
        assert len(failed) == 2 * 2
        assert all("synthetic graph failure" in r.failure for r in failed)
        assert all(r.trial == 1 for r in failed)
        assert len(good) == len(res.records) - 4
        path = tmp_path / "out.csv"
        write_csv(res, str(path))
        lines = path.read_text().splitlines()[1:]
        marked = [line for line in lines if line.endswith(",error" * 14)]
        assert len(marked) == 4
        rows = read_csv_rows(str(path))
        # identity columns survive on failure rows, which read back as failed
        assert [csv_fields(r) for r in rows] == [csv_fields(strip_timing(r)) for r in res.records]
        assert [r.failure is not None for r in rows] == [r.failure is not None for r in res.records]
        metrics = [
            f.name for f in dataclasses.fields(TrialRecord)
            if f.name in CSV_COLUMNS[CSV_COLUMNS.index("error"):]
        ]
        assert len(metrics) == 14
        assert all(getattr(r, name) is None for r in failed for name in metrics)

    def test_eta_too_small_for_int64_codes_fails_only_spectral_cells(self):
        res = run_sweep(self.small_config(eta_list=("1e-20",)))
        assert all(r.failure is None for r in res.records if r.m == 0)
        spectral_rows = [r for r in res.records if r.m == 1]
        assert len(spectral_rows) == 3 * 2
        assert all("eta 1e-20" in r.failure for r in spectral_rows)

    def test_serial_sweep_never_loads_the_process_pool(self):
        probe = (
            "import sys\n"
            "from obsmap.harness import SweepConfig, run_sweep\n"
            "cfg = SweepConfig(n_list=(40,), k_list=(2,), m_list=(0, 1), eta_list=('0.5',), trials=2)\n"
            "run_sweep(cfg, jobs=1)\n"
            "sys.exit('concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_per_point_failure_does_not_stop_sweep(self, monkeypatch):
        cfg = self.small_config()
        real = harness.select_anchors

        def flaky(g, k, strategy, seed):
            if seed == anchor_seed_for(graph_seed_for(cfg.seed, 40, 3, 0), 2, "random", 1):
                raise RuntimeError("synthetic anchor failure")
            return real(g, k, strategy, seed)

        monkeypatch.setattr(harness, "select_anchors", flaky)
        res = run_sweep(cfg, jobs=None)
        failed = [r for r in res.records if r.failure is not None]
        # trial 0, resample 1, in both m cells
        assert {(r.trial, r.resample) for r in failed} == {(0, 1)}
        assert len(failed) == 2
        agg = next(iter(res.aggregates.values()))
        assert agg.failures == 1


class TestOneSolvePerGraph:
    # n=500 lies above the dense cutoff, so these run the Lanczos path.
    def config(self, **overrides) -> SweepConfig:
        base = dict(
            n_list=(500,), k_list=(1, 2), m_list=(1, 2, 5), eta_list=("0.1", "0.3"),
            trials=3, anchor_resamples=2, seed=3,
        )
        base.update(overrides)
        return SweepConfig(**base)

    def test_multi_m_sweep_equals_single_m_sweeps(self):
        joint = run_sweep(self.config())
        single = [
            rec
            for m in (1, 2, 5)
            for rec in run_sweep(self.config(m_list=(m,))).records
        ]
        key = lambda rec: (rec.k, rec.m, float(rec.eta), rec.trial, rec.resample)
        assert [strip_timing(r) for r in sorted(joint.records, key=key)] == [
            strip_timing(r) for r in sorted(single, key=key)
        ]
        assert [r.degenerate for r in sorted(joint.records, key=key)] == [
            r.degenerate for r in sorted(single, key=key)
        ]

    def test_run_trial_matches_sliced_sweep_record(self):
        res = run_sweep(self.config())
        rec = next(r for r in res.records if r.m == 2 and r.trial == 1 and r.resample == 1)
        alone = one_point_record(point(n=500, k=rec.k, m=2, eta=rec.eta, trial=1, resample=1), 3)
        assert strip_timing(alone) == strip_timing(rec)

    def test_one_solve_and_one_code_table_per_graph(self, monkeypatch):
        counts = {"solve": 0, "quantize": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "low_frequency_basis",
                            counting("solve", harness.low_frequency_basis))
        monkeypatch.setattr(harness, "quantize_absolute",
                            counting("quantize", harness.quantize_absolute))
        res = run_sweep(self.config(m_list=(0, 1, 2, 5)))
        assert len(res.records) == 2 * 4 * 2 * 3 * 2
        assert counts["solve"] == 3
        # one table per (m, eta) per graph, shared by every k and resample
        assert counts["quantize"] == 3 * 4 * 2

    def test_failed_code_table_is_built_once_per_graph(self, monkeypatch):
        counts = {"embed": 0, "quantize": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "energy_embedding",
                            counting("embed", harness.energy_embedding))
        monkeypatch.setattr(harness, "quantize_absolute",
                            counting("quantize", harness.quantize_absolute))
        res = run_sweep(self.config(k_list=(1, 2, 4), m_list=(0, 2), eta_list=("1e-20", "0.5"),
                                    trials=2, seed=0))
        failed = [r for r in res.records if r.failure is not None]
        assert len(res.records) == 48 and len(failed) == 12
        assert all((r.m, r.eta) == (2, "1e-20") for r in failed)
        # one table per (m, eta) per graph, the failing one included
        assert counts == {"embed": 2 * 2, "quantize": 2 * 4}

    def test_failed_table_yields_one_exception_whose_traceback_does_not_grow(
            self, monkeypatch):
        def forbidden(profile):
            raise AssertionError("anchor stage built for a row whose table failed")

        monkeypatch.setattr(harness, "anchor_stage", forbidden)
        points = [point(n=500, k=k, m=2, eta="1e-20", resample=i)
                  for k in (1, 2, 4) for i in (0, 1)]
        rows = harness._GraphCodes(random_regular(500, 3, 1), 2).rows(points, 7)
        first = next(rows)
        assert isinstance(first, ValueError) and "eta 1e-20" in str(first)
        frames = len(traceback.extract_tb(first.__traceback__))
        rest = list(rows)
        assert len(rest) == 5 and all(failure is first for failure in rest)
        assert len(traceback.extract_tb(first.__traceback__)) == frames

    def test_failed_table_does_not_keep_its_graph_codes_alive(self):
        graph_codes = harness._GraphCodes(random_regular(40, 3, 1), 2)
        (failure,) = graph_codes.rows([point(n=40, m=2, eta="1e-20")], 7)
        assert isinstance(failure, ValueError)
        alive = weakref.ref(graph_codes)
        gc.disable()  # freed by reference counting alone, with no cycle to collect
        try:
            del graph_codes
            assert alive() is None
        finally:
            gc.enable()

    def test_quantizer_axis_matches_single_quantizer_sweeps(self, monkeypatch):
        counts = dict.fromkeys(("random_regular", "low_frequency_basis"), 0)
        for attr in counts:
            fn = getattr(harness, attr)

            def wrapper(*args, _fn=fn, _attr=attr, **kwargs):
                counts[_attr] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(harness, attr, wrapper)
        joint = run_sweep(self.config(m_list=(1, 2), quantizer_list=QUANTIZERS))
        # one draw and one solve per graph, shared by both quantizers
        assert counts == {"random_regular": 3, "low_frequency_basis": 3}
        monkeypatch.undo()
        for quantizer in QUANTIZERS:
            single = run_sweep(self.config(m_list=(1, 2), quantizer_list=(quantizer,)))
            assert [strip_timing(r) for r in joint.records if r.quantizer == quantizer] == [
                strip_timing(r) for r in single.records
            ]

    def test_no_solve_without_spectral_part(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve without a spectral feature")

        monkeypatch.setattr(harness, "low_frequency_basis", forbidden)
        res = run_sweep(self.config(feature_list=("distance",)))
        assert all(r.failure is None for r in res.records)

    def test_diagnostics_and_codebook_once_per_row(self, monkeypatch):
        counts = count_computations(monkeypatch)
        res = run_sweep(self.config(m_list=(1,), eta_list=("0.3",)))
        # Each graph's 4 rows are one batch, so every row is evaluated once;
        # one code table per graph: every k and resample shares its codebook.
        assert len(res.records) == 12
        assert counts == {"batches": [4, 4, 4], "groupings": 3}

    def test_bucket_aggregates_built_on_demand(self, monkeypatch, capsys):
        import obsmap.cli as cli
        import obsmap.observation as observation

        built = []
        real = observation._bucket_levels

        def spy(n, offsets, *arrays):
            built.append((arrays[-1], len(offsets) - 1))  # (cutoff, rows)
            return real(n, offsets, *arrays)

        monkeypatch.setattr(observation, "_bucket_levels", spy)
        run_sweep(self.config(m_list=(1,), eta_list=("0.3",)))
        # A sweep row reads the cutoff-2 aggregate only, built for its batch.
        assert built == [(2, 4)] * 3

        built.clear()
        args = ["--regular", "500,3", "--seed", "1", "--anchors", "2", "--m", "2", "--eta", "0.5"]
        assert cli.main(["diagnose-buckets", *args]) == 0
        assert "cutoff_10.buckets" in capsys.readouterr().out
        assert built == [(2, 1), (3, 1), (10, 1)]

    def test_anchor_seed_once_per_anchor_set(self, monkeypatch):
        calls = []
        real = harness.anchor_seed_for

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(harness, "anchor_seed_for", counting)
        res = run_sweep(self.config(m_list=(0, 1, 2, 5), eta_list=("0.3",), trials=1))
        assert len(res.records) == 2 * 4 * 2
        # one seed per (k, strategy, resample), shared by the four m cells
        assert sorted(calls) == [(k, "random", i) for k in (1, 2) for i in (0, 1)]

    @pytest.mark.parametrize("budget", [1, 10**9], ids=["one_row", "whole_graph"])
    def test_batches_leave_records_unchanged(self, monkeypatch, budget):
        cfg = SweepConfig(n_list=(500,), k_list=(1, 2, 3, 4, 6, 8), m_list=(0, 1, 2, 5),
                          eta_list=("0.1",), trials=2, seed=0)
        counts = count_computations(monkeypatch)
        monkeypatch.setattr(harness, "_BATCH_VERTEX_ROWS", budget)
        records = run_sweep(cfg).records
        assert counts["batches"] == ([1] * 48 if budget == 1 else [24, 24])
        monkeypatch.undo()
        default = run_sweep(cfg).records
        assert [strip_timing(r) for r in records] == [strip_timing(r) for r in default]
        # Row by row through evaluate_instance, on a basis solved at the largest m.
        for trial in range(cfg.trials):
            gseed = graph_seed_for(cfg.seed, 500, 3, trial)
            g = random_regular(500, 3, gseed)
            basis = low_frequency_basis(normalized_laplacian(g), 5)
            for rec in records:
                if rec.trial != trial:
                    continue
                anchors = select_anchors(g, rec.k, "random",
                                         anchor_seed_for(gseed, rec.k, "random", rec.resample))
                emb = energy_embedding(basis, rec.m, True) if rec.m else empty_embedding(500, True)
                point = ConfigPoint(*(getattr(rec, name) for name in ConfigPoint.__match_args__))
                report = evaluate_instance(g, anchors, quantize_absolute(emb, 0.1))
                assert harness._record(point, gseed, report, None) == strip_timing(rec)


class TestAnchorStagePerAnchorSet:
    def config(self, strategy: str) -> SweepConfig:
        return SweepConfig(
            n_list=(60,), k_list=(0, 1, 3), m_list=(0, 1, 2), eta_list=("0.1", "0.5"),
            trials=2, anchor_resamples=3, anchor_strategy_list=(strategy,), seed=4,
        )

    def drawn_sets(self, cfg: SweepConfig, trial: int) -> list[tuple[int, ...]]:
        """The anchor sets with k > 0 of one trial's graph, in the order
        the sweep draws them: by k, then by resample."""
        strategy = cfg.anchor_strategy_list[0]
        gseed = graph_seed_for(cfg.seed, 60, 3, trial)
        g = random_regular(60, 3, gseed)
        return [
            select_anchors(g, k, strategy, anchor_seed_for(gseed, k, strategy, i)).anchors
            for k in (1, 3) for i in range(cfg.anchor_resamples)
        ]

    def expected_searches(self, cfg: SweepConfig) -> list[tuple[str, tuple[int, ...]]]:
        """Every search call of the sweep, in order, with the sources it
        gets: per trial, the farthest draws' one search per chosen anchor,
        then one joint search of the distinct anchors of every set (they
        fit one 64-bit word; the empty k = 0 sets add none)."""
        calls = []
        for trial in range(cfg.trials):
            sets = self.drawn_sets(cfg, trial)
            if cfg.anchor_strategy_list[0] == "farthest":
                calls += [("alone", (a,)) for anchors in sets for a in anchors]
            calls.append(("joint", tuple(dict.fromkeys(a for s in sets for a in s))))
        return calls

    @pytest.mark.parametrize("strategy", harness.STRATEGIES)
    def test_one_stage_per_anchor_set_one_codebook_per_table(self, monkeypatch, strategy):
        expected = self.expected_searches(self.config(strategy))
        computed = count_computations(monkeypatch)
        counts = dict.fromkeys(("select_anchors", "anchor_profile"), 0)
        for attr in counts:
            fn = getattr(harness, attr)

            def wrapper(*args, _fn=fn, _attr=attr, **kwargs):
                counts[_attr] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(harness, attr, wrapper)
        searched = []
        for module, site in ((graphs, "alone"), (harness, "joint")):
            def recording(g, sources, _real=module._bfs, _site=site):
                searched.append((_site, tuple(int(s) for s in sources)))
                return _real(g, sources)

            monkeypatch.setattr(module, "_bfs", recording)
        res = run_sweep(self.config(strategy))
        assert all(rec.failure is None for rec in res.records)
        anchor_sets = {(r.trial, r.k, r.resample) for r in res.records if r.k > 0}
        code_tables = {(r.trial, r.m, r.eta) for r in res.records}
        stages = len(anchor_sets) + len({(r.trial, r.resample) for r in res.records if r.k == 0})
        assert len(res.records) == 3 * 3 * 2 * 2 * 3
        # Each graph's rows are one batch (n = 60), so every row is evaluated once.
        assert computed == {"batches": [len(res.records) // 2] * 2,
                            "groupings": len(code_tables)}
        assert len(code_tables) == 2 * 3 * 2
        # Every set, empty ones included, is drawn once, and every stage's
        # profile comes from its trial's joint search.
        assert counts["select_anchors"] == stages == 2 * 3 * 3
        assert counts["anchor_profile"] == 0
        assert searched == expected

    def test_failed_stage_gives_every_dependent_row_the_same_failure(self, monkeypatch):
        cfg = self.config("random")
        gseed = graph_seed_for(cfg.seed, 60, 3, 1)
        failing = select_anchors(
            random_regular(60, 3, gseed), 3, "random", anchor_seed_for(gseed, 3, "random", 2)
        )
        joint = tuple(dict.fromkeys(a for s in self.drawn_sets(cfg, 1) for a in s))
        calls = []

        def flaky(g, sources, _real=graphs._bfs):
            sources = tuple(int(s) for s in sources)
            if set(failing.anchors) <= set(sources):
                calls.append(sources)
                raise RuntimeError("synthetic stage failure")
            return _real(g, sources)

        monkeypatch.setattr(harness, "_bfs", flaky)
        monkeypatch.setattr(graphs, "_bfs", flaky)
        res = run_sweep(cfg)
        failed = [r for r in res.records if r.failure is not None]
        assert {(r.trial, r.k, r.resample) for r in failed} == {(1, 3, 2)}
        assert len(failed) == 3 * 2  # every m and eta cell of that anchor set
        # the joint search fails, then each of its sets searches alone
        assert calls == [joint, failing.anchors]
        points = [p for p in cfg.points() if (p.trial, p.k, p.resample) == (1, 3, 2)]
        assert failed == [
            TrialRecord(
                **{f.name: getattr(p, f.name) for f in dataclasses.fields(p)},
                seed=gseed, failure="synthetic stage failure",
            )
            for p in points
        ]
        clean = run_sweep(cfg)
        assert [strip_timing(r) for r in res.records if r.failure is None] == [
            strip_timing(r) for r in clean.records if (r.trial, r.k, r.resample) != (1, 3, 2)
        ]


class TestJointAnchorSearch:
    """_GraphCodes.rows searches the anchors of its sets jointly, 64
    distinct anchors at a time; each stage must still be the profile of its
    own set."""

    @staticmethod
    def stage_profiles(g, points, seed) -> tuple[list[np.ndarray], list[tuple[int, ...]]]:
        """The profile of each anchor stage that rows builds, in order, and
        the sources of each joint search."""
        profiles, searches = [], []

        def recording(profile, _real=harness.anchor_stage):
            profiles.append(profile)
            return _real(profile)

        def searching(g, sources, _real=harness._bfs):
            searches.append(tuple(int(s) for s in sources))
            return _real(g, sources)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "anchor_stage", recording)
            mp.setattr(harness, "_bfs", searching)
            reports = list(harness._GraphCodes(g, 0).rows(points, seed))
        assert not [r for r in reports if isinstance(r, Exception)]
        return profiles, searches

    @staticmethod
    def two_cycles() -> graphs.Graph:
        cycle = [(i, (i + 1) % 20) for i in range(20)]
        return graphs.graph_from_edges(40, cycle + [(u + 20, v + 20) for u, v in cycle])

    @given(
        st.integers(10, 60), st.sampled_from(harness.STRATEGIES),
        st.lists(st.integers(0, 80), min_size=1, max_size=5), st.integers(1, 5),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_stage_is_the_profile_of_its_own_set(self, half, strategy, ks, resamples, seed):
        n = 2 * half  # small graphs, so the sets share anchors
        g = random_regular(n, 3, seed)
        points = [
            point(n=n, k=min(k, n), m=0, anchor_strategy=strategy, resample=i)
            for k in ks for i in range(resamples)
        ]
        # The whole list, a suffix and the list backwards, so searches also
        # start mid-list; consecutive rows of one set share its stage.
        for rows in (points, points[len(points) // 2:], points[::-1]):
            sets = [
                select_anchors(g, k, strategy, anchor_seed_for(seed, k, strategy, i))
                for (k, i), _ in itertools.groupby(rows, lambda p: (p.k, p.resample))
            ]
            profiles, searches = self.stage_profiles(g, rows, seed)
            assert all(profile.dtype == np.int64 for profile in profiles)
            assert len(profiles) == len(sets)
            assert all(map(np.array_equal, profiles,
                           (graphs.anchor_profile(g, anchors) for anchors in sets)))
            # A search covers at most one word of sources, or one set alone.
            alone = {anchors.anchors for anchors in sets}
            assert all(len(s) <= graphs._WORD_BITS or s in alone for s in searches)

    @pytest.mark.parametrize("strategy", ("random", "farthest"))
    def test_disconnected_graph_fails_each_set_with_its_own_message(self, strategy):
        g = self.two_cycles()
        points = [
            ConfigPoint(40, None, k, 0, "0.5", "absolute", True, "full", strategy, 0, i)
            for k in (0, 1, 4, 9) for i in range(4)
        ]
        reports = list(harness._GraphCodes(g, 0).rows(points, 7))
        assert len(reports) == len(points)
        messages = set()
        for p, report in zip(points, reports):
            if p.k == 0:  # the empty set searches nothing
                assert isinstance(report, harness.InstanceReport)
                continue
            aseed = anchor_seed_for(7, p.k, strategy, p.resample)
            first = (select_anchors(g, p.k, strategy, aseed).anchors[0] if strategy == "random"
                     else int(np.random.default_rng(aseed).integers(g.n)))
            # The set's first anchor misses the other cycle, from its smallest vertex on.
            message = f"vertex {0 if first >= 20 else 20} unreachable from source {first}"
            messages.add(message)
            assert isinstance(report, graphs.ConnectivityError)
            assert str(report) == message
        assert len(messages) > 1

    def test_failed_set_yields_one_exception_whose_traceback_does_not_grow(self):
        etas = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6")
        points = [
            ConfigPoint(40, None, 4, 0, eta, "absolute", True, "full", "random")
            for eta in etas
        ]
        rows = harness._GraphCodes(self.two_cycles(), 0).rows(points, 7)
        first = next(rows)
        assert isinstance(first, graphs.ConnectivityError)
        frames = len(traceback.extract_tb(first.__traceback__))
        rest = list(rows)
        assert len(rest) == 5 and all(failure is first for failure in rest)
        assert len(traceback.extract_tb(first.__traceback__)) == frames


class TestRecordIdentity:
    def test_record_leads_with_the_point_fields(self):
        point_fields = [f.name for f in dataclasses.fields(ConfigPoint)]
        record_fields = [f.name for f in dataclasses.fields(TrialRecord)]
        assert point_fields == [*harness._GRID_FIELDS, "trial", "resample"]
        assert record_fields[: len(point_fields) + 1] == [*point_fields, "seed"]

    def test_grid_keys_agree(self):
        p = point(k=3, m=2, eta="0.25", trial=4, resample=1)
        rec = TrialRecord(**harness._point_identity(p), seed=9)
        assert rec.grid_key() == p.grid_key()
        assert p.grid_key() == (64, 3, 3, 2, "0.25", "absolute", True, "full", "random")


class TestEdgeListTrials:
    def test_file_graph_records_have_no_r(self, tmp_path):
        g = random_regular(40, 3, 8)
        recs = analyze_records(g, r=None, k=2, m=1, eta="0.5", seed=0)
        assert recs[0].r is None
        path = tmp_path / "rows.csv"
        write_records_csv(recs, str(path), include_timing=True)
        assert path.read_text().splitlines()[1].split(",")[1] == "n/a"
        rows = read_csv_rows(str(path))
        assert rows[0].r is None
        assert [csv_fields(r) for r in rows] == [csv_fields(r) for r in recs]


class TestKemp:
    def sweep(self) -> "harness.SweepResult":
        cfg = SweepConfig(
            n_list=(200,), k_list=(1, 2, 4, 8), m_list=(0,), eta_list=("0.1",),
            trials=10, anchor_resamples=1, seed=0,
        )
        return run_sweep(cfg, jobs=2)

    def test_threshold_walk(self):
        res = self.sweep()
        # measured means: k=1 ~0.95, k=2 ~0.75, k=4 ~0.08, k=8 0.0
        assert k_emp(res, 200, 0, "0.1", threshold=1.0) == 1
        assert k_emp(res, 200, 0, "0.1", threshold=0.1) == 4
        assert k_emp(res, 200, 0, "0.1", threshold=0.01) == 8

    def test_none_when_no_k_qualifies(self):
        res = self.sweep()
        assert k_emp(res, 200, 0, "0.1", threshold=0.0001) in (8, None)
        cfg = SweepConfig(
            n_list=(200,), k_list=(1,), m_list=(0,), eta_list=("0.1",),
            trials=3, seed=0,
        )
        small = run_sweep(cfg)
        assert k_emp(small, 200, 0, "0.1", threshold=0.05) is None

    def test_missing_cell_rejected(self):
        res = self.sweep()
        with pytest.raises(ValueError):
            k_emp(res, 300, 0, "0.1")
        with pytest.raises(ValueError):
            k_emp(res, 200, 1, "0.1")
        with pytest.raises(ValueError):
            k_emp(res, 200, 0, "0.7")

    def test_eta_matching_by_value(self):
        res = self.sweep()
        assert k_emp(res, 200, 0, 0.1, threshold=1.0) == 1

    def test_cell_without_successful_rows_cannot_qualify(self, monkeypatch, tmp_path):
        real = harness.select_anchors

        def failing_k1(g, k, strategy, seed):
            if k == 1:
                raise RuntimeError("synthetic")
            return real(g, k, strategy, seed)

        monkeypatch.setattr(harness, "select_anchors", failing_k1)
        cfg = SweepConfig(
            n_list=(40,), k_list=(1, 6), m_list=(0, 1), eta_list=("0.5", "0.25"),
            trials=4, seed=0,
        )
        res = run_sweep(cfg)
        assert all(r.failure is not None for r in res.records if r.k == 1)
        path = tmp_path / "rows.csv"
        write_csv(res, str(path))
        assert k_emp(res, 40, 0, "0.5") == 6
        table = kemp_table(read_csv_rows(str(path)), DEFAULT_THRESHOLD)
        assert [(row.n, row.m, row.eta) for row in table] == [
            (40, 0, "0.25"), (40, 0, "0.5"), (40, 1, "0.25"), (40, 1, "0.5"),
        ]
        for row in table:
            assert row.k_emp == k_emp(res, row.n, row.m, row.eta)
            key = (row.n, row.r, row.k_emp, row.m, row.eta, *row_setting(row)[1:])
            means = res.aggregates[key].means
            assert (row.image_frac, row.mean_preimage, row.codebook) == (
                means["image_frac"], means["mean_preimage"], means["codebook_size"])

    def test_joined_sweeps_stay_apart(self, tmp_path):
        # Two sweeps that differ only in the quantizer, joined in one CSV,
        # read as the one sweep over both quantizers does.
        grid = dict(n_list=(40,), k_list=(1, 2, 3, 6), m_list=(2,), eta_list=("0.5",),
                    trials=4, seed=0)
        results = [
            run_sweep(SweepConfig(**grid, quantizer_list=(quantizer,)))
            for quantizer in QUANTIZERS
        ]
        joined, one = tmp_path / "joined.csv", tmp_path / "one.csv"
        write_records_csv([rec for res in results for rec in res.records], str(joined))
        write_csv(run_sweep(SweepConfig(**grid, quantizer_list=QUANTIZERS)), str(one))
        table = kemp_table(read_csv_rows(str(joined)), DEFAULT_THRESHOLD)
        assert [row.quantizer for row in table] == list(QUANTIZERS)
        got = [row.k_emp for row in table]
        assert got == [k_emp(res, 40, 2, "0.5") for res in results]
        assert got == [2, 3]
        assert kemp_table(read_csv_rows(str(one)), DEFAULT_THRESHOLD) == table

    def test_k_emp_rejects_a_cell_held_in_several_settings(self):
        res = run_sweep(SweepConfig(
            n_list=(40,), k_list=(1, 6), m_list=(2,), eta_list=("0.5",), trials=2,
            quantizer_list=QUANTIZERS, seed=0,
        ))
        with pytest.raises(ValueError, match=(
            r"n=40 m=2 eta=0.5 holds 2 settings \(r=3 quantizer=absolute .*; "
            r"r=3 quantizer=relative .*\); use kemp_table")):
            k_emp(res, 40, 2, "0.5")


class TestKempTable:
    def row(self, n, m, eta, k, error):
        identity = dict(
            n=n, r=3, k=k, m=m, eta=eta, quantizer="absolute", scaled=True,
            feature="full", anchor_strategy="random", trial=0, resample=0, seed=0,
        )
        if error is None:
            return TrialRecord(**identity, failure="synthetic")
        return TrialRecord(
            **identity, error=error, image_frac=1.0 - error, mean_preimage=1.5, codebook_size=10,
        )

    def test_threshold_pick_and_rho(self):
        rows = [
            self.row(500, 0, "0.1", 2, 0.5),
            self.row(500, 0, "0.1", 4, 0.04),
            self.row(500, 0, "0.1", 6, 0.01),
        ]
        table = kemp_table(rows, threshold=0.1)
        assert len(table) == 1
        entry = table[0]
        assert entry.k_emp == 4
        assert entry.image_frac == pytest.approx(0.96)
        assert entry.codebook == 10.0
        assert row_setting(entry) == (3, "absolute", True, "full", "random")
        from obsmap.theory import rho_eng

        assert entry.rho == pytest.approx(rho_eng(500, 4, 0, 0.1))

    def test_unmet_threshold_yields_none_row(self):
        rows = [self.row(500, 0, "0.1", 2, 0.5)]
        entry = kemp_table(rows, threshold=0.1)[0]
        assert entry.k_emp is None
        assert entry.rho is None
        assert entry.image_frac is None

    def test_failure_rows_are_skipped(self):
        rows = [
            self.row(500, 0, "0.1", 2, None),
            self.row(500, 0, "0.1", 4, 0.02),
        ]
        entry = kemp_table(rows, threshold=0.1)[0]
        assert entry.k_emp == 4

    def test_groups_by_exact_eta_string(self):
        rows = [
            self.row(500, 0, "0.1", 2, 0.01),
            self.row(500, 0, "0.10", 2, 0.01),
        ]
        table = kemp_table(rows, threshold=0.1)
        assert [(e.n, e.m, e.eta) for e in table] == [
            (500, 0, "0.1"), (500, 0, "0.10")
        ]

    def test_small_n_reports_no_rho(self):
        rows = [self.row(8, 0, "0.1", 1, 0.0)]
        entry = kemp_table(rows, threshold=0.1)[0]
        assert entry.k_emp == 1
        assert entry.rho is None


class TestCsv:
    def test_header_names_pinned(self):
        assert CSV_COLUMNS == (
            "n", "r", "k", "m", "eta", "quantizer", "scaled", "feature",
            "anchor_strategy", "trial", "resample", "seed", "error", "image_frac",
            "mean_preimage", "singleton_frac", "codebook_size", "profile_count",
            "singleton_bucket_frac", "weighted_collision", "median_code_ratio",
            "q90_balance", "generic_bound", "refined_bound", "bounds_ok",
            "wall_time_ms",
        )

    def test_header_only_for_no_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_schema_and_values(self, tmp_path):
        rec = one_point_record(point(), 0)
        path = tmp_path / "one.csv"
        write_records_csv([rec], str(path))
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["n"] == "64"
        assert row["eta"] == "0.5"
        assert row["scaled"] == "true"
        assert row["wall_time_ms"] == "n/a"
        assert float(row["error"]) == rec.error

    def test_timing_opt_in(self, tmp_path):
        rec = one_point_record(point(), 0)
        path = tmp_path / "timed.csv"
        write_records_csv([rec], str(path), include_timing=True)
        row = dict(zip(CSV_COLUMNS, path.read_text().splitlines()[1].split(",")))
        assert float(row["wall_time_ms"]) >= 0.0

    def test_read_back_round_trip(self, tmp_path):
        recs = [one_point_record(point(trial=t), 0) for t in range(2)]
        recs.append(one_point_record(point(k=8), 0))  # every bucket a singleton
        g = random_regular(40, 3, 8)
        recs.extend(analyze_records(g, r=None, k=2, m=1, eta="0.5", seed=0))
        assert recs[2].refined_bound is None and recs[3].r is None
        path = tmp_path / "rows.csv"
        write_records_csv(recs, str(path), include_timing=True)
        rows = read_csv_rows(str(path))
        assert len(rows) == 4
        assert [r.trial for r in rows[:2]] == [0, 1]
        assert [csv_fields(r) for r in rows] == [csv_fields(r) for r in recs]

    @pytest.mark.parametrize("column, cell", [
        ("n", "many"), ("error", "0.0x3"), ("eta", "abc"), ("eta", "-0.5"),
        ("quantizer", "absolut"), ("feature", "fulll"), ("anchor_strategy", "best"),
    ])
    def test_corrupt_cell_names_line_and_column(self, tmp_path, column, cell):
        path = tmp_path / "bad.csv"
        write_records_csv([one_point_record(point(trial=t), 0) for t in range(2)], str(path))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=f"line 3: column {column}: cannot read '{cell}'"):
            read_csv_rows(str(path))

    @given(st.lists(trial_records(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_codec_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("codec") / "rows.csv"
        write_records_csv(records, str(path), include_timing=True)
        # The CSV holds neither degenerate nor the failure reason: a failed
        # record reads back with the failure marker.
        expected = [
            dataclasses.replace(
                rec, degenerate=False, failure=None if rec.failure is None else "error")
            for rec in records
        ]
        assert read_csv_rows(str(path)) == expected

    def test_numpy_scalars_write_as_python_scalars(self, tmp_path):
        rec = one_point_record(point(), 0)
        as_numpy = dataclasses.replace(
            rec, n=np.int64(rec.n), seed=np.uint64(rec.seed),
            codebook_size=np.int64(rec.codebook_size), error=np.float64(rec.error),
            image_frac=np.float64(rec.image_frac), scaled=np.bool_(rec.scaled),
            bounds_ok=np.bool_(rec.bounds_ok),
        )
        a, b = tmp_path / "python.csv", tmp_path / "numpy.csv"
        write_records_csv([rec], str(a))
        write_records_csv([as_numpy], str(b))
        assert b.read_bytes() == a.read_bytes()

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "short_row.csv"
        write_records_csv([one_point_record(point(), 0)], str(path))
        path.write_text(path.read_text().rstrip("\n").rsplit(",", 1)[0] + "\n")
        with pytest.raises(CsvFormatError, match="line 2: 25 cells, header has 26"):
            read_csv_rows(str(path))

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_csv_rows(str(path))

    def test_read_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("n,k,m\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="missing"):
            read_csv_rows(str(path))

    def test_read_rejects_header_only(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(CsvFormatError, match="no data"):
            read_csv_rows(str(path))


class TestParseSweepConfig:
    def test_full_round_trip(self):
        cfg = parse_sweep_config(
            """
            # grid
            n = [500, 1000]
            k = 1, 2, 4
            m = [0, 2]
            eta = ["0.10", 0.5]   # exact spellings kept
            trials = 5
            resamples = 2
            r = 3
            quantizer = relative
            scaled = false
            feature = distance
            strategy = farthest
            seed = 11
            """
        )
        assert cfg.n_list == (500, 1000)
        assert cfg.k_list == (1, 2, 4)
        assert cfg.m_list == (0, 2)
        assert cfg.eta_list == ("0.10", "0.5")
        assert cfg.trials == 5
        assert cfg.anchor_resamples == 2
        assert cfg.r_list == (3,)
        assert cfg.quantizer_list == ("relative",)
        assert cfg.scaled_list == (False,)
        assert cfg.feature_list == ("distance",)
        assert cfg.anchor_strategy_list == ("farthest",)
        assert cfg.seed == 11
        assert len(dataclasses.fields(cfg)) == 12
        # The k_emp threshold is read at kemp time, not set by the sweep.
        with pytest.raises(ValueError, match="line 5: unknown key 'threshold'"):
            parse_sweep_config("n=16\nk=1\nm=0\neta=0.1\nthreshold = 0.2\n")

    def test_defaults(self):
        cfg = parse_sweep_config("n=16\nk=1\nm=0\neta=0.1\n")
        assert cfg.trials == 20
        assert cfg.anchor_resamples == 1
        assert cfg.r_list == (3,)
        assert cfg.quantizer_list == ("absolute",)
        assert cfg.scaled_list == (True,)
        assert cfg.feature_list == ("full",)
        assert cfg.anchor_strategy_list == ("random",)

    def test_option_keys_take_lists(self):
        cfg = parse_sweep_config(
            "n=16\nk=1\nm=0\neta=0.1\nr = [3, 5]\nquantizer = [absolute, relative]\n"
            "scaled = true, no\nfeature = [distance]\nanchor_strategy = degree, farthest\n")
        assert cfg.r_list == (3, 5)
        assert cfg.quantizer_list == ("absolute", "relative")
        assert cfg.scaled_list == (True, False)
        assert cfg.feature_list == ("distance",)
        assert cfg.anchor_strategy_list == ("degree", "farthest")
        with pytest.raises(ValueError, match="^config line 5: scaled: cannot read 'maybe'$"):
            parse_sweep_config("n=16\nk=1\nm=0\neta=0.1\nscaled = [true, maybe]\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_sweep_config("n=16\nk=1\nm=0\neta=0.1\ncolor=blue\n")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing"):
            parse_sweep_config("n=16\nk=1\nm=0\n")

    def test_line_number_in_errors(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_sweep_config("n=16\nk=one\nm=0\neta=0.1\n")

    @pytest.mark.parametrize("key, value, token", [
        ("n", "[16, many]", "many"), ("r", "three", "three"), ("k", "[one]", "one"),
        ("m", "1.5", "1.5"), ("eta", "[abc]", "abc"), ("eta", "[0.1, -1]", "-1"),
        ("quantizer", "[absolut]", "absolut"), ("scaled", "maybe", "maybe"),
        ("feature", "[ful]", "ful"), ("strategy", "[random, farther]", "farther"),
        ("anchor_strategy_list", "nearest", "nearest"), ("trials", "[5]", "[5]"),
        ("resamples", "2.0", "2.0"), ("seed", "s", "s"),
    ])
    def test_bad_value_names_line_and_key(self, key, value, token):
        text = f"n=16\nk=1\nm=0\neta=0.1\n# note\n\n{key} = {value}  # bad\n"
        message = f"config line 7: {key}: cannot read {token!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep_config(text)

    def test_value_errors_surface_from_config(self):
        with pytest.raises(ValueError):
            parse_sweep_config("n=15\nk=1\nm=0\neta=0.1\ntrials=0\n")

    def test_checked_in_experiment_configs(self):
        scripts = Path(__file__).resolve().parents[1] / "scripts"
        configs = {
            path.name: parse_sweep_config(path.read_text(encoding="utf-8"))
            for path in sorted(scripts.glob("*.conf"))
        }
        assert {"phase_transition.conf", "phase_transition_full.conf"} <= set(configs)
        reduced = configs["phase_transition.conf"]
        assert reduced.n_list == (500,)
        assert reduced.k_list == (1, 2, 3, 4, 6, 8)
        assert reduced.m_list == (0, 1, 2, 5)
        assert reduced.eta_list == ("0.1",)
        assert reduced.trials == 20
        full = configs["phase_transition_full.conf"]
        assert full.n_list == (500, 1000, 2000, 4000)
        assert full.eta_list == ("0.9", "0.7", "0.5", "0.3", "0.1")
        # every other setting at its default: cubic graphs, master seed 0
        for cfg in (reduced, full):
            assert cfg == SweepConfig(
                n_list=cfg.n_list, k_list=(1, 2, 3, 4, 6, 8),
                m_list=(0, 1, 2, 5), eta_list=cfg.eta_list)


class TestStatisticalBehavior:
    def test_error_decreases_in_k(self):
        # measured means at n=200, m=0: 0.95, 0.75, 0.08, 0.0; the 0.05
        # slack absorbs trial noise without hiding a broken trend
        cfg = SweepConfig(
            n_list=(200,), k_list=(1, 2, 4, 8), m_list=(0,), eta_list=("0.1",),
            trials=20, anchor_resamples=1, seed=0,
        )
        res = run_sweep(cfg, jobs=2)
        means = []
        for k in (1, 2, 4, 8):
            key = (200, 3, k, 0, "0.1", "absolute", True, "full", "random")
            means.append(res.aggregates[key].means["error"])
        for a, b in zip(means, means[1:]):
            assert b <= a + 0.05

    def test_anchor_identification_cell(self):
        # six anchors identify nearly every vertex of a cubic 500-graph:
        # published mean error 0.008, measured 0.0083 (std 0.004)
        cfg = SweepConfig(
            n_list=(500,), k_list=(6,), m_list=(0,), eta_list=("0.1",),
            trials=20, anchor_resamples=1, seed=0,
        )
        res = run_sweep(cfg, jobs=2)
        key = (500, 3, 6, 0, "0.1", "absolute", True, "full", "random")
        mean = res.aggregates[key].means["error"]
        assert mean <= 0.1
        assert 0.0 <= mean <= 0.03


def test_bucketwise_regime_table_full_protocol():
    # Full 20x10 protocol on cubic graphs at n=2000. Published row values:
    # weighted collision 0.727 / 0.253 / 4.45e-4 (+-30%), overall error
    # 0.894 / 0.703 / 0.012, near-injective median code ratio 0.9999.
    # Also doubles as the bound check in the collision-heavy regime, where
    # the refined substitution is applicable on every instance.
    cfg = SweepConfig(
        n_list=(2000,), k_list=(2,), m_list=(1, 2, 5),
        eta_list=("2.0", "1.0", "0.3"),
        trials=20, anchor_resamples=10, seed=0,
    )
    res = run_sweep(cfg, jobs=4)
    regimes = {(1, "2.0"): {}, (2, "1.0"): {}, (5, "0.3"): {}}
    for (m, eta), out in regimes.items():
        key = (2000, 3, 2, m, eta, "absolute", True, "full", "random")
        agg = res.aggregates[key]
        assert agg.failures == 0
        out["wcoll"] = agg.means["weighted_collision"]
        out["error"] = agg.means["error"]
        out["median"] = agg.means["median_code_ratio"]

    high, mid, low = regimes[(1, "2.0")], regimes[(2, "1.0")], regimes[(5, "0.3")]
    assert high["wcoll"] > mid["wcoll"] > low["wcoll"]
    assert high["wcoll"] == pytest.approx(0.727, rel=0.30)
    assert mid["wcoll"] == pytest.approx(0.253, rel=0.30)
    assert low["wcoll"] == pytest.approx(4.45e-4, rel=0.30)
    assert abs(high["error"] - 0.894) <= 0.1
    assert abs(mid["error"] - 0.703) <= 0.1
    assert abs(low["error"] - 0.012) <= 0.02
    assert low["median"] >= 0.999

    # collision-heavy regime: the refined substitution needs every
    # non-singleton bucket at positive collision, which holds on 22 of the
    # 200 instances here (a small bucket with all-distinct codes voids it
    # elsewhere); the bound holds on every applicable instance and the
    # generic bound on all of them.
    heavy = [r for r in res.records if r.m == 1 and r.eta == "2.0"]
    assert len(heavy) == 200
    applicable = [r for r in heavy if r.refined_bound is not None]
    assert len(applicable) == 22
    assert all(r.bounds_ok for r in heavy)
