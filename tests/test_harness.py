"""Sweep execution, seed derivation, anchor strategies, CSV round trips,
and the anchor-threshold table."""

from __future__ import annotations

import dataclasses

import pytest

import obsmap.harness as harness
from obsmap.graphs import random_regular
from obsmap.harness import (
    CSV_COLUMNS,
    ConfigPoint,
    CsvFormatError,
    SweepConfig,
    analyze_records,
    anchor_seed_for,
    graph_seed_for,
    k_emp,
    kemp_table,
    mix64,
    parse_sweep_config,
    read_csv_rows,
    run_sweep,
    run_trial,
    select_anchors,
    write_csv,
    write_records_csv,
)

from conftest import path_graph, star_graph


def point(**overrides) -> ConfigPoint:
    base = dict(
        n=64, r=3, k=2, m=1, eta="0.5", quantizer="absolute", scaled=True,
        feature="full", anchor_strategy="random", trial=0, resample=0,
    )
    base.update(overrides)
    return ConfigPoint(**base)


def strip_timing(rec):
    return dataclasses.replace(rec, wall_time_ms=None)


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
    def test_nope_error_is_one_minus_one_over_n(self):
        rec = run_trial(point(feature="nope"), 0)
        assert rec.error == 1.0 - 1.0 / 64.0
        assert rec.image_frac == 1.0 / 64.0
        assert rec.codebook_size == 1
        assert rec.failure is None

    def test_distance_feature_matches_m0(self):
        distance = run_trial(point(feature="distance", m=5), 0)
        m0 = run_trial(point(feature="full", m=0), 0)
        for field in ("error", "image_frac", "mean_preimage", "codebook_size",
                      "profile_count", "generic_bound"):
            assert getattr(distance, field) == getattr(m0, field), field

    def test_deterministic(self):
        a = run_trial(point(), 7)
        b = run_trial(point(), 7)
        assert strip_timing(a) == strip_timing(b)

    def test_seed_column_is_graph_seed(self):
        rec = run_trial(point(trial=3), 9)
        assert rec.seed == graph_seed_for(9, 64, 3, 3)

    def test_error_carries_configuration(self):
        bad = point(n=65)  # 65*3 odd: the pairing model cannot realize it
        with pytest.raises(ValueError, match="n=65"):
            run_trial(bad, 0)

    def test_identity_error_image_frac(self):
        rec = run_trial(point(), 0)
        assert rec.error == 1.0 - rec.image_frac


class TestAnalyzeRecords:
    def test_matches_run_trial_on_shared_seed_path(self):
        p = point(n=80, k=3, m=2, eta="0.5", trial=0, resample=0)
        via_trial = run_trial(p, 4)
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


class TestSweepConfigValidation:
    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            SweepConfig(n_list=(65,), k_list=(1,), m_list=(0,), eta_list=("0.1",))

    def test_k_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_list=(10,), k_list=(11,), m_list=(0,), eta_list=("0.1",))

    def test_m_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_list=(10,), k_list=(1,), m_list=(10,), eta_list=("0.1",))

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_list=(10,), k_list=(1,), m_list=(0,), eta_list=("zero",))
        with pytest.raises(ValueError):
            SweepConfig(n_list=(10,), k_list=(1,), m_list=(0,), eta_list=("-1",))

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            SweepConfig(
                n_list=(10,), k_list=(1,), m_list=(0,), eta_list=("0.1",),
                error_threshold=0.0,
            )

    def test_points_order(self):
        cfg = SweepConfig(
            n_list=(10, 8), k_list=(2, 1), m_list=(0,),
            eta_list=("0.5", "0.125"), trials=2, anchor_resamples=2,
        )
        pts = list(cfg.points())
        keys = [
            (p.n, p.k, p.m, float(p.eta), p.trial, p.resample) for p in pts
        ]
        assert keys == sorted(keys)
        assert len(pts) == 2 * 2 * 1 * 2 * 2 * 2


class TestRunSweep:
    def small_config(self, **overrides) -> SweepConfig:
        base = dict(
            n_list=(40,), k_list=(2,), m_list=(0, 1), eta_list=("0.5",),
            trials=3, anchor_resamples=2, seed=1,
        )
        base.update(overrides)
        return SweepConfig(**base)

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = self.small_config()
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
        rows = read_csv_rows(str(path))
        marked = [row for row in rows if row["error"] == "error"]
        assert len(marked) == 4
        assert all(row["weighted_collision"] == "error" for row in marked)
        # identity columns survive on failure rows
        assert all(row["n"] == "40" and row["trial"] == "1" for row in marked)

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
        alone = run_trial(point(n=500, k=rec.k, m=2, eta=rec.eta, trial=1, resample=1), 3)
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

    def test_no_solve_without_spectral_part(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve without a spectral feature")

        monkeypatch.setattr(harness, "low_frequency_basis", forbidden)
        res = run_sweep(self.config(feature="distance"))
        assert all(r.failure is None for r in res.records)

    def test_diagnostics_and_codebook_once_per_row(self, monkeypatch):
        import obsmap.theory as theory

        counts = {"diag": 0, "codebook": 0}
        for module in (harness, theory):
            for name, attr in (("diag", "bucket_diagnostics"), ("codebook", "codebook_size")):
                fn = getattr(module, attr)

                def wrapper(*args, _fn=fn, _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, attr, wrapper)
        res = run_sweep(self.config(m_list=(1,), eta_list=("0.3",)))
        assert counts == {"diag": len(res.records), "codebook": len(res.records)}


class TestEdgeListTrials:
    def test_file_graph_records_have_no_r(self, tmp_path):
        g = random_regular(40, 3, 8)
        recs = analyze_records(g, r=None, k=2, m=1, eta="0.5", seed=0)
        assert recs[0].r is None
        path = tmp_path / "rows.csv"
        write_records_csv(recs, str(path))
        rows = read_csv_rows(str(path))
        assert rows[0]["r"] == "n/a"


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


class TestKempTable:
    def row(self, n, m, eta, k, error, **extra):
        base = {c: "0" for c in CSV_COLUMNS}
        base.update(
            n=str(n), m=str(m), eta=eta, k=str(k), error=str(error),
            image_frac=str(1.0 - float(error)) if error not in ("error", "n/a") else error,
            mean_preimage="1.5", codebook_size="10",
        )
        base.update({k2: str(v) for k2, v in extra.items()})
        return base

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
        from obsmap.theory import BudgetInputs, rho_eng

        assert entry.rho == pytest.approx(
            rho_eng(BudgetInputs(n=500, k=4, m=0, eta=0.1))
        )

    def test_unmet_threshold_yields_none_row(self):
        rows = [self.row(500, 0, "0.1", 2, 0.5)]
        entry = kemp_table(rows, threshold=0.1)[0]
        assert entry.k_emp is None
        assert entry.rho is None
        assert entry.image_frac is None

    def test_failure_rows_are_skipped(self):
        rows = [
            self.row(500, 0, "0.1", 2, "error"),
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

    def test_bad_identity_rejected(self):
        rows = [self.row(500, 0, "0.1", 2, 0.5)]
        rows[0]["n"] = "many"
        with pytest.raises(CsvFormatError):
            kemp_table(rows, threshold=0.1)


class TestCsv:
    def test_header_only_for_no_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_schema_and_values(self, tmp_path):
        rec = run_trial(point(), 0)
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
        rec = run_trial(point(), 0)
        path = tmp_path / "timed.csv"
        write_records_csv([rec], str(path), include_timing=True)
        row = dict(zip(CSV_COLUMNS, path.read_text().splitlines()[1].split(",")))
        assert float(row["wall_time_ms"]) >= 0.0

    def test_read_back_round_trip(self, tmp_path):
        recs = [run_trial(point(trial=t), 0) for t in range(2)]
        path = tmp_path / "two.csv"
        write_records_csv(recs, str(path))
        rows = read_csv_rows(str(path))
        assert len(rows) == 2
        assert [r["trial"] for r in rows] == ["0", "1"]

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
            threshold = 0.2
            """
        )
        assert cfg.n_list == (500, 1000)
        assert cfg.k_list == (1, 2, 4)
        assert cfg.m_list == (0, 2)
        assert cfg.eta_list == ("0.10", "0.5")
        assert cfg.trials == 5
        assert cfg.anchor_resamples == 2
        assert cfg.quantizer == "relative"
        assert cfg.scaled is False
        assert cfg.feature == "distance"
        assert cfg.anchor_strategy == "farthest"
        assert cfg.seed == 11
        assert cfg.error_threshold == 0.2

    def test_defaults(self):
        cfg = parse_sweep_config("n=16\nk=1\nm=0\neta=0.1\n")
        assert cfg.trials == 20
        assert cfg.anchor_resamples == 1
        assert cfg.quantizer == "absolute"
        assert cfg.scaled is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_sweep_config("n=16\nk=1\nm=0\neta=0.1\ncolor=blue\n")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing"):
            parse_sweep_config("n=16\nk=1\nm=0\n")

    def test_line_number_in_errors(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_sweep_config("n=16\nk=one\nm=0\neta=0.1\n")

    def test_value_errors_surface_from_config(self):
        with pytest.raises(ValueError):
            parse_sweep_config("n=15\nk=1\nm=0\neta=0.1\ntrials=0\n")


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


@pytest.mark.slow
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
