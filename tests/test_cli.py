"""Command-line behavior: flag validation, output contracts, exit codes,
and parity with the underlying library calls."""

from __future__ import annotations

import os
import stat
import sys
from pathlib import Path

import pytest

from obsmap import harness, spectral
from obsmap.cli import build_parser, main
from obsmap.graphs import from_edge_list, random_regular, serialize_edge_list
from obsmap.harness import (
    CSV_COLUMNS,
    analyze_records,
    anchor_seed_for,
    evaluate_instance,
    graph_seed_for,
    read_csv_rows,
    select_anchors,
)
from obsmap.spectral import empty_embedding, quantize_absolute


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(text: str) -> dict[str, str]:
    """First token of each line -> rest of the line."""
    pairs = {}
    for line in text.splitlines():
        if " " in line:
            key, rest = line.split(" ", 1)
            pairs[key] = rest
    return pairs


def write_k4(path) -> str:
    lines = [f"{i} {j}" for i in range(4) for j in range(i + 1, 4)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_path5(path) -> str:
    path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(4)))
    return str(path)


class TestGenRegular:
    def test_writes_edge_list_file(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, _, err = run_cli(
            capsys, "gen-regular", "--n", "12", "--r", "3", "--seed", "5",
            "--out", str(out))
        assert code == 0
        assert "n=12" in err
        with open(out, "r", encoding="utf-8") as fh:
            parsed = from_edge_list(fh)
        assert parsed.graph.n == 12
        assert list(parsed.graph.degrees()) == [3] * 12

    def test_stdout_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "gen-regular", "--n", "10", "--seed", "2")
        assert code == 0
        expected = list(serialize_edge_list(random_regular(10, 3, 2)))
        assert out.splitlines() == expected

    def test_deterministic_output_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            code, _, _ = run_cli(
                capsys, "gen-regular", "--n", "20", "--r", "4", "--seed", "9",
                "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_odd_product_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen-regular", "--n", "11", "--r", "3")
        assert code == 2
        assert "error:" in err

    def test_degree_below_three_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "gen-regular", "--n", "10", "--r", "2")
        assert code == 2

    def test_degree_above_ceiling_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen-regular", "--n", "200", "--r", "7")
        assert code == 2
        assert out == ""
        assert "degree 7 exceeds 6" in err


class TestGraphStats:
    def test_complete_graph_values(self, capsys, tmp_path):
        path = write_k4(tmp_path / "k4.edges")
        code, out, _ = run_cli(capsys, "graph-stats", "--graph", path)
        assert code == 0
        got = out_lines(out)
        assert got["n"] == "4"
        assert got["edge_count"] == "6"
        assert got["avg_degree"] == "3"
        assert got["density"] == "1"
        assert got["diameter"] == "1"
        assert got["avg_shortest_path_length"] == "1"
        assert got["avg_clustering"] == "1"
        assert got["transitivity"] == "1"
        assert got["degree_variance"] == "0"
        assert got["degree_gini"] == "0"

    def test_regular_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph-stats", "--regular", "30,3", "--seed", "4")
        assert code == 0
        got = out_lines(out)
        assert got["n"] == "30"
        assert got["avg_degree"] == "3"
        assert int(got["diameter"]) >= 2

    def test_no_graph_source_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "graph-stats")
        assert code == 2

    def test_both_graph_sources_exit_2(self, capsys, tmp_path):
        path = write_k4(tmp_path / "k4.edges")
        code, _, _ = run_cli(
            capsys, "graph-stats", "--graph", path, "--regular", "30,3")
        assert code == 2

    def test_disconnected_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("a b\nc d\n")
        code, _, err = run_cli(capsys, "graph-stats", "--graph", str(path))
        assert code == 1
        assert "unreachable from source 0" in err

    def test_lcc_keeps_largest_component(self, capsys, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("a b\nb c\nd e\n")
        code, out, err = run_cli(
            capsys, "graph-stats", "--graph", str(path), "--lcc")
        assert code == 0
        assert "kept largest component: 3 of 5" in err
        assert out_lines(out)["n"] == "3"

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "graph-stats", "--graph", str(tmp_path / "nope.edges"))
        assert code == 1

    def test_malformed_edge_list_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b c\n")
        code, _, err = run_cli(capsys, "graph-stats", "--graph", str(path))
        assert code == 1
        assert "line 1" in err


class TestAnalyze:
    def test_distance_only_reference_configuration(self, capsys):
        # Six random anchors on a 500-vertex cubic graph identify almost
        # every vertex; the mean over 20 anchor draws stays under 0.1.
        code, out, _ = run_cli(
            capsys, "analyze", "--regular", "500,3", "--seed", "1",
            "--anchors", "6", "--strategy", "random", "--m", "0",
            "--eta", "0.1", "--resamples", "20")
        assert code == 0
        got = out_lines(out)
        assert got["n"] == "500"
        assert got["resamples"] == "20"
        mean_error = float(got["error"].split(" ")[0])
        assert 0.0 <= mean_error <= 0.1

    def test_report_keys_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--regular", "64,3", "--seed", "3",
            "--anchors", "2", "--m", "1", "--eta", "0.5")
        assert code == 0
        got = out_lines(out)
        for key in (
            "n", "resamples", "error", "image_frac", "mean_preimage",
            "singleton_frac", "codebook_size", "profile_count", "bounds_ok",
            "refined_bound_na",
        ):
            assert key in got
        assert got["bounds_ok"] == "true"

    def test_matches_library_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--regular", "80,3", "--seed", "7",
            "--anchors", "2", "--m", "1", "--eta", "0.5", "--resamples", "3")
        assert code == 0
        got = out_lines(out)
        g = random_regular(80, 3, 7)
        records = analyze_records(
            g, r=3, k=2, m=1, eta="0.5", quantizer="absolute", scaled=True,
            anchor_strategy="random", seed=7, resamples=3)
        mean_error = sum(rec.error for rec in records) / 3
        assert float(got["error"].split(" ")[0]) == pytest.approx(
            mean_error, abs=1e-6)
        assert int(got["codebook_size"]) == records[0].codebook_size

    def test_zero_anchors_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "analyze", "--regular", "64,3", "--anchors", "0")
        assert code == 2

    def test_conflicting_sources_exit_2(self, capsys, tmp_path):
        path = write_k4(tmp_path / "k4.edges")
        code, _, _ = run_cli(
            capsys, "analyze", "--graph", path, "--regular", "64,3",
            "--anchors", "1")
        assert code == 2

    def test_csv_rows_and_schema(self, capsys, tmp_path):
        out = tmp_path / "records.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--regular", "64,3", "--seed", "2",
            "--anchors", "2", "--m", "0", "--eta", "0.1",
            "--resamples", "4", "--csv", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        assert all(line.split(",")[1] == "3" for line in lines[1:])

    def test_csv_r_column_na_for_edge_list_input(self, capsys, tmp_path):
        graph_path = write_path5(tmp_path / "p.edges")
        out = tmp_path / "records.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--graph", graph_path, "--anchors", "1",
            "--m", "0", "--csv", str(out))
        assert code == 0
        row = out.read_text().splitlines()[1]
        assert row.split(",")[1] == "n/a"

    def test_basis_and_embedding_dumps(self, capsys, tmp_path):
        basis_path = tmp_path / "basis.tsv"
        emb_path = tmp_path / "emb.tsv"
        code, _, _ = run_cli(
            capsys, "analyze", "--regular", "40,3", "--seed", "1",
            "--anchors", "1", "--m", "2", "--eta", "0.5",
            "--basis-tsv", str(basis_path), "--embedding-tsv", str(emb_path))
        assert code == 0
        basis_lines = basis_path.read_text().splitlines()
        emb_lines = emb_path.read_text().splitlines()
        # Long format: one row per vertex/column pair; the basis keeps the
        # trivial eigenvector alongside the m retained columns.
        assert len(basis_lines) == 1 + 40 * 3
        assert len(emb_lines) == 1 + 40 * 2
        assert basis_lines[0].startswith("vertex")

    def test_dumps_reuse_the_analysis_solve(self, capsys, tmp_path, monkeypatch):
        original = spectral.low_frequency_basis
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Patch every import site, so a solve from any module is counted.
        for name, module in list(sys.modules.items()):
            if name.startswith("obsmap") and vars(module).get("low_frequency_basis") is original:
                monkeypatch.setattr(module, "low_frequency_basis", counting)
        basis_path = tmp_path / "basis.tsv"
        emb_path = tmp_path / "emb.tsv"
        code, _, _ = run_cli(
            capsys, "analyze", "--regular", "64,3", "--anchors", "2", "--m", "2",
            "--basis-tsv", str(basis_path), "--embedding-tsv", str(emb_path))
        assert code == 0
        assert len(calls) == 1
        # The dumps hold the basis and embedding of a fresh solve, byte for byte.
        basis = original(spectral.normalized_laplacian(random_regular(64, 3, 0)), 2)
        spectral.write_basis_tsv(basis, str(tmp_path / "fresh_basis.tsv"))
        spectral.write_embedding_tsv(
            spectral.energy_embedding(basis, 2, True), str(tmp_path / "fresh_emb.tsv"))
        assert basis_path.read_bytes() == (tmp_path / "fresh_basis.tsv").read_bytes()
        assert emb_path.read_bytes() == (tmp_path / "fresh_emb.tsv").read_bytes()

    def test_m0_dumps_trivial_basis_and_empty_embedding(self, capsys, tmp_path):
        basis_path = tmp_path / "basis.tsv"
        emb_path = tmp_path / "emb.tsv"
        code, _, _ = run_cli(
            capsys, "analyze", "--regular", "40,3", "--anchors", "1", "--m", "0",
            "--basis-tsv", str(basis_path), "--embedding-tsv", str(emb_path))
        assert code == 0
        assert len(basis_path.read_text().splitlines()) == 1 + 40
        assert emb_path.read_text() == "vertex\teigenvalue_index\tvalue\n"

    def test_degenerate_spectrum_warns(self, capsys, tmp_path):
        # The 4-cycle repeats its middle eigenvalue; retaining both copies
        # at m=2 trips the basis-dependence warning.
        path = tmp_path / "c4.edges"
        path.write_text("a b\nb c\nc d\nd a\n")
        for command in ("analyze", "diagnose-buckets"):
            code, _, err = run_cli(
                capsys, command, "--graph", str(path), "--anchors", "1",
                "--m", "2", "--eta", "0.5")
            assert code == 0, command
            assert "near-degenerate" in err, command
        # The path's spectrum is simple, so the same row warns in neither.
        path.write_text("a b\nb c\nc d\n")
        for command in ("analyze", "diagnose-buckets"):
            code, _, err = run_cli(
                capsys, command, "--graph", str(path), "--anchors", "1",
                "--m", "2", "--eta", "0.5")
            assert code == 0, command
            assert "near-degenerate" not in err, command

    @pytest.mark.parametrize("quantizer", ["absolute", "relative"])
    def test_eta_too_small_for_int64_codes_exits_2(self, capsys, quantizer):
        code, out, err = run_cli(
            capsys, "analyze", "--regular", "64,3", "--seed", "1", "--anchors", "1",
            "--m", "2", "--eta", "1e-20", "--quantizer", quantizer)
        assert code == 2
        assert "eta 1e-20" in err
        assert out == ""

    def test_bad_scaled_flag_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "analyze", "--regular", "64,3", "--anchors", "1",
            "--scaled", "maybe")
        assert code == 2


@pytest.mark.parametrize("command", ["analyze", "diagnose-buckets"])
@pytest.mark.parametrize("m", ["0", "2"])
def test_isolated_vertex_file_exits_1(capsys, tmp_path, command, m):
    # Two triangles joined by an edge, and a token seen only on a self-loop:
    # vertex 6 is isolated, so the anchor search or the Laplacian fails.
    path = tmp_path / "isolated.edges"
    path.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n6 6\n")
    code, _, err = run_cli(
        capsys, command, "--graph", str(path), "--anchors", "2", "--m", m, "--eta", "0.5")
    assert code == 1
    assert "vertex 6" in err


class TestDiagnoseBuckets:
    def test_output_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose-buckets", "--regular", "64,3", "--seed", "5",
            "--anchors", "2", "--m", "1", "--eta", "0.5")
        assert code == 0
        got = out_lines(out)
        assert got["n"] == "64"
        assert "singleton_vertex_fraction" in got
        for cutoff in (2, 3, 10):
            assert f"cutoff_{cutoff}.buckets" in got
            assert f"cutoff_{cutoff}.weighted_collision" in got
            assert f"cutoff_{cutoff}.median_code_ratio" in got
            assert f"cutoff_{cutoff}.q90_balance" in got
        assert "largest buckets (profile size codes collision balance):" in out

    def test_matches_library_evaluation(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose-buckets", "--regular", "64,3", "--seed", "5",
            "--anchors", "2", "--m", "0", "--eta", "0.1", "--top", "0")
        assert code == 0
        got = out_lines(out)
        g = random_regular(64, 3, 5)
        anchors = select_anchors(g, 2, "random", anchor_seed_for(5, 2, "random", 0))
        report = evaluate_instance(g, anchors, quantize_absolute(empty_embedding(64, True), 0.1))
        assert int(got["buckets"]) == report.bounds.profile_bound
        assert float(got["singleton_vertex_fraction"]) == pytest.approx(
            report.diagnostics.singleton_vertex_fraction, abs=1e-6)

    def test_matches_analyze_resample_zero(self, capsys):
        # Both commands evaluate the same row: ConfigPoint's resample 0.
        flags = ("--anchors", "3", "--m", "2", "--eta", "0.5",
                 "--strategy", "farthest", "--quantizer", "relative")
        code, out, _ = run_cli(
            capsys, "diagnose-buckets", "--regular", "120,3", "--seed", "4", *flags)
        assert code == 0
        got = out_lines(out)
        (rec,) = analyze_records(
            random_regular(120, 3, 4), r=3, k=3, m=2, eta="0.5", quantizer="relative",
            anchor_strategy="farthest", seed=4)
        assert int(got["buckets"]) == rec.profile_count
        assert got["singleton_vertex_fraction"] == format(rec.singleton_bucket_frac, ".6g")
        for name in ("weighted_collision", "median_code_ratio", "q90_balance"):
            assert got[f"cutoff_2.{name}"] == format(getattr(rec, name), ".6g"), name

    def test_top_zero_suppresses_bucket_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose-buckets", "--regular", "64,3", "--seed", "5",
            "--anchors", "2", "--m", "0", "--eta", "0.1", "--top", "0")
        assert code == 0
        assert "largest buckets" not in out

    def test_zero_anchors_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "diagnose-buckets", "--regular", "64,3", "--anchors", "0")
        assert code == 2

    def test_negative_m_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "diagnose-buckets", "--regular", "64,3", "--anchors", "1",
            "--m", "-1")
        assert code == 2
        assert "m must be non-negative" in err


class TestSweep:
    def sweep_jobs_default(self) -> int | None:
        return build_parser().parse_args(["sweep", "--out", "x.csv"]).jobs

    def test_jobs_default_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert self.sweep_jobs_default() == 1

    def test_jobs_default_without_affinity_is_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert self.sweep_jobs_default() == os.cpu_count()

    def test_single_point_grid_single_row(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--k", "2", "--m", "0",
            "--eta", "0.5", "--trials", "1", "--jobs", "1",
            "--out", str(out))
        assert code == 0
        assert "wrote 1 rows" in err
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_repeat_invocation_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = (
            "sweep", "--n", "40", "--k", "1", "--k", "2", "--m", "0",
            "--m", "1", "--eta", "0.5", "--trials", "2", "--jobs", "2")
        for out in (a, b):
            code, _, _ = run_cli(capsys, *argv, "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "n = [30]\nk = [1, 2]\nm = [0]\neta = [0.5]\ntrials = 4\n")
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--trials", "1",
            "--jobs", "1", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    # flag, config line it overrides, flag value (a tuple repeats the flag),
    # CSV column, expected column values
    OVERRIDES = [
        ("--n", "n = [30]", "40", "n", {40}),
        ("--k", "k = [1]", "2", "k", {2}),
        ("--m", "m = [0]", "1", "m", {1}),
        ("--eta", "eta = [0.5]", "0.25", "eta", {"0.25"}),
        ("--trials", "trials = 1", "2", "trial", {0, 1}),
        ("--resamples", "resamples = 3", "2", "resample", {0, 1}),
        ("--r", "r = 4", "5", "r", {5}),
        ("--quantizer", "quantizer = absolute", "relative", "quantizer", {"relative"}),
        ("--scaled", "scaled = true", "false", "scaled", {False}),
        ("--feature", "feature = spectral", "distance", "feature", {"distance"}),
        ("--strategy", "strategy = degree", "farthest", "anchor_strategy", {"farthest"}),
        ("--seed", "seed = 3", "5", "seed", {graph_seed_for(5, 30, 3, 0)}),
        ("--feature", "feature = spectral", ("distance", "full"), "feature", {"distance", "full"}),
        ("--quantizer", "quantizer = [absolute, relative]", ("relative",), "quantizer",
         {"relative"}),
    ]

    @pytest.mark.parametrize(
        "flag, line, value, column, expected", OVERRIDES,
        ids=[o[0] if isinstance(o[2], str) else f"{o[0]}={','.join(o[2])}" for o in OVERRIDES])
    def test_flag_overrides_config_key(
        self, capsys, tmp_path, flag, line, value, column, expected
    ):
        cfg = tmp_path / "grid.cfg"
        grid = {"n": "n = [30]", "k": "k = [1]", "m": "m = [0]", "eta": "eta = [0.5]"}
        grid[line.split(" =")[0]] = line
        cfg.write_text("\n".join([*grid.values(), "trials = 1"]) + "\n")
        out = tmp_path / "sweep.csv"
        values = (value,) if isinstance(value, str) else value
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), *(a for v in values for a in (flag, v)),
            "--jobs", "1", "--out", str(out))
        assert code == 0
        assert {getattr(row, column) for row in read_csv_rows(str(out))} == expected

    def test_row_count_ignores_duplicate_grid_values(self, capsys, tmp_path):
        out = tmp_path / "dup.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "40", "--k", "1", "--k", "1", "--m", "0",
            "--eta", "0.5", "--trials", "2", "--jobs", "1", "--out", str(out))
        assert code == 0
        assert "sweep: 2 trial rows" in err
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_missing_grid_flags_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "30", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_missing_grid_error_names_flag_and_key(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "k_list missing: pass --k or set k in --config" in err

    def test_flags_complete_a_partial_config(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = [30]\nm = [0]\ntrials = 1\n")
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--k", "2", "--eta", "0.5",
            "--jobs", "1", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("token, column", [("yes", "true"), ("no", "false")])
    def test_scaled_config_and_flag_share_one_grammar(self, capsys, tmp_path, token, column):
        grid = "n = [30]\nk = [1]\nm = [1]\neta = [0.5]\ntrials = 1\n"
        with_key = tmp_path / "with_key.cfg"
        with_key.write_text(grid + f"scaled = {token}\n")
        without_key = tmp_path / "without_key.cfg"
        without_key.write_text(grid)
        a, b = tmp_path / "config.csv", tmp_path / "flag.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(with_key), "--jobs", "1", "--out", str(a))
        assert code == 0
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(without_key), "--scaled", token,
            "--jobs", "1", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert {row.scaled for row in read_csv_rows(str(a))} == {column == "true"}

    def test_bad_scaled_config_value_names_line(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = [30]\nk = [1]\nm = [0]\neta = [0.5]\nscaled = maybe\n")
        code, _, err = run_cli(
            capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "config line 5: scaled: cannot read 'maybe'" in err

    def test_bad_scaled_flag_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--k", "1", "--m", "0", "--eta", "0.5",
            "--scaled", "true", "--scaled", "maybe", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "expected true or false, got 'maybe'" in err

    def test_repeated_option_flags_make_one_grid(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--k", "1", "--m", "1", "--eta", "0.5",
            "--r", "3", "--r", "4", "--quantizer", "relative", "--quantizer", "absolute",
            "--scaled", "no", "--scaled", "yes", "--strategy", "degree", "--strategy", "random",
            "--trials", "1", "--jobs", "1", "--out", str(out))
        assert code == 0
        assert "sweep: 16 trial rows" in err
        assert "progress 2/2 graph batches" in err  # one batch per (n, r, trial)
        rows = read_csv_rows(str(out))
        assert [(row.r, row.quantizer, row.scaled, row.anchor_strategy) for row in rows] == [
            (r, q, s, a) for r in (3, 4) for q in ("absolute", "relative")
            for s in (False, True) for a in ("degree", "random")
        ]

    def test_threshold_flag_removed(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--n", "30", "--k", "1", "--m", "0", "--eta", "0.5",
                  "--threshold", "0.5", "--out", str(tmp_path / "x.csv")])

    def test_failure_reasons_counted_most_frequent_first(self, capsys, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise RuntimeError("synthetic solve failure")

        real = harness.select_anchors

        def no_third_anchor(g, k, strategy, seed):
            if k == 3:
                raise RuntimeError("synthetic anchor failure")
            return real(g, k, strategy, seed)

        monkeypatch.setattr(harness, "low_frequency_basis", no_solve)
        monkeypatch.setattr(harness, "select_anchors", no_third_anchor)
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--k", "1", "--k", "2", "--k", "3",
            "--m", "0", "--m", "1", "--eta", "0.5", "--trials", "2", "--jobs", "1",
            "--out", str(tmp_path / "x.csv"))
        assert code == 0
        # m = 1 rows fail in the solve, k = 3 rows at m = 0 in the anchor draw.
        assert err.splitlines()[-3:] == [
            "warning: 8 failed trials recorded",
            "  6 x synthetic solve failure",
            "  2 x synthetic anchor failure",
        ]

    def test_invalid_grid_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "10", "--k", "20", "--m", "0",
            "--eta", "0.5", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2_without_output(self, capsys, tmp_path, jobs):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--k", "1", "--m", "0",
            "--eta", "0.5", "--trials", "1", "--jobs", jobs, "--out", str(out))
        assert code == 2
        assert f"--jobs must be at least 1, got {jobs}" in err
        assert not out.exists()

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        out = tmp_path / "missing_dir" / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "30", "--k", "1", "--m", "0",
            "--eta", "0.5", "--trials", "1", "--jobs", "1", "--out", str(out))
        assert code == 1
        assert "error:" in err


@pytest.fixture(scope="module")
def eta_grid_csv(tmp_path_factory):
    # Distance-only sweep over the full published eta grid; with m=0 the
    # codes are empty so every eta column must agree.
    out = tmp_path_factory.mktemp("kemp") / "eta_grid.csv"
    code = main([
        "sweep", "--n", "500",
        "--k", "1", "--k", "2", "--k", "3", "--k", "4", "--k", "6", "--k", "8",
        "--m", "0",
        "--eta", "0.9", "--eta", "0.7", "--eta", "0.5", "--eta", "0.3", "--eta", "0.1",
        "--trials", "5", "--out", str(out)])
    assert code == 0
    return str(out)


class TestKemp:
    def test_distance_only_threshold_constant_across_eta(self, capsys, eta_grid_csv):
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "kemp", "--in", eta_grid_csv)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert [row[3] for row in rows] == ["6", "6", "6", "6", "6"]

    def test_threshold_one_picks_min_tested_k(self, capsys, eta_grid_csv):
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "kemp", "--in", eta_grid_csv, "--threshold", "1.0")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert all(row[3] == "1" for row in rows)

    def test_header_columns(self, capsys, eta_grid_csv):
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "kemp", "--in", eta_grid_csv)
        assert code == 0
        assert out.splitlines()[0].split() == [
            "n", "m", "eta", "k_emp", "rho_eng", "image_frac", "preimage",
            "codebook"]

    def test_empty_csv_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, _ = run_cli(capsys, "kemp", "--in", str(path))
        assert code == 1

    def test_header_only_csv_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        code, _, _ = run_cli(capsys, "kemp", "--in", str(path))
        assert code == 1

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "kemp", "--in", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_corrupt_cell_exits_1_naming_line_and_column(self, capsys, eta_grid_csv, tmp_path):
        lines = Path(eta_grid_csv).read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[CSV_COLUMNS.index("error")] = "0.0x3"
        lines[4] = ",".join(cells)
        path = tmp_path / "corrupt.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "kemp", "--in", str(path))
        assert code == 1
        assert "line 5: column error: cannot read '0.0x3'" in err

    @pytest.mark.parametrize("column, cell", [("eta", "abc"), ("quantizer", "absolut")])
    def test_bad_option_cell_exits_1_naming_line_and_column(
        self, capsys, eta_grid_csv, tmp_path, column, cell
    ):
        # Read as text, either cell would pass the parser: a bad eta used to
        # fail later, in the sort of the table, and a misspelled quantizer to
        # print a setting of its own.
        lines = Path(eta_grid_csv).read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[4] = ",".join(cells)
        path = tmp_path / "corrupt.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "kemp", "--in", str(path))
        assert code == 1
        assert f"line 5: column {column}: cannot read '{cell}'" in err
        assert out == ""

    def test_joined_csv_names_each_setting(self, capsys, tmp_path):
        paths = []
        for quantizer in ("absolute", "relative"):
            paths.append(tmp_path / f"{quantizer}.csv")
            assert main([
                "sweep", "--n", "40", "--k", "1", "--k", "6", "--m", "2", "--eta", "0.5",
                "--trials", "2", "--quantizer", quantizer, "--jobs", "1",
                "--out", str(paths[-1])]) == 0
        joined = tmp_path / "joined.csv"
        joined.write_text(
            paths[0].read_text() + paths[1].read_text().split("\n", 1)[1])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "kemp", "--in", str(joined))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[1] == "# r=3 quantizer=absolute scaled=true feature=full strategy=random"
        assert lines[3] == "# r=3 quantizer=relative scaled=true feature=full strategy=random"
        code, out, _ = run_cli(capsys, "kemp", "--in", str(paths[0]))
        assert code == 0
        assert len(out.splitlines()) == 2 and "#" not in out


class TestSpectralThresholdRows:
    def test_published_anchor_thresholds_at_finest_eta(self, capsys, tmp_path):
        # Reference thresholds for a 500-vertex cubic graph at eta=0.1:
        # 6 anchors suffice bare, one anchor suffices at m=5, and the
        # intermediate widths sit within one grid step of 3 and 2.
        out = tmp_path / "grid.csv"
        code = main([
            "sweep", "--n", "500",
            "--k", "1", "--k", "2", "--k", "3", "--k", "4", "--k", "6", "--k", "8",
            "--m", "0", "--m", "1", "--m", "2", "--m", "5",
            "--eta", "0.1", "--trials", "20", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        code, text, _ = run_cli(capsys, "kemp", "--in", str(out))
        assert code == 0
        by_m = {}
        for line in text.splitlines()[1:]:
            parts = line.split()
            by_m[int(parts[1])] = parts[3]
        assert by_m[0] == "6"
        assert by_m[5] == "1"
        assert int(by_m[1]) in (2, 3, 4)
        assert int(by_m[2]) in (1, 2, 3)
