"""End-to-end gates: each test re-runs one headline experiment or guarantee
at its stated scale and checks the frozen targets at the stated tolerance,
printing one summary line."""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from obsmap.graphs import (
    AnchorSet,
    from_edge_list,
    largest_connected_component,
    random_regular,
)
from obsmap.harness import (
    SweepConfig,
    analyze_records,
    anchor_seed_for,
    evaluate_instance,
    graph_seed_for,
    k_emp,
    run_sweep,
    select_anchors,
    write_csv,
)
from obsmap.observation import (
    build_observation,
    fiber_stats,
    min_id_section,
    section_success,
)
from obsmap.spectral import (
    SpectralBasis,
    codebook_size,
    empty_embedding,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_absolute,
    quantize_relative,
)
from obsmap.theory import rho_eng

from conftest import (
    cycle_graph,
    observations,
    path_graph,
    random_connected_graph,
    row_tuples,
    star_graph,
    table_views,
)


def gate(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# Frozen reference tables for random cubic graphs: the empirical anchor
# threshold and its budget ratio, per (n, m) row over the eta grid below.
ETA_GRID = ("0.9", "0.7", "0.5", "0.3", "0.1")

GOLDEN_KEMP = {
    (500, 0): (6, 6, 6, 6, 6), (500, 1): (4, 4, 4, 4, 3),
    (500, 2): (4, 4, 3, 3, 2), (500, 5): (3, 2, 1, 1, 1),
    (1000, 0): (6, 6, 6, 6, 6), (1000, 1): (6, 6, 6, 4, 4),
    (1000, 2): (4, 4, 4, 3, 2), (1000, 5): (3, 2, 2, 1, 1),
    (2000, 0): (6, 6, 6, 6, 6), (2000, 1): (6, 6, 6, 6, 4),
    (2000, 2): (6, 4, 4, 4, 3), (2000, 5): (3, 3, 2, 1, 1),
    (4000, 0): (6, 6, 6, 6, 6), (4000, 1): (6, 6, 6, 6, 6),
    (4000, 2): (6, 6, 6, 4, 3), (4000, 5): (4, 3, 2, 1, 1),
}

GOLDEN_RHO = {
    (500, 0): (1.764, 1.764, 1.764, 1.764, 1.764),
    (500, 1): (1.304, 1.345, 1.399, 1.481, 1.364),
    (500, 2): (1.433, 1.514, 1.328, 1.492, 1.552),
    (500, 5): (1.524, 1.433, 1.409, 1.820, 2.704),
    (1000, 0): (1.679, 1.679, 1.679, 1.679, 1.679),
    (1000, 1): (1.794, 1.831, 1.879, 1.394, 1.553),
    (1000, 2): (1.350, 1.423, 1.520, 1.389, 1.427),
    (1000, 5): (1.417, 1.319, 1.563, 1.653, 2.448),
    (2000, 0): (1.601, 1.601, 1.601, 1.601, 1.601),
    (2000, 1): (1.706, 1.739, 1.783, 1.851, 1.462),
    (2000, 2): (1.811, 1.344, 1.432, 1.567, 1.589),
    (2000, 5): (1.326, 1.491, 1.446, 1.515, 2.237),
    (4000, 0): (1.530, 1.530, 1.530, 1.530, 1.530),
    (4000, 1): (1.627, 1.657, 1.698, 1.759, 1.892),
    (4000, 2): (1.723, 1.784, 1.865, 1.478, 1.488),
    (4000, 5): (1.502, 1.398, 1.346, 1.399, 2.061),
}


@pytest.fixture(scope="module")
def threshold_sweep():
    """20-trial threshold sweep on 500-vertex cubic graphs, full k x m grid
    at the finest quantization level."""
    cfg = SweepConfig(
        n_list=(500,), k_list=(1, 2, 3, 4, 6, 8), m_list=(0, 1, 2, 5),
        eta_list=("0.1",), trials=20, seed=0)
    return run_sweep(cfg, jobs=4)


@pytest.fixture(scope="module")
def instance_corpus():
    """200 randomized small instances (n <= 300) with mixed graph types,
    anchor counts, embedding widths, steps, and quantizer rules."""
    rng = np.random.default_rng(1860)
    corpus = []
    for i in range(200):
        if i % 3 == 0:
            r = int(rng.choice((3, 4)))
            n = int(rng.integers(20, 301))
            if (n * r) % 2:
                n += 1
            g = random_regular(n, r, int(rng.integers(1 << 30)))
        else:
            g = random_connected_graph(int(rng.integers(1 << 30)), 20, 160)
        k = int(rng.integers(1, 5))
        m = int(rng.integers(0, 6))
        eta = float(rng.choice((0.9, 0.5, 0.25, 0.1)))
        scaled = bool(i % 2)
        anchors = select_anchors(g, k, "random", int(rng.integers(1 << 30)))
        if m > 0:
            emb = energy_embedding(
                low_frequency_basis(normalized_laplacian(g), m), m, scaled)
        else:
            emb = empty_embedding(g.n, scaled)
        if i % 4 == 0:
            codes = quantize_relative(emb, eta)
        else:
            codes = quantize_absolute(emb, eta)
        table = build_observation(g, anchors, codes)
        report = evaluate_instance(g, anchors, codes)
        corpus.append((g, table, report))
    return corpus


class TestBudgetRatioTable:
    def test_reference_table_recomputed(self):
        # The three spot values double-check the table transcription at
        # the corners of the regime range.
        spots = (
            (500, 6, 0, 0.9, 1.764),
            (500, 1, 5, 0.1, 2.704),
            (4000, 1, 5, 0.1, 2.061),
        )
        for n, k, m, eta, want in spots:
            got = rho_eng(n, k, m, eta)
            assert abs(got - want) < 5e-4
        worst = 0.0
        for (n, m), ks in GOLDEN_KEMP.items():
            for eta_text, k, want in zip(ETA_GRID, ks, GOLDEN_RHO[(n, m)]):
                got = rho_eng(n, k, m, float(eta_text))
                worst = max(worst, abs(round(got, 3) - want))
        gate(
            "budget-ratio reference table", worst <= 5e-4,
            f"80 cells recomputed, worst rounded deviation {worst:.2g}")


class TestAnchorThresholds:
    def test_reduced_scale_thresholds(self, threshold_sweep):
        got = {
            m: k_emp(threshold_sweep, n=500, m=m, eta="0.1", threshold=0.1)
            for m in (0, 1, 2, 5)
        }
        ok = (
            got[0] == 6 and got[5] == 1
            and got[1] in (2, 3, 4) and got[2] in (1, 2, 3)
        )
        gate(
            "anchor thresholds at n=500", ok,
            f"k_emp per m: {got}; need 6/./../1 with one grid step of slack "
            "on the middle widths")


class TestOptimalErrorIdentity:
    def test_section_attains_image_fraction(self, instance_corpus):
        worst = 0.0
        for g, table, report in instance_corpus:
            attained = section_success(table, min_id_section(table))
            target = report.stats.image_size / g.n
            worst = max(worst, abs(attained - target))
            assert attained == target
            assert 1.0 - section_success(table) == report.stats.error
        gate(
            "optimal-error identity", worst == 0.0,
            f"min-id section matches image fraction exactly on "
            f"{len(instance_corpus)} instances")

    def test_exhaustive_small_instances(self):
        # Tiny graphs whose observation image has at most 4 points; every
        # reconstruction map is enumerable, and none may beat a section.
        instances = []
        for build, anchor in (
            (star_graph(5), 0), (star_graph(7), 1), (star_graph(9), 0),
            (cycle_graph(6), 0), (cycle_graph(7), 2), (cycle_graph(5), 0),
            (path_graph(7), 3), (path_graph(6), 2), (path_graph(5), 2),
        ):
            g = build
            anchors = AnchorSet((anchor,))
            codes = quantize_absolute(empty_embedding(g.n, True), 0.5)
            table = build_observation(g, anchors, codes)
            if len(table_views(table)[0]) <= 4 and g.n <= 10:
                instances.append((g, table))
        assert len(instances) >= 6
        for g, table in instances:
            observed = observations(table)
            image = list(table_views(table)[0])
            best = 0
            for assignment in itertools.product(range(g.n), repeat=len(image)):
                mapping = dict(zip(image, assignment))
                hits = sum(1 for v, obs in enumerate(observed) if mapping[obs] == v)
                best = max(best, hits)
            assert best == len(image)
            assert section_success(table) == best / g.n
        gate(
            "exhaustive reconstruction search", True,
            f"no map beats the section on {len(instances)} instances "
            "with image size <= 4")


class TestCountingBounds:
    def test_bounds_hold_everywhere(self, instance_corpus, threshold_sweep):
        checked = refined = 0
        for _, _, report in instance_corpus:
            checked += 1
            assert report.bounds.generic_satisfied
            if report.bounds.refined_satisfied is not None:
                refined += 1
                assert report.bounds.refined_satisfied
        sweep_ok = all(
            rec.bounds_ok for rec in threshold_sweep.records
            if rec.failure is None)
        gate(
            "counting bounds", sweep_ok,
            f"generic bound on {checked} instances + "
            f"{len(threshold_sweep.records)} sweep records, refined bound on "
            f"the {refined} applicable instances, zero violations")


class TestPerBucketInequality:
    def test_inequality_exact(self, instance_corpus):
        # Evaluated in exact rational arithmetic so the zero-tolerance
        # claim is not blurred by float rounding.
        buckets = 0
        for _, table, _ in instance_corpus:
            code_rows = row_tuples(table.code_matrix)
            for members in table_views(table)[1].values():
                b = len(members)
                if b < 2:
                    continue
                buckets += 1
                counts = Counter(code_rows[v] for v in members).values()
                distinct = len(counts)
                coll = Fraction(
                    sum(c * (c - 1) for c in counts), b * (b - 1))
                bal = Fraction(distinct, b) * max(counts)
                bound = bal * b / (1 + (b - 1) * coll)
                assert Fraction(distinct) <= bound
        gate(
            "per-bucket refinement inequality", buckets > 0,
            f"holds exactly on {buckets} non-singleton buckets")


class TestCodebookBound:
    def test_absolute_codes_bounded(self):
        rng = np.random.default_rng(77)
        graphs = []
        for i in range(50):
            if i % 2:
                graphs.append(
                    random_connected_graph(int(rng.integers(1 << 30)), 40, 200))
            else:
                n = int(rng.integers(25, 151)) * 2
                graphs.append(random_regular(n, 3, int(rng.integers(1 << 30))))
        checked = 0
        for i, g in enumerate(graphs):
            basis = low_frequency_basis(normalized_laplacian(g), 5)
            for m in (0, 1, 2, 5):
                emb = energy_embedding(basis, m, scaled=False)
                for eta in (0.9, 0.5, 0.25, 0.1):
                    size = codebook_size(quantize_absolute(emb, eta))
                    assert size <= (2.0 / eta) ** m
                    checked += 1
        gate(
            "codebook bound", checked == 50 * 4 * 4,
            f"{checked} (graph, m, eta) cells within (2/eta)^m")


class TestSignFlipInvariance:
    def test_flipped_bases_give_identical_results(self):
        rng = np.random.default_rng(404)
        for i in range(50):
            g = random_connected_graph(int(rng.integers(1 << 30)), 30, 120)
            m = int(rng.integers(1, 6))
            basis = low_frequency_basis(normalized_laplacian(g), m)
            signs = rng.choice((-1.0, 1.0), size=basis.vectors.shape[1])
            flipped = SpectralBasis(
                eigenvalues=basis.eigenvalues,
                vectors=basis.vectors * signs,
                degeneracy_flag=basis.degeneracy_flag)
            scaled = bool(i % 2)
            eta = float(rng.choice((0.9, 0.5, 0.1)))
            quantize = quantize_relative if i % 3 == 0 else quantize_absolute
            codes = quantize(energy_embedding(basis, m, scaled), eta)
            codes_f = quantize(energy_embedding(flipped, m, scaled), eta)
            assert codes.codes.tobytes() == codes_f.codes.tobytes()
            anchors = select_anchors(g, 2, "random", int(rng.integers(1 << 30)))
            assert evaluate_instance(g, anchors, codes).stats == \
                evaluate_instance(g, anchors, codes_f).stats
        gate(
            "sign-flip invariance", True,
            "codes and statistics byte-identical on 50 instances")


class TestBucketwiseRegimes:
    def test_three_regimes_ordered(self):
        regimes = {"high": (1, "2.0"), "mid": (2, "1.0"), "low": (5, "0.3")}
        wcoll, error = {}, {}
        for name, (m, eta) in regimes.items():
            cfg = SweepConfig(
                n_list=(2000,), k_list=(2,), m_list=(m,), eta_list=(eta,),
                trials=5, anchor_resamples=5, seed=0)
            agg = run_sweep(cfg, jobs=4).aggregates[
                (2000, 3, 2, m, eta, "absolute", True, "full", "random")]
            wcoll[name] = agg.means["weighted_collision"]
            error[name] = agg.means["error"]
        ok = (
            wcoll["high"] > wcoll["mid"] > wcoll["low"]
            and wcoll["low"] < 0.01
            and abs(error["high"] - 0.89) <= 0.1
            and abs(error["mid"] - 0.70) <= 0.1
            and abs(error["low"] - 0.02) <= 0.1
        )
        gate(
            "bucketwise collision regimes", ok,
            f"wcoll {wcoll['high']:.3f} > {wcoll['mid']:.3f} > "
            f"{wcoll['low']:.2g}; errors {error['high']:.3f}/"
            f"{error['mid']:.3f}/{error['low']:.3f} vs 0.89/0.70/0.02")


class TestFeatureAblation:
    def test_strict_error_ordering(self):
        cfg = SweepConfig(
            n_list=(500, 1000), k_list=(4,), m_list=(2,), eta_list=("0.5",),
            feature_list=("full", "distance", "spectral", "nope"), trials=5, seed=0)
        records = run_sweep(cfg, jobs=4).records
        errors = {}
        for feature in cfg.feature_list:
            rows = [r for r in records if r.feature == feature]
            errors[feature] = sum(r.error for r in rows) / len(rows)
        ok = (
            errors["full"] < errors["distance"]
            < errors["spectral"] < errors["nope"]
        )
        gate(
            "feature ablation ordering", ok,
            "mean error "
            + " < ".join(f"{errors[f]:.4f} ({f})"
                         for f in ("full", "distance", "spectral", "nope")))


class TestFixedStepCalibration:
    def test_monotone_trend_with_endpoints(self):
        # Fixed quantization steps on raw (unscaled) energies, realized
        # exactly through the ratio rule: ratio eta/max gives step eta.
        etas = (5e-3, 2e-3, 1e-3, 5e-4, 2e-4)
        cells = {eta: [] for eta in etas}
        for n in (500, 1000, 2000):
            for trial in range(20):
                gseed = graph_seed_for(0, n, 3, trial)
                g = random_regular(n, 3, gseed)
                emb = energy_embedding(
                    low_frequency_basis(normalized_laplacian(g), 5), 5,
                    scaled=False)
                peak = float(np.max(np.abs(emb.values)))
                anchors = select_anchors(
                    g, 4, "random", anchor_seed_for(gseed, 4, "random", 0))
                for eta in etas:
                    codes = quantize_relative(emb, eta / peak)
                    table = build_observation(g, anchors, codes)
                    cells[eta].append(fiber_stats(table).error)
        means = [float(np.mean(cells[eta])) for eta in etas]
        monotone = all(a > b for a, b in zip(means, means[1:]))
        first_ok = 0.5 * 0.1686 <= means[0] <= 1.5 * 0.1686
        last_ok = 0.5 * 1e-4 <= means[-1] <= 1.5 * 1e-4
        gate(
            "fixed-step calibration trend", monotone and first_ok and last_ok,
            f"errors {', '.join(f'{e:.6f}' for e in means)}; endpoints "
            f"within 50% of 0.1686 and 1e-4")


class TestSweepDeterminism:
    def test_identical_csv_bytes(self, tmp_path):
        cfg = SweepConfig(
            n_list=(100,), k_list=(1, 2), m_list=(0, 1),
            eta_list=("0.5", "0.1"), trials=2, seed=7)
        paths = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            write_csv(run_sweep(cfg, jobs=2), str(path))
            paths.append(path)
        same = paths[0].read_bytes() == paths[1].read_bytes()
        gate(
            "sweep determinism", same,
            f"two runs, {len(paths[0].read_bytes())} CSV bytes, identical")


def _data_file(name: str) -> Path:
    root = Path(os.environ.get("OBSMAP_DATA_DIR", "data"))
    return root / name


class TestSuppliedRealGraphs:
    # Runs only when the externally obtained edge lists are present; the
    # suite must stay green without them.

    @pytest.mark.parametrize(
        "filename,target",
        [("drugbank.edges", 0.9023), ("decagon.edges", 0.0158)])
    def test_error_at_reference_configuration(self, filename, target):
        path = _data_file(filename)
        if not path.exists():
            pytest.skip(f"{path} not supplied")
        with open(path, "r", encoding="utf-8") as fh:
            g = largest_connected_component(from_edge_list(fh).graph)
        records = analyze_records(
            g, r=None, k=8, m=10, eta="0.1", quantizer="relative",
            scaled=True, anchor_strategy="random", seed=0, resamples=30)
        mean_error = sum(rec.error for rec in records) / len(records)
        gate(
            f"real-graph error ({filename})",
            abs(mean_error - target) <= 0.02,
            f"mean error {mean_error:.4f} vs {target} +-0.02")
