"""Tests of the benchmark's span recorder.

    python3 -m pytest perfbench/test_tracing.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from obsmap import cli, graphs, harness, observation, spectral, theory  # noqa: E402

from tracing import LAYERS, Tracer, layer_totals  # noqa: E402

MODULES = (cli, graphs, harness, observation, spectral, theory)


@pytest.fixture
def instance():
    g = graphs.random_regular(60, 3, 7)
    basis = spectral.low_frequency_basis(spectral.normalized_laplacian(g), 2)
    codes = spectral.quantize_absolute(spectral.energy_embedding(basis, 2, True), 0.5)
    anchors = harness.select_anchors(g, 2, "random", 11)
    return g, anchors, codes


def _named(spans, name):
    return [i for i, s in enumerate(spans) if s[0] == name]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["d", 12.0, 13.0, -1],
    ]
    calls, self_ms, root_s = layer_totals(spans)
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert self_ms["a"] == pytest.approx(6000.0)
    assert self_ms["b"] == pytest.approx(3000.0)
    assert self_ms["c"] == pytest.approx(1000.0)
    assert root_s == pytest.approx(11.0)


def test_nested_spans_and_self_time(instance):
    g, anchors, codes = instance
    tracer = Tracer()
    with tracer.installed():
        harness.evaluate_instance(g, anchors, codes)
    spans = tracer.spans
    [build] = _named(spans, "observation.build_observation")
    [profile] = _named(spans, "graphs.anchor_profile")
    assert spans[profile][3] == build
    [bound] = _named(spans, "theory.bound_report")
    children = [s[0] for s in spans if s[3] == bound]
    assert sorted(children) == ["observation.bucket_diagnostics", "spectral.codebook_size"]
    calls, self_ms, _ = layer_totals(spans)
    for i in (build, bound):
        name, start, end, _ = spans[i]
        covered = sum(s[2] - s[1] for s in spans if s[3] == i)
        assert 0.0 <= self_ms[name] == pytest.approx((end - start - covered) * 1000.0)


def test_function_reached_through_two_import_sites_counts_once_per_call(instance):
    g, anchors, codes = instance
    tracer = Tracer()
    with tracer.installed():
        harness.evaluate_instance(g, anchors, codes)
    calls, _, _ = layer_totals(tracer.spans)
    # evaluate_instance calls each directly (harness.*) and again through
    # bound_report (theory.*).
    assert calls["observation.bucket_diagnostics"] == 2
    assert calls["spectral.codebook_size"] == 2
    parents = sorted(
        tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "observation.bucket_diagnostics"
    )
    assert parents == ["harness.evaluate_instance", "theory.bound_report"]
    tracer.clear()
    with tracer.installed():
        table = observation.build_observation(g, anchors, codes)
        theory.bound_report(table, codes)
        observation.bucket_diagnostics(table)
    calls, _, _ = layer_totals(tracer.spans)
    assert calls["observation.bucket_diagnostics"] == 2
    assert calls["spectral.codebook_size"] == 1


def test_every_layer_resolves_and_every_wrapper_is_restored(instance):
    before = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    traced_names = {fname for _, fname, _, _ in LAYERS}
    tracer = Tracer()
    with tracer.installed():
        wrapped = {
            k for m in MODULES for k, v in vars(m).items() if hasattr(v, "traced_layer")
        }
        assert wrapped == traced_names
        # Both import sites call a wrapper of the original, never a wrapper
        # of a wrapper.
        original = before[("obsmap.observation", "bucket_diagnostics")]
        for site in (harness, theory, observation):
            assert site.bucket_diagnostics.__wrapped__ is original
    after = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tracer.clear()
    harness.evaluate_instance(*instance)
    assert tracer.spans == []


def test_restore_after_exception(instance):
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            harness.select_anchors(instance[0], -1, "random", 0)
    assert not hasattr(harness.select_anchors, "traced_layer")
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def test_notes_count_distinct_graphs_and_csv_bytes(tmp_path):
    tracer = Tracer()
    cfg = harness.SweepConfig(n_list=(40,), k_list=(1, 2), m_list=(0, 1), eta_list=("0.5",), trials=2)
    path = tmp_path / "out.csv"
    with tracer.installed():
        harness.write_csv(harness.run_sweep(cfg, jobs=1), str(path))
        graphs.random_regular(40, 3, harness.graph_seed_for(0, 40, 3, 0))
    calls, _, _ = layer_totals(tracer.spans)
    assert calls["graphs.random_regular"] == 3
    assert len(set(tracer.call_args["graphs.random_regular"])) == 2
    assert tracer.file_bytes["harness.write_csv"] == path.stat().st_size
