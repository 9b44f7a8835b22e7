"""The stage names that bench/tracing.py wraps must exist in the package,
and the attributes it reads off their results must be readable: a missing
name is silently reported as a zero metric by the benchmark, and so is an
attribute reader that fails."""

import importlib
import importlib.util
import json
from pathlib import Path

import stspectra.cli
from stspectra import SimSpec, export_events


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert missing == []


def installed_tracer(tracing, monkeypatch):
    """A Tracer wrapping every target, each restored after the test."""
    for mod, names in tracing.TARGETS.items():
        module = importlib.import_module(mod)
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def test_traced_pipeline_reads_every_span_attribute(tmp_path, monkeypatch):
    tracing = load_tracing()
    tracer = installed_tracer(tracing, monkeypatch)
    simulate = {"kind": "homogeneous_poisson", "rates": [40, 50, 60], "T": 2, "seed": 5}
    argv = ["pipeline", "--simulate", json.dumps(simulate), "--xi", "null:q95",
            "--replicates", "2", "--per-slice", "--p-max", "3", "--q-min", "-3",
            "--q-max", "3", "--out", str(tmp_path / "run")]
    assert stspectra.cli.main(argv) == 0
    assert tracer.missing == []
    assert [s for s in tracer.spans if "attr_error" in s] == []
    partial = [s for s in tracer.spans if s["name"] == "partial.partial_field"]
    assert len(partial) == 5  # the analysis, the two replicates and the two slices
    for span in partial:
        assert {"ordinates", "ridged", "singular"} <= span.keys()
        assert span["ordinates"] > 0
    # each replicate runs the public stages, under its own partial_pipeline span
    (calibrate,) = [s for s in tracer.spans if s["name"] == "graph.calibrate_null_threshold"]
    replicates = [
        s for s in tracer.spans
        if s["name"] == "graph.partial_pipeline" and s["parent"] == calibrate["id"]
    ]
    assert len(replicates) == 2
    for replicate in replicates:
        stages = [s["name"] for s in tracer.spans if s["parent"] == replicate["id"]]
        assert stages == ["spectra.dft", "spectra.periodogram_matrix",
                          "spectra.smooth_spectra", "partial.partial_field"]
    assert tracing.layer_metrics(tracer.spans, 1, None)["spectra.smooth_calls"] == 5


def test_traced_file_pipeline_has_one_load_span(tmp_path, monkeypatch):
    # ingest.load_s and ingest.rows_per_s time the whole of load_events
    tracing = load_tracing()
    spec = SimSpec(kind="homogeneous_poisson", rates=(40, 50, 60), T=2, seed=5)
    pattern = stspectra.simulate(spec).pattern
    events = tmp_path / "events.csv"
    export_events(pattern, events)
    tracer = installed_tracer(tracing, monkeypatch)
    argv = ["pipeline", str(events), "--time-is-index", "--xi", "0.7", "--p-max", "3",
            "--q-min", "-3", "--q-max", "3", "--out", str(tmp_path / "run")]
    assert stspectra.cli.main(argv) == 0
    loads = [s for s in tracer.spans if s["name"] == "ingest.load_events"]
    assert [s["rows"] for s in loads] == [pattern.n]
    metrics = tracing.layer_metrics(tracer.spans, 1, None)
    assert metrics["ingest.events"] == pattern.n
    assert metrics["ingest.load_s"] == loads[0]["end"] - loads[0]["start"] > 0
