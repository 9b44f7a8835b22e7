"""The stage names that bench/tracing.py wraps must exist in the package:
a missing name is silently reported as a zero metric by the benchmark."""

import importlib
import importlib.util
from pathlib import Path


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
