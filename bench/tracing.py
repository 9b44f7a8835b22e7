"""Outside-in spans around the package's public functions, and the
per-layer metrics derived from them.

Spans are recorded by replacing the names that the calling modules
imported (``stspectra.cli.dft``, ``stspectra.graph.partial_pipeline``, ...)
with timing wrappers, so calls nest: a calibration span contains its
replicates' ``partial_pipeline`` spans, which contain ``dft`` spans.  A name
that no longer exists is listed as missing and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# (module, names) patched in the traced run.  The span of a wrapped function
# is named "<defining module>.<function>", whichever module it was called from.
TARGETS = {
    "stspectra.cli": (
        "main", "load_events", "export_events", "dft", "marked_dft",
        "periodogram_matrix", "smooth_spectra", "partial_field",
        "build_dependence_graph", "calibrate_null_threshold", "per_slice_graphs",
        "partial_cross_spectrum_direct", "inverse_transform", "estimate_k",
        "mark_weighted_k",
    ),
    "stspectra.graph": (
        "partial_pipeline", "simulate_binomial_null", "dft", "marked_dft",
        "periodogram_matrix", "smooth_spectra", "partial_field", "edge_statistics",
        "build_dependence_graph",
    ),
    "stspectra.inverse": ("partial_cross_spectrum_direct", "inverse_transform"),
}

TRANSFORMS = ("spectra.dft", "spectra.marked_dft")


def _transform_attrs(a, result):
    return {"terms": int(a["pattern"].n) * int(a["grid"].size)}


def _partial_attrs(a, result):
    return {
        "ordinates": int(result.ridge.size),
        "ridged": int((result.ridge > 0).sum()),
        "singular": int(result.singular.sum()),
    }


# counts taken from a span's bound arguments and result, outside its timing
ATTRS = {
    "spectra.dft": _transform_attrs,
    "spectra.marked_dft": _transform_attrs,
    "partial.partial_field": _partial_attrs,
    "graph.calibrate_null_threshold": lambda a, r: {"replicates": int(r.replicates)},
    "graph.per_slice_graphs": lambda a, r: {"slices": len(r.graphs)},
    "ingest.load_events": lambda a, r: {"rows": int(r[0].n)},
    "ingest.export_events": lambda a, r: {"rows": int(a["pattern"].n)},
}


class Tracer:
    """Records one span per call of each wrapped function, in memory.

    Every wrapped name is called from the main thread (the transform's
    worker threads run unwrapped internals), so one stack suffices."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every TARGETS name that exists; list the others as missing."""
        for mod_name, names in TARGETS.items():
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.missing += [f"{mod_name}.{name}" for name in names]
                continue
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    setattr(module, name, self._wrap(fn))
                else:
                    self.missing.append(f"{mod_name}.{name}")

    def _wrap(self, fn):
        span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        attrs = ATTRS.get(span_name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": span_name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(attrs(bound.arguments, result))
                except Exception as exc:  # a changed signature must not fail the run
                    span["attr_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus its children's; children never overlap, as all
    spans come from one thread."""
    return _duration(span) - sum(_duration(c) for c in children)


def layer_metrics(spans: list[dict], threads: int, transform_1w_s: float | None) -> dict:
    """Per-layer values from the spans of one traced run.

    transform_1w_s is the extra single-worker transform of the same input,
    timed where the workload asks for a scaling figure, else None."""

    def pick(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(_duration(s) for s in pick(*names))

    def attr(key, *names):
        return sum(s.get(key, 0) for s in pick(*names))

    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    calibrate_s = total("graph.calibrate_null_threshold")
    replicates = attr("replicates", "graph.calibrate_null_threshold")
    transform_s = total(*TRANSFORMS)
    terms = attr("terms", *TRANSFORMS)
    ordinates = attr("ordinates", "partial.partial_field")
    ridged = attr("ridged", "partial.partial_field")
    singular = attr("singular", "partial.partial_field")
    load_s = total("ingest.load_events")
    export_s = total("ingest.export_events")
    rows = attr("rows", "ingest.load_events", "ingest.export_events")
    return {
        "graph.calibrate_s": calibrate_s,
        "graph.replicates": replicates,
        "graph.replicate_s": _ratio(calibrate_s, replicates),
        "simulate.null_s": total("simulate.simulate_binomial_null"),
        "spectra.transform_s": transform_s,
        "spectra.transform_calls": len(pick(*TRANSFORMS)),
        "spectra.transform_terms": terms,
        "spectra.transform_terms_per_s": _ratio(terms, transform_s),
        "spectra.transform_1w_s": transform_1w_s or 0.0,
        "spectra.transform_scaling": (
            _ratio(transform_1w_s, threads * transform_s) if transform_1w_s else 0.0
        ),
        "spectra.periodogram_s": total("spectra.periodogram_matrix"),
        "spectra.smooth_s": total("spectra.smooth_spectra"),
        "spectra.smooth_calls": len(pick("spectra.smooth_spectra")),
        "partial.invert_s": total("partial.partial_field"),
        "partial.ordinates": ordinates,
        "partial.ridged": ridged,
        "partial.singular": singular,
        "partial.clean_ratio": _ratio(ordinates - ridged - singular, ordinates),
        "partial.direct_s": total("partial.partial_cross_spectrum_direct"),
        "inverse.lag_s": total("inverse.inverse_transform"),
        "inverse.lag_calls": len(pick("inverse.inverse_transform")),
        "graph.per_slice_s": total("graph.per_slice_graphs"),
        "graph.slices": attr("slices", "graph.per_slice_graphs"),
        "graph.edge_stats_s": total("graph.edge_statistics"),
        "ingest.load_s": load_s,
        "ingest.export_s": export_s,
        "ingest.events": attr("rows", "ingest.load_events"),
        "ingest.rows_per_s": _ratio(rows, load_s + export_s),
        "classical.k_s": total("classical.estimate_k"),
        "classical.mark_k_s": total("classical.mark_weighted_k"),
        "cli.self_s": sum(self_time(s, children.get(s["id"], [])) for s in pick("cli.main")),
    }
