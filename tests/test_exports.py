"""The public surface: every exported name resolves, each module's
``__all__`` lists exactly its public definitions and the package exports
those lists joined, and names that were removed from the package stay
removed."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import pytest

import stspectra

MODULES = sorted(
    f"stspectra.{m.name}" for m in pkgutil.iter_modules(stspectra.__path__)
)

# the modules whose __all__ the package joins, in import order
PACKAGE_MODULES = (
    "errors", "ingest", "simulate", "spectra", "partial", "graph", "inverse", "classical"
)

# types that exported functions return, and the binning helpers behind
# load_events: public in their modules, so the package exports them too
RETURNED_TYPES_AND_HELPERS = (
    "KernelIntensity",
    "IntensitySurface",
    "TemporalIntensity",
    "LoadReport",
    "bin_times",
    "parse_duration",
)

# one route per statistic: the dot family reads the smoothed field, and
# |d_ij| and the partial coherency come only from PartialField; one
# kernel-intensity class serves the separable and the full model; one
# inversion entry point (partial_field), whose result carries the inverse
# and which every conditioning set reaches; the cross-check routes live in
# tests/oracles.py
REMOVED = (
    "partial_coherency",
    "rescaled_inverse_density",
    "Event",
    "SeparableIntensity",
    "NonSeparableIntensity",
    "InverseField",
    "invert_spectral_matrix",
    "partial_coherence_three",
    "forward_from_lags",
    "dot_multiple_gap",
)

# recorded fields nothing reads
REMOVED_FIELDS = {
    "LagField": ("p_full", "q_full", "u_full", "T"),
    "DftVector": ("marked", "mark_means"),
    "SpectralField": ("marked",),
    "Window": ("bin_origin", "bin_width"),
}


@pytest.mark.parametrize("name", ["stspectra"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    modules = [n for n in exported if isinstance(getattr(module, n), types.ModuleType)]
    assert modules == []


def test_package_exports_the_module_lists_joined():
    joined = [
        name
        for module in PACKAGE_MODULES
        for name in importlib.import_module(f"stspectra.{module}").__all__
    ]
    assert stspectra.__all__ == joined
    for name in RETURNED_TYPES_AND_HELPERS:
        assert name in stspectra.__all__


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_module_all_lists_exactly_its_public_definitions(name):
    # constants such as RNG_ALGORITHM may be listed too; a public function
    # or class defined in the module must be, and nothing it imports may be
    module = importlib.import_module(f"stspectra.{name}")

    def routine(obj):
        return inspect.isfunction(obj) or inspect.isclass(obj)

    defined = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_") and routine(obj) and obj.__module__ == module.__name__
    }
    listed = {n for n in module.__all__ if routine(getattr(module, n))}
    assert listed == defined


def test_removed_names_stay_removed():
    for name in ["stspectra"] + MODULES:
        module = importlib.import_module(name)
        assert [n for n in REMOVED if n in getattr(module, "__all__", [])] == []
        assert [n for n in REMOVED if hasattr(module, n)] == []


def test_removed_fields_and_defaults_stay_removed():
    for cls, names in REMOVED_FIELDS.items():
        fields = {f.name for f in dataclasses.fields(getattr(stspectra, cls))}
        assert fields.isdisjoint(names)
    assert "inverse" in {f.name for f in dataclasses.fields(stspectra.PartialField)}
    # conditioning on all the other components has one route, partial_field
    params = inspect.signature(stspectra.partial_cross_spectrum_direct).parameters
    assert params["conditioning"].default is inspect.Parameter.empty


def test_explicit_subsets_have_no_second_inversion_route():
    # the Schur projection is a test oracle, and multiple coherence, which
    # reads partial_field, is defined beside it
    assert not hasattr(stspectra.spectra, "_schur_projection")
    assert "multiple_coherence" in stspectra.partial.__all__
    assert "multiple_coherence" not in stspectra.spectra.__all__
    assert stspectra.multiple_coherence is stspectra.partial.multiple_coherence
