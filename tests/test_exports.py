"""The public surface: every exported name resolves, and names that were
removed from the package stay removed."""

import importlib
import pkgutil
import types

import pytest

import stspectra

MODULES = sorted(
    f"stspectra.{m.name}" for m in pkgutil.iter_modules(stspectra.__path__)
)

# one route per statistic: the dot family reads the smoothed field, and
# |d_ij| and the partial coherency come only from PartialField; one
# kernel-intensity class serves the separable and the full model
REMOVED = (
    "partial_coherency",
    "rescaled_inverse_density",
    "Event",
    "SeparableIntensity",
    "NonSeparableIntensity",
)


@pytest.mark.parametrize("name", ["stspectra"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    modules = [n for n in exported if isinstance(getattr(module, n), types.ModuleType)]
    assert modules == []


def test_removed_names_stay_removed():
    for name in ["stspectra"] + MODULES:
        module = importlib.import_module(name)
        assert [n for n in REMOVED if n in getattr(module, "__all__", [])] == []
        assert [n for n in REMOVED if hasattr(module, n)] == []
    assert not hasattr(stspectra.InverseField, "entry")
