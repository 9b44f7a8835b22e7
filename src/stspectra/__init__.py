"""Frequency-domain dependence analysis of multitype spatio-temporal
point patterns: transforms, spectral matrices, partial coherence,
dependence graphs, lag-domain back-transforms, and classical
benchmarking estimators."""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; the lists are
# read before the star imports rebind ``simulate`` to the function
from . import errors, ingest, simulate, spectra, partial, graph, inverse, classical

__all__ = [
    *errors.__all__, *ingest.__all__, *simulate.__all__, *spectra.__all__,
    *partial.__all__, *graph.__all__, *inverse.__all__, *classical.__all__,
]

from .errors import *
from .ingest import *
from .simulate import *
from .spectra import *
from .partial import *
from .graph import *
from .inverse import *
from .classical import *
