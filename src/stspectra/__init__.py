"""Frequency-domain dependence analysis of multitype spatio-temporal
point patterns: transforms, spectral matrices, partial coherence,
dependence graphs, lag-domain back-transforms, and classical
benchmarking estimators."""

__version__ = "0.1.0"

from .errors import (
    DegenerateFieldError,
    DomainError,
    EmptyInputError,
    RowError,
    SchemaError,
    SingularMatrixError,
    StspectraError,
    SymmetryError,
    ValidationError,
)
from .ingest import (
    Component,
    MultiPattern,
    Window,
    export_events,
    load_events,
    rescale_to_unit_square,
)
from .simulate import (
    RNG_ALGORITHM,
    LinkSpec,
    SimResult,
    SimSpec,
    simulate,
    simulate_binomial_null,
    write_sidecar,
)
from .spectra import (
    AnalysisSpec,
    CrossDecomposition,
    DftVector,
    DotSpectrum,
    FrequencyGrid,
    PolarSpectrum,
    SpectralField,
    coherence,
    decompose_cross_spectrum,
    default_half_widths,
    dft,
    dot_multiple_gap,
    dot_spectrum,
    gain_dot_spectrum,
    gain_spectrum,
    marked_dft,
    multiple_coherence,
    periodogram_matrix,
    r_spectrum,
    smooth_spectra,
    theta_spectrum,
)
from .partial import (
    PairConditional,
    PartialField,
    partial_cross_spectrum_direct,
    partial_dot_spectrum,
    partial_field,
)
from .graph import (
    CalibrationResult,
    DependenceGraph,
    EdgeStatistics,
    SliceGraphs,
    build_dependence_graph,
    calibrate_null_threshold,
    edge_statistics,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    partial_pipeline,
    per_slice_graphs,
    spectral_fields,
)
from .inverse import (
    LagField,
    PartialLagSet,
    inverse_transform,
    partial_cross_lags,
    partial_lag_characteristics,
    scaled_covariance,
    symmetrise_scalar,
)
from .classical import (
    CurveEstimate,
    estimate_intensity,
    estimate_k,
    estimate_pair_correlation,
    estimate_spatial_intensity,
    estimate_temporal_intensity,
    mark_permutation_envelope,
    mark_weighted_k,
    poisson_k,
    scott_bandwidths,
    stoyan_bandwidth,
)

__all__ = [
    "DegenerateFieldError", "DomainError", "EmptyInputError", "RowError", "SchemaError",
    "SingularMatrixError", "StspectraError", "SymmetryError", "ValidationError",
    "Component", "MultiPattern", "Window", "export_events", "load_events",
    "rescale_to_unit_square",
    "RNG_ALGORITHM", "LinkSpec", "SimResult", "SimSpec", "simulate",
    "simulate_binomial_null", "write_sidecar",
    "AnalysisSpec", "CrossDecomposition", "DftVector", "DotSpectrum", "FrequencyGrid",
    "PolarSpectrum", "SpectralField", "coherence", "decompose_cross_spectrum",
    "default_half_widths", "dft", "dot_multiple_gap", "dot_spectrum",
    "gain_dot_spectrum", "gain_spectrum", "marked_dft", "multiple_coherence",
    "periodogram_matrix", "r_spectrum", "smooth_spectra", "theta_spectrum",
    "PairConditional", "PartialField", "partial_cross_spectrum_direct",
    "partial_dot_spectrum", "partial_field",
    "CalibrationResult", "DependenceGraph", "EdgeStatistics", "SliceGraphs",
    "build_dependence_graph", "calibrate_null_threshold", "edge_statistics",
    "graph_from_json", "graph_to_dot", "graph_to_json", "partial_pipeline",
    "per_slice_graphs", "spectral_fields",
    "LagField", "PartialLagSet", "inverse_transform", "partial_cross_lags",
    "partial_lag_characteristics", "scaled_covariance", "symmetrise_scalar",
    "CurveEstimate", "estimate_intensity", "estimate_k", "estimate_pair_correlation",
    "estimate_spatial_intensity", "estimate_temporal_intensity",
    "mark_permutation_envelope", "mark_weighted_k", "poisson_k", "scott_bandwidths",
    "stoyan_bandwidth",
]
