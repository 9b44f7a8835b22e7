"""Dependence graphs from partial coherence fields.

The edge statistic for a pair (i, j) is the supremum of the rescaled
inverse cross-density magnitude |d_ij| over the non-zero frequencies of
the grid (at DC the uncentred transform is the event count, which says
nothing about dependence); an edge is drawn when the statistic reaches
the threshold xi.  The threshold can be calibrated on binomial null
replicates that keep the observed counts but scatter events uniformly,
taking an upper quantile of the null distribution of the maximal
statistic over all pairs, so the calibrated graph controls the
family-wise false-edge rate.

Slice-wise graphs re-run the analysis on each temporal step separately
and tabulate edge persistence across steps.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import EmptyInputError, ValidationError
from .ingest import MultiPattern
from .partial import PartialField, _require_full_rank_box, partial_field
from .simulate import simulate_binomial_null
from .spectra import (
    AnalysisSpec,
    SpectralField,
    _Buffers,
    _fresh,
    dft,
    marked_dft,
    periodogram_matrix,
    smooth_spectra,
)

__all__ = [
    "EdgeStatistics",
    "DependenceGraph",
    "SliceGraphs",
    "CalibrationResult",
    "spectral_fields",
    "partial_pipeline",
    "edge_statistics",
    "build_dependence_graph",
    "calibrate_null_threshold",
    "per_slice_graphs",
    "graph_to_dot",
    "graph_to_json",
    "graph_from_json",
]


@dataclass(frozen=True, eq=False)
class EdgeStatistics:
    """Pairwise supremum statistics over the frequency grid without DC.

    stats[i, j] holds sup |d_ij| with NaN for pairs that had no usable
    ordinate; argmax[i, j] is the (p, q, u) frequency attaining it;
    reliable[i, j] is False when singular ordinates were skipped, in
    which case the sup runs over the resolvable part of the grid only.
    Each unordered pair is reduced once, from the |d_ij| of
    ``PartialField.pairs``, and the lower triangle of each matrix mirrors
    the upper.
    """

    stats: np.ndarray
    argmax: np.ndarray
    reliable: np.ndarray
    labels: tuple[str, ...]

    @property
    def d(self) -> int:
        return self.stats.shape[0]

    def pair(self, i: int, j: int) -> float:
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise ValidationError(f"pair ({i},{j}) outside components 1..{self.d}")
        return float(self.stats[i - 1, j - 1])


@dataclass(frozen=True, eq=False)
class DependenceGraph(EdgeStatistics):
    """An undirected graph over the component labels: the edge statistics
    thresholded at xi.

    Edges are stored as 1-based index pairs (i, j) with i < j, sorted.
    """

    xi: float
    edges: tuple[tuple[int, int], ...]
    warnings: tuple[str, ...] = ()
    provenance: dict = dc_field(default_factory=dict)

    @property
    def isolated(self) -> tuple[str, ...]:
        touched = {v for e in self.edges for v in e}
        return tuple(
            lab for k, lab in enumerate(self.labels, start=1) if k not in touched
        )

    def has_edge(self, i: int, j: int) -> bool:
        a, b = min(i, j), max(i, j)
        return (a, b) in self.edges

    @property
    def edge_labels(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.labels[i - 1], self.labels[j - 1]) for i, j in self.edges
        )

    def equals(self, other: "DependenceGraph") -> bool:
        return (
            self.labels == other.labels
            and self.xi == other.xi
            and self.edges == other.edges
            and np.array_equal(self.stats, other.stats, equal_nan=True)
            and np.array_equal(self.argmax, other.argmax)
            and np.array_equal(self.reliable, other.reliable)
            and self.warnings == other.warnings
            and self.provenance == other.provenance
        )


@dataclass(frozen=True, eq=False)
class SliceGraphs:
    """Per-step graphs plus an edge persistence table.

    graphs[t] is the graph for step t+1, or None when that slice was
    empty; persistence maps each pair that is an edge in any slice, in
    pair order, to a tuple of presence flags (None marks slices that could
    not be analysed).
    """

    graphs: tuple[DependenceGraph | None, ...]
    labels: tuple[str, ...]
    xi: float
    warnings: tuple[str, ...]

    @property
    def persistence(self) -> dict[tuple[int, int], tuple[bool | None, ...]]:
        pairs = sorted({e for g in self.graphs if g is not None for e in g.edges})
        return {
            e: tuple(None if g is None else e in g.edges for g in self.graphs)
            for e in pairs
        }


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Null-calibrated threshold and the replicate statistics behind it."""

    xi: float
    quantile: float
    samples: np.ndarray
    replicates: int
    seed: int
    counts: tuple[int, ...]
    T: int


def spectral_fields(
    pattern: MultiPattern, spec: AnalysisSpec | None = None, *, work=_fresh
) -> tuple[SpectralField, SpectralField]:
    """Run transform -> periodogram -> smoothing; return (raw, smoothed).
    ``work`` allocates the arrays of both stages: fresh by default, while
    those of a reused ``spectra._Buffers`` are valid only until its next call."""
    if spec is None:
        spec = AnalysisSpec.default(pattern.T)
    transform = marked_dft if spec.marked else dft
    raw = periodogram_matrix(
        transform(pattern, spec.grid), normalisation=spec.normalisation, work=work
    )
    return raw, smooth_spectra(raw, spec.half_widths, work=work)


def partial_pipeline(
    pattern: MultiPattern, spec: AnalysisSpec | None = None, *, work=_fresh
) -> PartialField:
    """Run transform -> periodogram -> smoothing -> partial analysis.  A
    negative, fractional or too-small smoothing box is refused before any
    work.  ``work`` allocates the arrays of every stage: fresh by default,
    while those of a reused ``spectra._Buffers`` are valid only until its
    next call."""
    if spec is None:
        spec = AnalysisSpec.default(pattern.T)
    _require_full_rank_box(spec.half_widths, pattern.d)
    return partial_field(spectral_fields(pattern, spec, work=work)[1], work=work)


def _pair_sups(pf: PartialField) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(value, first argmax as a flat ordinate index, found) of sup |d_ij| over
    ``sup_mask()`` for each pair i < j, read from ``pf.pairs`` in
    ``np.triu_indices`` order (value and argmax hold only where found, i.e.
    some ordinate was finite), and whether any sup ordinate is singular."""
    mask = pf.grid.sup_mask().ravel()
    sel = pf.pairs[1].reshape(mask.size, -1)  # (ordinates, pairs)
    sel = np.where(mask[:, None] & np.isfinite(sel), sel, -np.inf)
    k = sel.argmax(axis=0)  # first maximum
    value = sel[k, np.arange(k.size)]
    return value, k, value > -np.inf, bool(pf.singular.ravel()[mask].any())


def edge_statistics(pf: PartialField) -> EdgeStatistics:
    """Supremum of |d_ij| per pair over every ordinate of the grid but DC."""
    value, flat, found, singular = _pair_sups(pf)
    d = pf.d
    i, j = np.triu_indices(d, k=1)
    stats = np.full((d, d), np.nan)
    stats[i, j] = stats[j, i] = np.where(found, value, np.nan)
    argmax = np.zeros((d, d, 3), dtype=np.int64)
    argmax[i, j] = argmax[j, i] = np.where(found[:, None], pf.grid.points()[flat], 0)
    # a pair is unreliable when it has no finite ordinate or when singular
    # ordinates were skipped anywhere in the sup
    reliable = np.eye(d, dtype=bool)
    reliable[i, j] = reliable[j, i] = found & ~singular
    return EdgeStatistics(
        stats=stats, argmax=argmax, reliable=reliable, labels=pf.labels
    )


def _check_xi(xi: float) -> float:
    """The threshold as a float, refused unless finite and non-negative."""
    if not np.isfinite(xi) or xi < 0:
        raise ValidationError("threshold xi must be a finite non-negative number")
    return float(xi)


def build_dependence_graph(
    pf: PartialField,
    xi: float,
    provenance: dict | None = None,
) -> DependenceGraph:
    """Threshold the edge statistics at xi to obtain the graph.

    Pairs whose statistic could not be computed anywhere produce no edge
    and a warning; unreliable pairs keep their edge decision but are
    flagged."""
    xi = _check_xi(xi)
    es = edge_statistics(pf)
    edges = []
    warnings = []
    # the pairs i < j in the order edge_statistics reduces them
    for a, b in itertools.combinations(range(es.d), 2):
        s = es.stats[a, b]
        if np.isnan(s):
            warnings.append(
                f"pair ({a + 1},{b + 1}) had no resolvable ordinate; "
                "no edge decision possible"
            )
            continue
        if not es.reliable[a, b]:
            warnings.append(
                f"pair ({a + 1},{b + 1}) statistic excludes singular "
                "ordinates; treat with care"
            )
        if s >= xi:
            edges.append((a + 1, b + 1))
    return DependenceGraph(
        **vars(es),
        xi=xi,
        edges=tuple(edges),
        warnings=tuple(warnings),
        provenance=dict(provenance or {}),
    )


def _permuted_marks(null: MultiPattern, pattern: MultiPattern, seed: int) -> MultiPattern:
    """The null with each component's observed marks, permuted independently
    of location, in the null's component-by-component event order.  The
    permutations come from a jumped Philox stream of ``seed``, so the null's
    locations stay those of ``simulate_binomial_null(counts, T, seed)``."""
    rng = np.random.Generator(np.random.Philox(seed).jumped())
    marks = [
        rng.permutation(pattern.marks[pattern.type_id == i])
        for i in range(1, pattern.d + 1)
    ]
    return replace(null, marks=np.concatenate(marks))


def calibrate_null_threshold(
    pattern: MultiPattern,
    spec: AnalysisSpec | None = None,
    quantile: float = 0.95,
    replicates: int = 200,
    seed: int = 0,
) -> CalibrationResult:
    """Calibrate xi on count-matched uniform (binomial) null replicates.

    Each replicate scatters the observed per-component counts uniformly
    over the window and steps, runs the partial pipeline of ``spec``, and
    records max_{i<j} sup_w |d_ij|: the largest of the pair statistics that
    ``edge_statistics`` reads (each unordered pair reduced once, over the
    ordinates of ``sup_mask()``), or 0.0 when no pair has a finite one.
    Under ``spec.marked`` each replicate also carries its component's
    observed marks, permuted independently of location (the
    mark-independence null of ``mark_permutation_envelope``).
    xi is the requested upper quantile of those maxima (deterministic
    'higher' order statistic), so graphs built at xi have family-wise
    false-edge probability about 1 - quantile under complete independence.
    Replicate r uses seed seed + r; keep that range disjoint from analysis
    seeds.

    Each replicate runs :func:`partial_pipeline`, the chain of the
    analysis, on upper triangles (see
    :class:`~stspectra.spectra.SpectralField`) with one
    :class:`~stspectra.spectra._Buffers` allocator per call, released on
    return: no replicate allocates a field-sized array after the first, and
    none builds full coherency or |d_ij| arrays.
    """
    if spec is None:
        spec = AnalysisSpec.default(pattern.T)
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if not 0.0 < quantile < 1.0:
        raise ValidationError("quantile must lie strictly between 0 and 1")
    if spec.marked and not pattern.has_marks:
        raise ValidationError("marked transform requested but pattern has no marks")
    _require_full_rank_box(spec.half_widths, pattern.d)
    spec.grid.sup_mask()  # a grid of DC alone is refused before any replicate
    counts = tuple(int(c) for c in pattern.counts)
    samples = np.empty(replicates)
    work = _Buffers()
    for r in range(replicates):
        null = simulate_binomial_null(counts, pattern.T, seed=seed + r)
        if spec.marked:
            null = _permuted_marks(null, pattern, seed + r)
        value, _, found, _ = _pair_sups(partial_pipeline(null, spec, work=work))
        samples[r] = value[found].max() if found.any() else 0.0
    xi = float(np.quantile(samples, quantile, method="higher"))
    return CalibrationResult(
        xi=xi,
        quantile=quantile,
        samples=samples,
        replicates=replicates,
        seed=seed,
        counts=counts,
        T=pattern.T,
    )


def _require_slice_box(spec: AnalysisSpec, d: int) -> None:
    """Refuse slice graphs whose box, ``spec.for_slice()``'s spatial
    half-widths alone, cannot give full-rank smoothed matrices."""
    hp, hq, _ = spec.half_widths
    try:
        _require_full_rank_box(spec.for_slice().half_widths, d)
    except ValidationError as exc:
        raise ValidationError(
            f"slice graphs (T=1 slices, spatial half-widths {hp},{hq}): {exc}"
        ) from None


def per_slice_graphs(
    pattern: MultiPattern,
    xi: float,
    spec: AnalysisSpec | None = None,
) -> SliceGraphs:
    """Analyse each temporal step as a T=1 pattern under ``spec.for_slice()``
    and tabulate edges.

    A bad xi, and a slice box of fewer than d ordinates, are refused before
    any slice is analysed.  Empty slices produce a None graph and a warning;
    components absent from a slice contribute zero transforms there, which
    the singularity guards downstream absorb."""
    xi = _check_xi(xi)
    if spec is None:
        spec = AnalysisSpec.default(pattern.T)
    _require_slice_box(spec, pattern.d)
    slice_spec = spec.for_slice()
    warnings: list[str] = []
    graphs: list[DependenceGraph | None] = []
    for step in range(1, pattern.T + 1):
        try:
            sl = pattern.slice_time(step)
        except (EmptyInputError, ValidationError) as exc:
            warnings.append(f"step {step}: {exc}")
            graphs.append(None)
            continue
        pf = partial_pipeline(sl, slice_spec)
        graphs.append(build_dependence_graph(pf, xi))
    return SliceGraphs(
        graphs=tuple(graphs),
        labels=pattern.labels,
        xi=xi,
        warnings=tuple(warnings),
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def graph_to_dot(graph: DependenceGraph) -> str:
    """Render the graph in DOT syntax, deterministically ordered."""
    lines = ["graph dependence {"]
    lines.append(f'  graph [xi="{_fmt(graph.xi)}"];')
    for lab in graph.labels:
        lines.append(f'  "{_escape(lab)}";')
    for i, j in graph.edges:
        a = graph.stats[i - 1, j - 1]
        p, q, u = (int(v) for v in graph.argmax[i - 1, j - 1])
        rel = "true" if bool(graph.reliable[i - 1, j - 1]) else "false"
        lines.append(
            f'  "{_escape(graph.labels[i - 1])}" -- '
            f'"{_escape(graph.labels[j - 1])}" '
            f'[stat="{_fmt(a)}", at="({p},{q},{u})", reliable="{rel}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_json(graph: DependenceGraph) -> str:
    """Serialise the graph to a stable JSON document (round-trips)."""
    payload = {
        "format": "stspectra-graph",
        "version": 1,
        "labels": list(graph.labels),
        "xi": graph.xi,
        "edges": [
            {
                "i": i,
                "j": j,
                "labels": [graph.labels[i - 1], graph.labels[j - 1]],
                "stat": float(graph.stats[i - 1, j - 1]),
                "argmax": graph.argmax[i - 1, j - 1].tolist(),
                "reliable": bool(graph.reliable[i - 1, j - 1]),
            }
            for i, j in graph.edges
        ],
        "isolated": list(graph.isolated),
        "stats": [
            [v if np.isfinite(v) else None for v in row] for row in graph.stats.tolist()
        ],
        "argmax": graph.argmax.tolist(),
        "reliable": graph.reliable.tolist(),
        "warnings": list(graph.warnings),
        "provenance": graph.provenance,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def graph_from_json(text: str) -> DependenceGraph:
    """Rebuild a graph from its JSON serialisation.  Keys it does not read,
    such as the DC switch that older documents carry, are ignored."""
    doc = json.loads(text)
    if doc.get("format") != "stspectra-graph":
        raise ValidationError("not a dependence-graph document")
    labels = tuple(doc["labels"])
    d = len(labels)
    stats = np.array(doc["stats"], dtype=float).reshape(d, d)  # None reads NaN
    argmax = np.array(doc["argmax"], dtype=np.int64).reshape(d, d, 3)
    reliable = np.array(doc["reliable"], dtype=bool).reshape(d, d)
    edges = tuple(sorted((int(e["i"]), int(e["j"])) for e in doc["edges"]))
    return DependenceGraph(
        labels=labels,
        xi=float(doc["xi"]),
        edges=edges,
        stats=stats,
        argmax=argmax,
        reliable=reliable,
        warnings=tuple(doc.get("warnings", ())),
        provenance=dict(doc.get("provenance", {})),
    )
