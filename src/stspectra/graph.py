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

import json
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import EmptyInputError, ValidationError
from .ingest import MultiPattern
from .partial import PartialField, partial_field
from .simulate import simulate_binomial_null
from .spectra import (
    AnalysisSpec,
    SpectralField,
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
    """

    stats: np.ndarray
    argmax: np.ndarray
    reliable: np.ndarray
    labels: tuple[str, ...]

    @property
    def d(self) -> int:
        return self.stats.shape[0]

    def pair(self, i: int, j: int) -> float:
        return float(self.stats[i - 1, j - 1])


@dataclass(frozen=True, eq=False)
class DependenceGraph:
    """An undirected graph over the component labels.

    Edges are stored as 1-based index pairs (i, j) with i < j, sorted.
    """

    labels: tuple[str, ...]
    xi: float
    edges: tuple[tuple[int, int], ...]
    stats: np.ndarray
    argmax: np.ndarray
    reliable: np.ndarray
    warnings: tuple[str, ...] = ()
    provenance: dict = dc_field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.labels)

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
    empty; persistence maps each pair seen in any slice to a tuple of
    presence flags (None marks slices that could not be analysed).
    """

    graphs: tuple[DependenceGraph | None, ...]
    persistence: dict[tuple[int, int], tuple[bool | None, ...]]
    labels: tuple[str, ...]
    xi: float
    warnings: tuple[str, ...]


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
    pattern: MultiPattern, spec: AnalysisSpec | None = None
) -> tuple[SpectralField, SpectralField]:
    """Run transform -> periodogram -> smoothing; return (raw, smoothed)."""
    if spec is None:
        spec = AnalysisSpec.default(pattern.T)
    transform = marked_dft if spec.marked else dft
    raw = periodogram_matrix(
        transform(pattern, spec.grid), normalisation=spec.normalisation
    )
    return raw, smooth_spectra(raw, spec.half_widths)


def partial_pipeline(
    pattern: MultiPattern, spec: AnalysisSpec | None = None
) -> PartialField:
    """Run transform -> periodogram -> smoothing -> partial analysis."""
    # raw stays referenced through the inversion, and calibration keeps the
    # previous replicate's field until the next is built: freed earlier, the
    # heap top is trimmed and re-faulted every replicate.  On the README
    # pipeline (200 replicates) freeing raw early takes the minor faults
    # from 31k to 44k; freeing the previous field too takes them to 476k,
    # and the run about 1.6x slower
    raw, smoothed = spectral_fields(pattern, spec)
    return partial_field(smoothed)


def edge_statistics(pf: PartialField) -> EdgeStatistics:
    """Supremum of |d_ij| per pair over every ordinate of the grid but DC."""
    mask = pf.grid.sup_mask()
    if not mask.any():
        raise ValidationError("no frequency ordinates left after DC exclusion")
    d = len(pf.labels)
    p = pf.grid.p_values
    q = pf.grid.q_values
    u = pf.grid.u_values
    flat_idx = np.nonzero(mask.ravel())[0]
    sel = pf.abs_d.reshape(-1, d, d)[flat_idx]

    stats = np.full((d, d), np.nan)
    argmax = np.zeros((d, d, 3), dtype=np.int64)
    reliable = np.ones((d, d), dtype=bool)
    any_singular = bool(pf.singular[mask].any()) if pf.singular is not None else False
    shape = pf.grid.shape
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            col = sel[:, a, b]
            finite = np.isfinite(col)
            if not finite.any():
                reliable[a, b] = False
                continue
            k = int(np.nanargmax(np.where(finite, col, -np.inf)))
            stats[a, b] = col[k]
            ip, iq, iu = np.unravel_index(flat_idx[k], shape)
            argmax[a, b] = (p[ip], q[iq], u[iu])
            if any_singular:
                reliable[a, b] = False
    return EdgeStatistics(
        stats=stats,
        argmax=argmax,
        reliable=reliable,
        labels=pf.labels,
    )


def build_dependence_graph(
    pf: PartialField,
    xi: float,
    provenance: dict | None = None,
) -> DependenceGraph:
    """Threshold the edge statistics at xi to obtain the graph.

    Pairs whose statistic could not be computed anywhere produce no edge
    and a warning; unreliable pairs keep their edge decision but are
    flagged."""
    if not np.isfinite(xi) or xi < 0:
        raise ValidationError("threshold xi must be a finite non-negative number")
    es = edge_statistics(pf)
    d = es.d
    edges = []
    warnings = []
    for a in range(d):
        for b in range(a + 1, d):
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
        labels=es.labels,
        xi=float(xi),
        edges=tuple(sorted(edges)),
        stats=es.stats,
        argmax=es.argmax,
        reliable=es.reliable,
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
    records max_{i<j} sup_w |d_ij|.  Under ``spec.marked`` each replicate
    also carries its component's observed marks, permuted independently of
    location (the mark-independence null of ``mark_permutation_envelope``).
    xi is the requested upper quantile of those maxima (deterministic
    'higher' order statistic), so graphs built at xi have family-wise
    false-edge probability about 1 - quantile under complete independence.
    Replicate r uses seed seed + r; keep that range disjoint from analysis
    seeds.
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
    counts = tuple(int(c) for c in pattern.counts)
    samples = np.empty(replicates)
    for r in range(replicates):
        null = simulate_binomial_null(counts, pattern.T, seed=seed + r)
        if spec.marked:
            null = _permuted_marks(null, pattern, seed + r)
        pf = partial_pipeline(null, spec)  # kept: see partial_pipeline
        es = edge_statistics(pf)
        iu = np.triu_indices(es.d, k=1)
        vals = es.stats[iu]
        vals = vals[np.isfinite(vals)]
        samples[r] = vals.max() if vals.size else 0.0
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


def per_slice_graphs(
    pattern: MultiPattern,
    xi: float,
    spec: AnalysisSpec | None = None,
) -> SliceGraphs:
    """Analyse each temporal step as a T=1 pattern under ``spec.for_slice()``
    and tabulate edges.

    Empty slices produce a None graph and a warning; components absent
    from a slice contribute zero transforms there, which the singularity
    guards downstream absorb."""
    if spec is None:
        spec = AnalysisSpec.default(pattern.T)
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
    d = pattern.d
    persistence: dict[tuple[int, int], tuple[bool | None, ...]] = {}
    for a in range(1, d + 1):
        for b in range(a + 1, d + 1):
            row: list[bool | None] = []
            for g in graphs:
                row.append(None if g is None else g.has_edge(a, b))
            if any(v for v in row if v):
                persistence[(a, b)] = tuple(row)
    return SliceGraphs(
        graphs=tuple(graphs),
        persistence=persistence,
        labels=pattern.labels,
        xi=float(xi),
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


def _stat_cell(v: float) -> float | None:
    return None if not np.isfinite(v) else float(v)


def graph_to_json(graph: DependenceGraph) -> str:
    """Serialise the graph to a stable JSON document (round-trips)."""
    d = graph.d
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
                "argmax": [int(v) for v in graph.argmax[i - 1, j - 1]],
                "reliable": bool(graph.reliable[i - 1, j - 1]),
            }
            for i, j in graph.edges
        ],
        "isolated": list(graph.isolated),
        "stats": [
            [_stat_cell(graph.stats[a, b]) for b in range(d)] for a in range(d)
        ],
        "argmax": [
            [[int(v) for v in graph.argmax[a, b]] for b in range(d)]
            for a in range(d)
        ],
        "reliable": [
            [bool(graph.reliable[a, b]) for b in range(d)] for a in range(d)
        ],
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
    stats = np.array(
        [[np.nan if v is None else float(v) for v in row] for row in doc["stats"]]
    ).reshape(d, d)
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
