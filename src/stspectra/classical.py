"""Classical first- and second-order summaries on the unit square.

First order: Gaussian kernel intensity estimators with per-event
edge normalisers evaluated on the same cell grid as the surface, so the
estimated mass equals the event count by construction.  The spatial
surface, the temporal curve and the space-time ``KernelIntensity`` take
their normalisers from one helper.  ``KernelIntensity`` serves both the
separable product and the full non-separable model through one ``at``,
which visits queries and events in blocks, so its memory stays bounded
by one block of each.

Second order: inhomogeneous pair correlation and cross-type cumulative
second-moment (K) estimators with an Epanechnikov ring kernel in space.
Time is an integer-step axis here, so the continuous temporal weights
are replaced by discretely calibrated ones:

* K uses bin-overlap weights w_t(L) = |[L-1/2, L+1/2] ∩ [-t, t]|, whose
  total over integer lags is exactly 2t;
* the pair correlation uses a lag kernel renormalised over the integer
  lags, so its weights always total 2 regardless of where the target
  lag t falls relative to the step boundaries.

Both use left-member border correction: the first member of each pair
is restricted to the spatially and temporally eroded window and the sum
is normalised by the eroded measure, which makes the Poisson
expectation of K exactly 2*pi*r^2*t.

K, the pair correlation and the centred mark-weighted K share one
close-pair engine.  ``_close_pairs`` keeps, block by block of first
members, the pairs within the largest spatial support (``reach``) and the
largest weighted lag of the (r, t) grid.  It finds them through a cell
index of the second members, so each first member meets only the partners
in its 3 x 3 neighbouring cells.  ``_cell_sums`` then reduces those pairs
to every cell's sum, applying the first member's eligibility, the spatial
and temporal weights and the pair weight.  K and the pair correlation
reduce each block as it comes, so memory stays bounded by the pairs within
``reach`` of one block; the mark statistics keep the whole pair list, which
every mark permutation reuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .ingest import Component, MultiPattern, _require_unit_square

__all__ = [
    "CurveEstimate",
    "IntensitySurface",
    "TemporalIntensity",
    "KernelIntensity",
    "scott_bandwidths",
    "estimate_spatial_intensity",
    "estimate_temporal_intensity",
    "estimate_intensity",
    "estimate_pair_correlation",
    "estimate_k",
    "mark_weighted_k",
    "mark_permutation_envelope",
    "poisson_k",
]

DEFAULT_CELLS = 64
DEFAULT_T_GRID = (1.0, 2.0)
_PAIR_BLOCK = 2048


# ---------------------------------------------------------------------------
# sources


def _source_arrays(source) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, int]:
    """Pooled coordinate arrays (x, y, t, marks, T) of a pattern or component."""
    if isinstance(source, (MultiPattern, Component)):
        _require_unit_square(source)
        return source.x, source.y, source.t, source.marks, source.T
    raise ValidationError("source must be a MultiPattern or a Component")


def scott_bandwidths(source) -> tuple[float, float]:
    """Rule-of-thumb spatial and temporal bandwidths.

    eps = mean coordinate spread * n^(-1/6), delta = step spread * n^(-1/5);
    degenerate spreads require an explicit bandwidth."""
    x, y, t, _, _ = _source_arrays(source)
    n = x.size
    if n == 0:
        raise ValidationError("cannot pick bandwidths for an empty source")
    eps = 0.5 * (float(np.std(x)) + float(np.std(y))) * n ** (-1.0 / 6.0)
    delta = float(np.std(t)) * n ** (-1.0 / 5.0)
    return eps, delta


def stoyan_bandwidth(source) -> float:
    """Ring-kernel spatial bandwidth, 0.15 / sqrt(projected intensity).

    Much narrower than the intensity rule; ring kernels need the band to
    stay inside the smallest range of interest."""
    x, _, _, _, _ = _source_arrays(source)
    if x.size == 0:
        raise ValidationError("cannot pick bandwidths for an empty source")
    return 0.15 / float(np.sqrt(x.size))


# ---------------------------------------------------------------------------
# first order


@dataclass(frozen=True, eq=False)
class IntensitySurface:
    """Spatial intensity on a regular cell grid (events per unit area)."""

    x_centers: np.ndarray
    y_centers: np.ndarray
    values: np.ndarray
    bandwidth: float
    cell_area: float

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_area)


@dataclass(frozen=True, eq=False)
class TemporalIntensity:
    """Temporal intensity per integer step (events per step)."""

    steps: np.ndarray
    values: np.ndarray
    bandwidth: float

    def mass(self) -> float:
        return float(self.values.sum())


def _gauss_1d(centers: np.ndarray, points: np.ndarray, bw: float) -> np.ndarray:
    z = (centers[None, :] - points[:, None]) / bw
    return np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * bw)


def _check_bandwidth(bw: float, name: str) -> float:
    bw = float(bw)
    if not np.isfinite(bw) or bw <= 0:
        raise ValidationError(
            f"{name} bandwidth must be positive; degenerate coordinates need "
            "an explicit value"
        )
    return bw


def _cell_centers(cells: int) -> tuple[np.ndarray, float]:
    """Centres and width of ``cells`` equal cells along the unit interval."""
    if cells < 2:
        raise ValidationError("need at least 2 cells per axis")
    step = 1.0 / cells
    return (np.arange(cells) + 0.5) * step, step


def _edge_kernels(source, bandwidth: float | None, cells: int | None = None):
    """(bw, centers, kernels, norm) of the source's events on one grid.

    With ``cells`` the grid is the ``cells`` x ``cells`` square and there is
    a kernel for x and one for y; without, it is the steps 1..T and there is
    one kernel for t.  ``bw`` is the checked bandwidth (Scott's rule when
    None), each kernel holds every event's Gaussian at the centers, and
    ``norm`` is each event's edge normaliser: the product over the kernels
    of its mass, a sum over the centers times the cell width."""
    x, y, t, _, T = _source_arrays(source)
    if x.size == 0:
        raise ValidationError("cannot estimate intensity of an empty source")
    if cells is None:
        name, axes = "temporal", (t.astype(float),)
        centers, width = np.arange(1, T + 1, dtype=float), 1.0
    else:
        name, axes = "spatial", (x, y)
        centers, width = _cell_centers(cells)
    if bandwidth is None:
        bandwidth = scott_bandwidths(source)[1 if cells is None else 0]
    bw = _check_bandwidth(bandwidth, name)
    kernels = [_gauss_1d(centers, a, bw) for a in axes]
    norm = np.prod([k.sum(axis=1) * width for k in kernels], axis=0)
    if np.any(norm <= 0):
        raise ValidationError(f"{name} kernel mass vanished on the grid; bandwidth too small")
    return bw, centers, kernels, norm


def estimate_spatial_intensity(
    source, bandwidth: float | None = None, cells: int = DEFAULT_CELLS
) -> IntensitySurface:
    """Gaussian kernel surface with per-event edge normalisers.

    Each event's kernel is divided by its own mass over the cell grid,
    so the surface integrates to the event count on that grid."""
    bw, centers, (kx, ky), norm = _edge_kernels(source, bandwidth, cells)
    step = 1.0 / cells
    return IntensitySurface(
        x_centers=centers,
        y_centers=centers,
        values=(kx / norm[:, None]).T @ ky,
        bandwidth=bw,
        cell_area=step * step,
    )


def estimate_temporal_intensity(source, bandwidth: float | None = None) -> TemporalIntensity:
    """One-dimensional analogue over the integer steps 1..T."""
    bw, steps, (kt,), norm = _edge_kernels(source, bandwidth)
    return TemporalIntensity(
        steps=steps, values=(kt / norm[:, None]).sum(axis=0), bandwidth=bw
    )


@dataclass(frozen=True, eq=False)
class KernelIntensity:
    """Space-time Gaussian kernel intensity with per-event edge normalisers.

    The separable model is the product lambda_1(s) * lambda_2(t) / n of the
    spatial and temporal estimates; the full model sums each event's
    space-time kernel without the product restriction."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    eps: float
    delta: float
    space_norm: np.ndarray
    time_norm: np.ndarray
    separable: bool

    @property
    def n(self) -> int:
        return self.x.size

    def at(self, qx, qy, qt) -> np.ndarray:
        """The intensity at the broadcast query points.

        Queries and events are taken ``_PAIR_BLOCK`` at a time, so memory is
        bounded by one block of each, whatever their numbers."""
        qx, qy, qt = np.broadcast_arrays(*(np.asarray(q, dtype=float) for q in (qx, qy, qt)))
        shape = qx.shape
        qx, qy, qt = qx.ravel(), qy.ravel(), qt.ravel()
        space = np.zeros(qx.size)
        time = np.zeros(qx.size)
        for qlo in range(0, qx.size, _PAIR_BLOCK):
            qs = slice(qlo, qlo + _PAIR_BLOCK)
            for lo in range(0, self.n, _PAIR_BLOCK):
                sl = slice(lo, lo + _PAIR_BLOCK)
                ks = _gauss_1d(self.x[sl], qx[qs], self.eps)
                ks *= _gauss_1d(self.y[sl], qy[qs], self.eps)
                ks /= self.space_norm[sl]
                kt = _gauss_1d(self.t[sl], qt[qs], self.delta)
                kt /= self.time_norm[sl]
                if self.separable:
                    space[qs] += ks.sum(axis=1)
                    time[qs] += kt.sum(axis=1)
                else:
                    ks *= kt
                    space[qs] += ks.sum(axis=1)
        out = space * time / self.n if self.separable else space
        return out.reshape(shape)

    __call__ = at


def estimate_intensity(
    source,
    eps: float | None = None,
    delta: float | None = None,
    cells: int = DEFAULT_CELLS,
    separable: bool = True,
) -> KernelIntensity:
    """Space-time kernel intensity, separable product by default."""
    eps, _, _, space_norm = _edge_kernels(source, eps, cells)
    delta, _, _, time_norm = _edge_kernels(source, delta)
    x, y, t, _, _ = _source_arrays(source)
    return KernelIntensity(x, y, t, eps, delta, space_norm, time_norm, separable)


# ---------------------------------------------------------------------------
# second order


@dataclass(frozen=True, eq=False)
class CurveEstimate:
    """A second-order summary on an (r, t) grid."""

    r_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    kind: str
    meta: dict = dc_field(default_factory=dict)

    def rows(self):
        for k, r in enumerate(self.r_grid):
            for l, t in enumerate(self.t_grid):
                yield float(r), float(t), float(self.values[k, l])


def poisson_k(r_grid: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Benchmark K of a homogeneous Poisson process: 2*pi*r^2*t."""
    r = np.asarray(r_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    return 2.0 * np.pi * np.multiply.outer(r * r, t)


def _epanechnikov(v: np.ndarray, h: float) -> np.ndarray:
    z = v / h
    out = 0.75 * (1.0 - z * z) / h
    return np.where(np.abs(z) < 1.0, out, 0.0)


def _overlap_table(t: float, T: int) -> np.ndarray:
    """Bin-overlap temporal weights w(L) = |[L-1/2, L+1/2] ∩ [-t, t]| for
    L = 0..T-1; their total over signed integer lags is exactly 2t."""
    lags = np.arange(T, dtype=float)
    lo = np.maximum(lags - 0.5, -t)
    hi = np.minimum(lags + 0.5, t)
    return np.maximum(hi - lo, 0.0)


def _ring_lag_table(t: float, delta: float, T: int) -> np.ndarray:
    """Discretely renormalised lag kernel for the pair correlation.

    kappa_t(L) = 2 * k_delta(|L| - t) / sum_{L' in Z} k_delta(|L'| - t),
    whose signed-lag total is 2.  A lag t with no integer lag 0..T-1
    within delta has no kernel to renormalise and is refused."""
    lags = np.arange(T, dtype=float)
    raw = _epanechnikov(lags - t, delta)
    total = raw[0] + 2.0 * raw[1:].sum()
    if total <= 0:
        raise DomainError(
            f"time lag t={t:g} has no integer lag in 0..{T - 1} within the "
            f"temporal bandwidth delta={delta:g}; choose t nearer an integer "
            "lag or widen delta"
        )
    return 2.0 * raw / total


def _eroded_structure(r_support: float, dmax: int, T: int) -> tuple[float, int]:
    """(area, steps) of the eroded domain."""
    side = 1.0 - 2.0 * r_support
    if side <= 0:
        raise DomainError(
            f"range {r_support:g} exceeds half the window; shrink the r grid"
        )
    lo, hi = 1 + dmax, T - dmax
    if lo > hi:
        raise DomainError(
            f"temporal range needs {dmax} steps of margin but T={T}; "
            "shrink the t grid"
        )
    return side * side, hi - lo + 1


def _border_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))


@dataclass(frozen=True, eq=False)
class _Cells:
    """The (r, t) cells of a second-order curve.

    Cell (k, l) weights a pair by the indicator dist <= r_k (eps None) or
    the ring kernel k_eps(dist - r_k), and by tables[l][|dt|]; its first
    member must lie supports[k] inside the square and dmaxes[l] steps
    inside 1..T.  measure[k, l] is that eroded area times its steps."""

    r: np.ndarray
    t: np.ndarray
    eps: float | None
    tables: np.ndarray
    T: int
    supports: np.ndarray
    dmaxes: np.ndarray
    measure: np.ndarray


def _last_lag(table: np.ndarray) -> int:
    """The largest lag a temporal weight table gives weight to (0 if none)."""
    return int(np.nonzero(table)[0].max()) if table.any() else 0


def _cells(r, t_grid, T: int, eps: float | None = None, delta: float | None = None) -> _Cells:
    """The (r, t) cells; lags weigh by the ring kernel of bandwidth ``delta``
    (pair correlation) or, with ``delta`` None, by the bin overlap (K, mark K).
    A None ``t_grid`` takes the entries of DEFAULT_T_GRID whose weights reach
    an integer lag and leave an eroded temporal domain in 1..T, or all of
    them when none does, so that the fault is reported."""

    def table(tv):
        return _overlap_table(tv, T) if delta is None else _ring_lag_table(tv, delta, T)

    def fits(tv):  # 2L < T is the margin _eroded_structure needs
        try:
            return 2 * _last_lag(table(tv)) < T
        except DomainError:  # the ring kernel reaches no integer lag
            return False

    if t_grid is None:
        t_grid = [tv for tv in DEFAULT_T_GRID if fits(tv)] or DEFAULT_T_GRID
    t = _check_t_grid(t_grid)
    tables = [table(tv) for tv in t]
    supports = r if eps is None else r + eps
    dmaxes = np.array([_last_lag(tab) for tab in tables])
    measure = np.empty((r.size, t.size))
    for k in range(r.size):
        for l in range(t.size):
            area, steps = _eroded_structure(supports[k], dmaxes[l], T)
            measure[k, l] = area * steps
    return _Cells(r, t, eps, np.array(tables), T, supports, dmaxes, measure)


class _Pairs(NamedTuple):
    """Close pairs: indices into the first and second members, distance,
    |dt|, and the first member's border distance and step."""

    i: np.ndarray
    j: np.ndarray
    dist: np.ndarray
    lag: np.ndarray
    border: np.ndarray
    step: np.ndarray


def _close_pairs(first, second, cells: _Cells):
    """The close pairs, one block of ``_PAIR_BLOCK`` first members at a time.

    first and second are (x, y, t, global index).  Each block yields the
    pairs within the largest spatial support (``reach``) and the largest
    weighted lag of the cells, in row-major (i, j) order; self-pairs are
    excluded by global index.

    The second members are indexed once by square cells of side 1/m, m the
    largest whole number with m * reach * (1 + 1e-9) <= 1.  The margin keeps
    the side above ``reach`` after rounding: with side exactly ``reach`` the
    rounded cell index can split a kept pair over two cells (at reach 0.1
    and m = 10, x = 0.3 and 0.19999999999999998 land in cells 3 and 1).
    Cell keys are row-major in (x cell, y cell), so the three cells of one
    neighbouring x row are one run of the sorted members, and each first
    member meets only the candidates of its 3 x 3 neighbouring cells.  The
    found pairs are put back in (i, j) order by one sort per block."""
    xi, yi, ti, gi = first
    xj, yj, _, _ = second
    border = _border_distance(xi, yi)
    reach = cells.supports.max()
    lag_max = cells.dmaxes.max()
    m = max(int(1.0 / (reach * (1.0 + 1e-9))), 1)

    def cell(v):  # a coordinate of exactly 1.0 lands in the last cell
        return np.minimum((v * m).astype(np.intp), m - 1)

    key = cell(xj) * m + cell(yj)
    order = np.argsort(key, kind="stable")
    start = np.searchsorted(key[order], np.arange(m * m + 1))
    xs, ys, ts, gs = (a[order] for a in second)
    for lo in range(0, xi.size, _PAIR_BLOCK):
        sl = slice(lo, lo + _PAIR_BLOCK)
        row, col = cell(xi[sl]), cell(yi[sl])
        found = []
        for step in (-1, 0, 1):
            a = np.flatnonzero((row + step >= 0) & (row + step < m))
            base = (row[a] + step) * m
            begin = start[base + np.maximum(col[a] - 1, 0)]
            count = start[base + np.minimum(col[a] + 1, m - 1) + 1] - begin
            i = np.repeat(a + lo, count)
            # positions in the sorted members: each run from its begin on
            s = np.repeat(begin - np.cumsum(count) + count, count) + np.arange(i.size)
            lag = np.abs(ti[i] - ts[s])
            keep = np.flatnonzero((lag <= lag_max) & (gi[i] != gs[s]))
            i, s, lag = i[keep], s[keep], lag[keep]
            d = np.hypot(xi[i] - xs[s], yi[i] - ys[s])
            near = np.flatnonzero(d <= reach)
            found.append((i[near], order[s[near]], d[near], lag[near]))
        i, j, d, lag = (np.concatenate(parts) for parts in zip(*found))
        rank = np.argsort(i * xj.size + j)
        i = i[rank]
        yield _Pairs(i, j[rank], d[rank], lag[rank], border[i], ti[i])


def _cell_sums(cells: _Cells, pairs: _Pairs, weight: np.ndarray) -> np.ndarray:
    """Border-corrected sums of the pair weight over the pairs, per (r, t) cell.

    weight is the reciprocal intensities or the centred mark factor."""
    temporal = [
        table[pairs.lag] * ((pairs.step >= 1 + dmax) & (pairs.step <= cells.T - dmax))
        for table, dmax in zip(cells.tables, cells.dmaxes)
    ]
    sums = np.empty(cells.measure.shape)
    for k, (rk, support) in enumerate(zip(cells.r, cells.supports)):
        if cells.eps is None:
            spatial = pairs.dist <= rk
        else:
            spatial = _epanechnikov(pairs.dist - rk, cells.eps)
        sk = spatial * (pairs.border >= support) * weight
        for l, tw in enumerate(temporal):
            sums[k, l] = (sk * tw).sum()
    return sums


def _event_inv_intensity(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    type_id: np.ndarray | None,
    counts: np.ndarray | None,
    T: int,
    intensity,
) -> np.ndarray:
    """Reciprocal plug-in intensity per event.

    None means the homogeneous plug-in: count of the event's own
    component (or the pooled count) per unit area per step."""
    if intensity is None:
        if type_id is None or counts is None:
            lam = np.full(x.size, x.size / T)
        else:
            lam = counts[type_id - 1].astype(float) / T
    elif callable(intensity):
        if type_id is None:
            lam = np.asarray(intensity(x, y, t), dtype=float)
        else:
            lam = np.asarray(intensity(x, y, t, type_id), dtype=float)
    else:
        raise ValidationError("intensity must be None or a callable")
    if lam.shape != x.shape or np.any(~np.isfinite(lam)) or np.any(lam <= 0):
        raise ValidationError("plug-in intensity must be finite and positive")
    return 1.0 / lam


def _check_r_grid(r_grid: np.ndarray, eps: float | None) -> np.ndarray:
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValidationError("r grid must be a non-empty 1-d array")
    if np.any(r <= 0):
        raise DomainError("r grid entries must be positive")
    if eps is not None and np.any(r <= eps):
        raise DomainError("r grid entries must exceed the ring bandwidth")
    if not np.isfinite(r).all():
        raise ValidationError("r grid entries must be finite")
    return r


def _check_t_grid(t_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("t grid must be a non-empty 1-d array")
    if np.any(t < 0):
        raise DomainError("t grid entries must be non-negative")
    if not np.isfinite(t).all():
        raise ValidationError("t grid entries must be finite")
    return t


def estimate_pair_correlation(
    source,
    r_grid: Sequence[float],
    t_grid: Sequence[float] | None = None,
    eps: float | None = None,
    delta: float | None = None,
    intensity: Callable | None = None,
) -> CurveEstimate:
    """Kernel pair-correlation surface of a pattern or one component.

    Homogeneous Poisson inputs give values near 1; clustering shows up
    as an excess at small ranges.  The default plug-in intensity is the
    homogeneous one; pass a callable (x, y, t) -> rate for the
    inhomogeneous version.  ``t_grid`` None takes the default lags."""
    x, y, t, _, T = _source_arrays(source)
    if x.size < 2:
        raise ValidationError("need at least two events")
    if eps is None:
        eps = stoyan_bandwidth(source)
    if delta is None:
        _, delta = scott_bandwidths(source)
    eps = _check_bandwidth(eps, "spatial")
    delta = _check_bandwidth(delta, "temporal")
    cells = _cells(_check_r_grid(r_grid, eps), t_grid, T, eps, delta)

    inv_lam = _event_inv_intensity(x, y, t, None, None, T, intensity)
    coords = (x, y, t, np.arange(x.size))
    sums = np.zeros(cells.measure.shape)
    for pairs in _close_pairs(coords, coords, cells):
        sums += _cell_sums(cells, pairs, inv_lam[pairs.i] * inv_lam[pairs.j])
    return CurveEstimate(
        r_grid=cells.r,
        t_grid=cells.t,
        values=sums / (4.0 * np.pi * cells.r[:, None] * cells.measure),
        kind="pair_correlation",
        meta={"eps": eps, "delta": delta, "border": "first-member"},
    )


def _component_number(pattern: MultiPattern, item) -> int:
    """The 1-based index of a component named by label or by index.  A label
    match wins; a decimal string that matches no label is read as an index."""
    if isinstance(item, str):
        if item in pattern.labels:
            return pattern.labels.index(item) + 1
        if not item.isdecimal():
            raise ValidationError(f"unknown component label {item!r}")
    k = int(item)
    if not 1 <= k <= pattern.d:
        raise ValidationError(f"component index {k} outside 1..{pattern.d}")
    return k


def _resolve_types(pattern: MultiPattern, spec) -> tuple[int, ...]:
    if spec is None:
        return tuple(range(1, pattern.d + 1))
    out = [_component_number(pattern, item) for item in spec]
    if len(set(out)) != len(out):
        raise ValidationError("duplicate components in type set")
    return tuple(sorted(out))


def estimate_k(
    pattern: MultiPattern,
    r_grid: Sequence[float],
    t_grid: Sequence[float] | None = None,
    C: Sequence | None = None,
    D: Sequence | None = None,
    intensity: Callable | None = None,
) -> CurveEstimate:
    """Cross-type cumulative second-moment estimator between type sets.

    Counts D-type partners within distance r and time lag band t of
    each border-eligible C-type event, weighted by reciprocal plug-in
    intensities and bin-overlap temporal weights, normalised by the set
    sizes and the eroded window measure.  Independent homogeneous
    components give values near 2*pi*r^2*t.  ``t_grid`` None takes the
    default lags."""
    Cs = _resolve_types(pattern, C)
    Ds = _resolve_types(pattern, D)
    r = _check_r_grid(r_grid, None)
    _require_unit_square(pattern)
    T = pattern.T
    cells = _cells(r, t_grid, T)

    inv_lam = _event_inv_intensity(
        pattern.x,
        pattern.y,
        pattern.t,
        pattern.type_id,
        np.asarray(pattern.counts),
        T,
        intensity,
    )
    coords = (pattern.x, pattern.y, pattern.t, np.arange(pattern.n))
    in_c = np.isin(pattern.type_id, Cs)
    in_d = np.isin(pattern.type_id, Ds)
    first = tuple(a[in_c] for a in coords)
    second = tuple(a[in_d] for a in coords)
    wi, wj = inv_lam[in_c], inv_lam[in_d]
    sums = np.zeros(cells.measure.shape)
    for pairs in _close_pairs(first, second, cells):
        sums += _cell_sums(cells, pairs, wi[pairs.i] * wj[pairs.j])
    labels = pattern.labels
    return CurveEstimate(
        r_grid=cells.r,
        t_grid=cells.t,
        values=sums / (len(Cs) * len(Ds) * cells.measure),
        kind="k_function",
        meta={
            "C": tuple(labels[c - 1] for c in Cs),
            "D": tuple(labels[d - 1] for d in Ds),
            "border": "first-member",
        },
    )


# ---------------------------------------------------------------------------
# marked second order


def _marked_pairs(source, r_grid: Sequence[float], t_grid: Sequence[float] | None):
    """(cells, pairs, marks) of one marked source.

    The pair list is kept whole, as every mark permutation reuses it."""
    x, y, t, marks, T = _source_arrays(source)
    if marks is None:
        raise ValidationError("source carries no marks")
    if x.size < 2:
        raise ValidationError("need at least two events")
    if float(marks.mean()) == 0.0:
        raise ValidationError("mean mark is zero; the mark normalisation is undefined")
    cells = _cells(_check_r_grid(r_grid, None), t_grid, T)
    coords = (x, y, t, np.arange(x.size))
    blocks = zip(*_close_pairs(coords, coords, cells))
    return cells, _Pairs(*(np.concatenate(parts) for parts in blocks)), marks


def _centred_mark_k(
    cells: _Cells, pairs: _Pairs, marks: np.ndarray, mean_mark: float
) -> np.ndarray:
    """Centred mark-weighted K: weighted minus unweighted, shared geometry."""
    factor = marks[pairs.i] * marks[pairs.j] / (mean_mark * mean_mark)
    lam = marks.size / cells.T
    return _cell_sums(cells, pairs, factor - 1.0) / (lam * lam * cells.measure)


def mark_weighted_k(
    source,
    r_grid: Sequence[float],
    t_grid: Sequence[float] | None = None,
) -> CurveEstimate:
    """Centred mark-weighted K of one marked component.

    Pairs are weighted by m_i*m_j over the squared mean mark and the
    unweighted estimator is subtracted, so independent marks give values
    near zero and constant marks give exactly zero.  ``t_grid`` None takes
    the default lags."""
    cells, pairs, marks = _marked_pairs(source, r_grid, t_grid)
    values = _centred_mark_k(cells, pairs, marks, float(marks.mean()))
    return CurveEstimate(
        r_grid=cells.r,
        t_grid=cells.t,
        values=values,
        kind="mark_weighted_k_centred",
        meta={"border": "first-member"},
    )


def mark_permutation_envelope(
    source,
    r_grid: Sequence[float],
    t_grid: Sequence[float] | None = None,
    permutations: int = 100,
    seed: int = 0,
) -> tuple[CurveEstimate, np.ndarray, np.ndarray]:
    """Observed centred mark-weighted K plus its permutation envelope.

    Marks are permuted across events (the mark-independence null); the
    envelope is the pointwise min and max over the permuted statistics."""
    if permutations < 1:
        raise ValidationError("need at least one permutation")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    cells, pairs, marks = _marked_pairs(source, r_grid, t_grid)
    mbar = float(marks.mean())
    observed = _centred_mark_k(cells, pairs, marks, mbar)
    rng = np.random.Generator(np.random.Philox(seed))
    lo = np.full_like(observed, np.inf)
    hi = np.full_like(observed, -np.inf)
    for _ in range(permutations):
        vals = _centred_mark_k(cells, pairs, rng.permutation(marks), mbar)
        np.minimum(lo, vals, out=lo)
        np.maximum(hi, vals, out=hi)
    est = CurveEstimate(
        r_grid=cells.r,
        t_grid=cells.t,
        values=observed,
        kind="mark_weighted_k_centred",
        meta={"border": "first-member", "permutations": permutations, "seed": seed},
    )
    return est, lo, hi
