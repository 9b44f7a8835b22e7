"""Frequency-domain summaries of multitype spatio-temporal point patterns.

The pipeline here is: non-uniform discrete Fourier transform of each
component's events, evaluated by direct summation on an integer frequency
lattice; the periodogram matrix formed from outer products of the transforms;
rectangular (Daniell-type) smoothing of the matrix field; and the derived
coherence, gain, co/quad/amplitude/phase and polar summaries.

Component indices in the public API are 1-based, matching event type ids.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .ingest import MultiPattern

__all__ = [
    "AnalysisSpec",
    "FrequencyGrid",
    "DftVector",
    "SpectralField",
    "DotSpectrum",
    "CrossDecomposition",
    "PolarSpectrum",
    "default_half_widths",
    "dft",
    "marked_dft",
    "periodogram_matrix",
    "smooth_spectra",
    "coherence",
    "multiple_coherence",
    "dot_spectrum",
    "gain_spectrum",
    "gain_dot_spectrum",
    "decompose_cross_spectrum",
    "r_spectrum",
    "theta_spectrum",
    "dot_multiple_gap",
]

NORMALISATIONS = ("sqrt_counts", "none")

# events per transform chunk.  Fixed, so the summation order never changes;
# a chunk's 4096 x (P*U) product block is 5.6 MB on the default T=5 grid
EVENT_CHUNK = 4096


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer frequency lattice: p in 0..p_max, q in q_min..q_max,
    u in u_min..u_max.  Every range must contain zero so the ordinate
    (0,0,0) exists; it is computed always and excluded from sup-type
    statistics unless ``include_dc`` is set.
    """

    p_max: int
    q_min: int
    q_max: int
    u_min: int
    u_max: int
    include_dc: bool = False

    def __post_init__(self):
        if self.p_max < 0:
            raise ValidationError("p_max must be >= 0")
        if not self.q_min <= 0 <= self.q_max:
            raise ValidationError("q range must contain 0")
        if not self.u_min <= 0 <= self.u_max:
            raise ValidationError("u range must contain 0")

    @classmethod
    def default(
        cls, T: int, p_max: int = 16, q_abs: int = 16, include_dc: bool = False
    ) -> "FrequencyGrid":
        """Default lattice: p 0..16, q -16..16, u spanning the T temporal
        ordinates -floor((T-1)/2) .. floor(T/2)."""
        return cls(
            p_max=p_max,
            q_min=-q_abs,
            q_max=q_abs,
            u_min=-((T - 1) // 2),
            u_max=T // 2,
            include_dc=include_dc,
        )

    @property
    def p_values(self) -> np.ndarray:
        return np.arange(0, self.p_max + 1)

    @property
    def q_values(self) -> np.ndarray:
        return np.arange(self.q_min, self.q_max + 1)

    @property
    def u_values(self) -> np.ndarray:
        return np.arange(self.u_min, self.u_max + 1)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (
            self.p_max + 1,
            self.q_max - self.q_min + 1,
            self.u_max - self.u_min + 1,
        )

    @property
    def size(self) -> int:
        P, Q, U = self.shape
        return P * Q * U

    @property
    def dc_index(self) -> tuple[int, int, int]:
        return (0, -self.q_min, -self.u_min)

    def sup_mask(self) -> np.ndarray:
        """Boolean mask of ordinates admitted to sup/threshold statistics."""
        mask = np.ones(self.shape, dtype=bool)
        if not self.include_dc:
            mask[self.dc_index] = False
        return mask

    def describe(self) -> dict:
        return {
            "p": [0, self.p_max],
            "q": [self.q_min, self.q_max],
            "u": [self.u_min, self.u_max],
            "include_dc": self.include_dc,
        }


def default_half_widths(T: int) -> tuple[int, int, int]:
    """Smoothing half-widths: (1,1,0) for short horizons T <= 4, else (1,1,1)."""
    return (1, 1, 0) if T <= 4 else (1, 1, 1)


@dataclass(frozen=True)
class AnalysisSpec:
    """What defines the partial-spectral edge statistic: the frequency grid
    (which also decides whether DC enters the sup), the smoothing
    half-widths, the periodogram normalisation and whether the transforms
    are mark-weighted.

    The analysis, its null calibration and its slice graphs all run from
    one spec, so the null is built for exactly the statistic of the analysis.
    """

    grid: FrequencyGrid
    half_widths: tuple[int, int, int]
    normalisation: str = "sqrt_counts"
    marked: bool = False

    @classmethod
    def default(cls, T: int) -> "AnalysisSpec":
        """Default grid and half-widths for a horizon of T steps."""
        return cls(FrequencyGrid.default(T), default_half_widths(T))

    def for_slice(self) -> "AnalysisSpec":
        """The spec for one temporal step analysed as a T=1 pattern.

        The grid keeps its p/q range and DC decision with u in 0..0, the
        temporal half-width becomes 0 and the normalisation is kept.  Slice
        transforms are unmarked."""
        return AnalysisSpec(
            grid=replace(self.grid, u_min=0, u_max=0),
            half_widths=(self.half_widths[0], self.half_widths[1], 0),
            normalisation=self.normalisation,
        )


@dataclass(frozen=True, eq=False)
class DftVector:
    """Stacked component transforms over a frequency grid.

    values: complex array (d, P, Q, U); counts: events per component;
    marked: whether summands carry centred mark weights.
    """

    values: np.ndarray
    counts: np.ndarray
    grid: FrequencyGrid
    T: int
    labels: tuple[str, ...]
    marked: bool = False
    mark_means: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != (self.counts.size,) + self.grid.shape:
            raise ValidationError("transform array shape disagrees with grid")

    @property
    def d(self) -> int:
        return int(self.counts.size)

    def component(self, i: int) -> np.ndarray:
        return self.values[i - 1]


def _axis_phases(coord: np.ndarray, k_min: int, k_max: int) -> np.ndarray:
    """exp(-2*pi*i * k * coord) for k in k_min..k_max (k_min <= 0 <= k_max),
    shape (k_max - k_min + 1, n).

    Integer frequencies make these powers of one unit complex number
    z = exp(-2*pi*i * coord): one exponential per event, then the powers on
    the longer side of k = 0 by repeated multiplication; the shorter side
    holds their conjugates."""
    out = np.empty((k_max - k_min + 1, coord.size), dtype=np.complex128)
    pos, neg = out[-k_min:], out[-k_min::-1]  # pos[k] is k, neg[k] is -k
    long, short = (pos, neg) if k_max >= -k_min else (neg, pos)
    long[0] = 1.0
    if len(long) > 1:
        np.exp((-2j * np.pi) * coord, out=long[1])
        if long is neg:
            np.conjugate(long[1], out=long[1])
    for k in range(2, len(long)):
        np.multiply(long[k - 1], long[1], out=long[k])
    np.conjugate(long[1 : len(short)], out=short[1:])
    return out


def _step_phases(T: int, u: np.ndarray) -> np.ndarray:
    """exp(-2*pi*i * u * t/T) for every u and every time step t in 1..T,
    shape (len(u), T)."""
    steps = np.arange(1, T + 1, dtype=float) / T
    return np.exp((-2j * np.pi) * np.multiply.outer(u.astype(float), steps))


def _dft_single(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    T: int,
    grid: FrequencyGrid,
    weights: np.ndarray | None,
) -> np.ndarray:
    """Direct-summation transform of one component as a chunked complex GEMM.

    The per-event phase factor exp(-2*pi*i*(p*x + q*y + u*t/T)) factorises
    into three axis factors, so with A = px * ut (P*U rows, one column per
    event) the transform is A @ qy, a (P*U x n) by (n x Q) product.  The
    spatial factors come from :func:`_axis_phases`; time steps are the
    integers 1..T, so the temporal factor of an event is a column of the
    :func:`_step_phases` table.  Weights multiply the indexed copy, never the
    table.  Events are taken in fixed chunks of ``EVENT_CHUNK``, summed in
    event order, with A refilled in one buffer per call, so memory is bounded
    by the chunk and the result does not depend on how many workers run.
    """
    P, Q, U = grid.shape
    acc = np.zeros((P * U, Q), dtype=np.complex128)
    table = _step_phases(T, grid.u_values)
    block = np.empty(P * U * min(x.size, EVENT_CHUNK), dtype=np.complex128)
    for lo in range(0, x.size, EVENT_CHUNK):
        hi = lo + EVENT_CHUNK
        ut = table[:, t[lo:hi] - 1]
        if weights is not None:
            ut *= weights[lo:hi]
        px = _axis_phases(x[lo:hi], 0, grid.p_max)
        a = block[: px.size * U].reshape(P, U, -1)
        np.multiply(px[:, None, :], ut[None, :, :], out=a)
        qy = _axis_phases(y[lo:hi], grid.q_min, grid.q_max)
        acc += a.reshape(P * U, -1) @ qy.T
    return acc.reshape(P, U, Q).transpose(0, 2, 1)


def _check_unit(pattern: MultiPattern) -> None:
    if not pattern.window.is_unit_square:
        raise ValidationError(
            "pattern must be rescaled to the unit square before transforming"
        )


def _transform(
    pattern: MultiPattern, grid: FrequencyGrid, threads: int, marked: bool
) -> DftVector:
    """Transform every component; workers split the components, so each
    component is computed by the same operations whatever the worker count."""
    _check_unit(pattern)
    if marked and not pattern.has_marks:
        raise ValidationError("marked transform requested but pattern has no marks")
    comps = [pattern.component(i + 1) for i in range(pattern.d)]
    means = np.array([c.marks.mean() for c in comps]) if marked else None
    values = np.empty((pattern.d,) + grid.shape, dtype=np.complex128)

    def run_component(i):
        c = comps[i]
        weights = c.marks - means[i] if marked else None
        values[i] = _dft_single(c.x, c.y, c.t, pattern.T, grid, weights)

    if threads <= 1 or pattern.d == 1:
        for i in range(pattern.d):
            run_component(i)
    else:
        with ThreadPoolExecutor(max_workers=min(threads, pattern.d)) as pool:
            list(pool.map(run_component, range(pattern.d)))
    return DftVector(
        values=values,
        counts=pattern.counts,
        grid=grid,
        T=pattern.T,
        labels=pattern.labels,
        marked=marked,
        mark_means=means,
    )


def dft(pattern: MultiPattern, grid: FrequencyGrid, threads: int = 1) -> DftVector:
    """Per-component transform F_i(p,q,u) = sum_k exp(-2*pi*i*(p*x_k + q*y_k
    + u*t_k/T)) by direct summation over events (no gridding).

    Parameters
    ----------
    pattern : MultiPattern on the unit square.
    grid : FrequencyGrid of integer ordinates.
    threads : worker count; outputs are byte-identical for any value.
    """
    return _transform(pattern, grid, threads, marked=False)


def marked_dft(
    pattern: MultiPattern, grid: FrequencyGrid, threads: int = 1
) -> DftVector:
    """Mark-weighted transform: each summand is weighted by the event's mark
    minus its component's mark mean.  Constant marks therefore give the zero
    transform; adding a constant to all marks changes nothing.  ``threads``
    is as for :func:`dft`."""
    return _transform(pattern, grid, threads, marked=True)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A d x d spectral matrix per frequency ordinate.

    values: complex (P, Q, U, d, d), Hermitian at every ordinate by
    construction.  ``kind`` is "raw" (rank-1 outer products) or "smoothed".
    The normalisation choice and smoothing half-widths ride along so
    downstream modules and artifact provenance can quote them.
    """

    values: np.ndarray
    grid: FrequencyGrid
    kind: str
    normalisation: str
    counts: np.ndarray
    T: int
    labels: tuple[str, ...]
    half_widths: tuple[int, int, int] | None = None
    marked: bool = False
    adequate: bool | None = None

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def entry(self, i: int, j: int) -> np.ndarray:
        """The (i,j) matrix entry over the grid (components 1-based)."""
        d = len(self.labels)
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValidationError(f"component pair ({i},{j}) outside 1..{d}")
        return self.values[..., i - 1, j - 1]

    def hermitian_defect(self) -> float:
        swapped = np.conj(np.swapaxes(self.values, -1, -2))
        return float(np.abs(self.values - swapped).max())

    def is_zero(self) -> bool:
        return not np.abs(self.values).any()


def periodogram_matrix(
    dfts: DftVector, normalisation: str = "sqrt_counts"
) -> SpectralField:
    """Raw periodogram matrix: entry (i,j) = F_i(w) * conj(F_j(w)) * c_ij.

    With the recorded default ``sqrt_counts``, c_ij = 1/sqrt(n_i * n_j);
    with ``none``, c_ij = 1.  Each ordinate's matrix is a rank-1 Hermitian
    positive semi-definite outer product exactly (identical floating
    operations produce the conjugate-transpose entries).
    """
    if normalisation not in NORMALISATIONS:
        raise ValidationError(f"unknown normalisation {normalisation!r}")
    stacked = np.moveaxis(dfts.values, 0, -1)  # (P,Q,U,d)
    raw = stacked[..., :, None] * np.conj(stacked[..., None, :])
    # fused-multiply paths round (i,j) and (j,i) differently by one ulp, so
    # Hermitian symmetry is enforced by construction: conjugate-mirror the
    # upper triangle and realify the diagonal
    d = stacked.shape[-1]
    lo_i, lo_j = np.tril_indices(d, -1)
    raw[..., lo_i, lo_j] = np.conj(raw[..., lo_j, lo_i])
    kk = np.arange(d)
    raw[..., kk, kk] = raw[..., kk, kk].real
    if normalisation == "sqrt_counts":
        n = dfts.counts.astype(float)
        safe = np.where(n > 0, n, 1.0)
        const = 1.0 / np.sqrt(np.multiply.outer(safe, safe))
        raw = raw * const
    return SpectralField(
        values=raw,
        grid=dfts.grid,
        kind="raw",
        normalisation=normalisation,
        counts=dfts.counts,
        T=dfts.T,
        labels=dfts.labels,
        marked=dfts.marked,
    )


def _box_sum(a: np.ndarray, h: int, axis: int) -> np.ndarray:
    """Sums of 2h+1 consecutive entries along ``axis``: an axis of length
    L + 2h becomes one of length L.  Shifted-slice adds, no cumulative sum."""
    n = a.shape[axis] - 2 * h
    lead = (slice(None),) * axis
    out = a[lead + (slice(0, n),)].copy()
    for k in range(1, 2 * h + 1):
        out += a[lead + (slice(k, k + n),)]
    return out


def _box_average(
    values: np.ndarray, grid: FrequencyGrid, T: int, hw: tuple[int, int, int]
) -> np.ndarray:
    """Uniform box average over the frequency neighbourhood, using the exact
    structure of the half-grid instead of plain truncation.

    The field is periodic in u with period T (integer time steps), so when
    the stored u axis covers all T ordinates the temporal neighbours wrap
    cyclically.  Fields of real-data transforms obey f(-w) = conj(f(w)), so
    neighbours with p < 0 are fetched as conjugates of their stored mirror
    whenever the q range is symmetric; both rules keep the box average of
    the virtual full grid exact, which the lag-domain inverse relies on.
    Neighbours beyond p_max or the q edges are genuinely unavailable and
    the average renormalises over the in-range count there.

    The rules are applied once, by building an extended array: hp
    conjugate-mirrored planes below p=0 (flipped q, mirrored u; zero when
    no mirror applies), hp zero planes past p_max, hq zero planes past each
    q edge, and hu planes each side in u, cyclic when U == T and zero
    otherwise.  Three 1-D box sums over it give the neighbourhood sums, and
    the in-range counts are the outer product of the three 1-D counts.

    ``values`` has shape (P, Q, U) + trailing; the trailing axes ride along.
    """
    hp, hq, hu = (int(h) for h in hw)
    if min(hp, hq, hu) < 0:
        raise ValidationError("half-widths must be >= 0")
    P, Q, U = grid.shape
    if values.shape[:3] != (P, Q, U):
        raise ValidationError("field shape disagrees with grid")
    wrap_u = U == T
    mirror_p = wrap_u and grid.q_min == -grid.q_max

    ext = np.zeros((P + 2 * hp, Q + 2 * hq, U) + values.shape[3:], values.dtype)
    ext[hp : hp + P, hq : hq + Q] = values
    p_in = np.zeros(P + 2 * hp)
    p_in[hp : hp + P] = 1.0
    if mirror_p:
        k = np.arange(1, min(hp, P - 1) + 1)  # plane p = -k mirrors p = k
        um = (-2 * grid.u_min - np.arange(U)) % U
        ext[hp - k, hq : hq + Q] = np.conj(values[k, ::-1][:, :, um])
        p_in[hp - k] = 1.0
    q_in = np.zeros(Q + 2 * hq)
    q_in[hq : hq + Q] = 1.0
    if wrap_u:
        ext = ext[:, :, np.arange(-hu, U + hu) % U]
        u_in = np.ones(U + 2 * hu)
    else:
        pad = [(0, 0)] * ext.ndim
        pad[2] = (hu, hu)
        ext = np.pad(ext, pad)
        u_in = np.zeros(U + 2 * hu)
        u_in[hu : hu + U] = 1.0

    acc = _box_sum(_box_sum(_box_sum(ext, hp, 0), hq, 1), hu, 2)
    cnt = np.multiply.outer(
        np.multiply.outer(_box_sum(p_in, hp, 0), _box_sum(q_in, hq, 0)),
        _box_sum(u_in, hu, 0),
    )
    trail = (np.newaxis,) * (values.ndim - 3)
    return acc / cnt[(...,) + trail]


def smooth_spectra(
    field: SpectralField, half_widths: tuple[int, int, int] | None = None
) -> SpectralField:
    """Entrywise uniform average over the rectangular frequency neighbourhood
    (2h_p+1) x (2h_q+1) x (2h_u+1).

    Out-of-range neighbours are resolved by the exact grid structure where
    possible (cyclic wrap in u, conjugate mirror across p=0; see
    :func:`_box_average`), and the weights renormalise over the in-range
    count at the remaining edges.  Averaging each entry with the same real
    weights preserves the Hermitian structure exactly and keeps the matrices
    positive semi-definite (a convex combination of PSD matrices, the mirror
    sources being entrywise conjugates, i.e. transposes, of PSD matrices).
    If the nominal neighbourhood holds fewer than d ordinates the smoothed
    matrices cannot reach full rank and a rank warning is issued; the
    inversion module enforces the requirement.
    """
    if field.kind != "raw":
        raise ValidationError("smoothing expects the raw periodogram field")
    if half_widths is None:
        half_widths = default_half_widths(field.T)
    hp, hq, hu = (int(h) for h in half_widths)
    acc = _box_average(field.values, field.grid, field.T, (hp, hq, hu))

    size = (2 * hp + 1) * (2 * hq + 1) * (2 * hu + 1)
    adequate = size >= field.d
    if not adequate:
        warnings.warn(
            f"smoothing neighbourhood {size} < d={field.d}: smoothed matrices "
            "are rank deficient",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpectralField(
        values=acc,
        grid=field.grid,
        kind="smoothed",
        normalisation=field.normalisation,
        counts=field.counts,
        T=field.T,
        labels=field.labels,
        half_widths=(hp, hq, hu),
        marked=field.marked,
        adequate=adequate,
    )


def coherence(field: SpectralField, i: int, j: int) -> np.ndarray:
    """Squared coherence |f_ij|^2 / (f_ii * f_jj) per ordinate, in [0,1]
    (up to rounding) for smoothed fields; ordinates with a vanishing
    denominator report 0."""
    num = np.abs(field.entry(i, j)) ** 2
    den = field.entry(i, i).real * field.entry(j, j).real
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def multiple_coherence(
    field: SpectralField, i: int, J: list[int] | tuple[int, ...], ridge: float = 0.0
) -> np.ndarray:
    """Squared multiple coherence of component i on the set J:
    f_iJ * f_JJ^{-1} * f_Ji / f_ii per ordinate.

    Parameters
    ----------
    field : smoothed spectral field.
    i : target component (1-based), not in J.
    J : non-empty list of distinct regressor components.
    ridge : optional diagonal loading, as a fraction of mean(diag(f_JJ)),
        for deliberately rank-deficient constructions.

    Raises
    ------
    SingularMatrixError : if f_JJ is singular at some ordinate (the first
        offending ordinate is reported).
    """
    J = list(J)
    if not J:
        raise ValidationError("J must be non-empty")
    if len(set(J)) != len(J):
        raise ValidationError("J holds duplicate components")
    if i in J:
        raise ValidationError("target component cannot appear in J")
    d = len(field.labels)
    if any(not 1 <= k <= d for k in (i, *J)):
        raise ValidationError(f"components must lie in 1..{d}")
    idx = [k - 1 for k in J]
    fJJ = field.values[..., idx, :][..., :, idx]
    fJi = field.values[..., idx, [i - 1] * len(idx)][..., None]  # (...,|J|,1)
    if ridge > 0:
        m = len(idx)
        tr = np.trace(fJJ, axis1=-2, axis2=-1).real / m
        fJJ = fJJ + (ridge * tr)[..., None, None] * np.eye(m)
    try:
        solved = np.linalg.solve(fJJ, fJi)
    except np.linalg.LinAlgError:
        flat = fJJ.reshape(-1, len(idx), len(idx))
        for k in range(flat.shape[0]):
            try:
                np.linalg.solve(flat[k], np.ones((len(idx), 1), dtype=complex))
            except np.linalg.LinAlgError:
                point = np.unravel_index(k, field.grid.shape)
                w = (
                    int(field.grid.p_values[point[0]]),
                    int(field.grid.q_values[point[1]]),
                    int(field.grid.u_values[point[2]]),
                )
                raise SingularMatrixError("f_JJ singular", grid_point=w)
        raise
    quad = np.conj(fJi[..., 0]) * solved[..., 0]
    num = quad.sum(axis=-1).real
    den = field.entry(i, i).real
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


@dataclass(frozen=True, eq=False)
class DotSpectrum:
    """Cross-spectrum of one component against the superposition of all
    others, plus the derived squared coherence."""

    cross: np.ndarray
    coherence: np.ndarray
    auto_i: np.ndarray
    auto_dot: np.ndarray
    i: int
    normalisation: str


def dot_spectrum(
    dfts: DftVector,
    i: int,
    half_widths: tuple[int, int, int] | None = None,
    normalisation: str = "sqrt_counts",
) -> DotSpectrum:
    """Spectrum of component i against everything else.

    The superposition transform is the exact sum F_dot = sum_{j != i} F_j,
    so on the unnormalised scale the cross-spectrum equals the sum of the
    pairwise cross-spectra; with ``sqrt_counts`` the dot pseudo-component is
    normalised by its own count n_dot = sum_{j != i} n_j.
    """
    if normalisation not in NORMALISATIONS:
        raise ValidationError(f"unknown normalisation {normalisation!r}")
    if not 1 <= i <= dfts.d:
        raise ValidationError(f"component {i} outside 1..{dfts.d}")
    if dfts.d < 2:
        raise ValidationError("dot spectrum needs d >= 2")
    fi = dfts.values[i - 1]
    others = [k for k in range(dfts.d) if k != i - 1]
    fdot = dfts.values[others].sum(axis=0)
    n_i = float(dfts.counts[i - 1])
    n_dot = float(dfts.counts[others].sum())
    if normalisation == "sqrt_counts":
        c_cross = 1.0 / np.sqrt(max(n_i, 1.0) * max(n_dot, 1.0))
        c_i = 1.0 / max(n_i, 1.0)
        c_dot = 1.0 / max(n_dot, 1.0)
    else:
        c_cross = c_i = c_dot = 1.0
    raw_cross = fi * np.conj(fdot) * c_cross
    raw_i = (fi.real**2 + fi.imag**2) * c_i
    raw_dot = (fdot.real**2 + fdot.imag**2) * c_dot
    if half_widths is None:
        half_widths = default_half_widths(dfts.T)
    cross = _box_average(raw_cross, dfts.grid, dfts.T, half_widths)
    auto_i = _box_average(raw_i, dfts.grid, dfts.T, half_widths)
    auto_dot = _box_average(raw_dot, dfts.grid, dfts.T, half_widths)
    num = np.abs(cross) ** 2
    den = auto_i * auto_dot
    coh = np.zeros_like(num)
    np.divide(num, den, out=coh, where=den > 0)
    return DotSpectrum(
        cross=cross,
        coherence=coh,
        auto_i=auto_i,
        auto_dot=auto_dot,
        i=i,
        normalisation=normalisation,
    )


def gain_spectrum(field: SpectralField, i: int, j: int) -> np.ndarray:
    """Gain of component i over j: sqrt(f_ii * R_ij) / f_jj with R_ij the
    squared coherence.  G_{i|i} reduces to f_ii^{-1/2}; zero coherence gives
    zero gain."""
    f_ii = field.entry(i, i).real
    f_jj = field.entry(j, j).real
    if i == j:
        out = np.zeros_like(f_ii)
        np.divide(1.0, np.sqrt(np.where(f_ii > 0, f_ii, 1.0)), out=out, where=f_ii > 0)
        return out
    r = coherence(field, i, j)
    num = np.sqrt(np.clip(f_ii * r, 0.0, None))
    out = np.zeros_like(num)
    np.divide(num, f_jj, out=out, where=f_jj > 0)
    return out


def gain_dot_spectrum(
    dfts: DftVector,
    i: int,
    half_widths: tuple[int, int, int] | None = None,
    normalisation: str = "sqrt_counts",
) -> np.ndarray:
    """Gain of component i over the superposition of all others."""
    ds = dot_spectrum(dfts, i, half_widths, normalisation)
    num = np.sqrt(np.clip(ds.auto_i * ds.coherence, 0.0, None))
    out = np.zeros_like(num)
    np.divide(num, ds.auto_dot, out=out, where=ds.auto_dot > 0)
    return out


@dataclass(frozen=True, eq=False)
class CrossDecomposition:
    """Co/quad/amplitude/phase of a cross-spectral entry.

    Convention: f_ij = co - i*quad (so quad = -Im f_ij) and the phase is the
    quadrant-aware angle atan2(-quad, co), i.e. the argument of f_ij itself.
    """

    co: np.ndarray
    quad: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray


def decompose_cross_spectrum(field: SpectralField, i: int, j: int) -> CrossDecomposition:
    f = field.entry(i, j)
    co = f.real.copy()
    quad = -f.imag
    return CrossDecomposition(
        co=co,
        quad=quad,
        amplitude=np.abs(f),
        phase=np.arctan2(-quad, co),
    )


@dataclass(frozen=True, eq=False)
class PolarSpectrum:
    """Averages of a real field over polar frequency bins, per temporal
    frequency.  kind "radius": annuli r-1 < rho <= r; kind "angle": 10-degree
    bands centred on 0,10,...,170 (directions taken modulo 180)."""

    kind: str
    bins: np.ndarray
    u_values: np.ndarray
    values: np.ndarray  # (n_bins, U)
    counts: np.ndarray  # ordinates per bin

    def row(self, bin_value) -> np.ndarray:
        k = int(np.nonzero(self.bins == bin_value)[0][0])
        return self.values[k]


def _polar_coords(grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pp, qq = np.meshgrid(grid.p_values, grid.q_values, indexing="ij")
    rho = np.sqrt(pp.astype(float) ** 2 + qq.astype(float) ** 2)
    theta = np.degrees(np.arctan2(pp.astype(float), qq.astype(float)))
    return rho, theta, (pp == 0) & (qq == 0)


def r_spectrum(values: np.ndarray, grid: FrequencyGrid) -> PolarSpectrum:
    """Average the real field over annuli r-1 < sqrt(p^2+q^2) <= r for
    r = 1, 2, ...; the spatial DC ordinate (p,q)=(0,0) falls in no annulus."""
    if values.shape != grid.shape:
        raise ValidationError("field shape disagrees with grid")
    rho, _, _ = _polar_coords(grid)
    r_max = int(np.ceil(rho.max())) if rho.max() > 0 else 1
    radii = np.arange(1, r_max + 1)
    # bin index: smallest r with rho <= r, i.e. ceil(rho); rho=0 excluded
    bin_of = np.ceil(rho).astype(int)
    U = grid.shape[2]
    out = np.zeros((radii.size, U))
    counts = np.zeros(radii.size, dtype=int)
    for k, r in enumerate(radii):
        sel = (bin_of == r) & (rho > 0)
        counts[k] = int(sel.sum())
        if counts[k]:
            out[k] = values[sel, :].mean(axis=0)
    return PolarSpectrum(
        kind="radius",
        bins=radii,
        u_values=grid.u_values,
        values=out,
        counts=counts,
    )


def theta_spectrum(values: np.ndarray, grid: FrequencyGrid) -> PolarSpectrum:
    """Average the real field over direction bands theta +/- 5 degrees for
    theta = 0, 10, ..., 170, with the direction of (p,q) taken as
    atan2(p, q) in degrees modulo 180; (0,0) has no direction."""
    if values.shape != grid.shape:
        raise ValidationError("field shape disagrees with grid")
    _, theta, is_origin = _polar_coords(grid)
    wrapped = np.where(theta > 175.0, theta - 180.0, theta)
    band = np.ceil((wrapped - 5.0) / 10.0).astype(int)
    angles = np.arange(0, 180, 10)
    U = grid.shape[2]
    out = np.zeros((angles.size, U))
    counts = np.zeros(angles.size, dtype=int)
    for k in range(angles.size):
        sel = (band == k) & ~is_origin
        counts[k] = int(sel.sum())
        if counts[k]:
            out[k] = values[sel, :].mean(axis=0)
    return PolarSpectrum(
        kind="angle",
        bins=angles,
        u_values=grid.u_values,
        values=out,
        counts=counts,
    )


def dot_multiple_gap(field: SpectralField, i: int) -> float:
    """Diagnostic: max absolute gap between the squared multiple coherence of
    i on all other components and the dot-spectrum squared coherence formed
    from the same field's entries.  The two coincide for the theoretical
    spectrum but not for smoothed estimates with d > 2; this reports the gap
    rather than asserting it away."""
    others = [k for k in range(1, field.d + 1) if k != i]
    rm = multiple_coherence(field, i, others)
    idx = [k - 1 for k in others]
    f_idot = field.values[..., i - 1, idx].sum(axis=-1)
    f_dotdot = field.values[..., idx, :][..., :, idx].sum(axis=(-2, -1)).real
    f_ii = field.entry(i, i).real
    num = np.abs(f_idot) ** 2
    den = f_ii * f_dotdot
    rdot = np.zeros_like(num)
    np.divide(num, den, out=rdot, where=den > 0)
    return float(np.abs(rm - rdot).max())
