"""Frequency-domain summaries of multitype spatio-temporal point patterns.

The pipeline here is: non-uniform discrete Fourier transform of each
component's events, evaluated by direct summation on an integer frequency
lattice; the periodogram matrix formed from outer products of the
transforms, where the count normalisation is applied; rectangular
(Daniell-type) smoothing of the matrix field, the one smoothing routine;
and the derived coherence, gain, co/quad/amplitude/phase and polar
summaries.  Every derived statistic, the "component i against all others"
(dot) family included, reads the smoothed field.

Component indices in the public API are 1-based, matching event type ids.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .ingest import MultiPattern, _require_unit_square

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
    "dot_spectrum",
    "gain_spectrum",
    "gain_dot_spectrum",
    "decompose_cross_spectrum",
    "r_spectrum",
    "theta_spectrum",
]

NORMALISATIONS = ("sqrt_counts", "none")

# events per transform chunk, whose axis phases are built at once.  Fixed, so
# the summation order never changes; a chunk's phases are (P + Q) x 4096
# complex values, 3.3 MB on the default grid
EVENT_CHUNK = 4096
# events per (P x k) by (k x Q) product inside one time step, and per product
# of the kernel intensity surface.  Products this short gave the same bytes at
# 1, 2 and 4 OpenBLAS threads (0.3.31) over every size tried, while 256-event
# products did not; tests check both
STEP_PRODUCT = 128


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer frequency lattice: p in 0..p_max, q in q_min..q_max,
    u in u_min..u_max.  Every range must contain zero so the ordinate
    (0,0,0) exists; it is computed always and never enters sup-type
    statistics, where the uncentred transform is the event count.
    """

    p_max: int
    q_min: int
    q_max: int
    u_min: int
    u_max: int

    def __post_init__(self):
        if self.p_max < 0:
            raise ValidationError("p_max must be >= 0")
        if not self.q_min <= 0 <= self.q_max:
            raise ValidationError("q range must contain 0")
        if not self.u_min <= 0 <= self.u_max:
            raise ValidationError("u range must contain 0")

    @classmethod
    def default(cls, T: int) -> "FrequencyGrid":
        """Default lattice: p 0..16, q -16..16, u spanning the T temporal
        ordinates -floor((T-1)/2) .. floor(T/2)."""
        return cls(p_max=16, q_min=-16, q_max=16, u_min=-((T - 1) // 2), u_max=T // 2)

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

    def points(self) -> np.ndarray:
        """The (p, q, u) of every ordinate in flat (C) order, shape
        (size, 3): row k is the ordinate at ``np.unravel_index(k, shape)``."""
        return np.indices(self.shape).reshape(3, -1).T + (0, self.q_min, self.u_min)

    @property
    def dc_index(self) -> tuple[int, int, int]:
        return (0, -self.q_min, -self.u_min)

    def sup_mask(self) -> np.ndarray:
        """Boolean mask of ordinates admitted to sup/threshold statistics:
        every ordinate but DC.  Refused on a grid that holds DC alone."""
        if self.size == 1:
            raise ValidationError("no frequency ordinates left after DC exclusion")
        mask = np.ones(self.shape, dtype=bool)
        mask[self.dc_index] = False
        return mask

    def describe(self) -> dict:
        return {
            "p": [0, self.p_max],
            "q": [self.q_min, self.q_max],
            "u": [self.u_min, self.u_max],
        }


def default_half_widths(T: int) -> tuple[int, int, int]:
    """Smoothing half-widths: (1,1,0) for short horizons T <= 4, else (1,1,1)."""
    return (1, 1, 0) if T <= 4 else (1, 1, 1)


@dataclass(frozen=True)
class AnalysisSpec:
    """What defines the partial-spectral edge statistic: the frequency grid
    (whose sup runs over every ordinate but DC), the smoothing half-widths,
    the periodogram normalisation and whether the transforms are
    mark-weighted.

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

        The grid keeps its p/q range with u in 0..0, so DC again stays out
        of the sup; the temporal half-width becomes 0 and the normalisation
        is kept.  Slice transforms are unmarked."""
        return AnalysisSpec(
            grid=replace(self.grid, u_min=0, u_max=0),
            half_widths=(self.half_widths[0], self.half_widths[1], 0),
            normalisation=self.normalisation,
        )


@dataclass(frozen=True, eq=False)
class DftVector:
    """Stacked component transforms over a frequency grid.

    values: complex array (d, P, Q, U); counts: events per component.
    """

    values: np.ndarray
    counts: np.ndarray
    grid: FrequencyGrid
    T: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != (self.counts.size,) + self.grid.shape:
            raise ValidationError("transform array shape disagrees with grid")

    @property
    def d(self) -> int:
        return int(self.counts.size)


def _axis_phases(
    coord: np.ndarray, k_min: int, k_max: int, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-2*pi*i * k * coord) for k in k_min..k_max (k_min <= 0 <= k_max),
    shape (k_max - k_min + 1, n).

    Integer frequencies make these powers of one unit complex number
    z = exp(-2*pi*i * coord): one exponential per event, then the powers on
    the longer side of k = 0 by repeated multiplication; the shorter side
    holds their conjugates.  Written into ``out`` when it is given."""
    if out is None:
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


def _add_event_products(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a @ b.T, where the columns of a and b are events: (. x k) by
    (k x .) products of at most ``STEP_PRODUCT`` events are added in event
    order, so the bytes do not depend on the BLAS thread count."""
    for k in range(0, a.shape[1], STEP_PRODUCT):
        out += a[:, k : k + STEP_PRODUCT] @ b[:, k : k + STEP_PRODUCT].T


def _dft_single(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    T: int,
    grid: FrequencyGrid,
    weights: np.ndarray | None,
) -> np.ndarray:
    """Direct-summation transform of one component, summed by time step.

    The per-event phase factor exp(-2*pi*i*(p*x + q*y + u*t/T)) factorises
    into three axis factors.  Events of one step t share the temporal
    factor, a column of the :func:`_step_phases` table, so the transform is
    sum_t S_t(p, q) * table[u, t] with S_t = px @ qy.T over the step's events.
    Events are stably sorted by step (weights with them) and taken in fixed
    chunks of ``EVENT_CHUNK``, whose spatial factors :func:`_axis_phases`
    writes once per chunk into one work buffer per call; weights multiply
    that copy of the p factors, never the table.  Inside a step, S_t adds
    (P x k) by (k x Q) products of at most ``STEP_PRODUCT`` events in event
    order, and when the step ends S_t is added into the result element-wise,
    steps in order.  Memory is bounded by the chunk, and the summation order
    is fixed by the sorted events alone.
    """
    P, Q, _ = grid.shape
    # steps lie in 1..T, so the smallest type that holds T sorts them in the
    # same stable order, by radix sort for types of up to 16 bits
    order = np.argsort(t.astype(np.min_scalar_type(T)), kind="stable")
    x, y, t = x[order], y[order], t[order]
    if weights is not None:
        weights = weights[order]
    ends = np.flatnonzero(t[1:] != t[:-1]) + 1  # where a run of one step ends
    table = _step_phases(T, grid.u_values)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    step_sum = np.zeros((P, Q), dtype=np.complex128)
    phases = np.empty((P + Q, min(x.size, EVENT_CHUNK)), dtype=np.complex128)
    for lo in range(0, x.size, EVENT_CHUNK):
        hi = min(lo + EVENT_CHUNK, x.size)
        px = _axis_phases(x[lo:hi], 0, grid.p_max, phases[:P, : hi - lo])
        if weights is not None:
            px *= weights[lo:hi]
        qy = _axis_phases(y[lo:hi], grid.q_min, grid.q_max, phases[P:, : hi - lo])
        cuts = (ends[(ends > lo) & (ends < hi)] - lo).tolist()
        for a, b in zip([0, *cuts], [*cuts, hi - lo]):
            _add_event_products(step_sum, px[:, a:b], qy[:, a:b])
            if lo + b == x.size or t[lo + b] != t[lo + b - 1]:
                acc += step_sum[:, :, None] * table[:, t[lo + b - 1] - 1]
                step_sum[:] = 0.0
    return acc


def _transform(pattern: MultiPattern, grid: FrequencyGrid, marked: bool) -> DftVector:
    """Transform every component in turn.  The only parallel work is the
    BLAS inside the short per-step products, which gave the same bytes at
    every thread count tried (see ``STEP_PRODUCT``)."""
    _require_unit_square(pattern)
    if marked and not pattern.has_marks:
        raise ValidationError("marked transform requested but pattern has no marks")
    U = grid.shape[2]
    if U > pattern.T:
        # integer steps make u periodic modulo T: a further ordinate repeats
        # one already in the range (u = +-T repeats DC)
        raise ValidationError(
            f"u range {grid.u_min}..{grid.u_max} holds {U} temporal ordinates, "
            f"more than T={pattern.T}; u is periodic modulo T"
        )
    values = np.empty((pattern.d,) + grid.shape, dtype=np.complex128)
    for i in range(pattern.d):
        c = pattern.component(i + 1)
        weights = c.marks - c.marks.mean() if marked else None
        values[i] = _dft_single(c.x, c.y, c.t, pattern.T, grid, weights)
    return DftVector(
        values=values,
        counts=pattern.counts,
        grid=grid,
        T=pattern.T,
        labels=pattern.labels,
    )


def dft(pattern: MultiPattern, grid: FrequencyGrid, threads: int = 1) -> DftVector:
    """Per-component transform F_i(p,q,u) = sum_k exp(-2*pi*i*(p*x_k + q*y_k
    + u*t_k/T)) by direct summation over events (no gridding).

    Parameters
    ----------
    pattern : MultiPattern on the unit square.
    grid : FrequencyGrid of integer ordinates.
    threads : accepted and ignored, so that callers passing it keep working.
    """
    return _transform(pattern, grid, marked=False)


def marked_dft(pattern: MultiPattern, grid: FrequencyGrid) -> DftVector:
    """Mark-weighted transform: each summand is weighted by the event's mark
    minus its component's mark mean.  Constant marks therefore give the zero
    transform; adding a constant to all marks changes nothing."""
    return _transform(pattern, grid, marked=True)


def _fresh(name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """A new uninitialised work array: the allocator of a single run.  Its
    signature is that of :class:`_Buffers`, whose name it ignores."""
    return np.empty(shape, dtype)


class _Buffers:
    """The allocator of repeated runs on one shape, such as null replicates.

    A named work array is allocated on its first request and handed out
    again on every later request of the same shape and dtype, so the runs
    after the first allocate no field-sized array.  What a run builds in
    them is valid until the next run overwrites it."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        a = self.arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self.arrays[name] = np.empty(shape, dtype)
        return a


@functools.lru_cache(maxsize=None)
def _triu(d: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d, k)``, the order in which fields store a
    triangle, built once per (d, k) and read-only."""
    rows, cols = np.triu_indices(d, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _upper_index(d: int, i: int, j: int, k: int = 0) -> int:
    """The place of entry (i, j), 0-based with i <= j, in the
    ``np.triu_indices(d, k)`` order."""
    rows, cols = _triu(d, k)
    return int(np.flatnonzero((rows == i) & (cols == j))[0])


@functools.lru_cache(maxsize=None)
def _mirror_layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For the entries of a d x d matrix in C order, the place of
    (min(i,j), max(i,j)) in the order of ``_triu(d)``; and the C-order
    places of the entries i > j."""
    rows, cols = _triu(d)
    places = np.empty((d, d), np.intp)
    places[rows, cols] = places[cols, rows] = np.arange(rows.size)
    below = np.flatnonzero(np.tri(d, k=-1, dtype=bool))
    for a in (places, below):
        a.flags.writeable = False
    return places.ravel(), below


def _assemble(upper: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (..., d, d) Hermitian matrices of an upper triangle (..., d(d+1)/2)
    in ``np.triu_indices`` order: entries i <= j as stored, entries i > j
    their conjugates (for a real triangle, the same values).  ``out`` must
    be C-contiguous."""
    if out is None:
        out = np.empty(upper.shape[:-1] + (d, d), upper.dtype)
    places, below = _mirror_layout(d)
    flat = out.reshape(upper.shape[:-1] + (d * d,))
    np.take(upper, places, axis=-1, mode="clip", out=flat)
    if np.iscomplexobj(flat):
        for k in below:
            np.conjugate(flat[..., k], out=flat[..., k])
    return out


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A d x d Hermitian spectral matrix per frequency ordinate, held as its
    upper triangle.

    upper: the entries i <= j, complex (P, Q, U, d(d+1)/2) in
    ``np.triu_indices`` order, which :meth:`entry` reads; ``values``, the
    full (P, Q, U, d, d) matrices, is assembled from it (the lower triangle
    as the conjugate of the upper) on first read.  Full matrices a caller
    has enter through :meth:`from_values`.  ``kind`` is "raw" (rank-1 outer
    products) or "smoothed".  The normalisation choice and smoothing
    half-widths ride along so downstream modules and artifact provenance
    can quote them.
    """

    upper: np.ndarray
    grid: FrequencyGrid
    kind: str
    normalisation: str
    counts: np.ndarray
    T: int
    labels: tuple[str, ...]
    half_widths: tuple[int, int, int] | None = None

    @classmethod
    def from_values(cls, values: np.ndarray, **meta) -> "SpectralField":
        """The field of full (P, Q, U, d, d) matrices, which keeps their
        entries i <= j.  Refused unless Hermitian: the defect is
        max |F_ij - conj(F_ji)| over the entry pairs finite on both sides,
        inf where an entry is finite and its mirror is not, and it may not
        pass 1e-10 times the largest finite |F_ij| (see
        :func:`_require_hermitian`)."""
        finite = np.isfinite(values)
        if (finite != np.swapaxes(finite, -1, -2)).any():
            defect = float("inf")
        else:
            with np.errstate(invalid="ignore"):  # inf - inf off the finite pairs
                gap = np.abs(values - np.conj(np.swapaxes(values, -1, -2)))
            defect = float(gap.max(where=finite, initial=0.0))
        _require_hermitian(defect, np.abs(values).max(where=finite, initial=0.0))
        i, j = _triu(values.shape[-1])
        return cls(upper=values[..., i, j], **meta)

    @property
    def d(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def values(self) -> np.ndarray:
        return _assemble(self.upper, self.d)

    def entry(self, i: int, j: int) -> np.ndarray:
        """The (i,j) matrix entry over the grid (components 1-based)."""
        d = self.d
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValidationError(f"component pair ({i},{j}) outside 1..{d}")
        # one set each, since the diagonal names a component twice
        [a], [b] = _component_indices(d, (i,)) + _component_indices(d, (j,))
        v = self.upper[..., _upper_index(d, min(a, b), max(a, b))]
        return v if a <= b else np.conj(v)

    def select(self, components) -> "SpectralField":
        """The field of the 1-based ``components`` in ascending order, whose
        triangle is gathered unchanged from ``upper``; selecting every
        component gives the field's own bytes."""
        idx = np.sort(_component_indices(self.d, components)[0])
        rows, cols = _triu(idx.size)
        places = _mirror_layout(self.d)[0].reshape(self.d, self.d)
        return replace(
            self,
            upper=self.upper[..., places[idx[rows], idx[cols]]],
            counts=self.counts[idx],
            labels=tuple(self.labels[k] for k in idx),
        )

    def hermitian_defect(self) -> float:
        """max |F_ij - conj(F_ji)| over the finite entries.  The lower
        triangle is the conjugate of the upper, so only the diagonal can
        fall short, by 2|Im F_ii|."""
        rows, cols = _triu(self.d)
        diag = self.upper[..., rows == cols]
        return float((2.0 * np.abs(diag.imag)).max(where=np.isfinite(diag), initial=0.0))


def _require_hermitian(defect: float, scale: float) -> None:
    """Refuse a Hermitian defect above 1e-10 times ``scale``, the largest
    finite |F_ij| of the field; NaN entries are left out of both, since one
    NaN would pass any comparison with the bound."""
    if defect > 1e-10 * max(scale, 1e-300):
        raise ValidationError(
            f"field is not Hermitian (defect {defect:.3e}); internal contract "
            "violated upstream"
        )


def periodogram_matrix(
    dfts: DftVector, normalisation: str = "sqrt_counts", *, work=_fresh
) -> SpectralField:
    """Raw periodogram matrix: entry (i,j) = F_i(w) * conj(F_j(w)) * c_ij.

    With the recorded default ``sqrt_counts``, c_ij = 1/sqrt(n_i * n_j);
    with ``none``, c_ij = 1.  Each ordinate's matrix is a rank-1 Hermitian
    positive semi-definite outer product.  Only the entries i <= j are
    formed, with a real diagonal; the field holds them as its upper
    triangle, so Hermitian symmetry holds by construction.  ``work``
    allocates the arrays: fresh by default, while those of a reused
    :class:`_Buffers` are valid only until its next call.
    """
    if normalisation not in NORMALISATIONS:
        raise ValidationError(f"unknown normalisation {normalisation!r}")
    i, j = _triu(dfts.d)
    upper = work("periodogram", dfts.grid.shape + (i.size,))
    conj = np.conjugate(dfts.values, out=work("periodogram_conj", dfts.values.shape))
    for k, (a, b) in enumerate(zip(i, j)):
        np.multiply(dfts.values[a], conj[b], out=upper[..., k])
    upper.imag[..., i == j] = 0.0  # the diagonal is real
    if normalisation == "sqrt_counts":
        n = dfts.counts.astype(float)
        safe = np.where(n > 0, n, 1.0)
        const = 1.0 / np.sqrt(np.multiply.outer(safe, safe))
        np.multiply(upper, const[i, j], out=upper)
    return SpectralField(
        upper=upper,
        grid=dfts.grid,
        kind="raw",
        normalisation=normalisation,
        counts=dfts.counts,
        T=dfts.T,
        labels=dfts.labels,
    )


def _box_sum(a: np.ndarray, h: int, axis: int, out: np.ndarray) -> np.ndarray:
    """Sums of 2h+1 consecutive entries along ``axis``, written into ``out``:
    an axis of length L + 2h becomes one of length L.  Shifted-slice adds,
    no cumulative sum."""
    n = a.shape[axis] - 2 * h
    lead = (slice(None),) * axis
    np.copyto(out, a[lead + (slice(0, n),)])
    for k in range(1, 2 * h + 1):
        out += a[lead + (slice(k, k + n),)]
    return out


def _mirror_refusal(grid: FrequencyGrid, T: int) -> str | None:
    """Why the conjugate mirror f(-w) = conj(f(w)) cannot extend a field on
    ``grid`` below p = 0, or None when it can.  The mirror of every stored
    ordinate must be stored: the q range has to be symmetric about 0, and
    the u range has to hold all T temporal ordinates, since u wraps modulo
    T."""
    U = grid.shape[2]
    if U != T:
        return (
            f"the conjugate mirror needs all {T} temporal ordinates, got {U}; "
            "use the default u range"
        )
    if grid.q_min != -grid.q_max:
        return (
            f"the conjugate mirror needs a q range symmetric about 0, got "
            f"{grid.q_min}..{grid.q_max}"
        )
    return None


def _mirror_planes(values: np.ndarray, grid: FrequencyGrid, k: np.ndarray) -> np.ndarray:
    """The planes p = -k of the conjugate-symmetric extension of a half-grid
    field, in the order of ``k`` (entries in 1..p_max): plane p = k with q
    reversed, u mirrored modulo U and every entry conjugated.  Only valid
    where :func:`_mirror_refusal` finds nothing.  ``values`` has shape
    (P, Q, U) + trailing; the trailing axes ride along."""
    U = grid.shape[2]
    um = (-2 * grid.u_min - np.arange(U)) % U
    return np.conj(values[k, ::-1][:, :, um])


def _require_half_widths(half_widths) -> tuple[int, int, int]:
    """The smoothing half-widths as ints, refused when any is not a whole
    number or is negative."""
    hp, hq, hu = (int(h) for h in half_widths)
    if (hp, hq, hu) != tuple(half_widths):
        got = ",".join(str(h) for h in half_widths)
        raise ValidationError(f"half-widths must be whole numbers, got {got}")
    if min(hp, hq, hu) < 0:
        raise ValidationError("half-widths must be >= 0")
    return hp, hq, hu


def _box_average(
    values: np.ndarray,
    grid: FrequencyGrid,
    T: int,
    hw: tuple[int, int, int],
    work=_fresh,
) -> np.ndarray:
    """Uniform box average over the frequency neighbourhood, using the exact
    structure of the half-grid instead of plain truncation.

    The field is periodic in u with period T (integer time steps), so when
    the stored u axis covers all T ordinates the temporal neighbours wrap
    cyclically.  Fields of real-data transforms obey f(-w) = conj(f(w)), so
    neighbours with p < 0 are the conjugate mirrors of stored planes
    (:func:`_mirror_planes`) wherever :func:`_mirror_refusal` allows it,
    the rule the lag-domain inverse applies too; both rules keep the box
    average of the virtual full grid exact.  Neighbours beyond p_max or the
    q edges are genuinely unavailable and the average renormalises over
    the in-range count there.

    The rules are applied by building an extended array: hp mirrored planes
    below p=0 (zero when no mirror applies), hp zero planes past p_max, hq
    zero planes past each q edge, and hu planes each side in u, cyclic when
    U == T and zero otherwise.  Three 1-D box sums over it give the
    neighbourhood sums, and the same sums over the same extension of an
    all-ones field give the in-range counts.

    ``hw`` holds the checked half-widths of :func:`_require_half_widths`.
    ``values`` has shape (P, Q, U) + trailing; the trailing axes ride along.
    The extension, the sums and the average are ``work`` arrays.
    """
    if values.shape[:3] != grid.shape:
        raise ValidationError("field shape disagrees with grid")
    trail = (np.newaxis,) * (values.ndim - 3)
    sums = _box_sums(values, grid, T, hw, work)
    return np.divide(sums, _box_counts(grid, T, hw)[(...,) + trail], out=sums)


def _box_sums(
    a: np.ndarray,
    grid: FrequencyGrid,
    T: int,
    hw: tuple[int, int, int],
    work=_fresh,
) -> np.ndarray:
    """The neighbourhood sums of :func:`_box_average` over its extension of
    ``a``.  The hu planes each side in u are copies of the planes they wrap
    to when U == T and stay zero otherwise."""
    hp, hq, hu = hw
    P, Q, U = grid.shape
    mirrored = hp if _mirror_refusal(grid, T) is None else 0
    k = np.arange(1, min(mirrored, P - 1) + 1)  # plane p = -k mirrors p = k
    trail = a.shape[3:]
    ext = work("box_extension", (P + 2 * hp, Q + 2 * hq, U + 2 * hu) + trail, a.dtype)
    ext.fill(0)
    body = ext[:, :, hu : hu + U]
    body[hp : hp + P, hq : hq + Q] = a
    body[hp - k, hq : hq + Q] = _mirror_planes(a, grid, k)
    if U == T:
        for v in range(hu):
            ext[:, :, v] = body[:, :, (v - hu) % U]
            ext[:, :, hu + U + v] = body[:, :, v % U]
    by_p = _box_sum(ext, hp, 0, work("box_p", (P, Q + 2 * hq, U + 2 * hu) + trail, a.dtype))
    by_q = _box_sum(by_p, hq, 1, work("box_q", (P, Q, U + 2 * hu) + trail, a.dtype))
    return _box_sum(by_q, hu, 2, work("box_u", (P, Q, U) + trail, a.dtype))


@functools.lru_cache(maxsize=16)
def _box_counts(grid: FrequencyGrid, T: int, hw: tuple[int, int, int]) -> np.ndarray:
    """The in-range count of every box: the box sums of an all-ones field,
    shared read-only by every field on the same grid, T and half-widths."""
    counts = _box_sums(np.ones(grid.shape), grid, T, hw)
    counts.flags.writeable = False
    return counts


def smooth_spectra(
    field: SpectralField,
    half_widths: tuple[int, int, int] | None = None,
    *,
    work=_fresh,
) -> SpectralField:
    """Entrywise uniform average over the rectangular frequency neighbourhood
    (2h_p+1) x (2h_q+1) x (2h_u+1), of the upper triangle of a periodogram.

    Out-of-range neighbours are resolved by the exact grid structure where
    possible (cyclic wrap in u, conjugate mirror across p=0; see
    :func:`_box_average`), and the weights renormalise over the in-range
    count at the remaining edges.  Averaging each entry with the same real
    weights preserves the Hermitian structure exactly and keeps the matrices
    positive semi-definite (a convex combination of PSD matrices, the mirror
    sources being entrywise conjugates, i.e. transposes, of PSD matrices).
    Half-widths that are negative or not whole numbers are refused.  If the
    nominal neighbourhood holds fewer than d ordinates the smoothed
    matrices cannot reach full rank and a rank warning is issued; the
    inversion module enforces the requirement.  ``work`` allocates the
    arrays: fresh by default, while those of a reused :class:`_Buffers` are
    valid only until its next call.
    """
    if field.kind != "raw":
        raise ValidationError("smoothing expects the raw periodogram field")
    if half_widths is None:
        half_widths = default_half_widths(field.T)
    hp, hq, hu = hw = _require_half_widths(half_widths)
    size = (2 * hp + 1) * (2 * hq + 1) * (2 * hu + 1)
    upper = _box_average(field.upper, field.grid, field.T, hw, work)
    if size < field.d:
        warnings.warn(
            f"smoothing neighbourhood {size} < d={field.d}: smoothed matrices "
            "are rank deficient",
            RuntimeWarning,
            stacklevel=2,
        )
    return replace(field, upper=upper, kind="smoothed", half_widths=hw)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def coherence(field: SpectralField, i: int, j: int) -> np.ndarray:
    """Squared coherence |f_ij|^2 / (f_ii * f_jj) per ordinate, in [0,1]
    (up to rounding) for smoothed fields; ordinates with a vanishing
    denominator report 0."""
    num = np.abs(field.entry(i, j)) ** 2
    return _ratio(num, field.entry(i, i).real * field.entry(j, j).real)


def _grid_point(grid: FrequencyGrid, flat: int) -> tuple[int, int, int]:
    """(p, q, u) of the ordinate at a flat (C-order) index of the grid."""
    return tuple(int(v) for v in grid.points()[int(flat)])


def _component_indices(d: int, *sets) -> list[list[int]]:
    """0-based indices of 1-based component sets, each a whole number (2.0
    counts as 2) inside 1..d, with no component repeated within or across
    the sets."""
    flat = [k for s in sets for k in s]
    fractional = [k for k in flat if not float(k).is_integer()]
    if fractional:
        raise ValidationError(f"components {fractional} are not whole numbers")
    outside = sorted({k for k in flat if not 1 <= k <= d})
    if outside:
        raise ValidationError(f"components {outside} outside 1..{d}")
    if len(set(flat)) != len(flat):
        raise ValidationError(
            f"component sets {[tuple(s) for s in sets]} repeat a component"
        )
    return [[int(k) - 1 for k in s] for s in sets]


def _require_smoothed(field: SpectralField) -> None:
    """Refuse the raw periodogram where a statistic needs the smoothed field:
    its rank-1 matrices make every conditional and dot statistic degenerate
    (multiple coherence 1, partial spectra 0 or NaN)."""
    if field.kind != "smoothed":
        raise ValidationError(
            "conditional and dot statistics read the smoothed field, not the "
            "raw periodogram"
        )


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


def dot_spectrum(field: SpectralField, i: int) -> DotSpectrum:
    """Spectrum of component i against the superposition of all others,
    read from the smoothed field.

    The superposition transform is the exact sum F_dot = sum_{j != i} F_j
    and smoothing is linear, so the dot spectra are weighted sums of the
    field's entries: f_i,dot = sum_j w_j f_ij and f_dot,dot =
    sum_jk w_j w_k f_jk over j, k != i.  Under ``none`` every w_j is 1;
    under ``sqrt_counts`` w_j = sqrt(n_j / n_dot) undoes each entry's count
    normalisation and normalises the dot pseudo-component by its own count
    n_dot = sum_{j != i} n_j, counts below 1 counting as 1 as in
    :func:`periodogram_matrix`.
    """
    _require_smoothed(field)
    [[a]] = _component_indices(field.d, (i,))
    if field.d < 2:
        raise ValidationError("dot spectrum needs d >= 2")
    others = [k for k in range(field.d) if k != a]
    w = np.ones(len(others))
    if field.normalisation == "sqrt_counts":
        n = np.maximum(field.counts[others].astype(float), 1.0)
        w = np.sqrt(n / max(float(field.counts[others].sum()), 1.0))
    block = field.values[..., others, :][..., :, others]
    cross = field.values[..., a, others] @ w
    auto_i = field.values[..., a, a].real
    auto_dot = ((block @ w) @ w).real
    return DotSpectrum(
        cross=cross,
        coherence=_ratio(np.abs(cross) ** 2, auto_i * auto_dot),
        auto_i=auto_i,
        auto_dot=auto_dot,
        i=a + 1,
        normalisation=field.normalisation,
    )


def _gain(auto_i: np.ndarray, coh: np.ndarray, auto_j: np.ndarray) -> np.ndarray:
    """sqrt(f_ii * R) / f_jj, zero where f_jj vanishes."""
    return _ratio(np.sqrt(np.clip(auto_i * coh, 0.0, None)), auto_j)


def gain_spectrum(field: SpectralField, i: int, j: int) -> np.ndarray:
    """Gain of component i over j: sqrt(f_ii * R_ij) / f_jj with R_ij the
    squared coherence.  G_{i|i} reduces to f_ii^{-1/2}; zero coherence gives
    zero gain."""
    return _gain(
        field.entry(i, i).real, coherence(field, i, j), field.entry(j, j).real
    )


def gain_dot_spectrum(field: SpectralField, i: int) -> np.ndarray:
    """Gain of component i over the superposition of all others."""
    ds = dot_spectrum(field, i)
    return _gain(ds.auto_i, ds.coherence, ds.auto_dot)


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


def _bin_average(
    values: np.ndarray, grid: FrequencyGrid, kind: str, bins: np.ndarray, bin_of: np.ndarray
) -> PolarSpectrum:
    """Average the real field, per temporal frequency, over the spatial
    ordinates whose entry of the (P, Q) array ``bin_of`` is k, for each
    bin k in 0..len(bins)-1; ordinates in no bin hold -1."""
    if values.shape != grid.shape:
        raise ValidationError("field shape disagrees with grid")
    out = np.zeros((bins.size, grid.shape[2]))
    counts = np.zeros(bins.size, dtype=int)
    for k in range(bins.size):
        sel = bin_of == k
        counts[k] = int(sel.sum())
        if counts[k]:
            out[k] = values[sel, :].mean(axis=0)
    return PolarSpectrum(
        kind=kind, bins=bins, u_values=grid.u_values, values=out, counts=counts
    )


def r_spectrum(values: np.ndarray, grid: FrequencyGrid) -> PolarSpectrum:
    """Average the real field over annuli r-1 < sqrt(p^2+q^2) <= r for
    r = 1, 2, ...; the spatial DC ordinate (p,q)=(0,0) falls in no annulus."""
    rho, _, _ = _polar_coords(grid)
    r_max = int(np.ceil(rho.max())) if rho.max() > 0 else 1
    # annulus r holds the ordinates with ceil(rho) = r; rho = 0 lands in none
    bin_of = np.ceil(rho).astype(int) - 1
    return _bin_average(values, grid, "radius", np.arange(1, r_max + 1), bin_of)


def theta_spectrum(values: np.ndarray, grid: FrequencyGrid) -> PolarSpectrum:
    """Average the real field over direction bands theta +/- 5 degrees for
    theta = 0, 10, ..., 170, with the direction of (p,q) taken as
    atan2(p, q) in degrees modulo 180; (0,0) has no direction."""
    _, theta, is_origin = _polar_coords(grid)
    wrapped = np.where(theta > 175.0, theta - 180.0, theta)
    band = np.ceil((wrapped - 5.0) / 10.0).astype(int)
    band[is_origin] = -1
    return _bin_average(values, grid, "angle", np.arange(0, 180, 10), band)

