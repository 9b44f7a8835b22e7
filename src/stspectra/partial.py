"""Conditional (partial) spectral statistics via per-ordinate matrix inversion.

Everything here operates on a smoothed spectral matrix field.  Each
conditioning question has one route.  Conditioning on all remaining
components goes through :func:`partial_field`, the one inversion entry
point: it inverts the matrix at every ordinate (ridged where the matrix is
ill conditioned) and turns the inverse into the rescaled inverse densities
|d_ij| (the dependence-graph statistic) and the partial coherencies, which
the partial table and the graph read.  Its :class:`PartialField` keeps the
ridged inverse and builds from it, when first asked, the pair-conditioned
cross- and auto-spectra that the lag outputs read.  Conditioning on an
explicit subset goes through the Schur complement on the conditioning block
(:func:`partial_cross_spectrum_direct`, :func:`partial_dot_spectrum`, and
``spectra.multiple_coherence``).  The two routes agree analytically where
both apply; tests pin the agreement numerically.  The marked variants are
the identical machinery applied to a marked spectral field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFieldError, ValidationError
from .spectra import (
    FrequencyGrid,
    SpectralField,
    _component_indices,
    _require_smoothed,
    _schur_projection,
)

__all__ = [
    "PartialField",
    "PairConditional",
    "partial_field",
    "partial_cross_spectrum_direct",
    "partial_dot_spectrum",
]

COND_THRESHOLD = 1e10
RIDGE_FRACTIONS = (1e-8, 1e-6, 1e-4)


@dataclass(frozen=True, eq=False)
class PartialField:
    """All-pairs partial statistics, conditioned on the remaining components,
    and the per-ordinate inverse they are read from.

    inverse[..., i, j] is b_ij, the inverse of the smoothed spectral matrix
    after the diagonal-loading fraction in ``ridge`` (0 where the plain
    inverse was well conditioned); ``singular`` marks ordinates where every
    ridge step failed, whose inverse and statistics are NaN.
    abs_d[..., i, j] is the rescaled inverse density |b_ij|/sqrt(b_ii*b_jj)
    (the sup of which drives the dependence graph); coherency is the signed
    complex partial coherency -b_ij/sqrt(b_ii*b_jj); cross and auto are the
    pair-conditioned spectra f_ij|rest and f_ii|rest with rest = all except
    {i,j}, built from ``inverse`` on first read.  Diagonals are excluded by
    contract and stored as zero.
    """

    coherency: np.ndarray
    abs_d: np.ndarray
    inverse: np.ndarray
    ridge: np.ndarray
    singular: np.ndarray
    grid: FrequencyGrid
    labels: tuple[str, ...]

    @property
    def d(self) -> int:
        return self.abs_d.shape[-1]

    @cached_property
    def _pair_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """(cross, auto) from the 2x2 block identity: with det =
        b_ii*b_jj - |b_ij|^2, f_ij|rest = -b_ij/det and f_ii|rest = b_jj/det."""
        b = self.inverse
        diag = np.arange(self.d)
        bii = b[..., diag, diag].real  # (P,Q,U,d)
        det = bii[..., :, None] * bii[..., None, :] - (b * np.conj(b)).real
        with np.errstate(all="ignore"):
            cross = np.where(det != 0, -b / np.where(det != 0, det, 1.0), np.nan)
            auto = np.where(
                det != 0, bii[..., None, :] / np.where(det != 0, det, 1.0), np.nan
            )
        for arr in (cross, auto):
            arr[..., diag, diag] = 0
            arr[self.singular] = np.nan
        return cross, auto

    @property
    def cross(self) -> np.ndarray:
        return self._pair_spectra[0]

    @property
    def auto(self) -> np.ndarray:
        return self._pair_spectra[1]

    def pair_abs_d(self, i: int, j: int) -> np.ndarray:
        a, b = _component_indices(self.d, (i, j))[0]
        return self.abs_d[..., a, b]

    def pair_coherency(self, i: int, j: int) -> np.ndarray:
        a, b = _component_indices(self.d, (i, j))[0]
        return self.coherency[..., a, b]


def _require_full_rank_box(half_widths: tuple[int, int, int], d: int) -> None:
    """Refuse a smoothing box of fewer than d ordinates, over which the
    smoothed d x d matrices cannot reach full rank."""
    hp, hq, hu = half_widths
    size = (2 * hp + 1) * (2 * hq + 1) * (2 * hu + 1)
    if size < d:
        raise ValidationError(
            f"smoothing neighbourhood {size} < d={d}: smoothed matrices "
            "cannot reach full rank; enlarge the half-widths"
        )


def _as_matrix_field(field: SpectralField) -> np.ndarray:
    d = field.d
    if d < 2:
        raise ValidationError("need d >= 2 components")
    if field.half_widths is not None:
        _require_full_rank_box(field.half_widths, d)
    if field.is_zero():
        raise DegenerateFieldError(
            "spectral field is identically zero (constant marks give a "
            "degenerate marked field); partial statistics are undefined"
        )
    # over finite entries only: one NaN would make both NaN, and NaN passes
    # any comparison with the bound
    scale = np.abs(field.values[np.isfinite(field.values)]).max(initial=0.0)
    defect = field.hermitian_defect()
    if defect > 1e-10 * max(scale, 1e-300):
        raise ValidationError(
            f"field is not Hermitian (defect {defect:.3e}); internal contract "
            "violated upstream"
        )
    return field.values


def _gershgorin_certified(mats: np.ndarray, threshold: float) -> np.ndarray:
    """Which matrices of a stack of Hermitian matrices Gershgorin discs
    prove to have a condition number of at most ``threshold``.

    Every eigenvalue of a Hermitian matrix lies in [lo, hi] with
    lo = min_i(a_ii - R_i), hi = max_i(a_ii + R_i) and R_i the off-diagonal
    absolute row sum, so lo > 0 and hi / lo <= threshold / 2 bound the
    condition number; the factor 2 absorbs rounding in lo, hi and in the
    eigenvalues the exact test would use.  Non-finite matrices, near-singular
    ones and strongly coherent ones are not certified.
    """
    diag = np.einsum("kii->ki", mats).real
    with np.errstate(all="ignore"):
        radius = np.abs(mats).sum(axis=-1) - np.abs(diag)
        lo = (diag - radius).min(axis=-1)
        hi = (diag + radius).max(axis=-1)
        return (lo > 0) & (hi <= 0.5 * threshold * lo)


def _ridged_inverse(
    field: SpectralField,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the d x d matrix at every ordinate, ridged where it is ill
    conditioned; returns (inverse, ridge, singular) over the grid.

    The ridge at an ordinate is the first loading fraction eps of 0 and
    ``RIDGE_FRACTIONS`` for which A + eps*(trace/d)*I has a 2-norm condition
    number of at most ``COND_THRESHOLD``, read at call time.  Ordinates that
    :func:`_gershgorin_certified` passes take eps = 0 without an eigensolve;
    every other finite ordinate gets one eigvalsh, and since loading a
    Hermitian matrix by c*I shifts each of its eigenvalues by exactly c, the
    condition number at every fraction is max|lambda+c| / min|lambda+c|.
    An ordinate that no fraction passes, and every non-finite one, is
    singular: it is inverted as the identity with the rest of the stack and
    its inverse set to NaN.
    """
    values = _as_matrix_field(field)
    d = field.d
    flat = values.reshape(-1, d, d)
    work = flat.copy()
    ridge = np.zeros(flat.shape[0])
    singular = ~_gershgorin_certified(flat, COND_THRESHOLD)
    rest = np.nonzero(singular & np.isfinite(flat).all(axis=(-2, -1)))[0]
    if rest.size:
        mats = flat[rest]
        fractions = np.array((0.0, *RIDGE_FRACTIONS))
        loads = np.multiply.outer(fractions, np.einsum("kii->k", mats).real / d)
        with np.errstate(all="ignore"):
            shifted = np.abs(np.linalg.eigvalsh(mats) + loads[..., None])
            cond = shifted.max(axis=-1) / shifted.min(axis=-1)
        passes = np.isfinite(cond) & (cond <= COND_THRESHOLD)
        rung = passes.argmax(axis=0)
        ok = passes.any(axis=0)
        singular[rest[ok]] = False
        ridge[rest[ok]] = fractions[rung[ok]]
        # only loaded matrices change: adding a zero load would turn -0 to +0
        up = ok & (rung > 0)
        load = loads[rung[up], np.nonzero(up)[0]]
        work[rest[up]] = mats[up] + load[:, None, None] * np.eye(d)
    work[singular] = np.eye(d)
    inv = _hpd_inverse(work)
    inv[singular] = np.nan
    shape = values.shape[:3]
    return inv.reshape(values.shape), ridge.reshape(shape), singular.reshape(shape)


def _hpd_inverse(mats: np.ndarray) -> np.ndarray:
    """Inverse of every matrix of a (n, d, d) stack of Hermitian matrices.

    Gauss-Jordan elimination without pivoting, run over the stack in a
    (d, d, n) layout with element-wise operations only: no BLAS or LAPACK,
    so the result does not depend on a BLAS thread count.  Without pivoting
    the elimination is exact to rounding and stable for positive-definite
    matrices, whose pivots are the positive ratios of consecutive leading
    principal minors.  A matrix with a pivot whose real part is not
    positive is not positive definite; those matrices alone are inverted
    again by ``np.linalg.inv``, which pivots.  The result is a (n, d, d)
    view of the one work array.
    """
    n, d = mats.shape[:2]
    a = mats.transpose(1, 2, 0).copy()
    scratch = np.empty((d, n), dtype=a.dtype)
    definite = np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(d):
            pivot = a[k, k].copy()
            definite &= pivot.real > 0
            a[k, k] = 1.0
            a[k] *= 1.0 / pivot
            for i in range(d):
                if i != k:
                    factor = a[i, k].copy()
                    a[i, k] = 0.0
                    a[i] -= np.multiply(factor, a[k], out=scratch)
    inv = a.transpose(2, 0, 1)
    if not definite.all():
        inv[~definite] = np.linalg.inv(mats[~definite])
    return inv


def partial_field(field: SpectralField) -> PartialField:
    """All-pairs partial statistics through the ridged per-ordinate inverse
    (see :func:`_ridged_inverse`); the pair-conditioned spectra are built
    from the inverse when first read."""
    _require_smoothed(field)
    b, ridge, singular = _ridged_inverse(field)
    diag = np.arange(field.d)
    bii = b[..., diag, diag].real  # (P,Q,U,d)
    with np.errstate(all="ignore"):
        den = np.sqrt(bii[..., :, None] * bii[..., None, :])
        coherency = np.where(den > 0, -b / np.where(den > 0, den, 1.0), np.nan)
        abs_d = np.abs(coherency)
    for arr, fill in ((coherency, 0), (abs_d, 0.0)):
        arr[..., diag, diag] = fill
        arr[singular] = np.nan
    return PartialField(
        coherency=coherency,
        abs_d=abs_d,
        inverse=b,
        ridge=ridge,
        singular=singular,
        grid=field.grid,
        labels=field.labels,
    )


@dataclass(frozen=True, eq=False)
class PairConditional:
    """Direct-route pair statistics given the conditioning set: f_ij|J, the
    two conditional autos, and the normalised complex coherency."""

    cross: np.ndarray
    auto_i: np.ndarray
    auto_j: np.ndarray
    coherency: np.ndarray
    conditioning: tuple[int, ...]


def partial_cross_spectrum_direct(
    field: SpectralField,
    i: int,
    j: int,
    conditioning: tuple[int, ...] | list[int],
) -> PairConditional:
    """Direct (Schur complement) route, conditioned on the set J =
    ``conditioning``:
    f_ij|J = f_ij - f_iJ * f_JJ^{-1} * f_Jj.

    Conditioning on every other component goes through
    :func:`partial_field` instead.  With an empty conditioning set the
    partial quantities reduce to the ordinary ones exactly.
    """
    J = tuple(conditioning)
    proj = _schur_projection(field, (i, j), J)
    cross = field.entry(i, j) - proj[..., 0, 1]
    auto_i = (field.entry(i, i) - proj[..., 0, 0]).real
    auto_j = (field.entry(j, j) - proj[..., 1, 1]).real

    den2 = auto_i * auto_j
    coherency = np.full(cross.shape, np.nan, dtype=complex)
    ok = den2 > 0
    np.divide(cross, np.sqrt(np.where(ok, den2, 1.0)), out=coherency, where=ok)
    return PairConditional(
        cross=cross,
        auto_i=auto_i,
        auto_j=auto_j,
        coherency=coherency,
        conditioning=J,
    )


def partial_dot_spectrum(
    field: SpectralField,
    i: int,
    K: tuple[int, ...] | list[int],
    J: tuple[int, ...] | list[int] = (),
) -> np.ndarray:
    """Aggregated conditional cross-spectrum f_iK|J with f_iK = sum over K of
    the pairwise cross-spectra (the superposition of K), conditioned on J by
    the direct formula.  J empty gives the unconditioned aggregate."""
    if not K:
        raise ValidationError("K must be non-empty")
    proj = _schur_projection(field, (i,), J, K)
    kidx = [k - 1 for k in K]
    return field.values[..., i - 1, kidx].sum(axis=-1) - proj[..., 0, :].sum(axis=-1)
