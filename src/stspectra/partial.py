"""Conditional (partial) spectral statistics via per-ordinate matrix inversion.

Everything here operates on a smoothed spectral matrix field.  Each
conditioning question has one route.  Conditioning on all remaining
components goes through :func:`partial_field`, the one inversion entry
point: it inverts the matrix at every ordinate (ridged where the matrix is
ill conditioned) and turns the inverse into the rescaled inverse densities
|d_ij| (the dependence-graph statistic), the partial coherencies and the
pair-conditioned cross- and auto-spectra, which the partial table, the
graph and the lag outputs all read; its :class:`PartialField` also keeps
the ridged inverse.  Conditioning on an explicit subset goes through the
Schur complement on the conditioning block
(:func:`partial_cross_spectrum_direct`, :func:`partial_dot_spectrum`, and
``spectra.multiple_coherence``).  The two routes agree analytically where
both apply; tests pin the agreement numerically.  The marked variants are
the identical machinery applied to a marked spectral field.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    {i,j}.  Diagonals are excluded by contract and stored as zero.
    """

    coherency: np.ndarray
    abs_d: np.ndarray
    cross: np.ndarray
    auto: np.ndarray
    inverse: np.ndarray
    ridge: np.ndarray
    singular: np.ndarray
    grid: FrequencyGrid
    labels: tuple[str, ...]

    @property
    def d(self) -> int:
        return self.abs_d.shape[-1]

    def pair_abs_d(self, i: int, j: int) -> np.ndarray:
        a, b = _component_indices(self.d, (i, j))[0]
        return self.abs_d[..., a, b]

    def pair_coherency(self, i: int, j: int) -> np.ndarray:
        a, b = _component_indices(self.d, (i, j))[0]
        return self.coherency[..., a, b]


def _as_matrix_field(field: SpectralField) -> np.ndarray:
    d = field.d
    if d < 2:
        raise ValidationError("need d >= 2 components")
    if field.half_widths is not None:
        hp, hq, hu = field.half_widths
        size = (2 * hp + 1) * (2 * hq + 1) * (2 * hu + 1)
        if size < d:
            raise ValidationError(
                f"smoothing neighbourhood {size} < d={d}: smoothed matrices "
                "cannot reach full rank; enlarge the half-widths"
            )
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


def _well_conditioned(mats: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each matrix of a stack of Hermitian matrices has a finite
    2-norm condition number max|lambda| / min|lambda| of at most
    ``threshold``.

    Matrices :func:`_gershgorin_certified` passes need no eigensolve; the
    rest get their eigenvalues from eigvalsh.  Matrices with non-finite
    entries, on which eigvalsh returns arbitrary values without an error,
    are never well conditioned.
    """
    ok = _gershgorin_certified(mats, threshold)
    rest = np.nonzero(~ok)[0]
    rest = rest[np.isfinite(mats[rest]).all(axis=(-2, -1))]
    if rest.size:
        with np.errstate(all="ignore"):
            lam = np.abs(np.linalg.eigvalsh(mats[rest]))
            cond = lam.max(axis=-1) / lam.min(axis=-1)
        ok[rest] = np.isfinite(cond) & (cond <= threshold)
    return ok


def _ridged_inverse(
    field: SpectralField,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the d x d matrix at every ordinate, with ridge escalation;
    returns (inverse, ridge, singular) over the grid.

    Ordinates whose condition number (from the eigenvalues, the matrices
    being Hermitian; see :func:`_well_conditioned`) exceeds
    ``COND_THRESHOLD``, read at call time, get diagonal loading
    eps*(trace/d)*I with eps escalating through ``RIDGE_FRACTIONS`` until
    the condition number passes; the applied eps is recorded.  If no step
    passes, the ordinate is flagged singular (NaN inverse) rather than
    aborting the run.
    """
    values = _as_matrix_field(field)
    d = field.d
    shape = values.shape[:3]
    flat = values.reshape(-1, d, d)
    n = flat.shape[0]

    work = flat.copy()
    ridge = np.zeros(n)
    bad = ~_well_conditioned(work, COND_THRESHOLD)
    eye = np.eye(d)
    for eps in RIDGE_FRACTIONS:
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        tr = np.einsum("kii->k", flat[idx]).real / d
        candidate = flat[idx] + (eps * tr)[:, None, None] * eye
        ok = _well_conditioned(candidate, COND_THRESHOLD)
        work[idx[ok]] = candidate[ok]
        ridge[idx[ok]] = eps
        bad[idx[ok]] = False
    singular = bad

    inv = np.full_like(flat, np.nan)
    good = ~singular
    if good.any():
        inv[good] = np.linalg.inv(work[good])
    return inv.reshape(values.shape), ridge.reshape(shape), singular.reshape(shape)


def partial_field(field: SpectralField) -> PartialField:
    """All-pairs partial statistics through the ridged per-ordinate inverse
    (see :func:`_ridged_inverse`).

    The pair-conditioned spectra come from the 2x2 block identity: with
    B the inverse matrix and det = b_ii*b_jj - |b_ij|^2,
    f_ij|rest = -b_ij/det,  f_ii|rest = b_jj/det.
    """
    _require_smoothed(field)
    b, ridge, singular = _ridged_inverse(field)
    d = field.d
    diag = np.arange(d)
    bii = b[..., diag, diag].real  # (P,Q,U,d)
    bij2 = b * np.conj(b)
    det = bii[..., :, None] * bii[..., None, :] - bij2.real
    with np.errstate(all="ignore"):
        den = np.sqrt(bii[..., :, None] * bii[..., None, :])
        coherency = np.where(den > 0, -b / np.where(den > 0, den, 1.0), np.nan)
        abs_d = np.abs(coherency)
        cross = np.where(det != 0, -b / np.where(det != 0, det, 1.0), np.nan)
        auto = np.where(
            det != 0, bii[..., None, :] / np.where(det != 0, det, 1.0), np.nan
        )
    for arr, fill in ((coherency, 0), (abs_d, 0.0), (cross, 0), (auto, 0)):
        arr[..., diag, diag] = fill
        arr[singular] = np.nan
    return PartialField(
        coherency=coherency,
        abs_d=abs_d,
        cross=cross,
        auto=auto,
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
