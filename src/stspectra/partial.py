"""Conditional (partial) spectral statistics via per-ordinate matrix inversion.

Everything here operates on a smoothed spectral matrix field.  The central
object is the per-ordinate inverse; from it come the rescaled inverse
densities |d_ij| (the dependence-graph statistic), the partial coherencies,
and the pair-conditioned cross- and auto-spectra, each conditioned on all
remaining components unless an explicit set is given.

Two independent evaluation routes are kept deliberately distinct: the inverse
route (through the matrix inverse) and the direct route (Schur complement on
the conditioning block).  They agree analytically; tests pin the agreement
numerically.  The marked variants are the identical machinery applied to a
marked spectral field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFieldError,
    SingularMatrixError,
    ValidationError,
)
from .spectra import FrequencyGrid, SpectralField

__all__ = [
    "InverseField",
    "PartialField",
    "PairConditional",
    "invert_spectral_matrix",
    "rescaled_inverse_density",
    "partial_coherency",
    "partial_field",
    "partial_cross_spectrum_direct",
    "partial_coherence_three",
    "partial_dot_spectrum",
]

COND_THRESHOLD = 1e10
RIDGE_FRACTIONS = (1e-8, 1e-6, 1e-4)


@dataclass(frozen=True, eq=False)
class InverseField:
    """Per-ordinate inverse of a spectral matrix field.

    ridge holds the diagonal-loading fraction actually applied at each
    ordinate (0 where the plain inverse was well conditioned); singular marks
    ordinates where every escalation step failed — their inverse entries are
    NaN and downstream statistics are flagged unreliable.
    """

    values: np.ndarray
    ridge: np.ndarray
    singular: np.ndarray
    grid: FrequencyGrid
    labels: tuple[str, ...]
    cond_threshold: float

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def entry(self, i: int, j: int) -> np.ndarray:
        d = self.d
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValidationError(f"component pair ({i},{j}) outside 1..{d}")
        return self.values[..., i - 1, j - 1]


@dataclass(frozen=True, eq=False)
class PartialField:
    """All-pairs partial statistics, conditioned on the remaining components.

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
    ridge: np.ndarray
    singular: np.ndarray
    grid: FrequencyGrid
    labels: tuple[str, ...]
    conditioning: str = "all-remaining"

    @property
    def d(self) -> int:
        return self.abs_d.shape[-1]

    def pair_abs_d(self, i: int, j: int) -> np.ndarray:
        if i == j:
            raise ValidationError("|d_ii| is excluded by contract")
        d = self.d
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValidationError(f"component pair ({i},{j}) outside 1..{d}")
        return self.abs_d[..., i - 1, j - 1]

    def pair_coherency(self, i: int, j: int) -> np.ndarray:
        if i == j:
            raise ValidationError("partial coherency needs i != j")
        d = self.d
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValidationError(f"component pair ({i},{j}) outside 1..{d}")
        return self.coherency[..., i - 1, j - 1]


def _as_matrix_field(field: SpectralField) -> np.ndarray:
    if field.kind != "smoothed":
        raise ValidationError(
            "inversion operates on the smoothed field, not the raw periodogram"
        )
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


def _gershgorin_certified(mats: np.ndarray, cond_threshold: float) -> np.ndarray:
    """Which matrices of a stack of Hermitian matrices Gershgorin discs
    prove to have a condition number of at most ``cond_threshold``.

    Every eigenvalue of a Hermitian matrix lies in [lo, hi] with
    lo = min_i(a_ii - R_i), hi = max_i(a_ii + R_i) and R_i the off-diagonal
    absolute row sum, so lo > 0 and hi / lo <= cond_threshold / 2 bound the
    condition number; the factor 2 absorbs rounding in lo, hi and in the
    eigenvalues the exact test would use.  Non-finite matrices, near-singular
    ones and strongly coherent ones are not certified.
    """
    diag = np.einsum("kii->ki", mats).real
    with np.errstate(all="ignore"):
        radius = np.abs(mats).sum(axis=-1) - np.abs(diag)
        lo = (diag - radius).min(axis=-1)
        hi = (diag + radius).max(axis=-1)
        return (lo > 0) & (hi <= 0.5 * cond_threshold * lo)


def _well_conditioned(mats: np.ndarray, cond_threshold: float) -> np.ndarray:
    """Whether each matrix of a stack of Hermitian matrices has a finite
    2-norm condition number max|lambda| / min|lambda| of at most
    ``cond_threshold``.

    Matrices :func:`_gershgorin_certified` passes need no eigensolve; the
    rest get their eigenvalues from eigvalsh.  Matrices with non-finite
    entries, on which eigvalsh returns arbitrary values without an error,
    are never well conditioned.
    """
    ok = _gershgorin_certified(mats, cond_threshold)
    rest = np.nonzero(~ok)[0]
    rest = rest[np.isfinite(mats[rest]).all(axis=(-2, -1))]
    if rest.size:
        with np.errstate(all="ignore"):
            lam = np.abs(np.linalg.eigvalsh(mats[rest]))
            cond = lam.max(axis=-1) / lam.min(axis=-1)
        ok[rest] = np.isfinite(cond) & (cond <= cond_threshold)
    return ok


def invert_spectral_matrix(
    field: SpectralField,
    cond_threshold: float = COND_THRESHOLD,
    ridge_fractions: tuple[float, ...] = RIDGE_FRACTIONS,
) -> InverseField:
    """Invert the d x d matrix at every ordinate, with ridge escalation.

    Ordinates whose condition number (from the eigenvalues, the matrices
    being Hermitian; see :func:`_well_conditioned`) exceeds
    ``cond_threshold`` get diagonal loading eps*(trace/d)*I with eps
    escalating through ``ridge_fractions`` until the condition number
    passes; the applied eps is recorded.  If no step passes, the ordinate is
    flagged singular (NaN inverse) rather than aborting the run.
    """
    values = _as_matrix_field(field)
    d = field.d
    shape = values.shape[:3]
    flat = values.reshape(-1, d, d)
    n = flat.shape[0]

    work = flat.copy()
    ridge = np.zeros(n)
    bad = ~_well_conditioned(work, cond_threshold)
    eye = np.eye(d)
    for eps in ridge_fractions:
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        tr = np.einsum("kii->k", flat[idx]).real / d
        candidate = flat[idx] + (eps * tr)[:, None, None] * eye
        ok = _well_conditioned(candidate, cond_threshold)
        work[idx[ok]] = candidate[ok]
        ridge[idx[ok]] = eps
        bad[idx[ok]] = False
    singular = bad

    inv = np.full_like(flat, np.nan)
    good = ~singular
    if good.any():
        inv[good] = np.linalg.inv(work[good])
    return InverseField(
        values=inv.reshape(values.shape),
        ridge=ridge.reshape(shape),
        singular=singular.reshape(shape),
        grid=field.grid,
        labels=field.labels,
        cond_threshold=cond_threshold,
    )


def rescaled_inverse_density(inv: InverseField, i: int, j: int) -> np.ndarray:
    """|d_ij| = |b_ij| / sqrt(b_ii * b_jj) per ordinate, in [0,1] up to
    rounding; NaN where the ordinate is flagged singular."""
    if i == j:
        raise ValidationError("|d_ii| is excluded by contract")
    bij = inv.entry(i, j)
    den2 = inv.entry(i, i).real * inv.entry(j, j).real
    out = np.full(bij.shape, np.nan)
    ok = ~inv.singular & (den2 > 0)
    np.divide(np.abs(bij), np.sqrt(np.where(den2 > 0, den2, 1.0)), out=out, where=ok)
    return out


def partial_coherency(inv: InverseField, i: int, j: int) -> np.ndarray:
    """Complex partial coherency -b_ij / sqrt(b_ii * b_jj), conditioned on
    all components except i and j."""
    if i == j:
        raise ValidationError("partial coherency needs i != j")
    bij = inv.entry(i, j)
    den2 = inv.entry(i, i).real * inv.entry(j, j).real
    out = np.full(bij.shape, np.nan, dtype=complex)
    ok = ~inv.singular & (den2 > 0)
    den = np.sqrt(np.where(den2 > 0, den2, 1.0))
    np.divide(-bij, den, out=out, where=ok)
    return out


def partial_field(
    field: SpectralField,
    cond_threshold: float = COND_THRESHOLD,
    ridge_fractions: tuple[float, ...] = RIDGE_FRACTIONS,
) -> PartialField:
    """All-pairs partial statistics through the inverse route.

    The pair-conditioned spectra come from the 2x2 block identity: with
    B the inverse matrix and det = b_ii*b_jj - |b_ij|^2,
    f_ij|rest = -b_ij/det,  f_ii|rest = b_jj/det.
    """
    inv = invert_spectral_matrix(field, cond_threshold, ridge_fractions)
    b = inv.values
    d = inv.d
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
    if inv.singular.any():
        mask = inv.singular[..., None, None]
        coherency[np.broadcast_to(mask, coherency.shape)] = np.nan
        abs_d[np.broadcast_to(mask, abs_d.shape)] = np.nan
        cross[np.broadcast_to(mask, cross.shape)] = np.nan
        auto[np.broadcast_to(mask, auto.shape)] = np.nan
    return PartialField(
        coherency=coherency,
        abs_d=abs_d,
        cross=cross,
        auto=auto,
        ridge=inv.ridge,
        singular=inv.singular,
        grid=inv.grid,
        labels=inv.labels,
    )


@dataclass(frozen=True, eq=False)
class PairConditional:
    """Direct-route pair statistics: f_ij|rest, the two conditional autos,
    and the normalised complex coherency."""

    cross: np.ndarray
    auto_i: np.ndarray
    auto_j: np.ndarray
    coherency: np.ndarray
    conditioning: tuple[int, ...]


def partial_cross_spectrum_direct(
    field: SpectralField,
    i: int,
    j: int,
    conditioning: tuple[int, ...] | list[int] | None = None,
) -> PairConditional:
    """Direct (d-2)-dimensional route:
    f_ij|rest = f_ij - f_i,rest * f_rest,rest^{-1} * f_rest,j.

    ``conditioning`` defaults to every component except i and j; pass an
    explicit tuple to condition on a subset.  With an empty conditioning set
    (d = 2) the partial quantities reduce to the ordinary ones exactly.
    """
    d = field.d
    if i == j:
        raise ValidationError("need i != j")
    for k in (i, j):
        if not 1 <= k <= d:
            raise ValidationError(f"component {k} outside 1..{d}")
    if conditioning is None:
        rest = tuple(k for k in range(1, d + 1) if k not in (i, j))
    else:
        rest = tuple(conditioning)
        if len(set(rest)) != len(rest):
            raise ValidationError("conditioning set holds duplicates")
        if i in rest or j in rest:
            raise ValidationError("conditioning set cannot contain i or j")
        for k in rest:
            if not 1 <= k <= d:
                raise ValidationError(f"component {k} outside 1..{d}")

    f_ij = field.entry(i, j)
    f_ii = field.entry(i, i)
    f_jj = field.entry(j, j)
    if not rest:
        cross = f_ij.copy()
        auto_i = f_ii.real.copy()
        auto_j = f_jj.real.copy()
    else:
        ridx = [k - 1 for k in rest]
        f_RR = field.values[..., ridx, :][..., :, ridx]
        f_Ri = field.values[..., ridx, [i - 1] * len(ridx)][..., None]
        f_Rj = field.values[..., ridx, [j - 1] * len(ridx)][..., None]
        rhs = np.concatenate([f_Ri, f_Rj], axis=-1)
        try:
            solved = np.linalg.solve(f_RR, rhs)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "conditioning block is singular; smooth more broadly or drop "
                "components"
            )
        x_i, x_j = solved[..., 0], solved[..., 1]
        f_iR_xj = (np.conj(f_Ri[..., 0]) * x_j).sum(axis=-1)
        f_iR_xi = (np.conj(f_Ri[..., 0]) * x_i).sum(axis=-1)
        f_jR_xj = (np.conj(f_Rj[..., 0]) * x_j).sum(axis=-1)
        cross = f_ij - f_iR_xj
        auto_i = (f_ii - f_iR_xi).real
        auto_j = (f_jj - f_jR_xj).real

    den2 = auto_i * auto_j
    coherency = np.full(cross.shape, np.nan, dtype=complex)
    ok = den2 > 0
    np.divide(cross, np.sqrt(np.where(ok, den2, 1.0)), out=coherency, where=ok)
    return PairConditional(
        cross=cross,
        auto_i=auto_i,
        auto_j=auto_j,
        coherency=coherency,
        conditioning=rest,
    )


def partial_coherence_three(
    field: SpectralField, i: int, j: int, k: int
) -> np.ndarray:
    """Three-component shortcut: partial coherency of (i,j) given k alone,

        R_ij|k = (R_ij - R_ik * R_kj) / sqrt((1-|R_ik|^2) * (1-|R_jk|^2)),

    with complex coherencies R_ab = f_ab / sqrt(f_aa * f_bb) throughout.
    This is the composition that reproduces the matrix-inversion route (the
    numerator product is conjugate-ordered, the denominator terms are real).
    Perfect collinearity with k (|R| -> 1) raises a singularity error.
    """
    if len({i, j, k}) != 3:
        raise ValidationError("i, j, k must be distinct")

    def coherency_of(a, b):
        den2 = field.entry(a, a).real * field.entry(b, b).real
        if (den2 <= 0).any():
            point = np.unravel_index(int(np.argmax(den2 <= 0)), field.grid.shape)
            raise SingularMatrixError("vanishing auto-spectrum", grid_point=point)
        return field.entry(a, b) / np.sqrt(den2)

    r_ij = coherency_of(i, j)
    r_ik = coherency_of(i, k)
    r_kj = coherency_of(k, j)
    m_ik = (r_ik * np.conj(r_ik)).real
    m_jk = (np.conj(r_kj) * r_kj).real
    bad = (m_ik >= 1.0) | (m_jk >= 1.0)
    if bad.any():
        point = np.unravel_index(int(np.argmax(bad)), field.grid.shape)
        w = (
            int(field.grid.p_values[point[0]]),
            int(field.grid.q_values[point[1]]),
            int(field.grid.u_values[point[2]]),
        )
        raise SingularMatrixError(
            "component perfectly coherent with the conditioning component",
            grid_point=w,
        )
    return (r_ij - r_ik * r_kj) / np.sqrt((1.0 - m_ik) * (1.0 - m_jk))


def partial_dot_spectrum(
    field: SpectralField,
    i: int,
    K: tuple[int, ...] | list[int],
    J: tuple[int, ...] | list[int] = (),
) -> np.ndarray:
    """Aggregated conditional cross-spectrum f_iK|J with f_iK = sum over K of
    the pairwise cross-spectra (the superposition of K), conditioned on J by
    the direct formula.  J empty gives the unconditioned aggregate."""
    d = field.d
    K = tuple(K)
    J = tuple(J)
    if not K:
        raise ValidationError("K must be non-empty")
    overlap = ({i} | set(J)) & set(K)
    if overlap:
        raise ValidationError(f"K overlaps i/J: {sorted(overlap)}")
    if i in J:
        raise ValidationError("i cannot appear in J")
    if len(set(K)) != len(K) or len(set(J)) != len(J):
        raise ValidationError("K and J must not hold duplicates")
    for k in K + J:
        if not 1 <= k <= d:
            raise ValidationError(f"component {k} outside 1..{d}")

    kidx = [k - 1 for k in K]
    f_iK = field.values[..., i - 1, kidx].sum(axis=-1)
    if not J:
        return f_iK
    jidx = [k - 1 for k in J]
    f_JJ = field.values[..., jidx, :][..., :, jidx]
    f_Ji = field.values[..., jidx, [i - 1] * len(jidx)][..., None]
    f_JK = field.values[..., jidx, :][..., :, kidx].sum(axis=-1, keepdims=True)
    try:
        solved = np.linalg.solve(f_JJ, f_JK)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("conditioning block f_JJ is singular")
    correction = (np.conj(f_Ji[..., 0]) * solved[..., 0]).sum(axis=-1)
    return f_iK - correction
