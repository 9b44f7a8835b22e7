"""Back-transformation of spectral fields to spatio-temporal lag domain.

Fields are estimated on the half-grid p >= 0; the transform first
mirror-extends them by conjugate symmetry f(-w) = conj(f(w)), then applies
the discrete inverse sum with the exp(+i...) kernel and 1/|grid|
normalisation on the conjugate lag lattice (spatial lags on multiples of
1/(2*p_max+1), integer time lags).  On that lattice the forward and inverse
sums are an exact transform pair, which the round-trip tests pin down.

The zero-lag ordinate carries the point-mass (Dirac) part of the covariance
and is reported separately from the continuous part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SymmetryError, ValidationError
from .partial import partial_cross_spectrum_direct
from .spectra import FrequencyGrid, SpectralField

__all__ = [
    "LagField",
    "PartialLagSet",
    "symmetrise_scalar",
    "inverse_transform",
    "forward_from_lags",
    "partial_lag_characteristics",
    "partial_cross_lags",
    "scaled_covariance",
]

IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LagField:
    """A real field over spatio-temporal lags.

    c_x, c_y are spatial lags on the conjugate lattice of the frequency
    grid; h holds integer time lags.  ``zero_lag`` exposes the atom at the
    origin, which estimated covariances of point processes carry by
    construction; the rest of the field is the continuous part.
    """

    c_x: np.ndarray
    c_y: np.ndarray
    h: np.ndarray
    values: np.ndarray
    kind: str
    p_full: np.ndarray
    q_full: np.ndarray
    u_full: np.ndarray
    T: int
    pair: tuple[int, int] | None = None

    @property
    def origin_index(self) -> tuple[int, int, int]:
        return (
            int(np.nonzero(self.c_x == 0)[0][0]),
            int(np.nonzero(self.c_y == 0)[0][0]),
            int(np.nonzero(self.h == 0)[0][0]),
        )

    @property
    def zero_lag(self) -> float:
        return float(self.values[self.origin_index])

    def continuous_part(self) -> np.ndarray:
        out = self.values.copy()
        out[self.origin_index] = 0.0
        return out


@dataclass(frozen=True, eq=False)
class PartialLagSet:
    """Lag-domain partial characteristics of one pair."""

    auto_i: LagField
    auto_j: LagField
    cross: LagField
    conditioning: tuple[int, ...]


def symmetrise_scalar(
    values: np.ndarray, grid: FrequencyGrid, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mirror-extend a half-grid scalar field to the full symmetric cube.

    Returns (full, p_full, q_full, u_full) with p and q symmetric about 0
    and u kept as the T consecutive temporal ordinates (mirroring wraps u
    modulo T, which the transform kernel cannot distinguish).  Points that
    can be filled both directly and by mirroring use the direct value; a
    point available neither way means the input grid is asymmetric and
    raises a symmetry error.
    """
    if values.shape != grid.shape:
        raise ValidationError("field shape disagrees with grid")
    U = grid.shape[2]
    if U != T:
        raise SymmetryError(
            f"lag transform needs all {T} temporal ordinates, got {U}; "
            "use the default u range"
        )
    q_half = max(grid.q_max, -grid.q_min)
    p_full = np.arange(-grid.p_max, grid.p_max + 1)
    q_full = np.arange(-q_half, q_half + 1)
    u_full = grid.u_values

    full = np.empty((p_full.size, q_full.size, U), dtype=np.complex128)
    for a, p in enumerate(p_full):
        for b, q in enumerate(q_full):
            direct = p >= 0 and grid.q_min <= q <= grid.q_max
            for c, u in enumerate(u_full):
                if direct:
                    full[a, b, c] = values[p, q - grid.q_min, c]
                    continue
                pm, qm = -p, -q
                um = ((-u - grid.u_min) % T) + grid.u_min
                if pm >= 0 and grid.q_min <= qm <= grid.q_max:
                    full[a, b, c] = np.conj(
                        values[pm, qm - grid.q_min, um - grid.u_min]
                    )
                else:
                    raise SymmetryError(
                        f"cannot symmetrise: ordinate (p={p}, q={q}) has no "
                        "source on the half-grid; use a q range symmetric "
                        "about 0"
                    )
    return full, p_full, q_full, u_full


def inverse_transform(
    values: np.ndarray,
    grid: FrequencyGrid,
    T: int,
    kind: str = "covariance",
    pair: tuple[int, int] | None = None,
) -> LagField:
    """Discrete inverse transform of a Hermitian-symmetric scalar field.

    kappa(c, h) = (1/|grid|) * sum_w f(w) exp(+2*pi*i*(p*c_x + q*c_y + u*h/T))
    over the symmetrised grid.  The imaginary residue must stay below
    1e-9 of the field scale (it measures symmetry violation) and is then
    discarded; the result is real.
    """
    full, p_full, q_full, u_full = symmetrise_scalar(values, grid, T)
    Ps, Qs, U = full.shape
    c_x = p_full / float(Ps)
    c_y = q_full / float(Qs)
    h = u_full.copy()

    ep = np.exp((2j * np.pi) * np.multiply.outer(c_x, p_full.astype(float)))
    eq = np.exp((2j * np.pi) * np.multiply.outer(c_y, q_full.astype(float)))
    eu = np.exp((2j * np.pi / T) * np.multiply.outer(h.astype(float), u_full.astype(float)))
    out = np.einsum("ap,bq,cu,pqu->abc", ep, eq, eu, full, optimize=True)
    out /= Ps * Qs * U

    scale = max(float(np.abs(out).max()), 1e-300)
    residue = float(np.abs(out.imag).max())
    if residue > IMAG_RESIDUE_TOL * scale:
        raise SymmetryError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL:.0e} "
            "of the field scale; upstream grid or field is asymmetric"
        )
    return LagField(
        c_x=c_x,
        c_y=c_y,
        h=h,
        values=out.real.copy(),
        kind=kind,
        p_full=p_full,
        q_full=q_full,
        u_full=u_full,
        T=T,
        pair=pair,
    )


def forward_from_lags(lag: LagField) -> np.ndarray:
    """Forward transform of a lag field back onto the symmetrised frequency
    grid — the exact inverse of :func:`inverse_transform` on its lattice."""
    ep = np.exp(
        (-2j * np.pi) * np.multiply.outer(lag.p_full.astype(float), lag.c_x)
    )
    eq = np.exp(
        (-2j * np.pi) * np.multiply.outer(lag.q_full.astype(float), lag.c_y)
    )
    eu = np.exp(
        (-2j * np.pi / lag.T)
        * np.multiply.outer(lag.u_full.astype(float), lag.h.astype(float))
    )
    return np.einsum("pa,qb,uc,abc->pqu", ep, eq, eu, lag.values, optimize=True)


def partial_lag_characteristics(
    field: SpectralField,
    i: int,
    j: int,
    conditioning: tuple[int, ...] | None = None,
) -> PartialLagSet:
    """Lag-domain partial auto- and cross-covariances of the pair (i, j),
    conditioned on all remaining components unless an explicit set is given."""
    pc = partial_cross_spectrum_direct(field, i, j, conditioning)
    auto_i = inverse_transform(
        pc.auto_i.astype(complex), field.grid, field.T, kind="partial_auto", pair=(i, i)
    )
    auto_j = inverse_transform(
        pc.auto_j.astype(complex), field.grid, field.T, kind="partial_auto", pair=(j, j)
    )
    cross = inverse_transform(
        pc.cross, field.grid, field.T, kind="partial_cross", pair=(i, j)
    )
    return PartialLagSet(
        auto_i=auto_i, auto_j=auto_j, cross=cross, conditioning=pc.conditioning
    )


def partial_cross_lags(field: SpectralField) -> list[LagField]:
    """Lag-domain partial cross-covariances of every pair i < j, each
    conditioned on all remaining components, in pair order."""
    lags = []
    for i in range(1, field.d + 1):
        for j in range(i + 1, field.d + 1):
            pc = partial_cross_spectrum_direct(field, i, j)
            lags.append(
                inverse_transform(
                    pc.cross, field.grid, field.T, kind="partial_cross", pair=(i, j)
                )
            )
    return lags


def scaled_covariance(lag: LagField, lambda_i: float, lambda_j: float) -> LagField:
    """Intensity-scaled covariance tau = zeta / sqrt(lambda_i * lambda_j).

    The scale-free analogue of a correlation; the infinitesimal-prefactor
    correlation itself is deliberately not computed on a discrete lag
    lattice."""
    if lambda_i <= 0 or lambda_j <= 0:
        raise ValidationError("intensities must be positive")
    return replace(
        lag,
        values=lag.values / np.sqrt(lambda_i * lambda_j),
        kind=f"scaled_{lag.kind}",
    )
