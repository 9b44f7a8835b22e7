"""Back-transformation of spectral fields to spatio-temporal lag domain.

Fields are estimated on the half-grid p >= 0; the transform first
mirror-extends them by conjugate symmetry f(-w) = conj(f(w)), then applies
the discrete inverse sum with the exp(+i...) kernel and 1/|grid|
normalisation, as one inverse FFT, on the conjugate lag lattice (spatial
lags on multiples of 1/(2*p_max+1), integer time lags).  On that lattice
the forward and inverse sums are an exact transform pair, which the
round-trip tests pin down against a forward-sum oracle, and the inverse
sum written out with complex exponentials is the test oracle of the FFT.

The zero-lag ordinate carries the point-mass (Dirac) part of the covariance
and is reported separately from the continuous part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SymmetryError, ValidationError
from .partial import PartialField, _require_nonsingular, partial_cross_spectrum_direct
from .spectra import (
    FrequencyGrid,
    SpectralField,
    _component_indices,
    _mirror_planes,
    _mirror_refusal,
)

__all__ = [
    "LagField",
    "PartialLagSet",
    "symmetrise_scalar",
    "inverse_transform",
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


def _require_mirror(grid: FrequencyGrid, T: int) -> None:
    """Raise the symmetry error for a grid whose fields have no lag
    transform, because the conjugate mirror refuses it."""
    refusal = _mirror_refusal(grid, T)
    if refusal is not None:
        raise SymmetryError(f"cannot symmetrise: {refusal}")


def symmetrise_scalar(
    values: np.ndarray, grid: FrequencyGrid, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mirror-extend a half-grid scalar field to the full symmetric cube.

    Returns (full, p_full, q_full, u_full) with p in -p_max..p_max, q the
    grid's q range and u the T consecutive temporal ordinates.  The planes
    p < 0 are the conjugate mirrors of the planes p > 0, under the rule the
    smoothing applies too (mirroring wraps u modulo T, which the transform
    kernel cannot distinguish).  A grid the rule refuses, with a q range not
    symmetric about 0 or a u range short of all T temporal ordinates, raises
    a symmetry error.
    """
    if values.shape != grid.shape:
        raise ValidationError("field shape disagrees with grid")
    _require_mirror(grid, T)
    mirrored = _mirror_planes(values, grid, np.arange(grid.p_max, 0, -1))
    full = np.concatenate([mirrored, values]).astype(np.complex128)
    p_full = np.arange(-grid.p_max, grid.p_max + 1)
    return full, p_full, grid.q_values, grid.u_values


def inverse_transform(
    values: np.ndarray,
    grid: FrequencyGrid,
    T: int,
    kind: str = "covariance",
    pair: tuple[int, int] | None = None,
) -> LagField:
    """Discrete inverse transform of a Hermitian-symmetric scalar field.

    kappa(c, h) = (1/|grid|) * sum_w f(w) exp(+2*pi*i*(p*c_x + q*c_y + u*h/T))
    over the symmetrised grid, as one inverse FFT: the cube is rolled so
    that ordinate 0 comes first on every axis, and the result is rolled
    back so that lag 0 sits where ordinate 0 sat.  The imaginary residue
    must stay below 1e-9 of the field scale (it measures symmetry
    violation) and is then discarded; the result is real.
    """
    full, p_full, q_full, u_full = symmetrise_scalar(values, grid, T)
    origin = (grid.p_max, grid.q_max, -grid.u_min)
    out = np.fft.ifftn(np.roll(full, [-o for o in origin], axis=(0, 1, 2)))
    out = np.roll(out, origin, axis=(0, 1, 2))

    scale = max(float(np.abs(out).max()), 1e-300)
    residue = float(np.abs(out.imag).max())
    if residue > IMAG_RESIDUE_TOL * scale:
        raise SymmetryError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL:.0e} "
            "of the field scale; upstream grid or field is asymmetric"
        )
    return LagField(
        c_x=p_full / float(full.shape[0]),
        c_y=q_full / float(full.shape[1]),
        h=u_full,
        values=out.real.copy(),
        kind=kind,
        pair=pair,
    )


def partial_lag_characteristics(
    field: SpectralField,
    i: int,
    j: int,
    conditioning: tuple[int, ...] | None = None,
) -> PartialLagSet:
    """Lag-domain partial auto- and cross-covariances of the pair (i, j),
    conditioned on the set J = ``conditioning``, all remaining components
    when None: the inverse transforms of the spectra of
    :func:`partial_cross_spectrum_direct`, which for J = rest are those of
    ``partial_field(field)``."""
    if conditioning is None:
        _component_indices(field.d, (i, j))
        conditioning = tuple(k for k in range(1, field.d + 1) if k not in (i, j))
    pc = partial_cross_spectrum_direct(field, i, j, conditioning)

    def lag(values, kind, pair):
        return inverse_transform(values, field.grid, field.T, kind=kind, pair=pair)

    return PartialLagSet(
        auto_i=lag(pc.auto_i.astype(complex), "partial_auto", (i, i)),
        auto_j=lag(pc.auto_j.astype(complex), "partial_auto", (j, j)),
        cross=lag(pc.cross, "partial_cross", (i, j)),
        conditioning=pc.conditioning,
    )


def partial_cross_lags(pf: PartialField, T: int) -> list[LagField]:
    """Lag-domain partial cross-covariances of every pair i < j, each
    conditioned on all remaining components, in pair order: the inverse
    transforms of ``pf.cross``, ridged as ``pf`` is."""
    _require_nonsingular(pf)
    return [
        inverse_transform(
            pf.cross[..., i - 1, j - 1], pf.grid, T, kind="partial_cross", pair=(i, j)
        )
        for i in range(1, pf.d + 1)
        for j in range(i + 1, pf.d + 1)
    ]


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
