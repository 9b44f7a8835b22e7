"""Lag-domain back-transformation: symmetry, deltas, round trips."""

import numpy as np
import pytest

from conftest import with_values
from oracles import forward_from_lags, inverse_sum
from stspectra import (
    FrequencyGrid,
    SimSpec,
    dft,
    inverse_transform,
    partial_cross_lags,
    partial_field,
    partial_lag_characteristics,
    periodogram_matrix,
    scaled_covariance,
    simulate,
    smooth_spectra,
    symmetrise_scalar,
)
from stspectra.errors import SingularMatrixError, SymmetryError, ValidationError


@pytest.fixture(scope="module")
def smoothed(trio_pattern, small_grid):
    raw = periodogram_matrix(dft(trio_pattern, small_grid))
    return smooth_spectra(raw, (1, 1, 1))


def phase_field(grid, T, a0, b0, h0):
    """f(w) = exp(-2*pi*i*(p*a0/Ps + q*b0/Qs + u*h0/T)) on the half-grid.

    Its inverse transform is exactly the indicator of the lag-lattice point
    (a0/Ps, b0/Qs, h0).
    """
    Ps = 2 * grid.p_max + 1
    Qs = 2 * max(grid.q_max, -grid.q_min) + 1
    p = grid.p_values[:, None, None]
    q = grid.q_values[None, :, None]
    u = grid.u_values[None, None, :]
    return np.exp(-2j * np.pi * (p * a0 / Ps + q * b0 / Qs + u * h0 / T))


class TestSymmetrise:
    def test_full_cube_mirrors_conjugate(self, smoothed):
        vals = smoothed.entry(1, 2)
        full, p_full, q_full, u_full = symmetrise_scalar(
            vals, smoothed.grid, smoothed.T
        )
        assert p_full.tolist() == list(range(-4, 5))
        assert q_full.tolist() == list(range(-4, 5))
        assert u_full.tolist() == list(range(-1, 3))
        # stored half lands unchanged
        P = smoothed.grid.p_max
        assert np.array_equal(full[P:], vals)
        # mirrored half is the conjugate at the negated ordinate (u mod T)
        T = smoothed.T
        for a, p in enumerate(p_full):
            if p >= 0:
                continue
            for b, q in enumerate(q_full):
                for c, u in enumerate(u_full):
                    um = ((-u - (-1)) % T) - 1
                    src = vals[-p, -q - smoothed.grid.q_min, um + 1]
                    assert full[a, b, c] == np.conj(src)

    def test_u_range_must_cover_period(self, smoothed):
        grid = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=0, u_max=0)
        vals = np.ones(grid.shape, dtype=complex)
        with pytest.raises(SymmetryError):
            symmetrise_scalar(vals, grid, T=2)

    def test_asymmetric_q_range_rejected(self):
        grid = FrequencyGrid(p_max=2, q_min=-1, q_max=2, u_min=0, u_max=0)
        vals = np.ones(grid.shape, dtype=complex)
        with pytest.raises(SymmetryError):
            symmetrise_scalar(vals, grid, T=1)

    def test_asymmetric_q_range_rejected_without_mirror_planes(self):
        # p_max = 0 leaves no plane to mirror, but the smoothing did not
        # mirror this grid either, so its p = 0 plane is not symmetric
        grid = FrequencyGrid(p_max=0, q_min=-1, q_max=2, u_min=0, u_max=0)
        vals = np.ones(grid.shape, dtype=complex)
        with pytest.raises(SymmetryError, match="symmetric about 0"):
            symmetrise_scalar(vals, grid, T=1)
        with pytest.raises(SymmetryError, match="symmetric about 0"):
            inverse_transform(vals, grid, T=1)

    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(ValidationError):
            symmetrise_scalar(np.ones((2, 2, 2), dtype=complex), small_grid, T=4)


class TestAnalyticDeltas:
    def test_constant_field_is_origin_atom(self):
        grid = FrequencyGrid(p_max=3, q_min=-2, q_max=2, u_min=-1, u_max=1)
        vals = np.full(grid.shape, 2.5, dtype=complex)
        lag = inverse_transform(vals, grid, T=3)
        expected = np.zeros(lag.values.shape)
        expected[lag.origin_index] = 2.5
        assert np.abs(lag.values - expected).max() < 1e-12
        assert lag.zero_lag == pytest.approx(2.5, abs=1e-12)
        assert np.abs(lag.continuous_part()).max() < 1e-12

    def test_phase_field_is_shifted_atom(self):
        grid = FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=-1, u_max=2)
        T = 4
        a0, b0, h0 = 2, -3, -1
        lag = inverse_transform(phase_field(grid, T, a0, b0, h0), grid, T)
        # the lattice runs over p, q in -3..3
        ia, ib = a0 + 3, b0 + 3
        ic = int(np.nonzero(lag.h == h0)[0][0])
        expected = np.zeros(lag.values.shape)
        expected[ia, ib, ic] = 1.0
        assert np.abs(lag.values - expected).max() < 1e-12
        assert lag.c_x[ia] == pytest.approx(a0 / 7)
        assert lag.c_y[ib] == pytest.approx(b0 / 7)

    def test_lag_lattice_geometry(self):
        grid = FrequencyGrid(p_max=4, q_min=-4, q_max=4, u_min=-1, u_max=2)
        lag = inverse_transform(np.ones(grid.shape, dtype=complex), grid, T=4)
        assert np.allclose(lag.c_x, np.arange(-4, 5) / 9.0)
        assert np.allclose(lag.c_y, np.arange(-4, 5) / 9.0)
        assert lag.h.tolist() == [-1, 0, 1, 2]
        assert lag.origin_index == (4, 4, 1)


def t8_partial_cross():
    """The partial cross-spectrum of components 1 and 2 given 3, at T=8 on
    a grid whose u range holds the 8 temporal ordinates -3..4."""
    spec = SimSpec(kind="homogeneous_poisson", rates=(30.0, 40.0, 50.0), T=8, seed=3)
    grid = FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=-3, u_max=4)
    raw = periodogram_matrix(dft(simulate(spec).pattern, grid))
    pf = partial_field(smooth_spectra(raw, (1, 1, 1)))
    return pf.cross[..., 0, 1], grid, 8


class TestDefinitionalSum:
    """The FFT against the inverse sum written out with complex
    exponentials, to 1e-12 of the field scale."""

    def check(self, vals, grid, T):
        lag = inverse_transform(vals, grid, T)
        expected = inverse_sum(vals, grid, T)
        scale = np.abs(expected).max()
        assert np.abs(lag.values - expected.real).max() < 1e-12 * scale
        assert np.abs(expected.imag).max() < 1e-12 * scale

    def test_smoothed_entries(self, smoothed):
        for i, j in ((1, 1), (1, 2), (2, 3)):
            self.check(smoothed.entry(i, j), smoothed.grid, smoothed.T)

    def test_analytic_fields(self):
        grid = FrequencyGrid(p_max=3, q_min=-2, q_max=2, u_min=-1, u_max=1)
        self.check(np.full(grid.shape, 2.5, dtype=complex), grid, 3)
        grid = FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=-1, u_max=2)
        self.check(phase_field(grid, 4, 2, -3, -1), grid, 4)

    def test_t8_partial_cross_field(self):
        self.check(*t8_partial_cross())


class TestRoundTrip:
    def test_forward_recovers_symmetrised_field(self, smoothed):
        for i, j in ((1, 1), (1, 2), (2, 3)):
            vals = smoothed.entry(i, j)
            full, *_ = symmetrise_scalar(vals, smoothed.grid, smoothed.T)
            lag = inverse_transform(vals, smoothed.grid, smoothed.T)
            back = forward_from_lags(lag)
            scale = np.abs(full).max()
            assert np.abs(back - full).max() < 1e-8 * scale

    def test_auto_has_real_route(self, smoothed):
        vals = smoothed.entry(2, 2)
        lag = inverse_transform(vals, smoothed.grid, smoothed.T)
        assert lag.values.dtype == np.float64

    def test_asymmetric_field_rejected(self, smoothed):
        vals = smoothed.entry(1, 2).copy()
        # break f(0,-q,-u) = conj(f(0,q,u)) inside the stored half
        vals[0, 6, 2] += 0.5j * max(np.abs(vals).max(), 1.0)
        with pytest.raises(SymmetryError):
            inverse_transform(vals, smoothed.grid, smoothed.T)


class TestPartialLags:
    def test_autos_real_and_cross_pair_swap(self, smoothed):
        T = smoothed.T
        ij = partial_lag_characteristics(smoothed, 1, 2)
        ji = partial_lag_characteristics(smoothed, 2, 1)
        assert ij.conditioning == (3,)
        # kappa_ij(c, h) = kappa_ji(-c, -h) with h wrapped modulo T
        u_min = int(ij.cross.h.min())
        for ic, h in enumerate(ij.cross.h):
            hm = ((-int(h) - u_min) % T) + u_min
            jc = int(np.nonzero(ji.cross.h == hm)[0][0])
            swapped = ji.cross.values[::-1, ::-1, jc]
            assert np.abs(ij.cross.values[..., ic] - swapped).max() < 1e-10

    def test_kinds_and_pairs(self, smoothed):
        out = partial_lag_characteristics(smoothed, 1, 3)
        assert out.auto_i.kind == "partial_auto"
        assert out.auto_i.pair == (1, 1)
        assert out.cross.kind == "partial_cross"
        assert out.cross.pair == (1, 3)

    def test_explicit_conditioning(self, smoothed):
        out = partial_lag_characteristics(smoothed, 1, 2, conditioning=())
        plain = inverse_transform(
            smoothed.entry(1, 2), smoothed.grid, smoothed.T
        )
        assert np.abs(out.cross.values - plain.values).max() < 1e-12
        assert out.conditioning == ()


    def test_all_rest_lags_read_the_ridged_partial_field(self, smoothed):
        # duplicate component 2 as component 3 at (p=1, q=0, u=0): exactly
        # rank deficient there, still Hermitian PSD and conjugate symmetric
        vals = smoothed.values.copy()
        point = (1, -smoothed.grid.q_min, -smoothed.grid.u_min)
        vals[point + (2,)] = vals[point + (1,)]
        vals[point + (slice(None), 2)] = vals[point + (slice(None), 1)]
        field = with_values(smoothed, vals)
        pf = partial_field(field)
        assert pf.ridge[point] > 0.0 and not pf.singular.any()
        lags = partial_cross_lags(pf, field.T)
        assert [lag.pair for lag in lags] == [(1, 2), (1, 3), (2, 3)]
        for lag in lags:
            i, j = lag.pair
            ref = inverse_transform(pf.cross[..., i - 1, j - 1], field.grid, field.T)
            assert np.array_equal(lag.values, ref.values)
        part = partial_lag_characteristics(field, 1, 2)
        assert np.array_equal(part.cross.values, lags[0].values)
        for lag, (a, b) in ((part.auto_i, (0, 1)), (part.auto_j, (1, 0))):
            auto = pf.auto[..., a, b].astype(complex)
            ref = inverse_transform(auto, field.grid, field.T)
            assert np.array_equal(lag.values, ref.values)

    def test_singular_ordinate_raises_with_its_grid_point(self, smoothed):
        vals = smoothed.values.copy()
        vals[2, 1, 3] = 0.0
        field = with_values(smoothed, vals)
        where = (2, int(field.grid.q_values[1]), int(field.grid.u_values[3]))
        pf = partial_field(field)
        for call in (
            lambda: partial_cross_lags(pf, field.T),
            lambda: partial_lag_characteristics(field, 1, 3),
        ):
            with pytest.raises(SingularMatrixError) as err:
                call()
            assert err.value.grid_point == where


class TestScaledCovariance:
    def test_scaling_and_kind(self, smoothed):
        lag = inverse_transform(
            smoothed.entry(1, 2), smoothed.grid, smoothed.T, kind="covariance"
        )
        scaled = scaled_covariance(lag, 4.0, 9.0)
        assert np.allclose(scaled.values, lag.values / 6.0)
        assert scaled.kind == "scaled_covariance"
        assert scaled.pair == lag.pair

    def test_positive_intensities_required(self, smoothed):
        lag = inverse_transform(smoothed.entry(1, 1), smoothed.grid, smoothed.T)
        with pytest.raises(ValidationError):
            scaled_covariance(lag, 0.0, 1.0)
        with pytest.raises(ValidationError):
            scaled_covariance(lag, 1.0, -2.0)
