"""Transforms, periodogram, smoothing, coherences, polar summaries.

The frozen constants below were computed independently: per-event cmath
terms accumulated with math.fsum, on the eight-event fixture from
conftest.  They pin the transform sign and normalisation conventions.
"""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stspectra

from stspectra import (
    FrequencyGrid,
    SimSpec,
    coherence,
    decompose_cross_spectrum,
    default_half_widths,
    dft,
    dot_spectrum,
    gain_dot_spectrum,
    gain_spectrum,
    marked_dft,
    multiple_coherence,
    periodogram_matrix,
    r_spectrum,
    simulate,
    simulate_binomial_null,
    smooth_spectra,
    theta_spectrum,
)
from stspectra.errors import ValidationError
from stspectra.spectra import EVENT_CHUNK, _axis_phases, _step_phases

from conftest import build_pattern
from oracles import (
    dft_exp,
    dft_separable,
    dot_multiple_gap,
    dot_spectra_from_transforms,
    exp_phases,
)

# point -> (component a value, component b value); grid point (p, q, u), T=2
DFT_ORACLE = {
    (0, 0, 0): (4.0 + 0.0j, 4.0 + 0.0j),
    (1, 0, 0): (
        complex(-0.46562989854022063, -0.6323569449352574),
        complex(0.8090169943749473, -0.41221474770752675),
    ),
    (0, 1, 0): (
        complex(-1.1917004267400375, -0.3360942802188137),
        complex(0.20710678118654724, 1.070378045189228),
    ),
    (1, -1, 1): (
        complex(-1.82935734848398, -0.7934511755999155),
        complex(-1.2744684537901254, -1.5511534279924892),
    ),
    (2, 3, 1): (
        complex(-2.9409530815263105, 0.9847554766910512),
        complex(-1.664043489010348, 0.5277352601856861),
    ),
}

MARKED_DFT_ORACLE = {
    (0, 0, 0): (0.0 + 0.0j, 0.0 + 0.0j),
    (1, 0, 0): (
        complex(1.6472946731131706, -2.8562037813049437),
        complex(1.971978923788935, -4.399807082853226),
    ),
    (0, 1, 0): (
        complex(-1.2777297192248451, -1.3204779441320589),
        complex(-4.850725076305953, -2.6339168473080283),
    ),
    (1, -1, 1): (
        complex(-0.23064491288809527, 3.4155335662563204),
        complex(0.8371033058162552, -5.8130673503146495),
    ),
    (2, 3, 1): (
        complex(-2.08336222686763, -2.7371968908440434),
        complex(-4.44221690762687, -1.8607768240589242),
    ),
}

PERIODOGRAM_ORACLE = {
    (1, 0, 0): complex(-0.02900891062263286, -0.1758817565288711),
    (2, 3, 1): complex(1.353391003627402, -0.021657824895460642),
}


# hashes dft and marked_dft at five (d, T) pairs, each at eight sizes (events
# per component) on the default grid, and at the same sizes on one wide grid
THREAD_HASH_SCRIPT = """
import hashlib, json
import numpy as np
from stspectra import FrequencyGrid, dft, marked_dft, simulate_binomial_null
SIZES = (150, 700, 1100, 1500, 2100, 3100, 5000, 9000)
cases = [
    (d, T, FrequencyGrid.default(T))
    for d, T in ((3, 4), (4, 8), (5, 5), (3, 1), (6, 12))
]
cases.append((3, 4, FrequencyGrid(p_max=32, q_min=-32, q_max=32, u_min=-1, u_max=2)))
digests = {}
for d, T, grid in cases:
    for n in SIZES:
        pat = simulate_binomial_null((n,) * d, T=T, seed=3)
        pat = pat.with_marks(np.random.default_rng(3).normal(5.0, 1.0, pat.n))
        for transform in (dft, marked_dft):
            key = f"{transform.__name__} d={d} T={T} n={n} grid={grid.shape}"
            values = transform(pat, grid).values
            digests[key] = hashlib.sha256(values.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def grid_index(grid, p, q, u):
    return (p, q - grid.q_min, u - grid.u_min)


class TestGrid:
    def test_default_shape_and_ranges(self):
        g4 = FrequencyGrid.default(4)
        assert g4.shape == (17, 33, 4)
        assert g4.u_values.tolist() == [-1, 0, 1, 2]
        g5 = FrequencyGrid.default(5)
        assert g5.shape == (17, 33, 5)
        assert g5.u_values.tolist() == [-2, -1, 0, 1, 2]

    def test_dc_index(self, small_grid):
        i = small_grid.dc_index
        assert small_grid.p_values[i[0]] == 0
        assert small_grid.q_values[i[1]] == 0
        assert small_grid.u_values[i[2]] == 0

    def test_sup_mask_excludes_dc_by_default(self, small_grid):
        mask = small_grid.sup_mask()
        assert not mask[small_grid.dc_index]
        assert mask.sum() == np.prod(small_grid.shape) - 1

    def test_sup_mask_refuses_a_dc_only_grid(self):
        grid = FrequencyGrid(p_max=0, q_min=0, q_max=0, u_min=0, u_max=0)
        with pytest.raises(
            ValidationError, match="no frequency ordinates left after DC exclusion"
        ):
            grid.sup_mask()

    def test_points_follow_unravel_order(self):
        # q range asymmetric about 0, u range short of any full period
        grid = FrequencyGrid(p_max=2, q_min=-1, q_max=3, u_min=-1, u_max=0)
        points = grid.points()
        assert points.shape == (grid.size, 3)
        for k, point in enumerate(points.tolist()):
            a, b, c = np.unravel_index(k, grid.shape)
            assert point == [grid.p_values[a], grid.q_values[b], grid.u_values[c]]

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(p_max=-1, q_min=0, q_max=0, u_min=0, u_max=0)
        with pytest.raises(ValidationError):
            FrequencyGrid(p_max=1, q_min=2, q_max=-2, u_min=0, u_max=0)

    def test_default_half_widths(self):
        assert default_half_widths(4) == (1, 1, 0)
        assert default_half_widths(5) == (1, 1, 1)


class TestDft:
    def test_hand_oracle_values(self, tiny_pattern, tiny_grid):
        d = dft(tiny_pattern, tiny_grid)
        for (p, q, u), (ea, eb) in DFT_ORACLE.items():
            idx = grid_index(tiny_grid, p, q, u)
            assert abs(d.values[0][idx] - ea) < 1e-12
            assert abs(d.values[1][idx] - eb) < 1e-12

    def test_dc_equals_counts(self, trio_pattern):
        grid = dataclasses.replace(
            FrequencyGrid.default(trio_pattern.T), p_max=2, q_min=-2, q_max=2
        )
        d = dft(trio_pattern, grid)
        dc = d.values[(slice(None),) + grid.dc_index]
        assert np.allclose(dc, trio_pattern.counts, atol=1e-9)
        assert np.abs(dc.imag).max() < 1e-10

    def test_direct_vs_separable(self, trio_pattern, small_grid):
        a = dft(trio_pattern, small_grid)
        b = dft_separable(trio_pattern, small_grid)
        tol = 1e-10 * trio_pattern.n
        assert np.abs(a.values - b.values).max() < tol

    def test_blas_threads_bitwise_identical(self):
        # the GEMM's reduction over events must not depend on how many
        # threads BLAS splits the product over
        script = (
            "import hashlib\n"
            "from stspectra import FrequencyGrid, dft, simulate_binomial_null\n"
            "pat = simulate_binomial_null((5000,) * 5, T=5, seed=11)\n"
            "v = dft(pat, FrequencyGrid.default(5)).values\n"
            "print(hashlib.sha256(v.tobytes()).hexdigest())\n"
        )
        src = str(Path(stspectra.__file__).resolve().parents[1])
        digests = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_transform_bytes_equal_at_one_two_and_four_blas_threads(self):
        # OpenBLAS 0.3.31 gave the short per-step products the same bytes at
        # every thread count tried; a size that moves is a kernel defect
        src = str(Path(stspectra.__file__).resolve().parents[1])
        digests = {}
        for blas_threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", THREAD_HASH_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests[blas_threads] = json.loads(proc.stdout)
        assert len(digests["1"]) == 2 * 6 * 8
        for blas_threads in ("2", "4"):
            moved = [k for k, v in digests["1"].items() if digests[blas_threads][k] != v]
            assert moved == [], f"bytes differ at {blas_threads} BLAS threads"

    def test_conjugate_symmetry_on_p0_plane(self, tiny_pattern):
        # T=2 holds two temporal ordinates, so -u is read modulo 2
        grid = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=0, u_max=1)
        d = dft(tiny_pattern, grid)
        v = d.values
        for q in range(-2, 3):
            for u in range(0, 2):
                a = v[(slice(None),) + grid_index(grid, 0, q, u)]
                b = v[(slice(None),) + grid_index(grid, 0, -q, -u % 2)]
                assert np.abs(a - np.conj(b)).max() < 1e-12

    def test_u_periodicity(self, tiny_pattern):
        # integer times make the transform exactly T-periodic in u: T=2,
        # so the u=1 and u=-1 planes coincide
        g1 = FrequencyGrid(p_max=1, q_min=-1, q_max=1, u_min=0, u_max=1)
        g2 = FrequencyGrid(p_max=1, q_min=-1, q_max=1, u_min=-1, u_max=0)
        a = dft(tiny_pattern, g1).values[..., 1]
        b = dft(tiny_pattern, g2).values[..., 0]
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize(
        "u_min, u_max, held",
        [(0, 2, 3), (-1, 1, 3), (-2, 0, 3), (-2, 2, 5)],
        ids=["U=T+1", "-1..1", "holds-T", "holds+-T"],
    )
    @pytest.mark.parametrize("transform", [dft, marked_dft], ids=["dft", "marked"])
    def test_u_range_beyond_T_refused(self, tiny_pattern, transform, u_min, u_max, held):
        # at T=2 the ordinate u=+-2 is DC's temporal ordinate again
        grid = FrequencyGrid(p_max=1, q_min=-1, q_max=1, u_min=u_min, u_max=u_max)
        with pytest.raises(ValidationError) as exc:
            transform(tiny_pattern, grid)
        assert str(exc.value) == (
            f"u range {u_min}..{u_max} holds {held} temporal ordinates, "
            "more than T=2; u is periodic modulo T"
        )

    def test_marked_dft_takes_no_threads_keyword(self, tiny_pattern, tiny_grid):
        with pytest.raises(TypeError):
            marked_dft(tiny_pattern, tiny_grid, threads=1)

    def test_counts_and_labels_carried(self, tiny_pattern, tiny_grid):
        d = dft(tiny_pattern, tiny_grid)
        assert d.counts.tolist() == [4, 4]
        assert d.labels == ("a", "b")


class TestMarkedDft:
    def test_hand_oracle_values(self, tiny_pattern, tiny_grid):
        md = marked_dft(tiny_pattern, tiny_grid)
        for (p, q, u), (ea, eb) in MARKED_DFT_ORACLE.items():
            idx = grid_index(tiny_grid, p, q, u)
            assert abs(md.values[0][idx] - ea) < 1e-12
            assert abs(md.values[1][idx] - eb) < 1e-12

    def test_constant_marks_zero_transform(self, tiny_pattern, tiny_grid):
        pat = tiny_pattern.with_marks(np.full(8, 3.25))
        md = marked_dft(pat, tiny_grid)
        assert np.abs(md.values).max() == 0.0

    def test_needs_marks(self, tiny_grid):
        pat = build_pattern([0.1, 0.9], [0.1, 0.9], [1, 1], [1, 2], ("a", "b"), T=1)
        with pytest.raises(ValidationError):
            marked_dft(pat, tiny_grid)


class TestPeriodogram:
    def test_frozen_cross_entries(self, tiny_pattern, tiny_grid):
        per = periodogram_matrix(dft(tiny_pattern, tiny_grid))
        fab = per.entry(1, 2)
        for (p, q, u), expected in PERIODOGRAM_ORACLE.items():
            idx = grid_index(tiny_grid, p, q, u)
            assert abs(fab[idx] - expected) < 1e-12

    def test_hermitian_exactly(self, trio_pattern, small_grid):
        per = periodogram_matrix(dft(trio_pattern, small_grid))
        assert per.hermitian_defect() == 0.0
        diag = per.values[..., np.arange(3), np.arange(3)]
        assert np.abs(diag.imag).max() == 0.0

    def test_rank_one_psd(self, tiny_pattern, tiny_grid):
        per = periodogram_matrix(dft(tiny_pattern, tiny_grid))
        eig = np.linalg.eigvalsh(per.values)
        trace = np.trace(per.values, axis1=-2, axis2=-1).real
        assert eig.min() >= -1e-12 * trace.max()
        # rank one: second eigenvalue vanishes
        assert np.abs(eig[..., :-1]).max() < 1e-10 * trace.max()

    def test_normalisation_none_is_plain_product(self, tiny_pattern, tiny_grid):
        d = dft(tiny_pattern, tiny_grid)
        plain = periodogram_matrix(d, normalisation="none")
        scaled = periodogram_matrix(d, normalisation="sqrt_counts")
        assert np.allclose(plain.values / 4.0, scaled.values, atol=1e-14)

    def test_unknown_normalisation(self, tiny_pattern, tiny_grid):
        with pytest.raises(ValidationError):
            periodogram_matrix(dft(tiny_pattern, tiny_grid), normalisation="trace")


def naive_box_average(values, grid, T, hw):
    """Loop reimplementation of the smoothing neighbourhood rules."""
    hp, hq, hu = hw
    P, Q, U = grid.shape
    wrap_u = U == T
    mirror_p = wrap_u and grid.q_min == -grid.q_max
    out = np.zeros_like(values)
    for ip in range(P):
        for iq in range(Q):
            for iu in range(U):
                acc = None
                cnt = 0
                for dp in range(-hp, hp + 1):
                    for dq in range(-hq, hq + 1):
                        for du in range(-hu, hu + 1):
                            jq = iq + dq
                            if not 0 <= jq < Q:
                                continue
                            if wrap_u:
                                ju = (iu + du) % U
                            else:
                                ju = iu + du
                                if not 0 <= ju < U:
                                    continue
                            jp = ip + dp
                            if 0 <= jp < P:
                                term = values[jp, jq, ju]
                            elif jp < 0 and mirror_p and -jp < P:
                                mq = (Q - 1) - jq
                                mu = (-2 * grid.u_min - ju) % U
                                term = np.conj(values[-jp, mq, mu])
                            else:
                                continue
                            acc = term.copy() if acc is None else acc + term
                            cnt += 1
                out[ip, iq, iu] = acc / cnt
    return out


# beyond the basic widths: a u window wider than the period T=4, and
# p half-widths reaching past p_max (mirror planes beyond the stored grid)
ORACLE_HALF_WIDTHS = ((2, 2, 1), (4, 4, 2), (3, 1, 1))


class TestSmoothing:
    def test_matches_naive_oracle(self, trio_pattern):
        grid = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=-1, u_max=2)
        raw = periodogram_matrix(dft(trio_pattern, grid))
        scale = np.abs(raw.values).max()
        for hw in ((1, 1, 1),) + ORACLE_HALF_WIDTHS:
            sm = smooth_spectra(raw, hw)
            expected = naive_box_average(raw.values, grid, trio_pattern.T, hw)
            assert np.abs(sm.values - expected).max() < 1e-13 * scale

    def test_oracle_without_wrap(self, trio_pattern):
        # U != T: no u-wrap, no p-mirror; edges truncate
        grid = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=0, u_max=1)
        raw = periodogram_matrix(dft(trio_pattern, grid))
        scale = np.abs(raw.values).max()
        for hw in ((1, 1, 1),) + ORACLE_HALF_WIDTHS:
            sm = smooth_spectra(raw, hw)
            expected = naive_box_average(raw.values, grid, trio_pattern.T, hw)
            assert np.abs(sm.values - expected).max() < 1e-13 * scale

    def test_asymmetric_q_truncates(self, trio_pattern):
        grid = FrequencyGrid(p_max=2, q_min=-1, q_max=2, u_min=-1, u_max=2)
        raw = periodogram_matrix(dft(trio_pattern, grid))
        scale = np.abs(raw.values).max()
        for hw in ((1, 1, 0),) + ORACLE_HALF_WIDTHS:
            sm = smooth_spectra(raw, hw)
            expected = naive_box_average(raw.values, grid, trio_pattern.T, hw)
            assert np.abs(sm.values - expected).max() < 1e-13 * scale

    def test_preserves_hermitian_exactly(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        for hw in ((1, 1, 1), (2, 2, 1)):
            assert smooth_spectra(raw, hw).hermitian_defect() == 0.0

    def test_preserves_psd(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        sm = smooth_spectra(raw, (2, 2, 1))
        eig = np.linalg.eigvalsh(sm.values)
        trace = np.trace(sm.values, axis1=-2, axis2=-1).real
        assert eig.min() >= -1e-12 * trace.max()

    def test_preserves_conjugate_symmetry(self, trio_pattern, small_grid):
        # f(-w) = conj(f(w)) on the stored p=0 plane survives smoothing
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        sm = smooth_spectra(raw, (1, 1, 1))
        g = small_grid
        scale = np.abs(sm.values).max()
        for q in range(g.q_min, g.q_max + 1):
            for u in range(g.u_min, g.u_max + 1):
                mu = -u
                if not g.u_min <= mu <= g.u_max:
                    mu = ((mu - g.u_min) % trio_pattern.T) + g.u_min
                a = sm.values[grid_index(g, 0, q, u)]
                b = sm.values[grid_index(g, 0, -q, mu)]
                assert np.abs(a - np.conj(b)).max() < 1e-14 * scale

    def test_smoothing_requires_raw_field(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        sm = smooth_spectra(raw, (1, 1, 0))
        with pytest.raises(ValidationError):
            smooth_spectra(sm, (1, 1, 0))

    def test_adequacy_flag(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            smooth_spectra(raw, (0, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            smooth_spectra(raw, (1, 1, 0))

    def test_default_half_widths_applied(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        sm = smooth_spectra(raw)
        assert sm.half_widths == default_half_widths(trio_pattern.T)

    def test_fractional_half_widths_refused(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        with pytest.raises(ValidationError) as exc:
            smooth_spectra(raw, (1.7, 0.5, 1.2))
        assert str(exc.value) == "half-widths must be whole numbers, got 1.7,0.5,1.2"
        whole = smooth_spectra(raw, (1.0, 1.0, 0.0))
        assert whole.half_widths == (1, 1, 0)
        assert whole.upper.tobytes() == smooth_spectra(raw, (1, 1, 0)).upper.tobytes()


@pytest.fixture(scope="module")
def smoothed(trio_pattern, small_grid):
    raw = periodogram_matrix(dft(trio_pattern, small_grid))
    return smooth_spectra(raw, (1, 1, 1))


class TestCoherence:
    def test_self_coherence_is_one(self, smoothed):
        c = coherence(smoothed, 2, 2)
        assert np.allclose(c, 1.0, atol=1e-12)

    def test_bounds(self, smoothed):
        for i in range(1, 4):
            for j in range(1, 4):
                c = coherence(smoothed, i, j)
                assert c.min() >= 0.0
                assert c.max() <= 1.0 + 1e-9

    def test_symmetric_in_pair(self, smoothed):
        assert np.allclose(coherence(smoothed, 1, 3), coherence(smoothed, 3, 1), atol=1e-14)

    def test_multiple_coherence_dominates_simple(self, smoothed):
        rm = multiple_coherence(smoothed, 1, [2, 3])
        assert rm.min() >= -1e-12
        assert rm.max() <= 1.0 + 1e-9
        for j in (2, 3):
            assert (rm - coherence(smoothed, 1, j) >= -1e-9).all()

    def test_multiple_coherence_single_regressor_reduces(self, smoothed):
        rm = multiple_coherence(smoothed, 1, [2])
        assert np.allclose(rm, coherence(smoothed, 1, 2), atol=1e-10)

    def test_index_validation(self, smoothed):
        with pytest.raises(ValidationError):
            coherence(smoothed, 0, 1)
        with pytest.raises(ValidationError):
            multiple_coherence(smoothed, 1, [1, 2])
        with pytest.raises(ValidationError, match=r"components \[1\.5\] are not whole"):
            smoothed.entry(1.5, 2)
        with pytest.raises(ValidationError, match=r"components \[2\.5\] are not whole"):
            coherence(smoothed, 1, 2.5)
        with pytest.raises(ValidationError, match=r"components \[2\.5\] are not whole"):
            multiple_coherence(smoothed, 1, [2.5])
        # whole floats name the components their ints name
        assert np.array_equal(smoothed.entry(2.0, 1), smoothed.entry(2, 1))


def dot_fields(pattern, grid, half_widths):
    """The transforms and the smoothed field under each normalisation."""
    dfts = dft(pattern, grid)
    return dfts, {
        norm: smooth_spectra(periodogram_matrix(dfts, norm), half_widths)
        for norm in ("none", "sqrt_counts")
    }


def assert_matches_transform_route(dfts, field, i):
    """dot_spectrum and gain_dot_spectrum of the field against the second
    periodogram of the superposition transform, within 1e-12 relative."""
    cross, auto_i, auto_dot, coh = dot_spectra_from_transforms(
        dfts, i, field.half_widths, field.normalisation
    )
    gain = np.zeros_like(auto_dot)
    np.divide(np.sqrt(auto_i * coh), auto_dot, out=gain, where=auto_dot > 0)
    ds = dot_spectrum(field, i)
    pairs = [
        (ds.cross, cross),
        (ds.auto_i, auto_i),
        (ds.auto_dot, auto_dot),
        (ds.coherence, coh),
        (gain_dot_spectrum(field, i), gain),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestDotSpectrum:
    def test_linearity_unnormalised(self, trio_pattern, small_grid):
        # F_dot = sum of the other components' transforms, exactly
        _, fields = dot_fields(trio_pattern, small_grid, (1, 1, 0))
        sm = fields["none"]
        ds = dot_spectrum(sm, 1)
        expected = sm.entry(1, 2) + sm.entry(1, 3)
        assert np.abs(ds.cross - expected).max() < 1e-10 * np.abs(expected).max()

    def test_coherence_invariant_to_normalisation(self, trio_pattern, small_grid):
        _, fields = dot_fields(trio_pattern, small_grid, (1, 1, 0))
        a = dot_spectrum(fields["none"], 2)
        b = dot_spectrum(fields["sqrt_counts"], 2)
        assert np.abs(a.coherence - b.coherence).max() < 1e-10

    def test_coherence_bounds(self, smoothed):
        for i in range(1, 4):
            ds = dot_spectrum(smoothed, i)
            assert ds.coherence.min() >= 0.0
            assert ds.coherence.max() <= 1.0 + 1e-9

    def test_two_components_match_plain_cross(self, tiny_pattern, tiny_grid):
        # d=2: the superposition of "everything but i" is just the other one
        dfts = dft(tiny_pattern, tiny_grid)
        per = smooth_spectra(periodogram_matrix(dfts), (1, 1, 0))
        ds = dot_spectrum(per, 1)
        assert np.abs(ds.cross - per.entry(1, 2)).max() < 1e-12

    @pytest.mark.parametrize("normalisation", ["none", "sqrt_counts"])
    def test_matches_transform_route(self, trio_pattern, small_grid, normalisation):
        dfts, fields = dot_fields(trio_pattern, small_grid, (1, 1, 1))
        for i in range(1, 4):
            assert_matches_transform_route(dfts, fields[normalisation], i)

    @pytest.mark.parametrize("normalisation", ["none", "sqrt_counts"])
    def test_matches_transform_route_with_absent_component(self, normalisation):
        # a T=1 slice in which component 3 has no events (count 0)
        rng = np.random.default_rng(11)
        x, y = rng.random((2, 90))
        t = np.repeat([1, 2], 45)
        type_id = np.where(t == 1, np.arange(90) % 2 + 1, np.arange(90) % 3 + 1)
        pattern = build_pattern(x, y, t, type_id, ("a", "b", "c"), T=2)
        sl = pattern.slice_time(1)
        assert sl.counts.tolist() == [23, 22, 0]
        grid = FrequencyGrid(p_max=4, q_min=-4, q_max=4, u_min=0, u_max=0)
        dfts, fields = dot_fields(sl, grid, (1, 1, 0))
        for i in range(1, 4):
            assert_matches_transform_route(dfts, fields[normalisation], i)
        assert not dot_spectrum(fields[normalisation], 3).coherence.any()

    def test_rejects_raw_field_and_bad_index(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        with pytest.raises(ValidationError):
            dot_spectrum(raw, 1)
        with pytest.raises(ValidationError):
            dot_spectrum(smooth_spectra(raw, (1, 1, 1)), 4)
        with pytest.raises(ValidationError, match=r"components \[1\.5\] are not whole"):
            dot_spectrum(smooth_spectra(raw, (1, 1, 1)), 1.5)
        sm = smooth_spectra(raw, (1, 1, 1))
        assert np.array_equal(dot_spectrum(sm, 2.0).cross, dot_spectrum(sm, 2).cross)

    def test_gap_diagnostic_small_but_nonzero(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        sm = smooth_spectra(raw, (1, 1, 1))
        gap = dot_multiple_gap(sm, 1)
        assert 0.0 <= gap <= 1.0

    def test_gap_invariant_to_normalisation(self, trio_pattern, small_grid):
        # unequal counts: both coherences ignore the count normalisation
        assert len(set(trio_pattern.counts.tolist())) == 3
        _, fields = dot_fields(trio_pattern, small_grid, (1, 1, 1))
        for i in range(1, 4):
            a = dot_multiple_gap(fields["none"], i)
            b = dot_multiple_gap(fields["sqrt_counts"], i)
            assert abs(a - b) <= 1e-12


class TestGainAndDecomposition:
    def test_self_gain(self, smoothed):
        g = gain_spectrum(smoothed, 1, 1)
        assert np.allclose(g, smoothed.entry(1, 1).real ** -0.5, atol=1e-12)

    def test_gain_nonnegative(self, smoothed):
        assert gain_spectrum(smoothed, 1, 2).min() >= 0.0

    def test_gain_dot_matches_definition(self, smoothed):
        ds = dot_spectrum(smoothed, 3)
        g = gain_dot_spectrum(smoothed, 3)
        expected = np.zeros_like(ds.auto_dot)
        np.divide(
            np.sqrt(ds.auto_i * ds.coherence),
            ds.auto_dot,
            out=expected,
            where=ds.auto_dot > 0,
        )
        assert np.allclose(g, expected, atol=1e-12)

    def test_decomposition_identities(self, smoothed):
        dec = decompose_cross_spectrum(smoothed, 1, 2)
        f = smoothed.entry(1, 2)
        assert np.allclose(dec.co, f.real, atol=1e-14)
        assert np.allclose(dec.quad, -f.imag, atol=1e-14)
        assert np.allclose(dec.amplitude, np.abs(f), atol=1e-14)
        assert np.allclose(dec.phase, np.angle(f), atol=1e-12)

    def test_phase_quadrants(self, tiny_pattern, tiny_grid):
        # real positive entry -> phase 0; diagonal is real positive
        per = periodogram_matrix(dft(tiny_pattern, tiny_grid))
        dec = decompose_cross_spectrum(per, 1, 1)
        assert np.allclose(dec.phase, 0.0, atol=1e-12)
        assert np.allclose(dec.quad, 0.0, atol=1e-14)


class TestPolar:
    def test_radius_membership_and_counts(self):
        grid = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=0, u_max=0)
        values = np.zeros(grid.shape)
        # mark the rho=1 ring: (0,+-1) and (1,0)
        values[grid_index(grid, 0, 1, 0)] = 6.0
        values[grid_index(grid, 0, -1, 0)] = 6.0
        values[grid_index(grid, 1, 0, 0)] = 6.0
        pol = r_spectrum(values, grid)
        assert pol.bins.tolist() == [1, 2, 3]
        assert pol.counts[0] == 3
        assert pol.row(1)[0] == 6.0
        # annulus 2 holds (1,+-1) rho=sqrt2, (2,0), (0,+-2), (1,+-2) rho=sqrt5... no:
        # ceil(sqrt5)=3. members of bin 2: rho in (1,2]: (1,1),(1,-1),(2,0),(0,2),(0,-2)
        assert pol.counts[1] == 5
        assert pol.counts.sum() == np.prod(grid.shape[:2]) - 1

    def test_angle_bands(self):
        grid = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=0, u_max=0)
        values = np.zeros(grid.shape)
        values[grid_index(grid, 1, 0, 0)] = 4.0  # atan2(1,0) = 90 degrees
        pol = theta_spectrum(values, grid)
        assert pol.bins.tolist() == list(range(0, 180, 10))
        assert pol.row(90)[0] > 0.0
        # (0,q) points all lie in the 0-degree band (0 or 180->0)
        mask = np.zeros(grid.shape)
        mask[grid_index(grid, 0, 2, 0)] = 1.0
        mask[grid_index(grid, 0, -2, 0)] = 1.0
        pol2 = theta_spectrum(mask, grid)
        band0 = pol2.row(0)
        assert band0[0] > 0.0

    def test_constant_field_all_bins_constant(self, small_grid):
        values = np.full(small_grid.shape, 2.5)
        pol = r_spectrum(values, small_grid)
        assert np.allclose(pol.values[pol.counts > 0], 2.5)
        ang = theta_spectrum(values, small_grid)
        assert np.allclose(ang.values[ang.counts > 0], 2.5)

    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(ValidationError):
            r_spectrum(np.zeros((2, 2, 2)), small_grid)


class TestPhaseRecurrence:
    """Axis phases are powers of one exponential per event and the temporal
    factor is a table of the T steps; the exp-per-cell route is the oracle."""

    @staticmethod
    def coords():
        rng = np.random.default_rng(17)
        edges = np.array([0.0, 0.5, 0.25, 1.0 - 2.0**-52, 1e-12])
        return np.concatenate([edges, rng.random(500)])

    def test_powers_match_exp_oracle(self):
        x = self.coords()
        got = _axis_phases(x, -64, 64)
        want = exp_phases(x, np.arange(-64, 65, dtype=float)).T
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-13
        # k = 0 and k = 1 are the oracle's own values, k = -1 their conjugate
        assert np.array_equal(got[[64, 65]], want[[64, 65]])
        assert np.array_equal(got[63], np.conj(want[65]))

    def test_asymmetric_and_degenerate_ranges(self):
        x = self.coords()
        for k_min, k_max in ((-3, 7), (-7, 3), (0, 0), (0, 5), (-4, 0)):
            got = _axis_phases(x, k_min, k_max)
            want = exp_phases(x, np.arange(k_min, k_max + 1, dtype=float)).T
            assert got.shape == (k_max - k_min + 1, x.size)
            assert np.abs(got - want).max() < 1e-13
        assert (_axis_phases(x, 0, 0) == 1.0).all()
        assert _axis_phases(x[:0], -3, 7).shape == (11, 0)

    def test_step_table_bit_equal_to_oracle(self):
        for T in (1, 2, 4, 7, 12):
            u = FrequencyGrid.default(T).u_values
            steps = np.arange(1, T + 1)
            want = exp_phases(steps.astype(float) / T, u.astype(float))
            assert _step_phases(T, u).tobytes() == want.T.copy().tobytes()

    def test_marked_transform_leaves_table_intact(self, monkeypatch):
        # two chunks of events: the weights multiply each chunk's own copy
        # of the p phases; a weight multiplied into the step table, which
        # every step reads, would corrupt later steps, chunks and calls
        tables = []

        def keep_table(T, u):
            table = _step_phases(T, u)
            tables.append((table, table.copy()))
            return table

        monkeypatch.setattr("stspectra.spectra._step_phases", keep_table)
        grid = FrequencyGrid(p_max=4, q_min=-3, q_max=5, u_min=-1, u_max=2)
        pat = simulate_binomial_null((EVENT_CHUNK + 300, 40), T=4, seed=8)
        marks = np.random.default_rng(8).normal(5.0, 1.0, pat.n)
        pat = pat.with_marks(marks)
        first = marked_dft(pat, grid)
        second = marked_dft(pat, grid)
        assert len(tables) == 2 * pat.d
        assert all(kept.tobytes() == copy.tobytes() for kept, copy in tables)
        assert first.values.tobytes() == second.values.tobytes()
        want = dft_exp(pat, grid, marked=True)
        assert np.abs(first.values - want).max() < 1e-10 * pat.n

    def test_short_and_long_horizons_match_separable(self):
        # criterion 2's tolerance, 1e-10 * n
        for T in (1, 7):
            pat = simulate_binomial_null((300, 500, 200), T=T, seed=30 + T)
            grid = FrequencyGrid.default(T)
            a = dft(pat, grid)
            b = dft_separable(pat, grid)
            assert np.abs(a.values - b.values).max() < 1e-10 * pat.n
            assert np.abs(a.values - dft_exp(pat, grid)).max() < 1e-10 * pat.n


class TestStepSums:
    """Each component is summed by time step: events are sorted by step,
    their weights with them, and each step's spatial sum meets its temporal
    phases once.  The exp-per-cell route is the oracle, at criterion 2's
    1e-10 * n, marked and unmarked."""

    GRID = FrequencyGrid(p_max=4, q_min=-3, q_max=5, u_min=-2, u_max=2)

    @staticmethod
    def pattern(steps, T, seed, marks=None):
        """Uniform positions for the given time steps, one array of steps
        per component in event order; N(5, 1) marks unless given."""
        rng = np.random.default_rng(seed)
        t = np.concatenate(steps)
        type_id = np.concatenate([np.full(len(s), k + 1) for k, s in enumerate(steps)])
        if marks is None:
            marks = rng.normal(5.0, 1.0, t.size)
        labels = [f"c{k + 1}" for k in range(len(steps))]
        return build_pattern(
            rng.random(t.size), rng.random(t.size), t, type_id, labels, T=T, marks=marks
        )

    def check(self, pat, grid=GRID):
        for marked in (False, True):
            got = (marked_dft if marked else dft)(pat, grid).values
            want = dft_exp(pat, grid, marked=marked)
            assert np.abs(got - want).max() < 1e-10 * pat.n

    def test_events_out_of_step_order(self):
        descending = np.repeat([5, 4, 3, 2, 1], 80)
        interleaved = np.tile([3, 1, 5, 2, 4], 60)
        self.check(self.pattern([descending, interleaved], T=5, seed=40))

    def test_steps_without_events(self):
        rng = np.random.default_rng(41)
        self.check(
            self.pattern(
                [rng.choice([1, 2, 4, 5], 300), rng.choice([1, 5], 200)], T=5, seed=41
            )
        )

    def test_step_runs_across_chunk_boundaries(self):
        # a run that starts before a chunk ends, and one longer than a chunk
        crossing = np.repeat([1, 2, 3], [EVENT_CHUNK - 100, 400, 50])
        long = np.repeat([4, 2], [EVENT_CHUNK + 500, 10])
        grid = dataclasses.replace(self.GRID, p_max=2, q_min=-2, q_max=2)
        self.check(self.pattern([crossing, long], T=5, seed=42), grid)

    def test_all_events_in_one_step(self):
        self.check(self.pattern([np.full(300, 3), np.full(200, 3)], T=5, seed=43))

    def test_marks_follow_their_events_into_step_order(self):
        # marks rise with the step, so a weight left in input order would
        # weight events with the marks of other steps
        rng = np.random.default_rng(44)
        steps = [rng.integers(1, 6, 400), rng.integers(1, 6, 300)]
        t = np.concatenate(steps)
        marks = 10.0 * t + rng.normal(0.0, 0.1, t.size)
        self.check(self.pattern(steps, T=5, seed=44, marks=marks))


class TestSeparableAgreement:
    def test_many_seeds(self):
        # broader replication of the dual-route agreement at small n, and
        # across the transform's event chunks: components holding 0, 1,
        # CHUNK-1, CHUNK and CHUNK+1 events
        grid = FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=-1, u_max=1)
        patterns = [
            simulate(
                SimSpec(kind="homogeneous_poisson", rates=(30.0, 40.0), T=3, seed=seed)
            ).pattern
            for seed in range(5)
        ]
        sizes = (1, EVENT_CHUNK - 1, EVENT_CHUNK, EVENT_CHUNK + 1)
        chunked = simulate_binomial_null(sizes, T=3, seed=21)
        chunked = dataclasses.replace(
            chunked,
            type_id=chunked.type_id + 1,
            labels=("empty",) + chunked.labels,
            _allow_missing_types=True,
        )
        assert chunked.counts.tolist() == [0, *sizes]
        patterns.append(chunked)
        for pat in patterns:
            a = dft(pat, grid)
            b = dft_separable(pat, grid)
            assert np.abs(a.values - b.values).max() < 1e-10 * pat.n
        assert not a.values[0].any()
