"""Inverse spectral machinery: dual routes, conditioning, ridge fallback."""

import warnings

import numpy as np
import pytest

from oracles import (
    partial_coherence_three,
    schur_dot,
    schur_multiple_coherence,
    schur_pair,
)
from stspectra import (
    FrequencyGrid,
    SpectralField,
    dft,
    multiple_coherence,
    partial_cross_spectrum_direct,
    partial_dot_spectrum,
    partial_field,
    partial_lag_characteristics,
    periodogram_matrix,
    simulate_binomial_null,
    smooth_spectra,
)
from stspectra import partial
from stspectra.errors import SingularMatrixError, ValidationError
from stspectra.partial import (
    COND_THRESHOLD,
    RIDGE_FRACTIONS,
    _gershgorin_certified,
    _hpd_inverse,
    _require_full_rank_box,
)


def random_hpd_field(d, n_points=40, seed=0, jitter=1.0):
    """A SpectralField of random Hermitian positive-definite matrices."""
    rng = np.random.default_rng(seed)
    # grid with n_points ordinates, all on the p axis
    grid = FrequencyGrid(p_max=n_points - 1, q_min=0, q_max=0, u_min=0, u_max=0)
    g = rng.normal(size=(n_points, 1, 1, d, 2 * d)) + 1j * rng.normal(
        size=(n_points, 1, 1, d, 2 * d)
    )
    vals = g @ np.conj(np.swapaxes(g, -1, -2))
    vals += jitter * np.eye(d)
    return SpectralField.from_values(
        vals,
        grid=grid,
        kind="smoothed",
        normalisation="none",
        counts=np.full(d, 100),
        T=1,
        labels=tuple(str(k + 1) for k in range(d)),
        half_widths=(1, 1, 0),
    )


def svd_cond(mats):
    """Condition numbers from the SVD (np.linalg.cond); infinite for
    matrices with non-finite entries, on which the SVD does not converge."""
    cond = np.full(mats.shape[0], np.inf)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    with np.errstate(all="ignore"):
        cond[finite] = np.linalg.cond(mats[finite])
    return cond


def svd_ridge_decisions(field, threshold=COND_THRESHOLD):
    """Oracle: the ridge escalation with condition numbers from the SVD
    (np.linalg.cond); returns the (ridge, singular) arrays."""
    d = field.d
    flat = field.values.reshape(-1, d, d)
    ridge = np.zeros(flat.shape[0])
    bad = ~(svd_cond(flat) <= threshold)
    for eps in RIDGE_FRACTIONS:
        idx = np.nonzero(bad)[0]
        if idx.size == 0:
            break
        tr = np.einsum("kii->k", flat[idx]).real / d
        with np.errstate(invalid="ignore"):
            c2 = svd_cond(flat[idx] + (eps * tr)[:, None, None] * np.eye(d))
        ok = c2 <= threshold
        ridge[idx[ok]] = eps
        bad[idx[ok]] = False
    shape = field.values.shape[:3]
    return ridge.reshape(shape), bad.reshape(shape)


def assert_same_ridge_decisions(inv, field, threshold=COND_THRESHOLD):
    ridge, singular = svd_ridge_decisions(field, threshold)
    assert np.array_equal(inv.ridge, ridge)
    assert np.array_equal(inv.singular, singular)


def inverse_at(monkeypatch, field, threshold):
    """``partial_field(field)`` with the ridge ladder's condition threshold
    set to ``threshold``."""
    monkeypatch.setattr(partial, "COND_THRESHOLD", threshold)
    return partial_field(field)


def stack_field(mats):
    """A smoothed SpectralField holding the given d x d matrices, one per
    ordinate along the p axis."""
    mats = np.asarray(mats, dtype=complex)
    n, d = mats.shape[:2]
    field = random_hpd_field(d, n_points=n)
    return replace_values(field, mats.reshape(field.values.shape))


def rest_of(d, i, j):
    """Every component of 1..d except i and j."""
    return tuple(k for k in range(1, d + 1) if k not in (i, j))


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def replace_values(field, vals):
    return SpectralField.from_values(
        vals,
        grid=field.grid,
        kind="smoothed",
        normalisation="none",
        counts=field.counts,
        T=field.T,
        labels=field.labels,
        half_widths=field.half_widths,
    )


@pytest.fixture(scope="module")
def smoothed(trio_pattern, small_grid):
    raw = periodogram_matrix(dft(trio_pattern, small_grid))
    return smooth_spectra(raw, (1, 1, 1))


class TestInversion:
    def test_inverse_solves_exactly(self):
        field = random_hpd_field(4, seed=1)
        inv = partial_field(field)
        prod = field.values @ inv.inverse
        assert np.abs(prod - np.eye(4)).max() < 1e-10
        assert not inv.singular.any()
        assert (inv.ridge == 0).all()

    def test_inverse_hermitian(self, smoothed):
        inv = partial_field(smoothed)
        swapped = np.conj(np.swapaxes(inv.inverse, -1, -2))
        assert np.abs(inv.inverse - swapped).max() < 1e-10

    def test_rank_deficient_point_gets_ridge(self):
        field = random_hpd_field(3, n_points=5, seed=2, jitter=1e-14)
        vals = field.values.copy()
        # duplicate component 2 as component 3 at point 0: exactly singular,
        # still Hermitian PSD
        vals[0, ..., 2, :] = vals[0, ..., 1, :]
        vals[0, ..., :, 2] = vals[0, ..., :, 1]
        inv = partial_field(replace_values(field, vals))
        assert inv.ridge[0, 0, 0] > 0.0
        assert inv.ridge[1:].max() == 0.0
        assert not inv.singular.any()
        assert np.isfinite(inv.inverse).all()
        assert_same_ridge_decisions(inv, replace_values(field, vals))
        # an all-zero component at points 2 and 3, as in an empty slice
        vals[2:4, ..., 2, :] = 0.0
        vals[2:4, ..., :, 2] = 0.0
        empty = replace_values(field, vals)
        inv = partial_field(empty)
        assert (inv.ridge[2:4] > 0.0).all()
        assert not inv.singular.any()
        assert_same_ridge_decisions(inv, empty)

    def test_ridge_escalates_until_condition_passes(self, monkeypatch):
        # diag(1, 1, 1e-8) has condition 1e8; only the largest loading
        # fraction brings it under a 1e5 threshold
        vals = np.zeros((1, 1, 1, 3, 3), dtype=complex)
        vals[0, 0, 0] = np.diag([1.0, 1.0, 1e-8])
        grid = FrequencyGrid(p_max=0, q_min=0, q_max=0, u_min=0, u_max=0)
        field = SpectralField.from_values(
            vals,
            grid=grid,
            kind="smoothed",
            normalisation="none",
            counts=np.full(3, 10),
            T=1,
            labels=("1", "2", "3"),
            half_widths=(1, 1, 0),
        )
        inv = inverse_at(monkeypatch, field, 1e5)
        assert inv.ridge[0, 0, 0] == RIDGE_FRACTIONS[-1]
        assert not inv.singular[0, 0, 0]
        assert_same_ridge_decisions(inv, field, threshold=1e5)
        plain = inverse_at(monkeypatch, field, COND_THRESHOLD)  # cond 1e8 passes
        assert plain.ridge[0, 0, 0] == 0.0
        assert_same_ridge_decisions(plain, field)
        # component 3 all zero, as in an empty slice: exactly singular; the
        # loadings 2/3 * (1e-8, 1e-6, 1e-4) give conditions 1.5e8, 1.5e6, 1.5e4
        field = replace_values(field, vals * np.diag([1.0, 1.0, 0.0]))
        for threshold, eps in ((1e5, RIDGE_FRACTIONS[-1]), (1e10, RIDGE_FRACTIONS[0])):
            inv = inverse_at(monkeypatch, field, threshold)
            assert inv.ridge[0, 0, 0] == eps
            assert_same_ridge_decisions(inv, field, threshold=threshold)
        inv = inverse_at(monkeypatch, field, 1e3)
        assert inv.singular[0, 0, 0]
        assert_same_ridge_decisions(inv, field, threshold=1e3)
        assert COND_THRESHOLD == 1e10
        assert RIDGE_FRACTIONS == (1e-8, 1e-6, 1e-4)

    def test_zero_matrix_is_singular(self):
        field = random_hpd_field(3, n_points=3, seed=3)
        vals = field.values.copy()
        vals[1] = 0.0
        inv = partial_field(replace_values(field, vals))
        assert inv.singular[1, 0, 0]
        assert np.isnan(inv.inverse[1]).all()
        assert not inv.singular[0, 0, 0]
        assert np.isfinite(inv.inverse[0]).all()
        # a non-finite matrix (NaN marks reach the library unchecked) is
        # flagged singular too
        vals[2, ..., 0, 0] = np.nan
        inv = partial_field(replace_values(field, vals))
        assert inv.singular[1:].all()
        assert np.isnan(inv.inverse[2]).all()
        assert not inv.singular[0, 0, 0]

    def test_raw_field_rejected(self, trio_pattern, small_grid):
        raw = periodogram_matrix(dft(trio_pattern, small_grid))
        with pytest.raises(ValidationError):
            partial_field(raw)


def random_hpd_stack(d, n, seed):
    return random_hpd_field(d, n_points=n, seed=seed).values.reshape(-1, d, d)


class TestHpdInverse:
    """The elimination without pivoting against LAPACK's pivoted inverse."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_lapack_on_hpd_stacks(self, d, monkeypatch):
        mats = random_hpd_stack(d, 200, seed=d)
        oracle = np.linalg.inv(mats)
        before = mats.copy()
        # positive-definite matrices never reach LAPACK
        monkeypatch.setattr(np.linalg, "inv", None)
        inv = _hpd_inverse(mats)
        monkeypatch.undo()
        scale = np.abs(oracle).max(axis=(-2, -1))
        err = np.abs(inv - oracle).max(axis=(-2, -1)) / scale
        assert err.max() < 1e-12
        assert np.array_equal(mats, before)

    def test_indefinite_matrices_go_through_the_guard(self):
        # a zero leading pivot, and a tiny positive one followed by a large
        # negative one: neither is positive definite
        swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        near = np.array([[1e-9, 1], [1, 1e-9]], dtype=complex)
        for bad, d in ((swap, 3), (near, 2)):
            mats = random_hpd_stack(d, 5, seed=7)
            mats[2] = bad
            inv = _hpd_inverse(mats)
            assert np.abs(mats @ inv - np.eye(d)).max() < 1e-12
            assert np.abs(inv - np.linalg.inv(mats)).max() < 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_mixed_field_keeps_ridge_and_singular_decisions(self):
        mats = random_hpd_stack(3, 8, seed=9)
        mats[1] = np.diag([2.0, -1.0, -1.0])  # indefinite, well conditioned
        mats[2] = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # zero leading pivot
        mats[3, 0, 0] = np.nan  # non-finite
        mats[4] = 0.0  # singular: no ridge step rescues it
        mats[5, 2, :] = mats[5, :, 2] = 0.0  # an empty component: ridged
        field = stack_field(mats)
        inv = partial_field(field)
        assert_same_ridge_decisions(inv, field)
        assert inv.ridge.ravel().tolist() == [0, 0, 0, 0, 0, RIDGE_FRACTIONS[0], 0, 0]
        assert inv.singular.ravel().tolist() == [False] * 3 + [True] * 2 + [False] * 3
        assert np.isnan(inv.inverse[3:5]).all()
        clean = [0, 1, 2, 6, 7]
        prod = mats[clean] @ inv.inverse.reshape(-1, 3, 3)[clean]
        assert np.abs(prod - np.eye(3)).max() < 1e-12


class TestConditioningScreen:
    """Gershgorin discs certify well-conditioned ordinates without an
    eigensolve; every decision must equal the SVD route's."""

    @staticmethod
    def with_condition(cond, rotation=None):
        mat = np.diag([1.0, 0.5, 1.0 / cond]).astype(complex)
        if rotation is not None:
            mat = rotation @ mat @ np.conj(rotation.T)
            mat = 0.5 * (mat + np.conj(mat.T))
        return mat

    def test_decisions_around_threshold(self, monkeypatch):
        rot = random_unitary(3, seed=4)
        for threshold in (COND_THRESHOLD, 1e5):
            conds = (threshold / 4, 0.9 * threshold, 1.1 * threshold)
            mats = [self.with_condition(c) for c in conds]
            mats += [self.with_condition(c, rot) for c in conds]
            field = stack_field(mats)
            inv = inverse_at(monkeypatch, field, threshold)
            assert_same_ridge_decisions(inv, field, threshold=threshold)
            assert (inv.ridge.ravel() > 0).tolist() == [False, False, True] * 2
            assert not inv.singular.any()
            # diagonal matrices: the discs are the eigenvalues, so only the
            # matrix at threshold/4 is certified; the rest go to eigvalsh
            flat = field.values.reshape(-1, 3, 3)
            certified = _gershgorin_certified(flat, threshold)
            assert certified[:3].tolist() == [True, False, False]

    def test_indefinite_matrices_with_positive_determinant(self):
        # eigenvalues (2, -1, -1) and (5, -1, -1): condition numbers 2 and 5,
        # the second with a positive diagonal
        coherent = np.full((3, 3), 2.0) - np.eye(3)
        rot = random_unitary(3, seed=6)
        mats = [np.diag([2.0, -1.0, -1.0]), coherent, rot @ coherent @ np.conj(rot.T)]
        mats[2] = 0.5 * (mats[2] + np.conj(mats[2].T))
        assert all(np.linalg.det(m).real > 0 for m in mats)
        field = stack_field(mats)
        inv = partial_field(field)
        assert_same_ridge_decisions(inv, field)
        assert (inv.ridge == 0.0).all() and not inv.singular.any()
        assert not _gershgorin_certified(field.values.reshape(-1, 3, 3), 1e10).any()
        prod = field.values @ inv.inverse
        assert np.abs(prod - np.eye(3)).max() < 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_and_empty_component(self, monkeypatch):
        base = random_hpd_field(3, n_points=7, seed=12).values.reshape(-1, 3, 3)
        mats = base.copy()
        mats[1, 0, 0] = np.nan
        mats[2, 1, 1] = np.inf
        mats[3, 0, 2] = mats[3, 2, 0] = np.inf
        mats[4] = np.nan
        mats[5, 2, :] = mats[5, :, 2] = 0.0  # an empty component
        field = stack_field(mats)
        for threshold in (COND_THRESHOLD, 1e3):
            inv = inverse_at(monkeypatch, field, threshold)
            assert_same_ridge_decisions(inv, field, threshold=threshold)
            assert inv.singular.ravel()[1:5].all()
            assert np.isnan(inv.inverse[1:5]).all()
            assert not inv.singular.ravel()[[0, 6]].any()
        inv = inverse_at(monkeypatch, field, COND_THRESHOLD)
        assert inv.ridge.ravel()[5] == RIDGE_FRACTIONS[0]
        assert not _gershgorin_certified(mats[1:6], 1e10).any()

    def test_asymmetry_beside_a_non_finite_ordinate_rejected(self):
        # a NaN at one ordinate must not hide a 0.5 asymmetry at another
        mats = random_hpd_field(3, n_points=2, seed=5).values.reshape(-1, 3, 3).copy()
        mats[0, 0, 1] += 0.5
        mats[1, 2, 2] = np.nan
        one_sided = random_hpd_field(3, n_points=2, seed=5).values.reshape(-1, 3, 3).copy()
        one_sided[1, 0, 2] = np.inf  # its mirror entry stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (mats, one_sided):
                with pytest.raises(ValidationError, match="not Hermitian"):
                    partial_field(stack_field(bad))
            # non-finite on both sides of every pair still inverts
            mats[0, 0, 1] -= 0.5
            mats[1, 0, 2] = mats[1, 2, 0] = np.inf
            assert partial_field(stack_field(mats)).singular.ravel()[1]

    def test_screen_certifies_most_of_a_null_field(self):
        pat = simulate_binomial_null((1200, 1200, 1200), T=4, seed=2)
        raw = periodogram_matrix(dft(pat, FrequencyGrid.default(4)))
        field = smooth_spectra(raw, (2, 2, 1))
        flat = field.values.reshape(-1, 3, 3)
        assert _gershgorin_certified(flat, COND_THRESHOLD).mean() >= 0.9
        assert_same_ridge_decisions(partial_field(field), field)


PSD_KINDS = ("conditioned", "zero_eigenvalue", "near_1e5")
CAMPAIGN_KINDS = PSD_KINDS + (
    "negated_smallest", "negated_middle", "cancel_first_loading",
    "cancel_two_loadings", "zero_matrix", "nan_entry",
)


def campaign_stack(d, n, seed):
    """Random Hermitian matrices U diag(lambda) U^H for the ridge-decision
    campaign, and the kind of each (an index into CAMPAIGN_KINDS).

    "conditioned" matrices have condition numbers log-uniform in 1e4..1e16;
    "zero_eigenvalue" ones are exactly rank deficient; "near_1e5" ones lie
    just above a 1e5 threshold, where the first or second loading fraction
    decides.  The indefinite kinds negate an eigenvalue, or place
    eigenvalues at 0 and -eps*trace/d for the first (and, at d > 3, the
    second) loading fraction eps, so that loading cancels them and only a
    later fraction passes.  The last two kinds are all-zero matrices and
    matrices with a NaN entry.
    """
    rng = np.random.default_rng(seed)
    k = dict(zip(CAMPAIGN_KINDS, range(len(CAMPAIGN_KINDS))))
    # two cancelled eigenvalues and a zero one leave no positive one at d=3
    kind = rng.choice([v for name, v in k.items() if d > 3 or name != "cancel_two_loadings"], n)
    lam = rng.uniform(0.1, 1.0, size=(n, d))
    cond = 10.0 ** rng.uniform(4, 16, size=n)
    near = kind == k["near_1e5"]
    cond[near] = 1e5 * (1 + 10.0 ** rng.uniform(-7, -2, size=near.sum()))
    lam[:, -1] = lam[:, :-1].max(axis=1) / cond
    lam[kind == k["zero_eigenvalue"], -1] = 0.0
    lam[kind == k["negated_smallest"], -1] *= -1
    lam[kind == k["negated_middle"], 1] *= -1
    e1, e2 = RIDGE_FRACTIONS[:2]
    # with tau = trace/d and S the sum of the positive eigenvalues,
    # tau = S / (d + e1 [+ e2]) puts -e * tau exactly on the cancelled ones
    one = kind == k["cancel_first_loading"]
    tau = lam[one, :-2].sum(axis=1) / (d + e1)
    lam[one, -2:] = np.stack([np.zeros_like(tau), -e1 * tau], axis=1)
    two = kind == k["cancel_two_loadings"]
    tau = lam[two, :-3].sum(axis=1) / (d + e1 + e2)
    lam[two, -3:] = np.stack([np.zeros_like(tau), -e1 * tau, -e2 * tau], axis=1)
    u = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
    mats = u @ (lam[..., None] * np.conj(np.swapaxes(u, -1, -2)))
    mats = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
    mats[kind == k["zero_matrix"]] = 0.0
    mats[kind == k["nan_entry"], 0, 0] = np.nan
    return mats, kind


class TestRidgeCampaign:
    """Ridge and singular decisions from one eigensolve per ordinate against
    the SVD oracle's rung-by-rung escalation, on random stacks."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_decisions_equal_the_oracle(self, monkeypatch):
        rungs = (0.0, *RIDGE_FRACTIONS)
        for threshold in (1e10, 1e5):
            seen = set()
            for d in (3, 4, 5, 6):
                mats, kind = campaign_stack(d, 1000, seed=d)
                field = stack_field(mats)
                inv = inverse_at(monkeypatch, field, threshold)
                assert_same_ridge_decisions(inv, field, threshold=threshold)
                ridge, singular = inv.ridge.ravel(), inv.singular.ravel()
                seen.update(ridge[~singular].tolist())
                if singular.any():
                    seen.add("singular")
                flat = inv.inverse.reshape(-1, d, d)
                assert np.isnan(flat[singular]).all()
                assert np.isfinite(flat[~singular]).all()
                assert singular[kind >= CAMPAIGN_KINDS.index("zero_matrix")].all()
                if threshold == COND_THRESHOLD:
                    # a PSD matrix loaded by c*I has condition number at most
                    # 1 + d/eps, so the first fraction always suffices
                    psd = np.isin(kind, [CAMPAIGN_KINDS.index(n) for n in PSD_KINDS])
                    ridged = psd & (ridge > 0) & ~singular
                    assert ridged.any()
                    assert (ridge[ridged] == RIDGE_FRACTIONS[0]).all()
            assert seen == {*rungs, "singular"}, threshold


class TestDualRoutes:
    def test_inversion_vs_direct_on_random_hpd(self):
        for d in (3, 4, 5):
            field = random_hpd_field(d, n_points=60, seed=d)
            pf = partial_field(field)
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    rest = rest_of(d, i, j)
                    direct = np.abs(schur_pair(field, i, j, rest).coherency)
                    via_inverse = pf.pair_abs_d(i, j)
                    assert np.abs(direct - via_inverse).max() < 1e-8

    def test_three_component_formula(self):
        field = random_hpd_field(3, n_points=80, seed=9)
        pf = partial_field(field)
        for i, j, k in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
            simp = partial_coherence_three(field, i, j, k)
            inv_route = pf.pair_coherency(i, j)
            assert np.abs(simp - inv_route).max() < 1e-8

    def test_direct_route_on_estimates(self, smoothed):
        pf = partial_field(smoothed)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            pc = schur_pair(smoothed, i, j, rest_of(3, i, j))
            direct_d = np.abs(pc.cross) / np.sqrt(pc.auto_i * pc.auto_j)
            assert np.abs(direct_d - pf.pair_abs_d(i, j)).max() < 1e-8

    def test_coherency_conjugate_pairing(self, smoothed):
        pf = partial_field(smoothed)
        r12 = pf.pair_coherency(1, 2)
        r21 = pf.pair_coherency(2, 1)
        assert np.abs(r12 - np.conj(r21)).max() < 1e-12


class TestPartialField:
    def test_bounds(self, smoothed):
        pf = partial_field(smoothed)
        finite = pf.abs_d[np.isfinite(pf.abs_d)]
        assert finite.min() >= 0.0
        assert finite.max() <= 1.0 + 1e-9

    def test_diagonal_excluded(self, smoothed):
        pf = partial_field(smoothed)
        kk = np.arange(3)
        assert np.abs(pf.abs_d[..., kk, kk]).max() == 0.0
        assert np.abs(pf.coherency[..., kk, kk]).max() == 0.0
        with pytest.raises(ValidationError):
            pf.pair_abs_d(2, 2)

    def test_rescaled_inverse_density_definition(self, smoothed):
        inv = partial_field(smoothed)
        pf = partial_field(smoothed)
        for i, j in ((1, 2), (1, 3), (3, 2)):
            manual = np.abs(inv.inverse[..., i - 1, j - 1]) / np.sqrt(
                inv.inverse[..., i - 1, i - 1].real * inv.inverse[..., j - 1, j - 1].real
            )
            assert np.allclose(pf.pair_abs_d(i, j), manual, atol=1e-13)

    def test_partial_coherency_sign(self, smoothed):
        inv = partial_field(smoothed)
        pf = partial_field(smoothed)
        for i, j in ((1, 2), (2, 3), (3, 1)):
            manual = -inv.inverse[..., i - 1, j - 1] / np.sqrt(
                inv.inverse[..., i - 1, i - 1].real * inv.inverse[..., j - 1, j - 1].real
            )
            assert np.allclose(pf.pair_coherency(i, j), manual, atol=1e-13)

    def test_labels_and_conditioning(self, smoothed):
        pf = partial_field(smoothed)
        assert pf.labels == smoothed.labels

    def test_index_validation(self, smoothed):
        pf = partial_field(smoothed)
        with pytest.raises(ValidationError):
            pf.pair_abs_d(1, 1)
        with pytest.raises(ValidationError):
            pf.pair_abs_d(0, 2)
        with pytest.raises(ValidationError):
            partial_cross_spectrum_direct(smoothed, 1, 4, (2,))
        with pytest.raises(ValidationError, match=r"components \[1\.5\] are not whole"):
            pf.pair_abs_d(1.5, 2)
        with pytest.raises(ValidationError, match=r"components \[1\.5\] are not whole"):
            partial_cross_spectrum_direct(smoothed, 1.5, 2, (3,))
        with pytest.raises(ValidationError, match=r"components \[2\.5\] are not whole"):
            partial_lag_characteristics(smoothed, 1, 2.5)
        # whole floats name the components their ints name
        assert np.array_equal(pf.pair_abs_d(2.0, 1.0), pf.pair_abs_d(2, 1), equal_nan=True)
        assert np.array_equal(
            partial_cross_spectrum_direct(smoothed, 1.0, 2, (3.0,)).cross,
            partial_cross_spectrum_direct(smoothed, 1, 2, (3,)).cross,
        )

    def test_singular_points_propagate_nan(self):
        field = random_hpd_field(3, n_points=3, seed=31)
        vals = field.values.copy()
        vals[2] = 0.0
        pf = partial_field(replace_values(field, vals))
        assert pf.singular[2, 0, 0]
        assert np.isnan(pf.abs_d[2]).all()
        assert np.isfinite(pf.abs_d[0][..., 0, 1]).all()

    def test_pair_spectra_built_from_inverse_when_read(self):
        field = random_hpd_field(4, n_points=6, seed=33)
        vals = field.values.copy()
        vals[3] = 0.0
        pf = partial_field(replace_values(field, vals))
        assert "_pair_spectra" not in vars(pf)
        # the 2x2 block identity on the inverse
        b = pf.inverse
        kk = np.arange(4)
        bii = b[..., kk, kk].real
        det = bii[..., :, None] * bii[..., None, :] - (b * np.conj(b)).real
        with np.errstate(all="ignore"):  # det is 0 on the diagonal
            cross = -b / det
            auto = np.broadcast_to(bii[..., None, :], det.shape) / det
        for arr in (cross, auto):
            arr[..., kk, kk] = 0
            arr[pf.singular] = np.nan
        assert np.array_equal(pf.cross, cross, equal_nan=True)
        assert np.array_equal(pf.auto, auto, equal_nan=True)
        assert np.isnan(pf.cross[3]).all() and np.isnan(pf.auto[3]).all()
        assert (pf.cross[:3][..., kk, kk] == 0).all()
        assert (pf.auto[:3][..., kk, kk] == 0).all()
        assert pf.cross is pf.cross


class TestPairConditional:
    def test_block_identity_matches_inverse_route(self):
        # f_ij|rest / sqrt(f_ii|rest * f_jj|rest) = -b_ij / sqrt(b_ii * b_jj)
        field = random_hpd_field(5, n_points=30, seed=12)
        pf = partial_field(field)
        for i, j in ((1, 2), (2, 5), (3, 4)):
            pc = schur_pair(field, i, j, rest_of(5, i, j))
            assert np.abs(pc.coherency - pf.pair_coherency(i, j)).max() < 1e-8

    def test_conditional_autos_are_positive(self):
        field = random_hpd_field(4, n_points=20, seed=16)
        pc = partial_cross_spectrum_direct(field, 1, 2, (3, 4))
        assert (pc.auto_i > 0).all()
        assert (pc.auto_j > 0).all()
        assert pc.conditioning == (3, 4)

    def test_empty_conditioning_reduces_to_plain(self):
        field = random_hpd_field(4, n_points=20, seed=13)
        pc = partial_cross_spectrum_direct(field, 1, 2, conditioning=())
        assert np.abs(pc.cross - field.entry(1, 2)).max() == 0.0
        assert np.abs(pc.auto_i - field.entry(1, 1).real).max() == 0.0

    def test_conditioning_validation(self):
        field = random_hpd_field(4, n_points=4, seed=14)
        with pytest.raises(ValidationError):
            partial_cross_spectrum_direct(field, 1, 2, conditioning=(1, 3))
        with pytest.raises(ValidationError):
            partial_cross_spectrum_direct(field, 1, 2, conditioning=(3, 3))
        with pytest.raises(ValidationError):
            partial_cross_spectrum_direct(field, 2, 2, (3,))

    def test_three_formula_equals_pair_conditioned(self):
        field = random_hpd_field(3, n_points=50, seed=15)
        simp = partial_coherence_three(field, 1, 2, 3)
        pc = partial_cross_spectrum_direct(field, 1, 2, conditioning=(3,))
        assert np.abs(simp - pc.coherency).max() < 1e-8


class TestPartialDot:
    def test_unconditioned_aggregate_is_entry_sum(self):
        field = random_hpd_field(4, n_points=25, seed=21)
        out = partial_dot_spectrum(field, 1, K=(2, 3, 4))
        manual = field.entry(1, 2) + field.entry(1, 3) + field.entry(1, 4)
        assert np.abs(out - manual).max() < 1e-12

    def test_singleton_target_matches_pair_conditional(self):
        field = random_hpd_field(3, n_points=25, seed=22)
        out = partial_dot_spectrum(field, 1, K=(2,), J=(3,))
        pc = partial_cross_spectrum_direct(field, 1, 2, conditioning=(3,))
        assert np.abs(out - pc.cross).max() < 1e-10

    def test_conditioning_is_linear_over_targets(self):
        # f_i,{K1 u K2}|J = f_i,K1|J + f_i,K2|J
        field = random_hpd_field(5, n_points=25, seed=23)
        both = partial_dot_spectrum(field, 1, K=(2, 3), J=(4, 5))
        split = partial_dot_spectrum(field, 1, K=(2,), J=(4, 5)) + (
            partial_dot_spectrum(field, 1, K=(3,), J=(4, 5))
        )
        assert np.abs(both - split).max() < 1e-10

    def test_validation(self):
        field = random_hpd_field(3, n_points=3, seed=24)
        with pytest.raises(ValidationError):
            partial_dot_spectrum(field, 1, K=())
        with pytest.raises(ValidationError):
            partial_dot_spectrum(field, 1, K=(1, 2))
        with pytest.raises(ValidationError):
            partial_dot_spectrum(field, 1, K=(2,), J=(2,))
        with pytest.raises(ValidationError):
            partial_dot_spectrum(field, 1, K=(2,), J=(1,))


class TestSchurOracle:
    """Each explicit-subset query reads partial_field of the selected
    components; the Schur complement on the conditioning block is its
    oracle, on every pair and on J = rest and strict subsets."""

    @staticmethod
    def gap(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_pair_conditional_matches_oracle(self, d):
        field = random_hpd_field(d, n_points=30, seed=50 + d)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if i == j:
                    continue
                rest = rest_of(d, i, j)
                for J in {rest, rest[:1]}:
                    pc = partial_cross_spectrum_direct(field, i, j, J)
                    ref = schur_pair(field, i, j, J)
                    for name in ("cross", "auto_i", "auto_j", "coherency"):
                        assert self.gap(getattr(pc, name), getattr(ref, name)) < 1e-10

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_multiple_coherence_matches_oracle(self, d):
        field = random_hpd_field(d, n_points=30, seed=60 + d)
        for i in range(1, d + 1):
            rest = tuple(k for k in range(1, d + 1) if k != i)
            for J in (rest, rest[:-1]):
                got = multiple_coherence(field, i, J)
                assert np.abs(got - schur_multiple_coherence(field, i, J)).max() < 1e-10

    def test_partial_dot_matches_oracle(self):
        field = random_hpd_field(5, n_points=30, seed=70)
        for i, K, J in ((1, (2, 3), (4, 5)), (3, (5, 1), (2, 4)), (4, (1, 2), (5, 3))):
            got = partial_dot_spectrum(field, i, K, J)
            assert self.gap(got, schur_dot(field, i, K, J)) < 1e-10

    def test_component_sets_may_be_arrays(self):
        field = random_hpd_field(4, n_points=10, seed=71)
        assert np.array_equal(
            multiple_coherence(field, 1, np.array([2, 3])),
            multiple_coherence(field, 1, [2, 3]),
        )
        assert np.array_equal(
            partial_dot_spectrum(field, 1, np.array([2, 3]), np.array([4])),
            partial_dot_spectrum(field, 1, (2, 3), (4,)),
        )
        pc = partial_cross_spectrum_direct(field, 1, 2, np.array([3, 4]))
        assert np.array_equal(pc.cross, partial_cross_spectrum_direct(field, 1, 2, (3, 4)).cross)

    def test_vanishing_conditioning_component_is_ridged(self):
        # component 3 is zero at p=2 and p=3: the matrices of {1, 2, 3} there
        # are singular but rescued by the first ridge step, so the queries
        # read them as partial.csv does instead of raising
        field = random_hpd_field(3, n_points=6, seed=72)
        vals = field.values.copy()
        vals[2:4, ..., 2, :] = 0.0
        vals[2:4, ..., :, 2] = 0.0
        field = replace_values(field, vals)
        pf = partial_field(field.select([1, 2, 3]))
        assert not pf.singular.any()
        assert (pf.ridge[2:4] == RIDGE_FRACTIONS[0]).all()
        assert (pf.ridge[[0, 1, 4, 5]] == 0).all()
        # conditioning on a component that is zero there leaves f_12
        cross = partial_cross_spectrum_direct(field, 1, 2, (3,)).cross
        plain = field.entry(1, 2)
        assert np.abs(cross[2:4] - plain[2:4]).max() < 1e-12 * np.abs(plain[2:4]).max()
        # the loaded inverse of {1, 3} gives 1/g_11 = f_11 + eps*f_11/2
        mc = multiple_coherence(field, 1, [3])
        assert np.allclose(mc[2:4], -RIDGE_FRACTIONS[0] / 2, rtol=1e-6, atol=0)
        assert (mc[[0, 1, 4, 5]] > 0).all()


class TestSchurSubsets:
    """The explicit-subset queries share one singularity rule, so they share
    its report of the first ordinate that no ridge step rescues."""

    @pytest.mark.parametrize(
        "query",
        [
            lambda f: partial_cross_spectrum_direct(f, 1, 2, (3,)),
            lambda f: partial_cross_spectrum_direct(f, 1, 3, conditioning=(2,)),
            lambda f: partial_dot_spectrum(f, 1, K=(2,), J=(3,)),
            lambda f: multiple_coherence(f, 1, [2, 3]),
        ],
        ids=["direct", "direct-subset", "dot", "multiple-coherence"],
    )
    def test_singular_block_reports_first_ordinate(self, query):
        field = random_hpd_field(3, n_points=6, seed=41)
        vals = field.values.copy()
        vals[2:4] = 0.0  # ordinates p=2 and p=3 of a grid along p
        with pytest.raises(SingularMatrixError) as err:
            query(replace_values(field, vals))
        assert err.value.grid_point == (2, 0, 0)


class TestRawFieldRefused:
    """The raw periodogram is rank 1 at every ordinate, so every conditional
    statistic on it is degenerate; each route refuses it, as partial_field
    and dot_spectrum do."""

    @pytest.mark.parametrize(
        "query",
        [
            lambda f: partial_cross_spectrum_direct(f, 1, 2, (3,)),
            lambda f: multiple_coherence(f, 1, [2]),
            lambda f: partial_dot_spectrum(f, 1, (2,), (3,)),
            lambda f: partial_lag_characteristics(f, 1, 2, (3,)),
        ],
        ids=["direct", "multiple-coherence", "dot", "lags"],
    )
    def test_raw_field_rejected(self, query, trio_pattern):
        grid = FrequencyGrid.default(trio_pattern.T)
        raw = periodogram_matrix(dft(trio_pattern, grid))
        with pytest.raises(ValidationError, match="smoothed field"):
            query(raw)


class TestBoxRule:
    @pytest.mark.parametrize("hw", [(-1, 1, 1), (-2, -2, 0), (1, 1, -1)])
    def test_negative_half_width_gets_the_sign_rule(self, hw):
        # (-1,1,1) counts -9 ordinates and (-2,-2,0) counts 9: the sign
        # is checked before the size
        with pytest.raises(ValidationError) as exc:
            _require_full_rank_box(hw, 3)
        assert str(exc.value) == "half-widths must be >= 0"
