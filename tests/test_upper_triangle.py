"""Spectral fields stored as upper triangles and partial fields as pairs:
byte equality with the full-matrix route, the checks of
``SpectralField.from_values`` and of every inversion, runs in a reused
work allocator that give the bytes of fresh ones, and calibration
replicates that never build full arrays."""

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest

import stspectra.graph
import stspectra.partial
from stspectra import (
    AnalysisSpec,
    FrequencyGrid,
    PartialField,
    SimSpec,
    SpectralField,
    calibrate_null_threshold,
    dft,
    edge_statistics,
    marked_dft,
    partial_field,
    partial_pipeline,
    periodogram_matrix,
    simulate,
    smooth_spectra,
    spectral_fields,
)
from stspectra.errors import DegenerateFieldError, ValidationError
from stspectra.spectra import _Buffers

from conftest import build_pattern, with_values
from oracles import full_matrix_route, full_matrix_samples


def readme_case():
    pattern = simulate(
        SimSpec(
            kind="linked_cluster",
            rates=(75.0, 75.0, 300.0),
            T=4,
            link_pairs=((1, 2, 225.0, 0.005),),
            seed=7,
        )
    ).pattern
    return pattern, AnalysisSpec(FrequencyGrid.default(4), (2, 2, 1)), 4


def marked_case():
    pattern = simulate(
        SimSpec(
            kind="homogeneous_poisson",
            rates=(40.0, 50.0, 60.0, 70.0),
            T=8,
            seed=3,
            mark_dist="normal:5,1",
        )
    ).pattern
    return pattern, AnalysisSpec(FrequencyGrid.default(8), (1, 1, 1), marked=True), 3


def absent_component_slice():
    # component 3 has events in step 2 only, so the T=1 slice of step 1
    # holds a zero row and column at every ordinate
    rng = np.random.default_rng(11)
    counts = {(1, 1): 60, (2, 1): 50, (1, 2): 40, (2, 2): 45, (3, 2): 30}
    parts = [
        (rng.random(n), rng.random(n), np.full(n, step), np.full(n, comp))
        for (comp, step), n in counts.items()
    ]
    x, y, t, c = (np.concatenate(col) for col in zip(*parts))
    pattern = build_pattern(x, y, t, c, ("a", "b", "c"), T=2)
    spec = AnalysisSpec(FrequencyGrid.default(2), (1, 1, 1)).for_slice()
    return pattern.slice_time(1), spec, 0


def unnormalised_case():
    pattern, spec, reps = readme_case()
    return pattern, dataclasses.replace(spec, normalisation="none"), reps


def refused_mirror_case():
    # U = 2 < T = 4 and an asymmetric q range: no conjugate mirror below p = 0
    pattern, _, reps = readme_case()
    grid = FrequencyGrid(p_max=6, q_min=-4, q_max=6, u_min=0, u_max=1)
    return pattern, AnalysisSpec(grid, (2, 2, 1)), reps


CASES = {
    "readme": readme_case,
    "marked_d4_T8": marked_case,
    "absent_component_slice": absent_component_slice,
    "normalisation_none": unnormalised_case,
    "mirror_refused": refused_mirror_case,
}


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_matrices(values, full):
    """Entries i <= j bit for bit, and the lower triangle up to the sign of
    exact zeros: it is the conjugate of the upper one, where the full route
    conjugated before normalising and smoothing, which can leave +0 where
    the conjugate holds -0."""
    i, j = np.triu_indices(values.shape[-1])
    return same_bytes(values[..., i, j], full[..., i, j]) and same_bytes(
        values + 0.0, full + 0.0
    )


def triangle_fields(pattern, spec):
    transform = marked_dft if spec.marked else dft
    raw = periodogram_matrix(transform(pattern, spec.grid), spec.normalisation)
    return raw, smooth_spectra(raw, spec.half_widths)


class TestFullMatrixOracle:
    @pytest.mark.parametrize(
        "case, cond",
        [
            ("readme", None),
            ("marked_d4_T8", None),
            ("absent_component_slice", None),
            # a condition bound between the rungs leaves some zero-row
            # ordinates ridged and the others singular
            ("absent_component_slice", 2e4),
            ("normalisation_none", None),
            ("mirror_refused", None),
        ],
    )
    def test_fields_and_edge_statistics_equal_the_full_route(self, monkeypatch, case, cond):
        if cond is not None:
            monkeypatch.setattr(stspectra.partial, "COND_THRESHOLD", cond)
        pattern, spec, _ = CASES[case]()
        full = full_matrix_route(pattern, spec)
        raw, smoothed = triangle_fields(pattern, spec)
        pf = partial_field(smoothed)
        # the edge statistics read the stored pairs, before any full array
        es, es_full = edge_statistics(pf), edge_statistics(full.pf)
        for name in ("stats", "argmax", "reliable"):
            assert same_bytes(getattr(es, name), getattr(es_full, name)), name
        assert same_matrices(raw.values, full.raw)
        assert same_matrices(smoothed.values, full.smoothed)
        for name in ("inverse", "ridge", "singular"):
            assert same_bytes(getattr(pf, name), getattr(full.pf, name)), name
        for name in ("coherency", "abs_d"):
            assert same_bytes(getattr(pf, name), getattr(full, name)), name
        d = pattern.d
        pairs = partial_field(smoothed)  # i < j read the stored pairs, i > j the full arrays
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                entry = full.smoothed[..., i - 1, j - 1]
                if i <= j:
                    assert same_bytes(smoothed.entry(i, j), entry)
                else:
                    assert same_bytes(smoothed.entry(i, j) + 0.0, entry + 0.0)
                if i != j:
                    a, b = full.abs_d[..., i - 1, j - 1], full.coherency[..., i - 1, j - 1]
                    assert same_bytes(pairs.pair_abs_d(i, j), a)
                    assert same_bytes(pairs.pair_coherency(i, j), b)
        if case == "absent_component_slice":
            assert (pf.ridge > 0).any()
            assert pf.singular.any() == (cond is not None)

    @pytest.mark.parametrize(
        "case", ["readme", "marked_d4_T8", "absent_component_slice", "normalisation_none"]
    )
    def test_reused_buffers_give_the_bytes_of_a_fresh_run(self, monkeypatch, case):
        # a stage writing into another's live buffer, or reading what the
        # previous run left in one, shows as a byte difference
        pattern, spec, _ = CASES[case]()
        other = dataclasses.replace(pattern, x=pattern.y, y=pattern.x)
        raw, smoothed = spectral_fields(pattern, spec)
        fresh = partial_field(smoothed)
        assert not same_bytes(partial_pipeline(other, spec).inverse, fresh.inverse)
        fields = []
        for name in ("periodogram_matrix", "smooth_spectra"):
            def spy(*args, _stage=getattr(stspectra.graph, name), **kwargs):
                fields.append(_stage(*args, **kwargs))
                return fields[-1]

            monkeypatch.setattr(stspectra.graph, name, spy)
        work = _Buffers()
        partial_pipeline(other, spec, work=work)
        reused = partial_pipeline(pattern, spec, work=work)
        raw_again, smoothed_again = fields[2:]
        assert np.shares_memory(raw_again.upper, work.arrays["periodogram"])
        assert np.shares_memory(reused.inverse, work.arrays["inverse"])
        assert same_bytes(raw_again.upper, raw.upper)
        assert same_bytes(smoothed_again.upper, smoothed.upper)
        for name in ("inverse", "ridge", "singular"):
            assert same_bytes(getattr(reused, name), getattr(fresh, name)), name
        for a, b in zip(reused.pairs, fresh.pairs, strict=True):
            assert same_bytes(a, b)

    @pytest.mark.parametrize(
        "case", ["readme", "marked_d4_T8", "normalisation_none", "mirror_refused"]
    )
    def test_calibration_samples_equal_the_full_route(self, case):
        pattern, spec, reps = CASES[case]()
        out = calibrate_null_threshold(pattern, spec, replicates=reps, seed=7654321)
        oracle = full_matrix_samples(pattern, spec, reps, 7654321)
        assert same_bytes(out.samples, oracle)


def triangle_field(upper, d, kind="smoothed"):
    grid = FrequencyGrid(p_max=upper.shape[0] - 1, q_min=0, q_max=0, u_min=0, u_max=0)
    return SpectralField(
        upper=upper,
        grid=grid,
        kind=kind,
        normalisation="none",
        counts=np.full(d, 100),
        T=1,
        labels=tuple(str(k + 1) for k in range(d)),
        half_widths=(1, 1, 0),
    )


def hpd_upper(d, n_points=6, seed=0):
    """The upper triangles of random Hermitian positive-definite matrices."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_points, 1, 1, d, 2 * d)) + 1j * rng.normal(
        size=(n_points, 1, 1, d, 2 * d)
    )
    mats = g @ np.conj(np.swapaxes(g, -1, -2))
    i, j = np.triu_indices(d)
    upper = mats[..., i, j]
    upper[..., i == j] = upper[..., i == j].real
    return upper


def refusal(defect):
    return f"field is not Hermitian (defect {defect:.3e}); internal contract violated upstream"


class TestChecks:
    def test_non_hermitian_values_refused_with_the_message(self):
        field = triangle_field(hpd_upper(3), 3)
        vals = field.values.copy()
        vals[2, 0, 0, 0, 1] += 1e-3
        defect = np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max()
        assert defect == pytest.approx(1e-3)
        with pytest.raises(ValidationError) as exc:
            with_values(field, vals)
        assert str(exc.value) == refusal(defect)

    def test_values_finite_against_a_non_finite_mirror_refused(self):
        field = triangle_field(hpd_upper(3), 3)
        vals = field.values.copy()
        vals[1, 0, 0, 2, 0] = np.nan  # (3, 1) while (1, 3) stays finite
        with pytest.raises(ValidationError) as exc:
            with_values(field, vals)
        assert str(exc.value) == refusal(float("inf"))

    def test_values_within_the_bound_keep_their_upper_triangle(self):
        field = triangle_field(hpd_upper(3), 3)
        vals = field.values.copy()
        vals[2, 0, 0, 1, 0] *= 1 + 1e-13  # below the diagonal, inside the bound
        kept = with_values(field, vals)
        assert same_bytes(kept.upper, field.upper)
        assert same_bytes(kept.values, field.values)

    def test_triangle_with_imaginary_diagonal_refused(self):
        upper = hpd_upper(3)
        upper[3, 0, 0, 3] += 2e-3j  # entry (1, 1) of ordinate 3
        field = triangle_field(upper, 3)
        assert field.hermitian_defect() == pytest.approx(4e-3)
        with pytest.raises(ValidationError, match=r"field is not Hermitian \(defect 4\.000e-03\)"):
            partial_field(field)

    def test_hermitian_triangle_has_zero_defect(self):
        assert triangle_field(hpd_upper(4), 4).hermitian_defect() == 0.0

    @pytest.mark.parametrize("stored", ["triangle", "values"])
    def test_all_zero_field_is_degenerate(self, stored):
        field = triangle_field(np.zeros((5, 1, 1, 6), dtype=complex), 3)
        if stored == "values":
            field = with_values(field, np.zeros((5, 1, 1, 3, 3), dtype=complex))
        with pytest.raises(DegenerateFieldError, match="identically zero"):
            partial_field(field)

    def test_nan_entries_give_singular_ordinates(self):
        upper = hpd_upper(3)
        upper[1, 0, 0, 4] = np.nan  # entry (2, 3)
        upper[4, 0, 0, 0] = complex(np.nan, 0.0)  # entry (1, 1)
        assert_singular_at_1_and_4(partial_field(triangle_field(upper, 3)))

    def test_nan_values_on_both_sides_give_singular_ordinates(self):
        field = triangle_field(hpd_upper(3), 3)
        vals = field.values.copy()
        vals[1, 0, 0, 1, 2] = vals[1, 0, 0, 2, 1] = np.nan  # (2, 3) and (3, 2)
        vals[4, 0, 0, 0, 0] = complex(np.nan, 0.0)  # (1, 1)
        assert_singular_at_1_and_4(partial_field(with_values(field, vals)))

    @pytest.mark.parametrize("case", ["readme", "absent_component_slice"])
    def test_field_rebuilt_from_its_values_inverts_alike(self, case):
        smoothed = triangle_fields(*CASES[case]()[:2])[1]
        pf, again = partial_field(smoothed), partial_field(with_values(smoothed, smoothed.values))
        for name in ("inverse", "ridge", "singular", "coherency", "abs_d"):
            assert same_bytes(getattr(again, name), getattr(pf, name)), name
        for a, b in zip(again.pairs, pf.pairs):
            assert same_bytes(a, b)


def assert_singular_at_1_and_4(pf):
    assert pf.singular.ravel().tolist() == [False, True, False, False, True, False]
    assert np.isnan(pf.pair_abs_d(1, 2)[[1, 4]]).all()
    assert np.isfinite(pf.pair_abs_d(1, 2)[[0, 2, 3, 5]]).all()
    assert np.isnan(pf.abs_d[1]).all() and np.isnan(pf.inverse[4]).all()


class TestFieldInterfaces:
    def test_values_and_entries_of_a_triangle(self):
        upper = hpd_upper(3)
        field = triangle_field(upper, 3)
        assert "values" not in vars(field)
        assert same_bytes(field.entry(2, 3), upper[..., 4])
        assert same_bytes(field.entry(3, 2), np.conj(upper[..., 4]))
        vals = field.values
        assert vals.shape == (6, 1, 1, 3, 3)
        assert same_bytes(vals[..., 2, 1], np.conj(upper[..., 4]))
        assert field.values is vals  # built once
        assert field.hermitian_defect() == 0.0

    def test_lower_pair_reads_the_full_array(self):
        pf = partial_field(triangle_field(hpd_upper(3), 3))
        assert "_full" not in vars(pf)
        lower = pf.pair_coherency(2, 1)
        assert same_bytes(lower, pf.coherency[..., 1, 0])
        assert same_bytes(pf.pair_coherency(1, 2), pf.coherency[..., 0, 1])


class CountingBuffers(_Buffers):
    """Counts each name's allocations and requests; every instance made in
    a test is kept in ``made``."""

    made: list = []

    def __init__(self):
        super().__init__()
        self.allocations = Counter()
        self.requests = Counter()
        self.made.append(self)

    def __call__(self, name, shape, dtype=np.complex128):
        before = self.arrays.get(name)
        a = super().__call__(name, shape, dtype)
        self.allocations[name] += a is not before
        self.requests[name] += 1
        return a


def count_builds(monkeypatch, builds):
    """Count, in ``builds``, each build of a full array: SpectralField.values
    and PartialField's full coherency and |d_ij|."""
    for cls, name in ((SpectralField, "values"), (PartialField, "_full")):
        def counted(self, _build=vars(cls)[name].func, _key=f"{cls.__name__}.{name}"):
            builds[_key] += 1
            return _build(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)


@pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
def test_replicates_reuse_buffers_and_build_no_full_array(monkeypatch, marked):
    builds = Counter()
    count_builds(monkeypatch, builds)
    monkeypatch.setattr(CountingBuffers, "made", [])
    monkeypatch.setattr(stspectra.graph, "_Buffers", CountingBuffers)
    pattern = marked_case()[0] if marked else readme_case()[0]
    spec = AnalysisSpec(FrequencyGrid.default(pattern.T), (2, 2, 1), marked=marked)
    replicates = 5
    calibrate_null_threshold(pattern, spec, replicates=replicates, seed=11)
    assert builds == Counter()
    (work,) = CountingBuffers.made
    field_sized = {"periodogram", "box_extension", "box_p", "box_q", "box_u", "magnitude",
                   "stack", "stack_magnitude", "inverse", "coherency", "abs_d"}
    assert field_sized <= set(work.requests)
    assert set(work.allocations.values()) == {1}
    assert all(n % replicates == 0 for n in work.requests.values())
    # reading a full array afterwards builds it, once
    smoothed = smooth_spectra(periodogram_matrix(dft(pattern, spec.grid)), (2, 2, 1))
    pf = partial_field(smoothed)
    pf.abs_d, pf.coherency, pf.abs_d, smoothed.values, smoothed.values
    assert builds == Counter({"PartialField._full": 1, "SpectralField.values": 1})
