"""End-to-end acceptance checks, one recorded summary line per criterion.

The heavy shared ingredients (the calibrated threshold, the null and
planted simulation campaigns, the round-trip fields) are module-scoped
fixtures so each runs once; a module-level collector accumulates every
bounded statistic those campaigns emit for the global range check.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    TINY_MARKS,
    TINY_T,
    TINY_TYPE,
    TINY_X,
    TINY_Y,
    build_pattern,
    record_criterion,
)
from oracles import dft_separable, forward_from_lags, partial_coherence_three
from test_partial import random_hpd_field
from test_spectra import DFT_ORACLE, grid_index

import stspectra
from stspectra import (
    AnalysisSpec,
    FrequencyGrid,
    SimSpec,
    build_dependence_graph,
    calibrate_null_threshold,
    coherence,
    dft,
    dot_spectrum,
    estimate_k,
    estimate_spatial_intensity,
    inverse_transform,
    mark_permutation_envelope,
    marked_dft,
    multiple_coherence,
    partial_cross_spectrum_direct,
    partial_field,
    periodogram_matrix,
    simulate,
    simulate_binomial_null,
    smooth_spectra,
    symmetrise_scalar,
)
from stspectra.cli import main

GRID4 = FrequencyGrid.default(4)

# campaign smoothing: 75-ordinate neighbourhoods keep the null supremum of
# |d_ij| well below the planted-dependence level; calibration uses the same
HW = (2, 2, 1)

N_SEEDS = 100
CALIBRATION_SEED = 7654321


class BoundCollector:
    """Running extrema over every bounded statistic the campaigns produce."""

    def __init__(self):
        self.lo = np.inf
        self.hi = -np.inf
        self.eig_ratio = -np.inf
        self.herm = 0.0
        self.n_values = 0
        self.n_fields = 0

    def add_stats(self, arr):
        a = np.asarray(arr, dtype=float)
        a = a[np.isfinite(a)]
        if a.size:
            self.lo = min(self.lo, float(a.min()))
            self.hi = max(self.hi, float(a.max()))
            self.n_values += a.size

    def add_field(self, field):
        self.herm = max(self.herm, field.hermitian_defect())
        d = field.d
        mats = field.values.reshape(-1, d, d)
        evals = np.linalg.eigvalsh(mats)
        traces = np.einsum("nii->n", mats).real
        ratio = np.where(traces > 0, -evals.min(axis=1) / traces, 0.0)
        self.eig_ratio = max(self.eig_ratio, float(ratio.max()))
        self.n_fields += 1


BOUNDS = BoundCollector()


def analysed_run(pattern, half_widths=HW):
    """Transform, smooth, and partial-analyse one pattern, feeding BOUNDS."""
    dfts = dft(pattern, GRID4)
    smoothed = smooth_spectra(periodogram_matrix(dfts), half_widths)
    d = pattern.d
    BOUNDS.add_field(smoothed)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            BOUNDS.add_stats(coherence(smoothed, i, j))
        rest = tuple(j for j in range(1, d + 1) if j != i)
        BOUNDS.add_stats(multiple_coherence(smoothed, i, rest))
    BOUNDS.add_stats(dot_spectrum(smoothed, 1).coherence)
    if d >= 3:
        pf = partial_field(smoothed)
        BOUNDS.add_stats(pf.abs_d)
        return pf, smoothed
    return None, smoothed


@pytest.fixture(scope="module")
def shared_threshold():
    return calibrate_null_threshold(
        simulate_binomial_null((1200, 1200, 1200), 4, seed=0),
        AnalysisSpec(GRID4, HW),
        quantile=0.95,
        replicates=200,
        seed=CALIBRATION_SEED,
    )


@pytest.fixture(scope="module")
def null_campaign(shared_threshold):
    empty = 0
    for k in range(N_SEEDS):
        res = simulate(
            SimSpec(
                kind="homogeneous_poisson",
                rates=(300.0, 300.0, 300.0),
                T=4,
                seed=1000 + k,
            )
        )
        pf, _ = analysed_run(res.pattern)
        g = build_dependence_graph(pf, shared_threshold.xi)
        empty += not g.edges
    return empty


@pytest.fixture(scope="module")
def planted_campaign(shared_threshold):
    exact = 0
    for k in range(N_SEEDS):
        res = simulate(
            SimSpec(
                kind="linked_cluster",
                rates=(75.0, 75.0, 300.0),
                T=4,
                link_pairs=((1, 2, 225.0, 0.005),),
                seed=2000 + k,
            )
        )
        pf, _ = analysed_run(res.pattern)
        g = build_dependence_graph(pf, shared_threshold.xi)
        exact += g.edges == ((1, 2),)
    return exact


@pytest.fixture(scope="module")
def round_trip_worst():
    worst = 0.0
    for k in range(20):
        pat = simulate_binomial_null((250, 250), T=4, seed=4000 + k)
        _, smoothed = analysed_run(pat, half_widths=(1, 1, 0))
        for i, j in ((1, 1), (1, 2), (2, 2)):
            vals = smoothed.entry(i, j)
            full, *_ = symmetrise_scalar(vals, smoothed.grid, smoothed.T)
            lag = inverse_transform(vals, smoothed.grid, smoothed.T)
            back = forward_from_lags(lag)
            rel = np.abs(back - full).max() / np.abs(full).max()
            worst = max(worst, float(rel))
    return worst


def test_criterion_01_partial_route_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (3, 4, 5):
        field = random_hpd_field(d, n_points=100, seed=100 + d)
        pf = partial_field(field)
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                via_inverse = pf.pair_coherency(i, j)
                rest = tuple(k for k in range(1, d + 1) if k not in (i, j))
                direct = partial_cross_spectrum_direct(field, i, j, rest).coherency
                worst = max(worst, float(np.abs(via_inverse - direct).max()))
                if d == 3:
                    (k,) = (m for m in (1, 2, 3) if m not in (i, j))
                    three = partial_coherence_three(field, i, j, k)
                    worst = max(worst, float(np.abs(via_inverse - three).max()))
                    worst = max(worst, float(np.abs(direct - three).max()))
    elapsed = time.perf_counter() - t0
    record_criterion(
        1,
        worst <= 1e-8 and elapsed <= 10.0,
        f"route max diff {worst:.2e} (tol 1e-8), d in 3..5, 100 matrices each, "
        f"{elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_transform_routes_and_frozen_points():
    worst = 0.0
    tol = 0.0
    for k in range(20):
        pat = simulate_binomial_null((334, 333, 333), T=4, seed=3000 + k)
        tol = 1e-10 * pat.n
        a = dft(pat, GRID4)
        b = dft_separable(pat, GRID4)
        worst = max(worst, float(np.abs(a.values - b.values).max()))
    tiny = build_pattern(
        TINY_X, TINY_Y, TINY_T, TINY_TYPE, ("a", "b"), T=2, marks=TINY_MARKS
    )
    tiny_grid = FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=0, u_max=1)
    dv = dft(tiny, tiny_grid)
    frozen = 0.0
    for (p, q, u), expected in DFT_ORACLE.items():
        idx = grid_index(tiny_grid, p, q, u)
        for comp, value in enumerate(expected):
            frozen = max(frozen, abs(dv.values[comp][idx] - value))
    record_criterion(
        2,
        worst <= tol and frozen < 1e-12,
        f"route max diff {worst:.2e} over 20 patterns of n=1000 (tol {tol:.0e}); "
        f"five frozen points max err {frozen:.2e} (tol 1e-12)",
    )


def test_criterion_03_round_trip_reconstruction(round_trip_worst):
    record_criterion(
        3,
        round_trip_worst <= 1e-8,
        f"max relative reconstruction error {round_trip_worst:.2e} over "
        "20 patterns x 3 entries (tol 1e-8)",
    )


def test_criterion_04_null_graphs_empty(shared_threshold, null_campaign):
    record_criterion(
        4,
        null_campaign >= 90,
        f"{null_campaign}/{N_SEEDS} independent-component graphs empty "
        f"(need >= 90) at xi={shared_threshold.xi:.4f} "
        f"({shared_threshold.replicates} null replicates, 95% quantile)",
    )


def test_criterion_05_planted_edge_recovered(shared_threshold, planted_campaign):
    record_criterion(
        5,
        planted_campaign >= 80,
        f"{planted_campaign}/{N_SEEDS} linked-pair runs produced exactly the "
        f"edge (1,2) (need >= 80) at the same xi={shared_threshold.xi:.4f}; "
        "shared-offspring share 75% by design",
    )


def test_criterion_06_poisson_k_benchmark():
    r_grid = (0.05, 0.1)
    t_grid = (1.0, 2.0)
    acc = np.zeros((2, 2))
    for k in range(N_SEEDS):
        res = simulate(
            SimSpec(
                kind="homogeneous_poisson",
                rates=(100.0, 100.0),
                T=8,
                seed=5000 + k,
            )
        )
        est = estimate_k(res.pattern, r_grid=r_grid, t_grid=t_grid, C=(1,), D=(2,))
        acc += est.values
    mean = acc / N_SEEDS
    checks = []
    for (ir, it) in ((0, 0), (1, 0), (1, 1)):
        target = 2.0 * np.pi * r_grid[ir] ** 2 * t_grid[it]
        checks.append(abs(mean[ir, it] - target) / target)
    worst = max(checks)
    record_criterion(
        6,
        worst <= 0.10,
        f"cross-K mean over {N_SEEDS} seeds within {worst:.1%} of 2*pi*r^2*t "
        "at (r,t) in {(0.05,1),(0.1,1),(0.1,2)} (tol 10%)",
    )


def test_criterion_07_intensity_mass():
    worst = 0.0
    for k in range(20):
        pat = simulate_binomial_null((500, 500), T=4, seed=6000 + k)
        mass = estimate_spatial_intensity(pat).mass()
        worst = max(worst, abs(mass - pat.n) / pat.n)
    record_criterion(
        7,
        worst <= 0.02,
        f"spatial intensity mass within {worst:.2e} of n over 20 patterns "
        "of n=1000 (tol 2%)",
    )


def test_criterion_08_bound_suite(null_campaign, planted_campaign, round_trip_worst):
    ok = (
        BOUNDS.lo >= 0.0
        and BOUNDS.hi <= 1.0 + 1e-9
        and BOUNDS.eig_ratio <= 1e-9
        and BOUNDS.herm == 0.0
    )
    record_criterion(
        8,
        ok,
        f"{BOUNDS.n_values} statistics in [{BOUNDS.lo:.3g}, {BOUNDS.hi:.10g}] "
        f"(limit 1+1e-9); worst -min_eig/trace {BOUNDS.eig_ratio:.2e} "
        f"(limit 1e-9); hermitian defect {BOUNDS.herm} over "
        f"{BOUNDS.n_fields} smoothed fields",
    )


@pytest.fixture(scope="module")
def marked_outcomes():
    base = simulate(
        SimSpec(
            kind="homogeneous_poisson", rates=(80.0, 80.0, 80.0), T=4, seed=8400
        )
    ).pattern
    constant = build_pattern(
        base.x, base.y, base.t, base.type_id, base.labels, T=base.T,
        marks=np.full(base.n, 3.5),
    )
    zero_max = float(np.abs(marked_dft(constant, GRID4).values).max())

    marked = simulate(
        SimSpec(
            kind="homogeneous_poisson",
            rates=(80.0, 80.0, 80.0),
            T=4,
            seed=8500,
            mark_dist="normal:2.0,0.5",
        )
    ).pattern
    doubled = build_pattern(
        marked.x, marked.y, marked.t, marked.type_id, marked.labels,
        T=marked.T, marks=marked.marks * 2.0,
    )
    abs_ds = []
    for pat in (marked, doubled):
        smoothed = smooth_spectra(
            periodogram_matrix(marked_dft(pat, GRID4)), HW
        )
        abs_ds.append(partial_field(smoothed).abs_d)
    same_nan = bool(np.array_equal(np.isnan(abs_ds[0]), np.isnan(abs_ds[1])))
    diffs = np.abs(abs_ds[0] - abs_ds[1])
    scale_diff = float(np.nanmax(diffs)) if np.isnan(diffs).any() else float(diffs.max())

    inside = 0
    for k in range(N_SEEDS):
        res = simulate(
            SimSpec(
                kind="homogeneous_poisson",
                rates=(75.0, 75.0),
                T=4,
                seed=8000 + k,
                mark_dist="normal:1.0,0.25",
            )
        )
        est, lo, hi = mark_permutation_envelope(
            res.pattern,
            r_grid=(0.05, 0.1),
            t_grid=(1.0,),
            permutations=100,
            seed=8600 + k,
        )
        inside += bool(((est.values >= lo) & (est.values <= hi)).all())
    return zero_max, scale_diff, same_nan, inside


def test_criterion_09_marked_machinery(marked_outcomes):
    zero_max, scale_diff, same_nan, inside = marked_outcomes
    ok = (
        zero_max == 0.0
        and same_nan
        and scale_diff <= 1e-10
        and inside >= 0.9 * N_SEEDS
    )
    record_criterion(
        9,
        ok,
        f"constant-mark transform max |value| {zero_max}; doubling changed "
        f"|d_ij| by {scale_diff:.2e} (tol 1e-10); centred mark K inside its "
        f"100-permutation envelope in {inside}/{N_SEEDS} seeds (need >= 90)",
    )


# the criterion-10 transform and periodogram; prints their time and digests
CRITERION_10_SCRIPT = """
import hashlib, json, time
from stspectra import FrequencyGrid, dft, periodogram_matrix, simulate_binomial_null
pat = simulate_binomial_null((20000,) * 5, T=5, seed=777)
t0 = time.perf_counter()
f = dft(pat, FrequencyGrid.default(5))
pg = periodogram_matrix(f)
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": seconds,
    "digests": [hashlib.sha256(a.values.tobytes()).hexdigest() for a in (f, pg)],
}))
"""


def test_criterion_10_throughput_and_thread_invariance():
    # the transform is serial and its GEMMs are the only parallel code, so
    # BLAS threads are the one thing that could move the bytes: run it at
    # the default BLAS threads here and at one BLAS thread in a child
    pat = simulate_binomial_null((20000,) * 5, T=5, seed=777)
    grid = FrequencyGrid.default(5)

    t0 = time.perf_counter()
    f = dft(pat, grid)
    pg = periodogram_matrix(f)
    t_default = time.perf_counter() - t0
    digests = [hashlib.sha256(a.values.tobytes()).hexdigest() for a in (f, pg)]

    src = str(Path(stspectra.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", CRITERION_10_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    t_one = child["seconds"]

    identical = child["digests"] == digests
    record_criterion(
        10,
        t_one <= 10.0 and t_default <= 3.0 and identical,
        f"d=5, 100000 events, 17x33x5 grid: one BLAS thread {t_one:.2f}s "
        f"(limit 10s), default BLAS threads {t_default:.2f}s (limit 3s), "
        f"outputs byte-identical: {identical}",
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    spec = json.dumps(
        {"kind": "homogeneous_poisson", "rates": [120, 120, 120], "T": 4, "seed": 42}
    )
    snapshots = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = main(["pipeline", "--simulate", spec, "--xi", "0.7", "--out", str(out)])
        assert code == 0
        snapshots.append(
            {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()}
        )
    names = set(snapshots[0])
    suffixes = {n.rsplit(".", 1)[-1] for n in names}
    ok = (
        snapshots[0] == snapshots[1]
        and {"dot", "json", "csv"} <= suffixes
    )
    record_criterion(
        11,
        ok,
        f"two pipeline runs byte-identical across {len(names)} artifacts "
        f"({', '.join(sorted(suffixes))})",
    )
