"""First- and second-order summaries against plain-loop oracles."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stspectra
from stspectra import classical
from stspectra import (
    FrequencyGrid,
    dft,
    estimate_intensity,
    estimate_k,
    estimate_pair_correlation,
    estimate_spatial_intensity,
    estimate_temporal_intensity,
    mark_permutation_envelope,
    mark_weighted_k,
    marked_dft,
    poisson_k,
    scott_bandwidths,
    stoyan_bandwidth,
)
from stspectra.errors import DomainError, ValidationError
from stspectra.ingest import MultiPattern, Window

from conftest import build_pattern, child_peak_mib
from oracles import budget_blocks, close_pairs_dense, kernel_intensity_loop


# ---------------------------------------------------------------------------
# plain-loop oracles, scalar arithmetic only


def overlap_weight(L, t):
    return max(min(L + 0.5, t) - max(L - 0.5, -t), 0.0)


def epan(v, h):
    z = v / h
    return 0.75 * (1.0 - z * z) / h if abs(z) < 1.0 else 0.0


def border_dist(x, y):
    return min(x, 1.0 - x, y, 1.0 - y)


def naive_k(pat, r, t, C, D):
    T = pat.T
    counts = pat.counts
    inv = [T / counts[c - 1] for c in pat.type_id]
    table = [overlap_weight(L, t) for L in range(T)]
    dmax = max((L for L in range(T) if table[L] > 0), default=0)
    side = 1.0 - 2.0 * r
    steps = (T - dmax) - (1 + dmax) + 1
    total = 0.0
    n = pat.n
    for i in range(n):
        if pat.type_id[i] not in C:
            continue
        if border_dist(pat.x[i], pat.y[i]) < r:
            continue
        if not (1 + dmax <= pat.t[i] <= T - dmax):
            continue
        for j in range(n):
            if j == i or pat.type_id[j] not in D:
                continue
            if math.hypot(pat.x[i] - pat.x[j], pat.y[i] - pat.y[j]) > r:
                continue
            total += inv[i] * inv[j] * table[abs(int(pat.t[i]) - int(pat.t[j]))]
    return total / (len(C) * len(D) * side * side * steps)


def naive_pair_correlation(pat, r, t, eps, delta):
    T = pat.T
    n = pat.n
    inv = T / n  # pooled homogeneous plug-in, same for every event
    raw = [epan(L - t, delta) for L in range(T)]
    ring_total = raw[0] + 2.0 * sum(raw[1:])
    table = [0.0] * T if ring_total <= 0 else [2.0 * v / ring_total for v in raw]
    dmax = max((L for L in range(T) if table[L] > 0), default=0)
    support = r + eps
    side = 1.0 - 2.0 * support
    steps = (T - dmax) - (1 + dmax) + 1
    total = 0.0
    for i in range(n):
        if border_dist(pat.x[i], pat.y[i]) < support:
            continue
        if not (1 + dmax <= pat.t[i] <= T - dmax):
            continue
        for j in range(n):
            if j == i:
                continue
            dist = math.hypot(pat.x[i] - pat.x[j], pat.y[i] - pat.y[j])
            kr = epan(dist - r, eps)
            if kr == 0.0:
                continue
            total += inv * inv * kr * table[abs(int(pat.t[i]) - int(pat.t[j]))]
    return total / (4.0 * math.pi * r * side * side * steps)


def naive_marked_k(comp, r, t):
    T = comp.T
    x, y, tt, marks = comp.x, comp.y, comp.t, comp.marks
    n = x.size
    lam = n / T
    mbar = float(marks.mean())
    table = [overlap_weight(L, t) for L in range(T)]
    dmax = max((L for L in range(T) if table[L] > 0), default=0)
    side = 1.0 - 2.0 * r
    steps = (T - dmax) - (1 + dmax) + 1
    total = 0.0
    for i in range(n):
        if border_dist(x[i], y[i]) < r:
            continue
        if not (1 + dmax <= tt[i] <= T - dmax):
            continue
        for j in range(n):
            if j == i:
                continue
            if math.hypot(x[i] - x[j], y[i] - y[j]) > r:
                continue
            w = table[abs(int(tt[i]) - int(tt[j]))]
            total += w * (marks[i] * marks[j] / (mbar * mbar) - 1.0)
    return total / (lam * lam * side * side * steps)


@pytest.fixture(scope="module")
def oracle_pattern():
    rng = np.random.default_rng(90)
    n = 20
    xs, ys, ts, cs, ms = [], [], [], [], []
    for comp in (1, 2, 3):
        xs.append(rng.random(n))
        ys.append(rng.random(n))
        ts.append(rng.integers(1, 5, n))
        cs.append(np.full(n, comp))
        ms.append(rng.normal(2.0, 0.6, n))
    return build_pattern(
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(ts),
        np.concatenate(cs),
        ("a", "b", "c"),
        T=4,
        marks=np.concatenate(ms),
    )


class TestKOracle:
    def test_matches_naive_loops(self, oracle_pattern):
        cases = (
            ((0.08, 0.15), (0.6, 1.0, 1.4), (1,), (2,)),
            # unsorted radii: the pair cutoff is the largest, not the last
            ((0.15, 0.08), (0.6, 1.0), (1,), (2,)),
            # a zero-weight lag band beside a weighted one
            ((0.08, 0.15), (0.0, 1.4), (1,), (2,)),
            # partly overlapping type sets share events but never self-pairs
            ((0.15, 0.08), (0.0, 1.4), (1, 2), (2, 3)),
        )
        for r_grid, t_grid, C, D in cases:
            est = estimate_k(oracle_pattern, r_grid, t_grid, C=C, D=D)
            for k, r in enumerate(r_grid):
                for l, t in enumerate(t_grid):
                    expect = naive_k(oracle_pattern, r, t, C, D)
                    assert est.values[k, l] == pytest.approx(expect, rel=1e-10)

    def test_pooled_sets(self, oracle_pattern):
        est = estimate_k(oracle_pattern, (0.1,), (1.0,))
        expect = naive_k(oracle_pattern, 0.1, 1.0, (1, 2, 3), (1, 2, 3))
        assert est.values[0, 0] == pytest.approx(expect, rel=1e-10)

    def test_labels_resolve_like_indices(self, oracle_pattern):
        by_label = estimate_k(oracle_pattern, (0.1,), (1.0,), C=("a",), D=("c",))
        by_index = estimate_k(oracle_pattern, (0.1,), (1.0,), C=(1,), D=(3,))
        assert np.array_equal(by_label.values, by_index.values)
        assert by_label.meta["C"] == ("a",)
        assert by_label.meta["D"] == ("c",)

    def test_zero_time_band_is_zero(self, oracle_pattern):
        est = estimate_k(oracle_pattern, (0.1,), (0.0,))
        assert est.values[0, 0] == 0.0

    def test_constant_intensity_callable_matches_default(self, oracle_pattern):
        counts = np.asarray(oracle_pattern.counts, dtype=float)
        T = oracle_pattern.T

        def lam(x, y, t, type_id):
            return counts[type_id - 1] / T

        a = estimate_k(oracle_pattern, (0.1,), (1.0,), C=(1,), D=(2,))
        b = estimate_k(
            oracle_pattern, (0.1,), (1.0,), C=(1,), D=(2,), intensity=lam
        )
        assert np.array_equal(a.values, b.values)

    def test_erosion_exhaustion(self, oracle_pattern):
        with pytest.raises(DomainError):
            estimate_k(oracle_pattern, (0.5,), (1.0,))
        with pytest.raises(DomainError):
            estimate_k(oracle_pattern, (0.1,), (5.0,))

    def test_grid_validation(self, oracle_pattern):
        with pytest.raises(DomainError):
            estimate_k(oracle_pattern, (-0.1,), (1.0,))
        with pytest.raises(DomainError):
            estimate_k(oracle_pattern, (0.1,), (-1.0,))
        with pytest.raises(ValidationError):
            estimate_k(oracle_pattern, (), (1.0,))

    def test_poisson_benchmark_shape(self):
        bench = poisson_k((0.05, 0.1), (1.0, 2.0))
        assert bench.shape == (2, 2)
        assert bench[1, 1] == pytest.approx(2.0 * math.pi * 0.01 * 2.0)


class TestPairCorrelationOracle:
    def test_matches_naive_loops(self, oracle_pattern):
        eps, delta = 0.05, 0.5
        # unsorted radii (the cutoff is the largest support, not the last),
        # and t = 0.7, whose ring lag kernel weights lag 1 alone
        for r_grid, t_grid in (((0.1, 0.2), (1.0, 1.3)), ((0.2, 0.1), (0.7, 1.3))):
            est = estimate_pair_correlation(
                oracle_pattern, r_grid, t_grid, eps=eps, delta=delta
            )
            for k, r in enumerate(r_grid):
                for l, t in enumerate(t_grid):
                    expect = naive_pair_correlation(oracle_pattern, r, t, eps, delta)
                    assert est.values[k, l] == pytest.approx(expect, rel=1e-10)

    def test_default_bandwidths_are_recorded(self, oracle_pattern):
        est = estimate_pair_correlation(oracle_pattern, (0.1,), (1.0,))
        assert est.meta["eps"] == pytest.approx(stoyan_bandwidth(oracle_pattern))
        assert est.meta["delta"] == pytest.approx(
            scott_bandwidths(oracle_pattern)[1]
        )

    def test_lag_beyond_every_integer_lag_refused(self, oracle_pattern):
        # t = 0.5 with delta = 0.5 weights no integer lag, and at T = 4 the
        # ring of t = 4.2 lies past lag 3: neither has a kernel to renormalise
        for t in (0.5, 4.2):
            with pytest.raises(DomainError, match=rf"t={t:g} .* delta=0\.5\b"):
                estimate_pair_correlation(
                    oracle_pattern, (0.1,), (1.0, t), eps=0.05, delta=0.5
                )

    def test_r_must_exceed_ring_bandwidth(self, oracle_pattern):
        with pytest.raises(DomainError):
            estimate_pair_correlation(oracle_pattern, (0.01,), (1.0,), eps=0.05)

    def test_callable_intensity_matches_homogeneous(self, oracle_pattern):
        n, T = oracle_pattern.n, oracle_pattern.T

        def lam(x, y, t):
            return np.full(x.size, n / T)

        a = estimate_pair_correlation(oracle_pattern, (0.1,), (1.0,), eps=0.05)
        b = estimate_pair_correlation(
            oracle_pattern, (0.1,), (1.0,), eps=0.05, intensity=lam
        )
        assert np.array_equal(a.values, b.values)

    def test_rows_iterator(self, oracle_pattern):
        est = estimate_pair_correlation(oracle_pattern, (0.1, 0.2), (1.0,))
        rows = list(est.rows())
        assert len(rows) == 2
        assert rows[0][:2] == (0.1, 1.0)


def pair_search_cells(reach, lag_max, T=8):
    """The (r, t) cells as far as the pair search reads them: the largest
    support, the largest weighted lag and T.  Built directly, since a reach
    of half the window or more leaves no eroded domain for ``_cells``."""
    return classical._Cells(
        r=np.array([reach]), t=np.array([1.0]), eps=None, tables=np.ones((1, T)), T=T,
        supports=np.array([reach]), dmaxes=np.array([lag_max]), measure=np.ones((1, 1)),
    )


def pair_search_events(reach, n=400, seed=8, T=8):
    """(x, y, t, global index) of events on and off the cell borders.

    A third are uniform; a third sit on multiples of 1/q (q = 1..12, which
    holds every cell border for reach >= 0.08) or of reach/2, or on one of
    their float neighbours; a third take one coordinate from each.  x = 1.0
    and y = 1.0 are among the border values, and so are 0.3 and
    0.19999999999999998.  The last four events form two pairs at distance
    exactly ``reach``, one along each axis."""
    rng = np.random.default_rng(seed)
    border = np.unique(np.r_[
        [k / q for q in range(1, 13) for k in range(q + 1)],
        np.arange(0.0, 1.0, reach / 2),
        0.3, 0.19999999999999998,
    ])
    border = np.r_[border, np.nextafter(border, -1.0)[1:], np.nextafter(border, 2.0)[:-1]]
    third = n // 3
    x = np.r_[rng.random(third), rng.choice(border, third), rng.choice(border, n - 2 * third)]
    y = np.r_[rng.random(third), rng.choice(border, third), rng.random(n - 2 * third)]
    x[-4:] = 0.0, reach, 0.25, 0.25
    y[-4:] = 0.5, 0.5, 0.0, reach
    t = rng.integers(1, T + 1, n)
    t[-4:] = 1
    return x, y, t, np.arange(n)


PAIR_SETS = {
    "same": (slice(None), slice(None)),
    "overlapping": (slice(0, 300), slice(150, None)),
    "disjoint": (slice(0, 200), slice(200, None)),
    "empty-second": (slice(None), slice(0, 0)),
}


def assert_engine_matches_oracle(first, second, cells, budget):
    """The engine's blocks against the dense oracle's over the blocks that
    the candidate budget cuts, field by field in dtype and value; each block
    holds at most ``budget`` candidates or a single member.  Returns the
    oracle's blocks."""
    blocks = budget_blocks(first, second, cells, budget)
    got = list(classical._close_pairs(first, second, cells))
    want = list(close_pairs_dense(first, second, cells, blocks))
    assert len(got) == len(want) == len(blocks)
    for k, (g, w, (lo, hi)) in enumerate(zip(got, want, blocks)):
        for name, a, b in zip(classical._Pairs._fields, g, w):
            assert a.dtype == b.dtype, (k, name)
            assert np.array_equal(a, b), (k, name)
        assert np.all((g.i >= lo) & (g.i < hi))
    return want


class TestClosePairs:
    """The cell-index pair search against the dense block x partners search."""

    @pytest.mark.parametrize("reach", [0.5, 0.7, 0.1, 0.25, 0.13, 0.03])
    @pytest.mark.parametrize("sets", list(PAIR_SETS))
    @pytest.mark.parametrize("budget", [7, 2048])
    def test_matches_dense_search(self, monkeypatch, reach, sets, budget):
        monkeypatch.setattr(classical, "_PAIR_BUDGET", budget)
        events = pair_search_events(reach)
        first, second = (tuple(a[part] for a in events) for part in PAIR_SETS[sets])
        want = assert_engine_matches_oracle(
            first, second, pair_search_cells(reach, lag_max=2), budget
        )
        if sets == "same":
            assert (np.concatenate([w.dist for w in want]) == reach).sum() >= 4

    @pytest.mark.parametrize("reach", [0.1, 0.03])
    @pytest.mark.parametrize("sets", list(PAIR_SETS))
    @pytest.mark.parametrize("T, lag_max", [(8, 0), (8, 1), (8, 7), (1, 0)])
    @pytest.mark.parametrize("budget", [1, classical._PAIR_BUDGET])
    def test_blocks_follow_the_candidate_budget(
        self, monkeypatch, reach, sets, T, lag_max, budget
    ):
        # budget 1 puts every member with a candidate in a block of its own;
        # the default makes one block here
        monkeypatch.setattr(classical, "_PAIR_BUDGET", budget)
        events = pair_search_events(reach, T=T)
        first, second = (tuple(a[part] for a in events) for part in PAIR_SETS[sets])
        cells = pair_search_cells(reach, lag_max, T)
        want = assert_engine_matches_oracle(first, second, cells, budget)
        pairs = [np.concatenate(parts) for parts in zip(*want)]
        assert (pairs[3] <= lag_max).all()
        if sets == "same":
            assert pairs[0].size > 0

    def test_pair_across_a_rounded_cell_border(self):
        # at reach 0.1, cells of side exactly 0.1 put these x in cells 3 and 1
        x = np.array([0.3, 0.19999999999999998])
        events = (x, np.full(2, 0.5), np.ones(2, dtype=np.int64), np.arange(2))
        (pairs,) = classical._close_pairs(events, events, pair_search_cells(0.1, 0))
        np.testing.assert_array_equal(pairs.i, [0, 1])
        np.testing.assert_array_equal(pairs.j, [1, 0])

    @pytest.mark.parametrize("reach", [1e-7, 1e-300])
    def test_tiny_reach_finds_coincident_pairs(self, reach):
        # the cells stop at 2^20 a side, so the keys stay inside int64; the
        # squared-distance screen still keeps the pairs at distance 0 and,
        # at 1e-7, the pair just inside reach
        x = np.array([0.5, 0.5, 0.5 + reach, 0.25, 0.25, 0.75])
        y = np.array([0.5, 0.5, 0.5, 0.25, 0.251, 0.75])
        events = (x, y, np.array([1, 1, 1, 2, 2, 8]), np.arange(6))
        cells = pair_search_cells(reach, 0)
        assert_engine_matches_oracle(events, events, cells, classical._PAIR_BUDGET)
        (pairs,) = classical._close_pairs(events, events, cells)
        np.testing.assert_array_equal(pairs.i, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(pairs.j, [1, 2, 0, 2, 0, 1])

    def test_memory_is_bounded_by_the_pairs_in_reach(self):
        # a dense block x partners search peaks above 500 MiB here
        script = (
            "import numpy as np\n"
            "from stspectra import MultiPattern, Window, estimate_pair_correlation\n"
            "rng = np.random.default_rng(7)\n"
            "n = 13000\n"
            "pat = MultiPattern(x=rng.random(n), y=rng.random(n),\n"
            "    t=rng.integers(1, 9, n), type_id=rng.integers(1, 4, n),\n"
            "    labels=('a', 'b', 'c'), window=Window(0.0, 1.0, 0.0, 1.0, T=8))\n"
            "est = estimate_pair_correlation(pat.pooled(), [0.02, 0.05, 0.1], [1.0])\n"
            "assert np.isfinite(est.values).all()\n"
        )
        peak_mib = child_peak_mib(script)
        assert peak_mib < 300, f"peak RSS {peak_mib:.0f} MiB"


    def test_memory_does_not_grow_with_density(self):
        # blocks of 2048 first members held every candidate of the block:
        # 125 MiB at 50 000 events and 59 MiB at 12 500 here
        def peak(n):
            return child_peak_mib(
                "import numpy as np\n"
                "from stspectra import MultiPattern, Window, estimate_pair_correlation\n"
                "rng = np.random.default_rng(7)\n"
                f"n = {n}\n"
                "pat = MultiPattern(x=rng.random(n), y=rng.random(n),\n"
                "    t=rng.integers(1, 9, n), type_id=rng.integers(1, 4, n),\n"
                "    labels=('a', 'b', 'c'), window=Window(0.0, 1.0, 0.0, 1.0, T=8))\n"
                "est = estimate_pair_correlation(pat.pooled(), [0.02, 0.05], [1.0])\n"
                "assert np.isfinite(est.values).all()\n"
            )

        dense, sparse = peak(50_000), peak(12_500)
        assert dense < 80, f"peak RSS {dense:.0f} MiB at 50 000 events"
        assert dense - sparse < 15, f"{sparse:.0f} -> {dense:.0f} MiB"


class TestIntensity:
    def test_spatial_mass_is_event_count(self, oracle_pattern):
        surf = estimate_spatial_intensity(oracle_pattern)
        assert surf.mass() == pytest.approx(oracle_pattern.n, rel=1e-12)

    def test_edge_normaliser_matches_analytic_integral(self, oracle_pattern):
        # per-event kernel mass over the grid approximates the Gaussian
        # integral over [0,1]; midpoint rule on 64 cells is sub-1e-6 here
        bw = 0.1
        surf = estimate_spatial_intensity(oracle_pattern, bandwidth=bw, cells=64)
        step = 1.0 / 64

        def phi(z):
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        x0, y0 = oracle_pattern.x[0], oracle_pattern.y[0]
        grid_mass = 0.0
        for cx in surf.x_centers:
            z = (cx - x0) / bw
            grid_mass += math.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * bw)
        grid_mass *= step
        analytic = phi((1.0 - x0) / bw) - phi(-x0 / bw)
        assert grid_mass == pytest.approx(analytic, rel=5e-3)

    def test_surface_bytes_equal_at_one_two_and_four_blas_threads(self, tmp_path):
        # the sum over events runs in the transform's short products; one GEMM
        # over all events gave other bytes at two threads on these cases
        script = (
            "import hashlib, json\n"
            "from stspectra import estimate_spatial_intensity, simulate_binomial_null\n"
            "from stspectra.cli import main\n"
            "digests = {}\n"
            "for seed, n in ((1, 500), (2, 3000), (3, 12000)):\n"
            "    pat = simulate_binomial_null((n // 2, n - n // 2), T=4, seed=seed)\n"
            "    v = estimate_spatial_intensity(pat).values\n"
            "    digests[n] = hashlib.sha256(v.tobytes()).hexdigest()\n"
            "assert main(['simulate', '--kind', 'linked_cluster', '--rates',\n"
            "    '75,75,300', '--T', '4', '--link', '1,2,225,0.005', '--seed', '7',\n"
            "    '--out', 'sim']) == 0\n"
            "assert main(['classical', 'sim/events.csv', '--time-is-index',\n"
            "    '--estimator', 'intensity', '--out', 'run']) == 0\n"
            "with open('run/intensity_space.csv', 'rb') as f:\n"
            "    digests['csv'] = hashlib.sha256(f.read()).hexdigest()\n"
            "print(json.dumps(digests))\n"
        )
        src = str(Path(stspectra.__file__).resolve().parents[1])
        digests = {}
        for blas_threads in ("1", "2", "4"):
            out = tmp_path / f"threads{blas_threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=out,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            # the CLI prints its own report lines first
            digests[blas_threads] = json.loads(proc.stdout.splitlines()[-1])
        assert len(digests["1"]) == 4
        assert digests["2"] == digests["1"]
        assert digests["4"] == digests["1"]

    def test_temporal_mass_is_event_count(self, oracle_pattern):
        curve = estimate_temporal_intensity(oracle_pattern, bandwidth=0.7)
        assert curve.mass() == pytest.approx(oracle_pattern.n, rel=1e-12)
        assert curve.steps.tolist() == [1.0, 2.0, 3.0, 4.0]

    @staticmethod
    def cell_grid_mass(lam, cells, T):
        """The intensity summed over the cells x cells grid at each step
        1..T, times the cell area."""
        centers = (np.arange(cells) + 0.5) / cells
        gx, gy = np.meshgrid(centers, centers, indexing="ij")
        steps = np.arange(1, T + 1, dtype=float)
        return lam.at(gx.ravel(), gy.ravel(), steps[:, None]).sum() / cells**2

    def test_separable_integral_is_event_count(self, oracle_pattern):
        lam = estimate_intensity(oracle_pattern, cells=32)
        mass = self.cell_grid_mass(lam, 32, oracle_pattern.T)
        assert mass == pytest.approx(oracle_pattern.n, rel=1e-9)

    def test_nonseparable_integral_is_event_count(self, oracle_pattern):
        lam = estimate_intensity(oracle_pattern, cells=32, separable=False)
        mass = self.cell_grid_mass(lam, 32, oracle_pattern.T)
        assert mass == pytest.approx(oracle_pattern.n, rel=1e-9)

    @pytest.mark.parametrize("separable", [True, False])
    @pytest.mark.parametrize("block", [7, classical._PAIR_BLOCK])
    def test_at_matches_per_event_loop(self, oracle_pattern, monkeypatch, separable, block):
        # a block of 7 splits both the 60 events and the 45 queries
        monkeypatch.setattr(classical, "_PAIR_BLOCK", block)
        p = oracle_pattern
        rng = np.random.default_rng(3)
        qx = np.r_[rng.random(30), p.x[:15]]
        qy = np.r_[rng.random(30), p.y[:15]]
        qt = np.r_[rng.uniform(0.5, 4.5, 30), p.t[:15]]
        lam = estimate_intensity(p, eps=0.12, delta=0.8, cells=16, separable=separable)
        expect = kernel_intensity_loop(
            p.x.tolist(), p.y.tolist(), p.t.tolist(), p.T, 0.12, 0.8, 16, separable,
            zip(qx.tolist(), qy.tolist(), qt.tolist()),
        )
        np.testing.assert_allclose(lam.at(qx, qy, qt), expect, rtol=1e-12, atol=0)
        # broadcast queries evaluate as their flattened points
        grid = lam.at(qx[:, None], qy[None, :], 2.0)
        assert grid.shape == (45, 45)
        flat = lam.at(np.repeat(qx, 45), np.tile(qy, 45), np.full(45 * 45, 2.0))
        np.testing.assert_array_equal(grid.ravel(), flat)

    def test_at_memory_is_bounded_by_the_blocks(self):
        # an unblocked sum over events holds a queries x events matrix and
        # peaks above 800 MiB here
        script = (
            "import numpy as np\n"
            "from stspectra import MultiPattern, Window, estimate_intensity\n"
            "rng = np.random.default_rng(5)\n"
            "n = 6000\n"
            "pat = MultiPattern(x=rng.random(n), y=rng.random(n),\n"
            "    t=rng.integers(1, 5, n), type_id=rng.integers(1, 4, n),\n"
            "    labels=('a', 'b', 'c'), window=Window(0.0, 1.0, 0.0, 1.0, T=4))\n"
            "src = pat.pooled()\n"
            "v = estimate_intensity(src).at(src.x, src.y, src.t)\n"
            "assert np.isfinite(v).all() and (v > 0).all()\n"
        )
        peak_mib = child_peak_mib(script)
        assert peak_mib < 450, f"peak RSS {peak_mib:.0f} MiB"

    def test_separable_evaluates_pointwise(self, oracle_pattern):
        lam = estimate_intensity(oracle_pattern, cells=32)
        v = lam(0.5, 0.5, 2.0)
        assert np.isfinite(v) and v > 0

    def test_component_source(self, oracle_pattern):
        comp = oracle_pattern.component(2)
        surf = estimate_spatial_intensity(comp, bandwidth=0.1)
        assert surf.mass() == pytest.approx(comp.n, rel=1e-12)

    def test_degenerate_bandwidth_rejected(self):
        pat = build_pattern(
            (0.2, 0.4, 0.6), (0.3, 0.5, 0.7), (1, 1, 1), (1, 1, 2), ("a", "b"), T=1
        )
        # all events share one step: the temporal spread rule degenerates
        with pytest.raises(ValidationError):
            estimate_temporal_intensity(pat)

    def test_unit_square_required(self):
        pat = MultiPattern(
            x=np.array([0.5, 1.5]),
            y=np.array([0.5, 0.5]),
            t=np.array([1, 1], dtype=np.int64),
            type_id=np.array([1, 2], dtype=np.int64),
            labels=("a", "b"),
            window=Window(0.0, 2.0, 0.0, 1.0, T=1),
        )
        with pytest.raises(ValidationError):
            estimate_spatial_intensity(pat, bandwidth=0.1)

    @pytest.mark.parametrize(
        "analysis",
        [
            lambda pat: dft(pat, FrequencyGrid.default(1)),
            lambda pat: marked_dft(pat, FrequencyGrid.default(1)),
            lambda pat: estimate_k(pat, (0.1,), (0.0,)),
        ],
        ids=["dft", "marked_dft", "estimate_k"],
    )
    def test_unit_square_required_by_every_analysis(self, analysis):
        pat = MultiPattern(
            x=np.array([0.5, 1.5]),
            y=np.array([0.5, 0.5]),
            t=np.array([1, 1], dtype=np.int64),
            type_id=np.array([1, 2], dtype=np.int64),
            labels=("a", "b"),
            window=Window(0.0, 2.0, 0.0, 1.0, T=1),
            marks=np.array([1.0, 2.0]),
        )
        with pytest.raises(ValidationError, match="unit square"):
            analysis(pat)

    def test_bandwidth_rules(self, oracle_pattern):
        eps, delta = scott_bandwidths(oracle_pattern)
        n = oracle_pattern.n
        sx, sy = np.std(oracle_pattern.x), np.std(oracle_pattern.y)
        assert eps == pytest.approx(0.5 * (sx + sy) * n ** (-1 / 6))
        assert delta == pytest.approx(np.std(oracle_pattern.t) * n ** (-1 / 5))
        assert stoyan_bandwidth(oracle_pattern) == pytest.approx(0.15 / math.sqrt(n))


def _envelope_curve(source, r_grid, t_grid=None):
    return mark_permutation_envelope(source, r_grid, t_grid, permutations=3)[0]


CURVES = {
    "pair_correlation": estimate_pair_correlation,
    "k": estimate_k,
    "mark_k": mark_weighted_k,
    "envelope": _envelope_curve,
}


def _curve_source(pattern, name):
    return pattern if name == "k" else pattern.component(1)


class TestCurveGrids:
    @pytest.mark.parametrize("name", CURVES)
    @pytest.mark.parametrize("T, kept", [(4, (1.0,)), (5, (1.0, 2.0))])
    def test_default_lags_are_those_that_fit(self, oracle_pattern, name, T, kept):
        # t=2 reaches lag 2, which leaves no eroded step at T=4
        pat = dataclasses.replace(oracle_pattern, window=Window(0.0, 1.0, 0.0, 1.0, T=T))
        source = _curve_source(pat, name)
        default = CURVES[name](source, (0.1, 0.2))
        explicit = CURVES[name](source, (0.1, 0.2), kept)
        assert default.t_grid.tolist() == list(kept)
        assert np.array_equal(default.values, explicit.values)

    @pytest.mark.parametrize("name", CURVES)
    def test_default_lags_report_the_fault_when_none_fits(self, tiny_pattern, name):
        # T=2: t=1 leaves no eroded step; the pair correlation's ring
        # (delta about 0.38) of t=2 also reaches no lag in 0..1
        source = _curve_source(tiny_pattern, name)
        with pytest.raises(DomainError) as default:
            CURVES[name](source, (0.1,))
        with pytest.raises(DomainError) as explicit:
            CURVES[name](source, (0.1,), (1.0, 2.0))
        assert str(default.value) == str(explicit.value)

    @pytest.mark.parametrize("name", CURVES)
    @pytest.mark.parametrize(
        "r_grid, t_grid, axis",
        [
            ((np.nan,), (1.0,), "r"),
            ((0.1, np.inf), (1.0,), "r"),
            ((0.1,), (np.nan,), "t"),
            ((0.1,), (1.0, np.inf), "t"),
        ],
        ids=["r-nan", "r-inf", "t-nan", "t-inf"],
    )
    def test_non_finite_grid_entries_refused(self, oracle_pattern, name, r_grid, t_grid, axis):
        with pytest.raises(ValidationError, match=f"{axis} grid entries must be finite"):
            CURVES[name](_curve_source(oracle_pattern, name), r_grid, t_grid)


class TestMarkedK:
    def test_matches_naive_loops(self, oracle_pattern):
        comp = oracle_pattern.component(1)
        # the second grid has unsorted radii and a zero-weight lag band
        for r_grid, t_grid in (((0.12, 0.2), (0.8, 1.2)), ((0.2, 0.12), (0.0, 1.4))):
            est = mark_weighted_k(comp, r_grid, t_grid)
            for k, r in enumerate(r_grid):
                for l, t in enumerate(t_grid):
                    expect = naive_marked_k(comp, r, t)
                    assert est.values[k, l] == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_constant_marks_give_exact_zero(self):
        rng = np.random.default_rng(4)
        n = 40
        pat = build_pattern(
            rng.random(n),
            rng.random(n),
            rng.integers(1, 4, n),
            np.repeat([1, 2], n // 2),
            ("a", "b"),
            T=3,
            marks=np.full(n, 2.5),
        )
        est = mark_weighted_k(pat, (0.1, 0.2), (1.0,))
        assert np.abs(est.values).max() == 0.0

    def test_mark_doubling_invariance(self, oracle_pattern):
        doubled = build_pattern(
            oracle_pattern.x,
            oracle_pattern.y,
            oracle_pattern.t,
            oracle_pattern.type_id,
            oracle_pattern.labels,
            T=oracle_pattern.T,
            marks=2.0 * oracle_pattern.marks,
        )
        a = mark_weighted_k(oracle_pattern, (0.15,), (1.0,))
        b = mark_weighted_k(doubled, (0.15,), (1.0,))
        assert np.array_equal(a.values, b.values)

    def test_unmarked_source_rejected(self, oracle_pattern):
        bare = build_pattern(
            oracle_pattern.x,
            oracle_pattern.y,
            oracle_pattern.t,
            oracle_pattern.type_id,
            oracle_pattern.labels,
            T=oracle_pattern.T,
        )
        with pytest.raises(ValidationError):
            mark_weighted_k(bare, (0.1,), (1.0,))

    def test_envelope_deterministic_and_ordered(self, oracle_pattern):
        comp = oracle_pattern.component(1)
        kw = dict(r_grid=(0.15,), t_grid=(1.0,), permutations=20, seed=9)
        est1, lo1, hi1 = mark_permutation_envelope(comp, **kw)
        est2, lo2, hi2 = mark_permutation_envelope(comp, **kw)
        assert np.array_equal(lo1, lo2)
        assert np.array_equal(hi1, hi2)
        assert np.array_equal(est1.values, est2.values)
        assert (lo1 <= hi1).all()
        assert est1.meta["permutations"] == 20

    def test_envelope_is_min_max_of_permuted_estimates(self, oracle_pattern):
        comp = oracle_pattern.component(1)
        r_grid, t_grid, permutations, seed = (0.12, 0.2), (0.8, 1.2), 20, 9
        est, lo, hi = mark_permutation_envelope(
            comp, r_grid, t_grid, permutations=permutations, seed=seed
        )
        rng = np.random.Generator(np.random.Philox(seed))
        permuted = np.array(
            [
                mark_weighted_k(
                    dataclasses.replace(comp, marks=rng.permutation(comp.marks)),
                    r_grid,
                    t_grid,
                ).values
                for _ in range(permutations)
            ]
        )
        assert lo == pytest.approx(permuted.min(axis=0), rel=1e-12)
        assert hi == pytest.approx(permuted.max(axis=0), rel=1e-12)
        assert np.array_equal(est.values, mark_weighted_k(comp, r_grid, t_grid).values)

    def test_envelope_needs_permutations(self, oracle_pattern):
        with pytest.raises(ValidationError):
            mark_permutation_envelope(
                oracle_pattern.component(1), (0.1,), (1.0,), permutations=0
            )

    def test_envelope_rejects_negative_seed(self, oracle_pattern):
        with pytest.raises(ValidationError, match="seed"):
            mark_permutation_envelope(oracle_pattern.component(1), (0.1,), (1.0,), seed=-1)
