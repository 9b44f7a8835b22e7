"""Edge statistics, thresholded graphs, null calibration, slice tables."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import stspectra.graph
import stspectra.partial
from stspectra import (
    AnalysisSpec,
    EdgeStatistics,
    FrequencyGrid,
    build_dependence_graph,
    calibrate_null_threshold,
    edge_statistics,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    partial_pipeline,
    per_slice_graphs,
    simulate_binomial_null,
)
from stspectra.errors import ValidationError
from stspectra.graph import _permuted_marks
from stspectra.partial import PartialField

from conftest import build_pattern
from oracles import null_maximum_abs_d


def hand_field(singular_at=None, labels=("a", "b", "c")):
    """A 2x3x1 grid with planted |d| values.

    pair (1,2): 0.99 at DC, 0.7 at (p=1,q=0), 0.1 elsewhere
    pair (1,3): 0.4 at (p=0,q=-1), 0.1 elsewhere
    pair (2,3): NaN everywhere (unresolvable)
    """
    grid = FrequencyGrid(p_max=1, q_min=-1, q_max=1, u_min=0, u_max=0)
    d = len(labels)
    abs_d = np.full(grid.shape + (d, d), 0.1)
    kk = np.arange(d)
    abs_d[..., kk, kk] = 0.0

    def put(pair, idx, val):
        a, b = pair
        abs_d[idx + (a - 1, b - 1)] = val
        abs_d[idx + (b - 1, a - 1)] = val

    put((1, 2), (0, 1, 0), 0.99)  # DC ordinate
    put((1, 2), (1, 1, 0), 0.7)
    put((1, 3), (0, 0, 0), 0.4)
    abs_d[..., 1, 2] = np.nan
    abs_d[..., 2, 1] = np.nan

    singular = np.zeros(grid.shape, dtype=bool)
    if singular_at is not None:
        singular[singular_at] = True
    i, j = np.triu_indices(d, k=1)
    return PartialField(
        pairs=(np.zeros(grid.shape + (i.size,), dtype=complex), abs_d[..., i, j]),
        inverse=np.zeros(abs_d.shape, dtype=complex),
        ridge=np.zeros(grid.shape),
        singular=singular,
        grid=grid,
        labels=labels,
    )


class TestEdgeStatistics:
    def test_sup_excludes_dc_by_default(self):
        es = edge_statistics(hand_field())
        assert es.pair(1, 2) == 0.7
        assert es.argmax[0, 1].tolist() == [1, 0, 0]
        assert es.pair(1, 3) == 0.4
        assert es.argmax[0, 2].tolist() == [0, -1, 0]

    def test_unresolvable_pair_is_nan_unreliable(self):
        es = edge_statistics(hand_field())
        assert np.isnan(es.pair(2, 3))
        assert not es.reliable[1, 2]
        assert es.reliable[0, 1]

    def test_singular_ordinate_degrades_reliability(self):
        es = edge_statistics(hand_field(singular_at=(1, 0, 0)))
        assert not es.reliable[0, 1]
        assert es.pair(1, 2) == 0.7

    def test_symmetry(self):
        es = edge_statistics(hand_field())
        assert es.pair(1, 2) == es.pair(2, 1)

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (-1, 2), (1, 4), (4, 4)])
    def test_pair_outside_components_refused(self, i, j):
        # numpy's negative indexing would read (3, 1) for pair(0, 1)
        es = edge_statistics(hand_field())
        with pytest.raises(ValidationError, match=r"outside components 1\.\.3"):
            es.pair(i, j)

    def test_lower_triangle_mirrors_upper(self):
        # each pair is reduced once, and both triangles of the statistic
        # and of its argmax read that one reduction
        es = edge_statistics(hand_field())
        assert es.pair(2, 1) == es.pair(1, 2) == 0.7
        assert es.argmax[1, 0].tolist() == [1, 0, 0]
        assert np.array_equal(es.stats, es.stats.T, equal_nan=True)
        assert np.array_equal(es.argmax, es.argmax.transpose(1, 0, 2))
        assert np.array_equal(es.reliable, es.reliable.T)

    def test_empty_mask_rejected(self):
        grid = FrequencyGrid(p_max=0, q_min=0, q_max=0, u_min=0, u_max=0)
        pairs = np.zeros(grid.shape + (1,))
        pf = PartialField(
            pairs=(pairs.astype(complex), pairs),
            inverse=np.zeros(grid.shape + (2, 2), dtype=complex),
            ridge=np.zeros(grid.shape),
            singular=np.zeros(grid.shape, dtype=bool),
            grid=grid,
            labels=("a", "b"),
        )
        with pytest.raises(ValidationError):
            edge_statistics(pf)


class TestGraphBuild:
    def test_threshold_is_inclusive(self):
        g = build_dependence_graph(hand_field(), xi=0.7)
        assert g.edges == ((1, 2),)
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 3)
        tighter = build_dependence_graph(hand_field(), xi=0.7000001)
        assert tighter.edges == ()

    def test_nan_pair_warns_and_draws_nothing(self):
        g = build_dependence_graph(hand_field(), xi=0.1)
        assert not g.has_edge(2, 3)
        assert any("(2,3)" in w for w in g.warnings)

    def test_isolated_and_edge_labels(self):
        g = build_dependence_graph(hand_field(), xi=0.5)
        assert g.edges == ((1, 2),)
        assert g.edge_labels == (("a", "b"),)
        assert g.isolated == ("c",)

    def test_xi_validation(self):
        with pytest.raises(ValidationError):
            build_dependence_graph(hand_field(), xi=-0.2)
        with pytest.raises(ValidationError):
            build_dependence_graph(hand_field(), xi=float("nan"))

    def test_provenance_carried(self):
        g = build_dependence_graph(hand_field(), xi=0.5, provenance={"run": "x"})
        assert g.provenance == {"run": "x"}


class TestSerialisation:
    def test_dot_text_is_exact(self):
        g = build_dependence_graph(hand_field(), xi=0.5)
        stat = format(g.stats[0, 1], ".17g")
        expected = "\n".join(
            [
                "graph dependence {",
                f'  graph [xi="{format(0.5, ".17g")}"];',
                '  "a";',
                '  "b";',
                '  "c";',
                f'  "a" -- "b" [stat="{stat}", at="(1,0,0)", reliable="true"];',
                "}",
            ]
        ) + "\n"
        assert graph_to_dot(g) == expected

    def test_dot_escapes_labels(self):
        g = build_dependence_graph(
            hand_field(labels=('wei"rd', "b", "c")), xi=0.5
        )
        assert '"wei\\"rd"' in graph_to_dot(g)

    def test_json_round_trip(self):
        g = build_dependence_graph(
            hand_field(singular_at=(0, 0, 0)), xi=0.3, provenance={"cmd": "graph"}
        )
        back = graph_from_json(graph_to_json(g))
        assert back.equals(g)

    def test_json_with_dc_key_still_reads(self):
        # documents written before DC was always excluded carry this key
        g = build_dependence_graph(hand_field(), xi=0.5)
        doc = json.loads(graph_to_json(g))
        assert "include_dc" not in doc
        doc["include_dc"] = False
        assert graph_from_json(json.dumps(doc)).equals(g)

    def test_json_format_guard(self):
        with pytest.raises(ValidationError):
            graph_from_json('{"format": "something-else"}')

    def test_json_is_deterministic(self):
        g1 = build_dependence_graph(hand_field(), xi=0.5)
        g2 = build_dependence_graph(hand_field(), xi=0.5)
        assert graph_to_json(g1) == graph_to_json(g2)
        assert graph_to_dot(g1) == graph_to_dot(g2)


def null_fields(pattern, spec, replicates, seed):
    """The partial fields of the calibration replicates, drawn as
    ``calibrate_null_threshold`` draws them."""
    counts = tuple(int(c) for c in pattern.counts)
    for r in range(replicates):
        null = simulate_binomial_null(counts, pattern.T, seed=seed + r)
        if spec.marked:
            null = _permuted_marks(null, pattern, seed + r)
        yield partial_pipeline(null, spec)


def samples_via_edge_statistics(pattern, spec, replicates, seed):
    """Per-replicate null maxima through the full edge statistics: the largest
    finite sup statistic over the pairs i < j, or 0.0 when there is none."""
    out = np.empty(replicates)
    for r, pf in enumerate(null_fields(pattern, spec, replicates, seed)):
        es = edge_statistics(pf)
        vals = es.stats[np.triu_indices(es.d, k=1)]
        vals = vals[np.isfinite(vals)]
        out[r] = vals.max() if vals.size else 0.0
    return out


def samples_via_abs_d(pattern, spec, replicates, seed):
    """Per-replicate null maxima read straight from each field's ``abs_d``."""
    out = np.empty(replicates)
    for r, pf in enumerate(null_fields(pattern, spec, replicates, seed)):
        out[r] = null_maximum_abs_d(pf.abs_d, pf.grid)
    return out


def no_null(*args, **kwargs):
    raise AssertionError("drew a null replicate")


def marked_null(counts, T, seed):
    pattern = simulate_binomial_null(counts, T, seed=seed)
    rng = np.random.default_rng(seed)
    return replace(pattern, marks=rng.normal(5.0, 1.0, pattern.n))


class TestCalibration:
    GRID = FrequencyGrid(p_max=2, q_min=-2, q_max=2, u_min=0, u_max=1)

    @pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_samples_equal_edge_statistics_maxima(self, marked, seed):
        pattern = marked_null((20, 25, 30), 2, seed=100 + seed)
        spec = AnalysisSpec(self.GRID, (1, 1, 0), marked=marked)
        out = calibrate_null_threshold(pattern, spec, replicates=6, seed=seed)
        oracle = samples_via_edge_statistics(pattern, spec, 6, seed)
        assert out.samples.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
    def test_samples_equal_oracle_with_singular_ordinates(self, monkeypatch, marked):
        # a bound of 2 on the condition number leaves most ordinates singular
        # (NaN): some replicates keep a few finite statistics, the others
        # none, and those record 0.0
        monkeypatch.setattr(stspectra.partial, "COND_THRESHOLD", 2.0)
        pattern = marked_null((20, 20, 20), 2, seed=0)
        spec = AnalysisSpec(self.GRID, (1, 1, 0), marked=marked)
        out = calibrate_null_threshold(pattern, spec, replicates=8, seed=3)
        oracle = samples_via_edge_statistics(pattern, spec, 8, 3)
        assert out.samples.tobytes() == oracle.tobytes()
        if not marked:
            assert (out.samples == 0.0).any() and (out.samples > 0.0).any()

    @pytest.mark.parametrize("marked", [False, True], ids=["unmarked", "marked"])
    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    def test_samples_equal_abs_d_maxima(self, monkeypatch, marked, singular):
        # the route that reads abs_d directly shares no code with the pair
        # reducer; with a condition bound of 2 most ordinates are singular
        if singular:
            monkeypatch.setattr(stspectra.partial, "COND_THRESHOLD", 2.0)
        pattern = marked_null((20, 20, 20), 2, seed=0)
        spec = AnalysisSpec(self.GRID, (1, 1, 0), marked=marked)
        out = calibrate_null_threshold(pattern, spec, replicates=8, seed=3)
        oracle = samples_via_abs_d(pattern, spec, 8, 3)
        assert out.samples.tobytes() == oracle.tobytes()
        if singular and not marked:
            assert (out.samples == 0.0).any() and (out.samples > 0.0).any()

    def test_dc_only_grid_refused_before_any_null(self, monkeypatch):
        monkeypatch.setattr(stspectra.graph, "simulate_binomial_null", no_null)
        grid = FrequencyGrid(p_max=0, q_min=0, q_max=0, u_min=0, u_max=0)
        pattern = simulate_binomial_null((10, 10, 10), 2, seed=0)
        with pytest.raises(ValidationError, match="no frequency ordinates left"):
            calibrate_null_threshold(pattern, AnalysisSpec(grid, (1, 1, 1)), replicates=2)

    def test_marked_spec_on_unmarked_pattern_refused_before_any_null(self, monkeypatch):
        monkeypatch.setattr(stspectra.graph, "simulate_binomial_null", no_null)
        pattern = simulate_binomial_null((10, 10, 10), 2, seed=0)
        spec = AnalysisSpec(self.GRID, (1, 1, 0), marked=True)
        with pytest.raises(ValidationError, match="pattern has no marks"):
            calibrate_null_threshold(pattern, spec, replicates=2)

    def test_deterministic_and_quantile_in_samples(self):
        kw = dict(
            pattern=simulate_binomial_null((25, 25), 2, seed=0),
            spec=AnalysisSpec(self.GRID, (1, 1, 0)),
            quantile=0.9,
            replicates=7,
            seed=11,
        )
        one = calibrate_null_threshold(**kw)
        two = calibrate_null_threshold(**kw)
        assert np.array_equal(one.samples, two.samples)
        assert one.xi == two.xi
        assert one.xi in one.samples
        assert one.xi == float(np.quantile(one.samples, 0.9, method="higher"))
        assert one.counts == (25, 25)
        assert one.replicates == 7

    def test_samples_are_unit_interval_statistics(self):
        out = calibrate_null_threshold(
            simulate_binomial_null((20, 20, 20), 2, seed=0),
            AnalysisSpec(self.GRID, (1, 1, 0)),
            replicates=4,
            seed=3,
        )
        assert (out.samples >= 0).all()
        assert (out.samples <= 1 + 1e-9).all()

    def test_validation(self):
        with pytest.raises(ValidationError):
            calibrate_null_threshold(
                simulate_binomial_null((10, 10), 2, seed=0), replicates=0
            )
        with pytest.raises(ValidationError):
            calibrate_null_threshold(
                simulate_binomial_null((10, 10), 2, seed=0), quantile=1.0
            )
        with pytest.raises(ValidationError, match="seed"):
            calibrate_null_threshold(
                simulate_binomial_null((10, 10), 2, seed=0), replicates=1, seed=-1
            )


def no_transform(*args, **kwargs):
    raise AssertionError("transformed a pattern")


class TestBoxRefusedBeforeAnyWork:
    @pytest.mark.parametrize(
        "half_widths, message",
        [
            ((0, 0, 0), "smoothing neighbourhood 1 < d=3: smoothed matrices cannot "
             "reach full rank; enlarge the half-widths"),
            ((-1, 1, 1), "half-widths must be >= 0"),
            ((1.5, 1, 1), "half-widths must be whole numbers, got 1.5,1,1"),
        ],
        ids=["small", "negative", "fractional"],
    )
    @pytest.mark.parametrize(
        "analyse", [partial_pipeline, calibrate_null_threshold], ids=["pipeline", "calibration"]
    )
    def test_one_error_and_no_warning(self, monkeypatch, analyse, half_widths, message):
        pattern = simulate_binomial_null((20, 20, 20), 2, seed=0)
        monkeypatch.setattr(stspectra.graph, "simulate_binomial_null", no_null)
        monkeypatch.setattr(stspectra.graph, "spectral_fields", no_transform)
        spec = AnalysisSpec(TestCalibration.GRID, half_widths)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError) as exc:
                analyse(pattern, spec)
        assert [str(w.message) for w in caught] == []
        assert str(exc.value) == message


@pytest.fixture(scope="module")
def gappy_pattern():
    # events in steps 1 and 3 only, two components
    rng = np.random.default_rng(42)
    n = 30
    xs, ys, ts, cs = [], [], [], []
    for step in (1, 3):
        for comp in (1, 2):
            xs.append(rng.random(n))
            ys.append(rng.random(n))
            ts.append(np.full(n, step))
            cs.append(np.full(n, comp))
    return build_pattern(
        np.concatenate(xs),
        np.concatenate(ys),
        np.concatenate(ts),
        np.concatenate(cs),
        ("a", "b"),
        T=3,
    )


class TestGraphHoldsItsStatistics:
    def test_graph_is_its_edge_statistics(self):
        pf = hand_field(singular_at=(1, 0, 0))
        es = edge_statistics(pf)
        g = build_dependence_graph(pf, xi=0.5)
        assert isinstance(g, EdgeStatistics)
        assert g.d == es.d == 3
        assert g.labels == es.labels
        assert np.array_equal(g.stats, es.stats, equal_nan=True)
        assert np.array_equal(g.argmax, es.argmax)
        assert np.array_equal(g.reliable, es.reliable)
        assert g.pair(1, 2) == 0.7


class TestSliceGraphs:
    def test_empty_slice_yields_none_and_warning(self, gappy_pattern):
        out = per_slice_graphs(
            gappy_pattern,
            xi=0.0,
            spec=AnalysisSpec(
                FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=0, u_max=0),
                (1, 1, 0),
            ),
        )
        assert len(out.graphs) == 3
        assert out.graphs[1] is None
        assert out.graphs[0] is not None
        assert any(w.startswith("step 2") for w in out.warnings)
        # xi=0 draws the edge wherever a decision was possible
        assert out.persistence == {(1, 2): (True, None, True)}
        assert out.labels == ("a", "b")

    def test_temporal_half_width_must_vanish(self, gappy_pattern):
        # a slice has a single temporal ordinate, so for_slice() drops the
        # temporal half-width and the u range whatever the full-data spec says
        spec = AnalysisSpec(FrequencyGrid.default(3), (1, 1, 1))
        sl = spec.for_slice()
        assert sl.half_widths == (1, 1, 0)
        assert sl.grid == FrequencyGrid(p_max=16, q_min=-16, q_max=16, u_min=0, u_max=0)
        out = per_slice_graphs(gappy_pattern, xi=0.5, spec=spec)
        flat = per_slice_graphs(gappy_pattern, xi=0.5, spec=replace(spec, half_widths=(1, 1, 0)))
        for g, h in zip(out.graphs, flat.graphs):
            assert (g is None and h is None) or g.equals(h)

    def test_small_slice_box_refused_before_any_slice(self, monkeypatch):
        # ten components at T=8 take the default (1,1,1) box of 27 ordinates;
        # a slice keeps only the 3x3 spatial part
        def no_slice(*args, **kwargs):
            raise AssertionError("analysed a slice")

        monkeypatch.setattr(stspectra.graph, "partial_pipeline", no_slice)
        pattern = simulate_binomial_null((40,) * 10, 8, seed=0)
        with pytest.raises(ValidationError) as exc:
            per_slice_graphs(pattern, xi=0.9, spec=AnalysisSpec.default(8))
        assert str(exc.value) == (
            "slice graphs (T=1 slices, spatial half-widths 1,1): smoothing "
            "neighbourhood 9 < d=10: smoothed matrices cannot reach full rank; "
            "enlarge the half-widths"
        )

    @pytest.mark.parametrize("xi", [np.nan, -0.1, np.inf])
    def test_bad_xi_refused_before_any_slice(self, monkeypatch, gappy_pattern, xi):
        monkeypatch.setattr(stspectra.graph, "spectral_fields", no_transform)
        with pytest.raises(ValidationError, match="threshold xi must be"):
            per_slice_graphs(gappy_pattern, xi)

    def test_no_spec_means_the_default_spec(self, gappy_pattern):
        bare = per_slice_graphs(gappy_pattern, xi=0.5)
        explicit = per_slice_graphs(gappy_pattern, xi=0.5, spec=AnalysisSpec.default(3))
        assert bare.warnings == explicit.warnings
        for g, h in zip(bare.graphs, explicit.graphs):
            assert (g is None and h is None) or g.equals(h)

    def test_high_threshold_gives_empty_persistence(self, gappy_pattern):
        out = per_slice_graphs(
            gappy_pattern,
            xi=1.0 + 1e-9,
            spec=AnalysisSpec(
                FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=0, u_max=0),
                (1, 1, 0),
            ),
        )
        assert out.persistence == {}


class TestPipeline:
    def test_defaults_on_trio(self, trio_pattern):
        pf = partial_pipeline(trio_pattern)
        assert pf.labels == trio_pattern.labels
        assert pf.grid.shape == (17, 33, 4)
        finite = pf.abs_d[np.isfinite(pf.abs_d)]
        assert finite.min() >= 0.0
        assert finite.max() <= 1.0 + 1e-9

    def test_marked_route(self):
        rng = np.random.default_rng(5)
        n = 60
        pat = build_pattern(
            rng.random(2 * n),
            rng.random(2 * n),
            rng.integers(1, 3, 2 * n),
            np.repeat([1, 2], n),
            ("a", "b"),
            T=2,
            marks=rng.normal(1.0, 0.5, 2 * n),
        )
        grid = FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=0, u_max=1)
        pf = partial_pipeline(pat, AnalysisSpec(grid, (1, 1, 0), marked=True))
        finite = pf.abs_d[np.isfinite(pf.abs_d)]
        assert finite.min() >= 0.0
        assert finite.max() <= 1.0 + 1e-9
