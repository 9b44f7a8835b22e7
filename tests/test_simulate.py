"""Generators: determinism, count laws, linkage structure, marks."""

import json

import numpy as np
import pytest

from stspectra import (
    RNG_ALGORITHM,
    SimSpec,
    simulate,
    simulate_binomial_null,
    write_sidecar,
)
from stspectra.errors import ValidationError
from stspectra.simulate import MAX_DISPERSION, MAX_RATE, LinkSpec


def poisson_spec(seed=0, rates=(50.0, 60.0), T=4, **kw):
    return SimSpec(kind="homogeneous_poisson", rates=rates, T=T, seed=seed, **kw)


def linked_spec(seed=0, offspring=30.0, dispersion=0.02):
    return SimSpec(
        kind="linked_cluster",
        rates=(40.0, 40.0, 40.0),
        T=4,
        link_pairs=(LinkSpec(1, 2, offspring, dispersion),),
        seed=seed,
    )


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SimSpec(kind="hawkes", rates=(1.0, 1.0), T=1)

    def test_too_few_components(self):
        with pytest.raises(ValidationError):
            SimSpec(kind="homogeneous_poisson", rates=(5.0,), T=1)

    def test_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            SimSpec(kind="homogeneous_poisson", rates=(5.0, 0.0), T=1)

    def test_poisson_refuses_links(self):
        with pytest.raises(ValidationError):
            SimSpec(
                kind="homogeneous_poisson",
                rates=(5.0, 5.0),
                T=1,
                link_pairs=(LinkSpec(1, 2, 1.0, 0.1),),
            )

    def test_link_indices_checked(self):
        with pytest.raises(ValidationError):
            SimSpec(
                kind="linked_cluster",
                rates=(5.0, 5.0),
                T=1,
                link_pairs=(LinkSpec(1, 3, 1.0, 0.1),),
            )
        with pytest.raises(ValidationError):
            SimSpec(
                kind="linked_cluster",
                rates=(5.0, 5.0),
                T=1,
                link_pairs=(LinkSpec(2, 2, 1.0, 0.1),),
            )

    def test_dispersion_positive(self):
        with pytest.raises(ValidationError):
            SimSpec(
                kind="linked_cluster",
                rates=(5.0, 5.0),
                T=1,
                link_pairs=(LinkSpec(1, 2, 1.0, 0.0),),
            )

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            poisson_spec(seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            simulate_binomial_null([5, 5], T=1, seed=-1)

    def test_bad_mark_dist(self):
        with pytest.raises(ValidationError):
            poisson_spec(mark_dist="cauchy:0,1")
        with pytest.raises(ValidationError):
            poisson_spec(mark_dist="normal:0")

    def test_true_edges(self):
        assert linked_spec().true_edges == frozenset({(1, 2)})
        assert poisson_spec().true_edges == frozenset()
        # zero offspring rate is not an edge
        zero = SimSpec(
            kind="linked_cluster",
            rates=(5.0, 5.0),
            T=1,
            link_pairs=(LinkSpec(2, 1, 0.0, 0.1),),
        )
        assert zero.true_edges == frozenset()

    def test_dict_round_trip(self):
        spec = linked_spec(seed=9)
        doc = spec.to_dict()
        assert doc["rng"] == RNG_ALGORITHM
        assert SimSpec.from_dict(doc) == spec

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("T", 2.9, "'T' must be an integer, got 2.9"),
            ("seed", True, "'seed' must be an integer, got true"),
            ("T", "3", "'T' must be an integer, got \"3\""),
            ("i", 1.0, "'i' of link pair 1 must be an integer, got 1.0"),
        ],
        ids=["float", "bool", "numeric-string", "float-link-index"],
    )
    def test_dict_integers_are_not_coerced(self, key, value, named):
        doc = json.loads(json.dumps(linked_spec().to_dict()))
        if key == "i":
            doc["link_pairs"][0]["i"] = value
        else:
            doc[key] = value
        with pytest.raises(ValidationError) as exc:
            SimSpec.from_dict(doc)
        assert named in str(exc.value)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("rates", 0), "40", "entry 1 of 'rates' must be a finite number, got \"40\""),
            (("rates", 0), True, "entry 1 of 'rates' must be a finite number, got true"),
            (("rates", 0), float("nan"), "entry 1 of 'rates' must be a finite number, got NaN"),
            (
                ("link_pairs", 0, "dispersion"),
                float("inf"),
                "'dispersion' of link pair 1 must be a finite number, got Infinity",
            ),
            (
                ("link_pairs", 0, "offspring_rate"),
                "20",
                "'offspring_rate' of link pair 1 must be a finite number, got \"20\"",
            ),
            (("rates",), "40,40,40", "'rates' must be a list, got \"40,40,40\""),
        ],
        ids=[
            "string", "bool", "nan", "infinite-dispersion", "string-offspring-rate",
            "rates-not-a-list",
        ],
    )
    def test_dict_reals_must_be_finite_numbers(self, path, value, named):
        doc = json.loads(json.dumps(linked_spec().to_dict()))
        entry = doc
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        doc = json.loads(json.dumps(doc))  # NaN and Infinity as JSON reads them
        with pytest.raises(ValidationError) as exc:
            SimSpec.from_dict(doc)
        assert named in str(exc.value)

    def test_non_finite_values_refused_on_construction(self):
        # built only, never simulated: an infinite dispersion could never
        # place an offspring inside the window
        with pytest.raises(ValidationError, match="'dispersion' of link pair 1"):
            linked_spec(dispersion=float("inf"))
        with pytest.raises(ValidationError, match="'offspring_rate' of link pair 1"):
            linked_spec(offspring=float("nan"))
        with pytest.raises(ValidationError, match="entry 2 of 'rates'"):
            poisson_spec(rates=(50.0, float("-inf")))

    def test_rates_above_the_ceiling_refused(self):
        assert MAX_RATE == 1e6
        with pytest.raises(ValidationError, match="entry 1 of 'rates'"):
            poisson_spec(rates=(1e9, 40.0))
        with pytest.raises(ValidationError, match="'offspring_rate' of link pair 1"):
            linked_spec(offspring=2 * MAX_RATE)
        assert poisson_spec(rates=(MAX_RATE, 40.0)).rates[0] == MAX_RATE

    def test_dispersion_above_the_window_side_refused(self):
        assert MAX_DISPERSION == 1.0
        with pytest.raises(ValidationError, match="'dispersion' of link pair 1"):
            linked_spec(dispersion=1.5)
        res = simulate(linked_spec(dispersion=MAX_DISPERSION))
        pts = np.column_stack([res.pattern.x, res.pattern.y])
        assert ((pts >= 0) & (pts <= 1)).all()

    def test_rng_is_philox(self):
        assert RNG_ALGORITHM == "philox4x64"


class TestDraws:
    def test_deterministic(self):
        a = simulate(poisson_spec(seed=5)).pattern
        b = simulate(poisson_spec(seed=5)).pattern
        assert a.equals(b)

    def test_seed_changes_pattern(self):
        a = simulate(poisson_spec(seed=5)).pattern
        b = simulate(poisson_spec(seed=6)).pattern
        assert not a.equals(b)

    def test_unit_square_window(self):
        pat = simulate(poisson_spec()).pattern
        assert pat.window.is_unit_square
        assert pat.x.min() >= 0 and pat.x.max() <= 1
        assert pat.T == 4

    def test_poisson_count_law(self):
        # 60 replicates of rate 50, T=4: mean count near 200, variance near mean
        counts = np.array(
            [simulate(poisson_spec(seed=s)).counts[0] for s in range(60)],
            dtype=float,
        )
        assert abs(counts.mean() / 200.0 - 1.0) < 0.10
        assert 0.4 < counts.var() / counts.mean() < 2.5

    def test_linked_offspring_share_times(self):
        # tiny dispersion: offspring pairs sit almost on top of each other
        res = simulate(linked_spec(seed=3, offspring=60.0, dispersion=1e-4))
        pat = res.pattern
        assert res.true_edges == frozenset({(1, 2)})
        c1 = pat.component(1)
        c2 = pat.component(2)
        paired = 0
        for step in range(1, 5):
            a = np.c_[c1.x[c1.t == step], c1.y[c1.t == step]]
            b = np.c_[c2.x[c2.t == step], c2.y[c2.t == step]]
            if a.size == 0 or b.size == 0:
                continue
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
            paired += int((d2.min(axis=1) < (10 * 1e-4) ** 2).sum())
        # ~60 offspring per step on side 1 out of ~100 events per step
        expected = 4 * 60
        assert paired > 0.7 * expected

    def test_linked_counts_include_offspring(self):
        lone = simulate(
            SimSpec(
                kind="linked_cluster",
                rates=(40.0, 40.0, 40.0),
                T=4,
                link_pairs=(LinkSpec(1, 2, 200.0, 0.01),),
                seed=1,
            )
        ).counts
        # sides 1 and 2 carry ~(40+200)*4 events, side 3 only ~160
        assert lone[0] > 600 and lone[1] > 600
        assert lone[2] < 320

    def test_marks_attached(self):
        pat = simulate(poisson_spec(seed=2, mark_dist="normal:3,0.5")).pattern
        assert pat.has_marks
        assert abs(pat.marks.mean() - 3.0) < 0.2
        assert abs(pat.marks.std() - 0.5) < 0.2

    def test_no_marks_by_default(self):
        assert not simulate(poisson_spec()).pattern.has_marks


class TestBinomialNull:
    def test_exact_counts(self):
        pat = simulate_binomial_null([120, 80, 55], T=4, seed=0)
        assert pat.counts.tolist() == [120, 80, 55]
        assert pat.n == 255
        assert pat.T == 4

    def test_deterministic(self):
        a = simulate_binomial_null([50, 50], T=3, seed=11)
        b = simulate_binomial_null([50, 50], T=3, seed=11)
        assert a.equals(b)
        c = simulate_binomial_null([50, 50], T=3, seed=12)
        assert not a.equals(c)

    def test_times_cover_horizon(self):
        pat = simulate_binomial_null([400, 400], T=5, seed=1)
        assert set(np.unique(pat.t)) == {1, 2, 3, 4, 5}
        # uniform occupancy: each step holds roughly 160 of 800
        occ = np.bincount(pat.t, minlength=6)[1:]
        assert occ.min() > 100 and occ.max() < 230


class TestSidecar:
    def test_sidecar_contents(self, tmp_path):
        res = simulate(linked_spec(seed=4))
        path = tmp_path / "truth.json"
        write_sidecar(res, path)
        doc = json.loads(path.read_text())
        assert doc["spec"]["kind"] == "linked_cluster"
        assert doc["spec"]["rng"] == RNG_ALGORITHM
        assert doc["true_edges"] == [[1, 2]]
        assert doc["n"] == res.pattern.n
        assert doc["counts"] == res.counts.tolist()
        # the sidecar spec reproduces the draw
        again = simulate(SimSpec.from_dict(doc["spec"]))
        assert again.pattern.equals(res.pattern)
