"""Invariance oracles for the whole chain: exact symmetries of |d_ij| that
check correctness without a reference output.

Integer frequencies make the transform 1-periodic in x and y and T-periodic
in t, so a common toroidal shift of every event and a common cyclic shift
of the steps leave |d_ij| unchanged (on the unit square; an observation
window other than the square would break the toroidal case).  Relabelling
the components permutes |d_ij|, and an affine change of the marks leaves
the marked statistic unchanged.  Each check runs on the README case and on
a d=10, T=8 Poisson pattern.
"""

from dataclasses import replace

import numpy as np
import pytest

from stspectra import AnalysisSpec, SimSpec, build_dependence_graph, partial_pipeline, simulate

TOL = 1e-12  # of the largest entry of |d_ij|

CASES = {
    "readme": (
        SimSpec(kind="linked_cluster", rates=(75.0, 75.0, 300.0), T=4,
                link_pairs=((1, 2, 225.0, 0.005),), seed=7),
        (2, 2, 1),
    ),
    "d10": (SimSpec(kind="homogeneous_poisson", rates=(25.0,) * 10, T=8, seed=3), (1, 1, 1)),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """The case's pattern with N(5, 1) marks, its spec and its partial field."""
    sim, half_widths = CASES[request.param]
    pattern = simulate(sim).pattern
    pattern = pattern.with_marks(np.random.default_rng(11).normal(5.0, 1.0, pattern.n))
    spec = replace(AnalysisSpec.default(pattern.T), half_widths=half_widths)
    return pattern, spec, partial_pipeline(pattern, spec)


def defect(a, b):
    """max |a - b| relative to the largest entry of a, once the NaN
    positions are shown to agree."""
    assert np.array_equal(np.isnan(a), np.isnan(b))
    finite = np.isfinite(a)
    return np.abs(a[finite] - b[finite]).max() / np.abs(a[finite]).max()


def test_common_toroidal_shift(case):
    pattern, spec, base = case
    shifted = replace(pattern, x=(pattern.x + 0.3) % 1.0, y=(pattern.y + 0.55) % 1.0)
    assert defect(base.abs_d, partial_pipeline(shifted, spec).abs_d) <= TOL


def test_common_cyclic_step_shift(case):
    pattern, spec, base = case
    shifted = replace(pattern, t=pattern.t % pattern.T + 1)
    assert defect(base.abs_d, partial_pipeline(shifted, spec).abs_d) <= TOL


def test_shift_of_one_component_moves_the_statistic(case):
    # the control: a shift that is not common changes the cross spectra
    pattern, spec, base = case
    first = pattern.type_id == 1
    shifted = replace(
        pattern,
        x=np.where(first, (pattern.x + 0.3) % 1.0, pattern.x),
        y=np.where(first, (pattern.y + 0.55) % 1.0, pattern.y),
    )
    assert defect(base.abs_d, partial_pipeline(shifted, spec).abs_d) > 0.5


def test_label_permutation_permutes_statistics_and_graph(case):
    pattern, spec, base = case
    d = pattern.d
    perm = np.random.default_rng(2).permutation(d)  # new component k is old perm[k]
    new_id = np.empty(d, dtype=np.int64)
    new_id[perm] = np.arange(1, d + 1)
    relabelled = replace(
        pattern,
        type_id=new_id[pattern.type_id - 1],
        labels=tuple(pattern.labels[k] for k in perm),
    )
    pf = partial_pipeline(relabelled, spec)
    assert defect(base.abs_d[..., perm[:, None], perm], pf.abs_d) <= TOL

    stats = np.sort(build_dependence_graph(base, 0.0).stats[np.triu_indices(d, k=1)])
    k = stats.size // 2
    assert stats[k] - stats[k - 1] > 1e-6  # xi sits well away from every statistic
    xi = (stats[k - 1] + stats[k]) / 2
    edges = {frozenset(e) for e in build_dependence_graph(base, xi).edge_labels}
    assert edges and len(edges) < stats.size
    assert {frozenset(e) for e in build_dependence_graph(pf, xi).edge_labels} == edges


def test_affine_map_of_marks_leaves_marked_statistic(case):
    pattern, spec, _ = case
    marked = replace(spec, marked=True)
    before = partial_pipeline(pattern, marked).abs_d
    mapped = pattern.with_marks(-2.5 * pattern.marks + 7.0)
    assert defect(before, partial_pipeline(mapped, marked).abs_d) <= TOL
