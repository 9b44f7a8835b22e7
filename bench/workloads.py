"""Workload definitions and the benchmark's own seeded input generator.

The generator is deliberately independent of ``stspectra.simulate`` so that
a change to the package cannot change the benchmark's inputs.  Every event
count is fixed by the workload (only positions, steps and marks depend on
the seed), so the null replicates of a calibrated run are the same work for
every seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Design:
    """A multitype pattern with fixed counts per type and step.

    own: independent uniform events per step, one entry per type.
    links: (i, j, parents per step, dispersion); each parent puts one event
        of type i and one of type j near it, with independent Gaussian
        displacements wrapped into the unit square.  Under ``marks`` both
        children carry their parent's mark, so the pair is also linked in
        the mark-weighted analysis.
    marks: (mean, sd) of the normal mark distribution, or None.
    """

    T: int
    own: tuple[int, ...]
    links: tuple[tuple[int, int, int, float], ...] = ()
    marks: tuple[float, float] | None = None


def generate(design: Design, seed: int, salt: int) -> dict[int, np.ndarray]:
    """Events per type as arrays of rows (x, y, t[, mark]), from Philox.

    ``salt`` keeps workloads that share a seed on different streams."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([salt, seed])))
    cols = 4 if design.marks else 3
    parts: dict[int, list[np.ndarray]] = {i: [] for i in range(1, len(design.own) + 1)}

    def mark(k: int) -> np.ndarray:
        mu, sd = design.marks
        return rng.normal(mu, sd, k)

    for step in range(1, design.T + 1):
        for i, k in enumerate(design.own, start=1):
            rows = np.empty((k, cols))
            rows[:, :2] = rng.random((k, 2))
            rows[:, 2] = step
            if design.marks:
                rows[:, 3] = mark(k)
            parts[i].append(rows)
        for i, j, k, disp in design.links:
            parents = rng.random((k, 2))
            shared = mark(k) if design.marks else None
            for typ in (i, j):
                rows = np.empty((k, cols))
                rows[:, :2] = (parents + rng.normal(0.0, disp, (k, 2))) % 1.0
                rows[:, 2] = step
                if design.marks:
                    rows[:, 3] = shared
                parts[typ].append(rows)
    return {i: np.concatenate(p) for i, p in parts.items()}


def write_events_csv(design: Design, seed: int, salt: int, path: Path) -> str:
    """Write the events CSV (types in label order 1..d) and return its sha256."""
    events = generate(design, seed, salt)
    header = "x,y,time,type" + (",mark" if design.marks else "")
    lines = [header]
    for typ, rows in events.items():
        for r in rows:
            line = f"{r[0]:.17g},{r[1]:.17g},{int(r[2])},{typ}"
            if design.marks:
                line += f",{r[3]:.17g}"
            lines.append(line)
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True, kw_only=True)
class Workload:
    """One benchmark workload: an input design and the CLI calls of one run.

    calls: (out-directory name, argv) pairs; ``{events}``, ``{out}`` and
        ``{threads}`` are filled in per run.  The first call is the
        pipeline whose graph is checked.
    expected_edges: the edge set (label pairs) the pipeline must emit.
    fixed_xi: the pipeline's fixed threshold, or None when it calibrates.
    dft_check: the traced run also times the transform at one worker and
        checks it byte-identical to the pipeline's N-worker transform.
    threads: the ``--threads`` value of every call, or None for N, the CPUs
        the process may use.
    tiny: a small design for the benchmark's self-check.
    """

    name: str
    salt: int
    design: Design
    calls: tuple[tuple[str, tuple[str, ...]], ...]
    expected_edges: frozenset[tuple[str, str]]
    fixed_xi: float | None = None
    dft_check: bool = False
    threads: int | None = None
    tiny: Design


def _pipeline(*flags: str) -> tuple[str, tuple[str, ...]]:
    return (
        "pipeline",
        ("pipeline", "{events}", "--time-is-index", *flags,
         "--threads", "{threads}", "--out", "{out}"),
    )


def _classical(out: str, *flags: str) -> tuple[str, tuple[str, ...]]:
    return (
        out,
        ("classical", "{events}", "--time-is-index", "--estimator", *flags,
         "--threads", "{threads}", "--out", "{out}"),
    )


BULK_XI = 0.65
MARKED_XI = 0.68
# three radii and one lag band size the quadratic classical searches so that
# together they take about as long as the marked pipeline call
CLASSICAL_GRID = ("--r-grid", "0.02,0.05,0.1", "--t-grid", "1")
# 50 rather than the CLI's default 200 null replicates: a run then takes
# about 5 s instead of 17 s, so a measured window holds several runs and
# their median sets aside a run slowed by other load on the host, while
# calibration stays about 90% of the run
CALIBRATION_REPLICATES = 50

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="calibrated-readme",
            salt=1,
            design=Design(T=4, own=(75, 75, 300), links=((1, 2, 225, 0.005),)),
            calls=(_pipeline("--half-widths", "2,2,1", "--xi", "null:q95",
                             "--replicates", str(CALIBRATION_REPLICATES)),),
            expected_edges=frozenset({("1", "2")}),
            # the CLI's default of one worker, as the README runs it: each
            # replicate's transform is too small for a second worker to pay
            # for its hand-offs, which on two shared CPUs doubled the
            # run-to-run spread of this workload (CV 11% against 4.8%)
            threads=1,
            tiny=Design(T=2, own=(20, 20, 40), links=((1, 2, 20, 0.005),)),
        ),
        Workload(
            name="bulk-csv",
            salt=2,
            design=Design(
                T=5, own=(1000, 1000, 4000, 4000, 4000), links=((1, 2, 3000, 0.005),)
            ),
            calls=(_pipeline("--half-widths", "2,2,1", "--xi", str(BULK_XI)),),
            expected_edges=frozenset({("1", "2")}),
            fixed_xi=BULK_XI,
            dft_check=True,
            tiny=Design(T=2, own=(30, 30, 40, 40, 40), links=((1, 2, 10, 0.005),)),
        ),
        Workload(
            name="marked-explore",
            salt=3,
            design=Design(
                T=8, own=(200, 0, 350, 300), links=((1, 2, 400, 0.005),),
                marks=(5.0, 1.0),
            ),
            calls=(
                _pipeline("--marked", "--per-slice", "--lags", "--half-widths",
                          "2,2,1", "--xi", str(MARKED_XI)),
                _classical("mark-k", "mark-k", "--component", "2", *CLASSICAL_GRID),
                _classical("k", "k", "--C", "1", "--D", "2", *CLASSICAL_GRID),
            ),
            expected_edges=frozenset({("1", "2")}),
            fixed_xi=MARKED_XI,
            tiny=Design(
                T=3, own=(30, 20, 20, 20), links=((1, 2, 10, 0.005),), marks=(5.0, 1.0)
            ),
        ),
    )
}
