"""Shared fixtures and the acceptance-criteria summary hook."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stspectra
from stspectra import FrequencyGrid, SimSpec, SpectralField, simulate
from stspectra.ingest import MultiPattern, Window


def build_pattern(x, y, t, type_id, labels, T, marks=None):
    """Hand-made pattern on the unit square."""
    return MultiPattern(
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        t=np.asarray(t, dtype=np.int64),
        type_id=np.asarray(type_id, dtype=np.int64),
        labels=tuple(labels),
        window=Window(0.0, 1.0, 0.0, 1.0, T=T),
        marks=None if marks is None else np.asarray(marks, dtype=float),
    )


def with_values(field, values):
    """``field`` with its matrices replaced by the full ``values``, through
    ``SpectralField.from_values``."""
    meta = {f.name: getattr(field, f.name) for f in dataclasses.fields(field)}
    del meta["upper"]
    return SpectralField.from_values(values, **meta)


def child_peak_mib(script):
    """Peak resident memory, in MiB, of a fresh interpreter running
    ``script`` against this checkout's package.

    Read as VmHWM, the peak of the child's own address space: ru_maxrss
    keeps the peak of the image the child replaced at exec, which is this
    test process's, so it reads at least this process's peak."""
    script += (
        "print(next(int(l.split()[1]) for l in open('/proc/self/status')\n"
        "           if l.startswith('VmHWM:')))\n"
    )
    src = str(Path(stspectra.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024  # VmHWM is in kB


# the frozen-oracle fixture: eight events, two components, T=2
TINY_X = (0.125, 0.5, 0.8, 0.33, 0.9, 0.25, 0.6, 0.1)
TINY_Y = (0.25, 0.75, 0.3125, 0.6, 0.1, 0.5, 0.875, 0.7)
TINY_T = (1, 1, 2, 2, 1, 1, 2, 2)
TINY_TYPE = (1, 1, 1, 1, 2, 2, 2, 2)
TINY_MARKS = (2.0, -1.0, 0.5, 3.0, 1.0, 4.0, -2.0, 0.25)


@pytest.fixture
def tiny_pattern():
    return build_pattern(TINY_X, TINY_Y, TINY_T, TINY_TYPE, ("a", "b"), T=2, marks=TINY_MARKS)


@pytest.fixture
def tiny_grid():
    return FrequencyGrid(p_max=3, q_min=-3, q_max=3, u_min=0, u_max=1)


@pytest.fixture(scope="session")
def trio_pattern():
    """Three-component Poisson pattern, ~730 events."""
    spec = SimSpec(kind="homogeneous_poisson", rates=(50.0, 60.0, 70.0), T=4, seed=7)
    return simulate(spec).pattern


@pytest.fixture(scope="session")
def small_grid():
    return FrequencyGrid(p_max=4, q_min=-4, q_max=4, u_min=-1, u_max=2)


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at the end of the run

ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = ("PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {number}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        status, detail = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {detail}")
