"""The table writer against the per-row csv.writer route it replaced."""

import numpy as np
import pytest

from stspectra import FrequencyGrid, SpectralField, partial_field
from stspectra.cli import PARTIAL_HEADER, _partial_blocks
from stspectra.ingest import _CHUNK_ROWS, _csv_fields, _write_table, export_events

from conftest import build_pattern
from oracles import csv_writer_table

LABELS = ("a,b", 'say "hi"', "x\ny", " lead", "", "c\rd", "100%")
VALUES = np.array([-0.0, 5e-324, 1 / 3, 1e308, np.inf, -np.inf, np.nan])


class TestWriteTable:
    """_write_table is byte-equal to the per-row csv.writer route."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_values_and_labels(self, tmp_path, newline):
        ints = np.arange(-3, VALUES.size - 3)
        quoted = _csv_fields(LABELS, newline)
        blocks = [
            [VALUES, ints, quoted[k], [str(v) for v in ints], "raw"]
            for k in range(len(LABELS))
        ]
        rows = [
            [v, k, label, str(k), "raw"]
            for label in LABELS
            for v, k in zip(VALUES.tolist(), ints.tolist())
        ]
        header = ["value", "k", "label", "text", "kind"]
        comments = ["# artifact=test", "# 100% of rows"]
        n = _write_table(tmp_path / "new.csv", comments, header, blocks, newline)
        csv_writer_table(tmp_path / "old.csv", comments, header, rows, newline)
        assert n == len(rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, _CHUNK_ROWS + 1])
    def test_row_counts(self, tmp_path, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        codes = rng.integers(0, len(LABELS), n)
        labels = np.array(_csv_fields(LABELS), dtype=object)[codes]
        header = ["value", "code", "label"]
        _write_table(tmp_path / "new.csv", [], header, [[values, codes, labels]])
        rows = [
            [v, k, LABELS[k]] for v, k in zip(values.tolist(), codes.tolist())
        ]
        csv_writer_table(tmp_path / "old.csv", [], header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_export_events(self, tmp_path):
        # every label a pattern may carry: LABELS minus the empty and padded ones
        labels = tuple(label for label in LABELS if label and label == label.strip())
        n = _CHUNK_ROWS + 1
        rng = np.random.default_rng(4)
        type_id = np.r_[np.arange(1, 6), rng.integers(1, 6, n - 5)]
        pattern = build_pattern(rng.random(n), rng.random(n), rng.integers(1, 4, n),
                                type_id, labels, T=3, marks=rng.standard_normal(n))
        export_events(pattern, tmp_path / "new.csv")
        rows = [
            [x, y, t, labels[k - 1], m]
            for x, y, t, k, m in zip(pattern.x.tolist(), pattern.y.tolist(),
                                     pattern.t.tolist(), type_id.tolist(),
                                     pattern.marks.tolist())
        ]
        csv_writer_table(tmp_path / "old.csv", [], ["x", "y", "time", "type", "mark"],
                         rows, "\r\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_partial_rows_with_a_singular_ordinate(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = FrequencyGrid(p_max=2, q_min=-1, q_max=1, u_min=0, u_max=1)
        g = rng.normal(size=grid.shape + (3, 6)) + 1j * rng.normal(size=grid.shape + (3, 6))
        values = g @ np.conj(np.swapaxes(g, -1, -2))
        values[1, 2, 0] = 0.0  # singular: every partial statistic there is NaN
        field = SpectralField(values=values, grid=grid, kind="smoothed",
                              normalisation="none", counts=np.full(3, 50), T=2,
                              labels=("a", "b", "c"), half_widths=(1, 1, 0))
        pf = partial_field(field)
        assert pf.singular[1, 2, 0] and np.isnan(pf.abs_d[1, 2, 0]).all()
        n = _write_table(tmp_path / "new.csv", [], PARTIAL_HEADER, _partial_blocks(pf))
        rows = [
            [p, q, u, i, j, pf.coherency[a, b, c, i - 1, j - 1].real,
             pf.coherency[a, b, c, i - 1, j - 1].imag, pf.abs_d[a, b, c, i - 1, j - 1],
             pf.ridge[a, b, c]]
            for i in range(1, 4)
            for j in range(i + 1, 4)
            for a, p in enumerate(grid.p_values.tolist())
            for b, q in enumerate(grid.q_values.tolist())
            for c, u in enumerate(grid.u_values.tolist())
        ]
        csv_writer_table(tmp_path / "old.csv", [], PARTIAL_HEADER, rows)
        assert n == len(rows) == 3 * grid.size
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
