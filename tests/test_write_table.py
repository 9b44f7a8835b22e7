"""The table writer against the per-row csv.writer route it replaced, and
its numpy number formatting against Python's ``'%.17g'`` and ``'%d'``."""

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

    @pytest.mark.parametrize("n", [0, 1, 2 * _CHUNK_ROWS + 1])
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
        field = SpectralField.from_values(values, grid=grid, kind="smoothed",
                                          normalisation="none", counts=np.full(3, 50),
                                          T=2, labels=("a", "b", "c"),
                                          half_widths=(1, 1, 0))
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


def _column_text(tmp_path, values, fmt):
    """A one-column table of ``values`` as written, and as ``fmt`` writes
    each value."""
    _write_table(tmp_path / "col.csv", [], ["v"], [[values]])
    expected = "v\n" + "".join(fmt % v + "\n" for v in values.tolist())
    return (tmp_path / "col.csv").read_text(), expected


def _ulps_around(value: float, k: int = 60) -> np.ndarray:
    """The floats within k ulps of ``value``, ``value`` included."""
    bits = np.array([value]).view(np.int64) + np.arange(-k, k + 1)
    return bits.view(np.float64)


class TestNumberText:
    """Every number is written as Python's '%.17g' or '%d' writes it."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        # most patterns fall outside 1e-6 <= |v| < 1e17; add as many inside
        inside = rng.random(100_000) * 10.0 ** rng.uniform(-6, 17, 100_000)
        inside *= rng.choice([-1.0, 1.0], 100_000)
        values = np.concatenate([bits.view(np.float64), inside])
        written, expected = _column_text(tmp_path, values, "%.17g")
        assert written == expected

    def test_ulps_around_powers_of_ten(self, tmp_path):
        near = np.concatenate([_ulps_around(10.0**e) for e in range(-9, 19)])
        values = np.concatenate([near, -near])
        written, expected = _column_text(tmp_path, values, "%.17g")
        assert written == expected

    def test_special_values(self, tmp_path):
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           np.inf, -np.inf, np.nan, 1e-6, 1e17, 1e16, 0.1, 0.5,
                           1 / 3, 9.999999999999999e-5, 99999999999999984.0])
        written, expected = _column_text(tmp_path, values, "%.17g")
        assert written == expected
        assert written.split("\n")[1:9] == [
            "0", "-0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
            "2.2250738585072014e-308", "inf", "-inf", "nan"]

    def test_narrow_floats_widen_exactly(self, tmp_path):
        values = np.random.default_rng(3).standard_normal(1000).astype(np.float32)
        written, expected = _column_text(tmp_path, values, "%.17g")
        assert written == expected

    def test_ints(self, tmp_path):
        rng = np.random.default_rng(5)
        edges = [0, 1, -1, 9, 10, 9999, 10_000, -10_000, 2**63 - 1, -(2**63 - 1), -(2**63)]
        values = np.concatenate([
            np.array(edges, np.int64),
            rng.integers(-(2**63), 2**63 - 1, 10_000, endpoint=True),
            rng.integers(-10**6, 10**6, 10_000),
        ])
        written, expected = _column_text(tmp_path, values, "%d")
        assert written == expected
        assert written.split("\n")[9:12] == [
            str(2**63 - 1), str(-(2**63 - 1)), str(-(2**63))]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_other_int_types(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.max, 0, 7, info.max // 3], dtype)
        written, expected = _column_text(tmp_path, values, "%d")
        assert written == expected


class TestBatches:
    """Blocks batched and cut at the chunk size write what the per-row
    route writes."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_labels_with_nul_and_non_ascii(self, tmp_path, newline):
        labels = ("a\0b", "end\0", "\0", "Zürich", "東京,駅", "é\0ü", "plain")
        rng = np.random.default_rng(6)
        n = 50
        codes = rng.integers(0, len(labels), n)
        quoted = _csv_fields(labels, newline)
        values = rng.standard_normal(n)
        ints = rng.integers(-5, 5, n)
        blocks = [
            [values, np.array(quoted, dtype=object)[codes], ints, quoted[k]]
            for k in range(len(labels))
        ]
        rows = [
            [v, labels[c], i, labels[k]]
            for k in range(len(labels))
            for v, c, i in zip(values.tolist(), codes.tolist(), ints.tolist())
        ]
        header = ["v", "label", "k", "block"]
        n_rows = _write_table(tmp_path / "new.csv", ["# ü"], header, blocks, newline)
        csv_writer_table(tmp_path / "old.csv", ["# ü"], header, rows, newline)
        assert n_rows == len(rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_one_row_blocks(self, tmp_path):
        # 3000 one-row blocks; every fifth one has text where the others
        # have a float, so the column kinds change between batches
        rng = np.random.default_rng(7)
        values = rng.standard_normal(3000) * 10.0 ** rng.integers(-8, 20, 3000)
        blocks, rows = [], []
        for k, v in enumerate(values.tolist()):
            first = [f"t{k}"] if k % 5 == 0 else np.array([v])
            blocks.append([first, np.array([k]), "x" if k % 2 else "y,z"])
            rows.append([f"t{k}" if k % 5 == 0 else v, k, "x" if k % 2 else "y,z"])
        header = ["v", "k", "kind"]
        for block in blocks:  # a repeated string is written as given
            if block[2] == "y,z":
                block[2] = _csv_fields(["y,z"])[0]
        n_rows = _write_table(tmp_path / "new.csv", [], header, blocks)
        csv_writer_table(tmp_path / "old.csv", [], header, rows)
        assert n_rows == 3000
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_block_across_a_chunk_boundary(self, tmp_path):
        rng = np.random.default_rng(8)
        sizes = [100, _CHUNK_ROWS, 3]  # the second block spans a boundary
        blocks, rows = [], []
        for b, n in enumerate(sizes):
            values = rng.standard_normal(n)
            steps = rng.integers(0, 10**6, n)
            blocks.append([steps, values, str(b), [f"r{k}" for k in range(n)]])
            rows += [[s, v, str(b), f"r{k}"]
                     for k, (s, v) in enumerate(zip(steps.tolist(), values.tolist()))]
        header = ["step", "v", "block", "row"]
        n_rows = _write_table(tmp_path / "new.csv", [], header, blocks)
        csv_writer_table(tmp_path / "old.csv", [], header, rows)
        assert n_rows == sum(sizes)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
