"""Loading, binning, validation, and round-trip export."""

import csv
import dataclasses
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stspectra import ingest
from stspectra.errors import (
    DomainError,
    EmptyInputError,
    RowError,
    SchemaError,
    ValidationError,
)
from stspectra.ingest import (
    MultiPattern,
    Window,
    bin_times,
    export_events,
    load_events,
    parse_duration,
    rescale_to_unit_square,
)

from conftest import build_pattern, child_peak_mib
from oracles import csv_reader_parse_file


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoad:
    def test_basic_load(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n"
            "0.1,0.2,1,burglary\n"
            "0.3,0.4,2,assault\n"
            "0.5,0.6,1,burglary\n",
        )
        pat, rep = load_events(p, time_is_index=True)
        assert pat.n == 3
        assert pat.d == 2
        assert pat.T == 2
        # labels in first-appearance order, ids 1-based
        assert pat.labels == ("burglary", "assault")
        assert pat.type_id.tolist() == [1, 2, 1]
        assert rep.n_rows == 3
        assert rep.duplicates_removed == 0
        assert rep.time_mode == "index"

    def test_column_remap_and_marks(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "lon,lat,when,kind,diameter\n"
            "10,20,1,oak,0.5\n"
            "30,40,1,pine,0.25\n",
        )
        pat, _ = load_events(
            p,
            columns={"x": "lon", "y": "lat", "time": "when", "type": "kind", "mark": "diameter"},
            time_is_index=True,
        )
        assert pat.has_marks
        assert pat.marks.tolist() == [0.5, 0.25]

    def test_unnamed_mark_column_picked_up(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type,mark\n0.1,0.1,1,a,7\n0.2,0.2,1,b,8\n",
        )
        pat, _ = load_events(p, time_is_index=True)
        assert pat.has_marks

    def test_duplicates_dropped_first_kept(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n"
            "0.1,0.2,1,a\n"
            "0.1,0.2,1,a\n"
            "0.3,0.4,1,b\n",
        )
        pat, rep = load_events(p, time_is_index=True)
        assert pat.n == 2
        assert rep.duplicates_removed == 1
        assert rep.n_rows == 3

    def test_missing_column_is_schema_error(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "x,y,time\n0.1,0.2,1\n")
        with pytest.raises(SchemaError):
            load_events(p, time_is_index=True)

    def test_unknown_role_is_schema_error(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "x,y,time,type\n0.1,0.2,1,a\n")
        with pytest.raises(SchemaError):
            load_events(p, columns={"altitude": "z"}, time_is_index=True)

    def test_bad_number_reports_line(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n0.1,0.2,1,a\nnope,0.4,1,b\n",
        )
        with pytest.raises(RowError) as err:
            load_events(p, time_is_index=True)
        assert "3" in str(err.value)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(EmptyInputError):
            load_events(p, time_is_index=True)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "x,y,time,type\n")
        with pytest.raises(EmptyInputError):
            load_events(p, time_is_index=True)

    def test_zero_based_index_rejected_with_hint(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv", "x,y,time,type\n0.1,0.2,0,a\n0.3,0.4,1,b\n"
        )
        with pytest.raises(ValidationError) as err:
            load_events(p, time_is_index=True)
        assert "shift" in str(err.value)

    def test_timestamp_without_width_rejected(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n0.1,0.2,2021-03-01,a\n0.3,0.4,2021-03-05,b\n",
        )
        with pytest.raises(ValidationError):
            load_events(p)

    def test_timestamp_binning(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n"
            "0.1,0.2,2021-03-01T00:00:00,a\n"
            "0.3,0.4,2021-03-03T12:00:00,b\n"
            "0.5,0.6,2021-03-08T00:00:00,a\n",
        )
        pat, rep = load_events(p, bin_width="2d")
        # origin = earliest stamp; bins: 0d -> 1, 2.5d -> 2, 7d -> 4
        assert pat.t.tolist() == [1, 2, 4]
        assert pat.T == 4
        assert rep.time_mode == "binned"
        assert rep.bin_width == timedelta(days=2)

    def test_each_distinct_timestamp_binned_once(self, tmp_path, monkeypatch):
        seen = []

        def recording_bin_times(timestamps, *args):
            seen.append(list(timestamps))
            return bin_times(timestamps, *args)

        monkeypatch.setattr(ingest, "bin_times", recording_bin_times)
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n"
            "0.1,0.2,2021-03-03T00:00:00,a\n"
            "0.3,0.4,2021-03-01T00:00:00,b\n"
            "0.5,0.6,2021-03-03T00:00:00,b\n"
            "0.7,0.8,2021-03-01T00:00:00,a\n"
            "0.7,0.8,2021-03-01T00:00:00,a\n",  # duplicate
        )
        pat, rep = load_events(p, bin_width="1d")
        assert seen == [[datetime(2021, 3, 3), datetime(2021, 3, 1)]]
        assert pat.t.tolist() == [3, 1, 3, 1]
        assert pat.T == 3
        assert rep.bin_origin == datetime(2021, 3, 1)

    def test_mixed_timezones_rejected(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            "x,y,time,type\n"
            "0.1,0.2,2021-01-01T00:00:00,a\n"
            "0.3,0.4,2021-01-02T00:00:00+00:00,b\n",
        )
        with pytest.raises(ValidationError, match="mixed timezone-aware and naive"):
            load_events(p, bin_width="1d")

    def test_explicit_window_honoured(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv", "x,y,time,type\n0.2,0.2,1,a\n0.4,0.4,1,b\n"
        )
        pat, _ = load_events(p, time_is_index=True, window=(0, 1, 0, 1))
        assert pat.window.is_unit_square


H = "x,y,time,type\n"
HM = "x,y,time,type,mark\n"
GOOD = "0.1,0.2,1,a\n0.3,0.4,2,b\n"
# 9999 good rows, then a bad y on line 10001, past the first chunk of rows
FAR = (
    H
    + "".join(f"0.{k:05d},0.5,1,{'ab'[k % 2]}\n" for k in range(1, 10000))
    + "0.5,oops,1,a\n"
)
# Outcomes recorded from the row-by-row csv.DictReader loader that the
# column-wise loader replaced: (n_rows, n, duplicates_removed, labels, x)
# for a load, (error type, message) for a rejection.
LOADER_CONTRACT = [
    pytest.param(H + GOOD + "0.5,0.6\n", (RowError, "line 4: empty time value"),
                 id="short-row-missing-time"),
    pytest.param(H + GOOD + "0.5,0.6,1\n", (RowError, "line 4: empty type label"),
                 id="short-row-missing-type"),
    pytest.param(H + GOOD + "0.5\n",
                 (RowError, "line 4: column 'y': cannot parse None as a number"),
                 id="short-row-missing-y"),
    pytest.param(H + GOOD + "0.5,0.6,1,a,extra,more\n",
                 (3, 3, 0, ("a", "b"), [0.1, 0.3, 0.5]), id="long-row"),
    pytest.param(H + GOOD + "\n\nnope,0.6,1,a\n",
                 (RowError, "line 6: column 'x': cannot parse 'nope' as a number"),
                 id="blank-lines-before-bad-row"),
    pytest.param(H + '0.1,0.2,1,"a\nb"\n0.3,0.4,2,b\nnope,0.6,1,a\n',
                 (RowError, "line 5: column 'x': cannot parse 'nope' as a number"),
                 id="quoted-newline-before-bad-row"),
    pytest.param("x,y,x,time,type\n1,0.2,0.5,1,a\n2,0.4,0.7,2,b\n",
                 (2, 2, 0, ("a", "b"), [0.5, 0.7]), id="duplicated-x-header"),
    pytest.param(H + "1,0,1,a\n1.0,-0,1,a\n0.5,0.5,2,b\n",
                 (3, 2, 1, ("a", "b"), [1.0, 0.5]), id="one-and-negative-zero-duplicate"),
    pytest.param(H + "1,0,1,a\n1,0,01,a\n0.5,0.5,2,b\n",
                 (3, 3, 0, ("a", "b"), [1.0, 1.0, 0.5]), id="time-01-not-duplicate"),
    pytest.param(H + "0.1,0.2,1, a \n0.1,0.2,1,a\n0.3,0.4,2,b\n",
                 (3, 2, 1, ("a", "b"), [0.1, 0.3]), id="label-spaces-stripped"),
    pytest.param(H + "1_0,0.2,1,a\n0.3,0.4,2,b\n",
                 (2, 2, 0, ("a", "b"), [10.0, 0.3]), id="underscore-number"),
    pytest.param(H + GOOD + "inf,0.2,1,a\n",
                 (RowError, "line 4: column 'x': non-finite value 'inf'"), id="inf"),
    pytest.param(HM + "0.1,0.2,1,a,1.5\n0.3,0.4,2,b,heavy\n",
                 (RowError, "line 3: column 'mark': cannot parse 'heavy' as a number"),
                 id="bad-mark"),
    pytest.param(HM + "0.1,0.2,1,a,1.5\n0.1,0.2,1,a,heavy\n0.3,0.4,2,b,2\n",
                 (3, 2, 1, ("a", "b"), [0.1, 0.3]), id="bad-mark-on-dropped-duplicate"),
    pytest.param(HM + "0.1,0.2,1,a,1.5\n0.1,0.2,1,a\n0.3,0.4,2,b,2\n",
                 (3, 2, 1, ("a", "b"), [0.1, 0.3]),
                 id="short-row-missing-mark-on-dropped-duplicate"),
    pytest.param(HM + "0.1,0.2,1,a,1.5\n0.3,0.4,2,b\n",
                 (RowError, "line 3: column 'mark': cannot parse None as a number"),
                 id="short-row-missing-mark"),
    pytest.param(FAR, (RowError, "line 10001: column 'y': cannot parse 'oops' as a number"),
                 id="bad-value-past-first-chunk"),
    pytest.param((H + GOOD).replace("\n", "\r") + '\r0.5,0.6,1,"c\rd"\r',
                 (3, 3, 0, ("a", "b", "c\rd"), [0.1, 0.3, 0.5]), id="cr-only-file"),
    pytest.param(H + GOOD + "0." + "1" * 131071 + ",0.5,1,a\n",
                 (RowError, "line 4: {path}: field larger than field limit (131072)"),
                 id="over-long-x-field"),
    pytest.param(H + GOOD + "0." + "1" * 131070 + ",0.5,1,a\n",
                 (3, 3, 0, ("a", "b"), [0.1, 0.3, 0.1111111111111111]),
                 id="x-field-at-the-limit"),
    pytest.param(H + GOOD + '0.5,0.5,1,"' + "label\n" * 22000 + '"\n0.7,0.7,1,a\n',
                 (RowError, "line 21849: {path}: field larger than field limit (131072)"),
                 id="over-long-label-of-short-lines"),
    pytest.param(H + "".join(f"{k / 8192},0.5,1,a\n" for k in range(4095))
                 + '0.75,0.5,2,"b\nc"\n0.25,0.25,1,b\n',
                 (4097, 4097, 0, ("a", "b\nc", "b"), [k / 8192 for k in range(4095)]
                  + [0.75, 0.25]), id="quoted-newline-in-record-4096"),
    pytest.param(H + GOOD + "1\x1f,0.2,1,a\n",
                 (RowError, "line 4: column 'x': cannot parse '1\\x1f' as a number"),
                 id="unit-separator-after-x"),
    pytest.param(H + "\uff11,0.2,1,a\n0.3,0.4,2,b\n",
                 (2, 2, 0, ("a", "b"), [1.0, 0.3]), id="fullwidth-digit"),
]


@pytest.mark.parametrize("text, expected", LOADER_CONTRACT)
def test_loader_contract(tmp_path, text, expected):
    path = tmp_path / "e.csv"
    path.write_text(text, newline="")
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as err:
            load_events(path, time_is_index=True)
        assert str(err.value) == message.format(path=path)
    else:
        pat, rep = load_events(path, time_is_index=True)
        assert (rep.n_rows, pat.n, rep.duplicates_removed, rep.labels, pat.x.tolist()) == expected


# pieces of event files on which numpy's tokenizer and csv.reader could
# part: values both read, then values one of them may refuse
NUMBERS = (["0.5", "0.25", "1", "0", "-0", "0.0", "-0.0", " 0.75 ", '"0.5"', "1e-3",
            "0.30000000000000004", "1_0", "\uff11", "\u0663.5", '"1\n"'],
           ["inf", "-inf", "nan", "abc", "", "0x1", "1d2"] + ["1\x1f", "\x1c2"] * 3)
TIMES = (["1", "2", "01", " 1", "3 ", '"2"'], ["", " ", "x", "0"])
LABELS = (["a", "b", " a ", "a ", '"a,b"', '"say ""hi"""', '"x\ny"', '"c\rd"',
           '"e\r\nf"', '"g\n\nh"', 'p"q', '"r"s', ' "t,u"', '"v""\n""w"', "a\x1f"]
          + ["a long label" * 4, '"' + "label\n" * 8 + '"'] * 3, ["", " ", '"\n\n"'])
ENDINGS = ["\n", "\r\n", "\r"]
# a field and one that reads as equal for the duplicate rule
SAME = {"0": "-0", "-0": "0.0", "0.0": "-0.0", "-0.0": "0", "0.5": '"0.5"', "1": " 1",
        "a": " a ", " a ": "a ", "b": '"b"'}


@st.composite
def event_texts(draw):
    """An events file: a header (maybe reordered, maybe with a mark),
    optionally ``_CHUNK_ROWS - 4`` plain rows so that what follows
    straddles the first chunk, then drawn rows and blank lines.  A drawn
    row may duplicate an earlier one, and may then lack its last field (a
    mark, where the mark is the last column)."""
    ending = draw(st.sampled_from(ENDINGS))
    names = ["x", "y", "time", "type"] + (["mark"] if draw(st.booleans()) else [])
    order = draw(st.permutations(range(len(names))))
    if len(names) == 5 and draw(st.booleans()):  # the mark last, the usual layout
        order = [k for k in order if k != 4] + [4]
    header = ",".join(names[k] for k in order)
    text = [header + ending]
    if draw(st.booleans()):
        plain = {"x": "", "y": "0.5", "time": "1", "type": "a", "mark": "1"}
        fields = [plain[names[k]] for k in order]
        at = order.index(0)  # the x column
        for k in range(ingest._CHUNK_ROWS - 4):
            fields[at] = str(k / 8192)
            text.append(",".join(fields) + ending)
    odd = draw(st.sampled_from([0, 3, 15]))  # percent of odd values and row lengths
    drawn = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 5)) == 0:
            text.append(draw(st.sampled_from(ENDINGS)))
            continue
        pick = {"x": NUMBERS, "y": NUMBERS, "time": TIMES, "type": LABELS, "mark": NUMBERS}
        fields = [draw(st.sampled_from(pick[names[k]][draw(st.integers(0, 99)) < odd]))
                  for k in order]
        duplicate = drawn and draw(st.booleans())
        if duplicate:  # a duplicate of an earlier row, its mark redrawn
            earlier = draw(st.sampled_from(drawn))
            fields = [f if names[k] == "mark" else SAME.get(e, e) if draw(st.booleans()) else e
                      for k, f, e in zip(order, fields, earlier)]
        drawn.append(fields)
        if duplicate and draw(st.integers(0, 3)) == 0:  # a duplicate lacking its last field
            fields = fields[:-1]
        elif draw(st.integers(0, 99)) < odd:  # a short row, or a long one
            cut = draw(st.integers(0, len(fields) - 1))
            fields = fields[:cut] if draw(st.booleans()) else fields + ["extra"] * cut
        text.append(",".join(fields) + draw(st.sampled_from(ENDINGS + [ending] * 3)))
    if draw(st.booleans()):  # no line end after the last row
        text[-1] = text[-1].rstrip("\r\n")
    return "".join(text)


def load_outcome(path, parse_file=None):
    """What load_events gives for ``path``: the events' bytes, labels and
    report, or the error's type and message; with ``parse_file`` the data
    rows are read by it."""
    with mock.patch.object(ingest, "_parse_file", parse_file or ingest._parse_file):
        try:
            pat, rep = load_events(path, time_is_index=True)
        except Exception as exc:  # noqa: BLE001 - the outcome is compared
            return type(exc), str(exc)
    arrays = [pat.x, pat.y, pat.t, pat.type_id] + ([pat.marks] if pat.has_marks else [])
    return [a.tobytes() for a in arrays], pat.labels, pat.window, rep


class TestTokenizerMatchesCsvReader:
    """load_events reads every file as the csv.reader row route
    (``oracles.csv_reader_parse_file``) does: the same events, byte for
    byte, and the same report, or the same error."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(text=event_texts(), limit=st.sampled_from([csv.field_size_limit(), 40]))
    def test_same_outcome(self, text, limit):
        default = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.csv"
            path.write_text(text, newline="")
            csv.field_size_limit(limit)  # a small limit makes fields too long
            try:
                expected = load_outcome(path, csv_reader_parse_file)
                assert load_outcome(path) == expected
            finally:
                csv.field_size_limit(default)


def write_long_labels(path, n):
    """``n`` rows over eight distinct 120-character labels."""
    labels = [f"label-{k}-" + "x" * 112 for k in range(8)]
    with path.open("w") as fh:
        fh.write(H)
        for k in range(n):
            fh.write(f"{(k * 7919 % n) / n},{k / n},{k % 5 + 1},{labels[k % 8]}\n")


def test_load_memory_is_bounded_by_a_chunk(tmp_path):
    # x, y, t and type_id, 8 bytes each per event; the loader holds its
    # parts and their concatenation, so the rest is a chunk's text and a
    # second copy of the arrays.  At the csv.reader row route the growth
    # from 20 000 to 80 000 rows read 5.91-6.18 MiB, 3.5-3.7 MiB over the
    # 2.44 MiB of arrays (VmHWM, three runs): that sets the allowance.  A
    # loader that reads the whole file at once grows by about 10 MiB.
    allowance_mib = 4.0
    n = 20_000
    peaks = []
    for rows in (n, 4 * n):
        path = tmp_path / f"events-{rows}.csv"
        write_long_labels(path, rows)
        peaks.append(child_peak_mib(
            "from stspectra.ingest import load_events\n"
            f"pat, rep = load_events({str(path)!r}, time_is_index=True)\n"
            f"assert pat.n == {rows}\n"
        ))
    arrays_mib = 4 * 8 * 4 * n / 2**20
    growth = peaks[1] - peaks[0]
    assert growth <= arrays_mib + allowance_mib, f"{peaks[0]:.1f} -> {peaks[1]:.1f} MiB"


class TestBinTimes:
    def test_floor_formula(self):
        origin = datetime(2021, 1, 1)
        stamps = [
            origin,
            origin + timedelta(hours=23, minutes=59),
            origin + timedelta(days=1),
            origin + timedelta(days=9, hours=12),
        ]
        idx, T = bin_times(stamps, timedelta(days=1))
        assert idx.tolist() == [1, 1, 2, 10]
        assert T == 10

    def test_boundary_goes_to_next_bin(self):
        origin = datetime(2021, 1, 1)
        idx, _ = bin_times([origin, origin + timedelta(days=2)], timedelta(days=1))
        assert idx.tolist() == [1, 3]

    def test_mixed_timezones_rejected(self):
        naive = datetime(2021, 1, 1)
        aware = datetime(2021, 1, 2, tzinfo=timezone.utc)
        for origin in (None, naive):
            with pytest.raises(ValidationError, match="mixed timezone-aware and naive"):
                bin_times([naive, aware], timedelta(days=1), origin=origin)

    def test_stamp_before_origin_rejected(self):
        origin = datetime(2021, 1, 2)
        with pytest.raises(ValidationError):
            bin_times([datetime(2021, 1, 1)], timedelta(days=1), origin=origin)

    def test_parse_duration_units(self):
        assert parse_duration("90s") == timedelta(seconds=90)
        assert parse_duration("45min") == timedelta(minutes=45)
        assert parse_duration("12h") == timedelta(hours=12)
        assert parse_duration("30d") == timedelta(days=30)
        assert parse_duration("2w") == timedelta(weeks=2)
        with pytest.raises(ValidationError):
            parse_duration("1month")

    def test_parse_duration_too_long_rejected(self):
        assert parse_duration("142857w") == timedelta(weeks=142857)
        for text in ("99999999999999999999w", "1" + "0" * 400 + "s"):
            with pytest.raises(ValidationError, match="too long") as err:
                parse_duration(text)
            assert repr(text) in str(err.value)


class TestPatternInvariants:
    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyInputError):
            build_pattern([], [], [], [], ("a", "b"), T=1)

    def test_single_component_rejected(self):
        with pytest.raises(ValidationError):
            build_pattern([0.5], [0.5], [1], [1], ("a",), T=1)

    def test_event_outside_window_rejected(self):
        with pytest.raises(DomainError):
            build_pattern([1.5, 0.5], [0.5, 0.5], [1, 1], [1, 2], ("a", "b"), T=1)

    def test_time_outside_horizon_rejected(self):
        with pytest.raises(ValidationError):
            build_pattern([0.5, 0.5], [0.5, 0.5], [1, 3], [1, 2], ("a", "b"), T=2)

    def test_unobserved_component_rejected(self):
        with pytest.raises(ValidationError):
            build_pattern(
                [0.5, 0.6], [0.5, 0.6], [1, 1], [1, 1], ("a", "b"), T=1
            )

    def test_unobserved_components_named_in_order(self):
        with pytest.raises(ValidationError) as err:
            build_pattern(
                [0.5, 0.6, 0.7], [0.5, 0.6, 0.7], [1, 1, 1], [3, 1, 3],
                ("a", "b", "c", "d"), T=1,
            )
        assert str(err.value) == "components never observed: [2, 4]"

    def test_non_finite_values_rejected(self):
        # the CSV route rejects these row by row; library callers must not
        # slip them past the window check, where NaN compares false
        base = dict(x=[0.1, 0.2, 0.3], y=[0.5, 0.5, 0.5], t=[1, 1, 1],
                    type_id=[1, 2, 2], labels=("a", "b"), T=1)
        for bad in (
            dict(x=[np.nan, 0.2, 0.3]),
            dict(y=[0.5, np.inf, 0.5]),
            dict(marks=[np.nan, 1.0, 2.0]),
        ):
            with pytest.raises(ValidationError, match="non-finite"):
                build_pattern(**{**base, **bad})
        assert build_pattern(**base, marks=[0.0, 1.0, 2.0]).has_marks

    @pytest.mark.parametrize(
        "labels", [("a", "a", "b"), ("a", "", "b"), ("a", " b", "c")],
        ids=["duplicate", "empty", "padded"],
    )
    def test_unloadable_labels_rejected(self, labels):
        # an events CSV cannot carry these labels: the loader strips them and
        # merges equal ones, so export and reload would change the components
        with pytest.raises(ValidationError, match="label"):
            build_pattern([0.1, 0.2, 0.3], [0.5] * 3, [1] * 3, [1, 2, 3], labels, T=1)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValidationError):
            Window(0.0, 0.0, 0.0, 1.0, T=1)

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, np.inf, 0.0, 1.0), (-np.inf, np.inf, 0.0, 1.0), (0.0, 1.0, 0.0, np.nan)],
        ids=["inf", "both-inf", "nan"],
    )
    def test_non_finite_window_rejected(self, bounds):
        # an infinite extent rescales every coordinate to 0; NaN compares false
        with pytest.raises(ValidationError, match="window bounds must be finite"):
            Window(*bounds, T=1)

    def test_counts_by_component(self, tiny_pattern):
        assert tiny_pattern.counts.tolist() == [4, 4]
        assert tiny_pattern.n == 8
        assert tiny_pattern.d == 2

    def test_arrays_readonly(self, tiny_pattern):
        with pytest.raises(ValueError):
            tiny_pattern.x[0] = 0.0


class TestViews:
    def test_component_view(self, tiny_pattern):
        comp = tiny_pattern.component(2)
        assert comp.label == "b"
        assert comp.n == 4
        assert comp.x.tolist() == [0.9, 0.25, 0.6, 0.1]
        assert comp.marks.tolist() == [1.0, 4.0, -2.0, 0.25]

    def test_component_index_checked(self, tiny_pattern):
        with pytest.raises(ValidationError):
            tiny_pattern.component(3)
        with pytest.raises(ValidationError):
            tiny_pattern.component(0)

    def test_pooled_view(self, tiny_pattern):
        pooled = tiny_pattern.pooled()
        assert pooled.label == "pooled"
        assert pooled.n == 8

    def test_slice_time(self, tiny_pattern):
        sl = tiny_pattern.slice_time(2)
        assert sl.T == 1
        assert sl.n == 4
        assert np.all(sl.t == 1)
        assert sl.labels == tiny_pattern.labels

    def test_empty_slice_raises(self):
        pat = build_pattern(
            [0.1, 0.2, 0.3, 0.4],
            [0.1, 0.2, 0.3, 0.4],
            [1, 1, 3, 3],
            [1, 2, 1, 2],
            ("a", "b"),
            T=3,
        )
        with pytest.raises(EmptyInputError):
            pat.slice_time(2)

    def test_slice_may_lose_a_component(self):
        pat = build_pattern(
            [0.1, 0.2, 0.3],
            [0.1, 0.2, 0.3],
            [1, 1, 2],
            [1, 2, 1],
            ("a", "b"),
            T=2,
        )
        sl = pat.slice_time(2)
        assert sl.d == 2
        assert sl.counts.tolist() == [1, 0]


class TestRescaleExport:
    def test_rescale_maps_to_unit_square(self):
        pat = MultiPattern(
            x=np.array([10.0, 20.0]),
            y=np.array([5.0, 15.0]),
            t=np.array([1, 1]),
            type_id=np.array([1, 2]),
            labels=("a", "b"),
            window=Window(10.0, 20.0, 5.0, 15.0, T=1),
        )
        scaled = rescale_to_unit_square(pat)
        assert scaled.window.is_unit_square
        assert scaled.x.tolist() == [0.0, 1.0]
        assert scaled.y.tolist() == [0.0, 1.0]
        assert scaled.window.source_extent == (10.0, 20.0, 5.0, 15.0)
        assert scaled.window.source_area == 100.0

    def test_rescale_idempotent(self, tiny_pattern):
        assert rescale_to_unit_square(tiny_pattern) is tiny_pattern

    def test_export_load_round_trip(self, tmp_path, tiny_pattern):
        # the second and third label pairs need CSV quoting
        for labels in (("a", "b"), ("a,b", 'say "hi"'), ("x\ny", "c\rd")):
            pattern = dataclasses.replace(tiny_pattern, labels=labels)
            path = tmp_path / "out.csv"
            export_events(pattern, path)
            back, _ = load_events(path, time_is_index=True, window=(0, 1, 0, 1))
            assert back.equals(pattern)

    def test_round_trip_survives_ugly_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        pat = build_pattern(
            rng.random(20),
            rng.random(20),
            rng.integers(1, 4, 20),
            np.r_[np.ones(10, int), np.full(10, 2)],
            ("a", "b"),
            T=3,
        )
        path = tmp_path / "out.csv"
        export_events(pat, path)
        back, _ = load_events(path, time_is_index=True, window=(0, 1, 0, 1))
        assert back.equals(pat)
