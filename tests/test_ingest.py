"""Loading, binning, validation, and round-trip export."""

import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

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

from conftest import build_pattern


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
    pytest.param(FAR, (RowError, "line 10001: column 'y': cannot parse 'oops' as a number"),
                 id="bad-value-past-first-chunk"),
]


@pytest.mark.parametrize("text, expected", LOADER_CONTRACT)
def test_loader_contract(tmp_path, text, expected):
    path = tmp_path / "e.csv"
    path.write_text(text, newline="")
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as err:
            load_events(path, time_is_index=True)
        assert str(err.value) == message
    else:
        pat, rep = load_events(path, time_is_index=True)
        assert (rep.n_rows, pat.n, rep.duplicates_removed, rep.labels, pat.x.tolist()) == expected


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
