"""End-to-end command line checks: artifacts, determinism, exit codes."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stspectra
from stspectra import (
    FrequencyGrid,
    dft,
    export_events,
    load_events,
    marked_dft,
    partial_field,
    periodogram_matrix,
    rescale_to_unit_square,
    simulate_binomial_null,
    smooth_spectra,
)
from stspectra import ingest
from stspectra.cli import (
    SLICE_XI_WARNING,
    _config_dict,
    _config_hash,
    build_parser,
    main,
)
from stspectra.errors import EmptyInputError
from stspectra.graph import graph_from_json

GRID_ARGS = ["--p-max", "3", "--q-min", "-3", "--q-max", "3"]


def run(argv):
    return main([str(a) for a in argv])


def run_without_warnings(argv):
    """``run(argv)``, asserting that it raised no Python warning (which the
    interpreter would print to stderr before the JSON report)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert [str(w.message) for w in caught] == []
    return code


def simulate_events(tmp_path, name, rates="40,50,60", T=3, seed=5, marks=None):
    """Simulate into tmp_path/name and return the events CSV path."""
    out = tmp_path / name
    argv = ["simulate", "--rates", rates, "--T", T, "--seed", seed, "--out", out]
    if marks:
        argv += ["--mark-dist", marks]
    assert run(argv) == 0
    return out / "events.csv"


def read_all(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


def data_rows(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def gappy_events(tmp_path):
    """Three components with events in steps 1 and 3 only (T=3)."""
    rng = np.random.default_rng(8)
    lines = ["x,y,time,type,mark"]
    for step in (1, 3):
        for comp in ("a", "b", "c"):
            for x, y, m in rng.random((40, 3)):
                lines.append(f"{x:.17g},{y:.17g},{step},{comp},{m:.17g}")
    path = tmp_path / "gappy.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def null_quantile(pattern, grid, half_widths, replicates, seed, marked):
    """q95 ('higher') of max_{i<j} sup |d_ij| over count-matched uniform
    nulls; marked nulls carry each component's observed marks, permuted by a
    jumped Philox stream of the replicate seed."""
    counts = tuple(int(c) for c in pattern.counts)
    maxima = []
    for r in range(replicates):
        null = simulate_binomial_null(counts, pattern.T, seed=seed + r)
        if marked:
            rng = np.random.Generator(np.random.Philox(seed + r).jumped())
            marks = [
                rng.permutation(pattern.marks[pattern.type_id == i])
                for i in range(1, pattern.d + 1)
            ]
            null = dataclasses.replace(null, marks=np.concatenate(marks))
            dfts = marked_dft(null, grid)
        else:
            dfts = dft(null, grid)
        pf = partial_field(smooth_spectra(periodogram_matrix(dfts), half_widths))
        mask = grid.sup_mask()
        maxima.append(
            max(
                np.nanmax(pf.abs_d[..., a, b][mask])
                for a in range(pattern.d)
                for b in range(a + 1, pattern.d)
            )
        )
    return float(np.quantile(maxima, 0.95, method="higher"))


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path):
        a = simulate_events(tmp_path, "a", seed=9)
        b = simulate_events(tmp_path, "b", seed=9)
        assert a.read_bytes() == b.read_bytes()
        truth = json.loads((tmp_path / "a" / "truth.json").read_text())
        assert truth["spec"]["seed"] == 9
        assert truth["spec"]["rng"] == "philox4x64"
        assert truth["true_edges"] == []

    def test_seed_changes_output(self, tmp_path):
        a = simulate_events(tmp_path, "a", seed=1)
        b = simulate_events(tmp_path, "b", seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_linked_cluster_records_edge(self, tmp_path, capsys):
        out = tmp_path / "link"
        assert run(
            [
                "simulate",
                "--kind",
                "linked_cluster",
                "--rates",
                "40,40,40",
                "--link",
                "1,2,20,0.05",
                "--T",
                "3",
                "--out",
                out,
            ]
        ) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["true_edges"] == [[1, 2]]
        assert "true edges: [(1, 2)]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rates, link, named",
        [
            ("nan,40", "1,2,5,0.05", "entry 1 of 'rates'"),
            ("40,40", "1,2,nan,0.05", "'offspring_rate' of link pair 1"),
            ("1e20,40", "1,2,5,0.05", "entry 1 of 'rates' must be at most"),
            ("40,40", "1,2,5,30", "'dispersion' of link pair 1 must be at most"),
            # a range's endpoints reach the rule as given, not smeared by linspace
            ("1:inf:3", "1,2,5,0.05", "entry 2 of 'rates' must be a finite number, got Infinity"),
            ("1:inf:1", "1,2,5,0.05", "entry 2 of 'rates' must be a finite number, got Infinity"),
        ],
        ids=["nan-rate", "nan-offspring-rate", "huge-rate", "wide-dispersion",
             "inf-range-rate", "inf-range-rate-one"],
    )
    def test_non_finite_value_reports_json(self, tmp_path, capsys, rates, link, named):
        argv = ["simulate", "--kind", "linked_cluster", "--rates", rates, "--T", "2"]
        assert run_without_warnings(argv + ["--link", link, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        report = json.loads(err[0])
        assert report["error"] == "validation"
        assert named in report["message"]

    def test_huge_rate_refused_before_drawing(self, tmp_path, capsys, monkeypatch):
        def draw(spec):
            raise AssertionError("simulate() reached")

        monkeypatch.setattr("stspectra.cli.simulate", draw)
        argv = ["simulate", "--rates", "1e9,40", "--T", "2", "--out", tmp_path / "out"]
        assert run(argv) == 1
        report = json.loads(capsys.readouterr().err)
        assert "entry 1 of 'rates' must be at most 1e+06, got 1e+09" in report["message"]
        assert not (tmp_path / "out" / "events.csv").exists()

    def test_rates_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--T", "2"])
        assert exc.value.code == 2
        assert "--rates is required" in capsys.readouterr().err


class TestIngest:
    def test_report_contents(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text(
            "x,y,time,type\n"
            "0.1,0.2,1,hare\n"
            "0.8,0.9,2,lynx\n"
            "1.9,0.4,2,hare\n"
            "0.1,0.2,1,hare\n"  # duplicate
        )
        out = tmp_path / "ing"
        assert run(
            ["ingest", src, "--time-is-index", "--window", "0,2,0,1", "--out", out]
        ) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["n_events"] == 3
        assert report["duplicates_removed"] == 1
        assert report["labels"] == ["hare", "lynx"]
        assert report["counts"] == {"hare": 2, "lynx": 1}
        assert report["T"] == 2
        assert report["window_source"] == [0.0, 2.0, 0.0, 1.0]
        assert report["intensity_unit_square"]["hare"] == 1.0
        assert report["intensity_source_units"]["hare"] == 0.5
        assert (out / "events.csv").exists()
        assert "1 duplicates removed" in capsys.readouterr().out

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert run(["ingest", tmp_path / "nope.csv", "--out", tmp_path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"

    def test_time_index_beyond_int64_reports_json(self, tmp_path, capsys):
        src = tmp_path / "big.csv"
        src.write_text("x,y,time,type\n0.1,0.2,1,a\n0.3,0.4,100000000000000000000000,b\n")
        assert run(["ingest", src, "--time-is-index", "--out", tmp_path]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert "100000000000000000000000" in report["message"]

    @pytest.mark.parametrize(
        "rows, blank",
        [(0, ""), (ingest._CHUNK_ROWS, ""), (2 * ingest._CHUNK_ROWS, ""),
         (ingest._CHUNK_ROWS, "\n\r\n")],
        ids=["header-only", "one-chunk", "two-chunks", "blank-lines"],
    )
    def test_loader_gives_no_warning(self, tmp_path, capsys, rows, blank):
        # np.loadtxt warns when a call finds no record past the last one and
        # when it skips a blank line
        src = tmp_path / "raw.csv"
        src.write_text("x,y,time,type\n" + "".join(
            f"{k / 8192},{k % 7 / 8},1,{'ab'[k % 2]}\n" + blank * (k % 1000 == 0)
            for k in range(rows)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rows:
                assert load_events(src, time_is_index=True)[0].n == rows
            else:
                with pytest.raises(EmptyInputError):
                    load_events(src, time_is_index=True)
            code = run(["ingest", src, "--time-is-index", "--out", tmp_path / "out"])
        assert code == (0 if rows else 1)
        if not rows:
            assert json.loads(capsys.readouterr().err)["error"] == "empty-input"

    @pytest.mark.parametrize(
        "data, error, message",
        [
            pytest.param(b"x,y,time,type\xff\xfe\n0.1,0.2,1,a\n", "validation",
                         "not utf-8 text (invalid start byte)", id="bad-bytes-in-header"),
            # past the first block of text the reader decodes
            pytest.param(b"x,y,time,type\n" + b"0.25,0.5,1,a\n" * 2000
                         + b"0.5,0.5,1,\xff\xfe\n", "validation",
                         "not utf-8 text (invalid start byte)", id="bad-bytes-in-row"),
            pytest.param(b"x,y,time,type\n0.1,0.2,1,a\n0.5,0.5,1," + b"b" * 131073
                         + b"\n", "row", "field larger than field limit (131072)",
                         id="over-long-field"),
        ],
    )
    def test_undecodable_and_overlong_input_reports_json(
        self, tmp_path, capsys, data, error, message
    ):
        src = tmp_path / "raw.csv"
        src.write_bytes(data)
        assert run(["ingest", src, "--time-is-index", "--out", tmp_path / "out"]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == error
        assert str(src) in report["message"]
        assert report["message"].lower().endswith(message)
        if error == "row":
            assert report["message"].startswith("line 3: ")

    @pytest.mark.parametrize(
        "width, message",
        [
            ("1d", "mixed timezone-aware and naive timestamps"),
            ("99999999999999999999w", "'99999999999999999999w' is too long"),
        ],
        ids=["mixed-timezones", "huge-bin-width"],
    )
    def test_unbinnable_timestamps_report_json(self, tmp_path, capsys, width, message):
        src = tmp_path / "raw.csv"
        src.write_text(
            "x,y,time,type\n"
            "0.1,0.2,2021-01-01T00:00:00,a\n"
            "0.3,0.4,2021-01-02T00:00:00+00:00,b\n"
        )
        assert run(["ingest", src, "--bin-width", width, "--out", tmp_path / "out"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "validation"
        assert message in report["message"]

    @pytest.mark.parametrize("window", ["0,inf,0,1", "-inf,inf,0,1", "0,1,0,nan"])
    def test_non_finite_window_reports_json(self, tmp_path, capsys, window):
        src = tmp_path / "raw.csv"
        src.write_text("x,y,time,type\n0.1,0.2,1,a\n0.8,0.9,2,b\n")
        out = tmp_path / "ing"
        assert run(["ingest", src, "--time-is-index", f"--window={window}", "--out", out]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "validation"
        assert report["message"].startswith("window bounds must be finite")
        assert not (out / "events.csv").exists()

    @pytest.mark.parametrize(
        "origin, message",
        [
            ("2021-01-01T00:00:00", None),
            ("01/01/2021", "bin origin '01/01/2021' is not ISO-8601"),
            ("2021-01-02T12:00:00", "precedes the bin origin"),
        ],
        ids=["valid", "not-iso", "after-first-stamp"],
    )
    def test_column_remap_with_binned_timestamps(self, tmp_path, capsys, origin, message):
        src = tmp_path / "raw.csv"
        src.write_text(
            "lon,lat,when,kind\n"
            "0.1,0.2,2021-01-01T06:00:00,a\n"
            "0.3,0.4,2021-01-02T00:00:00,b\n"
            "0.5,0.6,2021-01-03T18:00:00,a\n"
        )
        out = tmp_path / "ing"
        code = run(
            ["ingest", src, "--col", "x=lon,y=lat,time=when,type=kind", "--bin-width", "1d",
             "--bin-origin", origin, "--out", out]
        )
        if message is None:
            assert code == 0
            report = json.loads((out / "ingest_report.json").read_text())
            assert report["T"] == 3
            assert report["counts"] == {"a": 2, "b": 1}
            rows = [r.split(",")[2:] for r in data_rows(out / "events.csv")[1:]]
            assert rows == [["1", "a"], ["2", "b"], ["3", "a"]]
        else:
            assert code == 1
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "validation"
            assert message in report["message"]

    def test_bad_schema_reports_json(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("lon,lat\n1,2\n")
        assert run(["ingest", src, "--time-is-index", "--out", tmp_path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema"


class TestSpectra:
    def test_artifacts_and_thread_invariance(self, tmp_path):
        # --threads is accepted and ignored, so it leaves every byte alone
        events = simulate_events(tmp_path, "sim")
        outs = {}
        for name, extra in (("t1", ["--threads", "1"]), ("t4", ["--threads", "4"])):
            out = tmp_path / name
            assert run(["spectra", events, "--time-is-index", "--out", out, *GRID_ARGS] + extra) == 0
            outs[name] = read_all(out, ["spectra.csv", "polar.csv"])
        assert outs["t1"] == outs["t4"]

    def test_rows_and_provenance(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "spec"
        assert run(["spectra", events, "--time-is-index", "--out", out, *GRID_ARGS]) == 0
        lines = (out / "spectra.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# artifact=stspectra-spectra") for l in comments)
        assert any(l.startswith("# config_hash=") for l in comments)
        assert "# grid=p:0..3,q:-3..3,u:-1..1" in comments
        assert any("smoothing=1,1,0" in l for l in comments)
        header = lines[len(comments)]
        assert header == "p,q,u,i,j,re,im,kind"
        data = lines[len(comments) + 1 :]
        # 6 upper-triangle pairs x 4x7x3 ordinates x raw+smoothed
        assert len(data) == 6 * 84 * 2
        # every float survives a parse at full precision
        sample = data[0].split(",")
        float(sample[5]), float(sample[6])

    def test_marked_needs_marks(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        assert run(
            ["spectra", events, "--time-is-index", "--marked", "--out", tmp_path / "m", *GRID_ARGS]
        ) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation"

    def test_marked_kind_rows(self, tmp_path):
        events = simulate_events(
            tmp_path, "sim", marks="normal:1,0.25", rates="40,50", T=2
        )
        out = tmp_path / "mk"
        assert run(["spectra", events, "--time-is-index", "--marked", "--out", out, *GRID_ARGS]) == 0
        text = (out / "spectra.csv").read_text()
        assert ",marked" in text


class TestPartialAndGraph:
    @pytest.mark.parametrize(
        "sub, extra",
        [
            ("partial", []),
            ("graph", ["--xi", "null:q95", "--replicates", "2"]),
            ("pipeline", ["--xi", "0.5"]),
            ("invert", []),
            ("invert", ["--pair", "1,2"]),
        ],
        ids=["partial", "graph-null", "pipeline", "invert", "invert-pair"],
    )
    def test_small_smoothing_box_refused_before_any_work(self, tmp_path, capsys, sub, extra):
        events = simulate_events(tmp_path, "sim")
        capsys.readouterr()
        out = tmp_path / "x"
        argv = [sub, events, "--time-is-index", "--half-widths", "0,0,0", *extra]
        assert run_without_warnings([*argv, "--out", out, *GRID_ARGS]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "validation",
            "message": "smoothing neighbourhood 1 < d=3: smoothed matrices cannot "
            "reach full rank; enlarge the half-widths",
        }
        assert not out.exists()

    def test_graph_json_triangles_agree(self, tmp_path):
        # at d=5 the two triangles of abs_d differ at rounding level; each
        # unordered pair is reduced once, so its two entries are one value
        events = simulate_events(tmp_path, "sim", rates="200,200,800,800,800", T=5)
        out = tmp_path / "g"
        assert run(
            ["graph", events, "--time-is-index", "--half-widths", "1,1,1", "--xi", "0.5",
             "--format", "json", "--out", out, *GRID_ARGS]
        ) == 0
        doc = json.loads((out / "graph.json").read_text())
        stats = np.array(doc["stats"], dtype=float)
        argmax = np.array(doc["argmax"])
        assert np.isfinite(stats[~np.eye(5, dtype=bool)]).all()
        assert np.array_equal(stats, stats.T, equal_nan=True)
        assert np.array_equal(argmax, argmax.transpose(1, 0, 2))

    def test_spectra_keeps_the_rank_warning(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        argv = ["spectra", events, "--time-is-index", "--half-widths", "0,0,0"]
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            assert run([*argv, "--out", tmp_path / "s", *GRID_ARGS]) == 0
        assert (tmp_path / "s" / "spectra.csv").exists()

    def test_partial_needs_three_components(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "two", rates="40,50", T=2)
        assert run(["partial", events, "--time-is-index", "--out", tmp_path / "p", *GRID_ARGS]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "3 components" in err["message"]

    def test_partial_csv_shape(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "part"
        assert run(["partial", events, "--time-is-index", "--out", out, *GRID_ARGS]) == 0
        lines = (out / "partial.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 3 * 84  # 3 pairs x 4x7x3 ordinates

    def test_graph_fixed_threshold(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "g"
        assert run(
            ["graph", events, "--time-is-index", "--xi", "0.99", "--format", "both", "--out", out,
             *GRID_ARGS]
        ) == 0
        dot = (out / "graph.dot").read_text()
        assert "graph dependence {" in dot
        assert f'graph [xi="{format(0.99, ".17g")}"]' in dot
        g = graph_from_json((out / "graph.json").read_text())
        assert g.xi == 0.99
        assert g.provenance["config_hash"]

    def test_graph_null_calibration(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim", rates="30,30,30", T=2)
        out = tmp_path / "gn"
        assert run(
            ["graph", events, "--time-is-index", "--xi", "null:q95", "--replicates", "3",
             "--format", "json", "--out", out, *GRID_ARGS]
        ) == 0
        g = graph_from_json((out / "graph.json").read_text())
        assert 0.0 < g.xi <= 1.0 + 1e-9
        assert g.provenance["calibration"]["replicates"] == 3
        assert g.provenance["calibration"]["quantile"] == 0.95

    def test_graph_bad_threshold(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        assert run(
            ["graph", events, "--time-is-index", "--xi", "abc", "--out", tmp_path / "bad", *GRID_ARGS]
        ) == 1
        assert "null:q95" in json.loads(capsys.readouterr().err)["message"]

    def test_graph_unknown_calibration_spec(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        assert run(
            ["graph", events, "--time-is-index", "--xi", "null:q90", "--out", tmp_path / "bad",
             *GRID_ARGS]
        ) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation",
            "message": "unknown calibration spec 'null:q90'; use null:q95",
        }

    @pytest.mark.parametrize("sub", ["graph", "pipeline"])
    @pytest.mark.parametrize("xi", ["nan", "inf", "-1"])
    def test_bad_threshold_refused_before_any_artifact(self, tmp_path, capsys, sub, xi):
        events = simulate_events(tmp_path, "sim")
        capsys.readouterr()
        out = tmp_path / "x"
        assert run(
            [sub, events, "--time-is-index", f"--xi={xi}", "--out", out, *GRID_ARGS]
        ) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "validation",
            "message": "threshold xi must be a finite non-negative number",
        }
        assert not out.exists()

    def test_per_slice_artifacts(self, tmp_path):
        events = simulate_events(tmp_path, "sim", rates="50,50,50", T=3)
        out = tmp_path / "slices"
        assert run(
            ["graph", events, "--time-is-index", "--xi", "0.0", "--per-slice", "--format", "both",
             "--out", out, *GRID_ARGS]
        ) == 0
        assert (out / "persistence.csv").exists()
        for step in (1, 2, 3):
            assert (out / f"slice_{step}.dot").exists()
            assert (out / f"slice_{step}.json").exists()
        lines = (out / "persistence.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        # xi=0 draws every edge in every slice: 3 pairs x 3 slices
        assert len(data) == 9
        assert data[0].split(",")[6] == "1"


    def test_marked_calibration_uses_mark_permutation_null(self, tmp_path):
        # d=3, 300 events each, half-widths 2,2,1: --marked must calibrate
        # the marked statistic, not the unmarked one
        observed = simulate_binomial_null((300, 300, 300), 4, seed=99)
        marks = np.random.default_rng(3).normal(2.0, 0.5, observed.n)
        events = tmp_path / "marked.csv"
        export_events(dataclasses.replace(observed, marks=marks), events)
        pattern = rescale_to_unit_square(load_events(events, time_is_index=True)[0])
        grid, hw, reps, seed = FrequencyGrid.default(4), (2, 2, 1), 40, 500

        xis = {}
        for flag in ("--marked", None):
            out = tmp_path / f"g{flag}"
            argv = ["graph", events, "--time-is-index", "--half-widths", "2,2,1",
                    "--xi", "null:q95", "--replicates", reps, "--calibration-seed", seed,
                    "--format", "json", "--out", out]
            assert run(argv + ([flag] if flag else [])) == 0
            xis[flag] = graph_from_json((out / "graph.json").read_text()).xi
        assert xis["--marked"] == null_quantile(pattern, grid, hw, reps, seed, marked=True)
        assert xis[None] == null_quantile(pattern, grid, hw, reps, seed, marked=False)
        assert xis["--marked"] != xis[None]


class TestSliceWarnings:
    def test_empty_slice_reaches_artifacts(self, tmp_path):
        events = gappy_events(tmp_path)
        for sub in ("graph", "pipeline"):
            out = tmp_path / sub
            assert run([sub, events, "--time-is-index", "--xi", "0.5", "--per-slice",
                        "--out", out, *GRID_ARGS]) == 0
            assert not (out / "slice_2.dot").exists()
            comments = [l for l in (out / "persistence.csv").read_text().splitlines()
                        if l.startswith("# warning=")]
            assert len(comments) == 1 and comments[0].startswith("# warning=step 2: ")
        warnings = json.loads((out / "run.json").read_text())["warnings"]
        assert [w for w in warnings if w.startswith("step 2: ")] == [comments[0][10:]]

    def test_calibrated_xi_is_flagged_on_slices(self, tmp_path):
        events = simulate_events(tmp_path, "sim", rates="50,50,50", T=3)
        for sub, fmt in (("graph", ["--format", "json"]), ("pipeline", [])):
            out = tmp_path / sub
            assert run([sub, events, "--time-is-index", "--xi", "null:q95", "--replicates", 3,
                        "--per-slice", *fmt, "--out", out, *GRID_ARGS]) == 0
            for step in (1, 2, 3):
                g = graph_from_json((out / f"slice_{step}.json").read_text())
                assert SLICE_XI_WARNING in g.warnings
            assert f"# warning={SLICE_XI_WARNING}" in (out / "persistence.csv").read_text()
            assert SLICE_XI_WARNING not in graph_from_json(
                (out / "graph.json").read_text()).warnings
        assert SLICE_XI_WARNING in json.loads((out / "run.json").read_text())["warnings"]


class TestSharedPaths:
    def test_graph_pipeline_invert_agree(self, tmp_path):
        events = simulate_events(tmp_path, "sim", marks="normal:2,0.5", seed=12)
        common = [events, "--time-is-index", "--marked", "--xi", "0.6", "--per-slice",
                  *GRID_ARGS]
        g, p, inv = tmp_path / "g", tmp_path / "p", tmp_path / "inv"
        assert run(["graph", *common, "--format", "json", "--out", g]) == 0
        assert run(["pipeline", *common, "--lags", "--out", p]) == 0
        assert run(["invert", events, "--time-is-index", "--marked",
                    "--out", inv, *GRID_ARGS]) == 0
        assert data_rows(g / "persistence.csv") == data_rows(p / "persistence.csv")
        for step in (1, 2, 3):
            name = f"slice_{step}.json"
            assert (g / name).read_bytes() == (p / name).read_bytes()
        assert data_rows(inv / "lags.csv") == data_rows(p / "lags.csv")
        assert len(data_rows(p / "lags.csv")) == 1 + 3 * 7 * 7 * 3


class TestInvert:
    def test_pair_with_scaling(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "inv"
        assert run(
            ["invert", events, "--time-is-index", "--pair", "1,2", "--scaled", "--out", out,
             *GRID_ARGS]
        ) == 0
        lines = (out / "lags.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        kinds = {l.split(",")[6] for l in data}
        assert kinds == {"scaled_partial_auto", "scaled_partial_cross"}
        # 7x7x3 lattice per part, three parts
        assert len(data) == 3 * 7 * 7 * 3

    def test_all_pairs_crosses(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "inv2"
        assert run(["invert", events, "--time-is-index", "--out", out, *GRID_ARGS]) == 0
        data = [
            l
            for l in (out / "lags.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        pairs = {tuple(l.split(",")[3:5]) for l in data}
        assert pairs == {("1", "2"), ("1", "3"), ("2", "3")}

    @pytest.mark.parametrize("extra", [[], ["--pair", "1,2"]], ids=["all-pairs", "pair"])
    def test_unmirrorable_grid_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, extra
    ):
        # one temporal ordinate at T=4 has no conjugate mirror: the run must
        # stop before it transforms anything
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed before refusing the grid")

        monkeypatch.setattr("stspectra.cli.spectral_fields", no_transform)
        events = simulate_events(tmp_path, "sim", T=4)
        capsys.readouterr()
        out = tmp_path / "inv"
        assert run_without_warnings(
            ["invert", events, "--time-is-index", "--u-min", "0", "--u-max", "0",
             "--half-widths", "2,2,0", *extra, "--out", out]
        ) == 1
        assert one_report(capsys) == {
            "error": "symmetry",
            "message": "cannot symmetrise: the conjugate mirror needs all 4 temporal "
            "ordinates, got 1; use the default u range",
        }
        assert not out.exists()


class TestClassicalCli:
    def test_curves_csv(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "cl"
        assert run(
            ["classical", events, "--time-is-index", "--estimator", "k", "--r-grid", "0.05,0.1",
             "--t-grid", "1.0", "--out", out]
        ) == 0
        data = [
            l
            for l in (out / "curves.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert len(data) == 2
        assert data[0].split(",")[3] == "k_function"

    def test_intensity_artifacts(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "ci"
        assert run(
            ["classical", events, "--time-is-index", "--estimator", "intensity", "--cells", "16",
             "--out", out]
        ) == 0
        assert (out / "intensity_space.csv").exists()
        assert (out / "intensity_time.csv").exists()

    def test_mark_k(self, tmp_path):
        events = simulate_events(
            tmp_path, "sim", marks="normal:2,0.5", rates="60,60", T=3
        )
        out = tmp_path / "cm"
        assert run(
            ["classical", events, "--time-is-index", "--estimator", "mark-k", "--r-grid", "0.1",
             "--t-grid", "1.0", "--out", out]
        ) == 0
        data = [
            l
            for l in (out / "curves.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert data[0].split(",")[3] == "mark_weighted_k_centred"

    def test_digit_labels_resolve_as_labels_first(self, tmp_path):
        # labels 7 and 3 in first-appearance order: component 1 is "7"
        rng = np.random.default_rng(4)
        lines = ["x,y,time,type,mark"]
        for k, (x, y, m) in enumerate(rng.random((160, 3))):
            lines.append(f"{x:.17g},{y:.17g},{k % 3 + 1},{'73'[k % 2]},{m + 1:.17g}")
        events = tmp_path / "digits.csv"
        events.write_text("\n".join(lines) + "\n")
        argv = ["classical", events, "--time-is-index", "--r-grid", "0.1",
                "--t-grid", "1"]

        def curves(name, *flags):
            assert run([*argv, *flags, "--out", tmp_path / name]) == 0
            return data_rows(tmp_path / name / "curves.csv")

        by_label = curves("label7", "--estimator", "mark-k", "--component", "7")
        assert by_label == curves("index1", "--estimator", "mark-k", "--component", "1")
        assert by_label[1].split(",")[4:] == ["7", "7"]
        assert curves("label3", "--estimator", "mark-k", "--component", "3") == curves(
            "index2", "--estimator", "mark-k", "--component", "2"
        )
        k_labels = curves("k73", "--estimator", "k", "--C", "7", "--D", "3")
        assert k_labels == curves("k12", "--estimator", "k", "--C", "1", "--D", "2")
        assert run([*argv, "--estimator", "mark-k", "--component", "4",
                    "--out", tmp_path / "bad"]) != 0


    @pytest.mark.parametrize("estimator", ["pair-correlation", "k"])
    def test_kernel_plugin_curves(self, tmp_path, estimator):
        events = simulate_events(tmp_path, "sim", T=5)
        argv = ["classical", events, "--time-is-index", "--estimator", estimator,
                "--no-homogeneous", "--r-grid", "0.05,0.1", "--cells", "16"]
        assert run([*argv, "--out", tmp_path / "a"]) == 0
        assert run([*argv, "--out", tmp_path / "b"]) == 0
        a = (tmp_path / "a" / "curves.csv").read_bytes()
        assert a == (tmp_path / "b" / "curves.csv").read_bytes()
        rows = [r.split(",") for r in data_rows(tmp_path / "a" / "curves.csv")[1:]]
        assert len(rows) == 4
        assert all(np.isfinite(float(r[2])) for r in rows)

    @pytest.mark.parametrize("estimator", ["pair-correlation", "k"])
    @pytest.mark.parametrize("cells", ["0", "-3"])
    def test_kernel_plugin_rejects_bad_cells(self, tmp_path, capsys, estimator, cells):
        events = simulate_events(tmp_path, "sim", T=5)
        assert run(
            ["classical", events, "--time-is-index", "--estimator", estimator,
             "--no-homogeneous", "--cells", cells, "--out", tmp_path / "x"]
        ) == 1
        report = json.loads(capsys.readouterr().err)
        assert report == {"error": "validation", "message": "need at least 2 cells per axis"}

    @pytest.mark.parametrize("estimator", ["pair-correlation", "k", "mark-k"])
    def test_default_t_grid_fits_short_patterns(self, tmp_path, estimator):
        # T=4 leaves no eroded temporal domain at t=2; the default keeps t=1
        events = simulate_events(tmp_path, "sim", marks="normal:2,0.5", T=4)
        argv = ["classical", str(events), "--time-is-index", "--estimator", estimator,
                "--component", "1", "--r-grid", "0.05,0.1"]
        assert run([*argv, "--out", tmp_path / "default"]) == 0
        assert run([*argv, "--t-grid", "1", "--out", tmp_path / "explicit"]) == 0
        rows = data_rows(tmp_path / "default" / "curves.csv")
        assert rows == data_rows(tmp_path / "explicit" / "curves.csv")
        assert {r.split(",")[1] for r in rows[1:]} == {"1"}
        args = build_parser()[0].parse_args([*argv, "--out", "unused"])
        cfg = _config_dict(args, {"resolved_t_grid": [1.0]})
        text = (tmp_path / "default" / "curves.csv").read_text()
        assert f"# config_hash={_config_hash(cfg)}" in text.splitlines()

    def test_range_form_of_r_grid(self, tmp_path):
        events = simulate_events(tmp_path, "sim", T=5)
        argv = ["classical", events, "--time-is-index", "--estimator", "k"]
        assert run([*argv, "--r-grid", "0.05:0.1:2", "--out", tmp_path / "range"]) == 0
        assert run([*argv, "--r-grid", "0.05,0.1", "--out", tmp_path / "list"]) == 0
        range_bytes = (tmp_path / "range" / "curves.csv").read_bytes()
        assert range_bytes == (tmp_path / "list" / "curves.csv").read_bytes()

    @pytest.mark.parametrize("estimator", ["pair-correlation", "k", "mark-k"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--r-grid", "nan"),
            ("--r-grid", "0.05:nan:2"),
            ("--r-grid", "0.05:inf:3"),
            ("--r-grid", "0.05:inf:1"),
            ("--t-grid", "nan"),
            ("--t-grid", "inf"),
            ("--t-grid", "1:nan:2"),
        ],
    )
    def test_non_finite_grid_reports_json(self, tmp_path, capsys, estimator, flag, value):
        events = simulate_events(tmp_path, "sim", marks="normal:2,0.5", T=5)
        capsys.readouterr()
        out = tmp_path / "cl"
        assert run_without_warnings(
            ["classical", events, "--time-is-index", "--estimator", estimator,
             "--component", "1", f"{flag}={value}", "--out", out]
        ) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "validation",
            "message": f"{flag[2]} grid entries must be finite",
        }
        assert not (out / "curves.csv").exists()

    def test_pair_correlation_refuses_a_lag_no_integer_lag_supports(self, tmp_path, capsys):
        # T=2: t=1 leaves no eroded step, and the ring kernel of t=2 reaches
        # no lag in 0..1, so no default lag fits and t=2 is reported
        events = simulate_events(tmp_path, "sim", rates="40,50", T=2)
        capsys.readouterr()
        out = tmp_path / "cl"
        assert run(
            ["classical", events, "--time-is-index", "--estimator", "pair-correlation",
             "--component", "2", "--out", out]
        ) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "domain"
        assert re.match(
            r"time lag t=2 has no integer lag in 0\.\.1 within the temporal "
            r"bandwidth delta=0\.\d+;",
            report["message"],
        )
        assert not (out / "curves.csv").exists()

    def test_default_t_grid_keeps_both_lags_on_long_patterns(self, tmp_path):
        events = simulate_events(tmp_path, "sim", T=5)
        out = tmp_path / "cl"
        assert run(["classical", events, "--time-is-index", "--estimator", "k",
                    "--r-grid", "0.1", "--out", out]) == 0
        assert [r.split(",")[1] for r in data_rows(out / "curves.csv")[1:]] == ["1", "2"]


class TestPipeline:
    SPEC = json.dumps(
        {"kind": "homogeneous_poisson", "rates": [40, 40, 40], "T": 2, "seed": 3}
    )

    def test_byte_identical_runs(self, tmp_path):
        names = [
            "events.csv",
            "truth.json",
            "spectra.csv",
            "partial.csv",
            "graph.dot",
            "graph.json",
            "run.json",
        ]
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert run(
                ["pipeline", "--simulate", self.SPEC, "--xi", "0.8", "--out", out,
                 *GRID_ARGS]
            ) == 0
            outs.append(read_all(out, names))
        assert outs[0] == outs[1]
        run_doc = json.loads(outs[0]["run.json"].decode())
        assert run_doc["tool"] == "stspectra pipeline"
        assert run_doc["config_hash"]
        assert run_doc["d"] == 3

    def test_csv_input_route(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        out = tmp_path / "pipe"
        assert run(
            ["pipeline", events, "--time-is-index", "--xi", "0.9", "--lags", "--out", out, *GRID_ARGS]
        ) == 0
        assert (out / "lags.csv").exists()
        assert (out / "graph.json").exists()

    def test_readme_run_identical_at_one_and_two_blas_threads(self, tmp_path):
        # the README case, calibrated, with slices and lags: every artifact
        # must have the same bytes whatever the BLAS thread count
        # paths are relative to each child's own directory, since the
        # provenance quotes them
        script = (
            "from stspectra.cli import main\n"
            "assert main(['simulate', '--kind', 'linked_cluster', '--rates',\n"
            "    '75,75,300', '--T', '4', '--link', '1,2,225,0.005', '--seed', '7',\n"
            "    '--out', 'sim']) == 0\n"
            "assert main(['pipeline', 'sim/events.csv', '--time-is-index',\n"
            "    '--half-widths', '2,2,1', '--xi', 'null:q95', '--replicates', '20',\n"
            "    '--per-slice', '--lags', '--out', 'run']) == 0\n"
        )
        src = str(Path(stspectra.__file__).resolve().parents[1])
        snapshots = []
        for blas_threads in ("1", "2"):
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
            snapshots.append(
                {
                    str(f.relative_to(out)): f.read_bytes()
                    for f in sorted(out.rglob("*"))
                    if f.is_file()
                }
            )
        assert {"run/lags.csv", "run/run.json", "run/spectra.csv"} <= set(snapshots[0])
        assert set(snapshots[0]) == set(snapshots[1])
        moved = [name for name in snapshots[0] if snapshots[0][name] != snapshots[1][name]]
        assert moved == []

    @pytest.mark.parametrize("xi", ["0.5", "null:q95"])
    def test_refused_lags_stop_before_any_work(self, tmp_path, capsys, monkeypatch, xi):
        # a q range not symmetric about 0 has no lag transform: the run must
        # stop before it calibrates or writes anything
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before refusing --lags")

        monkeypatch.setattr("stspectra.cli.calibrate_null_threshold", no_calibration)
        events = simulate_events(tmp_path, "sim", T=4)
        out = tmp_path / "pipe"
        assert run(
            ["pipeline", events, "--time-is-index", "--p-max", "0", "--q-min", "-1",
             "--q-max", "2", "--half-widths", "0,1,0", "--xi", xi, "--lags",
             "--out", out]
        ) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        report = json.loads(err[0])
        assert report["error"] == "symmetry"
        assert "symmetric about 0" in report["message"]
        assert not out.exists()

    def test_input_and_simulate_conflict(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        assert run(
            ["pipeline", events, "--time-is-index", "--simulate", self.SPEC, "--xi", "0.5",
             "--out", tmp_path / "x"]
        ) == 1
        assert "not both" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("{bad", "not JSON"),
            ("{}", "'kind'"),
            ('{"kind": "homogeneous_poisson", "rates": [40, 40], "T": "x"}', "unreadable"),
            ("5", "JSON object"),
            ('{"kind": "homogeneous_poisson", "rates": [40, 40], "T": 0}', "T must be >= 1"),
            (
                '{"kind": "linked_cluster", "rates": [40, 40], "T": 2, "link_pairs":'
                ' [{"i": 1, "j": 2, "offspring_rate": -5.0, "dispersion": 0.01}]}',
                "offspring rate must be >= 0",
            ),
            (
                '{"kind": "homogeneous_poisson", "rates": [40, 40], "T": 2,'
                ' "mark_dist": "normal:0,-1"}',
                "mark sigma must be >= 0",
            ),
        ],
        ids=["not-json", "no-kind", "bad-value", "not-object", "no-steps",
             "negative-offspring-rate", "negative-mark-sigma"],
    )
    def test_bad_simulate_spec_reports_json(self, tmp_path, capsys, spec, named):
        if not spec.startswith("{"):
            (tmp_path / "spec.json").write_text(spec)
            spec = tmp_path / "spec.json"
        assert run(
            ["pipeline", "--simulate", spec, "--xi", "0.5", "--out", tmp_path / "x"]
        ) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert named in report["message"]

    @pytest.mark.parametrize(
        "key, value", [("T", 2.9), ("seed", True), ("T", "2")],
        ids=["float", "bool", "numeric-string"],
    )
    def test_non_integer_simulate_entry_reports_json(self, tmp_path, capsys, key, value):
        doc = dict(json.loads(self.SPEC), **{key: value})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run(
            ["pipeline", "--simulate", spec, "--xi", "0.5", "--out", tmp_path / "x"]
        ) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "validation"
        assert f"'{key}' must be an integer" in report["message"]
        assert not (tmp_path / "x" / "events.csv").exists()

    def test_undecodable_simulate_file_reports_json(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"kind": "\xff\xfe"}')
        assert run(
            ["pipeline", "--simulate", spec, "--xi", "0.5", "--out", tmp_path / "x"]
        ) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "validation"
        assert str(spec) in report["message"]
        assert "invalid start byte" in report["message"]

    def test_simulate_accepts_a_truth_sidecar(self, tmp_path):
        events = simulate_events(tmp_path, "sim", rates="40,40,40", T=2, seed=3)
        out = tmp_path / "pipe"
        assert run(
            ["pipeline", "--simulate", tmp_path / "sim" / "truth.json", "--xi", "0.5",
             "--out", out, *GRID_ARGS]
        ) == 0
        assert (out / "events.csv").read_bytes() == events.read_bytes()

    def test_input_required(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["pipeline", "--xi", "0.7", "--out", out]) == 1
        assert one_report(capsys) == {
            "error": "validation",
            "message": "an input CSV is required",
        }
        assert not out.exists()

    def test_xi_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["pipeline", "--simulate", self.SPEC, "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert "--xi is required" in capsys.readouterr().err



def one_report(capsys):
    """The single JSON line a refused run printed to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def no_calibration(*args, **kwargs):
    raise AssertionError("calibrated before refusing")


class TestRefusalsWriteNothing:
    @pytest.mark.parametrize("hw", ["-1,1,1", "-2,-2,0"])
    @pytest.mark.parametrize(
        "sub, extra",
        [
            ("partial", []),
            ("graph", ["--xi", "null:q95", "--replicates", "2"]),
            ("invert", []),
            ("pipeline", ["--xi", "0.5"]),
        ],
        ids=["partial", "graph-null", "invert", "pipeline"],
    )
    def test_negative_half_widths(self, tmp_path, capsys, monkeypatch, sub, extra, hw):
        # -1,1,1 counts a box of -9 ordinates and -2,-2,0 one of 9: both get
        # the sign rule, before any calibration or artifact
        monkeypatch.setattr("stspectra.cli.calibrate_null_threshold", no_calibration)
        events = simulate_events(tmp_path, "sim")
        capsys.readouterr()
        out = tmp_path / "x"
        argv = [sub, events, "--time-is-index", f"--half-widths={hw}", *extra]
        assert run_without_warnings([*argv, "--out", out, *GRID_ARGS]) == 1
        assert one_report(capsys) == {
            "error": "validation",
            "message": "half-widths must be >= 0",
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "sub, xi", [("graph", "null:q95"), ("pipeline", "0.5")], ids=["graph", "pipeline"]
    )
    def test_small_slice_box(self, tmp_path, capsys, monkeypatch, sub, xi):
        # the full-data box 1x1x3 holds d=3 ordinates; a T=1 slice keeps 1x1
        monkeypatch.setattr("stspectra.cli.calibrate_null_threshold", no_calibration)
        events = simulate_events(tmp_path, "sim")
        capsys.readouterr()
        out = tmp_path / "x"
        assert run_without_warnings(
            [sub, events, "--time-is-index", "--half-widths", "0,0,1", "--per-slice",
             "--xi", xi, "--replicates", "2", "--out", out, *GRID_ARGS]
        ) == 1
        assert one_report(capsys) == {
            "error": "validation",
            "message": "slice graphs (T=1 slices, spatial half-widths 0,0): smoothing "
            "neighbourhood 1 < d=3: smoothed matrices cannot reach full rank; "
            "enlarge the half-widths",
        }
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["graph", "pipeline"])
    def test_u_range_beyond_T(self, tmp_path, capsys, sub):
        events = simulate_events(tmp_path, "sim", T=4)
        capsys.readouterr()
        out = tmp_path / "x"
        assert run_without_warnings(
            [sub, events, "--time-is-index", "--u-min", "-1", "--u-max", "4",
             "--xi", "0.5", "--out", out, *GRID_ARGS]
        ) == 1
        assert one_report(capsys) == {
            "error": "validation",
            "message": "u range -1..4 holds 6 temporal ordinates, more than T=4; "
            "u is periodic modulo T",
        }
        assert not out.exists()

    def test_dc_only_grid(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        capsys.readouterr()
        out = tmp_path / "x"
        assert run_without_warnings(
            ["pipeline", events, "--time-is-index", "--p-max", "0", "--q-min", "0",
             "--q-max", "0", "--u-min", "0", "--u-max", "0", "--half-widths", "1,1,1",
             "--xi", "0.5", "--out", out]
        ) == 1
        assert one_report(capsys) == {
            "error": "validation",
            "message": "no frequency ordinates left after DC exclusion",
        }
        assert not out.exists()

    def test_constant_marks(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        lines = events.read_text().splitlines()
        marked = tmp_path / "constant.csv"
        marked.write_text(
            "\n".join([lines[0] + ",mark"] + [l + ",2.5" for l in lines[1:]]) + "\n"
        )
        capsys.readouterr()
        out = tmp_path / "x"
        assert run_without_warnings(
            ["pipeline", marked, "--time-is-index", "--marked", "--xi", "0.5",
             "--out", out, *GRID_ARGS]
        ) == 1
        assert one_report(capsys)["error"] == "degenerate"
        assert not out.exists()


class TestConfigMerge:
    def test_config_supplies_required_flag(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# graph settings\nxi = 0.95\nformat = json\n")
        out = tmp_path / "gc"
        assert run(
            ["graph", events, "--time-is-index", "--config", cfg, "--out", out, *GRID_ARGS]
        ) == 0
        g = graph_from_json((out / "graph.json").read_text())
        assert g.xi == 0.95

    def test_explicit_flag_wins(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 0.95\n")
        out = tmp_path / "gf"
        assert run(
            ["graph", events, "--time-is-index", "--config", cfg, "--xi", "0.5", "--format", "json",
             "--out", out, *GRID_ARGS]
        ) == 0
        g = graph_from_json((out / "graph.json").read_text())
        assert g.xi == 0.5

    def test_explicit_flag_wins_at_its_default(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p-max = 4\nnormalisation = none\ntime-is-index = true\n")
        out = tmp_path / "pd"
        # --p-max 16 and --normalisation sqrt_counts are the parser defaults
        assert run(
            ["partial", events, "--p-max", "16", "--normalisation", "sqrt_counts",
             "--config", cfg, "--out", out]
        ) == 0
        comments = [
            l for l in (out / "partial.csv").read_text().splitlines() if l.startswith("#")
        ]
        assert any(l.startswith("# grid=p:0..16,") for l in comments)
        assert "# normalisation=sqrt_counts" in comments

    def test_link_key_gives_one_link_and_flags_replace_it(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("kind = linked_cluster\nrates = 40,40,40\nT = 3\nlink = 1,2,5,0.01\n")

        def links(name, *flags):
            out = tmp_path / name
            assert run(["simulate", "--config", cfg, *flags, "--out", out]) == 0
            truth = json.loads((out / "truth.json").read_text())
            return truth["spec"]["link_pairs"], truth["true_edges"]

        assert links("cfg") == (
            [{"i": 1, "j": 2, "offspring_rate": 5.0, "dispersion": 0.01}], [[1, 2]]
        )
        pairs, edges = links("flag", "--link", "2,3,6,0.02")
        assert [(p["i"], p["j"]) for p in pairs] == [(2, 3)]
        assert edges == [[2, 3]]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        # include_dc was a setting once; DC now never enters the sup; the
        # help action holds no setting
        for line, key in (
            ("xii = 0.95", "xii"),
            ("xi = 0.95\ninclude_dc = true", "include_dc"),
            ("xi = 0.95\nhelp = true", "help"),
        ):
            cfg.write_text(line + "\n")
            assert run(
                ["graph", events, "--time-is-index", "--config", cfg, "--out", tmp_path / "x",
                 *GRID_ARGS]
            ) == 1
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "validation"
            assert report["message"] == f"unknown config key {key!r}"

    def test_undecodable_config_reports_json(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"xi = 0.95\nformat = \xff\xfe\n")
        assert run(
            ["graph", events, "--time-is-index", "--config", cfg, "--out", tmp_path / "x",
             *GRID_ARGS]
        ) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "validation"
        assert str(cfg) in report["message"]
        assert "invalid start byte" in report["message"]

    def test_unreadable_value_rejected(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r-grid = abc\n")
        assert run(
            ["classical", events, "--time-is-index", "--estimator", "k", "--config", cfg,
             "--out", tmp_path / "x"]
        ) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "validation"
        assert "'r_grid'" in report["message"]

    def test_boolean_keys(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("marked = no\n")
        argv = ["spectra", events, "--time-is-index", "--no-polar", *GRID_ARGS]
        assert run([*argv, "--config", cfg, "--out", tmp_path / "cfg"]) == 0
        assert run([*argv, "--out", tmp_path / "flags"]) == 0
        spectra = (tmp_path / "cfg" / "spectra.csv").read_bytes()
        assert spectra == (tmp_path / "flags" / "spectra.csv").read_bytes()
        capsys.readouterr()
        cfg.write_text("marked = maybe\n")
        assert run([*argv, "--config", cfg, "--out", tmp_path / "bad"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation",
            "message": "config key 'marked' expects a boolean",
        }

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nmarked\n")
        capsys.readouterr()
        assert run(
            ["spectra", events, "--time-is-index", "--config", cfg, "--out", tmp_path / "x"]
        ) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation",
            "message": "config line without '=': 'marked'",
        }

    def test_threads_do_not_touch_config_hash(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        hashes = []
        for name, threads in (("h1", "1"), ("h2", "4")):
            out = tmp_path / name
            assert run(
                ["spectra", events, "--time-is-index", "--threads", threads, "--out", out, *GRID_ARGS]
            ) == 0
            line = next(
                l
                for l in (out / "spectra.csv").read_text().splitlines()
                if l.startswith("# config_hash=")
            )
            hashes.append(line)
        assert hashes[0] == hashes[1]


# (subcommand, flag, malformed value, the parser's message)
MALFORMED_VALUES = [
    ("ingest", "col", "x", "bad column mapping 'x'"),
    ("ingest", "window", "0,1,0", "window needs x_min,x_max,y_min,y_max"),
    ("spectra", "half-widths", "1,1", "need three comma-separated integers"),
    ("invert", "pair", "1", "need i,j"),
    ("simulate", "link", "1,2,5", "link needs i,j,offspring_rate,dispersion"),
    ("ingest", "window", "a,b,c,d", "window needs x_min,x_max,y_min,y_max"),
    ("spectra", "half-widths", "a,b,c", "need three comma-separated integers"),
    ("invert", "pair", "a,b", "need i,j"),
    ("simulate", "link", "a,2,3,4", "link needs i,j,offspring_rate,dispersion"),
    ("simulate", "rates", "a,b", "need comma-separated numbers or start:stop:count"),
    ("classical", "r-grid", "0:0.1:x", "need comma-separated numbers or start:stop:count"),
]


class TestMalformedValues:
    @staticmethod
    def argv(sub, *extra):
        return [sub, *(() if sub == "simulate" else ("x.csv",)), *extra]

    @pytest.mark.parametrize("sub, flag, value, message", MALFORMED_VALUES)
    def test_flag_is_a_usage_error(self, capsys, sub, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            run(self.argv(sub, f"--{flag}", value))
        assert exc.value.code == 2
        assert f"error: argument --{flag}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, flag, value, message", MALFORMED_VALUES)
    def test_config_key_cannot_be_read(self, tmp_path, capsys, sub, flag, value, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        out = tmp_path / "x"
        assert run(self.argv(sub, "--config", cfg, "--out", out)) == 1
        assert one_report(capsys) == {
            "error": "validation",
            "message": f"config key {flag.replace('-', '_')!r}: cannot read {value!r}",
        }
        assert not out.exists()


class TestOneParse:
    def test_config_run_builds_the_parser_once(self, tmp_path, monkeypatch):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 0.5\n")
        calls = []

        def counted():
            calls.append(None)
            return build_parser()

        monkeypatch.setattr("stspectra.cli.build_parser", counted)
        assert run(
            ["graph", events, "--time-is-index", "--config", cfg, "--out", tmp_path / "g",
             *GRID_ARGS]
        ) == 0
        assert len(calls) == 1

    def test_boolean_optional_key_and_its_flag(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("polar = false\n")
        argv = ["spectra", events, "--time-is-index", "--config", cfg, *GRID_ARGS]
        assert run([*argv, "--out", tmp_path / "cfg"]) == 0
        assert not (tmp_path / "cfg" / "polar.csv").exists()
        assert run([*argv, "--polar", "--out", tmp_path / "flag"]) == 0
        assert (tmp_path / "flag" / "polar.csv").exists()

    def test_config_supplies_the_optional_pipeline_input(self, tmp_path):
        events = simulate_events(tmp_path, "sim")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {events}\ntime-is-index = true\nxi = 0.5\n")
        assert run(["pipeline", "--config", cfg, "--out", tmp_path / "cfg", *GRID_ARGS]) == 0
        assert run(
            ["pipeline", events, "--time-is-index", "--xi", "0.5", "--out", tmp_path / "flags",
             *GRID_ARGS]
        ) == 0
        names = ["events.csv", "spectra.csv", "partial.csv", "graph.dot", "graph.json",
                 "run.json"]
        assert read_all(tmp_path / "cfg", names) == read_all(tmp_path / "flags", names)


class TestNegativeSeeds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--rates", "5,5", "--seed", "-1"],
            ["pipeline", "--simulate", '{"kind": "homogeneous_poisson", "rates": [40, 40, 40], '
             '"T": 2, "seed": -1}', "--xi", "0.5"],
            ["pipeline", "--simulate", '{"kind": "homogeneous_poisson", "rates": [40, 40, 40], '
             '"T": 2}', "--xi", "null:q95", "--replicates", "2", "--calibration-seed", "-5"],
            ["graph", "{events}", "--time-is-index", "--xi", "null:q95", "--replicates", "2",
             "--calibration-seed", "-5", *GRID_ARGS],
        ],
        ids=["simulate", "simulate-document", "pipeline-calibration", "graph-calibration"],
    )
    def test_negative_seed_reports_json(self, tmp_path, capsys, argv):
        if "{events}" in argv:
            events = simulate_events(tmp_path, "sim")
            capsys.readouterr()
            argv = [events if a == "{events}" else a for a in argv]
        assert run([*argv, "--out", tmp_path / "x"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "validation"
        assert report["message"] == "seed must be >= 0"


COMMON_DESTS = {"config", "threads", "out"}
PATTERN_DESTS = {"input", "col", "time_is_index", "bin_width", "bin_origin", "window"}
GRID_DESTS = {"p_max", "q_min", "q_max", "u_min", "u_max", "half_widths", "normalisation",
              "marked"}
CALIBRATION_DESTS = {"xi", "per_slice", "replicates", "calibration_seed"}


class TestParserSurface:
    def test_flag_destinations(self):
        # every settable value of every subcommand; adding or removing one
        # changes this table
        expected = {
            "ingest": COMMON_DESTS | PATTERN_DESTS,
            "simulate": COMMON_DESTS | {"kind", "rates", "T", "link", "seed", "mark_dist"},
            "classical": COMMON_DESTS | PATTERN_DESTS | {
                "estimator", "component", "C", "D", "r_grid", "t_grid", "eps", "delta",
                "cells", "homogeneous"},
            "spectra": COMMON_DESTS | PATTERN_DESTS | GRID_DESTS | {"polar"},
            "partial": COMMON_DESTS | PATTERN_DESTS | GRID_DESTS,
            "graph": COMMON_DESTS | PATTERN_DESTS | GRID_DESTS | CALIBRATION_DESTS | {"format"},
            "invert": COMMON_DESTS | PATTERN_DESTS | GRID_DESTS | {"pair", "scaled"},
            "pipeline": COMMON_DESTS | PATTERN_DESTS | GRID_DESTS | CALIBRATION_DESTS | {
                "simulate_spec", "lags"},
        }
        _, registry = build_parser()
        assert {
            name: {a.dest for a in sub._actions if a.dest != "help"}
            for name, sub in registry.items()
        } == expected


class TestUsageErrors:
    @pytest.mark.parametrize("sub", ["spectra", "partial", "graph", "invert", "pipeline"])
    def test_include_dc_flag_is_gone(self, sub, capsys):
        # dropping the flag silently would change the statistic such a
        # command line asked for, so it stops with a usage error
        with pytest.raises(SystemExit) as exc:
            run([sub, "x.csv", "--include-dc"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --include-dc\n" in capsys.readouterr().err

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectra", "x.csv", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["transmogrify"])
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

