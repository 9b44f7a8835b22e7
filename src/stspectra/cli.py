"""Command line interface.

Subcommands: ingest, simulate, classical, spectra, partial, graph,
invert, pipeline.  A plain-text key=value config file can supply any
flag (explicit flags win).  Every artifact embeds the hash of the
resolved configuration plus grid, normalisation, and smoothing
metadata, and repeated runs with the same configuration and seed are
byte-identical.  Exit codes: 0 success, 1 runtime error (machine-
readable JSON report on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (
    _component_number,
    estimate_intensity,
    estimate_k,
    estimate_pair_correlation,
    estimate_spatial_intensity,
    estimate_temporal_intensity,
    mark_weighted_k,
)
from .errors import StspectraError, ValidationError
from .graph import (
    _check_xi,
    _fmt,
    build_dependence_graph,
    calibrate_null_threshold,
    graph_to_dot,
    graph_to_json,
    partial_pipeline,
    per_slice_graphs,
    spectral_fields,
)
from .ingest import (
    MultiPattern,
    _csv_fields,
    _write_table,
    export_events,
    load_events,
    rescale_to_unit_square,
)
from .inverse import (
    _require_mirror,
    partial_cross_lags,
    partial_lag_characteristics,
    scaled_covariance,
)
from .partial import _require_full_rank_box, partial_field
from .simulate import SimSpec, simulate, write_sidecar
from .spectra import AnalysisSpec, FrequencyGrid, r_spectrum, theta_spectrum

# stage names bench/tracing.py looks up in this module; the subcommands reach
# these stages through stspectra.graph and stspectra.inverse
from .inverse import inverse_transform  # noqa: F401
from .partial import partial_cross_spectrum_direct  # noqa: F401
from .spectra import dft, marked_dft, periodogram_matrix, smooth_spectra  # noqa: F401

CALIBRATION_SEED_OFFSET = 7654321


# ---------------------------------------------------------------------------
# argument parsing


def _parse_colmap(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"bad column mapping {part!r}")
        role, name = part.split("=", 1)
        out[role.strip()] = name.strip()
    return out


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window needs x_min,x_max,y_min,y_max")
    return tuple(parts)


def _parse_float_list(text: str) -> tuple[float, ...]:
    if ":" in text:
        a, b, n = text.split(":")
        ends, count = (float(a), float(b)), int(n)
        if not np.isfinite(ends).all():  # left to the list's own finite rule
            return ends
        return tuple(np.linspace(*ends, count).tolist())
    return tuple(float(v) for v in text.split(","))


def _parse_int_triple(text: str) -> tuple[int, int, int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("need three comma-separated integers")
    return tuple(parts)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("need i,j")
    return tuple(parts)


def _parse_link(text: str) -> tuple[int, int, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("link needs i,j,offspring_rate,dispersion")
    return (int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]))


def _parse_label_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file (flags win)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        # kept so that existing command lines which pass it still parse
        help="accepted and ignored",
    )
    parser.add_argument("--out", default=".", help="output directory")


def _add_pattern_input(parser: argparse.ArgumentParser, optional: bool = False) -> None:
    parser.add_argument(
        "input", nargs="?" if optional else None, help="events CSV file"
    )
    parser.add_argument(
        "--col",
        type=_parse_colmap,
        default=None,
        metavar="x=lon,y=lat,...",
        help="column remapping",
    )
    parser.add_argument(
        "--time-is-index",
        action="store_true",
        help="time column holds pre-binned integer steps",
    )
    parser.add_argument("--bin-width", default=None, help="e.g. 1d, 6h, 2w")
    parser.add_argument("--bin-origin", default=None, help="ISO-8601 origin")
    parser.add_argument(
        "--window",
        type=_parse_window,
        default=None,
        metavar="XMIN,XMAX,YMIN,YMAX",
        help="spatial window (default: data bounding box)",
    )


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-max", type=int, default=16)
    parser.add_argument("--q-min", type=int, default=None)
    parser.add_argument("--q-max", type=int, default=None)
    parser.add_argument("--u-min", type=int, default=None)
    parser.add_argument("--u-max", type=int, default=None)
    parser.add_argument(
        "--half-widths",
        type=_parse_int_triple,
        default=None,
        metavar="HP,HQ,HU",
        help="smoothing half-widths (default 1,1,0 for T<=4 else 1,1,1)",
    )
    parser.add_argument(
        "--normalisation", choices=["sqrt_counts", "none"], default="sqrt_counts"
    )
    parser.add_argument(
        "--marked",
        action="store_true",
        help="use mark-weighted transforms (needs a mark column)",
    )


def _add_threshold(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--xi", help="threshold value, or null:q95 for count-matched calibration")
    parser.add_argument("--per-slice", action="store_true", help="also graph each time step")
    parser.add_argument("--replicates", type=int, default=200, help="null replicates")
    parser.add_argument("--calibration-seed", type=int, default=CALIBRATION_SEED_OFFSET,
                        help="base seed for null replicates")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="stspectra",
        description="Frequency-domain dependence analysis of multitype "
        "spatio-temporal point patterns.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("ingest", help="validate, bin, rescale, and re-export events")
    _add_common(p)
    _add_pattern_input(p)
    registry["ingest"] = p

    p = subs.add_parser("simulate", help="generate patterns with known structure")
    _add_common(p)
    p.add_argument(
        "--kind",
        choices=["homogeneous_poisson", "linked_cluster"],
        default="homogeneous_poisson",
    )
    p.add_argument("--rates", type=_parse_float_list, metavar="R1,R2,...")
    p.add_argument("--T", type=int, default=4, dest="T")
    p.add_argument(
        "--link",
        type=_parse_link,
        action="append",
        default=None,
        metavar="I,J,RATE,DISP",
        help="linked-cluster pair (repeatable)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mark-dist", default=None, metavar="normal:MU,SIGMA")
    registry["simulate"] = p

    p = subs.add_parser("classical", help="kernel intensity and second-order curves")
    _add_common(p)
    _add_pattern_input(p)
    p.add_argument(
        "--estimator",
        choices=["pair-correlation", "k", "mark-k", "intensity"],
        default="pair-correlation",
    )
    p.add_argument("--component", default=None, help="restrict to one component")
    p.add_argument("--C", type=_parse_label_list, default=None, help="first type set")
    p.add_argument("--D", type=_parse_label_list, default=None, help="second type set")
    p.add_argument(
        "--r-grid", type=_parse_float_list, default=(0.02, 0.04, 0.06, 0.08, 0.1)
    )
    p.add_argument("--t-grid", type=_parse_float_list, default=None,
                   help="time lags (default: the estimator's, those of 1,2 that "
                   "T leaves room for)")
    p.add_argument("--eps", type=float, default=None, help="spatial bandwidth")
    p.add_argument("--delta", type=float, default=None, help="temporal bandwidth")
    p.add_argument("--cells", type=int, default=64)
    p.add_argument(
        "--homogeneous",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="constant plug-in intensity (default); --no-homogeneous uses "
        "the separable kernel estimate",
    )
    registry["classical"] = p

    p = subs.add_parser("spectra", help="transforms, periodogram matrix, smoothing")
    _add_common(p)
    _add_pattern_input(p)
    _add_grid(p)
    p.add_argument(
        "--polar",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also write radial and angular spectra",
    )
    registry["spectra"] = p

    p = subs.add_parser("partial", help="inverse spectral matrices and |d_ij|")
    _add_common(p)
    _add_pattern_input(p)
    _add_grid(p)
    registry["partial"] = p

    p = subs.add_parser("graph", help="dependence graph at a threshold")
    _add_common(p)
    _add_pattern_input(p)
    _add_grid(p)
    _add_threshold(p)
    p.add_argument("--format", choices=["dot", "json", "both"], default="dot")
    registry["graph"] = p

    p = subs.add_parser("invert", help="lag-domain partial characteristics")
    _add_common(p)
    _add_pattern_input(p)
    _add_grid(p)
    p.add_argument(
        "--pair",
        type=_parse_pair,
        default=None,
        metavar="I,J",
        help="one pair with its conditioned autos (default: crosses of all pairs)",
    )
    p.add_argument(
        "--scaled",
        action="store_true",
        help="divide by sqrt(lambda_i * lambda_j) (homogeneous plug-in)",
    )
    registry["invert"] = p

    p = subs.add_parser("pipeline", help="full chain: events to graph artifacts")
    _add_common(p)
    _add_pattern_input(p, optional=True)
    _add_grid(p)
    p.add_argument(
        "--simulate",
        dest="simulate_spec",
        default=None,
        metavar="JSON",
        help="simulation spec (JSON file or inline) instead of an input CSV",
    )
    _add_threshold(p)
    p.add_argument("--lags", action="store_true", help="also write lag-domain CSV")
    registry["pipeline"] = p

    return parser, registry


# ---------------------------------------------------------------------------
# config file merge


def _read_text(path: str) -> str:
    """The text of a file the command line names; undecodable bytes are a
    ValidationError naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text ({exc.reason})") from None


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _coerce(action: argparse.Action, text: str):
    if action.nargs == 0 or isinstance(action, argparse.BooleanOptionalAction):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"config key {action.dest!r} expects a boolean")
    ty = action.type or str
    try:
        value = ty(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValidationError(f"config key {action.dest!r}: cannot read {text!r}") from None
    # the key of a repeatable flag gives one item
    return [value] if isinstance(action, argparse._AppendAction) else value


def _given_dests(argv: list[str] | None) -> set[str]:
    """The destinations of the arguments given on the command line, found by
    parsing it again with no defaults."""
    parser, registry = build_parser()
    for sub in registry.values():
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _merge_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str] | None
) -> None:
    """Fill the options not given on the command line from the key=value
    config file; a given flag wins even where it equals the default."""
    if not getattr(args, "config", None):
        return
    cfg = _read_config(args.config)
    given = _given_dests(argv)
    for key, text in cfg.items():
        dest = key.replace("-", "_")
        action = next((a for a in parser._actions if a.dest == dest), None)
        if action is None:
            raise ValidationError(f"unknown config key {key!r}")
        if dest not in given:
            setattr(args, dest, _coerce(action, text))


# ---------------------------------------------------------------------------
# shared plumbing


def _load_pattern(args) -> tuple[MultiPattern, object]:
    if not getattr(args, "input", None):
        raise ValidationError("an input CSV is required")
    pattern, report = load_events(
        args.input,
        columns=args.col,
        time_is_index=args.time_is_index,
        bin_width=args.bin_width,
        bin_origin=_parse_origin(args.bin_origin),
        window=args.window,
    )
    return rescale_to_unit_square(pattern), report


def _parse_origin(text):
    if text is None:
        return None
    from datetime import datetime

    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ValidationError(f"bin origin {text!r} is not ISO-8601")


def _analysis_spec(args, T: int) -> AnalysisSpec:
    """The spec of the grid flags; unset flags take the defaults for T."""
    default = AnalysisSpec.default(T)
    g = default.grid

    def pick(value, fallback):
        return fallback if value is None else value

    return AnalysisSpec(
        grid=FrequencyGrid(
            p_max=args.p_max,
            q_min=pick(args.q_min, g.q_min),
            q_max=pick(args.q_max, g.q_max),
            u_min=pick(args.u_min, g.u_min),
            u_max=pick(args.u_max, g.u_max),
        ),
        half_widths=pick(args.half_widths, default.half_widths),
        normalisation=args.normalisation,
        marked=args.marked,
    )


def _require_partial_dims(pattern: MultiPattern) -> None:
    if pattern.d < 3:
        raise ValidationError(
            f"partial analysis needs at least 3 components (got d={pattern.d}): "
            "conditioning on the remaining components is undefined otherwise"
        )


def _config_dict(args, extra: dict | None = None) -> dict:
    # the ignored --threads flag must not perturb the recorded configuration
    # or its hash
    skip = {"config", "out", "subcommand", "threads"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    if extra:
        out.update(extra)
    return out


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _provenance_comments(
    subcommand: str, cfg: dict, spec: AnalysisSpec | None = None
) -> list[str]:
    lines = [
        f"# artifact=stspectra-{subcommand}",
        f"# config_hash={_config_hash(cfg)}",
    ]
    if spec is not None:
        g = spec.grid.describe()
        hw = spec.half_widths
        lines += [
            f"# grid=p:{g['p'][0]}..{g['p'][1]},"
            f"q:{g['q'][0]}..{g['q'][1]},u:{g['u'][0]}..{g['u'][1]}",
            f"# normalisation={spec.normalisation}",
            f"# smoothing={hw[0]},{hw[1]},{hw[2]}",
        ]
    return lines


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    pattern, report = _load_pattern(args)
    export_events(pattern, out / "events.csv")
    counts = pattern.counts
    w = pattern.window
    src_area = w.source_area
    doc = {
        "n_rows": report.n_rows,
        "n_events": report.n_events,
        "duplicates_removed": report.duplicates_removed,
        "message": f"{report.duplicates_removed} duplicate"
        f"{'' if report.duplicates_removed == 1 else 's'} removed",
        "d": pattern.d,
        "T": pattern.T,
        "labels": list(pattern.labels),
        "counts": {lab: int(c) for lab, c in zip(pattern.labels, counts)},
        "time_mode": report.time_mode,
        "window_source": list(w.source_extent or (0.0, 1.0, 0.0, 1.0)),
        "intensity_unit_square": {
            lab: float(c / pattern.T) for lab, c in zip(pattern.labels, counts)
        },
        "intensity_source_units": {
            lab: float(c / (src_area * pattern.T))
            for lab, c in zip(pattern.labels, counts)
        },
        "provenance": {"config_hash": _config_hash(_config_dict(args))},
    }
    (out / "ingest_report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    print(f"loaded {pattern.n} events, d={pattern.d}, T={pattern.T}; "
          f"{report.duplicates_removed} duplicates removed")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    spec = SimSpec(
        kind=args.kind,
        rates=args.rates,
        T=args.T,
        link_pairs=tuple(args.link or ()),
        seed=args.seed,
        mark_dist=args.mark_dist,
    )
    result = simulate(spec)
    export_events(result.pattern, out / "events.csv")
    write_sidecar(result, out / "truth.json")
    edges = sorted(result.true_edges)
    print(f"simulated {result.pattern.n} events, d={spec.d}, T={spec.T}, "
          f"true edges: {edges if edges else 'none'}")
    return 0


def _component_source(pattern: MultiPattern, name: str | None):
    if name is None:
        return pattern.pooled(), ""
    idx = _component_number(pattern, name)
    return pattern.component(idx), pattern.labels[idx - 1]


def _separable_plugin(pattern: MultiPattern, args):
    """Per-type separable kernel intensities for the inhomogeneous plug-in."""
    per_type = {
        i: estimate_intensity(
            pattern.component(i), eps=args.eps, delta=args.delta, cells=args.cells
        )
        for i in range(1, pattern.d + 1)
    }

    def typed(x, y, t, type_id):
        out = np.empty(x.size)
        for i, est in per_type.items():
            sel = type_id == i
            if sel.any():
                out[sel] = est.at(x[sel], y[sel], t[sel])
        return out

    return typed


def cmd_classical(args) -> int:
    out = _out_dir(args)
    pattern, _ = _load_pattern(args)

    if args.estimator == "intensity":
        comments = _provenance_comments("classical", _config_dict(args))
        source, label = _component_source(pattern, args.component)
        surf = estimate_spatial_intensity(source, bandwidth=args.eps, cells=args.cells)
        xc, yc = surf.x_centers, surf.y_centers
        _write_table(
            out / "intensity_space.csv",
            comments + [f"# bandwidth={_fmt(surf.bandwidth)}", f"# mass={_fmt(surf.mass())}"],
            ["x", "y", "value"],
            [[np.repeat(xc, yc.size), np.tile(yc, xc.size), surf.values.ravel()]],
        )
        temp = estimate_temporal_intensity(source, bandwidth=args.delta)
        _write_table(
            out / "intensity_time.csv",
            comments + [f"# bandwidth={_fmt(temp.bandwidth)}"],
            ["t", "value"],
            [[temp.steps.astype(np.int64), temp.values]],
        )
        print(f"intensity mass {surf.mass():.6g} over {source.n} events"
              f"{' of ' + label if label else ''}")
        return 0

    if args.estimator == "pair-correlation":
        source, label = _component_source(pattern, args.component)
        intensity = None
        if not args.homogeneous:
            intensity = estimate_intensity(
                source, eps=args.eps, delta=args.delta, cells=args.cells
            )
        curve = estimate_pair_correlation(
            source,
            args.r_grid,
            args.t_grid,
            eps=args.eps,
            delta=args.delta,
            intensity=intensity,
        )
        cd = label
    elif args.estimator == "k":
        intensity = None
        if not args.homogeneous:
            intensity = _separable_plugin(pattern, args)
        curve = estimate_k(
            pattern,
            args.r_grid,
            args.t_grid,
            C=args.C,
            D=args.D,
            intensity=intensity,
        )
        cd = None
    else:  # mark-k
        source, label = _component_source(pattern, args.component)
        curve = mark_weighted_k(source, args.r_grid, args.t_grid)
        cd = label

    # without --t-grid the config records the lags the estimator chose
    extra = {} if args.t_grid else {"resolved_t_grid": curve.t_grid.tolist()}
    comments = _provenance_comments("classical", _config_dict(args, extra))

    if cd is None:
        c_str = "+".join(curve.meta.get("C", ()))
        d_str = "+".join(curve.meta.get("D", ()))
    else:
        c_str = d_str = cd
    r = np.asarray(curve.r_grid, dtype=float)
    t = np.asarray(curve.t_grid, dtype=float)
    values = np.asarray(curve.values, dtype=float).ravel()
    n_rows = _write_table(
        out / "curves.csv",
        comments,
        ["r", "t", "value", "kind", "C", "D"],
        [[np.repeat(r, t.size), np.tile(t, r.size), values, curve.kind,
          *_csv_fields((c_str, d_str))]],
    )
    print(f"wrote {n_rows} curve values ({curve.kind})")
    return 0


SPECTRA_HEADER = ["p", "q", "u", "i", "j", "re", "im", "kind"]
PARTIAL_HEADER = ["p", "q", "u", "i", "j", "re", "im", "abs_d", "ridge"]


def _grid_columns(grid) -> list[list[str]]:
    """The p, q and u label strings of every ordinate, in grid (C) order."""
    return [list(map(str, column.tolist())) for column in grid.points().T]


def _spectral_blocks(fields):
    """spectra.csv blocks: entries i <= j of each (field, kind) in turn; the
    fields share one grid."""
    pqu = _grid_columns(fields[0][0].grid)
    for field, kind in fields:
        for i in range(1, field.d + 1):
            for j in range(i, field.d + 1):
                v = field.values[..., i - 1, j - 1].ravel()
                yield pqu + [str(i), str(j), v.real, v.imag, kind]


def _polar_blocks(smoothed, grid):
    """polar.csv blocks: radial and angular spectra of each smoothed auto."""
    for i in range(1, smoothed.d + 1):
        auto = smoothed.entry(i, i).real
        for kind, pol in (
            ("radius", r_spectrum(auto, grid)),
            ("angle", theta_spectrum(auto, grid)),
        ):
            n_u = len(pol.u_values)
            yield [
                kind,
                str(i),
                np.repeat(np.asarray(pol.bins).astype(np.int64), n_u),
                np.tile(np.asarray(pol.u_values).astype(np.int64), len(pol.bins)),
                pol.values.ravel(),
                np.repeat(np.asarray(pol.counts).astype(np.int64), n_u),
            ]


def cmd_spectra(args) -> int:
    out = _out_dir(args)
    pattern, _ = _load_pattern(args)
    spec = _analysis_spec(args, pattern.T)
    cfg = _config_dict(args, {"resolved_half_widths": list(spec.half_widths)})
    comments = _provenance_comments("spectra", cfg, spec)

    # raw and smoothed rows are always unmarked; --marked adds marked rows
    raw, smoothed = spectral_fields(pattern, replace(spec, marked=False))
    fields = [(raw, "raw"), (smoothed, "smoothed")]
    if spec.marked:
        fields.append((spectral_fields(pattern, spec)[1], "marked"))
    n_rows = _write_table(
        out / "spectra.csv", comments, SPECTRA_HEADER, _spectral_blocks(fields)
    )

    if args.polar:
        _write_table(
            out / "polar.csv",
            comments,
            ["kind", "i", "bin", "u", "value", "count"],
            _polar_blocks(smoothed, spec.grid),
        )
    print(f"wrote {n_rows} spectral rows on grid {spec.grid.shape}")
    return 0


def _partial_blocks(pf):
    """partial.csv blocks: coherency, |d_ij| and ridge of each pair i < j."""
    pqu = _grid_columns(pf.grid)
    ridge = pf.ridge.ravel()
    d = len(pf.labels)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            coh = pf.coherency[..., i - 1, j - 1].ravel()
            mag = pf.abs_d[..., i - 1, j - 1].ravel()
            yield pqu + [str(i), str(j), coh.real, coh.imag, mag, ridge]


def cmd_partial(args) -> int:
    out = _out_dir(args)
    pattern, _ = _load_pattern(args)
    _require_partial_dims(pattern)
    spec = _analysis_spec(args, pattern.T)
    _require_full_rank_box(spec.half_widths, pattern.d)
    cfg = _config_dict(args, {"resolved_half_widths": list(spec.half_widths)})
    pf = partial_pipeline(pattern, spec)
    n_rows = _write_table(
        out / "partial.csv",
        _provenance_comments("partial", cfg, spec),
        PARTIAL_HEADER,
        _partial_blocks(pf),
    )
    n_ridge = int((pf.ridge > 0).sum())
    print(f"wrote {n_rows} partial rows; ridge applied at {n_ridge} ordinates")
    return 0


def _resolve_xi(args, pattern, spec):
    text = str(args.xi)
    if text.startswith("null:"):
        tag = text.split(":", 1)[1]
        if tag != "q95":
            raise ValidationError(f"unknown calibration spec {text!r}; use null:q95")
        cal = calibrate_null_threshold(
            pattern,
            spec,
            quantile=0.95,
            replicates=args.replicates,
            seed=args.calibration_seed,
        )
        return cal.xi, cal
    try:
        xi = float(text)
    except ValueError:
        raise ValidationError(f"threshold {text!r} is neither a number nor null:q95")
    return _check_xi(xi), None


def _graph_provenance(cfg, spec, xi, cal):
    prov = {
        "config_hash": _config_hash(cfg),
        "grid": spec.grid.describe(),
        "normalisation": spec.normalisation,
        "smoothing": list(spec.half_widths),
        "xi": xi,
    }
    if cal is not None:
        prov["calibration"] = {
            "quantile": cal.quantile,
            "replicates": cal.replicates,
            "seed": cal.seed,
        }
    return prov


def _emit_graph(out, name, graph, fmt, comments):
    """Write name.dot and/or name.json; DOT carries the comments as // lines."""
    wrote = []
    if fmt in ("dot", "both"):
        path = out / f"{name}.dot"
        body = "".join(
            line.replace("#", "//", 1) + "\n" for line in comments
        ) + graph_to_dot(graph)
        path.write_text(body)
        wrote.append(path.name)
    if fmt in ("json", "both"):
        path = out / f"{name}.json"
        path.write_text(graph_to_json(graph))
        wrote.append(path.name)
    return wrote


SLICE_XI_WARNING = (
    "slice graphs are thresholded at the full-data xi from null:q95, which is "
    "calibrated for the T-step analysis, not for T=1 slices; slice edges carry "
    "no calibrated false-edge rate"
)


def _emit_slices(out, pattern, spec, xi, cal, fmt, comments):
    """Slice graphs and persistence.csv; returns the slice warnings.

    Under a calibrated xi every slice graph and the returned warnings say
    that the threshold was not calibrated for slices."""
    slices = per_slice_graphs(pattern, xi, spec)
    warnings = slices.warnings
    graphs = slices.graphs
    if cal is not None:
        warnings += (SLICE_XI_WARNING,)
        graphs = tuple(
            None if g is None else replace(g, warnings=g.warnings + (SLICE_XI_WARNING,))
            for g in graphs
        )
    labels = _csv_fields(pattern.labels)
    blocks = []
    for (i, j), flags in sorted(slices.persistence.items()):
        stats = [
            "" if g is None else _fmt(g.stats[i - 1, j - 1])
            for g in graphs[: len(flags)]
        ]
        present = [{True: "1", False: "0", None: ""}[f] for f in flags]
        blocks.append(
            [np.arange(1, len(flags) + 1), str(i), str(j), labels[i - 1],
             labels[j - 1], stats, present]
        )
    _write_table(
        out / "persistence.csv",
        comments + [f"# warning={w}" for w in warnings],
        ["slice", "i", "j", "label_i", "label_j", "stat", "present"],
        blocks,
    )
    for step0, g in enumerate(graphs):
        if g is not None:
            _emit_graph(out, f"slice_{step0 + 1}", g, fmt, comments)
    return warnings


def cmd_graph(args) -> int:
    out = _out_dir(args)
    pattern, _ = _load_pattern(args)
    _require_partial_dims(pattern)
    spec = _analysis_spec(args, pattern.T)
    _require_full_rank_box(spec.half_widths, pattern.d)
    xi, cal = _resolve_xi(args, pattern, spec)
    cfg = _config_dict(
        args, {"resolved_half_widths": list(spec.half_widths), "resolved_xi": xi}
    )
    comments = _provenance_comments("graph", cfg, spec)
    pf = partial_pipeline(pattern, spec)
    graph = build_dependence_graph(
        pf, xi, provenance=_graph_provenance(cfg, spec, xi, cal)
    )
    wrote = _emit_graph(out, "graph", graph, args.format, comments)
    if args.per_slice:
        _emit_slices(out, pattern, spec, xi, cal, args.format, comments)
    print(
        f"graph at xi={_fmt(xi)}: "
        f"{len(graph.edges)} edge{'s' if len(graph.edges) != 1 else ''} "
        f"({', '.join('-'.join(e) for e in graph.edge_labels) or 'none'}); "
        f"wrote {', '.join(wrote)}"
    )
    return 0


def _lag_block(lag):
    """lags.csv rows of one lag field, c_x outermost and h innermost."""
    i, j = lag.pair
    n_x, n_y, n_h = len(lag.c_x), len(lag.c_y), len(lag.h)
    return [
        np.repeat(np.asarray(lag.c_x, dtype=float), n_y * n_h),
        np.tile(np.repeat(np.asarray(lag.c_y, dtype=float), n_h), n_x),
        np.tile(np.asarray(lag.h).astype(np.int64), n_x * n_y),
        str(i),
        str(j),
        np.asarray(lag.values, dtype=float).ravel(),
        lag.kind,
    ]


def _write_lags(out, comments, lags, lam=None):
    """lags.csv from lag fields; with intensities ``lam`` each field is
    scaled by sqrt(lambda_i * lambda_j) first."""
    if lam is not None:
        lags = [
            scaled_covariance(lag, lam[lag.pair[0]], lam[lag.pair[1]]) for lag in lags
        ]
    return _write_table(
        out / "lags.csv",
        comments,
        ["c_x", "c_y", "h", "i", "j", "value", "kind"],
        map(_lag_block, lags),
    )


def cmd_invert(args) -> int:
    out = _out_dir(args)
    pattern, _ = _load_pattern(args)
    spec = _analysis_spec(args, pattern.T)
    _require_full_rank_box(spec.half_widths, pattern.d)
    cfg = _config_dict(args, {"resolved_half_widths": list(spec.half_widths)})
    _, smoothed = spectral_fields(pattern, spec)
    if args.pair is not None:
        part = partial_lag_characteristics(smoothed, *args.pair)
        lags = [part.auto_i, part.auto_j, part.cross]
    else:
        lags = partial_cross_lags(partial_field(smoothed), smoothed.T)
    lam = None
    if args.scaled:
        lam = {i: float(pattern.counts[i - 1] / pattern.T) for i in range(1, pattern.d + 1)}
    n_rows = _write_lags(out, _provenance_comments("invert", cfg, spec), lags, lam)
    print(f"wrote {n_rows} lag rows")
    return 0


def cmd_pipeline(args) -> int:
    out = _out_dir(args)
    if args.simulate_spec and args.input:
        raise ValidationError("give an input CSV or --simulate, not both")
    truth = None
    if args.simulate_spec:
        text = args.simulate_spec
        try:
            doc = json.loads(
                text if text.lstrip().startswith("{") else _read_text(text)
            )
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--simulate document is not JSON: {exc}") from None
        if isinstance(doc, dict) and "spec" in doc:
            doc = doc["spec"]
        truth = simulate(SimSpec.from_dict(doc))
        pattern = truth.pattern
    else:
        pattern, _ = _load_pattern(args)
    _require_partial_dims(pattern)

    spec = _analysis_spec(args, pattern.T)
    _require_full_rank_box(spec.half_widths, pattern.d)
    if args.lags:
        _require_mirror(spec.grid, pattern.T)
    xi, cal = _resolve_xi(args, pattern, spec)
    cfg = _config_dict(
        args, {"resolved_half_widths": list(spec.half_widths), "resolved_xi": xi}
    )
    comments = _provenance_comments("pipeline", cfg, spec)

    export_events(pattern, out / "events.csv")
    if truth is not None:
        write_sidecar(truth, out / "truth.json")

    raw, smoothed = spectral_fields(pattern, spec)
    _write_table(
        out / "spectra.csv",
        comments,
        SPECTRA_HEADER,
        _spectral_blocks([(raw, "raw"), (smoothed, "smoothed")]),
    )
    pf = partial_field(smoothed)
    _write_table(out / "partial.csv", comments, PARTIAL_HEADER, _partial_blocks(pf))
    graph = build_dependence_graph(
        pf, xi, provenance=_graph_provenance(cfg, spec, xi, cal)
    )
    _emit_graph(out, "graph", graph, "both", comments)

    slice_warnings = ()
    if args.per_slice:
        slice_warnings = _emit_slices(out, pattern, spec, xi, cal, "both", comments)
    if args.lags:
        _write_lags(out, comments, partial_cross_lags(pf, smoothed.T))

    run = {
        "tool": "stspectra pipeline",
        "version": __version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "n": pattern.n,
        "d": pattern.d,
        "T": pattern.T,
        "counts": {lab: int(c) for lab, c in zip(pattern.labels, pattern.counts)},
        "xi": xi,
        "edges": [list(e) for e in graph.edge_labels],
        "warnings": list(graph.warnings) + list(slice_warnings),
    }
    (out / "run.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")
    print(
        f"pipeline done: n={pattern.n}, d={pattern.d}, T={pattern.T}, "
        f"xi={_fmt(xi)}, edges: "
        f"{', '.join('-'.join(e) for e in graph.edge_labels) or 'none'}"
    )
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "simulate": cmd_simulate,
    "classical": cmd_classical,
    "spectra": cmd_spectra,
    "partial": cmd_partial,
    "graph": cmd_graph,
    "invert": cmd_invert,
    "pipeline": cmd_pipeline,
}

# required options are only enforced after the config merge, so a config file
# can supply them; flags still win when both are given
REQUIRED_AFTER_MERGE = {
    "simulate": ("rates",),
    "graph": ("xi",),
    "pipeline": ("xi",),
}


def main(argv: list[str] | None = None) -> int:
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, registry[args.subcommand], argv)
        for dest in REQUIRED_AFTER_MERGE.get(args.subcommand, ()):
            if getattr(args, dest, None) is None:
                registry[args.subcommand].error(
                    f"--{dest.replace('_', '-')} is required (flag or config file)"
                )
        return COMMANDS[args.subcommand](args)
    except StspectraError as exc:
        sys.stderr.write(json.dumps(exc.report(), sort_keys=True) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(
            json.dumps({"error": "io", "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
