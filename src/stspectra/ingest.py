"""Loading, validation, and normalisation of multitype spatio-temporal events.

The canonical in-memory form is :class:`MultiPattern`: array-backed columns
(x, y, integer time index, integer type id, optional marks) over a rectangular
window and T discrete time steps.  Analysis modules expect coordinates
rescaled to the unit square; marks are never rescaled.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EmptyInputError,
    RowError,
    SchemaError,
    ValidationError,
)

__all__ = [
    "Window",
    "MultiPattern",
    "Component",
    "LoadReport",
    "load_events",
    "export_events",
    "rescale_to_unit_square",
    "bin_times",
    "parse_duration",
]

REQUIRED_FIELDS = ("x", "y", "time", "type")

_DURATION_UNITS = {
    "s": 1.0,
    "min": 60.0,
    "h": 3600.0,
    "d": 86400.0,
    "w": 604800.0,
}


@dataclass(frozen=True)
class Window:
    """Rectangular observation window plus the discrete time horizon.

    ``source_extent`` keeps the pre-rescale (x_min, x_max, y_min, y_max) so
    reports can quote intensities in original units after normalisation.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    T: int
    source_extent: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(map(math.isfinite, bounds)):
            raise ValidationError(
                f"window bounds must be finite (x: {self.x_min}..{self.x_max}, "
                f"y: {self.y_min}..{self.y_max})"
            )
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValidationError(
                "degenerate window: zero spatial extent "
                f"(x: {self.x_min}..{self.x_max}, y: {self.y_min}..{self.y_max})"
            )
        if self.T < 1:
            raise ValidationError(f"window needs T >= 1, got {self.T}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def is_unit_square(self) -> bool:
        return (self.x_min, self.x_max, self.y_min, self.y_max) == (0.0, 1.0, 0.0, 1.0)

    @property
    def source_area(self) -> float:
        if self.source_extent is None:
            return self.area
        x0, x1, y0, y1 = self.source_extent
        return (x1 - x0) * (y1 - y0)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MultiPattern:
    """A multitype spatio-temporal point pattern on a shared window.

    Parameters
    ----------
    x, y : float arrays, one entry per event, inside the window.
    t : int array, time-step index of each event, in 1..T.
    type_id : int array, contiguous component ids 1..d in first-appearance
        order of the original labels.
    labels : tuple of d strings naming the components.
    window : the shared :class:`Window`.
    marks : optional float array aligned with the events.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    type_id: np.ndarray
    labels: tuple[str, ...]
    window: Window
    marks: np.ndarray | None = None
    _allow_missing_types: bool = field(default=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", _readonly(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "t", _readonly(np.asarray(self.t, dtype=np.int64)))
        object.__setattr__(
            self, "type_id", _readonly(np.asarray(self.type_id, dtype=np.int64))
        )
        if self.marks is not None:
            object.__setattr__(
                self, "marks", _readonly(np.asarray(self.marks, dtype=float))
            )
        n = self.x.size
        for name in ("y", "t", "type_id"):
            if getattr(self, name).size != n:
                raise ValidationError(f"column '{name}' length != {n}")
        if self.marks is not None and self.marks.size != n:
            raise ValidationError("marks not aligned with events")
        for name in ("x", "y", "marks"):
            col = getattr(self, name)
            if col is not None and not np.isfinite(col).all():
                raise ValidationError(f"column '{name}' holds non-finite values")
        if n == 0:
            raise EmptyInputError("pattern holds no events")
        w = self.window
        if (
            self.x.min() < w.x_min
            or self.x.max() > w.x_max
            or self.y.min() < w.y_min
            or self.y.max() > w.y_max
        ):
            raise DomainError("events fall outside the window")
        if self.t.min() < 1 or self.t.max() > w.T:
            raise ValidationError(
                f"time indices must lie in 1..{w.T}, got "
                f"{self.t.min()}..{self.t.max()}"
            )
        d = len(self.labels)
        # load_events strips labels and merges equal ones, so only distinct,
        # non-empty, stripped labels survive an export and reload
        for k, label in enumerate(self.labels):
            if not label or label != label.strip():
                raise ValidationError(
                    f"label {label!r} is empty or padded with whitespace"
                )
            if label in self.labels[:k]:
                raise ValidationError(f"label {label!r} names two components")
        if d < 2 and not self._allow_missing_types:
            raise ValidationError(f"need at least 2 components, got {d}")
        if self.type_id.min() < 1 or self.type_id.max() > d:
            raise ValidationError("type ids must be contiguous 1..d")
        if not self._allow_missing_types:
            counts = np.bincount(self.type_id, minlength=d + 1)[1:]
            if not counts.all():
                missing = (np.flatnonzero(counts == 0) + 1).tolist()
                raise ValidationError(f"components never observed: {missing}")

    # -- basic views ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def d(self) -> int:
        return len(self.labels)

    @property
    def T(self) -> int:
        return self.window.T

    @property
    def counts(self) -> np.ndarray:
        """Events per component, index 0 holding component 1."""
        return np.bincount(self.type_id, minlength=self.d + 1)[1:]

    @property
    def has_marks(self) -> bool:
        return self.marks is not None

    def component(self, i: int) -> "Component":
        """Events of component ``i`` (1-based) as a single-type view."""
        if not 1 <= i <= self.d:
            raise ValidationError(f"component index {i} outside 1..{self.d}")
        sel = self.type_id == i
        return Component(
            x=self.x[sel],
            y=self.y[sel],
            t=self.t[sel],
            marks=None if self.marks is None else self.marks[sel],
            label=self.labels[i - 1],
            window=self.window,
        )

    def pooled(self) -> "Component":
        """All events regardless of type (the ground pattern)."""
        return Component(
            x=self.x,
            y=self.y,
            t=self.t,
            marks=self.marks,
            label="pooled",
            window=self.window,
        )

    def slice_time(self, step: int) -> "MultiPattern":
        """The purely spatial pattern of one time step (T becomes 1).

        Components absent from the slice are kept in the label set; the
        invariant that every component occurs is relaxed for slices.
        """
        if not 1 <= step <= self.T:
            raise ValidationError(f"time step {step} outside 1..{self.T}")
        sel = self.t == step
        if not sel.any():
            raise EmptyInputError(f"time step {step} holds no events")
        w = replace(self.window, T=1)
        return MultiPattern(
            x=self.x[sel],
            y=self.y[sel],
            t=np.ones(int(sel.sum()), dtype=np.int64),
            type_id=self.type_id[sel],
            labels=self.labels,
            window=w,
            marks=None if self.marks is None else self.marks[sel],
            _allow_missing_types=True,
        )

    def with_marks(self, marks: np.ndarray) -> "MultiPattern":
        return replace(self, marks=np.asarray(marks, dtype=float))

    def equals(self, other: "MultiPattern") -> bool:
        """Exact equality of events, labels, and horizon (window metadata aside)."""
        if self.labels != other.labels or self.T != other.T:
            return False
        if self.has_marks != other.has_marks:
            return False
        same = (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.type_id, other.type_id)
        )
        if same and self.has_marks:
            same = np.array_equal(self.marks, other.marks)
        return same


@dataclass(frozen=True, eq=False)
class Component:
    """Single-component view used by the classical estimators."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    marks: np.ndarray | None
    label: str
    window: Window

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def T(self) -> int:
        return self.window.T


@dataclass(frozen=True)
class LoadReport:
    """What happened during a load: row counts, dedup, labels, binning."""

    n_rows: int
    n_events: int
    duplicates_removed: int
    labels: tuple[str, ...]
    T: int
    time_mode: str
    bin_origin: datetime | None = None
    bin_width: timedelta | None = None


def parse_duration(text: str) -> timedelta:
    """Parse a duration like ``30d``, ``12h``, ``45min``, ``2w``, ``90s``."""
    m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*(s|min|h|d|w)\s*", text)
    if not m:
        raise ValidationError(
            f"cannot parse duration {text!r}; use <number><s|min|h|d|w>"
        )
    value = float(m.group(1)) * _DURATION_UNITS[m.group(2)]
    if value <= 0:
        raise ValidationError("bin width must be positive")
    try:
        return timedelta(seconds=value)
    except OverflowError:
        raise ValidationError(
            f"duration {text!r} is too long; at most {timedelta.max.days} days"
        ) from None


_MIXED_TIMEZONES = "mixed timezone-aware and naive timestamps"


def bin_times(
    timestamps: list[datetime],
    bin_width: timedelta,
    origin: datetime | None = None,
) -> tuple[np.ndarray, int]:
    """Map timestamps to 1-based bin indices: t = 1 + floor((ts-origin)/width).

    The default origin is the earliest timestamp.  Division is exact integer
    arithmetic on microseconds, so boundary timestamps bin deterministically.
    """
    if not timestamps:
        raise EmptyInputError("no timestamps to bin")
    if origin is None:
        try:
            origin = min(timestamps)
        except TypeError:
            raise ValidationError(_MIXED_TIMEZONES) from None
    width_us = round(bin_width.total_seconds() * 1e6)
    if width_us <= 0:
        raise ValidationError("bin width must be positive")
    idx = np.empty(len(timestamps), dtype=np.int64)
    for k, ts in enumerate(timestamps):
        try:
            delta = ts - origin
        except TypeError as exc:
            raise ValidationError(_MIXED_TIMEZONES) from exc
        delta_us = round(delta.total_seconds() * 1e6)
        if delta_us < 0:
            raise ValidationError(
                f"timestamp {ts.isoformat()} precedes the bin origin "
                f"{origin.isoformat()}"
            )
        idx[k] = 1 + delta_us // width_us
    return idx, int(idx.max())


# rows per chunk, both for parsing an events file and for writing a table,
# so that neither holds a whole file as Python objects or as one string; a
# written chunk's slot buffers then take about 1 MiB, under the analysis's
# own peak
_CHUNK_ROWS = 4096


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        v = float(text)
    except (TypeError, ValueError):
        raise RowError(line, f"column '{column}': cannot parse {text!r} as a number")
    if not math.isfinite(v):
        raise RowError(line, f"column '{column}': non-finite value {text!r}")
    return v


class _BadRow(Exception):
    """numpy refuses a record or some row fails a check; :func:`_scan_rows`
    reads the file row by row."""


def _checked_rows(reader, path: Path):
    """The rows of a csv reader over ``path``; text that does not decode
    becomes a :class:`ValidationError` and a fault csv reports (a field
    over its size limit) a :class:`RowError` at csv's line, both naming
    the file."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    except csv.Error as exc:
        # a DictReader updates its line_num only after a row parses
        line = getattr(reader, "reader", reader).line_num
        raise RowError(line, f"{path}: {exc}") from None


def _scan_rows(path: Path, colmap: dict[str, str], has_marks: bool) -> dict:
    """Read ``path`` row by row with csv: raise the error of its first bad
    row, or, where every row passes, give its rows as :func:`_parse_rows`
    gives them.

    This is the path of :func:`load_events` for a file that
    :func:`_parse_rows` refuses.  It applies the row checks in their
    documented order, so the error names the column and the physical line
    (blank lines and newlines inside quoted fields count) of the first row
    that fails, and a bad or missing mark on a dropped duplicate row is
    never read.  Python's ``float`` parses the numbers.  So a file loads
    here where numpy refuses what the rules accept: a number only ``float``
    reads (``1_0``, digits outside ASCII), a line holding a character of
    :data:`_FLOAT_REFUSED_SPACE` outside a number, or a dropped duplicate
    whose mark is bad or missing."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        kept: dict[tuple, float] = {}  # the mark of each row kept, by its key
        n_rows = 0
        for row in _checked_rows(reader, path):
            n_rows += 1
            line = reader.line_num
            x = _parse_float(row[colmap["x"]], colmap["x"], line)
            y = _parse_float(row[colmap["y"]], colmap["y"], line)
            time_text = (row[colmap["time"]] or "").strip()
            if not time_text:
                raise RowError(line, "empty time value")
            label = (row[colmap["type"]] or "").strip()
            if not label:
                raise RowError(line, "empty type label")
            key = (x, y, time_text, label)
            if key not in kept:
                kept[key] = (_parse_float(row[colmap["mark"]], colmap["mark"], line)
                             if has_marks else math.nan)
    if not n_rows:
        raise EmptyInputError(f"{path}: no data rows")
    x, y, times, labels = zip(*kept)
    time_ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    cols = dict(
        x=np.array(x, dtype=float),
        y=np.array(y, dtype=float),
        t=_ids(list(times), time_ids, 0),
        type=_ids(list(labels), label_ids, 1),
    )
    if has_marks:
        cols["mark"] = np.fromiter(kept.values(), float, len(kept))
    return dict(
        cols,
        n_rows=n_rows,
        duplicates=n_rows - len(kept),
        times=tuple(time_ids),
        labels=tuple(label_ids),
    )


def _ids(texts: list[str], ids: dict[str, int], first: int) -> np.ndarray:
    """The id of each text in ``ids``; texts not yet there are numbered on
    from ``first`` in order of first appearance."""
    for text in dict.fromkeys(texts):
        ids.setdefault(text, len(ids) + first)
    return np.fromiter(map(ids.__getitem__, texts), np.int64, len(texts))


def _first_rows(x: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first row of each distinct tuple of ``x``
    and ``keys``.

    A row whose x no other row shares is the first of its tuple; only the
    rows of shared x values are sorted on the whole tuple."""
    xs = np.sort(x)
    shared = xs[1:][xs[1:] == xs[:-1]]
    if not shared.size:
        return np.arange(x.size)
    rows = np.flatnonzero(np.isin(x, shared))
    cols = [col[rows] for col in (x, *keys)]
    # stable, so the first row of each tuple leads it
    order = np.lexsort(cols[::-1])
    same = np.ones(order.size - 1, dtype=bool)
    for col in cols:
        k = col[order]
        same &= k[1:] == k[:-1]
    keep = np.ones(x.size, dtype=bool)
    keep[rows[order[1:][same]]] = False
    return np.flatnonzero(keep)


# characters that numpy's float parser skips as white space round a number
# and Python's float() refuses
_FLOAT_REFUSED_SPACE = "\x1c\x1d\x1e\x1f"
_BLANK_LINES = ("\n", "\r\n", "\r")
# characters per block of lines read from an events file
_BLOCK_CHARS = 1 << 16
# the warnings np.loadtxt gives on a blank line and on a call past the
# last record
_LOADTXT_NOTES = "Input line|loadtxt: input contained no data"


class _Lines:
    """The physical lines of an events file from where its reader stands,
    read a block at a time, with what the loader checks on them.

    Lines end as csv's do in a file opened with ``newline=""`` (at ``\\n``,
    ``\\r\\n`` or ``\\r``).  ``long`` tells that some line is longer than
    ``limit`` characters; ``float_space`` that some line holds a character
    of :data:`_FLOAT_REFUSED_SPACE`."""

    def __init__(self, fh, limit: int):
        self.limit = limit
        self.count = self.blank = self.chars = 0
        self.long = self.float_space = False
        self._rest = itertools.chain.from_iterable(self._blocks(fh))

    def _blocks(self, fh):
        while block := fh.readlines(_BLOCK_CHARS):
            text = "".join(block)
            self.count += len(block)
            self.blank += sum(map(block.count, _BLANK_LINES))
            self.chars += len(text)
            self.long |= len(text) > self.limit and max(map(len, block)) > self.limit
            self.float_space |= any(c in text for c in _FLOAT_REFUSED_SPACE)
            yield block

    def chunks(self, dtype: list, columns: list[int]):
        """``np.loadtxt``'s arrays of the fields ``columns`` of the records,
        ``_CHUNK_ROWS`` records at a time, read as csv reads them."""
        size = _CHUNK_ROWS
        while size == _CHUNK_ROWS:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _LOADTXT_NOTES, UserWarning)
                chunk = np.loadtxt(self._rest, dtype, delimiter=",", quotechar='"',
                                   comments=None, usecols=columns,
                                   max_rows=_CHUNK_ROWS, ndmin=1)
            size = chunk.size
            yield chunk


def _parse_rows(fh, columns: list[int], path: Path) -> dict:
    """Parse, check and deduplicate the data rows of an events file open
    past its header, ``_CHUNK_ROWS`` records at a time.

    ``np.loadtxt`` tokenises the records, quoted fields as csv reads them,
    and keeps the fields of ``columns``: the field index of x, y, time and
    type, then of the mark if there is one.  x, y and the mark are parsed
    as float64 in C, to the bytes Python's ``float`` gives; times and labels
    are kept as ids into their distinct stripped texts.  Extra fields are
    ignored and blank lines are no records.  Raises :class:`_BadRow` where
    numpy refuses a record (one that lacks a field of ``columns``, a number
    it does not read, text that does not decode), where a line holds a
    character of :data:`_FLOAT_REFUSED_SPACE` or where a row fails a check,
    and csv's :class:`RowError` where every row passes but a field is longer
    than csv's size limit.
    """
    has_marks = len(columns) == 5
    dtype = [("x", "f8"), ("y", "f8"), ("t", "O"), ("type", "O")]
    if has_marks:
        dtype.append(("mark", "f8"))
    lines = _Lines(fh, csv.field_size_limit())
    time_ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    parts: dict[str, list[np.ndarray]] = {"x": [], "y": [], "t": [], "type": [], "mark": []}
    n_rows = 0
    try:
        for chunk in lines.chunks(dtype, columns):
            if lines.float_space:
                raise _BadRow
            n_rows += chunk.size
            # copies, so that no chunk outlives its turn
            x, y = chunk["x"].copy(), chunk["y"].copy()
            times = list(map(str.strip, chunk["t"].tolist()))
            labels = list(map(str.strip, chunk["type"].tolist()))
            if not (np.isfinite(x).all() and np.isfinite(y).all() and all(times)
                    and all(labels)):
                raise _BadRow
            parts["x"].append(x)
            parts["y"].append(y)
            parts["t"].append(_ids(times, time_ids, 0))
            parts["type"].append(_ids(labels, label_ids, 1))
            if has_marks:
                parts["mark"].append(chunk["mark"].copy())
    except ValueError:  # a record or number numpy refuses, or bad text
        raise _BadRow from None
    if not n_rows:
        raise EmptyInputError(f"{path}: no data rows")

    cols = {name: np.concatenate(p) for name, p in parts.items() if p}
    # exact duplicates (parsed x and y, time text, label) keep their first row
    keep = _first_rows(cols["x"], cols["y"], cols["t"], cols["type"])
    if keep.size < n_rows:
        cols = {name: col[keep] for name, col in cols.items()}
    # a non-finite mark is an error only on a row that is kept
    if has_marks and not np.isfinite(cols["mark"]).all():
        raise _BadRow
    # csv refuses a field longer than its limit; only a line that long, or
    # a record over several lines in a file that long, can hold one
    spans_lines = lines.count - lines.blank > n_rows
    if lines.long or (spans_lines and lines.chars > lines.limit):
        with path.open(newline="") as again:
            for _ in _checked_rows(csv.reader(again), path):
                pass
    return dict(
        cols,
        n_rows=n_rows,
        duplicates=n_rows - keep.size,
        times=tuple(time_ids),
        labels=tuple(label_ids),
    )


def _parse_file(path: Path, columns: list[int]) -> dict | None:
    """The data rows of ``path`` as :func:`_parse_rows` gives them, or None
    where numpy refuses a record or a row fails a check."""
    with path.open(newline="") as fh:
        next(csv.reader(fh))  # the header, which the caller has read
        try:
            return _parse_rows(fh, columns, path)
        except _BadRow:
            return None


def load_events(
    path: str | Path,
    columns: dict[str, str] | None = None,
    time_is_index: bool = False,
    bin_width: timedelta | str | None = None,
    bin_origin: datetime | None = None,
    window: tuple[float, float, float, float] | None = None,
) -> tuple[MultiPattern, LoadReport]:
    """Load events from a headed CSV file.

    Required columns (after remapping through ``columns``) are x, y, time and
    type; a mark column is picked up when mapped or literally named ``mark``.
    A header name that occurs twice names its last column.  Time is either
    ISO-8601 (binned with ``bin_width``/``bin_origin``) or, with
    ``time_is_index``, a pre-binned integer >= 1 taken as-is.

    Exact duplicate rows (same parsed x and y, same time text and type label
    after stripping) are dropped, keeping the first; the count is reported.
    Type labels become ids 1..d in order of first appearance.  The window
    defaults to the data bounding box.  A bad row raises :class:`RowError`
    with the physical line of the first such row.
    """
    colmap = dict(zip(REQUIRED_FIELDS, REQUIRED_FIELDS))
    colmap["mark"] = "mark"
    if columns:
        unknown = set(columns) - {"x", "y", "time", "type", "mark"}
        if unknown:
            raise SchemaError(f"unknown column roles: {sorted(unknown)}")
        colmap.update(columns)
    if isinstance(bin_width, str):
        bin_width = parse_duration(bin_width)

    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(_checked_rows(reader, path), None)
        if header is None:
            raise EmptyInputError(f"{path}: file is empty")
        for role in REQUIRED_FIELDS:
            if colmap[role] not in header:
                raise SchemaError(
                    f"{path}: missing required column '{colmap[role]}' (role: {role})"
                )
        has_marks = colmap["mark"] in header
        explicit_mark = columns is not None and "mark" in columns
        if explicit_mark and not has_marks:
            raise SchemaError(f"{path}: missing mark column '{colmap['mark']}'")
    index = {name: k for k, name in enumerate(header)}
    roles = REQUIRED_FIELDS + (("mark",) if has_marks else ())
    parsed = _parse_file(path, [index[colmap[role]] for role in roles])
    if parsed is None:
        parsed = _scan_rows(path, colmap, has_marks)

    # Time handling: pre-binned integers or ISO-8601 timestamps.  Each
    # distinct text is parsed and binned once, in order of first appearance,
    # and every event looks its step up by time id; each text is some kept
    # event's, so the steps' range is the events'.
    texts = parsed["times"]
    if time_is_index:
        try:
            steps = np.fromiter(map(int, texts), np.int64, len(texts))
        except (ValueError, OverflowError):
            for text in texts:  # name the first value that is no int64 index
                try:
                    np.int64(int(text))
                except (ValueError, OverflowError):
                    raise ValidationError(
                        f"time value {text!r} is not an integer index; "
                        "drop --time-is-index to parse timestamps"
                    ) from None
        if steps.min() < 1:
            raise ValidationError(
                f"pre-binned time indices must be >= 1 (got {steps.min()}); "
                "shift the index column"
            )
        origin = width = None
        time_mode = "index"
    else:
        if bin_width is None:
            raise ValidationError(
                "timestamp data needs a bin width (or pass time_is_index "
                "for pre-binned integers)"
            )
        distinct = []
        for text in texts:
            try:
                distinct.append(datetime.fromisoformat(text))
            except ValueError:
                raise ValidationError(
                    f"time value {text!r} is not ISO-8601; "
                    "use --time-is-index for pre-binned integers"
                )
        steps, _ = bin_times(distinct, bin_width, bin_origin)
        origin = bin_origin if bin_origin is not None else min(distinct)
        width = bin_width
        time_mode = "binned"
    t = steps[parsed["t"]]
    T = int(steps.max())

    x_arr = parsed["x"]
    y_arr = parsed["y"]
    if window is None:
        extent = (
            float(x_arr.min()),
            float(x_arr.max()),
            float(y_arr.min()),
            float(y_arr.max()),
        )
    else:
        extent = tuple(float(v) for v in window)

    win = Window(
        x_min=extent[0],
        x_max=extent[1],
        y_min=extent[2],
        y_max=extent[3],
        T=T,
    )
    pattern = MultiPattern(
        x=x_arr,
        y=y_arr,
        t=t,
        type_id=parsed["type"],
        labels=parsed["labels"],
        window=win,
        marks=parsed["mark"] if has_marks else None,
    )
    report = LoadReport(
        n_rows=parsed["n_rows"],
        n_events=pattern.n,
        duplicates_removed=parsed["duplicates"],
        labels=pattern.labels,
        T=T,
        time_mode=time_mode,
        bin_origin=origin,
        bin_width=width,
    )
    return pattern, report


def rescale_to_unit_square(pattern: MultiPattern) -> MultiPattern:
    """Affinely map the window onto [0,1]^2; idempotent on unit windows.

    Marks and times are untouched; the original extent is retained on the
    window for reporting in source units.
    """
    w = pattern.window
    if w.is_unit_square:
        return pattern
    sx = w.x_max - w.x_min
    sy = w.y_max - w.y_min
    source = w.source_extent or (w.x_min, w.x_max, w.y_min, w.y_max)
    new_window = Window(
        x_min=0.0,
        x_max=1.0,
        y_min=0.0,
        y_max=1.0,
        T=w.T,
        source_extent=source,
    )
    return MultiPattern(
        x=np.clip((pattern.x - w.x_min) / sx, 0.0, 1.0),
        y=np.clip((pattern.y - w.y_min) / sy, 0.0, 1.0),
        t=pattern.t,
        type_id=pattern.type_id,
        labels=pattern.labels,
        window=new_window,
        marks=pattern.marks,
        _allow_missing_types=pattern._allow_missing_types,
    )


def _require_unit_square(source) -> None:
    """Refuse a pattern or component whose window is not the unit square."""
    if not source.window.is_unit_square:
        raise ValidationError("analyses expect the unit square; rescale first")


def _csv_fields(texts, newline: str = "\n") -> tuple[str, ...]:
    """Each text as ``csv.writer`` writes it as one field of a row that ends
    in ``newline``: quoted (QUOTE_MINIMAL) when it holds a comma, a quote or
    a line-end character, as is otherwise."""
    fields = []
    for text in texts:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=newline).writerow((text, ""))
        fields.append(buf.getvalue()[: -1 - len(newline)])
    return tuple(fields)


# -- the table writer --------------------------------------------------
#
# A batch of rows is laid out as an (n, width) byte array: one slot per
# column, each opening with the byte that separates it from the field
# before, then the row's newline.  Bytes that no text fills stay NUL and
# are dropped when the batch is written.  The digit characters come from
# one table of the 10 000 four-digit groups, as little-endian words.

_ZERO = ord("0")


def _frozen(*tables):
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _digit_tables():
    """The four digit characters of each group 0..9999 as little-endian
    words: in full, with leading zeros blank (0 all blank), and as an
    integer's only group (0 as "0"); and, for group k = 0..3 of a 16-digit
    tail, the position 1..16 of each group's last nonzero digit (0 for 0).
    Built on first use, read-only."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # most significant first
    chars = np.ascontiguousarray((digits + _ZERO).T)
    nonzero = digits != 0
    shown = nonzero.copy()  # a nonzero digit at or before each place
    for k in range(1, 4):
        shown[k] |= shown[k - 1]
    lead = (chars * shown.T).view("<u4").ravel()
    only = lead.copy()
    only[0] = _ZERO << 24
    last = (nonzero * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    last = np.where(last > 0, last + 4 * np.arange(4, dtype=np.uint8)[:, None], 0)
    return _frozen(chars.view("<u4").ravel(), lead, only, last)


# A float's slot has 32 bytes: the separator "," at 0, the sign at 1, the
# prefix "0." + zeros of an exponent in -4..-1 ending at 6, the 17 digits
# at 7..23 (those after a point shifted up a byte), "e-0k" at 25..28.
# Bytes 29..31 stay blank, and 25..28 when no value takes an exponent.


@functools.cache
def _float_layouts():
    """Per class ((exponent + 6) * 2 + has fraction digits) * 2 + negative,
    the slot words that keep the digits in place, that keep them shifted a
    byte up past the point, and that add the sign, prefix, point and
    exponent after the separator: three (92, 4) tables; and per count k,
    the words that keep the first k digits, (18, 4).  Built on first use,
    read-only."""
    lay = np.zeros((23, 2, 2, 3, 32), np.uint8)
    for x in range(-6, 17):
        for frac in (0, 1):
            keep, shifted, add = lay[x + 6, frac, 0]
            if frac and not -4 <= x < 0:  # fixed with a fraction, or scientific
                point = 8 + max(x, 0)
                keep[7:point] = 0xFF
                add[point] = ord(".")
                shifted[point + 1 : 25] = 0xFF
            else:
                keep[7:24] = 0xFF
            if x < -4:
                add[25:29] = np.frombuffer(b"e-%02d" % -x, np.uint8)
            elif x < 0:
                prefix = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
                add[7 - prefix.size : 7] = prefix
    lay[:, :, :, 2, 0] = ord(",")
    lay[:, :, 1] = lay[:, :, 0]
    lay[:, :, 1, 2, 1] = ord("-")
    lay = lay.reshape(92, 3, 32)
    first = np.zeros((18, 32), np.uint8)
    for k in range(18):
        first[k, 7 : 7 + k] = 0xFF
    return _frozen(*(lay[:, k].copy().view("<u8") for k in range(3)), first.view("<u8"))


_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 10**22
_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    """Dekker's split: a = hi + lo, each with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, s):
    """a * 10**s exactly, as the rounded product p and its error e
    (Dekker's two-product, Numer. Math. 18, 1971)."""
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    p = a * _POW10.take(s)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _decade_step(p, e):
    """+1 where p + e < 1e16, -1 where p + e >= 1e17, 0 in between."""
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    return low.astype(np.intp) - high


def _float_slots(v: np.ndarray) -> np.ndarray:
    """Each float64's ``'%.17g'`` text in a slot of 25 or 29 bytes.

    For 1e-6 <= |v| < 1e17 and for zeros the digits are exact in numpy:
    with 10**s exact, v * 10**s = p + e exactly, and s is chosen so that
    p + e lies in [1e16, 1e17); its 17 digits are p + rint(e), rounded
    half to even since p is even there.  Other values (nan, inf, every
    magnitude outside that range) take ``'%.17g' %`` one at a time."""
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-6) & (a < 1e17)
    work = np.where(fast, a, 1.0)
    s = np.clip(16 - np.floor(np.log10(work)), 0, 22).astype(np.intp)
    p, e = _scaled(work, s)
    # log10 can miss by one next to a power of ten; a value whose decade
    # needs 10**23 (just under 1e-6) leaves the fast path
    step = _decade_step(p, e)
    redo = np.flatnonzero(step)
    if redo.size:
        s[redo] = np.clip(s[redo] + step[redo], 0, 22)
        p[redo], e[redo] = _scaled(work[redo], s[redo])
        fast[redo[_decade_step(p[redo], e[redo]) != 0]] = False
    # rounding never carries into an 18th digit: of the floats below a power
    # of ten in this range, the closest (just under 1e-6) is 4.5e-17 of it
    # below, and a carry needs 5e-18
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    exponent = 16 - s
    digits[zero] = 0
    exponent[zero] = 0

    lead = digits // 10**16
    tail = digits - lead * 10**16
    high = tail // 10**8
    low = tail - high * 10**8
    first, third = high // 10**4, low // 10**4
    groups = (first, high - first * 10**4, third, low - third * 10**4)
    quad, _, _, last_digit = _digit_tables()
    in_place, shifted_keep, added, first_digits = _float_layouts()
    words = np.zeros((v.size, 4), "<u8")
    quads = words.view("<u4")
    quads[:, 1] = (lead + _ZERO) << 24
    last = np.zeros(v.size, np.intp)
    for k, g in enumerate(groups):
        quads[:, 2 + k] = quad.take(g)
        np.maximum(last, last_digit[k].take(g), out=last)
    whole = np.maximum(exponent, 0)  # the last integer digit of a fixed form
    kept = first_digits.take(np.maximum(last, whole) + 1, axis=0)
    kept &= words
    flat = kept.ravel()  # byte 31 of every slot is blank: nothing carries
    shifted = flat << 8
    shifted[1:] |= flat[:-1] >> 56
    layout = ((exponent + 6) * 2 + (last > whole)) * 2 + np.signbit(v)
    out = in_place.take(layout, axis=0)
    out &= kept
    moved = shifted_keep.take(layout, axis=0)
    moved &= shifted.reshape(kept.shape)
    out |= moved
    out |= added.take(layout, axis=0)
    out = out.view(np.uint8)
    for r in np.flatnonzero(~(fast | zero)):
        text = np.frombuffer(("%.17g" % v[r]).encode("ascii"), np.uint8)
        out[r, 1:] = 0
        out[r, 1 : 1 + text.size] = text
    return out[:, : 29 if (exponent[fast] < -4).any() else 25]


def _int_slots(values: np.ndarray) -> np.ndarray:
    """Each value's ``'%d'`` text, (n, 4 + 4 * groups) bytes: the separator
    and the sign, then the digits four to a word."""
    if values.dtype.kind == "u":
        u = values.astype(np.uint64)
        neg = np.zeros(u.size, bool)
    else:
        values = values.astype(np.int64)
        u = np.abs(values).view(np.uint64)  # |-2**63| wraps to 2**63
        neg = values < 0
    n_groups = -(-len(str(u.max())) // 4)
    groups = []  # most significant first
    for _ in range(n_groups - 1):
        q = u // 10_000
        groups.insert(0, u - q * 10_000)
        u = q
    groups.insert(0, u)
    quad, lead, only, _ = _digit_tables()
    words = np.empty((u.size, 1 + n_groups), "<u4")
    words[:, 0] = neg * (ord("-") << 24) + ord(",")
    words[:, 1] = (only if n_groups == 1 else lead).take(groups[0])
    started = groups[0] != 0
    for col, g in enumerate(groups[1:], start=2):
        first = only if col == n_groups else lead
        words[:, col] = np.where(started, quad.take(g), first.take(g))
        started |= g != 0
    return words.view(np.uint8)


class _Coded(NamedTuple):
    """A text column given by code: row r holds ``texts[codes[r]]``."""

    texts: tuple[str, ...]
    codes: np.ndarray


def _kind(column) -> str:
    """'f' (float array), 'i' (int array) or 's' (text) for a column."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return "f" if column.dtype.kind == "f" else "i"
    return "s"


def _batches(blocks):
    """Consecutive block pieces ``(columns, start, stop)`` of one column
    signature, at most ``_CHUNK_ROWS`` rows to a batch; a block longer
    than a batch is cut."""
    batch, size, kinds = [], 0, None
    for columns in blocks:
        first = next(c for c in columns if not isinstance(c, str))
        n = len(first.codes if isinstance(first, _Coded) else first)
        signature = tuple(map(_kind, columns))
        if batch and signature != kinds:
            yield batch
            batch, size = [], 0
        kinds = signature
        start = 0
        while start < n:
            stop = min(n, start + _CHUNK_ROWS - size)
            batch.append((columns, start, stop))
            size += stop - start
            start = stop
            if size == _CHUNK_ROWS:
                yield batch
                batch, size = [], 0
    if batch:
        yield batch


def _piece_codes(column, start: int, stop: int):
    """The distinct texts of a piece of a text column and each row's index
    into them (a scalar for a repeated string)."""
    if isinstance(column, str):
        return (column,), 0
    if isinstance(column, _Coded):
        return column.texts, column.codes[start:stop]
    part = column[start:stop]
    texts = list(map(str, part.tolist() if isinstance(part, np.ndarray) else part))
    index = {text: k for k, text in enumerate(dict.fromkeys(texts))}
    return tuple(index), np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))


def _text_slots(pieces, col: int, n: int, encode):
    """A text column of a batch: each row's encoded text after the
    separator, (n, width) bytes, and the mask of the bytes that hold text,
    or None when no text holds a NUL byte."""
    ids: dict[str, int] = {}
    codes = np.empty(n, np.intp)
    at = 0
    for columns, start, stop in pieces:
        texts, local = _piece_codes(columns[col], start, stop)
        remap = np.array([ids.setdefault(t, len(ids)) for t in texts], np.intp)
        codes[at : at + stop - start] = remap[local]
        at += stop - start
    encoded = [encode(t) for t in ids]
    lengths = np.array([len(b) for b in encoded])
    table = np.zeros((len(encoded), 1 + lengths.max()), np.uint8)
    table[:, 0] = ord(",")
    for row, b in zip(table, encoded):
        row[1 : 1 + len(b)] = np.frombuffer(b, np.uint8)
    mask = None
    if any(b"\0" in b for b in encoded):
        span = np.arange(table.shape[1])
        mask = ((span >= 1) & (span <= lengths[:, None]))[codes]
    return table.take(codes, axis=0), mask


def _format_batch(pieces, newline: bytes, encode) -> bytes:
    """The rows of a batch as written: numbers formatted in numpy, each
    column's pieces together, then the NUL bytes dropped."""
    n = sum(stop - start for _, start, stop in pieces)
    slots, masks = [], {}
    for col, column in enumerate(pieces[0][0]):
        kind = _kind(column)
        if kind == "s":
            slot, masks[col] = _text_slots(pieces, col, n, encode)
        else:
            values = np.concatenate([c[col][a:b] for c, a, b in pieces])
            slot = (_float_slots(values.astype(float, copy=False)) if kind == "f"
                    else _int_slots(values))
        slots.append(slot)
    slots[0][:, 0] = 0  # no separator before the first field
    # one record per row, a field per slot: each column is copied in one go
    rows = np.empty(n, [(f"f{k}", f"V{slot.shape[1]}") for k, slot in enumerate(slots)]
                    + [("newline", f"V{len(newline)}")])
    for k, slot in enumerate(slots):
        rows[f"f{k}"] = slot.view(f"V{slot.shape[1]}")[:, 0]
    rows["newline"] = np.void(newline)
    if all(mask is None for mask in masks.values()):
        return rows.tobytes().translate(None, b"\0")
    # a text holds NUL: keep the bytes that are not NUL or that are text
    rows = rows.view(np.uint8).reshape(n, -1)
    keep = rows != 0
    starts = np.cumsum([0] + [slot.shape[1] for slot in slots])
    for col, mask in masks.items():
        if mask is not None:
            keep[:, starts[col] : starts[col + 1]] |= mask
    return rows[keep].tobytes()


def _write_table(path, comments, header, blocks, newline: str = "\n") -> int:
    """Write a CSV table: comment lines, a header row, then every block's
    rows; returns the number of rows.

    A block is a list of columns in header order.  A column is a float
    array (written as ``'%.17g' % v``), an int array (``'%d'``), a
    sequence of strings, a :class:`_Coded` text column, or one string that
    every row of the block repeats; strings are written as given, so
    fields that can hold labels come from :func:`_csv_fields`.

    The bytes are those of ``'%.17g' % v`` and ``'%d' % v`` for every
    value, but the numbers are formatted in numpy: floats with
    1e-6 <= |v| < 1e17 (and zeros) get their 17 significant digits
    exactly, from an error-free product with a power of ten; nan, inf and
    every other magnitude take Python's ``'%.17g'`` one value at a time.
    Consecutive blocks with the same column kinds are formatted together,
    ``_CHUNK_ROWS`` rows at a time, and each distinct string is encoded
    once, in the encoding of the text-mode file.
    """
    n_rows = 0
    with Path(path).open("w", newline="") as fh:
        fh.writelines(line + newline for line in comments)
        fh.write(",".join(header) + newline)
        fh.flush()
        encoded: dict[str, bytes] = {}

        def encode(text: str) -> bytes:
            if text not in encoded:
                encoded[text] = text.encode(fh.encoding)
            return encoded[text]

        line_end = newline.encode(fh.encoding)
        for pieces in _batches(blocks):
            fh.buffer.write(_format_batch(pieces, line_end, encode))
            n_rows += sum(stop - start for _, start, stop in pieces)
    return n_rows


def export_events(pattern: MultiPattern, path: str | Path) -> None:
    """Write events as the ingest CSV schema with pre-binned integer times.

    Floats carry 17 significant digits, so load -> export -> load (with
    ``time_is_index=True``) reproduces the pattern exactly.  Rows end in
    ``\\r\\n``, as ``csv.writer`` ends them by default.
    """
    header = ["x", "y", "time", "type"]
    labels = _Coded(_csv_fields(pattern.labels, "\r\n"), pattern.type_id - 1)
    columns = [pattern.x, pattern.y, pattern.t, labels]
    if pattern.has_marks:
        header.append("mark")
        columns.append(pattern.marks)
    _write_table(path, [], header, [columns], newline="\r\n")
