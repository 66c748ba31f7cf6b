"""File formats: series CSV, transition-counts CSV, and deterministic JSON."""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError, CsvParseError, MissingInputError
from ..series import TimeSeries

SERIES_HEADERS = (("value",), ("date", "value"))


@contextmanager
def _open_input(path, newline=None):
    """Open ``path`` for reading; a missing, unreadable or non-UTF-8 file is exit 3."""
    try:
        # utf-8-sig drops the byte-order mark that some editors (Excel's
        # "CSV UTF-8", say) write first; a file without one reads as utf-8.
        with open(path, newline=newline, encoding="utf-8-sig") as handle:
            yield handle
    except FileNotFoundError as exc:
        raise MissingInputError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise MissingInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise MissingInputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _rows(source):
    """``(file line, cells)`` for each non-blank row of the CSV at a path or
    in a text stream; a row that ``csv`` refuses is a parse error."""
    if isinstance(source, (str, os.PathLike)):
        with _open_input(source, newline="") as handle:
            yield from _rows(handle)
        return
    reader = csv.reader(source)
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise CsvParseError(f"row {reader.line_num}: {exc}") from exc


def _normalize(row: list[str]) -> tuple[str, ...]:
    return tuple(cell.strip().lower() for cell in row)


def _header(rows) -> tuple[tuple[str, ...], list[str]]:
    """The first of ``rows``, normalized and as read; none is a parse error."""
    for _, row in rows:
        return _normalize(row), row
    raise CsvParseError("empty file")


def sniff_csv_kind(path) -> str:
    """'series' for value / date,value files, 'counts' for state fixtures;
    reads no further than the header."""
    header, _ = _header(_rows(path))
    return "counts" if header[0] == "state" else "series"


def parse_series_csv(source) -> TimeSeries:
    """Parse a 'value' or 'date,value' CSV into a TimeSeries; a date
    column is read and ignored.

    Row numbers in error messages are 1-based file lines; a quoted field
    that spans lines is named by its last line.
    """
    rows = _rows(source)
    header, first = _header(rows)
    if header not in SERIES_HEADERS:
        raise CsvParseError(f"unrecognized header {first!r}; expected 'value' or 'date,value'")
    width = len(header)
    values: list[float] = []
    for line, row in rows:
        if len(row) == width:
            try:
                values.append(float(row[-1].strip()))
                continue
            except ValueError:
                pass
        if _normalize(row) == header:
            raise CsvParseError(f"duplicate header at row {line}")
        if len(row) != width:
            raise CsvParseError(f"row {line} has {len(row)} fields, expected {width}")
        raise CsvParseError(f"could not parse value {row[-1].strip()!r} at row {line}")
    if not values:
        raise CsvParseError("no data rows found")
    return TimeSeries(np.asarray(values))


def parse_counts_csv(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse a transition-counts fixture.

    Expected layout: header ``state,to1,...,tok,occupancy`` followed by one
    row per state holding the integer transition counts into each state and
    the state's total occupancy over all classified points.
    """
    rows = _rows(source)
    header, _ = _header(rows)
    if header[0] != "state" or header[-1] != "occupancy":
        raise CsvParseError("counts fixture must start with header 'state,to1,...,occupancy'")
    k = len(header) - 2
    rows = list(rows)
    if k < 2 or len(rows) != k:
        raise CsvParseError(
            f"counts fixture with {k} states must hold exactly {k} data rows, "
            f"got {len(rows)}"
        )
    counts = np.zeros((k, k), dtype=int)
    occupancy = np.zeros(k, dtype=int)
    for expected, (line, row) in enumerate(rows, start=1):
        if len(row) != k + 2:
            raise CsvParseError(f"row {line} has {len(row)} fields, expected {k + 2}")
        try:
            state = int(row[0])
            cells = [int(cell) for cell in row[1:]]
        except ValueError as exc:
            raise CsvParseError(f"non-integer count at row {line}") from exc
        if state != expected:
            raise CsvParseError(f"row {line} describes state {state}, expected {expected}")
        if any(cell < 0 for cell in cells):
            raise CsvParseError(f"negative count at row {line}")
        counts[state - 1] = cells[:-1]
        occupancy[state - 1] = cells[-1]
    return counts, occupancy


@contextmanager
def _open_output(path, newline=None):
    """Open ``path`` for writing; an OS failure is a usage error (exit 2)."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, header, rows) -> None:
    with _open_output(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(path, values) -> None:
    _write_csv(path, ["value"], ([format_float(v)] for v in values))


def write_forecast_csv(path, start_t: int, values) -> None:
    rows = ([start_t + i, format_float(v)] for i, v in enumerate(values))
    _write_csv(path, ["t", "forecast"], rows)


def write_plot_csv(path, header: list[str], rows) -> None:
    _write_csv(path, header, ([row[0], *map(format_float, row[1:])] for row in rows))


def format_float(value) -> str:
    """Fixed 17-significant-digit rendering so artifacts are byte-stable."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return "null"
    return format(value, ".17g")


def dump_json(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats,
    non-finite floats rendered as null."""
    out = io.StringIO()
    _write_json(obj, out, indent, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(obj, out, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.write("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(f"{pad_in}{_escape(str(key))}: ")
            _write_json(value, out, indent, level + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.write("[]")
            return
        out.write("[\n")
        for i, value in enumerate(items):
            out.write(pad_in)
            _write_json(value, out, indent, level + 1)
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


# The stdlib's string encoder, built once: json.dumps would build a new
# encoder for every string.
_escape = json.JSONEncoder(ensure_ascii=False).encode


def write_json(path, obj) -> None:
    with _open_output(path) as handle:
        handle.write(dump_json(obj))
