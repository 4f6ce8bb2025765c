"""Forecast and observation archives with CSV ingest.

File formats
------------
Forecast CSV: header ``station,variable,cycle_time,lead_s,value``, with a
timestamp, an integer offset in seconds and a decimal or, for missing, an
empty field. Observation CSV: header ``station,valid_time,value``.
Predictions CSV (``predict`` writes it below ``#`` provenance lines): header
``station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score``,
one record per ensemble member with an integer rank and a required finite
decimal; the last two columns are counted but not parsed.

Input grammar, one rule for every CSV, config and checkpoint (D is one or
more ASCII digits): an integer is ``[+-]?D``; a decimal is
``[+-]?(D[.D?]|.D)([eE][+-]?D)?`` or one of float()'s words for NaN and
infinity, which each reader refuses as non-finite; a timestamp is what
:func:`format_time` writes, ``YYYY-MM-DDTHH:MM:SSZ`` in years 0001-9999;
and :func:`read_settings` reads every key=value line. Timestamps are read
by :func:`parse_times` and written by :func:`format_times`, whose
one-element cases are :func:`parse_time` and :func:`format_time`.

Archives are dense: every combination of the index lists owns a cell, and
cells without a value (absent rows or empty values) hold NaN. Index lists
are the sorted distinct values found in the file. Archives are treated as
immutable after load and are safe to read concurrently. Observations are
read only through :meth:`ObservationArchive.values_for`, and every key
search on a sorted axis goes through :func:`locate`. Windows are read by
:func:`window_block`, and one target's by :func:`extract_window`.

Loader contract, one reader for all three kinds: the header is the first
line that is neither blank nor ``#``, and blank and ``#`` lines are skipped.
A malformed file raises :class:`SchemaError` naming the file and the line
of the first offending record in file order; within a record the column
count, the key columns, the duplicate key and the value are checked in
that order, and ``lead_s`` must fit int64. A forecast load of one variable
selects the records whose variable field is that name: every record's
column count is checked, the other checks, the axes and the values cover
the selected records only, and a fault elsewhere goes unnamed.

Cost: a clean file is checked in bulk, one block of whole lines at a time
(about 64 KiB), so a load holds one block's strings at a time and, beyond
them, 8-byte codes and values for each record's key and value fields. In
each block the lines are joined and split into fields once, and the
column count of every record is checked on that split by where the record
separators fall. A load of one variable then keeps a block's records of
it by one comparison pass over the variable column and one gather per
column, so only they are coded and parsed. Each key column is coded in
one dictionary pass that persists across blocks, and only its distinct
strings are parsed, once, after the last block, so timestamp parsing
grows with the distinct times, not the rows. The value column is checked
by one character test on its joined text and parsed by ``float()``
inside numpy's array constructor, an empty field read as ``"nan"``.
Duplicate keys are found by sorting the records' cells, so no array spans
the product of the axes. The whole file is read at once only to name a
fault: when a bulk check or the block read fails, it is read again,
record by record in file order, and the first fault is named.

Writer cost: archives and predictions are written by :func:`write_rows`,
one ``%``-format per chunk of about 1,024 rows. A row's fixed text is a
template with a ``%.17g`` slot per float, and ``'%.17g' % x`` is
:func:`format_float`'s text, NaN and infinities included, so the bytes are
those of one :func:`format_float` per value.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError, SchemaError, WindowUnavailable

FORECAST_HEADER = ["station", "variable", "cycle_time", "lead_s", "value"]
OBSERVATION_HEADER = ["station", "valid_time", "value"]
PREDICTION_HEADER = ["station", "cycle_time", "lead_s", "member_rank", "member_value",
                     "source_cycle_time", "score"]

_INTEGER = re.compile(r"[+-]?[0-9]+")
# Of text in these characters, float() reads exactly the grammar's decimals
# and its words for NaN and infinity, so one character test completes the rule.
_DECIMAL_CHARS = b"0123456789+-.eEaAfFiInNtTyY"
_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")

# A CSV is read in blocks of this many bytes, and written in chunks of about
# this many rows, so that a load's or a write's transient strings stay bounded
# whatever the file's size (not knobs).
_BLOCK_BYTES = 1 << 16
_CHUNK_ROWS = 1024


def parse_int(text: str) -> int:
    """An integer of the input grammar; ValueError otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _decimal_chars_only(text: str) -> bool:
    return text.isascii() and not text.encode().translate(None, _DECIMAL_CHARS)


def parse_decimal(text: str) -> float:
    """A decimal of the input grammar, as float() reads it; ValueError otherwise."""
    if not _decimal_chars_only(text):
        raise ValueError(f"not a decimal: {text!r}")
    return float(text)


def parse_times(texts: Sequence[str]) -> np.ndarray:
    """Timestamps of the input grammar as int64 seconds since epoch; ValueError otherwise."""
    for text in texts:
        if not _TIMESTAMP.fullmatch(text) or text.startswith("0000"):
            raise ValueError(f"not a timestamp: {text!r}")
    # numpy refuses impossible dates and times, such as 02-30 or 24:00:00
    return np.array([t[:19] for t in texts], dtype="datetime64[s]").astype(np.int64)


def parse_time(text: str) -> int:
    """One timestamp (see :func:`parse_times`) as integer seconds since epoch."""
    return int(parse_times([text])[0])


def format_times(seconds) -> list[str]:
    """Integer seconds since epoch as timestamps; ValueError, naming the first
    one, outside the years 0001-9999."""
    seconds = np.asarray(seconds)
    outside = (seconds < -62135596800) | (seconds >= 253402300800)
    if np.count_nonzero(outside):
        raise ValueError(f"{seconds[outside][0]} s since epoch is outside the years 0001-9999")
    stamps = np.datetime_as_string(seconds.astype(np.int64).astype("datetime64[s]"))
    return [f"{stamp}Z" for stamp in stamps.tolist()]


def format_time(seconds: int) -> str:
    """One timestamp (see :func:`format_times`) of integer seconds since epoch."""
    return format_times([seconds])[0]


def format_float(x: float) -> str:
    """Format a float with 17 significant digits (exact float64 round-trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ForecastArchive:
    """Dense deterministic-forecast archive indexed (station, variable, cycle, lead)."""

    stations: list[str]
    variables: list[str]
    cycles: np.ndarray  # int64 seconds since epoch, strictly increasing
    leads: np.ndarray  # int64 second offsets, strictly increasing
    values: np.ndarray  # float64 [station, variable, cycle, lead], NaN = missing

    def __post_init__(self):
        if len(set(self.stations)) != len(self.stations):
            raise SchemaError("station ids must be unique")
        if len(set(self.variables)) != len(self.variables):
            raise SchemaError("variable names must be unique")
        for name, axis in (("cycles", self.cycles), ("leads", self.leads)):
            if len(axis) > 1 and not np.all(np.diff(axis) > 0):
                raise SchemaError(f"{name} must be strictly increasing")
        expected = (len(self.stations), len(self.variables), len(self.cycles), len(self.leads))
        if self.values.shape != expected:
            raise SchemaError(
                f"values shape {self.values.shape} does not match index lists {expected}"
            )

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_leads(self) -> int:
        return len(self.leads)

    def station_index(self, station: str) -> int:
        try:
            return self.stations.index(station)
        except ValueError:
            raise KeyError(f"unknown station {station!r}") from None


@dataclass(frozen=True)
class ObservationArchive:
    """Observed predictand values indexed (station, valid time)."""

    stations: list[str]
    times: np.ndarray  # int64 seconds since epoch, strictly increasing
    values: np.ndarray  # float64 [station, time], NaN = missing

    def __post_init__(self):
        if len(set(self.stations)) != len(self.stations):
            raise SchemaError("station ids must be unique")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise SchemaError("times must be strictly increasing")
        expected = (len(self.stations), len(self.times))
        if self.values.shape != expected:
            raise SchemaError(
                f"values shape {self.values.shape} does not match index lists {expected}"
            )

    def values_for(self, station: str, times) -> np.ndarray:
        """Observations of a station, by id, at valid times (an array or one time).

        NaN where the station or the time is absent or the value is missing:
        the one rule for pairing a forecast with its observation.
        """
        out = np.full(np.shape(times), np.nan)
        if station in self.stations:
            positions, found = locate(self.times, times)
            out[found] = self.values[self.stations.index(station), positions[found]]
        return out


def locate(axis: np.ndarray, keys) -> tuple[np.ndarray, np.ndarray]:
    """The one key search on a strictly increasing axis: ``(positions, found)``
    of one key or an array of keys, each in the keys' shape. A position
    means nothing where ``found`` is False, and an empty axis finds nothing."""
    if not len(axis):
        return np.zeros(np.shape(keys), np.intp), np.zeros(np.shape(keys), bool)
    # method forms: a search checks its target with one key, where dispatch shows
    positions = np.minimum(axis.searchsorted(keys), len(axis) - 1)
    return positions, axis[positions] == keys


def sorted_distinct(values) -> np.ndarray:
    """The sorted distinct entries of an array, as ``np.unique`` gives them,
    by one sort and a neighbour test: numpy 2.4's ``np.unique`` imports
    ``numpy.ma``, a module no command otherwise needs."""
    ordered = np.sort(np.asarray(values), axis=None)
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


@dataclass(frozen=True)
class ForecastWindow:
    """Multivariate slice of one forecast around a lead time.

    ``data[i][j]`` holds variable ``i`` at window position ``j``, where
    positions span lead offsets ``-t_half .. +t_half``. Windows never
    contain missing values: they are refused at construction instead.
    """

    data: np.ndarray  # float64 [variable, 2*t_half + 1]
    origin: tuple[int, int, int]  # (station index, cycle index, lead index)

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] % 2 != 1:
            raise ValueError(f"window must be [n_variables, odd width], got {self.data.shape}")
        if np.isnan(self.data).any():
            raise WindowUnavailable(f"incomplete window at origin {self.origin}")

    @property
    def n_variables(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ClimatologyStats:
    """Per-variable mean and population standard deviation over a cycle range.

    ``flagged`` marks variables whose sigma is zero, either because the
    series is constant or because fewer than two non-missing samples were
    available. ``population`` is the smallest per-variable sample count.
    """

    mean: np.ndarray
    sigma: np.ndarray
    population: int
    flagged: np.ndarray  # bool per variable

    def __post_init__(self):
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")


def read_text(path) -> str:
    """The whole text of a config or checkpoint file, decoded as UTF-8, or
    of a CSV file whose block read failed, to name the fault.

    A file that cannot be read is a :class:`DataError` and a byte that is
    not UTF-8 a :class:`SchemaError`, both naming the file.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise DataError(f"{path}: cannot read: {err.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[: err.start].decode("utf-8") + "x").splitlines())
        raise SchemaError(
            f"{path}: line {line}: not UTF-8 text (byte 0x{data[err.start]:02x})"
        ) from None


def read_settings(path, lines, known: Callable[[str], bool]) -> dict[str, tuple[int, str]]:
    """Key -> (line number, value) of (line number, text) pairs of key=value
    lines, in file order. Whitespace around key and value is stripped, and
    blank and ``#`` lines are skipped. A line without ``=``, a repeated key
    and a key that ``known`` refuses are a :class:`SchemaError` at their line."""
    settings: dict[str, tuple[int, str]] = {}
    for number, line in lines:
        text = line.strip()
        if not text or text[0] == "#":
            continue
        key, equals, value = (part.strip() for part in text.partition("="))
        if not equals:
            raise SchemaError(f"{path}: line {number}: expected key=value, got {text!r}")
        if key in settings:
            raise SchemaError(f"{path}: line {number}: duplicate key {key}")
        if not known(key):
            raise SchemaError(f"{path}: line {number}: unknown key {key!r}")
        settings[key] = (number, value)
    return settings


def open_output(path):
    """Open an output file for UTF-8 text, replacing any file at ``path``.

    The one way analogkit writes a file. An existing file is unlinked and a
    new one created in its place, so a rerun into the same output directory
    never writes through a symlink or hard link to an earlier output. It
    also skips the disk wait of a truncating rewrite: on ext4 a truncating
    ``open(path, "w")`` of a file written moments before waits 40-90 ms for
    the old data's writeback, where unlink and create take about 0.2 ms.
    Renaming a temporary file over the old one waits as long, and nothing
    is synced: outputs were never promised to be durable. An output that
    cannot be written is a :class:`DataError` naming the path.
    """
    try:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise DataError(f"{path}: cannot write: {err.strerror}") from None


class _Key(NamedTuple):
    label: str  # field name in "unparsable" messages
    parse: Callable[[list[str]], list]  # distinct strings -> keys, ValueError if one fails
    as_written: bool  # a duplicate-key message shows the text, not the parsed key


_INT64 = np.iinfo(np.int64)


def _lead(text: str) -> int:
    lead = parse_int(text)
    if not _INT64.min <= lead <= _INT64.max:
        raise ValueError(f"lead_s {text!r} out of the int64 range")
    return lead


# (column, text): read only the records that hold ``text`` in that column
_Where = tuple[int, str] | None

_NAME = _Key("name", list, True)
_TIME = _Key("timestamp", lambda texts: parse_times(texts).tolist(), True)
_LEAD = _Key("lead_s", lambda texts: [_lead(t) for t in texts], False)
_RANK = _Key("member_rank", lambda texts: list(map(parse_int, texts)), False)


def _axis(parse, first: dict) -> tuple[list, np.ndarray]:
    """The sorted axis of a key column's distinct parsed keys, and the axis
    position of each distinct text, in the order ``first`` numbered them.

    Only the distinct texts are parsed. Raises ValueError when one does not.
    """
    keys = parse(list(first))  # in order of first row
    axis = sorted(set(keys))
    position = {key: i for i, key in enumerate(axis)}
    return axis, np.array([position[key] for key in keys], np.intp)


def _values(column: list[str], empty_is_missing: bool) -> np.ndarray:
    """Parse value fields, each a finite decimal or, where ``empty_is_missing``,
    an empty field read as missing (NaN). Raises ValueError on any other."""
    if not _decimal_chars_only("".join(column)):
        raise ValueError("a value is outside the decimal grammar")
    empty = column.count("")
    # numpy's array constructor calls float() on each string, an empty field read as "nan"
    values = np.array([t or "nan" for t in column] if empty else column, dtype=float)
    # allowed empty fields are the only NaNs, and no infinity is allowed
    if np.count_nonzero(np.isfinite(values)) != len(column) - (empty if empty_is_missing else 0):
        raise ValueError("a value is neither finite nor an allowed empty field")
    return values


def _value_problem(text: str, empty_is_missing: bool) -> str:
    """Why a value field is rejected, or '' when it is a finite decimal or an
    allowed empty field."""
    if text == "":
        return "" if empty_is_missing else "missing value ''"
    try:
        value = parse_decimal(text)
    except ValueError:
        return f"unparsable value {text!r}"
    return "" if math.isfinite(value) else f"non-finite value {text!r}"


def _first_fault(
    path, header: list[str], keys: Sequence[_Key], empty_is_missing: bool, where: _Where
):
    """The :class:`SchemaError` of the first offending record of a CSV file,
    read whole; a missing or bad header, an unreadable file and a byte that
    is not UTF-8 are raised at once.

    Walks the records in file order and checks each one's column count, then
    for each record that ``where`` selects its key columns, duplicate key
    and value, in that order. Each key column's parser runs once per
    distinct text.
    """
    lines = read_text(path).splitlines()
    start = next((n for n, line in enumerate(lines) if line.strip() and line[0] != "#"), None)
    if start is None:
        raise SchemaError(f"{path}: no header line, expected {','.join(header)}")
    if lines[start].split(",") != header:
        raise SchemaError(f"{path}: line {start + 1}: bad header {lines[start]!r}")
    parsed = [{} for _ in keys]  # per key column: text -> parsed key
    seen = set()

    def problem(fields: list[str]) -> str:
        if len(fields) != len(header):
            return f"expected {len(header)} columns, got {len(fields)}"
        if where is not None and fields[where[0]] != where[1]:
            return ""
        try:
            cell = tuple(map(dict.__getitem__, parsed, fields))
        except KeyError:  # a key text met for the first time
            for key, memo, text in zip(keys, parsed, fields):
                if text not in memo:
                    try:
                        memo[text] = key.parse([text])[0]
                    except ValueError:
                        return f"unparsable {key.label} {text!r}"
            cell = tuple(map(dict.__getitem__, parsed, fields))
        if cell in seen:
            shown = (t if key.as_written else str(k) for key, t, k in zip(keys, fields, cell))
            return f"duplicate key ({','.join(shown)})"
        seen.add(cell)
        return _value_problem(fields[len(keys)], empty_is_missing)

    for number, line in enumerate(islice(lines, start + 1, None), start + 2):
        if line.strip() and line[0] != "#" and (message := problem(line.split(","))):
            return SchemaError(f"{path}: line {number}: {message}")
    raise AssertionError(f"{path}: a bulk check failed, but no record fails its own checks")


def _record_blocks(path, header: list[str]) -> Iterator[list[str]]:
    """The record lines of a CSV file, one list per block of whole lines.

    The file is read :data:`_BLOCK_BYTES` at a time and cut after the last
    ``\\n`` of each read, the rest carried over (a longer line extends its
    block). A cut after ``\\n`` splits no UTF-8 sequence and no ``\\r\\n``,
    so the blocks decode and split into exactly the lines of the whole text.
    Raises ValueError on a byte that is not UTF-8 or a missing or bad header.
    """
    found = False
    pieces: list[bytes] = []  # the bytes read since the last "\n"
    with open(path, "rb") as fh:
        # a closing "\n" ends the last line; at most it adds a blank line
        for data in chain(iter(partial(fh.read, _BLOCK_BYTES), b""), [b"\n"]):
            cut = data.rfind(b"\n") + 1
            if not cut:
                pieces.append(data)
                continue
            pieces.append(data[:cut])
            lines = b"".join(pieces).decode("utf-8").splitlines()
            body = [line for line in lines if line.strip() and line[0] != "#"]
            del lines  # the caller frees the line strings while this waits
            pieces = [data[cut:]]
            if body and not found:
                if body[0].split(",") != header:
                    raise ValueError("bad header")
                found = True
                del body[0]
            yield body
    if not found:
        raise ValueError("no header")


def _read_archive(
    path,
    header: list[str],
    keys: Sequence[_Key],
    empty_is_missing: bool = True,
    where: _Where = None,
) -> tuple[Sequence[list], np.ndarray, np.ndarray, int]:
    """Columnar read of a CSV of key columns, one value column and any
    further columns, which are counted but not parsed.

    Returns the sorted axis of each key column, each record's cell (its flat
    index over the axes) and value, and the number of records in the file.
    An empty value is NaN where ``empty_is_missing`` and an error otherwise.
    Every record's column count is checked; with ``where``, a (column, text)
    pair, only the records holding that text in that column are checked
    further and read. The checks run in bulk, block by block; when one
    fails, or the file cannot be read, :func:`_first_fault` reads the whole
    file and names the fault.
    """
    width = len(header) + 1
    # per key column: distinct text -> its number in order of first row
    firsts = [defaultdict(count().__next__) for _ in keys]
    codes: list[list[np.ndarray]] = [[] for _ in keys]
    values: list[np.ndarray] = []
    records = 0
    try:  # each bulk check raises ValueError when it fails
        for body in _record_blocks(path, header):
            # records are joined by a "\n" field, which no line holds: every
            # record has len(header) fields exactly when each separator sits
            # width apart
            n_lines = len(body)
            records += n_lines
            joined = ",\n,".join(body)
            del body  # the line strings go before the field strings arrive
            fields = joined.split(",") if joined else []
            del joined
            if n_lines and not (
                len(fields) == width * n_lines - 1
                and fields[width - 1 :: width].count("\n") == n_lines - 1
            ):
                raise ValueError("a record has the wrong column count")
            columns = [fields[i::width] for i in range(len(keys) + 1)]
            del fields
            if where is not None:
                keep = list(map(where[1].__eq__, columns[where[0]]))
                n_lines = keep.count(True)
                columns = [list(compress(column, keep)) for column in columns]
                del keep
            for first, column, texts in zip(firsts, codes, columns):
                column.append(np.fromiter(map(first.__getitem__, texts), np.intp, n_lines))
            values.append(_values(columns[len(keys)], empty_is_missing))
            del columns
        axes, positions = zip(*(_axis(key.parse, first) for key, first in zip(keys, firsts)))
        # each column's block codes go as soon as the column is joined
        columns = [p[np.concatenate(codes.pop(0))] for p in positions]
        cells = np.ravel_multi_index(columns, tuple(map(len, axes)))
        del columns
        ordered = np.sort(cells)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("a key is repeated")
    except (OSError, ValueError):
        raise _first_fault(path, header, keys, empty_is_missing, where) from None
    return axes, cells, np.concatenate(values), records


def _read_dense(
    path, header: list[str], keys: Sequence[_Key], where: _Where = None
) -> tuple[Sequence, np.ndarray]:
    """Key axes and dense values of an archive CSV, NaN where a cell has no
    value; a file without records is an error, and one whose records
    ``where`` all passes over has empty axes."""
    axes, cells, values, records = _read_archive(path, header, keys, where=where)
    if not records:
        raise SchemaError(f"{path}: no records")
    dense = np.full(tuple(map(len, axes)), np.nan)
    dense.reshape(-1)[cells] = values
    return axes, dense


def load_forecasts(path, variable: str | None = None) -> ForecastArchive:
    """Load a forecast CSV into a dense archive.

    Index lists are the sorted distinct values found in the file; cells not
    present in the file are missing. Duplicate (station, variable, cycle,
    lead) keys and malformed rows are errors naming the offending line.

    With ``variable``, only that variable's records are read: the index
    lists are those of its records, and ``variables`` is ``[variable]``, or
    empty, with every axis, where the file holds records but none of it.
    Every record's column count is still checked, but a fault in a record
    of another variable is not looked for.
    """
    (stations, variables, cycles, leads), values = _read_dense(
        path, FORECAST_HEADER, (_NAME, _NAME, _TIME, _LEAD),
        None if variable is None else (1, variable),
    )
    return ForecastArchive(
        stations,
        variables,
        np.array(cycles, dtype=np.int64),
        np.array(leads, dtype=np.int64),
        values,
    )


def load_predictions(path) -> list[tuple[tuple[str, int, int], np.ndarray]]:
    """The ensembles of a predictions CSV.

    Returns ((station, cycle seconds, lead_s), members ordered by rank) per
    target, targets in order of first appearance. A file without records
    has no targets, and a repeated (target, member_rank) is a duplicate key.
    """
    (stations, cycles, leads, ranks), cells, values, _ = _read_archive(
        path, PREDICTION_HEADER, (_NAME, _TIME, _LEAD, _RANK), empty_is_missing=False
    )
    if not cells.size:
        return []
    targets, firsts, counts = np.unique(cells // len(ranks), return_index=True, return_counts=True)
    # in cell order the records run by target, then by rank
    members = np.split(values[np.argsort(cells)], np.cumsum(counts)[:-1])
    shape = (len(stations), len(cycles), len(leads))
    s, c, l = (a.tolist() for a in np.unravel_index(targets, shape))
    keys = [(stations[i], cycles[j], leads[k]) for i, j, k in zip(s, c, l)]
    return [(keys[t], members[t]) for t in np.argsort(firsts).tolist()]


def write_rows(fh, groups: Iterable[tuple[str, list[str], list[float]]]) -> None:
    """The one writer of archives and predictions: each group ``(head, pieces,
    floats)`` is a row ``head + piece`` per piece, whose ``%.17g`` slots take
    ``floats`` in order (heads and pieces hold no other ``%``: double it).
    Groups are gathered into chunks of :data:`_CHUNK_ROWS` rows or more, and
    each chunk is written with one ``%``-format."""
    texts, values, rows = [], [], 0
    for head, pieces, floats in groups:
        if pieces:  # a group without pieces writes no row, not even its head
            texts.append(head + head.join(pieces))
            values += floats
            rows += len(pieces)
        if rows >= _CHUNK_ROWS:
            fh.write("".join(texts) % tuple(values))
            texts, values, rows = [], [], 0
    fh.write("".join(texts) % tuple(values))


def _archive_groups(heads: list[str], pieces: list[str], values: np.ndarray):
    """The :func:`write_rows` groups of a dense archive: a row per piece under
    each head, with that head's row of ``values`` in the slots. A missing
    (NaN) value leaves its field empty, its piece without the slot."""
    for head, row in zip(heads, values.reshape(len(heads), len(pieces))):
        head = head.replace("%", "%%")
        missing = np.isnan(row)
        for start in range(0, len(pieces), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            chunk = pieces[start:stop]
            gaps = np.flatnonzero(missing[start:stop]).tolist()
            for i in gaps:
                chunk[i] = chunk[i].replace("%.17g", "")
            filled = row[start:stop]
            yield head, chunk, (np.delete(filled, gaps) if gaps else filled).tolist()


def write_forecasts(archive: ForecastArchive, path) -> None:
    """Write a forecast archive back to the CSV format (all cells, missing as empty)."""
    leads = archive.leads.tolist()
    with open_output(path) as fh:
        fh.write(",".join(FORECAST_HEADER) + "\n")
        write_rows(fh, _archive_groups(
            [f"{s},{v}," for s in archive.stations for v in archive.variables],
            [f"{t},{l},%.17g\n" for t in format_times(archive.cycles) for l in leads],
            archive.values,
        ))


def load_observations(path) -> ObservationArchive:
    """Load an observation CSV into a dense (station, time) archive."""
    (stations, times), values = _read_dense(path, OBSERVATION_HEADER, (_NAME, _TIME))
    return ObservationArchive(stations, np.array(times, dtype=np.int64), values)


def write_observations(obs: ObservationArchive, path) -> None:
    """Write an observation archive to the CSV format (all cells, missing as empty)."""
    with open_output(path) as fh:
        fh.write(",".join(OBSERVATION_HEADER) + "\n")
        write_rows(fh, _archive_groups(
            [f"{s}," for s in obs.stations],
            [f"{t},%.17g\n" for t in format_times(obs.times)],
            obs.values,
        ))


def valid_time(archive: ForecastArchive, cycle: int, lead: int) -> int:
    """Valid time of (cycle index, lead index): initialization plus offset."""
    if not 0 <= cycle < archive.n_cycles:
        raise IndexError(f"cycle index {cycle} out of range [0, {archive.n_cycles})")
    if not 0 <= lead < archive.n_leads:
        raise IndexError(f"lead index {lead} out of range [0, {archive.n_leads})")
    return int(archive.cycles[cycle]) + int(archive.leads[lead])


def window_fits(archive: ForecastArchive, lead: int, t_half: int) -> bool:
    """Whether the window of 2*t_half+1 leads centered on ``lead`` fits the lead axis."""
    return lead - t_half >= 0 and lead + t_half < archive.n_leads


def _require_window_fits(archive: ForecastArchive, lead: int, t_half: int) -> None:
    if not window_fits(archive, lead, t_half):
        raise WindowUnavailable(
            f"window out of bounds: lead {lead} with t_half {t_half} "
            f"exceeds lead axis [0, {archive.n_leads})"
        )


def _check_indices(archive: ForecastArchive, station: int, cycles, lead: int, t_half: int):
    """Refuse a negative ``t_half``, then a station, cycle or lead index outside the archive."""
    if t_half < 0:
        raise ValueError("t_half must be nonnegative")
    if not 0 <= station < archive.n_stations:
        raise IndexError(f"station index {station} out of range")
    outside = (cycles < 0) | (cycles >= archive.n_cycles)  # a bool or an array of them
    if np.count_nonzero(outside):
        raise IndexError(f"cycle index {np.extract(outside, cycles)[0]} out of range")
    if not 0 <= lead < archive.n_leads:
        raise IndexError(f"lead index {lead} out of range")


def extract_window(
    archive: ForecastArchive, station: int, cycle: int, lead: int, t_half: int
) -> ForecastWindow:
    """Extract the [variable, 2*t_half+1] window centered on a lead index.

    Raises :class:`WindowUnavailable` when the window extends past the lead
    axis or contains any missing value.
    """
    _check_indices(archive, station, cycle, lead, t_half)
    _require_window_fits(archive, lead, t_half)
    data = archive.values[station, :, cycle, lead - t_half : lead + t_half + 1].copy()
    return ForecastWindow(data=data, origin=(station, cycle, lead))


def window_block(
    archive: ForecastArchive,
    station: int,
    lead: int,
    cycles: Sequence[int] | np.ndarray,
    t_half: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Windows for many cycles at once, the one window reader of search,
    embedding and triplet sampling, checked as :func:`extract_window` is.

    Returns ``(data, available)`` where ``data`` is
    [n_cycles, n_variables, 2*t_half+1] and ``available`` marks rows whose
    window is complete. Where the window leaves the lead axis every row is
    NaN and none is available. A block too large to allocate is a :class:`DataError`.
    """
    cycles = np.asarray(cycles, dtype=int)
    _check_indices(archive, station, cycles, lead, t_half)
    try:
        data = np.full((len(cycles), archive.n_variables, 2 * t_half + 1), np.nan)
    except (MemoryError, ValueError):  # numpy's ValueError: "array is too big"
        raise DataError(f"t_half={t_half} gives windows too wide to allocate") from None
    if window_fits(archive, lead, t_half):  # the indexed axes come first: [cycle, variable, lead]
        data[:] = archive.values[station, :, cycles, lead - t_half : lead + t_half + 1]
    return data, ~np.isnan(data).any(axis=(1, 2))


def variable_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row sample count, mean and population sigma of a [n_variables, n]
    block, over its non-missing values.

    A row with fewer than two samples gets sigma 0, and one with none mean NaN.
    """
    counts = np.sum(~np.isnan(block), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
        mean = np.nanmean(block, axis=1)
        var = np.nanmean((block - mean[:, None]) ** 2, axis=1)
    var = np.where(np.isnan(var), 0.0, var)
    return counts, mean, np.sqrt(np.where(counts >= 2, var, 0.0))


def climatology_stats(
    archive: ForecastArchive, station: int, lead: int, cycles: Sequence[int] | np.ndarray
) -> ClimatologyStats:
    """Per-variable mean and population standard deviation at (station, lead).

    Computed over the non-missing values at the given cycle indices, checked
    as in :func:`extract_window`; variables with fewer than two get sigma 0
    and are flagged. The cycles are sorted first: their order changes no bit.
    """
    cycles = np.sort(np.asarray(cycles, dtype=int))
    if cycles.size == 0:
        raise ValueError("empty cycle range")
    _check_indices(archive, station, cycles, lead, 0)
    counts, mean, sigma = variable_stats(archive.values[station, :, :, lead][:, cycles])
    return ClimatologyStats(
        mean=mean,
        sigma=sigma,
        population=int(counts.min()),
        flagged=(sigma == 0) | (counts < 2),
    )
