"""Forecast and observation archives with CSV ingest.

File formats
------------
Forecast CSV: header ``station,variable,cycle_time,lead_s,value``.
``cycle_time`` is ISO-8601 UTC (``YYYY-MM-DDTHH:MM:SSZ``), ``lead_s`` an
integer offset in seconds, and ``value`` a decimal number or empty for
missing. Observation CSV: header ``station,valid_time,value``.

Predictions CSV (``predict`` writes it below ``#`` provenance lines): header
``station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score``,
one record per ensemble member. ``member_rank`` is an integer, ``member_value``
a required finite decimal; the last two columns are counted but not parsed.

Archives are dense: every combination of the index lists owns a cell, and
cells without a value (absent rows or empty values) hold NaN. Index lists
are the sorted distinct values found in the file. Archives are treated as
immutable after load and are safe to read concurrently.

Loader contract, one reader for all three kinds: the header is the first
line that is neither blank nor ``#``, and blank and ``#`` lines are skipped.
A malformed file raises :class:`SchemaError` naming the file and the line
of the first offending record in file order; within a record the column
count, the key columns, the duplicate key and the value are checked in
that order. Each distinct key string is parsed once, so the cost grows
with the rows but the timestamp parsing only with the distinct times. A
timestamp is accepted exactly when :func:`parse_time` accepts it, and
``lead_s`` must fit int64.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice, repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, SchemaError, WindowUnavailable

TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

FORECAST_HEADER = ["station", "variable", "cycle_time", "lead_s", "value"]
OBSERVATION_HEADER = ["station", "valid_time", "value"]
PREDICTION_HEADER = ["station", "cycle_time", "lead_s", "member_rank", "member_value",
                     "source_cycle_time", "score"]


def parse_time(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp to integer seconds since epoch."""
    dt = datetime.strptime(text, TIME_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


_CANONICAL_TIME = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def parse_times(texts: Sequence[str]) -> np.ndarray:
    """:func:`parse_time` over many strings, as int64 seconds since epoch.

    Canonical ``YYYY-MM-DDTHH:MM:SSZ`` strings are parsed in one
    ``datetime64[s]`` pass, every other string by :func:`parse_time`. The
    result equals :func:`parse_time` element by element, and a string it
    rejects raises ValueError here too.
    """
    texts = list(texts)
    # numpy accepts year 0000, which strptime rejects
    fast = np.array(
        [_CANONICAL_TIME.fullmatch(t) is not None and t[:4] != "0000" for t in texts], dtype=bool
    )
    out = np.empty(len(texts), dtype=np.int64)
    try:
        stamps = [t[:19] for t, f in zip(texts, fast) if f]
        out[fast] = np.array(stamps, dtype="datetime64[s]").astype(np.int64)
    except ValueError:  # a date numpy rejects: leave every string to parse_time
        fast[:] = False
    out[~fast] = [parse_time(t) for t, f in zip(texts, fast) if not f]
    return out


def format_time(seconds: int) -> str:
    """Format integer seconds since epoch as ISO-8601 UTC."""
    return datetime.fromtimestamp(int(seconds), tz=timezone.utc).strftime(TIME_FORMAT)


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

    def station_index(self, station: str) -> int:
        try:
            return self.stations.index(station)
        except ValueError:
            raise KeyError(f"unknown station {station!r}") from None

    def value_at(self, station: int, time: int) -> float:
        """Observation at an exact valid time, NaN when absent or missing."""
        i = np.searchsorted(self.times, time)
        if i < len(self.times) and self.times[i] == time:
            return float(self.values[station, i])
        return float("nan")

    def values_at(self, station: int, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_at` over an array of valid times."""
        times = np.asarray(times)
        idx = np.searchsorted(self.times, times)
        idx_clip = np.minimum(idx, len(self.times) - 1)
        hit = self.times[idx_clip] == times
        out = np.where(hit, self.values[station, idx_clip], np.nan)
        return out.astype(float)

    def values_for(self, station: str, times) -> np.ndarray:
        """Observations of a station, by id, at valid times (an array or one time).

        NaN where the station or the time is absent or the value is missing:
        the one rule for pairing a forecast with its observation.
        """
        if station not in self.stations:
            return np.full(np.shape(times), np.nan)
        return self.values_at(self.stations.index(station), times)


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
    """The whole text of an input file (CSV, config, checkpoint), decoded as UTF-8.

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


def _line_number(path, record: int) -> int:
    """File line number of a record (0-based, blank and '#' lines skipped)."""
    lines = read_text(path).splitlines()
    numbers = [n for n, line in enumerate(lines, 1) if line.strip() and line[0] != "#"]
    return numbers[record + 1]  # the first is the header's


class _Key(NamedTuple):
    label: str  # field name in "unparsable" messages
    parse: Callable[[list[str]], list]  # distinct strings -> keys, ValueError if one fails
    as_written: bool  # a duplicate-key message shows the text, not the parsed key


_INT64 = np.iinfo(np.int64)


def _lead(text: str) -> int:
    lead = int(text)
    if not _INT64.min <= lead <= _INT64.max:
        raise ValueError(f"lead_s {text!r} out of the int64 range")
    return lead


_NAME = _Key("name", list, True)
_TIME = _Key("timestamp", lambda texts: parse_times(texts).tolist(), True)
_LEAD = _Key("lead_s", lambda texts: [_lead(t) for t in texts], False)
_RANK = _Key("member_rank", lambda texts: list(map(int, texts)), False)


def _parses(parse, text: str) -> bool:
    try:
        parse([text])
    except ValueError:
        return False
    return True


def _codes(column: list[str], parse) -> tuple[list, np.ndarray, int | None]:
    """Code a key column on the sorted axis of its distinct parsed keys.

    Only the distinct strings are parsed. Returns ``(axis, codes, bad)``:
    ``bad`` is the first row whose string does not parse (None when all
    do), and ``codes`` covers the rows before it.
    """
    distinct = list(dict.fromkeys(column))  # in order of first row
    bad = None
    try:
        keys = parse(distinct)
    except ValueError:
        # every row before the first row of the first failing distinct
        # string holds one of the distinct strings before it
        j = next(j for j, text in enumerate(distinct) if not _parses(parse, text))
        bad, distinct = distinct[j], distinct[:j]
        keys = parse(distinct)
    axis = sorted(set(keys))
    position = {key: i for i, key in enumerate(axis)}
    code = {text: position[key] for text, key in zip(distinct, keys)}
    n = len(column) if bad is None else column.index(bad)
    codes = np.fromiter(map(code.__getitem__, islice(column, n)), np.intp, n)
    return axis, codes, None if bad is None else n


def _value(text: str) -> float:
    return float(text) if text else math.nan


def _value_problem(text: str, empty_is_missing: bool) -> str:
    """Why a value field is rejected, or '' when it is a finite decimal or an
    allowed empty field."""
    if text == "":
        return "" if empty_is_missing else "missing value"
    try:
        value = float(text)
    except ValueError:
        return "unparsable value"
    return "" if math.isfinite(value) else "non-finite value"


def _values(
    column: list[str], empty_is_missing: bool
) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """Parse value fields: each a finite decimal, or empty for missing (NaN)
    where ``empty_is_missing``.

    Returns ``(values, None)``, or ``(None, (row, message))`` for the first
    field that is neither.
    """
    try:
        values = np.fromiter(map(_value, column), float, len(column))
        # allowed empty fields are the only NaNs, and no infinity is allowed
        empty = column.count("") if empty_is_missing else 0
        if np.count_nonzero(np.isfinite(values)) == len(column) - empty:
            return values, None
    except ValueError:
        pass
    # in order of first row
    text = next(t for t in dict.fromkeys(column) if _value_problem(t, empty_is_missing))
    return None, (column.index(text), f"{_value_problem(text, empty_is_missing)} {text!r}")


def _read_archive(
    path, header: list[str], keys: Sequence[_Key], empty_is_missing: bool = True
) -> tuple[list[list], np.ndarray, np.ndarray]:
    """Columnar read of a CSV of key columns, one value column and any
    further columns, which are counted but not parsed.

    Returns the sorted axis of each key column, each record's cell (its flat
    index over the axes) and each record's value. An empty value is NaN
    where ``empty_is_missing`` and an error otherwise. Raises the
    :class:`SchemaError` of the first offending record in file order.
    """
    lines = read_text(path).splitlines()
    # the header is the first line that is neither blank nor '#'
    start = next((n for n, line in enumerate(lines) if line.strip() and line[0] != "#"), None)
    if start is None:
        raise SchemaError(f"{path}: no header line, expected {','.join(header)}")
    if lines[start].split(",") != header:
        raise SchemaError(f"{path}: line {start + 1}: bad header {lines[start]!r}")
    body = [line for line in islice(lines, start + 1, None) if line.strip() and line[0] != "#"]
    del lines
    # (record, message) per failed check, in the order one record's fields
    # are checked: the first minimal record names the offence
    offences = []
    commas = np.fromiter(map(str.count, body, repeat(",")), np.intp, len(body))
    wrong = np.flatnonzero(commas != len(header) - 1)
    if wrong.size:
        record = int(wrong[0])
        offences.append((record, f"expected {len(header)} columns, got {commas[record] + 1}"))
        del body[record:]
    joined = ",".join(body)
    del body  # the line strings go before the field strings arrive
    fields = joined.split(",") if joined else []
    del joined
    columns = [fields[i :: len(header)] for i in range(len(keys) + 1)]
    del fields

    axes, codes = [], []
    for key, column in zip(keys, columns):
        axis, code, bad = _codes(column, key.parse)
        if bad is not None:
            offences.append((bad, f"unparsable {key.label} {column[bad]!r}"))
        axes.append(axis)
        codes.append(code)

    n = min((record for record, _ in offences), default=len(columns[0]))  # clean before n
    cells = np.ravel_multi_index([code[:n] for code in codes], tuple(map(len, axes)))
    _, firsts = np.unique(cells, return_index=True)
    if firsts.size < n:
        repeated = np.ones(n, dtype=bool)
        repeated[firsts] = False
        record = int(np.argmax(repeated))
        shown = [
            column[record] if key.as_written else str(axis[code[record]])
            for key, column, axis, code in zip(keys, columns, axes, codes)
        ]
        offences.append((record, f"duplicate key ({','.join(shown)})"))

    values, offence = _values(columns[len(keys)][:n], empty_is_missing)
    if offence is not None:
        offences.append(offence)
    if offences:
        record, message = min(offences, key=lambda offence: offence[0])
        raise SchemaError(f"{path}: line {_line_number(path, record)}: {message}")
    return axes, cells, values


def _read_dense(path, header: list[str], keys: Sequence[_Key]) -> tuple[list[list], np.ndarray]:
    """Key axes and dense values of an archive CSV, NaN where a cell has no value."""
    axes, cells, values = _read_archive(path, header, keys)
    if not cells.size:
        raise SchemaError(f"{path}: no records")
    dense = np.full(tuple(map(len, axes)), np.nan)
    dense.reshape(-1)[cells] = values
    return axes, dense


def load_forecasts(path) -> ForecastArchive:
    """Load a forecast CSV into a dense archive.

    Index lists are the sorted distinct values found in the file; cells not
    present in the file are missing. Duplicate (station, variable, cycle,
    lead) keys and malformed rows are errors naming the offending line.
    """
    (stations, variables, cycles, leads), values = _read_dense(
        path, FORECAST_HEADER, (_NAME, _NAME, _TIME, _LEAD)
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
    (stations, cycles, leads, ranks), cells, values = _read_archive(
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


def _value_text(v: float) -> str:
    return "" if v != v else format_float(v)


def write_forecasts(archive: ForecastArchive, path) -> None:
    """Write a forecast archive back to the CSV format (all cells, missing as empty)."""
    times = [format_time(c) for c in archive.cycles.tolist()]
    leads = archive.leads.tolist()
    with open_output(path) as fh:
        fh.write(",".join(FORECAST_HEADER) + "\n")
        for si, station in enumerate(archive.stations):
            for vi, variable in enumerate(archive.variables):
                for time, row in zip(times, archive.values[si, vi].tolist()):
                    head = f"{station},{variable},{time},"
                    fh.write(
                        "".join(
                            f"{head}{lead},{_value_text(v)}\n" for lead, v in zip(leads, row)
                        )
                    )


def load_observations(path) -> ObservationArchive:
    """Load an observation CSV into a dense (station, time) archive."""
    (stations, times), values = _read_dense(path, OBSERVATION_HEADER, (_NAME, _TIME))
    return ObservationArchive(stations, np.array(times, dtype=np.int64), values)


def write_observations(obs: ObservationArchive, path) -> None:
    times = [format_time(t) for t in obs.times.tolist()]
    with open_output(path) as fh:
        fh.write(",".join(OBSERVATION_HEADER) + "\n")
        for station, row in zip(obs.stations, obs.values.tolist()):
            fh.write(
                "".join(f"{station},{time},{_value_text(v)}\n" for time, v in zip(times, row))
            )


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


def extract_window(
    archive: ForecastArchive, station: int, cycle: int, lead: int, t_half: int
) -> ForecastWindow:
    """Extract the [variable, 2*t_half+1] window centered on a lead index.

    Raises :class:`WindowUnavailable` when the window extends past the lead
    axis or contains any missing value.
    """
    if t_half < 0:
        raise ValueError("t_half must be nonnegative")
    if not 0 <= station < archive.n_stations:
        raise IndexError(f"station index {station} out of range")
    if not 0 <= cycle < archive.n_cycles:
        raise IndexError(f"cycle index {cycle} out of range")
    if not 0 <= lead < archive.n_leads:
        raise IndexError(f"lead index {lead} out of range")
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
    """Windows for many cycles at once.

    Returns ``(data, available)`` where ``data`` is
    [n_cycles, n_variables, 2*t_half+1] and ``available`` marks rows whose
    window is complete. Raises :class:`WindowUnavailable` when the lead
    slice itself is out of bounds (then no cycle has a window).
    """
    cycles = np.asarray(cycles, dtype=int)
    _require_window_fits(archive, lead, t_half)
    # [n_var, n_cycles, width] -> [n_cycles, n_var, width]
    data = archive.values[station, :, :, lead - t_half : lead + t_half + 1][:, cycles, :]
    data = np.transpose(data, (1, 0, 2))
    available = ~np.isnan(data).any(axis=(1, 2))
    return data, available


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

    Computed over the non-missing values at the given cycle indices.
    Variables with fewer than two non-missing samples get sigma 0 and are
    flagged; the result is invariant to the order of the cycle indices.
    """
    cycles = np.asarray(cycles, dtype=int)
    if cycles.size == 0:
        raise ValueError("empty cycle range")
    counts, mean, sigma = variable_stats(archive.values[station, :, :, lead][:, cycles])
    return ClimatologyStats(
        mean=mean,
        sigma=sigma,
        population=int(counts.min()),
        flagged=(sigma == 0) | (counts < 2),
    )
