"""Row-wise CSV loaders and writers, kept as the oracle for the columnar ones.

These are the loaders and writers ``analogkit.archive`` used before ingest
became columnar and its writers chunked: one ``strptime`` per row, one
:func:`~analogkit.archive.format_float` per value and one Python loop over
the rows. The predictions loader is written the same way from the contract
in the ``analogkit.archive`` docstring, and the predictions writer is
``analogkit.cli.write_predictions`` as it wrote one member at a time. The
input grammar is stated here again, as regular expressions, rather than
imported, and :func:`parse_times` keeps the package's check of one
timestamp at a time. The property tests compare the package against them,
archive for archive, error message for error message and byte for byte.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

import numpy as np

from analogkit.archive import (
    FORECAST_HEADER,
    OBSERVATION_HEADER,
    PREDICTION_HEADER,
    ForecastArchive,
    ObservationArchive,
    format_float,
    format_time,
)
from analogkit.errors import SchemaError

INTEGER = re.compile(r"[+-]?[0-9]+")
DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
NON_FINITE = re.compile(r"[+-]?(nan|inf|infinity)", re.ASCII | re.IGNORECASE)
TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def parse_time(text: str) -> int:
    """Seconds since epoch of a ``YYYY-MM-DDTHH:MM:SSZ`` timestamp in ASCII
    digits; strptime refuses year 0000 and impossible dates and times."""
    if not TIMESTAMP.fullmatch(text):
        raise ValueError(f"not a timestamp: {text!r}")
    stamp = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def parse_times(texts: list[str]) -> np.ndarray:
    """``analogkit.archive.parse_times`` as it was before its one-pass check:
    one regular expression per text, the first failing text named, then
    numpy's calendar check and conversion."""
    for text in texts:
        if not TIMESTAMP.fullmatch(text) or text.startswith("0000"):
            raise ValueError(f"not a timestamp: {text!r}")
    return np.array([t[:19] for t in texts], dtype="datetime64[s]").astype(np.int64)


def _read_rows(path, header: list[str], require_records: bool = True):
    """Yield (line_number, fields) for a CSV file, validating the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    # the header is the first line that is neither blank nor a comment
    at = next((i for i, l in enumerate(lines) if l.strip() and not l.startswith("#")), None)
    if at is None:
        raise SchemaError(f"{path}: no header line, expected {','.join(header)}")
    got = lines[at].split(",")
    if got != header:
        raise SchemaError(f"{path}: line {at + 1}: bad header {lines[at]!r}")
    n_records = 0
    for lineno, line in enumerate(lines[at + 1 :], start=at + 2):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise SchemaError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        n_records += 1
        yield lineno, fields
    if n_records == 0 and require_records:
        raise SchemaError(f"{path}: no records")


def _parse_value(text: str, path, lineno: int) -> float:
    """Parse a value field: empty means missing, otherwise a finite decimal."""
    if text == "":
        return float("nan")
    if not (DECIMAL.fullmatch(text) or NON_FINITE.fullmatch(text)):
        raise SchemaError(f"{path}: line {lineno}: unparsable value {text!r}")
    v = float(text)
    if not np.isfinite(v):
        raise SchemaError(f"{path}: line {lineno}: non-finite value {text!r}")
    return v


def _parse_time_field(text: str, path, lineno: int) -> int:
    try:
        return parse_time(text)
    except ValueError:
        raise SchemaError(f"{path}: line {lineno}: unparsable timestamp {text!r}") from None


def _parse_int(text: str, label: str, path, lineno: int) -> int:
    if not INTEGER.fullmatch(text):
        raise SchemaError(f"{path}: line {lineno}: unparsable {label} {text!r}")
    return int(text)


def load_forecasts(path) -> ForecastArchive:
    """Load a forecast CSV into a dense archive.

    Index lists are the sorted distinct values found in the file; cells not
    present in the file are missing. Duplicate (station, variable, cycle,
    lead) keys and malformed rows are errors naming the offending line.
    """
    records = []
    seen = set()
    for lineno, (station, variable, cycle_text, lead_text, value_text) in _read_rows(
        path, FORECAST_HEADER
    ):
        cycle = _parse_time_field(cycle_text, path, lineno)
        lead = _parse_int(lead_text, "lead_s", path, lineno)
        key = (station, variable, cycle, lead)
        if key in seen:
            raise SchemaError(
                f"{path}: line {lineno}: duplicate key "
                f"({station},{variable},{cycle_text},{lead})"
            )
        seen.add(key)
        records.append((key, _parse_value(value_text, path, lineno)))

    stations = sorted({k[0] for k, _ in records})
    variables = sorted({k[1] for k, _ in records})
    cycles = np.array(sorted({k[2] for k, _ in records}), dtype=np.int64)
    leads = np.array(sorted({k[3] for k, _ in records}), dtype=np.int64)
    s_idx = {s: i for i, s in enumerate(stations)}
    v_idx = {v: i for i, v in enumerate(variables)}
    c_idx = {c: i for i, c in enumerate(cycles.tolist())}
    l_idx = {l: i for i, l in enumerate(leads.tolist())}

    values = np.full((len(stations), len(variables), len(cycles), len(leads)), np.nan)
    for (station, variable, cycle, lead), v in records:
        values[s_idx[station], v_idx[variable], c_idx[cycle], l_idx[lead]] = v
    return ForecastArchive(stations, variables, cycles, leads, values)


def write_forecasts(archive: ForecastArchive, path) -> None:
    """Write a forecast archive back to the CSV format (all cells, missing as empty)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FORECAST_HEADER) + "\n")
        for si, station in enumerate(archive.stations):
            for vi, variable in enumerate(archive.variables):
                for ci, cycle in enumerate(archive.cycles.tolist()):
                    for li, lead in enumerate(archive.leads.tolist()):
                        v = archive.values[si, vi, ci, li]
                        text = "" if np.isnan(v) else format_float(v)
                        fh.write(f"{station},{variable},{format_time(cycle)},{lead},{text}\n")


def load_observations(path) -> ObservationArchive:
    """Load an observation CSV into a dense (station, time) archive."""
    records = []
    seen = set()
    for lineno, (station, time_text, value_text) in _read_rows(path, OBSERVATION_HEADER):
        t = _parse_time_field(time_text, path, lineno)
        key = (station, t)
        if key in seen:
            raise SchemaError(f"{path}: line {lineno}: duplicate key ({station},{time_text})")
        seen.add(key)
        records.append((key, _parse_value(value_text, path, lineno)))

    stations = sorted({k[0] for k, _ in records})
    times = np.array(sorted({k[1] for k, _ in records}), dtype=np.int64)
    s_idx = {s: i for i, s in enumerate(stations)}
    t_idx = {t: i for i, t in enumerate(times.tolist())}
    values = np.full((len(stations), len(times)), np.nan)
    for (station, t), v in records:
        values[s_idx[station], t_idx[t]] = v
    return ObservationArchive(stations, times, values)


def write_observations(obs: ObservationArchive, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(OBSERVATION_HEADER) + "\n")
        for si, station in enumerate(obs.stations):
            for ti, t in enumerate(obs.times.tolist()):
                v = obs.values[si, ti]
                text = "" if np.isnan(v) else format_float(v)
                fh.write(f"{station},{format_time(t)},{text}\n")


def load_predictions(path) -> list[tuple[tuple[str, int, int], np.ndarray]]:
    """The ensembles of a predictions CSV: ((station, cycle, lead_s), members
    ordered by rank) per target, targets in order of first appearance."""
    targets: dict[tuple[str, int, int], dict[int, float]] = {}
    for lineno, (station, cycle_text, lead_text, rank_text, value_text, _, _) in _read_rows(
        path, PREDICTION_HEADER, require_records=False
    ):
        cycle = _parse_time_field(cycle_text, path, lineno)
        lead = _parse_int(lead_text, "lead_s", path, lineno)
        if not -(2**63) <= lead < 2**63:
            raise SchemaError(f"{path}: line {lineno}: unparsable lead_s {lead_text!r}")
        rank = _parse_int(rank_text, "member_rank", path, lineno)
        members = targets.setdefault((station, cycle, lead), {})
        if rank in members:
            raise SchemaError(
                f"{path}: line {lineno}: duplicate key ({station},{cycle_text},{lead},{rank})"
            )
        if value_text == "":
            raise SchemaError(f"{path}: line {lineno}: missing value ''")
        members[rank] = _parse_value(value_text, path, lineno)
    return [
        (target, np.array([members[rank] for rank in sorted(members)]))
        for target, members in targets.items()
    ]


def write_predictions(rows, fcst: ForecastArchive, cycle_times: list[str], path,
                      header_lines: list[str]) -> None:
    """Write the members of the (station, cycle, lead, ensemble) ``rows``,
    one write per member; ``cycle_times`` holds the formatted time of every
    archive cycle."""
    leads = fcst.leads.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(PREDICTION_HEADER) + "\n")
        for station, cycle, lead, ens in rows:
            target = f"{station},{cycle_times[cycle]},{leads[lead]}"
            for rank, (member, src_cycle, score) in enumerate(
                zip(ens.members.tolist(), ens.cycles.tolist(), ens.scores.tolist()), start=1
            ):
                fh.write(
                    f"{target},{rank},{format_float(member)},"
                    f"{cycle_times[src_cycle]},{format_float(score)}\n"
                )
