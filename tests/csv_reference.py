"""Row-wise CSV loaders and writers, kept as the oracle for the columnar ones.

These are the loaders and writers ``analogkit.archive`` used before ingest
became columnar: one ``strptime`` per row and one Python loop over the rows.
The property tests compare the package against them, archive for archive,
error message for error message and byte for byte.
"""

from __future__ import annotations

import numpy as np

from analogkit.archive import (
    FORECAST_HEADER,
    OBSERVATION_HEADER,
    ForecastArchive,
    ObservationArchive,
    format_float,
    format_time,
    parse_time,
)
from analogkit.errors import SchemaError


def _read_rows(path, header: list[str]):
    """Yield (line_number, fields) for a CSV file, validating the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file, expected header {','.join(header)}")
    got = lines[0].split(",")
    if got != header:
        raise SchemaError(f"{path}: line 1: bad header {lines[0]!r}")
    n_records = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise SchemaError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        n_records += 1
        yield lineno, fields
    if n_records == 0:
        raise SchemaError(f"{path}: no records")


def _parse_value(text: str, path, lineno: int) -> float:
    """Parse a value field: empty means missing, otherwise a finite decimal."""
    if text == "":
        return float("nan")
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(f"{path}: line {lineno}: unparsable value {text!r}") from None
    if not np.isfinite(v):
        raise SchemaError(f"{path}: line {lineno}: non-finite value {text!r}")
    return v


def _parse_time_field(text: str, path, lineno: int) -> int:
    try:
        return parse_time(text)
    except ValueError:
        raise SchemaError(f"{path}: line {lineno}: unparsable timestamp {text!r}") from None


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
        try:
            lead = int(lead_text)
        except ValueError:
            raise SchemaError(f"{path}: line {lineno}: unparsable lead_s {lead_text!r}") from None
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
