"""The columnar CSV loaders against the row-wise oracle in csv_reference.

Random archives, written with the spellings the format allows, must load
to the same index lists and the same value bits. Mutated files must raise
the same exception with the same message, which pins the first offending
line and the order of the checks within one record.
"""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import csv_reference as ref
from analogkit.archive import (
    format_time,
    load_forecasts,
    load_observations,
    parse_time,
    parse_times,
)

SETTINGS = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

FORECAST_HEADER = "station,variable,cycle_time,lead_s,value"
OBSERVATION_HEADER = "station,valid_time,value"

# 1970-01-01 .. 2037-12-31 and the four-digit edges strptime accepts
TIMES = st.one_of(
    st.integers(0, 2145916799), st.sampled_from([-62135596800, 253402300799])
)


@st.composite
def time_text(draw, seconds):
    """One spelling of a timestamp that parse_time accepts."""
    t = datetime.fromtimestamp(seconds, tz=timezone.utc)
    style = draw(st.sampled_from(["canonical", "unpadded", "lowercase"]))
    if style == "unpadded":
        return f"{t.year:04d}-{t.month}-{t.day}T{t.hour}:{t.minute}:{t.second}Z"
    text = f"{t.year:04d}-{t.month:02d}-{t.day:02d}T{t.hour:02d}:{t.minute:02d}:{t.second:02d}Z"
    return text.lower() if style == "lowercase" else text


@st.composite
def value_text(draw):
    style = draw(st.sampled_from(["missing", "repr", "g17", "padded", "int"]))
    if style == "missing":
        return ""
    x = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    if style == "repr":
        return repr(x)
    if style == "g17":
        return format(x, ".17g")
    if style == "padded":
        return f" {x!r} "
    return str(draw(st.integers(-1000, 1000)))


@st.composite
def record_lines(draw, kind):
    """Shuffled records of a random archive; cells may be absent or empty."""
    stations = draw(st.lists(st.sampled_from(["A", "B", "PSU", "z9"]), min_size=1, max_size=3, unique=True))
    times = draw(st.lists(TIMES, min_size=1, max_size=5, unique=True))
    if kind == "forecast":
        variables = draw(st.lists(st.sampled_from(["v1", "v2", "ghi"]), min_size=1, max_size=3, unique=True))
        leads = draw(st.lists(st.integers(-7200, 86400), min_size=1, max_size=3, unique=True))
        keys = [(s, v, t, l) for s in stations for v in variables for t in times for l in leads]
    else:
        keys = [(s, t) for s in stations for t in times]
    present = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    present[0] = True  # at least one record
    lines = []
    for key, keep in zip(keys, present):
        if not keep:
            continue
        fields = list(key)
        if kind == "forecast":
            fields[2] = draw(time_text(key[2]))
            lead = key[3]
            fields[3] = draw(st.sampled_from([str(lead), f"+{lead}" if lead >= 0 else str(lead),
                                              f"0{lead}" if lead >= 0 else str(lead)]))
        else:
            fields[1] = draw(time_text(key[1]))
        lines.append(",".join(map(str, fields)) + "," + draw(value_text()))
    return draw(st.permutations(lines))


@st.composite
def archive_text(draw, kind):
    """Header, shuffled records, and blank and comment lines anywhere after the header."""
    lines = list(draw(record_lines(kind)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# a comment", "#,,,,", "\t"])))
    header = FORECAST_HEADER if kind == "forecast" else OBSERVATION_HEADER
    return "\n".join([header] + lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def bad_rows(kind):
    if kind == "forecast":
        return [
            "A,v1,2011-01-01T00:00:00Z,0",  # four columns
            "A,v1,2011-01-01T00:00:00Z,0,1,2",  # six columns
            "A,v1,2011-02-30T00:00:00Z,0,1.0",  # Feb 30
            "A,v1,2011-01-01 00:00:00,0,1.0",  # no T and no Z
            "A,v1,0000-01-01T00:00:00Z,0,1.0",  # year 0000
            "A,v1,2011-01-01T00:00:00Z,zero,1.0",
            "A,v1,2011-01-01T00:00:00Z,1.5,1.0",
            "A,v1,2011-01-01T00:00:00Z,00,1.0",  # duplicate of lead 0 below
            "A,v1,2011-01-01T00:00:00Z,0,2.0",
            "A,v1,2011-01-01T00:00:00Z,7,nan",
            "A,v1,2011-01-01T00:00:00Z,8,inf",
            "A,v1,2011-01-01T00:00:00Z,9,-Infinity",
            "A,v1,2011-01-01T00:00:00Z,10,one",
            "A,v1,2011-02-30T00:00:00Z,zero,nan",  # several faults in one record
            "A,v1,2011-01-01T00:00:00Z,zero,nan",
            "A,v1,2011-01-01T00:00:00Z,00,nan",
            "A,v1,2011-02-30T00:00:00Z,0",
        ]
    return [
        "A,2011-01-01T00:00:00Z",  # two columns
        "A,2011-01-01T00:00:00Z,1,2",
        "A,2011-13-01T00:00:00Z,1.0",
        "A,2011-01-01T24:00:00Z,1.0",
        "A,2011-01-01T00:00:00Z,2.0",
        "A,2011-1-1T0:0:0Z,3.0",  # the same time as the row above
        "A,2011-01-02T00:00:00Z,nan",
        "A,2011-01-03T00:00:00Z,-inf",
        "A,2011-01-04T00:00:00Z,one",
        "A,2011-1-1T0:0:0Z,inf",  # several faults in one record
        "A,2011-02-30T00:00:00Z,one",
    ]


BAD_FIELDS = ["", "nan", "inf", "one", "00", "-0", "2011-02-30T00:00:00Z", "2011-1-1T0:0:0Z", "x"]


@st.composite
def mutated_text(draw, kind):
    """A valid archive with one to three bad rows, repeated rows or bad fields."""
    lines = draw(archive_text(kind)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, len(lines)))
        how = draw(st.sampled_from(["insert", "insert", "repeat", "field", "field"]))
        if how == "insert" or len(lines) == 1:
            lines.insert(at, draw(st.sampled_from(bad_rows(kind))))
        elif how == "repeat":
            lines.insert(at, lines[draw(st.integers(1, len(lines) - 1))])
        else:  # overwrite one field of an existing record
            records = [i for i, line in enumerate(lines) if i and line.strip() and line[0] != "#"]
            target = draw(st.sampled_from(records))
            fields = lines[target].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_FIELDS))
            lines[target] = ",".join(fields)
    return "\n".join(lines) + "\n"


def outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as err:  # the oracle's exception type and message are the contract
        return type(err), str(err)


def assert_same_forecasts(got, want):
    assert got.stations == want.stations
    assert got.variables == want.variables
    assert got.cycles.dtype == want.cycles.dtype and np.array_equal(got.cycles, want.cycles)
    assert got.leads.dtype == want.leads.dtype and np.array_equal(got.leads, want.leads)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


def assert_same_observations(got, want):
    assert got.stations == want.stations
    assert got.times.dtype == want.times.dtype and np.array_equal(got.times, want.times)
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


LOADERS = {
    "forecast": (load_forecasts, ref.load_forecasts, assert_same_forecasts),
    "observation": (load_observations, ref.load_observations, assert_same_observations),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@SETTINGS
@given(data=st.data())
def test_random_archives_load_as_the_oracle_does(tmp_path, kind, data):
    load, oracle, same = LOADERS[kind]
    path = tmp_path / "archive.csv"
    path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    path.write_text(data.draw(archive_text(kind)), encoding="utf-8", newline="")
    same(load(path), oracle(path))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@SETTINGS
@given(data=st.data())
def test_mutated_files_fail_as_the_oracle_does(tmp_path, kind, data):
    load, oracle, same = LOADERS[kind]
    path = tmp_path / "archive.csv"
    path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    path.write_text(data.draw(mutated_text(kind)), encoding="utf-8", newline="")
    got, want = outcome(load, path), outcome(oracle, path)
    assert got[0] == want[0]
    if want[0] == "ok":
        same(got[1], want[1])
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("kind", sorted(LOADERS))
@SETTINGS
@given(data=st.data())
def test_lines_above_the_header_read_as_the_oracle_does(tmp_path, kind, data):
    """Blank and '#' lines above the header, as in a predictions file, shift
    the line numbers of every message and change nothing else."""
    load, oracle, same = LOADERS[kind]
    above = data.draw(st.lists(st.sampled_from(["", "# analogkit predict", "#,,,,", "\t"]),
                               min_size=1, max_size=3))
    text = data.draw(st.one_of(archive_text(kind), mutated_text(kind), st.just("")))
    path = tmp_path / "archive.csv"
    path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    path.write_text("\n".join(above) + "\n" + text, encoding="utf-8", newline="")
    got, want = outcome(load, path), outcome(oracle, path)
    assert got[0] == want[0]
    if want[0] == "ok":
        same(got[1], want[1])
    else:
        assert got[1] == want[1]


# Records with several faults: the first check in record order names it.
SEVERAL_FAULTS = [
    ("forecast", ["A,v1,2011-02-30T00:00:00Z,zero,nan"]),
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,zero,nan"]),
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,0,1", "A,v1,2011-1-1T0:0:0Z,00,nan"]),
    ("forecast", ["A,v1,2011-02-30T00:00:00Z,0"]),
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,0,one", "A,v1,bad,0"]),
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,0,1", "A,v1,2011-01-01T00:00:00Z,0,inf", "A,v1,bad,0,1"]),
    ("observation", ["A,2011-01-01T00:00:00Z,1", "A,2011-1-1T0:0:0Z,nan"]),
    ("observation", ["A,2011-13-01T00:00:00Z,one"]),
    ("observation", ["A,2011-13-01T00:00:00Z"]),
    ("observation", ["A,2011-01-01T00:00:00Z,1", "#", "", "A,2011-01-02T00:00:00Z,-inf", "A,x,1"]),
]


@pytest.mark.parametrize("kind,records", SEVERAL_FAULTS)
def test_several_faults_report_as_the_oracle_does(tmp_path, kind, records):
    load, oracle, _ = LOADERS[kind]
    header = FORECAST_HEADER if kind == "forecast" else OBSERVATION_HEADER
    path = tmp_path / "archive.csv"
    path.write_text("\n".join([header, *records]) + "\n")
    got, want = outcome(load, path), outcome(oracle, path)
    assert want[0] != "ok" and got == want


SPECIAL_TIMES = [
    "2011-01-01T00:00:00Z",
    "0000-01-01T00:00:00Z",
    "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z",
    "2011-02-30T00:00:00Z",
    "2012-02-29T00:00:00Z",
    "1900-02-29T00:00:00Z",
    "2011-01-01T24:00:00Z",
    "2011-01-01T00:60:00Z",
    "2011-01-01T00:00:60Z",
    "2011-01-01T00:00:00",
    "2011-01-01T00:00:00z",
    "2011-01-01t00:00:00Z",
    " 2011-01-01T00:00:00Z",
    "2011-01-01T00:00:00Z ",
    "2011-1-1T0:0:0Z",
    "2011-00-01T00:00:00Z",
    "2011-13-01T00:00:00Z",
    "٢٠١١-01-01T00:00:00Z",  # Arabic-Indic digits
    "",
]


def expected_time(text):
    try:
        return parse_time(text)
    except ValueError:
        return ValueError


def test_parse_times_matches_parse_time_on_edge_cases():
    for text in SPECIAL_TIMES:
        want = expected_time(text)
        if want is ValueError:
            with pytest.raises(ValueError):
                parse_times([text])
        else:
            assert parse_times([text]).tolist() == [want], text


@SETTINGS
@given(
    texts=st.lists(
        st.one_of(
            st.sampled_from(SPECIAL_TIMES),
            TIMES.map(format_time),
            st.text(alphabet="0123456789-T:Zz ", min_size=17, max_size=22),
        ),
        max_size=8,
    )
)
def test_parse_times_matches_parse_time_elementwise(texts):
    want = [expected_time(t) for t in texts]
    if ValueError in want:
        with pytest.raises(ValueError):
            parse_times(texts)
    else:
        got = parse_times(texts)
        assert got.dtype == np.int64
        assert got.tolist() == want
