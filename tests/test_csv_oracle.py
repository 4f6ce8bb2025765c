"""The columnar CSV loaders and the chunked writers against the row-wise
oracle in csv_reference.

Random archives, written with the spellings the format allows, must load
to the same index lists and the same value bits. Mutated files must raise
the same exception with the same message, which pins the first offending
line and the order of the checks within one record. Archives and
predictions of hard floats under odd names must be written to the same
bytes.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import csv_reference as ref
from analogkit import archive
from analogkit.cli import write_predictions
from analogkit.ensemble import Ranking
from analogkit.archive import (
    ForecastArchive,
    ObservationArchive,
    SchemaError,
    format_time,
    format_times,
    load_forecasts,
    load_observations,
    load_predictions,
    parse_decimal,
    parse_int,
    parse_times,
    read_text,
)

SETTINGS = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

HEADERS = {
    "forecast": "station,variable,cycle_time,lead_s,value",
    "observation": "station,valid_time,value",
    "prediction": "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score",
}

# 1970-01-01 .. 2037-12-31 and the edges of the years 0001-9999
TIMES = st.one_of(
    st.integers(0, 2145916799), st.sampled_from([-62135596800, 253402300799])
)


def integer_text(n):
    """One spelling of an integer in the input grammar."""
    return st.sampled_from([str(n), f"+{n}" if n >= 0 else str(n), f"0{n}" if n >= 0 else str(n)])


# decimal spellings in the grammar beyond the plain ones
ODD_SPELLINGS = ["+.5", "5.", "-0", "1e-400", "-1e-400", "4.9e-324", "2.2250738585072011e-308",
                 "0" * 40 + "1.25"]
# spellings that float(), int() or strptime read but the grammar refuses:
# underscores, padding, non-ASCII digits, unpadded or lowercase timestamps
FOREIGN_SPELLINGS = ["1_000.5", "1_0", "\xa01.5\xa0", " 2 ", " 1.5 ", "\u0661\u0662.\u0665",
                     "\uff13", "2011-1-1T0:0:0Z", "2011-01-01t00:00:00z",
                     "\uff12\uff10\uff11\uff11-01-01T00:00:00Z"]


@st.composite
def value_text(draw, missing=True):
    styles = ["repr", "g17", "int", "odd"]
    style = draw(st.sampled_from(["missing"] + styles if missing else styles))
    if style == "missing":
        return ""
    if style == "odd":
        return draw(st.sampled_from(ODD_SPELLINGS))
    x = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    if style == "repr":
        return repr(x)
    if style == "g17":
        return format(x, ".17g")
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
    elif kind == "prediction":
        leads = draw(st.lists(st.integers(-7200, 86400), min_size=1, max_size=2, unique=True))
        ranks = draw(st.lists(st.integers(-2, 12), min_size=1, max_size=4, unique=True))
        keys = [(s, t, l, r) for s in stations for t in times for l in leads for r in ranks]
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
            fields[2] = format_time(key[2])
            fields[3] = draw(integer_text(key[3]))
            fields.append(draw(value_text()))
        elif kind == "prediction":
            fields[1] = format_time(key[1])
            fields[2] = draw(integer_text(key[2]))
            fields[3] = draw(integer_text(key[3]))
            fields.append(draw(value_text(missing=False)))
            fields.append(draw(st.sampled_from(["", "2010-01-01T00:00:00Z", "not a time"])))
            fields.append(draw(st.sampled_from(["", "0.25", "nan", "x"])))
        else:
            fields[1] = format_time(key[1])
            fields.append(draw(value_text()))
        lines.append(",".join(map(str, fields)))
    return draw(st.permutations(lines))


@st.composite
def archive_text(draw, kind):
    """Header, shuffled records, and blank and comment lines anywhere after the header."""
    lines = list(draw(record_lines(kind)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# a comment", "#,,,,", "\t"])))
    return "\n".join([HEADERS[kind]] + lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


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
    if kind == "prediction":
        return [
            "A,2011-01-01T00:00:00Z,0,1,1.0,2010-01-01T00:00:00Z",  # six columns
            "A,2011-01-01T00:00:00Z,0,1,1.0,2010-01-01T00:00:00Z,0.1,x",  # eight columns
            "A,2011-01-01T00:00:00Z,0,1",  # four columns
            "A,2011-02-30T00:00:00Z,0,1,1.0,,",  # Feb 30
            "A,2011-01-01T00:00:00Z,zero,1,1.0,,",
            "A,2011-01-01T00:00:00Z,99999999999999999999,1,1.0,,",  # lead beyond int64
            "A,2011-01-01T00:00:00Z,0,1.5,1.0,,",  # bad rank
            "A,2011-01-01T00:00:00Z,0,one,1.0,,",
            "A,2011-01-01T00:00:00Z,0,1,2.0,,",
            "A,2011-01-01T00:00:00Z,0,01,3.0,,",  # duplicate of rank 1 above
            "A,2011-01-01T00:00:00Z,0,2,,2010-01-01T00:00:00Z,0.1",  # empty member
            "A,2011-01-01T00:00:00Z,0,3,nan,,",
            "A,2011-01-01T00:00:00Z,0,4,-inf,,",
            "A,2011-01-01T00:00:00Z,0,5,one,,",
            "A,2011-02-30T00:00:00Z,zero,one,,,",  # several faults in one record
            "A,2011-01-01T00:00:00Z,0,one,nan,,",
            "A,2011-01-01T00:00:00Z,00,+1,,,",
        ]
    return [
        "A,2011-01-01T00:00:00Z",  # two columns
        "A,2011-01-01T00:00:00Z,1,2",
        "A,2011-13-01T00:00:00Z,1.0",
        "A,2011-01-01T24:00:00Z,1.0",
        "A,2011-01-01T00:00:00Z,2.0",
        "A,2011-1-1T0:0:0Z,3.0",  # unpadded
        "A,2011-01-02T00:00:00Z,nan",
        "A,2011-01-03T00:00:00Z,-inf",
        "A,2011-01-04T00:00:00Z,one",
        "A,2011-1-1T0:0:0Z,inf",  # several faults in one record
        "A,2011-02-30T00:00:00Z,one",
    ]


BAD_FIELDS = ["", "nan", "inf", "1e400", "one", "00", "-0", "2011-02-30T00:00:00Z", "x",
              *FOREIGN_SPELLINGS]


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


def assert_same_predictions(got, want):
    assert [key for key, _ in got] == [key for key, _ in want]
    for (_, got_members), (_, want_members) in zip(got, want):
        assert got_members.dtype == want_members.dtype == np.float64
        assert got_members.tobytes() == want_members.tobytes()


LOADERS = {
    "forecast": (load_forecasts, ref.load_forecasts, assert_same_forecasts),
    "observation": (load_observations, ref.load_observations, assert_same_observations),
    "prediction": (load_predictions, ref.load_predictions, assert_same_predictions),
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
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,0,1", "A,v1,2011-01-01T00:00:00Z,00,nan"]),
    ("forecast", ["A,v1,2011-02-30T00:00:00Z,0"]),
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,0,one", "A,v1,bad,0"]),
    ("forecast", ["A,v1,2011-01-01T00:00:00Z,0,1", "A,v1,2011-01-01T00:00:00Z,0,inf", "A,v1,bad,0,1"]),
    ("observation", ["A,2011-01-01T00:00:00Z,1", "A,2011-01-01T00:00:00Z,nan"]),
    ("observation", ["A,2011-13-01T00:00:00Z,one"]),
    ("observation", ["A,2011-13-01T00:00:00Z"]),
    ("observation", ["A,2011-01-01T00:00:00Z,1", "#", "", "A,2011-01-02T00:00:00Z,-inf", "A,x,1"]),
    ("prediction", ["A,2011-01-01T00:00:00Z,0,1,1,,", "A,2011-01-01T00:00:00Z,00,01,,,"]),
    ("prediction", ["A,2011-01-01T00:00:00Z,0,1,nan,,", "A,bad,0,1,1,,"]),
    ("prediction", ["A,2011-01-01T00:00:00Z,0,1,,,", "A,2011-01-01T00:00:00Z,0,one,1,,,"]),
]


def clean_records(kind, n=2000):
    """``n`` distinct, valid records of a kind."""
    if kind == "forecast":  # 2 stations, 2 variables, 50 cycles, 10 leads
        return [f"S{i % 2},v{i // 2 % 2},{format_time(i // 4 % 50 * 86400)},{i // 200 * 3600},"
                f"{i / 8}" for i in range(n)]
    if kind == "observation":  # 2 stations, 1000 times
        return [f"S{i % 2},{format_time(i // 2 * 3600)},{i / 8}" for i in range(n)]
    # 2 stations, 100 cycles, 10 members
    return [f"S{i % 2},{format_time(i // 20 * 86400)},3600,{i // 2 % 10},{i / 8},,"
            for i in range(n)]


# a fault kind -> the columns it may hit and the text it puts there
BAD_FIELD = {
    "timestamp": (("cycle_time", "valid_time"), "2011-02-30T00:00:00Z"),
    "lead": (("lead_s",), "zero"),
    "rank": (("member_rank",), "one"),
    "value": (("value", "member_value"), "1e400"),
}


def fault_near_the_end(kind, fault, n=2000):
    """``n`` valid records with one faulty record five from the end, made
    from the record after it, so that it also repeats that record's key."""
    records = clean_records(kind, n)
    fields = records[n - 5].split(",")
    if fault == "columns":
        del fields[-1]
    elif fault == "duplicate":
        fields = records[0].split(",")
    else:
        columns, text = BAD_FIELD[fault]
        fields[next(i for i, name in enumerate(HEADERS[kind].split(",")) if name in columns)] = text
    return records[: n - 5] + [",".join(fields)] + records[n - 5 :]


# One fault in a large file: the columnar checks fail in bulk, and the
# record-by-record pass must still name the line.
SEVERAL_FAULTS += [
    pytest.param(kind, fault_near_the_end(kind, fault), id=f"{kind}-{fault}-near-the-end")
    for kind, faults in [
        ("forecast", ["columns", "timestamp", "lead", "duplicate", "value"]),
        ("observation", ["columns", "timestamp", "duplicate", "value"]),
        ("prediction", ["columns", "timestamp", "lead", "rank", "duplicate", "value"]),
    ]
    for fault in faults
]


@pytest.mark.parametrize("kind,records", SEVERAL_FAULTS)
def test_several_faults_report_as_the_oracle_does(tmp_path, kind, records):
    load, oracle, _ = LOADERS[kind]
    path = tmp_path / "archive.csv"
    path.write_text("\n".join([HEADERS[kind], *records]) + "\n")
    got, want = outcome(load, path), outcome(oracle, path)
    assert want[0] != "ok" and got == want


@pytest.mark.parametrize("kind,record,message", [
    ("forecast", "A,v,2011-01-01T00:00:00Z,0,1_0", "unparsable value '1_0'"),
    ("forecast", "A,v,2011-01-01T00:00:00Z,0, 2 ", "unparsable value ' 2 '"),
    ("forecast", "A,v,2011-01-01T00:00:00Z,0,\uff13", "unparsable value '\uff13'"),
    ("forecast", "A,v,2011-01-01T00:00:00Z,1_0,1", "unparsable lead_s '1_0'"),
    ("forecast", "A,v,2011-01-01T00:00:00Z, 0,1", "unparsable lead_s ' 0'"),
    ("observation", "A,2011-1-1T0:0:0Z,1", "unparsable timestamp '2011-1-1T0:0:0Z'"),
    ("observation", "A,2011-01-01t00:00:00z,1", "unparsable timestamp '2011-01-01t00:00:00z'"),
    ("observation", "A,\uff12\uff10\uff11\uff11-01-01T00:00:00Z,1",
     "unparsable timestamp '\uff12\uff10\uff11\uff11-01-01T00:00:00Z'"),
    ("prediction", "A,2011-01-01T00:00:00Z,0,\u0663,1,,", "unparsable member_rank '\u0663'"),
], ids=["underscore_value", "padded_value", "full_width_value", "underscore_lead", "padded_lead",
        "unpadded_time", "lowercase_time", "full_width_year", "arabic_indic_rank"])
def test_spellings_outside_the_grammar_are_refused(tmp_path, kind, record, message):
    """Numerals and times that int(), float() or strptime read are refused
    by the loaders and the oracle alike, at their line."""
    load, oracle, _ = LOADERS[kind]
    path = tmp_path / "archive.csv"
    path.write_text(f"{HEADERS[kind]}\n{record}\n", encoding="utf-8")
    got, want = outcome(load, path), outcome(oracle, path)
    assert got == want == (SchemaError, f"{path}: line 2: {message}")


def hard_spellings(rng):
    """Value texts that float() reads, spelled to stress a decimal parser."""
    finite = [x for x in rng.integers(0, 2**64, 400, dtype=np.uint64).view(np.float64).tolist()
              if math.isfinite(x)]
    texts = [spell(x) for x in finite for spell in (repr, "{:.17g}".format, "{:.25g}".format)]
    texts += [repr(k * 5e-324) for k in rng.integers(1, 2**52, 100).tolist()]  # subnormals
    digits = rng.integers(0, 10, (20, 400)).astype(str)
    texts += ["0." + "".join(row) for row in digits[:10]]
    texts += ["".join(row) + "e-420" for row in digits[10:]]
    texts += [
        "2.4703282292062327208828439643411068618252990130716238221279284125033775363510437593264991818"
        "08e-324",  # half of the least subnormal: ties to even, to 0
        "2.4703282292062328e-324",  # just above it: the least subnormal
        "1.00000000000000011102230246251565404236316680908203125",  # 1 + 2**-53: ties to 1
        "1.00000000000000011102230246251565404236316680908203126",
    ]
    return texts + ODD_SPELLINGS


def test_an_empty_value_keeps_every_other_bit(tmp_path):
    """Values equal float() bit for bit with and without an empty field, and
    a literal nan beside an empty field is still refused."""
    texts = hard_spellings(np.random.default_rng(14))
    want = np.array([float(text) for text in texts])
    lines = [f"A,v,{format_time(86400 * i)},0,{text}" for i, text in enumerate(texts)]
    full, gapped = tmp_path / "full.csv", tmp_path / "gapped.csv"
    full.write_text("\n".join([HEADERS["forecast"], *lines]) + "\n", encoding="utf-8")
    empty = len(lines) // 2
    lines[empty] = lines[empty].rsplit(",", 1)[0] + ","
    gapped.write_text("\n".join([HEADERS["forecast"], *lines]) + "\n", encoding="utf-8")

    assert load_forecasts(full).values[0, 0, :, 0].tobytes() == want.tobytes()
    got = load_forecasts(gapped).values[0, 0, :, 0]
    assert np.isnan(got[empty])
    assert np.delete(got, empty).tobytes() == np.delete(want, empty).tobytes()

    lines[0] = lines[0].rsplit(",", 1)[0] + ",nan"
    gapped.write_text("\n".join([HEADERS["forecast"], *lines]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"line 2: non-finite value 'nan'$"):
        load_forecasts(gapped)


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
    "\uff12\uff10\uff11\uff11-01-01T00:00:00Z",  # full-width digits
    "0999-01-01T00:00:00Z",
    "999-01-01T00:00:00Z",
    "+2011-01-01T00:00:00Z",
    "2011-01-01T00:00:00.5Z",
    "",
]


def expected_time(text):
    try:
        return ref.parse_time(text)
    except ValueError:
        return ValueError


def test_parse_times_matches_parse_time_on_edge_cases():
    """parse_times against the oracle's grammar, a regex and strptime."""
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


# hard cases for a check of the joined texts: leap days (valid or not), the
# edges of the years 0001-9999, impossible dates and times, foreign letters
# and digits, texts one character short or long, and a pair that joins into
# two valid-looking stamps
HARD_TIMES = [
    "0004-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2000-02-29T00:00:00Z",
    "2100-02-29T00:00:00Z", "9996-02-29T00:00:00Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "0000-06-15T12:00:00Z", "2011-02-30T00:00:00Z", "2011-01-01T24:00:00Z",
    "2011-12-31T23:59:60Z", "2011-01-01T00:60:00Z", "2011-00-01T00:00:00Z",
    "2011-13-01T00:00:00Z", "2011-01-00T00:00:00Z",
    "2011-01-01t00:00:00Z", "2011-01-01T00:00:00z", "2011-01-01 00:00:00Z",
    "２０１１-01-01T00:00:00Z", "٢٠١١-01-01T00:00:00Z",
    "2011-01-01T00:00:0Z", "2011-01-01T00:00:00Z1", "011-01-01T00:00:00Z",
]
TIME_TEXTS = st.one_of(st.sampled_from(SPECIAL_TIMES + HARD_TIMES), TIMES.map(format_time))


def parse_outcome(parse, texts):
    """The int64 seconds that ``parse`` gives, or the type and message of its error."""
    try:
        got = parse(texts)
    except ValueError as err:
        return type(err), str(err)
    assert got.dtype == np.int64
    return got.tolist()


def test_parse_times_matches_the_frozen_check_on_each_hard_text():
    """Each hard text, alone, among valid stamps and last after 1,000 of them,
    gives the one-text-at-a-time check's values, or its exception type and
    message."""
    stamps = format_times(1293840000 + 3600 * np.arange(1000))
    for text in SPECIAL_TIMES + HARD_TIMES:
        for texts in ([text], stamps[:2] + [text] + stamps[2:4], stamps + [text]):
            want = parse_outcome(ref.parse_times, texts)
            assert parse_outcome(parse_times, texts) == want, (text, len(texts))


@SETTINGS
@given(texts=st.one_of(
    st.lists(TIME_TEXTS, max_size=8),
    # 1,000 or more stamps, the last one drawn like any other, so often bad
    st.builds(
        lambda start, n, last: format_times(start + 3600 * np.arange(n)) + [last],
        st.integers(0, 2145916799), st.integers(999, 1100), TIME_TEXTS,
    ),
))
@example(texts=[])
@example(texts=["2011-01-01T00:00:00Z1", "011-01-01T00:00:00Z"])
def test_parse_times_matches_the_frozen_check(texts):
    """Lists of hard texts and valid stamps give the one-text-at-a-time
    check's values, or its exception type and message, the first bad text
    named."""
    assert parse_outcome(parse_times, texts) == parse_outcome(ref.parse_times, texts)


@SETTINGS
@given(text=st.one_of(
    st.text(alphabet="0123456789+-.eEaAfFiInNtTyY", max_size=8),
    st.text(alphabet="0123456789+-.eEinf_ \xa0\u0663\uff13x", max_size=6),
    st.sampled_from(ODD_SPELLINGS + FOREIGN_SPELLINGS + ["nan", "-Infinity", "+iNf", "infinit"]),
))
def test_numbers_match_the_oracle_grammar(text):
    """parse_int and parse_decimal accept exactly the oracle's regular
    expressions, and read what int() and float() read."""
    for parse, accepted, convert in (
        (parse_int, ref.INTEGER.fullmatch(text), int),
        (parse_decimal, ref.DECIMAL.fullmatch(text) or ref.NON_FINITE.fullmatch(text), float),
    ):
        if accepted:
            assert repr(parse(text)) == repr(convert(text))
        else:
            with pytest.raises(ValueError):
                parse(text)



# Every line break str.splitlines knows; \x85, \u2028 and \u2029 are more than one byte in UTF-8
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]
# bytes that are not UTF-8: a stray continuation byte, a cut sequence, an encoded surrogate
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]
LONG_COMMENT = "# " + "provenance " * 12  # longer than every patched block


@st.composite
def blocked_file(draw, kind):
    """A valid, mutated or empty file as bytes: comment and blank lines above
    the header, at times a record longer than 64 bytes, a random line break
    after each line, at times no final break, and at times bytes that are
    not UTF-8 inside some line."""
    above = draw(st.lists(st.sampled_from(["", "\t", "#,,,,", LONG_COMMENT]), max_size=3))
    text = draw(st.one_of(archive_text(kind), mutated_text(kind), st.just("")))
    lines = above + text.splitlines()
    records = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"][1:]
    if records and draw(st.booleans()):  # a long station name
        at = draw(st.sampled_from(records))
        lines[at] = "station" * 12 + lines[at]
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    data = [(line + brk).encode() for line, brk in zip(lines, breaks)]
    if data and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data) - 1))
        cut = draw(st.integers(0, len(data[at])))
        data[at] = data[at][:cut] + draw(st.sampled_from(NOT_UTF8)) + data[at][cut:]
    return b"".join(data)


def expected_outcome(oracle, path):
    """The oracle's outcome, or read_text's for a file that is not UTF-8."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return outcome(read_text, path)
    return outcome(oracle, path)


def assert_same_outcome(got, want, same):
    assert got[0] == want[0]
    if want[0] == "ok":
        same(got[1], want[1])
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("kind", sorted(LOADERS))
@SETTINGS
@given(data=st.data())
def test_any_block_size_loads_as_the_oracle_does(tmp_path, kind, data):
    """Blocks of 1-64 bytes end inside lines, records, comments, \\r\\n pairs
    and multi-byte characters; the loaders still give the oracle's archive
    or message, as at the default block size, and a byte that is not UTF-8
    gets read_text's message."""
    load, oracle, same = LOADERS[kind]
    path = tmp_path / "archive.csv"
    path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    path.write_bytes(data.draw(blocked_file(kind)))
    want = expected_outcome(oracle, path)
    with mock.patch.object(archive, "_BLOCK_BYTES", data.draw(st.integers(1, 64))):
        assert_same_outcome(outcome(load, path), want, same)
    assert_same_outcome(outcome(load, path), want, same)


def far_file(kind, fault):
    """A comment over 64 KiB, then the header and 2,000 records (over 64 KiB
    of forecasts) with \\r\\n line breaks and no final one, one of them
    faulty five from the end, as bytes."""
    faultless = fault in ("none", "not UTF-8")
    records = clean_records(kind) if faultless else fault_near_the_end(kind, fault)
    data = "\r\n".join(["# " + "x" * 70_000, "", HEADERS[kind], *records]).encode()
    if fault == "not UTF-8":
        at = data.rindex(records[-5].encode())
        data = data[:at] + b"\xe2\x82" + data[at:]
    return data


@pytest.mark.parametrize("kind,fault", [
    (kind, fault)
    for kind, faults in [
        ("forecast", ["none", "columns", "timestamp", "lead", "duplicate", "value", "not UTF-8"]),
        ("observation", ["none", "columns", "timestamp", "duplicate", "value", "not UTF-8"]),
        ("prediction", ["none", "columns", "rank", "duplicate", "value", "not UTF-8"]),
    ]
    for fault in faults
])
def test_a_fault_past_the_first_block_is_named_at_its_line(tmp_path, kind, fault):
    """At the default block size the header, the records and their fault lie
    beyond the first block, and a duplicate's two records in different
    blocks; the message is still the oracle's, or read_text's for a byte
    that is not UTF-8."""
    load, oracle, same = LOADERS[kind]
    path = tmp_path / "archive.csv"
    path.write_bytes(far_file(kind, fault))
    assert path.stat().st_size > 2 * archive._BLOCK_BYTES
    want = expected_outcome(oracle, path)
    assert (want[0] == "ok") == (fault == "none")
    assert_same_outcome(outcome(load, path), want, same)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("fault", ["none", "columns", "duplicate", "value", "not UTF-8"])
def test_a_load_opens_its_file_once_and_once_more_to_name_a_record(tmp_path, kind, fault):
    """The bulk pass reads the file once, to its end; only a faulty record
    makes one more read, the walk that names it. A byte that is not UTF-8
    is named by the bulk pass alone."""
    path = tmp_path / "archive.csv"
    path.write_bytes(far_file(kind, fault))
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    with mock.patch.object(archive, "open", counted, create=True):
        outcome(LOADERS[kind][0], path)
    assert opened == [path] * (1 if fault in ("none", "not UTF-8") else 2)


@pytest.mark.parametrize("case", ["not UTF-8", "not UTF-8 past a faulty record", "directory"])
def test_the_bulk_pass_names_a_byte_that_is_not_utf8_and_an_unreadable_path(tmp_path, case):
    """With the walk that names a record made to fail, a byte that is not
    UTF-8, even in a block past a faulty record, and a directory given as
    the path still get read_text's message."""
    path = tmp_path / "archive.csv"
    if case == "directory":
        path.mkdir()
    else:
        data = far_file("forecast", "not UTF-8")
        if case != "not UTF-8":  # a record of one field right below the header
            head = HEADERS["forecast"].encode() + b"\r\n"
            data = data.replace(head, head + b"x\r\n")
        path.write_bytes(data)
    want = outcome(read_text, path)
    assert want[0] in (SchemaError, archive.DataError), want
    with mock.patch.object(archive, "_first_fault", side_effect=AssertionError("walked")):
        assert outcome(load_forecasts, path) == want


def only_variable(text, variable):
    """``text`` with each five-field record of another variable made a '#'
    line, which keeps the line numbers, and whether a record was."""
    lines = text.splitlines()
    header = next((i for i, line in enumerate(lines) if line.strip() and line[0] != "#"),
                  len(lines))
    dropped = False
    for i in range(header + 1, len(lines)):
        fields = lines[i].split(",")
        if lines[i].strip() and lines[i][0] != "#" and len(fields) == 5 and fields[1] != variable:
            lines[i], dropped = "#", True
    return "\n".join(lines) + "\n", dropped


NO_CELLS = ForecastArchive([], [], np.empty(0, np.int64), np.empty(0, np.int64),
                           np.empty((0, 0, 0, 0)))


@SETTINGS
@given(data=st.data())
def test_one_variable_loads_as_the_oracle_does_without_the_others(tmp_path, data):
    """A load of one variable equals the oracle's load of the file with every
    other variable's records commented out, at the default block size and at
    1-64 bytes: the same archive or the same message. Where the file has
    records but none of the variable, the archive has no cells."""
    text = data.draw(st.one_of(archive_text("forecast"), mutated_text("forecast")))
    variable = data.draw(st.sampled_from(["v1", "v2", "ghi"]))
    path = tmp_path / "archive.csv"
    path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    path.write_text(text, encoding="utf-8", newline="")
    got = outcome(lambda p: load_forecasts(p, variable), path)
    with mock.patch.object(archive, "_BLOCK_BYTES", data.draw(st.integers(1, 64))):
        assert_same_outcome(outcome(lambda p: load_forecasts(p, variable), path), got,
                            assert_same_forecasts)
    reference, dropped = only_variable(text, variable)
    path.unlink()
    path.write_text(reference, encoding="utf-8", newline="")
    want = outcome(ref.load_forecasts, path)
    if dropped and want == (SchemaError, f"{path}: no records"):
        want = ("ok", NO_CELLS)
    assert_same_outcome(got, want, assert_same_forecasts)


# floats whose text is hard to get right, and names the writers must not read
# as %-format directives
SPECIAL_FLOATS = [np.nan, -0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1e16, 2.2250738585072014e-308]
NAMES = ["A", "%", "%s", "100%", "%%d", "Zürich", "気温", "v%.17g"]
# cells per (station, variable) or station: on both sides of one and of two chunks
CELL_COUNTS = [1, 2, 7, 1023, 1024, 1025, 2049]


@st.composite
def special_values(draw, shape):
    """Floats of ``shape`` from a drawn seed, with the special floats, NaN
    included, at drawn places."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    values[special] = rng.choice(SPECIAL_FLOATS, np.count_nonzero(special))
    return values


@st.composite
def archives_to_write(draw, kind):
    """A forecast or observation archive of special values under odd names,
    with one or several leads."""
    stations = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    n_cells = draw(st.sampled_from(CELL_COUNTS))
    leads = [0] if n_cells % 3 else draw(st.sampled_from([[0], [-3600, 0, 86400]]))
    start = draw(TIMES)
    n_times = n_cells // len(leads)
    times = np.minimum(start, 253402300799 - 3600 * n_times) + 3600 * np.arange(n_times)
    if kind == "observation":
        return ObservationArchive(stations, times, draw(special_values((len(stations), n_times))))
    variables = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    shape = (len(stations), len(variables), n_times, len(leads))
    return ForecastArchive(stations, variables, times, np.array(leads), draw(special_values(shape)))


WRITERS = {
    "forecast": (archive.write_forecasts, ref.write_forecasts),
    "observation": (archive.write_observations, ref.write_observations),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_archive_writers_write_the_oracles_bytes(tmp_path, kind, data):
    """The chunked writers give the row-wise oracle's bytes, at the default
    chunk size and at 1-5 rows: missing cells empty, every other float as
    format_float writes it, names holding '%' or non-ASCII text as they are."""
    write, oracle = WRITERS[kind]
    table = data.draw(archives_to_write(kind))
    paths = [tmp_path / name for name in ("got.csv", "chunked.csv", "want.csv")]
    for path in paths:
        path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    write(table, paths[0])
    with mock.patch.object(archive, "_CHUNK_ROWS", data.draw(st.integers(1, 5))):
        write(table, paths[1])
    oracle(table, paths[2])
    want = paths[2].read_bytes()
    assert paths[0].read_bytes() == want
    assert paths[1].read_bytes() == want


@st.composite
def predictions_to_write(draw):
    """(station, cycle, lead, Ranking) rows of special members and scores,
    NaN and inf scores included, in any row and source-cycle order."""
    n_cycles = draw(st.integers(1, 40))
    cycles = 86400 * np.arange(n_cycles) + draw(TIMES) % 86400
    leads = np.array(draw(st.lists(st.integers(-7200, 86400), min_size=1, max_size=3,
                                   unique=True).map(sorted)))
    m = draw(st.sampled_from([1, 5, 11]))
    n_rows = draw(st.sampled_from([0, 1, 3, 1024 // m, 1024 // m + 1, 250]))
    scores = np.sort(draw(special_values((n_rows, m))), axis=1)  # NaNs last
    members = draw(special_values((n_rows, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = [
        (draw(st.sampled_from(NAMES)), int(rng.integers(n_cycles)), int(rng.integers(len(leads))),
         Ranking(rng.integers(n_cycles, size=m), scores[i], members[i]))
        for i in range(n_rows)
    ]
    fcst = ForecastArchive(["A"], ["v"], cycles, leads, np.zeros((1, 1, n_cycles, len(leads))))
    return rows, fcst


@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_predictions_writer_writes_the_oracles_bytes(tmp_path, data):
    """cli.write_predictions gives the per-member oracle's bytes, provenance
    lines included, at the default chunk size and at 1-5 rows."""
    rows, fcst = data.draw(predictions_to_write())
    cycle_times = format_times(fcst.cycles)
    header = ["# analogkit predict", "# station=%s"]
    paths = [tmp_path / name for name in ("got.csv", "chunked.csv", "want.csv")]
    for path in paths:
        path.unlink(missing_ok=True)  # truncating a written file is far slower than a new one
    write_predictions(rows, fcst, cycle_times, paths[0], header)
    with mock.patch.object(archive, "_CHUNK_ROWS", data.draw(st.integers(1, 5))):
        write_predictions(rows, fcst, cycle_times, paths[1], header)
    ref.write_predictions(rows, fcst, cycle_times, paths[2], header)
    want = paths[2].read_bytes()
    assert paths[0].read_bytes() == want
    assert paths[1].read_bytes() == want


def time_outcome(seconds):
    try:
        return format_time(seconds)
    except ValueError as err:
        return str(err)


@SETTINGS
@given(seconds=st.lists(
    st.one_of(TIMES, st.integers(-62135596801 - 5, -62135596801),
              st.integers(253402300800, 253402300800 + 5), st.integers(-2**70, 2**70)),
    max_size=8,
))
def test_format_times_matches_format_time_elementwise(seconds):
    """format_times gives format_time's text of each element, from a list or
    an int64 array, and outside the years 0001-9999 its message for the
    first element there."""
    want = [time_outcome(s) for s in seconds]
    faults = [text for text in want if not text.endswith("Z")]
    inputs = [seconds]
    if all(-2**63 <= s < 2**63 for s in seconds):
        inputs.append(np.array(seconds, dtype=np.int64))
    for given_seconds in inputs:
        if faults:
            with pytest.raises(ValueError) as caught:
                format_times(given_seconds)
            assert str(caught.value) == faults[0]
        else:
            assert format_times(given_seconds) == want
