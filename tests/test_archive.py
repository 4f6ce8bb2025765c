import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from analogkit.archive import (
    _BLOCK_BYTES,
    ForecastArchive,
    ForecastWindow,
    ObservationArchive,
    climatology_stats,
    extract_window,
    format_time,
    format_times,
    load_forecasts,
    load_observations,
    load_predictions,
    locate,
    sorted_distinct,
    parse_time,
    valid_time,
    window_block,
    write_forecasts,
    write_observations,
)
from analogkit.cli import write_predictions
from analogkit.ensemble import Ranking
from analogkit.errors import SchemaError, WindowUnavailable

from conftest import BAD_INDICES, index_archive, make_forecasts, make_observations


class TestTimeCodec:
    def test_round_trip(self):
        assert parse_time("2011-01-01T00:00:00Z") == 1293840000
        assert format_time(1293840000) == "2011-01-01T00:00:00Z"
        assert parse_time(format_time(0)) == 0

    def test_bad_timestamp_rejected(self):
        with pytest.raises(ValueError):
            parse_time("2011-01-01 00:00:00")

    def test_years_before_1000_are_padded(self):
        assert format_time(-30641760000) == "0999-01-01T00:00:00Z"
        assert format_time(-62135596800) == "0001-01-01T00:00:00Z"
        assert format_time(253402300799) == "9999-12-31T23:59:59Z"

    @pytest.mark.parametrize("seconds", [-62135596801, 253402300800])
    def test_times_outside_the_grammar_are_not_written(self, seconds):
        with pytest.raises(ValueError, match="outside the years 0001-9999"):
            format_time(seconds)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.integers(-62135596800, 253402300799))  # every second of years 1-9999
    def test_round_trip_every_year(self, seconds):
        assert parse_time(format_time(seconds)) == seconds


class TestLoadForecasts:
    def test_three_line_file_with_missing_cell(self, tmp_path):
        """Two data rows, one empty-valued: shape [1][1][2][1], one missing."""
        path = tmp_path / "f.csv"
        path.write_text(
            "station,variable,cycle_time,lead_s,value\n"
            "PSU,ghi,1970-01-01T00:00:00Z,0,1.5\n"
            "PSU,ghi,1970-01-01T01:00:00Z,0,\n"
        )
        fcst = load_forecasts(path)
        assert fcst.values.shape == (1, 1, 2, 1)
        assert fcst.cycles.tolist() == [0, 3600]
        assert fcst.values[0, 0, 0, 0] == 1.5
        assert np.isnan(fcst.values[0, 0, 1, 0])
        assert int(np.isnan(fcst.values).sum()) == 1

    def test_header_only_is_no_records(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("station,variable,cycle_time,lead_s,value\n")
        with pytest.raises(SchemaError, match="no records"):
            load_forecasts(path)

    def test_duplicate_key_names_the_key(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "station,variable,cycle_time,lead_s,value\n"
            "PSU,ghi,1970-01-01T00:00:00Z,0,1.0\n"
            "PSU,ghi,1970-01-01T00:00:00Z,0,2.0\n"
        )
        with pytest.raises(SchemaError, match=r"duplicate key \(PSU,ghi,1970-01-01T00:00:00Z,0\)"):
            load_forecasts(path)

    def test_malformed_rows_name_the_line(self, tmp_path):
        cases = [
            "PSU,ghi,1970-01-01T00:00:00Z,0\n",  # wrong column count
            "PSU,ghi,not-a-time,0,1.0\n",
            "PSU,ghi,1970-01-01T00:00:00Z,zero,1.0\n",
            "PSU,ghi,1970-01-01T00:00:00Z,0,one\n",
            "PSU,ghi,1970-01-01T00:00:00Z,0,nan\n",
        ]
        for bad in cases:
            path = tmp_path / "f.csv"
            path.write_text("station,variable,cycle_time,lead_s,value\n" + bad)
            with pytest.raises(SchemaError, match="line 2"):
                load_forecasts(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b,c\nx,y,z\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_forecasts(path)

    def test_header_below_comment_lines(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# provenance\n\nstation,variable,cycle_time,lead_s,value\n"
                        "PSU,ghi,1970-01-01T00:00:00Z,0,1.5\nPSU,ghi,1970-01-01T00:00:00Z,0,2\n")
        with pytest.raises(SchemaError, match="line 5: duplicate key"):
            load_forecasts(path)

    @staticmethod
    def _traced_load(tmp_path, rng, shape):
        """The size of a forecast CSV of random values of that shape, and the
        traced peak of loading it a second time (what a first load caches is
        not the load's)."""
        values = rng.standard_normal(shape) / 3.0
        path = tmp_path / "forecasts.csv"
        write_forecasts(make_forecasts(values), path)
        load_forecasts(path)
        tracemalloc.start()
        try:
            fcst = load_forecasts(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fcst.values.tobytes() == values.tobytes()
        return path.stat().st_size, peak

    def test_a_load_needs_at_most_three_times_its_file(self, tmp_path, rng):
        """A forecast CSV over 1 MB loads within 3x its size of traced memory,
        the archive included: the reader holds one block's strings at a time."""
        size, peak = self._traced_load(tmp_path, rng, (2, 4, 400, 8))
        assert size > 1e6
        assert peak <= 3 * size, f"peak {peak / size:.2f}x the file"

    def test_a_load_needs_at_most_40_bytes_a_record_beyond_its_archive(self, tmp_path, rng):
        """Beyond the archive, a load of a 10 MB forecast CSV holds per record
        at most a 4-byte code per key column, its 8-byte value, its 8-byte
        cell and one 8-byte temporary, plus one block's strings: a str object
        and its list slot cost about ten bytes per byte of the block, and
        sixteen are allowed."""
        shape = (4, 6, 1000, 8)
        _, peak = self._traced_load(tmp_path, rng, shape)
        records = math.prod(shape)
        beyond = peak - 8 * records  # the archive: one float64 per record
        assert beyond <= records * (4 * 4 + 8 + 8 + 8) + 16 * _BLOCK_BYTES, (
            f"{beyond / records:.1f} bytes per record beyond the archive")

    def test_a_key_column_past_65536_distinct_texts(self, tmp_path, rng):
        """A key column with more distinct texts than a 2-byte code holds
        loads exactly, with its records in any order."""
        values = rng.standard_normal((1, 2, 70000, 1)) / 3.0
        path = tmp_path / "forecasts.csv"
        write_forecasts(make_forecasts(values), path)
        header, *lines = path.read_text().splitlines()
        rng.shuffle(lines)
        path.write_text("\n".join([header, *lines]) + "\n")
        fcst = load_forecasts(path)
        assert fcst.cycles.tolist() == (86400 * np.arange(70000)).tolist()
        assert fcst.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text", ["", "\n# provenance\n\t\n"], ids=["empty", "comments_only"])
    def test_no_header_line(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match="no header line, expected station,variable"):
            load_forecasts(path)


class TestLoadPredictions:
    HEADER = "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score"

    def _sparse_lines(self, n):
        """n records, each with its own station, cycle and lead: n**3 key cells."""
        return [f"S{i},{format_time(86400 * i)},{60 * i},1,{i}.5,,0.1" for i in range(n)]

    def test_sparse_keys_allocate_nothing_the_size_of_the_key_product(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text("\n".join(["# analogkit predict", self.HEADER, *self._sparse_lines(1000)]) + "\n")
        tracemalloc.start()
        try:
            ensembles = load_predictions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert len(ensembles) == 1000
        assert ensembles[7][0] == ("S7", 7 * 86400, 420) and ensembles[7][1].tolist() == [7.5]

    def test_sparse_keys_report_a_repeated_member(self, tmp_path):
        lines = self._sparse_lines(1000)
        lines.insert(600, lines[400].replace(".5,", ".25,"))
        path = tmp_path / "predictions.csv"
        path.write_text("\n".join(["# analogkit predict", self.HEADER, *lines]) + "\n")
        with pytest.raises(SchemaError, match=(
            r"line 603: duplicate key \(S400,1971-02-05T00:00:00Z,24000,1\)"
        )):
            load_predictions(path)


class TestRoundTrip:
    def test_forecast_round_trip_exact(self, tmp_path, rng):
        values = rng.standard_normal((2, 3, 4, 2))
        values[rng.random(values.shape) < 0.3] = np.nan
        # third-of-a-unit values stress the 17-digit decimal round trip
        values = np.where(np.isnan(values), np.nan, values / 3.0)
        fcst = make_forecasts(values)
        path = tmp_path / "f.csv"
        write_forecasts(fcst, path)
        again = load_forecasts(path)
        assert again.stations == fcst.stations
        assert again.variables == fcst.variables
        assert np.array_equal(again.cycles, fcst.cycles)
        assert np.array_equal(again.leads, fcst.leads)
        assert np.array_equal(again.values, fcst.values, equal_nan=True)

    def test_observation_round_trip_exact(self, tmp_path, rng):
        values = rng.standard_normal((2, 5)) / 7.0
        values[0, 2] = np.nan
        obs = make_observations(values, times=3600 * np.arange(5))
        path = tmp_path / "o.csv"
        write_observations(obs, path)
        again = load_observations(path)
        assert again.stations == obs.stations
        assert np.array_equal(again.times, obs.times)
        assert np.array_equal(again.values, obs.values, equal_nan=True)

    def test_odd_names_round_trip(self, tmp_path):
        """Spaces, non-ASCII letters, NUL, a '#' inside a name or opening a
        variable (not a record's first field) load back as written."""
        fcst = make_forecasts(np.arange(8.0).reshape(2, 2, 2, 1),
                              stations=["a b", "ü#\x00"], variables=["#v", "ü"])
        write_forecasts(fcst, tmp_path / "f.csv")
        again = load_forecasts(tmp_path / "f.csv")
        assert (again.stations, again.variables) == (fcst.stations, fcst.variables)
        assert np.array_equal(again.values, fcst.values)
        obs = make_observations([[1.0], [2.0]], times=[0], stations=["a b", "ü"])
        write_observations(obs, tmp_path / "o.csv")
        assert load_observations(tmp_path / "o.csv").stations == obs.stations


# every character str.splitlines breaks a line on
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _write_predictions_of(stations, path):
    fcst = make_forecasts(np.zeros((1, 1, 2, 1)))
    rows = [(s, 0, 0, Ranking(np.array([1]), np.array([0.5]), np.array([1.0]))) for s in stations]
    write_predictions(rows, fcst, format_times(fcst.cycles), path, [])


class TestUnwritableNames:
    """A writer refuses a name its loader would not read back, before it
    opens the file: a ',' or a line break anywhere, or a '#' opening a
    record's first field, which makes the record a comment."""

    @pytest.mark.parametrize("name", ["a,b", ","] + [f"a{b}b" for b in LINE_BREAKS] + ["a\n"])
    @pytest.mark.parametrize("role", ["station", "variable"])
    def test_forecasts(self, tmp_path, name, role):
        names = {"stations": ["ok", name]} if role == "station" else {"variables": [name]}
        with pytest.raises(ValueError, match=f"^{role} name {re.escape(repr(name))} cannot"):
            write_forecasts(make_forecasts(np.zeros((2, 1, 1, 1)), **names), tmp_path / "f.csv")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("name", ["#a", "#", "a,b", "a\rb", "\u2028"])
    def test_observations_and_predictions(self, tmp_path, name):
        obs = make_observations([[1.0], [2.0]], times=[0], stations=["ok", name])
        for write in (lambda path: write_observations(obs, path),
                      lambda path: _write_predictions_of(["ok", name], path)):
            with pytest.raises(ValueError, match=f"^station name {re.escape(repr(name))} cannot"):
                write(tmp_path / "out.csv")
            assert not (tmp_path / "out.csv").exists()

    def test_a_station_opening_with_hash_is_refused_where_it_would_vanish(self, tmp_path):
        with pytest.raises(ValueError, match="^station name '#a' cannot"):
            write_forecasts(make_forecasts(np.zeros((2, 1, 1, 1)), stations=["#a", "b"]),
                            tmp_path / "f.csv")


class TestPairingRule:
    """``values_for``, the one rule that pairs a forecast with its observation,
    and ``locate``, the key search under it."""

    OBS = make_observations([[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]], [10, 20, 30],
                            stations=["a", "b"])

    def test_times_before_on_between_and_after_the_axis(self):
        got = self.OBS.values_for("b", np.array([5, 10, 15, 20, 25, 30, 35]))
        np.testing.assert_array_equal(got, [np.nan, 4.0, np.nan, 5.0, np.nan, 6.0, np.nan])

    def test_missing_value_is_nan(self):
        np.testing.assert_array_equal(self.OBS.values_for("a", [10, 20, 30]), [1.0, np.nan, 3.0])

    def test_absent_station_is_nan(self):
        np.testing.assert_array_equal(self.OBS.values_for("z", [10, 20]), [np.nan, np.nan])
        one = self.OBS.values_for("z", 10)
        assert np.isnan(one) and np.shape(one) == ()

    def test_scalar_time_gives_a_scalar(self):
        one = self.OBS.values_for("a", 30)
        assert one == 3.0 and np.shape(one) == ()
        assert np.isnan(self.OBS.values_for("a", 31))
        assert self.OBS.values_for("a", []).shape == (0,)

    def test_station_without_times(self):
        obs = ObservationArchive(["a"], np.empty(0, dtype=np.int64), np.empty((1, 0)))
        np.testing.assert_array_equal(obs.values_for("a", [5, 6]), [np.nan, np.nan])
        assert np.isnan(obs.values_for("a", 5))

    def test_locate(self):
        axis = np.array([10, 20, 30])
        positions, found = locate(axis, [5, 10, 25, 30, 35])
        assert found.tolist() == [False, True, False, True, False]
        assert positions[found].tolist() == [0, 2]
        assert np.all((0 <= positions) & (positions < 3))
        assert locate(axis, 20) == (1, True)
        positions, found = locate(axis[:0], [5, 6])
        assert positions.tolist() == [0, 0] and not found.any()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=12))
    def test_sorted_distinct_is_np_unique(self, values):
        values = np.array(values, dtype=np.int64)
        got, want = sorted_distinct(values), np.unique(values)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestValidTime:
    def test_sum(self):
        fcst = make_forecasts(np.zeros((1, 1, 2, 3)), cycles=[0, 86400], leads=[0, 3600, 7200])
        assert valid_time(fcst, 1, 2) == 93600
        assert valid_time(fcst, 0, 0) == 0

    def test_out_of_range(self):
        fcst = make_forecasts(np.zeros((1, 1, 2, 3)))
        with pytest.raises(IndexError):
            valid_time(fcst, 2, 0)
        with pytest.raises(IndexError):
            valid_time(fcst, 0, 3)


class TestExtractWindow:
    def test_degenerate_window_equals_forecast_vector(self, rng):
        values = rng.standard_normal((1, 3, 2, 4))
        fcst = make_forecasts(values)
        for lead in range(4):
            w = extract_window(fcst, 0, 1, lead, 0)
            assert np.array_equal(w.data[:, 0], values[0, :, 1, lead])

    def test_three_column_window(self, rng):
        values = rng.standard_normal((1, 2, 2, 3))
        fcst = make_forecasts(values)
        w = extract_window(fcst, 0, 0, 1, 1)
        assert w.data.shape == (2, 3)
        assert np.array_equal(w.data, values[0, :, 0, 0:3])

    def test_out_of_bounds(self):
        fcst = make_forecasts(np.zeros((1, 1, 1, 3)))
        with pytest.raises(WindowUnavailable, match="window out of bounds"):
            extract_window(fcst, 0, 0, 0, 1)
        with pytest.raises(WindowUnavailable, match="window out of bounds"):
            extract_window(fcst, 0, 0, 2, 1)

    def test_missing_cell_refused(self):
        values = np.zeros((1, 1, 1, 3))
        values[0, 0, 0, 2] = np.nan
        fcst = make_forecasts(values)
        with pytest.raises(WindowUnavailable, match="incomplete window"):
            extract_window(fcst, 0, 0, 1, 1)
        # the same lead with a narrower window is fine
        extract_window(fcst, 0, 0, 1, 0)

    def test_window_block_matches_extract(self, rng):
        values = rng.standard_normal((1, 2, 5, 3))
        values[0, 1, 2, 1] = np.nan
        fcst = make_forecasts(values)
        data, avail = window_block(fcst, 0, 1, np.arange(5), 1)
        for c in range(5):
            if avail[c]:
                w = extract_window(fcst, 0, c, 1, 1)
                assert np.array_equal(data[c], w.data)
            else:
                assert c == 2

    def test_window_block_at_an_edge_lead(self, rng):
        """Where the window leaves the lead axis, every row is NaN and no
        cycle has a window."""
        fcst = make_forecasts(rng.standard_normal((1, 2, 5, 3)))
        for lead in (0, 2):
            data, avail = window_block(fcst, 0, lead, [4, 0, 2], 1)
            assert data.shape == (3, 2, 3) and np.isnan(data).all()
            assert avail.tolist() == [False, False, False]

    @pytest.mark.parametrize("where,error,message", BAD_INDICES)
    def test_window_block_refuses_indices_outside_the_archive(self, where, error, message):
        station, cycles, lead, t_half = where
        with pytest.raises(error, match=message):
            window_block(index_archive()[0], station, lead, cycles, t_half)


class TestClimatology:
    def test_hand_computed_population_std(self):
        values = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1)
        fcst = make_forecasts(values)
        sigma = climatology_stats(fcst, 0, 0, [0, 1, 2])
        assert isinstance(sigma, np.ndarray) and sigma.shape == (1,)
        assert sigma[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert sigma[0] == pytest.approx(0.8164966, abs=1e-7)

    def test_constant_series_flagged(self):
        values = np.full((1, 1, 3, 1), 5.0)
        fcst = make_forecasts(values)
        assert climatology_stats(fcst, 0, 0, [0, 1, 2]).tolist() == [0.0]

    def test_all_missing_flagged(self):
        values = np.full((1, 2, 3, 1), np.nan)
        values[0, 0, :, 0] = [1.0, 2.0, 4.0]
        fcst = make_forecasts(values)
        sigma = climatology_stats(fcst, 0, 0, [0, 1, 2])
        assert sigma[0] > 0.0
        assert sigma[1] == 0.0

    def test_empty_range_rejected(self):
        fcst = make_forecasts(np.zeros((1, 1, 3, 1)))
        with pytest.raises(ValueError, match="empty"):
            climatology_stats(fcst, 0, 0, [])

    @pytest.mark.parametrize("where,error,message",
                             [case for case in BAD_INDICES if case[0][3] == 0])
    def test_refuses_indices_outside_the_archive(self, where, error, message):
        station, cycles, lead, _ = where
        with pytest.raises(error, match=message):
            climatology_stats(index_archive()[0], station, lead, cycles)

    def test_permutation_invariant(self, rng):
        values = rng.standard_normal((1, 3, 8, 1))
        fcst = make_forecasts(values)
        a = climatology_stats(fcst, 0, 0, [0, 1, 2, 3, 4, 5, 6, 7])
        b = climatology_stats(fcst, 0, 0, [5, 2, 7, 0, 4, 1, 6, 3])
        assert np.array_equal(a, b)


class TestWindowType:
    def test_incomplete_window_never_constructed(self):
        with pytest.raises(WindowUnavailable):
            ForecastWindow(data=np.array([[1.0, np.nan, 2.0]]), origin=(0, 0, 1))

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            ForecastWindow(data=np.zeros((1, 2)), origin=(0, 0, 0))


@pytest.mark.parametrize("build,message", [
    (lambda: make_forecasts(np.zeros((2, 1, 2, 1)), stations=["A", "A"]),
     "station ids must be unique"),
    (lambda: make_forecasts(np.zeros((1, 2, 2, 1)), variables=["v", "v"]),
     "variable names must be unique"),
    (lambda: make_forecasts(np.zeros((1, 1, 2, 1)), cycles=[86400, 0]),
     "cycles must be strictly increasing"),
    (lambda: make_forecasts(np.zeros((1, 1, 1, 2)), leads=[0, 0]),
     "leads must be strictly increasing"),
    (lambda: ForecastArchive(["A"], ["v"], np.array([0]), np.array([0]), np.zeros((1, 1, 2, 1))),
     "values shape (1, 1, 2, 1) does not match index lists (1, 1, 1, 1)"),
    (lambda: make_observations(np.zeros((2, 1)), [0], stations=["A", "A"]),
     "station ids must be unique"),
    (lambda: make_observations(np.zeros((1, 2)), [5, 5]), "times must be strictly increasing"),
    (lambda: ObservationArchive(["A"], np.array([0]), np.zeros((1, 2))),
     "values shape (1, 2) does not match index lists (1, 1)"),
], ids=["forecast_station_repeats", "variable_repeats", "cycles_not_increasing",
        "leads_not_increasing", "forecast_values_shape", "observation_station_repeats",
        "times_not_increasing", "observation_values_shape"])
def test_archive_refuses_inconsistent_axes(build, message):
    with pytest.raises(SchemaError) as caught:
        build()
    assert str(caught.value) == message


def test_station_index_of_unknown_station():
    with pytest.raises(KeyError, match="unknown station 'B'"):
        make_forecasts(np.zeros((1, 1, 1, 1))).station_index("B")
