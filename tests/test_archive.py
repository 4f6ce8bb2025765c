import numpy as np
import pytest

from analogkit.archive import (
    ClimatologyStats,
    ForecastWindow,
    climatology_stats,
    extract_window,
    format_time,
    load_forecasts,
    load_observations,
    parse_time,
    valid_time,
    window_block,
    write_forecasts,
    write_observations,
)
from analogkit.errors import SchemaError, WindowUnavailable

from conftest import make_forecasts, make_observations


class TestTimeCodec:
    def test_round_trip(self):
        assert parse_time("2011-01-01T00:00:00Z") == 1293840000
        assert format_time(1293840000) == "2011-01-01T00:00:00Z"
        assert parse_time(format_time(0)) == 0

    def test_bad_timestamp_rejected(self):
        with pytest.raises(ValueError):
            parse_time("2011-01-01 00:00:00")


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

    @pytest.mark.parametrize("text", ["", "\n# provenance\n\t\n"], ids=["empty", "comments_only"])
    def test_no_header_line(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match="no header line, expected station,variable"):
            load_forecasts(path)


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


class TestClimatology:
    def test_hand_computed_population_std(self):
        values = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1)
        fcst = make_forecasts(values)
        stats = climatology_stats(fcst, 0, 0, [0, 1, 2])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.sigma[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert stats.sigma[0] == pytest.approx(0.8164966, abs=1e-7)
        assert stats.population == 3
        assert not stats.flagged[0]

    def test_constant_series_flagged(self):
        values = np.full((1, 1, 3, 1), 5.0)
        fcst = make_forecasts(values)
        stats = climatology_stats(fcst, 0, 0, [0, 1, 2])
        assert stats.sigma[0] == 0.0
        assert stats.flagged[0]

    def test_all_missing_flagged(self):
        values = np.full((1, 2, 3, 1), np.nan)
        values[0, 0, :, 0] = [1.0, 2.0, 4.0]
        fcst = make_forecasts(values)
        stats = climatology_stats(fcst, 0, 0, [0, 1, 2])
        assert stats.sigma[1] == 0.0
        assert stats.flagged[1]
        assert stats.population == 0

    def test_empty_range_rejected(self):
        fcst = make_forecasts(np.zeros((1, 1, 3, 1)))
        with pytest.raises(ValueError, match="empty"):
            climatology_stats(fcst, 0, 0, [])

    def test_permutation_invariant(self, rng):
        values = rng.standard_normal((1, 3, 8, 1))
        fcst = make_forecasts(values)
        a = climatology_stats(fcst, 0, 0, [0, 1, 2, 3, 4, 5, 6, 7])
        b = climatology_stats(fcst, 0, 0, [5, 2, 7, 0, 4, 1, 6, 3])
        assert np.allclose(a.mean, b.mean)
        assert np.allclose(a.sigma, b.sigma)

    def test_sigma_positive_implies_population(self, rng):
        stats = ClimatologyStats(
            mean=np.zeros(1), sigma=np.zeros(1), population=0, flagged=np.array([True])
        )
        assert stats.population >= 0
        with pytest.raises(ValueError):
            ClimatologyStats(
                mean=np.zeros(1), sigma=np.array([-1.0]), population=2, flagged=np.array([False])
            )


class TestWindowType:
    def test_incomplete_window_never_constructed(self):
        with pytest.raises(WindowUnavailable):
            ForecastWindow(data=np.array([[1.0, np.nan, 2.0]]), origin=(0, 0, 1))

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            ForecastWindow(data=np.zeros((1, 2)), origin=(0, 0, 0))
