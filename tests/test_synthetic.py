import numpy as np
import pytest

from analogkit.archive import valid_time
from analogkit.synthetic import SynthSpec, generate, write_manifest


class TestGenerate:
    def test_same_seed_identical_archives(self):
        spec = SynthSpec(n_stations=2, n_cycles=20, n_leads=3, n_variables=4, seed=7)
        f1, o1, m1 = generate(spec)
        f2, o2, m2 = generate(spec)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(o1.values, o2.values)
        assert m1 == m2

    def test_different_seed_differs(self):
        a, _, _ = generate(SynthSpec(seed=1))
        b, _, _ = generate(SynthSpec(seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_noise_free_observation_is_exactly_g(self):
        spec = SynthSpec(n_stations=1, n_cycles=10, n_leads=2, n_variables=3,
                         seed=3, hidden=(0, 1, 2), sigma_noise=0.0)
        fcst, obs, manifest = generate(spec)
        for c in range(10):
            for l in range(2):
                v = fcst.values[0, :, c, l]
                want = v[0] * v[1] + np.sin(v[2])
                got = float(obs.values_for("S00", valid_time(fcst, c, l)))
                assert got == pytest.approx(want, abs=1e-12)

    def test_manifest_lists_hidden_subset(self):
        spec = SynthSpec(n_variables=5, hidden=(0, 1, 2), seed=0)
        _, _, manifest = generate(spec)
        assert manifest.hidden_variables == ["v1", "v2", "v3"]
        assert manifest.g_name == "product_sin"

    def test_manifest_file(self, tmp_path):
        _, _, manifest = generate(SynthSpec(seed=4))
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        text = path.read_text()
        assert "hidden_variables=v1,v2,v3" in text
        assert "g_name=product_sin" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_cycles=0)
        with pytest.raises(ValueError):
            SynthSpec(sigma_noise=-1.0)
        with pytest.raises(ValueError):
            SynthSpec(g_name="nope")
        with pytest.raises(ValueError):
            SynthSpec(n_variables=2, hidden=(0, 1, 2))
        with pytest.raises(ValueError, match="at most 24 leads"):
            SynthSpec(n_leads=25)
        SynthSpec(n_leads=24)  # hourly leads 0-23 stay inside the daily cycle

    def test_valid_times_strictly_increasing(self):
        _, obs, _ = generate(SynthSpec(n_cycles=5, n_leads=4))
        assert np.all(np.diff(obs.times) > 0)


class TestOracleCeiling:
    def test_g_space_search_approaches_zero_rmse(self):
        """With zero noise and M=1, nearest-neighbor search on the latent
        value g itself drives the error toward zero as the history grows.
        Nested search subsets of one dataset make the decay deterministic."""
        spec = SynthSpec(n_stations=1, n_cycles=3250, n_leads=1,
                         n_variables=4, seed=9, hidden=(0, 1, 2), sigma_noise=0.0)
        fcst, obs, manifest = generate(spec)
        g_all = manifest.apply_g(fcst.values[0, [0, 1, 2], :, 0])
        test = np.arange(3200, 3250)
        errors = []
        for n_search in (50, 400, 3200):
            search = np.arange(n_search)
            errs = []
            for c in test:
                best = search[np.argmin(np.abs(g_all[search] - g_all[c]))]
                member = float(obs.values_for("S00", valid_time(fcst, int(best), 0)))
                truth = float(obs.values_for("S00", valid_time(fcst, int(c), 0)))
                errs.append(member - truth)
            errors.append(float(np.sqrt(np.mean(np.square(errs)))))
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 0.05


def test_rule_needs_its_hidden_variables():
    with pytest.raises(ValueError, match="g 'product_sin' needs at least 3 hidden variables"):
        SynthSpec(g_name="product_sin", hidden=(0,))


@pytest.mark.parametrize("n_leads", [1, 24])
def test_largest_grid_ends_on_the_last_day_of_9999(n_leads):
    """Every valid time must be a timestamp the CSV writer can format, so the
    grid ends in the year 9999: one cycle more is refused."""
    from datetime import date

    from analogkit.archive import format_time
    from analogkit.synthetic import CYCLE_START, CYCLE_STEP, LEAD_STEP

    largest = (date(9999, 12, 31) - date(2011, 1, 1)).days + 1
    spec = SynthSpec(n_cycles=largest, n_leads=n_leads)
    last = CYCLE_START + CYCLE_STEP * (spec.n_cycles - 1) + LEAD_STEP * (n_leads - 1)
    assert format_time(last) == f"9999-12-31T{n_leads - 1:02d}:00:00Z"
    with pytest.raises(ValueError, match=f"valid times pass the year 9999 at {largest + 1} cycles"):
        SynthSpec(n_cycles=largest + 1, n_leads=n_leads)
