import numpy as np
import pytest

from analogkit.errors import DataError
from analogkit.verification import (
    SPREAD_BINS,
    VerificationSet,
    bias,
    brier,
    build_report,
    crps,
    crps_single,
    error_interval_rmse,
    quantile,
    rank_histogram,
    rmse,
    spread_error,
    SpreadErrorBin,
)


def vset(members, observations, lead_s=None):
    members = np.asarray(members, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if lead_s is None:
        lead_s = np.zeros(len(observations), dtype=np.int64)
    return VerificationSet(members=members, observations=observations,
                           lead_s=np.asarray(lead_s, dtype=np.int64))


def crps_by_integration(members, obs, cells_per_segment=200):
    """Numeric integration of (F(t) - H(t - obs))^2 with a midpoint rule.

    The grid is refined between consecutive breakpoints (member values and
    the observation), where the integrand is constant, so the midpoint rule
    is exact up to rounding.
    """
    members = np.sort(np.asarray(members, dtype=float))
    breaks = np.unique(np.concatenate([members, [obs]]))
    breaks = np.concatenate([[breaks[0] - 1.0], breaks, [breaks[-1] + 1.0]])
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        t = np.linspace(a, b, cells_per_segment + 1)
        mid = 0.5 * (t[:-1] + t[1:])
        cdf = np.searchsorted(members, mid, side="right") / len(members)
        step = (mid >= obs).astype(float)
        total += np.sum((cdf - step) ** 2) * (b - a) / cells_per_segment
    return float(total)


class TestBiasRmse:
    def test_perfect_means(self):
        vs = vset([[1.0, 3.0], [4.0, 6.0]], [2.0, 5.0])
        assert bias(vs) == 0.0
        assert rmse(vs) == 0.0

    def test_hand_computed(self):
        vs = vset([[3.0, 3.0], [1.0, 1.0]], [1.0, 3.0])
        assert bias(vs) == 0.0
        assert rmse(vs) == pytest.approx(2.0, abs=1e-12)

    def test_single_pair(self):
        vs = vset([[2.0]], [1.0])
        assert bias(vs) == 1.0
        assert rmse(vs) == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            vset(np.zeros((0, 3)), np.zeros(0))


class TestCrps:
    def test_reduces_to_absolute_error_for_single_member(self, rng):
        for _ in range(100):
            x = rng.standard_normal((10, 1))
            y = rng.standard_normal(10)
            assert crps(vset(x, y)) == pytest.approx(np.mean(np.abs(x[:, 0] - y)), rel=1e-12)

    def test_two_member_case_against_integration_oracle(self):
        got = crps_single([0.0, 2.0], 1.0)
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got == pytest.approx(crps_by_integration([0.0, 2.0], 1.0), abs=1e-9)

    def test_perfect_ensemble(self):
        assert crps_single([3.0, 3.0, 3.0], 3.0) == 0.0

    def test_matches_integration_on_random_ensembles(self, rng):
        for _ in range(10):
            members = rng.standard_normal(7)
            obs = rng.standard_normal()
            got = crps_single(members, obs)
            want = crps_by_integration(members, obs)
            assert got == pytest.approx(want, abs=1e-5)

    def test_bounded_by_mean_absolute_member_error(self, rng):
        for _ in range(200):
            members = rng.standard_normal(9)
            obs = rng.standard_normal()
            assert crps_single(members, obs) <= np.mean(np.abs(members - obs)) + 1e-12


class TestRankHistogram:
    def test_obs_below_all_members_is_rank_one(self):
        counts, _ = rank_histogram(vset([[1.0, 2.0, 3.0]], [0.0]))
        assert counts.tolist() == [1, 0, 0, 0]

    def test_obs_above_all_members_is_last_rank(self):
        counts, _ = rank_histogram(vset([[1.0, 2.0, 3.0]], [9.0]))
        assert counts.tolist() == [0, 0, 0, 1]

    def test_obs_inside_envelope_gives_minimal_mre(self):
        n, m = 50, 11
        members = np.tile(np.linspace(-1, 1, m), (n, 1))
        counts, mre = rank_histogram(vset(members, np.zeros(n)))
        assert counts[0] == 0 and counts[-1] == 0
        assert mre == pytest.approx(-2.0 / (m + 1), abs=1e-12)

    def test_counts_sum_to_pair_count(self, rng):
        members = rng.standard_normal((300, 7))
        obs = rng.standard_normal(300)
        counts, _ = rank_histogram(vset(members, obs))
        assert counts.sum() == 300

    def test_deterministic_ensemble_concentrates_at_extremes(self, rng):
        members = np.tile(rng.standard_normal(100)[:, None], (1, 5))
        obs = rng.standard_normal(100)
        counts, _ = rank_histogram(vset(members, obs))
        assert counts[1:-1].sum() == 0

    def test_calibrated_ensembles_have_near_zero_mre(self, rng):
        """Exchangeable members and observation: MRE within 0.01 of 0."""
        n, m = 20000, 11
        draws = rng.standard_normal((n, m + 1))
        counts, mre = rank_histogram(vset(draws[:, :m], draws[:, m]), seed=1)
        assert abs(mre) < 0.01
        assert counts.sum() == n

    def test_tie_randomization_is_seeded(self):
        members = np.ones((40, 5))
        obs = np.ones(40)
        c1, _ = rank_histogram(vset(members, obs), seed=3)
        c2, _ = rank_histogram(vset(members, obs), seed=3)
        assert np.array_equal(c1, c2)
        assert c1.sum() == 40


class TestSpreadError:
    def test_single_bin_recovers_total_rmse(self, rng):
        members = rng.standard_normal((30, 5))
        obs = rng.standard_normal(30)
        vs = vset(members, obs)
        bins = spread_error(vs, 1)
        assert len(bins) == 1
        assert bins[0].rmse == pytest.approx(rmse(vs), rel=1e-12)
        assert bins[0].count == 30
        assert bins[0].rmse_lo <= bins[0].rmse <= bins[0].rmse_hi

    def test_zero_spread_ensembles(self, rng):
        members = np.tile(rng.standard_normal(12)[:, None], (1, 4))
        bins = spread_error(vset(members, rng.standard_normal(12)), 3)
        assert all(b.mean_spread == 0.0 for b in bins)

    @staticmethod
    def _two_sigma_population(seed, n, m):
        """Members ~ Normal(center, sigma) per pair, sigma in {1, 2}."""
        gen = np.random.default_rng(seed)
        rows, obs = [], []
        for sigma in (1.0, 2.0):
            centers = gen.standard_normal(n // 2) * 3.0
            rows.append(centers[:, None] + sigma * gen.standard_normal((n // 2, m)))
            obs.append(centers + sigma * gen.standard_normal(n // 2))
        return np.vstack(rows), np.concatenate(obs)

    def test_generator_side_ground_truth(self):
        """Two equal-population bins recover the generator's two noise levels.

        The oracle is a direct Monte-Carlo replication of the construction,
        binned by an inline reimplementation; agreement within 10%.
        """
        n, m = 4000, 11
        members, obs = self._two_sigma_population(seed=101, n=n, m=m)
        bins = spread_error(vset(members, obs), 2, seed=0)

        oracle_members, oracle_obs = self._two_sigma_population(seed=202, n=10 * n, m=m)
        o_spread = np.std(oracle_members, axis=1, ddof=1)
        o_err = oracle_members.mean(axis=1) - oracle_obs
        order = np.argsort(o_spread, kind="stable")
        oracle = []
        for chunk in np.array_split(order, 2):
            oracle.append(
                (float(np.mean(o_spread[chunk])), float(np.sqrt(np.mean(o_err[chunk] ** 2))))
            )
        for b, sigma, (want_spread, want_rmse) in zip(bins, (1.0, 2.0), oracle):
            assert b.mean_spread == pytest.approx(sigma, rel=0.10)
            assert b.mean_spread == pytest.approx(want_spread, rel=0.10)
            assert b.rmse == pytest.approx(want_rmse, rel=0.10)
            # and near the generator's analytic noise scale
            assert b.rmse == pytest.approx(sigma * np.sqrt(1.0 + 1.0 / m), rel=0.25)

    @pytest.mark.parametrize("n", [1, 7, 60, 300, 1000])
    def test_block_draw_equals_loop_of_draws(self, n):
        """One [n_boot, n] draw gives the loop's indices and leaves the same state."""
        loop_rng, block_rng = np.random.default_rng(3), np.random.default_rng(3)
        loop = np.array([loop_rng.integers(n, size=n) for _ in range(1000)])
        assert np.array_equal(block_rng.integers(n, size=(1000, n)), loop)
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("n_pairs,m,n_bins,seed", [
        (1, 3, 1, 0), (7, 1, 2, 4), (60, 11, 5, 7), (301, 5, 3, 11), (1000, 11, 1, 2),
    ])
    def test_equals_loop_oracle(self, n_pairs, m, n_bins, seed):
        gen = np.random.default_rng(seed)
        vs = vset(gen.standard_normal((n_pairs, m)), gen.standard_normal(n_pairs))
        assert spread_error(vs, n_bins, seed=seed) == spread_error_loop(vs, n_bins, seed=seed)

    def test_more_bins_than_pairs_rejected(self, rng):
        with pytest.raises(DataError):
            spread_error(vset(rng.standard_normal((3, 4)), rng.standard_normal(3)), 4)


class TestBrier:
    def test_all_above_threshold_is_zero(self):
        assert brier(vset([[2.0, 3.0]], [4.0]), threshold=1.0) == 0.0

    def test_half_split_miss(self):
        assert brier(vset([[0.0, 2.0]], [3.0]), threshold=1.0) == pytest.approx(0.25)

    def test_threshold_above_everything_is_zero(self, rng):
        members = rng.random((20, 5))
        obs = rng.random(20)
        assert brier(vset(members, obs), threshold=99.0) == 0.0

    def test_invariant_under_monotone_transform(self, rng):
        members = rng.standard_normal((50, 7))
        obs = rng.standard_normal(50)
        thr = 0.2
        base = brier(vset(members, obs), thr)
        f = lambda x: np.exp(x) + 3 * x  # strictly increasing
        assert brier(vset(f(members), f(obs)), f(thr)) == pytest.approx(base, abs=1e-12)


class TestErrorIntervals:
    def test_single_interval_equals_total_rmse(self, rng):
        members = rng.standard_normal((15, 3))
        obs = rng.standard_normal(15)
        vs = vset(members, obs)
        stats, excluded = error_interval_rmse(vs, rng.standard_normal(15), [0.0])
        assert excluded == 0
        assert len(stats) == 1
        assert stats[0].rmse == pytest.approx(rmse(vs), rel=1e-12)

    def test_hand_sorted_memberships(self):
        vs = vset(np.zeros((5, 2)), np.zeros(5))
        baseline = np.array([0.5, -0.2, 1.5, -3.0, 0.99])
        stats, excluded = error_interval_rmse(vs, baseline, [0.0, 1.0])
        assert excluded == 0
        assert stats[0].count == 3  # |e| in [0, 1): 0.5, 0.2, 0.99
        assert stats[1].count == 2  # |e| >= 1: 1.5, 3.0

    def test_missing_baseline_excluded_and_counted(self):
        vs = vset(np.zeros((3, 2)), np.zeros(3))
        stats, excluded = error_interval_rmse(vs, np.array([0.1, np.nan, 0.2]), [0.0])
        assert excluded == 1
        assert stats[0].count == 2

    def test_empty_group_reports_no_rmse(self):
        vs = vset(np.zeros((2, 2)), np.zeros(2))
        stats, _ = error_interval_rmse(vs, np.array([0.1, 0.2]), [0.0, 100.0])
        assert stats[1].count == 0
        assert stats[1].rmse is None


class TestReport:
    def test_report_shapes(self, rng):
        members = rng.standard_normal((40, 5))
        obs = rng.standard_normal(40)
        leads = np.repeat([0, 3600], 20)
        report = build_report(vset(members, obs, leads), brier_threshold=0.0, seed=0)
        assert set(report.per_lead) == {0, 3600}
        assert report.rank_counts.sum() == 40
        assert len(report.spread_bins) == SPREAD_BINS
        for scores in report.per_lead.values():
            assert set(scores) == {"bias", "rmse", "crps", "mre", "brier"}
            assert all(np.isfinite(v) for v in scores.values())


def spread_error_loop(vs, n_bins, seed=0, n_boot=1000):
    """The bootstrap as one draw per iteration: the reference for spread_error."""
    rng = np.random.default_rng(seed)
    spread = np.std(vs.members, axis=1, ddof=1) if vs.m > 1 else np.zeros(vs.n_pairs)
    err = vs.members.mean(axis=1) - vs.observations
    order = np.argsort(spread, kind="stable")
    bins = []
    for chunk in np.array_split(order, n_bins):
        e = err[chunk]
        boot = np.empty(n_boot)
        for b in range(n_boot):
            pick = rng.integers(len(e), size=len(e))
            boot[b] = np.sqrt(np.mean(e[pick] * e[pick]))
        bins.append(SpreadErrorBin(
            mean_spread=float(np.mean(spread[chunk])),
            rmse=float(np.sqrt(np.mean(e * e))),
            rmse_lo=float(np.percentile(boot, 5.0)),
            rmse_hi=float(np.percentile(boot, 95.0)),
            count=len(chunk),
        ))
    return bins


@pytest.mark.parametrize("edges", [[1.0, 0.5], [0.5, 0.5], [np.nan], [0.0, np.inf], []],
                         ids=["decreasing", "repeated", "nan", "inf", "none"])
def test_error_interval_edges_follow_the_config_rule(edges):
    """The edges error_intervals refuses are refused here too, rather than
    giving an empty [1.0, 0.5) interval or one with lo=nan."""
    with pytest.raises(ValueError, match="edges must be one or more finite, strictly increasing"):
        error_interval_rmse(vset(np.zeros((2, 2)), np.zeros(2)), np.array([0.1, 0.2]), edges)


@pytest.mark.parametrize("build,error,message", [
    (lambda: VerificationSet(np.zeros(3), np.zeros(3), np.zeros(3, np.int64)), ValueError,
     "members must be [n_pairs, m]"),
    (lambda: VerificationSet(np.zeros((3, 2)), np.zeros(2), np.zeros(3, np.int64)), ValueError,
     "observations and lead_s must have one entry per pair"),
    (lambda: VerificationSet(np.zeros((0, 2)), np.zeros(0), np.zeros(0, np.int64)), DataError,
     "empty verification set"),
    (lambda: vset(np.zeros((2, 2)), [0.0, np.nan]), ValueError,
     "every pair needs a non-missing observation"),
    (lambda: vset([[0.0, np.inf], [0.0, 0.0]], np.zeros(2)), ValueError,
     "ensemble members must be finite"),
    (lambda: spread_error(vset(np.zeros((2, 2)), np.zeros(2)), 0), ValueError,
     "n_bins must be >= 1"),
    (lambda: error_interval_rmse(vset(np.zeros((2, 2)), np.zeros(2)), np.zeros(3), [0.0]),
     ValueError, "one baseline error per pair required"),
    (lambda: error_interval_rmse(vset(np.zeros((2, 2)), np.zeros(2)), np.zeros(2), []),
     ValueError, "edges must be one or more finite, strictly increasing, got []"),
], ids=["members_1d", "observations_length", "empty", "missing_observation", "member_inf",
        "no_spread_bins", "baseline_length", "no_edges"])
def test_verification_guards(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_quantile_is_np_quantile_bit_for_bit():
    """quantile equals np.quantile and np.percentile at every q verify uses,
    and at the ends, on ties, signed zeros, infinities, NaN and overflow."""
    rng = np.random.default_rng(3)
    for n in [*range(1, 12), 100, 1001]:
        for values in (rng.normal(size=n), rng.integers(-2, 2, n).astype(float),
                       rng.choice([0.0, -0.0, 1.0], n), rng.choice([np.inf, -np.inf, 1.0], n),
                       rng.choice([np.nan, 1.0, np.inf], n), rng.choice([1e308, -1e308], n)):
            for percent in (0.0, 5.0, 50.0, 75.0, 95.0, 100.0):
                q = percent / 100
                with np.errstate(over="ignore", invalid="ignore"):
                    want = [np.quantile(values, q), np.percentile(values, percent)]
                got = quantile(values, q)  # Python float arithmetic: no numpy warning
                assert {np.float64(x).tobytes() for x in [got, *want]} == {want[0].tobytes()}
