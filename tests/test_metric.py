import numpy as np
import pytest

from analogkit.archive import ForecastWindow
from analogkit.metric import MetricConfig, block_dissimilarity, dissimilarity, pairwise_sum


def naive_dissimilarity(target, candidate, weights, sigma):
    """Triple-loop reference: independent of the vectorized implementation."""
    n_var, width = target.shape
    total = 0.0
    for i in range(n_var):
        if sigma[i] == 0:
            continue
        ssq = 0.0
        for j in range(width):
            d = target[i][j] - candidate[i][j]
            ssq += d * d
        total += (weights[i] / sigma[i]) * np.sqrt(ssq)
    return total


def window(data):
    return ForecastWindow(data=np.asarray(data, dtype=float), origin=(0, 0, 0))


class TestConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MetricConfig(weights=np.array([1.0, -0.5]), sigma=np.ones(2), t_half=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_infinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="nonnegative"):
            MetricConfig(weights=np.array([1.0, bad]), sigma=np.ones(2), t_half=0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            MetricConfig(weights=np.zeros(2), sigma=np.ones(2), t_half=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MetricConfig(weights=np.ones(2), sigma=np.ones(3), t_half=0)

    def test_zero_sigma_counted(self):
        cfg = MetricConfig(weights=np.ones(3), sigma=np.array([1.0, 0.0, 2.0]), t_half=0)
        assert cfg.coefficients[1] == 0.0


class TestDissimilarity:
    def test_identical_windows_score_zero(self, rng):
        data = rng.standard_normal((3, 3))
        cfg = MetricConfig(weights=np.ones(3), sigma=np.ones(3), t_half=1)
        assert dissimilarity(window(data), window(data.copy()), cfg) == 0.0

    def test_hand_computed_scalar_case(self):
        """w=1, sigma=2, F=[1,2,3], A=[2,2,5] -> 0.5*sqrt(5)."""
        cfg = MetricConfig(weights=np.array([1.0]), sigma=np.array([2.0]), t_half=1)
        score = dissimilarity(window([[1.0, 2.0, 3.0]]), window([[2.0, 2.0, 5.0]]), cfg)
        assert score == pytest.approx(0.5 * np.sqrt(5.0), rel=1e-12)
        assert score == pytest.approx(1.1180340, abs=1e-7)

    def test_zero_weight_annihilates_variable(self, rng):
        cfg = MetricConfig(weights=np.array([1.0, 0.0]), sigma=np.ones(2), t_half=1)
        f1 = rng.standard_normal((1, 3))
        a1 = rng.standard_normal((1, 3))
        full = dissimilarity(
            window(np.vstack([f1, rng.standard_normal((1, 3))])),
            window(np.vstack([a1, rng.standard_normal((1, 3))])),
            cfg,
        )
        single = MetricConfig(weights=np.array([1.0]), sigma=np.array([1.0]), t_half=1)
        assert full == pytest.approx(dissimilarity(window(f1), window(a1), single), rel=1e-12)

    def test_zero_sigma_variable_contributes_nothing(self, rng):
        cfg = MetricConfig(weights=np.ones(2), sigma=np.array([1.0, 0.0]), t_half=0)
        f = window(rng.standard_normal((2, 1)))
        a = window(rng.standard_normal((2, 1)))
        only_first = MetricConfig(weights=np.array([1.0]), sigma=np.array([1.0]), t_half=0)
        assert dissimilarity(f, a, cfg) == pytest.approx(
            dissimilarity(window(f.data[:1]), window(a.data[:1]), only_first), rel=1e-12
        )

    def test_shape_mismatch_rejected(self, rng):
        cfg = MetricConfig(weights=np.ones(2), sigma=np.ones(2), t_half=1)
        with pytest.raises(ValueError):
            dissimilarity(window(rng.standard_normal((2, 1))),
                          window(rng.standard_normal((2, 1))), cfg)


class TestProperties:
    def test_symmetry(self, rng):
        for _ in range(200):
            n_var = int(rng.integers(1, 6))
            width = 2 * int(rng.integers(0, 3)) + 1
            cfg = MetricConfig(
                weights=rng.random(n_var) + 0.01,
                sigma=rng.random(n_var) + 0.1,
                t_half=(width - 1) // 2,
            )
            f = window(rng.standard_normal((n_var, width)))
            a = window(rng.standard_normal((n_var, width)))
            assert dissimilarity(f, a, cfg) == dissimilarity(a, f, cfg)

    def test_nonnegative_and_identity(self, rng):
        cfg = MetricConfig(weights=np.ones(3) * 0.7, sigma=np.ones(3) * 1.3, t_half=1)
        for _ in range(100):
            f = window(rng.standard_normal((3, 3)))
            a = window(rng.standard_normal((3, 3)))
            s = dissimilarity(f, a, cfg)
            assert s >= 0
            assert s > 0  # random windows never coincide
        data = rng.standard_normal((3, 3))
        assert dissimilarity(window(data), window(data.copy()), cfg) == 0.0

    def test_weight_scaling_scales_scores_and_preserves_ranks(self, rng):
        n_var, width, n_cand = 4, 3, 30
        weights = rng.random(n_var) + 0.05
        sigma = rng.random(n_var) + 0.1
        target = rng.standard_normal((n_var, width))
        candidates = rng.standard_normal((n_cand, n_var, width))
        for c in (0.3, 2.0, 17.5):
            base = MetricConfig(weights=weights, sigma=sigma, t_half=1)
            scaled = MetricConfig(weights=c * weights, sigma=sigma, t_half=1)
            s0 = block_dissimilarity(target, candidates.transpose(2, 1, 0)) @ base.coefficients
            s1 = block_dissimilarity(target, candidates.transpose(2, 1, 0)) @ scaled.coefficients
            np.testing.assert_allclose(s1, c * s0, rtol=1e-12)
            assert np.array_equal(np.argsort(s0, kind="stable"),
                                  np.argsort(s1, kind="stable"))

    def test_oracle_equivalence_1000_instances(self, rng):
        """Vectorized scores match the naive triple loop to 1e-12 relative."""
        for _ in range(1000):
            n_var = int(rng.integers(1, 6))
            t_half = int(rng.integers(0, 3))
            width = 2 * t_half + 1
            weights = rng.random(n_var)
            weights[int(rng.integers(n_var))] += 0.5  # keep at least one positive
            sigma = rng.random(n_var) + 0.05
            if n_var > 1 and rng.random() < 0.2:
                sigma[int(rng.integers(n_var))] = 0.0
            cfg = MetricConfig(weights=weights, sigma=sigma, t_half=t_half)
            f = rng.standard_normal((n_var, width))
            a = rng.standard_normal((n_var, width))
            got = dissimilarity(window(f), window(a), cfg)
            want = naive_dissimilarity(f, a, weights, sigma)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_block_scores_match_scalar_path(self, rng):
        cfg = MetricConfig(weights=rng.random(3) + 0.1, sigma=rng.random(3) + 0.1, t_half=1)
        target = rng.standard_normal((3, 3))
        candidates = rng.standard_normal((20, 3, 3))
        block = block_dissimilarity(target, candidates.transpose(2, 1, 0)) @ cfg.coefficients
        for i in range(20):
            assert block[i] == pytest.approx(
                dissimilarity(window(target), window(candidates[i]), cfg), rel=1e-12
            )


def test_pairwise_sum_has_the_bits_of_numpy_sum():
    """Every branch of numpy's pairwise order: fewer than 8 terms, 8 to 128,
    and the recursive halves beyond; values across magnitudes so that any
    other order rounds differently, plus rows of negative zeros and NaN."""
    rng = np.random.default_rng(7)
    for k in range(1, 301):
        x = rng.standard_normal((40, k)) * 10.0 ** rng.integers(-6, 7, (40, k))
        x[0] = -0.0
        x[1, k // 2] = np.nan
        want = np.sum(x, axis=-1)
        got = pairwise_sum(np.ascontiguousarray(x.T))
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("build,message", [
    (lambda: MetricConfig(weights=[1.0], sigma=[1.0], t_half=-1), "t_half must be nonnegative"),
    (lambda: dissimilarity(ForecastWindow(data=np.zeros((1, 1)), origin=(0, 0, 0)),
                           ForecastWindow(data=np.zeros((1, 3)), origin=(0, 0, 1)),
                           MetricConfig(weights=[1.0], sigma=[1.0], t_half=0)),
     "candidate window shape (1, 3), config expects (1, 1)"),
    (lambda: block_dissimilarity(np.zeros((1, 1)), np.zeros((1, 2, 4))),
     "candidate block shape (1, 2, 4) does not match target window shape (1, 1)"),
], ids=["negative_t_half", "candidate_window_shape", "candidate_block_shape"])
def test_metric_refuses_bad_shapes_and_t_half(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
