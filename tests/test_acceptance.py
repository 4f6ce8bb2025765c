"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py``. The synthetic benchmark
pipeline (criteria 5, 9, 10) runs through the command-line interface so the
artifacts compared are the real output files.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from analogkit.archive import ForecastWindow
from analogkit.cli import main
from analogkit.ensemble import AnalogQuery, search_classic, search_latent
from analogkit.metric import MetricConfig, dissimilarity
from analogkit.network import (
    LstmLayerParams,
    LstmState,
    embed_block,
    init_model,
    lstm_cell_step,
    named_parameters,
)
from analogkit.training import (
    TrainConfig,
    adam_step,
    backward,
    evaluate_loss,
    init_adam_state,
)
from analogkit.verification import VerificationSet, crps, crps_single, rank_histogram

from conftest import make_forecasts, obs_matching
from test_metric import naive_dissimilarity
from test_verification import crps_by_integration


def report(number: int, ok: bool, label: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status} — {label}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {label} {suffix}"


# ---------------------------------------------------------------------------
# benchmark pipeline shared by criteria 5, 9, and 10
# ---------------------------------------------------------------------------

BENCH_CONFIG = """
forecast_csv={d}/data/forecasts.csv
observation_csv={d}/data/observations.csv
method={method}
t_half=0
m=11
seed=11
synth_cycles=2200
synth_variables=6
synth_hidden=0,1,2
synth_g=product_sin
synth_sigma_noise=0.1
search_start=2011-01-01T00:00:00Z
search_end=2016-06-23T00:00:00Z
train_start=2011-01-01T00:00:00Z
train_end=2016-06-23T00:00:00Z
test_start=2016-06-23T00:00:00Z
test_end=2017-01-09T00:00:00Z
alpha=1.0
learning_rate=0.005
dropout_rate=0.015
max_iterations=3000
batch_size=32
k_pos=11
eval_interval=200
early_stop_patience=1200
hidden_sizes=16
embed_dim=8
checkpoint={d}/train/checkpoint.txt
methods=anen_equal,deep_anen
search_splits=1,2,4,8
"""
# cycle 2000 of a daily axis starting 2011-01-01 is 2016-06-23; cycle 2200
# is 2017-01-09, so search covers 2000 cycles and test the last 200.


def write_bench_config(root, method):
    path = root / f"config_{method}.txt"
    path.write_text(BENCH_CONFIG.format(d=root, method=method).strip() + "\n")
    return path


def run_bench_pipeline(root):
    """synth -> train -> predict (both methods) -> verify (both methods)."""
    t0 = time.time()
    cfg_eq = write_bench_config(root, "anen_equal")
    cfg_da = write_bench_config(root, "deep_anen")
    assert main(["synth", "--config", str(cfg_eq), "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(cfg_da), "--out", str(root / "train")]) == 0
    for method, cfg in (("anen_equal", cfg_eq), ("deep_anen", cfg_da)):
        out = root / f"pred_{method}"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    return time.time() - t0


def read_aggregate_scores(report_path):
    scores = {}
    for line in report_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("lead_s"):
            continue
        fields = line.split(",")
        if fields[0] == "all" and fields[3] == "":
            scores[fields[1]] = float(fields[2])
    return scores


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    elapsed = run_bench_pipeline(root)
    return {"root": root, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_metric_oracle_equivalence():
    """1000 random instances match a naive triple loop within 1e-12 relative."""
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n_var = int(rng.integers(1, 6))
        t_half = int(rng.integers(0, 3))
        width = 2 * t_half + 1
        weights = rng.random(n_var)
        weights[int(rng.integers(n_var))] += 0.5
        sigma = rng.random(n_var) + 0.05
        if n_var > 1 and rng.random() < 0.2:
            sigma[int(rng.integers(n_var))] = 0.0
        cfg = MetricConfig(weights=weights, sigma=sigma, t_half=t_half)
        f = rng.standard_normal((n_var, width))
        a = rng.standard_normal((n_var, width))
        got = dissimilarity(
            ForecastWindow(f, (0, 0, 0)), ForecastWindow(a, (0, 0, 0)), cfg
        )
        want = naive_dissimilarity(f, a, weights, sigma)
        denom = max(abs(want), 1e-300)
        worst = max(worst, abs(got - want) / denom)
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           "dissimilarity matches naive triple-loop oracle",
           f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_lstm_cell_correctness():
    """Scalar cell example to 6 decimals; saturation pass-through to 1e-40."""
    t0 = time.time()
    w = np.full((1, 2), 0.1)
    b = np.full(1, 0.1)
    layer = LstmLayerParams(*(w.copy() for _ in range(4)), *(b.copy() for _ in range(4)))
    state = lstm_cell_step(layer, np.array([1.0]), LstmState(np.zeros(1), np.zeros(1)))
    z = 0.2
    gate = 1.0 / (1.0 + math.exp(-z))
    c_tilde = math.tanh(z)
    c = gate * c_tilde
    a = gate * math.tanh(c)
    cell_ok = (
        abs(state.c[0] - c) < 1e-6
        and abs(state.a[0] - a) < 1e-6
        and abs(gate - 0.549834) < 5e-7
        and abs(c_tilde - 0.197375) < 5e-7
        and abs(c - 0.108523) < 1e-6
        and abs(a - 0.0594) < 5e-5
    )
    sat = LstmLayerParams(
        w_u=np.zeros((1, 2)), w_f=np.zeros((1, 2)), w_o=np.zeros((1, 2)),
        w_c=np.zeros((1, 2)),
        b_u=np.array([-100.0]), b_f=np.array([100.0]), b_o=np.zeros(1), b_c=np.zeros(1),
    )
    c_prev = np.array([0.918273645])
    passed = lstm_cell_step(sat, np.array([2.5]), LstmState(np.zeros(1), c_prev))
    sat_ok = abs(passed.c[0] - c_prev[0]) < 1e-40
    elapsed = time.time() - t0
    report(2, cell_ok and sat_ok and elapsed < 1.0,
           "LSTM cell oracle and saturation pass-through",
           f"{elapsed:.2f}s")


def test_criterion_03_gradient_check():
    """20 random small models: analytic vs central differences (h=1e-5),
    1e-4 relative with a 1e-8 absolute floor."""
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        model = init_model(["a", "b"], t_half=1, hidden_sizes=(3,), embed_dim=2,
                           seed=trial)

        def window():
            return rng.standard_normal((2, 3))

        # drawn anchor, positive, negative per triplet; rows grouped by role
        triplets = [(window(), window(), window()) for _ in range(3)]
        batch = np.stack([t[role] for role in range(3) for t in triplets])
        cfg = TrainConfig(alpha=6.0, dropout_rate=0.0, t_half=1,
                          hidden_sizes=(3,), embed_dim=2)
        grad, _ = backward(model, batch, cfg, np.random.default_rng(0))
        grads = dict(named_parameters(model, grad))
        for name, p in named_parameters(model):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = evaluate_loss(model, batch, cfg.alpha)
                p[idx] = orig - h
                down = evaluate_loss(model, batch, cfg.alpha)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                g = grads[name][idx]
                tolerance = 1e-4 * max(abs(g), abs(fd)) + 1e-8
                worst = max(worst, abs(g - fd) / tolerance)
                assert abs(g - fd) <= tolerance
    elapsed = time.time() - t0
    report(3, elapsed < 30.0, "gradients match finite differences on 20 models",
           f"worst error at {worst:.2f}x tolerance, {elapsed:.1f}s")


def test_criterion_04_adam_single_step():
    """Unit gradient from fresh state: delta = -lr/(1+eps), exact to 1e-12."""
    model = init_model(["a"], t_half=0, hidden_sizes=(3,), embed_dim=2, seed=0)
    cfg = TrainConfig(learning_rate=0.005, t_half=0, hidden_sizes=(3,), embed_dim=2)
    new_model, state = model.clone(), init_adam_state(model)
    adam_step(new_model, np.ones_like(model.theta), state, cfg)
    expected = -cfg.learning_rate / (1.0 + 1e-8)  # ADAM's epsilon
    worst = max(
        float(np.max(np.abs((p1 - p0) - expected)))
        for (_, p0), (_, p1) in zip(named_parameters(model), named_parameters(new_model))
    )
    report(4, worst <= 1e-12 and state.step == 1, "ADAM single-step closed form",
           f"worst abs {worst:.2e}")


def test_criterion_05_synthetic_separation(bench):
    """Learned metric beats equal weighting by >= 10% RMSE and in CRPS."""
    root = bench["root"]
    eq = read_aggregate_scores(root / "pred_anen_equal" / "report.csv")
    da = read_aggregate_scores(root / "pred_deep_anen" / "report.csv")
    rmse_gain = 1.0 - da["rmse"] / eq["rmse"]
    ok = (
        da["rmse"] < 0.9 * eq["rmse"]
        and da["crps"] < eq["crps"]
        and bench["elapsed"] < 300.0
    )
    report(5, ok, "deep analog beats equal weighting on the synthetic benchmark",
           f"rmse {eq['rmse']:.3f}->{da['rmse']:.3f} ({100 * rmse_gain:.0f}%), "
           f"crps {eq['crps']:.3f}->{da['crps']:.3f}, {bench['elapsed']:.0f}s")


def _transfer_scores(tmp_path, keys, column):
    """Report scores of both methods on the benchmark pipeline at 400
    iterations with extra config ``keys``, and the values of prediction
    column ``column`` that they predict at."""
    text = BENCH_CONFIG.replace("max_iterations=3000", "max_iterations=400") + keys
    scores, predicted = {}, set()
    for method in ("anen_equal", "deep_anen"):
        cfg = tmp_path / f"config_{method}.txt"
        cfg.write_text(text.format(d=tmp_path, method=method))
        if method == "anen_equal":
            assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        else:
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
        out = tmp_path / f"pred_{method}"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "predictions.csv").read_text().splitlines()
        predicted |= {row.split(",")[column] for row in rows if row[0] != "#"}
        scores[method] = read_aggregate_scores(out / "report.csv")
    return scores["anen_equal"], scores["deep_anen"], predicted


def test_learned_metric_transfers_to_another_station(tmp_path):
    """The paper's transfer claim: latent features learned at one location
    serve another. Trained on S00 of a two-station benchmark synth (400
    iterations), deep_anen beats equal weighting at S01 by >= 10% RMSE and in CRPS."""
    eq, da, predicted = _transfer_scores(
        tmp_path, "synth_stations=2\ntrain_stations=S00\nstations=S01\n", 0)
    assert predicted == {"station", "S01"}
    assert da["rmse"] < 0.9 * eq["rmse"] and da["crps"] < eq["crps"], (eq, da)


def test_learned_metric_transfers_to_another_lead(tmp_path):
    """The same claim across forecast leads: trained on lead 0 s of a
    two-lead benchmark synth (400 iterations), deep_anen beats equal
    weighting at lead 3600 s by >= 10% RMSE and in CRPS."""
    eq, da, predicted = _transfer_scores(
        tmp_path, "synth_leads=2\ntrain_leads=0\nleads=3600\n", 2)
    assert predicted == {"lead_s", "3600"}
    assert da["rmse"] < 0.9 * eq["rmse"] and da["crps"] < eq["crps"], (eq, da)


def test_criterion_06_rank_histogram_calibration():
    """Exchangeable synthetic ensembles: flat histogram at the 1% level
    and |MRE| < 0.01 (N=20000, M=11)."""
    rng = np.random.default_rng(606)
    n, m = 20000, 11
    draws = rng.standard_normal((n, m + 1))
    vset = VerificationSet(
        members=draws[:, :m],
        observations=draws[:, m],
        lead_s=np.zeros(n, dtype=np.int64),
    )
    counts, mre = rank_histogram(vset, seed=1)
    _, p_value = chisquare(counts)
    ok = p_value > 0.01 and abs(mre) < 0.01
    report(6, ok, "calibrated ensembles give a flat rank histogram",
           f"chi-square p {p_value:.3f}, MRE {mre:+.4f}")


def test_criterion_07_crps_degeneracy():
    """M=1 equals mean absolute error on 100 random sets; the two-member
    case matches the integration oracle within 1e-9."""
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 20))
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        vset = VerificationSet(members=x, observations=y,
                               lead_s=np.zeros(n, dtype=np.int64))
        ok &= crps(vset) == pytest.approx(float(np.mean(np.abs(x[:, 0] - y))), rel=1e-12)
    two = crps_single([0.0, 2.0], 1.0)
    oracle = crps_by_integration([0.0, 2.0], 1.0)
    ok &= abs(two - 0.5) < 1e-12 and abs(two - oracle) < 1e-9
    report(7, bool(ok), "CRPS reduces to MAE at M=1 and matches integration",
           f"two-member {two:.12f} vs oracle {oracle:.12f}")


def test_criterion_08_monotone_search_benefit():
    """Enlarging the search range never increases the M-th best score."""
    rng = np.random.default_rng(808)
    n_cycles, n_var, m = 70, 3, 5
    values = rng.standard_normal((1, n_var, n_cycles, 3))
    fcst = make_forecasts(values)
    obs = obs_matching(fcst, rng.standard_normal((1, n_cycles, 3)))
    cfg = MetricConfig(weights=np.ones(n_var), sigma=np.ones(n_var), t_half=1)
    model = init_model(list(fcst.variables), t_half=1, hidden_sizes=(4,), embed_dim=3, seed=0)
    block = embed_block(model, fcst, 0, 1, np.arange(n_cycles))
    violations = 0
    for _ in range(100):
        target = int(rng.integers(50, n_cycles))
        small_n = int(rng.integers(m + 1, 35))
        large_n = int(rng.integers(small_n, 51))
        queries = [
            AnalogQuery(station=0, target_cycle=target, lead=1, t_half=1,
                        search_cycles=np.arange(n), m=m)
            for n in (small_n, large_n)
        ]
        for search in (
            lambda q: search_classic(q, fcst, obs, cfg),
            lambda q: search_latent(q, block, obs),
        ):
            s_small = search(queries[0]).scores
            s_large = search(queries[1]).scores
            if s_large[m - 1] > s_small[m - 1]:
                violations += 1
    report(8, violations == 0, "monotone search benefit for both metrics",
           f"{violations} violations in 100 queries x 2 metrics")


def test_criterion_09_search_length_experiment(bench):
    """Well-formed search-length CSV, one row per (method, split); deep
    analog error at the largest split <= at the smallest."""
    t0 = time.time()
    root = bench["root"]
    cfg = write_bench_config(root, "deep_anen")
    out = root / "experiment"
    code = main(["experiment-search-length", "--config", str(cfg), "--out", str(out)])
    elapsed = time.time() - t0
    lines = [
        l for l in (out / "search_length.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    methods = {r["method"] for r in rows}
    splits = sorted({int(r["split"]) for r in rows})
    da = {int(r["split"]): float(r["rmse"]) for r in rows if r["method"] == "deep_anen"}
    starts = {
        int(r["split"]): r["search_start"] for r in rows if r["method"] == "deep_anen"
    }
    nested = [starts[s] for s in splits] == sorted(starts.values(), reverse=True)
    ok = (
        code == 0
        and len(rows) == len(methods) * len(splits)
        and methods == {"anen_equal", "deep_anen"}
        and splits == [1, 2, 4, 8]
        and nested
        and da[8] <= da[1]
        and elapsed < 600.0
    )
    report(9, ok, "search-length experiment structure and error decay",
           f"deep rmse split1 {da.get(1, float('nan')):.3f} -> "
           f"split8 {da.get(8, float('nan')):.3f}, {elapsed:.0f}s")


def test_learned_metric_corrects_larger_errors(bench, tmp_path):
    """The paper's claim that the learned metric corrects larger errors
    better. The synth has no forecast of the observed quantity, so v1, an
    input of the rule, stands in for the baseline forecast: ``verify`` groups
    the benchmark predictions by |v1 - observation| at the edges 0, 0.5, 1
    and 2. In the top interval [2, inf) deep_anen's RMSE is at most 0.9x
    anen_equal's, and its absolute RMSE reduction there exceeds the overall
    one. The reports go to a fresh directory, since criterion 10 compares
    those in the pred_* directories."""
    root = bench["root"]
    overall, top = {}, {}
    for method in ("anen_equal", "deep_anen"):
        cfg = tmp_path / f"config_{method}.txt"
        cfg.write_text(BENCH_CONFIG.format(d=root, method=method)
                       + "error_intervals=0,0.5,1,2\nbaseline_variable=v1\n")
        out = tmp_path / method
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--predictions",
                     str(root / f"pred_{method}" / "predictions.csv")]) == 0
        overall[method] = read_aggregate_scores(out / "report.csv")["rmse"]
        intervals = [line.split(",") for line in (out / "report.csv").read_text().splitlines()
                     if line.startswith("all,interval_rmse,")]
        assert [f[4:6] for f in intervals][-1] == ["2", "inf"]
        top[method] = float(intervals[-1][2])
    eq, da = top["anen_equal"], top["deep_anen"]
    assert da <= 0.9 * eq, (top, overall)
    assert eq - da > overall["anen_equal"] - overall["deep_anen"], (top, overall)


def test_learned_metric_from_a_small_repository(bench, tmp_path):
    """What holds here of the paper's claim that the learned metric takes
    more advantage of a larger search repository: deep_anen searching the
    last 250 cycles (split 1) beats anen_equal searching all 2,000 (split
    8). The claim itself is not reproduced on this synth (see README)."""
    root = bench["root"]
    cfg = tmp_path / "config.txt"
    cfg.write_text(BENCH_CONFIG.format(d=root, method="deep_anen"))
    out = tmp_path / "experiment"
    assert main(["experiment-search-length", "--config", str(cfg), "--out", str(out)]) == 0
    lines = [line.split(",") for line in (out / "search_length.csv").read_text().splitlines()
             if line and not line.startswith("#")]
    rmse = {(row[0], int(row[1])): float(row[6]) for row in lines[1:]}
    assert lines[0][:2] + lines[0][6:7] == ["method", "split", "rmse"]
    assert rmse["deep_anen", 1] < rmse["anen_equal", 8], rmse


def test_criterion_10_pipeline_determinism(bench):
    """Repeating the full benchmark pipeline with the same config and seed
    overwrites every output with byte-identical content."""
    root = bench["root"]
    tracked = (
        "data/forecasts.csv",
        "data/observations.csv",
        "train/checkpoint.txt",
        "train/train_log.csv",
        "pred_anen_equal/predictions.csv",
        "pred_deep_anen/predictions.csv",
        "pred_anen_equal/report.csv",
        "pred_deep_anen/report.csv",
        "pred_deep_anen/rank_histogram.csv",
    )
    snapshot = {rel: (root / rel).read_bytes() for rel in tracked}
    run_bench_pipeline(root)
    compared = [snapshot[rel] == (root / rel).read_bytes() for rel in tracked]
    report(10, all(compared), "full pipeline is byte-identical across reruns",
           f"{sum(compared)}/{len(compared)} files identical")
