"""Training a similarity metric instead of hand-tuning weights.

Shows reverse-analog triplet sampling, the hinged triplet loss, a short
training run of the LSTM embedding network, and analog search in the
learned latent space.

Run: python demos/02_learned_similarity_metric.py    (about a minute)
"""

import numpy as np

from analogkit import (
    AnalogQuery,
    MetricConfig,
    TrainConfig,
    build_ensemble,
    climatology_stats,
    embed_block,
    plan_sampling,
    sample_triplets,
    search_classic,
    search_latent,
    train,
    valid_time,
)
from analogkit.synthetic import SynthSpec, generate

spec = SynthSpec(n_stations=1, n_cycles=1200, n_leads=1, n_variables=6,
                 seed=42, hidden=(0, 1, 2), g_name="product_sin", sigma_noise=0.1)
fcst, obs, manifest = generate(spec)
search_cycles = np.arange(1000)
test_cycles = np.arange(1000, 1200)

cfg = TrainConfig(alpha=1.0, learning_rate=0.005, dropout_rate=0.015,
                  max_iterations=2000, batch_size=32, k_pos=11, seed=3, t_half=0,
                  eval_interval=200, early_stop_patience=1000,
                  hidden_sizes=(16,), embed_dim=8)

# --- reverse-analog triplets -------------------------------------------------
# Similarity labels come from the observations, not the forecasts: the
# positive is a forecast whose paired observation is close to the anchor's,
# the negative one whose observation is farther away.
rng = np.random.default_rng(0)
# plan_sampling fixes every anchor's candidate order once; sample_triplets only draws.
triplets = sample_triplets(plan_sampling(fcst, obs, ["S00"], [0], search_cycles, cfg), rng)
# Each triplet indexes three window rows: anchor, positive and negative.
anchor, positive, negative = triplets.origins[triplets.index[0], 1]
print(f"sampled {len(triplets)} triplets; first anchor cycle {anchor}, "
      f"positive {positive}, negative {negative}, "
      f"observation gap {triplets.obs_gap[0]:.3f}")

# --- training ----------------------------------------------------------------
model, log = train(fcst, obs, ["S00"], [0], search_cycles, cfg)
print("\ntraining log (iteration, train loss, validation loss):")
for row in log:
    print(f"  {row.iteration:5d}  {row.train_loss:.4f}  {row.val_loss:.4f}")
print(f"best checkpoint from iteration {model.iterations}")

# --- search in the latent space ----------------------------------------------
stats = climatology_stats(fcst, 0, 0, search_cycles)
classic_cfg = MetricConfig(weights=np.ones(6), sigma=stats.sigma, t_half=0)
block = embed_block(model, fcst, 0, 0, np.arange(1200))

errors = {"equal-weight": [], "learned": []}
for c in test_cycles:
    query = AnalogQuery(station=0, target_cycle=int(c), lead=0, t_half=0,
                        search_cycles=search_cycles, m=11)
    truth = float(obs.values_for(fcst.stations[0], valid_time(fcst, int(c), 0)))
    classic = build_ensemble(search_classic(query, fcst, obs, classic_cfg), query)
    latent = build_ensemble(search_latent(query, block, obs), query)
    errors["equal-weight"].append(classic.mean - truth)
    errors["learned"].append(latent.mean - truth)

for name, errs in errors.items():
    print(f"{name:>12s} ensemble-mean rmse over {len(errs)} targets: "
          f"{np.sqrt(np.mean(np.square(errs))):.3f}")
