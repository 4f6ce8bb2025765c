"""Tour of the classical analog ensemble workflow.

Generates a synthetic forecast/observation archive, walks through window
extraction and the weighted-Euclidean dissimilarity, and builds an
11-member ensemble for one target forecast.

Run: python demos/01_classic_analog_ensembles.py
"""

import numpy as np

from analogkit import (
    AnalogQuery,
    MetricConfig,
    build_ensemble,
    climatology_stats,
    dissimilarity,
    extract_window,
    search_classic,
    valid_time,
)
from analogkit.synthetic import SynthSpec, generate

# A year of daily forecasts: 6 variables, 3 of which actually drive the
# observation through a nonlinear rule, 3 pure distractors.
spec = SynthSpec(n_stations=1, n_cycles=365, n_leads=3, n_variables=6,
                 seed=42, hidden=(0, 1, 2), g_name="product_sin", sigma_noise=0.1)
fcst, obs, manifest = generate(spec)
print(f"archive: {fcst.n_stations} station(s), {fcst.n_variables} variables, "
      f"{fcst.n_cycles} cycles, {fcst.n_leads} leads")
print(f"latent rule: {manifest.g_formula} on {manifest.hidden_variables}, "
      f"noise sigma {manifest.sigma_noise}")

# --- forecast windows -------------------------------------------------------
# The metric compares short multivariate windows around a lead time. With a
# half-width of 1 the window covers three consecutive leads.
station, lead, t_half = 0, 1, 1
target_cycle = 360
target = extract_window(fcst, station, target_cycle, lead, t_half)
print(f"\ntarget window shape: {target.data.shape} (variables x window positions)")

# --- the dissimilarity metric ----------------------------------------------
# Weights are per variable; sigmas come from the search-period climatology
# at this station and lead, so every variable is compared in its own units.
search_cycles = np.arange(330)
sigma = climatology_stats(fcst, station, lead, search_cycles)
cfg = MetricConfig(weights=np.ones(fcst.n_variables), sigma=sigma, t_half=t_half)
candidate = extract_window(fcst, station, 100, lead, t_half)
print(f"dissimilarity(target, cycle 100) = {dissimilarity(target, candidate, cfg):.4f}")
print(f"dissimilarity(target, target)    = {dissimilarity(target, target, cfg):.4f}")

# --- analog search and ensemble construction --------------------------------
query = AnalogQuery(station=station, target_cycle=target_cycle, lead=lead,
                    t_half=t_half, search_cycles=search_cycles, m=11)
ranked = search_classic(query, fcst, obs, cfg)
ensemble = build_ensemble(ranked, query)
print(f"\ntop analogs (cycle, score) -> member observation:")
for cycle, score, member in list(zip(ensemble.cycles, ensemble.scores, ensemble.members))[:5]:
    print(f"  cycle {cycle:3d}  score {score:6.3f}  member {member:+.3f}")

truth = float(obs.values_for(fcst.stations[station],
                             valid_time(fcst, target_cycle, lead)))
print(f"\nensemble mean {ensemble.mean:+.3f}  vs observed {truth:+.3f}")
print(f"ensemble spread (min..max): {ensemble.members.min():+.3f} .. "
      f"{ensemble.members.max():+.3f}")
