"""Reference triplet sampler: one stable argsort of all candidates per anchor.

This is the sampler ``training.sample_triplets`` replaced. It is kept as the
oracle the sort-once sampler must match triplet for triplet, count for count
and draw for draw. In each station block it draws every anchor's positive
(one ``random()`` each) before the negatives (one ``integers`` for each
anchor that keeps a triplet), in anchor order both times. It returns a
list of :class:`Triplet` tuples, three window copies each, where the
sampler returns index triplets.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from analogkit.archive import ForecastWindow, window_block
from analogkit.training import SamplingStats


class Triplet(NamedTuple):
    """Anchor/positive/negative windows with the observation-space gap."""

    anchor: ForecastWindow
    positive: ForecastWindow
    negative: ForecastWindow
    obs_gap: float


def sample_triplets(
    fcst,
    obs,
    stations,
    lead,
    cycles,
    cfg,
    rng,
    anchor_cycles=None,
    stats=None,
):
    cycles = np.asarray(sorted(set(int(c) for c in np.asarray(cycles, dtype=int))), dtype=int)
    if anchor_cycles is None:
        anchor_set = None
    else:
        anchor_set = set(int(c) for c in np.asarray(anchor_cycles, dtype=int))
    if stats is None:
        stats = SamplingStats()
    triplets = []
    for station in stations:
        s = fcst.station_index(station)
        if station not in obs.stations:
            continue
        data, avail = window_block(fcst, s, lead, cycles, cfg.t_half)
        times = fcst.cycles[cycles] + int(fcst.leads[lead])
        obs_vals = obs.values_for(station, times)
        eligible = avail & np.isfinite(obs_vals)
        elig_pos = np.nonzero(eligible)[0]
        kept = []  # every anchor's positive is drawn before any negative
        for ai in elig_pos:
            if anchor_set is not None and int(cycles[ai]) not in anchor_set:
                continue
            stats.anchors_seen += 1
            cand = elig_pos[elig_pos != ai]
            if cand.size < cfg.k_pos + 1:
                stats.anchors_skipped += 1
                continue
            dists = np.abs(obs_vals[cand] - obs_vals[ai])
            order = np.argsort(dists, kind="stable")  # ties -> earlier cycle
            top = order[: cfg.k_pos]
            fitness = 1.0 / np.arange(1, cfg.k_pos + 1)
            probs = fitness / fitness.sum()
            pos_pick = top[_roulette(probs, rng)]
            pos_dist = dists[pos_pick]
            rest = order[cfg.k_pos :]
            rest = rest[dists[rest] > pos_dist]  # keeps obs_gap strictly positive
            if rest.size == 0:
                stats.anchors_skipped += 1
                continue
            kept.append((ai, cand, dists, pos_pick, rest))
        for ai, cand, dists, pos_pick, rest in kept:
            neg_pick = rest[int(rng.integers(rest.size))]
            triplets.append(
                Triplet(
                    anchor=ForecastWindow(
                        data=data[ai].copy(), origin=(s, int(cycles[ai]), lead)
                    ),
                    positive=ForecastWindow(
                        data=data[cand[pos_pick]].copy(),
                        origin=(s, int(cycles[cand[pos_pick]]), lead),
                    ),
                    negative=ForecastWindow(
                        data=data[cand[neg_pick]].copy(),
                        origin=(s, int(cycles[cand[neg_pick]]), lead),
                    ),
                    obs_gap=float(dists[neg_pick] - dists[pos_pick]),
                )
            )
    return triplets


def _roulette(probs, rng):
    """Fitness-proportionate draw from normalized probabilities."""
    edges = np.cumsum(probs)
    return int(np.searchsorted(edges, rng.random() * edges[-1], side="right").clip(0, len(probs) - 1))
