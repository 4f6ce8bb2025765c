"""Reference analog searches: every target builds its own candidate rows.

These are the ``search_classic`` and ``search_latent`` bodies that a shared
:class:`analogkit.ensemble.SearchBase` replaced. Each call extracts the
search-range window block (or gathers the embedding rows), looks up the
member observations and the eligible mask again, then scores and ranks.
They are kept as the oracle the base-backed searches must match candidate
for candidate, score bit for score bit, and error for error: one call per
search range, however many ranges share a base. The window kernel is
inlined as it was before the base became feature-major: one sum along each
candidate's [n_variables, width] window, in numpy's own order. The
ranking is a full stable sort of the eligible scores, cut at ``limit``, so
it shares no code with :func:`analogkit.ensemble.rank_positions`: NaN ranks
last and ties go to the earlier cycle, in whatever order the range is given. Candidates are the per-member tuples
that the searches returned before they returned arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from analogkit.archive import extract_window, window_block
from analogkit.errors import DataError


class Candidate(NamedTuple):
    """One ranked analog: its cycle index, score, and paired observation."""

    cycle: int
    score: float
    member: float


def search_classic(query, fcst, obs, cfg, limit=None):
    target = extract_window(fcst, query.station, query.target_cycle, query.lead, query.t_half)
    block, avail = window_block(fcst, query.station, query.lead, query.search_cycles, query.t_half)
    times = fcst.cycles[query.search_cycles] + int(fcst.leads[query.lead])
    obs_vals = obs.values_for(fcst.stations[query.station], times)
    eligible = avail & np.isfinite(obs_vals)
    if not eligible.any():
        raise DataError("no analog candidates available for this target")
    d = block - target.data[None]  # [n, n_variables, width]
    scores = np.sqrt(np.sum(d * d, axis=-1)) @ cfg.coefficients
    return _candidates(query, scores, obs_vals, rank(scores, eligible, query.search_cycles, limit))


def search_latent(query, embeddings, obs, limit=None):
    t_pos = embeddings.position(query.target_cycle)
    if not embeddings.available[t_pos]:
        raise DataError("target window unavailable: no embedding for the target cycle")
    cycles = embeddings.cycles  # not empty: it holds the target
    positions = np.searchsorted(cycles, query.search_cycles).clip(max=len(cycles) - 1)
    uncovered = cycles[positions] != query.search_cycles
    if uncovered.any():
        missing = int(query.search_cycles[np.argmax(uncovered)])
        raise KeyError(f"cycle index {missing} not covered by this block")
    obs_vals = obs.values_for(embeddings.station, embeddings.valid_times[positions])
    eligible = embeddings.available[positions] & np.isfinite(obs_vals)
    if not eligible.any():
        raise DataError("no analog candidates available for this target")
    diff = np.take(embeddings.vectors, positions, axis=0)
    diff -= embeddings.vectors[t_pos]
    diff *= diff
    scores = np.sqrt(np.sum(diff, axis=1))
    return _candidates(query, scores, obs_vals, rank(scores, eligible, query.search_cycles, limit))


def rank(scores, eligible, cycles, limit=None):
    """The eligible positions by ascending score, the one of the earlier of
    ``cycles`` first on a tie and NaN last, cut after ``limit``. The range
    may come in any order."""
    pos = eligible.nonzero()[0]
    pos = pos[np.argsort(cycles[pos], kind="stable")]
    return pos[np.argsort(scores[pos], kind="stable")][:limit]


def _candidates(query, scores, obs_vals, order):
    return [
        Candidate(int(c), float(s), float(v))
        for c, s, v in zip(
            query.search_cycles[order].tolist(), scores[order].tolist(), obs_vals[order].tolist()
        )
    ]
