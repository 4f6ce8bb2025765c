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

``block_dissimilarity`` and ``latent_distances`` are the scoring kernels of
a shared base as they were before they summed and rooted in place: a
feature-major [width, n_variables, n] block, a ``pairwise_sum`` that starts
from ``+ 0.0`` and a transposed copy of the roots. They are kept as the
oracle of the in-place kernels, byte for byte.
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


def block_dissimilarity(target, candidates):
    if target.ndim != 2 or candidates.ndim != 3 or candidates.shape[:2] != target.T.shape:
        raise ValueError(f"candidate block shape {candidates.shape} does not match "
                         f"target window shape {target.shape}")
    d = candidates - target.T[:, :, None]
    d *= d
    return np.sqrt(pairwise_sum(d)).T.copy()


def latent_distances(target, rows):
    diff = rows - target[:, None]
    diff *= diff
    return np.sqrt(pairwise_sum(diff))


def pairwise_sum(terms):
    k = len(terms)
    # "+ 0.0" rather than a copy: np.sum starts from 0.0, which turns a sum
    # of negative zeros into 0.0
    if k < 8:
        total = terms[0] + 0.0
        for term in terms[1:]:
            total += term
        return total
    if k <= 128:
        r = terms[:8] + 0.0
        end = k - k % 8
        for i in range(8, end, 8):
            r += terms[i : i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[end:]:
            total += term
        return total
    half = k // 2 - (k // 2) % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
