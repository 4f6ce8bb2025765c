"""Analog search and ensemble construction.

A search ranks the historical cycles of one (station, lead) against a
target forecast, under either the weighted-Euclidean window metric or
Euclidean distance between precomputed embeddings. The observations paired
with the best-ranked candidates become the ensemble members. Every target of
one (station, lead, search range) is ranked over the same candidates, so a
:class:`SearchBase` holds them once for all of those targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .archive import ForecastArchive, ObservationArchive, extract_window, window_block
from .errors import DataError, InsufficientAnalogs
from .metric import MetricConfig, block_dissimilarity, pairwise_sum
from .network import EmbeddingBlock


@dataclass(frozen=True)
class AnalogQuery:
    """One analog search: which target, where to look, how many members."""

    station: int  # forecast archive station index
    target_cycle: int
    lead: int
    t_half: int
    search_cycles: np.ndarray  # cycle indices, target excluded
    m: int = 11

    def __post_init__(self):
        search = np.asarray(self.search_cycles, dtype=int)
        object.__setattr__(self, "search_cycles", search)
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.target_cycle in search:
            raise ValueError("target cycle must not be part of the search range")


class Candidate(NamedTuple):
    """One ranked analog: its cycle index, score, and paired observation."""

    cycle: int
    score: float
    member: float


@dataclass(frozen=True)
class EnsembleForecast:
    """M member observations plus the provenance of each member."""

    members: np.ndarray
    sources: list[tuple[int, float]]  # (cycle index, score), scores non-decreasing
    short: bool = False

    def __post_init__(self):
        scores = [s for _, s in self.sources]
        if any(b < a for a, b in zip(scores, scores[1:])):
            raise ValueError("sources must be sorted by non-decreasing score")
        if len(self.members) != len(self.sources):
            raise ValueError("one source per member required")

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def mean(self) -> float:
        return float(np.mean(self.members))


def rank_positions(scores: np.ndarray, eligible: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Ascending order of eligible positions; ties broken by earlier cycle.

    The one ranking routine: analog search orders candidates by score with
    it, and triplet sampling finds each anchor's ``k_pos`` nearest with it.
    With ``limit`` only the first ``limit`` positions of that order are
    returned. Every eligible score not above the limit-th smallest one is
    kept before the stable sort, so ties at the cut still go to the earlier
    cycle. The test ``~(s > kth)`` keeps NaN scores too, so they take the
    same last places as in the full ranking.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    # Method forms rather than np.nonzero/np.partition/np.argsort: triplet
    # sampling calls this once per anchor, where the dispatch cost shows.
    pos = eligible.nonzero()[0]
    s = scores[pos]
    if limit is not None and limit < len(pos):
        part = s.copy()
        part.partition(limit - 1)
        keep = ~(s > part[limit - 1])
        pos, s = pos[keep], s[keep]
    # pos is in ascending cycle order already, so a stable sort on score
    # resolves ties in favor of the earlier cycle.
    return pos[s.argsort(kind="stable")][:limit]


@dataclass(frozen=True, eq=False)
class SearchBase:
    """What every target of one (station, lead, search range) shares.

    ``rows`` holds the candidates feature-major, one contiguous row over the
    n search cycles (in search-range order) per feature: the forecast
    windows as [width, n_variables, n] for classic search, the embeddings
    as [embed_dim, n] for latent search. Scoring a target then adds vectors
    of length n, not one short sum per candidate, with the bits of those
    sums (see :func:`~analogkit.metric.pairwise_sum`). ``members`` holds the
    observation at each candidate's valid time, and ``eligible`` marks the
    candidates with a complete window (an available embedding row) and an
    observation. ``source`` is what the rows were built from: the
    (station, lead, t_half) of classic search, the embedding block of
    latent search. A base serves one search range only; a query for another
    source or range raises ``ValueError``.
    """

    source: tuple[int, int, int] | EmbeddingBlock
    search_cycles: np.ndarray
    rows: np.ndarray
    members: np.ndarray
    eligible: np.ndarray


def classic_base(
    fcst: ForecastArchive,
    obs: ObservationArchive,
    station: int,
    lead: int,
    search_cycles: np.ndarray,
    t_half: int,
) -> SearchBase:
    """The windows, members and eligibility of the search cycles at
    (station, lead). Raises :class:`WindowUnavailable` when the window does
    not fit the lead axis."""
    search_cycles = np.asarray(search_cycles, dtype=int)
    block, available = window_block(fcst, station, lead, search_cycles, t_half)
    rows = np.ascontiguousarray(block.transpose(2, 1, 0))
    times = fcst.cycles[search_cycles] + int(fcst.leads[lead])
    members = obs.values_for(fcst.stations[station], times)
    return SearchBase(
        (station, lead, t_half), search_cycles, rows, members, available & np.isfinite(members)
    )


def latent_base(
    embeddings: EmbeddingBlock, obs: ObservationArchive, search_cycles: np.ndarray
) -> SearchBase:
    """The embedding rows, members and eligibility of the search cycles.

    A search cycle the block does not cover raises ``KeyError``.
    """
    search_cycles = np.asarray(search_cycles, dtype=int)
    covered = np.isin(search_cycles, embeddings.cycles)
    if not covered.all():
        missing = int(search_cycles[np.argmin(covered)])
        raise KeyError(f"cycle index {missing} not covered by this block")
    positions = np.searchsorted(embeddings.cycles, search_cycles)
    members = obs.values_for(embeddings.station, embeddings.valid_times[positions])
    rows = np.take(embeddings.vectors.T, positions, axis=1)
    eligible = embeddings.available[positions] & np.isfinite(members)
    return SearchBase(embeddings, search_cycles, rows, members, eligible)


def _require_base(base: SearchBase, source, search_cycles: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``base`` was built from ``source`` and ``search_cycles``."""
    if base.source != source:
        raise ValueError(f"search base was built for another {what}")
    if base.search_cycles is not search_cycles and not np.array_equal(
        base.search_cycles, search_cycles
    ):
        raise ValueError("search base was built for another search range")


def search_classic(
    query: AnalogQuery,
    fcst: ForecastArchive,
    obs: ObservationArchive,
    cfg: MetricConfig,
    limit: int | None = None,
    base: SearchBase | None = None,
) -> list[Candidate]:
    """Rank search-range cycles by window dissimilarity against the target.

    Candidates need a complete window and a non-missing observation at the
    member valid time. Raises when the target window is unavailable or no
    candidate survives. With ``limit`` the result is the first ``limit``
    candidates of the full ranking. ``base`` is the query's
    :func:`classic_base`, shared by every target of its (station, lead,
    search range); without it the search builds its own.
    """
    target = extract_window(fcst, query.station, query.target_cycle, query.lead, query.t_half)
    if base is None:
        base = classic_base(fcst, obs, query.station, query.lead, query.search_cycles, query.t_half)
    source = (query.station, query.lead, query.t_half)
    _require_base(base, source, query.search_cycles, "station, lead or t_half")
    if not base.eligible.any():
        raise DataError("no analog candidates available for this target")
    scores = block_dissimilarity(target.data, base.rows, cfg)
    return _candidates(query, scores, base.members, rank_positions(scores, base.eligible, limit))


def search_latent(
    query: AnalogQuery,
    embeddings: EmbeddingBlock,
    obs: ObservationArchive,
    limit: int | None = None,
    base: SearchBase | None = None,
) -> list[Candidate]:
    """Rank search-range cycles by Euclidean distance in embedding space.

    Same eligibility, ordering, tie, ``limit`` and ``base`` rules as
    :func:`search_classic`, with :func:`latent_base` as the base;
    candidates with a masked embedding row are excluded. A target or search
    cycle the block does not cover raises ``KeyError``.
    """
    t_pos = embeddings.position(query.target_cycle)
    if not embeddings.available[t_pos]:
        raise DataError("target window unavailable: no embedding for the target cycle")
    if base is None:
        base = latent_base(embeddings, obs, query.search_cycles)
    _require_base(base, embeddings, query.search_cycles, "embedding block")
    if not base.eligible.any():
        raise DataError("no analog candidates available for this target")
    diff = base.rows - embeddings.vectors[t_pos][:, None]
    diff *= diff
    scores = np.sqrt(pairwise_sum(diff))
    return _candidates(query, scores, base.members, rank_positions(scores, base.eligible, limit))


def _candidates(
    query: AnalogQuery, scores: np.ndarray, obs_vals: np.ndarray, order: np.ndarray
) -> list[Candidate]:
    """Candidates for the ranked search-range positions ``order``."""
    return [
        Candidate(int(c), float(s), float(v))
        for c, s, v in zip(
            query.search_cycles[order].tolist(), scores[order].tolist(), obs_vals[order].tolist()
        )
    ]


def build_ensemble(
    ranked: list[Candidate], query: AnalogQuery, allow_short: bool = False
) -> EnsembleForecast:
    """Top-M members from a ranked candidate list.

    With fewer than M candidates the ensemble is refused unless
    ``allow_short`` is set, in which case all candidates are used and the
    result is flagged short.
    """
    if len(ranked) < query.m and not allow_short:
        raise InsufficientAnalogs(available=len(ranked), requested=query.m)
    chosen = ranked[: query.m]
    return EnsembleForecast(
        members=np.array([c.member for c in chosen]),
        sources=[(c.cycle, c.score) for c in chosen],
        short=len(chosen) < query.m,
    )
