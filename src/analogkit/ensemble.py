"""Analog search and ensemble construction.

A search ranks the historical cycles of one (station, lead) against a
target forecast, under either the weighted-Euclidean window metric or
Euclidean distance between precomputed embeddings. The observations paired
with the best-ranked candidates become the ensemble members. A
:class:`SearchBase` holds the candidates of one (station, lead) once for
all of its targets, as positions fixed where it is built; a target is
scored against them once, and every range drawn from them ranks from
those distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .archive import ForecastArchive, ObservationArchive, extract_window, locate, window_block
from .errors import DataError, InsufficientAnalogs
from .metric import MetricConfig, block_dissimilarity, pairwise_sum
from .network import EmbeddingBlock


@dataclass(frozen=True)
class AnalogQuery:
    """One analog search: which target, where to look (a set of cycles in
    any order, which its :class:`SearchBase` checks), how many members."""

    station: int  # forecast archive station index
    target_cycle: int
    lead: int
    t_half: int
    search_cycles: np.ndarray  # cycle indices, target excluded
    m: int = 11

    def __post_init__(self):
        object.__setattr__(self, "search_cycles", np.asarray(self.search_cycles, dtype=int))
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(frozen=True, eq=False)
class Ranking:
    """Ranked analogs, best first: the search cycle, score and paired
    observation of each, as three arrays of one length, scores
    non-decreasing. A search returns one, and so does
    :func:`build_ensemble`, with exactly the requested members."""

    cycles: np.ndarray
    scores: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        if (self.scores[1:] < self.scores[:-1]).any():
            raise ValueError("scores must be non-decreasing")
        if not len(self.members) == len(self.cycles) == len(self.scores):
            raise ValueError("one cycle and score per member required")

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def mean(self) -> float:
        return float(np.mean(self.members))


def rank_positions(scores: np.ndarray, candidates: np.ndarray, limit: int) -> np.ndarray:
    """The first ``limit`` of ``candidates`` (ascending positions) in
    ascending order of score; ties broken by the earlier position. In a
    :class:`SearchBase`, whose cycles ascend, that is the earlier cycle.

    The one ranking routine: analog search orders a base's ``candidates``
    with it, and triplet sampling ranks with it the anchors whose rounded
    distances may tie (see :func:`analogkit.training._rounding_may_tie`).
    Every candidate score not above the limit-th smallest one is kept
    before the stable sort, so ties at the cut still go to the earlier
    cycle. The test ``~(s > kth)`` keeps NaN scores too, so they take the
    same last places as in a full ranking.
    """
    # Method forms rather than np.partition/np.argsort: search calls this
    # once per target, and triplet sampling once per flagged anchor, where
    # the dispatch cost shows.
    # as many ascending positions as scores are all of them, so no gather
    pos = candidates
    s = scores if len(pos) == len(scores) else scores[pos]
    if limit < len(pos):
        part = s.copy()
        part.partition(limit - 1)
        keep = ~(s > part[limit - 1])
        pos, s = pos[keep], s[keep]
    # pos is ascending, so a stable sort on score resolves ties in favor of
    # the earlier position.
    return pos[s.argsort(kind="stable")][:limit]


@dataclass(frozen=True, eq=False)
class SearchBase:
    """The candidates of one search range at one (station, lead), shared by
    every target.

    ``rows`` holds the n scored cycles on its axis 1, in one contiguous
    block per window position or feature: the forecast windows
    position-major, [width, n, n_variables], for classic search, and the
    embeddings feature-major, [embed_dim, n], for latent search. Scoring a
    target then adds whole matrices or vectors over the n cycles, not one
    short sum per candidate, with the bits of those sums (see
    :func:`~analogkit.metric.pairwise_sum`), and the classic distances come
    out as the [n, n_variables] matrix the ranking reads.
    ``search_cycles`` is the range as a set, strictly ascending, so a tie in
    rank goes to the earlier cycle. The other fields follow it:
    ``positions`` is the row each cycle was scored in and ``members`` the
    observation at its valid time. ``candidates``, fixed when the base is
    built, holds the ascending positions of the cycles with a complete
    window (an available embedding row) and an observation. ``source`` is
    what the rows were built from: the (station, lead, t_half) of classic
    search, the embedding block of latent search. ``span`` is
    ``positions`` as a slice when they are one run of consecutive rows, as
    a range of consecutive base cycles has (the whole base, or a suffix of
    it), so that a search reads that range's distances as a view, and
    ``positions`` itself otherwise, which gathers them.

    :func:`classic_base` and :func:`latent_base` sort a range given in any
    order and score exactly its cycles. :meth:`subrange` gives the base of
    a range drawn from them, on the same rows, so a target's distances to
    those rows serve every such range. A range that repeats a cycle or is
    not ascending, and a query for another source or range or whose target
    is in the range, raise ``ValueError``.
    """

    source: tuple[int, int, int] | EmbeddingBlock
    search_cycles: np.ndarray
    rows: np.ndarray
    positions: np.ndarray
    members: np.ndarray
    candidates: np.ndarray
    span: slice | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cycles = self.search_cycles
        repeated = cycles[1:][cycles[1:] == cycles[:-1]]
        if repeated.size:
            raise ValueError(f"cycle index {repeated[0]} repeats in the search range")
        if (cycles[1:] < cycles[:-1]).any():
            raise ValueError("search cycles must be ascending")
        span = pos = self.positions
        if (np.diff(pos) == 1).all():  # one run of consecutive rows, or none
            span = slice(int(pos[0]), int(pos[-1]) + 1) if len(pos) else slice(0, 0)
        object.__setattr__(self, "span", span)

    def subrange(self, search_cycles) -> SearchBase:
        """The base of ``search_cycles``, given in any order, on these rows.

        A cycle that is not one of this base's raises ``ValueError``.
        """
        search_cycles = np.sort(np.asarray(search_cycles, dtype=int))
        at, known = locate(self.search_cycles, search_cycles)
        if not known.all():
            raise ValueError(
                f"cycle index {search_cycles[~known][0]} is not part of this search base")
        return SearchBase(self.source, search_cycles, self.rows, self.positions[at],
                          self.members[at], np.flatnonzero(locate(self.candidates, at)[1]))


def classic_base(
    fcst: ForecastArchive,
    obs: ObservationArchive,
    station: int,
    lead: int,
    search_cycles: np.ndarray,
    t_half: int,
) -> SearchBase:
    """The windows, members and candidates of the search cycles at
    (station, lead), the candidates of search and of triplet sampling. The
    rows are :func:`~analogkit.archive.window_block`'s: NaN, with no
    candidate, where the window leaves the lead axis."""
    search_cycles = np.sort(np.asarray(search_cycles, dtype=int))
    block, available = window_block(fcst, station, lead, search_cycles, t_half)
    rows = np.ascontiguousarray(block.transpose(2, 0, 1))
    times = fcst.cycles[search_cycles] + int(fcst.leads[lead])
    members = obs.values_for(fcst.stations[station], times)
    return SearchBase((station, lead, t_half), search_cycles, rows, np.arange(len(search_cycles)),
                      members, np.flatnonzero(available & np.isfinite(members)))


def latent_base(
    embeddings: EmbeddingBlock, obs: ObservationArchive, search_cycles: np.ndarray
) -> SearchBase:
    """The embedding rows, members and candidates of the search cycles.

    A search cycle the block does not cover raises ``KeyError``.
    """
    search_cycles = np.sort(np.asarray(search_cycles, dtype=int))
    positions, covered = locate(embeddings.cycles, search_cycles)
    if not covered.all():
        raise KeyError(f"cycle index {search_cycles[~covered][0]} not covered by this block")
    members = obs.values_for(embeddings.station, embeddings.valid_times[positions])
    rows = np.take(embeddings.vectors.T, positions, axis=1)
    candidates = np.flatnonzero(embeddings.available[positions] & np.isfinite(members))
    return SearchBase(embeddings, search_cycles, rows, np.arange(len(search_cycles)), members,
                      candidates)


def target_embedding(embeddings: EmbeddingBlock, cycle: int) -> np.ndarray:
    """The embedding of a target cycle. A masked row raises
    :class:`DataError`, a cycle the block does not cover ``KeyError``."""
    t_pos = embeddings.position(cycle)
    if not embeddings.available[t_pos]:
        raise DataError("target window unavailable: no embedding for the target cycle")
    return embeddings.vectors[t_pos]


def latent_distances(target: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distance from an embedding to each column of ``rows``
    ([embed_dim, n]), summed and rooted in place: a view of the squares'
    first row."""
    diff = rows - target[:, None]
    diff *= diff
    total = pairwise_sum(diff)
    return np.sqrt(total, out=total)


def target_distances(base: SearchBase, fcst: ForecastArchive | None, cycle: int) -> np.ndarray:
    """The one scoring rule: a target cycle's distances to every row of ``base``.

    For a classic base, the :func:`~analogkit.metric.block_dissimilarity` of
    the target window in ``fcst``, [n, n_variables], which no σ enters; for
    a latent base, the :func:`latent_distances` of the target's embedding,
    [n], with no ``fcst``. They serve every range on the base's rows. A
    target without a window or embedding raises the reason it is skipped for.
    """
    if isinstance(base.source, EmbeddingBlock):
        return latent_distances(target_embedding(base.source, cycle), base.rows)
    station, lead, t_half = base.source
    window = extract_window(fcst, station, cycle, lead, t_half)
    return block_dissimilarity(window.data, base.rows)


def _check_base(base: SearchBase, source, query: AnalogQuery, what: str, distances) -> None:
    """Raise ``ValueError`` unless ``base`` was built from ``source`` for the
    query's search range, taken as a set, that range leaves out the query's
    target, and ``distances``, if given, cover the base's rows."""
    if base.source != source:
        raise ValueError(f"search base was built for another {what}")
    if base.search_cycles is not query.search_cycles and not np.array_equal(
        base.search_cycles, np.sort(query.search_cycles)
    ):
        raise ValueError("search base was built for another search range")
    if locate(base.search_cycles, query.target_cycle)[1]:
        raise ValueError("target cycle must not be part of the search range")
    if distances is not None and len(distances) != base.rows.shape[1]:
        raise ValueError("distances were scored against other search base rows")


def _ranking(base: SearchBase, scores: np.ndarray, m: int) -> Ranking:
    """The first ``m`` of the base's candidates ranked by ``scores``; a base
    with none raises :class:`DataError`."""
    if not len(base.candidates):
        raise DataError("no analog candidates available for this target")
    order = rank_positions(scores, base.candidates, m)
    return Ranking(base.search_cycles[order], scores[order], base.members[order])


def search_classic(
    query: AnalogQuery,
    fcst: ForecastArchive,
    obs: ObservationArchive,
    cfg: MetricConfig,
    base: SearchBase | None = None,
    distances: np.ndarray | None = None,
) -> Ranking:
    """Rank search-range cycles by window dissimilarity against the target.

    Candidates need a complete window and a non-missing observation at the
    member valid time. Raises when the target window is unavailable or no
    candidate survives. The result is the first ``query.m`` candidates of
    that ranking, or all of them where fewer are eligible. ``base`` is the
    query's :func:`classic_base`, or a :meth:`~SearchBase.subrange` of one;
    without it the search builds its own. ``distances`` is the target's
    :func:`target_distances` against ``base.rows``, which no σ enters, so it
    serves every range on those rows; without it the search scores the
    target itself. Only the weighting by ``cfg``, whose σ is the range's
    own, is done per range.
    """
    if distances is None:  # the target's skip reason comes before any fault of the range
        extract_window(fcst, query.station, query.target_cycle, query.lead, query.t_half)
    if base is None:
        base = classic_base(fcst, obs, query.station, query.lead, query.search_cycles, query.t_half)
    source = (query.station, query.lead, query.t_half)
    _check_base(base, source, query, "station, lead or t_half", distances)
    if base.rows.shape[::2] != (cfg.width, cfg.n_variables):
        raise ValueError(f"search base windows {base.rows.shape[::-2]}, config expects "
                         f"{(cfg.n_variables, cfg.width)}")
    if distances is None:
        distances = target_distances(base, fcst, query.target_cycle)
    # gemv rounds by memory layout: a run of rows is a C-contiguous
    # [n, n_variables] view and other positions gather a C-contiguous copy, the
    # operand of a range that scored its own windows
    return _ranking(base, distances[base.span] @ cfg.coefficients, query.m)


def search_latent(
    query: AnalogQuery,
    embeddings: EmbeddingBlock,
    obs: ObservationArchive,
    base: SearchBase | None = None,
    distances: np.ndarray | None = None,
) -> Ranking:
    """Rank search-range cycles by Euclidean distance in embedding space.

    Same eligibility, ordering, tie, length, ``base`` and ``distances``
    rules as :func:`search_classic`, with :func:`latent_base` as the base,
    whose distances depend on no range at all; candidates with a masked
    embedding row are excluded. A target or search cycle the block does not
    cover raises ``KeyError``.
    """
    if distances is None:  # the target's skip reason comes before any fault of the range
        target_embedding(embeddings, query.target_cycle)
    if base is None:
        base = latent_base(embeddings, obs, query.search_cycles)
    _check_base(base, embeddings, query, "embedding block", distances)
    if distances is None:
        distances = target_distances(base, None, query.target_cycle)
    return _ranking(base, distances[base.span], query.m)


def build_ensemble(ranked: Ranking, query: AnalogQuery) -> Ranking:
    """The top ``query.m`` members of a ranking; fewer candidates raise
    :class:`InsufficientAnalogs`. A search's ranking for the query already
    is that ensemble, or is short, and is returned as it is: that spares
    each target a second :class:`Ranking` and its checks. A ranking built
    elsewhere may be longer and is cut to ``query.m``.
    """
    m = query.m
    if len(ranked) < m:
        raise InsufficientAnalogs(available=len(ranked), requested=m)
    if len(ranked) == m:
        return ranked
    return Ranking(ranked.cycles[:m], ranked.scores[:m], ranked.members[:m])
