"""Brute-force analog rankings that the benchmark checks the program against.

Written from the definitions, not from the search code: the classical
score is the metric formula evaluated on the raw archive arrays, the latent
score is the Euclidean distance between ``network.forward`` embeddings, and
ties go to the earlier cycle through an explicit lexicographic sort.
"""

from __future__ import annotations

import numpy as np

from analogkit import network
from analogkit.archive import ForecastArchive, ForecastWindow, ObservationArchive

# Skip reasons, as the benchmark classifies them (see ``skip_reason``).
WINDOW_UNAVAILABLE = "window_unavailable"
INSUFFICIENT_ANALOGS = "insufficient_analogs"
NO_CANDIDATES = "no_candidates"
OTHER = "other"
SKIP_REASONS = (WINDOW_UNAVAILABLE, INSUFFICIENT_ANALOGS, NO_CANDIDATES, OTHER)


def skip_reason(message: str) -> str:
    """Reason class of a skipped target, from the message the program gives."""
    text = message.lower()
    if "window" in text:
        return WINDOW_UNAVAILABLE
    if text.startswith("insufficient analogs"):
        return INSUFFICIENT_ANALOGS
    if text.startswith("no analog candidates"):
        return NO_CANDIDATES
    return OTHER


class Block:
    """Windows, member observations and eligibility at one (station, lead)."""

    def __init__(self, fcst: ForecastArchive, obs: ObservationArchive, station: int, lead: int,
                 t_half: int):
        self.fcst, self.station, self.lead, self.t_half = fcst, station, lead, t_half
        self.in_bounds = lead - t_half >= 0 and lead + t_half < fcst.n_leads
        n = fcst.n_cycles
        if self.in_bounds:
            # [cycle, variable, position]
            self.windows = np.transpose(
                fcst.values[station, :, :, lead - t_half : lead + t_half + 1], (1, 0, 2)
            )
            self.complete = ~np.isnan(self.windows).any(axis=(1, 2))
        else:
            self.windows = None
            self.complete = np.zeros(n, dtype=bool)
        valid = fcst.cycles + fcst.leads[lead]
        members = np.full(n, np.nan)
        if fcst.stations[station] in obs.stations:
            o = obs.stations.index(fcst.stations[station])
            pos = np.searchsorted(obs.times, valid)
            hit = pos < len(obs.times)
            hit[hit] = obs.times[pos[hit]] == valid[hit]
            members[hit] = obs.values[o, pos[hit]]
        self.members = members
        self.eligible = self.complete & np.isfinite(members)
        self._embeddings = None

    def classic_scores(self, target: int, candidates: np.ndarray,
                       search: np.ndarray) -> np.ndarray:
        """sum_i (w_i / sigma_i) * sqrt(sum_j (F_ij - A_ij)^2) with equal weights w_i = 1;
        sigma is the population deviation over the search range."""
        sample = self.fcst.values[self.station, :, search, self.lead]  # [n_search, variable]
        sigma = np.zeros(sample.shape[1])
        for i in range(sample.shape[1]):
            col = sample[:, i][np.isfinite(sample[:, i])]
            if col.size >= 2:
                sigma[i] = np.sqrt(np.mean((col - col.mean()) ** 2))
        coef = np.where(sigma > 0, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
        per_variable = np.sqrt(
            ((self.windows[candidates] - self.windows[target][None]) ** 2).sum(axis=2)
        )
        return per_variable @ coef

    def latent_scores(self, model, target: int, candidates: np.ndarray) -> np.ndarray:
        if self._embeddings is None:
            emb = np.zeros((self.fcst.n_cycles, model.embed_dim))
            for c in np.nonzero(self.complete)[0]:
                window = ForecastWindow(data=self.windows[c].copy(),
                                        origin=(self.station, int(c), self.lead))
                emb[c] = network.forward(model, window)
            self._embeddings = emb
        diff = self._embeddings[candidates] - self._embeddings[target][None]
        return np.sqrt((diff * diff).sum(axis=1))

    def rank(self, method: str, target: int, search: np.ndarray, m: int, model=None):
        """Top-m ``(cycle, score, member)`` for one target, or a skip reason."""
        if not self.in_bounds or not self.complete[target]:
            return WINDOW_UNAVAILABLE
        candidates = search[self.eligible[search]]
        if candidates.size == 0:
            return NO_CANDIDATES
        if candidates.size < m:
            return INSUFFICIENT_ANALOGS
        if method == "deep_anen":
            scores = self.latent_scores(model, target, candidates)
        else:
            scores = self.classic_scores(target, candidates, search)
        order = np.lexsort((candidates, scores))[:m]  # score, then earlier cycle
        return [(int(candidates[i]), float(scores[i]), float(self.members[candidates[i]]))
                for i in order]


class Oracle:
    """Lazily built blocks over one archive pair."""

    def __init__(self, fcst: ForecastArchive, obs: ObservationArchive, t_half: int):
        self.fcst, self.obs, self.t_half = fcst, obs, t_half
        self._blocks: dict[tuple[int, int], Block] = {}

    def block(self, station: int, lead: int) -> Block:
        key = (station, lead)
        if key not in self._blocks:
            self._blocks[key] = Block(self.fcst, self.obs, station, lead, self.t_half)
        return self._blocks[key]
