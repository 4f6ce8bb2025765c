"""Synthetic forecast/observation generator with a known ground truth.

Forecast variables are i.i.d. standard normal draws. The observation at a
forecast's valid time is a configurable nonlinear function of a hidden
subset of the variables at that (cycle, lead), plus Gaussian noise; the
remaining variables are pure distractors. A manifest records the rule so
tests can compute oracle-optimal predictions.

The default rule multiplies the first two hidden variables and adds the
sine of the third, so no linear weighting of raw variables is
distance-optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .archive import ForecastArchive, ObservationArchive, open_output

# Registered observation rules: name -> (callable over [k, ...] stacked
# hidden-variable values, human-readable formula, required hidden count).
G_FUNCTIONS = {
    "product_sin": (
        lambda v: v[0] * v[1] + np.sin(v[2]),
        "obs = v[0]*v[1] + sin(v[2])",
        3,
    ),
    "linear": (lambda v: v[0], "obs = v[0]", 1),
    "sum": (lambda v: np.sum(v, axis=0), "obs = sum(v)", 1),
}

CYCLE_START = 1293840000  # 2011-01-01T00:00:00Z
CYCLE_STEP = 86400  # daily cycles
LEAD_STEP = 3600  # hourly leads


@dataclass(frozen=True)
class SynthSpec:
    """Dimensions and latent rule of a synthetic dataset, on a fixed time grid:
    daily cycles from 2011-01-01T00:00:00Z and hourly leads, at most 24, all
    before the year 10000."""

    n_stations: int = 1
    n_cycles: int = 100
    n_leads: int = 1
    n_variables: int = 6
    seed: int = 0
    hidden: tuple[int, ...] = (0, 1, 2)  # variable indices feeding the rule
    g_name: str = "product_sin"
    sigma_noise: float = 0.1

    def __post_init__(self):
        if min(self.n_stations, self.n_cycles, self.n_leads, self.n_variables) < 1:
            raise ValueError("all dimensions must be positive")
        if not 0 <= self.sigma_noise < np.inf:  # NaN fails too
            raise ValueError("sigma_noise must be finite and nonnegative")
        if self.g_name not in G_FUNCTIONS:
            raise ValueError(f"unknown g {self.g_name!r}; known: {sorted(G_FUNCTIONS)}")
        if any(h < 0 or h >= self.n_variables for h in self.hidden):
            raise ValueError("hidden subset must index into the variables")
        if len(self.hidden) < G_FUNCTIONS[self.g_name][2]:
            raise ValueError(
                f"g {self.g_name!r} needs at least {G_FUNCTIONS[self.g_name][2]} hidden variables"
            )
        if self.n_leads > CYCLE_STEP // LEAD_STEP:  # valid times would collide
            raise ValueError("at most 24 leads: a 25th would reach the next cycle")
        last = CYCLE_START + CYCLE_STEP * (self.n_cycles - 1) + LEAD_STEP * (self.n_leads - 1)
        if last >= 253402300800:  # 10000-01-01T00:00:00Z: format_time's limit
            raise ValueError(f"valid times pass the year 9999 at {self.n_cycles} cycles")


@dataclass(frozen=True)
class SynthManifest:
    """Ground truth of a generated dataset."""

    g_name: str
    g_formula: str
    hidden_variables: list[str]
    sigma_noise: float
    seed: int

    def apply_g(self, hidden_values: np.ndarray) -> np.ndarray:
        """Evaluate the rule on stacked hidden-variable values [k, ...]."""
        return G_FUNCTIONS[self.g_name][0](hidden_values)


def variable_name(i: int) -> str:
    return f"v{i + 1}"


def station_name(i: int) -> str:
    return f"S{i:02d}"


def generate(spec: SynthSpec) -> tuple[ForecastArchive, ObservationArchive, SynthManifest]:
    """Deterministic, seeded dataset with its truth manifest. Raises
    ValueError when ``sigma_noise`` is so large that a noise draw overflows."""
    rng = np.random.default_rng(spec.seed)
    stations = [station_name(i) for i in range(spec.n_stations)]
    variables = [variable_name(i) for i in range(spec.n_variables)]
    cycles = CYCLE_START + CYCLE_STEP * np.arange(spec.n_cycles, dtype=np.int64)
    leads = LEAD_STEP * np.arange(spec.n_leads, dtype=np.int64)

    values = rng.standard_normal(
        (spec.n_stations, spec.n_variables, spec.n_cycles, spec.n_leads)
    )
    with np.errstate(over="ignore"):
        noise = spec.sigma_noise * rng.standard_normal(
            (spec.n_stations, spec.n_cycles, spec.n_leads)
        )
    if not np.isfinite(noise).all():  # an archive holding inf cannot be read back
        raise ValueError(f"sigma_noise {spec.sigma_noise} overflows the observation noise")

    hidden = np.array(spec.hidden, dtype=int)
    g = G_FUNCTIONS[spec.g_name][0]
    obs_grid = g(values[:, hidden, :, :].transpose(1, 0, 2, 3)) + noise  # [station, cycle, lead]

    # [cycle, lead]; no lead reaches the next cycle (SynthSpec), so it ascends in C order
    valid = cycles[:, None] + leads[None, :]

    fcst = ForecastArchive(stations, variables, cycles, leads, values)
    obs = ObservationArchive(stations, valid.ravel(), obs_grid.reshape(spec.n_stations, -1))
    manifest = SynthManifest(
        g_name=spec.g_name,
        g_formula=G_FUNCTIONS[spec.g_name][1],
        hidden_variables=[variables[h] for h in hidden],
        sigma_noise=spec.sigma_noise,
        seed=spec.seed,
    )
    return fcst, obs, manifest


def write_manifest(manifest: SynthManifest, path) -> None:
    with open_output(path) as fh:
        fh.write(f"g_name={manifest.g_name}\n")
        fh.write(f"g_formula={manifest.g_formula}\n")
        fh.write(f"hidden_variables={','.join(manifest.hidden_variables)}\n")
        fh.write(f"sigma_noise={manifest.sigma_noise}\n")
        fh.write(f"seed={manifest.seed}\n")
