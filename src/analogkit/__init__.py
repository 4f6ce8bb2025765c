"""Analog ensemble forecasting with classical and learned similarity metrics.

The package turns an archive of deterministic forecasts and paired
observations into calibrated ensemble forecasts by finding historical
analogs, under either a weighted-Euclidean window metric or Euclidean
distance between learned LSTM embeddings trained on reverse-analog
triplets. A verification suite and a synthetic-data harness round out the
toolkit; the ``analogkit`` command runs full experiments from config files.
"""

from .archive import (
    ClimatologyStats,
    ForecastArchive,
    ForecastWindow,
    ObservationArchive,
    climatology_stats,
    extract_window,
    load_forecasts,
    load_observations,
    valid_time,
    window_block,
    write_forecasts,
    write_observations,
)
from .ensemble import (
    AnalogQuery,
    Ranking,
    SearchBase,
    build_ensemble,
    classic_base,
    latent_base,
    search_classic,
    search_latent,
)
from .errors import (
    AnalogkitError,
    ConfigError,
    DataError,
    DivergenceError,
    InsufficientAnalogs,
    SchemaError,
    WindowUnavailable,
)
from .metric import MetricConfig, dissimilarity
from .network import (
    EmbeddingBlock,
    LstmLayerParams,
    LstmState,
    ModelCheckpoint,
    embed_block,
    forward,
    init_model,
    load_checkpoint,
    lstm_cell_step,
    save_checkpoint,
)
from .synthetic import SynthSpec, SynthManifest, generate
from .training import (
    AdamState,
    TrainConfig,
    Triplets,
    adam_step,
    backward,
    init_adam_state,
    plan_sampling,
    sample_triplets,
    train,
    triplet_loss,
)
from .verification import (
    VerificationReport,
    VerificationSet,
    bias,
    brier,
    build_report,
    crps,
    error_interval_rmse,
    rank_histogram,
    rmse,
    spread_error,
)

__version__ = "0.1.0"
