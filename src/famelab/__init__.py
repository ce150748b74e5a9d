"""famelab: guided-diffusion sampling lab on analytically tractable mixtures.

Provides closed-form Gaussian-mixture targets, a probability-flow ODE sampler,
classifier-free guidance, replay-based failure-mode-escape guidance with a
persistent failure pool, a small trainable MLP denoiser, and quality metrics.
"""

from .errors import (
    DegeneratePointError,
    DivergedError,
    FamelabError,
    IncompatiblePoolError,
    InvalidArgumentError,
    MalformedFileError,
    MalformedPoolError,
    NotFoundError,
    PipelineStageError,
    PoolBuildFailedError,
    ScorerFailedError,
    TrainingDivergedError,
)
from .schedule import (
    NoiseSchedule,
    derive_seed,
    load_trajectories,
    make_schedule,
    trajectory_dtype,
)
from .gmm import (
    GmmComponent,
    GmmSpec,
    exact_sampler,
    load_spec,
    noised_log_density,
    preset,
    responsibilities,
    save_spec,
)
from .sampler import (
    AnalyticSource,
    NeuralSource,
    SamplerConfig,
    sample_batch,
)
from .guidance import (
    FAME_DEFAULTS,
    GuidanceConfig,
    cfg_combine,
    fame_combine,
    guided_source,
    replay_active,
)
from .pool import (
    FailurePool,
    PoolBuildConfig,
    build_pool,
    load_pool,
    save_pool,
)
from .denoiser import (
    MlpDenoiser,
    TrainConfig,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    train,
)
from .metrics import (
    ComponentTagScorer,
    EvalReport,
    ExternalScorer,
    LogDensityScorer,
    ModeStats,
    assign_modes,
    evaluate,
    frechet_distance,
    make_scorer,
    mode_stats,
    precision_recall,
    render_report,
)
from .config import (
    ExperimentConfig,
    SweepSpec,
    load_config,
)
from .pipeline import (
    PairedCompareReport,
    compare_paired,
    run_pipeline,
    run_sweep,
)
from .plots import mode_scatter_svg, side_by_side_svg

__version__ = "0.1.0"
