"""Two-stage controller for auxiliary-task selection in multi-task training.

Stage 1 ranks candidate auxiliary tasks with a non-stationary
Beta-Bernoulli bandit driven by Thompson sampling; stage 2 tunes the
integer mixing ratio over the surviving tasks with Gaussian-process
optimization under a portfolio of acquisition functions.
"""

from __future__ import annotations

from .bandit import (
    BanditConfig,
    TaskSelection,
    belief_path,
    compute_reward,
    initial_arms,
    run_stage1,
    select_tasks,
    thompson_draws,
    update_posterior,
    utility_density_table,
)
from .gp import (
    GpModel,
    KernelParams,
    Posterior,
    build_gp,
    fit,
    matern_kernel,
    posterior,
    posterior_at,
)
from .acquisition import (
    ACQUISITIONS,
    HedgeState,
    expected_improvement,
    hedge_probabilities,
    hedge_select,
    hedge_update,
    probability_of_improvement,
    upper_confidence_bound,
)
from .mixing import (
    EvaluationRecord,
    MixingRatio,
    Stage2Config,
    decode,
    encode,
    propose_next,
    ratio_cycle,
    run_stage2,
)
from .environments import PlantedBanditEnv, SharedParamMtlEnv, make_environment
from .pipeline import PipelineConfig, PipelineReport, run_pipeline, write_outputs
from .runlog import RunAborted, RunLog, SettingError, canonical_dumps, derive_seed

__version__ = "0.1.0"

__all__ = [
    "ACQUISITIONS",
    "BanditConfig",
    "EvaluationRecord",
    "GpModel",
    "HedgeState",
    "KernelParams",
    "MixingRatio",
    "PipelineConfig",
    "PipelineReport",
    "PlantedBanditEnv",
    "Posterior",
    "RunAborted",
    "RunLog",
    "SettingError",
    "SharedParamMtlEnv",
    "Stage2Config",
    "TaskSelection",
    "belief_path",
    "build_gp",
    "canonical_dumps",
    "compute_reward",
    "decode",
    "derive_seed",
    "encode",
    "expected_improvement",
    "fit",
    "hedge_probabilities",
    "hedge_select",
    "hedge_update",
    "initial_arms",
    "make_environment",
    "matern_kernel",
    "posterior",
    "posterior_at",
    "probability_of_improvement",
    "propose_next",
    "ratio_cycle",
    "run_pipeline",
    "run_stage1",
    "run_stage2",
    "select_tasks",
    "thompson_draws",
    "update_posterior",
    "upper_confidence_bound",
    "utility_density_table",
    "write_outputs",
]
