"""Stage-1 controller: non-stationary Beta-Bernoulli bandit over candidate tasks.

Each candidate task is an arm.  The arm's Beta belief models the probability
that one more mini-batch of that task improves (or at least maintains) the
primary task's validation metric.  Thompson sampling picks the task to train
each round; after the reward is observed every arm decays toward its prior,
which lets the controller track utilities that drift as training progresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .runlog import RunAborted, RunLog, SettingError, derive_seed


@dataclass(frozen=True)
class BetaArm:
    """Beta(alpha, beta) belief over one task's utility."""

    alpha: float
    beta: float
    task_id: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")


@dataclass(frozen=True)
class BanditConfig:
    """Knobs for the stage-1 selection loop.

    ``gamma`` is the forgetting rate: 0 recovers the stationary conjugate
    update, 1 keeps no history beyond the latest reward.  The default keeps
    a forgetting horizon of roughly ``1/gamma = 50`` rounds, long enough to
    pin down arms with extreme utilities yet short against the default
    200-round run.  The primary task's prior is strengthened by
    ``primary_prior_boost`` pseudo-successes so it is trained from the
    start and survives early noise.
    """

    n_tasks: int
    alpha0: float = 1.0
    beta0: float = 1.0
    gamma: float = 0.02
    primary_prior_boost: float = 2.0
    primary_task_id: int = 0
    n_rounds: int = 200
    batches_per_round: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_tasks < 2:
            raise SettingError("n_tasks", f"n_tasks must be at least 2, got {self.n_tasks}")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise SettingError("alpha0", f"alpha0 must be positive, got {self.alpha0}")
        if not (math.isfinite(self.beta0) and self.beta0 > 0):
            raise SettingError("beta0", f"beta0 must be positive, got {self.beta0}")
        if not (0.0 <= self.gamma <= 1.0):
            raise SettingError("gamma", f"gamma must lie in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.primary_prior_boost) and self.primary_prior_boost >= 0):
            raise SettingError(
                "primary_prior_boost",
                f"primary_prior_boost must be >= 0, got {self.primary_prior_boost}",
            )
        if not (0 <= self.primary_task_id < self.n_tasks):
            raise SettingError(
                "primary_task_id",
                f"primary_task_id must lie in [0, {self.n_tasks}), got {self.primary_task_id}",
            )
        if self.n_rounds < 0:
            raise SettingError("n_rounds", f"n_rounds must be >= 0, got {self.n_rounds}")
        if self.batches_per_round < 1:
            raise SettingError(
                "batches_per_round", f"batches_per_round must be >= 1, got {self.batches_per_round}"
            )


@dataclass(frozen=True)
class TaskSelection:
    """Outcome of stage 1: ordered task ids plus per-task expected utilities."""

    selected_task_ids: tuple[int, ...]
    expected_utilities: tuple[float, ...]


class Environment(Protocol):
    """Training environment as seen by the stage-1 loop."""

    def reset(self, seed: int) -> None: ...

    def step(self, task_id: int) -> None: ...

    def validation_metric(self) -> float: ...


def expected_utility(arm: BetaArm) -> float:
    """Posterior mean of the arm's utility, ``alpha / (alpha + beta)``."""
    return arm.alpha / (arm.alpha + arm.beta)


def beta_pdf(theta: float, arm: BetaArm) -> float:
    """Density of Beta(alpha, beta) at ``theta``.

    Evaluated through ``lgamma`` so large shape parameters stay finite.
    ``theta`` must lie in the open interval (0, 1).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    a, b = arm.alpha, arm.beta
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return math.exp(log_norm + (a - 1.0) * math.log(theta) + (b - 1.0) * math.log1p(-theta))


def initial_arms(config: BanditConfig) -> list[BetaArm]:
    """Prior arms for every task; the primary task gets boosted pseudo-successes."""
    arms = []
    for k in range(config.n_tasks):
        alpha = config.alpha0
        if k == config.primary_task_id:
            alpha = config.alpha0 + config.primary_prior_boost
        arms.append(BetaArm(alpha=alpha, beta=config.beta0, task_id=k))
    return arms


def sample_utilities(arms: Sequence[BetaArm], rng: np.random.Generator) -> np.ndarray:
    """Draw one Thompson sample per arm, in arm order."""
    alphas = np.array([a.alpha for a in arms], dtype=float)
    betas = np.array([a.beta for a in arms], dtype=float)
    return rng.beta(alphas, betas)


def select_arm(sampled_utilities: Sequence[float]) -> int:
    """Index of the largest sampled utility; ties go to the lowest index."""
    sampled = np.asarray(sampled_utilities, dtype=float)
    if sampled.size == 0:
        raise ValueError("cannot select from an empty utility vector")
    return int(np.argmax(sampled))


def compute_reward(metric_now: float, metric_prev: float) -> int:
    """1 when the metric improved or held steady, else 0."""
    if not (math.isfinite(metric_now) and math.isfinite(metric_prev)):
        raise ValueError(
            f"metrics must be finite, got now={metric_now!r} prev={metric_prev!r}"
        )
    return 1 if metric_now >= metric_prev else 0


def _posterior_step(
    alpha: np.ndarray, beta: np.ndarray, selected_arm: int, reward: int, config: BanditConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`update_posterior`; returns new ``(alpha, beta)`` arrays."""
    g = config.gamma
    alpha = (1.0 - g) * alpha + g * config.alpha0
    beta = (1.0 - g) * beta + g * config.beta0
    alpha[selected_arm] += reward
    beta[selected_arm] += 1 - reward
    return alpha, beta


def update_posterior(
    arms: Sequence[BetaArm], selected_arm: int, reward: int, config: BanditConfig
) -> list[BetaArm]:
    """Decay every arm toward its prior, then credit the selected arm.

    All arms first shrink toward (alpha0, beta0) at rate ``gamma``; the
    selected arm then absorbs the observation as ``(reward, 1 - reward)``
    pseudo-counts.  Unselected arms only decay, so long-unused arms forget.
    """
    if not (0 <= selected_arm < len(arms)):
        raise ValueError(f"selected_arm {selected_arm} out of range for {len(arms)} arms")
    if reward not in (0, 1):
        raise ValueError(f"reward must be 0 or 1, got {reward!r}")
    alpha, beta = _posterior_step(
        np.array([a.alpha for a in arms], dtype=float),
        np.array([a.beta for a in arms], dtype=float),
        selected_arm,
        reward,
        config,
    )
    return [
        BetaArm(alpha=a, beta=b, task_id=arm.task_id)
        for a, b, arm in zip(alpha.tolist(), beta.tolist(), arms)
    ]


def select_tasks(arms: Sequence[BetaArm], config: BanditConfig) -> TaskSelection:
    """Final task subset: primary plus the promising auxiliaries.

    Auxiliaries qualify by being in the top two by expected utility or by
    clearing an expected utility of 0.5.  Ranking ties break toward the
    lower task id.  The primary task always opens the list; the auxiliaries
    follow in ascending task id order.
    """
    if len(arms) != config.n_tasks:
        raise ValueError(f"expected {config.n_tasks} arms, got {len(arms)}")
    utils = [expected_utility(a) for a in arms]
    aux_ids = [k for k in range(config.n_tasks) if k != config.primary_task_id]
    ranked = sorted(aux_ids, key=lambda k: (-utils[k], k))
    chosen = set(ranked[:2])
    chosen.update(k for k in aux_ids if utils[k] > 0.5)
    selected = [config.primary_task_id] + sorted(chosen)
    return TaskSelection(
        selected_task_ids=tuple(selected),
        expected_utilities=tuple(utils),
    )


def _finite_metric(env: Environment) -> float:
    metric = float(env.validation_metric())
    if not math.isfinite(metric):
        raise ValueError(f"validation_metric returned {metric!r}")
    return metric


def run_stage1(env: Environment, config: BanditConfig) -> tuple[TaskSelection, RunLog]:
    """Run the Thompson-sampling loop and return the surviving task subset.

    Each round: sample a utility per arm, train one round of the winning
    task, score the primary validation metric, convert it to the binary
    improved-or-maintained reward, and update all arms.  With
    ``n_rounds == 0`` the selection falls out of the priors alone.  The
    beliefs live in two arrays for the whole loop; the :class:`BetaArm`
    objects are built once, for :func:`select_tasks`.

    Raises
    ------
    RunAborted
        If the environment raises or reports a non-finite metric, from
        ``reset`` on; the partial log rides along on the exception.
    """
    arms = initial_arms(config)
    alpha = np.array([a.alpha for a in arms], dtype=float)
    beta = np.array([a.beta for a in arms], dtype=float)
    log = RunLog()
    rng = np.random.default_rng(derive_seed(config.rng_seed, "stage1-ts"))
    try:
        env.reset(derive_seed(config.rng_seed, "stage1-env"))
        metric_prev = _finite_metric(env)
    except Exception as exc:
        raise RunAborted(f"environment failed before stage-1 round 0: {exc}", log=log) from exc
    for t in range(config.n_rounds):
        thetas = rng.beta(alpha, beta)
        k = int(np.argmax(thetas))
        try:
            env.step(k)
            metric_now = _finite_metric(env)
        except Exception as exc:
            raise RunAborted(f"environment failed at stage-1 round {t}: {exc}", log=log) from exc
        reward = compute_reward(metric_now, metric_prev)
        alpha, beta = _posterior_step(alpha, beta, k, reward, config)
        log.append(
            round=t,
            sampled_thetas=thetas.tolist(),
            selected_arm=k,
            reward=reward,
            metric=metric_now,
            arms_after=np.column_stack((alpha, beta)).tolist(),
        )
        metric_prev = metric_now
    final = zip(alpha.tolist(), beta.tolist())
    arms = [BetaArm(alpha=a, beta=b, task_id=k) for k, (a, b) in enumerate(final)]
    return select_tasks(arms, config), log


def utility_density_table(
    arms: Sequence[BetaArm], grid_size: int = 1000
) -> list[tuple[int, float, float]]:
    """Tabulate each arm's Beta density on an interior grid of (0, 1).

    Grid points are ``theta_j = (j + 1) / (grid_size + 1)`` for
    ``j = 0 .. grid_size - 1``, so endpoints where the density may diverge
    are excluded.  Rows come out as ``(task_id, theta, density)`` ordered by
    task then theta, ready to be written as CSV.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    thetas = [(j + 1) / (grid_size + 1) for j in range(grid_size)]
    rows = []
    for arm in arms:
        for theta in thetas:
            rows.append((arm.task_id, theta, beta_pdf(theta, arm)))
    return rows
