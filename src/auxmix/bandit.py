"""Stage-1 controller: non-stationary Beta-Bernoulli bandit over candidate tasks.

Each candidate task is an arm whose Beta belief models the probability that
one more mini-batch of it improves (or maintains) the primary task's
validation metric.  Thompson sampling picks the task to train each round;
then every arm decays toward its prior, so the controller tracks utilities
that drift as training progresses.

The beliefs are two float sequences, ``alpha`` and ``beta``, indexed by task
id: arrays in the public functions, Python lists inside :func:`run_stage1`,
where NumPy's per-call cost outweighs a handful of arms.  A round draws each
arm with a scalar ``rng.beta(a, b)`` in task order, bitwise the array draw
``rng.beta(alpha, beta)``.  The log holds each round's choice, reward and
metric; :func:`belief_path` recovers the beliefs and :func:`thompson_draws`
the draws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .runlog import (
    RunAborted, RunLog, SettingError, derive_seed, is_int, require_floats, require_ints,
    require_work,
)

# Points of the theta grid in a utility density table, unless asked otherwise,
# and the most the CLI takes: a run renders its table before writing any file.
DENSITY_GRID_SIZE = 1000
MAX_DENSITY_GRID_SIZE = 2**16


@dataclass(frozen=True)
class BanditConfig:
    """Knobs for the stage-1 selection loop.

    ``gamma`` is the forgetting rate: 0 recovers the stationary conjugate
    update, 1 keeps no history beyond the latest reward.  The default keeps
    a forgetting horizon of roughly ``1/gamma = 50`` rounds, long enough to
    pin down arms with extreme utilities yet short against the default
    200-round run.  The primary task, task 0, has its prior strengthened by
    ``primary_prior_boost`` pseudo-successes so it is trained from the
    start and survives early noise.
    """

    n_tasks: int
    alpha0: float = 1.0
    beta0: float = 1.0
    gamma: float = 0.02
    primary_prior_boost: float = 2.0
    n_rounds: int = 200
    batches_per_round: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        require_ints(2, n_tasks=self.n_tasks)
        require_ints(0, n_rounds=self.n_rounds)
        require_ints(1, batches_per_round=self.batches_per_round)
        require_ints(None, rng_seed=self.rng_seed)
        require_work({"n_rounds": self.n_rounds, "batches_per_round": self.batches_per_round})
        require_floats("positive", alpha0=self.alpha0, beta0=self.beta0)
        if not (0.0 <= self.gamma <= 1.0):
            raise SettingError("gamma", f"gamma must lie in [0, 1], got {self.gamma}")
        require_floats(">= 0", primary_prior_boost=self.primary_prior_boost)


@dataclass(frozen=True)
class TaskSelection:
    """Outcome of stage 1: ordered task ids plus per-task expected utilities.

    ``final_arms`` holds the ``(alpha, beta)`` belief of every task that the
    utilities were read from; a selection made by hand may leave it empty,
    since stage 2 reads only the ids.
    """

    selected_task_ids: tuple[int, ...]
    expected_utilities: tuple[float, ...]
    final_arms: tuple[tuple[float, float], ...] = ()


class Environment(Protocol):
    """Training environment as seen by the stage-1 loop."""

    def reset(self, seed: int) -> None: ...

    def step(self, task_id: int) -> None: ...

    def validation_metric(self) -> float: ...


def initial_arms(config: BanditConfig) -> tuple[np.ndarray, np.ndarray]:
    """Prior ``(alpha, beta)`` arrays; the primary task 0 gets boosted pseudo-successes."""
    alpha = np.full(config.n_tasks, config.alpha0, dtype=float)
    alpha[0] += config.primary_prior_boost
    return alpha, np.full(config.n_tasks, config.beta0, dtype=float)


def update_posterior(
    alpha: np.ndarray, beta: np.ndarray, arm: int, reward: int, config: BanditConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Decay every arm toward its prior, then credit ``arm``; returns new arrays.

    All arms first shrink toward (alpha0, beta0) at rate ``gamma``; the
    selected arm then absorbs the observation as ``(reward, 1 - reward)``
    pseudo-counts.  Unselected arms only decay, so long-unused arms forget.
    """
    if not (is_int(arm) and 0 <= arm < len(alpha)):
        raise ValueError(f"arm must be an integer in [0, {len(alpha)}), got {arm!r}")
    if not (is_int(reward) and reward in (0, 1)):
        raise ValueError(f"reward must be 0 or 1, got {reward!r}")
    rates = _decay_rates(config)
    alpha, beta = _decay_credit(alpha.tolist(), beta.tolist(), arm, reward, rates)
    return np.array(alpha), np.array(beta)


def _decay_rates(config: BanditConfig) -> tuple[float, float, float]:
    """``(1 - g, g * alpha0, g * beta0)`` for ``gamma`` ``g``: the constants
    :func:`_decay_credit` takes, so a caller computes them once."""
    g = config.gamma
    return 1.0 - g, g * config.alpha0, g * config.beta0


def _decay_credit(
    alpha: list[float], beta: list[float], arm: int, reward: int, rates: tuple[float, float, float]
) -> tuple[list[float], list[float]]:
    """:func:`update_posterior`'s arithmetic on float lists, unchecked: the
    operations of ``(1 - g) * alpha + g * alpha0`` in the same order, with
    ``rates`` from :func:`_decay_rates`."""
    keep, alpha0, beta0 = rates
    alpha = [keep * a + alpha0 for a in alpha]
    beta = [keep * b + beta0 for b in beta]
    alpha[arm] += reward
    beta[arm] += 1 - reward
    return alpha, beta


def belief_path(
    records: Iterable[Mapping], config: BanditConfig
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The prior, then the ``(alpha, beta)`` beliefs after each logged round.

    Folds :func:`update_posterior` over the records' ``selected_arm`` and
    ``reward`` in log order, the calls :func:`run_stage1` made, so every
    belief equals the run's bit for bit, for a whole log or a partial one.
    """
    return itertools.accumulate(
        records,
        lambda arms, rec: update_posterior(*arms, rec["selected_arm"], rec["reward"], config),
        initial=initial_arms(config),
    )


def _thompson_rng(config: BanditConfig) -> np.random.Generator:
    """The generator of the run's Thompson draws, seeded from ``rng_seed`` alone."""
    return np.random.default_rng(derive_seed(config.rng_seed, "stage1-ts"))


def _draw(rng: np.random.Generator, alpha: Sequence[float], beta: Sequence[float]) -> list[float]:
    """One utility per arm, in task order, bit for bit ``rng.beta(alpha, beta)``."""
    return list(map(rng.beta, alpha, beta))


def thompson_draws(records: Sequence[Mapping], config: BanditConfig) -> np.ndarray:
    """The utilities :func:`run_stage1` drew in each logged round, bit for bit.

    The draws depend only on the generator, which :func:`_thompson_rng`
    seeds from the config, and on the beliefs before each round, which
    :func:`belief_path` folds from the records.  ``n`` records give an
    ``(n, n_tasks)`` array; for a log the run wrote, row ``t`` has its first
    maximum at record ``t``'s ``selected_arm``.
    """
    rng = _thompson_rng(config)
    draws = [_draw(rng, *arms) for _, arms in zip(records, belief_path(records, config))]
    return np.array(draws).reshape(len(draws), config.n_tasks)


def select_tasks(alpha: np.ndarray, beta: np.ndarray, config: BanditConfig) -> TaskSelection:
    """Final task subset: primary plus the promising auxiliaries.

    Auxiliaries qualify by being in the top two by expected utility
    ``alpha / (alpha + beta)`` or by clearing an expected utility of 0.5.
    Ranking ties break toward the lower task id.  The primary task 0 always
    opens the list; the auxiliaries follow in ascending task id order.
    """
    if not (len(alpha) == len(beta) == config.n_tasks):
        raise ValueError(f"expected {config.n_tasks} arms, got {len(alpha)} and {len(beta)}")
    utils = (alpha / (alpha + beta)).tolist()
    aux_ids = range(1, config.n_tasks)
    ranked = sorted(aux_ids, key=lambda k: (-utils[k], k))
    chosen = set(ranked[:2])
    chosen.update(k for k in aux_ids if utils[k] > 0.5)
    selected = [0] + sorted(chosen)
    return TaskSelection(
        selected_task_ids=tuple(selected),
        expected_utilities=tuple(utils),
        final_arms=tuple(zip(alpha.tolist(), beta.tolist())),
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
    final beliefs ride out on the selection's ``final_arms``.  The log keeps
    each round's choice, reward and metric; :func:`thompson_draws` redraws
    its utilities.  One block guards the environment, from ``reset``
    through the last round: if it raises or reports a non-finite metric,
    :class:`RunAborted` names the round, or "before stage-1 round 0", and
    carries the partial log as its ``"stage1"`` log.
    """
    alpha, beta = (arms.tolist() for arms in initial_arms(config))
    log = RunLog()
    rng, rates = _thompson_rng(config), _decay_rates(config)
    t = -1  # the round under way; -1 before round 0
    try:
        env.reset(derive_seed(config.rng_seed, "stage1-env"))
        metric_prev = _finite_metric(env)
        for t in range(config.n_rounds):
            thetas = _draw(rng, alpha, beta)
            k = thetas.index(max(thetas))
            env.step(k)
            metric_now = _finite_metric(env)
            reward = int(metric_now >= metric_prev)
            alpha, beta = _decay_credit(alpha, beta, k, reward, rates)
            log.append(round=t, selected_arm=k, reward=reward, metric=metric_now)
            metric_prev = metric_now
    except Exception as exc:
        where = f"at stage-1 round {t}" if t >= 0 else "before stage-1 round 0"
        raise RunAborted(f"environment failed {where}: {exc}", {"stage1": log}) from exc
    return select_tasks(np.array(alpha), np.array(beta), config), log


# The table goes through libm, whose log1p and exp NumPy's own differ from in
# the last ulp on about one density in ten.
_log = np.frompyfunc(math.log, 1, 1)
_log1p = np.frompyfunc(math.log1p, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def utility_density_table(
    arms: Sequence[Sequence[float]], grid_size: int = DENSITY_GRID_SIZE
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate each arm's Beta density on an interior grid of (0, 1).

    ``arms`` holds one ``(alpha, beta)`` pair per task, each finite and
    positive.  Grid points are ``theta_j = (j + 1) / (grid_size + 1)`` for
    ``j = 0 .. grid_size - 1``, so endpoints where the density may diverge
    are excluded.  Returns ``(theta, density)``, where row ``k`` of the
    ``(n_arms, grid_size)`` density holds task ``k``.  The normaliser goes
    through ``lgamma`` so large shape parameters stay finite.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    shapes = np.array(arms, dtype=float)
    if shapes.ndim != 2 or shapes.shape[1] != 2 or not np.all(np.isfinite(shapes) & (shapes > 0)):
        raise ValueError("every arm must be an (alpha, beta) pair of finite positive numbers")
    log_norm = [[math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)] for a, b in shapes.tolist()]
    theta = np.arange(1, grid_size + 1) / (grid_size + 1)
    log_density = (
        np.array(log_norm)
        + (shapes[:, :1] - 1.0) * _log(theta).astype(float)
        + (shapes[:, 1:] - 1.0) * _log1p(-theta).astype(float)
    )
    return theta, _exp(log_density).astype(float)
