"""Stage-2 controller: GP-guided search over integer task mixing ratios.

The ratio lives on an integer grid (each count in ``[0, ratio_max]``, primary
count at least 1) but the GP models it in the continuous unit box; proposals
are decoded back to the grid by rounding.  A zero count drops the task from
the training schedule entirely, which is how stage 2 can discard an
auxiliary that survived stage 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .acquisition import (
    ACQUISITIONS,
    DEFAULT_UCB_LAMBDA,
    HedgeState,
    expected_improvement,
    hedge_select,
    hedge_update,
    probability_of_improvement,
    upper_confidence_bound,
)
from .bandit import TaskSelection
from .gp import GpModel, fit, posterior, posterior_at
from .runlog import RunAborted, RunLog, SettingError, derive_seed, require_ints

DEFAULT_RATIO_MAX = 20
DEFAULT_POOL_SIZE = 256


@dataclass(frozen=True)
class MixingRatio:
    """Mini-batch counts per stage-2 task, primary first."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) == 0:
            raise ValueError("counts must not be empty")
        if any((not isinstance(c, int)) or isinstance(c, bool) for c in self.counts):
            raise ValueError(f"counts must be plain integers, got {self.counts!r}")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be non-negative, got {self.counts}")
        if self.counts[0] < 1:
            raise ValueError(f"primary count must be at least 1, got {self.counts[0]}")

    @property
    def n_tasks(self) -> int:
        return len(self.counts)


def validate_ratio(ratio: MixingRatio, ratio_max: int) -> None:
    """Check the per-entry upper bound that the type itself cannot know."""
    if any(c > ratio_max for c in ratio.counts):
        raise ValueError(f"ratio {ratio.counts} exceeds ratio_max={ratio_max}")


@dataclass(frozen=True)
class Stage2Config:
    """Knobs for the stage-2 evaluation loop."""

    n_samples: int = 20
    n_initial: int = 5
    ratio_max: int = DEFAULT_RATIO_MAX
    rng_seed: int = 0
    nu: float = 2.5
    ucb_lambda: float = DEFAULT_UCB_LAMBDA
    hedge_eta: float = 1.0
    pool_size: int = DEFAULT_POOL_SIZE

    def __post_init__(self):
        require_ints(
            1, n_initial=self.n_initial, ratio_max=self.ratio_max, pool_size=self.pool_size
        )
        require_ints(2, n_samples=self.n_samples)
        require_ints(None, rng_seed=self.rng_seed)
        if self.n_initial >= self.n_samples:
            raise SettingError(
                "n_initial",
                f"need n_initial < n_samples, got n_initial={self.n_initial} "
                f"n_samples={self.n_samples}",
            )
        if self.nu not in (1.5, 2.5):
            raise SettingError("nu", f"nu must be 1.5 or 2.5, got {self.nu}")
        if not (math.isfinite(self.ucb_lambda) and self.ucb_lambda >= 0):
            raise SettingError("ucb_lambda", f"ucb_lambda must be >= 0, got {self.ucb_lambda}")
        if not (math.isfinite(self.hedge_eta) and self.hedge_eta > 0):
            raise SettingError("hedge_eta", f"hedge_eta must be positive, got {self.hedge_eta}")


@dataclass(frozen=True)
class EvaluationRecord:
    """One completed full training: the ratio tried, its score, and the seed used."""

    ratio: MixingRatio
    score: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


class Stage2Environment(Protocol):
    """What stage 2 needs of an environment.

    ``train_full`` trains once per ratio, training k under ``seeds[k]``,
    and returns the K scores in order.  The trainings may run in lockstep,
    so none of them need finish before the last one does.
    """

    n_tasks: int

    def train_full(self, ratios: Sequence[MixingRatio], seeds: Sequence[int]) -> list[float]: ...


def encode(ratio: MixingRatio, ratio_max: int = DEFAULT_RATIO_MAX) -> np.ndarray:
    """Map integer counts to the unit box, ``x_k = count_k / ratio_max``."""
    validate_ratio(ratio, ratio_max)
    return np.asarray(ratio.counts, dtype=float) / float(ratio_max)


def decode(x: Sequence[float], ratio_max: int = DEFAULT_RATIO_MAX) -> MixingRatio:
    """Round a unit-box point to the nearest grid ratio.

    The primary entry is clamped up to 1 afterwards; auxiliary entries may
    round to 0, which drops the task from the schedule.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a 1-D point, got shape {arr.shape}")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"point must lie in the unit box, got {arr}")
    counts = [int(c) for c in np.rint(arr * ratio_max)]
    counts[0] = max(counts[0], 1)
    return MixingRatio(counts=tuple(counts))


def ratio_cycle(counts: Sequence[int]) -> list[int]:
    """One pass of the cyclic schedule as a list of task positions.

    ``counts[i]`` consecutive batches of task ``i``, in task order; repeat
    the returned list to extend training.  Ratio (2, 1) yields [0, 0, 1],
    i.e. primary, primary, auxiliary.
    """
    out: list[int] = []
    for i, c in enumerate(counts):
        out.extend([i] * int(c))
    if not out:
        raise ValueError("schedule is empty: all counts are zero")
    return out


def random_ratio(n_tasks: int, ratio_max: int, rng: np.random.Generator) -> MixingRatio:
    """Uniform draw from the valid grid: primary in [1, max], auxiliaries in [0, max]."""
    counts = [int(rng.integers(1, ratio_max + 1))]
    for _ in range(n_tasks - 1):
        counts.append(int(rng.integers(0, ratio_max + 1)))
    return MixingRatio(counts=tuple(counts))


def expand_to_tasks(ratio: MixingRatio, task_ids: Sequence[int], n_tasks: int) -> MixingRatio:
    """Spread a ratio over the stage-2 task subset onto the full task vector.

    Unselected tasks get count 0.  Assumes the environment's primary task is
    id 0 so the expanded vector still opens with the primary count.
    """
    if len(task_ids) != ratio.n_tasks:
        raise ValueError(f"ratio has {ratio.n_tasks} entries for {len(task_ids)} tasks")
    counts = [0] * n_tasks
    for pos, tid in enumerate(task_ids):
        counts[tid] = ratio.counts[pos]
    return MixingRatio(counts=tuple(counts))


def _neighbor_points(incumbent_x: np.ndarray, ratio_max: int) -> np.ndarray:
    """All one-grid-step moves (±1/ratio_max per axis) from the incumbent, clipped."""
    step = 1.0 / ratio_max
    points = []
    for j in range(incumbent_x.size):
        for sign in (-1.0, 1.0):
            p = incumbent_x.copy()
            p[j] = min(max(p[j] + sign * step, 0.0), 1.0)
            points.append(p)
    return np.array(points)


def propose_next(
    model: GpModel,
    hedge: HedgeState,
    pool_size: int,
    rng: np.random.Generator,
    *,
    ratio_max: int = DEFAULT_RATIO_MAX,
    ucb_lambda: float = DEFAULT_UCB_LAMBDA,
) -> tuple[MixingRatio, str, HedgeState]:
    """One round of portfolio-guided proposal.

    A candidate pool of ``pool_size`` uniform points in the unit box is
    augmented with every grid neighbor of the incumbent (the best observed
    point).  Each acquisition nominates its pool argmax, the portfolio picks
    one nomination to evaluate, and all three gains are credited with the
    posterior mean at their nominees.

    Returns the decoded ratio, the acquisition that won, and the updated
    portfolio state.
    """
    if model.n_observations == 0:
        raise RuntimeError("propose_next requires a model fitted on at least one observation")
    best_idx = int(np.argmax(model.observations))
    incumbent_x = model.points[best_idx]
    tau = float(model.observations[best_idx])

    pool = rng.random((pool_size, model.points.shape[1]))
    pool = np.vstack([pool, _neighbor_points(incumbent_x, ratio_max)])

    post = posterior(model, pool)
    scores = (  # in ACQUISITIONS order
        probability_of_improvement(post, tau),
        expected_improvement(post, tau),
        upper_confidence_bound(post, ucb_lambda),
    )
    nominees = [pool[int(np.argmax(s))] for s in scores]

    chosen = hedge_select(hedge, rng)
    new_hedge = hedge_update(hedge, nominees, model)
    nominee = nominees[ACQUISITIONS.index(chosen)]
    return decode(nominee, ratio_max), chosen, new_hedge


def train_scores(
    env: Stage2Environment,
    ratios: Sequence[MixingRatio],
    task_ids: Sequence[int],
    seeds: Sequence[int],
    wheres: Sequence[str],
    log: RunLog,
) -> Iterator[float]:
    """Scores of one batch of full trainings, inside the abort boundary.

    Each ratio covers ``task_ids`` and is spread onto the environment's
    full task vector first; ``wheres[k]`` names ratio k's place in the run.
    The whole batch trains in one ``train_full`` call, and the scores are
    yielded in order.  An exception from the environment ends the run as
    :class:`RunAborted` at the batch's first place; a score that is not
    finite ends it when it is reached, so the caller has logged every
    score before it.  Either way the exception carries ``{"stage2": log}``.
    """
    env_ratios = [expand_to_tasks(ratio, task_ids, env.n_tasks) for ratio in ratios]
    partial = {"stage2": log}
    try:
        scores = [float(score) for score in env.train_full(env_ratios, list(seeds))]
        if len(scores) != len(ratios):
            raise ValueError(f"train_full returned {len(scores)} scores for {len(ratios)} ratios")
    except Exception as exc:
        raise RunAborted(f"environment failed {wheres[0]}: {exc}", partial) from exc
    for where, score in zip(wheres, scores):
        if not math.isfinite(score):
            raise RunAborted(f"environment failed {where}: train_full returned {score!r}", partial)
        yield score


# One stage-2 proposal: the ratio, the acquisition that chose it, and the GP
# posterior mean and std at it (None when no model proposed it).
Proposal = tuple[MixingRatio, str, float | None, float | None]


def _gp_proposals(
    n_tasks: int, config: Stage2Config, records: Sequence[EvaluationRecord]
) -> Iterator[list[Proposal]]:
    """One batch of ``n_initial`` uniform random ratios, then GP-Hedge proposals one at a time.

    Each proposal comes from a GP refitted on ``records``, the evaluation
    history that :func:`run_stage2` extends before asking for the next batch.
    """
    rng = np.random.default_rng(derive_seed(config.rng_seed, "stage2"))
    yield [
        (random_ratio(n_tasks, config.ratio_max, rng), "random", None, None)
        for _ in range(config.n_initial)
    ]
    hedge = HedgeState(eta=config.hedge_eta)
    for _ in range(config.n_initial, config.n_samples):
        xs = np.array([encode(r.ratio, config.ratio_max) for r in records])
        model = fit(xs, np.array([r.score for r in records]), nu=config.nu)
        ratio, acq, hedge = propose_next(
            model,
            hedge,
            config.pool_size,
            rng,
            ratio_max=config.ratio_max,
            ucb_lambda=config.ucb_lambda,
        )
        post = posterior_at(model, encode(ratio, config.ratio_max))
        yield [(ratio, acq, post.mean, post.std)]


def run_stage2(
    env: Stage2Environment,
    tasks: TaskSelection,
    config: Stage2Config,
    proposals: Iterable[Sequence[Proposal]] | None = None,
) -> tuple[EvaluationRecord, list[EvaluationRecord], RunLog]:
    """Evaluate a budget of mixing ratios and return the best one found.

    ``proposals`` yields batches of ``(ratio, acquisition, posterior_mean,
    posterior_std)``, one per round, each ratio over the selected tasks;
    every batch is validated, trained in one ``train_full`` call, and
    logged round by round.  By default the first batch holds the
    ``n_initial`` uniform random draws from the valid grid, and each later
    one, up to ``n_samples`` rounds, holds one :func:`propose_next` ratio
    from a GP refitted on the full history.  Every evaluation trains from
    scratch under a fresh seed derived from ``(rng_seed, "eval", round)``,
    so a duplicate ratio is genuinely re-evaluated.  Best record ties break
    toward the earliest evaluation.

    Raises
    ------
    ValueError
        For a proposed ratio above ``ratio_max`` or of the wrong width.
    RunAborted
        On environment failure or a non-finite score; the partial log rides
        on the exception as its ``"stage2"`` log.  A non-finite score at
        round t leaves rounds before t in the log; an exception inside a
        batch leaves the rounds before the batch.
    """
    task_ids = tasks.selected_task_ids
    records: list[EvaluationRecord] = []
    log = RunLog()
    if proposals is None:
        proposals = _gp_proposals(len(task_ids), config, records)
    best_score = -math.inf
    for batch in proposals:
        ratios = [ratio for ratio, *_ in batch]
        for ratio in ratios:
            validate_ratio(ratio, config.ratio_max)
        rounds = range(len(records), len(records) + len(batch))
        seeds = [derive_seed(config.rng_seed, "eval", t) for t in rounds]
        wheres = [f"at stage-2 round {t}" for t in rounds]
        scores = train_scores(env, ratios, task_ids, seeds, wheres, log)
        for t, (ratio, acq, post_mean, post_std), seed, score in zip(rounds, batch, seeds, scores):
            records.append(EvaluationRecord(ratio=ratio, score=score, seed=seed))
            best_score = max(best_score, score)
            log.append(
                round=t,
                proposed_ratio=list(ratio.counts),
                acquisition_used=acq,
                posterior_mean=post_mean,
                posterior_std=post_std,
                score=score,
                incumbent=best_score,
            )
    best = max(records, key=lambda r: r.score)  # max() keeps the earliest on ties
    return best, records, log
