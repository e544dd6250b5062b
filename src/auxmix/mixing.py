"""Stage-2 controller: GP-guided search over integer task mixing ratios.

The ratio lives on an integer grid (each count in ``[0, ratio_max]``, primary
count at least 1) but the GP models it in the continuous unit box; proposals
are decoded back to the grid by rounding.  A zero count drops the task from
the training schedule entirely, which is how stage 2 can discard an
auxiliary that survived stage 1.
"""

from __future__ import annotations

import functools
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
from .gp import MAX_N_SAMPLES, GpModel, fit, posterior, posterior_at
from .runlog import (
    RunAborted, RunLog, SettingError, derive_seed, is_int, require_floats, require_ints,
)

# The largest candidate pool and grid a config may ask for; Stage2Config
# rejects more.  A proposal scores its pool through a (pool_size, n)
# cross-covariance, 64 MiB at n = MAX_N_SAMPLES, beside two kernel
# temporaries of that size.  The largest such run, 512 evaluations of which
# 510 are random (tests/memory_bound.py, run by CI with BLAS on one thread),
# peaks below 350 MB RSS.  A ratio_max of at most 2^31
# keeps every count, and the sum of a ratio's counts, inside int64, for
# rng.integers and the training schedule's cumulative sum.  These are bounds,
# not settings.
MAX_POOL_SIZE = 2**14
MAX_RATIO_MAX = 2**31


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
    ratio_max: int = 20
    rng_seed: int = 0
    nu: float = 2.5
    ucb_lambda: float = DEFAULT_UCB_LAMBDA
    hedge_eta: float = 1.0
    pool_size: int = 256

    def __post_init__(self):
        require_ints(
            1, n_initial=self.n_initial, ratio_max=self.ratio_max, pool_size=self.pool_size
        )
        require_ints(2, n_samples=self.n_samples)
        require_ints(None, rng_seed=self.rng_seed)
        for key, bound in (
            ("n_samples", MAX_N_SAMPLES), ("pool_size", MAX_POOL_SIZE), ("ratio_max", MAX_RATIO_MAX)
        ):
            if getattr(self, key) > bound:
                raise SettingError(key, f"{key} must be at most {bound}, got {getattr(self, key)}")
        if self.n_initial >= self.n_samples:
            raise SettingError(
                "n_initial",
                f"need n_initial < n_samples, got n_initial={self.n_initial} "
                f"n_samples={self.n_samples}",
            )
        if self.nu not in (1.5, 2.5):
            raise SettingError("nu", f"nu must be 1.5 or 2.5, got {self.nu}")
        require_floats(">= 0", ucb_lambda=self.ucb_lambda)
        require_floats("positive", hedge_eta=self.hedge_eta)


class Stage2Environment(Protocol):
    """What stage 2 needs of an environment.

    ``train_full`` trains once per ratio, training k under ``seeds[k]``,
    and returns the K scores in order.  The trainings may run in lockstep,
    so none of them need finish before the last one does.
    """

    n_tasks: int

    def train_full(self, ratios: Sequence[MixingRatio], seeds: Sequence[int]) -> list[float]: ...


def encode(counts, ratio_max: int) -> np.ndarray:
    """Map integer counts to the unit box, ``x_k = count_k / ratio_max``, for
    one ratio's counts or a list of them; :func:`validate_ratio` checks the bound."""
    return np.asarray(counts, dtype=float) / ratio_max


def decode(x: Sequence[float], ratio_max: int) -> MixingRatio:
    """Round a unit-box point to the nearest grid ratio.

    The primary entry is clamped up to 1 afterwards; auxiliary entries may
    round to 0, which drops the task from the schedule.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a 1-D point, got shape {arr.shape}")
    values = arr.tolist()
    if not all(0.0 <= v <= 1.0 for v in values):  # NaN fails too
        raise ValueError(f"point must lie in the unit box, got {arr}")
    # round() rounds half to even, as np.rint does, in the same float64 product.
    counts = [round(v * ratio_max) for v in values]
    counts[0] = max(counts[0], 1)
    return MixingRatio(counts=tuple(counts))


def random_ratios(
    n: int, n_tasks: int, ratio_max: int, rng: np.random.Generator
) -> list[MixingRatio]:
    """``n`` uniform draws from the valid grid: primary in [1, max], auxiliaries
    in [0, max], in one ``integers`` call, which draws what one scalar call per
    count draws, ratio by ratio."""
    counts = rng.integers([1] + [0] * (n_tasks - 1), ratio_max + 1, size=(n, n_tasks))
    return [MixingRatio(counts=tuple(row)) for row in counts.tolist()]


def expand_to_tasks(ratio: MixingRatio, task_ids: Sequence[int], n_tasks: int) -> MixingRatio:
    """Spread a ratio over the stage-2 task subset onto the full task vector.

    Unselected tasks get count 0.  Assumes the environment's primary task is
    id 0 so the expanded vector still opens with the primary count.  Raises
    ``ValueError`` unless the ids are distinct integers in ``[0, n_tasks)``.
    """
    if len(task_ids) != ratio.n_tasks:
        raise ValueError(f"ratio has {ratio.n_tasks} entries for {len(task_ids)} tasks")
    by_id = dict(zip(task_ids, ratio.counts))
    if len(by_id) < ratio.n_tasks or not all(is_int(k) and 0 <= k < n_tasks for k in by_id):
        raise ValueError(f"task ids must be distinct integers in [0, {n_tasks}), got {task_ids}")
    return MixingRatio(counts=tuple(by_id.get(k, 0) for k in range(n_tasks)))


@functools.lru_cache(maxsize=64)
def _grid_moves(d: int, ratio_max: int) -> np.ndarray:
    """Read-only one-grid-step moves in ``d`` dimensions: row ``2j`` moves
    axis ``j`` down ``1 / ratio_max``, row ``2j + 1`` up."""
    step = 1.0 / ratio_max
    moves = (np.eye(d)[:, None, :] * [[-step], [step]]).reshape(2 * d, d)
    moves.flags.writeable = False
    return moves


def propose_next(
    model: GpModel, hedge: HedgeState, config: Stage2Config, rng: np.random.Generator
) -> tuple[MixingRatio, str, HedgeState]:
    """One round of portfolio-guided proposal under ``config``.

    A pool of ``config.pool_size`` uniform points in the unit box, plus
    every grid neighbor of the incumbent (the best observed point), is
    scored once.  Each acquisition nominates its pool argmax, UCB at
    ``config.ucb_lambda``; the portfolio picks one nomination, and all three
    gains are credited with the pool posterior's means at the nominees.

    Returns the decoded ratio, the acquisition that won, and the updated
    portfolio state.
    """
    best_idx = int(model.observations.argmax())
    tau = float(model.observations[best_idx])

    m, d = config.pool_size, model.points.shape[1]
    pool = np.empty((m + 2 * d, d))
    rng.random(out=pool[:m])  # the stream of rng.random((m, d))
    neighbors = np.add(model.points[best_idx], _grid_moves(d, config.ratio_max), out=pool[m:])
    np.minimum(np.maximum(neighbors, 0.0, out=neighbors), 1.0, out=neighbors)

    post = posterior(model, pool)
    pi = probability_of_improvement(post, tau)
    scores = (  # in ACQUISITIONS order; EI reuses PI's Phi(z)
        pi,
        expected_improvement(post, tau, pi),
        upper_confidence_bound(post, config.ucb_lambda),
    )
    nominee_rows = [int(s.argmax()) for s in scores]

    chosen = hedge_select(hedge, rng)
    new_hedge = hedge_update(hedge, post.mean[nominee_rows])
    nominee = pool[nominee_rows[ACQUISITIONS.index(chosen)]]
    return decode(nominee, config.ratio_max), chosen, new_hedge


def train_scores(
    env: Stage2Environment,
    ratios: Sequence[MixingRatio],
    task_ids: Sequence[int],
    seeds: Sequence[int],
    wheres: Sequence[str],
    log: RunLog,
    isolate_first: bool = False,
) -> Iterator[float]:
    """Scores of one batch of full trainings, inside the abort boundary.

    Each ratio covers ``task_ids`` and is spread onto the environment's full
    task vector; ``wheres[k]`` names ratio k's place in the run.  The batch
    trains in one ``train_full`` call and the scores are yielded in order.
    An exception from the environment ends the run as :class:`RunAborted`
    at the batch's first place; with ``isolate_first`` and several ratios,
    the first is retrained alone, and the run ends at the second place if
    that succeeds.  A score that is not finite ends the run when reached,
    so the caller has logged every score before it.  Either way the
    exception carries ``{"stage2": log}``.
    """
    env_ratios = [expand_to_tasks(ratio, task_ids, env.n_tasks) for ratio in ratios]
    partial = {"stage2": log}
    try:
        scores = [float(score) for score in env.train_full(env_ratios, list(seeds))]
        if len(scores) != len(ratios):
            raise ValueError(f"train_full returned {len(scores)} scores for {len(ratios)} ratios")
    except Exception as exc:
        where = wheres[0]
        if isolate_first and len(ratios) > 1:
            list(train_scores(env, ratios[:1], task_ids, seeds[:1], wheres[:1], log))
            where = wheres[1]
        raise RunAborted(f"environment failed {where}: {exc}", partial) from exc
    for where, score in zip(wheres, scores):
        if not math.isfinite(score):
            raise RunAborted(f"environment failed {where}: train_full returned {score!r}", partial)
        yield score


# One stage-2 proposal: the ratio, the acquisition that chose it, and the GP
# posterior mean and std at it (None when no model proposed it).
Proposal = tuple[MixingRatio, str, float | None, float | None]


def _gp_proposals(
    n_tasks: int, config: Stage2Config, records: Sequence[dict]
) -> Iterator[list[Proposal]]:
    """One batch of ``n_initial`` uniform random ratios, then GP-Hedge proposals one at a time.

    Each proposal comes from a GP refitted on ``records``, the stage-2 log
    records that :func:`run_stage2` appends before asking for the next
    batch; each fit extends the last one's fold by the records added since.
    Only those records are encoded, into rows of ``xs`` and ``ys`` past every
    earlier fit's, so no model's ``points`` or ``observations`` change.
    """
    rng = np.random.default_rng(derive_seed(config.rng_seed, "stage2"))
    initial = random_ratios(config.n_initial, n_tasks, config.ratio_max, rng)
    yield [(ratio, "random", None, None) for ratio in initial]
    hedge, model = HedgeState(eta=config.hedge_eta), None
    xs, ys = np.empty((config.n_samples, n_tasks)), np.empty(config.n_samples)
    for _ in range(config.n_initial, config.n_samples):
        k, n = 0 if model is None else model.n_observations, len(records)
        xs[k:n] = encode([r["proposed_ratio"] for r in records[k:]], config.ratio_max)
        ys[k:n] = [r["score"] for r in records[k:]]
        model = fit(xs[:n], ys[:n], nu=config.nu, base=model)
        ratio, acq, hedge = propose_next(model, hedge, config, rng)
        post = posterior_at(model, encode(ratio.counts, config.ratio_max))
        yield [(ratio, acq, post.mean, post.std)]


def run_stage2(
    env: Stage2Environment,
    task_ids: Sequence[int],
    config: Stage2Config,
    proposals: Iterable[Sequence[Proposal]] | None = None,
) -> tuple[MixingRatio, float, RunLog, float]:
    """Evaluate a budget of mixing ratios over the tasks ``task_ids``, primary
    0 first; return the best ratio and its score (ties go to the earliest),
    the log, the one record of every evaluation, and the baseline's score.

    ``proposals`` yields batches of ``(ratio, acquisition, posterior_mean,
    posterior_std)`` over ``task_ids``, by default :func:`_gp_proposals`.
    Each batch is checked (``ValueError`` for a ratio above ``ratio_max`` or
    of the wrong width, or when no batch holds a ratio), trained through
    :func:`train_scores` and logged round by round; round t trains from
    scratch under ``derive_seed(rng_seed, "eval", t)``, so a duplicate ratio
    is re-evaluated.
    The primary-only baseline ``(1, 0, ...)`` trains first in the first
    batch, under ``derive_seed(rng_seed, "baseline")``, outside the budget
    and the log; its failures end the run "on the baseline run".
    """
    log = RunLog()
    if proposals is None:
        proposals = _gp_proposals(len(task_ids), config, log.records)
    best_ratio, best_score = None, -math.inf
    baseline_score = None  # set by the first batch, which leads with the baseline
    for batch in proposals:
        ratios = [ratio for ratio, *_ in batch]
        for ratio in ratios:
            validate_ratio(ratio, config.ratio_max)
        rounds = range(len(log), len(log) + len(batch))
        seeds = [derive_seed(config.rng_seed, "eval", t) for t in rounds]
        wheres = [f"at stage-2 round {t}" for t in rounds]
        lead = baseline_score is None
        if lead:
            ratios.insert(0, MixingRatio((1,) + (0,) * (len(task_ids) - 1)))
            seeds.insert(0, derive_seed(config.rng_seed, "baseline"))
            wheres.insert(0, "on the baseline run")
        scores = train_scores(env, ratios, task_ids, seeds, wheres, log, isolate_first=lead)
        if lead:
            baseline_score = next(scores)
        for t, (ratio, acq, post_mean, post_std), score in zip(rounds, batch, scores):
            if score > best_score:  # strict: ties keep the earliest
                best_ratio, best_score = ratio, score
            log.append(
                round=t,
                proposed_ratio=list(ratio.counts),
                acquisition_used=acq,
                posterior_mean=post_mean,
                posterior_std=post_std,
                score=score,
                incumbent=best_score,
            )
    if best_ratio is None:
        raise ValueError("proposals yielded no ratio")
    return best_ratio, best_score, log, baseline_score
