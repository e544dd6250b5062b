"""Synthetic multi-task environments with known ground truth.

Both families satisfy the same contract: ``step(task_id)`` trains a round of
mini-batches on one task, ``validation_metric()`` scores the primary task in
[0, 1], ``train_full(ratios, seeds)`` runs one complete training per ratio,
each under its own seed and cyclic mixing schedule, and returns their scores
in order, and ``reset(seed)`` restarts the episode.  Everything is
deterministic given the seeds, which is what makes replay a byte-level
contract further up the stack.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .mixing import MixingRatio
from .runlog import SettingError, derive_seed, require_floats, require_ints

PLANTED_METRIC_INCREMENT = 1e-3

# The most floats a shared-linear environment's data may hold, 1 GiB of
# float64: (n_primary_train + n_aux * n_aux_tasks + n_primary_heldout) * dim.
# A larger setting is rejected before anything is allocated.  A bound, not a setting.
MAX_DATA_FLOATS = 2**27

# The most rows _sgd gathers per block, and draws indices for per span, of
# lockstep steps: K trainings take max(1, ROWS // (K * batch_size)) steps per
# block or span.  Sizes measured in CHANGES.md ("Stage-2 ratios train in
# lockstep batches") and BENCH_sgd_spans.json; not settings.
_GATHER_ROWS = 3072
_DRAW_ROWS = 2**13

# The largest batch_size, so that one training's mini-batch fits in one
# gather block; a larger one is rejected.  A bound, not a setting.
MAX_BATCH_SIZE = _GATHER_ROWS


def _check_batch(ratios: Sequence[MixingRatio], seeds: Sequence[int], n_tasks: int) -> None:
    if len(ratios) != len(seeds):
        raise ValueError(f"got {len(ratios)} ratios but {len(seeds)} seeds")
    for ratio in ratios:
        if ratio.n_tasks != n_tasks:
            raise ValueError(f"ratio has {ratio.n_tasks} entries for {n_tasks} tasks")


class PlantedBanditEnv:
    """Environment whose per-task reward process is exactly Bernoulli(theta_star).

    Stepping task ``k`` raises the metric with probability ``theta_star[k]``
    and lowers it otherwise, so the improved-or-maintained reward upstream
    reproduces the planted Bernoulli draws bit for bit.  ``train_full``
    scores a mixing ratio by the share-weighted planted utilities, giving
    stage 2 a known landscape whose optimum puts weight on high-theta tasks.
    """

    def __init__(
        self,
        theta_star: Sequence[float] = (0.8, 0.9, 0.1),
        score_noise: float = 0.01,
    ):
        theta = [float(t) for t in theta_star]
        if len(theta) < 1:
            raise SettingError("theta_star", "theta_star must have at least one entry")
        if any(not (0.0 <= t <= 1.0) for t in theta):
            raise SettingError("theta_star", f"theta_star entries must lie in [0, 1], got {theta}")
        require_floats(">= 0", score_noise=score_noise)
        self.theta_star = tuple(theta)
        self.score_noise = float(score_noise)
        self._rng = np.random.default_rng(0)
        self._metric = 0.5

    @property
    def n_tasks(self) -> int:
        return len(self.theta_star)

    def reset(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._metric = 0.5

    def step(self, task_id: int) -> None:
        """Move the metric up on a planted success, down otherwise.

        The failure move halves the metric instead of subtracting when the
        metric is already below the decrement, so the metric stays positive
        and a failure can never register as improved-or-maintained.
        """
        if not (0 <= task_id < self.n_tasks):
            raise ValueError(f"task_id {task_id} out of range for {self.n_tasks} tasks")
        success = self._rng.random() < self.theta_star[task_id]
        if success:
            self._metric = min(1.0, self._metric + PLANTED_METRIC_INCREMENT)
        elif self._metric >= 2.0 * PLANTED_METRIC_INCREMENT:
            self._metric -= PLANTED_METRIC_INCREMENT
        else:
            self._metric /= 2.0

    def validation_metric(self) -> float:
        return self._metric

    def train_full(self, ratios: Sequence[MixingRatio], seeds: Sequence[int]) -> list[float]:
        """Share-weighted utility score of each ratio, pure in (ratio, seed).

        ``0.5 + sum_k share_k (theta_k - 0.5)``, in Python floats summed by
        ``math.fsum``, so no NumPy or BLAS kernel moves it, plus small seeded
        Gaussian noise, clamped to [0, 1]; ``share_k`` is task k's fraction
        of the cycle.  Maximized by concentrating the ratio on high-utility
        tasks and zeroing low-utility ones.
        """
        _check_batch(ratios, seeds, self.n_tasks)
        scores = []
        for ratio, seed in zip(ratios, seeds):
            total = sum(ratio.counts)
            shares = [c / total * (t - 0.5) for c, t in zip(ratio.counts, self.theta_star)]
            base = 0.5 + math.fsum(shares)
            noise = self.score_noise * float(np.random.default_rng(seed).standard_normal())
            scores.append(float(min(max(base + noise, 0.0), 1.0)))
        return scores


class SharedParamMtlEnv:
    """Linear-regression surrogate for multi-task training with shared weights.

    One weight vector ``w`` is shared by every task.  The primary task and
    each useful auxiliary draw labels from (noisy copies of) the same hidden
    ``w*``; harmful auxiliaries use independent random weights, so training
    on them drags ``w`` away from ``w*``.  The metric is one minus the
    normalized MSE of the primary held-out set, clamped to [0, 1].

    ``task_profile`` lists one kind per task: entry 0 must be "primary",
    the rest "useful" or "harmful".
    """

    # A huge shift, scale or noise overflows while the data are built; the
    # data are checked instead, so the outcome is the same under any warnings filter.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(
        self,
        task_profile: Sequence[str] = ("primary", "useful", "harmful"),
        dim: int = 16,
        n_primary_train: int = 256,
        n_primary_heldout: int = 256,
        n_aux: int = 128,
        total_batches: int = 2000,
        batch_size: int = 8,
        learning_rate: float = 0.05,
        batches_per_round: int = 10,
        primary_label_noise: float = 0.0,
        aux_label_noise: float = 0.0,
        useful_shift: float = 0.1,
        harmful_scale: float = 1.5,
        data_seed: int = 0,
    ):
        profile = tuple(str(k) for k in task_profile)
        if len(profile) < 1 or profile[0] != "primary":
            raise SettingError(
                "task_profile", f"task_profile must start with 'primary', got {profile}"
            )
        if any(k not in ("useful", "harmful") for k in profile[1:]):
            raise SettingError(
                "task_profile",
                f"task_profile auxiliary kinds must be 'useful' or 'harmful', got {profile}",
            )
        require_ints(
            1, dim=dim, n_primary_train=n_primary_train, n_aux=n_aux, total_batches=total_batches,
            batch_size=batch_size, batches_per_round=batches_per_round,
        )
        if batch_size > MAX_BATCH_SIZE:
            raise SettingError(
                "batch_size",
                f"batch_size must be at most {MAX_BATCH_SIZE} (MAX_BATCH_SIZE), got {batch_size}",
            )
        # The metric divides by the held-out label variance, which is 0 for a single row.
        require_ints(2, n_primary_heldout=n_primary_heldout)
        require_ints(None, data_seed=data_seed)
        require_floats("positive", learning_rate=learning_rate)
        require_floats(
            None, primary_label_noise=primary_label_noise, aux_label_noise=aux_label_noise,
            useful_shift=useful_shift, harmful_scale=harmful_scale,
        )
        rows = {
            "n_primary_train": int(n_primary_train),
            "n_aux": int(n_aux) * (len(profile) - 1),
            "n_primary_heldout": int(n_primary_heldout),
        }
        n_floats = sum(rows.values()) * int(dim)
        if n_floats > MAX_DATA_FLOATS:
            sizes = {**rows, "dim": int(dim)}
            name = max(sizes, key=sizes.get)  # the dominant size
            raise SettingError(
                name,
                f"the data would hold {n_floats} floats, over the budget of "
                f"{MAX_DATA_FLOATS} (MAX_DATA_FLOATS); reduce {name}",
            )
        self.task_profile = profile
        self.dim = int(dim)
        self.total_batches = int(total_batches)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.batches_per_round = int(batches_per_round)

        data_rng = np.random.default_rng(derive_seed(data_seed, "mtl-data"))
        self.w_star = data_rng.standard_normal(dim)
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        for k, kind in enumerate(profile):
            if kind == "primary":
                n = n_primary_train
                w_task = self.w_star
                label_noise = primary_label_noise
            elif kind == "useful":
                n = n_aux
                w_task = self.w_star + useful_shift * data_rng.standard_normal(dim)
                label_noise = aux_label_noise
            else:
                n = n_aux
                w_task = harmful_scale * data_rng.standard_normal(dim)
                label_noise = aux_label_noise
            x = data_rng.standard_normal((n, dim))
            signal = x @ w_task
            y = signal + label_noise * data_rng.standard_normal(n)
            if not np.isfinite(signal).all():  # never the primary's: w_task is w_star
                name = "useful_shift" if kind == "useful" else "harmful_scale"
                raise SettingError(name, f"{name} makes the generated data overflow")
            if not np.isfinite(y).all():
                name = "primary_label_noise" if kind == "primary" else "aux_label_noise"
                raise SettingError(name, f"{name} makes the generated data overflow")
            xs.append(x)
            ys.append(y)
        # Every task's training set stacked into one array; task k owns rows
        # _offsets[k] : _offsets[k] + _sizes[k].
        self._x = np.concatenate(xs)
        self._y = np.concatenate(ys)
        self._sizes = np.array([len(y) for y in ys])
        self._offsets = np.cumsum(self._sizes) - self._sizes
        self._x_heldout = data_rng.standard_normal((n_primary_heldout, dim))
        self._y_heldout = self._x_heldout @ self.w_star
        self._heldout_var = float(np.var(self._y_heldout))

        self._w = np.zeros(dim)
        self._rng = np.random.default_rng(0)

    @property
    def n_tasks(self) -> int:
        return len(self.task_profile)

    def reset(self, seed: int) -> None:
        self._w = np.zeros(self.dim)
        self._rng = np.random.default_rng(seed)

    # A diverging training overflows to the NaN that the run aborts on; ignoring
    # the overflow keeps the run the same under any warnings filter.
    @np.errstate(over="ignore", invalid="ignore")
    def _sgd(
        self, task_ids: np.ndarray, rngs: Sequence[np.random.Generator], w: np.ndarray
    ) -> None:
        """Run K trainings in lockstep, updating the ``(K, dim)`` weight stack ``w``.

        Training k runs one mini-batch of task ``task_ids[k, b]`` at each step
        b, with row indices drawn from ``rngs[k]``.  A stacked ``matmul``
        applies the same kernel to each training as the 2-D product of one,
        so every row of ``w`` ends bitwise where training it alone would.
        Per training and span, one ``integers`` call with per-element bounds
        consumes the generator exactly as one call per batch would.
        """
        bs = self.batch_size
        rows = max(len(rngs), 1) * bs  # one step of every training
        span, block = max(1, _DRAW_ROWS // rows), max(1, _GATHER_ROWS // rows)
        cols = w[:, :, None]  # each training's weights as a column, a view of w
        for start in range(0, task_ids.shape[1], span):
            ids = task_ids[:, start : start + span]
            idx = np.repeat(self._offsets[ids], bs, axis=1)
            for row, rng, bound in zip(idx, rngs, np.repeat(self._sizes[ids], bs, axis=1)):
                row += rng.integers(0, bound)
            for b in range(0, idx.shape[1], block * bs):
                self._sgd_block(idx[:, b : b + block * bs], cols)

    def _sgd_block(self, idx: np.ndarray, cols: np.ndarray) -> None:
        """One block of :meth:`_sgd`: the steps whose ``(K, steps * batch_size)``
        row indices are ``idx``; its gathered rows are freed on return."""
        bs, lr = self.batch_size, self.learning_rate
        shape = (idx.shape[0], idx.shape[1] // bs, bs)
        xs = self._x[idx].reshape(*shape, self.dim).swapaxes(0, 1)
        ys = self._y[idx].reshape(*shape, 1).swapaxes(0, 1)
        for xb, xb_t, yb in zip(xs, xs.swapaxes(2, 3), ys):
            grad = xb_t @ (xb @ cols - yb) / bs
            cols -= lr * grad

    def step(self, task_id: int) -> None:
        """Train one round (``batches_per_round`` mini-batches) of one task."""
        if not (0 <= task_id < self.n_tasks):
            raise ValueError(f"task_id {task_id} out of range for {self.n_tasks} tasks")
        self._sgd(np.full((1, self.batches_per_round), task_id), [self._rng], self._w[None])

    @np.errstate(over="ignore", invalid="ignore")
    def _metric_of(self, w: np.ndarray) -> float:
        mse = float(np.mean((self._x_heldout @ w - self._y_heldout) ** 2))
        return float(min(max(1.0 - mse / self._heldout_var, 0.0), 1.0))

    def validation_metric(self) -> float:
        return self._metric_of(self._w)

    def train_full(self, ratios: Sequence[MixingRatio], seeds: Sequence[int]) -> list[float]:
        """Train fresh weights for each ratio, all in lockstep; pure in (ratio, seed).

        Training k repeats the cycle of ``ratios[k]`` (count_0 batches of
        task 0, count_1 of task 1, ...) until ``total_batches`` mini-batches
        have run, truncating the final cycle if needed, and draws its
        indices from ``default_rng(seeds[k])``.  Each score is bitwise the
        one that training its ratio alone gives.  Episode state is untouched.
        """
        _check_batch(ratios, seeds, self.n_tasks)
        # Batch b runs the task whose block of the cycle holds b mod sum(counts): counts[0]
        # batches of task 0, then counts[1] of task 1, and so on, without building the cycle.
        ends = [np.cumsum(r.counts) for r in ratios]
        batches = np.arange(self.total_batches)
        task_ids = np.array(
            [np.searchsorted(end, batches % end[-1], side="right") for end in ends], dtype=np.intp
        ).reshape(len(ratios), self.total_batches)
        w = np.zeros((len(ratios), self.dim))
        self._sgd(task_ids, [np.random.default_rng(seed) for seed in seeds], w)
        return [self._metric_of(row) for row in w]


ENVIRONMENT_CLASSES = {"planted": PlantedBanditEnv, "shared-linear": SharedParamMtlEnv}


def make_environment(settings: dict, batches_per_round: int = 10):
    """Build an environment from its config-file description.

    ``settings["family"]`` picks the class; remaining keys are constructor
    arguments.  ``batches_per_round`` comes from the bandit configuration so
    one stage-1 round means the same amount of training in both stages.
    """
    settings = dict(settings)
    family = settings.pop("family", None)
    if family not in ENVIRONMENT_CLASSES:
        raise ValueError(
            f"unknown environment family {family!r}; expected one of {tuple(ENVIRONMENT_CLASSES)}"
        )
    cls = ENVIRONMENT_CLASSES[family]
    if cls is SharedParamMtlEnv:
        settings["batches_per_round"] = batches_per_round
    return cls(**settings)
