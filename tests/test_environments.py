"""Planted-Bernoulli and shared-parameter environments."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from auxmix import environments
from auxmix.environments import (
    PLANTED_METRIC_INCREMENT,
    ENVIRONMENT_CLASSES,
    PlantedBanditEnv,
    SharedParamMtlEnv,
    make_environment,
)
from auxmix.mixing import MixingRatio
from test_mixing import ratio_cycle

# ----------------------------------------------------------------- planted

def test_planted_validates_theta():
    with pytest.raises(ValueError):
        PlantedBanditEnv([])
    with pytest.raises(ValueError):
        PlantedBanditEnv([0.5, 1.2])
    with pytest.raises(ValueError):
        PlantedBanditEnv([0.5], score_noise=-0.1)


def test_planted_step_rejects_bad_task_id():
    env = PlantedBanditEnv([0.5, 0.5])
    env.reset(0)
    with pytest.raises(ValueError):
        env.step(2)
    with pytest.raises(ValueError):
        env.step(-1)


def test_shared_linear_step_rejects_bad_task_id():
    env = SharedParamMtlEnv(dim=2, n_primary_train=4, n_aux=4)
    env.reset(0)
    for task_id in (env.n_tasks, -1):
        with pytest.raises(ValueError, match="out of range"):
            env.step(task_id)


def test_planted_certain_success_always_improves():
    env = PlantedBanditEnv([1.0])
    env.reset(0)
    prev = env.validation_metric()
    for _ in range(600):
        env.step(0)
        now = env.validation_metric()
        assert now >= prev
        prev = now
    assert prev == 1.0  # clamp reached and held


def test_planted_certain_failure_always_degrades():
    env = PlantedBanditEnv([0.0])
    env.reset(0)
    prev = env.validation_metric()
    for _ in range(600):
        env.step(0)
        now = env.validation_metric()
        assert now < prev
        assert now > 0.0
        prev = now


def test_planted_metric_never_leaves_unit_interval():
    env = PlantedBanditEnv([0.5])
    env.reset(7)
    for _ in range(2000):
        env.step(0)
        assert 0.0 < env.validation_metric() <= 1.0


def test_planted_success_rate_matches_theta():
    env = PlantedBanditEnv([0.7])
    env.reset(123)
    n = 10_000
    ups = 0
    prev = env.validation_metric()
    for _ in range(n):
        env.step(0)
        now = env.validation_metric()
        ups += now >= prev
        prev = now
    se = math.sqrt(0.7 * 0.3 / n)
    assert abs(ups / n - 0.7) < 3 * se


def test_planted_reset_gives_identical_trajectories():
    def trajectory(seed):
        env = PlantedBanditEnv([0.3, 0.8])
        env.reset(seed)
        out = []
        for i in range(100):
            env.step(i % 2)
            out.append(env.validation_metric())
        return out

    assert trajectory(5) == trajectory(5)
    assert trajectory(5) != trajectory(6)


def test_planted_train_full_share_formula_exact():
    env = PlantedBanditEnv([0.9, 0.5, 0.1], score_noise=0.0)
    score, primary_only = env.train_full(
        [MixingRatio(counts=(10, 5, 5)), MixingRatio(counts=(10, 0, 0))], [0, 0]
    )
    # shares (0.5, 0.25, 0.25) against centered utilities (0.4, 0.0, -0.4)
    assert score == pytest.approx(0.6, abs=1e-12)
    assert primary_only == pytest.approx(0.9)


def test_planted_train_full_clamps_to_unit_interval():
    env = PlantedBanditEnv([1.0, 1.0], score_noise=0.5)
    scores = env.train_full([MixingRatio(counts=(1, 1))] * 20, list(range(20)))
    assert len(scores) == 20
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_planted_train_full_pure_and_seeded():
    env = PlantedBanditEnv([0.6, 0.4])
    ratio = MixingRatio(counts=(3, 2))
    (a,) = env.train_full([ratio], [11])
    env.reset(0)
    env.step(0)
    mid_metric = env.validation_metric()
    b, other_seed = env.train_full([ratio, ratio], [11, 12])
    assert a == b
    assert env.validation_metric() == mid_metric  # episode state untouched
    assert other_seed != a
    assert env.train_full([], []) == []


def test_planted_train_full_rejects_width_mismatch():
    env = PlantedBanditEnv([0.6, 0.4])
    with pytest.raises(ValueError):
        env.train_full([MixingRatio(counts=(1, 1)), MixingRatio(counts=(1,))], [0, 1])
    with pytest.raises(ValueError, match="2 ratios but 1 seeds"):
        env.train_full([MixingRatio(counts=(1, 1))] * 2, [0])


# ----------------------------------------------------------- shared-linear

def test_shared_linear_validates_profile():
    with pytest.raises(ValueError):
        SharedParamMtlEnv(task_profile=("useful", "primary"))
    with pytest.raises(ValueError):
        SharedParamMtlEnv(task_profile=("primary", "mystery"))
    with pytest.raises(ValueError):
        SharedParamMtlEnv(task_profile=())
    with pytest.raises(ValueError):
        SharedParamMtlEnv(learning_rate=0.0)
    with pytest.raises(ValueError):
        SharedParamMtlEnv(total_batches=0)
    with pytest.raises(ValueError, match="n_primary_heldout"):
        SharedParamMtlEnv(n_primary_heldout=1)


def test_shared_linear_metric_zero_at_reset():
    env = SharedParamMtlEnv()
    env.reset(0)
    assert env.validation_metric() == 0.0


def test_shared_linear_primary_training_reaches_high_metric():
    env = SharedParamMtlEnv()
    env.reset(0)
    for _ in range(30):
        env.step(0)
    assert env.validation_metric() >= 0.9


def test_shared_linear_step_determinism():
    def run(seed):
        env = SharedParamMtlEnv()
        env.reset(seed)
        for i in range(12):
            env.step(i % env.n_tasks)
        return env.validation_metric()

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_shared_linear_train_full_pure_in_ratio_and_seed():
    env = SharedParamMtlEnv(total_batches=300)
    ratio = MixingRatio(counts=(2, 1, 0))
    (a,) = env.train_full([ratio], [5])
    b, c = env.train_full([ratio, ratio], [5, 5])
    assert a == b == c
    env.reset(9)
    before = env.validation_metric()
    env.train_full([ratio], [5])
    assert env.validation_metric() == before
    assert env.train_full([], []) == []


def test_shared_linear_equivalent_all_primary_schedules_tie():
    """(1, 0, 0) and (5, 0, 0) lay down the same batch sequence."""
    env = SharedParamMtlEnv(total_batches=300)
    a, b = env.train_full([MixingRatio(counts=(1, 0, 0)), MixingRatio(counts=(5, 0, 0))], [2, 2])
    assert a == b


class _RecordingEnv(SharedParamMtlEnv):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.batches = []

    def _sgd(self, task_ids, rngs, w):
        self.batches.extend(task_ids.tolist())
        super()._sgd(task_ids, rngs, w)


def test_shared_linear_cycle_order_is_blockwise():
    env = _RecordingEnv(task_profile=("primary", "useful"), total_batches=8)
    env.train_full([MixingRatio(counts=(2, 1)), MixingRatio(counts=(1, 3))], [0, 0])
    assert env.batches == [[0, 0, 1, 0, 0, 1, 0, 0], [0, 1, 1, 1, 0, 1, 1, 1]]


def test_shared_linear_huge_primary_count_trains_only_the_primary():
    """A cycle of 10^9 + 1 batches is never built: its first 200 are all
    primary, so the score is bitwise that of the primary-only ratio."""
    env = SharedParamMtlEnv(task_profile=("primary", "useful"), total_batches=200)
    (huge,) = env.train_full([MixingRatio(counts=(10**9, 1))], [3])
    (alone,) = env.train_full([MixingRatio(counts=(1, 0))], [3])
    assert huge == alone


# The per-batch loop the batched ``_sgd`` replaced, kept as the oracle: one
# ``integers`` call, one gather and one update per mini-batch.
def _reference_batch(x, y, batch_size, learning_rate, rng, w):
    idx = rng.integers(0, x.shape[0], size=batch_size)
    xb, yb = x[idx], y[idx]
    grad = xb.T @ (xb @ w - yb) / batch_size
    w -= learning_rate * grad


class _WeightsEnv(SharedParamMtlEnv):
    """Records the weights each metric is computed from, in order."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.weights = []

    def _metric_of(self, w):
        self.weights.append(w.copy())
        return super()._metric_of(w)


_ORACLE_KW = dict(
    task_profile=("primary", "useful", "harmful", "useful"),
    n_primary_train=48,
    n_aux=256,
    total_batches=97,
    batch_size=5,
    batches_per_round=7,
)


def _oracle_env():
    env = _WeightsEnv(**_ORACLE_KW)
    # Per-task training sets, split by the sizes the constructor was given
    # rather than by the environment's own offsets.
    sizes = [_ORACLE_KW["n_primary_train"]] + [_ORACLE_KW["n_aux"]] * (env.n_tasks - 1)
    cuts = np.cumsum(sizes)[:-1]
    return env, np.split(env._x, cuts), np.split(env._y, cuts)


def _reference_run(env, xs, ys, counts, seed):
    """Final weights and generator of one training, one ``_reference_batch`` at a time."""
    cycle = ratio_cycle(counts)
    rng = np.random.default_rng(seed)
    w = np.zeros(env.dim)
    for b in range(env.total_batches):
        k = cycle[b % len(cycle)]
        _reference_batch(xs[k], ys[k], env.batch_size, env.learning_rate, rng, w)
    return w, rng


def _reference_train_full(env, xs, ys, counts, seed):
    """Final weights of one training, one ``_reference_batch`` at a time."""
    return _reference_run(env, xs, ys, counts, seed)[0]


def _oracle_ratios():
    rng = np.random.default_rng(2024)
    ratios = [
        (1, 0, 0, 0),  # primary only
        (3, 0, 2, 0),  # a single auxiliary
        (40, 30, 20, 10),  # one cycle is longer than total_batches
        (5, 5, 5, 5),  # 97 batches end inside the fifth cycle
    ]
    while len(ratios) < 30:
        ratios.append((int(rng.integers(1, 21)), *(int(c) for c in rng.integers(0, 21, size=3))))
    return ratios


@pytest.mark.parametrize("seed, counts", list(enumerate(_oracle_ratios())))
def test_train_full_equals_per_batch_reference(seed, counts):
    env, xs, ys = _oracle_env()
    (score,) = env.train_full([MixingRatio(counts=counts)], [seed])

    w = _reference_train_full(env, xs, ys, counts, seed)
    assert env.weights[-1].tobytes() == w.tobytes()
    assert score == env._metric_of(w)


# A cycle sums up to 1 + 3 * 40 = 121 batches, longer than the 97 of the oracle env.
_oracle_counts = st.one_of(
    st.just((1, 0, 0, 0)),
    st.tuples(st.integers(1, 20), st.just(0), st.just(0), st.just(0)),
    st.tuples(st.integers(1, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
)


@given(
    batch=st.lists(
        st.tuples(_oracle_counts, st.integers(0, 2**63 - 1)), min_size=1, max_size=25
    )
)
def test_lockstep_train_full_equals_each_ratio_trained_alone(batch):
    """Every training in a lockstep batch keeps its own generator, schedule
    and weights: its final weights are bitwise a lone per-batch loop's."""
    env, xs, ys = _oracle_env()
    ratios = [MixingRatio(counts=counts) for counts, _ in batch]
    seeds = [seed for _, seed in batch]
    scores = env.train_full(ratios, seeds)
    assert len(env.weights) == len(scores) == len(batch)
    for (counts, seed), got, score in zip(batch, env.weights, scores):
        w = _reference_train_full(env, xs, ys, counts, seed)
        assert got.tobytes() == w.tobytes()
        assert score == env._metric_of(w)


@given(
    batch=st.lists(
        st.tuples(_oracle_counts, st.integers(0, 2**63 - 1)), min_size=1, max_size=25
    ),
    gather_rows=st.integers(1, 64),
    draw_rows=st.integers(1, 256),
)
def test_lockstep_sgd_in_small_spans_and_blocks_equals_per_batch_reference(
    batch, gather_rows, draw_rows
):
    """With both row constants small, spans of index draws and gather blocks
    end mid-training, yet each training's weights and generator end bitwise
    where a lone per-batch loop leaves them."""
    env, xs, ys = _oracle_env()
    task_ids = np.array([np.resize(ratio_cycle(counts), env.total_batches) for counts, _ in batch])
    rngs = [np.random.default_rng(seed) for _, seed in batch]
    w = np.zeros((len(batch), env.dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(environments, "_GATHER_ROWS", gather_rows)
        mp.setattr(environments, "_DRAW_ROWS", draw_rows)
        env._sgd(task_ids, rngs, w)
    for (counts, seed), got, rng in zip(batch, w, rngs):
        ref, ref_rng = _reference_run(env, xs, ys, counts, seed)
        assert got.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_step_sequence_equals_per_batch_reference(seed):
    env, xs, ys = _oracle_env()
    env.reset(seed)
    rng = np.random.default_rng(seed)
    w = np.zeros(env.dim)
    tasks = np.random.default_rng(seed + 100).integers(0, env.n_tasks, size=30)
    for k in tasks:
        env.step(int(k))
        for _ in range(env.batches_per_round):
            _reference_batch(xs[k], ys[k], env.batch_size, env.learning_rate, rng, w)
        assert env._w.tobytes() == w.tobytes()
    assert env.validation_metric() == env._metric_of(w)


@given(
    bounds=st.lists(
        st.one_of(st.integers(1, 300), st.integers(1, 2**40)), min_size=1, max_size=12
    ),
    batch_size=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_element_bounds_consume_the_stream_like_per_batch_calls(bounds, batch_size, seed):
    """``_sgd`` rests on this: one draw with per-element bounds is the
    concatenation of one draw per batch, and leaves the generator in the
    same state."""
    batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    one_call = batched.integers(0, np.repeat(bounds, batch_size))
    per_batch = np.concatenate([looped.integers(0, b, size=batch_size) for b in bounds])
    assert np.array_equal(one_call, per_batch)
    assert batched.bit_generator.state == looped.bit_generator.state
    assert batched.integers(0, 48) == looped.integers(0, 48)


def test_shared_linear_useful_aux_is_nearly_free():
    env = SharedParamMtlEnv(task_profile=("primary", "useful"), total_batches=300)
    base, *mixed = env.train_full(
        [MixingRatio(counts=c) for c in [(1, 0), (1, 1), (1, 5)]], [0] * 3
    )
    for score in mixed:
        assert score >= base - 0.05


def test_shared_linear_harmful_aux_destroys_the_metric():
    env = SharedParamMtlEnv(task_profile=("primary", "harmful"), total_batches=300)
    base, heavy, diluted = env.train_full(
        [MixingRatio(counts=c) for c in [(1, 0), (1, 5), (5, 1)]], [0] * 3
    )
    assert heavy <= base - 0.5
    assert diluted <= base - 0.1
    assert diluted > heavy


def test_shared_linear_scores_stay_in_unit_interval():
    env = SharedParamMtlEnv(task_profile=("primary", "harmful"), total_batches=200)
    for s in env.train_full([MixingRatio(counts=(1, 20))] * 5, list(range(5))):
        assert 0.0 <= s <= 1.0


# ------------------------------------------------------------- dispatcher

def test_make_environment_dispatch():
    env = make_environment({"family": "planted", "theta_star": [0.9, 0.1]})
    assert isinstance(env, PlantedBanditEnv)
    assert env.n_tasks == 2

    env = make_environment(
        {"family": "shared-linear", "task_profile": ["primary", "useful"]},
        batches_per_round=4,
    )
    assert isinstance(env, SharedParamMtlEnv)
    assert env.batches_per_round == 4


def test_make_environment_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown environment family"):
        make_environment({"family": "tabular"})
    assert "planted" in ENVIRONMENT_CLASSES and "shared-linear" in ENVIRONMENT_CLASSES


def test_make_environment_does_not_mutate_settings():
    settings = {"family": "planted", "theta_star": [0.5]}
    make_environment(settings)
    assert settings == {"family": "planted", "theta_star": [0.5]}
