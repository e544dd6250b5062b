"""Ratio encoding, the proposal loop, and the stage-2 driver."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from auxmix.acquisition import (
    ACQUISITIONS,
    HedgeState,
    expected_improvement,
    hedge_select,
    probability_of_improvement,
    upper_confidence_bound,
)
from auxmix import gp, mixing
from auxmix.environments import PlantedBanditEnv
from auxmix.gp import fit, gram_matrix, posterior, posterior_at
from auxmix.mixing import (
    MAX_RATIO_MAX,
    MixingRatio,
    Stage2Config,
    _grid_moves,
    decode,
    encode,
    expand_to_tasks,
    propose_next,
    random_ratios,
    run_stage2,
    validate_ratio,
)
from auxmix.runlog import RunAborted, canonical_dumps, derive_seed
from faults import Faults

PRIMARY_ONLY = (0,)


# ------------------------------------------------------------ ratio basics

def test_mixing_ratio_rejects_bad_counts():
    with pytest.raises(ValueError):
        MixingRatio(counts=(0, 5))
    with pytest.raises(ValueError):
        MixingRatio(counts=(1, -2))
    with pytest.raises(ValueError):
        MixingRatio(counts=(1.5, 2))
    with pytest.raises(ValueError):
        MixingRatio(counts=())


def test_validate_ratio_enforces_cap():
    validate_ratio(MixingRatio(counts=(20, 0)), 20)
    with pytest.raises(ValueError):
        validate_ratio(MixingRatio(counts=(21, 0)), 20)


def test_encode_examples():
    assert np.allclose(encode((10, 5, 0), 20), [0.5, 0.25, 0.0])
    assert np.allclose(encode((1,), 20), [0.05])


def test_decode_examples():
    assert decode([0.5, 0.25, 0.0], 20).counts == (10, 5, 0)
    assert decode([0.024, 0.5], 20).counts == (1, 10)
    assert decode([0.0, 0.26], 20).counts == (1, 5)


def test_decode_rejects_out_of_box():
    with pytest.raises(ValueError):
        decode([0.5, 1.2], 20)
    with pytest.raises(ValueError):
        decode([-0.1], 20)


def test_decode_rejects_a_point_that_is_not_1d():
    with pytest.raises(ValueError, match="1-D point"):
        decode([[0.5, 0.5]], 20)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decode_rejects_a_point_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="unit box"):
        decode([bad, 0.5], 20)


def test_decode_gives_plain_ints_at_the_largest_ratio_max():
    ratio = decode([1.0, 0.5, 0.0], MAX_RATIO_MAX)
    assert ratio.counts == (MAX_RATIO_MAX, MAX_RATIO_MAX // 2, 0)
    assert all(type(c) is int for c in ratio.counts)


@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=5).map(
        lambda c: tuple([max(c[0], 1)] + c[1:])
    )
)
def test_encode_decode_round_trip_on_grid(counts):
    ratio = MixingRatio(counts=counts)
    assert decode(encode(ratio.counts, 20), 20) == ratio


def ratio_cycle(counts: Sequence[int]) -> list[int]:
    """One pass of the cyclic schedule as a list of task positions: the
    oracle of ``train_full``'s task order (``tests/test_environments.py``).

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


def test_ratio_cycle_block_form():
    assert ratio_cycle((2, 1)) == [0, 0, 1]
    assert ratio_cycle((1, 0, 2)) == [0, 2, 2]
    with pytest.raises(ValueError):
        ratio_cycle((0, 0))


def test_random_ratio_stays_on_valid_grid():
    for ratio in random_ratios(200, 3, 20, np.random.default_rng(3)):
        assert 1 <= ratio.counts[0] <= 20
        assert all(0 <= c <= 20 for c in ratio.counts[1:])


@given(
    n=st.integers(1, 5),
    n_tasks=st.integers(1, 10),
    ratio_max=st.integers(1, MAX_RATIO_MAX),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, n_tasks=10, ratio_max=MAX_RATIO_MAX, seed=0)
@example(n=3, n_tasks=1, ratio_max=1, seed=0)
def test_random_ratio_draws_what_one_scalar_call_per_count_draws(n, n_tasks, ratio_max, seed):
    """One ``integers`` call with a lower bound per count gives the counts,
    and leaves the generator state, of one scalar call per count, ratio by ratio."""
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        expected = []
        for _ in range(n):
            counts = [int(scalar_rng.integers(1, ratio_max + 1))]
            counts += [int(scalar_rng.integers(0, ratio_max + 1)) for _ in range(n_tasks - 1)]
            expected.append(tuple(counts))
        assert [r.counts for r in random_ratios(n, n_tasks, ratio_max, rng)] == expected
        assert rng.bit_generator.state == scalar_rng.bit_generator.state


def test_random_ratio_reaches_grid_extremes():
    rng = np.random.default_rng(4)
    draws = random_ratios(2000, 2, 20, rng)
    assert any(r.counts[0] == 1 for r in draws)
    assert any(r.counts[0] == 20 for r in draws)
    assert any(r.counts[1] == 0 for r in draws)
    assert any(r.counts[1] == 20 for r in draws)


def test_expand_to_tasks_places_counts_by_id():
    out = expand_to_tasks(MixingRatio(counts=(10, 5)), [0, 3], 4)
    assert out.counts == (10, 0, 0, 5)


def test_expand_to_tasks_rejects_width_mismatch():
    with pytest.raises(ValueError):
        expand_to_tasks(MixingRatio(counts=(10, 5)), [0, 2, 3], 4)


# Ids over three tasks that no ratio may be spread over.
BAD_TASK_IDS = pytest.mark.parametrize(
    "task_ids", [(0, -1), (0, 1, 1), (0, 3)], ids=["negative", "repeated", "out-of-range"]
)


@BAD_TASK_IDS
def test_expand_to_tasks_rejects_an_id_outside_the_tasks_or_repeated(task_ids):
    """A negative id would wrap to the last task and a repeated one would
    overwrite the count before it; neither may train a task it does not name."""
    with pytest.raises(ValueError, match=r"distinct integers in \[0, 3\)"):
        expand_to_tasks(MixingRatio((3, 5, 7)[: len(task_ids)]), task_ids, 3)


def test_stage2_config_validation():
    Stage2Config()
    with pytest.raises(ValueError):
        Stage2Config(n_initial=0)
    with pytest.raises(ValueError):
        Stage2Config(n_initial=20, n_samples=20)
    with pytest.raises(ValueError):
        Stage2Config(nu=2.0)
    with pytest.raises(ValueError):
        Stage2Config(ratio_max=0)


# ------------------------------------------------------------ propose_next

def _neighbors(incumbent_x, ratio_max):
    """The incumbent's one-grid-step moves clipped to the unit box, the last
    ``2 d`` rows of :func:`propose_next`'s pool."""
    return np.clip(incumbent_x + _grid_moves(incumbent_x.size, ratio_max), 0.0, 1.0)


def test_neighbor_points_are_one_step_moves(monkeypatch):
    """The pool ends with the incumbent's grid neighbors, clipped to the box."""
    pools = []

    def recording_posterior(model, pool):
        pools.append(pool.copy())
        return posterior(model, pool)

    monkeypatch.setattr(mixing, "posterior", recording_posterior)
    for x in [(0.5, 0.0), (0.5, 0.0, 1.0)]:
        model = fit(np.array([[0.1] * len(x), x]), np.array([0.2, 0.8]))
        propose_next(model, HedgeState(), Stage2Config(pool_size=8), np.random.default_rng(0))
        assert pools[-1].shape == (8 + 2 * len(x), len(x))
        assert pools[-1][8:].tobytes() == _neighbors(np.array(x), 20).tobytes()
    moves = [tuple(np.round(p, 10)) for p in pools[0][8:]]
    assert moves == [(0.45, 0.0), (0.55, 0.0), (0.5, 0.0), (0.5, 0.05)]


def test_grid_moves_are_cached_per_width_and_grid_and_read_only():
    moves = _grid_moves(3, 20)
    assert _grid_moves(3, 20) is moves
    assert not moves.flags.writeable
    assert moves.tolist() == (np.eye(3)[:, None, :] * [[-0.05], [0.05]]).reshape(6, 3).tolist()


def _toy_model(nu=2.5):
    xs = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.2]])
    ys = np.array([0.2, 0.8, 0.4])
    return fit(xs, ys, nu=nu)


def test_propose_next_is_deterministic_given_rng_state():
    model = _toy_model()
    config = Stage2Config(pool_size=32)
    out1 = propose_next(model, HedgeState(), config, np.random.default_rng(11))
    out2 = propose_next(model, HedgeState(), config, np.random.default_rng(11))
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]
    assert out1[2].gains == out2[2].gains


def test_propose_next_returns_valid_triple():
    model = _toy_model()
    ratio, acq, new_hedge = propose_next(
        model, HedgeState(), Stage2Config(pool_size=16), np.random.default_rng(5)
    )
    assert isinstance(ratio, MixingRatio)
    assert ratio.n_tasks == 2
    validate_ratio(ratio, 20)
    assert acq in ACQUISITIONS
    assert new_hedge.gains != HedgeState().gains


def test_ucb_lambda_zero_nominates_posterior_mean_argmax():
    """With the portfolio pinned to UCB and lambda 0, the proposal is the
    pool point with the highest posterior mean.  The pool is replayed from
    an identically seeded generator: pool_size uniform rows first, then the
    incumbent's grid neighbors."""
    model = _toy_model()
    forced = HedgeState(gains=(-1e9, -1e9, 0.0))

    ratio, acq, _ = propose_next(
        model, forced, Stage2Config(pool_size=64, ucb_lambda=0.0), np.random.default_rng(21)
    )
    assert acq == "ucb"

    relay = np.random.default_rng(21)
    pool = relay.random((64, 2))
    best_idx = int(np.argmax(model.observations))
    pool = np.vstack([pool, _neighbors(model.points[best_idx], 20)])
    means = np.array([posterior_at(model, x).mean for x in pool])
    assert ratio == decode(pool[int(np.argmax(means))], 20)


def _propose_next_reference(model, hedge, pool_size, rng, ratio_max=20, ucb_lambda=2.0):
    """propose_next as it scored the pool before batching: one posterior_at
    and three scalar acquisition calls per pool point."""
    best_idx = int(np.argmax(model.observations))
    tau = float(model.observations[best_idx])
    pool = rng.random((pool_size, model.points.shape[1]))
    pool = np.vstack([pool, _neighbors(model.points[best_idx], ratio_max)])
    posts = [posterior_at(model, x) for x in pool]
    scores = [
        [probability_of_improvement(p, tau) for p in posts],
        [expected_improvement(p, tau) for p in posts],
        [upper_confidence_bound(p, ucb_lambda) for p in posts],
    ]
    nominees = [pool[int(np.argmax(sc))] for sc in scores]
    chosen = hedge_select(hedge, rng)
    gains = [g + posterior_at(model, x).mean for g, x in zip(hedge.gains, nominees)]
    return decode(nominees[ACQUISITIONS.index(chosen)], ratio_max), chosen, gains


def test_propose_next_matches_pointwise_reference():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 5)), int(rng.integers(3, 20))
        xs = rng.integers(0, 21, size=(n, d)) / 20.0
        ys = 0.5 + 0.1 * np.sin(3.0 * xs.sum(axis=1)) + 0.01 * rng.normal(size=n)
        model = fit(xs, ys, nu=2.5 if seed % 2 else 1.5)
        hedge = HedgeState(gains=tuple(rng.normal(size=3)))
        ratio, acq, new_hedge = propose_next(
            model, hedge, Stage2Config(pool_size=256), np.random.default_rng(seed)
        )
        ref_ratio, ref_acq, ref_gains = _propose_next_reference(
            model, hedge, 256, np.random.default_rng(seed)
        )
        assert ratio == ref_ratio
        assert acq == ref_acq
        np.testing.assert_allclose(new_hedge.gains, ref_gains, rtol=0, atol=1e-12)


def test_propose_next_credits_the_bits_of_the_nominees_posterior_mean():
    """Each gain moves by exactly the pool posterior's mean at its
    acquisition's nominee, bitwise ``posterior(model, pool).mean[nominee_rows]``."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d, n = 1 + seed % 5, int(rng.integers(3, 20))
        xs = rng.integers(0, 21, size=(n, d)) / 20.0
        model = fit(xs, rng.random(n), nu=2.5 if seed % 2 else 1.5)
        hedge = HedgeState(gains=tuple(rng.normal(size=3)))
        _, _, new_hedge = propose_next(
            model, hedge, Stage2Config(pool_size=256), np.random.default_rng(seed)
        )
        pool_rng = np.random.default_rng(seed)
        best = int(np.argmax(model.observations))
        pool = np.vstack([pool_rng.random((256, d)), _neighbors(model.points[best], 20)])
        post, tau = posterior(model, pool), float(model.observations[best])
        scores = [
            probability_of_improvement(post, tau),
            expected_improvement(post, tau),
            upper_confidence_bound(post),
        ]
        means = post.mean[[int(np.argmax(sc)) for sc in scores]]
        assert new_hedge.gains == tuple(g + float(m) for g, m in zip(hedge.gains, means))


def test_propose_next_computes_one_pool_cross_covariance(monkeypatch):
    """The pool's ``k(pool, X)`` is the only cross-covariance of a proposal:
    the Hedge credit reads the pool posterior's means at the nominees."""
    calls = []

    def counting_gram_matrix(x1, x2, params):
        calls.append(np.shape(x1))
        return gram_matrix(x1, x2, params)

    monkeypatch.setattr(gp, "gram_matrix", counting_gram_matrix)
    for d, pool_size in [(1, 16), (2, 64), (4, 256)]:
        rng = np.random.default_rng(d)
        model = fit(rng.random((6, d)), rng.random(6))
        calls.clear()
        propose_next(model, HedgeState(), Stage2Config(pool_size=pool_size), rng)
        assert calls == [(pool_size + 2 * d, d)]


def test_propose_next_credits_all_three_gains():
    model = _toy_model()
    _, _, new_hedge = propose_next(
        model, HedgeState(), Stage2Config(pool_size=16), np.random.default_rng(7)
    )
    assert all(g != 0.0 for g in new_hedge.gains)


# -------------------------------------------------------------- run_stage2

class QuadraticEnv:
    """Deterministic 1-D objective peaking at a primary count of 12."""

    n_tasks = 1

    def __init__(self):
        self.calls = 0

    def train_full(self, ratios, seeds):
        self.calls += len(ratios)
        return [-((ratio.counts[0] / 20.0 - 0.6) ** 2) for ratio in ratios]


class SeedEchoEnv:
    """Score depends only on the evaluation seed; records what it was asked."""

    def __init__(self, n_tasks=4):
        self.n_tasks = n_tasks
        self.seen = []
        self.batch_sizes = []

    def train_full(self, ratios, seeds):
        self.seen.extend(zip(ratios, seeds))
        self.batch_sizes.append(len(ratios))
        return [(seed % 1000) / 1000.0 for seed in seeds]


def test_run_stage2_spends_exactly_the_budget():
    env = QuadraticEnv()
    cfg = Stage2Config(n_samples=9, n_initial=4, rng_seed=2)
    _, _, log, _ = run_stage2(env, PRIMARY_ONLY, cfg)
    assert env.calls == 9 + 1  # and the baseline
    assert len(log.records) == 9


def test_run_stage2_folds_each_record_into_the_gp_exactly_once(monkeypatch):
    """Each round's fit extends the last one's fold by the record added
    since, so the 19 records that a proposal is fitted on are folded once
    each, in order."""
    folded, fold = [], gp._fold

    def counting_fold(x, rows, nu, jitter, base):
        folded.extend(range(0 if base is None else base.chol_inv.shape[-1], x.shape[0]))
        return fold(x, rows, nu, jitter, base)

    monkeypatch.setattr(gp, "_fold", counting_fold)
    cfg = Stage2Config(n_samples=20, n_initial=5, rng_seed=3)
    _, _, log, _ = run_stage2(SeedEchoEnv(n_tasks=2), (0, 1), cfg)
    assert len(log.records) == 20
    assert folded == list(range(19))


def test_run_stage2_fits_each_gp_round_on_the_log_so_far(monkeypatch):
    """The log is the one record of the evaluations: round t's GP is fitted
    on the first t logged ratios and scores, bit for bit."""
    fitted = []

    def recording_fit(xs, ys, **kwargs):
        fitted.append((xs.copy(), ys.copy()))
        return fit(xs, ys, **kwargs)

    monkeypatch.setattr(mixing, "fit", recording_fit)
    env = PlantedBanditEnv(theta_star=[0.9, 0.2, 0.7, 0.4], score_noise=0.05)
    cfg = Stage2Config(n_samples=12, n_initial=4, ratio_max=7, rng_seed=8, pool_size=32)
    _, _, log, _ = run_stage2(env, (0, 1, 3), cfg)
    assert len(fitted) == cfg.n_samples - cfg.n_initial
    for t, (xs, ys) in enumerate(fitted, cfg.n_initial):
        logged = log.records[:t]
        assert xs.tobytes() == encode([r["proposed_ratio"] for r in logged], 7).tobytes()
        assert ys.tobytes() == np.array([r["score"] for r in logged]).tobytes()


@pytest.mark.parametrize("proposals", [[], [[]]], ids=["no-batch", "empty-batch"])
def test_run_stage2_without_a_ratio_raises(proposals):
    with pytest.raises(ValueError, match="no ratio"):
        run_stage2(SeedEchoEnv(n_tasks=1), PRIMARY_ONLY, Stage2Config(), proposals)


def test_run_stage2_initial_rounds_are_random_then_gp_takes_over():
    env = QuadraticEnv()
    cfg = Stage2Config(n_samples=4, n_initial=3, rng_seed=0)
    _, _, log, _ = run_stage2(env, PRIMARY_ONLY, cfg)
    used = [r["acquisition_used"] for r in log.records]
    assert used[:3] == ["random", "random", "random"]
    assert used[3] in ACQUISITIONS
    assert log.records[0]["posterior_mean"] is None
    assert log.records[3]["posterior_mean"] is not None
    assert log.records[3]["posterior_std"] >= 0.0


def test_run_stage2_incumbent_is_running_max():
    env = SeedEchoEnv(n_tasks=1)
    cfg = Stage2Config(n_samples=8, n_initial=3, rng_seed=5)
    _, _, log, _ = run_stage2(env, PRIMARY_ONLY, cfg)
    running = -np.inf
    for (_, seed), line in zip(env.seen[1:], log.records):  # after the baseline
        running = max(running, line["score"])
        assert line["incumbent"] == pytest.approx(running)
        assert line["score"] == pytest.approx((seed % 1000) / 1000.0)


def test_run_stage2_eval_seeds_follow_derivation():
    env = SeedEchoEnv(n_tasks=1)
    cfg = Stage2Config(n_samples=6, n_initial=2, rng_seed=77)
    _, _, log, _ = run_stage2(env, PRIMARY_ONLY, cfg)
    evals = [derive_seed(77, "eval", t) for t in range(len(log))]
    assert [s for _, s in env.seen] == [derive_seed(77, "baseline")] + evals


def test_run_stage2_expands_ratio_to_environment_width():
    env = SeedEchoEnv(n_tasks=4)
    cfg = Stage2Config(n_samples=5, n_initial=2, rng_seed=1)
    _, _, log, _ = run_stage2(env, (0, 2), cfg)
    assert env.seen[0][0].counts == (1, 0, 0, 0)  # the baseline
    for (env_ratio, _), rec in zip(env.seen[1:], log.records):
        assert env_ratio.n_tasks == 4
        assert env_ratio.counts[1] == 0 and env_ratio.counts[3] == 0
        assert env_ratio.counts[0] == rec["proposed_ratio"][0]
        assert env_ratio.counts[2] == rec["proposed_ratio"][1]


@BAD_TASK_IDS
def test_run_stage2_rejects_bad_task_ids_before_training(task_ids):
    env = Faults(SeedEchoEnv(n_tasks=3))
    with pytest.raises(ValueError, match="distinct integers"):
        run_stage2(env, task_ids, Stage2Config(n_samples=4, n_initial=2))
    assert env.calls == []


def test_run_stage2_best_ties_break_earliest():
    class ConstantEnv:
        n_tasks = 1

        def train_full(self, ratios, seeds):
            return [0.25] * len(ratios)

    cfg = Stage2Config(n_samples=6, n_initial=2, rng_seed=9)
    best_ratio, best_score, log, _ = run_stage2(ConstantEnv(), PRIMARY_ONLY, cfg)
    first = log.records[0]
    assert log.records[1]["proposed_ratio"] != first["proposed_ratio"]
    assert (list(best_ratio.counts), best_score) == (first["proposed_ratio"], first["score"])


def test_run_stage2_is_deterministic():
    cfg = Stage2Config(n_samples=7, n_initial=3, rng_seed=13)
    out1 = run_stage2(SeedEchoEnv(n_tasks=1), PRIMARY_ONLY, cfg)
    out2 = run_stage2(SeedEchoEnv(n_tasks=1), PRIMARY_ONLY, cfg)
    assert out1[:2] == out2[:2]
    lines1 = [canonical_dumps(r) for r in out1[2].records]
    lines2 = [canonical_dumps(r) for r in out2[2].records]
    assert lines1 == lines2


def _run_stage2_reference(env, task_ids, config):
    """The log records of the default stage-2 loop, one quantity at a time
    from public functions: the history encoded record by record, the pool
    posterior, the three acquisitions called one by one, and Hedge credit
    from the pool posterior's means at the nominees."""
    rng = np.random.default_rng(derive_seed(config.rng_seed, "stage2"))

    def train(ratios, rounds):
        env_ratios = [expand_to_tasks(r, task_ids, env.n_tasks) for r in ratios]
        return env.train_full(env_ratios, [derive_seed(config.rng_seed, "eval", t) for t in rounds])

    history = random_ratios(config.n_initial, len(task_ids), config.ratio_max, rng)
    scores = train(history, range(config.n_initial))
    rows = [(ratio, "random", None, None) for ratio in history]
    gains = (0.0, 0.0, 0.0)
    for t in range(config.n_initial, config.n_samples):
        xs = np.array([encode(r.counts, config.ratio_max) for r in history])
        model = fit(xs, np.array(scores), nu=config.nu)
        best_idx = int(np.argmax(model.observations))
        tau = float(model.observations[best_idx])
        pool = rng.random((config.pool_size, xs.shape[1]))
        pool = np.vstack([pool, _neighbors(model.points[best_idx], config.ratio_max)])
        post = posterior(model, pool)
        acquisition_scores = [
            probability_of_improvement(post, tau),
            expected_improvement(post, tau),
            upper_confidence_bound(post, config.ucb_lambda),
        ]
        nominee_rows = [int(np.argmax(sc)) for sc in acquisition_scores]
        chosen = hedge_select(HedgeState(gains=gains, eta=config.hedge_eta), rng)
        gains = tuple(g + float(post.mean[i]) for g, i in zip(gains, nominee_rows))
        ratio = decode(pool[nominee_rows[ACQUISITIONS.index(chosen)]], config.ratio_max)
        at = posterior_at(model, encode(ratio.counts, config.ratio_max))
        history.append(ratio)
        scores += train([ratio], [t])
        rows.append((ratio, chosen, at.mean, at.std))
    return [
        {
            "round": t,
            "proposed_ratio": list(ratio.counts),
            "acquisition_used": acq,
            "posterior_mean": mean,
            "posterior_std": std,
            "score": score,
            "incumbent": max(scores[: t + 1]),
        }
        for t, ((ratio, acq, mean, std), score) in enumerate(zip(rows, scores))
    ]


@pytest.mark.parametrize("nu", [1.5, 2.5])
@pytest.mark.parametrize("seed", range(10))
def test_run_stage2_logs_bitwise_what_the_one_at_a_time_loop_logs(seed, nu):
    """Each GP quantity of a round computed once (cached fit candidates,
    one pool posterior, the history as one array) changes no logged bit.
    Widths 1 to 5 over tasks with gaps in their ids."""
    width = 1 + seed % 5
    env = PlantedBanditEnv(theta_star=[0.9, 0.2, 0.7, 0.4, 0.8, 0.1, 0.6, 0.3, 0.5])
    task_ids = tuple(range(0, 2 * width, 2))
    config = Stage2Config(
        n_samples=14, n_initial=3, rng_seed=seed, nu=nu, ucb_lambda=0.5 + seed % 3,
        hedge_eta=(0.5, 1.0, 4.0)[seed % 3], ratio_max=(20, 7)[seed % 2], pool_size=64 + seed,
    )
    _, _, log, _ = run_stage2(env, task_ids, config)
    assert log.records == _run_stage2_reference(env, task_ids, config)


def test_run_stage2_evaluates_explicit_proposals_in_order():
    env = SeedEchoEnv(n_tasks=4)
    cfg = Stage2Config(n_samples=20, n_initial=5, ratio_max=6, rng_seed=31)
    proposals = [
        (MixingRatio((2, 0)), "grid", None, None),
        (MixingRatio((6, 6)), "ei", 0.25, 0.5),
        (MixingRatio((1, 3)), "grid", None, None),
        (MixingRatio((1, 3)), "grid", None, None),
    ]
    batches = [proposals[:1], proposals[1:3], proposals[3:]]
    best_ratio, best_score, log, _ = run_stage2(env, (0, 3), cfg, iter(batches))
    assert env.batch_sizes == [1 + 1, 2, 1]  # the baseline leads the first batch
    logged = [line["proposed_ratio"] for line in log.records]
    assert logged == [list(p[0].counts) for p in proposals]
    seen = env.seen[1:]
    assert [s for _, s in seen] == [derive_seed(31, "eval", t) for t in range(4)]
    assert [r.counts for r, _ in seen] == [(2, 0, 0, 0), (6, 0, 0, 6)] + [(1, 0, 0, 3)] * 2
    assert [
        (line["acquisition_used"], line["posterior_mean"], line["posterior_std"])
        for line in log.records
    ] == [p[1:] for p in proposals]
    assert [line["round"] for line in log.records] == [0, 1, 2, 3]
    top = max(range(4), key=lambda t: log.records[t]["score"])  # the earliest on ties
    assert best_ratio is proposals[top][0] and best_score == log.records[top]["score"]


def test_run_stage2_rejects_a_proposal_above_ratio_max():
    env = SeedEchoEnv(n_tasks=2)
    task_ids = (0, 1)
    cfg = Stage2Config(n_samples=6, n_initial=2, ratio_max=5)
    proposals = [
        (MixingRatio((1, 5)), "grid", None, None),
        (MixingRatio((1, 6)), "grid", None, None),
    ]
    with pytest.raises(ValueError, match="exceeds ratio_max=5"):
        run_stage2(env, task_ids, cfg, [proposals[:1], proposals[1:]])
    assert [r.counts for r, _ in env.seen] == [(1, 0), (1, 5)]
    # A batch is checked whole before any of it, or the baseline, trains.
    with pytest.raises(ValueError, match="exceeds ratio_max=5"):
        run_stage2(env, task_ids, cfg, [proposals])
    assert [r.counts for r, _ in env.seen] == [(1, 0), (1, 5)]


def test_run_stage2_aborts_with_partial_history():
    cfg = Stage2Config(n_samples=6, n_initial=2, rng_seed=0)
    fault = {derive_seed(0, "eval", 2): RuntimeError("solver exploded")}  # the first GP round
    with pytest.raises(RunAborted) as info:
        run_stage2(Faults(SeedEchoEnv(n_tasks=1), fault), PRIMARY_ONLY, cfg)
    assert len(info.value.stage_logs["stage2"].records) == 2


def test_run_stage2_trains_the_initial_design_as_one_batch():
    env = SeedEchoEnv(n_tasks=1)
    cfg = Stage2Config(n_samples=7, n_initial=4, rng_seed=3)
    _, _, log, _ = run_stage2(env, PRIMARY_ONLY, cfg)
    assert env.batch_sizes == [1 + 4, 1, 1, 1]  # the baseline leads the first batch
    rng = np.random.default_rng(derive_seed(3, "stage2"))
    initial = [list(ratio.counts) for ratio in random_ratios(4, 1, cfg.ratio_max, rng)]
    assert [line["proposed_ratio"] for line in log.records[:4]] == initial
    assert [line["round"] for line in log.records] == list(range(7))


def test_run_stage2_exception_in_a_batch_aborts_at_its_first_round():
    cfg = Stage2Config(n_samples=9, n_initial=2, rng_seed=4)
    proposals = [[(MixingRatio((1,)), "grid", None, None)] * size for size in (2, 3, 1)]
    fault = {derive_seed(4, "eval", 3): RuntimeError("solver exploded")}  # in rounds 2-4's batch
    with pytest.raises(RunAborted, match="at stage-2 round 2: solver exploded") as info:
        run_stage2(Faults(SeedEchoEnv(n_tasks=1), fault), PRIMARY_ONLY, cfg, proposals)
    assert [line["round"] for line in info.value.stage_logs["stage2"].records] == [0, 1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", range(5))
def test_run_stage2_non_finite_score_in_a_batch_logs_the_rounds_before_it(at, bad):
    cfg = Stage2Config(n_samples=9, n_initial=2, rng_seed=4)
    proposals = [[(MixingRatio((1,)), "grid", None, None)] * 5]
    fault = {derive_seed(4, "eval", at): bad}
    with pytest.raises(RunAborted, match=f"at stage-2 round {at}: train_full returned") as info:
        run_stage2(Faults(SeedEchoEnv(n_tasks=1), fault), PRIMARY_ONLY, cfg, proposals)
    assert [line["round"] for line in info.value.stage_logs["stage2"].records] == list(range(at))


# Malformed for the first batch (the baseline and two ratios) and for the baseline alone.
@pytest.mark.parametrize("returned", [[0.5] * 2, [0.5] * 4, 0.5, ["x", 0.5]])
def test_run_stage2_aborts_on_a_malformed_score_batch(returned):
    class Malformed:
        n_tasks = 1

        def train_full(self, ratios, seeds):
            return returned

    cfg = Stage2Config(n_samples=9, n_initial=2, rng_seed=4)
    with pytest.raises(RunAborted, match="on the baseline run") as info:
        run_stage2(Malformed(), PRIMARY_ONLY, cfg)
    assert info.value.stage_logs["stage2"].records == []


def test_run_stage2_trains_the_baseline_first_under_its_seed():
    """``(1, 0, ...)`` leads the first batch under ``derive_seed(rng_seed,
    "baseline")``, outside the budget and the log; the returned baseline
    score is that ratio trained alone, and a failure there ends the run
    "on the baseline run" with an empty log."""
    theta, baseline = [0.9, 0.2, 0.7, 0.4], (1, 0, 0, 0)
    task_ids = (0, 1, 3)
    cfg = Stage2Config(n_samples=6, n_initial=3, ratio_max=7, rng_seed=8, pool_size=32)
    seed = derive_seed(8, "baseline")
    planted = PlantedBanditEnv(theta, score_noise=0.05)
    env = Faults(planted)
    _, _, log, score = run_stage2(env, task_ids, cfg)
    first, first_seeds = env.calls[0]
    assert (first[0], first_seeds[0]) == (baseline, seed)
    assert [len(c) for c, _ in env.calls] == [1 + cfg.n_initial] + [1] * 3
    assert [s for _, seeds in env.calls for s in seeds][1:] == [
        derive_seed(8, "eval", t) for t in range(cfg.n_samples)
    ]
    assert len(log) == cfg.n_samples
    (alone,) = planted.train_full([MixingRatio(baseline)], [seed])
    assert type(score) is float and score == alone
    for fault, message in (
        (RuntimeError("meltdown"), "meltdown"), (math.nan, "train_full returned nan")
    ):
        with pytest.raises(RunAborted, match=f"failed on the baseline run: {message}$") as info:
            run_stage2(Faults(planted, {seed: fault}), task_ids, cfg)
        assert info.value.stage_logs["stage2"].records == []


def test_run_stage2_finds_quadratic_peak_on_most_seeds():
    hits = 0
    for seed in range(20):
        cfg = Stage2Config(n_samples=20, n_initial=5, rng_seed=seed)
        best_ratio, _, _, _ = run_stage2(QuadraticEnv(), PRIMARY_ONLY, cfg)
        if abs(best_ratio.counts[0] / 20.0 - 0.6) <= 0.1:
            hits += 1
    assert hits >= 18
