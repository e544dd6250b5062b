"""Stage-1 bandit: conjugacy, decay, selection rule, and loop behavior."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from auxmix.bandit import (
    BanditConfig,
    BetaArm,
    beta_pdf,
    compute_reward,
    expected_utility,
    initial_arms,
    run_stage1,
    sample_utilities,
    select_arm,
    select_tasks,
    update_posterior,
    utility_density_table,
)
from auxmix.environments import PlantedBanditEnv, SharedParamMtlEnv
from auxmix.runlog import RunAborted, RunLog, derive_seed


def make_config(**kw):
    base = dict(n_tasks=5, rng_seed=0)
    base.update(kw)
    return BanditConfig(**base)


# ---------------------------------------------------------------- beta_pdf

def test_beta_pdf_frozen_values():
    assert beta_pdf(0.5, BetaArm(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert beta_pdf(0.5, BetaArm(2.0, 2.0)) == pytest.approx(1.5, abs=1e-12)
    assert beta_pdf(0.25, BetaArm(2.0, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_beta_pdf_integrates_to_one():
    # midpoint rule on a fine grid; the density is smooth for these shapes
    arm = BetaArm(3.5, 1.7)
    grid = (np.arange(20000) + 0.5) / 20000
    total = np.mean([beta_pdf(t, arm) for t in grid])
    assert total == pytest.approx(1.0, abs=1e-3)


def test_beta_pdf_domain_error():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            beta_pdf(bad, BetaArm(1.0, 1.0))


def test_beta_arm_invariants():
    with pytest.raises(ValueError):
        BetaArm(0.0, 1.0)
    with pytest.raises(ValueError):
        BetaArm(1.0, -2.0)
    with pytest.raises(ValueError):
        BetaArm(math.inf, 1.0)


# --------------------------------------------------------- expected_utility

def test_expected_utility_values():
    assert expected_utility(BetaArm(1.0, 1.0)) == 0.5
    assert expected_utility(BetaArm(3.0, 1.0)) == 0.75
    assert expected_utility(BetaArm(1.0, 3.0)) == 0.25


# -------------------------------------------------------------- select_arm

def test_select_arm_examples():
    assert select_arm([0.2, 0.9, 0.5]) == 1
    assert select_arm([0.7, 0.7]) == 0
    assert select_arm([0.3]) == 0


def test_select_arm_empty_is_error():
    with pytest.raises(ValueError):
        select_arm([])


@given(
    utilities=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_select_arm_scale_invariance(utilities, scale):
    base = select_arm(utilities)
    assert select_arm([scale * u for u in utilities]) == base


# ----------------------------------------------------------- compute_reward

def test_compute_reward_cases():
    assert compute_reward(0.80, 0.78) == 1
    assert compute_reward(0.78, 0.80) == 0
    assert compute_reward(0.80, 0.80) == 1


def test_compute_reward_nonfinite_is_error():
    with pytest.raises(ValueError):
        compute_reward(float("nan"), 0.5)
    with pytest.raises(ValueError):
        compute_reward(0.5, float("inf"))


# --------------------------------------------------------- update_posterior

def test_update_selected_arm_stationary():
    cfg = make_config(n_tasks=2, gamma=0.0)
    arms = [BetaArm(2.0, 3.0, 0), BetaArm(1.0, 1.0, 1)]
    out = update_posterior(arms, 0, 1, cfg)
    assert (out[0].alpha, out[0].beta) == (3.0, 3.0)
    assert (out[1].alpha, out[1].beta) == (1.0, 1.0)


def test_update_unselected_arm_decays():
    cfg = make_config(n_tasks=2, gamma=0.1, alpha0=1.0, beta0=1.0)
    arms = [BetaArm(1.0, 1.0, 0), BetaArm(2.0, 3.0, 1)]
    out = update_posterior(arms, 0, 0, cfg)
    assert out[1].alpha == pytest.approx(1.9, abs=1e-12)
    assert out[1].beta == pytest.approx(2.8, abs=1e-12)


def test_update_gamma_one_resets_unselected():
    cfg = make_config(n_tasks=2, gamma=1.0, alpha0=1.0, beta0=1.0)
    arms = [BetaArm(7.0, 9.0, 0), BetaArm(5.0, 2.0, 1)]
    out = update_posterior(arms, 1, 1, cfg)
    assert (out[0].alpha, out[0].beta) == (1.0, 1.0)
    assert (out[1].alpha, out[1].beta) == (2.0, 1.0)  # reset then +reward


def test_update_posterior_argument_errors():
    cfg = make_config(n_tasks=2)
    arms = [BetaArm(1.0, 1.0, 0), BetaArm(1.0, 1.0, 1)]
    with pytest.raises(ValueError):
        update_posterior(arms, 5, 1, cfg)
    with pytest.raises(ValueError):
        update_posterior(arms, 0, 2, cfg)


def test_conjugacy_exact_under_gamma_zero():
    # 1000 random reward sequences; with gamma=0 the selected arm's state is
    # the textbook conjugate posterior, exact in integer pseudo-count
    # arithmetic.
    rng = np.random.default_rng(1234)
    cfg = make_config(n_tasks=3, gamma=0.0, alpha0=1.0, beta0=1.0, primary_prior_boost=2.0)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        rewards = rng.integers(0, 2, size=n)
        arms = initial_arms(cfg)
        for r in rewards:
            arms = update_posterior(arms, 1, int(r), cfg)
        total_r = int(rewards.sum())
        assert arms[1].alpha == 1.0 + total_r
        assert arms[1].beta == 1.0 + (n - total_r)
        assert (arms[0].alpha, arms[0].beta) == (3.0, 1.0)
        assert (arms[2].alpha, arms[2].beta) == (1.0, 1.0)


@given(gamma=st.floats(min_value=0.0, max_value=1.0))
def test_decay_fixed_point(gamma):
    cfg = make_config(n_tasks=2, gamma=gamma, alpha0=1.0, beta0=1.0)
    arms = [BetaArm(1.0, 1.0, 0), BetaArm(1.0, 1.0, 1)]
    out = update_posterior(arms, 0, 1, cfg)
    assert (out[1].alpha, out[1].beta) == (1.0, 1.0)


@pytest.mark.parametrize("gamma", [0.1, 0.5])
def test_pseudo_count_boundedness(gamma):
    cfg = make_config(n_tasks=3, gamma=gamma, alpha0=1.0, beta0=1.0, primary_prior_boost=2.0)
    bound = max(3.0, 1.0) + 1.0 / gamma + 1.0
    rng = np.random.default_rng(99)
    arms = initial_arms(cfg)
    for _ in range(500):
        k = int(rng.integers(0, 3))
        r = int(rng.integers(0, 2))
        arms = update_posterior(arms, k, r, cfg)
        for arm in arms:
            assert arm.alpha <= bound
            assert arm.beta <= bound


# --------------------------------------------------------- sample_utilities

def test_sample_utilities_deterministic_and_in_range():
    arms = [BetaArm(1.0, 1.0, 0), BetaArm(1.0, 1.0, 1)]
    one = sample_utilities(arms, np.random.default_rng(5))
    two = sample_utilities(arms, np.random.default_rng(5))
    assert np.array_equal(one, two)
    assert one.shape == (2,)
    assert np.all((one > 0) & (one < 1))


def test_sample_utilities_mean_within_three_se():
    # 10^5 draws through the API (batched as 100 identical arms per call).
    a, b = 2.0, 5.0
    arms = [BetaArm(a, b, i) for i in range(100)]
    draws = np.concatenate(
        [sample_utilities(arms, np.random.default_rng(1000 + j)) for j in range(1000)]
    )
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    se = math.sqrt(var / draws.size)
    assert draws.size == 100_000
    assert abs(draws.mean() - mean) < 3 * se


def test_sample_utilities_extreme_arms():
    rng = np.random.default_rng(11)
    heavy = [BetaArm(1e6, 1.0, 0)]
    light = [BetaArm(1.0, 1e6, 1)]
    n = 100_000
    hi = np.concatenate([sample_utilities(heavy * 100, rng) for _ in range(n // 100)])
    lo = np.concatenate([sample_utilities(light * 100, rng) for _ in range(n // 100)])
    assert np.mean(hi > 0.99) > 0.999 - 3 * math.sqrt(0.001 * 0.999 / n)
    assert np.mean(lo < 0.01) > 0.999 - 3 * math.sqrt(0.001 * 0.999 / n)


# ------------------------------------------------------------- select_tasks

def test_select_tasks_top_two_plus_threshold():
    cfg = make_config(n_tasks=5)
    arms = [
        BetaArm(3.0, 1.0, 0),  # primary
        BetaArm(9.0, 1.0, 1),  # 0.9
        BetaArm(8.0, 2.0, 2),  # 0.8
        BetaArm(6.0, 4.0, 3),  # 0.6 -> in via threshold
        BetaArm(1.0, 9.0, 4),  # 0.1 -> out
    ]
    sel = select_tasks(arms, cfg)
    assert sel.selected_task_ids == (0, 1, 2, 3)
    assert sel.expected_utilities == pytest.approx((0.75, 0.9, 0.8, 0.6, 0.1))


def test_select_tasks_tie_goes_to_lower_id():
    cfg = make_config(n_tasks=4)
    arms = [
        BetaArm(3.0, 1.0, 0),
        BetaArm(2.0, 8.0, 1),  # 0.2
        BetaArm(1.0, 4.0, 2),  # 0.2 exact tie with task 1 and 3
        BetaArm(2.0, 8.0, 3),  # 0.2
    ]
    sel = select_tasks(arms, cfg)
    assert sel.selected_task_ids == (0, 1, 2)


def test_select_tasks_primary_not_counted_in_top_two():
    # Primary has the highest expected utility but the top-2 rule applies to
    # auxiliaries only, so two auxiliaries still come along.
    cfg = make_config(n_tasks=3)
    arms = [BetaArm(99.0, 1.0, 0), BetaArm(1.0, 9.0, 1), BetaArm(1.0, 9.0, 2)]
    sel = select_tasks(arms, cfg)
    assert sel.selected_task_ids == (0, 1, 2)


def test_select_tasks_arm_count_mismatch():
    cfg = make_config(n_tasks=3)
    with pytest.raises(ValueError):
        select_tasks([BetaArm(1.0, 1.0, 0)], cfg)


# --------------------------------------------------------------- run_stage1

def test_run_stage1_deterministic_log():
    theta = [0.8, 0.9, 0.2]
    cfg = make_config(n_tasks=3, n_rounds=50, rng_seed=21)
    sel1, log1 = run_stage1(PlantedBanditEnv(theta), cfg)
    sel2, log2 = run_stage1(PlantedBanditEnv(theta), cfg)
    assert sel1 == sel2
    assert log1.lines() == log2.lines()
    assert len(log1) == 50


def test_run_stage1_record_schema():
    cfg = make_config(n_tasks=3, n_rounds=3, rng_seed=2)
    _, log = run_stage1(PlantedBanditEnv([0.5, 0.5, 0.5]), cfg)
    for t, rec in enumerate(log.records):
        assert sorted(rec) == [
            "arms_after",
            "metric",
            "reward",
            "round",
            "sampled_thetas",
            "selected_arm",
        ]
        assert rec["round"] == t
        assert rec["reward"] in (0, 1)
        assert len(rec["sampled_thetas"]) == 3
        assert len(rec["arms_after"]) == 3


def test_run_stage1_zero_rounds_selects_from_priors():
    cfg = make_config(n_tasks=4, n_rounds=0, primary_prior_boost=2.0)
    sel, log = run_stage1(PlantedBanditEnv([0.5] * 4), cfg)
    assert len(log) == 0
    assert sel.selected_task_ids == (0, 1, 2)  # priors tie; lowest ids win top-2
    assert max(sel.expected_utilities) == sel.expected_utilities[0]


def test_run_stage1_two_tasks_keeps_useless_auxiliary_via_top_two():
    cfg = make_config(n_tasks=2, n_rounds=200, rng_seed=5)
    sel, _ = run_stage1(PlantedBanditEnv([0.8, 0.0]), cfg)
    assert sel.selected_task_ids == (0, 1)
    assert sel.expected_utilities[1] < 0.5


def _reference_stage1(env, config):
    """The stage-1 loop over BetaArm lists, as it was before the array-backed
    loop: one sample, selection and posterior update per round through the
    public scalar API."""
    arms = initial_arms(config)
    log = RunLog()
    rng = np.random.default_rng(derive_seed(config.rng_seed, "stage1-ts"))
    env.reset(derive_seed(config.rng_seed, "stage1-env"))
    metric_prev = float(env.validation_metric())
    for t in range(config.n_rounds):
        thetas = sample_utilities(arms, rng)
        k = select_arm(thetas)
        env.step(k)
        metric_now = float(env.validation_metric())
        reward = compute_reward(metric_now, metric_prev)
        arms = update_posterior(arms, k, reward, config)
        log.append(
            round=t,
            sampled_thetas=[float(x) for x in thetas],
            selected_arm=k,
            reward=reward,
            metric=metric_now,
            arms_after=[[a.alpha, a.beta] for a in arms],
        )
        metric_prev = metric_now
    return select_tasks(arms, config), log


def _oracle_env(family, n_tasks):
    if family == "planted":
        return PlantedBanditEnv(np.linspace(0.9, 0.1, n_tasks).tolist(), score_noise=0.05)
    kinds = itertools.cycle(["useful", "harmful"])
    profile = ["primary"] + [next(kinds) for _ in range(n_tasks - 1)]
    return SharedParamMtlEnv(
        profile, dim=4, n_primary_train=32, n_primary_heldout=16, n_aux=32,
        primary_label_noise=0.3, batches_per_round=2,
    )


@pytest.mark.parametrize("family", ["planted", "shared-linear"])
@pytest.mark.parametrize("n_tasks", [2, 10])
@pytest.mark.parametrize("n_rounds", [0, 1, 300])
@pytest.mark.parametrize("gamma", [0.0, 0.02, 1.0])
@pytest.mark.parametrize("boost", [0.0, 2.0])
def test_run_stage1_matches_reference_loop(family, n_tasks, n_rounds, gamma, boost):
    cfg = make_config(
        n_tasks=n_tasks, n_rounds=n_rounds, gamma=gamma, primary_prior_boost=boost,
        batches_per_round=2, rng_seed=n_tasks * 1000 + n_rounds,
    )
    want_sel, want_log = _reference_stage1(_oracle_env(family, n_tasks), cfg)
    got_sel, got_log = run_stage1(_oracle_env(family, n_tasks), cfg)
    assert got_log.records == want_log.records
    assert got_log.lines() == want_log.lines()
    assert got_sel == want_sel
    assert len(got_log) == n_rounds


@pytest.mark.parametrize("reward", [0, 1])
def test_update_posterior_matches_scalar_formula(reward):
    cfg = make_config(n_tasks=4, gamma=0.3, alpha0=1.5, beta0=0.5)
    arms = [BetaArm(2.0 + k, 1.0 + 0.5 * k, task_id=k) for k in range(4)]
    out = update_posterior(arms, 2, reward, cfg)
    for k, (old, new) in enumerate(zip(arms, out)):
        hit = k == 2
        assert new.alpha == (1.0 - 0.3) * old.alpha + 0.3 * 1.5 + (reward if hit else 0)
        assert new.beta == (1.0 - 0.3) * old.beta + 0.3 * 0.5 + (1 - reward if hit else 0)
        assert new.task_id == old.task_id
        assert type(new.alpha) is float and type(new.beta) is float


class FailingEnv:
    """Steps fine until a planted round, then raises."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.n_tasks = 3
        self.calls = 0

    def reset(self, seed):
        pass

    def step(self, task_id):
        if self.calls >= self.fail_at:
            raise RuntimeError("hardware on fire")
        self.calls += 1

    def validation_metric(self):
        return 0.5


def test_run_stage1_abort_preserves_partial_log():
    cfg = make_config(n_tasks=3, n_rounds=50, rng_seed=1)
    with pytest.raises(RunAborted) as info:
        run_stage1(FailingEnv(fail_at=7), cfg)
    assert len(info.value.log) == 7
    assert "round 7" in str(info.value)


# ------------------------------------------------- utility_density_table

def test_density_table_uniform_arm():
    rows = utility_density_table([BetaArm(1.0, 1.0, 0)], grid_size=3)
    assert [(t, th) for t, th, _ in rows] == [(0, 0.25), (0, 0.5), (0, 0.75)]
    assert all(d == pytest.approx(1.0) for _, _, d in rows)


def test_density_table_shape_and_peak():
    arms = [BetaArm(2.0, 2.0, k) for k in range(4)]
    rows = utility_density_table(arms, grid_size=101)
    assert len(rows) == 4 * 101
    task0 = [(th, d) for t, th, d in rows if t == 0]
    peak_theta = max(task0, key=lambda p: p[1])[0]
    assert peak_theta == pytest.approx(0.5, abs=0.01)


def test_density_table_rejects_bad_grid():
    with pytest.raises(ValueError):
        utility_density_table([BetaArm(1.0, 1.0, 0)], grid_size=0)


# ----------------------------------------------------------- config checks

def test_bandit_config_validation():
    with pytest.raises(ValueError):
        make_config(n_tasks=1)
    with pytest.raises(ValueError):
        make_config(gamma=1.5)
    with pytest.raises(ValueError):
        make_config(gamma=-0.1)
    with pytest.raises(ValueError):
        make_config(alpha0=0.0)
    with pytest.raises(ValueError):
        make_config(primary_prior_boost=-1.0)
    with pytest.raises(ValueError):
        make_config(primary_task_id=7)
    with pytest.raises(ValueError):
        make_config(n_rounds=-1)


def test_initial_arms_boosts_primary():
    cfg = make_config(n_tasks=3, alpha0=1.0, beta0=1.0, primary_prior_boost=2.0)
    arms = initial_arms(cfg)
    assert [(a.alpha, a.beta) for a in arms] == [(3.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
    assert [a.task_id for a in arms] == [0, 1, 2]
