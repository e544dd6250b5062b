"""Stage-1 bandit: conjugacy, decay, selection rule, and loop behavior."""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from auxmix.bandit import (
    BanditConfig,
    belief_path,
    compute_reward,
    initial_arms,
    run_stage1,
    select_tasks,
    thompson_draws,
    update_posterior,
    utility_density_table,
)
from auxmix.environments import PlantedBanditEnv, SharedParamMtlEnv
from auxmix.pipeline import density_csv
from auxmix.runlog import RunAborted, RunLog, derive_seed


def make_config(**kw):
    base = dict(n_tasks=5, rng_seed=0)
    base.update(kw)
    return BanditConfig(**base)


def arrays(*arms):
    """``(alpha, beta)`` arrays from ``(alpha, beta)`` pairs."""
    alpha, beta = zip(*arms)
    return np.array(alpha, dtype=float), np.array(beta, dtype=float)


def pairs(alpha, beta):
    return list(zip(alpha.tolist(), beta.tolist()))


def _beta_pdf(theta: float, a: float, b: float) -> float:
    """The scalar Beta density the table was once built from, one call per point."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return math.exp(log_norm + (a - 1.0) * math.log(theta) + (b - 1.0) * math.log1p(-theta))


# ------------------------------------------------------------- Beta density

def test_beta_pdf_frozen_values():
    theta, density = utility_density_table([(1.0, 1.0), (2.0, 2.0), (2.0, 1.0)], grid_size=3)
    assert theta.tolist() == [0.25, 0.5, 0.75]
    assert density[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert density[1, 1] == pytest.approx(1.5, abs=1e-12)
    assert density[2, 0] == pytest.approx(0.5, abs=1e-12)


def test_beta_pdf_integrates_to_one():
    # midpoint-like rule on a fine interior grid; the density is smooth here
    theta, density = utility_density_table([(3.5, 1.7)], grid_size=20000)
    assert density.mean() == pytest.approx(1.0, abs=1e-3)
    assert theta.shape == (20000,)


def test_beta_pdf_domain_error():
    # The grid never reaches the endpoints, where the density may diverge.
    for grid_size in (1, 2, 1000, 10**6):
        theta, density = utility_density_table([(0.5, 0.5)], grid_size)
        assert 0.0 < theta.min() and theta.max() < 1.0
        assert np.all(np.isfinite(density))


def test_beta_arm_invariants():
    for bad in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            utility_density_table([(1.0, 1.0), bad], grid_size=3)
    for bad_shape in ([], [1.0, 2.0], [(1.0, 2.0, 3.0)]):
        with pytest.raises(ValueError):
            utility_density_table(bad_shape, grid_size=3)


@pytest.mark.parametrize("grid_size", [1, 7, 37, 1000])
def test_density_csv_is_byte_identical_to_the_scalar_density(grid_size, tmp_path):
    """Random shapes from 0.01 to 1e6, one scalar ``_beta_pdf`` call per point,
    written the way the scalar table was: the batched CSV matches byte for byte."""
    rng = np.random.default_rng(grid_size)
    arms = (10.0 ** rng.uniform(-2.0, 6.0, size=(12, 2))).tolist()
    arms += [[0.01, 0.01], [1e6, 1e6], [0.01, 1e6], [1e6, 0.01], [1.0, 1.0]]
    want = tmp_path / "scalar.csv"
    with want.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id", "theta", "density"])
        for k, (a, b) in enumerate(arms):
            for j in range(grid_size):
                theta = (j + 1) / (grid_size + 1)
                writer.writerow([k, repr(theta), repr(_beta_pdf(theta, a, b))])
    got = density_csv(utility_density_table(arms, grid_size))
    assert got.encode("utf-8") == want.read_bytes()


# --------------------------------------------------------- expected utility

def test_expected_utility_values():
    cfg = make_config(n_tasks=3)
    sel = select_tasks(*arrays((1.0, 1.0), (3.0, 1.0), (1.0, 3.0)), cfg)
    assert sel.expected_utilities == (0.5, 0.75, 0.25)


# ----------------------------------------------------- Thompson selection

def test_select_arm_examples():
    """Every round trains the arm with the largest sampled utility; a tie
    goes to the lowest index."""
    cfg = make_config(n_tasks=4, n_rounds=200, rng_seed=4)
    _, log = run_stage1(PlantedBanditEnv([0.8, 0.6, 0.4, 0.2]), cfg)
    for rec, thetas in zip(log.records, thompson_draws(log.records, cfg).tolist(), strict=True):
        assert rec["selected_arm"] == thetas.index(max(thetas))


def test_sample_utilities_deterministic_and_in_range():
    cfg = make_config(n_tasks=2, n_rounds=20, rng_seed=5)
    _, one = run_stage1(PlantedBanditEnv([0.5, 0.5]), cfg)
    _, two = run_stage1(PlantedBanditEnv([0.5, 0.5]), cfg)
    draws = thompson_draws(one.records, cfg)
    assert draws.tolist() == thompson_draws(two.records, cfg).tolist()
    assert draws.shape == (20, 2)
    assert np.all((draws > 0) & (draws < 1))


def test_sample_utilities_mean_within_three_se():
    # With gamma = 1 every arm returns to the Beta(2, 5) prior each round and
    # only the arm trained last holds a credit, so the other arms' draws are
    # Beta(2, 5) samples: 99 per round over 1000 rounds, plus all of round 0.
    a, b = 2.0, 5.0
    cfg = make_config(
        n_tasks=100, n_rounds=1000, gamma=1.0, alpha0=a, beta0=b,
        primary_prior_boost=0.0, rng_seed=7,
    )
    _, log = run_stage1(PlantedBanditEnv([0.5] * 100), cfg)
    draws = thompson_draws(log.records, cfg)
    last = [None] + [rec["selected_arm"] for rec in log.records[:-1]]
    keep = np.ones(draws.shape, dtype=bool)
    for t, k in enumerate(last):
        if k is not None:
            keep[t, k] = False
    draws = draws[keep]
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    se = math.sqrt(var / draws.size)
    assert draws.size == 100 + 999 * 99
    assert abs(draws.mean() - mean) < 3 * se


def test_sample_utilities_extreme_arms():
    # A 1000-round run moves no pseudo-count by more than 1000, so every
    # belief stays within 1e-3 of its prior mean.
    n = 100_000
    for (alpha0, beta0), near in (((1e6, 1.0), lambda d: d > 0.99), ((1.0, 1e6), lambda d: d < 0.01)):
        cfg = make_config(
            n_tasks=100, n_rounds=1000, gamma=0.0, alpha0=alpha0, beta0=beta0,
            primary_prior_boost=0.0, rng_seed=11,
        )
        _, log = run_stage1(PlantedBanditEnv([0.5] * 100), cfg)
        draws = thompson_draws(log.records, cfg)
        assert draws.size == n
        assert near(draws).mean() > 0.999 - 3 * math.sqrt(0.001 * 0.999 / n)


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
    alpha, beta = update_posterior(*arrays((2.0, 3.0), (1.0, 1.0)), 0, 1, cfg)
    assert pairs(alpha, beta) == [(3.0, 3.0), (1.0, 1.0)]


def test_update_unselected_arm_decays():
    cfg = make_config(n_tasks=2, gamma=0.1, alpha0=1.0, beta0=1.0)
    alpha, beta = update_posterior(*arrays((1.0, 1.0), (2.0, 3.0)), 0, 0, cfg)
    assert alpha[1] == pytest.approx(1.9, abs=1e-12)
    assert beta[1] == pytest.approx(2.8, abs=1e-12)


def test_update_gamma_one_resets_unselected():
    cfg = make_config(n_tasks=2, gamma=1.0, alpha0=1.0, beta0=1.0)
    alpha, beta = update_posterior(*arrays((7.0, 9.0), (5.0, 2.0)), 1, 1, cfg)
    assert pairs(alpha, beta) == [(1.0, 1.0), (2.0, 1.0)]  # reset then +reward


def test_update_posterior_argument_errors():
    cfg = make_config(n_tasks=2)
    prior = arrays((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        update_posterior(*prior, 5, 1, cfg)
    with pytest.raises(ValueError):
        update_posterior(*prior, -1, 1, cfg)
    with pytest.raises(ValueError):
        update_posterior(*prior, 0, 2, cfg)
    for bad in (1.0, 0.5, True, "1", None):
        with pytest.raises(ValueError, match="arm must be an integer"):
            update_posterior(*prior, bad, 1, cfg)
        with pytest.raises(ValueError, match="reward must be 0 or 1"):
            update_posterior(*prior, 1, bad, cfg)
    got = update_posterior(*prior, np.int64(1), np.int64(1), cfg)
    assert pairs(*got) == [(1.0, 1.0), (2.0, 1.0)]


def test_conjugacy_exact_under_gamma_zero():
    # 1000 random reward sequences; with gamma=0 the selected arm's state is
    # the textbook conjugate posterior, exact in integer pseudo-count
    # arithmetic.
    rng = np.random.default_rng(1234)
    cfg = make_config(n_tasks=3, gamma=0.0, alpha0=1.0, beta0=1.0, primary_prior_boost=2.0)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        rewards = rng.integers(0, 2, size=n)
        alpha, beta = initial_arms(cfg)
        for r in rewards:
            alpha, beta = update_posterior(alpha, beta, 1, int(r), cfg)
        total_r = int(rewards.sum())
        assert pairs(alpha, beta) == [(3.0, 1.0), (1.0 + total_r, 1.0 + n - total_r), (1.0, 1.0)]


@given(gamma=st.floats(min_value=0.0, max_value=1.0))
def test_decay_fixed_point(gamma):
    cfg = make_config(n_tasks=2, gamma=gamma, alpha0=1.0, beta0=1.0)
    alpha, beta = update_posterior(*arrays((1.0, 1.0), (1.0, 1.0)), 0, 1, cfg)
    assert (alpha[1], beta[1]) == (1.0, 1.0)


@pytest.mark.parametrize("gamma", [0.1, 0.5])
def test_pseudo_count_boundedness(gamma):
    cfg = make_config(n_tasks=3, gamma=gamma, alpha0=1.0, beta0=1.0, primary_prior_boost=2.0)
    bound = max(3.0, 1.0) + 1.0 / gamma + 1.0
    rng = np.random.default_rng(99)
    alpha, beta = initial_arms(cfg)
    for _ in range(500):
        k = int(rng.integers(0, 3))
        r = int(rng.integers(0, 2))
        alpha, beta = update_posterior(alpha, beta, k, r, cfg)
        assert np.all(alpha <= bound) and np.all(beta <= bound)


@pytest.mark.parametrize("reward", [0, 1])
def test_update_posterior_matches_scalar_formula(reward):
    cfg = make_config(n_tasks=4, gamma=0.3, alpha0=1.5, beta0=0.5)
    old = arrays(*[(2.0 + k, 1.0 + 0.5 * k) for k in range(4)])
    before = pairs(*old)
    alpha, beta = update_posterior(*old, 2, reward, cfg)
    assert pairs(*old) == before  # the inputs are left as they were
    assert alpha.dtype == beta.dtype == np.float64
    for k, ((a_old, b_old), (a_new, b_new)) in enumerate(zip(before, pairs(alpha, beta))):
        hit = k == 2
        assert a_new == (1.0 - 0.3) * a_old + 0.3 * 1.5 + (reward if hit else 0)
        assert b_new == (1.0 - 0.3) * b_old + 0.3 * 0.5 + (1 - reward if hit else 0)


# ------------------------------------------------------------- select_tasks

def test_select_tasks_top_two_plus_threshold():
    cfg = make_config(n_tasks=5)
    arms = [
        (3.0, 1.0),  # primary
        (9.0, 1.0),  # 0.9
        (8.0, 2.0),  # 0.8
        (6.0, 4.0),  # 0.6 -> in via threshold
        (1.0, 9.0),  # 0.1 -> out
    ]
    sel = select_tasks(*arrays(*arms), cfg)
    assert sel.selected_task_ids == (0, 1, 2, 3)
    assert sel.expected_utilities == pytest.approx((0.75, 0.9, 0.8, 0.6, 0.1))
    assert sel.final_arms == tuple(arms)


def test_select_tasks_tie_goes_to_lower_id():
    cfg = make_config(n_tasks=4)
    # 0.2 for tasks 1, 2 and 3: an exact three-way tie
    sel = select_tasks(*arrays((3.0, 1.0), (2.0, 8.0), (1.0, 4.0), (2.0, 8.0)), cfg)
    assert sel.selected_task_ids == (0, 1, 2)


def test_select_tasks_primary_not_counted_in_top_two():
    # Primary has the highest expected utility but the top-2 rule applies to
    # auxiliaries only, so two auxiliaries still come along.
    cfg = make_config(n_tasks=3)
    sel = select_tasks(*arrays((99.0, 1.0), (1.0, 9.0), (1.0, 9.0)), cfg)
    assert sel.selected_task_ids == (0, 1, 2)


def test_select_tasks_arm_count_mismatch():
    cfg = make_config(n_tasks=3)
    with pytest.raises(ValueError):
        select_tasks(*arrays((1.0, 1.0)), cfg)
    with pytest.raises(ValueError):
        select_tasks(np.ones(3), np.ones(2), cfg)


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
        assert sorted(rec) == ["metric", "reward", "round", "selected_arm"]
        assert rec["round"] == t
        assert rec["reward"] in (0, 1)
    assert thompson_draws(log.records, cfg).shape == (3, 3)


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
    """The stage-1 loop one arm at a time in Python floats: its own prior,
    scalar Thompson draws, first-maximum rule, reward and decay, sharing no
    code with :func:`run_stage1`.  Returns the log, the arms of the prior
    and after each round, and each round's draws; the log holds neither."""
    n, g = config.n_tasks, config.gamma
    alphas = [config.alpha0] * n
    alphas[0] = config.alpha0 + config.primary_prior_boost
    betas = [config.beta0] * n
    log = RunLog()
    arms_path = [tuple(zip(alphas, betas))]
    draws = []
    rng = np.random.default_rng(derive_seed(config.rng_seed, "stage1-ts"))
    env.reset(derive_seed(config.rng_seed, "stage1-env"))
    metric_prev = float(env.validation_metric())
    for t in range(config.n_rounds):
        thetas = [float(rng.beta(a, b)) for a, b in zip(alphas, betas)]
        k = thetas.index(max(thetas))
        env.step(k)
        metric_now = float(env.validation_metric())
        reward = 1 if metric_now >= metric_prev else 0
        hits = [1 if j == k else 0 for j in range(n)]
        alphas = [(1.0 - g) * a + g * config.alpha0 + reward * h for a, h in zip(alphas, hits)]
        betas = [(1.0 - g) * b + g * config.beta0 + (1 - reward) * h for b, h in zip(betas, hits)]
        log.append(round=t, selected_arm=k, reward=reward, metric=metric_now)
        arms_path.append(tuple(zip(alphas, betas)))
        draws.append(thetas)
        metric_prev = metric_now
    return log, arms_path, draws


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
def test_run_stage1_matches_reference_loop(
    family, n_tasks, n_rounds, gamma, boost, prior=(1.0, 1.0)
):
    cfg = make_config(
        n_tasks=n_tasks, n_rounds=n_rounds, gamma=gamma, primary_prior_boost=boost,
        batches_per_round=2, rng_seed=n_tasks * 1000 + n_rounds, alpha0=prior[0], beta0=prior[1],
    )
    want_log, want_path, want_draws = _reference_stage1(_oracle_env(family, n_tasks), cfg)
    got_sel, got_log = run_stage1(_oracle_env(family, n_tasks), cfg)
    assert got_log.records == want_log.records
    assert got_log.lines() == want_log.lines()
    # The beliefs the log implies, round by round, are the reference's.
    got_path = [pairs(alpha, beta) for alpha, beta in belief_path(got_log.records, cfg)]
    assert got_path == [list(arms) for arms in want_path]
    # So are the draws redrawn from those beliefs, bit for bit in every round.
    got_draws = thompson_draws(got_log.records, cfg)
    assert got_draws.shape == (n_rounds, n_tasks)
    assert got_draws.tobytes() == np.array(want_draws, dtype=float).tobytes()
    want_arms = want_path[-1]
    assert got_sel.final_arms == want_arms
    assert got_sel.expected_utilities == tuple(a / (a + b) for a, b in want_arms)
    assert got_sel == select_tasks(*arrays(*want_arms), cfg)
    assert len(got_log) == n_rounds


@pytest.mark.parametrize("family", ["planted", "shared-linear"])
@pytest.mark.parametrize("n_tasks", [2, 10])
@pytest.mark.parametrize("gamma", [0.0, 0.02, 1.0])
def test_run_stage1_matches_reference_loop_with_a_prior_below_one(family, n_tasks, gamma):
    """Shapes at or below 1 take NumPy's Johnk branch of the Beta sampler,
    which the unit prior reaches only at exactly (1, 1)."""
    test_run_stage1_matches_reference_loop(family, n_tasks, 300, gamma, 2.0, prior=(0.5, 0.7))


def test_thompson_draws_equal_array_draws_over_beliefs_on_both_sides_of_one():
    """Each round's arm-by-arm draws are the bits of one ``rng.beta(alpha,
    beta)`` array draw from the same generator state, the call that logs
    were once written with; they replay only while NumPy keeps the two equal."""
    cfg = make_config(n_tasks=6, n_rounds=400, alpha0=0.5, beta0=0.7, rng_seed=13)
    env = PlantedBanditEnv([0.9, 0.8, 0.6, 0.4, 0.2, 0.1], score_noise=0.05)
    _, log = run_stage1(env, cfg)
    beliefs = list(belief_path(log.records, cfg))[:-1]
    assert (np.array(beliefs) < 1).any() and (np.array(beliefs) > 1).any()
    rng = np.random.default_rng(derive_seed(cfg.rng_seed, "stage1-ts"))
    want = np.array([rng.beta(alpha, beta) for alpha, beta in beliefs])
    assert thompson_draws(log.records, cfg).tobytes() == want.tobytes()


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
    assert len(info.value.stage_logs["stage1"]) == 7
    assert "round 7" in str(info.value)


# ------------------------------------------------- utility_density_table

def test_density_table_uniform_arm():
    theta, density = utility_density_table([(1.0, 1.0)], grid_size=3)
    assert theta.tolist() == [0.25, 0.5, 0.75]
    assert density.shape == (1, 3)
    assert density.tolist()[0] == pytest.approx([1.0, 1.0, 1.0])


def test_density_table_shape_and_peak():
    theta, density = utility_density_table([(2.0, 2.0)] * 4, grid_size=101)
    assert density.shape == (4, 101)
    assert theta[np.argmax(density[0])] == pytest.approx(0.5, abs=0.01)


def test_density_table_rejects_bad_grid():
    with pytest.raises(ValueError):
        utility_density_table([(1.0, 1.0)], grid_size=0)


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
        make_config(n_rounds=-1)


def test_initial_arms_boosts_primary():
    cfg = make_config(n_tasks=3, alpha0=1.0, beta0=1.0, primary_prior_boost=2.0)
    alpha, beta = initial_arms(cfg)
    assert pairs(alpha, beta) == [(3.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
    assert alpha.dtype == beta.dtype == np.float64
