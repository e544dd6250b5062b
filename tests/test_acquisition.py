"""Acquisition closed forms against frozen constants, Monte Carlo, and Hedge.

SciPy appears here only as an oracle; the package computes Phi itself.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from auxmix.acquisition import (
    ACQUISITIONS,
    HedgeState,
    _normal_cdf,
    expected_improvement,
    hedge_probabilities,
    hedge_select,
    hedge_update,
    probability_of_improvement,
    upper_confidence_bound,
)
from auxmix.gp import KernelParams, Posterior, build_gp, posterior_at

# Frozen from 50-digit evaluation of the standard normal CDF and PDF.
PHI_AT_ONE = 0.8413447460685429  # Phi(1)
PDF_AT_ZERO = 0.3989422804014327  # phi(0)

# Phi(z), frozen from 50-digit evaluation, from the far tail to near 1.
PHI_TABLE = {
    -37.0: 5.725571222524577e-300,
    -30.0: 4.906713927148187e-198,
    -20.0: 2.7536241186062337e-89,
    -10.0: 7.619853024160525e-24,
    -5.0: 2.866515718791939e-07,
    -1.0: 0.15865525393145705,
    0.0: 0.5,
    1.0: 0.8413447460685429,
    5.0: 0.9999997133484281,
    8.0: 0.9999999999999993,
}
# z Phi(z) + phi(z), the expected improvement at unit std, frozen likewise.
EI_UNIT_TABLE = {
    -30.0: 1.631956734091401e-199,
    -20.0: 1.3700124947295798e-90,
    -10.0: 7.474560254589328e-25,
    -5.0: 5.346165533832815e-08,
    -2.0: 0.008490702616829637,
    -1.0: 0.0833154705876863,
    0.0: 0.3989422804014327,
    1.0: 1.0833154705876864,
    2.0: 2.0084907026168297,
    5.0: 5.0000000534616555,
}


# ------------------------------------------------------------------ PI / EI

def test_pi_frozen_value_one_sigma_above():
    assert probability_of_improvement(Posterior(1.0, 1.0), 0.0) == pytest.approx(
        PHI_AT_ONE, abs=1e-12
    )


@pytest.mark.parametrize("z", sorted(PHI_TABLE))
def test_pi_matches_the_frozen_normal_cdf(z):
    """Rounding -z / sqrt 2 costs up to about 2 z^2 ulp of Phi in the tail."""
    assert probability_of_improvement(Posterior(z, 1.0), 0.0) == pytest.approx(
        PHI_TABLE[z], rel=3e-13, abs=0.0
    )


@pytest.mark.parametrize("z", sorted(EI_UNIT_TABLE))
def test_ei_matches_the_frozen_table(z):
    """z Phi(z) + phi(z) cancels in the tail: up to about 1e-10 relative at
    z = -30.  A log-EI form would avoid it."""
    assert expected_improvement(Posterior(z, 1.0), 0.0) == pytest.approx(
        EI_UNIT_TABLE[z], rel=3e-10, abs=0.0
    )


def test_pi_at_incumbent_is_half():
    assert probability_of_improvement(Posterior(0.3, 0.7), 0.3) == pytest.approx(0.5)


def test_pi_degenerate_posterior():
    assert probability_of_improvement(Posterior(0.5, 0.0), 0.4) == 1.0
    assert probability_of_improvement(Posterior(0.5, 0.0), 0.5) == 0.0
    assert probability_of_improvement(Posterior(0.5, 0.0), 0.6) == 0.0


def test_ei_frozen_value_at_zero_z():
    assert expected_improvement(Posterior(0.0, 2.0), 0.0) == pytest.approx(
        2.0 * PDF_AT_ZERO, abs=1e-12
    )


def test_ei_degenerate_posterior():
    assert expected_improvement(Posterior(0.5, 0.0), 0.2) == pytest.approx(0.3)
    assert expected_improvement(Posterior(0.5, 0.0), 0.9) == 0.0


def test_ei_nonnegative_and_monotone_in_tau():
    post = Posterior(0.4, 0.3)
    taus = np.linspace(-1.0, 2.0, 25)
    values = [expected_improvement(post, t) for t in taus]
    assert all(v >= 0 for v in values)
    assert all(values[i + 1] <= values[i] + 1e-15 for i in range(len(values) - 1))


def test_pi_and_ei_match_monte_carlo():
    rng = np.random.default_rng(42)
    n = 200_000
    for mean, std, tau in [(0.2, 0.5, 0.3), (-1.0, 2.0, 0.5), (1.5, 0.1, 1.4)]:
        draws = rng.normal(mean, std, size=n)
        post = Posterior(mean, std)

        pi_mc = np.mean(draws > tau)
        pi_se = math.sqrt(pi_mc * (1 - pi_mc) / n)
        assert abs(probability_of_improvement(post, tau) - pi_mc) < 3 * max(pi_se, 1e-9)

        gains = np.maximum(draws - tau, 0.0)
        ei_mc = gains.mean()
        ei_se = gains.std(ddof=1) / math.sqrt(n)
        assert abs(expected_improvement(post, tau) - ei_mc) < 3 * ei_se


def _pools_for_ei():
    """Pools with deterministic entries (above, at and below the incumbent),
    standardized scores past +-30 and ordinary ones, then float posteriors."""
    rng = np.random.default_rng(11)
    mean = rng.normal(size=64)
    std = rng.uniform(0.01, 2.0, size=64)
    std[::7] = 0.0
    mean[14] = 0.25  # at the incumbent with std 0
    mean[:4], std[:4] = [0.25 + 40.0, 0.25 - 40.0, 0.25 + 31.0, 0.25 - 37.0], 1.0
    yield Posterior(mean, std), 0.25
    yield Posterior(np.array([1.0, 2.0, 3.0]), np.zeros(3)), 2.0
    for m, s in [(0.4, 0.3), (0.25, 0.0), (1.0, 0.0), (-30.0, 1.0), (35.0, 1.0)]:
        yield Posterior(m, s), 0.25


def test_ei_given_pi_scores_is_bitwise_ei_alone():
    """PI's scores are Phi(z) wherever std > 0, and EI takes its limit
    wherever std == 0, so passing them changes no bit."""
    for post, tau in _pools_for_ei():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = probability_of_improvement(post, tau)
            alone, given_pi = expected_improvement(post, tau), expected_improvement(post, tau, pi)
        assert type(alone) is type(given_pi)
        assert np.asarray(given_pi).tobytes() == np.asarray(alone).tobytes()


# --------------------------------------------------------------------- UCB

def _pi_reference(mean: float, std: float, tau: float) -> float:
    """One-point PI as computed before pool scoring was batched."""
    if std == 0.0:
        return 1.0 if mean > tau else 0.0
    return float(norm.cdf((mean - tau) / std))


def _ei_reference(mean: float, std: float, tau: float) -> float:
    """One-point EI as computed before pool scoring was batched."""
    if std == 0.0:
        return max(mean - tau, 0.0)
    z = (mean - tau) / std
    return float(std * (z * norm.cdf(z) + norm.pdf(z)))


def _pool_posterior(seed=0, size=400, tau=0.3):
    """Posteriors with |z| up to 40, a block of deterministic ones among them."""
    rng = np.random.default_rng(seed)
    std = np.exp(rng.uniform(-6, 1, size))
    mean = tau + rng.uniform(-40, 40, size) * std
    std[:40] = 0.0
    mean[:20] = tau + rng.uniform(-1, 1, 20)
    mean[20:25] = tau  # z = 0/0 where the limit applies
    return Posterior(mean, std), tau


@pytest.mark.parametrize(
    "acquisition, reference",
    [(probability_of_improvement, _pi_reference), (expected_improvement, _ei_reference)],
)
def test_pool_scores_equal_pointwise_reference(acquisition, reference):
    """Against scipy.stats within a stated tolerance, since SciPy is an oracle
    here, not the implementation; pool and single point agree bitwise."""
    post, tau = _pool_posterior()
    scores = acquisition(post, tau)
    assert isinstance(scores, np.ndarray) and scores.shape == post.mean.shape
    expected = np.array([reference(m, s, tau) for m, s in zip(post.mean, post.std)])
    if acquisition is probability_of_improvement:
        # About 2.3e-13 apart on the normal range; below z = -37.7 SciPy
        # flushes to 0 where erfc keeps a subnormal value.
        np.testing.assert_allclose(scores, expected, rtol=5e-13, atol=1e-300)
    else:
        assert np.all(np.abs(scores - expected) <= 1e-15 * post.std)
    for m, s, value in zip(post.mean, post.std, scores):
        single = acquisition(Posterior(float(m), float(s)), tau)
        assert isinstance(single, np.ndarray) and single.shape == ()
        assert single.tobytes() == value.tobytes()


def test_ucb_pool_scores_are_elementwise():
    post, _ = _pool_posterior()
    scores = upper_confidence_bound(post, 1.5)
    np.testing.assert_array_equal(scores, post.mean + 1.5 * post.std)
    single = upper_confidence_bound(Posterior(float(post.mean[7]), float(post.std[7])), 1.5)
    assert isinstance(single, np.ndarray) and single.shape == ()
    assert single.tobytes() == scores[7].tobytes()


def test_ucb_values():
    assert upper_confidence_bound(Posterior(0.4, 0.2), 2.0) == pytest.approx(0.8)
    assert upper_confidence_bound(Posterior(0.4, 0.2), 0.0) == pytest.approx(0.4)


def test_ucb_rejects_negative_lambda():
    with pytest.raises(ValueError):
        upper_confidence_bound(Posterior(0.0, 1.0), -1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_ucb_rejects_a_lambda_that_is_not_finite(lam):
    post = Posterior(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="lam must be >= 0"):
        upper_confidence_bound(post, lam)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)])
def test_normal_cdf_is_libm_erfc_elementwise(shape):
    """The list form gives the bits of math.erfc at every entry, 0-d included."""
    z = np.random.default_rng(sum(shape) + 3).normal(scale=10.0, size=shape)
    z.flat[0] = -38.0  # subnormal Phi
    got = _normal_cdf(z)
    want = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.reshape(-1).tolist()]
    assert got.shape == z.shape
    assert got.reshape(-1).tolist() == want


# ------------------------------------------------------------------- Hedge

def test_hedge_state_validation():
    with pytest.raises(ValueError):
        HedgeState(gains=(0.0, 0.0))
    with pytest.raises(ValueError):
        HedgeState(eta=0.0)
    with pytest.raises(ValueError):
        HedgeState(eta=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hedge_state_rejects_gains_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="gains must be finite"):
        HedgeState(gains=(bad, 0.0, 0.0))
    with pytest.raises(ValueError, match="gains must be finite"):
        hedge_update(HedgeState(), [0.0, bad, 0.0])


def test_hedge_probabilities_uniform_at_init():
    p = hedge_probabilities(HedgeState())
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3])


def test_hedge_probabilities_known_softmax():
    state = HedgeState(gains=(math.log(2.0), 0.0, 0.0), eta=1.0)
    assert np.allclose(hedge_probabilities(state), [0.5, 0.25, 0.25])


def test_hedge_probabilities_shift_invariant():
    base = HedgeState(gains=(0.3, -0.2, 1.1), eta=2.0)
    shifted = HedgeState(gains=(0.3 + 50, -0.2 + 50, 1.1 + 50), eta=2.0)
    assert np.allclose(hedge_probabilities(base), hedge_probabilities(shifted))


def test_hedge_probabilities_huge_gains_stay_finite():
    state = HedgeState(gains=(1e6, 0.0, -1e6), eta=1.0)
    p = hedge_probabilities(state)
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)


@pytest.mark.parametrize("gains", [(1.0, 2.0, 0.5), (-2.0, -3.0, -5.0), (0.0, -2.0, 3.0)])
def test_hedge_probabilities_where_eta_times_gains_overflows(gains):
    """The top gain keeps weight 1 and every other one underflows to 0,
    without a warning on the way."""
    assert not math.isfinite(max(1e308 * g for g in gains))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = hedge_probabilities(HedgeState(gains=gains, eta=1e308))
    assert p.tolist() == [float(g == max(gains)) for g in gains]


def test_hedge_probabilities_keep_their_bits_where_nothing_overflows():
    rng = np.random.default_rng(5)
    for _ in range(200):
        gains = rng.standard_normal(3) * 10.0 ** rng.integers(-5, 6)
        eta = float(10.0 ** rng.uniform(-3, 3))
        scaled = eta * gains
        w = np.exp(scaled - np.max(scaled))
        got = hedge_probabilities(HedgeState(gains=tuple(gains.tolist()), eta=eta))
        assert got.tobytes() == (w / np.sum(w)).tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500)
@given(
    gains=st.tuples(_FINITE, _FINITE, _FINITE),
    eta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(gains=(1.7976931348623157e308, -1.7976931348623157e308, 0.0), eta=1.7976931348623157e308)
@example(gains=(5e-324, -5e-324, -0.0), eta=5e-324)
@example(gains=(-1.7976931348623157e308,) * 3, eta=2.0)
def test_hedge_probabilities_always_pass_the_checks_of_rng_choice(gains, eta):
    """For every valid state the top weight is exactly ``exp(0) = 1`` and
    the rest lie in [0, 1], so ``p`` is finite, non-negative, peaks at
    exactly ``1 / sum(w)`` and sums to 1 within choice's ``sqrt(eps)``:
    :func:`hedge_select` needs none of choice's checks of ``p``."""
    state = HedgeState(gains=gains, eta=eta)
    g = np.asarray(gains)
    with np.errstate(over="ignore"):
        scaled = eta * g
        scaled = scaled - scaled.max() if np.isfinite(scaled.max()) else eta * (g - g.max())
    w = np.exp(scaled)
    p = hedge_probabilities(state)
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    assert p.max() == 1.0 / np.sum(w)
    assert abs(math.fsum(p.tolist()) - 1.0) <= math.sqrt(np.finfo(float).eps)


def test_hedge_select_names_and_determinism():
    state = HedgeState(gains=(0.2, 0.1, 0.0), eta=1.0)
    picks = [hedge_select(state, np.random.default_rng(77)) for _ in range(5)]
    assert len(set(picks)) == 1
    assert picks[0] in ACQUISITIONS


def test_hedge_select_draws_what_rng_choice_draws():
    """The Python-float draw is Generator.choice with ``p``: the same index
    and the same generator state afterwards, over random gains and ``eta``."""
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        gains = rng.normal(size=3) * 10.0 ** rng.uniform(-4, 3, size=3)
        state = HedgeState(gains=tuple(gains.tolist()), eta=float(10.0 ** rng.uniform(-3, 2)))
        seed = int(rng.integers(2**63))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ACQUISITIONS[int(theirs.choice(3, p=hedge_probabilities(state)))]
        assert hedge_select(state, ours) == want
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_hedge_select_frequencies_match_probabilities():
    state = HedgeState(gains=(0.5, 0.0, -0.5), eta=1.0)
    p = hedge_probabilities(state)
    rng = np.random.default_rng(123)
    n = 20_000
    counts = {name: 0 for name in ACQUISITIONS}
    for _ in range(n):
        counts[hedge_select(state, rng)] += 1
    for i, name in enumerate(ACQUISITIONS):
        se = math.sqrt(p[i] * (1 - p[i]) / n)
        assert abs(counts[name] / n - p[i]) < 3 * se


def test_hedge_update_adds_posterior_means():
    model = build_gp(
        [[0.0], [1.0]], [1.0, 3.0], KernelParams(length_scales=(1.0,), noise_variance=1e-6)
    )
    means = [posterior_at(model, x).mean for x in ([0.0], [1.0], [0.5])]
    state = HedgeState(gains=(0.1, 0.2, 0.3), eta=1.0)
    new = hedge_update(state, np.array(means))
    assert new.gains == tuple(g + m for g, m in zip(state.gains, means))
    assert all(type(g) is float for g in new.gains)
    assert new.eta == state.eta
    assert state.gains == (0.1, 0.2, 0.3)  # input state untouched


def test_hedge_update_requires_three_nominees():
    with pytest.raises(ValueError, match="expected 3 means"):
        hedge_update(HedgeState(), [1.0])
