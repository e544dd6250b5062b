"""Acquisition functions over GP posteriors and their Hedge portfolio.

Three classic criteria (probability of improvement, expected improvement,
upper confidence bound) ranked per round by a multiplicative-weights
portfolio (Hoffman, Brochu & de Freitas, UAI 2011, Alg. 1): each
acquisition nominates a candidate, one nomination is chosen with probability
proportional to ``exp(eta * gain)``, and every gain is then topped up with the
posterior mean at its acquisition's nominee.  The portfolio reads nothing else
of the model, so :func:`hedge_update` takes those three means, not the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .gp import Posterior

PI = "pi"
EI = "ei"
UCB = "ucb"
ACQUISITIONS: tuple[str, ...] = (PI, EI, UCB)

DEFAULT_UCB_LAMBDA = 2.0

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT2 = math.sqrt(2.0)

# The normal CDF as Phi(z) = erfc(-z / sqrt 2) / 2 through libm's erfc, which,
# unlike SciPy's ndtr, does not flush the subnormal tail to 0.  Accuracy:
# CHANGES.md, "NumPy is the only numerical backend"; timing:
# BENCH_stage2_round_cost.json.  ``ravel`` keeps a 0-d z (a float posterior) a list.
def _normal_cdf(z: np.ndarray) -> np.ndarray:
    u = -z / SQRT2
    return 0.5 * np.fromiter(map(math.erfc, u.ravel().tolist()), float, u.size).reshape(u.shape)


# Each acquisition works elementwise and returns an array of the posterior's
# shape: a Posterior of arrays (from gp.posterior) scores a whole candidate
# pool in one call, one of floats gives a 0-d array.  Where the posterior is
# deterministic (std == 0) the closed forms degenerate; those entries take the
# limit instead of the NaN of z = 0/0.
def _standardize(posterior: Posterior, best_so_far: float):
    mean = np.asarray(posterior.mean, dtype=float)
    std = np.asarray(posterior.std, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = (mean - best_so_far) / std
    return mean, std, z


def probability_of_improvement(posterior: Posterior, best_so_far: float) -> np.ndarray:
    """Probability the candidate beats the incumbent, ``Phi((mu - tau) / sigma)``.

    Degenerates to an indicator where the posterior is deterministic.
    """
    mean, std, z = _standardize(posterior, best_so_far)
    return np.where(std == 0.0, mean > best_so_far, _normal_cdf(z))


def expected_improvement(
    posterior: Posterior, best_so_far: float, pi: np.ndarray | None = None
) -> np.ndarray:
    """Expected gain over the incumbent, ``sigma (z Phi(z) + phi(z))``.

    With a deterministic posterior this collapses to ``max(mu - tau, 0)``.
    ``pi``, the :func:`probability_of_improvement` scores of the same
    posterior and incumbent, stands in for ``Phi(z)``: it is exactly
    ``Phi(z)`` wherever ``sigma > 0``, and the other entries take the limit.
    """
    mean, std, z = _standardize(posterior, best_so_far)
    cdf = _normal_cdf(z) if pi is None else np.asarray(pi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ei = std * (z * cdf + np.exp(-(z**2) / 2.0) / SQRT_2PI)
    return np.where(std == 0.0, np.maximum(mean - best_so_far, 0.0), ei)


def upper_confidence_bound(posterior: Posterior, lam: float = DEFAULT_UCB_LAMBDA) -> np.ndarray:
    """Optimistic score ``mu + lam * sigma``, for a finite ``lam >= 0``."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")
    mean, std = np.asarray(posterior.mean, dtype=float), np.asarray(posterior.std, dtype=float)
    return np.asarray(mean + lam * std)


@dataclass(frozen=True)
class HedgeState:
    """Cumulative gains for the three-acquisition portfolio, in ACQUISITIONS order."""

    gains: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eta: float = 1.0

    def __post_init__(self):
        if len(self.gains) != len(ACQUISITIONS):
            raise ValueError(f"expected {len(ACQUISITIONS)} gains, got {len(self.gains)}")
        if not all(math.isfinite(g) for g in self.gains):
            raise ValueError(f"gains must be finite, got {self.gains}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")


def hedge_probabilities(state: HedgeState) -> np.ndarray:
    """Selection distribution ``softmax(eta * gains)``.

    The max is subtracted before exponentiation, so the result is finite
    for any gain magnitudes and invariant to a common shift.  Where
    ``eta * gains`` overflows, the max gain is subtracted before scaling
    instead, so the top gain still scores 0 and the rest at most that.
    The three gains are scaled and shifted as Python floats, which
    overflow to inf without a warning.
    """
    eta, gains = state.eta, state.gains
    scaled = [eta * g for g in gains]
    top = max(scaled)
    if not math.isfinite(top):
        top_gain = max(gains)
        scaled, top = [eta * (g - top_gain) for g in gains], 0.0
    w = np.exp([s - top for s in scaled])
    return w / np.add.reduce(w)


def hedge_select(state: HedgeState, rng: np.random.Generator) -> str:
    """Draw one acquisition name according to the portfolio distribution.

    Bitwise ``rng.choice(3, p=hedge_probabilities(state))``, in Python
    floats: one ``rng.random()`` draw ``u``, and the index is the number of
    cumulative sums, each divided by the last one, that are ``<= u``.  So
    the name and the generator's state afterwards are choice's.  Choice's
    checks of ``p`` cannot fail: for a valid :class:`HedgeState` the top
    entry of ``exp(scaled)`` is exactly 1 and the rest lie in ``[0, 1]``.
    """
    p0, p1, p2 = hedge_probabilities(state).tolist()
    c0, c1 = p0, p0 + p1
    c2 = c1 + p2
    u = rng.random()
    return ACQUISITIONS[(c0 / c2 <= u) + (c1 / c2 <= u) + (c2 / c2 <= u)]


def hedge_update(state: HedgeState, means: Sequence[float]) -> HedgeState:
    """Add to each gain the posterior mean at its acquisition's nominee.

    ``means`` holds one mean per acquisition, in ACQUISITIONS order.  All
    three gains move every round, whichever nomination was actually evaluated.
    """
    if len(means) != len(ACQUISITIONS):
        raise ValueError(f"expected {len(ACQUISITIONS)} means, got {len(means)}")
    return replace(state, gains=tuple(g + float(m) for g, m in zip(state.gains, means)))
