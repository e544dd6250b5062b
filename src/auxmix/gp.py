"""Gaussian-process regression with an anisotropic Matern kernel.

Exact posteriors from noisy observations via Cholesky factorization, plus
marginal-likelihood hyperparameter selection by log-uniform random search.
The prior mean is the constant sample mean of the observed values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError

SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)

JITTER_START = 1e-10
JITTER_MAX = 1e-4

# Log-uniform search box for fit(): per-dimension length scales,
# signal variance, noise variance.
LENGTH_SCALE_BOUNDS = (1e-2, 10.0)
SIGNAL_VARIANCE_BOUNDS = (1e-2, 1e2)
NOISE_VARIANCE_BOUNDS = (1e-6, 1.0)
N_SEARCH_STARTS = 32
FIT_SEARCH_SEED = 1729


@dataclass(frozen=True)
class KernelParams:
    """Matern kernel hyperparameters with one length scale per input dimension."""

    length_scales: tuple[float, ...]
    signal_variance: float = 1.0
    noise_variance: float = 0.0
    nu: float = 2.5
    jitter: float = JITTER_START

    def __post_init__(self):
        if len(self.length_scales) == 0:
            raise ValueError("length_scales must have at least one entry")
        if any(not (math.isfinite(l) and l > 0) for l in self.length_scales):
            raise ValueError(f"length scales must be positive, got {self.length_scales}")
        if not (math.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ValueError(f"signal_variance must be positive, got {self.signal_variance}")
        if not (self.noise_variance >= 0 and math.isfinite(self.noise_variance)):
            raise ValueError(f"noise_variance must be >= 0, got {self.noise_variance}")
        if self.nu not in (1.5, 2.5):
            raise ValueError(f"nu must be 1.5 or 2.5, got {self.nu}")
        if not (self.jitter > 0):
            raise ValueError(f"jitter must be positive, got {self.jitter}")


class Posterior(NamedTuple):
    """Predictive mean and standard deviation.

    Floats at one point (:func:`posterior_at`), or arrays of shape ``(n,)``
    over a block of query points (:func:`posterior`).
    """

    mean: float | np.ndarray
    std: float | np.ndarray


def _scaled_distances(x1: np.ndarray, x2: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Pairwise length-scale-weighted Euclidean distances, shape (n1, n2).

    ``length_scales`` of shape ``(C, 1, d)`` gives a ``(C, n1, n2)`` stack,
    one distance matrix per row of length scales.
    """
    a = np.atleast_2d(x1) / length_scales
    b = np.atleast_2d(x2) / length_scales
    sq = (
        np.sum(a**2, axis=-1)[..., :, None]
        + np.sum(b**2, axis=-1)[..., None, :]
        - 2.0 * (a @ np.swapaxes(b, -1, -2))
    )
    return np.sqrt(np.maximum(sq, 0.0))


def _matern_of_distance(d: np.ndarray, nu: float, signal_variance) -> np.ndarray:
    if nu == 1.5:
        t = SQRT3 * d
        return signal_variance * (1.0 + t) * np.exp(-t)
    t = SQRT5 * d
    return signal_variance * (1.0 + t + t**2 / 3.0) * np.exp(-t)


def matern_kernel(x1: Sequence[float], x2: Sequence[float], params: KernelParams) -> float:
    """Matern covariance between two points.

    With ``nu = 1.5`` this is ``s2 (1 + sqrt(3) d) exp(-sqrt(3) d)`` and with
    ``nu = 2.5`` it is ``s2 (1 + sqrt(5) d + 5 d^2 / 3) exp(-sqrt(5) d)``
    where ``d`` is the Euclidean distance after dividing each coordinate by
    its length scale.
    """
    a = np.asarray(x1, dtype=float).reshape(-1)
    b = np.asarray(x2, dtype=float).reshape(-1)
    d = len(params.length_scales)
    if a.shape != (d,) or b.shape != (d,):
        raise ValueError(
            f"points must match kernel dimension {d}, got shapes {a.shape} and {b.shape}"
        )
    return float(gram_matrix(a, b, params)[0, 0])


def gram_matrix(x1: np.ndarray, x2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix between two point sets, shape (n1, n2)."""
    ls = np.asarray(params.length_scales, dtype=float)
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    if x1.shape[1] != ls.size or x2.shape[1] != ls.size:
        raise ValueError(
            f"points must match kernel dimension {ls.size}, "
            f"got {x1.shape[1]} and {x2.shape[1]}"
        )
    return _matern_of_distance(_scaled_distances(x1, x2, ls), params.nu, params.signal_variance)


@dataclass(frozen=True)
class GpModel:
    """Immutable fitted model: training data, kernel, and cached factorization.

    ``chol`` is the lower Cholesky factor ``L`` of ``K + (noise + jitter) I``,
    where ``kernel.jitter`` is the jitter actually used after any escalation;
    ``dual`` is ``(L L^T)^-1 (y - mean_offset)``.
    """

    points: np.ndarray
    observations: np.ndarray
    kernel: KernelParams
    mean_offset: float
    chol: np.ndarray
    dual: np.ndarray

    @property
    def n_observations(self) -> int:
        return int(self.points.shape[0])


def _factor_with_jitter(k_noisy: np.ndarray, jitter_start: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``k_noisy + jitter I``, escalating jitter tenfold on failure.

    ``k_noisy`` is one matrix ``(n, n)`` or a stack ``(C, n, n)``; a stack
    escalates as a whole, so every factor in it carries the returned jitter.
    """
    n = k_noisy.shape[-1]
    jitter = jitter_start
    while jitter <= JITTER_MAX:
        try:
            return np.linalg.cholesky(k_noisy + jitter * np.eye(n)), jitter
        except LinAlgError:
            jitter *= 10.0
    raise LinAlgError(
        f"covariance factorization failed with jitter escalated up to {JITTER_MAX:g}"
    )


def _factored_model(
    x: np.ndarray, y: np.ndarray, params: KernelParams, chol: np.ndarray
) -> GpModel:
    """The model of ``y`` at ``x`` from the lower factor ``chol`` of its covariance
    under ``params``, whose ``jitter`` is the one the factor was taken with."""
    mean_offset = float(np.mean(y))
    dual = np.linalg.solve(chol.T, np.linalg.solve(chol, y - mean_offset))
    return GpModel(
        points=x, observations=y, kernel=params, mean_offset=mean_offset, chol=chol, dual=dual
    )


def build_gp(
    points: Sequence[Sequence[float]],
    observations: Sequence[float],
    params: KernelParams,
) -> GpModel:
    """Assemble a model with fixed hyperparameters.

    The prior mean is the sample mean of the observations, of which there
    must be at least one, as for :func:`fit`.
    """
    d = len(params.length_scales)
    x = np.asarray(points, dtype=float).reshape(-1, d)
    y = np.asarray(observations, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"got {x.shape[0]} points but {y.shape[0]} observations")
    if y.size == 0:
        raise ValueError("build_gp requires at least one observation")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("points and observations must be finite")
    k = gram_matrix(x, x, params) + params.noise_variance * np.eye(y.size)
    chol, jitter_used = _factor_with_jitter(k, params.jitter)
    return _factored_model(x, y, replace(params, jitter=jitter_used), chol)


def _mean_and_cross(model: GpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean over a query block, and the ``k_x`` behind it."""
    d = len(model.kernel.length_scales)
    q = np.asarray(x, dtype=float)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"queries must have shape (n, {d}), got {q.shape}")
    kx = gram_matrix(q, model.points, model.kernel)
    return model.mean_offset + kx @ model.dual, kx


def posterior_mean(model: GpModel, x: np.ndarray) -> np.ndarray:
    """Posterior mean alone: bitwise ``posterior(model, x).mean``, without the variance's solve."""
    return _mean_and_cross(model, x)[0]


def posterior(model: GpModel, x: np.ndarray) -> Posterior:
    """Exact posterior mean and standard deviation over a block of query points.

    ``x`` has shape ``(n, d)``; mean and std come back with shape ``(n,)``.
    The block costs one cross-covariance matrix ``k_x`` and one LU solve
    ``v = L^-1 k_x^T``, with ``var = s2 - sum(v^2)`` (Rasmussen & Williams,
    *GPML*, Alg. 2.1).  Round-off can push a variance slightly negative; it
    is clamped at zero before the square root.
    """
    mean, kx = _mean_and_cross(model, x)
    v = np.linalg.solve(model.chol, kx.T)
    var = model.kernel.signal_variance - np.sum(v**2, axis=0)
    return Posterior(mean=mean, std=np.sqrt(np.maximum(var, 0.0)))


def posterior_at(model: GpModel, x: Sequence[float]) -> Posterior:
    """Exact posterior mean and standard deviation at one query point."""
    mean, std = posterior(model, np.asarray(x, dtype=float).reshape(1, -1))
    return Posterior(mean=float(mean[0]), std=float(std[0]))


def _lml_from_factor(chol: np.ndarray, yc: np.ndarray):
    """Log evidence of centered ``yc`` given one lower factor ``L`` (n, n) or a
    stack (C, n, n): ``-|w|^2 / 2 - sum(log diag L) - n log(2 pi) / 2``, ``w = L^-1 yc``."""
    n = yc.size
    w = np.linalg.solve(chol, np.broadcast_to(yc[:, None], chol.shape[:-1] + (1,)))[..., 0]
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * np.sum(w**2, axis=-1) - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi)


@functools.lru_cache(maxsize=64)
def _fit_candidates(d: int) -> np.ndarray:
    """Read-only candidates of :func:`fit` at width ``d``: the midpoint, then ``N_SEARCH_STARTS``
    log-uniform draws in one call; a row is d length scales, then signal and noise variance."""
    bounds = [LENGTH_SCALE_BOUNDS] * d + [SIGNAL_VARIANCE_BOUNDS, NOISE_VARIANCE_BOUNDS]
    draws = np.random.default_rng(FIT_SEARCH_SEED).uniform(
        [math.log(lo) for lo, _ in bounds],
        [math.log(hi) for _, hi in bounds],
        size=(N_SEARCH_STARTS, d + 2),
    )
    rows = np.vstack([[math.sqrt(lo * hi) for lo, hi in bounds], np.exp(draws)])
    rows.flags.writeable = False
    return rows


def fit(
    points: Sequence[Sequence[float]], observations: Sequence[float], nu: float = 2.5
) -> GpModel:
    """Fit hyperparameters by random search over the log marginal likelihood.

    Candidates are drawn log-uniformly from fixed boxes (length scales in
    [1e-2, 10], signal variance in [1e-2, 1e2], noise variance in [1e-6, 1]);
    the geometric midpoint of the box is always evaluated too, so the search
    never does worse than that default.  The search seed is fixed, making
    the whole fit a deterministic function of its inputs.  All candidates
    are factored as one stack, which escalates its jitter as a whole; the
    first candidate of highest log marginal likelihood wins, and its factor
    from the stack becomes the model's.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(observations, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"got {x.shape[0]} points but {y.shape[0]} observations")
    if x.shape[0] == 0:
        raise ValueError("fit requires at least one observation")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("points and observations must be finite")
    d = x.shape[1]
    rows = _fit_candidates(d)
    k = _matern_of_distance(_scaled_distances(x, x, rows[:, None, :d]), nu, rows[:, d, None, None])
    k = k + rows[:, d + 1, None, None] * np.eye(y.size)
    chol, jitter = _factor_with_jitter(k, JITTER_START)
    best = int(np.argmax(_lml_from_factor(chol, y - np.mean(y))))
    *length_scales, signal_variance, noise_variance = rows[best].tolist()
    params = KernelParams(
        length_scales=tuple(length_scales),
        signal_variance=signal_variance,
        noise_variance=noise_variance,
        nu=nu,
        jitter=jitter,
    )
    return _factored_model(x, y, params, chol[best].copy())  # not a view pinning the stack
