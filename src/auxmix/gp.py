"""Gaussian-process regression with an anisotropic Matern kernel.

Exact posteriors from noisy observations through the inverse Cholesky
factor ``L^-1`` of the covariance, plus marginal-likelihood hyperparameter
selection by log-uniform random search.  The factor is built by a fold that
adds one point at a time, so a fit can extend the fit of a prefix of its
data at O(n^2) per new point.  The prior mean is the constant sample mean of
the observed values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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

# The largest evaluation budget a config may ask for; Stage2Config rejects
# more.  A fit over n points keeps a (N_SEARCH_STARTS + 1, n, n) stack of
# inverse factors, 69 MB at n = 512, and a fold grows its buffer to at most
# max(n, MAX_N_SAMPLES) rows.  A bound, not a setting.
MAX_N_SAMPLES = 512


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
    """Predictive mean and standard deviation, all that a query returns:
    arrays of shape ``(n,)`` over a block (:func:`posterior`), floats at one
    point (:func:`posterior_at`)."""

    mean: float | np.ndarray
    std: float | np.ndarray


def _scaled_distances(x1: np.ndarray, x2: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Pairwise length-scale-weighted Euclidean distances between the rows
    of the 2-D ``x1`` and ``x2``, shape (n1, n2).

    ``length_scales`` of shape ``(C, 1, d)`` gives a ``(C, n1, n2)`` stack,
    one distance matrix per row of length scales.  Squared coordinate
    differences are summed one coordinate at a time, so coincident points
    are exactly 0 apart and an entry does not depend on the blocks it was
    computed in: the fold's one column and a whole Gram matrix agree bitwise.
    """
    a = x1 / length_scales
    b = x2 / length_scales
    sq = np.square(a[..., :, 0, None] - b[..., None, :, 0])
    for k in range(1, a.shape[-1]):
        diff = a[..., :, k, None] - b[..., None, :, k]
        sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def _matern_of_distance(d: np.ndarray, nu: float, signal_variance) -> np.ndarray:
    """The Matern covariance of the distances ``d``, computed into ``d``, which
    the call consumes: :func:`gram_matrix`'s closed form in its order, so every
    entry keeps its bits, with at most two more arrays of ``d``'s size."""
    t = np.multiply(d, SQRT3 if nu == 1.5 else SQRT5, out=d)
    e = np.negative(t)
    np.exp(e, out=e)
    if nu == 1.5:
        t += 1.0
    else:
        q = np.square(t)
        q /= 3.0
        t += 1.0
        t += q
    t *= signal_variance
    t *= e
    return t


def gram_matrix(x1: np.ndarray, x2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern cross-covariance matrix between two point sets, shape (n1, n2).

    An entry is ``s2 (1 + sqrt(3) d) exp(-sqrt(3) d)`` at ``nu = 1.5`` and
    ``s2 (1 + sqrt(5) d + 5 d^2 / 3) exp(-sqrt(5) d)`` at ``nu = 2.5``, ``d``
    the Euclidean distance after dividing each coordinate by its length scale.
    """
    ls = np.asarray(params.length_scales, dtype=float)
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    if x1.shape[1] != ls.size or x2.shape[1] != ls.size:
        raise ValueError(
            f"points must match kernel dimension {ls.size}, "
            f"got {x1.shape[1]} and {x2.shape[1]}"
        )
    return _matern_of_distance(_scaled_distances(x1, x2, ls), params.nu, params.signal_variance)


class FoldBuffer:
    """A ``(C, capacity, capacity)`` stack of inverse factors, of which a
    fold has claimed the leading ``claimed`` rows; only rows past every
    claim are ever written, so no fold's rows change."""

    __slots__ = ("stack", "claimed")

    def __init__(self, n_candidates: int, capacity: int):
        self.stack = np.zeros((n_candidates, capacity, capacity))
        self.claimed = 0


class Fold(NamedTuple):
    """Every candidate's inverse Cholesky factor over the points folded so far.

    ``chol_inv[c]`` is ``L^-1`` for candidate ``c``, ``L`` the lower factor
    of ``K + (noise + jitter) I`` at the stack's one jitter, and
    ``log_det[c]`` its ``sum(log diag L)``; ``chol_inv`` is the leading
    ``(C, n, n)`` block of ``buffer.stack``.
    """

    chol_inv: np.ndarray
    log_det: np.ndarray
    buffer: FoldBuffer


@dataclass(frozen=True)
class GpModel:
    """Immutable fitted model: training data, kernel, and cached inverse factor.

    ``chol_inv`` is ``L^-1`` for the lower Cholesky factor ``L`` of
    ``K + (noise + jitter) I`` at ``kernel.jitter``, the jitter used after
    any escalation, and ``dual`` is ``L^-T L^-1 (y - mean_offset)``.
    ``fold``, which ``fit(..., base=model)`` extends, holds every searched
    candidate's factor; ``chol_inv`` is the winner's view of it.
    """

    points: np.ndarray
    observations: np.ndarray
    kernel: KernelParams
    mean_offset: float
    chol_inv: np.ndarray
    dual: np.ndarray
    fold: Fold

    @property
    def n_observations(self) -> int:
        return int(self.points.shape[0])


def _fold(
    x: np.ndarray, rows: np.ndarray, nu: float, jitter: float, base: Fold | None
) -> tuple[float, Fold]:
    """Fold the points of ``x`` after the first ``base`` ones into every candidate of ``rows``.

    A row is ``d`` length scales, then signal and noise variance.  Returns
    the jitter the stack ended at and the fold.  Adding ``x_i`` to the
    factor of ``X`` (Rasmussen & Williams, *GPML*, App. A.3): with
    ``l = L^-1 k(X, x_i)`` and ``delta^2 = k(x_i, x_i) + noise + jitter - |l|^2``,
    the new row of ``L^-1`` is ``[-l^T L^-1 / delta, 1 / delta]``.  If any
    ``delta^2 <= 0``, the stack's jitter goes up tenfold and the fold
    restarts from the first point.  Each step reads only the points before
    it, so extending ``base`` is bitwise folding from the first point.

    New rows go into ``base``'s buffer when ``base`` holds its latest claim
    and it has room, else into a fresh one of ``max(n, min(2 * capacity,
    MAX_N_SAMPLES))`` rows; a fold from the first point gets ``n`` rows.
    Timings: BENCH_gp_fold.json.
    """
    n, d = x.shape
    length_scales, s2 = rows[:, None, :d], rows[:, d, None, None]
    while jitter <= JITTER_MAX:
        start, log_det = 0, np.zeros(rows.shape[0])
        if base is None:
            buffer = FoldBuffer(rows.shape[0], n)
        else:
            start, log_det, buffer = base.chol_inv.shape[-1], base.log_det, base.buffer
            capacity = buffer.stack.shape[-1]
            if buffer.claimed != start or capacity < n:
                buffer = FoldBuffer(rows.shape[0], max(n, min(2 * capacity, MAX_N_SAMPLES)))
                buffer.stack[:, :start, :start] = base.chol_inv
        chol_inv = buffer.stack
        pivot = rows[:, d] + rows[:, d + 1] + jitter  # k(x, x) + noise + jitter
        for i in range(start, n):
            dist = _scaled_distances(x[:i], x[i : i + 1], length_scales)
            l = (chol_inv[:, :i, :i] @ _matern_of_distance(dist, nu, s2))[..., 0]
            delta_sq = pivot - np.add.reduce(np.square(l), axis=-1)
            if not (delta_sq > 0).all():
                break
            delta = np.sqrt(delta_sq)
            chol_inv[:, i, :i] = (l[:, None, :] @ chol_inv[:, :i, :i])[:, 0, :] / -delta[:, None]
            chol_inv[:, i, i] = 1.0 / delta
            log_det = log_det + np.log(delta)
        else:
            buffer.claimed = n
            return jitter, Fold(chol_inv=chol_inv[:, :n, :n], log_det=log_det, buffer=buffer)
        jitter, base = jitter * 10.0, None
    raise LinAlgError(
        f"covariance factorization failed with jitter escalated up to {JITTER_MAX:g}"
    )


def _best_model(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, nu: float, jitter: float, base: Fold | None
) -> GpModel:
    """Fold ``x`` into every candidate of ``rows`` (see :func:`_fold`) and
    return the model of the first candidate of highest log marginal likelihood.

    With ``w = L^-1 (y - mean)``, ``mean`` the sample mean of ``y``, a candidate's log
    evidence is ``-|w|^2 / 2 - sum(log diag L) - n log(2 pi) / 2``.
    """
    jitter, fold = _fold(x, rows, nu, jitter, base)
    mean = np.add.reduce(y) / len(y)  # np.mean's sum and division
    w = fold.chol_inv @ (y - mean)
    half_n_log_2pi = 0.5 * len(y) * math.log(2.0 * math.pi)
    lml = -0.5 * np.add.reduce(np.square(w), axis=-1) - fold.log_det - half_n_log_2pi
    best = int(lml.argmax())
    *length_scales, signal_variance, noise_variance = rows[best].tolist()
    kernel = KernelParams(
        length_scales=tuple(length_scales),
        signal_variance=signal_variance,
        noise_variance=noise_variance,
        nu=nu,
        jitter=jitter,
    )
    chol_inv = fold.chol_inv[best]
    return GpModel(
        points=x,
        observations=y,
        kernel=kernel,
        mean_offset=float(mean),
        chol_inv=chol_inv,
        dual=chol_inv.T @ w[best],
        fold=fold,
    )


def _checked_data(points, observations) -> tuple[np.ndarray, ...]:
    """Points of shape ``(n, d)``, where 1-D points are one column, and
    observations of shape ``(n,)``, all finite, ``n >= 1``."""
    x = np.asarray(points, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    y = np.asarray(observations, dtype=float).reshape(-1)
    if x.ndim != 2:
        raise ValueError(f"points must have shape (n, d), got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"got {x.shape[0]} points but {y.shape[0]} observations")
    if y.size == 0:
        raise ValueError("a GP model requires at least one observation")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("points and observations must be finite")
    return x, y


def build_gp(
    points: Sequence[Sequence[float]],
    observations: Sequence[float],
    params: KernelParams,
) -> GpModel:
    """Assemble a model with fixed hyperparameters.

    The prior mean is the sample mean of the observations, of which there
    must be at least one, as for :func:`fit`.  The factor is folded as in
    :func:`fit`, over the one candidate ``params``, starting at
    ``params.jitter``; the model's kernel is ``params`` at the jitter the
    fold ended at.
    """
    x, y = _checked_data(points, observations)
    if x.shape[1] != len(params.length_scales):
        raise ValueError(
            f"points must match kernel dimension {len(params.length_scales)}, got {x.shape[1]}"
        )
    rows = np.array([[*params.length_scales, params.signal_variance, params.noise_variance]])
    return _best_model(x, y, rows, params.nu, params.jitter, None)


def posterior(model: GpModel, x: np.ndarray) -> Posterior:
    """Exact posterior mean and standard deviation over a block of query points.

    ``x`` has shape ``(n, d)``; mean and std come back with shape ``(n,)``.
    The block costs one cross-covariance matrix ``k_x`` and one product
    ``v = L^-1 k_x^T``, with ``mean = mean_offset + k_x dual`` and
    ``var = s2 - sum(v^2)`` (Rasmussen & Williams, *GPML*, Alg. 2.1).
    Round-off can push a variance slightly negative; it is clamped at zero
    before the square root.
    """
    d = len(model.kernel.length_scales)
    q = np.asarray(x, dtype=float)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"queries must have shape (n, {d}), got {q.shape}")
    kx = gram_matrix(q, model.points, model.kernel)
    mean = model.mean_offset + kx @ model.dual
    v = model.chol_inv @ kx.T
    var = model.kernel.signal_variance - np.add.reduce(np.square(v), axis=0)
    return Posterior(mean=mean, std=np.sqrt(np.maximum(var, 0.0)))


def posterior_at(model: GpModel, x: Sequence[float]) -> Posterior:
    """Exact posterior mean and standard deviation at one query point."""
    mean, std = posterior(model, np.asarray(x, dtype=float).reshape(1, -1))
    return Posterior(mean=float(mean[0]), std=float(std[0]))


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
    points: Sequence[Sequence[float]],
    observations: Sequence[float],
    nu: float = 2.5,
    *,
    base: GpModel | None = None,
) -> GpModel:
    """Fit hyperparameters by random search over the log marginal likelihood.

    Candidates are drawn log-uniformly, under a fixed seed, from fixed boxes
    (length scales in [1e-2, 10], signal variance in [1e-2, 1e2], noise
    variance in [1e-6, 1]), plus the box's geometric midpoint, so the search
    never does worse than that default and the fit is a deterministic
    function of its inputs.  The points are folded into every candidate's
    inverse factor at once, escalating the stack's jitter as a whole; the
    first candidate of highest log marginal likelihood wins.

    ``base``, a model that ``fit`` returned for a prefix of ``points`` and
    ``observations`` with the same ``nu``, lets the fold start after that
    prefix: O(n^2) per new point instead of O(n^3) per fit, and bitwise the
    model a fit without ``base`` returns.  Any other ``base`` raises
    ``ValueError``.
    """
    x, y = _checked_data(points, observations)
    n, d = x.shape
    rows = _fit_candidates(d)
    jitter, fold = JITTER_START, None
    if base is not None:
        k = base.n_observations
        same_kind = base.points.shape[1] == d and len(base.fold.chol_inv) == len(rows)
        if not (base.kernel.nu == nu and same_kind):
            raise ValueError("base must be a fit with the same nu and point width")
        prefix = k <= n and np.array_equal(base.points, x[:k])
        if not (prefix and np.array_equal(base.observations, y[:k])):
            raise ValueError("base must be fitted to a prefix of the points and observations")
        jitter, fold = base.kernel.jitter, base.fold
    return _best_model(x, y, rows, nu, jitter, fold)
