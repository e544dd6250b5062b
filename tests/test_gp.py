"""GP regression against closed-form and dense linear-algebra oracles."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import cho_solve

from auxmix import gp
from auxmix.gp import (
    GpModel,
    KernelParams,
    _fit_candidates,
    _fold,
    build_gp,
    fit,
    gram_matrix,
    posterior,
    posterior_at,
)

# Closed forms at unit distance with unit scales, frozen from 50-digit
# evaluation of (1+sqrt(3))exp(-sqrt(3)) and (1+sqrt(5)+5/3)exp(-sqrt(5)).
MATERN32_AT_ONE = 0.4833577245965077
MATERN52_AT_ONE = 0.5239941088318203


def unit_params(nu, d=1, **kw):
    return KernelParams(length_scales=tuple([1.0] * d), nu=nu, **kw)


def dense_posterior(model: GpModel, x) -> tuple[float, float]:
    """Independent O(n^3) posterior via explicit matrix inverse."""
    n = model.n_observations
    k = gram_matrix(model.points, model.points, model.kernel)
    k = k + (model.kernel.noise_variance + model.kernel.jitter) * np.eye(n)
    k_inv = np.linalg.inv(k)
    kx = gram_matrix(np.atleast_2d(np.asarray(x, dtype=float)), model.points, model.kernel)[0]
    resid = model.observations - model.mean_offset
    mean = model.mean_offset + float(kx @ k_inv @ resid)
    var = model.kernel.signal_variance - float(kx @ k_inv @ kx)
    return mean, math.sqrt(max(var, 0.0))


# ------------------------------------------------------------------ kernel

def test_matern_frozen_unit_distance_values():
    assert gram_matrix([0.0], [1.0], unit_params(1.5))[0, 0] == pytest.approx(
        MATERN32_AT_ONE, abs=1e-12
    )
    assert gram_matrix([0.0], [1.0], unit_params(2.5))[0, 0] == pytest.approx(
        MATERN52_AT_ONE, abs=1e-12
    )


def test_matern_at_zero_distance_is_signal_variance():
    p = unit_params(2.5, signal_variance=2.5)
    assert gram_matrix([0.3], [0.3], p)[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_matern_symmetry_and_positivity():
    rng = np.random.default_rng(0)
    p = KernelParams(length_scales=(0.7, 1.3, 2.0), signal_variance=1.7, nu=1.5)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        kab = gram_matrix(a, b, p)[0, 0]
        kba = gram_matrix(b, a, p)[0, 0]
        assert kab == pytest.approx(kba, rel=1e-15)
        assert 0 < kab <= p.signal_variance + 1e-15


def test_matern_ard_scaling_invariance():
    # Scaling one coordinate and its length scale together leaves the kernel
    # unchanged; that is what makes the kernel ARD.
    base = KernelParams(length_scales=(1.0, 1.0), nu=2.5)
    scaled = KernelParams(length_scales=(5.0, 1.0), nu=2.5)
    a, b = [0.2, 0.4], [0.9, 0.1]
    a_s, b_s = [1.0, 0.4], [4.5, 0.1]
    assert gram_matrix(a_s, b_s, scaled)[0, 0] == pytest.approx(
        gram_matrix(a, b, base)[0, 0], rel=1e-12
    )


def test_matern_longer_scale_means_slower_decay():
    near = KernelParams(length_scales=(0.5,), nu=2.5)
    far = KernelParams(length_scales=(5.0,), nu=2.5)
    assert gram_matrix([0.0], [1.0], far)[0, 0] > gram_matrix([0.0], [1.0], near)[0, 0]


def test_gram_matrix_psd():
    rng = np.random.default_rng(3)
    x = rng.random((15, 2))
    for nu in (1.5, 2.5):
        p = KernelParams(length_scales=(0.4, 1.1), signal_variance=2.0, nu=nu)
        k = gram_matrix(x, x, p)
        assert np.allclose(k, k.T, atol=1e-14)
        eigvals = np.linalg.eigvalsh(k)
        assert eigvals.min() > -1e-9


def _matern_out_of_place(d, nu, signal_variance):
    """The kernel's closed form as one out-of-place expression."""
    if nu == 1.5:
        t = gp.SQRT3 * d
        return signal_variance * (1.0 + t) * np.exp(-t)
    t = gp.SQRT5 * d
    return signal_variance * (1.0 + t + t**2 / 3.0) * np.exp(-t)


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_in_place_matern_is_bitwise_the_out_of_place_formula(nu):
    """The chain computed into ``d`` keeps every bit, for a scalar signal
    variance (a Gram matrix) and a ``(C, 1, 1)`` stack (the fold)."""
    rng = np.random.default_rng(17)
    d = rng.uniform(0.0, 40.0, size=(3, 50, 7))
    d[:, 0, 0] = 0.0
    for s2 in (1.7, rng.uniform(0.01, 100.0, size=(3, 1, 1))):
        want = _matern_out_of_place(d, nu, s2)
        consumed = d.copy()
        got = gp._matern_of_distance(consumed, nu, s2)
        assert got is consumed
        assert got.tobytes() == want.tobytes()


def test_gram_matrix_and_posterior_leave_their_inputs_unchanged():
    rng = np.random.default_rng(19)
    x, q = rng.random((12, 3)), rng.random((40, 3))
    params = KernelParams(length_scales=(0.3, 0.7, 1.9), signal_variance=2.0, nu=2.5)
    model = build_gp(x, rng.normal(size=12), params)
    copies = [a.copy() for a in (x, q, model.points, model.chol_inv, model.dual)]
    gram_matrix(x, q, params)
    gram_matrix(q[0], x[0], params)
    posterior(model, q)
    for before, after in zip(copies, (x, q, model.points, model.chol_inv, model.dual)):
        assert after.tobytes() == before.tobytes()


def test_matern_dimension_mismatch():
    with pytest.raises(ValueError):
        gram_matrix([0.0, 1.0], [1.0], unit_params(1.5, d=1))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(length_scales=())
    with pytest.raises(ValueError):
        KernelParams(length_scales=(0.0,))
    with pytest.raises(ValueError):
        KernelParams(length_scales=(1.0,), signal_variance=-1.0)
    with pytest.raises(ValueError):
        KernelParams(length_scales=(1.0,), noise_variance=-0.1)
    with pytest.raises(ValueError):
        KernelParams(length_scales=(1.0,), nu=0.5)


def test_kernel_params_reject_a_jitter_that_is_not_positive():
    with pytest.raises(ValueError, match="jitter must be positive"):
        KernelParams(length_scales=(1.0,), jitter=0.0)


# --------------------------------------------------------------- posterior

def test_posterior_matches_dense_inverse_oracle():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 4))
        x = rng.random((n, d))
        y = rng.normal(size=n)
        params = KernelParams(
            length_scales=tuple(np.exp(rng.uniform(-1.5, 1.5, size=d))),
            signal_variance=float(np.exp(rng.uniform(-1, 2))),
            noise_variance=float(np.exp(rng.uniform(-6, -1))),
            nu=1.5 if trial % 2 else 2.5,
        )
        model = build_gp(x, y, params)
        for _ in range(4):
            q = rng.random(d)
            post = posterior_at(model, q)
            mean_ref, std_ref = dense_posterior(model, q)
            assert post.mean == pytest.approx(mean_ref, abs=1e-8)
            assert post.std == pytest.approx(std_ref, abs=1e-8)


def dense_factor(model: GpModel) -> np.ndarray:
    """The lower Cholesky factor ``L`` of the model's covariance, by LAPACK."""
    k = gram_matrix(model.points, model.points, model.kernel)
    return np.linalg.cholesky(
        k + (model.kernel.noise_variance + model.kernel.jitter) * np.eye(model.n_observations)
    )


def _posterior_at_reference(model: GpModel, q: np.ndarray) -> tuple[float, float]:
    """The one-point posterior from the dense factor: one cross-covariance
    row and one ``cho_solve`` for the mean's weights and one for the variance."""
    chol = dense_factor(model)
    kx = gram_matrix(q[None, :], model.points, model.kernel)[0]
    resid = model.observations - model.mean_offset
    mean = model.mean_offset + float(kx @ cho_solve((chol, True), resid))
    var = model.kernel.signal_variance - float(kx @ cho_solve((chol, True), kx))
    return mean, math.sqrt(max(var, 0.0))


def test_block_posterior_matches_pointwise_posterior():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 5))
        params = KernelParams(
            length_scales=tuple(np.exp(rng.uniform(-1.5, 1.5, size=d))),
            signal_variance=float(np.exp(rng.uniform(-1, 2))),
            noise_variance=float(np.exp(rng.uniform(-6, -1))),
            nu=1.5 if trial % 2 else 2.5,
        )
        model = build_gp(rng.random((n, d)), rng.normal(size=n), params)
        queries = rng.random((int(rng.integers(1, 40)), d))
        mean, std = posterior(model, queries)
        assert mean.shape == std.shape == (queries.shape[0],)
        for i, q in enumerate(queries):
            post = posterior_at(model, q)
            ref_mean, ref_std = _posterior_at_reference(model, q)
            assert mean[i] == pytest.approx(post.mean, abs=1e-12)
            assert std[i] == pytest.approx(post.std, abs=1e-12)
            assert mean[i] == pytest.approx(ref_mean, abs=1e-12)
            assert std[i] == pytest.approx(ref_std, abs=1e-12)


def test_block_posterior_shape_check():
    model = build_gp([[0.0, 0.0]], [1.0], unit_params(2.5, d=2))
    for bad in ([0.0, 1.0], np.zeros((3, 1)), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError):
            posterior(model, bad)


def test_posterior_interpolates_with_tiny_noise():
    x = np.array([[0.1], [0.5], [0.9]])
    y = np.array([1.0, -2.0, 0.5])
    model = build_gp(x, y, unit_params(2.5, noise_variance=0.0))
    for xi, yi in zip(x, y):
        post = posterior_at(model, xi)
        assert post.mean == pytest.approx(yi, abs=1e-3)
        assert post.std < 1e-3


def test_posterior_variance_shrinks_with_more_data():
    rng = np.random.default_rng(12)
    x = rng.random((12, 1))
    y = rng.normal(size=12)
    params = unit_params(2.5, noise_variance=1e-4)
    q = [0.42]
    stds = [math.sqrt(params.signal_variance)]  # the prior's
    for n in (1, 3, 6, 12):
        model = build_gp(x[:n], y[:n], params)
        stds.append(posterior_at(model, q).std)
    assert all(stds[i + 1] <= stds[i] + 1e-9 for i in range(len(stds) - 1))


def test_posterior_mean_reverts_to_offset_far_away():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([6.0, 0.0, 0.0])  # the mean, 2, is neither the median nor an observation
    model = build_gp(x, y, unit_params(2.5, signal_variance=1.0))
    assert model.mean_offset == 2.0
    post = posterior_at(model, [500.0])
    assert post.mean == pytest.approx(2.0, abs=1e-6)
    assert post.std == pytest.approx(1.0, abs=1e-6)


def test_posterior_query_dimension_check():
    model = build_gp([[0.0]], [1.0], unit_params(2.5))
    with pytest.raises(ValueError):
        posterior_at(model, [0.0, 1.0])


def test_build_gp_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        build_gp([[0.0], [1.0]], [1.0], unit_params(2.5))
    with pytest.raises(ValueError):
        build_gp([[float("nan")]], [1.0], unit_params(2.5))
    # Six 2-D points are not four 3-D ones, nor four 2-D points 3-D ones.
    with pytest.raises(ValueError):
        build_gp(np.zeros((6, 2)), np.zeros(4), unit_params(2.5, d=3))
    with pytest.raises(ValueError, match="kernel dimension 3"):
        build_gp(np.zeros((4, 2)), np.zeros(4), unit_params(2.5, d=3))
    with pytest.raises(ValueError, match="at least one observation"):
        build_gp(np.empty((0, 1)), [], unit_params(2.5))


def test_fit_rejects_points_that_are_not_a_matrix():
    with pytest.raises(ValueError, match=r"shape \(n, d\)"):
        fit(np.zeros((2, 1, 1)), [0.0, 1.0])


def test_duplicate_points_with_zero_noise_still_factor():
    x = np.array([[0.5], [0.5], [0.5]])
    y = np.array([1.0, 1.0, 1.0])
    model = build_gp(x, y, unit_params(2.5, noise_variance=0.0, jitter=1e-10))
    assert model.kernel.jitter >= 1e-10
    post = posterior_at(model, [0.5])
    assert math.isfinite(post.mean) and math.isfinite(post.std)


def test_jitter_escalation_rescues_mildly_indefinite_matrix():
    """Two coincident points under signal variance 2^38, whose half ulp
    (3e-5) swallows every jitter below 1e-4: the second pivot is exactly 0
    until the final 1e-4 step rescues it."""
    params = KernelParams(length_scales=(1.0,), signal_variance=2.0**38, noise_variance=0.0)
    model = build_gp(np.full((2, 1), 0.5), [1.0, 2.0], params)
    assert model.kernel.jitter == pytest.approx(1e-4)
    post = posterior_at(model, [0.5])
    assert math.isfinite(post.mean) and math.isfinite(post.std)


def test_jitter_escalation_gives_up_beyond_cap():
    # Under signal variance 2^42 half an ulp (5e-4) swallows every jitter up to the cap.
    params = KernelParams(length_scales=(1.0,), signal_variance=2.0**42, noise_variance=0.0)
    with pytest.raises(LinAlgError):
        build_gp(np.full((2, 1), 0.5), [1.0, 2.0], params)


# ------------------------------------------------- marginal likelihood, fit

def dense_lml(x, y, params):
    """The log evidence by the dense formula: ``slogdet`` and one ``solve``."""
    y = np.asarray(y, dtype=float)
    n = y.size
    yc = y - y.mean()
    k = gram_matrix(x, x, params) + (params.noise_variance + params.jitter) * np.eye(n)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    quad = yc @ np.linalg.solve(k, yc)
    return float(-0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def fold_lml(fold, y) -> np.ndarray:
    """Every candidate's log evidence, mean-centered, from its inverse factor
    and ``sum(log diag L)``: ``-|w|^2 / 2 - sum(log diag L) - n log(2 pi) / 2``
    with ``w = L^-1 (y - mean)``."""
    y = np.asarray(y, dtype=float).reshape(-1)
    w = fold.chol_inv @ (y - y.mean())
    return -0.5 * np.sum(w**2, axis=-1) - fold.log_det - 0.5 * y.size * math.log(2 * math.pi)


def log_marginal_likelihood(x, y, params: KernelParams) -> float:
    """One candidate's log evidence from its own fold: the per-candidate
    form of what ``fit`` scores for its whole stack.  ``-inf`` when even
    the escalated jitter cannot factor the covariance."""
    try:
        fold = build_gp(x, y, params).fold
    except LinAlgError:
        return -math.inf
    return float(fold_lml(fold, y)[0])


def test_log_marginal_likelihood_matches_dense_formula():
    rng = np.random.default_rng(5)
    x = rng.random((10, 2))
    y = rng.normal(size=10)
    params = KernelParams(
        length_scales=(0.8, 1.2), signal_variance=1.5, noise_variance=0.05, nu=2.5
    )
    got = log_marginal_likelihood(x, y, params)
    assert got == pytest.approx(dense_lml(x, y, params), abs=1e-8)


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    x = rng.random((12, 2))
    y = np.sin(3 * x[:, 0]) + 0.1 * rng.normal(size=12)
    m1 = fit(x, y)
    m2 = fit(x, y)
    assert m1.kernel == m2.kernel
    assert m1.mean_offset == m2.mean_offset


def test_fit_beats_midpoint_candidate():
    rng = np.random.default_rng(9)
    x = rng.random((15, 1))
    y = np.sin(6 * x[:, 0])
    model = fit(x, y)
    mid = KernelParams(
        length_scales=(math.sqrt(1e-2 * 10.0),),
        signal_variance=math.sqrt(1e-2 * 1e2),
        noise_variance=math.sqrt(1e-6 * 1.0),
        nu=2.5,
    )
    lml_fit = log_marginal_likelihood(x, y, model.kernel)
    lml_mid = log_marginal_likelihood(x, y, mid)
    assert lml_fit >= lml_mid - 1e-12


def test_fit_centers_on_sample_mean():
    y = [3.0, 5.0, 4.0]
    model = fit([[0.0], [0.5], [1.0]], y)
    assert model.mean_offset == pytest.approx(4.0)


def test_fit_respects_search_box():
    rng = np.random.default_rng(10)
    x = rng.random((10, 3))
    y = rng.normal(size=10)
    model = fit(x, y, nu=1.5)
    assert model.kernel.nu == 1.5
    assert all(1e-2 <= l <= 10.0 for l in model.kernel.length_scales)
    assert 1e-2 <= model.kernel.signal_variance <= 1e2
    assert 1e-6 <= model.kernel.noise_variance <= 1.0


def test_fit_requires_data():
    with pytest.raises(ValueError):
        fit(np.empty((0, 1)), [])


def test_fit_accepts_1d_points():
    model = fit([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert model.points.shape == (3, 1)
    assert math.isfinite(posterior_at(model, [0.25]).mean)


def _per_candidate_draws(rng, d, n_starts):
    """The draws of fit's former candidate loop, one row per candidate: one
    call for the d length scales, then one scalar call each for the signal
    and the noise variance."""

    def log_uniform(bounds, size=None):
        return np.exp(rng.uniform(math.log(bounds[0]), math.log(bounds[1]), size=size))

    return [
        [
            *log_uniform(gp.LENGTH_SCALE_BOUNDS, size=d),
            float(log_uniform(gp.SIGNAL_VARIANCE_BOUNDS)),
            float(log_uniform(gp.NOISE_VARIANCE_BOUNDS)),
        ]
        for _ in range(n_starts)
    ]


@given(d=st.integers(1, 8), n_starts=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_one_uniform_call_draws_like_the_per_candidate_calls(d, n_starts, seed):
    """``fit`` rests on this: one draw with per-column log bounds, rows in
    candidate order, equals the per-candidate draws bitwise and leaves the
    generator in the same state."""
    batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    bounds = [gp.LENGTH_SCALE_BOUNDS] * d + [gp.SIGNAL_VARIANCE_BOUNDS, gp.NOISE_VARIANCE_BOUNDS]
    one_call = batched.uniform(
        [math.log(lo) for lo, _ in bounds],
        [math.log(hi) for _, hi in bounds],
        size=(n_starts, d + 2),
    )
    assert np.exp(one_call).tolist() == _per_candidate_draws(looped, d, n_starts)
    assert batched.bit_generator.state == looped.bit_generator.state
    assert batched.random() == looped.random()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_fit_candidates_are_drawn_once_per_width_and_read_only(d):
    draws = _per_candidate_draws(np.random.default_rng(gp.FIT_SEARCH_SEED), d, gp.N_SEARCH_STARTS)
    rows = _fit_candidates(d)
    assert rows.shape == (gp.N_SEARCH_STARTS + 1, d + 2) and rows[1:].tolist() == draws
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0
    fit(np.linspace(0.0, 1.0, 3 * d).reshape(3, d), [0.2, 0.9, 0.4])
    assert _fit_candidates(d) is rows and rows[1:].tolist() == draws


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_fit_searches_the_candidates_of_the_per_candidate_draws(d, monkeypatch):
    """Let each candidate of the stack win in turn, by searching it alone,
    and read back the kernel ``fit`` builds: the winners are the midpoint
    and then the per-candidate draws, in order."""
    x = np.linspace(0.0, 1.0, 4 * d).reshape(4, d)
    y = [0.1, 0.4, 0.3, 0.8]
    searched = []
    for row in _fit_candidates(d):
        monkeypatch.setattr(gp, "_fit_candidates", lambda width, rows=row[None, :]: rows)
        searched.append(fit(x, y, nu=1.5).kernel)
    rng = np.random.default_rng(gp.FIT_SEARCH_SEED)
    rows = _per_candidate_draws(rng, d, gp.N_SEARCH_STARTS)
    assert [[*c.length_scales, c.signal_variance, c.noise_variance] for c in searched[1:]] == rows
    assert {c.nu for c in searched} == {1.5}
    assert searched[0].length_scales == (math.sqrt(math.prod(gp.LENGTH_SCALE_BOUNDS)),) * d


def _candidate_params(rows, nu, jitter=gp.JITTER_START):
    """One ``KernelParams`` per candidate row: d length scales, then signal and noise variance."""
    return [
        KernelParams(
            length_scales=tuple(row[:-2]),
            signal_variance=row[-2],
            noise_variance=row[-1],
            nu=nu,
            jitter=jitter,
        )
        for row in np.asarray(rows).tolist()
    ]


def _per_candidate_fit(x, y, nu):
    """The fit as a loop over candidates, the reference for the stacked one:
    the per-candidate draws, one ``KernelParams`` and one dense-formula
    log evidence per candidate, the first maximum, then ``build_gp``
    folding the winner alone."""
    d = x.shape[1]
    midpoint = [math.sqrt(math.prod(gp.LENGTH_SCALE_BOUNDS))] * d + [
        math.sqrt(math.prod(gp.SIGNAL_VARIANCE_BOUNDS)),
        math.sqrt(math.prod(gp.NOISE_VARIANCE_BOUNDS)),
    ]
    rows = [midpoint] + _per_candidate_draws(
        np.random.default_rng(gp.FIT_SEARCH_SEED), d, gp.N_SEARCH_STARTS
    )
    best, best_lml = None, -math.inf
    for cand in _candidate_params(rows, nu):
        lml = dense_lml(x, y, cand)
        if lml > best_lml:
            best, best_lml = cand, lml
    return build_gp(x, y, best)


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_fit_picks_what_the_per_candidate_loop_picks(nu):
    """The winner is the first maximum of the dense-formula log evidence,
    and the stacked fold gives bitwise the model of folding it alone: the
    same kernel, offset, inverse factor and dual."""
    rng = np.random.default_rng(32 if nu == 1.5 else 33)
    for case in range(110):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        if case % 3 == 0:
            x = rng.integers(0, 3, size=(n, d)).astype(float)  # duplicated grid points
        else:
            x = rng.random((n, d))
        y = rng.normal(size=n) * [1e-3, 1.0, 10.0][case % 3]
        got, want = fit(x, y, nu=nu), _per_candidate_fit(x, y, nu)
        assert got.kernel == want.kernel
        assert got.mean_offset == want.mean_offset
        assert np.array_equal(got.chol_inv, want.chol_inv)
        assert np.array_equal(got.dual, want.dual)


def _random_rows(rng, d, count=33):
    """Candidate rows drawn log-uniformly from fit's search box."""
    return np.exp(
        rng.uniform(
            [math.log(1e-2)] * d + [math.log(1e-2), math.log(1e-6)],
            [math.log(10.0)] * d + [math.log(1e2), 0.0],
            size=(count, d + 2),
        )
    )


# Rows that need more than the starting jitter where points coincide: signal
# variance 1e8, whose half ulp exceeds 1e-10, no noise, and a length scale
# so short that distinct points of a grid of step 1/2 barely correlate.
def _needs_jitter_row(d):
    return [1e-2] * d + [1e8, 0.0]


def dense_ladder_jitter(x, rows, nu):
    """The smallest jitter of ``fit``'s ladder at which ``np.linalg.cholesky``
    factors every candidate's ``K + (noise + jitter) I``, or ``None``."""
    params = _candidate_params(rows, nu)
    n = x.shape[0]
    grams = [gram_matrix(x, x, p) + p.noise_variance * np.eye(n) for p in params]
    jitter = gp.JITTER_START
    while jitter <= gp.JITTER_MAX:
        try:
            for k in grams:
                np.linalg.cholesky(k + jitter * np.eye(n))
            return jitter
        except LinAlgError:
            jitter *= 10.0
    return None


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_stacked_lml_matches_per_candidate_lml(nu):
    """The stack's log evidence of each candidate against that candidate
    folded alone, and against the dense formula (``slogdet`` plus ``solve``)
    on the same covariance.  Two methods that round differently may differ
    by the covariance's condition number times a few units of round-off,
    relative to the sizes of the two terms."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        n, d = int(rng.integers(1, 20)), int(rng.integers(1, 5))
        x, y = rng.random((n, d)), rng.normal(size=n)
        rows = _random_rows(rng, d)
        jitter, fold = _fold(x, rows, nu, gp.JITTER_START, None)
        assert jitter == gp.JITTER_START
        stacked = fold_lml(fold, y)
        loop = [log_marginal_likelihood(x, y, p) for p in _candidate_params(rows, nu)]
        np.testing.assert_allclose(stacked, loop, rtol=1e-10, atol=1e-10)
        for got, params in zip(stacked, _candidate_params(rows, nu)):
            k = gram_matrix(x, x, params) + (params.noise_variance + params.jitter) * np.eye(n)
            yc = y - y.mean()
            quad, (sign, log_det) = yc @ np.linalg.solve(k, yc), np.linalg.slogdet(k)
            assert sign > 0
            want = -0.5 * quad - 0.5 * log_det - 0.5 * n * math.log(2 * math.pi)
            scale = 0.5 * abs(quad) + 0.5 * abs(log_det) + 1.0
            assert abs(got - want) <= 4.0 * np.finfo(float).eps * np.linalg.cond(k) * scale


def test_a_stack_escalates_its_jitter_as_a_whole():
    # Three coincident points under signal variance 1e8: every entry of the
    # Gram matrix is exactly 1e8, and the starting jitter 1e-10 is below half
    # an ulp of it, so the matrix stays exactly singular until the jitter is
    # escalated.
    x = np.full((3, 1), 0.5)
    y = np.array([0.2, 0.5, 0.1])
    rng = np.random.default_rng(33)
    rows = np.vstack([_random_rows(rng, 1, count=5), _needs_jitter_row(1)])
    alone = build_gp(x, y, _candidate_params(rows[-1:], 2.5)[0]).kernel.jitter
    assert alone > gp.JITTER_START
    jitter, fold = _fold(x, rows, 2.5, gp.JITTER_START, None)
    assert jitter == alone
    for params, chol_inv in zip(_candidate_params(rows, 2.5, jitter=jitter), fold.chol_inv):
        single = build_gp(x, y, params)
        assert single.kernel.jitter == jitter
        assert np.array_equal(chol_inv, single.chol_inv)


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_the_worst_corner_of_the_fit_box_factors_at_the_starting_jitter(nu):
    """``fit`` escalates only as a whole stack, which is sound because no
    candidate in its box needs it.  The eigenvalues of ``K + noise I`` lie
    between the noise and ``n`` times the signal variance; coincident points
    reach both ends, so the largest signal over the smallest noise is the
    worst conditioning the box allows, and it factors at the starting jitter."""
    params = KernelParams(
        length_scales=(gp.LENGTH_SCALE_BOUNDS[1],),
        signal_variance=gp.SIGNAL_VARIANCE_BOUNDS[1],
        noise_variance=gp.NOISE_VARIANCE_BOUNDS[0],
        nu=nu,
    )
    for n in (2, 3, 30, 300, 2000):
        model = build_gp(np.full((n, 1), 0.5), np.zeros(n), params)
        assert model.kernel.jitter == gp.JITTER_START


# ------------------------------------------------------ the fold and base

def _duplicate_heavy_design(rng, n, d):
    """``n`` draws from three points of a grid of step 1/2, so most of them
    repeat an earlier one."""
    return (rng.integers(0, 3, size=(3, d)) / 2.0)[rng.integers(0, 3, size=n)]


def _assert_same_model(got, want):
    assert got.kernel == want.kernel
    assert got.mean_offset == want.mean_offset
    for a, b in [
        (got.points, want.points),
        (got.observations, want.observations),
        (got.chol_inv, want.chol_inv),
        (got.dual, want.dual),
        (got.fold.chol_inv, want.fold.chol_inv),
        (got.fold.log_det, want.fold.log_det),
    ]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("nu", [1.5, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_fit_extending_a_base_is_bitwise_the_fit_from_scratch(d, nu, monkeypatch):
    """Every prefix as ``base``, and a chain of bases one point apart, give
    the very model of the fit from scratch.  With a candidate that needs
    jitter at coincident points added to the stack, the escalation often
    comes after the base's prefix and restarts the fold from the first point."""
    rng = np.random.default_rng(100 * d + int(nu))
    escalated = 0
    for case in range(12):
        n = int(rng.integers(2, 16))
        x = _duplicate_heavy_design(rng, n, d) if case % 2 else rng.random((n, d))
        y = rng.normal(size=n)
        if case % 4 == 1:
            rows = np.vstack([_fit_candidates(d), _needs_jitter_row(d)])
            monkeypatch.setattr(gp, "_fit_candidates", lambda width, rows=rows: rows)
        want = fit(x, y, nu=nu)
        chained = None
        for k in range(1, n + 1):
            base = fit(x[:k], y[:k], nu=nu)
            escalated += base.kernel.jitter < want.kernel.jitter
            _assert_same_model(fit(x, y, nu=nu, base=base), want)
            chained = fit(x[:k], y[:k], nu=nu, base=chained)
        _assert_same_model(chained, want)
        monkeypatch.undo()
    assert escalated > 0


def _model_bytes(model):
    """The bytes of every array a model shows."""
    arrays = (model.points, model.observations, model.chol_inv, model.dual)
    return [a.tobytes() for a in (*arrays, model.fold.chol_inv, model.fold.log_det)]


def _fit_one_at_a_time(x, y, nu):
    model = None
    for n in range(1, len(y) + 1):
        model = fit(x[:n], y[:n], nu=nu, base=model)
    return model


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_two_extensions_of_one_base_are_each_the_fit_from_scratch(nu):
    """The first extension of a base appends its row to the base's buffer
    in place; the second, of the same base by another point, finds the
    buffer claimed past the base and copies.  Each is the fit from scratch,
    and neither changes the base or the other."""
    rng = np.random.default_rng(61 if nu == 1.5 else 62)
    for k in (5, 6, 9, 10, 12, 14):  # a one-at-a-time fit of k points has 2 spare rows
        d = int(rng.integers(1, 5))
        x, y = rng.random((k + 2, d)), rng.normal(size=k + 2)
        base = _fit_one_at_a_time(x[:k], y[:k], nu)
        before = _model_bytes(base)
        first = fit(x[: k + 1], y[: k + 1], nu=nu, base=base)
        assert first.fold.buffer is base.fold.buffer
        first_bytes = _model_bytes(first)
        other_x, other_y = np.vstack([x[:k], x[k + 1 :]]), np.append(y[:k], y[k + 1])
        second = fit(other_x, other_y, nu=nu, base=base)
        assert second.fold.buffer is not base.fold.buffer
        after_first = fit(x, y, nu=nu, base=first)  # still the buffer's latest claim
        assert after_first.fold.buffer is base.fold.buffer
        _assert_same_model(first, fit(x[: k + 1], y[: k + 1], nu=nu))
        _assert_same_model(second, fit(other_x, other_y, nu=nu))
        _assert_same_model(after_first, fit(x, y, nu=nu))
        assert _model_bytes(base) == before
        assert _model_bytes(first) == first_bytes


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_a_fit_that_outgrows_its_buffer_is_the_fit_from_scratch(nu):
    """Extending by one point at a time, a fit with room appends in place and
    one without copies into a buffer of twice the capacity."""
    rng = np.random.default_rng(63 if nu == 1.5 else 64)
    x, y = rng.random((40, 3)), rng.normal(size=40)
    model, grown, in_place = fit(x[:1], y[:1], nu=nu), [], 0
    assert model.fold.buffer.stack.shape == (len(_fit_candidates(3)), 1, 1)
    for n in range(2, 41):
        capacity = model.fold.buffer.stack.shape[-1]
        extended = fit(x[:n], y[:n], nu=nu, base=model)
        if n > capacity:
            assert extended.fold.buffer is not model.fold.buffer
            grown.append(extended.fold.buffer.stack.shape[-1])
        else:
            assert extended.fold.buffer is model.fold.buffer
            in_place += 1
        _assert_same_model(extended, fit(x[:n], y[:n], nu=nu))
        model = extended
    assert grown == [2, 4, 8, 16, 32, 64]
    assert in_place == 39 - len(grown)


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_buffer_growth_stops_at_max_n_samples(nu, monkeypatch):
    """A buffer doubles up to ``MAX_N_SAMPLES`` rows and past it grows only
    to the points it must hold; every extension is the fit from scratch."""
    monkeypatch.setattr(gp, "MAX_N_SAMPLES", 6)
    rng = np.random.default_rng(66 if nu == 1.5 else 67)
    x, y = rng.random((10, 2)), rng.normal(size=10)
    model, capacities = fit(x[:2], y[:2], nu=nu), []
    for n in range(3, 11):
        model = fit(x[:n], y[:n], nu=nu, base=model)
        capacities.append(model.fold.buffer.stack.shape[-1])
        _assert_same_model(model, fit(x[:n], y[:n], nu=nu))
    assert capacities == [4, 4, 6, 6, 7, 8, 9, 10]


def test_an_extension_that_escalates_restarts_in_a_fresh_buffer(monkeypatch):
    """A coincident point that the jitter-hungry candidate cannot factor
    restarts the fold from the first point in a buffer of its own.  The rows
    it wrote into the base's buffer lie past the base's claim, so the base
    is unchanged and still extends in place to the fit from scratch."""
    rows = np.vstack([_fit_candidates(2), _needs_jitter_row(2)])
    monkeypatch.setattr(gp, "_fit_candidates", lambda width: rows)
    rng = np.random.default_rng(65)
    escalated = 0
    for _ in range(20):
        x, y = rng.random((8, 2)), rng.normal(size=9)
        base = _fit_one_at_a_time(x[:7], y[:7], 2.5)  # 7 of 8 rows
        before = _model_bytes(base)
        repeat = fit(np.vstack([x[:7], x[3]]), y[:8], base=base)
        if repeat.kernel.jitter > base.kernel.jitter:
            escalated += 1
            assert repeat.fold.buffer is not base.fold.buffer
            assert base.fold.buffer.claimed == 7
        _assert_same_model(repeat, fit(np.vstack([x[:7], x[3]]), y[:8]))
        assert _model_bytes(base) == before
        if base.fold.buffer.claimed == 7:
            fresh_point = fit(x, np.append(y[:7], y[8]), base=base)
            assert fresh_point.fold.buffer is base.fold.buffer
            _assert_same_model(fresh_point, fit(x, np.append(y[:7], y[8])))
    assert escalated > 0


def test_fit_rejects_a_base_it_cannot_extend():
    rng = np.random.default_rng(41)
    x, y = rng.random((6, 2)), rng.normal(size=6)
    base = fit(x[:4], y[:4])
    not_prefix = [
        (x, y, fit(x[1:5], y[1:5])),  # other points
        (x, y, fit(x[:4], y[:4] + 1.0)),  # other observations
        (x[:3], y[:3], base),  # more points than the fit's
    ]
    for points, observations, bad in not_prefix:
        with pytest.raises(ValueError, match="prefix"):
            fit(points, observations, base=bad)
    other_kind = [
        fit(x[:4], y[:4], nu=1.5),  # other nu
        fit(x[:4, :1], y[:4]),  # other width
        build_gp(x[:4], y[:4], base.kernel),  # one fixed candidate
    ]
    for bad in other_kind:
        with pytest.raises(ValueError, match="same nu and point width"):
            fit(x, y, base=bad)
    _assert_same_model(fit(x, y, base=base), fit(x, y))


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_fold_jitter_is_the_smallest_ladder_value_dense_cholesky_accepts(nu, monkeypatch):
    rng = np.random.default_rng(51 if nu == 1.5 else 52)
    escalated = 0
    for case in range(40):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        x = _duplicate_heavy_design(rng, n, d)
        rows = _random_rows(rng, d, count=4)
        if case % 2:
            rows = np.vstack([rows, _needs_jitter_row(d)])
        monkeypatch.setattr(gp, "_fit_candidates", lambda width, rows=rows: rows)
        want = dense_ladder_jitter(x, rows, nu)
        assert want is not None
        assert fit(x, rng.normal(size=n), nu=nu).kernel.jitter == want
        escalated += want > gp.JITTER_START
    assert escalated > 0


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_fit_posterior_matches_the_cho_solve_oracle_on_duplicate_heavy_designs(nu):
    """Fitted models, noise often at its floor, against the posterior from
    LAPACK's dense factor and SciPy's ``cho_solve``."""
    rng = np.random.default_rng(61 if nu == 1.5 else 62)
    for _ in range(40):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        x = _duplicate_heavy_design(rng, n, d)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
        model = fit(x, y, nu=nu)
        queries = np.vstack([x[: min(n, 5)], rng.random((10, d))])
        mean, std = posterior(model, queries)
        for i, q in enumerate(queries):
            ref_mean, ref_std = _posterior_at_reference(model, q)
            assert mean[i] == pytest.approx(ref_mean, abs=1e-9)
            assert std[i] == pytest.approx(ref_std, abs=1e-9)


def _exact_posterior(model: GpModel, queries: np.ndarray) -> tuple[list[float], list[float]]:
    """The posterior at 50 digits from the model's own hyperparameters, points
    and observations, for a design that repeats a few distinct points: it is
    the posterior of a GP on the distinct points, each observed at the mean of
    its repeats with noise ``(noise + jitter) / count``."""
    kernel = model.kernel
    with localcontext() as ctx:
        ctx.prec = 50
        root = Decimal(3 if kernel.nu == 1.5 else 5).sqrt()

        def k(a, b):
            r = sum(
                ((Decimal(u) - Decimal(v)) / Decimal(l)) ** 2
                for u, v, l in zip(a, b, kernel.length_scales)
            ).sqrt()
            t = root * r
            poly = 1 + t if kernel.nu == 1.5 else 1 + t + t * t / 3
            return Decimal(kernel.signal_variance) * poly * (-t).exp()

        offset = Decimal(model.mean_offset)
        groups: dict[tuple[float, ...], list[Decimal]] = {}
        for point, value in zip(model.points.tolist(), model.observations.tolist()):
            groups.setdefault(tuple(point), []).append(Decimal(value) - offset)
        z = list(groups)
        tau = Decimal(kernel.noise_variance) + Decimal(kernel.jitter)
        a = [
            [k(zi, zj) + (tau / len(groups[zi]) if i == j else 0) for j, zj in enumerate(z)]
            for i, zi in enumerate(z)
        ]

        def solve(rhs):
            m = [row[:] + [b] for row, b in zip(a, rhs)]
            for i in range(len(m)):
                for j in range(i + 1, len(m)):
                    f = m[j][i] / m[i][i]
                    m[j] = [mj - f * mi for mj, mi in zip(m[j], m[i])]
            out = [Decimal(0)] * len(m)
            for i in reversed(range(len(m))):
                out[i] = (m[i][-1] - sum(m[i][j] * out[j] for j in range(i + 1, len(m)))) / m[i][i]
            return out

        alpha = solve([sum(g) / len(g) for g in groups.values()])
        means, stds = [], []
        for q in queries.tolist():
            kq = [k(q, zj) for zj in z]
            var = Decimal(kernel.signal_variance) - sum(u * v for u, v in zip(kq, solve(kq)))
            means.append(float(offset + sum(u * v for u, v in zip(kq, alpha))))
            stds.append(float(max(var, Decimal(0)).sqrt()))
    return means, stds


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_posterior_matches_the_exact_oracle_on_large_duplicate_heavy_designs(nu):
    """Hundreds of repeats of three points, fitted and with the noise at the
    floor of fit's box, against the exact posterior.  The std at a repeated
    point is a difference of nearly equal terms (``s2`` and ``|L^-1 k_x|^2``);
    it stays within 1e-9.  The mean stays within the round-off that a solve
    of the covariance can promise: its condition number times the unit
    round-off times the largest centred observation."""
    rng = np.random.default_rng(71 if nu == 1.5 else 72)
    for n in (100, 200, 400):
        d = int(rng.integers(1, 5))
        x = _duplicate_heavy_design(rng, n, d)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
        row = _random_rows(rng, d, count=1)[0]
        at_floor = KernelParams(
            length_scales=tuple(row[:d]),
            signal_variance=row[d],
            noise_variance=gp.NOISE_VARIANCE_BOUNDS[0],
            nu=nu,
        )
        queries = np.vstack([x[:5], rng.random((10, d))])
        for model in (fit(x, y, nu=nu), build_gp(x, y, at_floor)):
            mean, std = posterior(model, queries)
            want_mean, want_std = _exact_posterior(model, queries)
            np.testing.assert_allclose(std, want_std, rtol=0, atol=1e-9)
            k = gram_matrix(x, x, model.kernel)
            k += (model.kernel.noise_variance + model.kernel.jitter) * np.eye(n)
            bound = np.finfo(float).eps * np.linalg.cond(k) * np.max(np.abs(y - y.mean()))
            np.testing.assert_allclose(mean, want_mean, rtol=0, atol=bound)


# ------------------------------------------- the reductions of a GP round

def _wrapper_distances(x1, x2, length_scales):
    """The distances as ``_scaled_distances`` computed them through ``np.atleast_2d``."""
    a = np.atleast_2d(x1) / length_scales
    b = np.atleast_2d(x2) / length_scales
    sq = np.square(a[..., :, 0, None] - b[..., None, :, 0])
    for k in range(1, a.shape[-1]):
        diff = a[..., :, k, None] - b[..., None, :, k]
        sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def _wrapper_fit(x, y, rows, nu):
    """A fold from the first point and the winning candidate, written with
    NumPy's ``np.sum``, ``np.all``, ``np.mean`` and ``np.argmax`` wrappers:
    the reference that the round path's ufunc and ndarray methods must
    match bit for bit.  The fit's box never needs more than the starting
    jitter.  Returns the stack of inverse factors, their log determinants,
    the mean, the winner and its dual."""
    n, d = x.shape
    length_scales, s2 = rows[:, None, :d], rows[:, d, None, None]
    chol_inv, log_det = np.zeros((rows.shape[0], n, n)), np.zeros(rows.shape[0])
    pivot = rows[:, d] + rows[:, d + 1] + gp.JITTER_START
    for i in range(n):
        dist = _wrapper_distances(x[:i], x[i], length_scales)
        l = (chol_inv[:, :i, :i] @ gp._matern_of_distance(dist, nu, s2))[..., 0]
        delta_sq = pivot - np.sum(l**2, axis=-1)
        assert np.all(delta_sq > 0)
        delta = np.sqrt(delta_sq)
        chol_inv[:, i, :i] = (l[:, None, :] @ chol_inv[:, :i, :i])[:, 0, :] / -delta[:, None]
        chol_inv[:, i, i] = 1.0 / delta
        log_det = log_det + np.log(delta)
    mean = np.mean(y)
    w = chol_inv @ (y - mean)
    lml = -0.5 * np.sum(w**2, axis=-1) - log_det - 0.5 * len(y) * math.log(2.0 * math.pi)
    best = int(np.argmax(lml))
    return chol_inv, log_det, float(mean), best, chol_inv[best].T @ w[best]


def _wrapper_posterior(model, q):
    kx = gram_matrix(q, model.points, model.kernel)
    mean = model.mean_offset + kx @ model.dual
    v = model.chol_inv @ kx.T
    var = model.kernel.signal_variance - np.sum(v**2, axis=0)
    return mean, np.sqrt(np.maximum(var, 0.0))


@pytest.mark.parametrize("nu", [1.5, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_the_round_path_reductions_are_bitwise_numpys_wrappers(d, nu):
    """``fit``'s fold and winner and ``posterior``'s block, bit for bit
    against the same steps through NumPy's wrappers, up to 40 points, so
    that sums longer than NumPy's 8-element pairwise block are covered; about
    a third of the points are copies of others."""
    rng = np.random.default_rng(4000 + 10 * d + int(2 * nu))
    rows = _fit_candidates(d)
    for n in (1, 2, 8, 9, 17, 40):
        x = rng.random((n, d))
        repeats = rng.random(n) < 1 / 3
        x[repeats] = x[rng.integers(0, n, size=n)][repeats]
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        chol_inv, log_det, mean, best, dual = _wrapper_fit(x, y, rows, nu)
        model = fit(x, y, nu=nu)
        assert model.kernel.jitter == gp.JITTER_START
        assert model.fold.chol_inv.tobytes() == chol_inv.tobytes()
        assert model.fold.log_det.tobytes() == log_det.tobytes()
        assert model.mean_offset.hex() == mean.hex()
        *length_scales, signal_variance, noise_variance = rows[best].tolist()
        assert model.kernel.length_scales == tuple(length_scales)
        assert (model.kernel.signal_variance, model.kernel.noise_variance) == (
            signal_variance, noise_variance
        )
        assert model.dual.tobytes() == dual.tobytes()
        for m in (1, 9, 300):
            q = np.vstack([rng.random((m, d)), x[:2]])  # two queries on data points
            want_mean, want_std = _wrapper_posterior(model, q)
            got = posterior(model, q)
            assert got.mean.tobytes() == want_mean.tobytes()
            assert got.std.tobytes() == want_std.tobytes()
