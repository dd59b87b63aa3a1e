import numpy as np
import pytest

from oracles import central_fd_gradient, gain_for_estimate, random_stabilizing_gain, simulate_record
from pgac import (
    LinearQuadraticPlant,
    ModelEstimate,
    RegularizedWeights,
    batch_least_squares,
    benchmark_plant,
    exact_gradient,
    gauss_newton_step,
    hewer_iterates,
    lqr_cost,
    natural_step,
    optimal_gain,
    regularized_cost,
    regularized_gradient,
)
from pgac.errors import NegativeLambda, NotStabilizingForEstimate


def true_estimate(plant):
    return ModelEstimate(plant.A.copy(), plant.B.copy())


def noisy_estimate(plant, seed, t=60):
    rec = simulate_record(plant, np.random.default_rng(seed), t)
    return batch_least_squares(rec), rec


def test_ce_matches_exact_plant_quantities():
    plant = benchmark_plant()
    est = true_estimate(plant)
    rng = np.random.default_rng(17)
    for _ in range(10):
        K = random_stabilizing_gain(plant, rng, spread=0.4)
        ev = regularized_cost(est, plant.Q, plant.R, K)
        assert abs(ev.cost - lqr_cost(plant, K).cost) < 1e-12 * max(1.0, ev.cost)
        G = regularized_gradient(est, plant.Q, plant.R, K)
        assert np.allclose(G, exact_gradient(plant, K), atol=1e-12)


def test_ce_cost_rejects_destabilizing_gain():
    plant = benchmark_plant()
    est = true_estimate(plant)
    with pytest.raises(NotStabilizingForEstimate):
        regularized_cost(est, plant.Q, plant.R, np.zeros((3, 3)))


def test_zero_lambda_collapses_to_plain_ce():
    plant = benchmark_plant()
    est, rec = noisy_estimate(plant, 23)
    model = LinearQuadraticPlant(est.Ahat, est.Bhat, plant.Q, plant.R)
    rng = np.random.default_rng(29)
    for _ in range(10):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.3)
        # at lam = 0 the inverse covariance must not enter at all
        g_reg = regularized_gradient(est, plant.Q, plant.R, K, rec.phi_inv, 0.0)
        assert np.array_equal(g_reg, regularized_gradient(est, plant.Q, plant.R, K))
        ev = regularized_cost(est, plant.Q, plant.R, K, rec.phi_inv, 0.0)
        plain = regularized_cost(est, plant.Q, plant.R, K)
        assert ev.cost == plain.cost
        assert np.array_equal(ev.value, plain.value)
        # and the result is the plain LQR cost/gradient of the estimated model
        ref = lqr_cost(model, K)
        assert abs(ev.cost - ref.cost) < 1e-12 * max(1.0, ref.cost)
        assert np.allclose(ev.value, ref.value, rtol=1e-10, atol=1e-12)
        assert np.allclose(ev.sigma, ref.sigma, rtol=1e-10, atol=1e-12)
        assert np.allclose(g_reg, exact_gradient(model, K), rtol=1e-9, atol=1e-10)


def test_negative_lambda_rejected():
    plant = benchmark_plant()
    est = true_estimate(plant)
    K_star, _ = optimal_gain(plant)
    with pytest.raises(NegativeLambda):
        RegularizedWeights.build(plant.Q, plant.R, np.eye(6), -0.1)
    with pytest.raises(NegativeLambda):
        regularized_gradient(est, plant.Q, plant.R, K_star, np.eye(6), -1e-3)


def test_regularized_weights_block_layout():
    plant = benchmark_plant()
    rng = np.random.default_rng(5)
    S = rng.standard_normal((6, 6))
    phi_inv = S @ S.T + np.eye(6)
    lam = 0.3
    w = RegularizedWeights.build(plant.Q, plant.R, phi_inv, lam)
    assert np.allclose(w.r_lambda, plant.R + lam * phi_inv[:3, :3], atol=1e-12)
    assert np.allclose(w.q_lambda, plant.Q + lam * phi_inv[3:, 3:], atol=1e-12)
    assert np.allclose(w.cross, lam * phi_inv[:3, 3:], atol=1e-12)
    assert w.lam == lam
    for plain in (RegularizedWeights.build(plant.Q, plant.R),
                  RegularizedWeights.build(plant.Q, plant.R, phi_inv, 0.0)):
        assert np.array_equal(plain.q_lambda, plant.Q)
        assert np.array_equal(plain.r_lambda, plant.R)
        assert np.array_equal(plain.cross, np.zeros((3, 3)))
        assert plain.lam == 0.0


def test_isotropic_regularizer_closed_form():
    # for phi = c*I the penalty is (lam/c) * trace([K;I] Sigma [K;I]')
    plant = benchmark_plant()
    est = true_estimate(plant)
    rng = np.random.default_rng(37)
    for _ in range(10):
        K = random_stabilizing_gain(plant, rng, spread=0.3)
        c = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.01, 0.5)
        base = regularized_cost(est, plant.Q, plant.R, K)
        reg = regularized_cost(est, plant.Q, plant.R, K, (1.0 / c) * np.eye(6), lam).cost
        xi_trace = np.trace(K @ base.sigma @ K.T) + np.trace(base.sigma)
        assert abs(reg - base.cost - (lam / c) * xi_trace) < 1e-10 * max(1.0, reg)


def test_regularized_gradient_matches_finite_differences():
    plant = benchmark_plant()
    est, rec = noisy_estimate(plant, 41)
    rng = np.random.default_rng(43)
    phi_inv = rec.phi_inv
    for lam in (0.0, 0.1):
        for _ in range(3):
            K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
            G = regularized_gradient(est, plant.Q, plant.R, K, phi_inv if lam else None, lam)
            G_fd = central_fd_gradient(
                lambda KK: regularized_cost(est, plant.Q, plant.R, KK,
                                            phi_inv if lam else None, lam).cost, K)
            assert np.allclose(G, G_fd, rtol=1e-5, atol=1e-6)


def test_natural_step_scalar_anchor():
    est = ModelEstimate(np.array([[0.5]]), np.array([[1.0]]))
    K1 = natural_step(est, np.eye(1), np.eye(1), np.zeros((1, 1)), 0.1)
    assert abs(K1[0, 0] - (-2.0 / 15.0)) < 1e-14


def test_zero_stepsize_returns_gain_unchanged():
    plant = benchmark_plant()
    est, _ = noisy_estimate(plant, 47)
    rng = np.random.default_rng(53)
    K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
    assert np.array_equal(gauss_newton_step(est, plant.Q, plant.R, K, 0.0), K)
    assert np.array_equal(natural_step(est, plant.Q, plant.R, K, 0.0), K)


def test_natural_equals_vanilla_times_inverse_covariance():
    plant = benchmark_plant()
    rng = np.random.default_rng(59)
    for seed in range(10):
        est, _ = noisy_estimate(plant, 600 + seed)
        model = LinearQuadraticPlant(est.Ahat, est.Bhat, plant.Q, plant.R)
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
        eta = rng.uniform(0.01, 0.3)
        stepped = natural_step(est, plant.Q, plant.R, K, eta)
        sigma = lqr_cost(model, K).sigma
        grad = regularized_gradient(est, plant.Q, plant.R, K)
        expected = K - eta * grad @ np.linalg.inv(sigma)
        assert np.allclose(stepped, expected, rtol=1e-10, atol=1e-10)


def test_half_step_gauss_newton_is_policy_iteration():
    plant = benchmark_plant()
    rng = np.random.default_rng(61)
    for seed in range(10):
        est, _ = noisy_estimate(plant, 700 + seed)
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
        it = hewer_iterates(est.Ahat, est.Bhat, plant.Q, plant.R, K)
        next(it)
        K_pi, _ = next(it)
        K_gn = gauss_newton_step(est, plant.Q, plant.R, K, 0.5)
        assert np.allclose(K_gn, K_pi, rtol=1e-12, atol=1e-12)
