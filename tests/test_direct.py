import numpy as np
import pytest

from oracles import gain_for_estimate, identity_record, simulate_record, tangent_basis, tangent_fd_gradient
from pgac import (
    batch_least_squares,
    benchmark_plant,
    exact_gradient,
    lqr_cost,
    natural_direct_step,
    natural_step,
    nullspace_projector,
    parameterize,
    projected_step,
    regularized_cost,
    regularized_direct_cost,
    regularized_direct_gradient,
    regularized_gradient,
    scaling_matrix,
)
from pgac.linalg import symmetrize
from pgac.errors import ConstraintViolated, NegativeLambda, NotStabilizingForData
from pgac.plant import LinearQuadraticPlant


def fixture_record(seed=71, t=60):
    plant = benchmark_plant()
    rec = simulate_record(plant, np.random.default_rng(seed), t)
    est = batch_least_squares(rec)
    return plant, rec, est


def test_identity_covariance_parameterization():
    rec = identity_record(2, 3)
    K = np.arange(6.0).reshape(2, 3)
    V = parameterize(rec, K)
    assert np.allclose(V, np.vstack([K, np.eye(3)]), atol=1e-10)
    assert np.allclose(scaling_matrix(rec), np.eye(2), atol=1e-10)


def test_round_trip_and_oracle_closed_loop():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(73)
    for _ in range(10):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.25)
        V = parameterize(rec, K)
        assert np.allclose(rec.ubar @ V, K, atol=1e-10)
        # exact data relation: de-noised shift map reproduces the closed loop
        assert np.allclose((rec.xbar1 - rec.wbar) @ V, plant.A + plant.B @ K, atol=1e-8)
        assert np.allclose(rec.xbar0 @ V, np.eye(3), atol=1e-10)


def test_direct_cost_equals_model_cost():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(79)
    for _ in range(10):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.25)
        V = parameterize(rec, K)
        ev = regularized_direct_cost(rec, V, plant.Q, plant.R)
        ref = regularized_cost(est, plant.Q, plant.R, K)
        assert abs(ev.cost - ref.cost) < 1e-10 * max(1.0, ref.cost)
        assert np.allclose(ev.sigma, ref.sigma, atol=1e-10)


def test_direct_cost_flags_off_manifold_inputs():
    plant, rec, est = fixture_record()
    K = gain_for_estimate(est, plant.Q, plant.R, np.random.default_rng(83), spread=0.2)
    V = parameterize(rec, K)
    V_bad = V + 1e-3
    with pytest.raises(ConstraintViolated):
        regularized_direct_cost(rec, V_bad, plant.Q, plant.R)
    with pytest.raises(NegativeLambda):
        regularized_direct_cost(rec, V, plant.Q, plant.R, -0.2)


def test_direct_cost_flags_destabilizing_parameter():
    plant, rec, _ = fixture_record()
    V = parameterize(rec, np.zeros((3, 3)))  # open loop is unstable
    with pytest.raises(NotStabilizingForData):
        regularized_direct_cost(rec, V, plant.Q, plant.R)


def test_regularized_direct_matches_indirect_counterpart():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(89)
    for lam in (0.05, 0.3):
        for _ in range(5):
            K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
            V = parameterize(rec, K)
            jd = regularized_direct_cost(rec, V, plant.Q, plant.R, lam).cost
            ji = regularized_cost(est, plant.Q, plant.R, K, rec.phi_inv, lam).cost
            assert abs(jd - ji) < 1e-12 * max(1.0, ji)


def test_zero_lambda_gradient_is_plain_gradient():
    plant, rec, est = fixture_record()
    K = gain_for_estimate(est, plant.Q, plant.R, np.random.default_rng(97), spread=0.2)
    V = parameterize(rec, K)
    # at lam = 0 no Phi term enters: on the tangent space the data gradient is
    # the estimated model's plain LQR gradient mapped by Ubar'
    model = LinearQuadraticPlant(est.Ahat, est.Bhat, plant.Q, plant.R)
    Pi = nullspace_projector(rec.xbar0)
    G = regularized_direct_gradient(rec, V, plant.Q, plant.R, 0.0)
    assert np.linalg.norm(Pi @ G - Pi @ (rec.ubar.T @ exact_gradient(model, K))) < 1e-10


def test_tangent_chain_rule():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(101)
    Pi = nullspace_projector(rec.xbar0)
    for _ in range(10):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.25)
        V = parameterize(rec, K)
        G_dir = regularized_direct_gradient(rec, V, plant.Q, plant.R)
        G_ce = regularized_gradient(est, plant.Q, plant.R, K)
        assert np.linalg.norm(Pi @ G_dir - Pi @ (rec.ubar.T @ G_ce)) < 1e-10


def test_tangent_gradient_matches_finite_differences():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(103)
    N = tangent_basis(rec.xbar0)
    Pi = nullspace_projector(rec.xbar0)
    for _ in range(3):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
        V = parameterize(rec, K)
        G_fd = tangent_fd_gradient(
            lambda VV: regularized_direct_cost(rec, VV, plant.Q, plant.R).cost, V, N)
        G_tan = Pi @ regularized_direct_gradient(rec, V, plant.Q, plant.R)
        assert np.allclose(G_fd, G_tan, rtol=1e-5, atol=1e-6)


def test_projected_descent_preserves_constraint():
    plant, rec, est = fixture_record()
    K0 = gain_for_estimate(est, plant.Q, plant.R, np.random.default_rng(107), spread=0.2)
    V = parameterize(rec, K0)
    eta = 0.2 / np.linalg.norm(scaling_matrix(rec), 2)
    costs = [regularized_direct_cost(rec, V, plant.Q, plant.R).cost]
    for _ in range(100):
        V, K = projected_step(rec, V, plant.Q, plant.R, eta)
        assert np.linalg.norm(rec.xbar0 @ V - np.eye(3)) < 1e-8
        assert np.allclose(rec.ubar @ V, K, atol=1e-10)
    costs.append(regularized_direct_cost(rec, V, plant.Q, plant.R).cost)
    assert costs[-1] < costs[0]  # descent made progress


def test_projector_is_shared_until_the_next_append():
    plant, rec, est = fixture_record()
    K0 = gain_for_estimate(est, plant.Q, plant.R, np.random.default_rng(107), spread=0.2)
    rng = np.random.default_rng(3)
    for _ in range(3):
        Pi = nullspace_projector(rec.xbar0)
        V = parameterize(rec, K0)
        grad = regularized_direct_gradient(rec, V, plant.Q, plant.R)
        assert np.array_equal(scaling_matrix(rec), symmetrize(rec.ubar @ Pi @ rec.ubar.T))
        V_next, _ = projected_step(rec, V, plant.Q, plant.R, 0.1)
        assert np.array_equal(V_next, V - 0.1 * Pi @ grad)
        # new moments, new projector: nothing stale survives an append
        rec.append(rng.standard_normal(3), rng.standard_normal(3),
                   rng.standard_normal(3), rng.standard_normal(3))


def test_scaling_matrix_lower_bound():
    plant = benchmark_plant()
    for seed in range(20):
        rec = simulate_record(plant, np.random.default_rng(900 + seed), 50)
        M = scaling_matrix(rec)
        smin_m = np.linalg.svd(M, compute_uv=False)[-1]
        smin_phi = np.linalg.svd(rec.phi, compute_uv=False)[-1]
        assert smin_m >= smin_phi ** 2 - 1e-12


def test_penalty_trace_identity():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(109)
    model = LinearQuadraticPlant(est.Ahat, est.Bhat, plant.Q, plant.R)
    for _ in range(10):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.25)
        V = parameterize(rec, K)
        sigma = lqr_cost(model, K).sigma
        xi = np.vstack([K, np.eye(3)]) @ sigma @ np.vstack([K, np.eye(3)]).T
        lhs = np.trace(V @ sigma @ V.T @ rec.phi)
        rhs = np.trace(rec.phi_inv @ xi)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_natural_direct_bridges_to_indirect():
    plant, rec, est = fixture_record()
    rng = np.random.default_rng(113)
    for _ in range(10):
        K = gain_for_estimate(est, plant.Q, plant.R, rng, spread=0.2)
        eta = rng.uniform(0.01, 0.3)
        assert np.array_equal(
            natural_direct_step(rec, K, plant.Q, plant.R, eta),
            natural_step(est, plant.Q, plant.R, K, eta))
        assert np.array_equal(
            natural_direct_step(rec, K, plant.Q, plant.R, eta, lam=0.1),
            natural_step(est, plant.Q, plant.R, K, eta, phi_inv=rec.phi_inv, lam=0.1))
