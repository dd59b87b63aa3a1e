import pickle

import numpy as np
import pytest

from oracles import central_fd_gradient, random_scalar_plant, random_stabilizing_gain
from pgac import (
    LinearQuadraticPlant,
    benchmark_plant,
    exact_gradient,
    gradient_dominance_gap,
    lqr_cost,
    lyapunov_solve_count,
    optimal_gain,
    step,
    strong_stability_certificate,
)
import pgac.plant
from pgac.linalg import _solve_dlyap_stable, symmetrize
from pgac.plant import true_costs
from pgac.errors import (
    CertificateViolated,
    DimensionMismatch,
    NonSymmetric,
    NotPD,
    NotStabilizing,
    RankDeficient,
)


def test_constructor_validation():
    I2 = np.eye(2)
    with pytest.raises(DimensionMismatch):
        LinearQuadraticPlant(np.zeros((2, 3)), I2, I2, I2)
    with pytest.raises(DimensionMismatch):
        LinearQuadraticPlant(0.5 * I2, np.zeros((3, 1)), I2, np.eye(1))
    with pytest.raises(DimensionMismatch):
        LinearQuadraticPlant(0.5 * I2, I2, np.eye(3), I2)
    with pytest.raises(DimensionMismatch):
        LinearQuadraticPlant(0.5 * I2, I2, I2, np.eye(3))
    with pytest.raises(NonSymmetric):
        LinearQuadraticPlant(0.5 * I2, I2, np.array([[1.0, 0.3], [0.0, 1.0]]), I2)
    with pytest.raises(NotPD):
        LinearQuadraticPlant(0.5 * I2, I2, np.diag([1.0, -1.0]), I2)
    with pytest.raises(NotPD):
        LinearQuadraticPlant(0.5 * I2, I2, I2, np.diag([1.0, 0.0]))
    # (A, B) must be controllable
    with pytest.raises(RankDeficient):
        LinearQuadraticPlant(np.diag([2.0, 3.0]), np.array([[1.0], [0.0]]), I2, np.eye(1))


def test_benchmark_plant_matrices():
    plant = benchmark_plant()
    A = np.array([[1.01, 0.01, 0.0], [0.01, 1.01, 0.01], [0.0, 0.01, 1.01]])
    assert np.array_equal(plant.A, A)
    assert np.array_equal(plant.B, np.eye(3))
    assert np.array_equal(plant.Q, np.eye(3))
    assert np.array_equal(plant.R, 1e-3 * np.eye(3))
    assert plant.n == 3 and plant.m == 3


def test_step_propagates_and_weights():
    plant = benchmark_plant()
    x = np.array([1.0, 0.0, 0.0])
    x_next, z = step(plant, x, np.zeros(3), np.zeros(3))
    assert np.allclose(x_next, [1.01, 0.01, 0.0], atol=1e-15)
    assert z.shape == (6,)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(3)
        u = rng.standard_normal(3)
        w = rng.standard_normal(3)
        x_next, z = step(plant, x, u, w)
        assert np.allclose(x_next, plant.A @ x + plant.B @ u + w, atol=1e-13)
        assert abs(z @ z - (x @ plant.Q @ x + u @ plant.R @ u)) < 1e-12
    with pytest.raises(DimensionMismatch):
        step(plant, np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        step(plant, np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        step(plant, np.zeros(3), np.zeros(3), np.zeros(2))


def test_lqr_cost_memoryless_plant():
    plant = LinearQuadraticPlant(np.zeros((3, 3)), np.eye(3), np.eye(3), np.eye(3))
    ev = lqr_cost(plant, np.zeros((3, 3)))
    assert abs(ev.cost - 3.0) < 1e-14
    assert np.allclose(ev.sigma, np.eye(3), atol=1e-14)
    assert np.allclose(ev.value, np.eye(3), atol=1e-14)


def test_lqr_cost_consistency_sweep():
    rng = np.random.default_rng(808)
    plant = benchmark_plant()
    for _ in range(20):
        K = random_stabilizing_gain(plant, rng, spread=0.4)
        ev = lqr_cost(plant, K)
        F = plant.A + plant.B @ K
        QK = plant.Q + K.T @ plant.R @ K
        # sigma is the stationary covariance, value the cost-to-go matrix
        assert np.allclose(ev.sigma, F @ ev.sigma @ F.T + np.eye(3), rtol=1e-9, atol=1e-9)
        assert np.allclose(ev.value, F.T @ ev.value @ F + QK, rtol=1e-9, atol=1e-9)
        assert abs(ev.cost - np.trace(ev.value)) < 1e-9 * max(1.0, ev.cost)
        assert abs(ev.cost - np.trace(QK @ ev.sigma)) < 1e-9 * max(1.0, ev.cost)
    with pytest.raises(NotStabilizing):
        lqr_cost(plant, np.zeros((3, 3)))


def test_evaluate_gain_solve_budget_and_error_type():
    plant = benchmark_plant()
    K_star, _ = optimal_gain(plant)
    before = lyapunov_solve_count()
    ev = lqr_cost(plant, K_star)
    assert ev.cost > 0 and ev.sigma.shape == (3, 3)
    assert lyapunov_solve_count() == before + 2  # sigma and the value matrix
    assert ev.value.shape == (3, 3)
    assert lyapunov_solve_count() == before + 2  # a read solves nothing
    with pytest.raises(NotStabilizing):
        lqr_cost(plant, np.zeros((3, 3)))


def test_true_costs_equal_lqr_cost_per_gain(monkeypatch):
    rng = np.random.default_rng(12)
    plants = [benchmark_plant()]
    # n = 9 is the largest state dimension whose monitor batch holds more
    # than one step (B = 4), so its traces sum 9 terms per stacked slice
    for n, m in ((5, 2), (9, 3)):
        A = rng.standard_normal((n, n))
        A *= 1.1 / max(abs(np.linalg.eigvals(A)))
        plants.append(LinearQuadraticPlant(A, rng.standard_normal((n, m)), np.eye(n), np.eye(m)))
    systems = []
    solve = pgac.plant._solve_dlyap_stable
    monkeypatch.setattr(pgac.plant, "_solve_dlyap_stable",
                        lambda F, W: systems.append(len(F)) or solve(F, W))
    for plant in plants:
        K_star, _ = optimal_gain(plant)
        for k in (1, 7, 100):
            # about half the gains are pushed out of the stabilizing set
            gains = np.stack([K_star + rng.choice([0.05, 50.0]) * rng.standard_normal(K_star.shape)
                              for _ in range(k)])
            del systems[:]
            costs = true_costs(plant, gains)
            expected = []
            for K in gains:
                try:
                    expected.append(lqr_cost(plant, K).cost)
                except NotStabilizing:
                    expected.append(np.inf)
                    continue
                # the 2-D formulas, independent of the stacked code path
                F = plant.A + plant.B @ K
                sigma = _solve_dlyap_stable(F, np.eye(plant.n))
                W = symmetrize(plant.Q + K.T @ plant.R @ K)
                assert expected[-1] == float(np.trace(W @ sigma))
            stable = int(np.isfinite(expected).sum())
            # one stacked solve of the stabilizing gains, then one per lqr_cost
            assert systems[:1] == ([stable] if stable else [])
            assert costs.tolist() == expected
            assert 0 < stable < k or k == 1
        del systems[:]
        assert true_costs(plant, np.zeros((3,) + K_star.shape)).tolist() == [np.inf] * 3
        assert systems == []  # no gain stabilizes: no solve at all


def test_lazy_value_is_the_eager_solve():
    plant = benchmark_plant()
    K = random_stabilizing_gain(plant, np.random.default_rng(5), spread=0.3)
    F = plant.A + plant.B @ K
    W = symmetrize(plant.Q + K.T @ plant.R @ K)
    sigma = _solve_dlyap_stable(F, np.eye(3))
    eager = _solve_dlyap_stable(F.T, W)
    ev = lqr_cost(plant, K)
    assert np.array_equal(ev.sigma, sigma)
    assert ev.cost == float(np.trace(W @ sigma))
    assert np.array_equal(ev.value, eager)
    copy = pickle.loads(pickle.dumps(ev))
    assert copy.cost == ev.cost and np.array_equal(copy.sigma, sigma)
    assert np.array_equal(copy.value, eager)


def test_exact_gradient_scalar_anchor():
    plant = LinearQuadraticPlant(np.array([[0.5]]), np.array([[1.0]]),
                                 np.eye(1), np.eye(1))
    G = exact_gradient(plant, np.zeros((1, 1)))
    assert abs(G[0, 0] - 16.0 / 9.0) < 1e-12


def test_exact_gradient_matches_finite_differences():
    plant = benchmark_plant()
    rng = np.random.default_rng(909)
    for _ in range(5):
        K = random_stabilizing_gain(plant, rng, spread=0.3)
        G = exact_gradient(plant, K)
        G_fd = central_fd_gradient(lambda KK: lqr_cost(plant, KK).cost, K)
        assert np.allclose(G, G_fd, rtol=1e-5, atol=1e-7)
    for seed in range(5):
        srng = np.random.default_rng(1000 + seed)
        sp = random_scalar_plant(srng)
        K = random_stabilizing_gain(sp, srng, spread=0.3)
        G = exact_gradient(sp, K)
        G_fd = central_fd_gradient(lambda KK: lqr_cost(sp, KK).cost, K)
        assert np.allclose(G, G_fd, rtol=1e-5, atol=1e-7)


def test_optimal_gain_benchmark_and_cache():
    plant = benchmark_plant()
    K_star, ev = optimal_gain(plant)
    assert abs(ev.cost - 3.0030576454693803) < 1e-12
    assert np.linalg.norm(exact_gradient(plant, K_star)) < 1e-8
    K_again, _ = optimal_gain(plant)
    assert np.array_equal(K_star, K_again)
    K_again[0, 0] = 42.0  # mutating the returned copy must not poison the cache
    K_third, _ = optimal_gain(plant)
    assert K_third[0, 0] != 42.0


def test_gradient_dominance_gap_nonnegative():
    plant = benchmark_plant()
    rng = np.random.default_rng(111)
    for _ in range(30):
        K = random_stabilizing_gain(plant, rng, spread=0.5)
        assert gradient_dominance_gap(plant, K) >= -1e-8
    K_star, _ = optimal_gain(plant)
    assert gradient_dominance_gap(plant, K_star) >= -1e-10


def test_certificate_scalar_memoryless():
    plant = LinearQuadraticPlant(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
    cert = strong_stability_certificate(plant, np.zeros((1, 1)))
    assert abs(cert.kappa - 1.0) < 1e-12
    assert abs(cert.alpha - 1.0) < 1e-12
    assert np.allclose(cert.H, np.eye(1), atol=1e-12)
    assert np.allclose(cert.L, np.zeros((1, 1)), atol=1e-12)


def test_certificate_benchmark_inequalities():
    plant = benchmark_plant()
    K_star, _ = optimal_gain(plant)
    cert = strong_stability_certificate(plant, K_star)
    F = plant.A + plant.B @ K_star
    assert np.allclose(cert.H @ cert.L @ np.linalg.inv(cert.H), F, atol=1e-10)
    assert np.linalg.norm(cert.L, 2) <= 1.0 - cert.alpha + 1e-12
    assert np.linalg.norm(K_star, 2) <= cert.kappa
    assert np.linalg.norm(cert.H, 2) <= cert.kappa
    assert np.linalg.norm(np.linalg.inv(cert.H), 2) <= 1.0 + 1e-12
    # an impossible tolerance trips the reconstruction check
    with pytest.raises(CertificateViolated):
        strong_stability_certificate(plant, K_star, tol=0.0)

