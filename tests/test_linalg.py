import math

import numpy as np
import pytest

import pgac.linalg
from oracles import (
    dare_value_iteration,
    eager_riccati_hewer,
    full_horizon_seed_gain,
    series_dlyap_closed,
    series_dlyap_cost,
    simulate_record,
)
from pgac import (
    batch_least_squares,
    benchmark_plant,
    hewer_iterates,
    initial_stabilizing_gain,
    lqr_cost,
    lyapunov_solve_count,
    nullspace_projector,
    optimal_gain,
    right_pinv,
    solve_dlyap_closed,
    solve_dlyap_cost,
    solve_riccati_hewer,
    spectral_radius,
    sqrt_spd,
)
from pgac.errors import NoConvergence, NonSymmetric, NotPD, NotStabilizing, NotStable, RankDeficient
from pgac.linalg import is_stabilizing, symmetrize


def random_stable_f(rng, n, target_radius):
    F = rng.standard_normal((n, n))
    return F * (target_radius / max(spectral_radius(F), 1e-12))


def random_spd(rng, n):
    S = rng.standard_normal((n, n))
    return S @ S.T + 0.1 * np.eye(n)


def test_dlyap_zero_dynamics_returns_noise():
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    X = solve_dlyap_closed(np.zeros((2, 2)), W)
    assert np.allclose(X, W, atol=1e-14)


def test_dlyap_scalar_geometric_series():
    X = solve_dlyap_closed(np.array([[0.5]]), np.array([[1.0]]))
    assert abs(X[0, 0] - 4.0 / 3.0) < 1e-12


def test_dlyap_diagonal_pair():
    F = np.diag([0.9, 0.5])
    expected = np.diag([100.0 / 19.0, 4.0 / 3.0])
    assert np.allclose(solve_dlyap_closed(F, np.eye(2)), expected, atol=1e-12)
    # diagonal F: the transposed-direction equation has the same solution
    assert np.allclose(solve_dlyap_cost(F, np.eye(2)), expected, atol=1e-12)


def test_dlyap_matches_truncated_series():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        F = random_stable_f(rng, n, rng.uniform(0.3, 0.95))
        W = random_spd(rng, n)
        X = solve_dlyap_closed(F, W)
        assert np.allclose(X, series_dlyap_closed(F, W), rtol=1e-8, atol=1e-10)
        assert np.allclose(X, F @ X @ F.T + W, rtol=1e-9, atol=1e-9)
        Y = solve_dlyap_cost(F, W)
        assert np.allclose(Y, series_dlyap_cost(F, W), rtol=1e-8, atol=1e-10)
        assert np.allclose(Y, F.T @ Y @ F + W, rtol=1e-9, atol=1e-9)
        assert np.allclose(X, X.T, atol=1e-12)


def test_dlyap_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_dlyap_closed(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        solve_dlyap_closed(np.zeros((2, 2)), np.eye(3))
    with pytest.raises(NonSymmetric):
        solve_dlyap_closed(0.5 * np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(NotStable):
        solve_dlyap_closed(np.eye(2), np.eye(2))
    with pytest.raises(NotStable):
        solve_dlyap_cost(1.5 * np.eye(2), np.eye(2))


def test_lyapunov_solve_counter_increments():
    F = 0.5 * np.eye(2)
    before = lyapunov_solve_count()
    solve_dlyap_closed(F, np.eye(2))
    assert lyapunov_solve_count() == before + 1
    solve_dlyap_cost(F, np.eye(2))
    assert lyapunov_solve_count() == before + 2


def test_spectral_radius_benchmark():
    A = benchmark_plant().A
    assert abs(spectral_radius(A) - (1.01 + 0.01 * math.sqrt(2.0))) < 1e-12
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))


def test_is_stabilizing_margin():
    assert is_stabilizing(0.5 * np.eye(2))
    assert not is_stabilizing(np.eye(2))
    assert not is_stabilizing(1.5 * np.eye(2))
    # custom margin: radius 0.97 fails a 0.05 margin but passes the default
    F = 0.97 * np.eye(2)
    assert is_stabilizing(F)
    assert not is_stabilizing(F, margin=0.05)


def test_right_pinv_wide_row():
    A = np.array([[1.0, 0.0]])
    assert np.allclose(right_pinv(A), np.array([[1.0], [0.0]]), atol=1e-14)


def test_right_pinv_sweep_and_rank_failure():
    rng = np.random.default_rng(202)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = m + int(rng.integers(0, 4))
        A = rng.standard_normal((m, n))
        Ap = right_pinv(A)
        assert np.allclose(A @ Ap, np.eye(m), atol=1e-9)
        assert np.allclose(Ap, A.T @ np.linalg.inv(A @ A.T), atol=1e-8)
    with pytest.raises(RankDeficient):
        right_pinv(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(RankDeficient):
        right_pinv(np.zeros((1, 3)))


def test_nullspace_projector_block_structure():
    m, n = 2, 3
    A = np.hstack([np.zeros((n, m)), np.eye(n)])
    expected = np.zeros((m + n, m + n))
    expected[:m, :m] = np.eye(m)
    assert np.allclose(nullspace_projector(A), expected, atol=1e-12)
    # square invertible matrix has a trivial null space
    assert np.allclose(nullspace_projector(np.array([[2.0, 1.0], [0.0, 3.0]])), 0.0, atol=1e-12)


def test_nullspace_projector_sweep():
    rng = np.random.default_rng(303)
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        cols = rows + int(rng.integers(1, 4))
        A = rng.standard_normal((rows, cols))
        P = nullspace_projector(A)
        assert np.allclose(P, P.T, atol=1e-11)
        assert np.allclose(P @ P, P, atol=1e-10)
        assert np.allclose(A @ P, 0.0, atol=1e-9)
        assert abs(np.trace(P) - (cols - np.linalg.matrix_rank(A))) < 1e-8


def test_sqrt_spd_examples_and_sweep():
    assert np.allclose(sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        M = random_spd(rng, n)
        H = sqrt_spd(M)
        assert np.allclose(H, H.T, atol=1e-11)
        assert np.allclose(H @ H, M, rtol=1e-10, atol=1e-10)
    with pytest.raises(NonSymmetric):
        sqrt_spd(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(NotPD):
        sqrt_spd(np.diag([1.0, -1.0]))
    with pytest.raises(NotPD):
        sqrt_spd(np.diag([1.0, 0.0]))


def test_initial_stabilizing_gain_paths():
    # already-stable dynamics get the zero gain verbatim
    K = initial_stabilizing_gain(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    assert np.array_equal(K, np.zeros((2, 2)))
    plant = benchmark_plant()
    K = initial_stabilizing_gain(plant.A, plant.B, plant.Q, plant.R)
    assert is_stabilizing(plant.A + plant.B @ K)
    with pytest.raises(NotStabilizing):
        initial_stabilizing_gain(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def _seed_steps(monkeypatch, A, B, Q, R):
    """initial_stabilizing_gain's result (or NotStabilizing) and the number
    of recursion steps it ran, counted by its one symmetrize call per step."""
    steps = []
    original = pgac.linalg.symmetrize
    with monkeypatch.context() as patch:
        patch.setattr(pgac.linalg, "symmetrize", lambda X: steps.append(1) or original(X))
        try:
            result = initial_stabilizing_gain(A, B, Q, R)
        except NotStabilizing as exc:
            result = exc
    return result, len(steps)


def test_seed_recursion_equals_full_horizon(monkeypatch):
    plant = benchmark_plant()
    cases = [(plant.A, plant.B, plant.Q, plant.R)]
    rng = np.random.default_rng(606)
    for _ in range(60):
        # open-loop unstable, so the recursion runs
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        cases.append((random_stable_f(rng, n, rng.uniform(1.0, 1.8)),
                      rng.standard_normal((n, m)), random_spd(rng, n), random_spd(rng, m)))
    for seed in range(12):
        est = batch_least_squares(simulate_record(plant, np.random.default_rng(seed), 20))
        cases.append((est.Ahat, est.Bhat, plant.Q, plant.R))
    # slow scalar recursion toward P* ~ 1e-3: P never repeats within 200 steps
    slow = (np.array([[1.0]]), np.array([[1.0]]), np.array([[1e-6]]), np.array([[1.0]]))
    cases.append(slow)
    compared = 0
    for A, B, Q, R in cases:
        try:
            K_ref, repeat = full_horizon_seed_gain(A, B, Q, R)
        except NotStabilizing:
            K_ref, repeat = None, None
        K, steps = _seed_steps(monkeypatch, A, B, Q, R)
        if K_ref is None:
            assert isinstance(K, NotStabilizing)
            continue
        assert np.array_equal(K, K_ref)
        if spectral_radius(A) < 1.0 - 1e-9:
            assert steps == 0
        else:
            assert steps == (repeat if repeat is not None else 200)
            compared += 1
    assert compared >= 60
    _, repeat = full_horizon_seed_gain(*slow)
    assert repeat is None and _seed_steps(monkeypatch, *slow)[1] == 200


def test_seed_recursion_stops_early_on_benchmark_estimate(monkeypatch):
    plant = benchmark_plant()
    est = batch_least_squares(simulate_record(plant, np.random.default_rng(1), 20))
    assert spectral_radius(est.Ahat) >= 1.0 - 1e-9  # the recursion runs
    K, steps = _seed_steps(monkeypatch, est.Ahat, est.Bhat, plant.Q, plant.R)
    assert steps < 20
    assert np.array_equal(K, full_horizon_seed_gain(est.Ahat, est.Bhat, plant.Q, plant.R)[0])


def test_riccati_solve_budget_and_lazy_value():
    plant = benchmark_plant()
    K_star, _ = optimal_gain(plant)
    cases = [(plant.A, plant.B, plant.Q, plant.R, None),
             (plant.A, plant.B, plant.Q, plant.R, 0.8 * K_star)]
    rng = np.random.default_rng(707)
    while len(cases) < 22:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        Q, R = random_spd(rng, n), random_spd(rng, m)
        try:
            initial_stabilizing_gain(A, B, Q, R)
        except NotStabilizing:
            continue
        cases.append((A, B, Q, R, None))
    for A, B, Q, R, K0 in cases:
        seed = initial_stabilizing_gain(A, B, Q, R) if K0 is None else K0
        gain, iterations, value, residual = eager_riccati_hewer(A, B, Q, R, seed)
        before = lyapunov_solve_count()
        sol = solve_riccati_hewer(A, B, Q, R, K0=K0)
        assert lyapunov_solve_count() - before == sol.iterations == iterations
        assert np.array_equal(sol.gain, gain)
        before = lyapunov_solve_count()
        P = sol.value_matrix
        assert lyapunov_solve_count() - before == 1
        assert sol.value_matrix is P and sol.residual == residual
        assert lyapunov_solve_count() - before == 1
        assert np.array_equal(P, value)
        # the residual alone pays the same single solve
        fresh = solve_riccati_hewer(A, B, Q, R, K0=K0)
        before = lyapunov_solve_count()
        assert fresh.residual == residual
        assert np.array_equal(fresh.value_matrix, value)
        assert lyapunov_solve_count() - before == 1


def test_riccati_failing_iterate_raises_not_stabilizing():
    # K0 = -0.5 stabilizes, but the iterates approach the optimum of a nearly
    # cost-free, marginally stable plant, whose closed loop misses the margin
    with pytest.raises(NotStabilizing):
        solve_riccati_hewer([[1 - 5e-10]], [[1]], [[1e-20]], [[1]], K0=[[-0.5]])
    it = hewer_iterates([[1 - 5e-10]], [[1]], [[1e-20]], [[1]], [[-0.5]])
    with pytest.raises(NotStabilizing):
        for _ in range(100):
            next(it)
    # the seed gain stabilizes with the margin, a later iterate does not
    A = np.array([[1.3573508255546507, -0.051431637470195364],
                  [-2.1540524430558903, 1.3100215119241474]])
    B = np.array([[-2.9671837099839435], [-0.7600587900644338]])
    Q, R = 1e-20 * np.eye(2), np.eye(1)
    assert is_stabilizing(A + B @ initial_stabilizing_gain(A, B, Q, R))
    with pytest.raises(NotStabilizing):
        solve_riccati_hewer(A, B, Q, R)


def test_riccati_scalar_anchor():
    a, b, q, r = 0.5, 1.0, 1.0, 1.0
    sol = solve_riccati_hewer(np.array([[a]]), np.array([[b]]), np.array([[q]]), np.array([[r]]))
    p_star = (1.0 + math.sqrt(65.0)) / 8.0
    k_star = -a * b * p_star / (r + b * b * p_star)
    assert abs(sol.value_matrix[0, 0] - p_star) < 1e-12
    assert abs(sol.gain[0, 0] - k_star) < 1e-12
    assert sol.iterations <= 50
    assert sol.residual < 1e-10


def test_riccati_memoryless_plant_is_exact():
    sol = solve_riccati_hewer(np.zeros((3, 3)), np.eye(3), np.eye(3), np.eye(3), K0=np.zeros((3, 3)))
    assert np.array_equal(sol.gain, np.zeros((3, 3)))
    assert np.array_equal(sol.value_matrix, np.eye(3))
    assert sol.iterations == 1
    assert sol.residual == 0.0


def test_riccati_error_paths():
    plant = benchmark_plant()
    with pytest.raises(NotStabilizing):
        solve_riccati_hewer(plant.A, plant.B, plant.Q, plant.R, K0=np.zeros((3, 3)))
    K_star, _ = optimal_gain(plant)
    with pytest.raises(NoConvergence):
        solve_riccati_hewer(plant.A, plant.B, plant.Q, plant.R, K0=0.8 * K_star, max_iter=1)


def test_riccati_matches_value_iteration():
    rng = np.random.default_rng(505)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        Q = random_spd(rng, n)
        R = random_spd(rng, m)
        try:
            sol = solve_riccati_hewer(A, B, Q, R)
        except NotStabilizing:
            continue  # backward recursion could not seed this draw; skip it
        P_ref = dare_value_iteration(A, B, Q, R, tol=1e-13)
        assert np.allclose(sol.value_matrix, P_ref, rtol=1e-8, atol=1e-8)
        G = R + B.T @ sol.value_matrix @ B
        K_stat = -np.linalg.solve(G, B.T @ sol.value_matrix @ A)
        assert np.allclose(sol.gain, K_stat, rtol=1e-8, atol=1e-9)


def test_hewer_iterates_from_rough_start():
    plant = benchmark_plant()
    K_star, ev = optimal_gain(plant)
    K0 = 0.8 * K_star
    it = hewer_iterates(plant.A, plant.B, plant.Q, plant.R, K0)
    pairs = [next(it) for _ in range(6)]
    assert np.array_equal(pairs[0][0], K0)
    # each P solves policy evaluation for its own gain
    for K, P in pairs:
        F = plant.A + plant.B @ K
        W = symmetrize(plant.Q + K.T @ plant.R @ K)
        assert np.allclose(P, F.T @ P @ F + W, atol=1e-8)
    costs = [lqr_cost(plant, K).cost for K, _ in pairs]
    assert all(c_next <= c_prev + 1e-12 for c_prev, c_next in zip(costs, costs[1:]))
    assert np.allclose(pairs[-1][0], K_star, atol=1e-9)
