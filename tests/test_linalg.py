import math
import warnings

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
    solve_dlyap_closed,
    solve_riccati_hewer,
    spectral_radius,
    sqrt_spd,
)
from pgac.errors import NoConvergence, NonSymmetric, NotPD, NotStabilizing, NotStable
from pgac.linalg import _solve_dlyap_stable, is_stabilizing, symmetrize
from pgac.plant import true_costs


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
    assert np.allclose(solve_dlyap_closed(F.T, np.eye(2)), expected, atol=1e-12)


def test_dlyap_matches_truncated_series():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        F = random_stable_f(rng, n, rng.uniform(0.3, 0.95))
        W = random_spd(rng, n)
        X = solve_dlyap_closed(F, W)
        assert np.allclose(X, series_dlyap_closed(F, W), rtol=1e-8, atol=1e-10)
        assert np.allclose(X, F @ X @ F.T + W, rtol=1e-9, atol=1e-9)
        Y = solve_dlyap_closed(F.T, W)
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
        solve_dlyap_closed((1.5 * np.eye(2)).T, np.eye(2))


def test_lyapunov_solve_counter_increments():
    F = 0.5 * np.eye(2)
    before = lyapunov_solve_count()
    solve_dlyap_closed(F, np.eye(2))
    assert lyapunov_solve_count() == before + 1
    solve_dlyap_closed(F.T, np.eye(2))
    assert lyapunov_solve_count() == before + 2


def test_spectral_radius_benchmark():
    A = benchmark_plant().A
    assert abs(spectral_radius(A) - (1.01 + 0.01 * math.sqrt(2.0))) < 1e-12
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))


def test_stacked_kernels_equal_per_matrix_calls():
    rng = np.random.default_rng(77)
    for n in (1, 3, 5, 12):
        for k in (1, 7, 100):
            F = np.stack([random_stable_f(rng, n, rng.uniform(0.1, 0.99)) for _ in range(k)])
            W = np.stack([random_spd(rng, n) for _ in range(k)])
            rho = spectral_radius(F)
            assert rho.shape == (k,)
            before = lyapunov_solve_count()
            X = _solve_dlyap_stable(F, W)
            shared = _solve_dlyap_stable(F, np.eye(n))  # one W for every F
            assert lyapunov_solve_count() == before + 2  # a stacked call counts once
            assert X.shape == shared.shape == (k, n, n)
            for i in range(k):
                assert rho[i] == spectral_radius(F[i])
                assert np.array_equal(X[i], _solve_dlyap_stable(F[i], W[i]))
                assert np.array_equal(shared[i], _solve_dlyap_stable(F[i], np.eye(n)))
    # the 2-D forms keep their types
    assert isinstance(spectral_radius(0.5 * np.eye(2)), float)
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((4, 2, 3)))


def test_stacked_solve_right_hand_side_is_never_one_rank_short(monkeypatch):
    # numpy 1.x (still allowed by pyproject) treats a right-hand side with
    # one dimension fewer than the left-hand side as a stack of vectors, and
    # then rejects the (n^2, 1) column of a shared W against a stack of F.
    # No solve may hand numpy a right-hand side one dimension short of its
    # left-hand side; any other rank both numpy generations read as a stack
    # of matrices.
    shapes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append((a.ndim, b.ndim)) or solve(a, b))
    rng = np.random.default_rng(78)
    F = np.stack([random_stable_f(rng, 3, 0.9) for _ in range(4)])
    W = random_spd(rng, 3)
    for f, w in ((F, W), (F, np.stack([W] * 4)), (F[0], W), (F[0], np.stack([W] * 4))):
        X = _solve_dlyap_stable(f, w)
        assert X.shape == np.broadcast_shapes(f.shape, w.shape)
        for i in range(len(X) if X.ndim == 3 else 0):
            assert np.array_equal(X[i], _solve_dlyap_stable(F[i] if f.ndim == 3 else f, W))
    assert shapes and all(b != a - 1 for a, b in shapes)
    # the monitor's call: a stack of closed loops against one identity
    del shapes[:]
    plant = benchmark_plant()
    K_star, _ = optimal_gain(plant)
    assert np.isfinite(true_costs(plant, K_star + 0.01 * rng.standard_normal((5,) + K_star.shape))).all()
    assert shapes and all(b != a - 1 for a, b in shapes)


def _straddling_matrices(rng, n, count, bound):
    # count random n x n matrices, from a dense, a strongly non-normal
    # (upper triangular) and an orthogonal family, scaled in turn so that
    # ||F||_F sits just below and just above bound / 2 and the spectral
    # radius just below and just above bound
    mats = np.empty((count, n, n))
    for i in range(count):
        G = rng.standard_normal((n, n))
        family = (i // 4) % 3
        if family == 1:
            G = np.triu(G) + 10.0 * np.triu(rng.standard_normal((n, n)), 1)
        elif family == 2:
            G = np.linalg.qr(G)[0]
        side = 1.0 + (1 if i % 4 >= 2 else -1) * rng.uniform(1e-3, 0.1)
        if i % 2 == 0:
            mats[i] = G * (side * bound / 2 / np.linalg.norm(G))
        else:
            mats[i] = G * (side * bound / spectral_radius(G))
    return mats


def test_is_stabilizing_margin(monkeypatch):
    assert is_stabilizing(0.5 * np.eye(2))
    assert not is_stabilizing(np.eye(2))
    assert not is_stabilizing(1.5 * np.eye(2))
    # custom margin: radius 0.97 fails a 0.05 margin but passes the default
    F = 0.97 * np.eye(2)
    assert is_stabilizing(F)
    assert not is_stabilizing(F, margin=0.05)
    # the norm certificate never changes the spectral radius's verdict:
    # 12,480 matrices, one by one and in stacks of 1, 7 and 100
    rng = np.random.default_rng(77)
    for margin in (1e-9, 0.05, 0.5, 1.0, 1.5):
        bound = 1.0 - margin
        for n in range(1, 13):
            for k in (1, 7, 100, 100):
                S = _straddling_matrices(rng, n, k, max(bound, 0.25))
                expected = spectral_radius(S) < bound
                got = is_stabilizing(S, margin)
                assert got.dtype == bool and np.array_equal(got, expected)
                for F, verdict in zip(S, expected):
                    assert is_stabilizing(F, margin) is bool(verdict)
                certified = np.linalg.norm(S, axis=(-2, -1)) < bound / 2
                if k > 1 and bound > 0:  # the stack mixes both kinds
                    assert certified.any() and not certified.all()
    # only uncertified matrices reach the eigensolver
    calls = []
    radius = pgac.linalg.spectral_radius
    monkeypatch.setattr(pgac.linalg, "spectral_radius",
                        lambda F: calls.append(np.shape(F)) or radius(F))
    small = 0.1 * np.eye(3)
    assert is_stabilizing(small) and is_stabilizing(np.stack([small] * 5)).all()
    assert calls == []
    mixed = np.stack([small, np.eye(3), small, 0.9 * np.eye(3)])
    assert is_stabilizing(mixed).tolist() == [True, False, True, True]
    assert calls == [(2, 3, 3)]
    # a rank-one F with ||F||_F exactly bound / 2 is not certified, and no F
    # is when the bound is not positive
    edge = np.zeros((3, 3))
    edge[0, 0] = (1.0 - 0.05) / 2
    assert is_stabilizing(edge, margin=0.05)
    assert not is_stabilizing(small, margin=1.0)
    assert not is_stabilizing(small, margin=1.5)
    assert not is_stabilizing(np.stack([np.eye(3)] * 2)).any()
    assert calls[1:] == [(3, 3)] * 3 + [(2, 3, 3)]
    monkeypatch.undo()
    # a non-finite F is never certified, so the eigensolver rejects it
    for bad in (np.nan, np.inf, -np.inf):
        F = 0.1 * np.eye(3)
        F[1, 2] = bad
        for margin in (1e-9, 1.5):
            with pytest.raises(np.linalg.LinAlgError):
                is_stabilizing(F, margin)
            with pytest.raises(np.linalg.LinAlgError):
                is_stabilizing(np.stack([small, F]), margin)
    with pytest.raises(ValueError):
        is_stabilizing(np.zeros((2, 3)))


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
    # an unstabilizable mode fast enough to overflow P within the horizon:
    # the recursion stops at the first non-finite P, before numpy warns
    for A, B in ((np.array([[100.0]]), np.array([[0.0]])),
                 (np.diag([100.0, 0.5]), np.array([[0.0], [1.0]]))):
        n, m = B.shape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotStabilizing):
                initial_stabilizing_gain(A, B, np.eye(n), np.eye(m))
            with pytest.raises(NotStabilizing):
                solve_riccati_hewer(A, B, np.eye(n), np.eye(m))


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


def test_riccati_error_paths(monkeypatch):
    plant = benchmark_plant()
    with pytest.raises(NotStabilizing):
        solve_riccati_hewer(plant.A, plant.B, plant.Q, plant.R, K0=np.zeros((3, 3)))
    K_star, _ = optimal_gain(plant)
    monkeypatch.setattr(pgac.linalg, "RICCATI_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        solve_riccati_hewer(plant.A, plant.B, plant.Q, plant.R, K0=0.8 * K_star)


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


def test_stacked_kernels_equal_their_slices():
    rng = np.random.default_rng(23)
    # null-space projectors of a stack whose matrices differ in rank
    A = rng.standard_normal((9, 3, 6))
    A[2, 2] = A[2, 0]  # rank 2
    A[5, 1:] = 0.0  # rank 1
    A[7] = 0.0  # rank 0: the projector is the identity
    for k in (1, 7, 9):
        P = nullspace_projector(A[:k])
        assert all(np.array_equal(P[i], nullspace_projector(A[i])) for i in range(k))
    assert np.array_equal(nullspace_projector(A[7]), np.eye(6))
    # a singular slice fails alone; the others keep their own answers
    S = rng.standard_normal((6, 4, 4))
    S[3, :, 0] = 0.0
    inv, ok = pgac.linalg.each_slice(np.linalg.inv, S)
    assert ok.tolist() == [True, True, True, False, True, True]
    assert all(np.array_equal(X, np.linalg.inv(S[i])) for X, i in zip(inv, np.flatnonzero(ok)))
    assert pgac.linalg.each_slice(np.linalg.inv, np.delete(S, 3, axis=0))[1] is None
    with pytest.raises(np.linalg.LinAlgError):
        pgac.linalg.each_slice(np.linalg.inv, S[3])


def test_policy_iterations_equal_riccati_solves_of_each_trial():
    # warm starts from scaled optimal gains of perturbed benchmark models:
    # near ones converge, far ones fail to stabilize, one is not finite
    plant = benchmark_plant()
    rng = np.random.default_rng(5)
    A = plant.A + 0.05 * rng.standard_normal((12, 3, 3))
    B = plant.B + 0.05 * rng.standard_normal((12, 3, 3))
    K = np.stack([solve_riccati_hewer(a, b, plant.Q, plant.R).gain for a, b in zip(A, B)])
    K *= rng.choice([0.5, 0.9, 1.1, 3.0], size=12)[:, None, None]
    K[4] = np.nan
    for k in (1, 7, 12):
        gains, status = pgac.linalg.policy_iterations(A[:k], B[:k], plant.Q, plant.R, K[:k])
        for i in range(k):
            try:
                sol = solve_riccati_hewer(A[i], B[i], plant.Q, plant.R, K0=K[i])
            except NotStabilizing:
                assert status[i] == pgac.linalg.NOT_STABILIZING
            except np.linalg.LinAlgError:
                assert status[i] == pgac.linalg.SOLVE_FAILED
            else:
                assert status[i] == pgac.linalg.CONVERGED
                assert np.array_equal(gains[i], sol.gain)
            assert np.isnan(gains[i]).all() == (status[i] != pgac.linalg.CONVERGED)
    assert set(status.tolist()) == {pgac.linalg.CONVERGED, pgac.linalg.NOT_STABILIZING,
                                    pgac.linalg.SOLVE_FAILED}
