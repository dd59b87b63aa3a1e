"""Independent reference computations used to pin down expected test values.

Everything in here is deliberately naive: central finite differences,
fixed-point value iteration, truncated matrix series.  Slow is fine --
these routines only exist so the fast library code has something honest
to be checked against.
"""

import numpy as np

from pgac import (
    DataRecord,
    LinearQuadraticPlant,
    optimal_gain,
    solve_dlyap_cost,
    solve_riccati_hewer,
)
from pgac.errors import NotStabilizing
from pgac.linalg import STABILITY_MARGIN, is_stabilizing, spectral_radius


def central_fd_gradient(f, K, h=1e-6):
    """Entrywise central finite-difference gradient of a scalar function of K."""
    K = np.asarray(K, dtype=float)
    G = np.zeros_like(K)
    for i in range(K.shape[0]):
        for j in range(K.shape[1]):
            Kp = K.copy()
            Km = K.copy()
            Kp[i, j] += h
            Km[i, j] -= h
            G[i, j] = (f(Kp) - f(Km)) / (2.0 * h)
    return G


def dare_value_iteration(A, B, Q, R, tol=1e-12, max_iter=2_000_000):
    """Fixed-point Riccati recursion P <- Q + A'PA - A'PB (R+B'PB)^-1 B'PA."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    P = np.asarray(Q, dtype=float).copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        gain_term = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ gain_term
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) < tol:
            return P_next
        P = P_next
    raise RuntimeError("value iteration did not settle")


def full_horizon_seed_gain(A, B, Q, R, horizon=200, margin=STABILITY_MARGIN):
    """Finite-horizon backward recursion seeded at Q, run for every one of
    ``horizon`` steps with no early stop.

    Returns (K, repeat) with K the receding-horizon gain (the zero gain for
    Schur-stable A) and ``repeat`` the first step whose P equals its
    predecessor bit for bit, or None.  Raises ``NotStabilizing`` when K does
    not stabilize (A, B).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    if spectral_radius(A) < 1.0 - margin:
        return np.zeros((m, n)), None
    P = np.asarray(Q, dtype=float).copy()
    K = np.zeros((m, n))
    repeat = None
    for step in range(1, horizon + 1):
        G = R + B.T @ P @ B
        K = -np.linalg.solve(G, B.T @ P @ A)
        F = A + B @ K
        P_next = Q + K.T @ R @ K + F.T @ P @ F
        P_next = 0.5 * (P_next + P_next.T)
        if repeat is None and np.array_equal(P_next, P):
            repeat = step
        P = P_next
    if not is_stabilizing(A + B @ K, margin):
        raise NotStabilizing(f"{horizon}-step recursion did not stabilize (A, B)")
    return K, repeat


def eager_riccati_hewer(A, B, Q, R, K0, tol=1e-10, max_iter=500):
    """Policy iteration that evaluates every gain it forms, the converged one
    included, through the checked public Lyapunov solver.

    Returns (gain, iterations, value matrix, residual) with the same
    convergence test as :func:`pgac.solve_riccati_hewer`.
    """
    A, B, Q, R = (np.asarray(M, dtype=float) for M in (A, B, Q, R))

    def evaluate(K):
        W = Q + K.T @ R @ K
        return solve_dlyap_cost(A + B @ K, 0.5 * (W + W.T))

    K = np.asarray(K0, dtype=float)
    P = evaluate(K)
    for i in range(1, max_iter + 1):
        K_next = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P = evaluate(K_next)
        if np.linalg.norm(K_next - K) < tol:
            G = R + B.T @ P @ B
            defect = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(G, B.T @ P @ A) - P
            return K_next, i, P, float(np.linalg.norm(defect))
        K = K_next
    raise RuntimeError("policy iteration did not converge")


def series_dlyap_closed(F, W, tol=1e-14, max_terms=200_000):
    """Truncated series sum_k F^k W (F')^k for X = F X F' + W."""
    F = np.asarray(F, dtype=float)
    term = np.asarray(W, dtype=float).copy()
    X = term.copy()
    for _ in range(max_terms):
        term = F @ term @ F.T
        X = X + term
        if np.max(np.abs(term)) < tol:
            return X
    raise RuntimeError("series did not converge; is F stable?")


def series_dlyap_cost(F, W, tol=1e-14, max_terms=200_000):
    """Truncated series for the transposed-direction equation X = F' X F + W."""
    return series_dlyap_closed(np.asarray(F, dtype=float).T, W, tol, max_terms)


def tangent_basis(xbar0, rcond=1e-10):
    """Orthonormal basis (columns) for the null space of the state data block."""
    xbar0 = np.asarray(xbar0, dtype=float)
    _, s, vt = np.linalg.svd(xbar0)
    cutoff = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


def tangent_fd_gradient(f, V, N, h=1e-6):
    """Finite-difference gradient of f restricted to the feasible tangent space.

    Probes f along the orthonormal directions N[:, i] e_j', then reassembles
    the tangent component.  Equals the nullspace projection of the full
    Euclidean gradient when f is smooth.
    """
    V = np.asarray(V, dtype=float)
    n_cols = V.shape[1]
    G = np.zeros_like(V)
    for i in range(N.shape[1]):
        for j in range(n_cols):
            direction = np.outer(N[:, i], np.eye(n_cols)[j])
            fd = (f(V + h * direction) - f(V - h * direction)) / (2.0 * h)
            G += fd * direction
    return G


def random_scalar_plant(rng):
    """One-dimensional plant with a mix of stable and unstable dynamics."""
    a = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.4)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    q = rng.uniform(0.2, 5.0)
    r = rng.uniform(0.05, 2.0)
    return LinearQuadraticPlant(np.array([[a]]), np.array([[b]]),
                                np.array([[q]]), np.array([[r]]))


def random_stabilizing_gain(plant, rng, spread=0.5, radius=0.95):
    """Optimal gain plus a random perturbation, shrunk until comfortably stable."""
    K_star, _ = optimal_gain(plant)
    delta = rng.standard_normal(K_star.shape)
    delta /= max(np.linalg.norm(delta), 1e-12)
    s = spread
    for _ in range(60):
        K = K_star + s * delta
        if is_stabilizing(plant.A + plant.B @ K, margin=1.0 - radius):
            return K
        s *= 0.5
    return K_star


def gain_for_estimate(estimate, Q, R, rng, spread=0.3, radius=0.95):
    """A gain stabilizing the *estimated* dynamics, perturbed away from optimal."""
    sol = solve_riccati_hewer(estimate.Ahat, estimate.Bhat, Q, R)
    delta = rng.standard_normal(sol.gain.shape)
    delta /= max(np.linalg.norm(delta), 1e-12)
    s = spread
    for _ in range(60):
        K = sol.gain + s * delta
        if is_stabilizing(estimate.Ahat + estimate.Bhat @ K, margin=1.0 - radius):
            return K
        s *= 0.5
    return sol.gain


def simulate_columns(plant, rng, t, sigma_u=1.0, sigma_w=1.0):
    """Open-loop rollout from the origin as column arrays (U0, X0, X1, W0)."""
    U0 = np.zeros((plant.m, t))
    X0 = np.zeros((plant.n, t))
    X1 = np.zeros((plant.n, t))
    W0 = np.zeros((plant.n, t))
    x = np.zeros(plant.n)
    for j in range(t):
        u = sigma_u * rng.standard_normal(plant.m)
        w = sigma_w * rng.standard_normal(plant.n)
        x_next = plant.A @ x + plant.B @ u + w
        U0[:, j], X0[:, j], X1[:, j], W0[:, j] = u, x, x_next, w
        x = x_next
    return U0, X0, X1, W0


def simulate_record(plant, rng, t, sigma_u=1.0, sigma_w=1.0, with_noise_log=True):
    """Open-loop rollout from the origin, logged into a fresh DataRecord."""
    U0, X0, X1, W0 = simulate_columns(plant, rng, t, sigma_u, sigma_w)
    return DataRecord.from_arrays(U0, X0, X1, W0 if with_noise_log else None)


def identity_record(m, n):
    """Synthetic record whose sample covariance is exactly the identity."""
    d = m + n
    D = np.sqrt(float(d)) * np.eye(d)
    U0 = D[:m]
    X0 = D[m:]
    X1 = np.zeros((n, d))
    return DataRecord.from_arrays(U0, X0, X1, W0=np.zeros((n, d)))
