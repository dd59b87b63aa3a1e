"""Independent reference computations used to pin down expected test values.

Everything in here is deliberately naive: central finite differences,
fixed-point value iteration, truncated matrix series.  Slow is fine --
these routines only exist so the fast library code has something honest
to be checked against.
"""

import math

import numpy as np

from pgac import (
    DataRecord,
    LinearQuadraticPlant,
    TrajectoryLog,
    advance,
    control_input,
    initialize,
    lqr_cost,
    optimal_gain,
    parameterize,
    regularized_direct_cost,
    regularized_direct_gradient,
    snr_reading,
    solve_dlyap_closed,
    solve_riccati_hewer,
    step,
)
from pgac.dataflow import ModelEstimate
from pgac.errors import InitialGainUnstable, NotPersistentlyExciting, NotStabilizing
from pgac.harness import NOISE_STREAM, OFFLINE_STREAM, PROBE_STREAM, trial_rng
from pgac.linalg import STABILITY_MARGIN, is_stabilizing, nullspace_projector, spectral_radius


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
        return solve_dlyap_closed((A + B @ K).T, 0.5 * (W + W.T))

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


def record_from_arrays(U0, X0, X1, W0=None):
    """Build a DataRecord by replaying column arrays through append."""
    U0 = np.atleast_2d(np.asarray(U0, dtype=float))
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    rec = DataRecord(U0.shape[0], X0.shape[0])
    for j in range(U0.shape[1]):
        w = None if W0 is None else np.asarray(W0, dtype=float)[:, j]
        rec.append(U0[:, j], X0[:, j], X1[:, j], w)
    return rec


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
    return record_from_arrays(U0, X0, X1, W0 if with_noise_log else None)


def identity_record(m, n):
    """Synthetic record whose sample covariance is exactly the identity."""
    d = m + n
    D = np.sqrt(float(d)) * np.eye(d)
    U0 = D[:m]
    X0 = D[m:]
    X1 = np.zeros((n, d))
    return record_from_arrays(U0, X0, X1, W0=np.zeros((n, d)))


def data_moment_natural_step(record, K, Q, R, eta, lam=0.0):
    """The natural policy step from data moments alone, with no model estimate:

        K - eta (Phi^-1 Phi^-1)_uu Ubar Pi grad_V J_lam(V) Sigma^-1,

    with V = Phi^-1 [K; I] and Pi the projector onto the null space of Xbar0.
    The null space is Phi^-1 [I; 0] applied to R^m, so (Phi^-1 Phi^-1)_uu
    Ubar Pi maps the V-gradient to the K-gradient, and Sigma^-1, the
    data-implied closed-loop covariance, makes it natural.
    """
    V = parameterize(record, K)
    grad = regularized_direct_gradient(record, V, Q, R, lam=lam)
    sigma = regularized_direct_cost(record, V, Q, R, lam=lam).sigma
    phi_inv_sq = record.phi_inv @ record.phi_inv
    projected = record.ubar @ nullspace_projector(record.xbar0) @ grad
    grad_K = phi_inv_sq[: record.m, : record.m] @ projected
    return K - eta * grad_K @ np.linalg.inv(sigma)


def per_step_monitor_trial(config, trial_index):
    """The trial protocol of :func:`pgac.run_trial` with the monitor run after
    every step: ``lqr_cost`` of the gain whenever an update moved it (inf
    cost and gap when the plant rejects it) and ``snr_reading`` of the record.
    The step time column is always 0.0.
    """
    plant = config.build_plant()
    cstar = optimal_gain(plant)[1].cost
    offline_rng = trial_rng(config.seed, trial_index, OFFLINE_STREAM)
    noise_rng = trial_rng(config.seed, trial_index, NOISE_STREAM)
    probe_rng = trial_rng(config.seed, trial_index, PROBE_STREAM)

    def cost_gap(K):
        try:
            cost = lqr_cost(plant, K).cost
        except NotStabilizing:
            return math.inf, math.inf
        return cost, (cost - cstar) / cstar

    record = DataRecord(plant.m, plant.n)
    x = np.zeros(plant.n)
    for _ in range(config.t0):
        u = config.sigma_u_offline * offline_rng.standard_normal(plant.m)
        w = config.sigma_w * noise_rng.standard_normal(plant.n)
        x_next, _ = step(plant, x, u, w)
        record.append(u, x, x_next, w)
        x = x_next
    rows, status, reason, initial_gap = [], "completed", None, math.inf
    try:
        state = initialize(config.controller, plant.Q, plant.R, record,
                           K_init=config.initial_gain)
    except (InitialGainUnstable, NotPersistentlyExciting) as exc:
        status, reason = "halted", f"initialization: {exc}"
    else:
        cost, gap = cost_gap(state.gain)
        initial_gap, measured = gap, state.gain
        while len(rows) < config.horizon and not np.linalg.norm(x) > config.divergence_threshold:
            e = probe_rng.standard_normal(plant.m)
            u = control_input(state, x, e)
            w = config.sigma_w * noise_rng.standard_normal(plant.n)
            x_next, _ = step(plant, x, u, w)
            advance(state, x, u, x_next, w)
            if state.gain is not measured:
                measured = state.gain
                cost, gap = cost_gap(measured)
            reading = snr_reading(state.record)
            rows.append((state.record.t, cost, gap, float(np.linalg.norm(x_next)),
                         reading.gamma, reading.delta, reading.snr, state.last_lambda,
                         state.last_eta, int(state.last_skipped), 0.0))
            x = x_next
        if np.linalg.norm(x) > config.divergence_threshold:
            status, reason = "halted", "diverged"
    return TrajectoryLog(
        method=config.controller.method, trial_index=trial_index, status=status,
        halt_reason=reason, initial_gap=initial_gap,
        final_gap=rows[-1][2] if rows else initial_gap, rows=rows,
    )


class OuterFormRecord:
    """The moment bookkeeping of :class:`pgac.DataRecord` kept the
    per-moment way: Phi, Xbar1 and Wbar as three arrays, each updated with
    its own ``np.outer``, and the Sherman-Morrison inverse likewise.  Same
    ``phi``, ``xbar1``, ``wbar``, ``phi_inv``, ``t`` and ``copy`` contract.
    """

    def __init__(self, m, n, reinvert_every=1000):
        self.m, self.n, self.t = m, n, 0
        self.phi = np.zeros((m + n, m + n))
        self.xbar1 = np.zeros((n, m + n))
        self.wbar = np.zeros((n, m + n))
        self._phi_inv = None
        self._updates_since_inversion = 0
        self._reinvert_every = reinvert_every

    def copy(self):
        other = OuterFormRecord(self.m, self.n, self._reinvert_every)
        other.t = self.t
        other.phi, other.xbar1, other.wbar = self.phi.copy(), self.xbar1.copy(), self.wbar.copy()
        other._phi_inv = None if self._phi_inv is None else self._phi_inv.copy()
        other._updates_since_inversion = self._updates_since_inversion
        return other

    def append(self, u, x, x_next, w=None):
        phi = np.concatenate([u, x])
        t = self.t
        P = (t * self.phi + np.outer(phi, phi)) / (t + 1)
        self.phi = 0.5 * (P + P.T)
        self.xbar1 = (t * self.xbar1 + np.outer(x_next, phi)) / (t + 1)
        if w is not None:
            self.wbar = (t * self.wbar + np.outer(w, phi)) / (t + 1)
        else:
            self.wbar = t * self.wbar / (t + 1)
        self.t = t + 1
        if self._phi_inv is not None:
            ainv = self._phi_inv / t
            v = ainv @ phi
            denom = 1.0 + float(phi @ v)
            S = (t + 1) * (ainv - np.outer(v, v) / denom)
            self._phi_inv = 0.5 * (S + S.T)
            self._updates_since_inversion += 1
            if self._updates_since_inversion >= self._reinvert_every:
                self._invert_dense()

    def _invert_dense(self):
        s = np.linalg.svd(self.phi, compute_uv=False)
        self._phi_inv = None
        if self.t >= self.m + self.n and s[-1] > 1e-12 * max(s[0], 1.0):
            inv = np.linalg.inv(self.phi)
            self._phi_inv = 0.5 * (inv + inv.T)
        self._updates_since_inversion = 0

    @property
    def phi_inv(self):
        if self._phi_inv is None:
            self._invert_dense()
        if self._phi_inv is None:
            raise NotPersistentlyExciting("sample covariance is singular")
        return self._phi_inv


def outer_form_rls_update(estimate, record, u, x, x_next):
    """:func:`pgac.rls_update` with its rank-one step taken by ``np.outer``."""
    phi = np.concatenate([u, x])
    theta = estimate.theta
    gain_row = record.phi_inv @ phi
    denom = record.t + float(phi @ gain_row)
    theta_new = theta + np.outer(x_next - theta @ phi, gain_row) / denom
    return ModelEstimate.from_theta(theta_new, record.m)
