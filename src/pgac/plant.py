"""Linear-quadratic plant model: simulation step, exact LQR cost/gradient,
optimal gain, and strong-stability certificates.

The feedback convention throughout the package is u = K x (no built-in minus
sign), so the certainty-equivalence optimal gain is
K = -(R + B'PB)^{-1} B'PA.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CertificateViolated, DimensionMismatch, NotStabilizing, RankDeficient
from .linalg import (
    _solve_dlyap_stable,
    is_stabilizing,
    solve_riccati_hewer,
    spectral_radius,
    sqrt_spd,
    symmetrize,
)


@dataclass
class CostEvaluation:
    """LQR cost of a fixed gain together with its Lyapunov by-products.

    cost = trace((Q + K'RK) sigma) = trace(value), where sigma is the
    stationary closed-loop state covariance under unit process noise and
    value the policy-evaluation (value) matrix.
    """

    cost: float
    sigma: np.ndarray
    value: np.ndarray


@dataclass
class StabilityCertificate:
    """Witness (kappa, alpha, H, L) that a gain is strongly stable.

    Satisfies A + BK = H L H^{-1} with ||L|| <= 1 - alpha,
    ||H|| ||H^{-1}|| <= kappa and ||K|| <= kappa.
    """

    kappa: float
    alpha: float
    H: np.ndarray
    L: np.ndarray


def _controllability_rank(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    s = np.linalg.svd(ctrb, compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0]))


class LinearQuadraticPlant:
    """Discrete-time plant x+ = Ax + Bu + w with quadratic stage cost.

    Validates shapes, symmetry/positive-definiteness of the weights and
    controllability of (A, B) at construction; instances are treated as
    immutable afterwards.
    """

    def __init__(self, A, B, Q, R):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        Q = np.array(Q, dtype=float)
        R = np.array(R, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise DimensionMismatch(f"B must be ({n}, m), got {B.shape}")
        m = B.shape[1]
        if Q.shape != (n, n):
            raise DimensionMismatch(f"Q must be ({n}, {n}), got {Q.shape}")
        if R.shape != (m, m):
            raise DimensionMismatch(f"R must be ({m}, {m}), got {R.shape}")
        # sqrt_spd raises NonSymmetric / NotPD on bad weights
        self.sqrt_Q = sqrt_spd(Q)
        self.sqrt_R = sqrt_spd(R)
        rank = _controllability_rank(A, B)
        if rank < n:
            raise RankDeficient(
                f"(A, B) is not controllable: controllability matrix rank {rank} < {n}"
            )
        self.A = A
        self.B = B
        self.Q = symmetrize(Q)
        self.R = symmetrize(R)
        self.n = n
        self.m = m
        self._optimal = None

    def __repr__(self):
        return f"LinearQuadraticPlant(n={self.n}, m={self.m})"


def step(plant, x, u, w):
    """One simulation step; returns (x_next, z) with z the weighted stage
    output [sqrt(Q) x; sqrt(R) u], so that ||z||^2 is the stage cost.  The
    arguments may carry a leading trial axis, for trials stepped together."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    lead = x.shape[:-1]
    if x.shape != lead + (plant.n,) or u.shape != lead + (plant.m,) or w.shape != x.shape:
        raise DimensionMismatch(
            f"expected shapes x ({plant.n},), u ({plant.m},), w ({plant.n},); "
            f"got {x.shape}, {u.shape}, {w.shape}"
        )
    if lead:
        # each trial's products as the matrix times its column, bitwise the
        # matrix-vector products of that trial alone
        x_next = (plant.A @ x[..., None])[..., 0] + (plant.B @ u[..., None])[..., 0] + w
        z = np.concatenate([(plant.sqrt_Q @ x[..., None])[..., 0],
                            (plant.sqrt_R @ u[..., None])[..., 0]], axis=-1)
        return x_next, z
    x_next = plant.A @ x + plant.B @ u + w
    z = np.concatenate([plant.sqrt_Q @ x, plant.sqrt_R @ u])
    return x_next, z


def _stacked_cost(plant, K):
    # Closed loops F, stage weights W and costs of a (k, m, n) stack of
    # gains, with the covariances sigma of the gains that stabilize the plant
    # (in stack order) from one stacked Lyapunov solve, or none at all when
    # no gain does.  A cost is inf where sigma is missing.
    F = plant.A + plant.B @ K
    stable = is_stabilizing(F)
    W = symmetrize(plant.Q + K.swapaxes(-1, -2) @ plant.R @ K)
    cost = np.full(len(K), np.inf)
    sigma = None
    if stable.any():
        sigma = _solve_dlyap_stable(F[stable], np.eye(plant.n))
        cost[stable] = np.trace(W[stable] @ sigma, axis1=-2, axis2=-1)
    return F, W, cost, sigma


def true_costs(plant, gains):
    """Infinite-horizon average LQR cost of each gain in a (k, m, n) stack,
    inf for a gain that does not stabilize the plant with the standard margin.

    Costs the stabilizing gains with one stacked Lyapunov solve (none when
    no gain stabilizes); each cost is bitwise the one :func:`lqr_cost` gives.
    """
    return _stacked_cost(plant, np.asarray(gains, dtype=float))[2]


def lqr_cost(plant, K):
    """Infinite-horizon average LQR cost of the static feedback u = Kx.

    Performs two Lyapunov solves: the state covariance sigma, which gives
    the cost as trace((Q + K'RK) sigma), and the value matrix.  Raises
    ``NotStabilizing`` when K fails to stabilize the plant.
    """
    F, W, cost, sigma = _stacked_cost(plant, np.asarray(K, dtype=float)[None])
    if sigma is None:
        raise NotStabilizing(
            f"gain gives closed-loop spectral radius {spectral_radius(F[0]):.6f}"
        )
    value = _solve_dlyap_stable(F[0].T, W[0])
    return CostEvaluation(cost=float(cost[0]), sigma=sigma[0], value=value)


def exact_gradient(plant, K):
    """Policy gradient of the LQR cost, 2((R + B'PB)K + B'PA) Sigma."""
    K = np.asarray(K, dtype=float)
    ev = lqr_cost(plant, K)
    B, R = plant.B, plant.R
    E = (R + B.T @ ev.value @ B) @ K + B.T @ ev.value @ plant.A
    return 2.0 * E @ ev.sigma


def optimal_gain(plant):
    """Optimal LQR gain and its cost evaluation, solved by policy iteration.

    The initial stabilizing gain is constructed automatically (zero gain for
    stable A, finite-horizon backward recursion otherwise).  The result is
    cached on the plant.
    """
    if plant._optimal is None:
        sol = solve_riccati_hewer(plant.A, plant.B, plant.Q, plant.R)
        plant._optimal = (sol.gain, lqr_cost(plant, sol.gain))
    gain, ev = plant._optimal
    return gain.copy(), ev


def strong_stability_certificate(plant, K, tol=1e-8):
    """Construct and verify a (kappa, alpha) strong-stability certificate.

    H = Sigma^{1/2}, L = H^{-1}(A + BK)H, kappa = sqrt(C(K)/min eigenvalue of
    the weights) floored at 1, alpha = 1 - sqrt(1 - 1/kappa^2).  All defining
    inequalities and the similarity reconstruction are re-checked; a failure
    raises ``CertificateViolated``.
    """
    K = np.asarray(K, dtype=float)
    ev = lqr_cost(plant, K)
    sigma_floor = min(
        float(np.linalg.eigvalsh(plant.R)[0]), float(np.linalg.eigvalsh(plant.Q)[0])
    )
    kappa = max(1.0, float(np.sqrt(ev.cost / sigma_floor)))
    alpha = 1.0 - np.sqrt(max(0.0, 1.0 - 1.0 / kappa**2))
    H = sqrt_spd(ev.sigma)
    F = plant.A + plant.B @ K
    L = np.linalg.solve(H, F @ H)

    recon = H @ L @ np.linalg.solve(H, np.eye(plant.n))
    scale = max(1.0, float(np.linalg.norm(F)))
    checks = {
        "reconstruction": np.linalg.norm(recon - F) <= tol * scale,
        "contraction": np.linalg.norm(L, 2) <= 1.0 - alpha + tol,
        "conditioning": np.linalg.cond(H) <= kappa * (1.0 + tol),
        "gain_bound": np.linalg.norm(K, 2) <= kappa * (1.0 + tol),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise CertificateViolated(f"certificate checks failed: {', '.join(failed)}")
    return StabilityCertificate(kappa=kappa, alpha=alpha, H=H, L=L)


def gradient_dominance_gap(plant, K):
    """Slack mu ||grad C(K)||_F^2 - (C(K) - C*) of the gradient-dominance
    inequality; nonnegative (up to roundoff) for every stabilizing gain."""
    _, opt = optimal_gain(plant)
    mu = float(np.linalg.norm(opt.sigma, 2)) / float(np.linalg.eigvalsh(plant.R)[0])
    grad = exact_gradient(plant, K)
    cost = lqr_cost(plant, K).cost
    return mu * float(np.linalg.norm(grad)) ** 2 - (cost - opt.cost)
