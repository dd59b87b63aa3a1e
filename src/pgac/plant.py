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


class CostEvaluation:
    """LQR cost of a fixed gain together with its Lyapunov by-products.

    cost = trace((Q + K'RK) sigma) = trace(value), where sigma is the
    stationary closed-loop state covariance under unit process noise and
    value the policy-evaluation (value) matrix.

    ``value`` may be given, or left to be solved from the closed loop F and
    the stage weight W (value = W + F' value F) on its first read and kept
    after that; an evaluation that is never asked for its value never pays
    that solve.  Either form pickles.
    """

    def __init__(self, cost, sigma, value=None, closed_loop=None, weight=None):
        self.cost = cost
        self.sigma = sigma
        self._value = value
        self._closed_loop = closed_loop
        self._weight = weight

    @property
    def value(self):
        if self._value is None:
            self._value = _solve_dlyap_stable(self._closed_loop.T, self._weight)
        return self._value


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


@dataclass
class SequentialStabilityReport:
    """Outcome of checking a gain sequence against sequential stability.

    ``condition_passes`` / ``condition_failures`` count, per condition
    ("i": policy bounds, "ii": transform bounds, "iii": consecutive drift),
    how many gains (or consecutive pairs, for "iii") satisfied it.
    ``first_violation`` is (condition, index) for the earliest failure, with
    the index of the first gain of the pair for condition "iii".
    """

    passed: bool
    checked: int
    condition_passes: dict
    condition_failures: dict
    first_violation: tuple | None


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
    output [sqrt(Q) x; sqrt(R) u], so that ||z||^2 is the stage cost."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != (plant.n,) or u.shape != (plant.m,) or w.shape != (plant.n,):
        raise DimensionMismatch(
            f"expected shapes x ({plant.n},), u ({plant.m},), w ({plant.n},); "
            f"got {x.shape}, {u.shape}, {w.shape}"
        )
    x_next = plant.A @ x + plant.B @ u + w
    z = np.concatenate([plant.sqrt_Q @ x, plant.sqrt_R @ u])
    return x_next, z


def lqr_cost(plant, K):
    """Infinite-horizon average LQR cost of the static feedback u = Kx.

    Performs one Lyapunov solve (the state covariance sigma, which gives the
    cost as trace((Q + K'RK) sigma)); the value matrix costs a second solve,
    made on the first read of ``.value`` and not at all otherwise.  Raises
    ``NotStabilizing`` when K fails to stabilize the plant.
    """
    K = np.asarray(K, dtype=float)
    F = plant.A + plant.B @ K
    if not is_stabilizing(F):
        raise NotStabilizing(
            f"gain gives closed-loop spectral radius {spectral_radius(F):.6f}"
        )
    W = symmetrize(plant.Q + K.T @ plant.R @ K)
    sigma = _solve_dlyap_stable(F, np.eye(F.shape[0]))
    cost = float(np.trace(W @ sigma))
    return CostEvaluation(cost=cost, sigma=sigma, closed_loop=F, weight=W)


def exact_gradient(plant, K):
    """Policy gradient of the LQR cost, 2((R + B'PB)K + B'PA) Sigma."""
    K = np.asarray(K, dtype=float)
    ev = lqr_cost(plant, K)
    B, R = plant.B, plant.R
    E = (R + B.T @ ev.value @ B) @ K + B.T @ ev.value @ plant.A
    return 2.0 * E @ ev.sigma


def optimal_gain(plant, tol=1e-10, max_iter=500):
    """Optimal LQR gain and its cost evaluation, solved by policy iteration.

    The initial stabilizing gain is constructed automatically (zero gain for
    stable A, finite-horizon backward recursion otherwise).  The result is
    cached on the plant.
    """
    if plant._optimal is None:
        sol = solve_riccati_hewer(
            plant.A, plant.B, plant.Q, plant.R, K0=None, tol=tol, max_iter=max_iter
        )
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


def sequential_stability_check(plant, gains, kappa, alpha, tol=1e-9):
    """Check a gain sequence against the three sequential-stability conditions.

    (i)  ||L_t|| <= 1 - alpha and ||K_t|| <= kappa,
    (ii) ||H_t|| <= kappa and ||H_t^{-1}|| <= 1,
    (iii) ||H_{t+1}^{-1} H_t|| <= 1 + alpha / 2,

    with H_t = Sigma_t^{1/2} (so ||H_t^{-1}|| <= 1 is a genuine check, not a
    normalization; Sigma_t >= I makes it hold for stabilizing gains).  An
    empty or singleton sequence passes vacuously on condition (iii).
    """
    gains = [np.asarray(K, dtype=float) for K in gains]
    passes = {"i": 0, "ii": 0, "iii": 0}
    failures = {"i": 0, "ii": 0, "iii": 0}
    first = None

    transforms = []
    for idx, K in enumerate(gains):
        ev = lqr_cost(plant, K)
        H = sqrt_spd(ev.sigma)
        L = np.linalg.solve(H, (plant.A + plant.B @ K) @ H)
        transforms.append(H)
        ok_i = (
            np.linalg.norm(L, 2) <= 1.0 - alpha + tol
            and np.linalg.norm(K, 2) <= kappa + tol
        )
        ok_ii = (
            np.linalg.norm(H, 2) <= kappa + tol
            and np.linalg.norm(np.linalg.inv(H), 2) <= 1.0 + tol
        )
        for cond, ok in (("i", ok_i), ("ii", ok_ii)):
            if ok:
                passes[cond] += 1
            else:
                failures[cond] += 1
                if first is None:
                    first = (cond, idx)
    for idx in range(len(transforms) - 1):
        drift = np.linalg.norm(np.linalg.solve(transforms[idx + 1], transforms[idx]), 2)
        if drift <= 1.0 + alpha / 2.0 + tol:
            passes["iii"] += 1
        else:
            failures["iii"] += 1
            if first is None:
                first = ("iii", idx)
    return SequentialStabilityReport(
        passed=all(v == 0 for v in failures.values()),
        checked=len(gains),
        condition_passes=passes,
        condition_failures=failures,
        first_violation=first,
    )


def gradient_dominance_gap(plant, K):
    """Slack mu ||grad C(K)||_F^2 - (C(K) - C*) of the gradient-dominance
    inequality; nonnegative (up to roundoff) for every stabilizing gain."""
    _, opt = optimal_gain(plant)
    mu = float(np.linalg.norm(opt.sigma, 2)) / float(np.linalg.eigvalsh(plant.R)[0])
    grad = exact_gradient(plant, K)
    cost = lqr_cost(plant, K).cost
    return mu * float(np.linalg.norm(grad)) ** 2 - (cost - opt.cost)
