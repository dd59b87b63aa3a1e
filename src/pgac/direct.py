"""Data-driven (direct) policy-gradient engines over the covariance
parameterization.

A gain K is represented by the decision matrix V = Phi^{-1} [K; I], which
satisfies the consistency constraint Xbar0 V = I and reproduces the gain as
K = Ubar V.  Costs and gradients are then expressed purely through the data
moments (Ubar, Xbar0, Xbar1, Phi); no explicit model estimate appears,
although the engines agree exactly with the indirect ones evaluated at the
batch least-squares estimate.

Updates move V along the constraint manifold: the raw gradient is projected
onto the null space of Xbar0 before stepping.
"""

import math

import numpy as np

from .errors import (
    ConstraintViolated,
    NegativeLambda,
    NotStabilizingForData,
)
from .linalg import (
    _solve_dlyap_stable,
    is_stabilizing,
    nullspace_projector,
    spectral_radius,
    symmetrize,
)
from .dataflow import batch_least_squares
from .indirect import natural_step
from .plant import CostEvaluation

# Largest Frobenius defect of Xbar0 V = I that a covariance policy may carry.
CONSTRAINT_TOL = 1e-6


def parameterize(record, K):
    """Covariance parameterization V = Phi^{-1} [K; I] of a gain."""
    K = np.asarray(K, dtype=float)
    stacked = np.vstack([K, np.eye(record.n)])
    return record.phi_inv @ stacked


def _cost_eval(record, V, Q, R, lam):
    """Cost evaluation of V and the weight G = Ubar'R Ubar + lam Phi on V."""
    if lam < 0:
        raise NegativeLambda(f"lambda must be nonnegative, got {lam}")
    # the Frobenius norm, as np.linalg.norm takes it
    d = record.xbar0 @ V - np.eye(record.n)
    defect = math.sqrt(np.vdot(d, d))
    if defect > CONSTRAINT_TOL:
        raise ConstraintViolated(
            f"covariance policy violates Xbar0 V = I (defect {defect:.3e})"
        )
    G = record.ubar.T @ np.asarray(R, dtype=float) @ record.ubar
    if lam > 0.0:
        G = G + lam * record.phi
    W = symmetrize(np.asarray(Q, dtype=float) + V.T @ G @ V)
    F = record.xbar1 @ V
    if not is_stabilizing(F):
        raise NotStabilizingForData(
            f"data-implied closed loop has spectral radius {spectral_radius(F):.6f}"
        )
    try:
        sigma = _solve_dlyap_stable(F, np.eye(record.n))
        value = _solve_dlyap_stable(F.T, W)
    except np.linalg.LinAlgError as exc:
        raise NotStabilizingForData(
            f"data-implied closed loop is unstable: {exc}"
        ) from exc
    ev = CostEvaluation(cost=float(np.trace(W @ sigma)), sigma=sigma, value=value)
    return ev, G


def regularized_direct_cost(record, V, Q, R, lam=0.0):
    """Regularized direct cost J(V) + lam * trace(V Sigma V' Phi), straight
    from data moments.

    At lam = 0 it equals the CE cost of the batch least-squares estimate at
    the gain Ubar V.
    """
    V = np.asarray(V, dtype=float)
    return _cost_eval(record, V, Q, R, lam)[0]


def regularized_direct_gradient(record, V, Q, R, lam=0.0):
    """Unprojected gradient of the regularized direct cost (two Lyapunov
    solves).

    2 (lam Phi + Ubar'R Ubar + Xbar1'P Xbar1) V Sigma, with the value matrix
    P solved under the lam-inflated weights.
    """
    V = np.asarray(V, dtype=float)
    ev, G = _cost_eval(record, V, Q, R, lam)
    core = G + record.xbar1.T @ ev.value @ record.xbar1
    return 2.0 * core @ V @ ev.sigma


def projected_step(record, V, Q, R, eta, lam=0.0):
    """One projected-gradient update of the covariance policy.

    Returns (V_next, K_next) where V_next = V - eta * Pi grad and Pi is the
    orthogonal projector onto the null space of Xbar0, so the consistency
    constraint is preserved exactly; K_next = Ubar V_next.
    """
    V = np.asarray(V, dtype=float)
    grad = regularized_direct_gradient(record, V, Q, R, lam=lam)
    V_next = V - eta * nullspace_projector(record.xbar0) @ grad
    K_next = record.ubar @ V_next
    return V_next, K_next


def scaling_matrix(record):
    """The data-dependent metric M = Ubar Pi Ubar' relating one projected
    direct step to a preconditioned indirect step; positive definite with
    sigma_min(M) >= sigma_min(Phi)^2 under persistency of excitation.  A
    stacked record gives one M per trial.

    Built once per sample, so a stepsize rule and the step share one M."""
    return record.cached(
        "scaling_matrix",
        lambda rec: symmetrize(
            rec.ubar @ nullspace_projector(rec.xbar0) @ rec.ubar.swapaxes(-1, -2)
        ),
    )


def natural_direct_step(record, K, Q, R, eta, lam=0.0):
    """Natural policy update computed from data moments alone.

    Equivalent to the indirect natural step at the batch least-squares
    estimate implied by the record; implemented through that identity.
    """
    estimate = record.cached("estimate", batch_least_squares)
    return natural_step(estimate, Q, R, K, eta, phi_inv=record.phi_inv, lam=lam)
