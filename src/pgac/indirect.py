"""Certainty-equivalence (indirect) policy-gradient engines.

All engines evaluate the LQR cost landscape of the *estimated* model
(Ahat, Bhat) at the current gain, each through one call of the regularized
evaluator :func:`_value_and_direction`.  The vanilla gradient and the cost
need two Lyapunov solves (value matrix + covariance); the natural and
Gauss-Newton steps have closed forms that need only the value matrix, i.e.
a single solve.

Regularization follows the inverse-covariance scheme: the weights are
inflated by lambda-scaled blocks of Phi^{-1} (input block first), which adds
a cross term to the value recursion and to the gradient.  Every engine takes
lambda; lambda = 0 (the default) is the plain certainty-equivalence engine.
"""

import numpy as np

from .errors import NegativeLambda, NotStabilizingForEstimate
from .linalg import _solve_dlyap_stable, is_stabilizing, spectral_radius, symmetrize
from .plant import CostEvaluation


def _value_and_direction(estimate, Q, R, K, phi_inv, lam):
    """Value matrix P of the regularized evaluation equation at K, the
    descent direction core E with grad = 2 E Sigma, the closed loop F and the
    regularized input weight R_lam.  Exactly one Lyapunov solve.

    The weights are Q_lam = Q + lam (Phi^{-1})_xx, R_lam = R + lam
    (Phi^{-1})_uu and the cross term C = lam (Phi^{-1})_ux; they are
    (Q, R, 0) at lam = 0 or without phi_inv.
    """
    if lam < 0:
        raise NegativeLambda(f"lambda must be nonnegative, got {lam}")
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    K = np.asarray(K, dtype=float)
    m = R.shape[0]
    if lam == 0.0 or phi_inv is None:
        cross = np.zeros((m, Q.shape[0]))
    else:
        phi_inv = np.asarray(phi_inv, dtype=float)
        Q = symmetrize(Q + lam * phi_inv[m:, m:])
        R = symmetrize(R + lam * phi_inv[:m, :m])
        cross = lam * phi_inv[:m, m:]
    A, B = estimate.Ahat, estimate.Bhat
    F = A + B @ K
    W = symmetrize(Q + K.T @ R @ K + K.T @ cross + cross.T @ K)
    if not is_stabilizing(F):
        raise NotStabilizingForEstimate(
            f"gain gives spectral radius {spectral_radius(F):.6f} on the "
            "estimated model"
        )
    try:
        P = _solve_dlyap_stable(F.T, W)
    except np.linalg.LinAlgError as exc:
        raise NotStabilizingForEstimate(
            f"evaluation equation is numerically singular: {exc}"
        ) from exc
    E = R @ K + B.T @ P @ F + cross
    return P, E, F, R


def regularized_gradient(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """Gradient of the inverse-covariance regularized CE cost (two solves).

    2 (R_lam K + Bhat' P (Ahat + Bhat K) + cross) Sigma, with P from the
    cross-term value recursion and Sigma the plain closed-loop covariance;
    at lam = 0 this is the plain certainty-equivalence policy gradient.
    """
    _, E, F, _ = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    sigma = _solve_dlyap_stable(F, np.eye(F.shape[0]))
    return 2.0 * E @ sigma


def regularized_cost(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """Regularized CE cost, the plain cost of the gain on the estimated model
    plus lam * trace(Phi^{-1} [K; I] Sigma [K; I]'), with its (regularized)
    value matrix and the plain closed-loop covariance (two solves)."""
    P, _, F, _ = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    sigma = _solve_dlyap_stable(F, np.eye(F.shape[0]))
    return CostEvaluation(cost=float(np.trace(P)), sigma=sigma, value=P)


def natural_step(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """Natural-gradient policy update K - eta * grad Chat(K) Sigma^{-1}.

    Uses the closed form K - 2 eta ((R + Bhat'P Bhat)K + Bhat'P Ahat), so a
    single Lyapunov solve suffices.  Passing lam > 0 applies the same
    inverse-covariance regularization as the vanilla engine (experimental
    beyond the vanilla case).
    """
    _, E, _, _ = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    return K - 2.0 * eta * E


def gauss_newton_step(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """Gauss-Newton policy update (one Lyapunov solve).

    K - 2 eta (R_lam + Bhat' P Bhat)^{-1} E; at eta = 1/2 this is exactly one
    policy-improvement step of Hewer's method on the estimated model.
    """
    P, E, _, R_lam = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    G = R_lam + estimate.Bhat.T @ P @ estimate.Bhat
    return K - 2.0 * eta * np.linalg.solve(G, E)
