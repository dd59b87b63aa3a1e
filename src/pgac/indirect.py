"""Certainty-equivalence (indirect) policy-gradient engines.

All engines evaluate the LQR cost landscape of the *estimated* model
(Ahat, Bhat) at the current gain.  The vanilla gradient costs two Lyapunov
solves (covariance + value matrix); the natural and Gauss-Newton steps have
closed forms that need only the value matrix, i.e. a single solve.

Regularization follows the inverse-covariance scheme: the weights are
inflated by lambda-scaled blocks of Phi^{-1}, which adds a cross term to the
value recursion and to the gradient.  Every engine takes lambda; lambda = 0
(the default) is the plain certainty-equivalence engine.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NegativeLambda, NotStabilizingForEstimate
from .linalg import _solve_dlyap_stable, is_stabilizing, spectral_radius, symmetrize
from .plant import CostEvaluation


@dataclass
class RegularizedWeights:
    """Effective cost weights after inverse-covariance regularization.

    q_lambda = Q + lam * (Phi^{-1})_xx, r_lambda = R + lam * (Phi^{-1})_uu,
    cross = lam * (Phi^{-1})_ux; everything reduces to (Q, R, 0) at lam = 0.
    """

    q_lambda: np.ndarray
    r_lambda: np.ndarray
    cross: np.ndarray
    lam: float

    @classmethod
    def build(cls, Q, R, phi_inv=None, lam=0.0):
        """Partition phi_inv (input block first) and scale by lam."""
        if lam < 0:
            raise NegativeLambda(f"lambda must be nonnegative, got {lam}")
        Q = np.asarray(Q, dtype=float)
        R = np.asarray(R, dtype=float)
        m = R.shape[0]
        if lam == 0.0 or phi_inv is None:
            return cls(q_lambda=Q, r_lambda=R, cross=np.zeros((m, Q.shape[0])), lam=0.0)
        phi_inv = np.asarray(phi_inv, dtype=float)
        return cls(
            q_lambda=symmetrize(Q + lam * phi_inv[m:, m:]),
            r_lambda=symmetrize(R + lam * phi_inv[:m, :m]),
            cross=lam * phi_inv[:m, m:],
            lam=float(lam),
        )


def _value_and_direction(estimate, weights, K):
    """Value matrix of the (regularized) evaluation equation and the descent
    direction core E with grad = 2 E Sigma.  Exactly one Lyapunov solve."""
    K = np.asarray(K, dtype=float)
    A, B = estimate.Ahat, estimate.Bhat
    F = A + B @ K
    W = symmetrize(
        weights.q_lambda
        + K.T @ weights.r_lambda @ K
        + K.T @ weights.cross
        + weights.cross.T @ K
    )
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
    E = weights.r_lambda @ K + B.T @ P @ F + weights.cross
    return P, E, F


def regularized_gradient(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """Gradient of the inverse-covariance regularized CE cost (two solves).

    2 (R_lam K + Bhat' P (Ahat + Bhat K) + cross) Sigma, with P from the
    cross-term value recursion and Sigma the plain closed-loop covariance;
    at lam = 0 this is the plain certainty-equivalence policy gradient.
    """
    weights = RegularizedWeights.build(Q, R, phi_inv, lam)
    _, E, F = _value_and_direction(estimate, weights, K)
    sigma = _solve_dlyap_stable(F, np.eye(F.shape[0]))
    return 2.0 * E @ sigma


def regularized_cost(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """Regularized CE cost, the plain cost of the gain on the estimated model
    plus lam * trace(Phi^{-1} [K; I] Sigma [K; I]'), with its (regularized)
    value matrix and the plain closed-loop covariance (two solves)."""
    weights = RegularizedWeights.build(Q, R, phi_inv, lam)
    P, _, F = _value_and_direction(estimate, weights, K)
    sigma = _solve_dlyap_stable(F, np.eye(F.shape[0]))
    return CostEvaluation(cost=float(np.trace(P)), sigma=sigma, value=P)


def natural_step(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """Natural-gradient policy update K - eta * grad Chat(K) Sigma^{-1}.

    Uses the closed form K - 2 eta ((R + Bhat'P Bhat)K + Bhat'P Ahat), so a
    single Lyapunov solve suffices.  Passing lam > 0 applies the same
    inverse-covariance regularization as the vanilla engine (experimental
    beyond the vanilla case).
    """
    K = np.asarray(K, dtype=float)
    weights = RegularizedWeights.build(Q, R, phi_inv, lam)
    _, E, _ = _value_and_direction(estimate, weights, K)
    return K - 2.0 * eta * E


def gauss_newton_step(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """Gauss-Newton policy update (one Lyapunov solve).

    K - 2 eta (R_lam + Bhat' P Bhat)^{-1} E; at eta = 1/2 this is exactly one
    policy-improvement step of Hewer's method on the estimated model.
    """
    K = np.asarray(K, dtype=float)
    weights = RegularizedWeights.build(Q, R, phi_inv, lam)
    P, E, _ = _value_and_direction(estimate, weights, K)
    G = weights.r_lambda + estimate.Bhat.T @ P @ estimate.Bhat
    return K - 2.0 * eta * np.linalg.solve(G, E)
