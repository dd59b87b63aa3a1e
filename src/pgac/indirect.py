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
from .linalg import (
    _identity,
    _solve_dlyap_stable,
    each_slice,
    is_stabilizing,
    nested_mask,
    select_slices,
    spectral_radius,
    stabilizing_slices,
    symmetrize,
)
from .plant import CostEvaluation


def _value_and_direction(estimate, Q, R, K, phi_inv, lam):
    """Value matrix P of the regularized evaluation equation at K, the
    descent direction core E with grad = 2 E Sigma, the closed loop F and the
    regularized input weight R_lam, and the mask of the trials they cover.
    Exactly one Lyapunov solve call.

    The estimate, K and phi_inv are one trial's matrices, or (k, ...) stacks
    of them.  One trial raises ``NotStabilizingForEstimate`` when K does not
    stabilize its estimate or the evaluation equation is singular; a stack
    leaves such trials out instead, and the mask is None when it keeps them
    all (always, for one trial).  R_lam is R itself where no trial has its
    own.

    The weights are Q_lam = Q + lam (Phi^{-1})_xx, R_lam = R + lam
    (Phi^{-1})_uu and the cross term C = lam (Phi^{-1})_ux; they are
    (Q, R, 0) at lam = 0 or without phi_inv.
    """
    if lam < 0:
        raise NegativeLambda(f"lambda must be nonnegative, got {lam}")
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    K = np.asarray(K, dtype=float)
    A, B = estimate.Ahat, estimate.Bhat
    F = A + B @ K
    KT = K.swapaxes(-1, -2)
    if lam == 0.0 or phi_inv is None:
        cross = None
        W = symmetrize(Q + KT @ R @ K)
    else:
        m = R.shape[0]
        phi_inv = np.asarray(phi_inv, dtype=float)
        Q = symmetrize(Q + lam * phi_inv[..., m:, m:])
        R = symmetrize(R + lam * phi_inv[..., :m, :m])
        cross = lam * phi_inv[..., :m, m:]
        W = symmetrize(Q + KT @ R @ K + KT @ cross + cross.swapaxes(-1, -2) @ K)
    if F.ndim == 2:
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
        keep = None
    else:
        stable, _ = stabilizing_slices(F)
        F, W, B, K, R = select_slices(stable, F, W, B, K, R)
        P, solved = each_slice(lambda F, W: _solve_dlyap_stable(F.swapaxes(-1, -2), W), F, W)
        F, B, K, R = select_slices(solved, F, B, K, R)
        keep = nested_mask(stable, solved)
    E = R @ K + B.swapaxes(-1, -2) @ P @ F
    if cross is not None:
        E = E + select_slices(keep, cross)[0]
    return P, E, F, R, keep


def gradients(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """:func:`regularized_gradient` for one trial or a (k, ...) stack, and
    the mask of the trials it covers (see :func:`_value_and_direction`)."""
    _, E, F, _, keep = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    sigma, solved = each_slice(lambda F: _solve_dlyap_stable(F, _identity(F.shape[-1])), F)
    (E,) = select_slices(solved, E)
    return 2.0 * E @ sigma, nested_mask(keep, solved)


def natural_steps(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """:func:`natural_step` for one trial or a (k, ...) stack, with eta a
    scalar or a (k, 1, 1) stack, and the mask of the trials it covers (see
    :func:`_value_and_direction`)."""
    _, E, _, _, keep = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    K, eta = select_slices(keep, np.asarray(K, dtype=float), eta)
    return K - 2.0 * eta * E, keep


def gauss_newton_steps(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """:func:`gauss_newton_step` for one trial or a (k, ...) stack, with eta
    a scalar or a (k, 1, 1) stack, and the mask of the trials it covers (see
    :func:`_value_and_direction`)."""
    P, E, _, R_lam, keep = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    B, K, eta = select_slices(keep, estimate.Bhat, np.asarray(K, dtype=float), eta)
    G = R_lam + B.swapaxes(-1, -2) @ P @ B
    direction, solved = each_slice(np.linalg.solve, G, E)
    K, eta = select_slices(solved, K, eta)
    return K - 2.0 * eta * direction, nested_mask(keep, solved)


def regularized_gradient(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """Gradient of the inverse-covariance regularized CE cost (two solves).

    2 (R_lam K + Bhat' P (Ahat + Bhat K) + cross) Sigma, with P from the
    cross-term value recursion and Sigma the plain closed-loop covariance;
    at lam = 0 this is the plain certainty-equivalence policy gradient.
    """
    return gradients(estimate, Q, R, K, phi_inv, lam)[0]


def regularized_cost(estimate, Q, R, K, phi_inv=None, lam=0.0):
    """Regularized CE cost, the plain cost of the gain on the estimated model
    plus lam * trace(Phi^{-1} [K; I] Sigma [K; I]'), with its (regularized)
    value matrix and the plain closed-loop covariance (two solves)."""
    P, _, F, _, _ = _value_and_direction(estimate, Q, R, K, phi_inv, lam)
    sigma = _solve_dlyap_stable(F, np.eye(F.shape[0]))
    return CostEvaluation(cost=float(np.trace(P)), sigma=sigma, value=P)


def natural_step(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """Natural-gradient policy update K - eta * grad Chat(K) Sigma^{-1}.

    Uses the closed form K - 2 eta ((R + Bhat'P Bhat)K + Bhat'P Ahat), so a
    single Lyapunov solve suffices.  Passing lam > 0 applies the same
    inverse-covariance regularization as the vanilla engine (experimental
    beyond the vanilla case).
    """
    return natural_steps(estimate, Q, R, K, eta, phi_inv, lam)[0]


def gauss_newton_step(estimate, Q, R, K, eta, phi_inv=None, lam=0.0):
    """Gauss-Newton policy update (one Lyapunov solve).

    K - 2 eta (R_lam + Bhat' P Bhat)^{-1} E; at eta = 1/2 this is exactly one
    policy-improvement step of Hewer's method on the estimated model.
    """
    return gauss_newton_steps(estimate, Q, R, K, eta, phi_inv, lam)[0]
