"""Dense matrix operations for discrete-time LQR: Lyapunov solves, policy
iteration for the Riccati equation, and a few SVD-based helpers.

Everything here works on plain ``numpy`` arrays and is sized for the small
state dimensions typical of adaptive-control experiments (the Lyapunov solver
builds an n^2 x n^2 Kronecker system on purpose: it is exact, branch-free and
trivially auditable).

A module-level counter tracks how many Lyapunov solves have been performed so
per-update flop profiles of the gradient engines can be asserted in tests; see
:func:`lyapunov_solve_count`.
"""

import numpy as np

from .errors import NonSymmetric, NoConvergence, NotPD, NotStable, NotStabilizing, RankDeficient

# A closed-loop matrix counts as stabilizing only with this much room to spare.
STABILITY_MARGIN = 1e-9

_SYM_TOL = 1e-8

_lyap_solves = 0


def lyapunov_solve_count():
    """Total number of discrete Lyapunov solves performed in this process."""
    return _lyap_solves


def spectral_radius(F):
    """Largest eigenvalue magnitude of a square matrix."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {F.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def is_stabilizing(F, margin=STABILITY_MARGIN):
    """True if ``F`` is Schur stable with the standard margin."""
    return spectral_radius(F) < 1.0 - margin


def symmetrize(X):
    """Orthogonal projection onto the symmetric matrices, (X + X') / 2."""
    return 0.5 * (X + X.T)


def _require_symmetric(W, name, tol=_SYM_TOL):
    skew = float(np.max(np.abs(W - W.T))) if W.size else 0.0
    scale = float(np.max(np.abs(W))) if W.size else 0.0
    if skew > tol * max(1.0, scale):
        raise NonSymmetric(f"{name} is asymmetric: max|{name} - {name}'| = {skew:.3e}")


def _kron_square(F):
    # np.kron(F, F) for a square F, assembled by broadcasting; identical
    # entries, much less per-call overhead at the sizes used here.
    n = F.shape[0]
    return (F[:, None, :, None] * F[None, :, None, :]).reshape(n * n, n * n)


def _solve_dlyap_stable(F, W):
    # Core linear solve behind solve_dlyap_closed, for callers that have
    # already verified stability of F and symmetry of W.
    global _lyap_solves
    n = F.shape[0]
    lhs = np.eye(n * n) - _kron_square(F)
    x = np.linalg.solve(lhs, W.reshape(-1, order="F"))
    _lyap_solves += 1
    return symmetrize(x.reshape((n, n), order="F"))


def solve_dlyap_closed(F, W, margin=STABILITY_MARGIN):
    """Solve the closed-form discrete Lyapunov equation X = W + F X F'.

    Parameters
    ----------
    F : (n, n) array_like
        Schur-stable matrix (spectral radius < 1 - margin).
    W : (n, n) array_like
        Symmetric forcing term.

    Returns
    -------
    X : (n, n) ndarray
        Symmetric solution, i.e. the series sum_{k>=0} F^k W (F')^k.

    Raises
    ------
    NotStable
        If the spectral radius of ``F`` is not safely below one.
    NonSymmetric
        If ``W`` is asymmetric beyond tolerance.

    Notes
    -----
    Solves the vectorized linear system (I - kron(F, F)) vec(X) = vec(W)
    directly and symmetrizes the result to scrub roundoff skew.
    """
    F = np.asarray(F, dtype=float)
    W = np.asarray(W, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n) or W.shape != (n, n):
        raise ValueError(f"shape mismatch: F {F.shape}, W {W.shape}")
    _require_symmetric(W, "W")
    rho = spectral_radius(F)
    if rho >= 1.0 - margin:
        raise NotStable(f"spectral radius {rho:.12f} >= {1.0 - margin}")
    return _solve_dlyap_stable(F, W)


def solve_dlyap_cost(F, W, margin=STABILITY_MARGIN):
    """Solve the cost-form discrete Lyapunov equation X = W + F' X F.

    Same contract as :func:`solve_dlyap_closed`; this is the adjoint equation
    (value matrices live here, state covariances in the closed form).
    """
    return solve_dlyap_closed(np.asarray(F, dtype=float).T, W, margin=margin)


def right_pinv(A, rcond=1e-10):
    """Right pseudoinverse A'(AA')^{-1} of a full-row-rank matrix.

    Raises ``RankDeficient`` when the smallest singular value of ``A`` falls
    below ``rcond`` times the largest, post-condition A @ right_pinv(A) = I.
    """
    A = np.asarray(A, dtype=float)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= rcond * s[0]:
        raise RankDeficient(
            f"matrix of shape {A.shape} is not full row rank "
            f"(sigma_min/sigma_max = {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return vt.T @ np.diag(1.0 / s) @ u.T


def nullspace_projector(A, rcond=1e-10):
    """Orthogonal projector onto the null space of ``A``.

    Returns the symmetric idempotent Pi = I - pinv(A) A, computed from the
    SVD of ``A`` so that A @ Pi = 0 holds to machine precision.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[1]
    _, s, vt = np.linalg.svd(A)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(k)
    rank = int(np.sum(s > rcond * s[0]))
    vr = vt[:rank].T
    return symmetrize(np.eye(k) - vr @ vr.T)


def sqrt_spd(S):
    """Symmetric positive-definite square root via eigendecomposition."""
    S = np.asarray(S, dtype=float)
    _require_symmetric(S, "S")
    lam, U = np.linalg.eigh(symmetrize(S))
    if lam[0] <= 0.0:
        raise NotPD(f"matrix is not positive definite (lambda_min = {lam[0]:.3e})")
    return symmetrize(U @ np.diag(np.sqrt(lam)) @ U.T)


def initial_stabilizing_gain(A, B, Q, R, horizon=200, margin=STABILITY_MARGIN):
    """Construct a stabilizing gain for (A, B) without prior knowledge.

    Returns the zero gain when ``A`` is already Schur stable; otherwise runs a
    ``horizon``-step finite-horizon LQR backward recursion (value iteration
    seeded at Q) and returns the resulting receding-horizon gain.

    The recursion stops early once a step reproduces P bit for bit: every
    later step would then recompute the same gain, so the result is the
    full-horizon gain exactly.  A recursion that never repeats runs all
    ``horizon`` steps.

    Raises ``NotStabilizing`` if the recursion fails to stabilize, which for
    positive-definite weights means (A, B) is not stabilizable in practice.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    if spectral_radius(A) < 1.0 - margin:
        return np.zeros((m, n))
    P = np.asarray(Q, dtype=float).copy()
    K = np.zeros((m, n))
    for _ in range(horizon):
        K = _improved_gain(A, B, R, P)
        F = A + B @ K
        P_next = symmetrize(Q + K.T @ R @ K + F.T @ P @ F)
        if np.array_equal(P_next, P):
            break
        P = P_next
    if not is_stabilizing(A + B @ K, margin):
        raise NotStabilizing(
            f"backward recursion over {horizon} steps did not stabilize (A, B)"
        )
    return K


def _improved_gain(A, B, R, P):
    # Policy improvement: the gain minimizing the one-step lookahead under P.
    return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def _stable_closed_loop(A, B, K, margin):
    F = A + B @ K
    rho = spectral_radius(F)
    if rho >= 1.0 - margin:
        raise NotStabilizing(
            f"gain gives closed-loop spectral radius {rho:.12f} >= {1.0 - margin}"
        )
    return F


def _policy_value(Q, R, K, F):
    # Policy evaluation P = Q + K'RK + F'PF for a closed loop F already
    # checked stable; the symmetrized weight needs no symmetry check.
    return _solve_dlyap_stable(F.T, symmetrize(Q + K.T @ R @ K))


def hewer_iterates(A, B, Q, R, K0, margin=STABILITY_MARGIN):
    """Generate policy-iteration pairs (K_i, P_i) for the discrete LQR problem.

    P_i solves the policy-evaluation equation P = Q + K'RK + (A+BK)'P(A+BK)
    for the current gain, and the next gain is the improvement
    K <- -(R + B'PB)^{-1} B'PA.  The first yielded pair evaluates ``K0``.
    Raises ``NotStabilizing`` when a gain fails to stabilize (A, B).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    K = np.asarray(K0, dtype=float)
    while True:
        P = _policy_value(Q, R, K, _stable_closed_loop(A, B, K, margin))
        yield K, P
        K = _improved_gain(A, B, R, P)


class RiccatiSolution:
    """Converged output of :func:`solve_riccati_hewer`.

    gain is the optimal feedback (u = gain @ x convention) and iterations the
    number of policy-improvement steps taken.  value_matrix, the stabilizing
    Riccati solution P (the value matrix of ``gain``), and residual, the
    Frobenius norm of the fixed-point defect of the Riccati equation at P,
    are solved on their first read and kept after that; a caller that only
    needs the gain never pays that Lyapunov solve.
    """

    def __init__(self, gain, iterations, A, B, Q, R, closed_loop):
        self.gain = gain
        self.iterations = iterations
        self._problem = (A, B, Q, R)
        self._closed_loop = closed_loop
        self._value = None
        self._residual = None

    @property
    def value_matrix(self):
        if self._value is None:
            _, _, Q, R = self._problem
            self._value = _policy_value(Q, R, self.gain, self._closed_loop)
        return self._value

    @property
    def residual(self):
        if self._residual is None:
            A, B, Q, R = self._problem
            P = self.value_matrix
            defect = Q + A.T @ P @ A + A.T @ P @ B @ _improved_gain(A, B, R, P) - P
            self._residual = float(np.linalg.norm(defect))
        return self._residual


def solve_riccati_hewer(A, B, Q, R, K0=None, tol=1e-10, max_iter=500,
                        margin=STABILITY_MARGIN):
    """Solve the discrete algebraic Riccati equation by policy iteration.

    Parameters
    ----------
    A, B : array_like
        System matrices, shapes (n, n) and (n, m).
    Q, R : array_like
        Symmetric positive-definite cost weights.
    K0 : array_like, optional
        Stabilizing initial gain.  When omitted, one is constructed with
        :func:`initial_stabilizing_gain`.
    tol : float
        Convergence threshold on the Frobenius change between successive
        gains.
    max_iter : int
        Iteration budget; exceeded budgets raise ``NoConvergence``.

    Returns
    -------
    RiccatiSolution
        Each of the ``iterations`` improvement steps costs one Lyapunov
        solve; the value matrix of the converged gain is solved only when
        ``value_matrix`` or ``residual`` is first read.

    Raises
    ------
    NotStabilizing
        If ``K0``, or any gain produced by policy improvement, does not
        stabilize (A, B) with the stability margin; also if no ``K0`` is
        given and :func:`initial_stabilizing_gain` fails.
    NoConvergence
        If the gain change has not dropped below ``tol`` within ``max_iter``
        improvement steps.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if K0 is None:
        # initial_stabilizing_gain has already checked this closed loop
        K = initial_stabilizing_gain(A, B, Q, R, margin=margin)
        F = A + B @ K
    else:
        K = np.asarray(K0, dtype=float)
        F = _stable_closed_loop(A, B, K, margin)
    for i in range(1, max_iter + 1):
        K_next = _improved_gain(A, B, R, _policy_value(Q, R, K, F))
        F = _stable_closed_loop(A, B, K_next, margin)
        if np.linalg.norm(K_next - K) < tol:
            return RiccatiSolution(K_next, i, A, B, Q, R, F)
        K = K_next
    raise NoConvergence(f"no convergence after {max_iter} policy improvements")
