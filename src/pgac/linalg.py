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

from .errors import NonSymmetric, NoConvergence, NotPD, NotStable, NotStabilizing

# A closed-loop matrix counts as stabilizing only with this much room to spare.
STABILITY_MARGIN = 1e-9

# Steps of the backward recursion behind initial_stabilizing_gain.
SEED_HORIZON = 200

# Relative singular-value cutoff below which nullspace_projector counts a
# direction as part of the null space.
_RANK_RCOND = 1e-10

_SYM_TOL = 1e-8

# Policy iteration stops once the Frobenius change between successive gains
# drops below RICCATI_TOL, and gives up after RICCATI_MAX_ITER improvements.
RICCATI_TOL = 1e-10
RICCATI_MAX_ITER = 500

_lyap_solves = 0

_identities = {}


def _identity(n):
    # np.eye(n), built once per n and read-only
    if n not in _identities:
        _identities[n] = np.eye(n)
        _identities[n].setflags(write=False)
    return _identities[n]


def lyapunov_solve_count():
    """Total number of discrete Lyapunov solves performed in this process.

    A stacked solve of many systems in one call counts once.
    """
    return _lyap_solves


def _square(F):
    F = np.asarray(F, dtype=float)
    if F.ndim < 2 or F.shape[-1] != F.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {F.shape}")
    return F


def spectral_radius(F):
    """Largest eigenvalue magnitude of a square matrix: a float for an
    (n, n) matrix, an array of one radius per matrix for a (..., n, n) stack."""
    F = _square(F)
    rho = np.max(np.abs(np.linalg.eigvals(F)), axis=-1)
    return float(rho) if F.ndim == 2 else rho


def is_stabilizing(F, margin=STABILITY_MARGIN):
    """True if ``F`` is Schur stable with the given margin, that is
    ``spectral_radius(F) < 1 - margin``: a bool for an (n, n) matrix, a
    boolean array for a (..., n, n) stack.

    The verdict is always that of the spectral radius, but a matrix whose
    Frobenius norm is below half the bound needs no eigensolve: then
    rho(F) <= ||F||_F < (1 - margin) / 2, and no backward-stable eigenvalue
    of F can reach the bound.  Only the other matrices are handed to
    :func:`spectral_radius`, a stack of them in one call.  A non-finite F
    is never certified, so it raises ``LinAlgError`` there.
    """
    F = _square(F)
    bound = 1.0 - margin
    if F.ndim == 2:
        if bound > 0.0 and 4.0 * np.vdot(F, F) < bound * bound:
            return True
        return spectral_radius(F) < bound
    if bound > 0.0:
        stable = 4.0 * np.einsum("...ij,...ij->...", F, F) < bound * bound
    else:
        stable = np.zeros(F.shape[:-2], dtype=bool)
    certified = np.count_nonzero(stable)
    if certified == 0:
        return spectral_radius(F) < bound
    if certified < stable.size:
        uncertified = ~stable
        stable[uncertified] = spectral_radius(F[uncertified]) < bound
    return stable


def each_slice(fn, *stacks):
    """``fn(*stacks)`` for (k, ...) stacks that share their leading axis, and
    the mask of the slices it ran on, None for all of them.

    numpy's stacked solvers raise ``LinAlgError`` for a whole stack when one
    slice fails.  Then each slice is tried alone, and ``fn`` runs once more on
    the stack of those that pass; every slice of a stacked kernel is bitwise
    its own answer, so the results do not depend on the other slices.  For
    a single matrix (a 2-D first argument) the error propagates.
    """
    try:
        return fn(*stacks), None
    except np.linalg.LinAlgError:
        if stacks[0].ndim < 3:
            raise
        ok = np.ones(len(stacks[0]), dtype=bool)
        for i in range(len(ok)):
            try:
                fn(*(s[i : i + 1] for s in stacks))
            except np.linalg.LinAlgError:
                ok[i] = False
        return fn(*(s[ok] for s in stacks)), ok


def select_slices(keep, *arrays):
    """The slices in ``keep`` (a mask, or None for all) of each (k, ...)
    stack among ``arrays``; an array of fewer than three dimensions is shared
    by every slice and passes as it is."""
    if keep is None:
        return arrays
    return tuple(a[keep] if np.ndim(a) >= 3 else a for a in arrays)


def nested_mask(keep, inner):
    """``inner``, a mask over the slices in ``keep``, as a mask over all of
    them (None stands for all)."""
    if inner is None or keep is None:
        return keep if inner is None else inner
    keep = keep.copy()
    keep[keep] = inner
    return keep


def stabilizing_slices(F):
    """(stable, checked) for a (k, n, n) stack: the mask of the matrices that
    :func:`is_stabilizing` certifies, and that of those it can check at all
    (it raises ``LinAlgError`` for a non-finite one); None stands for all."""
    verdict, checked = each_slice(is_stabilizing, F)
    if checked is None:
        return (None if verdict.all() else verdict), None
    stable = np.zeros(len(F), dtype=bool)
    stable[checked] = verdict
    return stable, checked


def symmetrize(X):
    """Orthogonal projection onto the symmetric matrices, (X + X') / 2, of a
    matrix or of each matrix in a (..., n, n) stack."""
    return 0.5 * (X + X.swapaxes(-1, -2))


def _require_symmetric(W, name):
    skew = float(np.max(np.abs(W - W.T))) if W.size else 0.0
    scale = float(np.max(np.abs(W))) if W.size else 0.0
    if skew > _SYM_TOL * max(1.0, scale):
        raise NonSymmetric(f"{name} is asymmetric: max|{name} - {name}'| = {skew:.3e}")


def _kron_square(F):
    # np.kron(F, F) for a square F, or for each F of a (..., n, n) stack,
    # assembled by broadcasting; identical entries, much less per-call
    # overhead at the sizes used here.
    n = F.shape[-1]
    kron = F[..., :, None, :, None] * F[..., None, :, None, :]
    return kron.reshape(*F.shape[:-2], n * n, n * n)


def _solve_dlyap_stable(F, W):
    # Core linear solve behind solve_dlyap_closed, for callers that have
    # already verified stability of F and symmetry of W.  F and W may be
    # (..., n, n) stacks that broadcast against each other: numpy's stacked
    # solve runs the same LAPACK routine on each system, so every slice is
    # bitwise the 2-D answer.  One call counts as one solve.
    global _lyap_solves
    if W.ndim < F.ndim:
        # numpy 1.x reads a right-hand side one dimension short of the
        # left-hand side as a stack of vectors, so a W shared by a stack of F
        # is given the stack's shape first (same values, same answer)
        W = np.broadcast_to(W, F.shape)
    n = F.shape[-1]
    lhs = _identity(n * n) - _kron_square(F)
    vec_w = W.swapaxes(-1, -2).reshape(*W.shape[:-2], n * n, 1)
    x = np.linalg.solve(lhs, vec_w)
    _lyap_solves += 1
    # x holds vec(X) column-major, so this reshape is X', symmetrized alike
    return symmetrize(x.reshape(*x.shape[:-2], n, n))


def solve_dlyap_closed(F, W):
    """Solve the closed-form discrete Lyapunov equation X = W + F X F'.

    Parameters
    ----------
    F : (n, n) array_like
        Schur-stable matrix (spectral radius < 1 - STABILITY_MARGIN).
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
    if not is_stabilizing(F):
        raise NotStable(f"spectral radius {spectral_radius(F):.12f} >= {1.0 - STABILITY_MARGIN}")
    return _solve_dlyap_stable(F, W)


def nullspace_projector(A):
    """Orthogonal projector onto the null space of ``A``, or of each matrix
    in a (j, r, k) stack.

    Returns the symmetric idempotent Pi = I - pinv(A) A, computed from the
    SVD of ``A`` so that A @ Pi = 0 holds to machine precision.  Singular
    values below _RANK_RCOND times the largest count as zero.  The matrices
    of a stack are grouped by rank, so each projector is bitwise that of its
    matrix alone.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[-1]
    eye = _identity(k)
    if A.shape[-2] == 0:
        return np.broadcast_to(eye, A.shape[:-2] + (k, k)).copy()
    _, s, vt = np.linalg.svd(A)
    if A.ndim == 2:
        vr = vt[: int(np.sum(s > _RANK_RCOND * s[0]))].T
        return symmetrize(eye - vr @ vr.T)
    rank = np.sum(s > _RANK_RCOND * s[:, :1], axis=-1)
    if (rank == rank[0]).all():
        vr = vt[:, : rank[0]].swapaxes(-1, -2)
        return symmetrize(eye - vr @ vr.swapaxes(-1, -2))
    out = np.empty(vt.shape)
    for r in np.unique(rank):
        vr = vt[rank == r][:, :r].swapaxes(-1, -2)
        out[rank == r] = symmetrize(eye - vr @ vr.swapaxes(-1, -2))
    return out


def sqrt_spd(S):
    """Symmetric positive-definite square root via eigendecomposition."""
    S = np.asarray(S, dtype=float)
    _require_symmetric(S, "S")
    lam, U = np.linalg.eigh(symmetrize(S))
    if lam[0] <= 0.0:
        raise NotPD(f"matrix is not positive definite (lambda_min = {lam[0]:.3e})")
    return symmetrize(U @ np.diag(np.sqrt(lam)) @ U.T)


def initial_stabilizing_gain(A, B, Q, R):
    """Construct a stabilizing gain for (A, B) without prior knowledge.

    Returns the zero gain when ``A`` is already Schur stable; otherwise runs a
    SEED_HORIZON-step finite-horizon LQR backward recursion (value iteration
    seeded at Q) and returns the resulting receding-horizon gain.

    The recursion stops early once a step reproduces P bit for bit: every
    later step would then recompute the same gain, so the result is the
    full-horizon gain exactly.  A recursion that never repeats runs all
    SEED_HORIZON steps.

    Raises ``NotStabilizing`` if the recursion fails to stabilize, which for
    positive-definite weights means (A, B) is not stabilizable in practice,
    or as soon as P overflows (an unstabilizable mode that grows fast).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    if is_stabilizing(A):
        return np.zeros((m, n))
    P = np.asarray(Q, dtype=float).copy()
    K = np.zeros((m, n))
    finite = True
    # an unstabilizable mode can overflow P: stop at the first non-finite P
    # rather than run on inf/NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SEED_HORIZON):
            K = _improved_gain(A, B, R, P)
            F = A + B @ K
            P_next = symmetrize(Q + K.T @ R @ K + F.T @ P @ F)
            finite = np.isfinite(P_next).all()
            if not finite or np.array_equal(P_next, P):
                break
            P = P_next
    if not (finite and is_stabilizing(A + B @ K)):
        raise NotStabilizing(
            f"backward recursion over {SEED_HORIZON} steps did not stabilize (A, B)"
        )
    return K


def _improved_gain(A, B, R, P):
    # Policy improvement: the gain minimizing the one-step lookahead under P,
    # for one model or for each of a stack.
    BT = B.swapaxes(-1, -2)
    return -np.linalg.solve(R + BT @ P @ B, BT @ P @ A)


def _stable_closed_loop(A, B, K):
    F = A + B @ K
    if not is_stabilizing(F):
        raise NotStabilizing(
            f"gain gives closed-loop spectral radius {spectral_radius(F):.12f} "
            f">= {1.0 - STABILITY_MARGIN}"
        )
    return F


def _policy_value(Q, R, K, F):
    # Policy evaluation P = Q + K'RK + F'PF for a closed loop F already
    # checked stable, of one gain or of each in a stack; the symmetrized
    # weight needs no symmetry check.
    KT = K.swapaxes(-1, -2)
    return _solve_dlyap_stable(F.swapaxes(-1, -2), symmetrize(Q + KT @ R @ K))


def hewer_iterates(A, B, Q, R, K0):
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
        P = _policy_value(Q, R, K, _stable_closed_loop(A, B, K))
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


def solve_riccati_hewer(A, B, Q, R, K0=None):
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
        If the gain change has not dropped below ``RICCATI_TOL`` within
        ``RICCATI_MAX_ITER`` improvement steps.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if K0 is None:
        # initial_stabilizing_gain has already checked this closed loop
        K = initial_stabilizing_gain(A, B, Q, R)
        F = A + B @ K
    else:
        K = np.asarray(K0, dtype=float)
        F = _stable_closed_loop(A, B, K)
    for i in range(1, RICCATI_MAX_ITER + 1):
        K_next = _improved_gain(A, B, R, _policy_value(Q, R, K, F))
        F = _stable_closed_loop(A, B, K_next)
        if np.linalg.norm(K_next - K) < RICCATI_TOL:
            return RiccatiSolution(K_next, i, A, B, Q, R, F)
        K = K_next
    raise NoConvergence(f"no convergence after {RICCATI_MAX_ITER} policy improvements")


# Outcomes of policy_iterations, per trial.
CONVERGED, NOT_STABILIZING, NO_CONVERGENCE, SOLVE_FAILED = range(4)


def policy_iterations(A, B, Q, R, K):
    """:func:`solve_riccati_hewer`'s loop from the gains K on (k, ...) stacks
    of models and gains, all trials in lockstep until each converges or
    fails: (gains, status), the converged gains (NaN where a trial did not
    converge) and each trial's outcome.

    A round makes one stacked Lyapunov solve and one stacked stability check
    over the trials still running, so each trial's iterates are bitwise those
    of its own run.
    """
    gains = np.full(K.shape, np.nan)
    status = np.full(len(K), NO_CONVERGENCE)
    left = np.arange(len(K))  # the trials still running

    def check(F):
        # Stop the running trials whose closed loop F fails its check; the
        # mask of the others, None for all.
        stable, valid = stabilizing_slices(F)
        if stable is not None:
            status[left[~stable]] = (NOT_STABILIZING if valid is None else
                                     np.where(valid[~stable], NOT_STABILIZING, SOLVE_FAILED))
        return stable

    F = A + B @ K
    keep = check(F)
    for _ in range(RICCATI_MAX_ITER):
        if keep is not None:
            left, A, B, K, F = left[keep], A[keep], B[keep], K[keep], F[keep]
        if not len(left):
            break
        K_next, solved = each_slice(
            lambda A, B, K, F: _improved_gain(A, B, R, _policy_value(Q, R, K, F)), A, B, K, F)
        if solved is not None:
            status[left[~solved]] = SOLVE_FAILED
            left, A, B, K = left[solved], A[solved], B[solved], K[solved]
        F = A + B @ K_next
        # the Frobenius norm of each change, as np.linalg.norm takes it
        change = (K_next - K).reshape(len(K), 1, -1)
        done = np.sqrt(change @ change.swapaxes(-1, -2))[:, 0, 0] < RICCATI_TOL
        keep = check(F)
        if keep is not None:
            done &= keep
        if done.any():
            gains[left[done]], status[left[done]] = K_next[done], CONVERGED
            keep = ~done if keep is None else keep & ~done
        K = K_next
    return gains, status
