"""Adaptive LQR controllers built on the gradient engines.

A controller owns a growing :class:`~pgac.dataflow.DataRecord` and a current
feedback gain.  Each :func:`advance` logs one closed-loop transition and
performs one policy update from the record's batch least-squares estimate,
built once per sample; the true plant matrices are never touched.

A state steps one trial on 2-D arrays, or the trials of a stacked record in
lockstep on stacked kernels: its gain, stepsize and skip flag then carry a
leading trial axis.  A lone trial's failed update raises inside the engines,
a stacked trial's is a NaN gain for that trial; either way each trial's
numbers are bitwise those of its own run.

A step has one failure path: a trial's step is skipped (the transition is
still logged, the gain kept and ``last_skipped`` set) when its stepsize or
its update fails (``NotStabilizing``, ``NotPersistentlyExciting``,
``NoConvergence`` or ``numpy.linalg.LinAlgError`` where the step is taken on
its own) or gives a non-finite gain.  A transition that would make the
record's moments non-finite raises ``NonFiniteData`` instead; halting is the
harness's job.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import direct as direct_engine
from . import indirect as indirect_engine
# rls_update is bound here only so that perfbench's tracer can wrap it by
# this name; no pgac code calls it here.
from .dataflow import DataRecord, ModelEstimate, batch_least_squares, rls_update  # noqa: F401
from .errors import (
    InitialGainUnstable,
    NegativeLambda,
    NoConvergence,
    NotPersistentlyExciting,
    NotStabilizing,
    RuleMismatch,
)
from .linalg import (
    NOT_STABILIZING,
    each_slice,
    nested_mask,
    policy_iterations,
    select_slices,
    solve_riccati_hewer,
)


def _real(name, value, error=ValueError):
    # a real number of any type (np.float32 too); not a bool, str or None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise error(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ConstantStep:
    """Fixed stepsize eta > 0."""

    eta: float

    def __post_init__(self):
        if not 0 < _real("eta", self.eta) < math.inf:
            raise ValueError(f"constant stepsize must be positive and finite, got {self.eta}")

    def __call__(self, record):
        return self.eta


@dataclass(frozen=True)
class InverseNormM:
    """Data-adaptive stepsize eta_t = coeff / ||M_t|| with M_t the scaling
    matrix of the current record; direct methods only.  NaN, which skips the
    step, where M is zero or non-finite or its norm cannot be taken; one per
    trial of a stacked record."""

    coeff: float

    def __post_init__(self):
        if not 0 < _real("InverseNormM coeff", self.coeff) < math.inf:
            raise ValueError(f"InverseNormM coeff must be positive and finite, got {self.coeff}")

    def __call__(self, record):
        M = direct_engine.scaling_matrix(record)
        # the spectral norm, as np.linalg.norm(M, 2) takes it: the largest
        # singular value, first in LAPACK's descending order.  A non-finite
        # M never reaches LAPACK, which rejects it by printing to stdout.
        finite = np.isfinite(M).all(axis=(-2, -1))
        if M.ndim == 2:
            try:
                norm = float(np.linalg.svd(M, compute_uv=False)[0]) if finite else math.nan
            except np.linalg.LinAlgError:
                return math.nan
            return self.coeff / norm if norm > 0.0 else math.nan
        top, ok = each_slice(lambda M: np.linalg.svd(M, compute_uv=False)[:, 0], M[finite])
        norm = np.full(len(M), math.nan)
        norm[np.flatnonzero(finite)[np.s_[:] if ok is None else ok]] = top
        return np.divide(self.coeff, norm, out=np.full(len(M), math.nan), where=norm > 0.0)


@dataclass(frozen=True)
class ZeroLambda:
    """No regularization."""

    def __call__(self, t, t0):
        return 0.0


@dataclass(frozen=True)
class InverseSqrtLambda:
    """Decaying regularization weight lambda0 / sqrt(t - t0), capped at
    lambda0 on the first online sample."""

    lambda0: float

    def __post_init__(self):
        if not math.isfinite(_real("lambda0", self.lambda0)):
            raise ValueError(f"lambda0 must be finite, got {self.lambda0}")
        if self.lambda0 < 0:
            raise NegativeLambda(f"lambda0 must be nonnegative, got {self.lambda0}")

    def __call__(self, t, t0):
        return self.lambda0 if t == t0 else self.lambda0 / math.sqrt(t - t0)


def _vanilla(est, Q, R, K, eta, phi_inv, lam, precondition):
    grad, keep = indirect_engine.gradients(est, Q, R, K, phi_inv, lam)
    K, eta = select_slices(keep, K, eta)
    if precondition is not None:
        # the projected covariance step Ubar Pi grad_V(V) equals the model
        # gradient preconditioned by M = Ubar Pi Ubar' (criterion 03)
        grad = precondition(keep) @ grad
    return K - eta * grad, keep


def _natural(est, Q, R, K, eta, phi_inv, lam, precondition):
    return indirect_engine.natural_steps(est, Q, R, K, eta, phi_inv, lam)


def _gauss_newton(est, Q, R, K, eta, phi_inv, lam, precondition):
    return indirect_engine.gauss_newton_steps(est, Q, R, K, eta, phi_inv, lam)


def _one_shot(est, Q, R, K, eta, phi_inv, lam, precondition):
    # Warm start from the current gain; when it, or an iterate it leads to,
    # fails to stabilize the estimate, start over from scratch.  A stack of
    # trials runs in lockstep, each trial restarting alone where needed.
    A, B = est.Ahat, est.Bhat
    if K.ndim == 2:
        try:
            return solve_riccati_hewer(A, B, Q, R, K0=K).gain, None
        except NotStabilizing:
            return solve_riccati_hewer(A, B, Q, R).gain, None
    gains, status = policy_iterations(A, B, Q, R, K)
    for i in np.flatnonzero(status == NOT_STABILIZING):
        try:
            gains[i] = solve_riccati_hewer(A[i], B[i], Q, R).gain
        except (NotStabilizing, NoConvergence, np.linalg.LinAlgError):
            pass
    return gains, None


# Every method as (update, direct route, stepsize rule).  The direct route
# preconditions the vanilla gradient by M and allows InverseNormM.  A rule
# other than _ANY is fixed by the method's definition: adaptive Hewer is
# Gauss-Newton at eta = 1/2, and one-shot CE (None) takes no step and no lambda.
_ANY = object()
METHODS = {
    "indirect_vanilla": (_vanilla, False, _ANY),
    "indirect_natural": (_natural, False, _ANY),
    "indirect_gauss_newton": (_gauss_newton, False, _ANY),
    "adaptive_hewer": (_gauss_newton, False, ConstantStep(0.5)),
    "direct_vanilla": (_vanilla, True, _ANY),
    "direct_natural": (_natural, True, _ANY),
    "one_shot_ce": (_one_shot, False, None),
}


@dataclass(frozen=True)
class ControllerSpec:
    """Immutable description of a controller: a method of :data:`METHODS`
    by name and its rules.  A method with a fixed stepsize rule may omit it,
    and rejects any other."""

    method: str
    stepsize_rule: object = None
    lambda_rule: object = ZeroLambda()
    probe_std: float = 1.0

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of "
                             f"{', '.join(METHODS)}")
        _, direct, fixed = METHODS[self.method]
        if fixed is not _ANY:
            if self.stepsize_rule not in (None, fixed):
                raise RuleMismatch(
                    f"method {self.method} fixes its stepsize rule to {fixed!r}, "
                    f"got {self.stepsize_rule!r}"
                )
            object.__setattr__(self, "stepsize_rule", fixed)
        elif not isinstance(self.stepsize_rule, (ConstantStep, InverseNormM)):
            raise ValueError(
                f"method {self.method} requires a ConstantStep or InverseNormM stepsize "
                f"rule, got {self.stepsize_rule!r}"
            )
        if isinstance(self.stepsize_rule, InverseNormM) and not direct:
            raise RuleMismatch(
                f"InverseNormM stepsizes require a direct method, got {self.method}"
            )
        if not isinstance(self.lambda_rule, (ZeroLambda, InverseSqrtLambda)):
            raise ValueError(f"unknown lambda rule {self.lambda_rule!r}")
        if fixed is None and not isinstance(self.lambda_rule, ZeroLambda):
            raise RuleMismatch(
                f"method {self.method} does not regularize, got lambda rule {self.lambda_rule!r}"
            )
        if not 0 <= _real("probe_std", self.probe_std) < math.inf:
            raise ValueError(
                f"probe_std must be nonnegative and finite, got {self.probe_std}"
            )


@dataclass
class ControllerState:
    """Mutable loop state: current gain, data record, bookkeeping.

    ``last_eta`` / ``last_lambda`` / ``last_skipped`` describe the most
    recent advance.  A state of one trial holds an (m, n) gain and scalars;
    :meth:`stack` joins such states into one that steps their trials in
    lockstep, with a (k, m, n) gain, a stacked record and per-trial
    ``last_eta`` and ``last_skipped`` arrays.  Halting is the supervising
    loop's job.
    """

    spec: ControllerSpec
    Q: np.ndarray
    R: np.ndarray
    gain: np.ndarray
    record: object
    t0: int
    last_eta: object = float("nan")
    last_lambda: float = 0.0
    last_skipped: object = False

    @classmethod
    def stack(cls, states):
        """One state stepping the trials of single-trial states together."""
        first, k = states[0], len(states)
        return cls(spec=first.spec, Q=first.Q, R=first.R,
                   gain=np.stack([state.gain for state in states]),
                   record=DataRecord.stack([state.record for state in states]), t0=first.t0,
                   last_eta=np.full(k, math.nan), last_skipped=np.zeros(k, dtype=bool))

    def take(self, trials):
        """The state of the selected trials of a stacked state: ``trials`` is
        a boolean mask or index array, or an integer i for the single-trial
        state of trial i."""
        last_eta = self.last_eta if np.ndim(self.last_eta) == 0 else self.last_eta[trials]
        last_skipped = self.last_skipped[trials]
        if np.ndim(trials) == 0:
            last_eta, last_skipped = float(last_eta), bool(last_skipped)
        return dataclasses.replace(self, gain=self.gain[trials], record=self.record.take(trials),
                                   last_eta=last_eta, last_skipped=last_skipped)


def initialize(spec, Q, R, offline_record, K_init=None):
    """Set up a controller from an offline record.

    The record is snapshotted and must be persistently exciting (else
    ``NotPersistentlyExciting`` propagates from the batch solve).  Unless
    ``K_init`` is supplied, the initial gain is the certainty-equivalence
    Riccati gain of the batch least-squares estimate; failure to produce a
    stabilizing gain for that estimate raises ``InitialGainUnstable``.
    """
    Q = np.array(Q, dtype=float)
    R = np.array(R, dtype=float)
    record = offline_record.copy()
    estimate = batch_least_squares(record)
    if K_init is None:
        try:
            sol = solve_riccati_hewer(estimate.Ahat, estimate.Bhat, Q, R)
        except (NotStabilizing, NoConvergence, np.linalg.LinAlgError) as exc:
            raise InitialGainUnstable(
                f"certainty-equivalence initialization failed: {exc}"
            ) from exc
        gain = sol.gain
    else:
        gain = np.array(K_init, dtype=float)
        if gain.shape != (record.m, record.n):
            raise ValueError(
                f"K_init must have shape ({record.m}, {record.n}), got {gain.shape}"
            )
    return ControllerState(spec=spec, Q=Q, R=R, gain=gain, record=record, t0=record.t)


def control_input(state, x, probe_sample):
    """Feedback plus scaled exploration: u = K x + probe_std * probe_sample,
    for one trial or for each of a stacked state.

    ``probe_sample`` should be a unit-variance draw; the spec's probe
    standard deviation is applied here.
    """
    x = np.asarray(x, dtype=float)
    probe_sample = np.asarray(probe_sample, dtype=float)
    # a stack's products as each gain times its trial's column, bitwise the
    # products of each trial alone
    feedback = state.gain @ x if x.ndim == 1 else (state.gain @ x[..., None])[..., 0]
    return feedback + state.spec.probe_std * probe_sample


def lambda_value(spec, t, t0):
    """Regularization weight at sample count t (>= t0)."""
    if t < t0:
        raise ValueError(f"t={t} precedes the online phase start t0={t0}")
    return spec.lambda_rule(t, t0)


def stepsize(state):
    """Stepsize the next update will use, under the spec's rule; NaN for a
    method without one (one_shot_ce re-solves the Riccati equation outright).
    """
    rule = state.spec.stepsize_rule
    return math.nan if rule is None else rule(state.record)


def _policy_update(spec, Q, R, K, record, eta, lam):
    """Next gain from the record's batch least-squares estimate.

    For one trial, K is its gain and a failed update raises.  For a stacked
    record, K is the (k, m, n) stack of gains and eta a float or one
    stepsize per trial (NaN where the rule failed); the next gains are NaN
    where a trial's update failed.
    """
    update, direct, _ = METHODS[spec.method]
    phi_inv, live = record.inverse()
    step_eta = eta
    if isinstance(eta, np.ndarray):
        failed = np.isnan(eta)
        if failed.any():
            live = ~failed if live is None else live & ~failed
        step_eta = eta[:, None, None]
    xbar1, gains = record.xbar1, K
    if live is not None:
        if not live.any():
            return np.full(K.shape, math.nan)
        xbar1, phi_inv, gains, step_eta = select_slices(live, xbar1, phi_inv, K, step_eta)
    est = ModelEstimate.from_theta(xbar1 @ phi_inv, record.m)
    phi_inv = phi_inv if lam > 0.0 else None

    def precondition(keep):
        # the direct route's M, of the trials whose step was taken
        return select_slices(nested_mask(live, keep), direct_engine.scaling_matrix(record))[0]
    step, keep = update(est, Q, R, gains, step_eta, phi_inv, lam, precondition if direct else None)
    if live is None and keep is None:
        return step
    updated = nested_mask(live, keep)
    K_next = np.full(K.shape, math.nan)
    K_next[updated] = step
    return K_next


def advance(state, x, u, x_next, w_oracle=None):
    """Log one transition and perform one policy update, for one trial or
    for each trial of a stacked state.

    The transition is appended, then the gain is updated from the extended
    record's moments and its batch least-squares estimate.  A skip (see the
    module docstring) keeps the gain and sets ``last_skipped``; ``last_eta``
    is NaN when the stepsize failed.
    """
    state.record.append(u, x, x_next, w_oracle)
    state.last_lambda = lambda_value(state.spec, state.record.t, state.t0)
    state.last_eta = stepsize(state)
    K = state.gain
    if K.ndim == 2:
        state.last_skipped = True
        if state.spec.stepsize_rule is None or not math.isnan(state.last_eta):
            try:
                K_next = _policy_update(state.spec, state.Q, state.R, K, state.record,
                                        state.last_eta, state.last_lambda)
            except (NotStabilizing, NotPersistentlyExciting, NoConvergence,
                    np.linalg.LinAlgError):
                pass
            else:
                if np.isfinite(K_next).all():
                    state.gain, state.last_skipped = K_next, False
        return state
    K_next = _policy_update(state.spec, state.Q, state.R, K, state.record,
                            state.last_eta, state.last_lambda)
    if np.isfinite(K_next).all():
        state.gain, state.last_skipped = K_next, np.zeros(len(K), dtype=bool)
    else:
        moved = np.isfinite(K_next).all(axis=(-2, -1))
        state.gain, state.last_skipped = np.where(moved[:, None, None], K_next, K), ~moved
    return state
