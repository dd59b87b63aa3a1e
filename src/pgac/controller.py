"""Adaptive LQR controllers built on the gradient engines.

A controller owns a growing :class:`~pgac.dataflow.DataRecord`, a current
feedback gain, and (for the model-based methods) a recursively updated model
estimate.  Each :func:`advance` logs one closed-loop transition and performs
one policy update; the true plant matrices are never touched.

Update failures (estimate not stabilized by the current gain, covariance not
yet invertible, non-finite arithmetic) are absorbed: the transition is still
logged, the gain is kept, and the step is flagged as skipped.  Divergence
handling is the harness's job - it halts the loop when the state norm passes
its threshold.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import direct as direct_engine
from . import indirect as indirect_engine
from .dataflow import batch_least_squares, rls_update
from .errors import (
    ConstraintViolated,
    InitialGainUnstable,
    NegativeLambda,
    NoConvergence,
    NotPersistentlyExciting,
    NotStabilizing,
    RuleMismatch,
)
from .linalg import solve_riccati_hewer


class Method(str, Enum):
    """Available policy-update methods."""

    INDIRECT_VANILLA = "indirect_vanilla"
    INDIRECT_NATURAL = "indirect_natural"
    INDIRECT_GAUSS_NEWTON = "indirect_gauss_newton"
    ADAPTIVE_HEWER = "adaptive_hewer"
    DIRECT_VANILLA = "direct_vanilla"
    DIRECT_NATURAL = "direct_natural"
    ONE_SHOT_CE = "one_shot_ce"


DIRECT_METHODS = frozenset({Method.DIRECT_VANILLA, Method.DIRECT_NATURAL})


@dataclass(frozen=True)
class ConstantStep:
    """Fixed stepsize eta > 0."""

    eta: float


@dataclass(frozen=True)
class InverseNormM:
    """Data-adaptive stepsize eta_t = coeff / ||M_t|| with M_t the scaling
    matrix of the current record; direct methods only."""

    coeff: float


@dataclass(frozen=True)
class ZeroLambda:
    """No regularization."""


@dataclass(frozen=True)
class InverseSqrtLambda:
    """Decaying regularization weight lambda0 / sqrt(t - t0), capped at
    lambda0 on the first online sample."""

    lambda0: float


# Methods whose stepsize is part of their definition: adaptive Hewer is
# Gauss-Newton at eta = 1/2, one-shot CE re-solves the Riccati equation.
FIXED_STEPSIZE_RULES = {
    Method.ADAPTIVE_HEWER: ConstantStep(0.5),
    Method.ONE_SHOT_CE: None,
}


@dataclass(frozen=True)
class ControllerSpec:
    """Immutable description of a controller.

    AdaptiveHewer is Gauss-Newton at eta = 1/2 and OneShotCE takes no step,
    by definition: their stepsize rule may be omitted, and any other rule is
    rejected.  Regularization applies to the gradient-based updates; the
    Riccati re-solve of OneShotCE has no use for it, so OneShotCE rejects any
    lambda rule but ZeroLambda.
    """

    method: Method
    stepsize_rule: object = None
    lambda_rule: object = ZeroLambda()
    probe_std: float = 1.0

    def __post_init__(self):
        method = Method(self.method)
        object.__setattr__(self, "method", method)
        rule = self.stepsize_rule
        if method in FIXED_STEPSIZE_RULES:
            fixed = FIXED_STEPSIZE_RULES[method]
            if rule is not None and rule != fixed:
                raise RuleMismatch(
                    f"method {method.value} fixes its stepsize rule to {fixed!r}, "
                    f"got {rule!r}"
                )
            rule = fixed
            object.__setattr__(self, "stepsize_rule", rule)
        elif rule is None:
            raise ValueError(f"method {method.value} requires a stepsize rule")
        if rule is None:
            pass
        elif isinstance(rule, ConstantStep):
            if not rule.eta > 0:
                raise ValueError(f"constant stepsize must be positive, got {rule.eta}")
        elif isinstance(rule, InverseNormM):
            if not rule.coeff > 0:
                raise ValueError(
                    f"inverse-norm stepsize coefficient must be positive, got {rule.coeff}"
                )
            if method not in DIRECT_METHODS:
                raise RuleMismatch(
                    f"InverseNormM stepsizes require a direct method, got {method.value}"
                )
        else:
            raise ValueError(f"unknown stepsize rule {rule!r}")
        lam_rule = self.lambda_rule
        if isinstance(lam_rule, InverseSqrtLambda):
            if lam_rule.lambda0 < 0:
                raise NegativeLambda(
                    f"lambda0 must be nonnegative, got {lam_rule.lambda0}"
                )
        elif not isinstance(lam_rule, ZeroLambda):
            raise ValueError(f"unknown lambda rule {lam_rule!r}")
        if method is Method.ONE_SHOT_CE and not isinstance(lam_rule, ZeroLambda):
            raise RuleMismatch(
                f"method {method.value} does not regularize, got lambda rule {lam_rule!r}"
            )
        if self.probe_std < 0:
            raise ValueError(f"probe_std must be nonnegative, got {self.probe_std}")


@dataclass
class ControllerState:
    """Mutable loop state: current gain, data record, estimate, bookkeeping.

    ``last_eta`` / ``last_lambda`` / ``last_skipped`` describe the most
    recent advance; ``status`` flips to "halted" (with ``halt_reason``) only
    from the outside, by whoever supervises the loop.
    """

    spec: ControllerSpec
    Q: np.ndarray
    R: np.ndarray
    gain: np.ndarray
    record: object
    estimate: object
    t0: int
    status: str = "running"
    halt_reason: str | None = None
    last_eta: float = float("nan")
    last_lambda: float = 0.0
    last_skipped: bool = False

    @property
    def t(self):
        return self.record.t

    def halt(self, reason):
        self.status = "halted"
        self.halt_reason = reason


def initialize(spec, Q, R, offline_record, K_init=None):
    """Set up a controller from an offline record.

    The record is snapshotted and must be persistently exciting (else
    ``NotPersistentlyExciting`` propagates from the batch solve).  Unless
    ``K_init`` is supplied, the initial gain is the certainty-equivalence
    Riccati gain of the batch least-squares estimate; failure to produce a
    stabilizing gain for that estimate raises ``InitialGainUnstable``.
    """
    spec = spec if isinstance(spec, ControllerSpec) else ControllerSpec(**spec)
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
    return ControllerState(
        spec=spec,
        Q=Q,
        R=R,
        gain=gain,
        record=record,
        estimate=None if spec.method in DIRECT_METHODS else estimate,
        t0=record.t,
    )


def control_input(state, x, probe_sample):
    """Feedback plus scaled exploration: u = K x + probe_std * probe_sample.

    ``probe_sample`` should be a unit-variance draw; the spec's probe
    standard deviation is applied here.
    """
    x = np.asarray(x, dtype=float)
    probe_sample = np.asarray(probe_sample, dtype=float)
    return state.gain @ x + state.spec.probe_std * probe_sample


def lambda_value(spec, t, t0):
    """Regularization weight at sample count t (>= t0)."""
    if t < t0:
        raise ValueError(f"t={t} precedes the online phase start t0={t0}")
    rule = spec.lambda_rule
    if isinstance(rule, ZeroLambda):
        return 0.0
    if t == t0:
        return rule.lambda0
    return rule.lambda0 / math.sqrt(t - t0)


def stepsize(state):
    """Stepsize the next update will use, under the spec's rule; NaN for a
    method without one (OneShotCE re-solves the Riccati equation outright).
    """
    rule = state.spec.stepsize_rule
    if rule is None:
        return float("nan")
    if isinstance(rule, ConstantStep):
        return rule.eta
    if isinstance(rule, InverseNormM):
        M = direct_engine.scaling_matrix(state.record)
        norm = float(np.linalg.norm(M, 2))
        if norm <= 0.0:
            raise NotPersistentlyExciting("scaling matrix is zero")
        return rule.coeff / norm
    raise RuleMismatch(f"unknown stepsize rule {rule!r}")


def _policy_update(state, eta, lam):
    method = state.spec.method
    K, Q, R = state.gain, state.Q, state.R
    record = state.record
    phi_inv = record.phi_inv if lam > 0.0 else None
    if method is Method.INDIRECT_VANILLA:
        grad = indirect_engine.regularized_gradient(
            state.estimate, Q, R, K, phi_inv, lam
        )
        return K - eta * grad
    if method is Method.INDIRECT_NATURAL:
        return indirect_engine.natural_step(
            state.estimate, Q, R, K, eta, phi_inv=phi_inv, lam=lam
        )
    if method in (Method.INDIRECT_GAUSS_NEWTON, Method.ADAPTIVE_HEWER):
        return indirect_engine.gauss_newton_step(
            state.estimate, Q, R, K, eta, phi_inv=phi_inv, lam=lam
        )
    if method is Method.ONE_SHOT_CE:
        # Warm start from the current gain; when it, or an iterate it leads
        # to, fails to stabilize the estimate, start over from scratch.
        est = state.estimate
        try:
            return solve_riccati_hewer(est.Ahat, est.Bhat, Q, R, K0=K).gain
        except NotStabilizing:
            return solve_riccati_hewer(est.Ahat, est.Bhat, Q, R).gain
    if method is Method.DIRECT_VANILLA:
        V = direct_engine.parameterize(record, K)
        _, K_next = direct_engine.projected_step(record, V, Q, R, eta, lam=lam)
        return K_next
    if method is Method.DIRECT_NATURAL:
        return direct_engine.natural_direct_step(record, K, Q, R, eta, lam=lam)
    raise RuleMismatch(f"unknown method {method!r}")


def advance(state, x, u, x_next, w_oracle=None):
    """Log one transition and perform one policy update.

    For model-based methods the recursive least-squares update runs against
    the pre-append record (matching the batch solution of the extended one),
    then the transition is appended, then the gain is updated using the
    refreshed estimate/moments.  Any engine failure leaves the gain in place
    and sets ``last_skipped``.
    """
    if state.status != "running":
        return state
    skip = False
    new_estimate = None
    if state.spec.method not in DIRECT_METHODS:
        try:
            new_estimate = rls_update(state.estimate, state.record, u, x, x_next)
        except NotPersistentlyExciting:
            skip = True
    state.record.append(u, x, x_next, w_oracle)
    if new_estimate is not None:
        if np.all(np.isfinite(new_estimate.theta)):
            state.estimate = new_estimate
        else:
            skip = True
    lam = lambda_value(state.spec, state.record.t, state.t0)
    try:
        eta = stepsize(state)
    except NotPersistentlyExciting:
        eta = float("nan")
        skip = True
    state.last_lambda = lam
    state.last_eta = eta
    if not skip:
        try:
            K_next = _policy_update(state, eta, lam)
            if np.all(np.isfinite(K_next)):
                state.gain = K_next
            else:
                skip = True
        except (
            NotStabilizing,
            NotPersistentlyExciting,
            ConstraintViolated,
            NoConvergence,
            np.linalg.LinAlgError,
        ):
            skip = True
    state.last_skipped = skip
    return state
