"""Adaptive LQR controllers built on the gradient engines.

A controller owns a growing :class:`~pgac.dataflow.DataRecord` and a current
feedback gain.  Each :func:`advance` logs one closed-loop transition and
performs one policy update from the record's batch least-squares estimate,
built once per sample and shared by every reader; the true plant matrices are
never touched.

A step has one failure path: it is skipped (the transition is still logged,
the gain kept and ``last_skipped`` set) when the stepsize or the update raises
``NotStabilizing``, ``NotPersistentlyExciting``, ``NoConvergence`` or
``numpy.linalg.LinAlgError``, or gives a non-finite gain.  A transition that
would make the record's moments non-finite raises ``NonFiniteData`` instead;
halting is the harness's job.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import direct as direct_engine
from . import indirect as indirect_engine
# rls_update stays bound here because perfbench's tracer wraps it by this name.
from .dataflow import batch_least_squares, rls_update  # noqa: F401
from .errors import (
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

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError(f"constant stepsize must be positive and finite, got {self.eta}")

    def __call__(self, record):
        return self.eta


@dataclass(frozen=True)
class InverseNormM:
    """Data-adaptive stepsize eta_t = coeff / ||M_t|| with M_t the scaling
    matrix of the current record; direct methods only."""

    coeff: float

    def __post_init__(self):
        if not 0 < self.coeff < math.inf:
            raise ValueError(f"InverseNormM coeff must be positive and finite, got {self.coeff}")

    def __call__(self, record):
        # the spectral norm, as np.linalg.norm(M, 2) takes it: the largest
        # singular value, first in LAPACK's descending order
        norm = float(np.linalg.svd(direct_engine.scaling_matrix(record), compute_uv=False)[0])
        if norm <= 0.0:
            raise NotPersistentlyExciting("scaling matrix is zero")
        return self.coeff / norm


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
        if not math.isfinite(self.lambda0):
            raise ValueError(f"lambda0 must be finite, got {self.lambda0}")
        if self.lambda0 < 0:
            raise NegativeLambda(f"lambda0 must be nonnegative, got {self.lambda0}")

    def __call__(self, t, t0):
        return self.lambda0 if t == t0 else self.lambda0 / math.sqrt(t - t0)


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
        if method in FIXED_STEPSIZE_RULES:
            fixed = FIXED_STEPSIZE_RULES[method]
            if self.stepsize_rule not in (None, fixed):
                raise RuleMismatch(
                    f"method {method.value} fixes its stepsize rule to {fixed!r}, "
                    f"got {self.stepsize_rule!r}"
                )
            object.__setattr__(self, "stepsize_rule", fixed)
        elif not isinstance(self.stepsize_rule, (ConstantStep, InverseNormM)):
            raise ValueError(
                f"method {method.value} requires a ConstantStep or InverseNormM stepsize "
                f"rule, got {self.stepsize_rule!r}"
            )
        if isinstance(self.stepsize_rule, InverseNormM) and method not in DIRECT_METHODS:
            raise RuleMismatch(
                f"InverseNormM stepsizes require a direct method, got {method.value}"
            )
        if not isinstance(self.lambda_rule, (ZeroLambda, InverseSqrtLambda)):
            raise ValueError(f"unknown lambda rule {self.lambda_rule!r}")
        if method is Method.ONE_SHOT_CE and not isinstance(self.lambda_rule, ZeroLambda):
            raise RuleMismatch(
                f"method {method.value} does not regularize, got lambda rule {self.lambda_rule!r}"
            )
        if not 0 <= self.probe_std < math.inf:
            raise ValueError(
                f"probe_std must be nonnegative and finite, got {self.probe_std}"
            )


@dataclass
class ControllerState:
    """Mutable loop state: current gain, data record, bookkeeping.

    ``last_eta`` / ``last_lambda`` / ``last_skipped`` describe the most
    recent advance.  Halting is the supervising loop's job.
    """

    spec: ControllerSpec
    Q: np.ndarray
    R: np.ndarray
    gain: np.ndarray
    record: object
    t0: int
    last_eta: float = float("nan")
    last_lambda: float = 0.0
    last_skipped: bool = False


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
    return spec.lambda_rule(t, t0)


def stepsize(state):
    """Stepsize the next update will use, under the spec's rule; NaN for a
    method without one (OneShotCE re-solves the Riccati equation outright).
    """
    rule = state.spec.stepsize_rule
    return math.nan if rule is None else rule(state.record)


def _policy_update(state, eta, lam):
    method = state.spec.method
    K, Q, R = state.gain, state.Q, state.R
    record = state.record
    est = record.cached("estimate", batch_least_squares)
    phi_inv = record.phi_inv if lam > 0.0 else None
    if method in (Method.INDIRECT_VANILLA, Method.DIRECT_VANILLA):
        grad = indirect_engine.regularized_gradient(est, Q, R, K, phi_inv, lam)
        if method is Method.DIRECT_VANILLA:
            # the projected covariance step Ubar Pi grad_V(V) equals the model
            # gradient preconditioned by M = Ubar Pi Ubar' (criterion 03)
            grad = direct_engine.scaling_matrix(record) @ grad
        return K - eta * grad
    if method in (Method.INDIRECT_NATURAL, Method.DIRECT_NATURAL):
        return indirect_engine.natural_step(est, Q, R, K, eta, phi_inv=phi_inv, lam=lam)
    if method in (Method.INDIRECT_GAUSS_NEWTON, Method.ADAPTIVE_HEWER):
        return indirect_engine.gauss_newton_step(
            est, Q, R, K, eta, phi_inv=phi_inv, lam=lam
        )
    if method is Method.ONE_SHOT_CE:
        # Warm start from the current gain; when it, or an iterate it leads
        # to, fails to stabilize the estimate, start over from scratch.
        try:
            return solve_riccati_hewer(est.Ahat, est.Bhat, Q, R, K0=K).gain
        except NotStabilizing:
            return solve_riccati_hewer(est.Ahat, est.Bhat, Q, R).gain
    raise RuleMismatch(f"unknown method {method!r}")


def advance(state, x, u, x_next, w_oracle=None):
    """Log one transition and perform one policy update.

    The transition is appended, then the gain is updated from the extended
    record's moments and its batch least-squares estimate.  A skip (see the
    module docstring) keeps the gain and sets ``last_skipped``; ``last_eta``
    is NaN when the stepsize failed.
    """
    state.record.append(u, x, x_next, w_oracle)
    state.last_lambda = lambda_value(state.spec, state.record.t, state.t0)
    state.last_eta = math.nan
    try:
        state.last_eta = stepsize(state)
        K_next = _policy_update(state, state.last_eta, state.last_lambda)
        if not np.isfinite(K_next).all():
            raise FloatingPointError("the update gave a non-finite gain")
    except (NotStabilizing, NotPersistentlyExciting, NoConvergence,
            np.linalg.LinAlgError, FloatingPointError):
        state.last_skipped = True
    else:
        state.gain, state.last_skipped = K_next, False
    return state
