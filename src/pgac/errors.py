"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`PgacError` so callers can
catch domain failures without swallowing programming errors.
"""


class PgacError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PgacError):
    """Operands have incompatible shapes."""


class NonSymmetric(PgacError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class NotPD(PgacError):
    """A matrix required to be symmetric positive definite is not."""


class NotStable(PgacError):
    """A closed-loop matrix has spectral radius >= 1 (up to margin)."""


class NotStabilizing(PgacError):
    """A gain fails to stabilize the system it is applied to."""


class NotStabilizingForEstimate(NotStabilizing):
    """Gain does not stabilize the current model estimate."""


class NotStabilizingForData(NotStabilizing):
    """Covariance policy yields an unstable data-implied closed loop."""


class NoConvergence(PgacError):
    """An iterative solver exhausted its iteration budget."""


class RankDeficient(PgacError):
    """A matrix required to have full rank is rank deficient."""


class NotPersistentlyExciting(PgacError):
    """Sample covariance of the logged data is singular (too little data)."""


class NonFiniteData(PgacError):
    """A sample would make the data moments non-finite (overflow).

    ``trials`` marks the trials at fault when the record steps several.
    """

    def __init__(self, message, trials=None):
        super().__init__(message)
        self.trials = trials


class OracleUnavailable(PgacError):
    """A simulation-only quantity was requested outside simulation."""


class ConstraintViolated(PgacError):
    """A covariance policy violates its consistency constraint."""


class NegativeLambda(PgacError):
    """Regularization weight must be nonnegative."""


class CertificateViolated(PgacError):
    """A claimed strong-stability certificate fails its defining checks."""


class RuleMismatch(PgacError):
    """A stepsize or lambda rule is used with a method it does not apply to."""


class InitialGainUnstable(PgacError):
    """Certainty-equivalence initialization failed to produce a usable gain."""


class ConfigError(PgacError):
    """An experiment configuration is malformed or inconsistent."""
