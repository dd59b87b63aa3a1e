"""Closed-loop data bookkeeping: the sample covariance and its cross-moment
blocks (maintained incrementally, without keeping the raw samples), recursive
least squares, and the signal-to-noise diagnostics.

Column convention: a regression vector is phi = [u; x] with the input block
on top, so the batch least-squares solution is theta = [Bhat, Ahat].
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPersistentlyExciting,
    OracleUnavailable,
)
from .linalg import symmetrize


class DataRecord:
    """Growing record of one closed-loop trajectory.

    Keeps only moments, O((m+n)^2) memory whatever the length: the running
    sample covariance Phi = D0 D0' / t of the stacked data D0 = [U0; X0] and
    the cross moments Ubar = U0 D0'/t, Xbar0 = X0 D0'/t, Xbar1 = X1 D0'/t,
    Wbar = W0 D0'/t.  Ubar and Xbar0 are literally the row blocks of Phi and
    are exposed as views of it.

    The inverse of Phi is tracked with rank-one (Sherman-Morrison) updates
    once available and re-inverted densely every ``reinvert_every`` updates
    to stop drift; accessing :attr:`phi_inv` before Phi is invertible raises
    ``NotPersistentlyExciting``.

    Single-writer: ``append`` mutates; use :meth:`copy` to snapshot for
    concurrent readers.
    """

    def __init__(self, m, n, reinvert_every=1000):
        if m < 1 or n < 1:
            raise DimensionMismatch(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = int(m)
        self.n = int(n)
        self.t = 0
        d = self.m + self.n
        self._oracle_cols = 0
        self._phi = np.zeros((d, d))
        self._xbar1 = np.zeros((self.n, d))
        self._wbar = np.zeros((self.n, d))
        self._phi_inv = None
        self._updates_since_inversion = 0
        self._reinvert_every = int(reinvert_every)
        self._derived = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_arrays(cls, U0, X0, X1, W0=None, reinvert_every=1000):
        """Build a record by replaying column arrays through append."""
        U0 = np.atleast_2d(np.asarray(U0, dtype=float))
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        X1 = np.atleast_2d(np.asarray(X1, dtype=float))
        rec = cls(U0.shape[0], X0.shape[0], reinvert_every=reinvert_every)
        for j in range(U0.shape[1]):
            w = None if W0 is None else np.asarray(W0, dtype=float)[:, j]
            rec.append(U0[:, j], X0[:, j], X1[:, j], w)
        return rec

    def copy(self):
        """Deep snapshot of the record."""
        other = DataRecord(self.m, self.n, reinvert_every=self._reinvert_every)
        other.t = self.t
        other._oracle_cols = self._oracle_cols
        other._phi = self._phi.copy()
        other._xbar1 = self._xbar1.copy()
        other._wbar = self._wbar.copy()
        other._phi_inv = None if self._phi_inv is None else self._phi_inv.copy()
        other._updates_since_inversion = self._updates_since_inversion
        return other

    # -- mutation -------------------------------------------------------------

    def append(self, u, x, x_next, w=None):
        """Log one transition (u_t, x_t, x_{t+1}) and update all moments.

        ``w`` is the true process noise, available in simulation only; pass
        it consistently (always or never) if SNR readings are wanted.
        """
        u = np.asarray(u, dtype=float).reshape(-1)
        x = np.asarray(x, dtype=float).reshape(-1)
        x_next = np.asarray(x_next, dtype=float).reshape(-1)
        if u.shape != (self.m,) or x.shape != (self.n,) or x_next.shape != (self.n,):
            raise DimensionMismatch(
                f"expected u ({self.m},), x ({self.n},), x_next ({self.n},); "
                f"got {u.shape}, {x.shape}, {x_next.shape}"
            )
        phi = np.concatenate([u, x])
        t = self.t
        self._phi = symmetrize((t * self._phi + np.outer(phi, phi)) / (t + 1))
        self._xbar1 = (t * self._xbar1 + np.outer(x_next, phi)) / (t + 1)
        if w is not None:
            w = np.asarray(w, dtype=float).reshape(-1)
            if w.shape != (self.n,):
                raise DimensionMismatch(f"expected w ({self.n},), got {w.shape}")
            self._wbar = (t * self._wbar + np.outer(w, phi)) / (t + 1)
            self._oracle_cols += 1
        else:
            self._wbar = t * self._wbar / (t + 1)
        self.t = t + 1
        self._derived = {}
        self._update_inverse(phi, t)
        return self

    def _update_inverse(self, phi, t_before):
        if self._phi_inv is None:
            return
        # Phi_{t+1} = (t Phi_t + phi phi') / (t+1); Sherman-Morrison on the
        # unnormalized Gram matrix, then rescale.
        ainv = self._phi_inv / t_before
        v = ainv @ phi
        denom = 1.0 + float(phi @ v)
        self._phi_inv = symmetrize((t_before + 1) * (ainv - np.outer(v, v) / denom))
        self._updates_since_inversion += 1
        if self._updates_since_inversion >= self._reinvert_every:
            self._invert_dense()

    def _invert_dense(self):
        d = self.m + self.n
        s = np.linalg.svd(self._phi, compute_uv=False)
        if self.t < d or s[-1] <= 1e-12 * max(s[0], 1.0):
            self._phi_inv = None
            self._updates_since_inversion = 0
            return
        self._phi_inv = symmetrize(np.linalg.inv(self._phi))
        self._updates_since_inversion = 0

    # -- views ----------------------------------------------------------------

    def cached(self, key, build):
        """``build(self)`` for a quantity of the moments alone: built on the
        first call after an append and shared by every call until the next."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    @property
    def has_oracle(self):
        return self.t > 0 and self._oracle_cols == self.t

    @property
    def phi(self):
        """Sample covariance of the stacked data, D0 D0' / t."""
        return self._phi

    @property
    def ubar(self):
        """Input cross moment U0 D0' / t (top row block of phi)."""
        return self._phi[: self.m, :]

    @property
    def xbar0(self):
        """State cross moment X0 D0' / t (bottom row block of phi)."""
        return self._phi[self.m :, :]

    @property
    def xbar1(self):
        """Successor cross moment X1 D0' / t."""
        return self._xbar1

    @property
    def wbar(self):
        """Noise cross moment W0 D0' / t (oracle channel)."""
        return self._wbar

    @property
    def phi_inv(self):
        """Inverse sample covariance, rank-one maintained.

        Raises ``NotPersistentlyExciting`` while Phi is singular.
        """
        if self._phi_inv is None:
            self._invert_dense()
        if self._phi_inv is None:
            raise NotPersistentlyExciting(
                f"sample covariance is singular after t={self.t} samples "
                f"(need at least {self.m + self.n})"
            )
        return self._phi_inv

    def __repr__(self):
        return f"DataRecord(m={self.m}, n={self.n}, t={self.t})"


@dataclass
class ModelEstimate:
    """Point estimate (Ahat, Bhat) of the system matrices."""

    Ahat: np.ndarray
    Bhat: np.ndarray

    @property
    def theta(self):
        """Stacked regression form [Bhat, Ahat] matching phi = [u; x]."""
        return np.hstack([self.Bhat, self.Ahat])

    @classmethod
    def from_theta(cls, theta, m):
        theta = np.asarray(theta, dtype=float)
        return cls(Ahat=theta[:, m:].copy(), Bhat=theta[:, :m].copy())


@dataclass
class SnrReading:
    """Excitation/noise diagnostics of a record.

    gamma is the smallest singular value of the sample covariance, delta the
    spectral norm of the noise cross moment, and snr their ratio (infinite
    for noiseless data).
    """

    gamma: float
    delta: float
    snr: float


def batch_least_squares(record):
    """Ordinary least squares estimate [Bhat, Ahat] = Xbar1 Phi^{-1}.

    Requires a persistently exciting record (invertible sample covariance).
    """
    theta = record.xbar1 @ record.phi_inv
    return ModelEstimate.from_theta(theta, record.m)


def rls_update(estimate, record, u, x, x_next):
    """Recursive least-squares update for one new transition.

    ``record`` must be the record *before* the transition is appended; the
    update uses its inverse covariance and sample count, and the result
    equals the batch solution of the extended record when ``estimate`` is
    the batch solution of ``record``.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    x_next = np.asarray(x_next, dtype=float).reshape(-1)
    phi = np.concatenate([u, x])
    theta = estimate.theta
    gain_row = record.phi_inv @ phi
    denom = record.t + float(phi @ gain_row)
    theta_new = theta + np.outer(x_next - theta @ phi, gain_row) / denom
    return ModelEstimate.from_theta(theta_new, record.m)


def snr_reading(record):
    """Signal-to-noise reading (gamma, delta, snr) of a record.

    Only available when the true noises were logged (simulation); raises
    ``OracleUnavailable`` otherwise.
    """
    if record.t < 1:
        raise ValueError("snr_reading needs at least one sample")
    if not record.has_oracle:
        raise OracleUnavailable(
            "true process noise was not logged for every sample"
        )
    gamma = _sigma_min_psd(record.phi)
    delta = float(np.linalg.norm(record.wbar, 2))
    snr = math.inf if delta == 0.0 else gamma / delta
    return SnrReading(gamma=gamma, delta=delta, snr=snr)


def _sigma_min_psd(S):
    # Smallest singular value of the (symmetric PSD) sample covariance; the
    # symmetric eigensolver is cheaper than a general SVD and agrees for PSD
    # input up to roundoff.  Clamp tiny negative eigenvalues from roundoff.
    return float(max(np.linalg.eigvalsh(S)[0], 0.0))


def pe_check(record, gamma_floor):
    """True when the record's excitation level sigma_min(Phi) >= gamma_floor."""
    if record.t < 1:
        return False
    return bool(_sigma_min_psd(record.phi) >= gamma_floor)
