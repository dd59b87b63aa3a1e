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
    NonFiniteData,
    NotPersistentlyExciting,
    OracleUnavailable,
)
from .linalg import each_slice, symmetrize

# Rank-one updates of a record's inverse between two dense re-inversions.
REINVERT_EVERY = 1000


class DataRecord:
    """Growing record of one closed-loop trajectory, or of ``trials`` of them
    stepped together.

    Keeps only moments, O((m+n)^2) memory whatever the length: the running
    sample covariance Phi = D0 D0' / t of the stacked data D0 = [U0; X0] and
    the cross moments Ubar = U0 D0'/t, Xbar0 = X0 D0'/t, Xbar1 = X1 D0'/t,
    Wbar = W0 D0'/t.  All of them are row blocks of one stacked moment block
    [Phi; Xbar1; Wbar] (Ubar and Xbar0 are the row blocks of Phi), which a
    transition updates in one rank-one step, and are exposed as its views.
    A record of ``trials`` trajectories keeps a leading trial axis on every
    array and view; its trials share the sample count t.  Every operation is
    elementwise across that axis or a stacked kernel, so each trial's arrays
    are bitwise those of a record of that trial alone.

    The inverse of Phi is tracked with rank-one (Sherman-Morrison) updates
    once available and re-inverted densely every ``REINVERT_EVERY`` updates
    to stop drift; accessing :attr:`phi_inv` before Phi is invertible raises
    ``NotPersistentlyExciting``.

    Single-writer: ``append`` mutates; use :meth:`copy` to snapshot for
    concurrent readers.  ``append`` replaces the moment block with a new
    array and never writes into an old one, so ``phi``, ``xbar1`` or
    ``wbar`` read at one step keeps that step's value; the harness's monitor
    relies on this.
    """

    def __init__(self, m, n, trials=None):
        if m < 1 or n < 1:
            raise DimensionMismatch(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = int(m)
        self.n = int(n)
        self.t = 0
        d = self.m + self.n
        lead = () if trials is None else (int(trials),)
        self._oracle_cols = 0
        # rows [0, d) hold Phi, [d, d + n) Xbar1 and [d + n, d + 2n) Wbar
        self._moments = np.zeros(lead + (d + 2 * self.n, d))
        # A trial's inverse is NaN until it is first inverted, and again
        # while its Phi is too close to singular to invert.  The per-trial
        # flags and sample counts of the last dense inversion have one entry
        # for a single record.
        self._phi_inv = np.full(lead + (d, d), np.nan)
        self._inverted = np.zeros(lead or (1,), dtype=bool)
        self._inverted_at = np.zeros(lead or (1,), dtype=int)
        self._derived = {}
        self._sync()

    def _sync(self):
        # Python-level summaries of the per-trial flags, so that an append
        # reads them without a numpy call: whether all or any trial has an
        # inverse, and the sample count at which the next one is due for
        # dense re-inversion.
        self._all_inverted = bool(self._inverted.all())
        self._any_inverted = bool(self._inverted.any())
        self._next_dense = (int(self._inverted_at[self._inverted].min()) + REINVERT_EVERY
                            if self._any_inverted else math.inf)

    @property
    def _updates_since_inversion(self):
        # rank-one updates since each trial's last dense inversion
        return np.where(self._inverted, self.t - self._inverted_at, 0)

    # -- construction helpers -------------------------------------------------

    def copy(self):
        """Deep snapshot of the record."""
        return self.take(np.s_[:])

    def take(self, trials):
        """The record of the selected trials of a stacked record: ``trials``
        is a boolean mask or index array over the trial axis, or an integer
        i for the single record of trial i."""
        other = DataRecord.__new__(DataRecord)
        other.__dict__.update(self.__dict__)
        other._derived = {}
        single = np.ndim(trials) == 0 and not isinstance(trials, slice)
        flags = np.s_[trials : trials + 1] if single else trials
        other._moments = self._moments[trials].copy()
        other._phi_inv = self._phi_inv[trials].copy()
        other._inverted = self._inverted[flags].copy()
        other._inverted_at = self._inverted_at[flags].copy()
        other._sync()
        return other

    @classmethod
    def stack(cls, records):
        """One stacked record of single records holding the same number of
        samples."""
        other = records[0].copy()
        other._moments = np.stack([rec._moments for rec in records])
        other._phi_inv = np.stack([rec._phi_inv for rec in records])
        other._inverted = np.concatenate([rec._inverted for rec in records])
        other._inverted_at = np.concatenate([rec._inverted_at for rec in records])
        other._sync()
        return other

    # -- mutation -------------------------------------------------------------

    def append(self, u, x, x_next, w=None):
        """Log one transition (u_t, x_t, x_{t+1}) and update all moments; on
        a stacked record, each argument carries the trial axis.

        ``w`` is the true process noise, available in simulation only; pass
        it consistently (always or never) if SNR readings are wanted.  A
        transition that would make a moment non-finite raises
        ``NonFiniteData`` and leaves the record as it was; on a stacked
        record, the exception's ``trials`` marks the trials at fault.
        """
        lead = self._moments.shape[:-2]
        u = np.asarray(u, dtype=float)
        x = np.asarray(x, dtype=float)
        x_next = np.asarray(x_next, dtype=float)
        if not lead:
            u, x, x_next = u.reshape(-1), x.reshape(-1), x_next.reshape(-1)
        if (u.shape != lead + (self.m,) or x.shape != lead + (self.n,)
                or x_next.shape != x.shape):
            raise DimensionMismatch(
                f"expected u {lead + (self.m,)}, x {lead + (self.n,)}, "
                f"x_next {lead + (self.n,)}; got {u.shape}, {x.shape}, {x_next.shape}"
            )
        phi = np.concatenate([u, x], axis=-1)
        if w is None:
            rows = np.concatenate([phi, x_next], axis=-1)
        else:
            w = np.asarray(w, dtype=float)
            w = w if lead else w.reshape(-1)
            if w.shape != x.shape:
                raise DimensionMismatch(f"expected w {x.shape}, got {w.shape}")
            rows = np.concatenate([phi, x_next, w], axis=-1)
        # (t M + r phi') / (t + 1) for every moment M with a new sample r;
        # Wbar without a noise sample is t Wbar / (t + 1)
        t = self.t
        moments = t * self._moments
        moments[..., : rows.shape[-1], :] += rows[..., :, None] * phi[..., None, :]
        moments /= t + 1
        d = self.m + self.n
        moments[..., :d, :] = symmetrize(moments[..., :d, :])
        if not np.isfinite(moments).all():
            raise NonFiniteData(f"sample {t + 1} makes the data moments non-finite",
                                trials=~np.isfinite(moments).all(axis=(-2, -1)))
        self._oracle_cols += w is not None
        self._moments = moments
        self.t = t + 1
        self._derived = {}
        self._update_inverse(phi, t)
        return self

    def _update_inverse(self, phi, t_before):
        if not self._any_inverted:
            return
        # Phi_{t+1} = (t Phi_t + phi phi') / (t+1); Sherman-Morrison on the
        # unnormalized Gram matrix, then rescale.  A trial without an inverse
        # keeps its NaN one.
        ainv = self._phi_inv / t_before
        if phi.ndim == 1:
            v = ainv @ phi
            outer = v[:, None] * v / (1.0 + float(phi @ v))
        else:
            # each trial's products as its matrix times its column, bitwise
            # the products of that trial alone
            v = (ainv @ phi[:, :, None])[:, :, 0]
            denom = 1.0 + (phi[:, None, :] @ v[:, :, None])[:, 0, 0]
            outer = v[:, :, None] * v[:, None, :] / denom[:, None, None]
        self._phi_inv = symmetrize((t_before + 1) * (ainv - outer))
        if self.t >= self._next_dense:
            self._invert_dense(self._inverted
                               & (self.t - self._inverted_at >= REINVERT_EVERY))

    def _invert_dense(self, trials):
        # Dense inverse of the selected trials' Phi (a mask over the trial
        # axis), or NaN and not inverted where Phi is too close to singular.
        d = self.m + self.n
        sel = np.flatnonzero(trials)
        phi = self.phi.reshape(-1, d, d)[sel]
        s, ok = each_slice(lambda phi: np.linalg.svd(phi, compute_uv=False), phi)
        good = np.zeros(len(sel), dtype=bool)
        good[np.s_[:] if ok is None else ok] = (
            (s[:, -1] > 1e-12 * np.maximum(s[:, 0], 1.0)) & (self.t >= d))
        inv, ok = each_slice(np.linalg.inv, phi[good])
        if ok is not None:
            good[good] = ok
        phi_inv = self._phi_inv.copy()
        flat = phi_inv.reshape(-1, d, d)
        flat[sel] = np.nan
        flat[sel[good]] = symmetrize(inv)
        self._phi_inv = phi_inv
        self._inverted = self._inverted.copy()
        self._inverted[sel] = good
        self._inverted_at = self._inverted_at.copy()
        self._inverted_at[sel] = self.t
        self._sync()

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
        return self._moments[..., : self.m + self.n, :]

    @property
    def ubar(self):
        """Input cross moment U0 D0' / t (top row block of phi)."""
        return self._moments[..., : self.m, :]

    @property
    def xbar0(self):
        """State cross moment X0 D0' / t (bottom row block of phi)."""
        return self._moments[..., self.m : self.m + self.n, :]

    @property
    def xbar1(self):
        """Successor cross moment X1 D0' / t."""
        d = self.m + self.n
        return self._moments[..., d : d + self.n, :]

    @property
    def wbar(self):
        """Noise cross moment W0 D0' / t (oracle channel)."""
        return self._moments[..., self.m + 2 * self.n :, :]

    def inverse(self):
        """(Phi^{-1}, inverted): the inverse, a stack over the trials of a
        stacked record, and the mask of the trials that have one, None for
        all.  A trial whose Phi is singular has a NaN inverse; a single
        record raises ``NotPersistentlyExciting`` instead."""
        if not self._all_inverted:
            self._invert_dense(~self._inverted)
        if self._all_inverted:
            return self._phi_inv, None
        if self._moments.ndim == 2:
            raise NotPersistentlyExciting(
                f"sample covariance is singular after t={self.t} samples "
                f"(need at least {self.m + self.n})"
            )
        return self._phi_inv, self._inverted

    @property
    def phi_inv(self):
        """Inverse sample covariance, rank-one maintained.

        Raises ``NotPersistentlyExciting`` while Phi is singular (for some
        trial of a stacked record).
        """
        phi_inv, inverted = self.inverse()
        if inverted is not None:
            raise NotPersistentlyExciting(
                f"sample covariance is singular for some trials after t={self.t} samples"
            )
        return phi_inv

    def __repr__(self):
        trials = "" if self._moments.ndim == 2 else f", trials={len(self._inverted)}"
        return f"DataRecord(m={self.m}, n={self.n}, t={self.t}{trials})"


@dataclass
class ModelEstimate:
    """Point estimate (Ahat, Bhat) of the system matrices."""

    Ahat: np.ndarray
    Bhat: np.ndarray

    @property
    def theta(self):
        """Stacked regression form [Bhat, Ahat] matching phi = [u; x]."""
        return np.concatenate([self.Bhat, self.Ahat], axis=-1)

    @classmethod
    def from_theta(cls, theta, m):
        theta = np.asarray(theta, dtype=float)
        return cls(Ahat=theta[..., m:].copy(), Bhat=theta[..., :m].copy())


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
    theta_new = theta + (x_next - theta @ phi)[:, None] * gain_row / denom
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
    gamma, delta, snr = snr_readings(record.phi[None], record.wbar[None])
    return SnrReading(gamma=float(gamma[0]), delta=float(delta[0]), snr=float(snr[0]))


def snr_readings(phis, wbars):
    """(gamma, delta, snr) arrays for a (k, d, d) stack of sample covariances
    and the matching (k, n, d) stack of noise cross moments, as kept by
    records that logged every true noise.

    One stacked eigensolve and one stacked SVD for the whole stack; each
    entry is bitwise what :func:`snr_reading` gives for that record.
    """
    gamma = _sigma_min_psd(phis)
    # the spectral norm, as np.linalg.norm(wbar, 2) takes it: the largest of
    # the singular values, which come sorted in descending order
    delta = np.linalg.svd(wbars, compute_uv=False)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(delta == 0.0, math.inf, gamma / delta)
    return gamma, delta, snr


def _sigma_min_psd(S):
    # Smallest singular value of the (symmetric PSD) sample covariance, or of
    # each in a stack; the symmetric eigensolver is cheaper than a general SVD
    # and agrees for PSD input up to roundoff.  Clamp tiny negative
    # eigenvalues from roundoff.
    return np.maximum(np.linalg.eigvalsh(S)[..., 0], 0.0)

