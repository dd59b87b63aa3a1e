"""Experiment harness: the benchmark plant, seeded closed-loop trials,
Monte Carlo aggregation, CSV emission, and the flat key-value config format.

Reproducibility contract: every number a trial logs is a pure function of
(seed, trial_index, config).  Each trial draws from three independent
counter-based streams (offline inputs, process noise, probes) keyed by
(seed, trial_index, stream), so trials can run in any order, in parallel, or
together in lockstep without changing a byte of output.  Wall-clock timing
is the one inherently irreproducible quantity: the ``step_time_s`` column
holds the update's wall time only when ``record_timing`` is set, and is
exactly 0.0 otherwise.  When trials step together, a step's update time is
shared evenly among the trials that took it.
"""

import ast
import itertools
import math
import operator
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    ConstantStep,
    ControllerSpec,
    InverseNormM,
    InverseSqrtLambda,
    ZeroLambda,
    _real,
    advance,
    control_input,
    initialize,
)
from .dataflow import DataRecord, snr_readings
from .errors import (
    ConfigError,
    InitialGainUnstable,
    NonFiniteData,
    NotPersistentlyExciting,
    PgacError,
)
from .plant import LinearQuadraticPlant, optimal_gain, step, true_costs
# snr_reading and lqr_cost are bound here only so that perfbench's tracer can
# wrap them by these names; no pgac code calls them here.
from .dataflow import snr_reading  # noqa: F401
from .plant import lqr_cost  # noqa: F401

OFFLINE_STREAM = 0
NOISE_STREAM = 1
PROBE_STREAM = 2

# Online steps of probes and process noise drawn per call of a trial's
# generators: a block draw is bitwise the same draws made one step at a time.
DRAW_BLOCK = 256

TRAJECTORY_COLUMNS = (
    "t",
    "cost",
    "gap",
    "state_norm",
    "gamma",
    "delta",
    "snr",
    "lambda",
    "eta",
    "skipped",
    "step_time_s",
)
SUMMARY_COLUMNS = ("method", "trials", "P", "M", "mean_step_time_s")


def benchmark_plant():
    """The marginally unstable three-state benchmark with cheap control."""
    A = np.array(
        [
            [1.01, 0.01, 0.00],
            [0.01, 1.01, 0.01],
            [0.00, 0.01, 1.01],
        ]
    )
    B = np.eye(3)
    Q = np.eye(3)
    R = 1e-3 * np.eye(3)
    return LinearQuadraticPlant(A, B, Q, R)


def _integer(name, value):
    # an integer of any type (np.int64 too) as an int; not a float or a bool
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one Monte Carlo experiment.

    ``plant`` is either the string "benchmark" or a tuple (A, B, Q, R) of
    arrays.  ``horizon`` is the number of online steps after the ``t0``
    offline excitation samples.  ``initial_gain`` overrides the
    certainty-equivalence initialization (used by analytic protocols).
    Treat a config as read-only once it has run: it keeps the plant and the
    optimum that :meth:`reference` solved.
    """

    controller: ControllerSpec
    plant: object = "benchmark"
    t0: int = 20
    horizon: int = 1000
    sigma_w: float = 1.0
    sigma_u_offline: float = 1.0
    seed: int = 0
    trials: int = 1
    divergence_threshold: float = 1e6
    initial_gain: object = None
    record_timing: bool = False
    _reference: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.controller, ControllerSpec):
            raise ConfigError("controller must be a ControllerSpec")
        for name in ("t0", "horizon", "seed", "trials"):
            setattr(self, name, _integer(name, getattr(self, name)))
        for name in ("sigma_w", "sigma_u_offline", "divergence_threshold"):
            _real(name, getattr(self, name), ConfigError)
        if self.t0 < 1:
            raise ConfigError(f"t0 must be >= 1, got {self.t0}")
        if self.horizon < 1:
            raise ConfigError(f"T must be >= 1, got {self.horizon}")
        if not (0 <= self.sigma_w < math.inf and 0 <= self.sigma_u_offline < math.inf):
            raise ConfigError("noise scales must be nonnegative and finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.divergence_threshold > 0:
            raise ConfigError("divergence_threshold must be positive")

    def build_plant(self):
        if isinstance(self.plant, str):
            if self.plant == "benchmark":
                return benchmark_plant()
            raise ConfigError(f"unknown plant '{self.plant}'")
        try:
            A, B, Q, R = self.plant
            return LinearQuadraticPlant(A, B, Q, R)
        except PgacError as exc:
            raise ConfigError(f"invalid explicit plant: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"plant must be 'benchmark' or (A, B, Q, R): {exc}") from exc

    def reference(self):
        """(plant, C*): the config's plant and its optimal LQR cost.

        Built and solved on the first call, then kept by the config, so the
        trials of a config share one optimum, in pool workers too when the
        config is sent after this call.  ``dataclasses.replace`` starts over.
        Raises ``ConfigError`` when ``initial_gain`` is not a finite (m, n)
        matrix.
        """
        if self._reference is None:
            plant = self.build_plant()
            shape = (plant.m, plant.n)
            if self.initial_gain is not None:
                if np.shape(self.initial_gain) != shape:
                    raise ConfigError(
                        f"initial_gain must have shape {shape}, got {np.shape(self.initial_gain)}"
                    )
                if not np.isfinite(self.initial_gain).all():
                    raise ConfigError("initial_gain must be finite")
            _, opt = optimal_gain(plant)
            self._reference = (plant, opt.cost)
        return self._reference


@dataclass
class TrajectoryLog:
    """Per-trial log.

    ``rows`` holds one tuple per online step, in TRAJECTORY_COLUMNS order,
    describing the post-update controller: absolute sample count, true cost
    and relative gap of the fresh gain (inf when it fails to stabilize the
    real plant), the new state norm, the SNR diagnostics of the extended
    record, the regularization weight and stepsize used, the skip flag and
    the wall time of the update.  ``avg_stage_cost`` tracks the running
    average of the squared weighted stage outputs over the closed-loop
    phase (one entry per online step); the open-loop warmup is left out
    because no controller shaped it.  In-memory only, not in the CSV.
    """

    method: str
    trial_index: int
    status: str
    halt_reason: str | None
    initial_gap: float
    final_gap: float
    rows: list
    avg_stage_cost: list = field(default_factory=list, repr=False)


@dataclass
class MonteCarloSummary:
    """Aggregate over the trials of one config.

    convergence_rate is the fraction of trials that never halted; the median
    relative gap is taken over those trials' final gaps.  ``logs`` carries
    the per-trial logs for downstream emission and analysis.
    """

    method: str
    trials: int
    convergence_rate: float
    median_relative_gap: float
    mean_step_time: float
    logs: list = field(repr=False, default_factory=list)


def trial_rng(seed, trial_index, stream):
    """Independent deterministic generator for one (trial, stream) pair."""
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(trial_index), int(stream))
    )
    return np.random.Generator(np.random.Philox(ss))


def _kron_batch(n):
    # Systems per stacked Lyapunov solve: their n^2 x n^2 Kronecker systems
    # take at most 256 KiB, or one system where a single one is larger
    # (n >= 14); one at a time from n = 12.  It caps both the monitor's calls
    # and the trials that step in lockstep: a pool's unit of work too.
    return max(1, 2**18 // (8 * n**4))


def _monitor_rows(m, n):
    # Trial-rows a lockstep run's backlog gathers before a flush writes them:
    # max(_kron_batch(n), 256), so that the monitor's Lyapunov stacks are
    # full and one SNR call serves many steps, but no more than fill 256 KiB
    # with the moment blocks they keep alive (a row's phi and wbar are views
    # of its step's whole (m + 3n) x (m + n) block): 404 at n = 3, 51 at
    # n = 12 with m = 4.
    return max(1, min(max(_kron_batch(n), 256), 2**18 // (8 * (m + 3 * n) * (m + n))))


def _true_costs(plant, gains):
    # true_costs of a (k, m, n) stack, in calls of at most _kron_batch gains
    batch = _kron_batch(plant.n)
    return np.concatenate(
        [true_costs(plant, gains[i : i + batch]) for i in range(0, len(gains), batch)])


@dataclass
class _Columns:
    """The logged columns of a lockstep run: (trials, horizon) arrays per
    trial and step, and one entry per step for the columns the trials
    share."""

    cost: np.ndarray  # of the gain an update moved to, where one did
    state_norm: np.ndarray
    avg_stage_cost: np.ndarray
    eta: np.ndarray
    skipped: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    snr: np.ndarray
    t: np.ndarray
    lam: np.ndarray
    step_time: np.ndarray
    rows: np.ndarray  # per trial

    @classmethod
    def empty(cls, trials, horizon):
        grid = (trials, horizon)
        return cls(*(np.zeros(grid) for _ in range(4)), np.zeros(grid, dtype=bool),
                   *(np.zeros(grid) for _ in range(3)), np.zeros(horizon, dtype=int),
                   np.zeros(horizon), np.zeros(horizon), np.zeros(trials, dtype=int))

    def flush(self, plant, running, backlog):
        """Write every column of the backlog's rows, and empty it.

        ``backlog`` holds one tuple per step of the ``running`` trials, which
        stay the same within it: the step; the state norms, running stage
        costs, stepsizes and skip flags; the gains after it; and the
        record's ``phi`` and ``wbar``; each a stack over the trials, a lone
        trial's own, or (a stepsize) shared.  The SNR of every row is one
        stacked call; the moved gains are costed in calls of at most
        _kron_batch.  The record replaces ``phi`` and ``wbar`` on every
        append and the state its gain on every step, so the arrays kept
        here stay as they were at their step.
        """
        if not backlog:
            return
        steps, *loop, gains, phis, wbars = zip(*backlog)
        # the rows: tile(running) x repeat(steps), as a (steps, trials) grid
        trials, steps = np.broadcast_arrays(running, np.reshape(steps, (-1, 1)))
        gains, phis, wbars = (np.reshape(a, (trials.size,) + a[0].shape[-2:])
                              for a in (gains, phis, wbars))
        for column, values in zip((self.state_norm, self.avg_stage_cost, self.eta, self.skipped,
                                   self.gamma, self.delta, self.snr),
                                  (*loop, *snr_readings(phis, wbars))):
            column[trials, steps] = np.reshape(values, (len(backlog), -1))
        moved = ~self.skipped[trials, steps]
        if moved.any():
            self.cost[trials[moved], steps[moved]] = _true_costs(plant, gains[moved.ravel()])
        self.rows[running] = backlog[-1][0] + 1
        backlog.clear()

    def logs(self, method, trial_indices, outcomes, initial_cost, cstar):
        """One TrajectoryLog per trial.  A row whose update did not move the
        gain repeats the cost of the last gain that did, or the initial
        gain's before the first."""
        horizon = self.skipped.shape[1]
        last = np.where(self.skipped, -1, np.arange(horizon))
        np.maximum.accumulate(last, axis=1, out=last)
        cost = np.where(last >= 0, np.take_along_axis(self.cost, np.maximum(last, 0), axis=1),
                        initial_cost[:, None])
        gap = (cost - cstar) / cstar
        initial_gap = ((initial_cost - cstar) / cstar).tolist()
        shared = [self.t.tolist(), self.lam.tolist(), self.step_time.tolist()]
        logs = []
        for p, (trial_index, (status, reason)) in enumerate(zip(trial_indices, outcomes)):
            n = self.rows[p]
            cols = [c[p, :n].tolist() for c in (cost, gap, self.state_norm, self.gamma,
                                                  self.delta, self.snr)]
            t, lam, dt = (c[:n] for c in shared)
            eta = self.eta[p, :n].tolist()
            skipped = self.skipped[p, :n].astype(int).tolist()
            logs.append(TrajectoryLog(
                method=method,
                trial_index=trial_index,
                status=status,
                halt_reason=reason,
                initial_gap=initial_gap[p],
                final_gap=cols[1][-1] if n else initial_gap[p],
                rows=list(zip(t, *cols, lam, eta, skipped, dt)),
                avg_stage_cost=self.avg_stage_cost[p, :n].tolist(),
            ))
        return logs


def _row_dots(v):
    # v . v for a vector, or for each row of a stack as its own dot product
    return float(v @ v) if v.ndim == 1 else (v[:, None, :] @ v[:, :, None])[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore")
def run_trials(config, trial_indices):
    """Run the given trials of a config in lockstep and return their
    TrajectoryLogs, in the order given.

    Protocol, per trial: t0 offline steps driven by white inputs (true noises
    logged for the SNR oracle), certainty-equivalence initialization, then
    ``horizon`` online steps of probe + feedback + policy update.  A trial
    halts when initialization fails, when its state norm passes the
    divergence threshold before a step or after the last one, or when a
    sample would make its record's moments non-finite: "initialization: ..."
    offline, "diverged: ..." online.  Every non-finite value a trial meets
    ends as such a halt or as a skipped update, so numpy's overflow and
    invalid-value warnings are silenced for the run.

    The trials step together on arrays with a leading trial axis: one draw
    per block of DRAW_BLOCK steps from each generator, one :func:`initialize`
    of the stack (again on the rest when it names trials that fail), then
    one stacked simulation step and one :func:`advance` per step for all
    running trials.  A lone trial, or the last one left running, steps
    online as a single-trial state on arrays without the trial axis, where
    numpy's calls cost less.
    A halted trial leaves the stack; a skipped one keeps its gain.  Every
    kernel acts on each trial alone, so each log is bitwise that of the
    trial run by itself.  Each step's row waits in one backlog: the loop's
    columns and the monitor's (true cost of each new gain, SNR of each
    record), which the loop never reads, are written together by stacked
    calls when _monitor_rows(m, n) rows have gathered, when a trial halts,
    and at the end of the run.
    """
    plant, cstar = config.reference()
    m, n, horizon = plant.m, plant.n, config.horizon
    trial_indices = [int(i) for i in trial_indices]
    k = len(trial_indices)
    if not k:
        return []
    offline_rngs, noise_rngs, probe_rngs = (
        [trial_rng(config.seed, i, stream) for i in trial_indices]
        for stream in (OFFLINE_STREAM, NOISE_STREAM, PROBE_STREAM))
    outcomes = [("completed", None)] * k
    running = np.arange(k)  # positions of the trials still running
    columns = _Columns.empty(k, horizon)
    backlog = []  # one row per step of the running trials, not yet in ``columns``

    def halt(trials, reason):
        # flush, then halt the running trials that ``trials`` selects; the mask of the others
        nonlocal running
        columns.flush(plant, running, backlog)
        trials = np.reshape(trials, -1)
        for p in running[trials]:
            outcomes[p] = ("halted", reason)
        running = running[~trials]
        return ~trials

    # set when a lone trial goes online, on its own arrays without the trial axis
    lone = False

    def draw(rngs, rows, cols):
        blocks = [rngs[p].standard_normal((rows, cols)) for p in running]
        return blocks[0] if lone else np.stack(blocks)

    U = config.sigma_u_offline * draw(offline_rngs, config.t0, m)
    W = config.sigma_w * draw(noise_rngs, config.t0, n)
    record = DataRecord(m, n, trials=k)
    x = np.zeros((k, n))
    for j in range(config.t0):
        x_next, _ = step(plant, x, U[:, j], W[:, j])
        try:
            record.append(U[:, j], x, x_next, W[:, j])
        except NonFiniteData as exc:
            keep = halt(exc.trials, f"initialization: {exc}")
            if not len(running):
                break
            record, x, x_next, U, W = record.take(keep), x[keep], x_next[keep], U[keep], W[keep]
            record.append(U[:, j], x, x_next, W[:, j])
        x = x_next
    while len(running):
        try:
            state = initialize(config.controller, plant.Q, plant.R, record,
                               K_init=config.initial_gain)
            break
        except (InitialGainUnstable, NotPersistentlyExciting) as exc:
            keep = halt(exc.trials, f"initialization: {exc}")
            record, x = record.take(keep), x[keep]
    initial_cost = np.full(k, math.inf)
    if not len(running):
        return columns.logs(config.controller.method, trial_indices, outcomes,
                            initial_cost, cstar)
    initial_cost[running] = _true_costs(plant, state.gain)
    if len(running) == 1:
        lone, state, x = True, state.take(0), x[0]

    threshold = config.divergence_threshold
    batch = _monitor_rows(m, n)

    def norm(v):
        return math.sqrt(v @ v) if lone else np.sqrt(_row_dots(v))

    def take(keep, *arrays):
        # the rows of the trials that go on; a lone one's without the trial axis
        nonlocal state, lone
        if lone or keep.sum() > 1:
            return (state.take(keep),) + tuple(a[keep] for a in arrays)
        lone, (i,) = True, np.flatnonzero(keep)
        return (state.take(i),) + tuple(float(a[i]) if a.ndim == 1 else a[i] for a in arrays)

    x_norm = norm(x)
    z2_sum = 0.0 if lone else np.zeros(len(running))
    E = Wb = np.zeros((len(running), 0, 0))  # the first step draws the first blocks
    for s in range(horizon):
        b = s % DRAW_BLOCK
        if x_norm > threshold if lone else x_norm.max() > threshold:
            keep = halt(x_norm > threshold, "diverged")
            if not len(running):
                break
            state, x, x_norm, z2_sum, E, Wb = take(keep, x, x_norm, z2_sum, E, Wb)
        if b == 0:
            size = min(DRAW_BLOCK, horizon - s)
            E, Wb = draw(probe_rngs, size, m), config.sigma_w * draw(noise_rngs, size, n)
        u = control_input(state, x, E[..., b, :])
        w = Wb[..., b, :]
        x_next, z = step(plant, x, u, w)
        while True:
            tic = time.perf_counter()
            try:
                advance(state, x, u, x_next, w)
                break
            except NonFiniteData as exc:
                keep = halt(exc.trials, f"diverged: {exc}")
                if not len(running):
                    break
                state, x, u, w, x_next, z, z2_sum, E, Wb = take(
                    keep, x, u, w, x_next, z, z2_sum, E, Wb)
        if not len(running):
            break
        dt = (time.perf_counter() - tic) / len(running) if config.record_timing else 0.0
        z2_sum = z2_sum + _row_dots(z)
        x_norm = norm(x_next)
        columns.t[s], columns.lam[s], columns.step_time[s] = state.record.t, state.last_lambda, dt
        backlog.append((s, x_norm, z2_sum / (s + 1), state.last_eta, state.last_skipped,
                        state.gain, state.record.phi, state.record.wbar))
        if len(backlog) * len(running) >= batch:
            columns.flush(plant, running, backlog)
        x = x_next
    if len(running):
        halt(x_norm > threshold, "diverged")
    return columns.logs(config.controller.method, trial_indices, outcomes,
                        initial_cost, cstar)


def run_trial(config, trial_index):
    """Run one seeded closed-loop trial and return its TrajectoryLog: the
    batch of one of :func:`run_trials`, whose protocol it follows."""
    return run_trials(config, [trial_index])[0]


def _usable_cpus():
    # CPUs this process may run on (its affinity mask, which a container's
    # CPU set also narrows); the machine's count where that cannot be read
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_run(config, jobs):
    """Raise ``ConfigError`` for a config or a job count that cannot run,
    before any trial does; returns ``config.reference()``."""
    if _integer("jobs", jobs) < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return config.reference()


def run_monte_carlo(config, jobs=1):
    """Run all trials of a config and aggregate.

    Trials step in lockstep (:func:`run_trials`) in groups of at most
    _kron_batch(n) consecutive trials (all on small plants, one from n = 12),
    and a group is the pool's unit of work: at most ``jobs`` processes, and
    never more than groups or usable CPUs, run them; with one, they run in
    this process, so a run whose trials fit one group never forks.  Results
    are collected in trial order and every log is bitwise that of its trial
    run alone, so output is byte-identical for any ``jobs``.  The optimum is
    solved once, before the pool starts, and sent to the workers with the
    config.  ``jobs`` < 1, or not an integer, raises ``ConfigError``.
    """
    plant, _ = check_run(config, jobs)
    n, size = config.trials, _kron_batch(plant.n)
    groups = [range(first, min(first + size, n)) for first in range(0, n, size)]
    workers = min(jobs, len(groups), _usable_cpus())
    if workers > 1:
        # imported here, so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_trials, itertools.repeat(config), groups))
    else:
        batches = [run_trials(config, group) for group in groups]
    logs = [log for batch in batches for log in batch]
    converged = [lg for lg in logs if lg.status != "halted"]
    rate = len(converged) / len(logs)
    median_gap = (
        float(np.median([lg.final_gap for lg in converged])) if converged else math.inf
    )
    times = [row[10] for lg in logs for row in lg.rows]
    mean_time = float(np.mean(times)) if times else 0.0
    return MonteCarloSummary(
        method=config.controller.method,
        trials=config.trials,
        convergence_rate=rate,
        median_relative_gap=median_gap,
        mean_step_time=mean_time,
        logs=logs,
    )


# -- CSV emission --------------------------------------------------------------


def _fmt(value):
    return repr(float(value))


def trajectory_csv_text(log):
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for row in log.rows:
        t, cost, gap, xn, gamma, delta, snr, lam, eta, skipped, dt = row
        lines.append(
            f"{int(t)},{_fmt(cost)},{_fmt(gap)},{_fmt(xn)},{_fmt(gamma)},"
            f"{_fmt(delta)},{_fmt(snr)},{_fmt(lam)},{_fmt(eta)},{int(skipped)},{_fmt(dt)}"
        )
    return "\n".join(lines) + "\n"


def summary_csv_text(summary):
    lines = [",".join(SUMMARY_COLUMNS)]
    lines.append(
        f"{summary.method},{int(summary.trials)},{_fmt(summary.convergence_rate)},"
        f"{_fmt(summary.median_relative_gap)},{_fmt(summary.mean_step_time)}"
    )
    return "\n".join(lines) + "\n"


def emit_csv(obj, path):
    """Write a TrajectoryLog or MonteCarloSummary as CSV.

    Floats are printed with repr (shortest round-trip form), so re-emission
    is byte-identical and parsing recovers exact values.
    """
    if isinstance(obj, TrajectoryLog):
        text = trajectory_csv_text(obj)
    elif isinstance(obj, MonteCarloSummary):
        text = summary_csv_text(obj)
    else:
        raise TypeError(f"cannot emit {type(obj).__name__} as CSV")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def read_trajectory_csv(path):
    """Parse a trajectory CSV back into row tuples (types restored)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(TRAJECTORY_COLUMNS):
        raise ConfigError(f"{path} is not a trajectory CSV")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRAJECTORY_COLUMNS):
            raise ConfigError(
                f"{path} line {lineno}: expected {len(TRAJECTORY_COLUMNS)} fields, "
                f"got {len(parts)}"
            )
        try:
            rows.append((int(parts[0]), *(float(p) for p in parts[1:9]),
                         int(parts[9]), float(parts[10])))
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
    return rows


def loglog_slope(log, t_min, t_max):
    """Least-squares slope of log(gap) against log(t) over a time window.

    Rows with non-finite or non-positive gaps are dropped; returns NaN when
    fewer than two usable rows remain.
    """
    ts, gaps = [], []
    for row in log.rows:
        if t_min <= row[0] <= t_max and math.isfinite(row[2]) and row[2] > 0:
            ts.append(row[0])
            gaps.append(row[2])
    if len(ts) < 2:
        return float("nan")
    coeffs = np.polyfit(np.log(np.asarray(ts, dtype=float)), np.log(gaps), 1)
    return float(coeffs[0])


# -- config files ---------------------------------------------------------------


def _matrix(text):
    arr = np.array(ast.literal_eval(text), dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    # literal_eval reads an overflowing literal such as 1e999 as inf
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


# config key -> (field, parser).  Only the keys present are parsed, so the
# dataclass fields hold the one default of every key left out.
_SPEC_FIELDS = {"probe_std": ("probe_std", float)}
_CONFIG_FIELDS = {
    "t0": ("t0", int),
    "T": ("horizon", int),
    "seed": ("seed", int),
    "trials": ("trials", int),
    "sigma_w": ("sigma_w", float),
    "sigma_u_offline": ("sigma_u_offline", float),
    "divergence_threshold": ("divergence_threshold", float),
    "initial_gain": ("initial_gain", _matrix),
}
# rule key -> {rule name: (rule class, the key holding its parameter)}; the
# first rule is the default.
_RULES = {
    "eta_rule": {"constant": (ConstantStep, "eta"), "inverse_norm_m": (InverseNormM, "eta_coeff")},
    "lambda_rule": {"zero": (ZeroLambda, None), "inverse_sqrt": (InverseSqrtLambda, "lambda0")},
}
_PLANT_KEYS = ("A", "B", "Q", "R")
_ALL_KEYS = {
    "plant", "method", *_PLANT_KEYS, *_SPEC_FIELDS, *_CONFIG_FIELDS, *_RULES,
    *(param for rules in _RULES.values() for _, param in rules.values() if param),
}


def parse_config_text(text):
    """Parse 'key = value' lines ('#' comments allowed) into a string map."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        mapping[key] = value
    return mapping


def _parse(mapping, key, parser):
    try:
        return parser(mapping[key])
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"key '{key}': cannot parse {mapping[key]!r}: {exc}") from exc


def _fields(mapping, table):
    return {name: _parse(mapping, key, parse) for key, (name, parse) in table.items()
            if key in mapping}


def _rule(mapping, key):
    """The rule ``key`` names, built from its parameter key.

    A parameter key of another rule is rejected, and so is a missing
    parameter, except that of the default rule: that leaves the rule to the
    method (``eta`` under ``eta_rule = constant``).
    """
    rules = _RULES[key]
    default = next(iter(rules))
    name = mapping.get(key, default)
    if name not in rules:
        raise ConfigError(f"{key} must be one of {', '.join(rules)}, got {name!r}")
    cls, param = rules[name]
    for other, (_, other_param) in rules.items():
        if other_param != param and other_param in mapping:
            raise ConfigError(f"key '{other_param}' requires {key} = {other}")
    if param is None:
        return cls()
    if param in mapping:
        return cls(_parse(mapping, param, float))
    if name == default:
        return None
    raise ConfigError(f"{key} = {name} requires key '{param}'")


def config_from_mapping(mapping):
    """Build an ExperimentConfig from a parsed key/value map."""
    unknown = set(mapping) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    plant = mapping.get("plant", "benchmark")
    if plant not in ("benchmark", "explicit"):
        raise ConfigError(f"plant must be 'benchmark' or 'explicit', got {plant!r}")
    for key in _PLANT_KEYS:
        if key in mapping and plant == "benchmark":
            raise ConfigError(f"key '{key}' is only valid with plant = explicit")
        if key not in mapping and plant == "explicit":
            raise ConfigError(f"plant = explicit requires key '{key}'")
    if plant == "explicit":
        plant = tuple(_parse(mapping, key, _matrix) for key in _PLANT_KEYS)
    if "method" not in mapping:
        raise ConfigError("key 'method' is required")
    try:
        spec = ControllerSpec(mapping["method"], _rule(mapping, "eta_rule"),
                              _rule(mapping, "lambda_rule"), **_fields(mapping, _SPEC_FIELDS))
        return ExperimentConfig(controller=spec, plant=plant, **_fields(mapping, _CONFIG_FIELDS))
    except ConfigError:
        raise
    except (PgacError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, overrides=None):
    """Read and parse a config file, optionally overriding keys first.

    ``overrides`` maps config keys to replacement values (stringified); None
    values are ignored, which makes threading optional CLI flags through
    painless.
    """
    with open(path) as fh:
        text = fh.read()
    mapping = parse_config_text(text)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        mapping[key] = str(value)
    return config_from_mapping(mapping)
