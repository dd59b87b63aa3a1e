"""Experiment harness: the benchmark plant, seeded closed-loop trials,
Monte Carlo aggregation, CSV emission, and the flat key-value config format.

Reproducibility contract: every number a trial logs is a pure function of
(seed, trial_index, config).  Each trial draws from three independent
counter-based streams (offline inputs, process noise, probes) keyed by
(seed, trial_index, stream), so trials can run in any order or in parallel
without changing a byte of output.  Wall-clock timing is the one inherently
irreproducible quantity: the ``step_time_s`` column holds the update's wall
time only when ``record_timing`` is set, and is exactly 0.0 otherwise.
"""

import ast
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    ConstantStep,
    ControllerSpec,
    InverseNormM,
    InverseSqrtLambda,
    ZeroLambda,
    advance,
    control_input,
    initialize,
)
# lqr_cost and snr_reading are the batch-of-one forms of the stacked monitor;
# they stay bound here because perfbench's tracer wraps them by this name.
from .dataflow import DataRecord, snr_reading, snr_readings  # noqa: F401
from .errors import (
    ConfigError,
    InitialGainUnstable,
    NonFiniteData,
    NotPersistentlyExciting,
    PgacError,
)
from .plant import LinearQuadraticPlant, lqr_cost, optimal_gain, step, true_costs  # noqa: F401

OFFLINE_STREAM = 0
NOISE_STREAM = 1
PROBE_STREAM = 2

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


def _monitor(plant, cstar, pending, rows, cost, gap):
    """Complete the ``pending`` rows of :func:`run_trial` into ``rows``.

    Each pending entry holds the row's loop columns, the gain its update
    moved to (None when the gain stayed as it was), and the record's ``phi``
    and ``wbar`` after that step.  The moved gains are costed on the true
    plant by one stacked call, the records' SNR by another; a row whose gain
    did not move repeats (cost, gap), which enter as those of the gain in
    effect before the first pending row.  Returns the (cost, gap) of the last.
    """
    gains = [gain for _, gain, _, _ in pending if gain is not None]
    costs = iter(true_costs(plant, np.array(gains)).tolist() if gains else ())
    readings = snr_readings(np.array([p[2] for p in pending]), np.array([p[3] for p in pending]))
    for (loop, gain, _, _), gamma, delta, snr in zip(pending, *(r.tolist() for r in readings)):
        if gain is not None:
            cost = next(costs)
            gap = (cost - cstar) / cstar
        t, state_norm, lam, eta, skipped, dt = loop
        rows.append((t, cost, gap, state_norm, gamma, delta, snr, lam, eta, skipped, dt))
    pending.clear()
    return cost, gap


@np.errstate(over="ignore", invalid="ignore")
def run_trial(config, trial_index):
    """Run one seeded closed-loop trial and return its TrajectoryLog.

    Protocol: t0 offline steps driven by white inputs (true noises logged
    for the SNR oracle), certainty-equivalence initialization, then
    ``horizon`` online steps of probe + feedback + policy update.  The trial
    halts when initialization fails, when the state norm passes the
    divergence threshold before a step or after the last one, or when a
    sample would make the record's moments non-finite: "initialization: ..."
    offline, "diverged: ..." online.  Every non-finite value a trial meets
    ends as such a halt or as a skipped update that names its reason, so
    numpy's overflow and invalid-value warnings are silenced for the trial.
    """
    plant, cstar = config.reference()
    offline_rng = trial_rng(config.seed, trial_index, OFFLINE_STREAM)
    noise_rng = trial_rng(config.seed, trial_index, NOISE_STREAM)
    probe_rng = trial_rng(config.seed, trial_index, PROBE_STREAM)

    record = DataRecord(plant.m, plant.n)
    x = np.zeros(plant.n)
    z2_sum = 0.0
    avg_curve = []
    rows, status, reason, initial_gap = [], "completed", None, math.inf
    try:
        for _ in range(config.t0):
            u = config.sigma_u_offline * offline_rng.standard_normal(plant.m)
            w = config.sigma_w * noise_rng.standard_normal(plant.n)
            x_next, _ = step(plant, x, u, w)
            record.append(u, x, x_next, w)
            x = x_next
        state = initialize(
            config.controller, plant.Q, plant.R, record, K_init=config.initial_gain
        )
    except (InitialGainUnstable, NotPersistentlyExciting, NonFiniteData) as exc:
        status, reason = "halted", f"initialization: {exc}"
    else:
        # The monitor (true cost and gap of the gain, SNR of the record) lags
        # the loop, which never reads it: the rows of up to ``batch`` steps
        # wait in ``pending`` and are completed by stacked calls.  ``batch``
        # caps the memory of a batch's Kronecker systems at 256 KiB, or one
        # system where a single one is larger (n >= 14); it is one step at a
        # time from n = 12.  The record replaces ``phi`` and ``wbar`` on
        # every append, so the arrays kept here stay as they were at their step.
        batch = max(1, 2**18 // (8 * plant.n**4))
        cost = true_costs(plant, state.gain[None]).item()
        initial_gap = gap = (cost - cstar) / cstar
        pending = []
        x_norm = float(np.linalg.norm(x))
        try:
            while (len(rows) + len(pending) < config.horizon
                   and x_norm <= config.divergence_threshold):
                e = probe_rng.standard_normal(plant.m)
                u = control_input(state, x, e)
                w = config.sigma_w * noise_rng.standard_normal(plant.n)
                x_next, z = step(plant, x, u, w)
                tic = time.perf_counter()
                advance(state, x, u, x_next, w)
                dt = time.perf_counter() - tic if config.record_timing else 0.0
                z2_sum += float(z @ z)
                avg_curve.append(z2_sum / (len(avg_curve) + 1))
                x_norm = float(np.linalg.norm(x_next))
                loop = (state.record.t, x_norm, state.last_lambda, state.last_eta,
                        int(state.last_skipped), dt)
                # a skipped update leaves the gain as it was
                moved = None if state.last_skipped else state.gain
                pending.append((loop, moved, state.record.phi, state.record.wbar))
                if len(pending) == batch:
                    cost, gap = _monitor(plant, cstar, pending, rows, cost, gap)
                x = x_next
        except NonFiniteData as exc:
            status, reason = "halted", f"diverged: {exc}"
        if pending:
            _monitor(plant, cstar, pending, rows, cost, gap)
        if x_norm > config.divergence_threshold:
            status, reason = "halted", "diverged"
    return TrajectoryLog(
        method=config.controller.method.value,
        trial_index=trial_index,
        status=status,
        halt_reason=reason,
        initial_gap=initial_gap,
        final_gap=rows[-1][2] if rows else initial_gap,
        rows=rows,
        avg_stage_cost=avg_curve,
    )


def _usable_cpus():
    # CPUs this process may run on (its affinity mask, which a container's
    # CPU set also narrows); the machine's count where that cannot be read
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(config, jobs=1):
    """Run all trials of a config and aggregate.

    ``jobs`` > 1 distributes trials over at most ``jobs`` processes, and
    never more processes than trials or than CPUs this process may run on;
    results are collected in trial order, so parallel runs emit
    byte-identical output.  The optimum is solved once, before the pool
    starts, and sent to the workers with the config.  ``jobs`` < 1 raises
    ``ConfigError``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    n = config.trials
    workers = min(jobs, n, _usable_cpus())
    if workers > 1:
        config.reference()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(run_trial, itertools.repeat(config, n), range(n)))
    else:
        logs = [run_trial(config, i) for i in range(n)]
    converged = [lg for lg in logs if lg.status != "halted"]
    rate = len(converged) / len(logs)
    median_gap = (
        float(np.median([lg.final_gap for lg in converged])) if converged else math.inf
    )
    times = [row[10] for lg in logs for row in lg.rows]
    mean_time = float(np.mean(times)) if times else 0.0
    return MonteCarloSummary(
        method=config.controller.method.value,
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
