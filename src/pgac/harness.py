"""Experiment harness: the benchmark plant, seeded closed-loop trials,
Monte Carlo aggregation, CSV emission, and the flat key-value config format.

Reproducibility contract: every number a trial logs is a pure function of
(seed, trial_index, config).  Each trial draws from three independent
counter-based streams (offline inputs, process noise, probes) keyed by
(seed, trial_index, stream), so trials can run in any order or in parallel
without changing a byte of output.  Wall-clock timing is the one inherently
irreproducible quantity; it is only measured when ``record_timing`` is set,
and the timing columns are exactly 0.0 otherwise.
"""

import ast
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    ConstantStep,
    ControllerSpec,
    InverseNormM,
    InverseSqrtLambda,
    Method,
    ZeroLambda,
    advance,
    control_input,
    initialize,
)
from .dataflow import DataRecord, snr_reading
from .errors import (
    ConfigError,
    InitialGainUnstable,
    NotPersistentlyExciting,
    NotStabilizing,
    PgacError,
)
from .plant import LinearQuadraticPlant, lqr_cost, optimal_gain, step

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
        if self.sigma_w < 0 or self.sigma_u_offline < 0:
            raise ConfigError("noise scales must be nonnegative")
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
        """
        if self._reference is None:
            plant = self.build_plant()
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


def _gain_gap(plant, K, cstar):
    """(cost, relative gap) of a gain on the true plant, inf when unstable."""
    try:
        cost = lqr_cost(plant, K).cost
    except NotStabilizing:
        return math.inf, math.inf
    return cost, (cost - cstar) / cstar


def run_trial(config, trial_index):
    """Run one seeded closed-loop trial and return its TrajectoryLog.

    Protocol: t0 offline steps driven by white inputs (true noises logged
    for the SNR oracle), certainty-equivalence initialization, then
    ``horizon`` online steps of probe + feedback + policy update.  The loop
    halts when the state norm passes the divergence threshold.
    """
    plant, cstar = config.reference()
    offline_rng = trial_rng(config.seed, trial_index, OFFLINE_STREAM)
    noise_rng = trial_rng(config.seed, trial_index, NOISE_STREAM)
    probe_rng = trial_rng(config.seed, trial_index, PROBE_STREAM)
    method = config.controller.method.value

    record = DataRecord(plant.m, plant.n)
    x = np.zeros(plant.n)
    z2_sum = 0.0
    avg_curve = []
    for _ in range(config.t0):
        u = config.sigma_u_offline * offline_rng.standard_normal(plant.m)
        w = config.sigma_w * noise_rng.standard_normal(plant.n)
        x_next, _ = step(plant, x, u, w)
        record.append(u, x, x_next, w)
        x = x_next

    try:
        state = initialize(
            config.controller, plant.Q, plant.R, record, K_init=config.initial_gain
        )
    except (InitialGainUnstable, NotPersistentlyExciting) as exc:
        return TrajectoryLog(
            method=method,
            trial_index=trial_index,
            status="halted",
            halt_reason=f"initialization: {exc}",
            initial_gap=math.inf,
            final_gap=math.inf,
            rows=[],
            avg_stage_cost=avg_curve,
        )

    cost, gap = _gain_gap(plant, state.gain, cstar)
    initial_gap, measured = gap, state.gain
    rows = []
    status, reason = "completed", None
    for _ in range(config.horizon):
        if np.linalg.norm(x) > config.divergence_threshold:
            status, reason = "halted", "diverged"
            state.halt("diverged")
            break
        e = probe_rng.standard_normal(plant.m)
        u = control_input(state, x, e)
        w = config.sigma_w * noise_rng.standard_normal(plant.n)
        x_next, z = step(plant, x, u, w)
        if config.record_timing:
            tic = time.perf_counter()
            advance(state, x, u, x_next, w)
            dt = time.perf_counter() - tic
        else:
            advance(state, x, u, x_next, w)
            dt = 0.0
        z2_sum += float(z @ z)
        avg_curve.append(z2_sum / (len(avg_curve) + 1))
        if state.gain is not measured:  # a skipped update leaves the gain as it was
            measured = state.gain
            cost, gap = _gain_gap(plant, measured, cstar)
        reading = snr_reading(state.record)
        rows.append(
            (
                state.record.t,
                cost,
                gap,
                float(np.linalg.norm(x_next)),
                reading.gamma,
                reading.delta,
                reading.snr,
                state.last_lambda,
                state.last_eta,
                int(state.last_skipped),
                dt,
            )
        )
        x = x_next
    if status == "completed" and np.linalg.norm(x) > config.divergence_threshold:
        status, reason = "halted", "diverged"
        state.halt("diverged")
    final_gap = rows[-1][2] if rows else initial_gap
    return TrajectoryLog(
        method=method,
        trial_index=trial_index,
        status=status,
        halt_reason=reason,
        initial_gap=initial_gap,
        final_gap=final_gap,
        rows=rows,
        avg_stage_cost=avg_curve,
    )


def run_monte_carlo(config, jobs=1):
    """Run all trials of a config and aggregate.

    ``jobs`` > 1 distributes trials over at most ``jobs`` processes, and
    never more processes than trials; results are collected in trial order,
    so parallel runs emit byte-identical output.  The optimum is solved once,
    before the pool starts, and sent to the workers with the config.
    ``jobs`` < 1 raises ``ConfigError``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    n = config.trials
    workers = min(jobs, n)
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
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            (
                int(parts[0]),
                *(float(p) for p in parts[1:9]),
                int(parts[9]),
                float(parts[10]),
            )
        )
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

_INT_KEYS = {"t0", "T", "seed", "trials"}
_FLOAT_KEYS = {
    "sigma_w",
    "sigma_u_offline",
    "probe_std",
    "eta",
    "eta_coeff",
    "lambda0",
    "divergence_threshold",
}
_ARRAY_KEYS = {"A", "B", "Q", "R", "initial_gain"}
_STR_KEYS = {"plant", "method", "eta_rule", "lambda_rule"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _ARRAY_KEYS | _STR_KEYS


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


def _parse_int(mapping, key, default=None):
    if key not in mapping:
        return default
    try:
        return int(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected an integer, got {mapping[key]!r}") from exc


def _parse_float(mapping, key, default=None):
    if key not in mapping:
        return default
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected a number, got {mapping[key]!r}") from exc


def _parse_array(mapping, key):
    if key not in mapping:
        return None
    try:
        value = ast.literal_eval(mapping[key])
        arr = np.array(value, dtype=float)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ConfigError(
            f"key '{key}': expected a row-major bracketed matrix, got {mapping[key]!r}"
        ) from exc
    if arr.ndim != 2:
        raise ConfigError(f"key '{key}': expected a 2-d matrix, got shape {arr.shape}")
    return arr


def config_from_mapping(mapping):
    """Build an ExperimentConfig from a parsed key/value map."""
    unknown = set(mapping) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    plant_kind = mapping.get("plant", "benchmark")
    if plant_kind == "benchmark":
        for key in ("A", "B", "Q", "R"):
            if key in mapping:
                raise ConfigError(
                    f"key '{key}' is only valid with plant = explicit"
                )
        plant = "benchmark"
    elif plant_kind == "explicit":
        matrices = []
        for key in ("A", "B", "Q", "R"):
            arr = _parse_array(mapping, key)
            if arr is None:
                raise ConfigError(f"plant = explicit requires key '{key}'")
            matrices.append(arr)
        plant = tuple(matrices)
    else:
        raise ConfigError(f"plant must be 'benchmark' or 'explicit', got {plant_kind!r}")

    if "method" not in mapping:
        raise ConfigError("key 'method' is required")
    try:
        method = Method(mapping["method"])
    except ValueError as exc:
        names = ", ".join(m.value for m in Method)
        raise ConfigError(
            f"unknown method {mapping['method']!r}; choose one of: {names}"
        ) from exc

    eta_rule = mapping.get("eta_rule", "constant")
    eta = _parse_float(mapping, "eta")
    eta_coeff = _parse_float(mapping, "eta_coeff")
    if eta_rule == "constant":
        if eta_coeff is not None:
            raise ConfigError("key 'eta_coeff' requires eta_rule = inverse_norm_m")
        stepsize_rule = None if eta is None else ConstantStep(eta)
    elif eta_rule == "inverse_norm_m":
        if eta is not None:
            raise ConfigError("key 'eta' requires eta_rule = constant")
        if eta_coeff is None:
            raise ConfigError("eta_rule = inverse_norm_m requires key 'eta_coeff'")
        stepsize_rule = InverseNormM(eta_coeff)
    else:
        raise ConfigError(
            f"eta_rule must be 'constant' or 'inverse_norm_m', got {eta_rule!r}"
        )

    lambda_rule_name = mapping.get("lambda_rule", "zero")
    lambda0 = _parse_float(mapping, "lambda0")
    if lambda_rule_name == "zero":
        if lambda0 is not None:
            raise ConfigError("key 'lambda0' requires lambda_rule = inverse_sqrt")
        lambda_rule = ZeroLambda()
    elif lambda_rule_name == "inverse_sqrt":
        if lambda0 is None:
            raise ConfigError("lambda_rule = inverse_sqrt requires key 'lambda0'")
        lambda_rule = InverseSqrtLambda(lambda0)
    else:
        raise ConfigError(
            f"lambda_rule must be 'zero' or 'inverse_sqrt', got {lambda_rule_name!r}"
        )

    try:
        spec = ControllerSpec(
            method=method,
            stepsize_rule=stepsize_rule,
            lambda_rule=lambda_rule,
            probe_std=_parse_float(mapping, "probe_std", 1.0),
        )
        return ExperimentConfig(
            controller=spec,
            plant=plant,
            t0=_parse_int(mapping, "t0", 20),
            horizon=_parse_int(mapping, "T", 1000),
            sigma_w=_parse_float(mapping, "sigma_w", 1.0),
            sigma_u_offline=_parse_float(mapping, "sigma_u_offline", 1.0),
            seed=_parse_int(mapping, "seed", 0),
            trials=_parse_int(mapping, "trials", 1),
            divergence_threshold=_parse_float(mapping, "divergence_threshold", 1e6),
            initial_gain=_parse_array(mapping, "initial_gain"),
        )
    except PgacError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
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
