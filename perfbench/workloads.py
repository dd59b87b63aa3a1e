"""Workloads of the pgac benchmark: inputs made from a seed, one pass over
every trial, and the check of that pass's outputs.

Every arm is written in pgac's config-file vocabulary.  The ``mc_*``
workloads build their configs in-process with ``config_from_mapping`` and
call ``run_monte_carlo``; ``cli_short_jobs2`` writes the same mappings to
config files and runs ``pgac run`` through ``pgac.cli.main``.  Either way a
pass leaves one directory per arm laid out as ``pgac run`` lays it out
(``<method>_trialNNN.csv`` plus ``summary.csv``), and one check reads them.
"""

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pgac import cli, harness, lyapunov_solve_count
from tracer import installed

# Arm k of a workload run with benchmark seed s uses config seed s * SEED_STRIDE + k,
# so arms draw independent trials and no two (seed, arm) pairs share a stream.
SEED_STRIDE = 100

# Trajectory CSV column holding the halting test's input.
STATE_NORM = 3
GAP_FLOOR = -1e-9

# Host speed is read from a reference kernel timed next to the work: the
# shapes of a pgac step on the workload's n-state plant (an n^2 x n^2 solve,
# an n x n eigvals, Python bookkeeping) without pgac.  On a shared host the
# same work can run ~2x slower for minutes at a time, and the reference slows
# with it.  End-to-end times are divided by host_speed(n), so they read as
# seconds on a host where the reference takes REFERENCE_S.
REFERENCE_S = 0.010
REFERENCE_ROUNDS = {3: 400, 12: 40}  # about REFERENCE_S at each n
PLANT_STATES = {"benchmark": 3, "wide12": 12}


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple  # (arm name, {config key: value}) pairs
    trials: int  # per arm
    horizon: int
    t0: int
    jobs: int
    via_cli: bool
    plant: str = "benchmark"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_bench3",
            arms=(
                ("c07_indirect_vanilla", {"method": "indirect_vanilla", "eta": "0.02"}),
                ("c07_indirect_natural", {"method": "indirect_natural", "eta": "0.2"}),
                ("c07_indirect_gauss_newton", {"method": "indirect_gauss_newton", "eta": "0.5"}),
                ("c07_direct_vanilla", {"method": "direct_vanilla",
                                        "eta_rule": "inverse_norm_m", "eta_coeff": "0.2"}),
                ("c08_indirect_reg", {"method": "indirect_vanilla", "eta": "0.2",
                                      "lambda_rule": "inverse_sqrt", "lambda0": "0.1"}),
                ("c08_direct_reg", {"method": "direct_vanilla",
                                    "eta_rule": "inverse_norm_m", "eta_coeff": "0.2",
                                    "lambda_rule": "inverse_sqrt", "lambda0": "0.1"}),
                ("adaptive_hewer", {"method": "adaptive_hewer"}),
                ("direct_natural", {"method": "direct_natural", "eta": "0.2"}),
                ("one_shot_ce", {"method": "one_shot_ce"}),
            ),
            trials=2,
            horizon=1000,
            t0=20,
            jobs=1,
            via_cli=False,
        ),
        # direct_vanilla with inverse_norm_m 0.2 halts within 40 steps on this
        # plant; it is left out so the workload stays bound by the 144 x 144
        # Kronecker Lyapunov solve.
        Workload(
            name="mc_wide12",
            arms=(
                ("indirect_vanilla", {"method": "indirect_vanilla", "eta": "0.01"}),
                ("indirect_natural", {"method": "indirect_natural", "eta": "0.01"}),
                ("indirect_gauss_newton", {"method": "indirect_gauss_newton", "eta": "0.5"}),
                ("direct_natural", {"method": "direct_natural", "eta": "0.01"}),
                ("one_shot_ce", {"method": "one_shot_ce"}),
            ),
            trials=2,
            horizon=200,
            t0=60,
            jobs=1,
            via_cli=False,
            plant="wide12",
        ),
        Workload(
            name="cli_short_jobs2",
            arms=(
                ("indirect_vanilla", {"method": "indirect_vanilla", "eta": "0.2"}),
                ("direct_vanilla", {"method": "direct_vanilla",
                                    "eta_rule": "inverse_norm_m", "eta_coeff": "0.2"}),
            ),
            trials=60,
            horizon=60,
            t0=20,
            jobs=2,
            via_cli=True,
        ),
    )
}


def plant_keys(kind):
    """Config keys of a workload's plant."""
    if kind == "benchmark":
        return {"plant": "benchmark"}
    # criterion 09's 12-state, 4-input plant: rho(A) = 0.7, Q = I, R = I
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    A *= 0.7 / max(abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((12, 4))
    return {
        "plant": "explicit",
        "A": repr(A.tolist()),
        "B": repr(B.tolist()),
        "Q": repr(np.eye(12).tolist()),
        "R": repr(np.eye(4).tolist()),
    }


def arm_mappings(workload, seed):
    """(arm name, config mapping) for every arm, with the seed applied."""
    base = plant_keys(workload.plant)
    return [
        (
            name,
            {
                **base,
                **keys,
                "t0": str(workload.t0),
                "T": str(workload.horizon),
                "trials": str(workload.trials),
                "seed": str(seed * SEED_STRIDE + k),
            },
        )
        for k, (name, keys) in enumerate(workload.arms)
    ]


def config_path(tmp, arm):
    return Path(tmp) / f"{arm}.cfg"


def write_inputs(workload, seed, tmp):
    """Write the config files a CLI workload reads."""
    if not workload.via_cli:
        return
    for name, mapping in arm_mappings(workload, seed):
        text = "".join(f"{key} = {value}\n" for key, value in mapping.items())
        config_path(tmp, name).write_text(text)


def host_speed(n):
    """Time of the n-state reference kernel divided by REFERENCE_S (2.0 on a
    host running at half the reference speed)."""
    A = np.random.default_rng(0).standard_normal((n * n, n * n)) + n * n * np.eye(n * n)
    b = np.ones(n * n)
    book = []
    tic = time.perf_counter()
    for i in range(REFERENCE_ROUNDS[n]):
        x = np.linalg.solve(A, b)
        book.append((i, float(np.abs(np.linalg.eigvals(A[:n, :n])).max()), float(x[0])))
    return (time.perf_counter() - tic) / REFERENCE_S


@dataclass
class Arm:
    name: str
    config: object  # the ExperimentConfig the arm runs
    path: Path | None = None  # its config file, for CLI workloads


def prepare(workload, seed, tmp):
    """Build every arm's config and construct the plant: the set-up a user pays."""
    if workload.via_cli:
        arms = [
            Arm(name, harness.load_config(config_path(tmp, name)), config_path(tmp, name))
            for name, _ in workload.arms
        ]
    else:
        arms = [
            Arm(name, replace(harness.config_from_mapping(mapping), record_timing=True))
            for name, mapping in arm_mappings(workload, seed)
        ]
    arms[0].config.build_plant()
    return arms


def warm_up(arms):
    """One short trial per arm, so lazy library set-up is not timed."""
    for arm in arms:
        harness.run_trial(replace(arm.config, horizon=5), 0)


@dataclass
class PassResult:
    arm_walls: dict = field(default_factory=dict)  # arm -> seconds, as measured
    speeds: list = field(default_factory=list)  # host_speed() between the arms
    digest: str = ""
    trials: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rows: int = 0
    skipped: int = 0
    step_times: dict = field(default_factory=dict)  # arm -> step_time_s column
    completed: int = 0
    final_gaps: list = field(default_factory=list)
    # completed trials whose last gain does not stabilize the plant: the
    # controller froze without the state passing the divergence threshold
    frozen: int = 0

    @property
    def speed(self):
        """Host speed over the pass: the median of its readings, which drops
        a reading that a short burst of load hit."""
        return statistics.median(self.speeds)

    @property
    def wall_s(self):
        """Wall time of the pass, corrected for host speed."""
        return sum(self.arm_walls.values()) / self.speed


def run_pass(workload, arms, jobs, outdir, tracer=None):
    """Run every trial of the workload once with ``jobs`` workers, check the
    CSVs it wrote under ``outdir``, delete them, and return the result.

    With a tracer, pgac's entry points are wrapped while the trials run and
    restored before the check; the tracer also gets the change in pgac's own
    Lyapunov solve counter over that time.
    """
    result = PassResult()
    try:
        if tracer is None:
            result.arm_walls, result.speeds = execute(workload, arms, jobs, outdir)
        else:
            solves = lyapunov_solve_count()
            with installed(tracer):
                result.arm_walls, result.speeds = execute(workload, arms, jobs, outdir)
            tracer.counters["lyapunov_solve_count"] += lyapunov_solve_count() - solves
    except Exception:  # a failed pass is reported and counted, not fatal
        traceback.print_exc(file=sys.stderr)
        result.trials = result.failed = workload.trials * len(arms)
        result.problems.append("the pass raised")
    else:
        check_outputs(result, workload, arms, outdir, replay=jobs > 1)
    shutil.rmtree(outdir, ignore_errors=True)
    return result


def execute(workload, arms, jobs, outdir):
    """Run every trial once, writing one directory of CSVs per arm under
    ``outdir``; return each arm's wall time, and host_speed() read before the
    first arm and after every arm.

    Only the trials are timed.  ``pgac run`` writes its CSVs inside the timed
    call, as a user sees it; for the mc workloads they are written after.
    """
    n = PLANT_STATES[workload.plant]
    walls, speeds = {}, [host_speed(n)]
    for arm in arms:
        armdir = Path(outdir) / arm.name
        if workload.via_cli:
            argv = ["run", "--config", str(arm.path), "--out", str(armdir),
                    "--jobs", str(jobs), "--timing"]
            with contextlib.redirect_stdout(io.StringIO()):
                tic = time.perf_counter()
                code = cli.main(argv)
                walls[arm.name] = time.perf_counter() - tic
            if code != 0:
                raise RuntimeError(f"pgac {' '.join(argv)} exited with {code}")
        else:
            tic = time.perf_counter()
            summary = harness.run_monte_carlo(arm.config, jobs=jobs)
            walls[arm.name] = time.perf_counter() - tic
            armdir.mkdir(parents=True)
            for log in summary.logs:
                harness.emit_csv(log, armdir / f"{summary.method}_trial{log.trial_index:03d}.csv")
            harness.emit_csv(summary, armdir / "summary.csv")
        speeds.append(host_speed(n))
    return walls, speeds


def strip_timing(text):
    """CSV text without its last column (the run-dependent step_time_s or
    mean_step_time_s)."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def gap_ok(row):
    """A row's gap is pgac's encoding of its cost: finite and not below the
    optimum when the cost is finite, +inf exactly when the gain does not
    stabilize the plant (the cost is inf), never NaN."""
    cost, gap = row[1], row[2]
    if math.isinf(cost) or math.isinf(gap):
        return cost == gap == math.inf
    return gap >= GAP_FLOOR


def check_outputs(result, workload, arms, outdir, replay):
    """Digest and check every CSV of a pass, filling ``result``.

    A trial fails when one of its rows fails :func:`gap_ok`, or when a serial
    replay of it differs from the CSV the pool wrote; every trial of an arm
    fails when P or M recomputed from the CSVs differs from that arm's
    summary.  A trial completed when it has all ``horizon`` rows and its state
    norm never passed the divergence threshold, as in ``run_trial``.
    """
    digest = hashlib.sha256()
    for arm in arms:
        armdir = Path(outdir) / arm.name
        summary_text = (armdir / "summary.csv").read_text()
        digest.update(f"{arm.name}\n{strip_timing(summary_text)}".encode())
        method, trials, p_summary, m_summary = summary_text.splitlines()[1].split(",")[:4]
        trials = int(trials)
        result.trials += trials
        failed = set()
        gaps = []
        step_times = result.step_times[arm.name] = []
        for i in range(trials):
            path = armdir / f"{method}_trial{i:03d}.csv"
            text = path.read_text()
            digest.update(strip_timing(text).encode())
            rows = harness.read_trajectory_csv(path)
            result.rows += len(rows)
            result.skipped += sum(row[9] for row in rows)
            step_times.extend(row[10] for row in rows)
            if not all(gap_ok(row) for row in rows):
                failed.add(i)
                result.problems.append(f"{arm.name} trial {i}: a gap is NaN, below the floor "
                                       "or disagrees with the cost")
            threshold = arm.config.divergence_threshold
            if len(rows) == workload.horizon and all(r[STATE_NORM] <= threshold for r in rows):
                gaps.append(rows[-1][2])
        p = len(gaps) / trials
        m = float(np.median(gaps)) if gaps else math.inf
        if p != float(p_summary) or m != float(m_summary):
            failed.update(range(trials))
            result.problems.append(f"{arm.name}: P, M from the CSVs differ from the summary")
        if replay:
            for i in sorted({0, trials // 2, trials - 1}):
                log = harness.run_trial(arm.config, i)
                written = (armdir / f"{method}_trial{i:03d}.csv").read_text()
                if strip_timing(harness.trajectory_csv_text(log)) != strip_timing(written):
                    failed.add(i)
                    result.problems.append(f"{arm.name} trial {i}: serial replay differs")
        result.completed += len(gaps)
        result.frozen += gaps.count(math.inf)
        result.final_gaps.extend(gaps)
        result.failed += len(failed)
    result.digest = digest.hexdigest()
