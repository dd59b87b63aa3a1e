"""One fresh process of the benchmark: set up, or measure, one workload.

    python3 perfbench/worker.py setup   --workload W --seed N --tmp DIR
    python3 perfbench/worker.py measure --workload W --seed N --tmp DIR
                                        --seconds S --trace 0|1 --spans DIR

``run.py`` starts it with BLAS pinned to one thread and pgac's sources on
PYTHONPATH.  It prints one JSON object as its last line.  ``setup`` reports
the wall-clock time at which the workload became ready to run its first
trial, so that the parent can time set-up from before the process started,
and the host speed just after.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from pgac import solve_dlyap_closed

MIN_PASSES = 3
# Lyapunov kernel sweep: state dimension n -> timed calls.
KERNEL_REPS = {3: 400, 6: 200, 12: 50, 20: 10, 30: 5}


def reference_ms(passes):
    """Median reference-kernel time of the run, in ms, as measured."""
    speeds = [v for p in passes for v in p.speeds]
    return statistics.median(speeds) * workloads.REFERENCE_S * 1e3


def host_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child (a pool
    worker), in MB."""
    kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024.0


def quality(result):
    """conv_rate and median_gap of one pass (the same for every pass whose
    digest matches)."""
    return {
        "conv_rate": result.completed / result.trials,
        "median_gap": float(np.median(result.final_gaps)) if result.final_gaps else float("inf"),
    }


def end_to_end(passes):
    """Untraced metrics over passes that reproduced the same outputs.

    Times are divided by the host speed measured over each pass.  Every
    pass runs the same deterministic steps, so each arm's wall time and each
    step's update time are then taken as their minimum over the passes: a
    burst of host load rarely covers the same step in every pass.  p50 and
    p99 are taken over the steps after that.
    """
    arms = list(passes[0].arm_walls)
    wall = sum(min(p.arm_walls[arm] / p.speed for p in passes) for arm in arms)
    step_us = 1e6 * np.concatenate([
        np.min([np.array(p.step_times[arm]) / p.speed for p in passes], axis=0)
        for arm in arms
    ])
    return {
        "conv_rate": quality(passes[0])["conv_rate"],
        "wall_s": wall,
        "steps_per_s": passes[0].rows / wall,
        "update_us_p50": float(np.percentile(step_us, 50)),
        "update_us_p99": float(np.percentile(step_us, 99)),
        "peak_rss_mb": peak_rss_mb(),
    }


def kernel_sweep(seed):
    """Median time per public ``solve_dlyap_closed`` call at each n, and the
    computed flop count of its dense n^2 x n^2 solve (LU plus two
    triangular solves)."""
    rng = np.random.default_rng(seed)
    out = {}
    for n, reps in KERNEL_REPS.items():
        F = rng.standard_normal((n, n))
        F *= 0.7 / max(abs(np.linalg.eigvals(F)))
        W = np.eye(n)
        times = []
        for _ in range(reps):
            tic = time.perf_counter()
            solve_dlyap_closed(F, W)
            times.append(time.perf_counter() - tic)
        N = n * n
        out[f"linalg.dlyap.us_n{n}"] = statistics.median(times) * 1e6
        out[f"linalg.dlyap.mflop_n{n}"] = (2.0 * N**3 / 3.0 + 2.0 * N**2) / 1e6
    return out


def per_layer(tracer, own, serial, pooled, traced, seed):
    totals = tracing.layer_totals(tracer)
    advance_us = totals.pop("controller.advance.durations") * 1e6
    dlyap = totals["linalg.dlyap.calls"]
    metrics = {"median_gap": quality(own)["median_gap"]}
    metrics.update(totals)
    metrics.update(kernel_sweep(seed))
    metrics.update(
        {
            "linalg.dlyap.per_step": dlyap / traced.rows,
            "linalg.dlyap.us_per_call": totals["linalg.dlyap.self_s"] / dlyap * 1e6,
            "linalg.riccati.iters": tracer.counters["linalg.riccati.iters"],
            "controller.advance.us_p50": float(np.percentile(advance_us, 50)),
            "controller.advance.us_p99": float(np.percentile(advance_us, 99)),
            "controller.skip_frac": traced.skipped / traced.rows,
            "harness.csv.bytes": tracer.counters["harness.csv.bytes"],
            "harness.pool.speedup": serial.wall_s / pooled.wall_s,
            "trace.overhead_frac": traced.wall_s / serial.wall_s - 1.0,
        }
    )
    return metrics


def untraced_passes(workload, arms, seconds, tmp):
    """At least MIN_PASSES passes, then more while they fit in ``seconds``."""
    start = time.perf_counter()
    passes, durations = [], []
    while True:
        tic = time.perf_counter()
        passes.append(workloads.run_pass(workload, arms, workload.jobs, tmp / f"pass{len(passes)}"))
        durations.append(time.perf_counter() - tic)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            return passes


def traced_passes(workload, arms, tmp, tracer):
    """Untraced passes with the workload's own and the other worker count,
    then one serial traced pass; returns (own, other, traced) and problems."""
    problems = []
    if tracing.wrapped_targets():
        problems.append("pgac was wrapped before the traced pass")
    other_jobs = 2 if workload.jobs == 1 else 1
    own = workloads.run_pass(workload, arms, workload.jobs, tmp / "own")
    other = workloads.run_pass(workload, arms, other_jobs, tmp / "other")
    traced = workloads.run_pass(workload, arms, 1, tmp / "traced", tracer=tracer)
    left = tracing.wrapped_targets()
    if left:
        problems.append(f"wrappers left installed: {', '.join(left)}")
    return [own, other, traced], problems


def measure(workload, seed, seconds, trace, tmp, spans):
    """Run one workload and return the result record ``run.py`` prints."""
    tmp = Path(tmp)
    arms = workloads.prepare(workload, seed, tmp)
    workloads.warm_up(arms)
    tracer = tracing.Tracer()
    if trace:
        passes, problems = traced_passes(workload, arms, tmp, tracer)
    else:
        passes, problems = untraced_passes(workload, arms, seconds, tmp), []
    # every pass must reproduce the first one's outputs byte for byte
    attempted = failed = 0
    for p in passes:
        if p.digest != passes[0].digest and not p.failed:
            p.failed = p.trials
            p.problems.append(f"digest {p.digest[:16]} differs from the first pass")
        attempted += p.trials
        failed += p.failed
        problems.extend(p.problems)
    report = quality(passes[0])
    report["failed_frac"] = failed / attempted
    metrics = {}
    if trace and all(p.arm_walls for p in passes):
        own, other, traced = passes
        serial, pooled = (own, other) if workload.jobs == 1 else (other, own)
        Path(spans).mkdir(parents=True, exist_ok=True)
        tracer.write(Path(spans) / f"{workload.name}-seed{seed}.spans.tsv")
        metrics = per_layer(tracer, own, serial, pooled, traced, seed)
        metrics["failed_frac"] = report["failed_frac"]
        metrics["host.ref_ms"] = reference_ms(passes)
        if metrics["linalg.dlyap.calls"] != tracer.counters["lyapunov_solve_count"]:
            problems.append("traced Lyapunov solves differ from lyapunov_solve_count()")
    elif not trace:
        ran = [p for p in passes if p.arm_walls and p.digest == passes[0].digest]
        metrics = end_to_end(ran) if ran else {}
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "quality": report,
        "digest": passes[0].digest,
        "passes": len(passes),
        "problems": list(dict.fromkeys(problems)),
        "note": f"{passes[0].frozen} of {passes[0].completed} completed trials end with a "
        "gain that does not stabilize the plant (final gap inf)",
        "ref_ms": reference_ms(passes),
        "host": host_info(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=".")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        workloads.prepare(workload, args.seed, args.tmp)
        n = workloads.PLANT_STATES[workload.plant]
        record = {"ready": time.time(),
                  "speed": statistics.median(workloads.host_speed(n) for _ in range(3))}
    else:
        record = measure(workload, args.seed, args.seconds, args.trace, args.tmp, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
