"""The pgac benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pgac checkout; it imports pgac from ``src/``.  Each
workload runs in a fresh worker process with BLAS pinned to one thread.
With ``--trace 0`` it times set-up in several more fresh processes and prints
the end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of
a traced pass.  Report lines come first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Workloads, metrics and
their units are listed in BENCHMARK.json and explained in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Set-up is timed in this many fresh processes before the measuring process
# and as many after it, so that one burst of host load cannot cover them all.
# One untimed process first fills the bytecode cache.
SETUP_SAMPLES = 3
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


def worker_env(root):
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def setup_samples(common, env, count):
    samples = []
    for _ in range(count):
        tic = time.time()
        record = run_worker(["setup", *common], env, timeout=60)
        samples.append((record["ready"] - tic) / record["speed"])
    return samples


def load_spec(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "pgac" / "__init__.py").is_file():
        print("perfbench: run from the root of a pgac checkout (no src/pgac here)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = worker_env(root)
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import workloads  # imports pgac from this checkout

    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workloads.write_inputs(workloads.WORKLOADS[args.workload], args.seed, tmp)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
        count = 0 if args.trace else SETUP_SAMPLES
        setup = setup_samples(common, env, count + 1)[1:]
        record = run_worker(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", str(root / ".perfbench_out")],
            env,
            timeout=max(10.0, DEADLINE_S - (time.monotonic() - started)),
        )
        setup += setup_samples(common, env, count)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = record["metrics"]
    if setup and metrics:
        metrics["setup_s"] = statistics.median(setup)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != set(expected):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(expected))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    host = " ".join(f"{k}={v}" for k, v in record["host"].items())
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} digest={record['digest'][:16]}")
    print(f"host {host} seed={args.seed}")
    print(f"host_speed ref_ms={record['ref_ms']!r} (times are scaled to a "
          f"{workloads.REFERENCE_S * 1e3:g} ms reference)")
    for problem in record["problems"]:
        print(f"problem {problem}")
    print(f"note {record['note']}")
    shown = dict(record["quality"]) if not args.trace else {}
    shown.update(metrics)
    for name in [n for n in spec["units"] if n in shown]:
        print(f"metric {name} {shown[name]!r} {spec['units'][name]}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": spec["units"][name]} for name in expected
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
