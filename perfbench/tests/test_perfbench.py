"""Tests of the benchmark's own code.  From the repository root:

    python3 -m pytest perfbench/tests -q

They run shrunken copies of the workloads (few, short trials), so they check
behaviour, not timing.
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, trials=2 if w.via_cli else 1, horizon=30)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    parents = np.array([-1, 0, 1, 0])
    assert tracing.self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_of_a_traced_call_tree(monkeypatch):
    ticks = iter(range(1, 100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    riccati = tracer.wrap("linalg.riccati", lambda: None)
    init = tracer.wrap("controller.initialize", lambda: riccati())
    cost = tracer.wrap("plant.lqr_cost", lambda: None)
    advance = tracer.wrap("controller.advance", lambda: None)
    loop = tracer.wrap("harness.loop", lambda: (init(), cost(), advance()))
    loop()
    # clock: loop 1..10, initialize 2..5, riccati 3..4, lqr_cost 6..7, advance 8..9
    totals = tracing.layer_totals(tracer)
    assert totals["harness.loop.self_s"] == 4.0
    assert totals["controller.initialize.self_s"] == 2.0
    assert totals["linalg.riccati.calls"] == 1
    assert totals["harness.trial_setup.self_s"] == 4.0
    assert totals["harness.monitor.self_s"] == 1.0
    assert totals["controller.advance.durations"].tolist() == [1.0]


def first_completed(armdir, method, horizon):
    for path in sorted(armdir.glob(f"{method}_trial*.csv")):
        if len(path.read_text().splitlines()) == horizon + 1:
            return path
    raise AssertionError("no completed trial")


@pytest.mark.parametrize(
    "row, column, value, replay",
    [
        (5, 2, "-0.5", False),  # a gap below the optimum
        (-1, 2, "0.123456789", False),  # a final gap, so M no longer matches
        (5, 4, "12345.0", True),  # gamma: only the serial replay sees it
    ],
)
def test_output_check_catches_one_mutated_row(tmp_path, row, column, value, replay):
    w = small("cli_short_jobs2")
    workloads.write_inputs(w, 3, tmp_path)
    arms = workloads.prepare(w, 3, tmp_path)
    out = tmp_path / "out"
    workloads.execute(w, arms, 1, out)
    clean = workloads.PassResult()
    workloads.check_outputs(clean, w, arms, out, replay=replay)
    assert clean.failed == 0 and not clean.problems

    path = first_completed(out / "indirect_vanilla", "indirect_vanilla", w.horizon)
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    mutated = workloads.PassResult()
    workloads.check_outputs(mutated, w, arms, out, replay=replay)
    assert mutated.failed >= 1 and mutated.problems
    assert mutated.digest != clean.digest


def test_traced_pass_restores_every_wrapped_entry_point(tmp_path):
    originals = {
        (owner, attr): vars(tracing.resolve(owner))[attr] for owner, attr, _, _ in tracing.TARGETS
    }
    w = small("mc_bench3")
    arms = workloads.prepare(w, 1, tmp_path)
    tracer = tracing.Tracer()
    result = workloads.run_pass(w, arms, 1, tmp_path / "out", tracer=tracer)
    assert result.failed == 0 and len(tracer.starts) > 0
    assert tracing.wrapped_targets() == []
    for (owner, attr), original in originals.items():
        assert vars(tracing.resolve(owner))[attr] is original, f"{owner}.{attr}"
    assert tracing.layer_totals(tracer)["linalg.dlyap.calls"] == tracer.counters["lyapunov_solve_count"]

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert len(tracing.wrapped_targets()) == len(tracing.TARGETS)
            raise RuntimeError("the pass failed")
    assert tracing.wrapped_targets() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metric_names_match_benchmark_json(name, tmp_path):
    s = spec()
    end_to_end = {m["name"] for m in s["end_to_end"]}
    per_layer = {m["name"] for m in s["per_layer"]}
    assert name in {w["name"] for w in s["workloads"]}
    w = small(name)
    workloads.write_inputs(w, 1, tmp_path)
    for trace, expected in ((0, end_to_end - {"setup_s"}), (1, per_layer)):
        record = worker.measure(w, 1, 0.01, trace, tmp_path, tmp_path / "spans")
        assert record["correct"], record["problems"]
        assert set(record["metrics"]) == expected
        assert set(record["quality"]) <= per_layer | end_to_end
    assert all(NAME.fullmatch(n) for n in end_to_end | per_layer)
    assert all(m["unit"] and m["better"] in ("lower", "higher") for m in s["end_to_end"] + s["per_layer"])


def test_command_refuses_a_directory_without_pgac(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "mc_bench3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
