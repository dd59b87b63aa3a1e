import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pgac
import pgac.harness
import pgac.plant
from pgac import (
    ConstantStep,
    ControllerSpec,
    ExperimentConfig,
    InverseNormM,
    InverseSqrtLambda,
    TrajectoryLog,
    ZeroLambda,
    benchmark_plant,
    cli,
    emit_csv,
    load_config,
    lqr_cost,
    lyapunov_solve_count,
    loglog_slope,
    optimal_gain,
    read_trajectory_csv,
    run_monte_carlo,
    run_trial,
)
from pgac.harness import (
    NOISE_STREAM,
    OFFLINE_STREAM,
    PROBE_STREAM,
    TRAJECTORY_COLUMNS,
    config_from_mapping,
    parse_config_text,
    summary_csv_text,
    trajectory_csv_text,
    trial_rng,
)
from pgac.errors import ConfigError


def small_config(**kw):
    spec = kw.pop("controller", ControllerSpec("indirect_natural", ConstantStep(0.2)))
    defaults = dict(controller=spec, horizon=60, trials=1, seed=3)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_trial_rng_streams_are_reproducible_and_distinct():
    a = trial_rng(7, 2, NOISE_STREAM).standard_normal(8)
    b = trial_rng(7, 2, NOISE_STREAM).standard_normal(8)
    assert np.array_equal(a, b)
    c = trial_rng(7, 2, PROBE_STREAM).standard_normal(8)
    d = trial_rng(7, 3, NOISE_STREAM).standard_normal(8)
    e = trial_rng(8, 2, NOISE_STREAM).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)
    assert OFFLINE_STREAM != NOISE_STREAM != PROBE_STREAM


def test_experiment_config_validation():
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.1))
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, t0=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, horizon=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, sigma_w=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, divergence_threshold=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, plant="nope").build_plant()
    A = 0.5 * np.eye(2)
    cfg = ExperimentConfig(controller=spec, plant=(A, np.eye(2), np.eye(2), np.eye(2)))
    plant = cfg.build_plant()
    assert plant.n == 2 and plant.m == 2


def test_noiseless_trial_pins_the_optimum():
    plant = benchmark_plant()
    K_star, _ = optimal_gain(plant)
    spec = ControllerSpec("indirect_natural", ConstantStep(0.2), probe_std=0.0)
    cfg = ExperimentConfig(controller=spec, horizon=50, sigma_w=0.0, seed=3,
                           initial_gain=K_star)
    log = run_trial(cfg, 0)
    assert log.status == "completed"
    assert log.halt_reason is None
    assert len(log.rows) == 50
    assert len(log.avg_stage_cost) == 50
    assert all(row[2] <= 1e-8 for row in log.rows)
    assert log.final_gap <= 1e-8


def test_gap_never_meaningfully_negative():
    for method, rule in (("indirect_natural", ConstantStep(0.2)),
                         ("indirect_gauss_newton", ConstantStep(0.5))):
        cfg = small_config(controller=ControllerSpec(method, rule), horizon=120, trials=2)
        summary = run_monte_carlo(cfg)
        for log in summary.logs:
            for row in log.rows:
                assert row[2] >= -1e-10
                assert math.isfinite(row[3])


def test_trial_and_batch_determinism():
    cfg = small_config(trials=2)
    first = run_trial(cfg, 0)
    second = run_trial(cfg, 0)
    assert trajectory_csv_text(first) == trajectory_csv_text(second)
    s1 = run_monte_carlo(cfg)
    s2 = run_monte_carlo(cfg)
    assert summary_csv_text(s1) == summary_csv_text(s2)
    for a, b in zip(s1.logs, s2.logs):
        assert trajectory_csv_text(a) == trajectory_csv_text(b)


def test_tiny_divergence_threshold_halts_immediately():
    cfg = small_config(divergence_threshold=1e-9)
    log = run_trial(cfg, 0)
    assert log.status == "halted"
    assert log.halt_reason == "diverged"
    assert log.rows == []
    assert log.final_gap == log.initial_gap


def test_trajectory_csv_round_trip(tmp_path):
    cfg = small_config(horizon=25)
    log = run_trial(cfg, 0)
    path = tmp_path / "trial.csv"
    emit_csv(log, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(TRAJECTORY_COLUMNS)
    rows = read_trajectory_csv(str(path))
    assert len(rows) == len(log.rows)
    for parsed, original in zip(rows, log.rows):
        assert isinstance(parsed[0], int) and isinstance(parsed[9], int)
        assert parsed == tuple(original)
    # writing the parsed rows back reproduces the file byte for byte
    twin = TrajectoryLog(method=log.method, trial_index=0, status=log.status,
                         halt_reason=log.halt_reason, initial_gap=log.initial_gap,
                         final_gap=log.final_gap, rows=rows, avg_stage_cost=[])
    assert trajectory_csv_text(twin) == text


def test_trajectory_csv_header_enforced(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trajectory_csv(str(bad))


def test_empty_log_emits_header_only():
    log = TrajectoryLog(method="indirect_vanilla", trial_index=0, status="halted",
                        halt_reason="diverged", initial_gap=1.0, final_gap=1.0,
                        rows=[], avg_stage_cost=[])
    assert trajectory_csv_text(log) == ",".join(TRAJECTORY_COLUMNS) + "\n"


def test_emit_csv_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        emit_csv({"not": "a log"}, str(tmp_path / "x.csv"))


def test_summary_csv_shape():
    summary = run_monte_carlo(small_config(horizon=30, trials=2))
    text = summary_csv_text(summary)
    lines = text.strip().splitlines()
    assert lines[0] == "method,trials,P,M,mean_step_time_s"
    fields = lines[1].split(",")
    assert fields[0] == "indirect_natural"
    assert fields[1] == "2"
    assert 0.0 <= float(fields[2]) <= 1.0
    assert len(summary.logs) == 2


def test_loglog_slope_recovers_power_law():
    rows = [(t, 3.0 + 50.0 / t, 50.0 / t, 1.0, 0.5, 1.0, 0.5, 0.0, 0.1, 0, 0.0)
            for t in range(10, 1001)]
    log = TrajectoryLog(method="indirect_vanilla", trial_index=0, status="completed",
                        halt_reason=None, initial_gap=5.0, final_gap=0.05,
                        rows=rows, avg_stage_cost=[])
    assert abs(loglog_slope(log, 10, 1000) - (-1.0)) < 1e-9
    short = TrajectoryLog(method="indirect_vanilla", trial_index=0, status="completed",
                          halt_reason=None, initial_gap=5.0, final_gap=5.0,
                          rows=rows[:1], avg_stage_cost=[])
    assert math.isnan(loglog_slope(short, 10, 1000))


def test_parse_config_text():
    text = """
# comment line
method = indirect_natural

eta = 0.2   # trailing comment
T = 40
"""
    mapping = parse_config_text(text)
    assert mapping == {"method": "indirect_natural", "eta": "0.2", "T": "40"}
    with pytest.raises(ConfigError):
        parse_config_text("method indirect_natural\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 0.2\n")
    with pytest.raises(ConfigError):
        parse_config_text("eta =\n")
    with pytest.raises(ConfigError):
        parse_config_text("eta = 0.1\neta = 0.2\n")


def test_config_mapping_requirements():
    with pytest.raises(ConfigError):
        config_from_mapping({"plant": "benchmark"})
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla"})  # no stepsize info
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "eta_rule": "inverse_norm_m", "eta_coeff": "0.2"})
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "lambda0": "0.1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "lambda_rule": "inverse_sqrt"})
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "bogus": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "A": "[[1.0]]"})  # benchmark plant fixes A
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "plant": "explicit", "A": "[[0.5]]", "B": "[[1.0]]",
                             "Q": "[[1.0]]"})  # R missing
    # eta is forbidden where the method fixes its own stepsize
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "one_shot_ce", "eta": "0.1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "adaptive_hewer", "eta": "0.3"})
    # and lambda where the method does not regularize
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "one_shot_ce", "lambda_rule": "inverse_sqrt",
                             "lambda0": "0.1"})
    cfg = config_from_mapping({"method": "adaptive_hewer", "eta": "0.5"})
    assert cfg.controller == ControllerSpec("adaptive_hewer")


def test_config_mapping_defaults_and_explicit_plant():
    cfg = config_from_mapping({"method": "indirect_natural", "eta": "0.2"})
    assert cfg.t0 == 20 and cfg.horizon == 1000
    assert cfg.seed == 0 and cfg.trials == 1
    assert cfg.controller.stepsize_rule == ConstantStep(0.2)
    cfg = config_from_mapping({
        "method": "indirect_natural", "eta": "0.2", "plant": "explicit",
        "A": "[[0.5, 0.0], [0.0, 0.4]]", "B": "[[1.0, 0.0], [0.0, 1.0]]",
        "Q": "[[1.0, 0.0], [0.0, 1.0]]", "R": "[[1.0, 0.0], [0.0, 1.0]]",
        "T": "30", "t0": "12", "seed": "5",
        "initial_gain": "[[0.0, 0.0], [0.0, 0.0]]",
    })
    plant = cfg.build_plant()
    assert plant.n == 2
    assert np.array_equal(cfg.initial_gain, np.zeros((2, 2)))
    log = run_trial(cfg, 0)
    assert log.status == "completed"
    assert len(log.rows) == 30


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("method = indirect_natural\neta = 0.2\nT = 25\n")
    cfg = load_config(str(path))
    assert cfg.horizon == 25
    cfg = load_config(str(path), overrides={"trials": 3, "seed": None})
    assert cfg.trials == 3
    assert cfg.seed == 0  # None overrides are ignored


def test_step_timing_column_is_opt_in():
    log_plain = run_trial(small_config(horizon=30), 0)
    assert all(row[10] == 0.0 for row in log_plain.rows)
    log_timed = run_trial(small_config(horizon=30, record_timing=True), 0)
    assert any(row[10] > 0.0 for row in log_timed.rows)
    summary = run_monte_carlo(small_config(horizon=30, record_timing=True))
    assert summary.mean_step_time > 0.0


def write_cfg(tmp_path, name="run.cfg", extra=""):
    path = tmp_path / name
    path.write_text("method = indirect_natural\neta = 0.2\nT = 25\ntrials = 1\nseed = 3\n" + extra)
    return path


def test_cli_run_writes_expected_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "indirect_natural_trial000.csv").is_file()
    assert (out / "summary.csv").is_file()
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "method,trials,P,M,mean_step_time_s"
    assert "indirect_natural" in capsys.readouterr().out


def test_cli_run_respects_overrides(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                     "--trials", "2", "--seed", "9"])
    assert code == 0
    assert (out / "indirect_natural_trial001.csv").is_file()


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("method = indirect_natural\neta = 0.2\nwhatever = 1\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    one_shot = tmp_path / "one_shot.cfg"
    one_shot.write_text("method = one_shot_ce\nlambda_rule = inverse_sqrt\nlambda0 = 0.1\n")
    assert cli.main(["run", "--config", str(one_shot), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    missing = tmp_path / "missing.cfg"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path)]) in (2, 3)


def test_cli_nonpositive_jobs_exits_2(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    for jobs in ("0", "-1"):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--jobs", jobs]) == 2
        assert cli.main(["compare", "--configs", str(cfg), "--jobs", jobs]) == 2
    assert not out.exists()


def test_adaptive_hewer_is_gauss_newton_at_half_step():
    for lambda_rule in (ZeroLambda(), InverseSqrtLambda(0.0), InverseSqrtLambda(0.1)):
        hewer = small_config(
            controller=ControllerSpec("adaptive_hewer", lambda_rule=lambda_rule))
        newton = small_config(controller=ControllerSpec(
            "indirect_gauss_newton", ConstantStep(0.5), lambda_rule=lambda_rule))
        for i in range(4):
            assert (trajectory_csv_text(run_trial(hewer, i))
                    == trajectory_csv_text(run_trial(newton, i)))


def test_monitor_solves_once_per_updated_step(monkeypatch):
    solves = []

    def counted(plant, K):
        before = lyapunov_solve_count()
        try:
            return lqr_cost(plant, K)
        finally:
            solves.append(lyapunov_solve_count() - before)

    monkeypatch.setattr(pgac.harness, "lqr_cost", counted)
    # trial 1 of seed 2 mixes updated and skipped steps before it halts
    cfg = small_config(controller=ControllerSpec("indirect_vanilla", ConstantStep(0.2)),
                       seed=2)
    log = run_trial(cfg, 1)
    skipped = [row[9] for row in log.rows]
    assert 0 < sum(skipped) < len(skipped)
    # one call for the initial gain, then one per update that moved the gain;
    # each solves once, or not at all for a gain the plant rejects (gap inf)
    gaps = [log.initial_gap] + [row[2] for row in log.rows if not row[9]]
    assert solves == [0 if math.isinf(gap) else 1 for gap in gaps]
    assert 1 in solves
    for prev, row in zip(log.rows, log.rows[1:]):
        if row[9]:
            assert row[1:3] == prev[1:3]


def test_reference_optimum_is_solved_once_per_config(monkeypatch):
    riccati, calls = [], []
    solve = pgac.plant.solve_riccati_hewer
    monkeypatch.setattr(pgac.plant, "solve_riccati_hewer",
                        lambda *a, **kw: riccati.append(1) or solve(*a, **kw))
    monkeypatch.setattr(pgac.harness, "optimal_gain",
                        lambda p: calls.append(1) or optimal_gain(p))
    cfg = small_config(trials=3, horizon=20)
    summary = run_monte_carlo(cfg, jobs=1)
    assert len(riccati) == 1 and len(calls) == 1
    run_monte_carlo(cfg, jobs=1)
    assert len(riccati) == 1 and len(calls) == 1  # the config keeps it
    for log in summary.logs:
        fresh = small_config(trials=3, horizon=20)
        assert trajectory_csv_text(log) == trajectory_csv_text(run_trial(fresh, log.trial_index))


def test_pool_never_outnumbers_trials(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(pgac.harness, "ProcessPoolExecutor", RecordingPool)
    spec = ControllerSpec("direct_vanilla", InverseNormM(0.2))
    for trials, jobs, pool in ((3, 8, [3]), (3, 2, [2]), (1, 4, []), (2, 2, [2])):
        del sizes[:]
        cfg = small_config(controller=spec, trials=trials, horizon=15)
        texts = [trajectory_csv_text(lg) for lg in run_monte_carlo(cfg, jobs=jobs).logs]
        assert sizes == pool
        serial = run_monte_carlo(small_config(controller=spec, trials=trials, horizon=15))
        assert texts == [trajectory_csv_text(lg) for lg in serial.logs]


def test_cli_unwritable_output_exits_3(tmp_path):
    cfg = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "sub"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3


def test_cli_compare_runs_multiple_configs(tmp_path, capsys):
    cfg_a = write_cfg(tmp_path, "a.cfg")
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text("method = indirect_gauss_newton\neta = 0.5\nT = 25\ntrials = 1\nseed = 3\n")
    joint = tmp_path / "joint.csv"
    code = cli.main(["compare", "--configs", str(cfg_a), str(cfg_b),
                     "--out", str(joint)])
    assert code == 0
    out_text = capsys.readouterr().out
    assert "indirect_natural" in out_text
    assert "indirect_gauss_newton" in out_text
    lines = joint.read_text().strip().splitlines()
    assert lines[0] == "method,trials,P,M,mean_step_time_s"
    assert len(lines) == 3


def test_cli_selftest_failure_exits_4(monkeypatch):
    import pgac.selftest
    monkeypatch.setattr(pgac.selftest, "run_selftest",
                        lambda: [("broken_check", False, "synthetic failure")])
    assert cli.main(["selftest"]) == 4


def test_cli_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    # run the same source tree the suite imported, whatever the working
    # directory or an installed pgac would otherwise resolve to
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(pgac.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pgac.cli", "run", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").is_file()
