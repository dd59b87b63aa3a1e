import concurrent.futures
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import per_step_monitor_trial

import pgac
import pgac.controller
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
    run_trials,
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


def test_block_draws_equal_sequential_draws():
    # one call per block of steps draws bitwise what one call per step does,
    # on each stream and across block boundaries (the noise stream serves
    # the offline steps first, then the online ones)
    for stream, width in ((OFFLINE_STREAM, 2), (NOISE_STREAM, 3), (PROBE_STREAM, 4)):
        for trial in range(4):
            one_by_one = trial_rng(11, trial, stream)
            sequential = np.array([one_by_one.standard_normal(width) for _ in range(600)])
            blocks = trial_rng(11, trial, stream)
            drawn = np.concatenate([blocks.standard_normal((size, width))
                                    for size in (20, 256, 256, 1, 7, 60)])
            assert np.array_equal(drawn, sequential)


def test_trials_are_the_same_whatever_the_draw_block(monkeypatch):
    # 600 online steps cross the default block boundaries at steps 256 and
    # 512; a block of one step draws as the per-step loop did
    spec = ControllerSpec("indirect_natural", ConstantStep(0.2))
    cfg = ExperimentConfig(controller=spec, horizon=600, seed=4, trials=3)
    texts = {}
    for block in (pgac.harness.DRAW_BLOCK, 1, 7):
        monkeypatch.setattr(pgac.harness, "DRAW_BLOCK", block)
        texts[block] = [trajectory_csv_text(log) for log in run_trials(cfg, range(3))]
        texts[block].append(trajectory_csv_text(run_trial(cfg, 1)))
    assert texts[1] == texts[7] == texts[pgac.harness.DRAW_BLOCK]
    assert max(len(log.rows) for log in run_trials(cfg, range(3))) == 600


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
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(controller=spec, sigma_w=value)
        with pytest.raises(ConfigError):
            ExperimentConfig(controller=spec, sigma_u_offline=value)
    assert ExperimentConfig(controller=spec, divergence_threshold=math.inf)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, divergence_threshold=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(controller=spec, plant="nope").build_plant()
    A = 0.5 * np.eye(2)
    cfg = ExperimentConfig(controller=spec, plant=(A, np.eye(2), np.eye(2), np.eye(2)))
    plant = cfg.build_plant()
    assert plant.n == 2 and plant.m == 2


def test_integer_fields_and_jobs_refuse_floats_and_bools():
    # a float stopped inside the run with a bare TypeError, or (seed) ran as
    # its floor; a bool ran as 0 or 1
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.1))
    for name, value in (("t0", 20.0), ("horizon", 10.5), ("seed", 1.5), ("trials", 2.0),
                        ("trials", True), ("seed", np.float64(1.0)), ("horizon", np.True_)):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            ExperimentConfig(controller=spec, **{name: value})
    cfg = small_config(trials=2, horizon=20)
    for jobs in (2.0, 1.5, True, np.float64(1.0)):
        with pytest.raises(ConfigError, match="^jobs must be an integer"):
            run_monte_carlo(cfg, jobs=jobs)
    # any integer type is taken as its int, and gives the same bytes
    typed = small_config(t0=np.int64(20), horizon=np.int32(20), seed=np.uint8(3),
                         trials=np.int64(2))
    assert [type(v) for v in (typed.t0, typed.horizon, typed.seed, typed.trials)] == [int] * 4
    assert typed == small_config(t0=20, horizon=20, seed=3, trials=2)
    assert ([trajectory_csv_text(log) for log in run_monte_carlo(typed, jobs=np.int64(1)).logs]
            == [trajectory_csv_text(log) for log in run_monte_carlo(cfg).logs])


def test_real_fields_refuse_bools_strings_and_none():
    # a string stopped with a bare TypeError; a bool ran as 0 or 1
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.1))
    for name in ("sigma_w", "sigma_u_offline", "divergence_threshold"):
        for value in (True, np.True_, "1", None):
            with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
                ExperimentConfig(controller=spec, **{name: value})
    for value in (True, np.True_, "0.5", None):
        for build, name in ((ConstantStep, "eta"), (InverseNormM, "InverseNormM coeff"),
                            (InverseSqrtLambda, "lambda0"),
                            (lambda v: ControllerSpec("one_shot_ce", probe_std=v), "probe_std")):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                build(value)
    # any real type is taken as it is, and gives the same bytes
    typed = small_config(
        controller=ControllerSpec("indirect_vanilla", ConstantStep(np.float64(0.1)),
                                  InverseSqrtLambda(np.int64(1)), probe_std=np.float32(1.0)),
        sigma_w=np.float32(1.0), sigma_u_offline=1, divergence_threshold=np.int64(10**6),
        trials=2, horizon=20)
    plain = small_config(
        controller=ControllerSpec("indirect_vanilla", ConstantStep(0.1), InverseSqrtLambda(1.0)),
        sigma_w=1.0, sigma_u_offline=1.0, divergence_threshold=1e6, trials=2, horizon=20)
    assert ([trajectory_csv_text(log) for log in run_monte_carlo(typed).logs]
            == [trajectory_csv_text(log) for log in run_monte_carlo(plain).logs])


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
    # noiseless x+ = 2x + u under u = x/2: the one step multiplies |x| by 2.5,
    # so a threshold of |x1|/2 is passed only after it, |x1|/3 already before
    plant = tuple(np.array([[v]]) for v in (2.0, 1.0, 1.0, 1.0))
    spec = ControllerSpec("indirect_natural", ConstantStep(0.2), probe_std=0.0)

    def one_step(threshold):
        return run_trial(small_config(controller=spec, plant=plant, sigma_w=0.0, t0=5,
                                      horizon=1, initial_gain=np.array([[0.5]]),
                                      divergence_threshold=threshold), 0)

    full = one_step(1e6)
    assert full.status == "completed" and len(full.rows) == 1
    x1 = full.rows[0][3]
    after = one_step(x1 / 2)
    assert (after.status, after.halt_reason) == ("halted", "diverged")
    assert after.rows == full.rows
    assert after.final_gap == full.rows[0][2]
    before = one_step(x1 / 3)
    assert (before.status, before.halt_reason) == ("halted", "diverged")
    assert before.rows == []


def test_initialization_failure_halts_with_empty_log():
    # one offline sample cannot identify (A, B): the record is not persistently exciting
    log = run_trial(small_config(t0=1), 0)
    assert log.status == "halted"
    assert log.halt_reason.startswith("initialization:")
    assert log.rows == []
    assert log.initial_gap == log.final_gap == math.inf
    assert log.avg_stage_cost == []


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
    # malformed rows name their line: too few fields, a non-integer skip flag
    header = ",".join(TRAJECTORY_COLUMNS)
    good = "21,1.0,0.5,2.0,0.1,0.2,0.5,0.0,0.1,0,0.0"
    for row in ("21,1.0,0.5", good.replace(",0,0.0", ",0.5,0.0")):
        bad.write_text(f"{header}\n{good}\n{row}\n")
        with pytest.raises(ConfigError, match="line 3"):
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
    with pytest.raises(ConfigError):
        config_from_mapping({"method": "indirect_vanilla", "eta": "0.1",
                             "plant": "explicit", "A": "[[-1e999]]", "B": "[[1.0]]",
                             "Q": "[[1.0]]", "R": "[[1.0]]"})  # A overflows to -inf
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
    base = {"method": "direct_vanilla", "eta": "0.1"}
    for changes in (
        {"T": "1.5"},
        {"eta": "fast"},
        {"initial_gain": "[1.0, 2.0, 3.0]"},  # 1-d
        {"initial_gain": "[[1.0, 2.0]"},  # unparsable
        {"initial_gain": "[[1e999, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]"},  # inf
        {"eta_rule": "linear"},
        {"lambda_rule": "exponential"},
        {"plant": "pendulum"},
        {"method": "policy_iteration"},
        {"eta_rule": "constant", "eta_coeff": "0.2"},
        {"eta_rule": "inverse_norm_m", "eta": None},  # without eta_coeff
        {"method": "adaptive_hewer", "eta_rule": "inverse_norm_m", "eta": None},
        {"eta": "0"},
        *({key: value} for key in ("sigma_w", "sigma_u_offline", "probe_std", "eta")
          for value in ("nan", "inf", "-inf")),
        *({"eta_rule": "inverse_norm_m", "eta": None, "eta_coeff": value}
          for value in ("nan", "inf", "-inf")),
        *({"lambda_rule": "inverse_sqrt", "lambda0": value}
          for value in ("nan", "inf", "-inf")),
    ):
        mapping = {k: v for k, v in {**base, **changes}.items() if v is not None}
        with pytest.raises(ConfigError):
            config_from_mapping(mapping)
    # no divergence threshold at all is a valid choice
    cfg = config_from_mapping({**base, "divergence_threshold": "inf"})
    assert cfg.divergence_threshold == math.inf
    # a gain that does not fit the plant fails when the plant is built,
    # before any trial runs
    explicit = {"plant": "explicit", "A": "[[0.5]]", "B": "[[1.0]]",
                "Q": "[[1.0]]", "R": "[[1.0]]"}
    for plant, shape in (({}, r"\(3, 3\)"), (explicit, r"\(1, 1\)")):
        cfg = config_from_mapping({**base, **plant, "initial_gain": "[[1.0, 2.0]]"})
        with pytest.raises(ConfigError, match=shape):
            cfg.reference()
    # and so does a non-finite gain from a library caller, before any trial
    for value in (math.nan, math.inf):
        cfg = small_config(initial_gain=np.full((3, 3), value), trials=2)
        with pytest.raises(ConfigError, match="finite"):
            cfg.reference()
        with pytest.raises(ConfigError, match="finite"):
            run_monte_carlo(cfg, jobs=2)


def test_config_mapping_defaults_and_explicit_plant():
    cfg = config_from_mapping({"method": "indirect_natural", "eta": "0.2"})
    assert cfg == ExperimentConfig(
        controller=ControllerSpec("indirect_natural", ConstantStep(0.2)))
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


def test_readme_config_example_loads(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme) as fh:
        example = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    cfg = load_config(str(path))
    assert cfg.controller == ControllerSpec("direct_vanilla", InverseNormM(0.2))
    assert (cfg.trials, cfg.seed) == (20, 7)


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
    # --method replaces the config's method: the files are those of a config
    # that names it
    base = "eta = 0.2\nT = 30\ntrials = 2\nseed = 3\n"
    for method in ("indirect_vanilla", "indirect_natural"):
        (tmp_path / f"{method}.cfg").write_text(f"method = {method}\n" + base)
    assert cli.main(["run", "--config", str(tmp_path / "indirect_vanilla.cfg"),
                     "--out", str(tmp_path / "override"), "--method", "indirect_natural"]) == 0
    assert cli.main(["run", "--config", str(tmp_path / "indirect_natural.cfg"),
                     "--out", str(tmp_path / "named")]) == 0
    names = sorted(p.name for p in (tmp_path / "named").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "override").iterdir())
    assert "indirect_natural_trial001.csv" in names
    for name in names:
        assert (tmp_path / "override" / name).read_bytes() == (
            tmp_path / "named" / name).read_bytes()


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("method = indirect_natural\neta = 0.2\nwhatever = 1\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("method = indirect_natural\neta = 0.2\nT = 1.5\n")
    assert cli.main(["run", "--config", str(malformed), "--out", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m").exists()
    one_shot = tmp_path / "one_shot.cfg"
    one_shot.write_text("method = one_shot_ce\nlambda_rule = inverse_sqrt\nlambda0 = 0.1\n")
    assert cli.main(["run", "--config", str(one_shot), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    capsys.readouterr()
    nan_noise = tmp_path / "nan_noise.cfg"
    nan_noise.write_text("method = indirect_natural\neta = 0.2\nsigma_w = nan\n")
    assert cli.main(["run", "--config", str(nan_noise), "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "n").exists()
    # the rules check their own parameters; a config still reports it as exit 2
    for extra in ("eta = 0\n", "eta = -0.2\n", "eta_rule = inverse_norm_m\neta_coeff = 0\n",
                  "eta = 0.2\nlambda_rule = inverse_sqrt\nlambda0 = -1\n"):
        bad_rule = tmp_path / "bad_rule.cfg"
        bad_rule.write_text("method = direct_vanilla\n" + extra)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(bad_rule), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "r").exists()
    missing = tmp_path / "missing.cfg"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path)]) in (2, 3)
    wide_gain = tmp_path / "wide_gain.cfg"
    wide_gain.write_text("method = indirect_natural\neta = 0.2\ntrials = 2\nT = 5\n"
                         "initial_gain = [[1.0, 2.0]]\n")
    for jobs in ("1", "2"):
        capsys.readouterr()
        assert cli.main(["run", "--config", str(wide_gain), "--out", str(tmp_path / "g"),
                         "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial_gain must have shape (3, 3)")
    assert not (tmp_path / "g").exists()


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


def test_direct_natural_is_indirect_natural():
    for lambda_rule in (ZeroLambda(), InverseSqrtLambda(0.1)):
        direct, indirect = (
            small_config(controller=ControllerSpec(method, ConstantStep(0.2),
                                                   lambda_rule=lambda_rule),
                         seed=5, horizon=300)
            for method in ("direct_natural", "indirect_natural"))
        for i in range(10):
            assert (trajectory_csv_text(run_trial(direct, i))
                    == trajectory_csv_text(run_trial(indirect, i)))


def test_monitor_solves_once_per_updated_step(monkeypatch):
    systems = []
    solve = pgac.plant._solve_dlyap_stable

    def counted(F, W):
        systems.append(len(F))  # the monitor solves (k, n, n) stacks
        return solve(F, W)

    # trial 1 of seed 2 mixes updated and skipped steps before it halts
    cfg = small_config(controller=ControllerSpec("indirect_vanilla", ConstantStep(0.2)),
                       seed=2)
    cfg.reference()  # the optimum's own solve is not the monitor's
    monkeypatch.setattr(pgac.plant, "_solve_dlyap_stable", counted)
    log = run_trial(cfg, 1)
    skipped = [row[9] for row in log.rows]
    assert 0 < sum(skipped) < len(skipped)
    # the initial gain, then each gain an update moved: one system for each
    # that stabilizes the plant (finite gap), none for a gain the plant
    # rejects and none for a skipped step
    gaps = [log.initial_gap] + [row[2] for row in log.rows if not row[9]]
    stable = [not math.isinf(gap) for gap in gaps]
    assert sum(systems) == sum(stable) > 0
    # the initial gain alone, then one stacked call for the trial's few rows
    assert systems == [n for n in (int(stable[0]), sum(stable[1:])) if n]
    for prev, row in zip(log.rows, log.rows[1:]):
        if row[9]:
            assert row[1:3] == prev[1:3]


def _wide_plant():
    # criterion 09's 12-state, 4-input plant
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    A *= 0.7 / max(abs(np.linalg.eigvals(A)))
    return (A, rng.standard_normal((12, 4)), np.eye(12), np.eye(4))


def test_stacked_monitor_equals_per_step_monitor():
    specs = [
        ControllerSpec("indirect_vanilla", ConstantStep(0.2)),
        ControllerSpec("indirect_natural", ConstantStep(0.2), InverseSqrtLambda(0.1)),
        ControllerSpec("indirect_gauss_newton", ConstantStep(0.3)),
        ControllerSpec("adaptive_hewer"),
        ControllerSpec("direct_vanilla", InverseNormM(0.2)),
        ControllerSpec("direct_natural", ConstantStep(0.2), InverseSqrtLambda(0.1)),
        ControllerSpec("one_shot_ce"),
    ]
    # seed 1: trial 0 starts from a gain that does not stabilize the plant,
    # and trial 1 runs 900 steps, past two batch boundaries (404 steps at
    # n = 3); seed 2 trial 1 skips some steps before it halts; on the
    # 12-state plant a batch is 51 steps, whose moment blocks fill 256 KiB:
    # the Gauss-Newton trial's 120 steps cross two boundaries there, and the
    # vanilla trial halts inside the first batch
    assert (pgac.harness._monitor_rows(3, 3), pgac.harness._monitor_rows(4, 12)) == (404, 51)
    cases = [(ExperimentConfig(controller=spec, horizon=900, seed=1), (0, 1)) for spec in specs]
    cases.append((small_config(controller=specs[0], seed=2), (1,)))
    for spec in (specs[0], specs[2]):
        cases.append((small_config(controller=spec, plant=_wide_plant(), horizon=120), (0,)))
    logs = []
    for cfg, trials in cases:
        for i in trials:
            log = run_trial(cfg, i)
            assert trajectory_csv_text(log) == trajectory_csv_text(per_step_monitor_trial(cfg, i))
            logs.append(log)
    methods = {log.method for log in logs}
    assert len(methods) == 7
    assert any(log.status == "halted" for log in logs)
    assert any(log.status == "completed" for log in logs)
    assert any(math.isinf(log.initial_gap) for log in logs)
    assert any(0 < sum(row[9] for row in log.rows) < len(log.rows) for log in logs)
    assert max(len(log.rows) for log in logs) > 2 * 404
    assert [len(log.rows) for log in logs[-2:]] == [10, 120]
    # in lockstep, five of six trials halt after 1, 5, 8, 17 and 20 steps,
    # inside the first backlog, so each halt writes the rows gathered so
    # far; trial 2 then finishes alone, without the trial axis
    cfg = ExperimentConfig(ControllerSpec("indirect_vanilla", ConstantStep(0.6)), seed=1,
                           trials=6, horizon=400, divergence_threshold=20.0)
    together = run_trials(cfg, range(6))
    assert [len(log.rows) for log in together] == [1, 17, 400, 20, 5, 8]
    for i, log in enumerate(together):
        assert trajectory_csv_text(log) == trajectory_csv_text(per_step_monitor_trial(cfg, i))


# Every method and both regularized arms.  With the trials of seed 1 and a
# divergence threshold of 20, some trials start from a gain that does not
# stabilize the plant, some skip updates and many halt by divergence.
LOCKSTEP_SPECS = [
    ControllerSpec("indirect_vanilla", ConstantStep(0.2)),
    ControllerSpec("indirect_vanilla", ConstantStep(0.2), InverseSqrtLambda(0.1)),
    ControllerSpec("indirect_natural", ConstantStep(0.2)),
    ControllerSpec("indirect_gauss_newton", ConstantStep(0.5)),
    ControllerSpec("adaptive_hewer"),
    ControllerSpec("direct_vanilla", InverseNormM(0.2)),
    ControllerSpec("direct_vanilla", InverseNormM(0.2), InverseSqrtLambda(0.1)),
    ControllerSpec("direct_natural", ConstantStep(0.2)),
    ControllerSpec("one_shot_ce"),
]


def _lockstep_cases():
    # 100 trials for three arms, 30 for the others
    cases = [ExperimentConfig(controller=spec, seed=1, trials=100 if i % 3 == 0 else 30,
                              horizon=30, divergence_threshold=20.0)
             for i, spec in enumerate(LOCKSTEP_SPECS)]
    vanilla = LOCKSTEP_SPECS[0]
    # samples that overflow the moments: online after ~850 steps of an
    # unstable plant, offline at different samples for 81 of 100 trials
    unstable = (np.diag([1.5, 1.2]), np.array([[1.0], [0.5]]), np.eye(2), np.eye(1))
    cases.append(ExperimentConfig(controller=vanilla, plant=unstable, initial_gain=np.zeros((1, 2)),
                                  horizon=900, divergence_threshold=math.inf, seed=1, trials=7))
    cases.append(ExperimentConfig(controller=vanilla, sigma_u_offline=1e153, horizon=20,
                                  divergence_threshold=math.inf, seed=1, trials=100))
    # one offline sample identifies nothing: every initialization fails
    cases.append(small_config(t0=1, trials=7))
    # the first of two trials halts after 35 steps; the other goes on alone
    cases.append(ExperimentConfig(controller=ControllerSpec("indirect_vanilla", ConstantStep(0.02)),
                                  seed=500, trials=2, horizon=300))
    # the 12-state plant, monitored one gain at a time
    for spec, horizon in ((vanilla, 10), (LOCKSTEP_SPECS[8], 4)):
        cases.append(ExperimentConfig(controller=spec, plant=_wide_plant(), t0=60,
                                      horizon=horizon, seed=2, trials=3))
    return cases


def _log_record(log):
    return (trajectory_csv_text(log), log.status, log.halt_reason, log.initial_gap,
            log.final_gap, log.avg_stage_cost)


def test_lockstep_trials_equal_trials_run_alone(monkeypatch):
    logs = []
    for case, cfg in enumerate(_lockstep_cases()):
        # run_trial is the batch of one
        alone = [run_trial(cfg, i) for i in range(cfg.trials)]
        expected = [_log_record(log) for log in alone]
        for size in (7, 100):
            together = [log for first in range(0, cfg.trials, size)
                        for log in run_trials(cfg, range(first, min(first + size, cfg.trials)))]
            assert [_log_record(log) for log in together] == expected, (cfg.controller, size)
        if case == 0:
            assert [_log_record(log) for log in run_monte_carlo(cfg).logs] == expected
            # trials that leave the stack in the middle of a draw block
            monkeypatch.setattr(pgac.harness, "DRAW_BLOCK", 7)
            assert [_log_record(log) for log in run_trials(cfg, range(100))] == expected
            monkeypatch.undo()
        logs.extend(alone)
    reasons = {(log.halt_reason or "").split(" ", 2)[:2][0] for log in logs}
    assert {"diverged", "diverged:", "initialization:"} <= reasons
    halts = [log.halt_reason for log in logs if log.halt_reason]
    assert any(reason.startswith("diverged: sample") for reason in halts)
    assert any(reason.startswith("initialization: sample") for reason in halts)
    assert any(reason.startswith("initialization: sample covariance") for reason in halts)
    assert len({log.method for log in logs}) == 7
    assert any(math.isinf(log.initial_gap) for log in logs if log.rows)
    assert any(0 < sum(row[9] for row in log.rows) < len(log.rows) for log in logs)
    assert any(log.status == "completed" for log in logs)
    assert [len(log.rows) for log in logs[-8:-6]] == [35, 300]


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

    # run_monte_carlo imports the pool from its module when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = ControllerSpec("direct_vanilla", InverseNormM(0.2))
    # at n = 3 three trials fit one lockstep group: no pool starts, whatever
    # jobs asks, even where eight CPUs are usable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    cfg = small_config(controller=spec, trials=3, horizon=15)
    one_group = [trajectory_csv_text(lg) for lg in run_trials(cfg, range(3))]
    assert [trajectory_csv_text(lg) for lg in run_monte_carlo(cfg, jobs=8).logs] == one_group
    assert sizes == []
    # groups of one trial each, so that every trial is a task.  Groups are
    # formed in the parent, so the patch holds under any start method.
    monkeypatch.setattr(pgac.harness, "_kron_batch", lambda n: 1)
    # (usable CPUs, trials, jobs, pool sizes started).  The usable CPUs are
    # the affinity mask's; the machine's count, which may be None, only
    # stands in where the mask cannot be read.
    masked = ((8, 3, 8, [3]), (8, 3, 2, [2]), (8, 1, 4, []), (8, 2, 2, [2]),
              (2, 3, 10_000, [2]), (1, 3, 8, []))
    fallback = ((8, 3, 8, [3]), (2, 3, 10_000, [2]), (1, 3, 8, []), (None, 3, 8, []))
    for affinity, cases in ((True, masked), (False, fallback)):
        for cpus, trials, jobs, pool in cases:
            if affinity:
                # a container's CPU set: fewer CPUs than the machine reports
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                    raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: 64)
            else:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            del sizes[:]
            cfg = small_config(controller=spec, trials=trials, horizon=15)
            texts = [trajectory_csv_text(lg) for lg in run_monte_carlo(cfg, jobs=jobs).logs]
            assert sizes == pool
            assert texts == [trajectory_csv_text(lg) for lg in run_trials(cfg, range(trials))]


# Every row of METHODS with a rule it accepts, and one regularized arm
POOL_ARMS = {
    "indirect_vanilla": ControllerSpec("indirect_vanilla", ConstantStep(0.2)),
    "indirect_natural": ControllerSpec("indirect_natural", ConstantStep(0.2)),
    "indirect_gauss_newton": ControllerSpec("indirect_gauss_newton", ConstantStep(0.5)),
    "adaptive_hewer": ControllerSpec("adaptive_hewer"),
    "direct_vanilla": ControllerSpec("direct_vanilla", InverseNormM(0.2)),
    "direct_natural": ControllerSpec("direct_natural", ConstantStep(0.2)),
    "one_shot_ce": ControllerSpec("one_shot_ce"),
    "regularized": ControllerSpec("indirect_vanilla", ConstantStep(0.2), InverseSqrtLambda(0.1)),
}


def test_a_pool_of_one_trial_groups_writes_the_lockstep_bytes(monkeypatch):
    assert set(POOL_ARMS) - {"regularized"} == set(pgac.controller.METHODS)
    runs = {}
    for name, spec in POOL_ARMS.items():
        cfg = small_config(controller=spec, trials=3, horizon=40, seed=5)
        runs[name] = [run_monte_carlo(cfg, jobs=1)]  # one lockstep group, in-process
    # one-trial groups and two usable CPUs: a real pool of two runs every arm
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    class StartedPool(real_pool):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StartedPool)
    monkeypatch.setattr(pgac.harness, "_kron_batch", lambda n: 1)
    monkeypatch.setattr(pgac.harness, "_usable_cpus", lambda: 2)
    for name, spec in POOL_ARMS.items():
        cfg = small_config(controller=spec, trials=3, horizon=40, seed=5)
        runs[name].append(run_monte_carlo(cfg, jobs=2))
    assert started == [2] * len(POOL_ARMS)
    for name, (serial, pooled) in runs.items():
        assert summary_csv_text(pooled) == summary_csv_text(serial), name
        assert ([trajectory_csv_text(lg) for lg in pooled.logs]
                == [trajectory_csv_text(lg) for lg in serial.logs]), name


def test_cli_unwritable_output_exits_3(tmp_path):
    cfg = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "sub"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3


def test_cli_out_naming_a_file_exits_3_before_any_trial(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    runs = []
    monkeypatch.setattr(cli, "run_monte_carlo", lambda *a, **kw: runs.append(1))
    assert cli.main(["run", "--config", str(cfg), "--out", str(taken)]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")
    assert runs == [] and taken.read_text() == "a file, not a directory"


def test_cli_compare_checks_configs_and_out_before_any_trial(tmp_path, monkeypatch, capsys):
    good = write_cfg(tmp_path, "good.cfg")
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("method = indirect_natural\neta = 0.2\nT = 1.5\n")
    # loads, but check_run rejects its gain
    wide_gain = tmp_path / "wide_gain.cfg"
    wide_gain.write_text("method = indirect_natural\neta = 0.2\ninitial_gain = [[1.0, 2.0]]\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    runs = []
    monkeypatch.setattr(cli, "run_monte_carlo", lambda *a, **kw: runs.append(1))
    cases = [([str(good), str(bad)], 2) for bad in (malformed, wide_gain)]
    cases += [([str(bad), str(good)], 2) for bad in (malformed, wide_gain)]
    cases.append(([str(good), str(good)], 3))
    for configs, code in cases:
        argv = ["compare", "--configs", *configs]
        if code == 3:
            argv += ["--out", str(folder)]  # a directory cannot be written as the table
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:" if code == 2 else "i/o error:")
        assert captured.out == "" and runs == []
    assert list(folder.iterdir()) == []


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


_POOL_MODULES_SCRIPT = """
import json, sys
import pgac
from pgac import cli, harness

POOL = ("multiprocessing", "concurrent.futures.process")
loaded = {"import": [m for m in POOL if m in sys.modules]}
harness.run_monte_carlo(harness.load_config(sys.argv[1]), jobs=1)
loaded["serial run"] = [m for m in POOL if m in sys.modules]
assert cli.main(["selftest"]) == 0
loaded["selftest"] = [m for m in POOL if m in sys.modules]
assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "2"]) == 0
loaded["one group"] = [m for m in POOL if m in sys.modules]
# groups of one trial each: two groups, so --jobs 2 may start a pool
harness._kron_batch = lambda n: 1
assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[3], "--jobs", "2"]) == 0
loaded["pool"] = [m for m in POOL if m in sys.modules]
loaded["cpus"] = harness._usable_cpus()
print(json.dumps(loaded))
"""


def test_only_a_pool_run_loads_multiprocessing(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("method = indirect_natural\neta = 0.2\nT = 25\ntrials = 2\nseed = 3\n")
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(pgac.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES_SCRIPT, str(cfg), str(tmp_path / "one_group"),
         str(tmp_path / "pool")],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # two trials at n = 3 are one lockstep group: --jobs 2 runs it in-process
    assert loaded["import"] == loaded["serial run"] == loaded["selftest"] == []
    assert loaded["one group"] == []
    # two one-trial groups start a pool where two CPUs are usable, and run
    # in-process where one is
    assert loaded["pool"] == (["multiprocessing", "concurrent.futures.process"]
                              if loaded["cpus"] > 1 else [])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "serial")]) == 0
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    for run in ("one_group", "pool"):
        assert names == sorted(p.name for p in (tmp_path / run).iterdir())
        for name in names:
            assert (tmp_path / run / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


# Finite inputs whose samples overflow the data moments; each trial must halt
# with a reason instead of crashing (offline: initialization, online: diverged).
OVERFLOW_BASE = "method = indirect_vanilla\neta = 0.2\nT = 50\ntrials = 2\nseed = 1\n"
INF_PLANT = ("plant = explicit\nA = [[1.5, 0.0], [0.0, 1.2]]\nB = [[1.0], [0.5]]\n"
             "Q = [[1.0, 0.0], [0.0, 1.0]]\nR = [[1.0]]\ninitial_gain = [[0.0, 0.0]]\n"
             "T = 3000\ndivergence_threshold = inf\n")
OVERFLOW_CASES = {
    "probe_std": (OVERFLOW_BASE + "probe_std = 1e200\n", "diverged: "),
    "initial_gain": (OVERFLOW_BASE + "initial_gain = [[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], "
                     "[0.0, 0.0, 1e200]]\n", "diverged: "),
    "sigma_u_offline": (OVERFLOW_BASE + "sigma_u_offline = 1e200\n", "initialization: "),
    "sigma_w": (OVERFLOW_BASE + "sigma_w = 1e200\n", "initialization: "),
    "inf_threshold_direct": (INF_PLANT + "method = direct_vanilla\neta_rule = inverse_norm_m\n"
                             "eta_coeff = 0.2\ntrials = 2\nseed = 1\n", "diverged: "),
    "inf_threshold_indirect": (INF_PLANT + "method = indirect_vanilla\neta = 0.2\n"
                               "trials = 2\nseed = 1\n", "diverged: "),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_overflowing_inputs_halt_every_trial(tmp_path, capfd, monkeypatch, case):
    text, prefix = OVERFLOW_CASES[case]
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    for jobs in (1, 2):
        if jobs == 2:
            # one-trial groups: the two trials run in a pool where two CPUs are usable
            monkeypatch.setattr(pgac.harness, "_kron_batch", lambda n: 1)
        summary = run_monte_carlo(load_config(str(path)), jobs=jobs)
        assert summary.convergence_rate == 0.0
        for log in summary.logs:
            assert log.status == "halted"
            assert log.halt_reason.startswith(prefix) and "non-finite" in log.halt_reason
            assert all(np.isfinite(row[3]) for row in log.rows)
        out = tmp_path / f"out{jobs}"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        # the halt reasons say what overflowed: no numpy warning reaches
        # stderr, from this process or from a pool worker
        captured = capfd.readouterr()
        assert captured.out.splitlines()[1].split(",")[2] == "0.0"
        assert captured.err == ""
        assert len(read_trajectory_csv(out / f"{summary.method}_trial001.csv")) == len(
            summary.logs[1].rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inverse_norm_m_skips_a_non_finite_scaling_matrix(tmp_path, capfd, monkeypatch):
    # Trial 0 starts non-stabilizing and skips every step until it halts;
    # before that, M = Ubar Pi Ubar' overflows while the moments are still
    # finite.  Its stepsize is NaN without an SVD: LAPACK, handed a
    # non-finite matrix, prints its complaint to stdout.
    path = tmp_path / "inverse_norm_m.cfg"
    path.write_text("method = direct_vanilla\neta_rule = inverse_norm_m\neta_coeff = 0.2\n"
                    "T = 300\ntrials = 2\nseed = 1\ndivergence_threshold = inf\n")
    for jobs in (1, 2):
        if jobs == 2:
            # one-trial groups: the two trials run in a pool where two CPUs are usable
            monkeypatch.setattr(pgac.harness, "_kron_batch", lambda n: 1)
        out = tmp_path / f"out{jobs}"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        captured = capfd.readouterr()
        assert captured.out == (out / "summary.csv").read_text()
        assert captured.err == ""
        log = run_monte_carlo(load_config(str(path)), jobs=jobs).logs[0]
        assert log.status == "halted"
        assert log.halt_reason.startswith("diverged: ") and "non-finite" in log.halt_reason
