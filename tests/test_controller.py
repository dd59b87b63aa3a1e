import dataclasses
import math

import numpy as np
import pytest

import pgac.controller
import pgac.direct
import pgac.linalg
from oracles import identity_record, record_from_arrays, simulate_record
from pgac import (
    ConstantStep,
    ControllerSpec,
    DataRecord,
    InverseNormM,
    InverseSqrtLambda,
    ZeroLambda,
    batch_least_squares,
    benchmark_plant,
    hewer_iterates,
    lyapunov_solve_count,
    optimal_gain,
    parameterize,
    projected_step,
    solve_riccati_hewer,
)
from pgac.controller import advance, control_input, initialize, lambda_value, stepsize
from pgac.errors import (
    InitialGainUnstable,
    NegativeLambda,
    NotPersistentlyExciting,
    RuleMismatch,
)

ALL_METHODS = [
    ("indirect_vanilla", ConstantStep(0.02)),
    ("indirect_natural", ConstantStep(0.2)),
    ("indirect_gauss_newton", ConstantStep(0.5)),
    ("adaptive_hewer", None),
    ("direct_vanilla", InverseNormM(0.2)),
    ("direct_natural", ConstantStep(0.2)),
    ("one_shot_ce", None),
]


def make_spec(method, rule):
    return ControllerSpec(method, rule) if rule is not None else ControllerSpec(method)


def noiseless_record(seed=5, t=40):
    return simulate_record(benchmark_plant(), np.random.default_rng(seed), t, sigma_w=0.0)


def rollout(state, plant, steps, rng=None):
    """Drive the closed loop; zero noise and zero probes unless an rng is given."""
    x = np.zeros(plant.n)
    gains = []
    for _ in range(steps):
        probe = rng.standard_normal(plant.m) if rng is not None else np.zeros(plant.m)
        u = control_input(state, x, probe)
        w = rng.standard_normal(plant.n) if rng is not None else np.zeros(plant.n)
        x_next = plant.A @ x + plant.B @ u + w
        advance(state, x, u, x_next, w_oracle=w)
        gains.append(state.gain.copy())
        x = x_next
    return gains


def test_spec_validation_matrix():
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.1))
    assert spec.method == "indirect_vanilla"
    assert isinstance(spec.lambda_rule, ZeroLambda)
    with pytest.raises(ValueError):
        ControllerSpec("not_a_method", ConstantStep(0.1))
    with pytest.raises(ValueError):
        ControllerSpec("indirect_vanilla")  # stepsize rule is mandatory here
    assert ControllerSpec("adaptive_hewer").stepsize_rule == ConstantStep(0.5)
    assert ControllerSpec("one_shot_ce").stepsize_rule is None
    # a method whose stepsize is fixed by definition rejects any other rule
    with pytest.raises(RuleMismatch):
        ControllerSpec("adaptive_hewer", ConstantStep(0.3))
    with pytest.raises(RuleMismatch):
        ControllerSpec("one_shot_ce", ConstantStep(0.1))
    with pytest.raises(RuleMismatch):
        ControllerSpec("adaptive_hewer", InverseNormM(0.2))
    # one-shot CE re-solves the Riccati equation and has no use for lambda
    for lam_rule in (InverseSqrtLambda(0.1), InverseSqrtLambda(0.0)):
        with pytest.raises(RuleMismatch):
            ControllerSpec("one_shot_ce", lambda_rule=lam_rule)
    assert ControllerSpec("one_shot_ce", lambda_rule=ZeroLambda()) == ControllerSpec("one_shot_ce")
    hewer = ControllerSpec("adaptive_hewer", ConstantStep(0.5))
    assert hewer == ControllerSpec("adaptive_hewer")
    assert dataclasses.replace(hewer, probe_std=0.5).stepsize_rule == ConstantStep(0.5)
    assert dataclasses.replace(ControllerSpec("one_shot_ce"),
                               probe_std=0.5).stepsize_rule is None
    with pytest.raises(ValueError):
        ControllerSpec("indirect_vanilla", ConstantStep(0.0))
    with pytest.raises(ValueError):
        ControllerSpec("indirect_vanilla", ConstantStep(-0.2))
    with pytest.raises(ValueError):
        ControllerSpec("direct_vanilla", InverseNormM(-0.1))
    with pytest.raises(RuleMismatch):
        ControllerSpec("indirect_vanilla", InverseNormM(0.2))
    with pytest.raises(NegativeLambda):
        ControllerSpec("indirect_vanilla", ConstantStep(0.1),
                       lambda_rule=InverseSqrtLambda(-0.5))
    with pytest.raises(ValueError):
        ControllerSpec("indirect_vanilla", ConstantStep(0.1), probe_std=-1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ControllerSpec("indirect_vanilla", ConstantStep(value))
        with pytest.raises(ValueError):
            ControllerSpec("direct_vanilla", InverseNormM(value))
        with pytest.raises(ValueError):
            ControllerSpec("indirect_vanilla", ConstantStep(0.1),
                           lambda_rule=InverseSqrtLambda(value))
        with pytest.raises(ValueError):
            ControllerSpec("indirect_vanilla", ConstantStep(0.1), probe_std=value)
    with pytest.raises(ValueError):
        ControllerSpec("indirect_vanilla", object())
    with pytest.raises(ValueError):
        ControllerSpec("indirect_vanilla", ConstantStep(0.1), lambda_rule=object())


def test_initialize_noiseless_finds_optimal_gain():
    plant = benchmark_plant()
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02))
    state = initialize(spec, plant.Q, plant.R, noiseless_record())
    K_star, _ = optimal_gain(plant)
    assert np.linalg.norm(state.gain - K_star) < 1e-6
    assert state.record.t == 40
    assert math.isnan(state.last_eta)
    assert state.last_lambda == 0.0


def test_initialize_explicit_gain_passthrough():
    plant = benchmark_plant()
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02))
    K_init = np.full((3, 3), -0.3)
    state = initialize(spec, plant.Q, plant.R, noiseless_record(), K_init=K_init)
    assert np.array_equal(state.gain, K_init)


def test_initialize_requires_persistent_excitation():
    plant = benchmark_plant()
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02))
    rec = DataRecord(3, 3)
    rng = np.random.default_rng(1)
    for _ in range(3):
        rec.append(rng.standard_normal(3), rng.standard_normal(3),
                   rng.standard_normal(3), rng.standard_normal(3))
    with pytest.raises(NotPersistentlyExciting):
        initialize(spec, plant.Q, plant.R, rec)


def test_initialize_unstabilizable_estimate():
    # data generated by x+ = 2x with input decoupled exactly -> Bhat = 0
    U0 = np.array([[1.0, -1.0]])
    X0 = np.array([[1.0, 1.0]])
    X1 = np.array([[2.0, 2.0]])
    rec = record_from_arrays(U0, X0, X1)
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02))
    with pytest.raises(InitialGainUnstable):
        initialize(spec, np.eye(1), np.eye(1), rec)


def test_lambda_value_schedule():
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02),
                          lambda_rule=InverseSqrtLambda(0.1))
    with pytest.raises(ValueError):
        lambda_value(spec, 19, 20)
    assert lambda_value(spec, 20, 20) == 0.1
    assert abs(lambda_value(spec, 120, 20) - 0.01) < 1e-15
    zero = ControllerSpec("indirect_vanilla", ConstantStep(0.02))
    assert lambda_value(zero, 20, 20) == 0.0
    assert lambda_value(zero, 500, 20) == 0.0


def test_stepsize_rules():
    plant = benchmark_plant()
    state = initialize(ControllerSpec("indirect_vanilla", ConstantStep(0.07)),
                       plant.Q, plant.R, noiseless_record())
    assert stepsize(state) == 0.07
    state = initialize(ControllerSpec("adaptive_hewer"), plant.Q, plant.R, noiseless_record())
    assert stepsize(state) == 0.5
    state = initialize(ControllerSpec("one_shot_ce"), plant.Q, plant.R, noiseless_record())
    assert math.isnan(stepsize(state))
    # unit sample covariance makes the scaled rule return its coefficient
    rec = identity_record(2, 3)
    state = initialize(ControllerSpec("direct_vanilla", InverseNormM(0.2)),
                       np.eye(3), np.eye(2), rec)
    assert abs(stepsize(state) - 0.2) < 1e-12


def test_control_input_mixes_probe():
    plant = benchmark_plant()
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02), probe_std=0.3)
    state = initialize(spec, plant.Q, plant.R, noiseless_record())
    x = np.array([1.0, -2.0, 0.5])
    probe = np.array([0.2, 0.0, -0.1])
    u = control_input(state, x, probe)
    assert np.allclose(u, state.gain @ x + 0.3 * probe, atol=1e-14)


@pytest.mark.parametrize("method,rule", ALL_METHODS)
def test_stationarity_at_optimum(method, rule):
    # exact model, zero noise, started at the optimum: nothing should move
    plant = benchmark_plant()
    state = initialize(make_spec(method, rule), plant.Q, plant.R, noiseless_record())
    K0 = state.gain.copy()
    gains = rollout(state, plant, 5)
    assert not state.last_skipped
    for K in gains:
        assert np.linalg.norm(K - K0) < 1e-6


def test_adaptive_hewer_replays_policy_iteration():
    plant = benchmark_plant()
    rec = noiseless_record()
    state = initialize(ControllerSpec("adaptive_hewer"), plant.Q, plant.R, rec)
    K0 = 0.8 * state.gain
    state = initialize(ControllerSpec("adaptive_hewer"), plant.Q, plant.R, rec, K_init=K0)
    est = batch_least_squares(state.record)
    reference = hewer_iterates(est.Ahat, est.Bhat, plant.Q, plant.R, K0)
    next(reference)  # first pair evaluates K0 itself
    gains = rollout(state, plant, 10)
    for K_measured in gains:
        K_expected, _ = next(reference)
        assert np.allclose(K_measured, K_expected, atol=1e-10)


def test_one_shot_tracks_estimate_optimum():
    plant = benchmark_plant()
    rng = np.random.default_rng(19)
    rec = simulate_record(plant, rng, 40)
    state = initialize(ControllerSpec("one_shot_ce"), plant.Q, plant.R, rec)
    x = np.zeros(3)
    for _ in range(5):
        u = control_input(state, x, rng.standard_normal(3))
        w = rng.standard_normal(3)
        x_next = plant.A @ x + plant.B @ u + w
        advance(state, x, u, x_next, w_oracle=w)
        est = batch_least_squares(state.record)
        sol = solve_riccati_hewer(est.Ahat, est.Bhat, plant.Q, plant.R)
        assert np.allclose(state.gain, sol.gain, atol=1e-9)
        assert math.isnan(state.last_eta)
        x = x_next


def test_solve_count_profile_per_advance():
    plant = benchmark_plant()
    expected = {
        "indirect_vanilla": 2,
        "indirect_natural": 1,
        "indirect_gauss_newton": 1,
        "adaptive_hewer": 1,
        "direct_vanilla": 2,
        "direct_natural": 1,
    }
    deltas = {}
    for method, rule in ALL_METHODS:
        rng = np.random.default_rng(11)
        rec = simulate_record(plant, rng, 40)
        state = initialize(make_spec(method, rule), plant.Q, plant.R, rec)
        state.gain = 0.9 * state.gain
        x = np.zeros(3)
        per_step = []
        for _ in range(4):
            u = control_input(state, x, np.zeros(3))
            w = rng.standard_normal(3)
            x_next = plant.A @ x + plant.B @ u + w
            before = lyapunov_solve_count()
            advance(state, x, u, x_next, w_oracle=w)
            per_step.append(lyapunov_solve_count() - before)
            x = x_next
        assert not state.last_skipped
        deltas[method] = per_step
    for method, budget in expected.items():
        assert deltas[method] == [budget] * 4
    # recomputing the full design is strictly more work than any gradient step
    assert min(deltas["one_shot_ce"]) > max(max(v) for k, v in deltas.items()
                                            if k != "one_shot_ce")


def _record_riccati_solves(monkeypatch):
    """Replace the controller's Riccati solver with one that logs each call's
    K0 and its solution (None when the call raised)."""
    calls = []
    solve = pgac.controller.solve_riccati_hewer

    def logged(*args, **kwargs):
        calls.append([kwargs.get("K0"), None])
        calls[-1][1] = solve(*args, **kwargs)
        return calls[-1][1]

    monkeypatch.setattr(pgac.controller, "solve_riccati_hewer", logged)
    return calls


def test_one_shot_checks_each_closed_loop_once(monkeypatch):
    plant = benchmark_plant()
    rng = np.random.default_rng(11)
    state = initialize(ControllerSpec("one_shot_ce"), plant.Q, plant.R,
                       simulate_record(plant, rng, 40))
    state.gain = 0.9 * state.gain
    checks = []
    stabilizing = pgac.linalg.is_stabilizing
    monkeypatch.setattr(pgac.linalg, "is_stabilizing",
                        lambda F, *args: checks.append(1) or stabilizing(F, *args))
    calls = _record_riccati_solves(monkeypatch)
    x = np.zeros(3)
    for _ in range(4):
        u = control_input(state, x, rng.standard_normal(3))
        w = rng.standard_normal(3)
        x_next = plant.A @ x + plant.B @ u + w
        K = state.gain
        del checks[:], calls[:]
        advance(state, x, u, x_next, w_oracle=w)
        assert not state.last_skipped
        [(K0, sol)] = calls  # warm started, no retry
        assert K0 is K
        # K0's closed loop and that of each improved gain, once each
        assert len(checks) == sol.iterations + 1
        x = x_next


def test_one_shot_failing_iterate_retries_then_skips(monkeypatch):
    # noiseless data from x+ = (1 - 5e-10) x + u with a nearly free state
    # weight: the warm start stabilizes, but its iterates head for an optimum
    # whose closed loop misses the stability margin, and so does the seed
    # recursion of the restart
    a = 1.0 - 5e-10
    U0 = np.array([[1.0, 0.0, 1.0, -1.0]])
    X0 = np.array([[0.0, 1.0, 1.0, 2.0]])
    rec = record_from_arrays(U0, X0, a * X0 + U0)
    state = initialize(ControllerSpec("one_shot_ce"), [[1e-20]], [[1.0]], rec,
                       K_init=[[-0.5]])
    calls = _record_riccati_solves(monkeypatch)
    K = state.gain
    x, u = np.array([1.0]), np.array([0.3])
    advance(state, x, u, a * x + u)
    assert state.last_skipped
    assert state.gain is K and np.array_equal(K, [[-0.5]])
    assert [K0 is K for K0, _ in calls] == [True, False]
    assert calls[1][0] is None and all(sol is None for _, sol in calls)
    # the seed gain stabilizes this estimate with the margin, a later
    # policy-iteration gain does not: initialization reports it as such
    A = np.array([[1.3573508255546507, -0.051431637470195364],
                  [-2.1540524430558903, 1.3100215119241474]])
    B = np.array([[-2.9671837099839435], [-0.7600587900644338]])
    rng = np.random.default_rng(3)
    U0, X0 = rng.standard_normal((1, 6)), rng.standard_normal((2, 6))
    rec = record_from_arrays(U0, X0, A @ X0 + B @ U0)
    with pytest.raises(InitialGainUnstable):
        initialize(ControllerSpec("one_shot_ce"), 1e-20 * np.eye(2), np.eye(1), rec)


def test_direct_vanilla_builds_one_projector_per_step(monkeypatch):
    plant = benchmark_plant()
    built = []
    original = pgac.direct.nullspace_projector
    monkeypatch.setattr(pgac.direct, "nullspace_projector",
                        lambda A: built.append(1) or original(A))
    for lam_rule in (ZeroLambda(), InverseSqrtLambda(0.1)):
        rng = np.random.default_rng(11)
        spec = ControllerSpec("direct_vanilla", InverseNormM(0.2), lambda_rule=lam_rule)
        state = initialize(spec, plant.Q, plant.R, simulate_record(plant, rng, 40))
        x = np.zeros(3)
        for _ in range(4):
            u = control_input(state, x, rng.standard_normal(3))
            w = rng.standard_normal(3)
            x_next = plant.A @ x + plant.B @ u + w
            del built[:]
            advance(state, x, u, x_next, w_oracle=w)
            assert not state.last_skipped
            assert len(built) == 1  # shared by the stepsize rule and the step
            x = x_next


def test_failed_update_is_skipped_not_fatal():
    plant = benchmark_plant()
    spec = ControllerSpec("indirect_vanilla", ConstantStep(0.02))
    state = initialize(spec, plant.Q, plant.R, noiseless_record())
    state.gain = np.zeros((3, 3))  # does not stabilize the (exact) estimate
    t_before = state.record.t
    advance(state, np.zeros(3), np.ones(3), np.zeros(3), np.zeros(3))
    assert state.last_skipped
    assert np.array_equal(state.gain, np.zeros((3, 3)))
    assert state.record.t == t_before + 1  # the sample is still banked


def test_rules_check_their_own_parameters():
    # a rule is checked when it is built, with or without a spec
    with pytest.raises(ValueError):
        ConstantStep(0.0)
    with pytest.raises(ValueError):
        InverseNormM(math.inf)
    with pytest.raises(NegativeLambda):
        InverseSqrtLambda(-1.0)
    with pytest.raises(ValueError):
        InverseSqrtLambda(math.nan)


@pytest.mark.parametrize("M", [np.zeros((3, 3)), np.full((3, 3), np.nan)],
                         ids=["NotPersistentlyExciting", "LinAlgError"])
def test_failing_stepsize_is_a_skip(monkeypatch, M):
    # a zero M makes InverseNormM raise NotPersistentlyExciting, a NaN M makes
    # its SVD raise LinAlgError: both skip the step like a failed update
    plant = benchmark_plant()
    rng = np.random.default_rng(13)
    spec = ControllerSpec("direct_vanilla", InverseNormM(0.2))
    state = initialize(spec, plant.Q, plant.R, simulate_record(plant, rng, 40))
    gain, t_before = state.gain.copy(), state.record.t
    monkeypatch.setattr(pgac.direct, "scaling_matrix", lambda record: M)
    x = rng.standard_normal(3)
    u = control_input(state, x, rng.standard_normal(3))
    w = rng.standard_normal(3)
    advance(state, x, u, plant.A @ x + plant.B @ u + w, w_oracle=w)
    assert state.last_skipped and math.isnan(state.last_eta)
    assert np.array_equal(state.gain, gain)
    assert state.record.t == t_before + 1


def test_direct_vanilla_step_is_the_projected_step():
    # the controller takes the projected covariance step through its bridge,
    # K - eta M grad Chat(K) at the batch estimate; compare it with the
    # step taken in V on the same 50-sample record
    plant = benchmark_plant()
    for lam_rule, lam in ((ZeroLambda(), 0.0), (InverseSqrtLambda(0.1), 0.1)):
        spec = ControllerSpec("direct_vanilla", InverseNormM(0.2), lambda_rule=lam_rule)
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            state = initialize(spec, plant.Q, plant.R, simulate_record(plant, rng, 49))
            K = state.gain
            x = rng.standard_normal(3)
            u = control_input(state, x, rng.standard_normal(3))
            w = rng.standard_normal(3)
            advance(state, x, u, plant.A @ x + plant.B @ u + w, w_oracle=w)
            rec = state.record
            assert rec.t == 50 and state.last_lambda == lam and not state.last_skipped
            _, K_ref = projected_step(rec, parameterize(rec, K), plant.Q, plant.R,
                                      state.last_eta, lam=lam)
            assert np.linalg.norm(state.gain - K_ref) <= 1e-10 * np.linalg.norm(K_ref)
