import numpy as np
import pytest

import pgac.dataflow
from oracles import (
    record_from_arrays,
    OuterFormRecord,
    identity_record,
    outer_form_rls_update,
    simulate_columns,
    simulate_record,
)
from pgac import (
    DataRecord,
    LinearQuadraticPlant,
    ModelEstimate,
    batch_least_squares,
    benchmark_plant,
    rls_update,
    snr_reading,
)
from pgac.dataflow import snr_readings
from pgac.errors import NonFiniteData, NotPersistentlyExciting, OracleUnavailable


def stable_plant():
    A = np.array([[0.6, 0.1, 0.0], [0.0, 0.5, 0.1], [0.1, 0.0, 0.4]])
    return LinearQuadraticPlant(A, np.eye(3), np.eye(3), np.eye(3))


def test_underdetermined_record_is_not_pe():
    rec = DataRecord(3, 3)
    with pytest.raises(ValueError):
        snr_reading(rec)
    rng = np.random.default_rng(1)
    for _ in range(5):  # five samples < m + n = 6 unknown columns
        rec.append(rng.standard_normal(3), rng.standard_normal(3),
                   rng.standard_normal(3), rng.standard_normal(3))
    assert snr_reading(rec).gamma < 1e-12
    with pytest.raises(NotPersistentlyExciting):
        rec.phi_inv
    with pytest.raises(NotPersistentlyExciting):
        batch_least_squares(rec)


def test_from_arrays_matches_appends():
    plant = benchmark_plant()
    U0, X0, X1, W0 = simulate_columns(plant, np.random.default_rng(9), 30)
    rec = DataRecord(3, 3)
    for j in range(30):
        rec.append(U0[:, j], X0[:, j], X1[:, j], W0[:, j])
    twin = record_from_arrays(U0, X0, X1, W0)
    assert twin.t == rec.t
    assert np.allclose(twin.phi, rec.phi, atol=1e-12)
    assert np.allclose(twin.phi_inv, rec.phi_inv, atol=1e-10)
    assert np.allclose(twin.xbar1, rec.xbar1, atol=1e-12)
    assert twin.has_oracle


def test_aggregate_property_definitions():
    plant = benchmark_plant()
    U0, X0, X1, W0 = simulate_columns(plant, np.random.default_rng(4), 40)
    rec = record_from_arrays(U0, X0, X1, W0)
    t = rec.t
    D0 = np.vstack([U0, X0])
    assert np.allclose(rec.phi, D0 @ D0.T / t, atol=1e-12)
    assert np.allclose(rec.ubar, U0 @ D0.T / t, atol=1e-12)
    assert np.allclose(rec.xbar0, X0 @ D0.T / t, atol=1e-12)
    assert np.allclose(rec.xbar1, X1 @ D0.T / t, atol=1e-12)
    assert np.allclose(rec.wbar, W0 @ D0.T / t, atol=1e-12)
    assert np.allclose(rec.phi, rec.phi.T, atol=1e-14)


def test_noiseless_recovery_is_exact():
    plant = benchmark_plant()
    rec = simulate_record(plant, np.random.default_rng(11), 25, sigma_w=0.0)
    est = batch_least_squares(rec)
    assert np.allclose(est.Ahat, plant.A, atol=1e-9)
    assert np.allclose(est.Bhat, plant.B, atol=1e-9)
    reading = snr_reading(rec)
    assert reading.delta < 1e-12
    assert reading.snr == np.inf


def test_theta_layout_round_trip():
    plant = benchmark_plant()
    rec = simulate_record(plant, np.random.default_rng(2), 30)
    est = batch_least_squares(rec)
    assert np.array_equal(est.theta, np.hstack([est.Bhat, est.Ahat]))
    back = ModelEstimate.from_theta(est.theta, plant.m)
    assert np.array_equal(back.Ahat, est.Ahat)
    assert np.array_equal(back.Bhat, est.Bhat)


def test_rls_matches_batch_recomputation():
    plant = benchmark_plant()
    rng = np.random.default_rng(3)
    U0, X0, X1, W0 = simulate_columns(plant, rng, 20)
    rec = record_from_arrays(U0, X0, X1, W0)
    est = batch_least_squares(rec)
    x = X1[:, -1]
    for _ in range(30):
        u = rng.standard_normal(3)
        w = rng.standard_normal(3)
        x_next = plant.A @ x + plant.B @ u + w
        est = rls_update(est, rec, u, x, x_next)
        rec.append(u, x, x_next, w)
        ref = batch_least_squares(rec)
        assert np.allclose(est.theta, ref.theta, atol=1e-8)
        x = x_next


def test_rls_survives_reinversion_boundary(monkeypatch):
    monkeypatch.setattr(pgac.dataflow, "REINVERT_EVERY", 16)
    plant = stable_plant()
    rng = np.random.default_rng(13)
    rec = DataRecord(3, 3)
    x = np.zeros(3)
    est = None
    for k in range(60):
        u = rng.standard_normal(3)
        w = rng.standard_normal(3)
        x_next = plant.A @ x + plant.B @ u + w
        if est is not None:
            est = rls_update(est, rec, u, x, x_next)
        rec.append(u, x, x_next, w)
        if est is None and rec.t >= 8:
            est = batch_least_squares(rec)
        if est is not None:
            assert np.allclose(est.theta, batch_least_squares(rec).theta, atol=1e-8)
        x = x_next


def test_incremental_inverse_tracks_dense_inverse():
    plant = stable_plant()
    rec = simulate_record(plant, np.random.default_rng(21), 1150)
    dense = np.linalg.inv(rec.phi)
    assert np.allclose(rec.phi_inv, dense, rtol=1e-7, atol=1e-9)
    assert np.allclose(rec.phi @ rec.phi_inv, np.eye(6), atol=1e-7)


def stable_scalar_plant(rng):
    # open-loop rollouts must stay bounded here, so keep |a| < 1
    a = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    return LinearQuadraticPlant(np.array([[a]]), np.array([[b]]),
                                np.eye(1), np.eye(1))


def test_estimation_error_bound():
    # spectral error of the least-squares estimate never beats the SNR bound
    for seed in range(25):
        rng = np.random.default_rng(4000 + seed)
        plant = benchmark_plant() if seed % 2 == 0 else stable_scalar_plant(rng)
        rec = simulate_record(plant, rng, 60)
        est = batch_least_squares(rec)
        reading = snr_reading(rec)
        theta_true = np.hstack([plant.B, plant.A])
        err = np.linalg.norm(est.theta - theta_true, 2)
        assert err <= (1.0 / reading.snr) * (1.0 + 1e-10)


def test_residual_scale_shrinks_like_inverse_sqrt_t():
    plant = stable_plant()
    medians = {}
    for t in (200, 800, 3200):
        deltas = []
        for seed in range(20):
            rec = simulate_record(plant, np.random.default_rng(50 + seed), t)
            deltas.append(snr_reading(rec).delta)
        medians[t] = float(np.median(deltas))
    assert 0.3 < medians[800] / medians[200] < 0.7
    assert 0.125 < medians[3200] / medians[200] < 0.375


def test_pe_check_rate_on_benchmark():
    # persistency of excitation at level 1e-3: sigma_min(Phi) >= 1e-3
    plant = benchmark_plant()
    hits = 0
    for seed in range(100):
        rec = simulate_record(plant, np.random.default_rng(seed), 100)
        hits += bool(snr_reading(rec).gamma >= 1e-3)
    assert hits >= 95


def test_identity_record_properties():
    rec = identity_record(2, 3)
    assert np.allclose(rec.phi, np.eye(5), atol=1e-12)
    assert np.allclose(rec.phi_inv, np.eye(5), atol=1e-10)
    assert 1.0 <= snr_reading(rec).gamma < 1.0 + 1e-6


def test_snr_requires_noise_log():
    plant = benchmark_plant()
    rng = np.random.default_rng(31)
    rec = DataRecord(3, 3)
    x = np.zeros(3)
    for _ in range(12):
        u = rng.standard_normal(3)
        w = rng.standard_normal(3)
        x_next = plant.A @ x + plant.B @ u + w
        rec.append(u, x, x_next, None)
        x = x_next
    assert not rec.has_oracle
    with pytest.raises(OracleUnavailable):
        snr_reading(rec)


def test_stacked_snr_readings_equal_per_record():
    plant = benchmark_plant()
    rng = np.random.default_rng(41)
    records = [simulate_record(plant, rng, int(t)) for t in rng.integers(1, 60, size=100)]
    records[3] = identity_record(3, 3)  # zero noise moment: infinite SNR
    for k in (1, 7, 100):
        batch = records[:k]
        gamma, delta, snr = snr_readings(np.stack([r.phi for r in batch]),
                                         np.stack([r.wbar for r in batch]))
        for i, rec in enumerate(batch):
            reading = snr_reading(rec)
            assert (gamma[i], delta[i], snr[i]) == (reading.gamma, reading.delta, reading.snr)
            # the per-matrix formulas: sigma_min of the PSD covariance from
            # its symmetric eigensolve, clamped at 0, and the spectral norm
            g = max(float(np.linalg.eigvalsh(rec.phi)[0]), 0.0)
            d = float(np.linalg.norm(rec.wbar, 2))
            assert (reading.gamma, reading.delta) == (g, d)
            assert reading.snr == (np.inf if d == 0.0 else g / d)
    assert snr_reading(records[3]).snr == np.inf


def test_appends_replace_record_arrays_and_never_mutate_them(monkeypatch):
    plant = benchmark_plant()
    U0, X0, X1, W0 = simulate_columns(plant, np.random.default_rng(8), 40)
    monkeypatch.setattr(pgac.dataflow, "REINVERT_EVERY", 5)  # several dense re-inversions
    rec = DataRecord(3, 3)
    kept = []
    for j in range(40):
        # the noise log lapses for a few steps: the other branch of wbar's update
        rec.append(U0[:, j], X0[:, j], X1[:, j], None if 20 <= j < 23 else W0[:, j])
        arrays = (rec.phi, rec.xbar1, rec.wbar)
        if kept:
            assert all(new is not old for new, old in zip(arrays, kept[-1][0]))
        kept.append((arrays, tuple(a.copy() for a in arrays)))
        if j == 30:
            snapshot = rec.copy()
            snap = [(a, a.copy()) for a in (snapshot.phi, snapshot.xbar1, snapshot.wbar)]
            assert all(a is not b for (a, _), b in zip(snap, arrays))
    for j in range(31, 40):
        snapshot.append(U0[:, j], X0[:, j], X1[:, j], W0[:, j])
    for arrays, values in kept:
        assert all(np.array_equal(a, v) for a, v in zip(arrays, values))
    assert all(np.array_equal(a, v) for a, v in snap)


@pytest.mark.parametrize("noise_log", ["always", "never", "lapsing"])
def test_fused_moment_update_equals_outer_form(noise_log):
    # 1300 transitions of a 2-input, 3-state record cross the dense
    # re-inversion after 1000 rank-one updates; midway both records are
    # copied, and the copies go on from there
    m, n, steps = 2, 3, 1300
    rng = np.random.default_rng(31)
    rec, ref = DataRecord(m, n), OuterFormRecord(m, n, pgac.dataflow.REINVERT_EVERY)
    est = ref_est = None
    for k in range(steps):
        u, x, x_next, w = (rng.standard_normal(size) for size in (m, n, n, n))
        if noise_log == "never" or (noise_log == "lapsing" and k % 7 < 3):
            w = None
        if est is not None:
            est = rls_update(est, rec, u, x, x_next)
            ref_est = outer_form_rls_update(ref_est, ref, u, x, x_next)
            assert np.array_equal(est.theta, ref_est.theta)
        rec.append(u, x, x_next, w)
        ref.append(u, x, x_next, w)
        if k == 2 * (m + n):
            est = batch_least_squares(rec)
            ref_est = ModelEstimate.from_theta(ref.xbar1 @ ref.phi_inv, m)
        if k == steps // 2:
            rec, ref = rec.copy(), ref.copy()
        assert rec.t == ref.t == k + 1
        for name in ("phi", "xbar1", "wbar"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        if est is not None:
            assert np.array_equal(rec.phi_inv, ref.phi_inv)
    # rank-one updates since the first inversion at t = 2(m + n) + 1, less
    # the 1000 before the dense re-inversion
    assert rec._updates_since_inversion == ref._updates_since_inversion == steps - 11 - 1000


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_refused_append_leaves_the_record_as_it_was():
    rec = simulate_record(benchmark_plant(), np.random.default_rng(17), 30)
    rec.phi_inv  # noqa: B018 - make the tracked inverse exist
    before = (rec.t, rec._moments.copy(), rec.phi_inv.copy(), rec.has_oracle)
    ones = np.ones(3)
    for u, x, x_next in ((1e200 * ones, ones, ones), (ones, 1e200 * ones, ones),
                         (ones, np.full(3, np.nan), ones), (ones, ones, np.full(3, np.inf))):
        with pytest.raises(NonFiniteData):
            rec.append(u, x, x_next, ones)
        assert (rec.t, rec.has_oracle) == (before[0], before[3])
        assert np.array_equal(rec._moments, before[1])
        assert np.array_equal(rec.phi_inv, before[2])
    # a refused noise sample is not counted: one sample without a noise log
    # never gains an oracle from a refused one with it
    rec = DataRecord(1, 1)
    rec.append([1.0], [1.0], [1.0])
    with pytest.raises(NonFiniteData):
        rec.append([1e200], [1.0], [1.0], [1.0])
    assert rec.t == 1 and not rec.has_oracle


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_stacked_record_equals_single_records(monkeypatch):
    # five trials stepped together across dense re-inversions, then split,
    # rejoined and refused a sample that overflows two of them
    m, n, k = 2, 3, 5
    rng = np.random.default_rng(43)
    monkeypatch.setattr(pgac.dataflow, "REINVERT_EVERY", 7)
    single = [DataRecord(m, n) for _ in range(k)]
    stacked = DataRecord(m, n, trials=k)
    for step in range(30):
        u, x, x_next, w = (rng.standard_normal((k, size)) for size in (m, n, n, n))
        stacked.append(u, x, x_next, w)
        for i, rec in enumerate(single):
            rec.append(u[i], x[i], x_next[i], w[i])
        if step >= 2 * (m + n):
            inverse, inverted = stacked.inverse()
            assert inverted is None
            for i, rec in enumerate(single):
                assert np.array_equal(inverse[i], rec.phi_inv)
        for name in ("phi", "xbar1", "wbar"):
            assert all(np.array_equal(getattr(stacked, name)[i], getattr(rec, name))
                       for i, rec in enumerate(single))
    assert np.array_equal(stacked._updates_since_inversion,
                          [rec._updates_since_inversion[0] for rec in single])
    rejoined = DataRecord.stack([stacked.take(i) for i in (4, 0, 2)])
    assert np.array_equal(rejoined.phi_inv, stacked.take(np.array([4, 0, 2])).phi_inv)
    assert np.array_equal(rejoined.wbar, stacked.wbar[[4, 0, 2]])
    before = stacked._moments.copy()
    u = np.ones((k, m))
    u[[1, 3]] = 1e200
    with pytest.raises(NonFiniteData) as refused:
        stacked.append(u, np.ones((k, n)), np.ones((k, n)), np.ones((k, n)))
    assert refused.value.trials.tolist() == [False, True, False, True, False]
    assert np.array_equal(stacked._moments, before) and stacked.t == 30
