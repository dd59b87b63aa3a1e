import numpy as np
import pytest

from oracles import identity_record, simulate_columns, simulate_record
from pgac import (
    DataRecord,
    LinearQuadraticPlant,
    ModelEstimate,
    batch_least_squares,
    benchmark_plant,
    pe_check,
    rls_update,
    snr_reading,
)
from pgac.errors import NotPersistentlyExciting, OracleUnavailable


def stable_plant():
    A = np.array([[0.6, 0.1, 0.0], [0.0, 0.5, 0.1], [0.1, 0.0, 0.4]])
    return LinearQuadraticPlant(A, np.eye(3), np.eye(3), np.eye(3))


def test_underdetermined_record_is_not_pe():
    rec = DataRecord(3, 3)
    assert not pe_check(rec, 1e-12)
    with pytest.raises(ValueError):
        snr_reading(rec)
    rng = np.random.default_rng(1)
    for _ in range(5):  # five samples < m + n = 6 unknown columns
        rec.append(rng.standard_normal(3), rng.standard_normal(3),
                   rng.standard_normal(3), rng.standard_normal(3))
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
    twin = DataRecord.from_arrays(U0, X0, X1, W0)
    assert twin.t == rec.t
    assert np.allclose(twin.phi, rec.phi, atol=1e-12)
    assert np.allclose(twin.phi_inv, rec.phi_inv, atol=1e-10)
    assert np.allclose(twin.xbar1, rec.xbar1, atol=1e-12)
    assert twin.has_oracle


def test_aggregate_property_definitions():
    plant = benchmark_plant()
    U0, X0, X1, W0 = simulate_columns(plant, np.random.default_rng(4), 40)
    rec = DataRecord.from_arrays(U0, X0, X1, W0)
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
    rec = DataRecord.from_arrays(U0, X0, X1, W0)
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


def test_rls_survives_reinversion_boundary():
    plant = stable_plant()
    rng = np.random.default_rng(13)
    rec = DataRecord(3, 3, reinvert_every=16)
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
    plant = benchmark_plant()
    hits = 0
    for seed in range(100):
        rec = simulate_record(plant, np.random.default_rng(seed), 100)
        hits += bool(pe_check(rec, 1e-3))
    assert hits >= 95


def test_identity_record_properties():
    rec = identity_record(2, 3)
    assert np.allclose(rec.phi, np.eye(5), atol=1e-12)
    assert np.allclose(rec.phi_inv, np.eye(5), atol=1e-10)
    assert pe_check(rec, 1.0)
    assert not pe_check(rec, 1.0 + 1e-6)


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
