"""Built-in sanity checks behind the ``selftest`` CLI subcommand.

These re-verify the core numerical identities on fresh random instances at
runtime - a cheap smoke test for a new environment (BLAS quirks, broken
installs) that needs no test harness.  Each check returns (name, passed,
detail).
"""

import numpy as np

from . import direct, indirect
from .controller import ConstantStep, ControllerSpec
from .dataflow import DataRecord, batch_least_squares
from .harness import ExperimentConfig, benchmark_plant, run_trial, trajectory_csv_text
from .linalg import (
    nullspace_projector,
    solve_dlyap_closed,
    solve_riccati_hewer,
    sqrt_spd,
)
from .plant import exact_gradient, lqr_cost, optimal_gain, strong_stability_certificate


def _random_record(rng, plant, t=40):
    """Simulate the benchmark open loop with white inputs into a record."""
    rec = DataRecord(plant.m, plant.n)
    x = np.zeros(plant.n)
    for _ in range(t):
        u = rng.standard_normal(plant.m)
        w = 0.5 * rng.standard_normal(plant.n)
        x_next = plant.A @ x + plant.B @ u + w
        rec.append(u, x, x_next, w)
        x = x_next
    return rec


def _check_lyapunov(rng):
    F = 0.9 * rng.standard_normal((4, 4))
    F /= max(1.0, np.max(np.abs(np.linalg.eigvals(F))) / 0.8)
    G = rng.standard_normal((4, 4))
    W = G @ G.T + np.eye(4)
    X = solve_dlyap_closed(F, W)
    resid = np.linalg.norm(X - (W + F @ X @ F.T))
    return resid < 1e-9 * max(1.0, np.linalg.norm(X)), f"residual {resid:.2e}"


def _check_riccati(_rng):
    plant = benchmark_plant()
    sol = solve_riccati_hewer(plant.A, plant.B, plant.Q, plant.R)
    grad_norm = np.linalg.norm(exact_gradient(plant, sol.gain))
    ok = sol.iterations <= 50 and sol.residual < 1e-8 and grad_norm < 1e-6
    return ok, (
        f"iters {sol.iterations}, residual {sol.residual:.2e}, "
        f"stationarity {grad_norm:.2e}"
    )


def _check_gradient_fd(rng):
    plant = benchmark_plant()
    kstar, _ = optimal_gain(plant)
    K = kstar + 0.05 * rng.standard_normal(kstar.shape)
    grad = exact_gradient(plant, K)
    h = 1e-6
    fd = np.zeros_like(K)
    for i in range(K.shape[0]):
        for j in range(K.shape[1]):
            dK = np.zeros_like(K)
            dK[i, j] = h
            fd[i, j] = (lqr_cost(plant, K + dK).cost - lqr_cost(plant, K - dK).cost) / (
                2 * h
            )
    rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
    return rel < 1e-4, f"relative error {rel:.2e}"


def _check_svd_helpers(rng):
    A = rng.standard_normal((3, 8))
    pi = nullspace_projector(A)
    ok = np.linalg.norm(A @ pi) < 1e-10 and np.linalg.norm(pi @ pi - pi) < 1e-10
    S = A @ A.T + np.eye(3)
    H = sqrt_spd(S)
    ok = ok and np.linalg.norm(H @ H - S) < 1e-10 * np.linalg.norm(S)
    return ok, "projector / sqrt identities"


def _check_direct_equivalence(rng):
    plant = benchmark_plant()
    rec = _random_record(rng, plant)
    est = batch_least_squares(rec)
    kstar, _ = optimal_gain(plant)
    K = kstar + 0.02 * rng.standard_normal(kstar.shape)
    V = direct.parameterize(rec, K)
    eta = 1e-4
    _, k_direct = direct.projected_step(rec, V, plant.Q, plant.R, eta)
    grad = indirect.regularized_gradient(est, plant.Q, plant.R, K)
    k_bridge = K - eta * direct.scaling_matrix(rec) @ grad
    err = np.linalg.norm(k_direct - k_bridge) / max(1.0, np.linalg.norm(K))
    nat_a = direct.natural_direct_step(rec, K, plant.Q, plant.R, 0.1)
    nat_b = indirect.natural_step(est, plant.Q, plant.R, K, 0.1)
    ok = err < 1e-8 and np.array_equal(nat_a, nat_b)
    return ok, f"projected-step defect {err:.2e}"


def _check_certificate(_rng):
    plant = benchmark_plant()
    kstar, _ = optimal_gain(plant)
    cert = strong_stability_certificate(plant, kstar)
    return cert.kappa >= 1.0 and 0.0 < cert.alpha <= 1.0, (
        f"kappa {cert.kappa:.3f}, alpha {cert.alpha:.3e}"
    )


def _check_determinism(_rng):
    spec = ControllerSpec("indirect_natural", ConstantStep(0.2))
    config = ExperimentConfig(controller=spec, t0=15, horizon=25, seed=7)
    a = trajectory_csv_text(run_trial(config, 0))
    b = trajectory_csv_text(run_trial(config, 0))
    return a == b, "trial replay is byte-identical"


_CHECKS = (
    ("lyapunov solve", _check_lyapunov),
    ("riccati policy iteration", _check_riccati),
    ("gradient finite differences", _check_gradient_fd),
    ("svd helpers", _check_svd_helpers),
    ("direct/indirect equivalence", _check_direct_equivalence),
    ("stability certificate", _check_certificate),
    ("trial determinism", _check_determinism),
)


def run_selftest(seed=2024):
    results = []
    rng = np.random.default_rng(seed)
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
