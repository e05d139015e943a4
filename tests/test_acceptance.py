"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The recovery criteria run the full multi-start solver on freshly generated
instances at the benchmark sizes; the solves they execute are logged and
reused by the descent- and stationarity-invariant criteria, so those are
checked on every run the suite produced rather than on a separate batch.
Criterion 3 covers the (20, 2000) and (30, 4000) scales.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from udgp import (Geometry, SolverConfig, StopReason,
                  capped_simplex_with_multiplier, check_l_stationarity,
                  extract_positions, generate_instance, multi_start,
                  project_sparse_box, score_recovery, solver)
from udgp.model import LagOperator

NOISE_GRID = [0.0, 1e-5, 3e-5, 5e-5, 7e-5]

# every (instance, result) produced by the recovery/speed criteria,
# re-checked wholesale by criteria 8 and 9
RUN_LOG = []


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _run_cell(geometry, s, n, xi, trials, method="iht", restarts=49):
    cops, times = [], []
    for trial in range(trials):
        instance = generate_instance(geometry, s, n, xi, 90000 + trial)
        config = SolverConfig(restarts=restarts, seed=17 * trial + 1)
        t0 = time.perf_counter()
        result = multi_start(instance, config, method=method)
        times.append(time.perf_counter() - t0)
        report = score_recovery(
            extract_positions(result.x_final, n, geometry), instance)
        cops.append(report.co_p)
        RUN_LOG.append((instance, result))
    return float(np.mean(cops)), times


def _recovery_criterion(number, geometry, label):
    details = []
    ok = True
    for xi in NOISE_GRID:
        mean_cop, times = _run_cell(geometry, 10, 1000, xi, trials=10)
        cell_time = sum(times)
        ok = ok and mean_cop >= 9.5 and cell_time <= 30.0
        details.append(f"xi={xi:g}: mean_cop={mean_cop:.2f} cell={cell_time:.1f}s")
    _report(number, ok, f"{label} (10,1000) 10 trials/cell; " + "; ".join(details))


def test_criterion_01_recovery_turnpike():
    _recovery_criterion(1, Geometry.TURNPIKE, "turnpike")


def test_criterion_02_recovery_beltway():
    _recovery_criterion(2, Geometry.BELTWAY, "beltway")


def test_criterion_03_scaled_grid():
    details = []
    ok = True
    for geometry in Geometry:
        mean_cop, times = _run_cell(geometry, 20, 2000, 0.0, trials=10)
        cell_time = sum(times)
        # mean = 20 with the same proportional slack as the (10,1000) cells
        ok = ok and mean_cop >= 19.0 and cell_time <= 180.0
        details.append(f"{geometry.value}: mean_cop={mean_cop:.2f} "
                       f"cell={cell_time:.1f}s")
    for geometry in Geometry:
        mean_cop, times = _run_cell(geometry, 30, 4000, 0.0, trials=5)
        details.append(f"{geometry.value} (30,4000): "
                       f"mean_cop={mean_cop:.2f} cell={sum(times):.1f}s")
        ok = ok and mean_cop >= 28.5
    _report(3, ok, "(20,2000) xi=0; " + "; ".join(details))


def test_criterion_04_speed_ordering():
    cells = [
        (Geometry.TURNPIKE, 10, 1000, 0.0, 5),
        (Geometry.TURNPIKE, 10, 1000, 7e-5, 5),
        (Geometry.BELTWAY, 10, 1000, 0.0, 5),
        (Geometry.BELTWAY, 10, 1000, 7e-5, 5),
        (Geometry.TURNPIKE, 20, 2000, 0.0, 3),
    ]
    ok = True
    details = []
    for geometry, s, n, xi, trials in cells:
        per_method, per_steps = {}, {}
        for method in ("iht", "l1pgd"):
            # matched instances and solver seeds across methods; both grow
            # bit-identical starts, so the times compare the descents that
            # finish each start (and any repair re-solve), not start rules
            logged = len(RUN_LOG)
            _, times = _run_cell(geometry, s, n, xi, trials, method=method)
            per_method[method] = float(np.median(times))
            # Armijo steps over every start, to explain the times
            per_steps[method] = sum(result.total_iterations
                                    for _, result in RUN_LOG[logged:])
        ratio = per_method["l1pgd"] / per_method["iht"]
        ok = ok and per_method["iht"] < per_method["l1pgd"] and ratio >= 1.3
        details.append(f"{geometry.value} s={s} xi={xi:g}: "
                       f"iht={per_method['iht']:.2f}s "
                       f"l1pgd={per_method['l1pgd']:.2f}s ({ratio:.1f}x; "
                       f"armijo steps iht={per_steps['iht']} "
                       f"l1pgd={per_steps['l1pgd']})")
    _report(4, ok, "median solve times; " + "; ".join(details))


def test_criterion_05_projection_matches_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 13):
        z_batch = rng.uniform(-3.0, 3.0, size=(1000, n))
        sq = (z_batch**2).sum(axis=1)
        clipped = np.clip(z_batch, 0.0, 1.0)
        gain = z_batch**2 - (z_batch - clipped) ** 2
        for s in range(1, n + 1):
            combos = np.array(list(combinations(range(n), s)))
            best_gain = gain[:, combos].sum(axis=2).max(axis=1)
            brute_cost = sq - best_gain
            for i in range(1000):
                x = project_sparse_box(z_batch[i], s)
                cost = float(((x - z_batch[i]) ** 2).sum())
                worst = max(worst, cost - brute_cost[i])
    ok = worst <= 1e-12
    _report(5, ok, f"sparse-box projection vs exhaustive supports, "
                   f"n<=12, 1000 inputs each: worst excess {worst:.2e}")


def test_criterion_06_capped_simplex_kkt():
    rng = np.random.default_rng(77)
    worst_sum, worst_sign = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        s = int(rng.integers(1, n + 1))
        z = rng.uniform(-3.0, 3.0, n)
        x, lam = capped_simplex_with_multiplier(z, s)
        worst_sum = max(worst_sum, abs(float(x.sum()) - s))
        for j in range(n):
            if x[j] >= 1.0:
                worst_sign = max(worst_sign, 1.0 - (z[j] + lam))
            elif x[j] <= 0.0:
                worst_sign = max(worst_sign, z[j] + lam)
            else:
                worst_sign = max(worst_sign, abs(x[j] - (z[j] + lam)))
    ok = worst_sum <= 1e-10 and worst_sign <= 1e-9
    _report(6, ok, f"capped-simplex: worst |sum-s|={worst_sum:.2e}, "
                   f"worst KKT violation={worst_sign:.2e}")


def test_criterion_07_gradient_finite_differences():
    rng = np.random.default_rng(300)
    h, worst = 1e-6, 0.0
    for trial in range(100):
        geometry = Geometry.TURNPIKE if trial % 2 else Geometry.BELTWAY
        op = LagOperator(20, geometry)
        x = rng.random(20)
        y = rng.random(19) * 3.0
        g = op.gradient(x, y)
        for j in range(20):
            e = np.zeros(20)
            e[j] = h
            fd = (op.objective(x + e, y) - op.objective(x - e, y)) / (2 * h)
            worst = max(worst, abs(g[j] - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-5
    _report(7, ok, f"gradient vs central differences, 100 draws at n=20: "
                   f"worst relative error {worst:.2e}")


def test_criterion_08_descent_invariants_on_all_logged_runs():
    assert RUN_LOG, "recovery criteria must run first"
    checked, ok = 0, True
    for _, result in RUN_LOG:
        f = result.objective_trace
        steps = result.step_norm_trace
        if len(steps) == 0:
            continue
        drops = f[:-1] - f[1:]
        slack = 1e-12 * np.maximum(1.0, np.abs(f[:-1]))
        ok = ok and bool(np.all(drops >= 0.5 * solver._DELTA * steps**2 - slack))
        ok = ok and float(steps @ steps) <= (2.0 / solver._DELTA) * f[0] + 1e-9
        ok = ok and bool(np.all(np.diff(f) <= 0))
        checked += 1
    _report(8, ok, f"sufficient decrease and step-sum bound hold in all "
                   f"{checked} logged runs")


def test_criterion_09_stationarity_of_converged_runs():
    assert RUN_LOG, "recovery criteria must run first"
    checked, ok = 0, True
    worst = 0.0
    for instance, result in RUN_LOG:
        if result.stop_reason is not StopReason.CONVERGED:
            continue
        worst = max(worst, result.stationarity_residual)
        ok = ok and result.stationarity_residual <= 10.0 * solver._EPSILON
        ok = ok and check_l_stationarity(result.x_final, instance,
                                         tol=1e-5).passed
        checked += 1
    _report(9, ok, f"{checked} converged runs: residual <= 10*epsilon "
                   f"(worst {worst:.2e}) and sign conditions at 1e-5")


def test_criterion_10_round_trip_identity():
    rng = np.random.default_rng(1234)
    bad = 0
    for geometry in Geometry:
        for _ in range(100):
            s = int(rng.integers(4, 13))
            n = int(rng.integers(2 * s, 50 * s))
            instance = generate_instance(geometry, s, n, 0.0, int(rng.integers(1 << 30)))
            if not np.array_equal(instance.op.forward(instance.true_indicator()),
                                  instance.y):
                bad += 1
    ok = bad == 0
    _report(10, ok, f"noise-free forward(true indicator) == histogram, "
                    f"100 instances per geometry: {bad} mismatches")
