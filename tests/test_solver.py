"""Hard-thresholding solver: line search, stopping, diagnostics, restarts."""

import numpy as np
import pytest

from oracles import check_l_stationarity_loop, random_support_start
from udgp import (Geometry, NumericError, SolverConfig, StopReason,
                  armijo_step, check_l_stationarity, extract_positions,
                  generate_instance, iht_solve, is_exact_binary_fit,
                  multi_start, project_sparse_box, score_recovery,
                  stationarity_residual)
from udgp.instances import Instance


def small_instance(geom=Geometry.TURNPIKE, s=3, n=20, seed=0, xi=0.0):
    return generate_instance(geom, s, n, xi, seed)


def sparse_box(inst):
    return lambda z: project_sparse_box(z, inst.s)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert 0 < cfg.gamma < 1 and 0 < cfg.alpha < 1

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=0.0), dict(gamma=1.0), dict(alpha=1.0), dict(delta=0.0),
        dict(epsilon=-1e-9), dict(max_iters=-1), dict(restarts=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestArmijoStep:
    def test_fixed_point_accepts_immediately(self):
        inst = small_instance(n=50)
        x = inst.true_indicator()
        grad = inst.op.gradient(x, inst.y)
        x_next, f_next, tau, t = armijo_step(x, grad, 0.0, inst, SolverConfig(),
                                            sparse_box(inst))
        assert t == 0 and tau == SolverConfig().gamma
        np.testing.assert_array_equal(x_next, x)
        assert f_next == 0.0

    def test_matches_exhaustive_scan(self):
        """The returned t equals the smallest t for which the decrease
        inequality holds, found by scanning t = 0..40 directly."""
        inst = small_instance(n=20, s=3, seed=0)
        cfg = SolverConfig()
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = project_sparse_box(rng.uniform(-0.5, 1.5, inst.n), inst.s)
            f_x = inst.op.objective(x, inst.y)
            grad = inst.op.gradient(x, inst.y)
            x_next, f_next, tau, t = armijo_step(x, grad, f_x, inst, cfg,
                                                 sparse_box(inst))
            scan_t = None
            for tt in range(41):
                cand = project_sparse_box(x - cfg.gamma * cfg.alpha**tt * grad,
                                          inst.s)
                drop = f_x - inst.op.objective(cand, inst.y)
                if drop >= 0.5 * cfg.delta * float((x - cand) @ (x - cand)):
                    scan_t = tt
                    break
            assert t == scan_t
            assert tau == cfg.gamma * cfg.alpha**t

    def test_tiny_base_step_accepted_at_zero(self):
        inst = small_instance(n=20, s=3, seed=1)
        cfg = SolverConfig(gamma=1e-6)
        x = random_support_start(inst.n, inst.s, 5, 0)
        f_x = inst.op.objective(x, inst.y)
        grad = inst.op.gradient(x, inst.y)
        _, _, tau, t = armijo_step(x, grad, f_x, inst, cfg, sparse_box(inst))
        assert t == 0 and tau == 1e-6


class TestIhtSolve:
    def test_ground_truth_is_fixed_point(self):
        inst = small_instance(n=50, s=3, seed=4)
        x0 = inst.true_indicator()
        res = iht_solve(inst, SolverConfig(), x0)
        assert res.stop_reason is StopReason.CONVERGED
        assert res.iterations == 1
        np.testing.assert_array_equal(res.x_final, x0)
        assert res.f_final == 0.0

    def test_zero_iteration_budget(self):
        inst = small_instance()
        x0 = random_support_start(inst.n, inst.s, 0, 0)
        res = iht_solve(inst, SolverConfig(max_iters=0), x0)
        assert res.stop_reason is StopReason.MAX_ITERS
        np.testing.assert_array_equal(res.x_final, x0)
        assert res.iterations == 0 and np.isnan(res.final_step_norm)

    def test_infeasible_start_rejected(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            iht_solve(inst, SolverConfig(), np.full(inst.n, 0.5))  # nnz > s
        bad = np.zeros(inst.n)
        bad[0] = 1.5
        with pytest.raises(ValueError):
            iht_solve(inst, SolverConfig(), bad)

    def test_non_finite_objective_raises_with_iterate(self):
        inst = small_instance()
        bad = Instance(geometry=inst.geometry, n=inst.n, s=inst.s,
                       y=np.full(inst.n - 1, np.inf),
                       true_positions=inst.true_positions,
                       noise_sigma=0.0, seed=0)
        x0 = random_support_start(inst.n, inst.s, 0, 0)
        with pytest.raises(NumericError) as err:
            iht_solve(bad, SolverConfig(), x0)
        assert err.value.iterate.shape == (inst.n,)

    def test_backtracking_can_exhaust(self):
        inst = small_instance(n=30, s=4, seed=2)
        x0 = 0.5 * random_support_start(inst.n, inst.s, 3, 0)
        res = iht_solve(inst, SolverConfig(delta=1e12, max_backtracks=3), x0)
        assert res.stop_reason is StopReason.BACKTRACK_EXHAUSTED

    def test_trace_invariants(self):
        """Monotone objective, exact step-size law, decrease inequality,
        feasibility, and the summed-squares step bound."""
        for geom in Geometry:
            inst = generate_instance(geom, 5, 60, 0.0, 7)
            cfg = SolverConfig(max_iters=800)
            x0 = random_support_start(inst.n, inst.s, 11, 0)
            res = iht_solve(inst, cfg, x0)
            f = res.objective_trace
            assert np.all(np.diff(f) <= 0)
            np.testing.assert_array_equal(
                res.step_size_trace,
                cfg.gamma * cfg.alpha ** res.backtrack_trace.astype(float))
            assert np.all(res.step_size_trace > 0)
            assert np.all(res.step_size_trace <= cfg.gamma)
            drops = f[:-1] - f[1:]
            rhs = 0.5 * cfg.delta * res.step_norm_trace**2
            assert np.all(drops >= rhs - 1e-12 * np.maximum(1.0, np.abs(f[:-1])))
            assert float(res.step_norm_trace @ res.step_norm_trace) \
                <= (2.0 / cfg.delta) * f[0] + 1e-9
            x = res.x_final
            assert x.min() >= 0 and x.max() <= 1
            assert np.count_nonzero(x) <= inst.s

    def test_iterates_stay_feasible(self):
        inst = small_instance(n=40, s=4, seed=9)
        cfg = SolverConfig()
        x = random_support_start(inst.n, inst.s, 2, 0)
        f_x = inst.op.objective(x, inst.y)
        for _ in range(50):
            grad = inst.op.gradient(x, inst.y)
            x, f_x, _, _ = armijo_step(x, grad, f_x, inst, cfg, sparse_box(inst))
            assert x.min() >= 0 and x.max() <= 1
            assert np.count_nonzero(x) <= inst.s


class TestStationarity:
    def test_zero_residual_at_ground_truth(self):
        inst = small_instance(n=50, s=4, seed=3)
        x = inst.true_indicator()
        for tau in (0.01, 0.3, 0.99):
            assert stationarity_residual(x, tau, inst) == 0.0

    def test_all_zeros_is_a_spurious_fixed_point(self):
        # gradient vanishes at the origin, so the residual is zero there
        # even though the histogram misfit is not
        inst = small_instance(n=30, s=3, seed=5)
        assert inst.op.objective(np.zeros(30), inst.y) > 0
        assert stationarity_residual(np.zeros(30), 0.5, inst) == 0.0

    def test_positive_at_non_stationary_point_then_small_after_solve(self):
        inst = small_instance(n=40, s=4, seed=6)
        x0 = random_support_start(inst.n, inst.s, 8, 0)
        assert stationarity_residual(x0, 0.9, inst) > 0
        res = iht_solve(inst, SolverConfig(), x0)
        if res.stop_reason is StopReason.CONVERGED:
            assert res.stationarity_residual <= 1e-6

    def test_tau_must_be_positive(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            stationarity_residual(np.zeros(inst.n), 0.0, inst)

    def test_sign_conditions_pass_at_truth_and_after_solve(self):
        inst = small_instance(n=50, s=4, seed=10)
        assert check_l_stationarity(inst.true_indicator(), inst).passed
        res = iht_solve(inst, SolverConfig(),
                        random_support_start(inst.n, inst.s, 4, 0))
        if res.stop_reason is StopReason.CONVERGED:
            assert check_l_stationarity(res.x_final, inst, tol=1e-5).passed

    def test_reports_interior_gradient_violation(self):
        inst = small_instance(n=12, s=2, seed=1)
        x = np.zeros(12)
        x[3], x[7] = 0.5, 1.0
        y = inst.op.forward(x) + 1.0  # force a nonzero residual everywhere
        perturbed = Instance(geometry=inst.geometry, n=12, s=2, y=y,
                             true_positions=inst.true_positions,
                             noise_sigma=0.0, seed=0)
        report = check_l_stationarity(x, perturbed)
        kinds = {v[0] for v in report.violations}
        assert not report.passed
        assert "interior_grad_nonzero" in kinds

    def test_sign_check_matches_loop_reference(self):
        """Random iterates mixing interior, upper-bound and zero
        coordinates, with nnz < s and nnz = s, against perturbed data so
        every kind of violation occurs."""
        rng = np.random.default_rng(0)
        for geom in Geometry:
            inst = generate_instance(geom, 6, 40, 0.0, 3)
            kinds = set()
            for nnz in (2, 4, 6) * 10:
                x = np.zeros(inst.n)
                support = rng.choice(inst.n, size=nnz, replace=False)
                x[support] = rng.choice([0.3, 0.7, 1.0], size=nnz)
                y = inst.y + rng.integers(-1, 2, size=inst.y.size)
                data = Instance(geometry=geom, n=inst.n, s=inst.s, y=y,
                                true_positions=inst.true_positions,
                                noise_sigma=0.0, seed=0)
                got = check_l_stationarity(x, data, tol=1e-3)
                ref = check_l_stationarity_loop(x, data, tol=1e-3)
                assert got.violations == ref.violations
                assert got.passed == ref.passed
                kinds.update(v[0] for v in ref.violations)
            assert kinds == {"interior_grad_nonzero",
                             "upper_bound_grad_positive", "zero_grad_negative"}


class TestMultiStart:
    def test_deterministic(self):
        inst = generate_instance(Geometry.BELTWAY, 5, 80, 0.0, 2)
        cfg = SolverConfig(restarts=3, seed=5)
        a = multi_start(inst, cfg)
        b = multi_start(inst, cfg)
        np.testing.assert_array_equal(a.x_final, b.x_final)
        assert a.start_index == b.start_index

    def test_seed_changes_are_still_feasible_and_monotone(self):
        inst = generate_instance(Geometry.TURNPIKE, 4, 50, 0.0, 3)
        for seed in (1, 2):
            res = multi_start(inst, SolverConfig(restarts=2, seed=seed))
            assert np.all(np.diff(res.objective_trace) <= 0)
            x = res.x_final
            assert x.min() >= 0 and x.max() <= 1
            assert np.count_nonzero(x) <= inst.s

    def test_recovers_noise_free_thousand_bin_instance(self):
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 42)
        res = multi_start(inst, SolverConfig(seed=7))
        assert res.f_final <= 1e-10
        assert is_exact_binary_fit(inst, res.x_final)
        rep = score_recovery(
            extract_positions(res.x_final, inst.n, inst.geometry), inst)
        assert rep.co_p == 10

    def test_unknown_method(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            multi_start(inst, SolverConfig(), method="newton")

    def test_all_starts_failing_raises(self):
        inst = small_instance()
        bad = Instance(geometry=inst.geometry, n=inst.n, s=inst.s,
                       y=np.full(inst.n - 1, np.nan),
                       true_positions=inst.true_positions,
                       noise_sigma=0.0, seed=0)
        with pytest.raises(NumericError):
            multi_start(bad, SolverConfig(restarts=2))
