"""Capped-simplex projected-gradient baseline."""

import numpy as np
import pytest

from oracles import random_support_start
from udgp import (Geometry, SolverConfig, StopReason, armijo_step,
                  extract_positions, generate_instance, l1pgd_solve,
                  multi_start, project_capped_simplex, score_recovery)


class TestL1pgdSolve:
    def test_ground_truth_is_fixed_point(self):
        inst = generate_instance(Geometry.TURNPIKE, 4, 50, 0.0, 1)
        x0 = inst.true_indicator()
        res = l1pgd_solve(inst, SolverConfig(), x0)
        assert res.stop_reason is StopReason.CONVERGED
        assert res.f_final == 0.0
        np.testing.assert_array_equal(res.x_final, x0)

    def test_infeasible_start_gets_projected(self):
        inst = generate_instance(Geometry.TURNPIKE, 4, 50, 0.0, 2)
        res = l1pgd_solve(inst, SolverConfig(max_iters=0), np.zeros(50))
        np.testing.assert_allclose(res.x_final.sum(), 4, atol=1e-10)
        assert res.objective_trace[0] == pytest.approx(
            inst.op.objective(project_capped_simplex(np.zeros(50), 4), inst.y))

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_indicator_start_is_projected_unchanged(self, geom):
        """Every start is projected, and an s-point indicator, the start a
        repair hands the solver, comes back bit for bit."""
        inst = generate_instance(geom, 10, 1000, 0.0, 3)
        x0 = inst.true_indicator()
        res = l1pgd_solve(inst, SolverConfig(max_iters=0), x0)
        assert res.x_final.tobytes() == x0.tobytes()

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, entry):
        inst = generate_instance(Geometry.TURNPIKE, 5, 60, 0.0, 1)
        x0 = random_support_start(inst.n, inst.s, 0, 0)
        x0[0] = entry
        with pytest.raises(ValueError):
            l1pgd_solve(inst, SolverConfig(), x0)

    def test_iterates_stay_on_capped_simplex(self):
        inst = generate_instance(Geometry.BELTWAY, 4, 40, 0.0, 5)
        cfg = SolverConfig()
        project = lambda z: project_capped_simplex(z, inst.s)
        x = random_support_start(inst.n, inst.s, 1, 0)
        f_x = inst.op.objective(x, inst.y)
        for _ in range(60):
            grad = inst.op.gradient(x, inst.y)
            x, f_x, *_ = armijo_step(x, grad, f_x, inst, cfg, project)
            assert abs(x.sum() - inst.s) <= 1e-8
            assert x.min() >= 0 and x.max() <= 1

    def test_trace_invariants(self):
        inst = generate_instance(Geometry.TURNPIKE, 5, 60, 0.0, 8)
        cfg = SolverConfig(max_iters=500)
        res = l1pgd_solve(inst, cfg, random_support_start(inst.n, inst.s, 2, 0))
        f = res.objective_trace
        assert np.all(np.diff(f) <= 0)
        drops = f[:-1] - f[1:]
        rhs = 0.5 * cfg.delta * res.step_norm_trace**2
        assert np.all(drops >= rhs - 1e-12 * np.maximum(1.0, np.abs(f[:-1])))
        assert abs(res.x_final.sum() - inst.s) <= 1e-8

    def test_recovers_noise_free_thousand_bin_instance(self):
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 42)
        res = multi_start(inst, SolverConfig(seed=3), method="l1pgd")
        rep = score_recovery(
            extract_positions(res.x_final, inst.n, inst.geometry), inst)
        assert rep.co_p == 10
