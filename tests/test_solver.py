"""Hard-thresholding solver: line search, stopping, diagnostics, restarts."""

import math
import sys
import threading
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from oracles import (armijo_step_reference, capped_simplex_bisection,
                     check_l_stationarity, descend_reference,
                     fixed_point_residual, project_sparse_box_two_scan,
                     random_support_start, residual_reference)
from udgp import (Geometry, LagOperator, NumericError, SolverConfig,
                  StopReason,
                  armijo_step, binary_misfit, extract_positions,
                  generate_instance, iht_solve, l1pgd_solve, misfit_budget,
                  multi_start, project_capped_simplex, project_sparse_box,
                  score_recovery)
from udgp import projections, solver
from udgp.cli import BENCH_NOISE
from udgp.instances import Instance
from udgp.solver import _complete, _descend, _entries, _repair


def small_instance(geom=Geometry.TURNPIKE, s=3, n=20, seed=0, xi=0.0):
    return generate_instance(geom, s, n, xi, seed)


def sparse_box(inst):
    return lambda z: project_sparse_box(z, inst.s)


def simplex_bisection(z, s):
    """The capped-simplex projection by `capped_simplex_bisection`."""
    return capped_simplex_bisection(z, s)[0]


class TestConfig:
    def test_defaults_valid(self):
        assert [f.name for f in fields(SolverConfig)] == [
            "max_iters", "restarts", "seed"]
        cfg = SolverConfig()
        assert (cfg.max_iters, cfg.restarts, cfg.seed) == (5000, 49, 0)
        assert 0 < solver._GAMMA < 1 and 0 < solver._ALPHA < 1
        assert solver._DELTA > 0 and solver._EPSILON >= 0
        assert solver._MAX_BACKTRACKS >= 1

    @pytest.mark.parametrize("kwargs", [dict(max_iters=-1), dict(restarts=-1)])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", ["gamma", "alpha", "delta", "epsilon",
                                      "max_backtracks"])
    def test_step_rule_is_not_a_field(self, name):
        """The step rule is fixed; like the removed CLI step flags, its
        constants cannot be set per solve."""
        with pytest.raises(TypeError):
            SolverConfig(**{name: 0.5})


class TestArmijoStep:
    def test_fixed_point_accepts_immediately(self):
        inst = small_instance(n=50)
        x = inst.true_indicator()
        grad = inst.op.gradient(x, inst.y)
        x_next, f_next, tau, t, *_ = armijo_step(x, grad, 0.0, inst,
                                                 sparse_box(inst), solver._GAMMA)
        assert t == 0 and tau == solver._GAMMA
        np.testing.assert_array_equal(x_next, x)
        assert f_next == 0.0

    def test_matches_exhaustive_scan(self):
        """The returned t equals the smallest t for which the decrease
        inequality holds, found by scanning t = 0..40 directly."""
        inst = small_instance(n=20, s=3, seed=0)
        gamma, alpha, delta = solver._GAMMA, solver._ALPHA, solver._DELTA
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = project_sparse_box(rng.uniform(-0.5, 1.5, inst.n), inst.s)
            f_x = inst.op.objective(x, inst.y)
            grad = inst.op.gradient(x, inst.y)
            x_next, f_next, tau, t, *_ = armijo_step(x, grad, f_x, inst,
                                                     sparse_box(inst), gamma)
            scan_t = None
            for tt in range(41):
                cand = project_sparse_box(x - gamma * alpha**tt * grad, inst.s)
                drop = f_x - inst.op.objective(cand, inst.y)
                if drop >= 0.5 * delta * float((x - cand) @ (x - cand)):
                    scan_t = tt
                    break
            assert t == scan_t
            assert tau == gamma * alpha**t

    def test_tiny_base_step_accepted_at_zero(self):
        inst = small_instance(n=20, s=3, seed=1)
        x = random_support_start(inst.n, inst.s, 5, 0)
        f_x = inst.op.objective(x, inst.y)
        grad = inst.op.gradient(x, inst.y)
        _, _, tau, t, *_ = armijo_step(x, grad, f_x, inst, sparse_box(inst), 1e-6)
        assert t == 0 and tau == 1e-6


    def test_accepted_step_carries_its_evaluation(self, monkeypatch):
        """The returned residual, support, objective and squared step length
        are those of the accepted iterate, bit for bit."""
        monkeypatch.setattr(solver, "_DELTA", 1.0)
        rng = np.random.default_rng(3)
        for geom in Geometry:
            inst = small_instance(geom, s=5, n=60, seed=2)
            for _ in range(10):
                x = project_sparse_box(rng.uniform(-0.5, 1.5, inst.n), inst.s)
                f_x = inst.op.objective(x, inst.y)
                grad = inst.op.gradient(x, inst.y)
                step = armijo_step(x, grad, f_x, inst, sparse_box(inst),
                                   solver._GAMMA)
                f, r, support = inst.op.evaluate(step.x, inst.y)
                assert step.f == f == inst.op.objective(step.x, inst.y)
                np.testing.assert_array_equal(step.r, r)
                np.testing.assert_array_equal(step.support, support)
                assert step.step_sq == float((x - step.x) @ (x - step.x))


def _spy_tries(monkeypatch):
    """Record each `solver.armijo_step` call as (eligible, shortcut tries,
    general tries).  It is eligible when it is handed a support that
    neither is empty nor holds every bin, and its projection is the
    sparse box at that support's size or the capped simplex.  A shortcut
    try evaluates its candidate through `LagOperator._evaluate` alone, a
    general one through `LagOperator.evaluate`, which calls `_evaluate`
    in turn."""
    steps = []
    evals = [0, 0]  # calls of LagOperator._evaluate, of LagOperator.evaluate
    inner, outer = LagOperator._evaluate, LagOperator.evaluate
    step = solver.armijo_step

    def counted_inner(self, *args):
        evals[0] += 1
        return inner(self, *args)

    def counted_outer(self, *args):
        evals[1] += 1
        return outer(self, *args)

    def recorded(x, grad, f_x, instance, project, tau0, support=None):
        before = list(evals)
        try:
            return step(x, grad, f_x, instance, project, tau0, support)
        finally:
            general = evals[1] - before[1]
            func = getattr(project, "func", None)
            eligible = (support is not None and 0 < support.size < x.size
                        and (func is project_capped_simplex
                             or func is project_sparse_box
                             and support.size == project.keywords["s"]))
            steps.append((eligible, evals[0] - before[0] - general, general))

    monkeypatch.setattr(LagOperator, "_evaluate", counted_inner)
    monkeypatch.setattr(LagOperator, "evaluate", counted_outer)
    monkeypatch.setattr(solver, "armijo_step", recorded)
    return steps


def _assert_same_step(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.f, got.tau, got.t, got.step_sq) == (
        want.f, want.tau, want.t, want.step_sq)
    assert got.r.tobytes() == want.r.tobytes()
    np.testing.assert_array_equal(got.support, want.support)


class TestSupportKeptStep:
    """On the sparse box at the size of x's support, `armijo_step` forms a
    try that provably keeps that support on it alone; its Step is the one
    the general path returns, bit for bit, and every try the shortcut
    cannot prove falls back to the general path."""

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_matches_the_general_path_on_random_iterates(self, geom,
                                                          monkeypatch):
        steps = _spy_tries(monkeypatch)
        rng = np.random.default_rng(7)
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        op = inst.op
        for sp in (inst.s, 6):  # the final descents' size, a growth stage's
            project = partial(project_sparse_box, s=sp)
            for _ in range(40):
                x = np.zeros(inst.n)
                bins = rng.choice(inst.n, sp, replace=False)
                x[bins] = np.where(rng.random(sp) < 0.5, 1.0,
                                   rng.uniform(0.05, 1.0, sp))
                f_x, r, support = op.evaluate(x, inst.y)
                grad = op.gradient(x, inst.y, r, support)
                tau0 = 10.0 ** rng.uniform(-2.0, 2.0)
                got = solver.armijo_step(x, grad, f_x, inst, project, tau0,
                                         support)
                want = solver.armijo_step(x, grad, f_x, inst, project, tau0)
                _assert_same_step(got, want)
        with_support = steps[::2]
        assert all(eligible for eligible, *_ in with_support)
        # both paths ran; without the support, only the general one
        assert sum(short for _, short, _ in with_support) > 0
        assert sum(general for *_, general in with_support) > 0
        assert all(short == 0 for _, short, _ in steps[1::2])

    @pytest.mark.parametrize("grad_at", [
        pytest.param({2: -0.5}, id="entrant ties the least support gain"),
        pytest.param({5: -2.0, 10: -2.0, 15: -2.0, 7: -1.5},
                     id="entrant above 1"),
        pytest.param({5: 0.5}, id="support entry at 0"),
        pytest.param({5: 0.7, 3: -0.1}, id="support entry below 0")])
    def test_declined_tries_fall_back(self, grad_at, monkeypatch):
        """At tau = 1 from x = (0.5, 1, 1) on bins 5, 10 and 15: an entrant
        at 0.5 on bin 2 ties bin 5's gain and wins on its lower index; an
        entrant at 1.5 cannot displace S (gains 4 and 5 beat its 2) but
        is above 1; or bin 5 is driven to 0 or below it."""
        steps = _spy_tries(monkeypatch)
        inst = small_instance(s=3, n=20)
        x, grad = np.zeros(20), np.zeros(20)
        x[[5, 10, 15]] = [0.5, 1.0, 1.0]
        grad[list(grad_at)] = list(grad_at.values())
        support = np.flatnonzero(x)
        project = partial(project_sparse_box, s=3)
        f_x = 1e6  # the decrease rule accepts t = 0
        got = solver.armijo_step(x, grad, f_x, inst, project, 1.0, support)
        assert steps[0] == (True, 0, 1)
        _assert_same_step(got, solver.armijo_step(x, grad, f_x, inst, project,
                                                  1.0))
        x_ref, f_ref, tau, t = armijo_step_reference(
            x, grad, f_x, inst, partial(project_sparse_box_two_scan, s=3), 1.0)
        assert got.x.tobytes() == x_ref.tobytes()
        assert (got.f, got.tau, got.t) == (f_ref, tau, t)
        assert t == 0
        if 2 in grad_at:
            np.testing.assert_array_equal(got.support, [2, 10, 15])

    def test_backtracked_step_mixes_both_paths(self, monkeypatch):
        """A step whose first tries let an entrant in, and fail the
        decrease rule, takes the shortcut once the step is short enough
        to keep the support."""
        monkeypatch.setattr(solver, "_DELTA", 10.0)
        steps = _spy_tries(monkeypatch)
        inst = small_instance(s=5, n=60, seed=2)
        x = random_support_start(inst.n, inst.s, 3, 0)
        f_x, r, support = inst.op.evaluate(x, inst.y)
        grad = inst.op.gradient(x, inst.y, r, support)
        project = partial(project_sparse_box, s=inst.s)
        got = solver.armijo_step(x, grad, f_x, inst, project, 8.0, support)
        eligible, short, general = steps[0]
        assert eligible and short > 0 and general > 0 and got.t > 0
        _assert_same_step(got, solver.armijo_step(x, grad, f_x, inst, project,
                                                  8.0))
        x_ref, f_ref, tau, t = armijo_step_reference(
            x, grad, f_x, inst, partial(project_sparse_box_two_scan,
                                        s=inst.s), 8.0)
        assert got.x.tobytes() == x_ref.tobytes()
        assert (got.f, got.tau, got.t) == (f_ref, tau, t)


def _assert_matches_bisection(got, x, grad, f_x, inst, s, tau0):
    x_ref, f_ref, tau, t = armijo_step_reference(
        x, grad, f_x, inst, partial(simplex_bisection, s=s), tau0)
    assert got.x.tobytes() == x_ref.tobytes()
    assert (got.f, got.tau, got.t) == (f_ref, tau, t)


def _spy_brackets(monkeypatch):
    """Record each bracket search of a kept capped-simplex try: True for a
    bracket `projections._hinted` took from the memo, False for each
    `projections._settle` sweep of a kept try."""
    found = []
    hinted, settle = projections._hinted, projections._settle

    def recorded_hint(*args):
        bracket = hinted(*args)
        if bracket is not None:
            found.append(True)
        return bracket

    def recorded_settle(cap_sum, s, t, c):
        if getattr(cap_sum, "func", None) is projections._kept_sum:
            found.append(False)
        return settle(cap_sum, s, t, c)

    monkeypatch.setattr(projections, "_hinted", recorded_hint)
    monkeypatch.setattr(projections, "_settle", recorded_settle)
    return found


class TestSupportKeptSimplexStep:
    """On the capped simplex, `armijo_step` settles a try that no bin off
    x's support S enters among S's breakpoints and the best entrant's; its
    Step is the one the general path and the bisection reference return,
    bit for bit, and every try it cannot settle that way falls back to
    the general path.  A kept try first checks the bracket of the last
    kept try its thread settled, named on that try's support, and takes
    it only when it is the bisection's at the new try; any other hint
    falls back to `_settle`'s sweep, whose bracket the memo then keeps."""

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_matches_the_general_path_on_random_iterates(self, geom,
                                                          monkeypatch):
        """Iterates of the baseline's final descent, whose tries keep their
        support, and random sparse ones, whose tries let entrants in."""
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        op, s = inst.op, inst.s
        project = partial(project_capped_simplex, s=s)
        iterates = []
        step = solver.armijo_step

        def recorded(x, grad, f_x, instance, project, tau0, support=None):
            iterates.append((x, support))
            return step(x, grad, f_x, instance, project, tau0, support)

        monkeypatch.setattr(solver, "armijo_step", recorded)
        _descend(inst, project(_grown_start(inst)), project, 400,
                 solver._GAMMA, solver._EPSILON)
        monkeypatch.undo()
        rng = np.random.default_rng(7)
        xs = [iterates[i][0] for i in rng.choice(len(iterates), 20,
                                                 replace=False)]
        for _ in range(20):
            k = int(rng.integers(s, 4 * s))
            x = np.zeros(inst.n)
            x[rng.choice(inst.n, k, replace=False)] = np.where(
                rng.random(k) < 0.3, 1.0, rng.uniform(0.01, 1.0, k))
            xs.append(x)
        steps = _spy_tries(monkeypatch)
        dense = []  # the descent's first iterates hold every bin
        for x in xs:
            f_x, r, support = op.evaluate(x, inst.y)
            grad = op.gradient(x, inst.y, r, support)
            tau0 = 10.0 ** rng.uniform(-2.0, 2.0)
            got = solver.armijo_step(x, grad, f_x, inst, project, tau0,
                                     support)
            want = solver.armijo_step(x, grad, f_x, inst, project, tau0)
            _assert_same_step(got, want)
            _assert_matches_bisection(got, x, grad, f_x, inst, s, tau0)
            dense.append(support.size == inst.n)
        with_support = [st for st, d in zip(steps[::2], dense) if not d]
        assert all(eligible for eligible, *_ in with_support)
        # both paths ran; without the support, only the general one
        assert sum(short for _, short, _ in with_support) > 0
        assert sum(general for *_, general in with_support) > 0
        assert all(short == 0 for _, short, _ in steps[1::2])

    @pytest.mark.parametrize("x_at, grad_at, s, shortcut, support", [
        pytest.param({5: 0.5, 10: 0.5, 15: 0.5},
                     {5: -0.5, 10: -0.5, 15: 1.0}, 2, True, [5, 10],
                     id="support entry driven to 0"),
        pytest.param({5: 0.5, 10: 0.5, 15: 0.5},
                     {5: -0.25, 10: -0.25, 15: 0.75, 2: 0.25}, 2, True,
                     [5, 10], id="multiplier at the entrant's breakpoint"),
        pytest.param({5: 0.5, 10: 0.5, 15: 0.5}, {2: -1.0}, 2, False,
                     [2, 5, 10, 15], id="entrant enters"),
        pytest.param({5: 0.5}, {5: -0.18, 2: 0.32}, 1, False, [2, 5],
                     id="entrant enters by rounding")])
    def test_forced_tries(self, x_at, grad_at, s, shortcut, support,
                          monkeypatch):
        """At tau = 1, with grad 1 on every bin not listed: x on bins 5, 10
        and 15 reaches (1, 1, 0), at a multiplier inside its bracket or at
        the best entrant's breakpoint, bin 2's, where bin 2 stays at 0; or
        bin 2 enters at 1 with the support at 1/3 each, the sum at its
        breakpoint falling short of s; or z = 0.68 on bin 5 and -0.32 on
        bin 2 bracket s = 1 between -0.68 and 0.32, and the interpolated
        multiplier rounds past 0.32, leaving bin 2 at 2^-54."""
        steps = _spy_tries(monkeypatch)
        inst = small_instance(s=3, n=20)
        x, grad = np.zeros(20), np.ones(20)
        x[list(x_at)] = list(x_at.values())
        grad[list(grad_at)] = list(grad_at.values())
        project = partial(project_capped_simplex, s=s)
        f_x = 1e6  # the decrease rule accepts t = 0
        got = solver.armijo_step(x, grad, f_x, inst, project, 1.0,
                                 np.flatnonzero(x))
        assert steps[0] == ((True, 1, 0) if shortcut else (True, 0, 1))
        _assert_same_step(got, solver.armijo_step(x, grad, f_x, inst, project,
                                                  1.0))
        _assert_matches_bisection(got, x, grad, f_x, inst, s, 1.0)
        assert got.t == 0
        np.testing.assert_array_equal(got.support, support)

    def test_tied_bracket_sums_on_every_bin(self, monkeypatch):
        """With s = n every bin is in S, so no try is offered to the
        shortcut.  There the sum at the last breakpoint can round short of
        n: at z = -1.09 on every bin, z + (1 - z) rounds to 1 - 2^-52, and
        the bracket is the last two breakpoints, both 2.09, whose sums tie.
        Only the general path meets such a bracket: one the shortcut
        settles has a sum below s and one reaching it."""
        steps = _spy_tries(monkeypatch)
        inst = small_instance(s=3, n=20)
        x, grad = np.full(20, 0.5), np.full(20, 1.59)
        project = partial(project_capped_simplex, s=20)
        got = solver.armijo_step(x, grad, 1e6, inst, project, 1.0,
                                 np.flatnonzero(x))
        assert steps[0] == (False, 0, 1)
        _assert_same_step(got, solver.armijo_step(x, grad, 1e6, inst, project,
                                                  1.0))
        _assert_matches_bisection(got, x, grad, 1e6, inst, 20, 1.0)
        assert np.all(got.x == 1.0 - 2.0**-52) and got.x.sum() < 20

    def test_backtracked_step_mixes_both_paths(self, monkeypatch):
        """x = 2/3 on bins 5, 10 and 15, grad (-1, 0.5, 0.5) there and 0.25
        on bin 2: bin 2 enters for tau > 2/3, once bin 5 is capped at 1, so
        tau = 4, 2 and 1 take the general path and fail the decrease rule,
        and tau = 0.5 takes the shortcut and passes it."""
        monkeypatch.setattr(solver, "_DELTA", 10.0)
        steps = _spy_tries(monkeypatch)
        inst = small_instance(s=3, n=20)
        x, grad = np.zeros(20), np.full(20, 5.0)
        x[[5, 10, 15]] = 2.0 / 3.0
        grad[[5, 10, 15, 2]] = [-1.0, 0.5, 0.5, 0.25]
        project = partial(project_capped_simplex, s=2)
        f_x = 1.1
        got = solver.armijo_step(x, grad, f_x, inst, project, 4.0,
                                 np.flatnonzero(x))
        assert steps[0] == (True, 1, 3) and got.t == 3
        _assert_same_step(got, solver.armijo_step(x, grad, f_x, inst, project,
                                                  4.0))
        _assert_matches_bisection(got, x, grad, f_x, inst, 2, 4.0)
        np.testing.assert_array_equal(got.support, [5, 10, 15])

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_consecutive_descent_steps_reuse_the_bracket(self, geom,
                                                         monkeypatch):
        """Along 400 steps of the baseline's final descent, most kept tries
        take the memo's bracket, and every step is the bisection
        reference's."""
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        project = partial(project_capped_simplex, s=inst.s)
        x0 = project(_grown_start(inst))
        found = _spy_brackets(monkeypatch)
        steps = _spy_tries(monkeypatch)
        step = solver.armijo_step
        checked = []

        def checked_step(x, grad, f_x, instance, project, tau0, support=None):
            got = step(x, grad, f_x, instance, project, tau0, support)
            _assert_matches_bisection(got, x, grad, f_x, instance, inst.s,
                                      tau0)
            checked.append(got)
            return got

        monkeypatch.setattr(solver, "armijo_step", checked_step)
        result = _descend(inst, x0, project, 400, solver._GAMMA,
                          solver._EPSILON)
        assert len(checked) == result.iterations == 400
        # a kept try whose multiplier lets an entrant in is declined
        assert len(found) >= sum(short for _, short, _ in steps) > 300
        assert sum(found) >= 0.75 * len(found) and not all(found)

    @pytest.mark.parametrize("grad_s, names, hit", [
        pytest.param((-0.3, -0.1, 0.2), ((2, False), (0, True)), True,
                     id="the last bracket"),
        pytest.param((-0.3, -0.1, 0.2), ((1, False), (0, True)), False,
                     id="a breakpoint inside"),
        pytest.param((-0.3, -0.1, 0.2), ((0, True), (1, True)), False,
                     id="both sums reach s"),
        pytest.param((-0.3, -0.1, 0.2), ((2, False), None), False,
                     id="c above breakpoints"),
        pytest.param((-0.3, -0.1, 0.2), ((25, False), (3, True)), False,
                     id="entries outside S"),
        pytest.param((-0.3, -0.1, -0.1), ((1, False), (2, False)), False,
                     id="tied breakpoints"),
        pytest.param((-0.3, -0.1, -0.1), ((2, False), (0, True)), True,
                     id="the tie's twin")])
    def test_hints(self, grad_s, names, hit, monkeypatch):
        """At tau = 1 from x = 0.5 on bins 5, 10 and 15, with grad 1 off
        them (c = 1) and s = 2: with grad (-0.3, -0.1, 0.2) on them,
        t = (0.8, 0.6, 0.3), and the sums at the sorted breakpoints -0.8,
        -0.6, -0.3, 0.2, 0.4 and 0.7 are 0, 0.2, 0.8, 2.3, 2.7 and 3, so
        the bracket is -t_2 and 1 - t_0.  A hint across -0.3, one above
        the bracket, or one up to c holds a breakpoint or has both sums
        at least s, and would interpolate another multiplier; a hint
        named on a 30-bin support reaches past S's entries.  With grad
        (-0.3, -0.1, -0.1), t_1 = t_2 = 0.6 tie, and a hint between them
        is empty, while either names the bracket's lower end."""
        found = _spy_brackets(monkeypatch)
        steps = _spy_tries(monkeypatch)
        monkeypatch.setattr(projections._memo, "names", names, raising=False)
        inst = small_instance(s=3, n=20)
        x, grad = np.zeros(20), np.ones(20)
        x[[5, 10, 15]] = 0.5
        grad[[5, 10, 15]] = grad_s
        project = partial(project_capped_simplex, s=2)
        got = solver.armijo_step(x, grad, 1e6, inst, project, 1.0,
                                 np.flatnonzero(x))
        assert steps == [(True, 1, 0)] and found == [hit]
        _assert_same_step(got, solver.armijo_step(x, grad, 1e6, inst, project,
                                                  1.0))
        _assert_matches_bisection(got, x, grad, 1e6, inst, 2, 1.0)
        lower = (1, False) if grad_s[2] < 0 else (2, False)
        assert projections._memo.names == (names if hit
                                           else (lower, (0, True)))

    def test_bracket_at_c_is_reused(self, monkeypatch):
        """The forced try whose multiplier is the best entrant's
        breakpoint c keeps its bracket's upper end as c, and the same
        try again takes that bracket from the memo."""
        found = _spy_brackets(monkeypatch)
        inst = small_instance(s=3, n=20)
        x, grad = np.zeros(20), np.ones(20)
        x[[5, 10, 15]] = 0.5
        grad[[5, 10, 15, 2]] = [-0.25, -0.25, 0.75, 0.25]
        project = partial(project_capped_simplex, s=2)
        monkeypatch.delattr(projections._memo, "names", raising=False)
        first, again = (solver.armijo_step(x, grad, 1e6, inst, project, 1.0,
                                           np.flatnonzero(x))
                        for _ in range(2))
        assert found == [False, True] and projections._memo.names[1] is None
        _assert_same_step(again, first)
        _assert_matches_bisection(again, x, grad, 1e6, inst, 2, 1.0)

    def test_hint_from_another_support(self, monkeypatch):
        """A try on bins 3, 8 and 12 with t = (0.3, 0.8, 0.6) leaves
        (-t_0, 1 - t_1) in the memo; on bins 5, 10 and 15 with
        t = (0.8, 0.6, 0.3) those name -0.8 and 0.4, across three
        breakpoints, and the try falls back."""
        found = _spy_brackets(monkeypatch)
        inst = small_instance(s=3, n=20)
        project = partial(project_capped_simplex, s=2)
        for bins, grad_s in (([3, 8, 12], [0.2, -0.3, -0.1]),
                             ([5, 10, 15], [-0.3, -0.1, 0.2])):
            x, grad = np.zeros(20), np.ones(20)
            x[bins] = 0.5
            grad[bins] = grad_s
            got = solver.armijo_step(x, grad, 1e6, inst, project, 1.0,
                                     np.flatnonzero(x))
            _assert_matches_bisection(got, x, grad, 1e6, inst, 2, 1.0)
        assert found[-1] is False
        assert projections._memo.names == ((2, False), (0, True))

    def test_threads_alternating_supports_get_the_serial_steps(
            self, monkeypatch):
        """Steps of two final descents on one instance, taken by four
        threads, more than a small machine's cores: two follow one descent
        each, whose memo the next step reuses, and two alternate between
        the descents, so every step meets the other support's bracket and
        the operator's plan of the other support."""
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 90000)
        project = partial(project_capped_simplex, s=inst.s)
        states = []
        step = solver.armijo_step

        def recorded(x, grad, f_x, instance, project, tau0, support=None):
            states.append((x, grad, f_x, tau0, support))
            return step(x, grad, f_x, instance, project, tau0, support)

        x0s = [project(_grown_start(inst, start=start)) for start in (0, 1)]
        monkeypatch.setattr(solver, "armijo_step", recorded)
        descents = []
        for x0 in x0s:
            _descend(inst, x0, project, 60, solver._GAMMA, solver._EPSILON)
            # past the first steps, which hold every bin
            descents.append(states[10:])
            assert all(0 < st[-1].size < inst.n for st in descents[-1])
            states = []
        monkeypatch.undo()
        a, b = descents
        orders = [a, b, [s for pair in zip(a, b) for s in pair],
                  [s for pair in zip(b, a) for s in pair]]

        def steps(order):
            return [solver.armijo_step(x, grad, f_x, inst, project, tau0,
                                       support)
                    for x, grad, f_x, tau0, support in order]

        serial = [steps(order) for order in orders]
        answers = [None] * len(orders)

        def run(slot):
            answers[slot] = [steps(orders[slot]) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(len(orders))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(serial, answers):
            assert len(got) == 3
            for round_ in got:
                for step_got, step_want in zip(round_, want, strict=True):
                    _assert_same_step(step_got, step_want)



def _dense_start(n, s):
    # dense and uneven: a uniform start is stationary on the circle
    return project_capped_simplex(
        np.random.default_rng(5).random(n) * 2 * s / n, s)


def _grown_start(inst, seed=0, start=0):
    """The (s-1)-sparse iterate `_guided_start`'s growth stages hand over."""
    return solver._guided_start(inst, SolverConfig(seed=seed), start)[0]


def _spy_descents(monkeypatch, finish_max_iters=None):
    """Record `multi_start`'s descents in call order as (kind, item) pairs:
    ("stage", call) for each descent `_guided_start` runs, ("grown", x)
    for each iterate it returns, and ("finish", call) for every other
    descent, a call being (x0, tau0, epsilon, repair, result).  With
    finish_max_iters, those other descents take at most that many steps."""
    events = []
    descend, guided_start = solver._descend, solver._guided_start
    growing = [False]

    def recorded(instance, x0, project, max_iters, tau0, epsilon,
                 repair=False):
        if not growing[0] and finish_max_iters is not None:
            max_iters = finish_max_iters
        result = descend(instance, x0, project, max_iters, tau0, epsilon,
                         repair)
        events.append(("stage" if growing[0] else "finish",
                       (np.array(x0), tau0, epsilon, repair, result)))
        return result

    def grown(instance, config, start):
        growing[0] = True
        try:
            x, steps = guided_start(instance, config, start)
        finally:
            growing[0] = False
        events.append(("grown", x.copy()))
        return x, steps

    monkeypatch.setattr(solver, "_descend", recorded)
    monkeypatch.setattr(solver, "_guided_start", grown)
    return events


def _descend_cases():
    """(label, instance, x0, library projection, reference projection,
    (max_iters, base step, step-norm tolerance), sufficient-decrease
    constant)."""
    solve = (SolverConfig().max_iters, solver._GAMMA, solver._EPSILON)
    delta = solver._DELTA
    cases = []
    for geom in Geometry:
        inst = generate_instance(geom, 6, 200, 0.0, 11)
        # every support of a 200-bin grid takes the window gradient; a dense
        # start on 600 bins takes the FFT one
        wide = generate_instance(geom, 6, 600, 0.0, 11)
        s, n = inst.s, inst.n
        box = (partial(project_sparse_box, s=s),
               partial(project_sparse_box_two_scan, s=s))
        stage = (partial(project_sparse_box, s=4),
                 partial(project_sparse_box_two_scan, s=4))
        simplex = (partial(project_capped_simplex, s=s),
                   partial(simplex_bisection, s=s))
        anchored = np.zeros(n)
        anchored[[0, int(np.flatnonzero(inst.y).max()) + 1]] = 1.0
        dense = _dense_start(n, s)
        binary = random_support_start(n, s, 2, 0)
        # the final descent of a start grown at (10,1000) ends at a pursuit step
        grown = generate_instance(geom, 10, 1000, 0.0, 90000)
        grown_box = (partial(project_sparse_box, s=grown.s),
                     partial(project_sparse_box_two_scan, s=grown.s))
        # delta = 10 rejects the first candidates of every step; the stage
        # case runs at a growth stage's scaled step and tolerance
        stage_solve = (solve[0], solver._GAMMA * solver._stage_scale(inst),
                       solver._STAGE_EPSILON)
        cases += [
            (f"{geom.value} box", inst, binary, *box, solve, delta),
            (f"{geom.value} box backtracks", inst, binary, *box,
             (200, *solve[1:]), 10.0),
            (f"{geom.value} stage sp=4", inst, anchored, *stage, stage_solve,
             delta),
            (f"{geom.value} simplex dense", wide, _dense_start(wide.n, s),
             *simplex, solve, delta),
            (f"{geom.value} simplex max_iters", inst, dense, *simplex,
             (7, *solve[1:]), delta),
            (f"{geom.value} simplex backtracks", inst, dense, *simplex,
             (100, *solve[1:]), 10.0),
            (f"{geom.value} box pursuit", grown, _grown_start(grown),
             *grown_box, solve, delta),
        ]
    # `multi_start`'s final descents, which repair a declined offer, from
    # grown starts whose first s-point offers are declined
    for geom, (k, m), xi, inst_seed, seed in [
            (Geometry.TURNPIKE, (20, 2000), 0.0, 90000, 1),
            (Geometry.TURNPIKE, (10, 1000), 3e-5, 90005, 86),
            (Geometry.BELTWAY, (10, 1000), 1e-5, 90002, 35)]:
        declined = generate_instance(geom, k, m, xi, inst_seed)
        start = _grown_start(declined, seed)
        for kind, projections in (
                ("box", (partial(project_sparse_box, s=k),
                         partial(project_sparse_box_two_scan, s=k))),
                ("simplex", (partial(project_capped_simplex, s=k),
                             partial(simplex_bisection, s=k)))):
            cases.append((f"{geom.value} ({k},{m}) {kind} repair", declined,
                          projections[0](start), *projections,
                          (*solve, True), delta))
    return cases


class TestCarriedEvaluation:
    """`_descend` hands each accepted iterate's evaluation to the next
    gradient; the reference loop evaluates every iterate afresh."""

    @pytest.mark.parametrize("case", _descend_cases(), ids=lambda c: c[0])
    def test_matches_fresh_evaluation_loop(self, case, monkeypatch):
        _, inst, x0, project, project_ref, args, delta = case
        monkeypatch.setattr(solver, "_DELTA", delta)
        got = _descend(inst, x0, project, *args)
        ref = descend_reference(inst, x0, project_ref, *args)
        for name in ("objective_trace", "step_size_trace", "backtrack_trace",
                     "step_norm_trace"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert got.x_final.tobytes() == ref.x_final.tobytes()
        np.testing.assert_array_equal(got.final_step_norm, ref.final_step_norm)
        assert got.stop_reason is ref.stop_reason
        # the residual is computed only where a result is returned
        assert math.isnan(got.stationarity_residual)
        assert (solver._settled(got, inst, project).stationarity_residual
                == residual_reference(inst, ref, project_ref, solver._GAMMA))

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_returned_results_carry_the_fresh_residual(self, geom):
        """`iht_solve`, `l1pgd_solve` and `multi_start` return the residual
        of their answer at its last step size, as `_descend` computed it
        before on the evaluation it carried."""
        inst = generate_instance(geom, 10, 1000, 2e-4, 90000)
        box = partial(project_sparse_box, s=inst.s)
        simplex = partial(project_capped_simplex, s=inst.s)
        x0 = _grown_start(inst)
        for result, project in (
                (iht_solve(inst, SolverConfig(), x0), box),
                (l1pgd_solve(inst, SolverConfig(max_iters=40), x0), simplex),
                (multi_start(inst, SolverConfig(seed=1)), box),
                (multi_start(inst, SolverConfig(max_iters=0)), box)):
            assert result.stationarity_residual == residual_reference(
                inst, result, project, solver._GAMMA)

    def test_cases_cover_both_paths_cuts_and_backtracks(self, monkeypatch):
        cases = _descend_cases()
        results, shortcut, fallback = {}, {}, {}
        for label, inst, x0, project, _, args, delta in cases:
            monkeypatch.setattr(solver, "_DELTA", delta)
            steps = _spy_tries(monkeypatch)
            results[label] = _descend(inst, x0, project, *args)
            monkeypatch.undo()
            shortcut[label] = sum(short for _, short, _ in steps)
            fallback[label] = sum(1 for eligible, _, general in steps
                                  if eligible and general)
        # box descents take support-kept tries, at s and at a stage's
        # sparsity and when they backtrack; every capped-simplex descent
        # takes them too
        for geom in Geometry:
            for kind in ("box", "box backtracks", "stage sp=4"):
                assert shortcut[f"{geom.value} {kind}"] > 0
        assert all(shortcut[label] > 0 for label in results
                   if "simplex" in label)
        # an entrant that displaces the support makes a step fall back, and
        # so does one that enters a capped-simplex support
        assert fallback["beltway box"] > 0
        for geom in Geometry:
            assert fallback[f"{geom.value} simplex dense"] > 0
        for label, inst, x0, *_ in cases:
            if label.endswith("simplex dense"):
                # starts on the FFT paths and ends on the pair forward map
                # and the window gradient
                start = np.flatnonzero(x0)
                end = np.flatnonzero(results[label].x_final)
                assert not inst.op._pairs(start) and not inst.op._windows(start)
                assert inst.op._pairs(end) and inst.op._windows(end)
        for geom in Geometry:
            stop = results[f"{geom.value} simplex max_iters"].stop_reason
            assert stop is StopReason.MAX_ITERS
            # converged on a step longer than epsilon: the pursuit exit
            pursuit = results[f"{geom.value} box pursuit"]
            assert pursuit.stop_reason is StopReason.CONVERGED
            assert pursuit.final_step_norm > solver._EPSILON
            for kind in ("box", "simplex"):
                bt = results[f"{geom.value} {kind} backtracks"].backtrack_trace
                assert bt.sum() > 0
        for label, result in results.items():
            if label.endswith("box repair"):
                # ended at a repaired offer, not by the step rule
                assert result.stop_reason is StopReason.CONVERGED
                assert result.final_step_norm > solver._EPSILON


class TestStageStep:
    """Growth stages try gamma * kappa * alpha^t with kappa = 1/(2L), to
    the stage tolerance; the solvers, and so a guided start's final
    descent, keep gamma * alpha^t and epsilon."""

    @pytest.mark.parametrize("geom,kappa", [(Geometry.TURNPIKE, 13.875),
                                            (Geometry.BELTWAY, 6.9375)])
    def test_scale_at_ten_points_on_a_thousand_bins(self, geom, kappa):
        inst = generate_instance(geom, 10, 1000, 0.0, 0)
        assert solver._stage_scale(inst) == kappa

    @pytest.mark.parametrize("geom", list(Geometry))
    @pytest.mark.parametrize("s,n,xi", [(5, 60, 0.0), (10, 1000, 0.0),
                                        (20, 2000, 0.0), (10, 1000, 2e-4),
                                        (10, 1000, 1e-3)])
    def test_anchored_pair_is_its_own_first_stage(self, geom, s, n, xi):
        """Why growth starts at three points: the pair's lag is observed, so
        its residual is <= 0 everywhere and one stage step at sparsity 2
        keeps exactly the pair, at t = 0."""
        for seed in range(90000, 90005):
            inst = generate_instance(geom, s, n, xi, seed)
            kappa = solver._stage_scale(inst)
            for start in range(4):  # the circle rotates its anchor lag
                x = np.zeros(n)
                x[list(solver.anchor_bins(inst, start))] = 1.0
                f, r, support = inst.op.evaluate(x, inst.y)
                grad = inst.op.gradient(x, inst.y, r, support)
                step = armijo_step(x, grad, f, inst,
                                   lambda z: project_sparse_box(z, 2),
                                   solver._GAMMA * kappa)
                assert step.t == 0
                np.testing.assert_array_equal(step.x, x)

    # both win on a drawn start; turnpike 29 also re-solves a repair
    @pytest.mark.parametrize("geom,seed", [(Geometry.TURNPIKE, 29),
                                           (Geometry.BELTWAY, 4)])
    def test_stages_scale_their_step_and_the_final_descent_does_not(
            self, geom, seed, monkeypatch):
        events = _spy_descents(monkeypatch)
        inst = generate_instance(geom, 10, 1000, 0.0, seed)
        res = multi_start(inst, SolverConfig(seed=3))
        assert res.start_index >= 1  # a drawn start ran, and won
        gamma, alpha = solver._GAMMA, solver._ALPHA
        stages = [call for kind, call in events if kind == "stage"]
        finishes = [call for kind, call in events if kind == "finish"]
        assert len(stages) == res.starts_run * (inst.s - 3)
        assert finishes[-1][-1] is res
        kappa = solver._stage_scale(inst)
        for _, tau0, epsilon, repair, stage in stages:
            assert tau0 == gamma * kappa and epsilon == solver._STAGE_EPSILON
            assert not repair
            assert stage.stop_reason is StopReason.CONVERGED
            np.testing.assert_array_equal(
                stage.step_size_trace,
                gamma * kappa * alpha ** stage.backtrack_trace.astype(float))
        assert max(stage.step_size_trace.max() for *_, stage in stages) > gamma
        for _, tau0, epsilon, repair, final in finishes:
            assert tau0 == gamma and epsilon == solver._EPSILON and repair
            np.testing.assert_array_equal(
                final.step_size_trace,
                gamma * alpha ** final.backtrack_trace.astype(float))
            assert np.all(final.step_size_trace <= gamma)
        assert res.iterations > 0


def _spy(monkeypatch, name):
    """Record the result of every call of `solver.<name>`, in call order;
    a call that raises leaves None."""
    results = []
    original = getattr(solver, name)

    def spied(*args, **kwargs):
        i = len(results)
        results.append(None)
        results[i] = original(*args, **kwargs)
        return results[i]

    monkeypatch.setattr(solver, name, spied)
    return results


class TestPursuitExit:
    """An accepted iterate on a new support of s points offers that
    support's indicator as the next step; a descent that takes it stops
    there, CONVERGED at an exact fit.  `multi_start`'s descents, which
    repair the offer, also offer again when the rounded support changes."""

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_grown_start_ends_at_an_exact_fit(self, geom):
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        res = iht_solve(inst, SolverConfig(), _grown_start(inst))
        assert res.stop_reason is StopReason.CONVERGED
        # a last step longer than epsilon: the exit ended it, not the step rule
        assert res.final_step_norm > solver._EPSILON
        assert set(np.unique(res.x_final)) == {0.0, 1.0}
        assert np.count_nonzero(res.x_final) == inst.s
        assert res.f_final == 0.0
        assert res.stationarity_residual == 0.0
        assert check_l_stationarity(res.x_final, inst).passed
        assert res.backtrack_trace[-1] == 0
        assert res.step_size_trace[-1] == solver._GAMMA

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_stage_descent_never_offers_it(self, geom, monkeypatch):
        """A growth stage projects onto s-1 points, so no iterate has s."""
        offers = _spy(monkeypatch, "_pursuit_step")
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        x0 = np.zeros(inst.n)
        x0[list(solver.anchor_bins(inst))] = 1.0
        res = _descend(inst, x0, lambda z: project_sparse_box(z, inst.s - 1),
                       SolverConfig().max_iters,
                       solver._GAMMA * solver._stage_scale(inst),
                       solver._STAGE_EPSILON)
        assert offers == []
        assert res.stop_reason is StopReason.CONVERGED
        assert res.final_step_norm <= solver._STAGE_EPSILON

    @pytest.mark.parametrize("repair", [False, True])
    def test_decrease_rule_declines_an_exact_fit(self, repair, monkeypatch):
        """With one true point at 0.7 and the others at 1, f is
        (s-1) * 0.3^2 / m, short of (_DELTA/2) * 0.3^2 when m > 2(s-1)/_DELTA:
        the exactly fitting indicator fails the decrease test.  The descent
        goes on by Armijo steps and does not offer the same key again."""
        inst = generate_instance(Geometry.TURNPIKE, 3, 100_000, 0.0, 1)
        x0 = inst.true_indicator().copy()
        x0[np.flatnonzero(x0)[1]] = 0.7
        offers = _spy(monkeypatch, "_pursuit_step")
        steps = _spy(monkeypatch, "armijo_step")
        res = _descend(inst, x0, sparse_box(inst), 4, solver._GAMMA,
                       solver._EPSILON, repair)
        assert offers == [None]
        assert np.array_equal(np.flatnonzero(res.x_final), np.flatnonzero(x0))
        assert binary_misfit(inst, res.x_final) == 0  # the indicator fits
        assert len(steps) == res.iterations == 4
        assert res.stop_reason is StopReason.MAX_ITERS
        assert np.all(np.diff(res.objective_trace) < 0)

    def test_noisy_histogram_declines_it(self, monkeypatch):
        """The `iht_noisy` benchmark's turnpike instance: y is perturbed, so
        the s-point support the descent reaches is offered and declined."""
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 2e-4, 90000)
        assert not np.array_equal(inst.op.forward(inst.true_indicator()), inst.y)
        offers = _spy(monkeypatch, "_pursuit_step")
        res = multi_start(inst, SolverConfig(seed=1))
        assert offers and all(step is None for step in offers)
        assert res.stop_reason is StopReason.CONVERGED
        assert res.final_step_norm <= solver._EPSILON

    def test_total_iterations_count_the_pursuit_step(self, monkeypatch):
        offers = _spy(monkeypatch, "_pursuit_step")
        steps = _spy(monkeypatch, "armijo_step")
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 90000)
        res = multi_start(inst, SolverConfig(seed=1))
        assert sum(step is not None for step in offers) == 1
        assert res.total_iterations == len(steps) + 1

    def test_declined_offer_is_repaired_at_once(self, monkeypatch):
        """The start-0 final descent reaches a wrong 20-point support; the
        offer's repair rebuilds the answer from the rounded support and
        ends the descent there.  Finishing the descent first, as
        `iht_solve` does (next test), crawls on to epsilon."""
        offers = _spy(monkeypatch, "_pursuit_step")
        inst = generate_instance(Geometry.TURNPIKE, 20, 2000, 0.0, 90000)
        res = multi_start(inst, SolverConfig(seed=1))
        assert res.start_index == 0 and res.starts_run == 1
        assert res.iterations == 2
        assert len(offers) == 1 and offers[0] is not None
        assert res.stop_reason is StopReason.CONVERGED
        assert res.f_final == 0.0 and binary_misfit(inst, res.x_final) == 0
        assert res.stationarity_residual == 0.0
        assert res.total_iterations < 1000

    @pytest.mark.parametrize("geom, inst_seed, seed, xi, iterations, total", [
        (Geometry.TURNPIKE, 90005, 86, 3e-5, 64, 351),
        (Geometry.BELTWAY, 90002, 35, 1e-5, 62, 359),
        (Geometry.BELTWAY, 90005, 86, 3e-5, 75, 404),
    ])
    def test_reoffer_at_rounded_support_change(self, geom, inst_seed, seed,
                                               xi, iterations, total):
        """`iht_published` instances whose start-0 final descent declines
        its s-point offer before the rounded support {x > 0.5} settles.
        The offer is made again when that rounded support changes, and its
        repair ends the descent; offered once, the descent would crawl on
        to epsilon and be repaired only after it (1 iteration, 1,685, 930
        and 1,125 steps in all)."""
        inst = generate_instance(geom, 10, 1000, xi, inst_seed)
        res = multi_start(inst, SolverConfig(seed=seed))
        assert res.start_index == 0 and res.starts_run == 1
        assert res.stop_reason is StopReason.CONVERGED
        assert res.f_final == 0.0 and binary_misfit(inst, res.x_final) == 0
        assert res.iterations == iterations
        assert res.total_iterations == total

    def test_public_solver_never_repairs(self, monkeypatch):
        """`iht_solve` from the same (s-1)-sparse start declines the wrong
        support and crawls on: every iteration is one Armijo step, and the
        repair never runs.  Each s-point support is offered once, however
        often its rounded support changes."""
        inst = generate_instance(Geometry.TURNPIKE, 20, 2000, 0.0, 90000)
        x0 = _grown_start(inst, seed=1)
        offers = _spy(monkeypatch, "_pursuit_step")
        accepted = _spy(monkeypatch, "armijo_step")
        repairs = _spy(monkeypatch, "_repair")
        res = iht_solve(inst, SolverConfig(seed=1), x0)
        assert offers and all(step is None for step in offers)
        assert repairs == []
        assert len(accepted) == res.iterations > 2
        # the last iterate is never offered
        offerable = [st for st in accepted[:-1] if st.support.size == inst.s]
        supports = {st.support.tobytes() for st in offerable}
        rounded = {(st.support.tobytes(), (st.x[st.support] > 0.5).tobytes())
                   for st in offerable}
        assert len(offers) == len(supports) < len(rounded)
        assert res.stop_reason is StopReason.CONVERGED
        assert res.final_step_norm <= solver._EPSILON
        assert binary_misfit(inst, res.x_final) > 0


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
        bad[0] = np.nan  # passes a test for entries below 0 or above 1
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
        with pytest.raises(NumericError):  # checked at x0, before any step
            iht_solve(bad, SolverConfig(max_iters=0), x0)

    def test_backtracking_can_exhaust(self, monkeypatch):
        monkeypatch.setattr(solver, "_DELTA", 1e12)
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 3)
        inst = small_instance(n=30, s=4, seed=2)
        x0 = 0.5 * random_support_start(inst.n, inst.s, 3, 0)
        res = iht_solve(inst, SolverConfig(), x0)
        assert res.stop_reason is StopReason.BACKTRACK_EXHAUSTED

    def test_trace_invariants(self):
        """Monotone objective, exact step-size law, decrease inequality,
        feasibility, and the summed-squares step bound."""
        gamma, alpha, delta = solver._GAMMA, solver._ALPHA, solver._DELTA
        for geom in Geometry:
            inst = generate_instance(geom, 5, 60, 0.0, 7)
            x0 = random_support_start(inst.n, inst.s, 11, 0)
            res = iht_solve(inst, SolverConfig(max_iters=800), x0)
            f = res.objective_trace
            assert np.all(np.diff(f) <= 0)
            np.testing.assert_array_equal(
                res.step_size_trace,
                gamma * alpha ** res.backtrack_trace.astype(float))
            assert np.all(res.step_size_trace > 0)
            assert np.all(res.step_size_trace <= gamma)
            drops = f[:-1] - f[1:]
            rhs = 0.5 * delta * res.step_norm_trace**2
            assert np.all(drops >= rhs - 1e-12 * np.maximum(1.0, np.abs(f[:-1])))
            assert float(res.step_norm_trace @ res.step_norm_trace) \
                <= (2.0 / delta) * f[0] + 1e-9
            x = res.x_final
            assert x.min() >= 0 and x.max() <= 1
            assert np.count_nonzero(x) <= inst.s

    def test_iterates_stay_feasible(self):
        inst = small_instance(n=40, s=4, seed=9)
        x = random_support_start(inst.n, inst.s, 2, 0)
        f_x = inst.op.objective(x, inst.y)
        for _ in range(50):
            grad = inst.op.gradient(x, inst.y)
            x, f_x, *_ = armijo_step(x, grad, f_x, inst, sparse_box(inst),
                                     solver._GAMMA)
            assert x.min() >= 0 and x.max() <= 1
            assert np.count_nonzero(x) <= inst.s


class TestStationarity:
    def test_zero_residual_at_ground_truth(self):
        inst = small_instance(n=50, s=4, seed=3)
        x = inst.true_indicator()
        for tau in (0.01, 0.3, 0.99):
            assert fixed_point_residual(x, tau, inst, sparse_box(inst)) == 0.0

    def test_all_zeros_is_a_spurious_fixed_point(self):
        # gradient vanishes at the origin, so the residual is zero there
        # even though the histogram misfit is not
        inst = small_instance(n=30, s=3, seed=5)
        assert inst.op.objective(np.zeros(30), inst.y) > 0
        assert fixed_point_residual(np.zeros(30), 0.5, inst,
                                    sparse_box(inst)) == 0.0

    def test_positive_at_non_stationary_point_then_small_after_solve(self):
        inst = small_instance(n=40, s=4, seed=6)
        x0 = random_support_start(inst.n, inst.s, 8, 0)
        assert fixed_point_residual(x0, 0.9, inst, sparse_box(inst)) > 0
        res = iht_solve(inst, SolverConfig(), x0)
        if res.stop_reason is StopReason.CONVERGED:
            assert res.stationarity_residual <= 1e-6

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

    @pytest.mark.parametrize("shift, kinds", [
        (1.0, {"interior_grad_nonzero", "zero_grad_negative"}),
        (-1.0, {"interior_grad_nonzero", "upper_bound_grad_positive"}),
    ])
    def test_reports_bound_and_zero_violations(self, shift, kinds):
        """x has 2 < s points, so its zero bins are checked too: a residual
        of -1 at every lag makes the gradient negative there, one of +1
        makes it positive at the upper bound."""
        inst = small_instance(n=12, s=3, seed=1)
        x = np.zeros(12)
        x[3], x[7] = 0.5, 1.0
        perturbed = Instance(geometry=inst.geometry, n=12, s=3,
                             y=inst.op.forward(x) + shift,
                             true_positions=inst.true_positions,
                             noise_sigma=0.0, seed=0)
        report = check_l_stationarity(x, perturbed)
        assert {v[0] for v in report.violations} == kinds


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
        assert binary_misfit(inst, res.x_final) == 0
        rep = score_recovery(
            extract_positions(res.x_final, inst.n, inst.geometry), inst)
        assert rep.co_p == 10

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_both_methods_descend_from_the_same_grown_start(
            self, geom, monkeypatch):
        """Growth does not depend on the method: `multi_start` hands its
        final `_descend` the iterate `_guided_start` grew, bit for bit, as
        IHT and projected onto the capped simplex as l1pgd, on the greedy
        start and on drawn ones."""
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        # finishing descents take no step and nothing is repaired, so no
        # start fits and all three run
        monkeypatch.setattr(solver, "_repair", lambda *args: None)
        events = _spy_descents(monkeypatch, finish_max_iters=0)
        handed = {}
        for method in ("iht", "l1pgd"):
            events.clear()
            multi_start(inst, SolverConfig(seed=5, restarts=2), method)
            grown = [x for kind, x in events if kind == "grown"]
            x0s = [call[0] for kind, call in events if kind == "finish"]
            assert len(grown) == len(x0s) == 3
            handed[method] = grown, x0s
        grown, x0s = handed["iht"]
        for x, x0 in zip(grown, x0s):
            assert np.count_nonzero(x) == inst.s - 1
            np.testing.assert_array_equal(x0, x)
        for x, (l1_x, l1_x0) in zip(grown, zip(*handed["l1pgd"])):
            np.testing.assert_array_equal(l1_x, x)
            np.testing.assert_array_equal(
                l1_x0, project_capped_simplex(x, inst.s))

    def test_unknown_method(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            multi_start(inst, SolverConfig(), method="newton")

    def test_total_iterations_count_every_armijo_step(self, monkeypatch):
        """Every start, growth stage and repair re-solve is counted, not
        only the winning start's last descent: each Armijo step and each
        pursuit step taken."""
        steps = _spy(monkeypatch, "armijo_step")
        offers = _spy(monkeypatch, "_pursuit_step")
        inst = generate_instance(Geometry.BELTWAY, 10, 1000, 0.0, 90009)
        res = multi_start(inst, SolverConfig(seed=154))
        taken = sum(step is not None for step in offers)
        assert res.total_iterations == len(steps) + taken > res.iterations
        assert res.starts_run > 1

    def test_all_starts_failing_raises(self):
        inst = small_instance()
        bad = Instance(geometry=inst.geometry, n=inst.n, s=inst.s,
                       y=np.full(inst.n - 1, np.nan),
                       true_positions=inst.true_positions,
                       noise_sigma=0.0, seed=0)
        with pytest.raises(NumericError):
            multi_start(bad, SolverConfig(restarts=2))

    def test_non_finite_y_raises_at_the_first_start(self, monkeypatch):
        """Every start lies in the unit box and shares y, so the first
        start's failure is every start's: no other start runs."""
        calls = _spy(monkeypatch, "_guided_start")
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 1)
        bad = replace(inst, y=np.full(inst.n - 1, np.nan))
        with pytest.raises(NumericError):
            multi_start(bad, SolverConfig())
        assert len(calls) == 1


def _indicator(n, bins):
    x = np.zeros(n)
    x[np.asarray(bins, dtype=int)] = 1.0
    return x


class TestRepair:
    @pytest.mark.parametrize("method", ["iht", "l1pgd"])
    @pytest.mark.parametrize("geom,s,n,seed,solver_seed", [
        (Geometry.TURNPIKE, 10, 1000, 131, 131),
        (Geometry.TURNPIKE, 10, 1000, 131, 2228),
        (Geometry.TURNPIKE, 20, 2000, 118, 118),
        (Geometry.BELTWAY, 20, 2000, 90001, 18),
        (Geometry.TURNPIKE, 30, 4000, 90002, 35),
    ])
    def test_failing_starts_end_at_exact_fits(self, geom, s, n, seed,
                                              solver_seed, method):
        """Instances whose 50 hard-thresholding starts all failed, or
        (beltway) won only on start 21, before each failed start was
        repaired; the baseline grows the same starts."""
        inst = generate_instance(geom, s, n, 0.0, seed)
        res = multi_start(inst, SolverConfig(seed=solver_seed), method)
        assert binary_misfit(inst, res.x_final) == 0
        assert res.starts_run == res.start_index + 1 <= 7
        rep = score_recovery(extract_positions(res.x_final, n, geom), inst)
        assert rep.co_p == s

    def test_left_alignment(self):
        """Drift: the true set moved right by 23 bins, its rightmost point
        lost; moving the leftmost point to bin 0 and adding the anchors
        restores it."""
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 131)
        bins = inst.true_bins() - inst.true_bins().min()
        x = 0.97 * _indicator(inst.n, bins[:-1] + 23)
        np.testing.assert_array_equal(_repair(inst, x),
                                      _indicator(inst.n, bins))

    def test_right_alignment(self):
        """The leftmost point lost instead: left alignment puts the wrong
        point at bin 0, and moving the rightmost point to the largest
        lag restores the set."""
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 131)
        bins = inst.true_bins() - inst.true_bins().min()
        moved = bins[1:] + 23
        left = _indicator(inst.n, np.append(moved - moved.min(), bins[-1]))
        assert binary_misfit(inst, left) > 0
        np.testing.assert_array_equal(_repair(inst, _indicator(inst.n, moved)),
                                      _indicator(inst.n, bins))

    def test_completion_on_the_circle(self):
        """One point below 0.5 and the rest in place: completion by the
        gradient adds the bin that fits exactly."""
        inst = generate_instance(Geometry.BELTWAY, 20, 2000, 0.0, 90001)
        truth = inst.true_indicator()
        x = 0.98 * truth
        x[inst.true_bins()[7]] = 0.3
        np.testing.assert_array_equal(_repair(inst, x), truth)

    def test_no_repair_without_an_exact_fit(self):
        inst = generate_instance(Geometry.BELTWAY, 6, 60, 0.0, 4)
        y = inst.y.copy()
        y[np.flatnonzero(y)[0]] -= 1
        y[np.flatnonzero(y == 0)[0]] += 1
        bad = Instance(geometry=inst.geometry, n=inst.n, s=inst.s, y=y,
                       true_positions=inst.true_positions,
                       noise_sigma=0.0, seed=0)
        assert _repair(bad, inst.true_indicator()) is None

    def test_entries_are_empty_bins_in_gradient_order(self):
        """`_entries` lists every empty bin once, most negative gradient
        first, lowest index first among equal gradients.  From one point
        the gradient is -(2/m) y at each lag, so bins at equal counts tie,
        the most negative ones too."""
        top_ties = 0
        for geom in Geometry:
            inst = generate_instance(geom, 6, 60, 0.0, 4)
            for bins in ([0], solver.anchor_bins(inst), inst.true_bins()[:4]):
                x = _indicator(inst.n, bins)
                g = inst.op.gradient(x, inst.y)
                order = _entries(inst, x)
                empty = np.flatnonzero(x == 0)
                np.testing.assert_array_equal(np.sort(order), empty)
                assert list(order) == sorted(empty, key=lambda q: (g[q], q))
                top_ties += bool(g[order[0]] == g[order[1]])
        assert top_ties >= 2

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_completion_births_where_the_projection_does(self, geom):
        """From an (s-1)-point indicator x, `_complete` adds the bin that a
        small hard-thresholding step, project_sparse_box(x - tau * g, s),
        births: the rule completion shares with the solver's own steps,
        ties included."""
        rng = np.random.default_rng(21)
        checked = ties = 0
        for s, n in ((4, 30), (6, 60), (10, 1000)):
            inst = generate_instance(geom, s, n, 0.0, n)
            truth = inst.true_bins()
            supports = [np.delete(truth, i) for i in range(s)]
            supports += [rng.choice(n, s - 1, replace=False) for _ in range(10)]
            for bins in supports:
                x = _indicator(n, bins)
                g = inst.op.gradient(x, inst.y)
                g_empty = np.sort(g[x == 0])
                if not g_empty[0] < 0:  # the step would birth nowhere
                    continue
                born = np.flatnonzero(project_sparse_box(x - 1e-6 * g, s) > x)
                completed = x.copy()
                _complete(inst, completed, 0)
                np.testing.assert_array_equal(np.flatnonzero(completed > x), born)
                checked += 1
                ties += bool(g_empty[0] == g_empty[1])
        assert checked >= 20 and ties > 0


def _perturbed(geom, s, n, xi, seed):
    """The instance at noise xi, or None if the noise left y unchanged."""
    inst = generate_instance(geom, s, n, xi, seed)
    clean = generate_instance(geom, s, n, 0.0, seed)
    return None if np.array_equal(inst.y, clean.y) else inst


class TestNoiseBudget:
    @pytest.mark.parametrize("geom", list(Geometry))
    def test_zero_at_published_noise_and_past_the_cap(self, geom):
        """No noise, the published levels (p ~ 1e-12 at (10,1000)) and
        xi = 5e-4, where q crossings would cost as much as a missing
        point, all keep the exact-fit rule."""
        for seed in (90000, 90001):
            for xi in BENCH_NOISE + [5e-4]:
                assert misfit_budget(generate_instance(geom, 10, 1000, xi,
                                                       seed)) == 0
        # so wide that erfc rounds p to 1: every distance crosses
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        assert misfit_budget(replace(inst, noise_sigma=1e20)) == 0

    @pytest.mark.parametrize("geom,s,n,xi,budget", [
        (Geometry.TURNPIKE, 10, 1000, 2e-4, 8),
        (Geometry.BELTWAY, 10, 1000, 2e-4, 16),
        (Geometry.TURNPIKE, 20, 2000, 1e-4, 16),
        (Geometry.BELTWAY, 20, 2000, 1e-4, 32),
    ])
    def test_two_or_four_per_likely_crossing(self, geom, s, n, xi, budget):
        inst = generate_instance(geom, s, n, xi, 90000)
        assert misfit_budget(inst) == budget
        assert budget < (s - 1) * (2 if geom is Geometry.BELTWAY else 1)

    def test_perturbed_instances_fit_within_two_starts(self):
        """Every histogram that xi = 2e-4 moved, seeds 90000-90019, ends at
        its true set; without the budget all 50 starts ran."""
        solved = 0
        for geom in Geometry:
            for seed in range(90000, 90020):
                inst = _perturbed(geom, 10, 1000, 2e-4, seed)
                if inst is None:
                    continue
                res = multi_start(inst, SolverConfig(seed=17 * (seed - 90000) + 1))
                assert res.starts_run <= 2
                assert 0 < binary_misfit(inst, res.x_final) <= misfit_budget(inst)
                rep = score_recovery(
                    extract_positions(res.x_final, inst.n, inst.geometry), inst)
                assert rep.co_p == inst.s
                solved += 1
        assert solved >= 10

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_repair_restores_a_dropped_point_on_noisy_data(self, geom):
        inst = _perturbed(geom, 10, 1000, 2e-4, 90002)
        truth = inst.true_indicator()
        assert binary_misfit(inst, truth) > 0
        x = truth.copy()
        x[inst.true_bins()[4]] = 0.0
        assert _repair(inst, x) is None
        repaired = _repair(inst, x, misfit_budget(inst))
        assert binary_misfit(inst, repaired) == binary_misfit(inst, truth)
        rep = score_recovery(
            extract_positions(repaired, inst.n, inst.geometry), inst)
        assert rep.co_p == inst.s
