"""Self-tests for the benchmark's own code: checker, normalization, tracer."""

import numpy as np
import pytest

import udgp
from checks import check_answer, lag_histogram
from refclock import NOMINAL_KERNEL_S, normalize
from tracing import NAMES, Tracer

GEOMETRIES = [udgp.Geometry.TURNPIKE, udgp.Geometry.BELTWAY]


def _instance(geometry):
    return udgp.generate_instance(geometry, 6, 60, 0.0, seed=7)


def _check(inst, x, est_bins, co_p=None, method="iht"):
    circular = inst.geometry is udgp.Geometry.BELTWAY
    scale = inst.n if circular else inst.n - 1
    est = np.sort(np.asarray(est_bins, dtype=float)) / scale
    if co_p is None:
        co_p = udgp.score_recovery(est, inst).co_p
    return check_answer(x, est, co_p, inst.true_bins(), inst.y, inst.n, inst.s,
                        circular, method)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_checker_accepts_ground_truth(geometry):
    inst = _instance(geometry)
    bins = inst.true_bins()
    assert np.array_equal(lag_histogram(bins, inst.n, inst.op.circular), inst.y)
    assert _check(inst, inst.true_indicator(), bins) is None
    # any symmetry image of the truth is an equally correct answer
    image = (inst.n - 1 - bins + 3) % inst.n if inst.op.circular else inst.n - 1 - bins
    x = np.zeros(inst.n)
    x[image] = 1.0
    assert _check(inst, x, image) is None


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_checker_rejects_one_moved_bin(geometry):
    inst = _instance(geometry)
    bins = inst.true_bins()
    free = np.setdiff1d(np.arange(inst.n), bins)
    far = free[np.argmax(np.abs(free[:, None] - bins[None, :]).min(axis=1))]
    moved = np.sort(np.append(bins[1:], far))
    x = np.zeros(inst.n)
    x[moved] = 1.0
    assert "histogram" in _check(inst, x, moved)
    # a y the truth does not reproduce exactly skips the histogram check;
    # the position match still catches the moved point
    inst.y = inst.y.copy()
    inst.y[-1] += 1.0
    assert "matched" in _check(inst, x, moved)


def test_checker_rejects_scorer_disagreement():
    inst = _instance(udgp.Geometry.TURNPIKE)
    err = _check(inst, inst.true_indicator(), inst.true_bins(), co_p=inst.s - 1)
    assert "score_recovery" in err


def test_checker_rejects_infeasible_x():
    inst = _instance(udgp.Geometry.TURNPIKE)
    bins = inst.true_bins()
    free = np.setdiff1d(np.arange(inst.n), bins)[0]
    for index, value in [(bins[0], 1.5), (free, -0.1), (free, 0.3)]:
        x = inst.true_indicator()
        x[index] = value
        assert "infeasible" in _check(inst, x, bins)
    x = 0.9 * inst.true_indicator()
    assert "infeasible" in _check(inst, x, bins, method="l1pgd")


def test_normalize_is_identity_at_nominal_kernel_time():
    assert normalize(0.8127, NOMINAL_KERNEL_S) == pytest.approx(0.8127, rel=1e-15)
    assert normalize(1.0, 2 * NOMINAL_KERNEL_S) == pytest.approx(0.5)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_traced_counts_match_hand_count(geometry):
    inst = udgp.generate_instance(geometry, 5, 40, 0.0, seed=3)
    config = udgp.SolverConfig(max_iters=200)
    x0 = np.zeros(inst.n)
    x0[[0, 9, 17, 25, 33]] = 1.0
    tracer = Tracer()
    originals = udgp.solver.armijo_step, udgp.model.LagOperator.gradient
    tracer.install(udgp)
    try:
        result = udgp.solver.iht_solve(inst, config, x0)
    finally:
        tracer.uninstall()
    assert (udgp.solver.armijo_step, udgp.model.LagOperator.gradient) == originals
    assert result.stop_reason is not udgp.StopReason.BACKTRACK_EXHAUSTED
    calls = tracer.calls()
    # one Armijo step per recorded iteration; one gradient per iteration
    # plus the one behind the final stationarity residual
    assert calls[NAMES.index("armijo_step")] == result.iterations > 0
    assert tracer.backtracks == int(result.backtrack_trace.sum())
    assert calls[NAMES.index("gradient")] == result.iterations + 1
    assert calls[NAMES.index("iht_solve")] == 1
    self_s = tracer.self_seconds()
    assert np.all(self_s >= 0.0)
    total = tracer.end[0] - tracer.start[0]
    assert self_s.sum() == pytest.approx(total, rel=1e-9)
