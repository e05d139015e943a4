"""Reference implementations the tests compare the library against.

Each is the plain form of a computation the library does a faster way:
the lag model's forward map and gradient, per lag and by the pair and
window kernels rebuilt on every call, the sparse-box projection's
two-scan tie rule, the capped-simplex bisection over all 2n breakpoints,
the projected-gradient loop that evaluates every iterate afresh, under
either offer rule of its pursuit step (the support's own indicator, or
with repair the indicator rebuilt from a declined support), the
L-stationarity sign check, a random binary start, the bin-by-bin
cluster walk of position extraction and the symmetry-aware recovery
count.
"""

import math

import numpy as np

from udgp import Geometry, LagOperator, StationarityReport, solver
from udgp.instances import _ENTRY_FLOOR, _MIN_CLUSTER_MASS
from udgp.solver import (BacktrackExhausted, SolveResult, StopReason, _philox,
                         binary_misfit)


def forward_direct(op: LagOperator, x) -> np.ndarray:
    """Reference forward map: one explicit correlation per lag."""
    x = op._check_x(x)
    n = op.n
    y = np.empty(op.m)
    for i in range(1, n):
        if op.circular:
            y[i - 1] = x @ np.roll(x, -i)
        else:
            y[i - 1] = x[:n - i] @ x[i:]
    return y


def gradient_direct(op: LagOperator, x, y) -> np.ndarray:
    """Reference gradient: accumulates r_i * (shift_i + shift_i^T) x per lag."""
    x = op._check_x(x)
    y = op._check_y(y)
    n = op.n
    r = forward_direct(op, x) - y
    g = np.zeros(n)
    for i in range(1, n):
        if op.circular:
            g += r[i - 1] * (np.roll(x, -i) + np.roll(x, i))
        else:
            g[:n - i] += r[i - 1] * x[i:]
            g[i:] += r[i - 1] * x[:n - i]
    g *= 2.0 / op.m
    return g


def forward_pairs_fresh(op: LagOperator, x) -> np.ndarray:
    """Reference pair-enumeration forward map: the pair lags are built
    from x's support on every call, and summed in the order
    `LagOperator._forward_sparse` sums them, so the two agree bit for
    bit."""
    support = np.flatnonzero(x)
    if support.size < 2:
        return np.zeros(op.m)
    v = x[support]
    i, j = np.triu_indices(support.size, 1)
    lags = support[j] - support[i]
    w = v[i] * v[j]
    if op.circular:
        lags = np.concatenate([lags, op.n - lags])
        w = np.concatenate([w, w])
    return np.bincount(lags - 1, weights=w, minlength=op.m)


def gradient_window_fresh(op: LagOperator, x, r) -> np.ndarray:
    """Reference window gradient for supports within one gather block:
    the lag row, its windows and their starts are built on every call,
    and reach the same GEMV as in `LagOperator._gradient_window`."""
    n, support = op.n, np.flatnonzero(x)
    if op.circular:
        c = np.concatenate(([0.0], r + r[::-1]))
        c, starts = np.concatenate((c, c)), n - support
    else:
        c, starts = np.concatenate((r[::-1], [0.0], r)), (n - 1) - support
    rows = np.lib.stride_tricks.sliding_window_view(c, n)
    g = x[support] @ rows[starts]
    g *= 2.0 / op.m
    return g


def project_sparse_box_two_scan(z, s: int) -> np.ndarray:
    """Reference sparse-box projection: keep every gain strictly above the
    s-th largest, then the lowest-index coordinates at it."""
    z = np.asarray(z, dtype=float)
    n = z.size
    clipped = np.clip(z, 0.0, 1.0)
    if s == n:
        return clipped
    gain = z * z - (z - clipped) ** 2
    cutoff = np.partition(gain, n - s)[n - s]
    keep = np.flatnonzero(gain > cutoff)
    short = s - keep.size
    if short > 0:
        keep = np.concatenate([keep, np.flatnonzero(gain == cutoff)[:short]])
    x = np.zeros(n)
    x[keep] = clipped[keep]
    return x


def capped_simplex_bisection(z, s: int) -> tuple[np.ndarray, float]:
    """Reference capped-simplex projection: sort all 2n breakpoints and
    bisect them with the clipped sum.  Returns (x, lam)."""
    z = np.asarray(z, dtype=float)
    n = z.size

    def cap_sum(lam: float) -> float:
        return float(np.clip(z + lam, 0.0, 1.0).sum())

    bp = np.concatenate([-z, 1.0 - z])
    bp.sort()
    # cap_sum(bp[0]) == 0 and cap_sum(bp[-1]) == n, so s is bracketed
    lo, hi = 0, 2 * n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cap_sum(bp[mid]) < s:
            lo = mid
        else:
            hi = mid
    s_lo, s_hi = cap_sum(bp[lo]), cap_sum(bp[hi])
    if s_hi <= s_lo:
        lam = float(bp[lo])
    else:
        frac = (s - s_lo) / (s_hi - s_lo)
        lam = float(bp[lo] + frac * (bp[hi] - bp[lo]))
    return np.clip(z + lam, 0.0, 1.0), lam


def armijo_step_reference(x, grad, f_x, instance, project, tau0):
    """Reference Armijo search: each candidate through `objective`.  The
    step rule's constants are read from `udgp.solver` at each call, so a
    test that patches one patches it here too.

    Returns (x_next, f_next, tau, t)."""
    op, y = instance.op, instance.y
    for t in range(solver._MAX_BACKTRACKS + 1):
        tau = tau0 * solver._ALPHA**t
        x_next = project(x - tau * grad)
        f_next = op.objective(x_next, y)
        diff = x - x_next
        if f_x - f_next >= 0.5 * solver._DELTA * float(diff @ diff):
            return x_next, f_next, tau, t
    raise BacktrackExhausted("no backtrack exponent gave sufficient decrease")


def pursuit_step_reference(x, f_x, instance, repair=False):
    """Reference pursuit step: the indicator x_b of x's support, scored by
    `binary_misfit` and evaluated through `objective`.  With repair, an
    x_b that does not fit y exactly is replaced by
    `solver._repair(instance, x, 0)`, if that finds one.

    Returns (x_b, f(x_b), tau, t) if x_b fits y exactly and passes the
    sufficient-decrease rule from x, else None."""
    xb = (np.asarray(x) != 0.0).astype(float)
    if binary_misfit(instance, xb) != 0.0:
        xb = solver._repair(instance, x, 0) if repair else None
        if xb is None:
            return None
    f_b = instance.op.objective(xb, instance.y)
    if f_x - f_b < 0.5 * solver._DELTA * float((x - xb) @ (x - xb)):
        return None
    return xb, f_b, solver._GAMMA, 0


def descend_reference(instance, x0, project, max_iters, tau0, epsilon,
                      repair=False) -> SolveResult:
    """Reference projected-gradient loop: every iterate's objective and
    gradient are computed afresh from x, nothing is carried over.  An
    iterate after the first with s nonzeros, on a support not offered
    before, is offered to `pursuit_step_reference`; a pursuit step taken
    ends the loop.  With repair the offer repairs a declined support, and
    is keyed on the support plus which of its entries exceed 0.5, so it
    is made again whenever either changes.  Like `_descend`, it leaves
    the stationarity residual nan (see `residual_reference`)."""
    op, y = instance.op, instance.y
    x = np.array(x0, dtype=float)
    f_x = op.objective(x, y)
    obj_trace, tau_trace, bt_trace, step_trace = [f_x], [], [], []
    stop = StopReason.MAX_ITERS
    offered = None
    for k in range(max_iters):
        pursuit = None
        support = tuple(np.flatnonzero(x))
        key = (support, tuple(x[list(support)] > 0.5)) if repair else support
        if k > 0 and len(support) == instance.s and key != offered:
            offered = key
            pursuit = pursuit_step_reference(x, f_x, instance, repair)
        if pursuit is not None:
            x_next, f_next, tau, t = pursuit
        else:
            grad = op.gradient(x, y)
            try:
                x_next, f_next, tau, t = armijo_step_reference(
                    x, grad, f_x, instance, project, tau0)
            except BacktrackExhausted:
                stop = StopReason.BACKTRACK_EXHAUSTED
                break
        diff = x - x_next
        final_step = math.sqrt(float(diff @ diff))
        x, f_x = x_next, f_next
        obj_trace.append(f_x)
        tau_trace.append(tau)
        bt_trace.append(t)
        step_trace.append(final_step)
        if pursuit is not None or final_step <= epsilon:
            stop = StopReason.CONVERGED
            break
    return SolveResult(
        x_final=x,
        objective_trace=np.asarray(obj_trace),
        step_size_trace=np.asarray(tau_trace),
        backtrack_trace=np.asarray(bt_trace, dtype=int),
        step_norm_trace=np.asarray(step_trace),
        stationarity_residual=math.nan,
        stop_reason=stop,
    )


def residual_reference(instance, result, project, tau0) -> float:
    """||x - project(x - tau * grad f(x))|| at result's answer x and last
    step size tau (tau0 if it took no step), from a fresh gradient."""
    x = result.x_final
    tau = result.step_size_trace[-1] if result.iterations else tau0
    g = instance.op.gradient(x, instance.y)
    return float(np.linalg.norm(x - project(x - tau * g)))


def check_l_stationarity_loop(x, instance, tol: float = 1e-6) -> StationarityReport:
    """Reference `check_l_stationarity`: one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = instance.op.gradient(x, instance.y)
    nnz = np.count_nonzero(x)
    violations = []
    for p in range(x.size):
        if 0.0 < x[p] < 1.0:
            if abs(g[p]) > tol:
                violations.append(("interior_grad_nonzero", p, float(g[p])))
        elif x[p] >= 1.0:
            if g[p] > tol:
                violations.append(("upper_bound_grad_positive", p, float(g[p])))
        elif nnz < instance.s:
            if g[p] < -tol:
                violations.append(("zero_grad_negative", p, float(g[p])))
    return StationarityReport(passed=not violations, violations=violations)


def random_support_start(n: int, s: int, seed: int, start_index: int) -> np.ndarray:
    """Indicator of a random s-subset of bins, drawn from the solver's
    per-start stream."""
    rng = _philox(seed, start_index, 0)
    x0 = np.zeros(n)
    x0[rng.choice(n, size=s, replace=False)] = 1.0
    return x0


def extract_positions_walk(x, n: int, geometry: Geometry) -> np.ndarray:
    """Reference `extract_positions`: each run found by walking from its
    first bin one bin at a time; a run that wraps past bin n-1 on the
    circle keeps counting on past n, and a fully occupied circle is the
    single run 0..n-1."""
    w = np.asarray(x, dtype=float).copy()
    w[w < _ENTRY_FLOOR] = 0.0
    nz = w > 0.0
    if not nz.any():
        return np.zeros(0)
    circular = geometry is Geometry.BELTWAY
    if nz.all():
        runs = [np.arange(n)]
    else:
        prev = np.roll(nz, 1) if circular else np.concatenate([[False], nz[:-1]])
        runs = []
        for st in np.flatnonzero(nz & ~prev):
            length = 0
            while nz[(st + length) % n] if circular else (st + length < n and nz[st + length]):
                length += 1
            runs.append(st + np.arange(length))
    centers = []
    for ids in runs:
        vals = w[ids % n]
        mass = vals.sum()
        if mass < _MIN_CLUSTER_MASS:
            continue
        k = max(1, int(round(mass)))
        if k == 1 or k >= len(ids):
            picked = [float((vals * ids).sum() / mass)] if k == 1 else list(ids)
        else:
            order = np.argsort(-vals, kind="stable")[:k]
            picked = list(ids[np.sort(order)])
        for c in picked:
            if geometry is Geometry.TURNPIKE:
                centers.append(float(c) / (n - 1))
            else:
                centers.append((float(c) % n) / n)
    return np.sort(np.asarray(centers))


def aligned_count(true_bins, est_bins, shifts, n: int, circular: bool) -> np.ndarray:
    """Per shift, how many true bins have a shifted estimate strictly within
    half the minimum true gap (all in bin units, circular on the circle)."""
    t = np.sort(np.asarray(true_bins, dtype=float))
    gaps = np.diff(t, append=t[0] + n) if circular else np.diff(t)
    e = np.asarray(est_bins, dtype=float)
    c = np.asarray(shifts, dtype=float)
    d = np.abs(t[None, :, None] - e[None, None, :] - c[:, None, None])
    if circular:
        d %= n
        d = np.minimum(d, n - d)
    return (d < 0.5 * gaps.min()).any(axis=2).sum(axis=1)


def brute_force_co_p(true_bins, est_bins, n: int, circular: bool) -> int:
    """Reference Co.P for integer estimate bins: every shift on a quarter-bin
    grid, for the estimate and its reflection.

    With integer bins and a threshold that is a multiple of half a bin,
    every point where the count can change, t - e +/- threshold, is a
    multiple of half a bin, so each stretch between two of them holds a
    multiple of a quarter bin.  Integer shifts alone are not enough: when
    the threshold is a whole number of bins the best alignment can lie
    strictly between two of them.
    """
    t = np.asarray(true_bins, dtype=float)
    e = np.asarray(est_bins, dtype=float)
    if e.size == 0:
        return 0
    best = 0
    for base in (e, -e):
        if circular:
            shifts = np.arange(0.0, n, 0.25)
        else:
            lo = np.floor(t.min() - base.max()) - n
            shifts = np.arange(lo, t.max() - base.min() + n, 0.25)
        best = max(best, int(aligned_count(t, base, shifts, n, circular).max()))
    return best
