"""Reference implementations the tests compare the library against.

Each is the plain, loop-by-loop form of a computation the library does a
faster way: the lag model's forward map and gradient, the L-stationarity
sign check, and a random binary start.
"""

import numpy as np

from udgp import LagOperator, StationarityReport
from udgp.solver import _philox


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
    return StationarityReport(passed=not violations, tol=tol, violations=violations)


def random_support_start(n: int, s: int, seed: int, start_index: int) -> np.ndarray:
    """Indicator of a random s-subset of bins, drawn from the solver's
    per-start stream."""
    rng = _philox(seed, start_index)
    x0 = np.zeros(n)
    x0[rng.choice(n, size=s, replace=False)] = 1.0
    return x0
