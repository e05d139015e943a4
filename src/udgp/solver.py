"""Projected gradient solvers for the lag-histogram model.

`iht_solve` runs hard-thresholding projected gradient descent: each step
projects x - tau * grad(x) onto the s-sparse unit box, with tau picked by
a backtracking line search that enforces the sufficient-decrease rule

    f(x_k) - f(x_{k+1}) >= (delta/2) * ||x_k - x_{k+1}||^2.

`l1pgd_solve` is the comparison baseline: the identical loop, but
projecting onto the capped simplex {x in [0,1]^n : sum x = s}.  Both stop
when the step norm drops to epsilon, the iteration cap is hit, or the
line search exhausts its budget.

The model is nonconvex and has spurious stationary points (the zero
vector among them), so `multi_start` runs the solver from several starts
built around an anchored pair of bins and keeps the best objective.
`stationarity_residual` and `check_l_stationarity` verify the fixed-point
and sign conditions a converged iterate must satisfy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .projections import project_capped_simplex, project_sparse_box

_U64 = 0xFFFFFFFFFFFFFFFF


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    BACKTRACK_EXHAUSTED = "backtrack_exhausted"


class BacktrackExhausted(Exception):
    """No backtracking exponent satisfied the decrease rule.

    A suitable exponent always exists mathematically, so hitting this
    means max_backtracks is too small or the iterate is numerically bad.
    """


class NumericError(RuntimeError):
    """Non-finite objective; carries the offending iterate for inspection."""

    def __init__(self, message: str, iterate: np.ndarray, iteration: int):
        super().__init__(message)
        self.iterate = iterate
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Hyperparameters shared by both solvers.

    gamma is the base step, alpha the backtracking ratio (step t uses
    gamma * alpha^t), delta the sufficient-decrease constant, epsilon the
    step-norm stopping tolerance.

    The remaining fields drive `multi_start`: restarts is the number of
    extra starts, and seed keys the random draws that vary them.
    """

    gamma: float = 0.99
    alpha: float = 0.5
    delta: float = 1e-4
    epsilon: float = 1e-8
    max_iters: int = 5000
    max_backtracks: int = 60
    restarts: int = 49
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be >= 1, got {self.max_backtracks}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")


@dataclass
class SolveResult:
    x_final: np.ndarray
    objective_trace: np.ndarray        # f(x_0), f(x_1), ... (nonincreasing)
    step_size_trace: np.ndarray        # accepted tau per iteration
    backtrack_trace: np.ndarray        # accepted backtrack exponent per iteration
    step_norm_trace: np.ndarray        # ||x_{k+1} - x_k|| per iteration
    final_step_norm: float             # last step norm at stop; nan if no step ran
    stationarity_residual: float
    stop_reason: StopReason
    wall_time_seconds: float
    start_index: int = 0

    @property
    def f_final(self) -> float:
        return float(self.objective_trace[-1])

    @property
    def iterations(self) -> int:
        return len(self.step_size_trace)


def armijo_step(x, grad, f_x, instance, config, project):
    """Smallest backtracking exponent passing the sufficient-decrease rule.

    Tries t = 0, 1, ..., max_backtracks; for each, forms the candidate
    project(x - gamma * alpha^t * grad) and accepts the first one whose
    objective drop is at least (delta/2) times the squared step length.

    Returns (x_next, f_next, tau, t).  Raises BacktrackExhausted if no
    exponent works.
    """
    op, y = instance.op, instance.y
    for t in range(config.max_backtracks + 1):
        tau = config.gamma * config.alpha**t
        x_next = project(x - tau * grad)
        f_next = op.objective(x_next, y)
        diff = x - x_next
        if f_x - f_next >= 0.5 * config.delta * float(diff @ diff):
            return x_next, f_next, tau, t
    raise BacktrackExhausted(
        f"no backtrack exponent t <= {config.max_backtracks} gave sufficient decrease"
    )


def _fixed_point_residual(x, tau, instance, project) -> float:
    """||x - project(x - tau * grad f(x))||, zero at a fixed point."""
    g = instance.op.gradient(x, instance.y)
    return float(np.linalg.norm(x - project(x - tau * g)))


def _descend(instance, config, x0, project) -> SolveResult:
    """Shared projected-gradient loop; `project` fixes the feasible set."""
    op, y = instance.op, instance.y
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    f_x = op.objective(x, y)
    obj_trace = [f_x]
    tau_trace: list[float] = []
    bt_trace: list[int] = []
    step_trace: list[float] = []
    stop = StopReason.MAX_ITERS
    final_step = math.nan
    last_tau = config.gamma
    for k in range(config.max_iters):
        if not math.isfinite(f_x):
            raise NumericError(
                f"objective became non-finite ({f_x}) at iteration {k}", x, k
            )
        grad = op.gradient(x, y)
        try:
            x_next, f_next, tau, t = armijo_step(x, grad, f_x, instance, config, project)
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
        last_tau = tau
        if final_step <= config.epsilon:
            stop = StopReason.CONVERGED
            break
    resid = _fixed_point_residual(x, last_tau, instance, project)
    return SolveResult(
        x_final=x,
        objective_trace=np.asarray(obj_trace),
        step_size_trace=np.asarray(tau_trace),
        backtrack_trace=np.asarray(bt_trace, dtype=int),
        step_norm_trace=np.asarray(step_trace),
        final_step_norm=final_step,
        stationarity_residual=resid,
        stop_reason=stop,
        wall_time_seconds=time.perf_counter() - t0,
    )


def iht_solve(instance, config: SolverConfig, x0) -> SolveResult:
    """Hard-thresholding projected gradient descent from a feasible x0."""
    s = instance.s
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 < 0.0) or np.any(x0 > 1.0):
        raise ValueError("x0 must lie in the unit box")
    if np.count_nonzero(x0) > s:
        raise ValueError(f"x0 has more than s={s} nonzeros")
    return _descend(instance, config, x0, lambda z: project_sparse_box(z, s))


def l1pgd_solve(instance, config: SolverConfig, x0) -> SolveResult:
    """Projected gradient descent on the capped simplex (the l1 baseline).

    x0 is projected onto the feasible set first if it is not already on
    it.  Iterates are generally dense; the recovery pipeline handles the
    fractional mass when extracting positions.
    """
    s = instance.s
    x0 = np.asarray(x0, dtype=float)
    if (np.any(x0 < 0.0) or np.any(x0 > 1.0)
            or abs(float(x0.sum()) - s) > 1e-9):
        x0 = project_capped_simplex(x0, s)
    return _descend(instance, config, x0, lambda z: project_capped_simplex(z, s))


def stationarity_residual(x, tau: float, instance) -> float:
    """Distance from x to the projected gradient point it should equal.

    Zero exactly when x satisfies the fixed-point inclusion
    x = P(x - tau * grad f(x)) under the projection's deterministic tie
    rule.  Note the zero vector is a spurious fixed point: its gradient
    vanishes, so the residual is zero there even though the data misfit
    is not.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    s = instance.s
    return _fixed_point_residual(np.asarray(x, dtype=float), tau, instance,
                                 lambda z: project_sparse_box(z, s))


_VIOLATION_KINDS = ("interior_grad_nonzero", "upper_bound_grad_positive",
                    "zero_grad_negative")


@dataclass
class StationarityReport:
    passed: bool
    tol: float
    violations: list = field(default_factory=list)  # (kind, index, gradient value)


def check_l_stationarity(x, instance, tol: float = 1e-6) -> StationarityReport:
    """Sign conditions on the gradient at a candidate stationary point.

    For coordinates strictly inside (0,1) the partial derivative must
    vanish; at the upper bound it must be <= 0; at a zero coordinate that
    can belong to a super support it must be >= 0.  When x already has s
    nonzeros the support is its only super support, so zero coordinates
    are unconstrained; when nnz(x) < s every zero coordinate is checked.
    """
    x = np.asarray(x, dtype=float)
    g = instance.op.gradient(x, instance.y)
    interior = (x > 0.0) & (x < 1.0)
    upper = x >= 1.0
    bad = (interior & (np.abs(g) > tol)) | (upper & (g > tol))
    if np.count_nonzero(x) < instance.s:
        bad |= ~(interior | upper) & (g < -tol)
    kind = np.where(interior, 0, np.where(upper, 1, 2))
    violations = [(_VIOLATION_KINDS[kind[p]], int(p), float(g[p]))
                  for p in np.flatnonzero(bad)]
    return StationarityReport(passed=not violations, tol=tol, violations=violations)


def _philox(seed: int, start: int, stage: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (seed, start, stage): every start and
    growth stage is reproducible on its own, independent of run order."""
    key = (((int(seed) & _U64) << 64)
           | ((int(start) & 0xFFFFFFFF) << 32) | (int(stage) & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


def is_exact_binary_fit(instance, x) -> bool:
    """Whether rounding x to an indicator reproduces the histogram exactly.

    This is the decisive recovery check: a rounded iterate either matches
    the integer lag counts or it does not, with no tolerance involved.
    """
    xb = (np.asarray(x, dtype=float) > 0.5).astype(float)
    if np.count_nonzero(xb) > instance.s:
        return False
    return bool(np.array_equal(instance.op.forward(xb),
                               np.asarray(instance.y, dtype=float)))


def anchor_bins(instance, start_index: int = 0) -> tuple[int, ...]:
    """Two grid bins every search can assume occupied, up to symmetry.

    The histogram never determines absolute position, so bin 0 can be
    pinned outright.  On the segment the largest observed lag is realized
    by the extreme pair, putting a second point at that lag from the
    leftmost one.  On the circle any occupied lag gives a valid second
    point; starts cycle through them from the widest minor arc down.
    """
    observed = np.flatnonzero(np.asarray(instance.y) > 0) + 1
    if observed.size == 0:
        return (0,)
    if instance.op.circular:
        minor = np.minimum(observed, instance.n - observed)
        order = np.argsort(-minor, kind="stable")
        return (0, int(observed[order[start_index % order.size]]))
    return (0, int(observed.max()))


_ENTRY_CHOICES = 3          # randomized starts pick among this many entry bins
_POLISH_THRESHOLD = 1e-6    # near-fits below this get a binary-rounding polish
_F_STOP = 1e-12             # an exact fit at or below this ends the restarts
_STAGE_EPSILON = 1e-3       # step-norm tolerance of the growth-stage solves
_STAGE_MAX_ITERS = 300      # iteration cap of the growth-stage solves


def _guided_iht_start(instance, config: SolverConfig, start: int) -> SolveResult:
    """One guided start: grow the support point by point, then solve at s.

    Begins from the anchored pair and raises the sparsity budget one unit
    at a time; each stage runs a short, loose descent during which the
    projection births (at most) one new support coordinate where the
    current residual wants it.  Start 0 lets every stage take its
    greedy-best entry; later starts pick the entering bin among the top
    few candidates with a seeded draw, and on the circle also rotate the
    anchor lag.
    """
    n, s = instance.n, instance.s
    x = np.zeros(n)
    x[list(anchor_bins(instance, start))] = 1.0
    stage_config = replace(config, epsilon=_STAGE_EPSILON,
                           max_iters=min(_STAGE_MAX_ITERS, config.max_iters))
    for sp in range(2, s):
        if start > 0 and np.count_nonzero(x) < sp:
            g = instance.op.gradient(x, instance.y)
            g = np.where(x > 0, np.inf, g)
            cand = np.argpartition(g, _ENTRY_CHOICES)[:_ENTRY_CHOICES]
            cand = cand[np.argsort(g[cand], kind="stable")]
            pick = int(_philox(config.seed, start, sp).integers(0, cand.size))
            x = x.copy()
            x[cand[pick]] = 1.0
        x = _descend(instance, stage_config, x,
                     lambda z: project_sparse_box(z, sp)).x_final
    return iht_solve(instance, config, x)


def _anchored_support_start(instance, seed: int, start: int) -> np.ndarray:
    """Binary start holding the anchored pair plus a random fill."""
    n, s = instance.n, instance.s
    anchors = list(anchor_bins(instance, start))
    x0 = np.zeros(n)
    x0[anchors] = 1.0
    pool = np.setdiff1d(np.arange(n), anchors)
    rng = _philox(seed, start)
    x0[rng.choice(pool, size=s - len(anchors), replace=False)] = 1.0
    return x0


def multi_start(instance, config: SolverConfig, method: str = "iht") -> SolveResult:
    """Best-of-several-starts driver for either solver.

    Runs config.restarts + 1 starts and returns the result with the
    lowest final objective (earliest start wins ties).  Hard-thresholding
    starts grow the support from the anchored pair (see
    `_guided_iht_start`); the baseline starts from the anchored pair plus
    a random fill.  A result whose objective is at or below a vanishing
    level gets its confident mass rounded to an indicator and
    re-descended; once a start reproduces the histogram exactly,
    remaining restarts are skipped.  Numeric failures in individual
    starts are swallowed unless every start fails.
    """
    if method not in ("iht", "l1pgd"):
        raise ValueError(f"unknown method {method!r}")
    solve = iht_solve if method == "iht" else l1pgd_solve
    best: SolveResult | None = None
    last_error: NumericError | None = None
    for start in range(config.restarts + 1):
        try:
            if method == "iht":
                result = _guided_iht_start(instance, config, start)
            else:
                result = solve(instance, config,
                               _anchored_support_start(instance, config.seed, start))
            if (result.f_final <= _POLISH_THRESHOLD
                    and not is_exact_binary_fit(instance, result.x_final)):
                xb = (result.x_final > 0.5).astype(float)
                if np.count_nonzero(xb) <= instance.s:
                    polished = solve(instance, config, xb)
                    if polished.f_final < result.f_final:
                        result = polished
        except NumericError as err:
            last_error = err
            continue
        result.start_index = start
        if best is None or result.f_final < best.f_final:
            best = result
        if best.f_final <= _F_STOP and is_exact_binary_fit(instance, best.x_final):
            break
    if best is None:
        assert last_error is not None
        raise last_error
    return best
