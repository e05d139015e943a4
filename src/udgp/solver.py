"""Projected gradient solvers for the lag-histogram model.

`iht_solve` runs hard-thresholding projected gradient descent: each step
projects x - tau * grad(x) onto the s-sparse unit box, with tau picked by
a backtracking line search that enforces the sufficient-decrease rule

    f(x_k) - f(x_{k+1}) >= (delta/2) * ||x_k - x_{k+1}||^2.

`l1pgd_solve` is the comparison baseline: the identical loop, but
projecting onto the capped simplex {x in [0,1]^n : sum x = s}.  Both stop
when the step norm drops to epsilon, the iteration cap is hit, or the
line search exhausts its budget, and both stop at the first exact fit
they reach on s points: once an iterate holds exactly s nonzeros, the
0/1 indicator of its support is tried, and if its histogram equals y it
is taken as the last step, as in hard thresholding pursuit (Foucart,
SIAM J. Numer. Anal. 2011).  That indicator has f = 0 and grad f = 0, so
the descent ends at a fixed point of either projection.

The model is nonconvex and has spurious stationary points (the zero
vector among them), so `multi_start` runs either method from several
starts.  Each start is grown from an anchored pair of bins by
hard-thresholding stages that do not depend on the method, then
finished by `_descend` with the method's projection.  A start *fits*
when its rounded support {x > 0.5} holds s points whose histogram
misfits y, in L1, by no more than the noise can explain
(`misfit_budget`: 0 on noise-free data, so there a fit is an exact
one).  The first start that fits ends the restarts; if none does, the
best objective wins.  A start that fails usually misses only a few
points, or holds the right points moved as a block, so `_repair`
re-anchors its rounded support and completes it point by point where
hard-thresholding steps would birth them (`_entries`).
`multi_start`'s descents try that repair as soon as an s-point support
they offer does not fit y exactly, and take the repaired indicator as
the pursuit step instead; they offer again each time the iterate's
rounded support changes, so the repair sees every rounded support the
descent passes through.  A start that still does not fit is repaired
once more before a restart, within the noise budget, and a fit found
that way is descended from once more with the method's projection.
`iht_solve` and `l1pgd_solve`, called on their own, never repair.
Each returned `SolveResult` carries its answer's fixed-point residual
||x - P(x - tau * grad f(x))||; the acceptance suite's criterion 9
verifies the paper's L-stationarity conditions with `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from .projections import (capped_simplex_kept, project_capped_simplex,
                          project_sparse_box, sparse_box_kept)

_U64 = 0xFFFFFFFFFFFFFFFF


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    BACKTRACK_EXHAUSTED = "backtrack_exhausted"


class BacktrackExhausted(Exception):
    """No backtracking exponent satisfied the decrease rule.

    A suitable exponent always exists mathematically, so hitting this
    means `_MAX_BACKTRACKS` is too small or the iterate is numerically bad.
    """


class NumericError(RuntimeError):
    """Non-finite objective at a descent's start, which only y can cause
    (see `_descend`); carries that start for inspection."""

    def __init__(self, message: str, iterate: np.ndarray):
        super().__init__(message)
        self.iterate = iterate


_GAMMA = 0.99           # the solvers' base step
_ALPHA = 0.5            # backtracking ratio: try t uses tau0 * _ALPHA^t
_DELTA = 1e-4           # sufficient-decrease constant
_EPSILON = 1e-8         # step-norm tolerance of the solvers' descents
_MAX_BACKTRACKS = 60    # tries per step after t = 0


@dataclass
class SolverConfig:
    """What callers choose per solve: max_iters caps each descent's steps,
    restarts is the number of extra starts `multi_start` runs, and seed
    keys the random draws that vary them.  The step rule is fixed (`_GAMMA`,
    `_ALPHA`, `_DELTA`, `_EPSILON`, `_MAX_BACKTRACKS`)."""

    max_iters: int = 5000
    restarts: int = 49
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")


@dataclass
class SolveResult:
    x_final: np.ndarray
    objective_trace: np.ndarray        # f(x_0), f(x_1), ... (nonincreasing)
    step_size_trace: np.ndarray        # accepted tau per iteration
    backtrack_trace: np.ndarray        # accepted backtrack exponent per iteration
    step_norm_trace: np.ndarray        # ||x_{k+1} - x_k|| per iteration
    stationarity_residual: float
    stop_reason: StopReason
    start_index: int = 0
    starts_run: int = 1                # starts `multi_start` ran to get this
    total_iterations: int = 0          # steps of every descent behind this

    @property
    def f_final(self) -> float:
        return float(self.objective_trace[-1])

    @property
    def iterations(self) -> int:
        return len(self.step_size_trace)

    @property
    def final_step_norm(self) -> float:
        """Last step norm at stop; nan if no step ran."""
        trace = self.step_norm_trace
        return float(trace[-1]) if trace.size else math.nan


class Step(NamedTuple):
    """An accepted step, Armijo or pursuit, and the evaluation of its iterate."""

    x: np.ndarray           # the accepted iterate x_next
    f: float                # f(x_next)
    tau: float              # accepted step size tau0 * alpha^t
    t: int                  # accepted backtrack exponent
    step_sq: float          # ||x - x_next||^2
    r: np.ndarray           # residual forward(x_next) - y
    support: np.ndarray     # flatnonzero(x_next)


def armijo_step(x, grad, f_x, instance, project, tau0, support=None) -> Step:
    """Smallest backtracking exponent passing the sufficient-decrease rule.

    Tries t = 0, 1, ..., `_MAX_BACKTRACKS`; for each, forms the candidate
    project(x - tau0 * _ALPHA^t * grad) and accepts the first one whose
    objective drop is at least (_DELTA/2) times the squared step length.
    The solvers' base step tau0 is `_GAMMA`, growth stages' is
    _GAMMA * `_stage_scale`.

    Each candidate is evaluated once (`LagOperator.evaluate`), and the
    accepted one's residual and support come back in the `Step`, so the
    caller's next `gradient` at x_next needs no forward pass.  Raises
    BacktrackExhausted if no exponent works.

    When project is partial(project_sparse_box, s=...) or
    partial(project_capped_simplex, s=...) and support, x's support S, is
    neither empty nor all n bins, each try is first offered to that set's
    support-kept entry point (`sparse_box_kept`, `capped_simplex_kept`),
    handed the least grad off S, found once per step.  A try it forms is
    evaluated on its support alone (`LagOperator._evaluate`); a try it
    declines takes the general path, and the Step is the same bit for bit
    either way.
    """
    op, y = instance.op, instance.y
    func = getattr(project, "func", None)
    kept = (sparse_box_kept if func is project_sparse_box
            else capped_simplex_kept if func is project_capped_simplex
            else None)
    if kept and support is not None and 0 < support.size < x.size:
        rest = grad.copy()
        rest[support] = np.inf
        kept = kept(x, grad, support, rest.min(), project.keywords["s"])
    else:
        kept = None
    for t in range(_MAX_BACKTRACKS + 1):
        tau = tau0 * _ALPHA**t
        tried = kept(tau) if kept else None
        if tried is not None:
            x_next, on = tried
            f_next, r, s_next = op._evaluate(x_next, on, y)
        else:
            x_next = project(x - tau * grad)
            f_next, r, s_next = op.evaluate(x_next, y)
        diff = x - x_next
        step_sq = float(diff @ diff)
        if f_x - f_next >= 0.5 * _DELTA * step_sq:
            return Step(x_next, f_next, tau, t, step_sq, r, s_next)
    raise BacktrackExhausted(
        f"no backtrack exponent t <= {_MAX_BACKTRACKS} gave sufficient decrease"
    )


def _settled(result, instance, project) -> SolveResult:
    """result with its answer's fixed-point residual at its last step size
    tau (`_GAMMA` if it took none), ||x - project(x - tau * grad f(x))||,
    zero at a fixed point, which only returned results pay for."""
    tau = float(result.step_size_trace[-1]) if result.iterations else _GAMMA
    x = result.x_final
    g = instance.op.gradient(x, instance.y)
    result.stationarity_residual = float(
        np.linalg.norm(x - project(x - tau * g)))
    return result


def _pursuit_step(x, f_x, support, instance, repair) -> Step | None:
    """Hard thresholding pursuit's last step from an s-point iterate x.

    On a support S of s bins the least-squares fit that hard thresholding
    pursuit solves for is, when S is an answer, S's indicator x_b: its lag
    counts equal y, so f(x_b) = 0 and grad f(x_b) = 0, a fixed point of
    either projection and a global minimiser.  Returns x_b as an accepted
    step (objective 0, step size `_GAMMA`, exponent 0) when it fits y exactly
    (`_fits` with budget 0) and passes the sufficient-decrease rule from
    x; otherwise None.  With `repair`, an x_b that does not fit is replaced
    by `_repair(instance, x, 0)`, the indicator rebuilt from x's rounded
    support, which is offered under the same test.  `_descend` calls this
    again whenever that rounded support changes, since the repair's
    answer depends on it; without `repair` the answer depends on the
    support alone, so it is offered again only when the support changes.
    """
    xb = np.zeros(instance.n)
    xb[support] = 1.0
    if not _fits(instance, xb, 0):
        xb = _repair(instance, x, 0) if repair else None
        if xb is None:
            return None
        support = np.flatnonzero(xb)
    diff = x - xb
    step_sq = float(diff @ diff)
    if f_x < 0.5 * _DELTA * step_sq:
        return None
    return Step(xb, 0.0, _GAMMA, 0, step_sq, np.zeros(instance.op.m), support)


def _descend(instance, x0, project, max_iters, tau0, epsilon,
             repair=False) -> SolveResult:
    """Projected-gradient loop over `project`'s set: at most max_iters
    Armijo steps (`armijo_step`) from base step tau0.

    x0 is evaluated once; after that each iterate's objective, residual
    and support come from the Armijo step that accepted it, so every
    iteration costs one gradient plus one projection and one evaluation
    per candidate tried, and no iterate is evaluated twice.  The support
    is handed to `armijo_step`, so on either solver's set a candidate
    that no bin off it enters is formed and evaluated on it alone.

    A non-finite f(x0) raises NumericError, the only finiteness check:
    later iterates lie in [0,1]^n, with lag counts of at most n, so f is
    finite there exactly when it is at a finite x0.

    The loop stops at a step no longer than epsilon, or at an exact fit:
    when an accepted iterate holds exactly s points on a support other
    than the last one offered, its indicator is offered as the next step
    (`_pursuit_step`), and if it is taken the descent ends there,
    CONVERGED at a fixed point.  With `repair`, an offered indicator that
    does not fit is replaced by the one `_repair` rebuilds from the
    iterate's rounded support (see `_pursuit_step`), and the offer is
    keyed on that rounded support too: it is made again whenever the set
    of the s support entries above 0.5 changes, a test that reads those
    s entries rather than all n.  `multi_start`, which runs this loop
    directly with its method's projection at s, turns it on; the public
    solvers leave it off, so each of their steps is one Armijo step or a
    pursuit step to the iterate's own support.
    `project`'s set must hold that indicator whenever an iterate has s
    points: both solvers' sets do, and growth stages, projecting onto
    fewer than s points, never offer it.  The stationarity residual is
    left nan for the caller that returns the result (`_settled`).
    """
    op, y = instance.op, instance.y
    x = np.array(x0, dtype=float)
    f_x, r, support = op.evaluate(x, y)
    if not math.isfinite(f_x):
        raise NumericError(f"objective is non-finite ({f_x}) at the start", x)
    obj_trace, tau_trace, bt_trace, step_trace = [f_x], [], [], []
    stop = StopReason.MAX_ITERS
    offered = None  # offer key (see docstring) of the last iterate offered
    for k in range(max_iters):
        step = None
        if k and support.size == instance.s:
            key = support.tobytes()
            if repair:
                key += (x[support] > 0.5).tobytes()
            if key != offered:
                offered = key
                step = _pursuit_step(x, f_x, support, instance, repair)
        pursued = step is not None
        if not pursued:
            grad = op.gradient(x, y, r, support)
            try:
                step = armijo_step(x, grad, f_x, instance, project, tau0,
                                   support)
            except BacktrackExhausted:
                stop = StopReason.BACKTRACK_EXHAUSTED
                break
        x, f_x, r, support = step.x, step.f, step.r, step.support
        obj_trace.append(f_x)
        tau_trace.append(step.tau)
        bt_trace.append(step.t)
        step_trace.append(math.sqrt(step.step_sq))
        if pursued or step_trace[-1] <= epsilon:
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
        total_iterations=len(tau_trace),
    )


def iht_solve(instance, config: SolverConfig, x0) -> SolveResult:
    """Hard-thresholding projected gradient descent from a feasible x0."""
    s = instance.s
    x0 = np.asarray(x0, dtype=float)
    if not np.all((x0 >= 0.0) & (x0 <= 1.0)):  # NaN fails too
        raise ValueError("x0 must lie in the unit box")
    if np.count_nonzero(x0) > s:
        raise ValueError(f"x0 has more than s={s} nonzeros")
    project = partial(project_sparse_box, s=s)
    return _settled(_descend(instance, x0, project, config.max_iters, _GAMMA,
                             _EPSILON), instance, project)


def l1pgd_solve(instance, config: SolverConfig, x0) -> SolveResult:
    """Projected gradient descent on the capped simplex (the l1 baseline).

    x0 must be finite, and is projected onto the feasible set first: an
    s-point indicator comes back bit for bit, a feasible fractional x0
    within rounding.  Iterates are fractional, dense at first and a few
    dozen bins wide late in a descent; the recovery pipeline handles the
    fractional mass when extracting positions.
    """
    s = instance.s
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    project = partial(project_capped_simplex, s=s)
    return _settled(_descend(instance, project(x0), project, config.max_iters,
                             _GAMMA, _EPSILON), instance, project)


def _philox(seed: int, start: int, stage: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, start, stage): every start and
    growth stage is reproducible on its own, independent of run order."""
    key = (((int(seed) & _U64) << 64)
           | ((int(start) & 0xFFFFFFFF) << 32) | (int(stage) & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(key=key))


def binary_misfit(instance, x) -> float:
    """L1 misfit sum |forward(x_b) - y| of x's rounded support x_b = {x > 0.5}.

    The lag counts of an indicator are integers, so they are rounded:
    the FFT path's rounding error cannot make an exact fit look inexact.
    """
    xb = (np.asarray(x, dtype=float) > 0.5).astype(float)
    return float(np.abs(np.rint(instance.op.forward(xb)) - instance.y).sum())


_NOISE_TAIL = 1e-3  # chance that noise alone misfits the true set past the budget


def misfit_budget(instance) -> int:
    """The L1 misfit between y and its true set's histogram that the
    distance noise alone explains, or 0.

    A distance with N(0, xi^2) noise moves to another lag when the noise
    crosses a half-bin, which happens with probability
    p = erfc(1 / (2 sqrt(2) * scale * xi)), scale being n-1 on the
    segment and n on the circle.  Each such crossing costs the true set
    2 of misfit (4 on the circle, where both complementary lags move).
    The budget is that cost times q, the smallest count with
    BinomCDF(q; s(s-1)/2, p) >= 1 - `_NOISE_TAIL`.  It applies only while
    it stays below the misfit of a support missing one point, s-1 (2(s-1)
    on the circle), so that no such support can pass; past that, and
    without noise, it is 0 and only an exact fit passes.
    """
    xi = instance.noise_sigma
    if not xi > 0.0:
        return 0
    circular = instance.op.circular
    scale = instance.n if circular else instance.n - 1
    p = math.erfc(1.0 / (2.0 * math.sqrt(2.0) * scale * xi))
    if p >= 1.0:  # every distance crosses: far past the cap
        return 0
    pairs = instance.s * (instance.s - 1) // 2
    cost = 4 if circular else 2
    cap = cost // 2 * (instance.s - 1)
    pmf = cdf = (1.0 - p) ** pairs
    q = 0
    while cdf < 1.0 - _NOISE_TAIL:
        q += 1
        if cost * q >= cap:
            return 0
        pmf *= (pairs - q + 1) / q * p / (1.0 - p)
        cdf += pmf
    return cost * q


def _fits(instance, x, budget) -> bool:
    """Whether x's rounded support holds s points and misfits y by at most
    `budget`; with budget 0, whether it fits exactly."""
    return (np.count_nonzero(np.asarray(x) > 0.5) == instance.s
            and binary_misfit(instance, x) <= budget)


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
_STAGE_EPSILON = 1e-3       # step-norm tolerance of the growth-stage solves


def _stage_scale(instance) -> float:
    """Growth-stage step scale 1/(2L).  L = 4(s-1)/m (circle: 8(s-1)/m) is
    about f's top Hessian eigenvalue at an exact fit; each stage's is less."""
    op = instance.op
    return op.m / ((16 if op.circular else 8) * (instance.s - 1))


def _entries(instance, x) -> np.ndarray:
    """x's empty bins, most negative gradient g first, lowest index
    winning ties: the order in which a short hard-thresholding step from
    a k-point indicator x, project_sparse_box(x - tau * g, k + 1) at small
    tau, births them."""
    empty = np.flatnonzero(x == 0)
    g = instance.op.gradient(x, instance.y)
    return empty[np.argsort(g[empty], kind="stable")]


def _guided_start(instance, config: SolverConfig,
                  start: int) -> tuple[np.ndarray, int]:
    """One guided start: the support grown point by point to s-1 points,
    and the steps its growth stages took.

    Begins from the anchored pair, its own first stage (its lag is
    observed, so a step at sparsity 2 returns it), and raises the sparsity
    budget one unit at a time from 3; each stage runs a loose
    hard-thresholding descent at base step _GAMMA * `_stage_scale`, to
    tolerance `_STAGE_EPSILON`, during which the projection births (at
    most) one new support coordinate where the residual wants it.  The
    growth does not depend on the method that will finish the start, so
    both methods descend from the same (s-1)-sparse iterate.  Start 0
    lets every stage take its greedy-best entry; later starts add the
    entering bin, drawn among the first `_ENTRY_CHOICES` of `_entries`,
    and on the circle also rotate the anchor lag.
    """
    n, s = instance.n, instance.s
    x = np.zeros(n)
    x[list(anchor_bins(instance, start))] = 1.0
    tau0 = _GAMMA * _stage_scale(instance)
    stage_iterations = 0
    for sp in range(3, s):
        if start > 0:
            cand = _entries(instance, x)[:_ENTRY_CHOICES]
            pick = int(_philox(config.seed, start, sp).integers(0, cand.size))
            x[cand[pick]] = 1.0
        stage = _descend(instance, x, partial(project_sparse_box, s=sp),
                         config.max_iters, tau0, _STAGE_EPSILON)
        x = stage.x_final
        stage_iterations += stage.iterations
    return x, stage_iterations


def _complete(instance, x, budget) -> bool:
    """Add the first `_entries` bin to the indicator x, in place, until it
    holds s points; whether it then fits within `budget`."""
    for _ in range(instance.s - np.count_nonzero(x)):
        x[_entries(instance, x)[0]] = 1.0
    return _fits(instance, x, budget)


def _repair(instance, x, budget=0) -> np.ndarray | None:
    """An indicator rebuilt from x's binary support that fits within
    `budget` (see `_fits`), or None.

    A start that fails usually holds all but one to three points of an
    answer, either in the right bins or moved as a block.  On the segment
    the support S = {x > 0.5} is re-anchored twice: shifted so its
    leftmost point is bin 0, then so its rightmost sits at the largest
    observed lag, each time adding the anchors {0, largest lag} and
    dropping what falls outside them.  On both geometries S is then
    tried as it is.  Each candidate is completed to s points by the
    gradient (`_complete`); the first that fits is returned.  One that
    already holds more than s points is left as it is and fails.
    """
    op = instance.op
    support = np.flatnonzero(np.asarray(x) > 0.5)
    observed = np.flatnonzero(np.asarray(instance.y) > 0)
    candidates = []
    if not op.circular and support.size and observed.size:
        top = int(observed[-1]) + 1  # the extreme pair's lag
        for shift in (-support[0], top - support[-1]):
            moved = support + shift
            moved = moved[(moved >= 0) & (moved <= top)]
            candidates.append(np.concatenate([moved, [0, top]]))
    candidates.append(support)
    for bins in candidates:
        xb = np.zeros(instance.n)
        xb[bins] = 1.0
        if _complete(instance, xb, budget):
            return xb
    return None


def multi_start(instance, config: SolverConfig, method: str = "iht") -> SolveResult:
    """Run either method from several starts; the first that fits wins.

    Runs config.restarts + 1 starts at most.  A start fits when its
    answer's rounded support holds s points whose L1 misfit is within
    `misfit_budget(instance)`: exactly, on noise-free data.  The first
    start that fits is returned and ends the restarts; if none does, the
    one with the lowest final objective is (earliest start wins ties).
    `starts_run` is set to the number of starts that ran, and
    `total_iterations` to the steps of every start's descents: Armijo
    steps and the pursuit steps that end descents at an exact fit.
    Every start of either method grows the support from the anchored pair
    by hard-thresholding stages, without reference to the method (see
    `_guided_start`); `multi_start` then runs `_descend` at base step
    _GAMMA with its method's projection at s (the s-sparse box for
    "iht", the capped simplex for "l1pgd") from the projected (s-1)-sparse
    result, so the methods differ only in the descents that finish their
    starts.  A final descent that reaches an s-point support fitting y
    exactly steps to its indicator and stops there (`_descend`).  Unlike
    the public solvers' descents, `multi_start`'s (final descents and
    re-solves) repair a support that does not fit when it is offered: the
    indicator `_repair(instance, x, 0)` rebuilds from the iterate's rounded
    support is offered in its place, the offer is made again each time
    that rounded support changes, and if one is taken the answer's
    `iterations` counts its whole final descent.  A start that still does
    not fit gets one more repair (`_repair`) of its rounded support,
    within the noise budget; a repaired indicator is descended from once
    more the same way, so the answer is a fixed point of its method's
    iteration, and its `iterations` counts only that re-solve.  With
    max_iters = 0 each start is returned as built, unrepaired.
    """
    s = instance.s
    if method == "iht":
        project = partial(project_sparse_box, s=s)
    elif method == "l1pgd":
        project = partial(project_capped_simplex, s=s)
    else:
        raise ValueError(f"unknown method {method!r}")
    budget = misfit_budget(instance)
    best: SolveResult | None = None
    total_iterations = 0
    for start in range(config.restarts + 1):
        x, steps = _guided_start(instance, config, start)
        result = _descend(instance, project(x), project, config.max_iters,
                          _GAMMA, _EPSILON, repair=True)
        fit = _fits(instance, result.x_final, budget)
        if not fit and config.max_iters > 0:
            repaired = _repair(instance, result.x_final, budget)
            if repaired is not None:
                steps += result.iterations
                result = _descend(instance, project(repaired), project,
                                  config.max_iters, _GAMMA, _EPSILON,
                                  repair=True)
                fit = _fits(instance, result.x_final, budget)
        total_iterations += steps + result.iterations
        result.start_index = start
        if fit or best is None or result.f_final < best.f_final:
            best = result
        if fit:
            break
    best.starts_run = start + 1
    best.total_iterations = total_iterations
    return _settled(best, instance, project)
