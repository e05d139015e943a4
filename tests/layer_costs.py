"""Print the per-call cost of the gradient paths, projections and Armijo step.

Run from the repository root:

    python3 tests/layer_costs.py [--calls N]

The gradient table: for each grid (s, n) in (10,1000), (20,2000),
(30,4000), (50,8000) and (80,16000), both geometries, supports of k = s
and k = 3s points and a sparse or dense residual, it times
`LagOperator._gradient_window` and `LagOperator._gradient_fft` on the
same iterate and prints the median microseconds per call of each, the
path `LagOperator.gradient` takes (`_windows`), and whether that path is
within 10% of the cheaper one; a row that is not reads WORSE.  The
column kn/LlgL is the window's work k*n over the FFT's L*log2(L), L
being the FFT length: the ratio the path rule compares.  The sparse
residual is that of a binary k-point iterate against the histogram of a
random s-point set, about s^2 + k^2 nonzero lags; the dense one adds
uniform noise to every lag.  The window kernel's cost does not depend on
the residual's density; the sparse rows show it.  `_WINDOW_PER_FFT` and
`_WINDOW_PER_CALL` in `src/udgp/model.py` are fitted to the break-even
points of this table.

The projection table: for each published size (10,1000), (20,2000) and
(30,4000) and both geometries it grows start 0 of a noise-free instance
with `_guided_start` and times, on z = x - _GAMMA * grad f(x), the
median microseconds per call of `project_sparse_box`,
`project_capped_simplex` and `capped_simplex_bisection` from
`tests/oracles.py`, the sort-and-bisect search the capped simplex
replaced.  It does so at two iterates x of the baseline's final descent:
the grown iterate it starts from (row `grown`), and the iterate after at
most 50 of its steps (row `step50`).  At the first the projection is
positive on most coordinates; by the second the iterate holds a few
dozen nonzeros, as at most of a descent's steps.  Either way the capped
simplex sorts all 2n breakpoints of z once and settles its bracket with
a few clipped sums, where the bisection takes about log2(2n).  The
column pos counts the positive entries of the projection, and speedup
is the bisection's time over the capped simplex's.  A row reads DIFFERS
when the capped simplex returns an x other than the bisection's.

The Armijo-step table: it grows start 0 of a noise-free instance with
`_guided_start` and times one `armijo_step` at base step _GAMMA from an
iterate of a final descent.  Rows `box`, at turnpike and beltway
(10,1000), turnpike (20,2000) and turnpike (30,4000), step on the
s-sparse box from the iterate after the IHT final descent's first step,
which births the s-th point.  Rows `simplex`, at turnpike and beltway
(10,1000) and turnpike (20,2000), step on the capped simplex from the
iterate after 300 steps of the baseline's final descent, which by then
holds a few dozen bins (column k).  Each step is timed handed the
iterate's support (column short_us: a try that no bin off the support
enters is formed on it, with no full projection) and not handed it
(general_us: every try is projected and evaluated over all n bins).
The column proj counts the projections the first of the two ran, 0
when the shortcut took every try, and speedup is general_us over
short_us.  forward_us times the pair forward map at the iterate, and
iter_us one whole support-kept iteration as `_descend` runs it: the
gradient from the carried residual, then the step handed the support.
Each call after the first finds the support's `_plan` kept.  On the
`simplex` rows, try_us times one kept try alone, the function of tau
that `capped_simplex_kept` returns, called at _GAMMA after a first call
has left its bracket in the thread's memo, as the next step's try finds
it; sums counts the clipped sums (`_kept_sum`) that one such try takes,
2 when the memo's bracket checks out.  `box` rows print - in both.  A
row reads DIFFERS when the two calls return Steps that differ in any
field.

Like `tests/panel_fingerprint.py`, the script pins the BLAS and OpenMP
pools to one thread and puts `src/` on the import path before NumPy
loads.  It exits 1 if any row reads DIFFERS, a fast path whose answer
is not its reference's, and otherwise 3 if any row reads WORSE, a
timing judgement that holds only on the machine the path rule was
fitted on.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

GRADIENT_SIZES = [(10, 1000), (20, 2000), (30, 4000), (50, 8000), (80, 16000)]
PROJECTION_SIZES = [(10, 1000), (20, 2000), (30, 4000)]
ARMIJO_CELLS = [("box", "turnpike", 10, 1000), ("box", "beltway", 10, 1000),
                ("box", "turnpike", 20, 2000), ("box", "turnpike", 30, 4000),
                ("simplex", "turnpike", 10, 1000),
                ("simplex", "beltway", 10, 1000),
                ("simplex", "turnpike", 20, 2000)]
PROJECTIONS = {"box": "project_sparse_box", "simplex": "project_capped_simplex"}
# steps of the final descent taken before the timed step
ARMIJO_STEPS = {"box": 1, "simplex": 300}


def median_us(fn, calls: int) -> float:
    fn()  # first call pays one-time allocation and plan set-up
    times = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    times.sort()
    return times[len(times) // 2] / 1e3


def gradient_rows(calls: int):
    import numpy as np
    from udgp import Geometry, LagOperator

    yield "geometry   s      n    k kn/LlgL r      nnz(r)  window_us     fft_us picked"
    rng = np.random.default_rng(0)
    for s, n in GRADIENT_SIZES:
        for geometry in Geometry:
            op = LagOperator(n, geometry)
            fft_work = op._fft_len * math.log2(op._fft_len)
            y = op.forward(np.bincount(rng.choice(n, s, replace=False),
                                       minlength=n).astype(float))
            for k in (s, 3 * s):
                x = np.zeros(n)
                x[rng.choice(n, k, replace=False)] = 1.0
                support = np.flatnonzero(x)
                sparse = op.forward(x) - y
                for label, r in (("sparse", sparse),
                                 ("dense", sparse + rng.random(op.m))):
                    window = median_us(
                        lambda: op._gradient_window(x, support, r), calls)
                    fft = median_us(lambda: op._gradient_fft(x, r), calls)
                    picked, cost = (("window", window) if op._windows(support)
                                    else ("fft", fft))
                    ok = cost <= 1.1 * min(window, fft)
                    yield (f"{geometry.value:8} {s:3d} {n:6d} {k:4d} "
                           f"{k * n / fft_work:7.2f} "
                           f"{label:6} {np.count_nonzero(r):6d} "
                           f"{window:10.1f} {fft:10.1f} {picked:6} "
                           f"{'ok' if ok else 'WORSE'}")


def projection_rows(calls: int):
    import numpy as np
    from oracles import capped_simplex_bisection
    from udgp import (Geometry, SolverConfig, generate_instance,
                      project_capped_simplex, project_sparse_box, solver)

    yield "geometry   s     n x        pos   box_us simplex_us bisect_us speedup"
    for s, n in PROJECTION_SIZES:
        for geometry in Geometry:
            inst = generate_instance(geometry, s, n, 0.0, 90000)
            grown, _ = solver._guided_start(inst, SolverConfig(), 0)
            project = lambda z: project_capped_simplex(z, s)
            later = solver._descend(inst, project(grown), project, 50,
                                    solver._GAMMA, solver._EPSILON).x_final
            for label, x in (("grown", grown), ("step50", later)):
                z = x - solver._GAMMA * inst.op.gradient(x, inst.y)
                box = median_us(lambda: project_sparse_box(z, s), calls)
                simplex = median_us(lambda: project(z), calls)
                bisection = median_us(lambda: capped_simplex_bisection(z, s),
                                      calls)
                x_new = project(z)
                same = np.array_equal(x_new, capped_simplex_bisection(z, s)[0])
                yield (f"{geometry.value:8} {s:3d} {n:5d} {label:6} "
                       f"{np.count_nonzero(x_new):5d} {box:8.1f} "
                       f"{simplex:10.1f} {bisection:9.1f} "
                       f"{bisection / simplex:6.2f}x "
                       f"{'ok' if same else 'DIFFERS'}")


def armijo_rows(calls: int):
    from functools import partial

    import numpy as np
    from udgp import (Geometry, SolverConfig, generate_instance, projections,
                      solver)

    yield ("set     geometry   s     n  k proj  short_us general_us speedup "
           "forward_us   iter_us   try_us sums")
    for kind, geometry, s, n in ARMIJO_CELLS:
        name = PROJECTIONS[kind]
        inst = generate_instance(Geometry(geometry), s, n, 0.0, 90000)
        grown, _ = solver._guided_start(inst, SolverConfig(), 0)
        project = partial(getattr(solver, name), s=s)
        x0 = grown if kind == "box" else project(grown)
        x = solver._descend(inst, x0, project, ARMIJO_STEPS[kind],
                            solver._GAMMA, solver._EPSILON).x_final
        f, r, support = inst.op.evaluate(x, inst.y)
        grad = inst.op.gradient(x, inst.y, r, support)

        def step(*kept, g=grad):
            # the partial is built per call, so that `projections` can
            # swap the function armijo_step recognises
            project = partial(getattr(solver, name), s=s)
            return solver.armijo_step(x, g, f, inst, project, solver._GAMMA,
                                      *kept)

        def iteration():
            # one support-kept iteration, as `_descend` runs it
            return step(support, g=inst.op.gradient(x, inst.y, r, support))

        short = median_us(lambda: step(support), calls)
        general = median_us(step, calls)
        forward = median_us(lambda: inst.op._forward(x, support), calls)
        whole = median_us(iteration, calls)
        kept = "       -    -"
        if kind == "simplex":
            g_b = np.minimum.reduce(grad, where=inst.op._plan(support).off,
                                    initial=np.inf)
            tried = partial(projections.capped_simplex_kept(
                x, grad, support, g_b, s), solver._GAMMA)
            try_us = median_us(tried, calls)
            kept = (f"{try_us:8.1f} "
                    f"{calls_of(projections, '_kept_sum', tried):4d}")
        a, b = step(support), step()
        same = (a.x.tobytes() == b.x.tobytes() and a.r.tobytes() == b.r.tobytes()
                and (a.f, a.tau, a.t, a.step_sq) == (b.f, b.tau, b.t, b.step_sq)
                and np.array_equal(a.support, b.support))
        yield (f"{kind:7} {geometry:8} {s:3d} {n:5d} {support.size:2d} "
               f"{calls_of(solver, name, lambda: step(support)):4d} "
               f"{short:9.1f} {general:10.1f} {general / short:6.2f}x "
               f"{forward:10.1f} {whole:9.1f} {kept} "
               f"{'ok' if same else 'DIFFERS'}")


def calls_of(module, name, fn) -> int:
    """The calls fn() makes through `module.<name>`, counted by patching
    that name."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        fn()
    finally:
        setattr(module, name, original)
    return len(calls)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200,
                        help="timed calls per path or projection and row "
                             "(default 200)")
    args = parser.parse_args()
    differs = worse = 0
    for table in (gradient_rows, projection_rows, armijo_rows):
        for line in table(args.calls):
            print(line, flush=True)
            differs += line.endswith("DIFFERS")
            worse += line.endswith("WORSE")
        print()
    return 1 if differs else 3 if worse else 0


if __name__ == "__main__":
    # the tables import udgp and NumPy only once the pools are pinned and
    # the path is set
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    sys.exit(main())
