"""Print the per-call cost of both projections and the bisection oracle.

Run from the repository root:

    python3 tests/projection_costs.py [--calls N]

For each published size (10,1000), (20,2000) and (30,4000) and both
geometries it grows start 0 of a noise-free instance with
`_guided_start` and times, on z = x - _GAMMA * grad f(x), the median
microseconds per call of `project_sparse_box`, `project_capped_simplex`
and `capped_simplex_bisection` from `tests/oracles.py`, the
sort-and-bisect search the capped simplex replaced.  It does so at two
iterates x of the baseline's final descent: the grown iterate it starts
from (row `grown`), and the iterate after at most 50 of its steps (row
`step50`).  At the first the projection is positive on most coordinates,
so the bracket search widens to all of z and costs about what the
bisection does; by the second the iterate holds a few dozen nonzeros, as
at most of a descent's steps.  The column pos counts the positive
entries of the projection, and speedup is the bisection's time over the
capped simplex's.  A row reads DIFFERS, and the script exits 1, when the
capped simplex returns an x or a multiplier other than the bisection's.
Like `tests/gradient_costs.py`, it pins the BLAS and OpenMP pools to one
thread and puts `src/` on the import path before NumPy loads.
"""

import argparse
import os
import sys
import time
from pathlib import Path

SIZES = [(10, 1000), (20, 2000), (30, 4000)]


def median_us(fn, calls: int) -> float:
    fn()  # first call pays one-time allocation
    times = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    times.sort()
    return times[len(times) // 2] / 1e3


def rows(calls: int):
    # imported only once the thread pools are pinned and the path is set
    import numpy as np
    from oracles import capped_simplex_bisection
    from udgp import (Geometry, SolverConfig, capped_simplex_with_multiplier,
                      generate_instance, project_capped_simplex,
                      project_sparse_box, solver)

    for s, n in SIZES:
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
                x_new, lam_new = capped_simplex_with_multiplier(z, s)
                x_old, lam_old = capped_simplex_bisection(z, s)
                same = lam_new == lam_old and np.array_equal(x_new, x_old)
                yield (f"{geometry.value:8} {s:3d} {n:5d} {label:6} "
                       f"{np.count_nonzero(x_new):5d} {box:8.1f} "
                       f"{simplex:10.1f} {bisection:9.1f} "
                       f"{bisection / simplex:6.2f}x "
                       f"{'ok' if same else 'DIFFERS'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200,
                        help="timed calls per projection and row (default 200)")
    args = parser.parse_args()
    print("geometry   s     n x        pos   box_us simplex_us bisect_us speedup")
    differs = 0
    for line in rows(args.calls):
        print(line, flush=True)
        differs += line.endswith("DIFFERS")
    return 1 if differs else 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    sys.exit(main())
