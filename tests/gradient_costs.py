"""Print the per-call cost of the two gradient paths and the path chosen.

Run from the repository root:

    python3 tests/gradient_costs.py [--calls N]

For each grid (s, n) in (10,1000), (20,2000), (30,4000), (50,8000) and
(80,16000), both geometries, supports of k = s and k = 3s points and a
sparse or dense residual, it times `LagOperator._gradient_window` and
`LagOperator._gradient_fft` on the same iterate and prints the median
microseconds per call of each, the path `LagOperator.gradient` takes
(`_windows`), and whether that path is within 10% of the cheaper one.
The column kn/LlgL is the window's work k*n over the FFT's L*log2(L), L
being the FFT length: the ratio the path rule compares.
The sparse residual is that of a binary k-point iterate against the
histogram of a random s-point set, about s^2 + k^2 nonzero lags; the
dense one adds uniform noise to every lag.  The window kernel's cost does
not depend on the residual's density; the sparse rows show it.  Like
`tests/panel_fingerprint.py`, the script pins the BLAS and OpenMP pools
to one thread and puts `src/` on the import path before NumPy loads.
`_WINDOW_PER_FFT` and `_WINDOW_PER_CALL` in `src/udgp/model.py` are
fitted to the break-even points of this output.  The script exits 1 if
any row reads WORSE.
"""

import argparse
import math
import os
import sys
import time
from pathlib import Path

SIZES = [(10, 1000), (20, 2000), (30, 4000), (50, 8000), (80, 16000)]


def median_us(fn, calls: int) -> float:
    fn()  # first call pays one-time allocation and plan set-up
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
    from udgp import Geometry, LagOperator

    rng = np.random.default_rng(0)
    for s, n in SIZES:
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200,
                        help="timed calls per path and row (default 200)")
    args = parser.parse_args()
    print("geometry   s      n    k kn/LlgL r      nnz(r)  window_us     fft_us picked")
    worse = 0
    for line in rows(args.calls):
        print(line, flush=True)
        worse += line.endswith("WORSE")
    return 1 if worse else 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
