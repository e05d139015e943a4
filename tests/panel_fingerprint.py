"""Print a fingerprint of every benchmark panel answer, one line per instance.

Run from the repository root:

    python3 tests/panel_fingerprint.py [--check]

For each of the four workloads in `perfbench/workloads.py` it solves every
instance of `build_panel(udgp, workload, 0)` with
`multi_start(instance, SolverConfig(seed=item.solver_seed), method)` and
prints the workload, the instance label, the sha256 of the `x_final`
bytes, `repr(f_final)`, `start_index`, `iterations`, `stop_reason`,
`repr(stationarity_residual)`, `starts_run` and `total_iterations`.  Two
checkouts whose outputs are identical give bit-identical answers, reached
with the same work, on all 32 panel instances.  Like
`perfbench/run.py`, the script pins the BLAS and OpenMP pools to one
thread, which keeps the floating-point reduction order fixed, and puts
`src/` and `perfbench/` on the import path before NumPy loads.  It takes
about 1.5 seconds on one x86 core.  `tests/panel_fingerprint.txt` holds
its output for the current code, made with NumPy 2.4.6.  With --check
the script prints, as a diff, the lines where this checkout's output
differs from that file, and exits 1 if any does;
`tests/test_panel_fingerprint.py` runs that check under pytest.
"""

import argparse
import difflib
import hashlib
import os
import sys
from pathlib import Path

EXPECTED = Path(__file__).with_suffix(".txt")


def fingerprint_lines():
    # imported only once the thread pools are pinned and the path is set
    import udgp
    from udgp.solver import SolverConfig, multi_start
    from workloads import WORKLOADS, build_panel

    for workload in WORKLOADS.values():
        for item in build_panel(udgp, workload, 0):
            result = multi_start(item.instance,
                                 SolverConfig(seed=item.solver_seed),
                                 workload.method)
            digest = hashlib.sha256(result.x_final.tobytes()).hexdigest()
            yield (f"{workload.name} | {item.label} | {digest} | "
                   f"{result.f_final!r} | {result.start_index} | "
                   f"{result.iterations} | {result.stop_reason.value} | "
                   f"{result.stationarity_residual!r} | "
                   f"{result.starts_run} | {result.total_iterations}")


def main(doc, expected_path, lines) -> int:
    """Print lines(), or with --check diff them against expected_path;
    `tests/grid_fingerprint.py` runs its own lines through this too."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"diff against {expected_path.name}; exit 1 on a difference")
    args = parser.parse_args()
    if not args.check:
        for line in lines():
            print(line, flush=True)
        return 0
    expected = expected_path.read_text().splitlines()
    diff = list(difflib.unified_diff(expected, list(lines()),
                                     expected_path.name, "this checkout",
                                     n=0, lineterm=""))
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.exit(main(__doc__, EXPECTED, fingerprint_lines))
