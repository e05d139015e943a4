"""Print a fingerprint of every benchmark panel answer, one line per instance.

Run from the repository root:

    PYTHONPATH=src:perfbench OMP_NUM_THREADS=1 python3 tests/panel_fingerprint.py

For each of the four workloads in `perfbench/workloads.py` it solves every
instance of `build_panel(udgp, workload, 0)` with
`multi_start(instance, SolverConfig(seed=item.solver_seed), method)` and
prints the workload, the instance label, the sha256 of the `x_final`
bytes, `repr(f_final)`, `start_index`, `iterations`, `stop_reason` and
`repr(stationarity_residual)`.  Two checkouts whose outputs are identical
give bit-identical answers on all 32 panel instances.  One BLAS thread
keeps the floating-point reduction order fixed.  The script takes about
a minute; pytest does not collect it.  `tests/panel_fingerprint.txt` holds
its output for the current code.
"""

import hashlib

import udgp
from udgp.solver import SolverConfig, multi_start
from workloads import WORKLOADS, build_panel


def main() -> None:
    for workload in WORKLOADS.values():
        for item in build_panel(udgp, workload, 0):
            result = multi_start(item.instance,
                                 SolverConfig(seed=item.solver_seed),
                                 workload.method)
            digest = hashlib.sha256(result.x_final.tobytes()).hexdigest()
            print(f"{workload.name} | {item.label} | {digest} | "
                  f"{result.f_final!r} | {result.start_index} | "
                  f"{result.iterations} | {result.stop_reason.value} | "
                  f"{result.stationarity_residual!r}", flush=True)


if __name__ == "__main__":
    main()
