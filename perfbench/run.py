"""Run one benchmark workload against the udgp sources beside this directory.

    python3 perfbench/run.py --workload iht_published --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  BLAS and OpenMP
pools are pinned to one thread before NumPy loads, so the run is a single
single-threaded process.  Exits with code 2 if the udgp sources are
missing.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "udgp" / "__init__.py").is_file():
        print(f"run.py: no udgp sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import udgp
    if Path(udgp.__file__).resolve().parent != src / "udgp":
        print(f"run.py: imported udgp from {udgp.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)

    from bench import main
    sys.exit(main(sys.argv[1:]))
