"""Print the work and outcome of every seeded grid trial, one line per trial.

Run from the repository root:

    python3 tests/grid_fingerprint.py [--check]

It runs `udgp bench --scales 10:1000,20:2000 --trials 2 --seed 0`, the
grid that `tests/bench_record.py` records, into a temporary directory and
prints, for each of the 80 trials in its `.trials.csv`, the cell
(geometry, s, n, xi, method), the trial number, `co_p`, `starts_run`,
`misfit`, `stop_reason`, `exact_fit`, `iterations` and
`total_iterations`.  Two checkouts whose outputs are identical recover
the same points on every trial, with the same starts and the same work.
Like `tests/panel_fingerprint.py`, whose --check it shares, the script
pins the BLAS and OpenMP pools to one thread and puts `src/` on the
import path before NumPy loads.  It takes about 7 seconds on one x86
core.  `tests/grid_fingerprint.txt` holds its output for the current
code, made with NumPy 2.4.6.  With --check the script prints, as a diff,
the lines where this checkout's output differs from that file, and exits
1 if any does; `tests/test_grid_fingerprint.py` runs that check under
pytest.
"""

import contextlib
import csv
import io
import os
import sys
import tempfile
from pathlib import Path

EXPECTED = Path(__file__).with_suffix(".txt")
GRID = ["bench", "--scales", "10:1000,20:2000", "--trials", "2", "--seed", "0"]
COLUMNS = ("co_p", "starts_run", "misfit", "stop_reason", "exact_fit",
           "iterations", "total_iterations")


def fingerprint_lines():
    # imported only once the thread pools are pinned and the path is set
    from udgp.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "grid.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            if main([*GRID, "--out", out]) != 0:
                raise RuntimeError("udgp " + " ".join(GRID) + " failed")
        lines = Path(out + ".trials.csv").read_text().splitlines()
    for row in csv.DictReader(l for l in lines if not l.startswith("#")):
        yield (f"{row['geometry']}({row['s']},{row['n']}) xi={row['xi']} "
               f"{row['method']} trial {row['trial']} | "
               + " | ".join(row[c] for c in COLUMNS))


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]
    from panel_fingerprint import main
    sys.exit(main(__doc__, EXPECTED, fingerprint_lines))
