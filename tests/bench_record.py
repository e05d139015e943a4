"""Record this checkout's benchmark figures in BENCH_<tag>.json.

Run from the repository root:

    python3 tests/bench_record.py TAG

It records three things, each from an unmodified command, and the
environment they ran in:

- `perfbench/run.py --workload W --seed S --seconds 30 --trace 0` for
  seeds 1, 2 and 3 on every workload: each run's last line, and per
  workload the median, min and max of every end-to-end metric;
- the panel work counts: `starts_run` and `total_iterations` of every
  instance that `tests/panel_fingerprint.py` solves, with their sums per
  workload;
- `udgp bench --scales 10:1000,20:2000 --trials 2 --seed 0`, the grid
  `tests/grid_fingerprint.py` checks (its `GRID`): every cell row (mean
  Co.P, mean solve time, the time ratio and, where the CSV has it, the
  homometric trial count), and per cell the `starts_run` and
  `total_iterations` summed over its trials from the `.trials.csv`.  The
  (30,4000) cells are left out: their xi = 7e-5 trials run all 50
  starts, minutes per trial.  `mean_time_s` is raw wall time over two
  trials on whatever else the machine runs, so it cannot be compared
  between files; the seeded work sums can.

The commands run one after another, each in its own process with the
BLAS and OpenMP pools pinned to one thread, and the file is written only
when all of them succeed.  The perfbench runs take 6 minutes and the
rest under a minute on a 2-core x86 box.
"""

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from grid_fingerprint import GRID

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("iht_published", "iht_large", "l1pgd_baseline", "iht_noisy")
SEEDS = (1, 2, 3)
SECONDS = 30


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _run(args) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, check=True)
    return done.stdout


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def perfbench() -> dict:
    out = {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            last = _run(["perfbench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", str(SECONDS),
                         "--trace", "0"]).splitlines()[-1]
            runs.append({"seed": seed, **json.loads(last)})
            print(f"{workload} seed {seed}: {last}", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            summary[name] = {"median": statistics.median(values),
                             "min": min(values), "max": max(values),
                             "unit": runs[0]["metrics"][name]["unit"]}
        out[workload] = {"runs": runs, "summary": summary}
    return out


def panel_work() -> dict:
    out = {}
    for line in _run(["tests/panel_fingerprint.py"]).splitlines():
        # workload | label | ... | starts_run | total_iterations
        workload, label, *_, starts, steps = line.split(" | ")
        starts, steps = int(starts), int(steps)
        work = out.setdefault(workload, {"starts_run": 0, "total_iterations": 0,
                                         "instances": {}})
        work["instances"][label] = {"starts_run": starts,
                                    "total_iterations": steps}
        work["starts_run"] += starts
        work["total_iterations"] += steps
    return out


def _csv_rows(path: Path) -> list[dict]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def grid(tmp: Path) -> dict:
    out = tmp / "grid.csv"
    t0 = time.perf_counter()
    _run(["-m", "udgp.cli", *GRID, "--out", str(out)])
    wall = time.perf_counter() - t0
    work = {}
    for row in _csv_rows(Path(f"{out}.trials.csv")):
        key = tuple(row[k] for k in ("geometry", "s", "n", "xi", "method"))
        sums = work.setdefault(key, {"starts_run": 0, "total_iterations": 0})
        sums["starts_run"] += int(row["starts_run"])
        sums["total_iterations"] += int(row["total_iterations"])
    cells = []
    for row in _csv_rows(out):
        cell = {"geometry": row["geometry"], "s": int(row["s"]),
                "n": int(row["n"]), "xi": float(row["xi"]),
                "method": row["method"], "trials": int(row["trials"]),
                "mean_co_p": float(row["mean_co_p"]),
                "mean_time_s": float(row["mean_time_s"]),
                "homometric_trials": int(row["homometric_trials"])}
        if row["time_ratio_iht_vs_l1pgd"]:
            cell["time_ratio_iht_vs_l1pgd"] = float(row["time_ratio_iht_vs_l1pgd"])
        cell.update(work[tuple(row[k] for k in ("geometry", "s", "n", "xi",
                                                "method"))])
        cells.append(cell)
    return {"command": "udgp " + " ".join(GRID), "wall_s": wall,
            "mean_time_s": "raw wall seconds over 2 trials on a shared "
                           "machine, not comparable between BENCH files; "
                           "compare cells by starts_run and "
                           "total_iterations, seeded sums over their trials",
            "left_out": "(30,4000): its xi = 7e-5 trials run all 50 starts, "
                        "minutes per trial, until noisy answers are judged "
                        "by transport misfit (ROADMAP item 6)",
            "cells": cells}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag", help="the file written is BENCH_<tag>.json")
    args = parser.parse_args()
    tmp = ROOT / ".bench_build"
    tmp.mkdir(exist_ok=True)
    record = {
        "tag": args.tag,
        "environment": {
            "git_sha": _git("rev-parse", "HEAD"),
            "tracked_changes": bool(_git("status", "--porcelain",
                                         "--untracked-files=no")),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "blas_threads": 1,
        },
        "perfbench": {"command": "perfbench/run.py --workload W --seed S "
                                 f"--seconds {SECONDS} --trace 0",
                      "seeds": list(SEEDS), "workloads": perfbench()},
        "panel": panel_work(),
        "grid": grid(tmp),
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
