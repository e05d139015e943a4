"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/spread.py --workload iht_published --seconds 25 --trace 0 --seeds 1 2 3

Run from the repository root.  Prints each run's figures, then for every
metric the median and the distance between the first and third quartile
as a share of the median, as `statistics.quantiles(values, n=4)` gives
them.  Untraced runs also report the raw (unscaled) figures that
`bench.py` prints before its result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: str, trace: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", trace],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith("raw "):
            words = line.split()[1:]
            values.update({f"raw.{k}": float(v) for k, v in zip(words[::2], words[1::2])})
    print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']} " +
          " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
    return {"values": values, "failed_share": result["failed"] / result["attempted"],
            "correct": result["correct"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    runs = [one_run(args.workload, s, args.seconds, args.trace) for s in args.seeds]
    for name in runs[0]["values"]:
        vals = [r["values"][name] for r in runs]
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        print(f"{args.workload} {name}: median {med:.5g} spread {spread:.4f} "
              f"range {min(vals):.5g}..{max(vals):.5g}")
    shares = sorted({r["failed_share"] for r in runs})
    print(f"{args.workload}: failed shares {shares}, "
          f"all correct {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
