"""Command-line front end: generate instances, solve them, run benchmarks.

Exit codes: 0 success, 2 usage error, 3 I/O failure, 4 numeric failure.
All randomness is seed-derived, so rerunning a command with the same flags
reproduces the same records (wall-time fields aside).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .instances import (Geometry, extract_positions, generate_instance,
                        load_instance, save_instance, score_recovery)
from .solver import NumericError, SolverConfig, multi_start

BENCH_SCALES = [(10, 1000), (20, 2000), (30, 4000)]
BENCH_NOISE = [0.0, 1e-5, 3e-5, 5e-5, 7e-5]


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=None, help="extra solver starts")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)


def _config_from_args(args, seed: int) -> SolverConfig:
    kwargs = {"seed": seed}
    for flag in ["restarts", "gamma", "alpha", "delta", "epsilon", "max_iters"]:
        value = getattr(args, flag)
        if value is not None:
            kwargs[flag] = value
    return SolverConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udgp",
        description="Turnpike/beltway distance-histogram solvers and benchmarks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample an instance and write it to a file")
    gen.add_argument("--geometry", choices=["turnpike", "beltway"], required=True)
    gen.add_argument("--s", type=int, required=True, help="number of points")
    gen.add_argument("--n", type=int, required=True, help="grid size")
    gen.add_argument("--xi", type=float, default=0.0, help="distance noise stddev")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    sol = sub.add_parser("solve", help="solve an instance file and score recovery")
    sol.add_argument("--in", dest="in_path", required=True)
    sol.add_argument("--method", choices=["iht", "l1pgd"], default="iht")
    sol.add_argument("--seed", type=int, default=0, help="solver seed")
    sol.add_argument("--out", required=True)
    _add_hyper_flags(sol)
    sol.set_defaults(func=cmd_solve)

    ben = sub.add_parser("bench", help="run a benchmark grid, write CSV results")
    ben.add_argument("--grid", choices=["paper", "custom"], default="paper")
    ben.add_argument("--trials", type=int, default=10)
    ben.add_argument("--seed", type=int, default=0, help="master seed")
    ben.add_argument("--out", required=True)
    ben.add_argument("--methods", default="iht,l1pgd",
                     help="comma-separated subset of iht,l1pgd")
    ben.add_argument("--scales", default=None,
                     help="published-grid filter, e.g. '10:1000,20:2000'")
    ben.add_argument("--geometry", choices=["turnpike", "beltway"],
                     help="custom grid cell")
    ben.add_argument("--s", type=int, help="custom grid cell")
    ben.add_argument("--n", type=int, help="custom grid cell")
    ben.add_argument("--xi", type=float, default=0.0, help="custom grid cell")
    _add_hyper_flags(ben)
    ben.set_defaults(func=cmd_bench)
    return parser


def cmd_generate(args) -> int:
    try:
        instance = generate_instance(Geometry(args.geometry), args.s, args.n,
                                     args.xi, args.seed)
    except ValueError as err:
        print(f"udgp generate: {err}", file=sys.stderr)
        return 2
    save_instance(instance, args.out)
    print(f"geometry={args.geometry} s={args.s} n={args.n} xi={args.xi:g} "
          f"sum_y={int(instance.y.sum())} -> {args.out}")
    return 0


def _solve_and_score(instance, config, method):
    t0 = time.perf_counter()
    result = multi_start(instance, config, method=method)
    solve_seconds = time.perf_counter() - t0
    estimated = extract_positions(result.x_final, instance.n, instance.geometry)
    report = score_recovery(estimated, instance)
    return result, report, solve_seconds


def cmd_solve(args) -> int:
    try:
        instance = load_instance(args.in_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"udgp solve: cannot read instance: {err}", file=sys.stderr)
        return 3
    try:
        config = _config_from_args(args, args.seed)
    except ValueError as err:
        print(f"udgp solve: {err}", file=sys.stderr)
        return 2
    result, report, solve_seconds = _solve_and_score(instance, config, args.method)
    record = {
        "method": args.method,
        "geometry": instance.geometry.value,
        "n": instance.n,
        "s": instance.s,
        "xi": instance.noise_sigma,
        "solver_seed": args.seed,
        "co_p": report.co_p,
        "f_final": result.f_final,
        "iterations": result.iterations,
        "wall_time_seconds": solve_seconds,
        "stop_reason": result.stop_reason.value,
        "estimated_positions": [float(v) for v in report.estimated_positions],
        "stationarity_residual": result.stationarity_residual,
        "alignment": report.alignment,
        "start_index": result.start_index,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"method={args.method} co_p={report.co_p}/{instance.s} "
          f"f={result.f_final:.3e} iters={result.iterations} "
          f"time={solve_seconds:.3f}s stop={result.stop_reason.value}")
    return 0


def _grid_cells(args) -> list[tuple[Geometry, int, int, float]]:
    if args.grid == "paper":
        scales = BENCH_SCALES
        if args.scales:
            wanted = set()
            for part in args.scales.split(","):
                s_str, n_str = part.split(":")
                wanted.add((int(s_str), int(n_str)))
            scales = [sn for sn in BENCH_SCALES if sn in wanted]
        return [(geom, s, n, xi)
                for geom in (Geometry.TURNPIKE, Geometry.BELTWAY)
                for (s, n) in scales
                for xi in BENCH_NOISE]
    if args.geometry is None or args.s is None or args.n is None:
        raise ValueError("custom grid needs --geometry, --s and --n")
    return [(Geometry(args.geometry), args.s, args.n, args.xi)]


def _trial_seeds(master: int, cell_index: int, trial: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master, cell_index, trial]).generate_state(2)
    return int(state[0]), int(state[1])


def cmd_bench(args) -> int:
    try:
        cells = _grid_cells(args)
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        for m in methods:
            if m not in ("iht", "l1pgd"):
                raise ValueError(f"unknown method {m!r}")
        base_config = _config_from_args(args, 0)
    except ValueError as err:
        print(f"udgp bench: {err}", file=sys.stderr)
        return 2

    trial_rows = []
    mean_rows = []
    for cell_index, (geometry, s, n, xi) in enumerate(cells):
        per_method: dict[str, tuple[float, float]] = {}
        for method in methods:
            cops, times = [], []
            for trial in range(args.trials):
                inst_seed, solver_seed = _trial_seeds(args.seed, cell_index, trial)
                instance = generate_instance(geometry, s, n, xi, inst_seed)
                config = _config_from_args(args, solver_seed)
                result, report, solve_seconds = _solve_and_score(
                    instance, config, method)
                cops.append(report.co_p)
                times.append(solve_seconds)
                trial_rows.append([
                    geometry.value, s, n, f"{xi:g}", method, trial, inst_seed,
                    report.co_p, f"{solve_seconds:.6f}",
                    f"{result.f_final:.6e}", result.iterations,
                    result.stop_reason.value,
                ])
            if args.trials > 0:
                per_method[method] = (float(np.mean(cops)), float(np.mean(times)))
                mean_rows.append([
                    geometry.value, s, n, f"{xi:g}", method,
                    f"{np.mean(cops):.3f}", f"{np.mean(times):.6f}", args.trials,
                ])
        if "iht" in per_method and "l1pgd" in per_method:
            ratio = per_method["iht"][1] / max(per_method["l1pgd"][1], 1e-12)
            mean_rows[-2].append(f"{ratio:.4f}")  # on the iht row
            mean_rows[-1].append("")
        else:
            for _ in per_method:
                mean_rows[-1].append("")

    header = ["geometry", "s", "n", "xi", "method", "mean_co_p", "mean_time_s",
              "trials", "time_ratio_iht_vs_l1pgd"]
    trial_header = ["geometry", "s", "n", "xi", "method", "trial", "seed",
                    "co_p", "time_s", "f_final", "iterations", "stop_reason"]
    comments = _config_comments(args, base_config, methods)
    _write_csv(args.out, comments, header, mean_rows)
    _write_csv(_trials_path(args.out), comments, trial_header, trial_rows)
    print(f"wrote {len(mean_rows)} cell rows -> {args.out}")
    return 0


def _trials_path(out: str) -> str:
    return out + ".trials.csv"


def _config_comments(args, config: SolverConfig, methods) -> list[str]:
    return [
        f"# udgp bench v{__version__}",
        f"# grid={args.grid} trials={args.trials} master_seed={args.seed} "
        f"methods={','.join(methods)}",
        f"# gamma={config.gamma} alpha={config.alpha} delta={config.delta} "
        f"epsilon={config.epsilon} max_iters={config.max_iters} "
        f"max_backtracks={config.max_backtracks} restarts={config.restarts}",
        "# timing covers the solve call only (generation and scoring excluded)",
    ]


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as err:
        print(f"udgp: numeric failure: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"udgp: i/o failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
