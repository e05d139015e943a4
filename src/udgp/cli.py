"""Command-line front end: generate instances, solve them, run benchmarks.

Exit codes: 0 success, 2 usage error, 3 I/O failure, 4 numeric failure.
All randomness is seed-derived, so rerunning a command with the same flags
reproduces the same records (wall-time fields aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .instances import (Geometry, check_cell, extract_positions,
                        generate_instance, load_instance, save_instance,
                        score_recovery)
from .solver import (_ALPHA, _DELTA, _EPSILON, _GAMMA, _MAX_BACKTRACKS,
                     NumericError, SolverConfig, binary_misfit,
                     misfit_budget, multi_start)

BENCH_SCALES = [(10, 1000), (20, 2000), (30, 4000)]
BENCH_NOISE = [0.0, 1e-5, 3e-5, 5e-5, 7e-5]


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts,
                   help="extra solver starts (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                   help="steps per descent (default %(default)s)")


def _config_from_args(args, seed: int) -> SolverConfig:
    return SolverConfig(max_iters=args.max_iters, restarts=args.restarts,
                        seed=seed)


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
    ben.add_argument("--trials", type=int, default=10)
    ben.add_argument("--seed", type=int, default=0, help="master seed")
    ben.add_argument("--out", required=True)
    ben.add_argument("--methods", default="iht,l1pgd",
                     help="comma-separated subset of iht,l1pgd")
    ben.add_argument("--scales", default=None,
                     help="published-grid filter, e.g. '10:1000,20:2000'")
    ben.add_argument("--geometry", choices=["turnpike", "beltway"],
                     help="custom cell; with --s and --n, runs it instead of "
                          "the published grid")
    ben.add_argument("--s", type=int, help="custom cell")
    ben.add_argument("--n", type=int, help="custom cell")
    ben.add_argument("--xi", type=float, default=None,
                     help="custom cell noise (default 0)")
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


# the solve record fields a trials row carries, in column order
TRIAL_FIELDS = ["co_p", "wall_time_seconds", "f_final", "iterations",
                "total_iterations", "starts_run", "stop_reason", "misfit",
                "misfit_budget", "homometric", "exact_fit"]


def _solve_and_score(instance, config, method) -> dict:
    """The record of one solve.  `misfit` is the answer's binary misfit,
    `exact_fit` says it is 0, and `homometric` marks an exact fit that
    recovers fewer than s points: another set with the same histogram,
    not a solver failure.  The time covers `multi_start` only."""
    t0 = time.perf_counter()
    result = multi_start(instance, config, method=method)
    wall_time_seconds = time.perf_counter() - t0
    estimated = extract_positions(result.x_final, instance.n, instance.geometry)
    report = score_recovery(estimated, instance)
    misfit = int(binary_misfit(instance, result.x_final))
    return {
        "co_p": report.co_p,
        "wall_time_seconds": wall_time_seconds,
        "f_final": result.f_final,
        "iterations": result.iterations,
        "total_iterations": result.total_iterations,
        "starts_run": result.starts_run,
        "stop_reason": result.stop_reason.value,
        "misfit": misfit,
        "misfit_budget": misfit_budget(instance),
        "homometric": misfit == 0 and report.co_p < instance.s,
        "exact_fit": misfit == 0,
        "estimated_positions": [float(v) for v in report.estimated_positions],
        "stationarity_residual": result.stationarity_residual,
        "alignment": report.alignment,
        "start_index": result.start_index,
    }


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
    open(args.out, "w").close()  # an unwritable --out fails before the solve
    args.created = (args.out,)  # which `main` removes if the solve fails
    rec = _solve_and_score(instance, config, args.method)
    record = {"method": args.method, "geometry": instance.geometry.value,
              "n": instance.n, "s": instance.s, "xi": instance.noise_sigma,
              "solver_seed": args.seed, **rec}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"method={args.method} co_p={rec['co_p']}/{instance.s} "
          f"f={rec['f_final']:.3e} iters={rec['iterations']} "
          f"time={rec['wall_time_seconds']:.3f}s stop={rec['stop_reason']}")
    return 0


def _grid_cells(args) -> list[tuple[Geometry, int, int, float]]:
    """The custom cell that --geometry, --s and --n name together, or the
    published grid when none of them is given; a ValueError names the
    flag that makes the request invalid."""
    cell = {"--geometry": args.geometry, "--s": args.s, "--n": args.n}
    missing = [flag for flag, value in cell.items() if value is None]
    if len(missing) < len(cell):
        if missing:
            raise ValueError("a custom cell needs --geometry, --s and --n; "
                             f"missing {', '.join(missing)}")
        if args.scales is not None:
            raise ValueError("--scales filters the published grid, not a custom cell")
        xi = 0.0 if args.xi is None else args.xi
        try:
            check_cell(args.s, args.n, xi)
        except ValueError as err:
            raise ValueError(f"--s {args.s} --n {args.n} --xi {xi:g}: {err}") from None
        return [(Geometry(args.geometry), args.s, args.n, xi)]
    if args.xi is not None:
        raise ValueError("--xi sets a custom cell's noise: give it with "
                         "--geometry, --s and --n")
    scales = BENCH_SCALES
    if args.scales is not None:
        wanted = {part.strip() for part in args.scales.split(",")}
        scales = [(s, n) for s, n in BENCH_SCALES if f"{s}:{n}" in wanted]
        if len(scales) < len(wanted):
            raise ValueError(f"--scales {args.scales!r}: expected s:n pairs "
                             "from 10:1000, 20:2000, 30:4000")
    return [(geom, s, n, xi)
            for geom in (Geometry.TURNPIKE, Geometry.BELTWAY)
            for (s, n) in scales
            for xi in BENCH_NOISE]


def _bench_methods(text: str) -> list[str]:
    """The methods named in `text`, once each, iht first; a ValueError
    names --methods when one is unknown or none is given."""
    wanted = {m.strip() for m in text.split(",")} - {""}
    unknown = wanted - {"iht", "l1pgd"}
    if unknown or not wanted:
        raise ValueError(f"--methods {text!r}: expected a comma-separated "
                         "subset of iht,l1pgd")
    return [m for m in ("iht", "l1pgd") if m in wanted]


def _trial_seeds(master: int, cell_index: int, trial: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master, cell_index, trial]).generate_state(2)
    return int(state[0]), int(state[1])


def cmd_bench(args) -> int:
    try:
        cells = _grid_cells(args)
        methods = _bench_methods(args.methods)
        if args.trials < 0:
            raise ValueError(f"--trials must be >= 0, got {args.trials}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        base_config = _config_from_args(args, 0)
    except ValueError as err:
        print(f"udgp bench: {err}", file=sys.stderr)
        return 2
    # an unwritable --out fails here, not after the whole grid is solved;
    # `main` removes both files if a solve fails
    args.created = (args.out, args.out + ".trials.csv")
    for path in args.created:
        open(path, "w").close()

    trial_rows = []
    mean_rows = []
    for cell_index, (geometry, s, n, xi) in enumerate(cells):
        mean_times: dict[str, float] = {}
        for method in methods:
            cops, times, homometric = [], [], 0
            for trial in range(args.trials):
                inst_seed, solver_seed = _trial_seeds(args.seed, cell_index, trial)
                instance = generate_instance(geometry, s, n, xi, inst_seed)
                config = _config_from_args(args, solver_seed)
                rec = _solve_and_score(instance, config, method)
                cops.append(rec["co_p"])
                times.append(rec["wall_time_seconds"])
                homometric += rec["homometric"]
                trial_rows.append([geometry.value, s, n, f"{xi:g}", method,
                                   trial, inst_seed,
                                   *(rec[k] for k in TRIAL_FIELDS)])
            if args.trials > 0:
                mean_times[method] = float(np.mean(times))
                mean_rows.append([
                    geometry.value, s, n, f"{xi:g}", method,
                    f"{np.mean(cops):.3f}", f"{mean_times[method]:.6f}", args.trials, "",
                    homometric,
                ])
        if len(mean_times) == 2:  # iht ran first, so its row is mean_rows[-2]
            ratio = mean_times["iht"] / max(mean_times["l1pgd"], 1e-12)
            mean_rows[-2][8] = f"{ratio:.4f}"

    header = ["geometry", "s", "n", "xi", "method", "mean_co_p", "mean_time_s",
              "trials", "time_ratio_iht_vs_l1pgd", "homometric_trials"]
    trial_header = ["geometry", "s", "n", "xi", "method", "trial", "seed",
                    *TRIAL_FIELDS]
    comments = _config_comments(args, base_config, methods)
    _write_csv(args.out, comments, header, mean_rows)
    _write_csv(args.out + ".trials.csv", comments, trial_header, trial_rows)
    print(f"wrote {len(mean_rows)} cell rows -> {args.out}")
    return 0


def _config_comments(args, config: SolverConfig, methods) -> list[str]:
    return [
        f"# udgp bench v{__version__}",
        f"# trials={args.trials} master_seed={args.seed} "
        f"methods={','.join(methods)}",
        f"# gamma={_GAMMA} alpha={_ALPHA} delta={_DELTA} epsilon={_EPSILON} "
        f"max_iters={config.max_iters} max_backtracks={_MAX_BACKTRACKS} "
        f"restarts={config.restarts}",
        "# timing covers the solve call only (generation and scoring excluded)",
    ]


def _write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    with open(path, "w") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:  # booleans as true/false, floats in full
            fh.write(",".join(str(v).lower() if isinstance(v, bool) else str(v)
                              for v in row) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as err:
        print(f"udgp: numeric failure: {err}", file=sys.stderr)
        for path in getattr(args, "created", ()):
            os.remove(path)  # leave no empty output behind
        return 4
    except OSError as err:
        print(f"udgp: i/o failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
