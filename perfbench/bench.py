"""Benchmark runner: set up a workload, solve whole rounds of it, report.

Every time is reported in reference seconds (see refclock.py): each
set-up and each instance is a timed `Interval`, scaled by the reference
kernel's speed measured around and inside it.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it
solves every instance untraced and then traced, and prints the per-layer
metrics, the tracing overhead among them; the spans go to
perfbench/out/<workload>-seed<seed>.npz.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_answer
from refclock import Interval, RefClock, normalize
from tracing import LAYERS, NAMES, ROOT, Tracer
from workloads import WORKLOADS, build_panel

SETUPS = 5
OUT_DIR = Path(__file__).resolve().parent / "out"


def fresh_import():
    """Import udgp anew, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "udgp" or m.startswith("udgp.")]:
        del sys.modules[name]
    return importlib.import_module("udgp")


def warm_up(udgp, panel, method: str) -> None:
    """Touch each instance's sparse and FFT model paths and the projection."""
    project = (udgp.solver.project_sparse_box if method == "iht"
               else udgp.solver.project_capped_simplex)
    for item in panel:
        inst = item.instance
        for x in (inst.true_indicator(), np.full(inst.n, inst.s / inst.n)):
            project(x - inst.op.gradient(x, inst.y), inst.s)


def setup(workload, seed: int, clock: RefClock, tracer: Tracer | None = None):
    """Import udgp, generate the panel, warm up.

    Returns (udgp, panel, reference seconds).  A tracer, if given, records
    the instance generation only.
    """
    watch = Interval(clock)
    udgp = fresh_import()
    if tracer is not None:
        tracer.install(udgp)
    try:
        panel = build_panel(udgp, workload, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    warm_up(udgp, panel, workload.method)
    raw_s = watch.lap()
    return udgp, panel, normalize(raw_s, watch.stop())


@dataclass
class Solve:
    item: object
    solve_s: float = 0.0      # multi_start, reference seconds
    total_s: float = 0.0      # multi_start + extract + score, reference seconds
    raw_total_s: float = 0.0
    error: str | None = None
    answer: bytes = b""       # x_final, to compare between rounds


def solve_one(udgp, item, method: str, clock: RefClock,
              tracer: Tracer | None = None) -> Solve:
    """Solve, extract and score one instance, then check the answer.

    A traced solve takes no kernel samples, which would land in its spans.
    """
    inst = item.instance
    config = udgp.solver.SolverConfig(seed=item.solver_seed)
    rec = Solve(item)
    watch = Interval(clock, sample=tracer is None)
    root = tracer.open(ROOT) if tracer is not None else None
    try:
        result = udgp.solver.multi_start(inst, config, method)
        solve_s = watch.lap()
        est = udgp.instances.extract_positions(result.x_final, inst.n, inst.geometry)
        report = udgp.instances.score_recovery(est, inst)
        total_s = watch.lap()
    except Exception as err:  # a solve that raises is a failed instance
        solve_s = total_s = watch.lap()
        rec.error = f"{type(err).__name__}: {err}"
    finally:
        if root is not None:
            tracer.close(root)
        kernel_s = watch.stop()
    rec.solve_s, rec.total_s = normalize(solve_s, kernel_s), normalize(total_s, kernel_s)
    rec.raw_total_s = total_s
    if rec.error is None:
        rec.answer = result.x_final.tobytes()
        rec.error = check_answer(
            result.x_final, est, report.co_p, item.true_bins, inst.y, inst.n,
            inst.s, inst.geometry is udgp.Geometry.BELTWAY, method)
    if rec.error is not None:
        print(f"FAILED {item.label}: {rec.error}", file=sys.stderr)
    return rec


def run_rounds(panel, seconds: float, solve) -> list:
    """Solve whole rounds of the panel while another round fits in `seconds`.

    At least one round runs.  `solve(item)` returns a list of records.
    """
    records = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        for item in panel:
            records += solve(item)
        rounds += 1
        if (time.perf_counter() - begin) * (rounds + 1) / rounds > seconds:
            return records


def answers_repeat(records) -> bool:
    """Whether every instance gave the same x_final in every round."""
    seen: dict[int, bytes] = {}
    for rec in records:
        if rec.error is None:
            first = seen.setdefault(id(rec.item), rec.answer)
            if first != rec.answer:
                return False
    return True


def end_to_end(workload, seed: int, seconds: float) -> dict:
    with RefClock() as clock:
        setups = []
        for _ in range(SETUPS):
            udgp, panel, setup_s = setup(workload, seed, clock)
            setups.append(setup_s)
        records = run_rounds(panel, seconds, lambda item: [
            solve_one(udgp, item, workload.method, clock)])
    ok = [r for r in records if r.error is None]
    print(f"raw instances_per_s {len(ok) / sum(r.raw_total_s for r in records)!r} "
          f"kernel_s {clock.kernel_s()!r}")
    metrics = {
        "instances_per_s": (len(ok) / sum(r.total_s for r in records), "1/s"),
        "solve_s_p50": (statistics.median(r.solve_s for r in ok) if ok else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return _result(records, answers_repeat(records), metrics)


def layer_metrics(calls: np.ndarray, self_s: np.ndarray, backtracks: int,
                  ninst: int) -> dict:
    """Per-layer metrics from traced calls and self seconds per span name."""
    def n(stem):
        return int(calls[NAMES.index(stem)])

    def us(stem):
        return 1e6 * self_s[NAMES.index(stem)] / n(stem) if n(stem) else 0.0

    def layer_s(layer):
        return sum(self_s[i] for i, lay in enumerate(LAYERS) if lay == layer) / ninst

    m = {}
    for layer, stems in (("model", ("forward", "objective", "gradient")),
                         ("projections", ("sparse_box", "capped_simplex"))):
        for stem in stems:
            m[f"{layer}.{stem}.calls"] = (n(stem) / ninst, "calls/instance")
            m[f"{layer}.{stem}.us"] = (us(stem), "us")
        m[f"{layer}.self_s"] = (layer_s(layer), "s/instance")
    starts, iters = n("anchor_bins"), n("armijo_step")
    m["solver.starts"] = (starts / ninst, "starts/instance")
    m["solver.inner_solves"] = ((n("iht_solve") + n("l1pgd_solve")) / ninst,
                                "solves/instance")
    m["solver.iterations"] = (iters / ninst, "iters/instance")
    m["solver.backtracks"] = (backtracks / ninst, "tries/instance")
    m["solver.step_accept_ratio"] = (iters / (iters + backtracks), "ratio")
    m["solver.start_yield"] = (ninst / starts, "instances/start")
    m["solver.self_s"] = (layer_s("solver"), "s/instance")
    m["instances.extract.us"] = (us("extract"), "us")
    m["instances.score.us"] = (us("score"), "us")
    m["instances.self_s"] = (layer_s("instances"), "s/instance")
    return m


def per_layer(workload, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    with RefClock() as clock:
        udgp, panel, _ = setup(workload, seed, clock, tracer)
        generated = len(tracer)

        def solve_twice(item):
            # untraced, then traced right after, so both see the same machine
            plain = solve_one(udgp, item, workload.method, clock)
            tracer.install(udgp)
            try:
                return [plain, solve_one(udgp, item, workload.method, clock, tracer)]
            finally:
                tracer.uninstall()

        records = run_rounds(panel, seconds, solve_twice)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{workload.name}-seed{seed}.npz")

    plain, traced = records[0::2], records[1::2]
    scale = normalize(1.0, clock.kernel_s())
    m = layer_metrics(tracer.calls(generated), scale * tracer.self_seconds(generated),
                      tracer.backtracks, len(traced))
    generate_s = tracer.self_seconds()[NAMES.index("generate")]
    m["instances.generate.us"] = (1e6 * scale * generate_s / generated, "us")
    m["bench.ref_s"] = (clock.kernel_s(), "s")
    plain_s = sum(r.raw_total_s for r in plain)
    m["bench.raw_instances_per_s"] = (len(plain) / plain_s, "1/s")
    m["bench.trace_overhead"] = (
        sum(r.raw_total_s for r in traced) / plain_s - 1.0, "frac")
    return _result(records, answers_repeat(records), m)


def _result(records, correct: bool, metrics: dict) -> dict:
    failed = sum(r.error is not None for r in records)
    print(f"attempted {len(records)} instances, failed {failed}")
    return {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    print(json.dumps(run(workload, args.seed, args.seconds)))
    return 0
