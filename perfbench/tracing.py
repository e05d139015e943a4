"""Spans and counts recorded around udgp's public functions, from outside it.

`Tracer.install` replaces each traced name with a wrapper on the module or
class that callers look it up on, so calls made inside udgp are traced
too: `_descend` finds `armijo_step` and both projections in
`udgp.solver`'s globals, `multi_start` finds `iht_solve`, `l1pgd_solve`
and `anchor_bins` there, and every caller reaches the model through
`LagOperator`'s methods.  `uninstall` puts the originals back.

A span is (name, start, end, parent), kept in flat arrays until `save`
writes them out.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (layer, metric stem, owner path, attribute); owners are resolved on the
# udgp package handed to `install`
TRACED = [
    ("model", "forward", "model.LagOperator", "forward"),
    ("model", "objective", "model.LagOperator", "objective"),
    ("model", "gradient", "model.LagOperator", "gradient"),
    ("projections", "sparse_box", "solver", "project_sparse_box"),
    ("projections", "capped_simplex", "solver", "project_capped_simplex"),
    ("solver", "armijo_step", "solver", "armijo_step"),
    ("solver", "iht_solve", "solver", "iht_solve"),
    ("solver", "l1pgd_solve", "solver", "l1pgd_solve"),
    ("solver", "anchor_bins", "solver", "anchor_bins"),
    ("solver", "multi_start", "solver", "multi_start"),
    ("instances", "extract", "instances", "extract_positions"),
    ("instances", "score", "instances", "score_recovery"),
    ("instances", "generate", "instances", "generate_instance"),
]
# the benchmark's own span around one instance's timed pipeline
ROOT = len(TRACED)
NAMES = [stem for _, stem, _, _ in TRACED] + ["bench.instance"]
LAYERS = [layer for layer, _, _, _ in TRACED] + ["bench"]


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.backtracks = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, fn):
        open_, close = self.open, self.close
        if NAMES[name_id] == "armijo_step":
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(idx)
                self.backtracks += out[3]
                return out
        else:
            def wrapper(*args, **kwargs):
                idx = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return wrapper

    def install(self, package) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name_id, (_, _, path, attr) in enumerate(TRACED):
            owner = _resolve(package, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name_id, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def calls(self, first: int = 0) -> np.ndarray:
        """Number of spans per name id, counting spans from `first` on."""
        return np.bincount(np.frombuffer(self.name, dtype=np.uint8)[first:],
                           minlength=len(NAMES))

    def self_seconds(self, first: int = 0, scale=1.0) -> np.ndarray:
        """Summed self time per name id of the spans from `first` on.

        `scale` multiplies each span's self time, for example by the
        reference-clock factor of the instance it ran in.  No span from
        `first` on may have a parent before it.
        """
        name = np.frombuffer(self.name, dtype=np.uint8)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        dur = np.frombuffer(self.end)[first:] - np.frombuffer(self.start)[first:]
        if np.any(dur < 0.0):
            raise RuntimeError("span left open")
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child],
                                minlength=dur.size)
        return np.bincount(name, weights=own * scale, minlength=len(NAMES))

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), name=np.frombuffer(self.name, dtype=np.uint8),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 backtracks=self.backtracks)
