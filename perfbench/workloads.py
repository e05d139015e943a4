"""The benchmark's workloads: which instances each one solves, and how.

A workload is a fixed panel of instances.  Each is named by (geometry, s,
n, xi, trial), generated with instance seed 90000 + trial and solved with
`SolverConfig(seed=17 * trial + 1)`, the convention of the acceptance
tests.  The panel's histograms do not change with --seed.  How many
restarts an instance needs is heavy-tailed (at (20,2000) from 1 to 50),
so a panel redrawn per seed moves throughput between seeds by more than
any bound a regression check can use (see README.md).  What --seed draws
is, per instance, where the point set sits -- a grid translation and
reflection on the segment, a rotation and reflection on the circle, all
of which leave the histogram unchanged -- and the order of the instances
in a round.  The checks and `score_recovery` must find that alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from checks import lag_histogram

PUBLISHED_NOISE = (0.0, 1e-5, 3e-5, 5e-5, 7e-5)
GEOMETRIES = ("turnpike", "beltway")


@dataclass(frozen=True)
class Cell:
    geometry: str
    s: int
    n: int
    xi: float
    trials: int                  # instances taken from this cell
    first_trial: int = 0
    perturbed_only: bool = False  # skip trials whose noise left y unchanged


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    cells: tuple[Cell, ...]


def _published_cells() -> tuple[Cell, ...]:
    # noise level j takes trials 2j and 2j+1: at n = 1000 the published
    # noise (at most 0.07 bins) never moves a grid-snapped distance to
    # another lag, so reusing one trial at every level would solve one
    # histogram five times
    return tuple(Cell(g, 10, 1000, xi, trials=2, first_trial=2 * j)
                 for j, xi in enumerate(PUBLISHED_NOISE) for g in GEOMETRIES)


WORKLOADS = {w.name: w for w in [
    Workload("iht_published", "iht", _published_cells()),
    Workload("iht_large", "iht",
             tuple(Cell(g, 20, 2000, 0.0, trials=2) for g in GEOMETRIES)),
    Workload("l1pgd_baseline", "l1pgd",
             tuple(Cell(g, 10, 1000, 0.0, trials=3) for g in GEOMETRIES)),
    Workload("iht_noisy", "iht",
             tuple(Cell(g, 10, 1000, 2e-4, trials=1, perturbed_only=True)
                   for g in GEOMETRIES)),
]}


@dataclass
class Item:
    """One panel instance with the solver seed it is solved with."""
    label: str
    instance: object
    solver_seed: int
    true_bins: np.ndarray


def _move(udgp, instance, bins: np.ndarray, rng: np.random.Generator):
    """The instance with its point set moved by a random symmetry."""
    n = instance.n
    circular = instance.geometry is udgp.Geometry.BELTWAY
    if rng.integers(2):
        bins = (-bins) % n if circular else (n - 1) - bins
    if circular:
        bins = (bins + rng.integers(n)) % n
    else:
        bins = bins + rng.integers(-bins.min(), n - bins.max())
    bins = np.sort(bins)
    pos = udgp.instances.bins_to_positions(bins, n, instance.geometry)
    return replace(instance, true_positions=pos), bins


def build_panel(udgp, workload: Workload, seed: int) -> list[Item]:
    """Generate the workload's instances and place them as `seed` draws."""
    rng = np.random.default_rng([seed, 0x5EED])
    items = []
    for cell in workload.cells:
        geometry = udgp.Geometry(cell.geometry)
        trial = cell.first_trial
        taken = 0
        while taken < cell.trials:
            inst = udgp.instances.generate_instance(geometry, cell.s, cell.n,
                                                    cell.xi, 90000 + trial)
            bins = udgp.instances.positions_to_bins(inst.true_positions, cell.n,
                                                    geometry)
            circular = geometry is udgp.Geometry.BELTWAY
            clean = np.array_equal(lag_histogram(bins, cell.n, circular), inst.y)
            if not (cell.perturbed_only and clean):
                moved, moved_bins = _move(udgp, inst, bins, rng)
                items.append(Item(
                    label=f"{cell.geometry}({cell.s},{cell.n}) xi={cell.xi:g} t={trial}",
                    instance=moved, solver_seed=17 * trial + 1,
                    true_bins=moved_bins))
                taken += 1
            trial += 1
    order = rng.permutation(len(items))
    return [items[i] for i in order]
