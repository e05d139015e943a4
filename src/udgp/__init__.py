"""Solvers and benchmarks for 1-D unassigned distance geometry.

Recovers point configurations on a segment (turnpike) or circle (beltway)
from the histogram of their pairwise distances, via hard-thresholding
projected gradient descent on a sparsity-constrained quadratic model,
with an l1/capped-simplex projected-gradient baseline for comparison.
"""

from .instances import (Instance, RecoveryReport, bin_distances,
                        bins_to_positions, extract_positions,
                        generate_instance, instance_from_json,
                        instance_to_json, load_instance, positions_to_bins,
                        save_instance, score_recovery)
from .model import Geometry, LagOperator
from .projections import project_capped_simplex, project_sparse_box
from .solver import (BacktrackExhausted, NumericError, SolveResult,
                     SolverConfig, StopReason, anchor_bins, armijo_step,
                     binary_misfit, iht_solve, l1pgd_solve, misfit_budget,
                     multi_start)

__version__ = "0.1.0"

__all__ = [
    "BacktrackExhausted",
    "Geometry",
    "Instance",
    "LagOperator",
    "NumericError",
    "RecoveryReport",
    "SolveResult",
    "SolverConfig",
    "StopReason",
    "anchor_bins",
    "armijo_step",
    "bin_distances",
    "binary_misfit",
    "bins_to_positions",
    "extract_positions",
    "generate_instance",
    "iht_solve",
    "instance_from_json",
    "instance_to_json",
    "l1pgd_solve",
    "load_instance",
    "misfit_budget",
    "multi_start",
    "positions_to_bins",
    "project_capped_simplex",
    "project_sparse_box",
    "save_instance",
    "score_recovery",
    "__version__",
]
