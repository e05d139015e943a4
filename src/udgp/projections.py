"""Exact Euclidean projections onto the two feasible sets.

* `project_sparse_box`: the intersection of the s-sparse set with the unit
  box, used by the hard-thresholding solver.  Nonconvex, so the projection
  is set-valued in general; this implementation returns the deterministic
  minimizer obtained by breaking ranking ties toward the lowest index.
* `project_capped_simplex`: the capped simplex {x in [0,1]^n : sum x = s},
  used by the l1 projected-gradient baseline.  Convex, unique minimizer.
  Its multiplier is bracketed between two sorted breakpoints found among
  the few largest entries of z, since the baseline's iterates hold a few
  dozen nonzeros; because the clipped sum as computed is monotone in the
  multiplier, the answer is bit for bit that of bisecting all 2n
  breakpoints.
"""

from __future__ import annotations

import numpy as np


def project_sparse_box(z, s: int) -> np.ndarray:
    """Project z onto {x in [0,1]^n : nnz(x) <= s}.

    Coordinates are ranked by the squared-distance gain of keeping them,
    g_j = z_j^2 - (z_j - clip(z_j, 0, 1))^2, which is what makes the
    two-stage select-then-clip composition an exact projection.  Ranking
    by raw magnitude instead is wrong for negative entries.  The top-s
    coordinates (lowest index wins ties) are clipped into the box and the
    rest are zeroed.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("z must be a vector")
    n = z.size
    if not 1 <= s <= n:
        raise ValueError(f"sparsity level must satisfy 1 <= s <= {n}, got {s}")
    clipped = np.clip(z, 0.0, 1.0)
    gain = z * z - (z - clipped) ** 2
    # s-th largest gain; at least s coordinates reach it, and when exactly s
    # do they are the top s
    cutoff = np.partition(gain, n - s)[n - s]
    keep = np.flatnonzero(gain >= cutoff)
    if keep.size > s:
        # ties at the cutoff: keep everything strictly above it, then fill
        # the remaining slots with the lowest-index coordinates at it
        above = gain[keep] > cutoff
        at = keep[~above][:s - np.count_nonzero(above)]
        keep = np.concatenate([keep[above], at])
    x = np.zeros(n)
    x[keep] = clipped[keep]
    return x


def project_capped_simplex(z, s: int) -> np.ndarray:
    """Project z onto {x in [0,1]^n : sum(x) = s}."""
    x, _ = capped_simplex_with_multiplier(z, s)
    return x


def capped_simplex_with_multiplier(z, s: int) -> tuple[np.ndarray, float]:
    """Capped-simplex projection plus the shift multiplier it used.

    The minimizer has the form x_j = clip(z_j + lam, 0, 1) where lam makes
    the coordinate sum equal s.  The sum is piecewise linear and
    nondecreasing in lam with breakpoints at -z_j and 1 - z_j, so lam is
    interpolated between the two consecutive sorted breakpoints that
    bracket s: an exact search with no iterative tolerance (Wang & Lu,
    "Projection onto the capped simplex", 2015).

    The bracket is sought among t, the k largest entries of z, with
    k = 8s at first.  Below c = -(the (k+1)-th largest entry) no other
    coordinate is positive, so t's breakpoints below c, then c, are the
    leading entries of all 2n sorted breakpoints.  If t's clipped sum at c
    is short of s, k grows fourfold, up to n.  Otherwise t's sum at each
    of these breakpoints is estimated by a sweep over their slopes, and
    the first whose estimate reaches s is where the search starts; the
    computed sum `cap_sum` then settles the bracket, stepping up while it
    is short of s and down while the breakpoint below also reaches s.

    `cap_sum` as computed is nondecreasing in lam: float addition, clip
    and NumPy's fixed pairwise summation are each monotone.  So bisecting
    all 2n sorted breakpoints returns one pair: hi, the least index >= 1
    whose sum reaches s, or the last index when none does (s = n with the
    sum at the last breakpoint rounded just under n), and lo = hi - 1.
    This search finds the same pair of values and applies the same
    interpolation, so x and lam are the bisection's bit for bit.

    Returns (x, lam); lam is what the KKT sign conditions are stated in
    terms of, which the test suite checks directly.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("z must be a vector")
    n = z.size
    if s > n:
        raise ValueError(f"sum target {s} exceeds dimension {n}: set is empty")
    if s < 1:
        raise ValueError(f"sum target must be >= 1, got {s}")

    def cap_sum(lam: float) -> float:
        return float(np.clip(z + lam, 0.0, 1.0).sum())

    k = min(n, 8 * s)
    part = np.partition(z, n - k - 1) if k < n else z
    while True:
        t = part[n - k:]
        if k < n:
            c = -part[n - k - 1]
            # each t_j + c >= 0, so only the cap at 1 clips t's sum at c
            if np.minimum(t + c, 1.0).sum() < s:
                k = min(n, 4 * k)
                part = np.sort(part)  # one sort serves every wider k
                continue
        starts = np.sort(-t)
        both = np.concatenate([starts, starts + 1.0])  # -t_j, then 1 - t_j
        order = np.argsort(both, kind="stable")  # merges two sorted runs
        bp = both[order]
        # t's clipped sum has slope +1 past each -t_j, -1 past each 1 - t_j
        slope = np.cumsum(np.where(order < k, 1.0, -1.0))
        if k < n:
            # the breakpoints below c, then c
            bp = np.concatenate([bp[:np.searchsorted(bp, c)], [c]])
        last = bp.size - 1
        # estimate[j] is t's clipped sum at bp[j + 1]; it is 0 at bp[0]
        estimate = np.cumsum(slope[:last] * np.diff(bp))
        hi = min(last, 1 + int(np.count_nonzero(estimate < s)))
        s_hi = cap_sum(bp[hi])
        while s_hi < s and hi < last:
            # equal breakpoints have equal sums: skip past them
            hi = min(last, int(np.searchsorted(bp, bp[hi], "right")))
            s_hi = cap_sum(bp[hi])
        # at k = n a last breakpoint whose rounded sum falls short of s
        # (s = n) closes the bracket, as in the bisection
        if s_hi < s and k < n:
            k = min(n, 4 * k)
            part = np.sort(part)
            continue
        lo = hi - 1
        s_lo = cap_sum(bp[lo])
        while lo > 0 and s_lo >= s:
            hi, s_hi = max(1, int(np.searchsorted(bp, bp[lo], "left"))), s_lo
            lo = hi - 1
            s_lo = cap_sum(bp[lo])
        break
    if s_hi <= s_lo:
        lam = float(bp[lo])
    else:
        frac = (s - s_lo) / (s_hi - s_lo)
        lam = float(bp[lo] + frac * (bp[hi] - bp[lo]))
    return np.clip(z + lam, 0.0, 1.0), lam
