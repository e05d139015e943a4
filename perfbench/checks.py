"""Output checks computed apart from the udgp code they check.

Nothing here calls into udgp: the lag histogram is tallied from pairwise
bin differences, and the symmetry search enumerates every grid
translation (segment) or rotation (circle), with and without reflection,
instead of reusing the scorer's candidate alignments.
"""

from __future__ import annotations

import numpy as np

# a capped-simplex iterate sums to s up to rounding in the breakpoint search
SUM_TOL = 1e-8


def lag_histogram(bins, n: int, circular: bool) -> np.ndarray:
    """Pair counts per lag 1..n-1 of a set of distinct grid bins.

    On the circle a pair at lag d also sits at lag n - d, and both lags
    are counted, as in two-sided circular autocorrelation.
    """
    b = np.sort(np.asarray(bins, dtype=np.int64))
    d = (b[None, :] - b[:, None])[np.triu_indices(b.size, 1)]
    if circular:
        d = np.concatenate([d, n - d])
    return np.bincount(d - 1, minlength=n - 1)[:n - 1].astype(float)


def feasibility_error(x, s: int, method: str) -> str | None:
    """Why x lies outside its method's feasible set, or None if it does not.

    IHT iterates live in [0,1]^n with at most s nonzeros; capped-simplex
    iterates live in [0,1]^n and sum to s.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return "non-finite entries"
    if x.min() < 0.0 or x.max() > 1.0:
        return f"entries outside [0,1]: min {x.min():.3g}, max {x.max():.3g}"
    if method == "iht" and np.count_nonzero(x) > s:
        return f"{np.count_nonzero(x)} nonzeros, more than s={s}"
    if method == "l1pgd" and abs(float(x.sum()) - s) > SUM_TOL * s:
        return f"sum {float(x.sum())!r} differs from s={s}"
    return None


def best_alignment_match(est_bins, true_bins, n: int, circular: bool,
                         threshold: float) -> int:
    """Most true points matched by one symmetry image of the estimate.

    Tries every grid translation that keeps the estimate on the segment,
    or every rotation of the circle, each with and without reflection.  A
    true point counts as matched when some estimate lies strictly within
    `threshold` bins of it.  With `threshold` at most half the minimum
    true gap no estimate is that close to two true points, so this count
    is a maximum matching.
    """
    est = np.asarray(est_bins, dtype=float)
    true = np.asarray(true_bins, dtype=float)
    if est.size == 0:
        return 0
    best = 0
    for base in (est, -est):
        if circular:
            shifts = np.arange(n, dtype=float)
        else:
            shifts = np.arange(-base.min(), n - 1 - base.max() + 1)
        for chunk in np.array_split(shifts, max(1, shifts.size // 512)):
            d = np.abs(true[None, :, None] - base[None, None, :] - chunk[:, None, None])
            if circular:
                d %= n
                d = np.minimum(d, n - d)
            hits = (d < threshold).any(axis=2).sum(axis=1)
            best = max(best, int(hits.max()))
    return best


def min_true_gap(true_bins, n: int, circular: bool) -> int:
    b = np.sort(np.asarray(true_bins, dtype=np.int64))
    gaps = np.diff(b)
    if circular:
        gaps = np.append(gaps, n - (b[-1] - b[0]))
    return int(gaps.min())


def check_answer(x_final, est_positions, co_p: int, true_bins, y, n: int,
                 s: int, circular: bool, method: str) -> str | None:
    """Every check one solved instance must pass; the first failure, or None.

    (a) x_final is feasible for its method.  (b) If y is the exact
    histogram of the true set, the rounded support reproduces y.  (c) The
    estimated positions match the true ones, one to one, within half the
    minimum true gap under some symmetry, and the scorer's Co.P agrees
    with this search.
    """
    err = feasibility_error(x_final, s, method)
    if err:
        return f"infeasible: {err}"
    true_hist = lag_histogram(true_bins, n, circular)
    if np.array_equal(true_hist, y):
        support = np.flatnonzero(np.asarray(x_final) > 0.5)
        if not np.array_equal(lag_histogram(support, n, circular), y):
            return "rounded support does not reproduce the histogram"
    scale = n if circular else n - 1
    est_bins = np.asarray(est_positions, dtype=float) * scale
    threshold = 0.5 * min_true_gap(true_bins, n, circular)
    matched = best_alignment_match(est_bins, true_bins, n, circular, threshold)
    if matched != s or len(est_bins) != s:
        return f"{matched} of {s} points matched by {len(est_bins)} estimates"
    if co_p != matched:
        return f"score_recovery gives Co.P {co_p}, symmetry search {matched}"
    return None
