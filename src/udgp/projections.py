"""Exact Euclidean projections onto the two feasible sets.

* `project_sparse_box`: the intersection of the s-sparse set with the unit
  box, used by the hard-thresholding solver.  Nonconvex, so the projection
  is set-valued in general; this implementation returns the deterministic
  minimizer obtained by breaking ranking ties toward the lowest index.
* `project_capped_simplex`: the capped simplex {x in [0,1]^n : sum x = s},
  used by the l1 projected-gradient baseline.  Convex, unique minimizer.
  Its multiplier is bracketed between two consecutive sorted breakpoints
  of z; because the clipped sum as computed is monotone in the
  multiplier, the answer is bit for bit that of bisecting all 2n
  breakpoints.

Each set also has a support-kept entry point, `sparse_box_kept` and
`capped_simplex_kept`, for the tries of one projected-gradient step
from an iterate x with support S: a try whose projection provably keeps
S, or that no bin off S enters, is formed from S's entries and the best
entrant's without the full projection, and equals it bit for bit.  A
kept capped-simplex try takes each clipped sum in one n-length pass and
first checks the bracket around the multiplier its thread's last kept
try settled, so most cost O(|S| log |S|) work plus two such sums.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

_memo = threading.local()  # per thread: the last kept try's multiplier


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


def sparse_box_kept(x, grad, support, g_b, s: int):
    """`project_sparse_box`'s tries from x along -grad that keep x's
    support S, formed on S alone.

    S must miss at least one bin, and g_b is the least grad off S.
    Returns None unless S holds s bins, and otherwise a function of tau
    that gives (project_sparse_box(x - tau * grad, s), S) when that
    projection provably keeps S, and None when it may not.  With
    z = x - tau * grad on S, S is kept when z_b = -tau * g_b, the largest
    z off S, is at most 1, every z on S is positive, and the smallest
    gain on S exceeds z_b's.  The projection is then min(z, 1)
    on S and zero off it.  Each value is computed by the same
    floating-point operations as through `project_sparse_box`, so the two
    agree bit for bit.
    """
    if support.size != s:
        return None
    x_s, g_s = x[support], grad[support]

    def tried(tau):
        z = x_s - tau * g_s
        b = max(0.0 - tau * g_b, 0.0)  # z_b, or 0 when its gain is 0
        clipped = np.minimum(z, 1.0)
        if not (b <= 1.0 and z.min() > 0.0
                and (z * z - (z - clipped) ** 2).min() > b * b):
            return None
        x_next = np.zeros(x.size)
        x_next[support] = clipped
        return x_next, support

    return tried


def project_capped_simplex(z, s: int) -> np.ndarray:
    """Project z onto {x in [0,1]^n : sum(x) = s}.

    The minimizer has the form x_j = clip(z_j + lam, 0, 1) where lam makes
    the coordinate sum equal s.  The sum is piecewise linear and
    nondecreasing in lam with breakpoints at -z_j and 1 - z_j, so lam is
    interpolated between the two consecutive sorted breakpoints that
    bracket s: an exact search with no iterative tolerance (Wang & Lu,
    "Projection onto the capped simplex", 2015).  `_settle` sorts all 2n
    breakpoints, estimates the sum at each by a sweep over their slopes,
    and settles the bracket with the computed sum, cap_sum.

    cap_sum as computed is nondecreasing in lam: float addition, clip
    and NumPy's fixed pairwise summation are each monotone.  So bisecting
    all 2n sorted breakpoints returns one pair: hi, the least index >= 1
    whose sum reaches s, or the last index when none does (s = n with the
    sum at the last breakpoint rounded just under n), and lo = hi - 1.
    This search finds the same pair of values and applies the same
    interpolation (`_interpolate`), so x is the bisection's bit for bit.
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
        # min(max(.)) is clip up to the sign of a zero, which no sum of
        # these nonnegative terms can tell apart
        v = z + lam
        np.maximum(v, 0.0, out=v)
        np.minimum(v, 1.0, out=v)
        return float(v.sum())

    lam = _interpolate(_settle(cap_sum, s, z, None), s)
    return np.clip(z + lam, 0.0, 1.0)


def _settle(cap_sum, s: int, t: np.ndarray,
            c: float | None) -> tuple | None:
    """The bracket (b_lo, s_lo, b_hi, s_hi) of z's capped-simplex
    multiplier: the bisection's two breakpoints among those of t, entries
    of z, below c, then c, and cap_sum at each; or None if z's clipped sum
    at c falls short of s.  c = None brackets among all of t's
    breakpoints, t being all of z.

    cap_sum(lam) is sum(clip(z + lam, 0, 1)) over all of z, whose
    pairwise summation depends on where the positive entries sit.  Every
    entry of z not in t must be at most -c, so that below c it clips to 0
    and the breakpoints searched, t's below c and then c, are the leading
    entries of all 2n sorted ones.  Then the bracket is the bisection's
    bit for bit (see `project_capped_simplex`).
    """
    starts = -t
    starts.sort()
    both = np.concatenate([starts, starts + 1.0])  # -t_j, then 1 - t_j
    order = both.argsort(kind="stable")  # merges two sorted runs
    bp = both[order]
    # t's clipped sum has slope +1 past each -t_j, -1 past each 1 - t_j
    slope = np.where(order < t.size, 1.0, -1.0).cumsum()
    if c is not None:
        # the breakpoints below c, then c
        bp = np.concatenate([bp[:bp.searchsorted(c)], [c]])
    last = bp.size - 1
    # estimate[j] is t's clipped sum at bp[j + 1]; it is 0 at bp[0]
    estimate = (slope[:last] * (bp[1:] - bp[:-1])).cumsum()
    hi = min(last, 1 + int(np.count_nonzero(estimate < s)))
    s_hi = cap_sum(bp[hi])
    while s_hi < s and hi < last:
        # equal breakpoints have equal sums: skip past them
        hi = min(last, int(bp.searchsorted(bp[hi], "right")))
        s_hi = cap_sum(bp[hi])
    # without c, a last breakpoint whose rounded sum falls short of s
    # (s = n) closes the bracket, as in the bisection
    if s_hi < s and c is not None:
        return None
    lo = hi - 1
    s_lo = cap_sum(bp[lo])
    while lo > 0 and s_lo >= s:
        hi, s_hi = max(1, int(bp.searchsorted(bp[lo], "left"))), s_lo
        lo = hi - 1
        s_lo = cap_sum(bp[lo])
    return bp[lo], s_lo, bp[hi], s_hi


def _interpolate(bracket, s: int) -> float:
    """The multiplier at which the clipped sum, linear across the bracket
    (b_lo, s_lo, b_hi, s_hi), reaches s; b_lo if the two sums tie."""
    b_lo, s_lo, b_hi, s_hi = bracket
    if s_hi <= s_lo:
        return float(b_lo)
    frac = (s - s_lo) / (s_hi - s_lo)
    return float(b_lo + frac * (b_hi - b_lo))


def capped_simplex_kept(x, grad, support, g_b, s: int):
    """`project_capped_simplex`'s tries from x along -grad that no bin off
    x's support S enters.

    S must hold at least one bin and miss at least one, and g_b is the
    least grad off S.  Returns a function of tau that gives
    (project_capped_simplex(x - tau * grad, s), its support) when no bin
    off S turns positive in it, and None otherwise.  With
    z = x - tau * grad, the largest z off S is z_b = -tau * g_b, and below
    its breakpoint c = -z_b every bin off S clips to 0, so the multiplier
    is bracketed among S's breakpoints below c, then c, or else the try is
    declined.  At that multiplier lam no bin off S is positive when
    z_b + lam <= 0, and the projection is then clip(z + lam, 0, 1) on S
    and zero off it; its support is the bins of S that stay positive.

    A try works on t, z on S, alone.  Each clipped sum is `_kept_sum`'s
    one pass, and the bracket is the one around the last kept try's
    multiplier, if this thread settled one and the bracket checks out at
    t (`_hinted`), and otherwise `_settle`'s; either way it is the
    bisection's.  Each value is computed by the same floating-point
    operations as through `project_capped_simplex`, so the two agree bit
    for bit.
    """
    x_s, g_s, n = x[support], grad[support], x.size

    def tried(tau):
        t = x_s - tau * g_s  # z on S
        z_b = 0.0 - tau * g_b  # as z's entries off S are formed
        c = -z_b
        x_next = np.zeros(n)  # zero off S, where every lam tried is <= c
        cap_sum = partial(_kept_sum, x_next, support, t)
        bracket = (_hinted(getattr(_memo, "lam", None), t, c, s, cap_sum)
                   or _settle(cap_sum, s, t, c))
        if bracket is None:
            return None
        lam = _memo.lam = _interpolate(bracket, s)
        if z_b + lam > 0.0:
            return None
        # no z on S is -0.0, so neither is t + lam, and min(max(.))
        # returns clip's bits
        on = _clip_on(x_next, support, t, lam)
        return x_next, support[on != 0.0]

    return tried


def _clip_on(buf, support, t, lam: float) -> np.ndarray:
    """clip(t + lam, 0, 1), also written into buf on S."""
    on = t + lam
    np.maximum(on, 0.0, out=on)
    np.minimum(on, 1.0, out=on)
    buf[support] = on
    return on


def _kept_sum(buf, support, t, lam: float) -> float:
    """sum(clip(z + lam, 0, 1)) for a z that is t on S and whose entries
    off S clip to +-0 at lam, in one n-length pass.

    clip(t + lam, 0, 1) is written into buf, which is zero off S, and buf
    is summed.  Its entries differ from clip(z + lam, 0, 1)'s at most in
    the sign of a zero, which no sum of nonnegative terms can tell apart,
    and NumPy's pairwise sum adds them in the same positions, so the sum
    is the n-length one bit for bit; a sum over S alone would group them
    otherwise.
    """
    _clip_on(buf, support, t, lam)
    return float(buf.sum())


def _hinted(lam, t, c: float, s: int, cap_sum) -> tuple | None:
    """The bracket (b_lo, s_lo, b_hi, s_hi) around lam, this thread's last
    kept multiplier, among the breakpoints of t, z on S, and c, if it is
    the bisection's; otherwise None.

    b_lo is the last of the sorted breakpoints -t_j and 1 - t_j at most
    lam, and b_hi the next one or c, whichever is less, so when lam < c
    they are consecutive among S's breakpoints below c, then c.  They are
    the bisection's bracket exactly when cap_sum(b_lo) < s <=
    cap_sum(b_hi): b_hi is then the first of those whose sum reaches s.
    """
    if lam is None or lam >= c:
        return None
    u = -t
    bps = np.concatenate([u, u + 1.0])  # as `_settle` forms them
    bps.sort()
    i = int(bps.searchsorted(lam, "right"))
    if i == 0:
        return None
    b_lo, b_hi = bps[i - 1], min(bps[i], c) if i < bps.size else c
    s_lo = cap_sum(b_lo)
    if s_lo >= s:
        return None
    s_hi = cap_sum(b_hi)
    return (b_lo, s_lo, b_hi, s_hi) if s_hi >= s else None
