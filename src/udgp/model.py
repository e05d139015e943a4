"""Quadratic lag-count measurement model for 1-D point-set recovery.

A configuration of points on an n-bin grid is encoded as an occupancy
vector x in [0,1]^n.  The data is the per-lag histogram of pairwise
separations,

    y_i = sum_u x_u * x_{u+i},   i = 1..n-1,

with linear indexing on a segment (turnpike) and modular indexing on a
circle (beltway).  This module provides the forward map, the least-squares
objective f(x) = (1/m) * sum_i (y_i(x) - y_i)^2 with m = n-1, and its
exact gradient.

The shift matrices behind the quadratic form are never materialized; all
maps are correlations.  `LagOperator` picks each map's path from the
support size k = nnz(x).  The forward map enumerates point pairs, at
O(k^2 + n), while k^2 is within `_pairs`' budget.  The gradient sums, at
O(k*n) whatever the residual's density, the length-n windows of one lag
row built from the residual, weighted by x, while k*n is within
`_window_budget`.  Beyond those, both correlate by FFT at O(n log n).  At
the published sizes (s <= 30) every hard-thresholded iterate takes the
pair and window paths, and so do the late iterates of the l1 baseline,
whose mass concentrates on a few dozen bins.  Those two paths are exact
on binary x with integer y, and every path agrees to 1e-10 absolute with
the direct per-lag reference loops in `tests/oracles.py`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# The window gradient costs about k*n, the FFT one L*log2(L) plus a per-call
# cost; the window runs while k*n <= _WINDOW_PER_FFT * L*log2(L) +
# _WINDOW_PER_CALL, fitted to the break-even points in the gradient table
# of tests/layer_costs.py (x86, NumPy 2.4.6, one BLAS thread).
_WINDOW_PER_FFT = 4.0
_WINDOW_PER_CALL = 1 << 16
_BLOCK_ENTRIES = 1 << 17


class Geometry(Enum):
    TURNPIKE = "turnpike"
    BELTWAY = "beltway"


@functools.cache
def _pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pair for k support points."""
    return np.triu_indices(k, 1)


@dataclass(frozen=True)
class LagOperator:
    """Implicit family of shift operators on an n-bin grid.

    For lag i, the underlying 0/1 matrix has entry (u, v) equal to 1 iff
    v - u = i (turnpike) or (v - u) mod n = i (beltway).  Lags run
    1..n-1 for both geometries, so m = n - 1.
    """

    n: int
    geometry: Geometry

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid size must be >= 2, got {self.n}")
        if not isinstance(self.geometry, Geometry):
            raise ValueError(f"unknown geometry: {self.geometry!r}")

    @property
    def m(self) -> int:
        """Number of lags."""
        return self.n - 1

    @property
    def circular(self) -> bool:
        return self.geometry is Geometry.BELTWAY

    # fft length: n on the circle, a power of two >= 2n-1 on the segment
    @functools.cached_property
    def _fft_len(self) -> int:
        return self.n if self.circular else 1 << (2 * self.n - 2).bit_length()

    @functools.cached_property
    def _window_budget(self) -> float:
        L = self._fft_len
        return _WINDOW_PER_FFT * L * math.log2(L) + _WINDOW_PER_CALL

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        return x

    def _check_y(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"y has shape {y.shape}, expected ({self.m},)")
        return y

    def _pairs(self, support: np.ndarray) -> bool:
        """Whether a support this size takes the pair-enumeration forward map;
        the 4096 floor keeps every n <= 64 evaluation integer-exact."""
        return support.size * support.size <= max(4 * self.n, 4096)

    def _windows(self, support: np.ndarray) -> bool:
        """Whether a support this size takes the window gradient."""
        return support.size * self.n <= self._window_budget

    def _forward(self, x: np.ndarray, support: np.ndarray) -> np.ndarray:
        if self._pairs(support):
            return self._forward_sparse(x, support)
        return self._forward_fft(x)

    def forward(self, x) -> np.ndarray:
        """Per-lag pair-count histogram of x, length m."""
        x = self._check_x(x)
        return self._forward(x, np.flatnonzero(x))

    def evaluate(self, x, y) -> tuple[float, np.ndarray, np.ndarray]:
        """(objective, residual r = forward(x) - y, support of x) in one pass.

        The last two are what `gradient` at the same x can take as given.
        """
        x = self._check_x(x)
        return self._evaluate(x, np.flatnonzero(x), self._check_y(y))

    def _evaluate(self, x, support, y):
        """`evaluate` of a checked x whose support is known, against a
        checked y."""
        r = self._forward(x, support) - y
        return float(r @ r) / self.m, r, support

    def objective(self, x, y) -> float:
        """Mean squared histogram misfit, (1/m) * ||forward(x) - y||^2."""
        return self.evaluate(x, y)[0]

    def gradient(self, x, y, r=None, support=None) -> np.ndarray:
        """Exact gradient of `objective` with respect to x.

        Equals (2/m) * sum_i r_i * (shift_i + shift_i^T) x with
        r = forward(x) - y, evaluated as one correlation of x with a lag
        row built from the residual.  A caller that already holds r and the
        support flatnonzero(x) of this same x (from `evaluate`) may pass
        them; the result is bit-identical and skips the forward pass and the
        scan.  Without r, both come from `evaluate`.
        """
        x = self._check_x(x)
        if r is None:
            _, r, support = self.evaluate(x, y)
        elif support is None:
            support = np.flatnonzero(x)
        if self._windows(support):
            return self._gradient_window(x, support, r)
        return self._gradient_fft(x, r)

    # ---- FFT path ----

    def _forward_fft(self, x: np.ndarray) -> np.ndarray:
        L = self._fft_len
        X = np.fft.rfft(x, L)
        acorr = np.fft.irfft(X.real**2 + X.imag**2, L)
        return acorr[1:self.n].copy()

    def _gradient_fft(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        n, L = self.n, self._fft_len
        c = np.zeros(L)
        if self.circular:
            c[1:n] = r + r[::-1]
        else:
            c[1:n] = r
            c[L - n + 1:] += r[::-1]
        conv = np.fft.irfft(np.fft.rfft(c) * np.fft.rfft(x, L), L)
        return (2.0 / self.m) * conv[:n]

    # ---- pair and window paths ----

    def _forward_sparse(self, x: np.ndarray, support: np.ndarray) -> np.ndarray:
        if support.size < 2:  # no pairs: bincount of no lags would be int64
            return np.zeros(self.m)
        v = x[support]
        i, j = _pair_indices(support.size)
        lags = support[j] - support[i]  # support ascending, so lags >= 1
        w = v[i] * v[j]
        if self.circular:
            lags = np.concatenate([lags, self.n - lags])
            w = np.concatenate([w, w])
        return np.bincount(lags - 1, weights=w, minlength=self.m)

    def _gradient_window(self, x: np.ndarray, support: np.ndarray,
                         r: np.ndarray) -> np.ndarray:
        # g_u = (2/m) * sum_{v in S} x_v * c(u - v): c is r at lag |u - v| on
        # the segment, r_d + r_{n-d} at d = (u - v) mod n on the circle
        n = self.n
        if self.circular:
            c = np.concatenate(([0.0], r + r[::-1]))
            c = np.concatenate((c, c))
            starts = n - support
        else:
            c = np.concatenate((r[::-1], [0.0], r))
            starts = (n - 1) - support
        # read-only view with row j = c[j:j+n]; np.ndarray checks its bounds
        # and costs less per call than as_strided
        c.flags.writeable = False
        rows = np.ndarray((c.size - n + 1, n), buffer=c, strides=c.strides * 2)
        # gather in blocks of 1 MB, which stay in cache and bound the copy
        xs, block = x[support], max(1, _BLOCK_ENTRIES // n)
        g = xs[:block] @ rows[starts[:block]]
        for i in range(block, support.size, block):
            g += xs[i:i + block] @ rows[starts[i:i + block]]
        g *= 2.0 / self.m
        return g
