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
maps are correlation loops.  Each operation has two evaluation paths:

* a pair-enumeration path, which costs O(nnz^2 + n) for the forward map
  and O(nnz(x) * nnz(r)) for the gradient,
* an FFT path, which costs O(n log n) whatever the density.

The dispatching methods on `LagOperator` pick between them by support
size alone: pairs while nnz(x)^2 is within `_sparse_budget`, FFT beyond
it.  At the published sizes (s <= 30) every hard-thresholded iterate
takes the pair path, and so do the late iterates of the l1 baseline,
whose mass concentrates on a few dozen bins.  Both paths agree to 1e-10
absolute with the direct O(n*m) per-lag reference loop, which lives in
`tests/oracles.py`.

A solver that has just evaluated an iterate keeps what `evaluate` hands
back -- the objective, the residual r = forward(x) - y and the support --
and passes r and the support to `gradient`, which then runs neither a
forward pass nor a support scan of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Geometry(Enum):
    TURNPIKE = "turnpike"
    BELTWAY = "beltway"


def _next_pow2(k: int) -> int:
    p = 1
    while p < k:
        p *= 2
    return p


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

    # fft length: circular correlation needs n; linear needs >= 2n-1
    @property
    def _fft_len(self) -> int:
        return self.n if self.circular else _next_pow2(2 * self.n - 1)

    # prefer exact pair enumeration up to this nnz^2; the 4096 floor keeps
    # every n <= 64 evaluation integer-exact regardless of density
    @property
    def _sparse_budget(self) -> int:
        return max(4 * self.n, 4096)

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
        """Whether a support this size takes the pair-enumeration path."""
        return support.size * support.size <= self._sparse_budget

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
        support = np.flatnonzero(x)
        r = self._forward(x, support) - self._check_y(y)
        return float(r @ r) / self.m, r, support

    def objective(self, x, y) -> float:
        """Mean squared histogram misfit, (1/m) * ||forward(x) - y||^2."""
        return self.evaluate(x, y)[0]

    def gradient(self, x, y, r=None, support=None) -> np.ndarray:
        """Exact gradient of `objective` with respect to x.

        Equals (2/m) * sum_i r_i * (shift_i + shift_i^T) x with
        r = forward(x) - y, evaluated as two correlation passes over the
        residual.  A caller that already holds r and the support
        flatnonzero(x) of this same x (from `evaluate`) may pass them; the
        result is bit-identical and skips the forward pass and the scan.
        Without r, both come from `evaluate`.
        """
        x = self._check_x(x)
        if r is None:
            _, r, support = self.evaluate(x, y)
        elif support is None:
            support = np.flatnonzero(x)
        if self._pairs(support):
            return self._gradient_sparse(x, support, r)
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

    # ---- sparse-support path ----

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

    def _gradient_sparse(self, x: np.ndarray, support: np.ndarray,
                         r: np.ndarray) -> np.ndarray:
        n = self.n
        ri = np.flatnonzero(r)
        if ri.size == 0 or support.size == 0:  # bincount of no terms is int64
            return np.zeros(n)
        lag = ri + 1
        w = (x[support][:, None] * r[ri][None, :]).ravel()
        w = np.concatenate([w, w])
        # on the segment the indices u -/+ lag run from -(n-1) to 2n-2:
        # offset them into 3n-2 bins and keep the middle n, which sums each
        # bin in the same order as dropping the out-of-range entries first
        base = support if self.circular else support + (n - 1)
        idx = np.concatenate([(base[:, None] - lag[None, :]).ravel(),
                              (base[:, None] + lag[None, :]).ravel()])
        if self.circular:
            idx %= n
            g = np.bincount(idx, weights=w, minlength=n)
        else:
            g = np.bincount(idx, weights=w, minlength=3 * n - 2)[n - 1:2 * n - 1]
        g *= 2.0 / self.m
        return g
