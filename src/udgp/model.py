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

* an FFT path for dense x,
* a pair-enumeration path for sparse x (the hard-thresholded iterates),
  which costs O(nnz^2 + n).

Both agree to 1e-10 absolute with the direct O(n*m) per-lag reference
loop, which lives in `tests/oracles.py`; the dispatching methods on
`LagOperator` pick between them automatically.
"""

from __future__ import annotations

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


_pair_index_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pair for k support points."""
    if k not in _pair_index_cache:
        _pair_index_cache[k] = np.triu_indices(k, 1)
    return _pair_index_cache[k]


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

    def forward(self, x) -> np.ndarray:
        """Per-lag pair-count histogram of x, length m."""
        x = self._check_x(x)
        support = np.flatnonzero(x)
        if support.size * support.size <= self._sparse_budget:
            return self._forward_sparse(x, support)
        return self._forward_fft(x)

    def objective(self, x, y) -> float:
        """Mean squared histogram misfit, (1/m) * ||forward(x) - y||^2."""
        r = self.forward(x) - self._check_y(y)
        return float(r @ r) / self.m

    def gradient(self, x, y) -> np.ndarray:
        """Exact gradient of `objective` with respect to x.

        Equals (2/m) * sum_i r_i * (shift_i + shift_i^T) x with
        r = forward(x) - y, evaluated as two correlation passes over the
        residual.
        """
        x = self._check_x(x)
        y = self._check_y(y)
        support = np.flatnonzero(x)
        if support.size * support.size <= self._sparse_budget:
            return self._gradient_sparse(x, y, support)
        return self._gradient_fft(x, y)

    # ---- FFT path ----

    def _forward_fft(self, x: np.ndarray) -> np.ndarray:
        L = self._fft_len
        X = np.fft.rfft(x, L)
        acorr = np.fft.irfft(X.real**2 + X.imag**2, L)
        return acorr[1:self.n].copy()

    def _gradient_fft(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n, L = self.n, self._fft_len
        r = self._forward_fft(x) - y
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
        if support.size < 2:
            return np.zeros(self.m)
        v = x[support]
        i, j = _pair_indices(support.size)
        lags = support[j] - support[i]  # support ascending, so lags >= 1
        w = v[i] * v[j]
        if self.circular:
            lags = np.concatenate([lags, self.n - lags])
            w = np.concatenate([w, w])
        return np.bincount(lags - 1, weights=w, minlength=self.m)

    def _gradient_sparse(self, x: np.ndarray, y: np.ndarray,
                         support: np.ndarray) -> np.ndarray:
        n = self.n
        r = self._forward_sparse(x, support) - y
        ri = np.flatnonzero(r)
        if ri.size == 0 or support.size == 0:
            return np.zeros(n)
        lag = ri + 1
        w = (x[support][:, None] * r[ri][None, :]).ravel()
        lo = (support[:, None] - lag[None, :]).ravel()
        hi = (support[:, None] + lag[None, :]).ravel()
        if self.circular:
            idx = np.concatenate([lo % n, hi % n])
            w = np.concatenate([w, w])
        else:
            ok_lo, ok_hi = lo >= 0, hi < n
            idx = np.concatenate([lo[ok_lo], hi[ok_hi]])
            w = np.concatenate([w[ok_lo], w[ok_hi]])
        g = np.bincount(idx, weights=w, minlength=n)
        g *= 2.0 / self.m
        return g
