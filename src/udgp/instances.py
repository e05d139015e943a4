"""Problem instance generation and recovery evaluation.

An instance is a point configuration on the unit segment (turnpike) or
unit circle (beltway), observed only through the histogram of its noisy
pairwise distances.  Sampled positions are snapped to the n-bin grid so
that the noise-free histogram equals the forward map of the ground-truth
indicator exactly; without the snap the nearest-lag binning of continuous
distances disagrees with integer bin differences for a constant fraction
of pairs.

Recovery is scored against the known positions after factoring out the
symmetries the histogram cannot see: translation and reflection on the
segment, rotation and reflection on the circle.  A true point counts as
recovered when some estimate lies strictly within half the minimum true
gap of it in bins, under the best of those symmetries found exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Geometry, LagOperator


@dataclass
class Instance:
    geometry: Geometry
    n: int
    s: int
    y: np.ndarray               # lag histogram, length n-1, integer counts
    true_positions: np.ndarray  # sorted grid-snapped positions
    noise_sigma: float          # distance noise standard deviation (xi)
    seed: int

    @cached_property
    def op(self) -> LagOperator:
        return LagOperator(self.n, self.geometry)

    def true_bins(self) -> np.ndarray:
        return positions_to_bins(self.true_positions, self.n, self.geometry)

    def true_indicator(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.true_bins()] = 1.0
        return x


def positions_to_bins(positions, n: int, geometry: Geometry) -> np.ndarray:
    """Nearest grid bin per position (round half up)."""
    p = np.asarray(positions, dtype=float)
    if geometry is Geometry.TURNPIKE:
        return np.floor(p * (n - 1) + 0.5).astype(int)
    return np.floor(p * n + 0.5).astype(int) % n


def bins_to_positions(bins, n: int, geometry: Geometry) -> np.ndarray:
    """Center coordinate of each grid bin."""
    b = np.asarray(bins, dtype=float)
    return b / (n - 1) if geometry is Geometry.TURNPIKE else b / n


def check_cell(s: int, n: int, xi: float) -> None:
    """Raise ValueError unless s points fit an n-bin grid at noise xi."""
    if s < 2:
        raise ValueError(f"need at least 2 points, got s={s}")
    if n < 2 * s:
        raise ValueError(f"grid too coarse: need n >= 2s, got n={n}, s={s}")
    _check_noise(xi)


def _check_noise(xi: float) -> None:
    if not 0.0 <= xi < math.inf:  # NaN fails too
        raise ValueError(f"noise level must be finite and nonnegative, got {xi}")


def generate_instance(geometry: Geometry, s: int, n: int, xi: float,
                      seed: int) -> Instance:
    """Sample an instance: positions, pairwise distances, noise, histogram.

    Draws s points uniformly from [0, 1), rejecting any draw that lands on
    an occupied grid bin, and snaps each survivor to its bin center.  All
    s(s-1)/2 pairwise distances (absolute difference on the segment,
    minor arc on the circle) get i.i.d. N(0, xi^2) noise and are binned to
    the nearest lag.
    """
    check_cell(s, n, xi)
    rng = np.random.default_rng(seed)
    used: set[int] = set()
    while len(used) < s:
        p = rng.random()
        b = int(positions_to_bins(np.array([p]), n, geometry)[0])
        used.add(b)
    bins = np.array(sorted(used))
    positions = bins_to_positions(bins, n, geometry)

    i, j = np.triu_indices(s, 1)
    d = positions[j] - positions[i]
    if geometry is Geometry.BELTWAY:
        d = np.minimum(d, 1.0 - d)
    d = d + rng.normal(0.0, xi, size=d.size)
    hi = 1.0 if geometry is Geometry.TURNPIKE else 0.5
    y = bin_distances(np.clip(d, 0.0, hi), n, geometry)
    return Instance(geometry=geometry, n=n, s=s, y=y,
                    true_positions=positions, noise_sigma=xi, seed=seed)


def bin_distances(distances, n: int, geometry: Geometry) -> np.ndarray:
    """Tally distances into the per-lag count histogram (length n-1).

    Each distance goes to the nearest lag, rounding half up and clipping
    into [1, n-1].  On the circle a pair at lag i also separates its
    points by the complementary lag n-i, so both counts are incremented,
    matching the two-sided circular autocorrelation of an indicator.
    """
    d = np.asarray(distances, dtype=float)
    hi = 1.0 if geometry is Geometry.TURNPIKE else 0.5
    if d.size and (d.min() < -1e-12 or d.max() > hi + 1e-12):
        raise ValueError(f"distances must lie in [0, {hi}]")
    y = np.zeros(n - 1)
    scale = (n - 1) if geometry is Geometry.TURNPIKE else n
    lag = np.floor(d * scale + 0.5).astype(int)
    lag = np.clip(lag, 1, n - 1)
    np.add.at(y, lag - 1, 1.0)
    if geometry is Geometry.BELTWAY:
        np.add.at(y, (n - lag) - 1, 1.0)
    return y


_ENTRY_FLOOR = 0.05       # extraction zeroes entries below this
_MIN_CLUSTER_MASS = 0.5   # and drops clusters lighter than this


def extract_positions(x, n: int, geometry: Geometry) -> np.ndarray:
    """Cluster an occupancy vector into estimated point positions.

    Entries below `_ENTRY_FLOOR` are zeroed, surviving runs of adjacent
    nonzero bins (circularly adjacent on the beltway) form clusters,
    clusters lighter than `_MIN_CLUSTER_MASS` are dropped, and each
    remaining cluster reports the mass-weighted centroid of its bin
    centers.  Returns positions sorted ascending; empty input gives an
    empty vector.
    """
    w = np.asarray(x, dtype=float).copy()
    w[w < _ENTRY_FLOOR] = 0.0
    nz = w > 0.0
    # runs lie between the +1 and -1 edges of the mask; the circle is read
    # from an empty bin (bin 0 if none is), so no run crosses the ends, and
    # a run that wraps past bin n-1 keeps counting on from its first bin
    first = int(np.argmin(nz)) if geometry is Geometry.BELTWAY else 0
    edges = np.diff(np.concatenate([[0], np.roll(nz, -first), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)

    picked = []
    for st, length in zip((starts + first) % n, ends - starts):
        ids = st + np.arange(length)
        vals = w[ids % n]
        mass = vals.sum()
        if mass < _MIN_CLUSTER_MASS:
            continue
        # a cluster carrying ~k units of mass holds k points: one centroid
        # would sit between them and miss every one at the match threshold
        k = max(1, int(round(mass)))
        if k == 1:
            picked.append((vals * ids).sum() / mass)
        else:
            order = np.argsort(-vals, kind="stable")[:k]
            picked.extend(ids[np.sort(order)])
    bins = np.asarray(picked, dtype=float) % n
    return np.sort(bins_to_positions(bins, n, geometry))


@dataclass
class RecoveryReport:
    estimated_positions: np.ndarray
    co_p: int
    alignment: str    # identity | reflected | shifted | shifted_reflected
    shift: float      # translation (segment) or rotation amount (circle)
    threshold: float


def _covered(true: np.ndarray, base: np.ndarray, shifts: np.ndarray,
             thr: float, period: int | None) -> np.ndarray:
    """Per shift, the true bins with an estimate in sorted `base` strictly
    within thr; on the circle (`period` n) base lies in [0, n)."""
    q = true[None, :] - shifts[:, None]  # where each true bin needs an estimate
    if period is None:
        pad = np.concatenate([[-np.inf], base, [np.inf]])
    else:
        q %= period
        pad = np.concatenate([[base[-1] - period], base, [base[0] + period]])
    k = np.searchsorted(pad, q)
    nearest = np.minimum(q - pad[k - 1], pad[k] - q)
    return (nearest < thr).sum(axis=1)


def score_recovery(estimated, instance: Instance) -> RecoveryReport:
    """Count correctly recovered points, best over unobservable symmetries.

    Co.P is the exact maximum, over the estimate and its reflection and
    over every real translation (segment) or rotation (circle), of the
    number of true points with an estimate strictly within the threshold:
    half the minimum true gap, in bins (positions times n-1 on the segment,
    n on the circle), so an estimate exactly that far away does not count.
    No estimate is within it of two true points, so the count is already a
    maximum one-to-one matching.  The count changes only at the shifts
    t - e +/- threshold, so shift 0 and one shift inside each stretch
    between them give the exact maximum.  Ties prefer identity,
    then reflection (about the estimate's midpoint on the segment, about 0
    on the circle), then the shift nearest 0 the short way round.  `shift`
    and `threshold` are in position units.
    """
    est = np.sort(np.asarray(estimated, dtype=float).ravel())
    n, circular = instance.n, instance.geometry is Geometry.BELTWAY
    scale = n if circular else n - 1
    true = np.sort(instance.true_bins()).astype(float)
    gaps = np.diff(true, append=true[0] + n if circular else np.inf)
    thr = 0.5 * float(gaps.min())
    report = RecoveryReport(est, 0, "identity", 0.0, thr / scale)
    if est.size == 0:
        return report

    # positions of grid bins are bin / scale; rounding the product undoes
    # that division's error, so equal distances compare equal in bins
    bins = np.round(est * scale, 9)
    if circular:
        bins %= n
        bases = [np.sort(bins), np.sort(-bins % n)]
    else:
        bases = [bins, np.sort(bins.min() + bins.max() - bins)]
    for reflected, base in enumerate(bases):
        ends = (true[:, None] - base[None, :]).ravel()
        ends = np.concatenate([ends - thr, ends + thr])
        ends = np.sort(ends % n if circular else ends)
        mids = ((ends[:-1] + ends[1:]) / 2)[np.diff(ends) > 0]
        if circular:  # and the stretch that wraps past n
            mids = np.append(mids, (ends[-1] + ends[0] + n) / 2 % n)
        shifts = np.concatenate([[0.0], mids])
        counts = _covered(true, base, shifts, thr, n if circular else None)
        dist = np.minimum(shifts, n - shifts) if circular else np.abs(shifts)
        i = np.argmin(np.where(counts == counts.max(), dist, np.inf))
        if counts[i] > report.co_p:
            moved = bool(dist[i] > 0)
            report.co_p = int(counts[i])
            report.alignment = ("identity", "reflected", "shifted",
                                "shifted_reflected")[2 * moved + reflected]
            report.shift = float(shifts[i]) / scale if moved else 0.0
    return report


# ---- on-disk record ----

def instance_to_json(instance: Instance) -> str:
    """Single-record JSON text; floats are written as their shortest exact
    repr, and a non-finite one raises ValueError."""
    return json.dumps({
        "geometry": instance.geometry.value,
        "n": int(instance.n), "s": int(instance.s),
        "xi": float(instance.noise_sigma),
        "seed": int(instance.seed),
        "true_positions": [float(v) for v in instance.true_positions],
        "y": [int(round(v)) for v in instance.y],
    }, allow_nan=False) + "\n"


def instance_from_json(text: str) -> Instance:
    """Parse one record, rejecting it with a ValueError unless

    * it is a JSON object with a known geometry;
    * n, s and seed are integers, xi a number, and y and true_positions
      lists of numbers, all of them JSON numbers that fit a float;
    * xi is finite and nonnegative;
    * y holds n - 1 counts and true_positions s entries, with 2 <= s <= n;
    * every count is a nonnegative integer, the counts sum to s(s-1)/2 on
      the segment or s(s-1) on the circle, and on the circle the counts
      at lags d and n - d match;
    * the true positions lie in s distinct grid bins of the unit segment
      or circle;
    * at xi = 0, the lag counts of those bins are y.

    A missing field raises KeyError.  At xi > 0 nothing checks that any s
    points make y."""
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    geometry = Geometry(rec["geometry"])
    n, s, seed = rec["n"], rec["s"], rec["seed"]
    if not all(type(v) is int for v in (n, s, seed)):  # no float, bool or str
        raise ValueError("n, s and seed must be integers, got "
                         f"{n!r}, {s!r}, {seed!r}")
    xi, y, pos = rec["xi"], rec["y"], rec["true_positions"]
    # JSON numbers only: no bool, str, null, list or object in their place
    if not (type(xi) in (int, float)
            and all(type(v) is list and all(type(e) in (int, float) for e in v)
                    for v in (y, pos))):
        raise ValueError("xi must be a number, and y and true_positions "
                         "lists of numbers")
    try:  # an integer past float's range
        xi = float(xi)
        y = np.asarray(y, dtype=float)
        pos = np.asarray(pos, dtype=float)
    except OverflowError as err:
        raise ValueError(f"xi, y and true_positions must fit a float: {err}") from None
    _check_noise(xi)
    if y.shape != (n - 1,):
        raise ValueError(f"histogram length {y.size} does not match n={n}")
    if pos.shape != (s,):
        raise ValueError(f"position count {pos.size} does not match s={s}")
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    if not np.all((y >= 0) & (y == np.floor(y))):
        raise ValueError("histogram counts must be non-negative integers")
    if geometry is Geometry.BELTWAY and not np.array_equal(y, y[::-1]):
        raise ValueError("beltway counts must match at lags d and n-d")
    pairs = s * (s - 1) // (1 if geometry is Geometry.BELTWAY else 2)
    if y.sum() != pairs:
        raise ValueError(f"histogram counts sum to {y.sum():g}, expected "
                         f"{pairs} for s={s} on the {geometry.value}")
    # [0, 1] on the segment, [0, 1) on the circle; NaN fails every test
    on_unit = (pos >= 0.0) & ((pos <= 1.0) if geometry is Geometry.TURNPIKE
                              else (pos < 1.0))
    if not on_unit.all() or np.unique(positions_to_bins(pos, n, geometry)).size < s:
        raise ValueError("true positions must lie in distinct grid bins of "
                         "the unit segment or circle")
    instance = Instance(geometry=geometry, n=n, s=s, y=y, true_positions=pos,
                        noise_sigma=xi, seed=seed)
    if xi == 0.0 and not np.array_equal(
            np.rint(instance.op.forward(instance.true_indicator())), y):
        raise ValueError("at xi = 0 the true positions' lag counts must "
                         "equal the histogram")
    return instance


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(instance))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_json(fh.read())
