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
segment, rotation and reflection on the circle.  A point counts as
recovered when its matched estimate lies within half the minimum
ground-truth gap.
"""

from __future__ import annotations

import json
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


def generate_instance(geometry: Geometry, s: int, n: int, xi: float,
                      seed: int) -> Instance:
    """Sample an instance: positions, pairwise distances, noise, histogram.

    Draws s points uniformly from [0, 1), rejecting any draw that lands on
    an occupied grid bin, and snaps each survivor to its bin center.  All
    s(s-1)/2 pairwise distances (absolute difference on the segment,
    minor arc on the circle) get i.i.d. N(0, xi^2) noise and are binned to
    the nearest lag.
    """
    if s < 2:
        raise ValueError(f"need at least 2 points, got s={s}")
    if n < 2 * s:
        raise ValueError(f"grid too coarse: need n >= 2s, got n={n}, s={s}")
    if xi < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {xi}")
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


def extract_positions(x, n: int, geometry: Geometry, entry_floor: float = 0.05,
                      min_cluster_mass: float = 0.5) -> np.ndarray:
    """Cluster an occupancy vector into estimated point positions.

    Entries below `entry_floor` are zeroed, surviving runs of adjacent
    nonzero bins (circularly adjacent on the beltway) form clusters,
    clusters lighter than `min_cluster_mass` are dropped, and each
    remaining cluster reports the mass-weighted centroid of its bin
    centers.  Returns positions sorted ascending; empty input gives an
    empty vector.
    """
    w = np.asarray(x, dtype=float).copy()
    w[w < entry_floor] = 0.0
    nz = w > 0.0
    if not nz.any():
        return np.zeros(0)

    circular = geometry is Geometry.BELTWAY
    if nz.all():
        runs = [np.arange(n)]
    else:
        # start of a run: nonzero whose predecessor is zero
        prev = np.roll(nz, 1) if circular else np.concatenate([[False], nz[:-1]])
        starts = np.flatnonzero(nz & ~prev)
        runs = []
        for st in starts:
            length = 0
            while nz[(st + length) % n] if circular else (st + length < n and nz[st + length]):
                length += 1
            runs.append(st + np.arange(length))  # may exceed n; wraps are unwrapped

    centers = []
    for ids in runs:
        vals = w[ids % n]
        mass = vals.sum()
        if mass < min_cluster_mass:
            continue
        # a cluster carrying ~k units of mass holds k points: one centroid
        # would sit between them and miss every one at the match threshold
        k = max(1, int(round(mass)))
        if k == 1 or k >= len(ids):
            picked = [float((vals * ids).sum() / mass)] if k == 1 else list(ids)
        else:
            order = np.argsort(-vals, kind="stable")[:k]
            picked = list(ids[np.sort(order)])
        for c in picked:
            if geometry is Geometry.TURNPIKE:
                centers.append(float(c) / (n - 1))
            else:
                centers.append((float(c) % n) / n)
    return np.sort(np.asarray(centers))


@dataclass
class RecoveryReport:
    estimated_positions: np.ndarray
    co_p: int
    alignment: str    # identity | reflected | shifted | shifted_reflected
    shift: float      # translation (segment) or rotation amount (circle)
    threshold: float


def _greedy_match_count(true_pos: np.ndarray, est: np.ndarray,
                        threshold: float, circular: bool) -> int:
    """Greedy nearest matching, smallest distances first; count the hits.

    Matching globally by ascending distance keeps one missing estimate
    from stealing a later point's exact partner, which a fixed
    per-true-point order would allow.
    """
    if est.size == 0:
        return 0
    d = np.abs(true_pos[:, None] - est[None, :])
    if circular:
        d = np.minimum(d, 1.0 - d)
    order = np.argsort(d, axis=None, kind="stable")
    true_free = np.ones(true_pos.size, dtype=bool)
    est_free = np.ones(est.size, dtype=bool)
    hits = 0
    for flat in order:
        i, j = divmod(int(flat), est.size)
        if d[i, j] >= threshold:
            break
        if true_free[i] and est_free[j]:
            true_free[i] = False
            est_free[j] = False
            hits += 1
    return hits


def _min_gap(true_pos: np.ndarray, circular: bool) -> float:
    gaps = np.diff(true_pos)
    if circular:
        gaps = np.append(gaps, 1.0 - (true_pos[-1] - true_pos[0]))
    return float(gaps.min())


def score_recovery(estimated, instance: Instance) -> RecoveryReport:
    """Count correctly recovered points, best over unobservable symmetries.

    The histogram determines the configuration only up to translation and
    reflection on the segment, and up to rotation and reflection on the
    circle, so candidate alignments of the estimate are tried and the best
    greedy match is reported.  Segment candidates are identity and
    reflection about the estimate's midpoint, each optionally translated
    to align centroids; circle candidates are all grid rotations times
    two reflections (rotations that cannot bring any pair within
    threshold are skipped, which cannot change the maximum).  Ties prefer
    identity, then reflection, then the smaller shift.
    """
    est = np.sort(np.asarray(estimated, dtype=float).ravel())
    true_pos = instance.true_positions
    threshold = 0.5 * _min_gap(true_pos, instance.geometry is Geometry.BELTWAY)
    report = RecoveryReport(estimated_positions=est, co_p=0,
                            alignment="identity", shift=0.0,
                            threshold=threshold)
    if est.size == 0:
        return report

    if instance.geometry is Geometry.TURNPIKE:
        bases = [("", est), ("reflected", (est.min() + est.max()) - est)]
        best = (-1, 0, 0.0, "")
        for kind_idx, (kind, base) in enumerate(bases):
            shifts = [0.0, float(true_pos.mean() - base.mean())]
            for shift in shifts:
                cop = _greedy_match_count(true_pos, base + shift, threshold, False)
                key = (cop, -kind_idx, -abs(shift))
                if key > (best[0], -best[1], -abs(best[2])):
                    best = (cop, kind_idx, shift, kind)
        cop, kind_idx, shift, kind = best
        if abs(shift) < 1e-15:
            report.alignment = "reflected" if kind else "identity"
            report.shift = 0.0
        else:
            report.alignment = "shifted_reflected" if kind else "shifted"
            report.shift = shift
    else:
        n = instance.n
        radius = min(int(np.ceil(threshold * n)) + 1, n // 2)
        best = (-1, 0, 0)
        for kind_idx, base in enumerate([est, np.sort((-est) % 1.0)]):
            # rotations that can align at least one (true, estimate) pair
            marked = np.zeros(n, dtype=bool)
            marked[0] = True
            centers = np.rint(((true_pos[:, None] - base[None, :]) % 1.0) * n)
            ks = (centers.astype(int).ravel()[:, None]
                  + np.arange(-radius, radius + 1)[None, :]) % n
            marked[ks.ravel()] = True
            for k in np.flatnonzero(marked):
                cand = (base + k / n) % 1.0
                cop = _greedy_match_count(true_pos, cand, threshold, True)
                if (cop, -kind_idx, -k) > (best[0], -best[1], -best[2]):
                    best = (cop, kind_idx, int(k))
        cop, kind_idx, k = best
        if k == 0:
            report.alignment = "reflected" if kind_idx else "identity"
            report.shift = 0.0
        else:
            report.alignment = "shifted_reflected" if kind_idx else "shifted"
            report.shift = k / n
    report.co_p = int(cop)
    return report


# ---- on-disk record ----

def instance_to_json(instance: Instance) -> str:
    """Single-record JSON text; positions carry 17 significant digits."""
    pos = ", ".join(format(v, ".17g") for v in instance.true_positions)
    counts = ", ".join(str(int(round(v))) for v in instance.y)
    return (
        "{"
        f'"geometry": "{instance.geometry.value}", '
        f'"n": {instance.n}, "s": {instance.s}, '
        f'"xi": {format(instance.noise_sigma, ".17g")}, '
        f'"seed": {instance.seed}, '
        f'"true_positions": [{pos}], '
        f'"y": [{counts}]'
        "}\n"
    )


def instance_from_json(text: str) -> Instance:
    """Parse one record, rejecting any whose histogram no s points make."""
    rec = json.loads(text)
    geometry = Geometry(rec["geometry"])
    n, s = int(rec["n"]), int(rec["s"])
    y = np.asarray(rec["y"], dtype=float)
    pos = np.asarray(rec["true_positions"], dtype=float)
    if y.shape != (n - 1,):
        raise ValueError(f"histogram length {y.size} does not match n={n}")
    if pos.shape != (s,):
        raise ValueError(f"position count {pos.size} does not match s={s}")
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    if not np.all((y >= 0) & (y == np.floor(y))):
        raise ValueError("histogram counts must be non-negative integers")
    pairs = s * (s - 1) // (1 if geometry is Geometry.BELTWAY else 2)
    if y.sum() != pairs:
        raise ValueError(f"histogram counts sum to {y.sum():g}, expected "
                         f"{pairs} for s={s} on the {geometry.value}")
    return Instance(geometry=geometry, n=n, s=s, y=y, true_positions=pos,
                    noise_sigma=float(rec["xi"]), seed=int(rec["seed"]))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(instance))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_json(fh.read())
