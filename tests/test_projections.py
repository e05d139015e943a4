"""Projection operators against brute-force and KKT oracles."""

from itertools import combinations

import numpy as np
import pytest

from oracles import project_sparse_box_two_scan
from udgp import (capped_simplex_with_multiplier, project_capped_simplex,
                  project_sparse_box)


def brute_force_sparse_box_cost(z, s):
    """Exhaustive support enumeration; per-support optimum is the box clip."""
    best = np.inf
    for sup in combinations(range(len(z)), s):
        x = np.zeros(len(z))
        x[list(sup)] = np.clip(z[list(sup)], 0.0, 1.0)
        best = min(best, float(((x - z) ** 2).sum()))
    return best


class TestSparseBox:
    def test_clip_and_select(self):
        np.testing.assert_allclose(
            project_sparse_box([0.9, -0.2, 1.4, 0.3], 2), [0.9, 0, 1.0, 0])

    def test_negative_entry_beats_magnitude_ranking(self):
        # picking index 0 by |z| would cost 25.25; gain ranking costs 25
        np.testing.assert_allclose(project_sparse_box([-5.0, 0.5], 1), [0, 0.5])

    def test_feasible_point_unchanged(self):
        z = np.array([1.0, 0.0, 0.3, 0.0])
        np.testing.assert_array_equal(project_sparse_box(z, 2), z)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            s = int(rng.integers(1, n + 1))
            z = rng.uniform(-3.0, 3.0, n)
            x = project_sparse_box(z, s)
            cost = float(((x - z) ** 2).sum())
            assert cost <= brute_force_sparse_box_cost(z, s) + 1e-12

    def test_feasibility(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(1, n + 1))
            x = project_sparse_box(rng.uniform(-4, 4, n), s)
            assert np.count_nonzero(x) <= s
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            s = int(rng.integers(1, n + 1))
            x = project_sparse_box(rng.uniform(-2, 2, n), s)
            np.testing.assert_allclose(project_sparse_box(x, s), x, atol=1e-12)

    def test_deterministic_lowest_index_ties(self):
        # all four entries tie on gain; the first two win
        np.testing.assert_array_equal(
            project_sparse_box([0.5, 0.5, 0.5, 0.5], 2), [0.5, 0.5, 0, 0])
        # all-nonpositive entries tie at zero gain
        np.testing.assert_array_equal(
            project_sparse_box([-1.0, -2.0, -3.0], 2), [0, 0, 0])

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            project_sparse_box([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            project_sparse_box([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            project_sparse_box([[1.0, 2.0]], 1)


    def test_single_scan_matches_two_scan_on_ties(self):
        """Quantized and all-nonpositive inputs tie at the cutoff for most s;
        the kept set must match the two-scan reference at every s."""
        rng = np.random.default_rng(8)
        inputs = []
        for n in (1, 2, 5, 13, 40):
            inputs += [rng.integers(-3, 5, n) / 2.0,       # gains 0, 0.25, 1, 2, 3
                       -rng.integers(0, 3, n).astype(float),  # every gain 0
                       np.zeros(n), np.ones(n), rng.uniform(-1.0, 2.0, n)]
        ties = 0
        for z in inputs:
            for s in range(1, z.size + 1):
                got = project_sparse_box(z, s)
                np.testing.assert_array_equal(got, project_sparse_box_two_scan(z, s))
                clipped = np.clip(z, 0.0, 1.0)
                gain = z * z - (z - clipped) ** 2
                cutoff = np.sort(gain)[z.size - s]
                ties += int(np.count_nonzero(gain >= cutoff) > s)
        assert ties > 100   # the tie path ran


class TestCappedSimplex:
    def test_interior_shift(self):
        x, lam = capped_simplex_with_multiplier([0.9, 0.5, 0.1], 2)
        np.testing.assert_allclose(x, [1.0, 0.7, 0.3], atol=1e-12)
        assert lam == pytest.approx(0.2, abs=1e-12)

    def test_already_feasible(self):
        np.testing.assert_allclose(project_capped_simplex([1.0, 1.0, 0.0], 2),
                                   [1.0, 1.0, 0.0], atol=1e-15)

    def test_unique_feasible_point(self):
        np.testing.assert_allclose(project_capped_simplex([0.0, 0.0, 0.0], 3),
                                   [1.0, 1.0, 1.0], atol=1e-15)

    def test_sum_and_kkt_signs(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            s = int(rng.integers(1, n + 1))
            z = rng.uniform(-3.0, 3.0, n)
            x, lam = capped_simplex_with_multiplier(z, s)
            assert abs(x.sum() - s) <= 1e-10
            for j in range(n):
                if x[j] >= 1.0:
                    assert z[j] + lam >= 1.0 - 1e-9
                elif x[j] <= 0.0:
                    assert z[j] + lam <= 1e-9
                else:
                    assert abs(x[j] - (z[j] + lam)) <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(1, n + 1))
            x = project_capped_simplex(rng.uniform(-2, 2, n), s)
            np.testing.assert_allclose(project_capped_simplex(x, s), x,
                                       atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(1, n + 1))
            z1 = rng.uniform(-3, 3, n)
            z2 = rng.uniform(-3, 3, n)
            d_proj = np.linalg.norm(project_capped_simplex(z1, s)
                                    - project_capped_simplex(z2, s))
            assert d_proj <= np.linalg.norm(z1 - z2) + 1e-12

    def test_infeasible_target(self):
        with pytest.raises(ValueError):
            project_capped_simplex([0.0, 0.0], 3)
        with pytest.raises(ValueError):
            project_capped_simplex([[0.0, 0.0]], 1)
        with pytest.raises(ValueError):
            capped_simplex_with_multiplier([0.0, 0.0], 0)
