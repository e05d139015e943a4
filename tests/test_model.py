"""Forward map, objective, and gradient against independent oracles."""

import numpy as np
import pytest

from oracles import forward_direct, gradient_direct
from udgp import Geometry, LagOperator


def indicator(n, bins):
    x = np.zeros(n)
    x[list(bins)] = 1.0
    return x


def pair_histogram_oracle(n, bins, geometry):
    """Tally lag differences over all point pairs by explicit double loop."""
    y = np.zeros(n - 1)
    bins = sorted(bins)
    for a in range(len(bins)):
        for b in range(a + 1, len(bins)):
            if geometry is Geometry.TURNPIKE:
                y[(bins[b] - bins[a]) - 1] += 1
            else:
                y[((bins[b] - bins[a]) % n) - 1] += 1
                y[((bins[a] - bins[b]) % n) - 1] += 1
    return y


class TestForward:
    def test_turnpike_two_points(self):
        op = LagOperator(5, Geometry.TURNPIKE)
        np.testing.assert_array_equal(op.forward(indicator(5, [0, 2])), [0, 1, 0, 0])

    def test_turnpike_three_points(self):
        op = LagOperator(5, Geometry.TURNPIKE)
        np.testing.assert_array_equal(op.forward(indicator(5, [0, 1, 3])), [1, 1, 1, 0])

    def test_beltway_two_points(self):
        op = LagOperator(6, Geometry.BELTWAY)
        np.testing.assert_array_equal(op.forward(indicator(6, [0, 2])), [0, 1, 0, 1, 0])

    def test_all_zeros(self):
        for geom in Geometry:
            op = LagOperator(7, geom)
            np.testing.assert_array_equal(op.forward(np.zeros(7)), np.zeros(6))

    def test_dimension_mismatch(self):
        op = LagOperator(5, Geometry.TURNPIKE)
        with pytest.raises(ValueError):
            op.forward(np.zeros(6))

    def test_matches_pair_enumeration_all_small_n(self):
        """Binary inputs: forward equals the double-loop pair tally exactly."""
        rng = np.random.default_rng(7)
        for geom in Geometry:
            for n in [2, 3, 5, 8, 16, 33, 64]:
                op = LagOperator(n, geom)
                for _ in range(20):
                    s = int(rng.integers(0, n + 1))
                    bins = rng.choice(n, size=s, replace=False)
                    got = op.forward(indicator(n, bins))
                    np.testing.assert_array_equal(
                        got, pair_histogram_oracle(n, bins, geom))

    def test_turnpike_reversal_symmetry(self):
        op = LagOperator(12, Geometry.TURNPIKE)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.random(12)
            np.testing.assert_allclose(op.forward(x), op.forward(x[::-1]),
                                       atol=1e-12)

    def test_beltway_shift_and_reversal_symmetry(self):
        op = LagOperator(12, Geometry.BELTWAY)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.random(12)
            k = int(rng.integers(0, 12))
            np.testing.assert_allclose(op.forward(x), op.forward(np.roll(x, k)),
                                       atol=1e-12)
            np.testing.assert_allclose(op.forward(x), op.forward(x[::-1]),
                                       atol=1e-12)


class TestObjective:
    def test_zero_at_exact_fit(self):
        op = LagOperator(5, Geometry.TURNPIKE)
        x = indicator(5, [0, 2])
        assert op.objective(x, op.forward(x)) == 0.0

    def test_single_residual(self):
        op = LagOperator(5, Geometry.TURNPIKE)
        x = indicator(5, [0, 2])
        assert op.objective(x, np.zeros(4)) == pytest.approx(0.25, abs=1e-15)

    def test_zero_vector_against_same_histogram(self):
        op = LagOperator(5, Geometry.TURNPIKE)
        y = op.forward(indicator(5, [0, 2]))
        assert op.objective(np.zeros(5), y) == pytest.approx(0.25, abs=1e-15)

    def test_nonnegative_and_zero_iff_match(self):
        rng = np.random.default_rng(3)
        for geom in Geometry:
            op = LagOperator(10, geom)
            for _ in range(20):
                x = rng.random(10)
                y = rng.random(9)
                f = op.objective(x, y)
                assert f >= 0.0
                assert (f == 0.0) == np.array_equal(op.forward(x), y)


class TestGradient:
    def test_zero_at_ground_truth(self):
        for geom in Geometry:
            op = LagOperator(30, geom)
            x = indicator(30, [2, 11, 17, 25])
            g = op.gradient(x, op.forward(x))
            np.testing.assert_allclose(g, np.zeros(30), atol=1e-12)

    def test_single_point_no_pairs(self):
        op = LagOperator(3, Geometry.TURNPIKE)
        g = op.gradient(np.array([1.0, 0.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-15)

    def test_matches_central_finite_differences(self):
        """100 random draws at n=20, h=1e-6, per-coordinate check."""
        rng = np.random.default_rng(11)
        n, h = 20, 1e-6
        for trial in range(100):
            geom = Geometry.TURNPIKE if trial % 2 == 0 else Geometry.BELTWAY
            op = LagOperator(n, geom)
            x = rng.random(n)
            y = rng.random(n - 1) * 3.0
            g = op.gradient(x, y)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (op.objective(x + e, y) - op.objective(x - e, y)) / (2 * h)
                assert abs(g[j] - fd) / max(1.0, abs(fd)) <= 1e-5

    def test_fast_paths_match_direct_reference(self):
        """FFT and sparse evaluation agree with the lag-loop to 1e-10."""
        rng = np.random.default_rng(5)
        for geom in Geometry:
            for n in [2, 3, 6, 17, 40, 64]:
                op = LagOperator(n, geom)
                for _ in range(10):
                    dense = rng.random(n)
                    sparse = dense * (rng.random(n) < 0.3)
                    y = rng.random(n - 1) * 2.0
                    for x in (dense, sparse):
                        support = np.flatnonzero(x)
                        f_ref = forward_direct(op, x)
                        np.testing.assert_allclose(
                            op._forward_fft(x), f_ref, atol=1e-10)
                        np.testing.assert_allclose(
                            op._forward_sparse(x, support), f_ref, atol=1e-10)
                        g_ref = gradient_direct(op, x, y)
                        np.testing.assert_allclose(
                            op._gradient_fft(x, y), g_ref, atol=1e-10)
                        np.testing.assert_allclose(
                            op._gradient_sparse(x, y, support), g_ref, atol=1e-10)

    def test_dimension_mismatch(self):
        op = LagOperator(5, Geometry.BELTWAY)
        with pytest.raises(ValueError):
            op.gradient(np.zeros(5), np.zeros(5))


def test_operator_validation():
    with pytest.raises(ValueError):
        LagOperator(1, Geometry.TURNPIKE)
    with pytest.raises(ValueError):
        LagOperator(10, "turnpike")
    assert LagOperator(10, Geometry.TURNPIKE).m == 9
