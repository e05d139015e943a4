"""Forward map, objective, and gradient against independent oracles."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from oracles import (forward_direct, forward_pairs_fresh, gradient_direct,
                     gradient_window_fresh)
from udgp import (Geometry, LagOperator, SolverConfig, generate_instance,
                  multi_start)
from udgp.cli import BENCH_SCALES


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


def integer_gradient(op, x, r):
    """(m/2) times the gradient at a binary x with integer residual r, in
    int64: each point v adds the residual at lag |u - v| (segment) or at
    lags (u - v) mod n and (v - u) mod n (circle) to every bin u."""
    r0 = np.concatenate([[0], np.rint(r).astype(np.int64)])  # lag 0 weighs 0
    d = np.arange(op.n)
    g = np.zeros(op.n, dtype=np.int64)
    for v in np.flatnonzero(x):
        if op.circular:
            g += r0[(d - v) % op.n] + r0[(v - d) % op.n]
        else:
            g += r0[abs(d - v)]
    return g


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
        """FFT, pair and window evaluation agree with the lag-loop to 1e-10."""
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
                            op._gradient_fft(x, op._forward_fft(x) - y),
                            g_ref, atol=1e-10)
                        np.testing.assert_allclose(
                            op._gradient_window(
                                x, support, op._forward_sparse(x, support) - y),
                            g_ref, atol=1e-10)

    @pytest.mark.parametrize("geom", list(Geometry))
    @pytest.mark.parametrize("n", [1000, 2000])
    def test_window_and_fft_gradients_agree_at_large_n(self, geom, n):
        """IHT-like iterates (10-20 binary points against the histogram of
        a near set, so r is sparse) and baseline-like ones (30-100
        fractional entries, dense r; 100 spans two gather blocks at n =
        2000): the two gradient paths agree within 1e-10 * max(1, max|g|)."""
        rng = np.random.default_rng(n + len(geom.value))
        op = LagOperator(n, geom)
        for _ in range(5):
            for k in (10, 20):
                truth = np.zeros(n)
                truth[rng.choice(n, k, replace=False)] = 1.0
                x = truth.copy()
                x[rng.choice(np.flatnonzero(truth), 3, replace=False)] = 0.0
                x[rng.choice(np.flatnonzero(truth == 0), 3, replace=False)] = 1.0
                self._assert_paths_agree(op, x, op.forward(truth))
            for k in (30, 60, 100):
                x = np.zeros(n)
                x[rng.choice(n, k, replace=False)] = rng.random(k)
                self._assert_paths_agree(op, x, rng.random(n - 1) * 2.0)

    @staticmethod
    def _assert_paths_agree(op, x, y):
        support = np.flatnonzero(x)
        r = op.forward(x) - y
        g = op._gradient_window(x, support, r)
        tol = 1e-10 * max(1.0, float(np.abs(g).max()))
        np.testing.assert_allclose(op._gradient_fft(x, r), g, rtol=0, atol=tol)

    def test_window_gradient_is_exact_on_binary_iterates(self):
        """Binary x and integer y: the window gradient is (2/m) times the
        integer gradient summed in int64, bit for bit, and so equals the
        direct reference, whose float sums are exact too."""
        rng = np.random.default_rng(8)
        for geom in Geometry:
            for n in [2, 3, 17, 64, 1000]:
                op = LagOperator(n, geom)
                for _ in range(5):
                    x = (rng.random(n) < 0.2).astype(float)
                    y = rng.integers(0, 4, n - 1).astype(float)
                    r = op.forward(x) - y
                    g = op._gradient_window(x, np.flatnonzero(x), r)
                    exact = (2.0 / op.m) * integer_gradient(op, x, r)
                    assert g.tobytes() == exact.tobytes()
                    assert g.tobytes() == gradient_direct(op, x, y).tobytes()

    def test_carried_residual_and_support_are_bit_identical(self):
        """gradient(x, y, r, support) with the pair from `evaluate` equals
        gradient(x, y) exactly, on the window path and the FFT path."""
        rng = np.random.default_rng(21)
        for geom in Geometry:
            op = LagOperator(1000, geom)
            y = rng.integers(0, 3, op.m).astype(float)
            for nnz, windows in ((8, True), (40, True), (400, False),
                                 (1000, False)):
                x = np.zeros(op.n)
                x[rng.choice(op.n, nnz, replace=False)] = rng.random(nnz) + 0.01
                f, r, support = op.evaluate(x, y)
                assert op._windows(support) is windows
                assert f == op.objective(x, y)
                np.testing.assert_array_equal(r, op.forward(x) - y)
                np.testing.assert_array_equal(support, np.flatnonzero(x))
                g = op.gradient(x, y)
                np.testing.assert_array_equal(op.gradient(x, y, r, support), g)
                np.testing.assert_array_equal(op.gradient(x, y, r=r), g)
                np.testing.assert_array_equal(op.gradient(x, y, support=support), g)
                # with r given, y is not read
                np.testing.assert_array_equal(op.gradient(x, None, r, support), g)

    def test_dimension_mismatch(self):
        op = LagOperator(5, Geometry.BELTWAY)
        with pytest.raises(ValueError):
            op.gradient(np.zeros(5), np.zeros(5))


class TestSupportPlan:
    """`LagOperator` keeps the index data of the last support it served
    (`_plan`), and each thread its own lag row for the window gradient;
    every result equals the kernels that rebuild both on every call, bit
    for bit."""

    @staticmethod
    def _assert_plan_free(op, x, y):
        h = forward_pairs_fresh(op, x)
        g = gradient_window_fresh(op, x, h - y)
        f, r, support = op.evaluate(x, y)
        assert op.forward(x).tobytes() == h.tobytes()
        assert r.tobytes() == (h - y).tobytes()
        assert f == float((h - y) @ (h - y)) / op.m
        assert op.gradient(x, y).tobytes() == g.tobytes()
        assert op.gradient(x, y, r, support).tobytes() == g.tobytes()

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_supports_in_turn_match_the_plan_free_kernels(self, geom):
        """Same-size supports in alternation, supports one bin apart, and
        supports of 0, 1 and 2 points, each with binary and fractional
        entries: a plan kept for the wrong support would change them.
        Before each, the other geometry's gradient at the same n writes the
        thread's lag row, whose fixed zero each geometry puts elsewhere."""
        n = 1000
        op = LagOperator(n, geom)
        other = LagOperator(n, next(g for g in Geometry if g is not geom))
        rng = np.random.default_rng(27)
        y = rng.integers(0, 3, op.m).astype(float)
        a, b = (np.sort(rng.choice(n, 10, replace=False)) for _ in range(2))
        moved = a.copy()
        moved[4] = a[4] + 1 if a[4] + 1 not in a else a[4] - 1
        moved.sort()
        for bins in (a, b, a, b, moved, a, moved, [], [5], [5, 900], [5],
                     [], a):
            for binary in (True, False):
                x = np.zeros(n)
                x[bins] = 1.0 if binary else rng.random(len(bins)) + 0.01
                assert op._pairs(np.flatnonzero(x))
                assert op._windows(np.flatnonzero(x))
                other.gradient(x, y)
                self._assert_plan_free(op, x, y)

    def test_threads_solving_one_instance_get_the_serial_answer(self):
        """Four threads, more than a small machine's cores, share the
        instance's operator: each replaces the plan the others are using,
        and each keeps its own lag row.  With one lag row shared by all
        threads, this test failed in each of seven runs on two cores."""
        inst = generate_instance(Geometry.BELTWAY, 10, 1000, 0.0, 90000)
        config = SolverConfig(seed=1)
        serial = multi_start(inst, config)
        answers = [[] for _ in range(4)]

        def solve(slot):
            answers[slot] = [multi_start(inst, config) for _ in range(15)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=solve, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in sum(answers, []):
            assert result.x_final.tobytes() == serial.x_final.tobytes()
            assert result.total_iterations == serial.total_iterations
            assert result.stationarity_residual == serial.stationarity_residual
        assert len(sum(answers, [])) == 60

    @pytest.mark.parametrize("geom", list(Geometry))
    def test_operator_that_served_a_solve_copies_and_pickles(self, geom):
        inst = generate_instance(geom, 10, 1000, 0.0, 90000)
        multi_start(inst, SolverConfig(restarts=0))
        x = inst.true_indicator()
        for op in (copy.deepcopy(inst.op), pickle.loads(pickle.dumps(inst.op)),
                   pickle.loads(pickle.dumps(inst)).op):
            assert op == inst.op
            assert op.forward(x).tobytes() == inst.y.tobytes()
            self._assert_plan_free(op, x, inst.y)


@pytest.mark.parametrize("geom", list(Geometry))
def test_kernels_return_float64_without_pairs_or_residual(geom):
    """Supports of 0 and 1 points make no pair, and a zero residual no
    gradient term; the pair and window paths must still return float64
    arrays."""
    n = 12
    op = LagOperator(n, geom)
    y = op.forward(indicator(n, [0, 3, 7]))
    for x in (np.zeros(n), indicator(n, [5])):
        assert op.forward(x).dtype == np.float64
        assert op.gradient(x, y).dtype == np.float64
    x = indicator(n, [0, 3, 7])  # r = 0
    assert op.gradient(x, y).dtype == np.float64


@pytest.mark.parametrize("geom", list(Geometry))
@pytest.mark.parametrize("s,n", BENCH_SCALES)
def test_published_sizes_take_the_pair_and_window_paths(geom, s, n):
    """At the published sizes every hard-thresholded iterate, at most s
    points, takes the pair and window paths, and a dense one neither:
    the path budgets and `_WINDOW_PER_FFT`/`_WINDOW_PER_CALL` keep
    README's claim."""
    op = LagOperator(n, geom)
    sparse, dense = np.arange(s), np.arange(n)
    assert op._pairs(sparse) and op._windows(sparse)
    assert not op._pairs(dense) and not op._windows(dense)


def test_operator_validation():
    with pytest.raises(ValueError):
        LagOperator(1, Geometry.TURNPIKE)
    with pytest.raises(ValueError):
        LagOperator(10, "turnpike")
    assert LagOperator(10, Geometry.TURNPIKE).m == 9
