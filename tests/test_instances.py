"""Instance generation, binning, extraction, scoring, and serialization."""

import json

import numpy as np
import pytest

from oracles import aligned_count, brute_force_co_p, extract_positions_walk

from udgp import (Geometry, Instance, LagOperator, bin_distances,
                  bins_to_positions, extract_positions, generate_instance,
                  instance_from_json, instance_to_json, positions_to_bins,
                  score_recovery)


def instance_at(geometry, n, bins):
    """A noise-free instance whose true points sit at the given bins."""
    x = np.zeros(n)
    x[bins] = 1.0
    return Instance(geometry, n, len(bins), LagOperator(n, geometry).forward(x),
                    bins_to_positions(bins, n, geometry), 0.0, 0)


class TestBinDistances:
    def test_midpoint_distance(self):
        y = bin_distances([0.5], 11, Geometry.TURNPIKE)
        expected = np.zeros(10)
        expected[5 - 1] = 1
        np.testing.assert_array_equal(y, expected)

    def test_round_half_up(self):
        # 0.15 * 10 = 1.5 sits between lags; half rounds up to 2
        y = bin_distances([0.15], 11, Geometry.TURNPIKE)
        assert y[2 - 1] == 1 and y.sum() == 1

    def test_beltway_complement_counting(self):
        y = bin_distances([2.0 / 6.0], 6, Geometry.BELTWAY)
        np.testing.assert_array_equal(y, [0, 1, 0, 1, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bin_distances([1.2], 11, Geometry.TURNPIKE)
        with pytest.raises(ValueError):
            bin_distances([0.7], 11, Geometry.BELTWAY)
        with pytest.raises(ValueError):
            bin_distances([-0.1], 11, Geometry.TURNPIKE)


class TestGenerateInstance:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_instance(Geometry.TURNPIKE, 2, 3, 0.0, 1)
        with pytest.raises(ValueError):
            generate_instance(Geometry.TURNPIKE, 1, 100, 0.0, 1)
        with pytest.raises(ValueError):
            generate_instance(Geometry.TURNPIKE, 5, 100, -1e-3, 1)

    def test_noise_free_round_trip_identity(self):
        """forward(true indicator) reproduces the histogram exactly."""
        for geom in Geometry:
            for seed in range(40):
                inst = generate_instance(geom, 6, 64, 0.0, seed)
                np.testing.assert_array_equal(
                    inst.op.forward(inst.true_indicator()), inst.y)

    def test_histogram_mass(self):
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 3)
        assert inst.y.sum() == 45  # s(s-1)/2 pairs
        inst = generate_instance(Geometry.BELTWAY, 10, 1000, 0.0, 3)
        assert inst.y.sum() == 90  # each pair counted at both lags

    def test_positions_sorted_and_on_grid(self):
        for geom in Geometry:
            inst = generate_instance(geom, 8, 100, 0.0, 9)
            assert np.all(np.diff(inst.true_positions) > 0)
            bins = positions_to_bins(inst.true_positions, 100, geom)
            np.testing.assert_allclose(
                bins_to_positions(bins, 100, geom), inst.true_positions)
            assert len(set(bins.tolist())) == 8

    def test_deterministic(self):
        a = generate_instance(Geometry.BELTWAY, 7, 200, 1e-5, 12)
        b = generate_instance(Geometry.BELTWAY, 7, 200, 1e-5, 12)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.true_positions, b.true_positions)

    def test_small_noise_rarely_moves_bins(self):
        """At xi = 7e-5 and n = 1000 the noisy histogram almost always
        equals the clean one (noise sd is a seventh of half a bin)."""
        mismatches = 0
        for seed in range(100):
            clean = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, seed)
            noisy = generate_instance(Geometry.TURNPIKE, 10, 1000, 7e-5, seed)
            if not np.array_equal(clean.y, noisy.y):
                mismatches += 1
        assert mismatches <= 1

    def test_larger_noise_distances_clipped_not_fatal(self):
        inst = generate_instance(Geometry.BELTWAY, 5, 50, 1e-2, 0)
        assert inst.y.sum() == 20


class TestExtractPositions:
    def test_exact_binary_isolated(self):
        x = np.zeros(11)
        x[[0, 4, 9]] = 1.0
        np.testing.assert_allclose(
            extract_positions(x, 11, Geometry.TURNPIKE), [0.0, 0.4, 0.9])

    def test_fractional_mass_centroid(self):
        x = np.zeros(11)
        x[3], x[4] = 0.6, 0.4
        np.testing.assert_allclose(
            extract_positions(x, 11, Geometry.TURNPIKE),
            [(0.6 * 3 + 0.4 * 4) / 10])

    def test_all_zeros(self):
        assert extract_positions(np.zeros(8), 8, Geometry.TURNPIKE).size == 0

    def test_entry_floor_and_cluster_mass(self):
        x = np.zeros(20)
        x[2] = 0.04   # below entry floor
        x[8] = 0.3    # cluster too light
        x[15] = 0.9
        np.testing.assert_allclose(
            extract_positions(x, 20, Geometry.TURNPIKE), [15 / 19])

    def test_adjacent_unit_masses_stay_separate(self):
        # two points in neighboring bins must not collapse to one centroid
        x = np.zeros(30)
        x[[10, 11]] = 1.0
        np.testing.assert_allclose(
            extract_positions(x, 30, Geometry.TURNPIKE), [10 / 29, 11 / 29])

    def test_cluster_split_over_more_bins_than_points(self):
        # two units of mass over three bins: the two heaviest bins
        x = np.zeros(20)
        x[[5, 6, 7]] = [0.9, 0.2, 0.9]
        np.testing.assert_allclose(
            extract_positions(x, 20, Geometry.TURNPIKE), [5 / 19, 7 / 19])

    def test_beltway_wraparound_cluster(self):
        x = np.zeros(10)
        x[9], x[0] = 0.5, 0.5
        got = extract_positions(x, 10, Geometry.BELTWAY)
        np.testing.assert_allclose(got, [0.95])

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_matches_bin_by_bin_walk(self, geometry):
        """Equal, bit for bit, to the walk reference on fully occupied,
        wrapped, below-floor and quantized vectors; on the circle a scan
        that began inside a wrapped run would split it."""
        rng = np.random.default_rng(31)
        wrapped = 0
        for i in range(1200):
            n = int(rng.integers(2, 41))
            kind = i % 4
            if kind == 0:    # every bin above the entry floor
                x = rng.uniform(0.05, 1.0, n)
            elif kind == 1:  # runs through both ends
                x = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
                x[[0, -1]] = rng.uniform(0.05, 1.0, 2)
            elif kind == 2:  # entries on both sides of the floor
                x = rng.uniform(0.0, 0.1, n) * (rng.random(n) < 0.7)
                x = np.where(rng.random(n) < 0.3, rng.uniform(0.1, 1.0, n), x)
            else:            # quarter units: masses on the k rounding ties
                x = rng.integers(0, 5, n) / 4.0
            wrapped += bool(x[0] >= 0.05 and x[-1] >= 0.05 and (x < 0.05).any())
            np.testing.assert_array_equal(extract_positions(x, n, geometry),
                                          extract_positions_walk(x, n, geometry))
        assert wrapped > 300


class TestScoreRecovery:
    def test_identity(self):
        inst = generate_instance(Geometry.TURNPIKE, 6, 80, 0.0, 5)
        rep = score_recovery(inst.true_positions, inst)
        assert rep.co_p == 6 and rep.alignment == "identity"

    def test_reflection(self):
        inst = generate_instance(Geometry.TURNPIKE, 6, 80, 0.0, 5)
        t = inst.true_positions
        reflected = np.sort((t.min() + t.max()) - t)
        rep = score_recovery(reflected, inst)
        assert rep.co_p == 6 and rep.alignment == "reflected"

    def test_translation(self):
        inst = generate_instance(Geometry.TURNPIKE, 6, 200, 0.0, 8)
        shifted = inst.true_positions - inst.true_positions.min() + 3 / 199
        rep = score_recovery(shifted, inst)
        assert rep.co_p == 6

    def test_beltway_symmetries(self):
        inst = generate_instance(Geometry.BELTWAY, 6, 90, 0.0, 4)
        t = inst.true_positions
        n = inst.n
        for k in (0, 7, 41):
            assert score_recovery((t + k / n) % 1.0, inst).co_p == 6
            assert score_recovery((k / n - t) % 1.0, inst).co_p == 6

    def test_perturbation_beyond_threshold(self):
        inst = generate_instance(Geometry.TURNPIKE, 6, 80, 0.0, 0)
        t = inst.true_positions
        thr = score_recovery(t, inst).threshold
        # every perturbed point sits at least one threshold from every true
        # one, yet a reflection plus a one-bin shift brings four of the six
        # back within it
        signs = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        off = np.sort(t + 1.2 * thr * signs)
        assert np.abs(off[:, None] - t[None, :]).min() >= thr
        assert score_recovery(off, inst).co_p == 4

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_partial_estimates_match_brute_force(self, geometry):
        """Bin-valued estimates with 1-3 wrong points, moved by a random
        symmetry: Co.P is the exhaustive maximum, and the reported
        alignment reproduces it."""
        rng = np.random.default_rng(4)
        circular = geometry is Geometry.BELTWAY
        for seed in range(120):
            s = int(rng.integers(4, 9))
            n = int(rng.integers(4 * s, 120))
            scale = n if circular else n - 1
            inst = generate_instance(geometry, s, n, 0.0, seed)
            true = inst.true_bins()
            wrong = int(rng.integers(1, 4))
            est = true.copy()
            est[rng.choice(s, wrong, replace=False)] = rng.choice(
                np.setdiff1d(np.arange(n), true), wrong, replace=False)
            if rng.integers(2):
                est = (-est) % n if circular else (n - 1) - est
            if circular:
                est = (est + rng.integers(n)) % n
            else:
                est = est + rng.integers(-est.min(), n - est.max())
            rep = score_recovery(est / scale, inst)
            assert rep.co_p == brute_force_co_p(true, est, n, circular)
            assert rep.co_p >= s - wrong
            if rep.alignment.endswith("reflected"):
                est = (-est) % n if circular else est.min() + est.max() - est
            shift = rep.shift * scale
            assert aligned_count(true, est, [shift], n, circular)[0] == rep.co_p

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_fractional_estimates_reach_old_candidates(self, geometry):
        """Centroid-like estimates score at least what shift 0 and the old
        scorer's candidates (centroid alignment on the segment, every
        grid rotation on the circle) give."""
        rng = np.random.default_rng(5)
        circular = geometry is Geometry.BELTWAY
        for seed in range(100):
            s = int(rng.integers(4, 9))
            n = int(rng.integers(4 * s, 120))
            scale = n if circular else n - 1
            inst = generate_instance(geometry, s, n, 0.0, seed)
            true = inst.true_bins()
            thr = score_recovery(inst.true_positions, inst).threshold * scale
            est = true + rng.uniform(-1.5, 1.5, s) * thr
            wrong = rng.choice(s, int(rng.integers(1, 4)), replace=False)
            est[wrong] = rng.uniform(0, n - 1, wrong.size)
            if circular:
                est %= n
            score = score_recovery(est / scale, inst).co_p
            for base in (est, (-est) % n if circular else est.min() + est.max() - est):
                if circular:
                    shifts = np.arange(n)
                else:
                    shifts = [0.0, true.mean() - base.mean()]
                assert score >= aligned_count(true, base, shifts, n, circular).max()

    def test_missed_translation(self):
        """Eight right points shifted by 23 bins: the centroid shortcut
        scored this estimate 2."""
        inst = generate_instance(Geometry.TURNPIKE, 10, 1000, 0.0, 131)
        est = np.array([105, 172, 555, 624, 657, 669, 903, 915])
        rep = score_recovery(est / 999, inst)
        assert rep.co_p == 8 == brute_force_co_p(inst.true_bins(), est, 1000, False)
        assert rep.alignment == "shifted" and round(rep.shift * 999) == -23

    def test_beltway_exact_threshold_not_counted(self):
        """A point moved exactly the threshold (5 bins) counts only where a
        rotation brings it strictly within: one such point does, two moved
        in opposite directions cannot both."""
        inst = generate_instance(Geometry.BELTWAY, 10, 1000, 0.0, 90000)
        true = inst.true_bins()
        est = true.copy()
        est[2] += 5
        rep = score_recovery(est / 1000, inst)
        assert rep.threshold * 1000 == 5
        assert rep.co_p == 10 and rep.shift * 1000 == 997.5
        est[0] -= 5
        assert score_recovery(est / 1000, inst).co_p == 9
        assert brute_force_co_p(true, est, 1000, True) == 9

    def test_exact_threshold_survives_position_round_trip(self):
        """125/999*999 and 252/999*999 land 1e-14 bins inside the 6-bin
        threshold of 131 and 246; Co.P compares the bins they stand for."""
        inst = instance_at(Geometry.TURNPIKE, 1000, [0, 131, 246, 400, 412, 999])
        est = np.array([0, 125, 252, 400, 412, 999])
        assert score_recovery(est / 999, inst).co_p == 5
        assert brute_force_co_p(inst.true_bins(), est, 1000, False) == 5

    def test_rotation_ties_prefer_nearest_zero(self):
        """A set that a half turn maps to itself, rotated by 7 bins, fits
        at rotations 13 and 33; 33 is 7 bins from identity the short way."""
        inst = instance_at(Geometry.BELTWAY, 40, [0, 4, 20, 24])
        rep = score_recovery(np.array([7, 11, 27, 31]) / 40, inst)
        assert rep.co_p == 4 and rep.alignment == "shifted"
        assert rep.shift * 40 == 33

    def test_alignment_between_integer_shifts(self):
        """With a whole-bin threshold (9 bins), one point 17 bins off and
        the rest exact: only a shift of half a bin past 8 fits all five."""
        inst = generate_instance(Geometry.TURNPIKE, 5, 200, 0.0, 1)
        true = inst.true_bins()
        est = true.copy()
        est[0] -= 17
        rep = score_recovery(est / 199, inst)
        assert rep.co_p == 5 and rep.threshold * 199 == 9
        whole = aligned_count(true, est, np.arange(-199, 200), 200, False)
        assert whole.max() == 4

    def test_empty_estimate(self):
        inst = generate_instance(Geometry.TURNPIKE, 5, 60, 0.0, 2)
        rep = score_recovery(np.zeros(0), inst)
        assert rep.co_p == 0


class TestSerialization:
    def test_round_trip_exact(self):
        for geom in Geometry:
            inst = generate_instance(geom, 9, 300, 1e-5, 77)
            back = instance_from_json(instance_to_json(inst))
            assert back.geometry == inst.geometry
            assert back.n == inst.n and back.s == inst.s
            assert back.seed == inst.seed
            assert back.noise_sigma == inst.noise_sigma
            np.testing.assert_array_equal(back.true_positions, inst.true_positions)
            np.testing.assert_array_equal(back.y, inst.y)

    def test_serialization_is_stable(self):
        inst = generate_instance(Geometry.TURNPIKE, 5, 64, 0.0, 1)
        assert instance_to_json(inst) == instance_to_json(inst)

    def test_non_finite_value_raises_instead_of_writing_invalid_json(self):
        inst = generate_instance(Geometry.TURNPIKE, 5, 64, 0.0, 1)
        inst.noise_sigma = float("nan")
        with pytest.raises(ValueError):
            instance_to_json(inst)

    def test_rejects_inconsistent_record(self):
        def resize(rec, s):  # keeps the histogram mass right for s points
            pairs = s * (s - 1) // (1 if rec["geometry"] == "beltway" else 2)
            rec.update(s=s, true_positions=[0.0] * s, y=[0] * 62 + [pairs])

        def move(rec, amount):  # trades mass between lag 1 and the fullest lag
            rec["y"][0] += amount
            rec["y"][rec["y"].index(max(rec["y"]))] -= amount

        edits = [
            lambda rec: rec.update(n=65),                   # y length
            lambda rec: resize(rec, 1),                     # too few points
            lambda rec: resize(rec, 70),                    # more points than bins
            lambda rec: move(rec, -1 - rec["y"][0]),        # negative count
            lambda rec: move(rec, 0.5),                     # fractional count
            lambda rec: rec["y"].__setitem__(0, rec["y"][0] + 1),  # mass != pairs
            lambda rec: rec["true_positions"].__setitem__(1, rec["true_positions"][0]),
            lambda rec: rec["true_positions"].__setitem__(0, float("nan")),
            lambda rec: rec["true_positions"].__setitem__(0, -0.25),
            lambda rec: rec["true_positions"].__setitem__(4, 1.5),
            lambda rec: rec["true_positions"].pop(),        # one position short
            lambda rec: rec.update(n=64.5),                 # non-integral n
            lambda rec: rec.update(s=5.7),                  # non-integral s
            lambda rec: rec.update(seed=1.5),               # non-integral seed
            lambda rec: rec.update(xi=-1e-5),               # negative noise
            lambda rec: rec.update(xi=float("nan")),        # NaN noise
            lambda rec: rec.update(xi=float("inf")),        # infinite noise
            lambda rec: rec.update(xi=None),                # null noise
            lambda rec: rec.update(xi=[1]),                 # list noise
            lambda rec: rec.update(y={"a": 1}),             # object histogram
            lambda rec: rec.update(true_positions={"a": 0.5}),  # object positions
            lambda rec: rec.update(xi="0.001"),             # string noise
            lambda rec: rec.update(xi=True),                # boolean noise
            lambda rec: rec.update(xi=10**400),             # noise past float range
            lambda rec: rec.update(y=[str(v) for v in rec["y"]]),  # string counts
            lambda rec: rec.update(y=[v == 1 for v in rec["y"]]),  # boolean counts
            lambda rec: rec.update(                         # string positions
                true_positions=[str(v) for v in rec["true_positions"]]),
        ]
        for geometry in Geometry:
            text = instance_to_json(generate_instance(geometry, 5, 64, 0.0, 1))
            for edit in edits:
                rec = json.loads(text)
                edit(rec)
                with pytest.raises(ValueError):
                    instance_from_json(json.dumps(rec))
        for text in ("[1, 2]", '"hello"'):  # not a JSON object
            with pytest.raises(ValueError):
                instance_from_json(text)

    def test_rejects_beltway_counts_that_differ_at_complementary_lags(self):
        # every pair on the circle is counted at lags d and n-d, so a
        # histogram that differs there has no point set, even at the right mass
        text = instance_to_json(generate_instance(Geometry.BELTWAY, 5, 64, 0.0, 1))
        rec = json.loads(text)
        d = rec["y"].index(max(rec["y"]))
        rec["y"][d] -= 1
        rec["y"][0 if d else 1] += 1
        with pytest.raises(ValueError, match="lags d and n-d"):
            instance_from_json(json.dumps(rec))
