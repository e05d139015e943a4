"""Instance generation, binning, extraction, scoring, and serialization."""

import json

import numpy as np
import pytest

from udgp import (Geometry, bin_distances, bins_to_positions,
                  extract_positions, generate_instance, instance_from_json,
                  instance_to_json, positions_to_bins, score_recovery)


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

    def test_beltway_wraparound_cluster(self):
        x = np.zeros(10)
        x[9], x[0] = 0.5, 0.5
        got = extract_positions(x, 10, Geometry.BELTWAY)
        np.testing.assert_allclose(got, [0.95])


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
        # zero-sum directions (so centroid alignment is a no-op) that keep
        # every perturbed point at least one threshold from every true one
        signs = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
        off = np.sort(t + 1.2 * thr * signs)
        assert np.abs(off[:, None] - t[None, :]).min() >= thr
        assert score_recovery(off, inst).co_p == 0

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
        ]
        for geometry in Geometry:
            text = instance_to_json(generate_instance(geometry, 5, 64, 0.0, 1))
            for edit in edits:
                rec = json.loads(text)
                edit(rec)
                with pytest.raises(ValueError):
                    instance_from_json(json.dumps(rec))
