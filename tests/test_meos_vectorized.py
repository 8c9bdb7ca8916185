"""Unit tests for repro.meos.vectorized — batch kernels for Arrow UDFs."""
import numpy as np
import pytest

from repro.meos.geometry import Circle, Rect
from repro.meos.vectorized import (
    ewithin_any,
    in_any_zone,
    min_zone_distance,
    nearest_zone,
    run_lengths,
    speed_kmh,
    zone_id_at,
)

ZONES = [Rect(0, 0, 10, 10), Circle(100, 0, 5)]
IDS = [1, 2]


class TestInAnyZone:
    def test_hits_each_zone(self):
        got = in_any_zone(np.array([5.0, 100.0, 50.0]), np.array([5.0, 0.0, 50.0]), ZONES)
        np.testing.assert_array_equal(got, [True, True, False])

    def test_empty_zone_list(self):
        got = in_any_zone(np.array([5.0]), np.array([5.0]), [])
        np.testing.assert_array_equal(got, [False])

    def test_empty_points(self):
        assert in_any_zone(np.empty(0), np.empty(0), ZONES).size == 0


class TestZoneIdAt:
    def test_ids_and_miss(self):
        got = zone_id_at(
            np.array([5.0, 100.0, 50.0]), np.array([5.0, 0.0, 50.0]), ZONES, IDS
        )
        np.testing.assert_array_equal(got, [1, 2, -1])

    def test_first_match_wins(self):
        overlapping = [Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)]
        got = zone_id_at(np.array([7.0]), np.array([7.0]), overlapping, [10, 20])
        assert got[0] == 10


class TestMinZoneDistance:
    def test_inside_zero(self):
        assert min_zone_distance(np.array([5.0]), np.array([5.0]), ZONES)[0] == 0.0

    def test_picks_nearer_zone(self):
        # (60, 0): 50 from rect edge (x=10), 35 from circle rim (95).
        d = min_zone_distance(np.array([60.0]), np.array([0.0]), ZONES)[0]
        assert d == pytest.approx(35.0)

    def test_empty_zones_inf(self):
        assert np.isinf(min_zone_distance(np.array([0.0]), np.array([0.0]), []))[0]


class TestEwithinAny:
    def test_within(self):
        assert ewithin_any(np.array([12.0]), np.array([5.0]), ZONES, 3.0)[0]

    def test_not_within(self):
        assert not ewithin_any(np.array([20.0]), np.array([5.0]), ZONES, 3.0)[0]

    def test_zero_distance_is_containment(self):
        got = ewithin_any(np.array([5.0, 10.5]), np.array([5.0, 5.0]), ZONES, 0.0)
        np.testing.assert_array_equal(got, [True, False])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            ewithin_any(np.array([0.0]), np.array([0.0]), ZONES, -1.0)


class TestNearestZone:
    def test_nearest_id_and_distance(self):
        zid, d = nearest_zone(np.array([60.0]), np.array([0.0]), ZONES, IDS)
        assert zid[0] == 2
        assert d[0] == pytest.approx(35.0)

    def test_inside_distance_zero(self):
        zid, d = nearest_zone(np.array([5.0]), np.array([5.0]), ZONES, IDS)
        assert zid[0] == 1 and d[0] == 0.0


class TestSpeedKmh:
    def test_constant_motion(self):
        # 10 m/s = 36 km/h.
        t = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.array([0.0, 10.0, 20.0, 30.0])
        y = np.zeros(4)
        np.testing.assert_allclose(speed_kmh(t, x, y), 36.0)

    def test_alignment_first_repeats_second(self):
        t = np.array([0.0, 1.0, 2.0])
        x = np.array([0.0, 10.0, 10.0])
        v = speed_kmh(t, x, np.zeros(3))
        assert v[0] == v[1] == pytest.approx(36.0)
        assert v[2] == 0.0

    def test_single_sample_zero(self):
        np.testing.assert_array_equal(speed_kmh(np.array([0.0]), np.array([5.0]), np.array([5.0])), [0.0])

    def test_empty(self):
        assert speed_kmh(np.empty(0), np.empty(0), np.empty(0)).size == 0

    def test_nonincreasing_raises(self):
        with pytest.raises(ValueError):
            speed_kmh(np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))


class TestRunLengths:
    def test_empty(self):
        s, e, n = run_lengths(np.array([], dtype=bool))
        assert s.size == e.size == n.size == 0

    def test_all_false(self):
        s, _, _ = run_lengths(np.array([False, False]))
        assert s.size == 0

    def test_all_true(self):
        s, e, n = run_lengths(np.array([True, True, True]))
        np.testing.assert_array_equal(s, [0])
        np.testing.assert_array_equal(e, [3])
        np.testing.assert_array_equal(n, [3])

    def test_multiple_runs(self):
        flag = np.array([False, True, True, False, True, False, True, True, True])
        s, e, n = run_lengths(flag)
        np.testing.assert_array_equal(s, [1, 4, 6])
        np.testing.assert_array_equal(e, [3, 5, 9])
        np.testing.assert_array_equal(n, [2, 1, 3])

    def test_runs_at_edges(self):
        s, e, _ = run_lengths(np.array([True, False, True]))
        np.testing.assert_array_equal(s, [0, 2])
        np.testing.assert_array_equal(e, [1, 3])
