import math
import random

import pytest
from hypothesis import given, strategies as st

from pedmap.geodesy import (
    EARTH_RADIUS_M,
    GeoPoint,
    Heading,
    angular_separation,
    haversine_distance,
    initial_bearing,
    interpolate_along,
)

METER_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False, exclude_max=True)
points = st.builds(GeoPoint, lats, lons)
# Away from the poles longitude differences stay meaningful.
generic_points = st.builds(
    GeoPoint,
    st.floats(min_value=-89.9, max_value=89.9, allow_nan=False),
    lons,
)


class TestGeoPoint:
    def test_lat_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(90.1, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)

    def test_lon_normalized(self):
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, -180.0).lon == -180.0
        assert GeoPoint(0.0, 359.0).lon == -1.0
        assert GeoPoint(0.0, 10.0).lon == 10.0

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_lon_rejected(self, lon):
        with pytest.raises(ValueError, match=f"longitude {lon} is not finite"):
            GeoPoint(0.0, lon)

    @given(lats, st.floats(min_value=-1000, max_value=1000, allow_nan=False))
    def test_lon_always_in_range(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert -180.0 <= p.lon < 180.0


class TestHaversine:
    def test_identity(self):
        assert haversine_distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_one_degree_on_equator(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(111194.93, abs=0.01)

    def test_antipodal(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, abs=0.1)

    @given(points, points)
    def test_symmetry(self, a, b):
        assert haversine_distance(a, b) == haversine_distance(b, a)

    @given(points, points)
    def test_bounds(self, a, b):
        d = haversine_distance(a, b)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_M

    @given(generic_points, generic_points)
    def test_positive_for_distinct(self, a, b):
        # Pairs below the coincidence threshold are physically the same point.
        if abs(a.lat - b.lat) >= 1e-12 or abs(a.lon - b.lon) >= 1e-12:
            assert haversine_distance(a, b) > 0.0

    def test_triangle_inequality_10k_triples(self):
        rng = random.Random(8123)
        for _ in range(10_000):
            a, b, c = (
                GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180)) for _ in range(3)
            )
            assert haversine_distance(a, c) <= (
                haversine_distance(a, b) + haversine_distance(b, c) + 1e-6
            )


class TestHeading:
    def test_tiny_negative_angle_is_zero(self):
        # -1e-20 % 360.0 rounds to exactly 360.0, outside [0, 360).
        assert Heading(-1e-20).degrees == 0.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_range_and_double_modulo(self, x):
        degrees = Heading(x).degrees
        assert 0.0 <= degrees < 360.0
        # The value initial_bearing returned when it reduced the angle before Heading did.
        assert degrees == x % 360.0 % 360.0


class TestInitialBearing:
    def test_cardinal_directions(self):
        assert initial_bearing(GeoPoint(0, 0), GeoPoint(1, 0)).degrees == pytest.approx(0.0, abs=1e-9)
        assert initial_bearing(GeoPoint(0, 0), GeoPoint(0, 1)).degrees == pytest.approx(90.0, abs=1e-9)
        assert initial_bearing(GeoPoint(10, 20), GeoPoint(9, 20)).degrees == pytest.approx(180.0, abs=1e-9)
        assert initial_bearing(GeoPoint(0, 1), GeoPoint(0, 0)).degrees == pytest.approx(270.0, abs=1e-9)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="undefined bearing"):
            initial_bearing(GeoPoint(10, 20), GeoPoint(10, 20))
        with pytest.raises(ValueError, match="undefined bearing"):
            initial_bearing(GeoPoint(10, 20), GeoPoint(10 + 1e-13, 20 - 1e-13))

    @given(generic_points, generic_points)
    def test_range(self, a, b):
        if abs(a.lat - b.lat) >= 1e-12 or abs(a.lon - b.lon) >= 1e-12:
            assert 0.0 <= initial_bearing(a, b).degrees < 360.0


class TestAngularSeparation:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.0, 90.0, 90.0), (350.0, 10.0, 20.0), (123.4, 123.4, 0.0), (0.0, 180.0, 180.0)],
    )
    def test_examples(self, a, b, expected):
        assert angular_separation(Heading(a), Heading(b)) == pytest.approx(expected)

    @given(st.floats(0, 360, exclude_max=True), st.floats(0, 360, exclude_max=True))
    def test_range_and_symmetry(self, a, b):
        sep = angular_separation(Heading(a), Heading(b))
        assert 0.0 <= sep <= 180.0
        assert sep == angular_separation(Heading(b), Heading(a))

    @given(st.floats(0, 360, exclude_max=True), st.floats(0, 360, exclude_max=True))
    def test_wraparound_invariance(self, a, b):
        sep = angular_separation(Heading(a), Heading(b))
        assert angular_separation(Heading(a + 360.0), Heading(b)) == pytest.approx(sep, abs=1e-9)
        assert angular_separation(Heading(a), Heading(b + 360.0)) == pytest.approx(sep, abs=1e-9)


class TestInterpolateAlong:
    def test_endpoints_exact(self):
        a, b = GeoPoint(12.345, -67.89), GeoPoint(12.346, -67.88)
        assert interpolate_along(a, b, 0.0) == a
        assert interpolate_along(a, b, 1.0) == b

    def test_midpoint_on_equator(self):
        mid = interpolate_along(GeoPoint(0, 0), GeoPoint(0, 2), 0.5)
        assert (mid.lat, mid.lon) == (0.0, 1.0)

    def test_linearity(self):
        p = interpolate_along(GeoPoint(0, 0), GeoPoint(0.0002, 0), 0.25)
        assert p.lat == pytest.approx(0.00005, abs=1e-15)
        assert p.lon == 0.0

    @pytest.mark.parametrize("fraction", [-0.01, 1.01, 2.0])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError):
            interpolate_along(GeoPoint(0, 0), GeoPoint(0, 1), fraction)

    def test_distance_monotone_in_fraction_for_nearby_points(self):
        # Nearby pairs (within 100 m): distance from a to the interpolant never shrinks.
        rng = random.Random(4242)
        for _ in range(200):
            lat = rng.uniform(-60, 60)
            lon = rng.uniform(-179, 179)
            a = GeoPoint(lat, lon)
            b = GeoPoint(lat + rng.uniform(-8e-4, 8e-4), lon + rng.uniform(-8e-4, 8e-4))
            if haversine_distance(a, b) > 100.0:
                continue
            last = -1.0
            for i in range(21):
                d = haversine_distance(a, interpolate_along(a, b, i / 20))
                assert d >= last - 1e-9
                last = d
