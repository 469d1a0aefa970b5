import heapq
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import destination
from pedmap import spatial_index
from pedmap.advisory import COINCIDENT_M
from pedmap.geodesy import EARTH_RADIUS_M, GeoPoint, Heading, angular_separation, haversine_distance, initial_bearing
from pedmap.spatial_index import _unit_vector, build_index, nearest_brute_force


def random_points(rng, n, lat0=32.8, lon0=-117.3, extent=0.1):
    return [
        GeoPoint(lat0 + rng.random() * extent, lon0 + rng.random() * extent) for _ in range(n)
    ]


def collect_balls(tree):
    """Yield (ball, indices of all points in its subtree) for every tree node."""
    if tree._root is None:
        return
    stack = [tree._root]
    while stack:
        ball = stack.pop()
        if ball.indices is not None:
            yield ball, list(ball.indices)
        else:
            leaves = []
            inner = [ball.left, ball.right]
            while inner:
                child = inner.pop()
                if child.indices is not None:
                    leaves.extend(child.indices)
                else:
                    inner.extend([child.left, child.right])
            yield ball, leaves
            stack.extend([ball.left, ball.right])


class TestBuild:
    def test_empty(self):
        tree = build_index([])
        assert len(tree) == 0
        assert tree.nearest(GeoPoint(0, 0)) is None
        assert tree.within_radius(GeoPoint(0, 0), 1e9) == []
        assert list(tree.iter_within(GeoPoint(0, 0), 1e9, Heading(0))) == []

    def test_single_point(self):
        p = GeoPoint(10, 20)
        tree = build_index([p])
        result = tree.nearest(GeoPoint(50, 60))
        assert result.node_index == 0
        assert result.distance == haversine_distance(GeoPoint(50, 60), p)

    def test_bad_leaf_size(self):
        with pytest.raises(ValueError):
            build_index([GeoPoint(0, 0)], leaf_size=0)

    def test_all_duplicate_points(self):
        pts = [GeoPoint(1.5, 2.5)] * 100
        tree = build_index(pts, leaf_size=4)
        result = tree.nearest(GeoPoint(1.5, 2.5))
        assert result.distance == 0.0
        assert len(tree.within_radius(GeoPoint(1.5, 2.5), 0.0)) == 100

    def test_ball_bounds_hold(self):
        # Centers are unit vectors and radii chords on the unit sphere; the
        # tolerance is a few ulps of 1, the rounding of a unit vector.
        rng = random.Random(7)
        pts = random_points(rng, 1000)
        tree = build_index(pts, leaf_size=16)
        seen = []
        for ball, indices in collect_balls(tree):
            assert abs(math.hypot(*ball.center) - 1.0) <= 2**-51
            for i in indices:
                assert math.dist(_unit_vector(pts[i]), ball.center) <= ball.radius + 2**-50
            if ball.indices is not None:
                seen.extend(ball.indices)
        assert sorted(seen) == list(range(len(pts)))  # each point in exactly one leaf

    @pytest.mark.parametrize(
        "lat0, lat_extent, lon_extent",
        [
            (0.0, 0.1, 0.1),  # a 0.1-degree box straddling the antimeridian
            (89.9, 0.1, 0.1),  # the same box near the pole
            (89.96, 0.08, 360.0),  # a cap around the pole, every longitude
        ],
    )
    def test_root_ball_is_tight_across_the_antimeridian_and_poles(self, lat0, lat_extent, lon_extent):
        # Lat/lon-mean centers land on the far side of the globe or off the
        # pole here; centroids stay at the cluster.
        rng = random.Random(17)
        pts = [
            GeoPoint(lat0 + (rng.random() - 0.5) * lat_extent, 180.0 + (rng.random() - 0.5) * lon_extent)
            for _ in range(2000)
        ]
        tree = build_index(pts)
        assert tree._root.radius * EARTH_RADIUS_M < 10_000
        q = pts[0]
        assert tree.nearest(q) == nearest_brute_force(pts, q)

    def test_antipodal_pair_has_no_centroid(self):
        # These two unit vectors are exact negatives, so their sum is zero.
        pts = [GeoPoint(0, -166), GeoPoint(0, 14)]
        assert [-c for c in _unit_vector(pts[0])] == list(_unit_vector(pts[1]))
        tree = build_index(pts, leaf_size=1)
        assert tree._root.center == _unit_vector(pts[0])
        for q in [GeoPoint(0, 0), GeoPoint(45, -166), GeoPoint(-30, 14)]:
            assert tree.nearest(q) == nearest_brute_force(pts, q)
            assert len(tree.within_radius(q, math.inf)) == 2

    def test_construction_deterministic(self):
        rng = random.Random(11)
        pts = random_points(rng, 300)
        shape_a = [(b.center, b.radius, b.indices) for b, _ in collect_balls(build_index(pts))]
        shape_b = [(b.center, b.radius, b.indices) for b, _ in collect_balls(build_index(pts))]
        assert shape_a == shape_b


class TestNearest:
    def test_query_on_indexed_point(self):
        rng = random.Random(3)
        pts = random_points(rng, 50)
        tree = build_index(pts, leaf_size=4)
        for i, p in enumerate(pts):
            result = tree.nearest(p)
            assert result.distance == 0.0
            assert pts[result.node_index] == p

    def test_tie_breaks_to_lowest_index(self):
        pts = [GeoPoint(0, 1), GeoPoint(0, -1), GeoPoint(5, 5)]
        result = build_index(pts, leaf_size=1).nearest(GeoPoint(0, 0))
        assert result.node_index == 0
        assert result.distance == nearest_brute_force(pts, GeoPoint(0, 0)).distance

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100, 500, 2000])
    def test_matches_brute_force(self, n):
        rng = random.Random(n)
        pts = random_points(rng, n)
        tree = build_index(pts, leaf_size=8)
        for _ in range(30):
            q = GeoPoint(32.8 + rng.random() * 0.1, -117.3 + rng.random() * 0.1)
            expected = nearest_brute_force(pts, q)
            got = tree.nearest(q)
            assert got.distance == expected.distance
            assert got.node_index == expected.node_index

    def test_faraway_queries(self):
        rng = random.Random(42)
        pts = random_points(rng, 200)
        tree = build_index(pts)
        for q in [GeoPoint(-33, 151), GeoPoint(89, 0), GeoPoint(0, 62)]:
            assert tree.nearest(q).distance == nearest_brute_force(pts, q).distance


class TestWithinRadius:
    def test_zero_radius_on_indexed_point(self):
        pts = [GeoPoint(1, 1), GeoPoint(1.001, 1)]
        hits = build_index(pts).within_radius(GeoPoint(1, 1), 0.0)
        assert [h.node_index for h in hits] == [0]

    def test_radius_beyond_half_circumference(self):
        rng = random.Random(9)
        pts = random_points(rng, 321)
        hits = build_index(pts).within_radius(GeoPoint(-45, 100), 25_000_000.0)
        assert len(hits) == 321

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            build_index([GeoPoint(0, 0)]).within_radius(GeoPoint(0, 0), -1.0)

    @pytest.mark.parametrize("points", [[], [GeoPoint(0, 0)]])
    def test_negative_radius_rejected_at_call(self, points):
        # Raised by iter_within itself, before the iterator is ever advanced.
        with pytest.raises(ValueError, match="radius"):
            build_index(points).iter_within(GeoPoint(0, 0), -1.0)

    def test_nan_radius_finds_nothing(self):
        tree = build_index([GeoPoint(0, 0), GeoPoint(0, 0.001)])
        assert list(tree.iter_within(GeoPoint(0, 0), math.nan)) == []
        assert tree.within_radius(GeoPoint(0, 0), math.nan) == []

    def test_set_equality_with_brute_force(self):
        rng = random.Random(123)
        for n in [1, 10, 64, 500]:
            pts = random_points(rng, n)
            tree = build_index(pts, leaf_size=8)
            for _ in range(25):
                q = GeoPoint(32.8 + rng.random() * 0.1, -117.3 + rng.random() * 0.1)
                r = rng.random() * 12_000
                expected = {i for i, p in enumerate(pts) if haversine_distance(q, p) <= r}
                hits = tree.within_radius(q, r)
                assert {h.node_index for h in hits} == expected
                distances = [h.distance for h in hits]
                assert distances == sorted(distances)


# A few distinct sites a few hundred meters apart, drawn with repetition so
# that exact duplicates (equal distances to every query) are common.
_sites = st.builds(
    GeoPoint,
    st.floats(32.8, 32.805, allow_nan=False),
    st.floats(-117.3, -117.295, allow_nan=False),
)


@st.composite
def _tree_and_query(draw):
    pool = draw(st.lists(_sites, min_size=1, max_size=8))
    points = draw(st.lists(st.sampled_from(pool), max_size=120))
    # Far-away queries, listed twice to draw them more often, are where
    # rounding in the ball bounds could break ties.
    query = draw(
        st.one_of(
            st.sampled_from(pool),
            _sites,
            st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180, exclude_max=True)),
            st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180, exclude_max=True)),
        )
    )
    leaf_size = draw(st.integers(1, 8))
    return points, build_index(points, leaf_size=leaf_size), query


class TestBestFirstOracle:
    def test_far_query_over_duplicates_keeps_index_order(self):
        # The ball centers, normalized sums of equal vectors, sit an ulp off
        # the points; bounds taken without rounding slack yield them out of order.
        pts = [GeoPoint(32.8046875, -117.29566060857631)] * 18
        hits = build_index(pts, leaf_size=4).iter_within(GeoPoint(0, -166), math.inf)
        assert [h.node_index for h in hits] == list(range(18))

    @settings(max_examples=300, deadline=None)
    @given(_tree_and_query(), st.one_of(st.just(0.0), st.just(math.inf), st.floats(0, 1000)))
    def test_iter_within_matches_sorted_scan(self, case, radius):
        points, tree, query = case
        scan = sorted(
            (haversine_distance(query, p), i)
            for i, p in enumerate(points)
            if haversine_distance(query, p) <= radius
        )
        assert [(h.distance, h.node_index) for h in tree.iter_within(query, radius)] == scan

    @settings(max_examples=300, deadline=None)
    @given(_tree_and_query())
    def test_nearest_matches_brute_force(self, case):
        points, tree, query = case
        assert tree.nearest(query) == nearest_brute_force(points, query)


_anywhere = st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180, exclude_max=True))


def _antipode(p):
    return GeoPoint(-p.lat, p.lon + 180.0)


@st.composite
def _tree_and_global_query(draw):
    pool = draw(st.lists(st.one_of(_sites, _anywhere), min_size=1, max_size=8))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=120))
    query = draw(
        st.one_of(
            st.sampled_from(pool),
            _anywhere,
            st.sampled_from(pool).map(_antipode),
            st.builds(
                lambda p, dlat, dlon: GeoPoint(max(-90.0, min(90.0, -p.lat + dlat)), p.lon + 180.0 + dlon),
                st.sampled_from(pool),
                st.floats(-1e-6, 1e-6),
                st.floats(-1e-6, 1e-6),
            ),
        )
    )
    return points, build_index(points, leaf_size=draw(st.integers(1, 8))), query


class TestGlobalQueries:
    @settings(max_examples=300, deadline=None)
    @given(_tree_and_global_query())
    def test_ball_key_never_exceeds_member_distance(self, case):
        # An unbounded search pushes every ball but the root; each one's key
        # must not exceed the haversine distance of any point below it.
        points, tree, query = case
        members = {id(ball): indices for ball, indices in collect_balls(tree)}
        pushed = []

        def recording(heap, entry):
            pushed.append(entry)
            heapq.heappush(heap, entry)

        with mock.patch.object(spatial_index, "heappush", recording):
            hits = tree.within_radius(query, math.inf)
        assert len(hits) == len(points)
        distance = [haversine_distance(query, p) for p in points]
        for key, kind, _, ball in pushed:
            if kind == 0:
                assert key <= min(distance[i] for i in members[id(ball)])

    @settings(max_examples=300, deadline=None)
    @given(_tree_and_global_query(), st.data())
    def test_iter_within_matches_sorted_scan_at_any_radius(self, case, data):
        # Radii up to past the antipode, and radii exactly at a point's
        # distance, where the chord prefilter must not drop it.
        points, tree, query = case
        distance = [haversine_distance(query, p) for p in points]
        radius = data.draw(st.one_of(st.sampled_from(distance), st.floats(0, 2.1e7)))
        scan = sorted((d, i) for i, d in enumerate(distance) if d <= radius)
        assert [(h.distance, h.node_index) for h in tree.iter_within(query, radius)] == scan


# Sites and points anywhere, with their antipodes, plus a pair of exactly
# opposite unit vectors, drawn with repetition so duplicates are common.
_ball_points = st.lists(st.one_of(_sites, _anywhere), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.sampled_from(pool + [_antipode(p) for p in pool] + [GeoPoint(0, -166), GeoPoint(0, 14)]),
        min_size=1,
        max_size=60,
    )
)


class TestMakeBall:
    @settings(max_examples=300, deadline=None)
    @given(_ball_points, st.data())
    def test_returned_point_lies_on_the_radius(self, points, data):
        # The split takes this point as A, so it must be a member, and its
        # chord to the center, computed as _make_ball computes it, is the radius.
        tree = build_index(points)
        indices = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=1, unique=True))
        ball, far = tree._make_ball(indices)
        assert far in indices
        cx, cy, cz = ball.center
        dx, dy, dz = tree._xs[far] - cx, tree._ys[far] - cy, tree._zs[far] - cz
        assert math.sqrt(dx * dx + dy * dy + dz * dz) == ball.radius


@st.composite
def _headed_query(draw):
    """A query anywhere, at a pole or on the antimeridian, a heading, and
    points around it at every bearing (abeam and dead behind included) and at
    every distance (micrometers to past the antipode), some repeated."""
    query = draw(st.one_of(_anywhere, st.sampled_from([GeoPoint(90, 0), GeoPoint(-89.99, 30), GeoPoint(-12.5, -180)])))
    heading = draw(st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0, 360, exclude_max=True)))
    off_heading = st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0, 360))
    distances = st.one_of(st.floats(0, 2 * COINCIDENT_M), st.floats(0, 100), st.floats(0, 2.0e7))
    pool = draw(
        st.lists(
            st.one_of(
                st.builds(lambda b, d: destination(query, heading + b, d), off_heading, distances),
                _anywhere,
            ),
            min_size=1,
            max_size=12,
        )
    )
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    return points, build_index(points, leaf_size=draw(st.integers(1, 8))), query, Heading(heading)


class TestHeadingPrune:
    @settings(max_examples=400, deadline=None)
    @given(_headed_query(), st.data())
    def test_iter_within_keeps_every_point_ahead_in_order(self, case, data):
        # With a heading the traversal may leave out points more than 90
        # degrees off it; it must still yield every other in-radius point,
        # and every point within COINCIDENT_M, in (distance, index) order.
        points, tree, query, heading = case
        distance = [haversine_distance(query, p) for p in points]
        radius = data.draw(st.one_of(st.sampled_from(distance), st.floats(0, 2.1e7), st.just(math.inf)))
        scan = sorted((d, i) for i, d in enumerate(distance) if d <= radius)
        got = [(h.distance, h.node_index) for h in tree.iter_within(query, radius, heading)]
        assert got == sorted(got)
        assert set(got) <= set(scan)
        ahead = {
            (d, i)
            for d, i in scan
            if d < COINCIDENT_M or angular_separation(heading, initial_bearing(query, points[i])) <= 90.0
        }
        assert ahead <= set(got)


class TestQueryCost:
    def test_nearest_query_is_sublinear(self, monkeypatch):
        n = 10_000
        rng = random.Random(99)
        pts = random_points(rng, n, extent=1.0)
        tree = build_index(pts, leaf_size=16)

        calls = 0
        real = haversine_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(spatial_index, "haversine_distance", counting)
        queries = [GeoPoint(32.8 + rng.random(), -117.3 + rng.random()) for _ in range(100)]
        for q in queries:
            tree.nearest(q)
        avg = calls / len(queries)
        assert avg < n / 4, f"average {avg} haversine evals per query on {n} points"
