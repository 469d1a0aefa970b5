import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pedmap import spatial_index
from pedmap.geodesy import GeoPoint, haversine_distance
from pedmap.spatial_index import build_index, nearest_brute_force


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
        rng = random.Random(7)
        pts = random_points(rng, 1000)
        tree = build_index(pts, leaf_size=16)
        seen = []
        for ball, indices in collect_balls(tree):
            for i in indices:
                assert haversine_distance(pts[i], ball.center) <= ball.radius + 1e-6
            if ball.indices is not None:
                seen.extend(ball.indices)
        assert sorted(seen) == list(range(len(pts)))  # each point in exactly one leaf

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
        # The ball centers, means of equal coordinates, sit an ulp off the
        # points; bounds taken without rounding slack yield 9-12 before 4-8.
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
