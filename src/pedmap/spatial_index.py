"""Ball tree over geographic points with the haversine metric.

Each tree node bounds its subtree by a ball: a center point plus the maximum
haversine distance from that center to any point below it. Because haversine
satisfies the triangle inequality on the sphere, the standard lower bound

    dist(query, center) - radius

prunes exactly, so queries return the same distances as a linear scan.

All queries share one best-first traversal (Hjaltason & Samet 1999). A heap
holds balls keyed by lower bound and points keyed by exact distance; nothing
keyed above the radius is pushed. Balls pop before points at an equal key and
points tie in index order, so hits come lazily in ``(distance, node_index)``
order and a caller may stop at the first one it wants.

Construction splits a node by the farthest-point-pair heuristic: take the
node's first point, find its farthest point A, find A's farthest point B, and
partition by proximity to A versus B. Seeding with the first point (rather
than a random one) keeps construction deterministic for a given input order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Iterator, NamedTuple, Optional, Sequence

from .geodesy import GeoPoint, haversine_distance

DEFAULT_LEAF_SIZE = 16

# Rounding can put a computed ball bound above the computed distance of a point
# in the ball (say, duplicates whose mean center is an ulp off). Lowering bounds
# by this fraction of (center distance + radius), 1 cm at 10,000 km, keeps the
# heap order exact everywhere but within meters of a point's antipode.
_BOUND_SLACK = 1e-9


class NeighborResult(NamedTuple):
    node_index: int
    distance: float


class _Ball:
    __slots__ = ("center", "radius", "left", "right", "indices")

    def __init__(self, center: GeoPoint, radius: float):
        self.center = center
        self.radius = radius
        self.left: Optional[_Ball] = None
        self.right: Optional[_Ball] = None
        self.indices: Optional[list[int]] = None  # set on leaves only


class BallTree:
    """Immutable nearest-neighbor index over a fixed list of points.

    Built once, then safe for unlimited concurrent queries. An empty point
    list yields an empty tree whose queries return no neighbors.
    """

    def __init__(self, points: Sequence[GeoPoint], leaf_size: int = DEFAULT_LEAF_SIZE):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self._points = list(points)
        self.leaf_size = leaf_size
        self._root = self._build(list(range(len(self._points)))) if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> list[GeoPoint]:
        return self._points

    def _make_ball(self, indices: list[int]) -> _Ball:
        pts = self._points
        n = len(indices)
        center = GeoPoint(
            sum(pts[i].lat for i in indices) / n,
            sum(pts[i].lon for i in indices) / n,
        )
        radius = max(haversine_distance(center, pts[i]) for i in indices)
        return _Ball(center, radius)

    def _split(self, indices: list[int]) -> tuple[list[int], list[int]]:
        pts = self._points
        seed = pts[indices[0]]
        a_idx = max(indices, key=lambda i: haversine_distance(seed, pts[i]))
        a = pts[a_idx]
        dist_a = {i: haversine_distance(a, pts[i]) for i in indices}
        b_idx = max(indices, key=lambda i: dist_a[i])
        b = pts[b_idx]
        left: list[int] = []
        right: list[int] = []
        for i in indices:
            (left if dist_a[i] <= haversine_distance(b, pts[i]) else right).append(i)
        if not left or not right:
            # All points tied (e.g. duplicates): halve to guarantee progress.
            mid = len(indices) // 2
            return indices[:mid], indices[mid:]
        return left, right

    def _build(self, root_indices: list[int]) -> _Ball:
        # Iterative construction: a degenerate split sequence must not hit the
        # interpreter recursion limit.
        root = self._make_ball(root_indices)
        stack: list[tuple[_Ball, list[int]]] = [(root, root_indices)]
        while stack:
            ball, indices = stack.pop()
            if len(indices) <= self.leaf_size:
                ball.indices = indices
                continue
            left_idx, right_idx = self._split(indices)
            ball.left = self._make_ball(left_idx)
            ball.right = self._make_ball(right_idx)
            stack.append((ball.left, left_idx))
            stack.append((ball.right, right_idx))
        return root

    def iter_within(self, query: GeoPoint, radius_m: float) -> Iterator[NeighborResult]:
        """Lazily yield the points within ``radius_m`` meters in ``(distance, node_index)`` order.

        A negative radius raises here, not at the first ``next()``; a NaN radius yields nothing.
        """
        if radius_m < 0:
            raise ValueError("radius must be >= 0")
        return self._browse(query, radius_m)

    def _browse(self, query: GeoPoint, radius_m: float) -> Iterator[NeighborResult]:
        # Heap entries are (key, kind, tiebreak, ball), kind 0 for a ball and 1
        # for a point; ``<=`` tests keep a NaN radius from admitting anything.
        if self._root is None:
            return
        pts = self._points
        # The root needs no bound of its own: its children are bounded when it pops.
        heap: list[tuple[float, int, int, Optional[_Ball]]] = [(-inf, 0, 0, self._root)]
        seq = 0
        while heap:
            key, kind, i, ball = heappop(heap)
            if kind:
                yield NeighborResult(i, key)
            elif ball.indices is None:
                for child in (ball.left, ball.right):
                    d = haversine_distance(query, child.center)
                    lb = d - child.radius - _BOUND_SLACK * (d + child.radius)
                    if lb <= radius_m:
                        seq += 1
                        heappush(heap, (lb, 0, seq, child))
            else:
                for i in ball.indices:
                    d = haversine_distance(query, pts[i])
                    if d <= radius_m:
                        heappush(heap, (d, 1, i, None))

    def nearest(self, query: GeoPoint) -> Optional[NeighborResult]:
        """The indexed point minimizing haversine distance to ``query``.

        Ties break toward the lowest point index; returns None on an empty tree.
        """
        return next(self.iter_within(query, inf), None)

    def within_radius(self, query: GeoPoint, radius_m: float) -> list[NeighborResult]:
        """All indexed points within ``radius_m`` meters, sorted by ``(distance, node_index)``."""
        return list(self.iter_within(query, radius_m))


def build_index(points: Sequence[GeoPoint], leaf_size: int = DEFAULT_LEAF_SIZE) -> BallTree:
    """Build a ball tree over ``points``; deterministic for a given input order."""
    return BallTree(points, leaf_size=leaf_size)


def nearest_brute_force(points: Sequence[GeoPoint], query: GeoPoint) -> Optional[NeighborResult]:
    """Linear-scan nearest neighbor; the reference semantics for ``BallTree.nearest``."""
    best: Optional[NeighborResult] = None
    for i, p in enumerate(points):
        d = haversine_distance(query, p)
        if best is None or d < best.distance:
            best = NeighborResult(i, d)
    return best
