"""Ball tree over geographic points, answering haversine queries exactly.

Each point is stored once as a 3-D unit vector ``(cos φ cos λ, cos φ sin λ,
sin φ)``. Each tree node bounds its subtree by a ball in that space: the
normalized centroid of its points plus the largest chord from that center to
any of them. Chord length ``2 sin(d / 2R)`` rises with great-circle distance
``d``, so the Euclidean triangle inequality bound

    |query - center| - radius

lower-bounds the chord to every point in the ball, with no trigonometry per
ball or per point. Centroids, unlike lat/lon means, stay tight across ±180°
and near the poles.

All queries share one best-first traversal (Hjaltason & Samet 1999). A heap
holds balls keyed by their lower bound in meters and points keyed by exact
``haversine_distance``, which only points passing a chord prefilter pay for;
nothing keyed above the radius is pushed. Balls pop before points at an equal
key and points tie in index order, so hits come lazily in
``(distance, node_index)`` order, with the distances a linear scan reports,
and a caller may stop at the first one it wants.

A query may also carry a heading, and then what lies behind it is skipped.
Let ``t`` be the unit tangent of the heading at the query point ``p``. The
initial bearing toward a point ``q`` is the direction of ``q - (p·q)p``, and
``t·p = 0``, so the bearing is at most 90 degrees off the heading exactly when
``t·q >= 0``. Over a ball, ``t·q`` is at most ``t·c + r``, the inner-product
ball bound (Ram & Gray 2012, "Maximum inner-product search using cone
trees"). A ball whose bound is below ``-_CHORD_SLACK`` is skipped, and so is a
point whose ``t·q`` is. That slack is about 1e4 times the bearing's rounding
at any distance, so no point the bearing puts within 90 degrees is skipped.
Nor is any point within 6 µm of ``p``, where ``|t·q|`` is below the slack.

Construction splits a node by the farthest-point-pair heuristic: A is the
point farthest from the node's center, which the scan for its radius finds,
B is the point farthest from A, and the points are partitioned by proximity to
A versus B, by dot products. Ties go to the earliest point, so construction is
deterministic for a given input order.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from math import asin, cos, dist, hypot, inf, pi, radians, sin, sqrt
from typing import Iterator, NamedTuple, Optional, Sequence

from .geodesy import EARTH_RADIUS_M, GeoPoint, Heading, haversine_distance

DEFAULT_LEAF_SIZE = 16

_TWO_R = 2.0 * EARTH_RADIUS_M

# Unit vectors, centers, radii and haversine all round at around 1e-15 on the
# unit sphere. Lowering every ball bound and widening every chord test by this
# much more (6 µm on the ground) keeps the bounds below the haversine distance
# of every point they cover, the antipode included, so pruning and heap order
# stay exact.
_CHORD_SLACK = 1e-12


def _unit_vector(p: GeoPoint) -> tuple[float, float, float]:
    phi, lam = radians(p.lat), radians(p.lon)
    c = cos(phi)
    return c * cos(lam), c * sin(lam), sin(phi)


def _tangent(p: GeoPoint, heading: Heading) -> tuple[float, float, float]:
    # cos h · north + sin h · east at p: its dot product with a point's vector
    # has the sign of the cosine of that point's bearing off the heading.
    phi, lam, h = radians(p.lat), radians(p.lon), radians(heading.degrees)
    sin_phi, cos_phi, sin_lam, cos_lam = sin(phi), cos(phi), sin(lam), cos(lam)
    ch, sh = cos(h), sin(h)
    return -ch * sin_phi * cos_lam - sh * sin_lam, -ch * sin_phi * sin_lam + sh * cos_lam, ch * cos_phi


class NeighborResult(NamedTuple):
    node_index: int
    distance: float


class _Ball:
    __slots__ = ("center", "radius", "left", "right", "indices")

    def __init__(self, center: tuple[float, float, float], radius: float, indices: Optional[list[int]] = None):
        self.center = center  # a unit vector
        self.radius = radius  # a chord on the unit sphere
        self.left: Optional[_Ball] = None
        self.right: Optional[_Ball] = None
        self.indices = indices  # set on leaves only


class BallTree:
    """Immutable nearest-neighbor index over a fixed list of points.

    Built once, then safe for unlimited concurrent queries. An empty point
    list yields a tree of one empty leaf, whose queries return no neighbors.
    """

    def __init__(self, points: Sequence[GeoPoint], leaf_size: int = DEFAULT_LEAF_SIZE):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self._points = list(points)
        self.leaf_size = leaf_size
        # One flat array per coordinate: a tuple per point costs ~140 bytes.
        self._xs, self._ys, self._zs = array("d"), array("d"), array("d")
        for p in self._points:
            x, y, z = _unit_vector(p)
            self._xs.append(x)
            self._ys.append(y)
            self._zs.append(z)
        self._root = self._build(list(range(len(self._points)))) if self._points else _Ball((0.0, 0.0, 0.0), 0.0, [])

    def __len__(self) -> int:
        return len(self._points)

    def _make_ball(self, indices: list[int]) -> tuple[_Ball, int]:
        # Returns the ball and the index of a point at its radius.
        xs, ys, zs = self._xs, self._ys, self._zs
        sx, sy, sz = (sum(map(c.__getitem__, indices)) for c in (xs, ys, zs))
        norm = hypot(sx, sy, sz)
        if norm == 0.0:
            # The points cancel out (an exactly antipodal pair can): any member will do.
            i = indices[0]
            cx, cy, cz = xs[i], ys[i], zs[i]
        else:
            cx, cy, cz = sx / norm, sy / norm, sz / norm
        # From coordinate differences: 2 - 2·dot cancels at meter scale and
        # could round the radius below a member's chord.
        farthest, far_idx = 0.0, indices[0]
        for i in indices:
            dx, dy, dz = xs[i] - cx, ys[i] - cy, zs[i] - cz
            d = dx * dx + dy * dy + dz * dz
            if d > farthest:
                farthest, far_idx = d, i
        return _Ball((cx, cy, cz), sqrt(farthest)), far_idx

    def _split(self, indices: list[int], a_idx: int) -> tuple[list[int], list[int]]:
        # B, the point farthest from A, has the smallest dot product with it.
        xs, ys, zs = self._xs, self._ys, self._zs
        ax, ay, az = xs[a_idx], ys[a_idx], zs[a_idx]
        dots_a = [ax * xs[j] + ay * ys[j] + az * zs[j] for j in indices]
        b_idx = indices[dots_a.index(min(dots_a))]
        bx, by, bz = xs[b_idx], ys[b_idx], zs[b_idx]
        left: list[int] = []
        right: list[int] = []
        for i, dot_a in zip(indices, dots_a):
            (left if dot_a >= bx * xs[i] + by * ys[i] + bz * zs[i] else right).append(i)
        if not left or not right:
            # All points tied (e.g. duplicates): halve to guarantee progress.
            mid = len(indices) // 2
            return indices[:mid], indices[mid:]
        return left, right

    def _build(self, root_indices: list[int]) -> _Ball:
        # Iterative construction: a degenerate split sequence must not hit the
        # interpreter recursion limit. Each entry carries the index of a point
        # at its ball's radius, the split's A.
        root, far_idx = self._make_ball(root_indices)
        stack: list[tuple[_Ball, list[int], int]] = [(root, root_indices, far_idx)]
        while stack:
            ball, indices, far_idx = stack.pop()
            if len(indices) <= self.leaf_size:
                ball.indices = indices
                continue
            left_idx, right_idx = self._split(indices, far_idx)
            ball.left, left_far = self._make_ball(left_idx)
            ball.right, right_far = self._make_ball(right_idx)
            stack.append((ball.left, left_idx, left_far))
            stack.append((ball.right, right_idx, right_far))
        return root

    def iter_within(self, query: GeoPoint, radius_m: float, heading: Optional[Heading] = None) -> Iterator[NeighborResult]:
        """Lazily yield the points within ``radius_m`` meters in ``(distance, node_index)`` order.

        With a ``heading``, points that lie behind it may be left out, whole
        balls of them at a time, by the half-space test the module docstring
        derives. Every point within 90 degrees of the heading, and every point
        within 6 µm of ``query``, is still yielded, in the same order.

        A negative radius raises here, not at the first ``next()``; a NaN radius yields nothing.
        """
        if radius_m < 0:
            raise ValueError("radius must be >= 0")
        return self._browse(query, radius_m, heading)

    def _browse(self, query: GeoPoint, radius_m: float, heading: Optional[Heading]) -> Iterator[NeighborResult]:
        # Heap entries are (key, kind, tiebreak, ball), kind 0 for a ball and 1
        # for a point; ``<=`` tests keep a NaN radius from admitting anything.
        pts, xs, ys, zs = self._points, self._xs, self._ys, self._zs
        q = qx, qy, qz = _unit_vector(query)
        # With no heading t is zero and the half-space tests never fire.
        tx, ty, tz = _tangent(query, heading) if heading is not None else (0.0, 0.0, 0.0)
        behind = -_CHORD_SLACK
        # Radii of half the circumference or more reach the whole sphere.
        chord_r = 2.0 * sin(min(radius_m / _TWO_R, pi / 2))
        reach = chord_r + _CHORD_SLACK
        reach_sq = reach * reach
        # The root's own bound is never read (an empty tree's is a placeholder); its children are bounded when it pops.
        heap: list[tuple[float, int, int, Optional[_Ball]]] = [(-inf, 0, 0, self._root)]
        seq = 0
        while heap:
            key, kind, i, ball = heappop(heap)
            if kind:
                yield NeighborResult(i, key)
            elif ball.indices is None:
                for child in (ball.left, ball.right):
                    cx, cy, cz = child.center
                    if tx * cx + ty * cy + tz * cz + child.radius < behind:
                        continue
                    lb = dist(q, child.center) - child.radius - _CHORD_SLACK
                    if lb <= chord_r:
                        seq += 1
                        heappush(heap, (_TWO_R * asin(lb * 0.5) if lb > 0.0 else 0.0, 0, seq, child))
            else:
                for i in ball.indices:
                    x, y, z = xs[i], ys[i], zs[i]
                    if tx * x + ty * y + tz * z < behind:
                        continue
                    dx, dy, dz = qx - x, qy - y, qz - z
                    if dx * dx + dy * dy + dz * dz <= reach_sq:
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


build_index = BallTree


def nearest_brute_force(points: Sequence[GeoPoint], query: GeoPoint) -> Optional[NeighborResult]:
    """Linear-scan nearest neighbor; the reference semantics for ``BallTree.nearest``."""
    best: Optional[NeighborResult] = None
    for i, p in enumerate(points):
        d = haversine_distance(query, p)
        if best is None or d < best.distance:
            best = NeighborResult(i, d)
    return best
