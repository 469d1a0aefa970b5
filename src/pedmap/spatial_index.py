"""Ball tree over geographic points, answering haversine queries exactly.

Each point is stored once as a 3-D unit vector ``(cos φ cos λ, cos φ sin λ,
sin φ)``. Each tree node bounds its subtree by a ball in that space: the
normalized centroid of its points plus the largest chord from that center to
any of them. By the triangle inequality, ``|query - center| - radius``
lower-bounds the chord to every point in the ball, and a chord is at most its
arc: ``2 sin(d / 2R) <= d / R`` for great-circle distance ``d``. So ``R`` times
that chord bound, less a slack, is at most the distance in meters to every
point in the ball, with no trigonometry per ball or per point. A point is a
ball of radius 0. Centroids, unlike lat/lon means, stay tight across ±180° and
near the poles.

All queries share one best-first traversal (Hjaltason & Samet 1999) that
filters, then refines. A heap holds balls and candidate points keyed by that
bound, and points keyed by exact ``haversine_distance``, paid for when a
candidate pops. An entry is pushed only when its key is at most the radius, so
no point within it is dropped. No key exceeds a covered point's distance; at an
equal key balls pop first, then candidates, then points by index. So hits come
lazily in ``(distance, node_index)`` order, with a linear scan's distances, and
a caller may stop at the first one it wants.

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

A run of nearby queries can share the top of the traversal (the dual-tree
pruning of Gray & Moore 2001, "'N-body' problems in statistical learning", for
one query ball). ``BallTree.around`` bounds a block of points by a ball of
center ``b`` and radius ``ρ`` and keeps a cover, opened a level at a time:
tree balls that hold every point within ``radius_m`` of that ball. A ball of
center ``c`` and radius ``r`` is left out when ``|b - c| - r`` exceeds
``radius_m / R + ρ + 2·_CHORD_SLACK``. For a query ``q`` with ``|q - b| <= ρ``
the triangle inequality gives ``|q - c| >= |b - c| - ρ``, one step more than a
query's own bound takes. That step rounds as the others do, at around 1e-15,
so a second slack covers it: a ball left out has a query bound past
``radius_m`` for every such ``q``, and the traversal from the root would not
have yielded any of its points either. The test that places ``q`` in the ball
uses the same ``math.dist`` as ``ρ`` does, so each point of the block passes
it. The traversal bounds and heading-tests its start balls, the root or the
cover's, as it does children, and hits pop in key order whatever the start, so
both starts yield the same hits. (With a heading, a cover ball can pass the
half-space test where an ancestor failed it; its points then meet their own
test, which only a point within about 1e-16 of the ``-_CHORD_SLACK`` line
could pass. Its bearing is past 90 degrees by far more than the bearing's
rounding, so an advisory threshold of 90 or less rejects it.)

Construction splits a node by the farthest-point-pair heuristic: A is the
point farthest from the node's center (the radius scan finds it), B the point
farthest from A, and each point joins the nearer of the two by dot products,
ties going to the earliest point and to A. Each split carries its points'
index, x, y and z lists and its A's coordinates; the root's are the flat arrays,
one per coordinate, that queries read, so the build copies none of them.

A tree of at least ``_FORK_POINTS`` points uses two processes when it can:
where ``os.fork`` exists, two CPUs are usable and no other thread runs. After
the root's split, a forked child grows the right half while this process grows
the left (the subtree-level parallelism of Shevtsov, Soupikov & Kapustin 2007,
"Highly parallel fast KD-tree construction for interactive ray tracing of
dynamic scenes"). The child sends its half back through a pipe as flat arrays
in preorder, and floats cross the pipe bit for bit. Both halves run the same
``_split`` and ``_make_ball`` on the same floats, so the tree equals the one
built in one process, ball for ball. If the pipe or the fork fails, the child
is not seen to exit with 0, or its message is not whole, this process grows
that half itself. The child leaves only by ``os._exit``; if this process raises
while the child runs, it kills the child, and it reaps it either way.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from array import array
from copy import copy
from heapq import heappop, heappush
from math import cos, dist, hypot, inf, radians, sin, sqrt
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .geodesy import EARTH_RADIUS_M, GeoPoint, Heading, haversine_distance

DEFAULT_LEAF_SIZE = 16

# Unit vectors, centers, radii and haversine all round at around 1e-15 on the
# unit sphere. Lowering every chord bound by this much more (6 µm on the ground)
# keeps the bounds below the haversine distance of every point they cover, the
# antipode included, so pruning and heap order stay exact.
_CHORD_SLACK = 1e-12

# The most balls a view's cover keeps. Every query the cover answers bounds each of them: with no cap, replays of
# wide blocks (K = 50-200 m, or 20x stopping distances) ran 2.8-6x slower than from the root. A cap of 32 ran 20x
# stopping distances 1.05-1.13x slower than 16; one of 8 was within 6% of 16 either way on the bench workloads.
_COVER_BALLS = 16

# A tree of at least this many points grows half of itself in a child process (see the module docstring). Against
# one process, the forked build broke even at about 4,000 points in a 41 MiB process and 6,000 in a 240 MiB one (the
# fork copies page tables: 1.1 and 3.2 ms), and took 0.76x and 0.81x at 16,000 points (paired runs, 2-vCPU VM).
_FORK_POINTS = 16_000


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

    # A plain tree answers every query from its root; ``around`` gives a view a cover and a reach.
    _reach = -inf

    def __init__(self, points: Sequence[GeoPoint], leaf_size: int = DEFAULT_LEAF_SIZE):
        if not leaf_size >= 1:
            raise ValueError("leaf_size must be >= 1")
        self._points = list(points)
        # One flat array per coordinate: a tuple per point costs ~140 bytes.
        self._xs, self._ys, self._zs = array("d"), array("d"), array("d")
        for p in self._points:
            x, y, z = _unit_vector(p)
            self._xs.append(x)
            self._ys.append(y)
            self._zs.append(z)
        self._root = self._build(leaf_size) if self._points else _Ball((0.0, 0.0, 0.0), 0.0, [])

    def __len__(self) -> int:
        return len(self._points)

    def _make_ball(self, xs: Sequence[float], ys: Sequence[float], zs: Sequence[float]) -> tuple[_Ball, tuple[float, float, float]]:
        # Returns the ball and a point at its radius. The centroid is sum() over the coordinates in point
        # order: Python 3.12+ compensates sum(), and a hand-kept running total would not.
        norm = hypot(sx := sum(xs), sy := sum(ys), sz := sum(zs))
        if norm == 0.0:
            # The points cancel out (an exactly antipodal pair can): any member will do.
            cx, cy, cz = xs[0], ys[0], zs[0]
        else:
            cx, cy, cz = sx / norm, sy / norm, sz / norm
        # From coordinate differences: 2 - 2·dot cancels at meter scale and
        # could round the radius below a member's chord.
        farthest, far = 0.0, (xs[0], ys[0], zs[0])
        for x, y, z in zip(xs, ys, zs):
            dx, dy, dz = x - cx, y - cy, z - cz
            d = dx * dx + dy * dy + dz * dz
            if d > farthest:
                farthest, far = d, (x, y, z)
        return _Ball((cx, cy, cz), sqrt(farthest)), far

    def _split(self, ids: list[int], xs: Sequence[float], ys: Sequence[float], zs: Sequence[float], a: tuple[float, float, float]) -> tuple[tuple, tuple]:
        # B, the point farthest from A, has the smallest dot product with it.
        ax, ay, az = a
        dots_a = [ax * x + ay * y + az * z for x, y, z in zip(xs, ys, zs)]
        b = dots_a.index(min(dots_a))
        bx, by, bz = xs[b], ys[b], zs[b]
        left, right = ([], [], [], []), ([], [], [], [])
        for i, x, y, z, dot_a in zip(ids, xs, ys, zs, dots_a):
            side = left if dot_a >= bx * x + by * y + bz * z else right
            side[0].append(i)
            side[1].append(x)
            side[2].append(y)
            side[3].append(z)
        if not left[0] or not right[0]:
            # All points tied (e.g. duplicates): halve to guarantee progress.
            mid = len(ids) // 2
            return (ids[:mid], xs[:mid], ys[:mid], zs[:mid]), (ids[mid:], xs[mid:], ys[mid:], zs[mid:])
        return left, right

    def _build(self, leaf_size: int) -> _Ball:
        pts = self._root_points()
        if len(pts[0]) <= leaf_size or len(pts[0]) < _FORK_POINTS or not _may_fork():
            return self._grow(pts, leaf_size)
        # Split the root as _grow would, then grow its right half in a child while this process grows the left.
        root, a = self._make_ball(*pts[1:])
        left, right = self._split(*pts, a)
        del pts
        child = _fork(lambda: _encode(self._grow(right, leaf_size)))
        if child is None:
            root.left, root.right = self._grow(left, leaf_size), self._grow(right, leaf_size)
            return root
        del right  # the child grows it
        pid, r = child
        with open(r, "rb") as f:
            try:
                root.left = self._grow(left, leaf_size)
                data = f.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                try:
                    status = os.waitpid(pid, 0)[1]
                except ChildProcessError:  # reaped already, as when SIGCHLD is ignored: its exit is unknown
                    status = -1
        root.right = _decode(data) if status == 0 else None
        if root.right is None:  # the child failed: split its half off the root again and grow it here
            root.right = self._grow(self._split(*self._root_points(), a)[1], leaf_size)
        return root

    def _root_points(self) -> tuple:
        return list(range(len(self._points))), self._xs, self._ys, self._zs

    def _grow(self, pts: tuple, leaf_size: int) -> _Ball:
        # Iterative construction: a degenerate split sequence must not hit the interpreter recursion
        # limit. Each entry carries its points' index, x, y and z lists (the root's are the arrays), and its split's A.
        root, a = self._make_ball(*pts[1:])
        stack = [(root, pts, a)]
        while stack:
            ball, pts, a = stack.pop()
            if len(pts[0]) <= leaf_size:
                ball.indices = pts[0]
                continue
            left, right = self._split(*pts, a)
            ball.left, left_a = self._make_ball(*left[1:])
            ball.right, right_a = self._make_ball(*right[1:])
            stack.append((ball.left, left, left_a))
            stack.append((ball.right, right, right_a))
        return root

    def around(self, points: Sequence[GeoPoint], radius_m: float) -> BallTree:
        """A view of this tree for queries near ``points``, sharing its arrays and answering every query as it does.

        The view holds a cover of at most ``_COVER_BALLS`` balls, opened a level
        at a time, under which lies every point within ``radius_m`` of the
        points' bounding ball (see the module docstring). A query inside that
        ball, to a radius of at most ``radius_m``, starts from the cover's balls
        instead of the root, so a run of nearby queries shares one descent
        through the top of the tree. Any other query starts from the root.
        ``points`` must not be empty.
        """
        if not points:
            raise ValueError("around needs at least one point")
        vectors = [_unit_vector(p) for p in points]
        center = self._make_ball(*zip(*vectors))[0].center
        # The same ``dist`` that places a query inside the ball, so each of ``points`` is placed inside.
        rho = max(dist(center, v) for v in vectors)
        # A ball is in reach when the chord from ``center`` to its center, less its radius, is at most this.
        limit = radius_m / EARTH_RADIUS_M + rho + 2 * _CHORD_SLACK
        # Open a level at a time, keeping the balls in reach, until the next level keeps too many or opens nothing.
        cover, level = [], [self._root]
        while True:
            kept = [ball for ball in level if dist(center, ball.center) - ball.radius <= limit]
            if len(kept) > _COVER_BALLS or kept == cover:
                break
            cover = kept
            level = [child for ball in cover for child in ((ball,) if ball.indices is not None else (ball.left, ball.right))]
        view = copy(self)
        view._cover = tuple(cover)
        view._cover_center, view._cover_radius, view._reach = center, rho, radius_m
        return view

    def iter_within(self, query: GeoPoint, radius_m: float, heading: Optional[Heading] = None) -> Iterator[NeighborResult]:
        """Lazily yield the points within ``radius_m`` meters in ``(distance, node_index)`` order.

        With a ``heading``, points that lie behind it may be left out, whole
        balls of them at a time, by the half-space test the module docstring
        derives. Every point within 90 degrees of the heading, and every point
        within 6 µm of ``query``, is still yielded, in the same order.

        On a view from ``around``, a query inside the view's ball with a radius
        of at most its reach starts from the cover's balls; any other query
        starts from the root. Either way the hits are the same.

        A negative radius raises here, not at the first ``next()``; a NaN radius yields nothing.
        """
        if radius_m < 0:
            raise ValueError("radius must be >= 0")
        return self._browse(query, radius_m, heading)

    def _browse(self, query: GeoPoint, radius_m: float, heading: Optional[Heading]) -> Iterator[NeighborResult]:
        # Heap entries are (key, kind, seq or index, ball), kind 0 for a ball, 1 for a candidate point and 2 for
        # an exact one; no two share the first three. ``<=`` tests keep a NaN radius from admitting anything.
        pts, xs, ys, zs = self._points, self._xs, self._ys, self._zs
        q = qx, qy, qz = _unit_vector(query)
        # With no heading t is zero and the half-space tests never fire.
        tx, ty, tz = _tangent(query, heading) if heading is not None else (0.0, 0.0, 0.0)
        behind = -_CHORD_SLACK
        # A query the cover answers starts from its balls; any other starts from the root.
        balls = self._cover if radius_m <= self._reach and dist(q, self._cover_center) <= self._cover_radius else (self._root,)
        heap: list[tuple[float, int, int, Optional[_Ball]]] = []
        seq = 0
        while True:
            for child in balls:
                cx, cy, cz = child.center
                if tx * cx + ty * cy + tz * cz + child.radius < behind:
                    continue
                if (lb := EARTH_RADIUS_M * (dist(q, child.center) - child.radius - _CHORD_SLACK)) <= radius_m:
                    seq += 1
                    heappush(heap, (lb, 0, seq, child))
            while heap:
                key, kind, i, ball = heappop(heap)
                if kind == 2:
                    yield NeighborResult(i, key)
                elif kind:
                    if (d := haversine_distance(query, pts[i])) <= radius_m:
                        heappush(heap, (d, 2, i, None))
                elif ball.indices is None:
                    balls = ball.left, ball.right
                    break
                else:
                    for i in ball.indices:
                        x, y, z = xs[i], ys[i], zs[i]
                        if tx * x + ty * y + tz * z < behind:
                            continue
                        dx, dy, dz = qx - x, qy - y, qz - z
                        # The same bound as a ball's, of radius 0; refined to the haversine distance when it pops.
                        if (lb := EARTH_RADIUS_M * (sqrt(dx * dx + dy * dy + dz * dz) - _CHORD_SLACK)) <= radius_m:
                            heappush(heap, (lb, 1, i, None))
            else:
                return

    def nearest(self, query: GeoPoint) -> Optional[NeighborResult]:
        """The indexed point minimizing haversine distance to ``query``.

        Ties break toward the lowest point index; returns None on an empty tree.
        """
        return next(self.iter_within(query, inf), None)

    def within_radius(self, query: GeoPoint, radius_m: float) -> list[NeighborResult]:
        """All indexed points within ``radius_m`` meters, sorted by ``(distance, node_index)``."""
        return list(self.iter_within(query, radius_m))


build_index = BallTree


def _may_fork() -> bool:
    """Whether a child process may grow half a tree: ``os.fork`` exists, two CPUs are usable, and no other
    thread runs (a fork copies one thread, and a lock another held stays held in the child)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) >= 2


def _fork(produce: Callable[[], bytes]) -> Optional[tuple[int, int]]:
    """Start a child that writes ``produce()`` to a pipe and exits: its pid and the pipe's read end, or None if
    no child could be started. The child leaves only by ``os._exit``, so it flushes none of the stdio it inherited."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            with open(w, "wb") as f:
                f.write(produce())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _encode(root: _Ball) -> bytes:
    """A subtree as one message: the centers, radii and leaf sizes (0 for an inner ball) of its balls in
    preorder, and its leaves' indices, each a flat array."""
    centers, radii, sizes, indices = array("d"), array("d"), array("q"), array("q")
    stack = [root]
    while stack:
        ball = stack.pop()
        centers.extend(ball.center)
        radii.append(ball.radius)
        if ball.indices is None:
            sizes.append(0)
            stack += ball.right, ball.left
        else:
            sizes.append(len(ball.indices))
            indices.extend(ball.indices)
    return marshal.dumps(tuple(column.tobytes() for column in (centers, radii, sizes, indices)))


def _decode(data: bytes) -> Optional[_Ball]:
    """The subtree ``_encode`` wrote, or None if ``data`` is not one whole message."""
    balls: list[_Ball] = []
    try:
        centers, radii, sizes, indices = (array(code, b) for code, b in zip("ddqq", marshal.loads(data), strict=True))
        xyz, end = iter(centers), len(indices)
        # From the last ball back: an inner ball's subtrees are the last two decoded, the left one on top.
        for center, radius, size in reversed(list(zip(zip(xyz, xyz, xyz), radii, sizes, strict=True))):
            ball = _Ball(center, radius, indices[end - size : end].tolist() if size else None)
            end -= size
            if not size:
                ball.left, ball.right = balls.pop(), balls.pop()
            balls.append(ball)
    except (EOFError, IndexError, TypeError, ValueError):
        return None
    return balls[0] if len(balls) == 1 and end == 0 and len(centers) == 3 * len(radii) else None


def nearest_brute_force(points: Sequence[GeoPoint], query: GeoPoint) -> Optional[NeighborResult]:
    """Linear-scan nearest neighbor; the reference semantics for ``BallTree.nearest``."""
    best: Optional[NeighborResult] = None
    for i, p in enumerate(points):
        d = haversine_distance(query, p)
        if best is None or d < best.distance:
            best = NeighborResult(i, d)
    return best
