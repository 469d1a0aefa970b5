"""Shared synthetic-scenario builders for the test suite.

Scenarios live near the equator so that meter offsets convert to degrees with
a single scale factor and along-meridian distances are exactly linear in
latitude, which keeps hand-computed expectations exact.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass

import pytest

from pedmap.advisory import DriveTrace, TraceFix
from pedmap.evaluation import GroundTruthWindow
from pedmap.geodesy import EARTH_RADIUS_M, GeoPoint
from pedmap.ingest import HotspotMap, HotspotNode

M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail the test that leaves the cyclic garbage collector disabled (a missed ``gc.enable()``), not the ones after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


def wrap_lon(lon: float) -> float:
    """A longitude wrapped into [-180, 180], for helpers whose arithmetic crosses ±180°."""
    return ((lon + 180.0) % 360.0) - 180.0


def offset(point: GeoPoint, north_m: float = 0.0, east_m: float = 0.0) -> GeoPoint:
    """Shift a point by meters north/east (small-offset approximation)."""
    lat = point.lat + north_m / M_PER_DEG_LAT
    lon = point.lon + east_m / (M_PER_DEG_LAT * math.cos(math.radians(point.lat)))
    return GeoPoint(lat, wrap_lon(lon))


def destination(point: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """The point ``distance_m`` along the great circle leaving ``point`` at ``bearing_deg``."""
    phi, lam = math.radians(point.lat), math.radians(point.lon)
    theta, delta = math.radians(bearing_deg), distance_m / EARTH_RADIUS_M
    lat = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(theta))
    lon = lam + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi), math.cos(delta) - math.sin(phi) * math.sin(lat)
    )
    return GeoPoint(math.degrees(lat), wrap_lon(math.degrees(lon)))


def northbound_trace(
    start: GeoPoint,
    length_m: float,
    speed_kmh: float,
    clip_id: str = "test",
    fix_hz: float = 1.0,
) -> DriveTrace:
    """A straight constant-speed drive due north along a meridian."""
    step_m = speed_kmh / 3.6 / fix_hz
    segments = math.ceil(length_m / step_m)
    fixes = tuple(
        TraceFix(round(i * 1000 / fix_hz), offset(start, north_m=i * step_m))
        for i in range(segments + 1)
    )
    return DriveTrace(fixes, clip_id)


def make_node(position: GeoPoint, count: int = 1, clip_id: str = "train", ts: int = 0) -> HotspotNode:
    return HotspotNode(position, count, ts, clip_id)


def map_of(*nodes: HotspotNode) -> HotspotMap:
    return HotspotMap(list(nodes))


def merge_window_spans(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass
class Scenario:
    trace: DriveTrace
    hotspot_map: HotspotMap
    windows: list[GroundTruthWindow]
    node_arcs: list[float]
    speed_kmh: float


def random_scenario(rng: random.Random, clip_id: str = "clip") -> Scenario:
    """A northbound drive past a handful of roadside hotspots with labeled windows.

    Speeds stay at or above 15 km/h and lateral node offsets within 10 m so
    that every hotspot's along-track trigger region is at least ~6 m long;
    ground-truth windows are centered on the hotspots with half-widths larger
    than any sampling distance under test. Both bounds matter: they guarantee
    a window overlapping an advisory at a coarse sampling grid also overlaps
    one at any finer grid that divides it.
    """
    start = GeoPoint(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    speed = rng.uniform(15.0, 60.0)
    length = rng.uniform(300.0, 600.0)
    trace = northbound_trace(start, length, speed, clip_id)

    node_arcs = sorted(rng.uniform(60.0, length - 80.0) for _ in range(rng.randint(1, 4)))
    nodes = []
    spans = []
    for arc in node_arcs:
        lateral = rng.uniform(-10.0, 10.0)
        nodes.append(make_node(offset(start, north_m=arc, east_m=lateral), rng.randint(1, 3)))
        spans.append((max(0.0, arc - rng.uniform(10.0, 25.0)), arc + rng.uniform(10.0, 25.0)))

    if rng.random() < 0.5:
        # A far-off node the drive can never come close to.
        nodes.append(make_node(offset(start, north_m=rng.uniform(0.0, length), east_m=500.0)))

    if rng.random() < 0.5:
        # A decoy window no advisory can reach: missed at every sampling distance.
        for _ in range(20):
            center = rng.uniform(40.0, length - 40.0)
            if all(abs(center - arc) > 160.0 for arc in node_arcs):
                spans.append((center - 10.0, center + 10.0))
                break

    windows = [
        GroundTruthWindow(clip_id, start_m, end_m, label=f"w{i}")
        for i, (start_m, end_m) in enumerate(merge_window_spans(spans))
    ]
    return Scenario(trace, map_of(*nodes), windows, node_arcs, speed)
