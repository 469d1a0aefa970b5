"""Advisory replay: walk a test drive past a hotspot map and decide, every K
meters, whether the driver should be warned.

A checkpoint is an interpolated along-track sample of the drive carrying
position, heading, and speed. At each checkpoint the stopping distance for the
current speed defines a search radius; the advisory is active when any hotspot
node with enough sightings lies inside that radius ahead of the vehicle
(heading separation at most the configured threshold, 90 degrees by default).
The advisory is preemptive: it comes on before the hotspot and drops as soon
as every in-radius node has fallen behind.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from io import TextIOWrapper
from math import isfinite
from typing import IO, Iterable, Iterator, Literal, Optional, Union

from .geodesy import (
    GeoPoint,
    Heading,
    angular_separation,
    coincident,
    haversine_distance,
    initial_bearing,
    interpolate_along,
)
from .ingest import HotspotMap, ParseError, _parse_int, _parse_latlon

TRACE_HEADER = ["timestamp", "latitude", "longitude", "clip_id"]

# Below this distance a hotspot node is treated as dead ahead: the bearing to it
# is numerically meaningless and the vehicle is effectively on top of it.
COINCIDENT_M = 1e-6

KMH_PER_MPS = 3.6


@dataclass(frozen=True, slots=True)
class AdvisoryConfig:
    """Tunable advisory parameters.

    ``reaction_time`` (s), ``friction``, and ``grade`` feed the stopping-distance
    formula; ``safety_factor`` scales the resulting radius. ``sampling_distance``
    (m) spaces the checkpoints; ``heading_threshold`` (deg) bounds how far off the
    direction of travel a node may sit and still count as in front; ``min_count``
    is the minimum sightings a node needs to trigger.
    """

    reaction_time: float = 2.5
    friction: float = 0.7
    grade: float = 0.0
    safety_factor: float = 1.0
    sampling_distance: float = 2.0
    heading_threshold: float = 90.0
    min_count: int = 1

    def __post_init__(self) -> None:
        for name in ("reaction_time", "friction", "grade", "safety_factor", "sampling_distance", "heading_threshold"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.reaction_time <= 0:
            raise ValueError("reaction_time must be > 0")
        if self.safety_factor <= 0:
            raise ValueError("safety_factor must be > 0")
        if self.sampling_distance <= 0:
            raise ValueError("sampling_distance must be > 0")
        if self.friction + self.grade <= 0:
            raise ValueError("non-positive braking denominator (friction + grade)")
        if not 0 < self.heading_threshold <= 180:
            raise ValueError("heading_threshold must be in (0, 180]")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")


@dataclass(frozen=True, slots=True)
class TraceFix:
    timestamp_ms: int
    position: GeoPoint


@dataclass(frozen=True, slots=True)
class DriveTrace:
    """An ordered GPS trace of one test drive clip.

    Timestamps must be strictly increasing and consecutive fixes must be less
    than 180 degrees apart in longitude (antimeridian-crossing traces are
    rejected).
    """

    fixes: tuple[TraceFix, ...]
    clip_id: str

    def __post_init__(self) -> None:
        for prev, cur in zip(self.fixes, self.fixes[1:]):
            if cur.timestamp_ms <= prev.timestamp_ms:
                raise ValueError(
                    f"timestamps not strictly increasing at {cur.timestamp_ms} in clip {self.clip_id!r}"
                )
            if abs(cur.position.lon - prev.position.lon) >= 180.0:
                raise ValueError(f"longitude jump >= 180 degrees in clip {self.clip_id!r}")


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """An along-track sample where the advisory condition is evaluated."""

    arc_position: float  # meters from trace start; a multiple of the sampling distance
    position: GeoPoint
    heading: Heading
    speed: float  # km/h
    timestamp_ms: int


@dataclass(frozen=True, slots=True)
class AdvisoryDecision:
    checkpoint: Checkpoint
    active: bool
    stopping_distance: float
    nearest_front_distance: Optional[float] = None
    nearest_front_heading_sep: Optional[float] = None


@dataclass(frozen=True, slots=True)
class Transition:
    arc_position: float
    position: GeoPoint
    kind: Literal["ON", "OFF"]


@dataclass(frozen=True)
class AdvisoryTimeline:
    """Ordered advisory decisions over one replayed drive."""

    decisions: tuple[AdvisoryDecision, ...]
    clip_id: str
    sampling_distance: float

    @property
    def transitions(self) -> list[Transition]:
        """ON/OFF events derived from consecutive active flags; always starts with ON."""
        events = []
        prev_active = False
        for d in self.decisions:
            if d.active != prev_active:
                kind = "ON" if d.active else "OFF"
                events.append(Transition(d.checkpoint.arc_position, d.checkpoint.position, kind))
                prev_active = d.active
        return events


def stopping_distance(speed_kmh: float, cfg: AdvisoryConfig) -> float:
    """AASHTO perception-reaction plus braking distance, scaled by the safety factor.

    ``s = b * (0.278 * t * v + v^2 / (254 * (f + G)))`` with v in km/h, s in meters.
    """
    if speed_kmh < 0:
        raise ValueError("speed must be >= 0")
    denom = cfg.friction + cfg.grade
    if denom <= 0:
        raise ValueError("non-positive braking denominator (friction + grade)")
    return cfg.safety_factor * (
        0.278 * cfg.reaction_time * speed_kmh + speed_kmh**2 / (254.0 * denom)
    )


# --- trace geometry ---------------------------------------------------------


def _cumulative_arcs(trace: DriveTrace) -> list[float]:
    arcs = [0.0]
    for prev, cur in zip(trace.fixes, trace.fixes[1:]):
        arcs.append(arcs[-1] + haversine_distance(prev.position, cur.position))
    return arcs


def _kinematics_at(trace: DriveTrace, arcs: list[float], arc_position: float) -> tuple[GeoPoint, Heading, float, int]:
    total = arcs[-1]
    if arc_position < 0 or arc_position > total + 1e-9:
        raise ValueError(f"arc position {arc_position} outside trace [0, {total}]")
    # An arc landing exactly on a fix boundary belongs to the segment starting
    # there, zero-length (stationary) segments included.
    i = bisect_left(arcs, arc_position)
    seg = i if i < len(arcs) and arcs[i] == arc_position else i - 1
    seg = min(max(seg, 0), len(arcs) - 2)
    a, b = trace.fixes[seg], trace.fixes[seg + 1]
    seg_len = arcs[seg + 1] - arcs[seg]
    frac = min((arc_position - arcs[seg]) / seg_len, 1.0) if seg_len > 0 else 0.0
    position = interpolate_along(a.position, b.position, frac)
    timestamp = round(a.timestamp_ms + frac * (b.timestamp_ms - a.timestamp_ms))

    # A zero-length segment has no bearing of its own; carry the previous one.
    j = seg
    while j >= 0 and coincident(trace.fixes[j].position, trace.fixes[j + 1].position):
        j -= 1
    if j < 0:
        raise ValueError("degenerate trace: no segment with a defined heading")
    heading = initial_bearing(trace.fixes[j].position, trace.fixes[j + 1].position)

    duration_s = (b.timestamp_ms - a.timestamp_ms) / 1000.0
    speed_kmh = seg_len / duration_s * KMH_PER_MPS

    return position, heading, speed_kmh, timestamp


def estimate_kinematics(trace: DriveTrace, arc_position: float) -> tuple[GeoPoint, Heading, float]:
    """Position, heading, and speed (km/h) at an along-track arc position."""
    position, heading, speed, _ = _kinematics_at(trace, _cumulative_arcs(trace), arc_position)
    return position, heading, speed


def trace_arc_length(trace: DriveTrace) -> float:
    """Total along-track length of the trace, in meters."""
    return _cumulative_arcs(trace)[-1]


def checkpoints(trace: DriveTrace, sampling_distance: float) -> list[Checkpoint]:
    """Checkpoints on the fixed arc-length grid 0, K, 2K, ... within the trace.

    The grid is anchored at the trace start so that the checkpoint set for a
    multiple of K is a subset of the set for K, independent of GPS fix spacing.
    """
    if sampling_distance <= 0:
        raise ValueError("sampling_distance must be > 0")
    if len(trace.fixes) < 2:
        raise ValueError("trace needs at least 2 fixes")
    arcs = _cumulative_arcs(trace)
    total = arcs[-1]
    count = int(total / sampling_distance + 1e-9) + 1
    result = []
    for i in range(count):
        arc = i * sampling_distance
        position, heading, speed, ts = _kinematics_at(trace, arcs, arc)
        result.append(Checkpoint(arc, position, heading, speed, ts))
    return result


# --- advisory decision ------------------------------------------------------


def evaluate_checkpoint(cp: Checkpoint, hotspot_map: HotspotMap, cfg: AdvisoryConfig) -> AdvisoryDecision:
    """Apply the advisory condition at one checkpoint.

    Active when any node with ``count >= min_count`` lies within the stopping
    distance and no more than ``heading_threshold`` degrees off the direction of
    travel. A node the vehicle is standing on counts as in front.
    """
    radius = stopping_distance(cp.speed, cfg)
    nearest_d: Optional[float] = None
    nearest_sep: Optional[float] = None
    for hit in hotspot_map.index.iter_within(cp.position, radius):
        node = hotspot_map.nodes[hit.node_index]
        if node.count < cfg.min_count:
            continue
        if hit.distance < COINCIDENT_M:
            sep = 0.0
        else:
            sep = angular_separation(cp.heading, initial_bearing(cp.position, node.position))
            if sep > cfg.heading_threshold:
                continue
        # Hits arrive in (distance, index) order, so the first survivor is the nearest.
        nearest_d = hit.distance
        nearest_sep = sep
        break
    return AdvisoryDecision(cp, nearest_d is not None, radius, nearest_d, nearest_sep)


def run_replay(trace: DriveTrace, hotspot_map: HotspotMap, cfg: AdvisoryConfig) -> AdvisoryTimeline:
    """Evaluate every checkpoint of a drive in order and return the timeline."""
    decisions = tuple(
        evaluate_checkpoint(cp, hotspot_map, cfg) for cp in checkpoints(trace, cfg.sampling_distance)
    )
    return AdvisoryTimeline(decisions, trace.clip_id, cfg.sampling_distance)


def with_sampling_distance(cfg: AdvisoryConfig, sampling_distance: float) -> AdvisoryConfig:
    return replace(cfg, sampling_distance=sampling_distance)


# --- I/O ---------------------------------------------------------------------


def parse_trace_csv(source: Union[IO[bytes], IO[str], Iterable[str]]) -> list[DriveTrace]:
    """Parse a test-drive CSV into one trace per clip, ordered by clip id.

    The header must be exactly ``timestamp,latitude,longitude,clip_id``.
    """
    if hasattr(source, "read") and isinstance(source.read(0), bytes):  # type: ignore[union-attr]
        source = TextIOWrapper(source, encoding="utf-8", newline="")  # type: ignore[arg-type]
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("missing header row", 1) from None
    if header != TRACE_HEADER:
        raise ParseError(f"bad header {header!r}, expected {TRACE_HEADER!r}", 1)
    by_clip: dict[str, list[TraceFix]] = {}
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line)
        ts = _parse_int(row[0], "timestamp", line)
        position = _parse_latlon(row[1], row[2], line)
        by_clip.setdefault(row[3], []).append(TraceFix(ts, position))
    traces = []
    for clip_id in sorted(by_clip):
        fixes = sorted(by_clip[clip_id], key=lambda f: f.timestamp_ms)
        traces.append(DriveTrace(tuple(fixes), clip_id))
    return traces


def decision_to_record(decision: AdvisoryDecision) -> dict:
    cp = decision.checkpoint
    return {
        "arc_m": cp.arc_position,
        "lat": cp.position.lat,
        "lon": cp.position.lon,
        "speed_kmh": cp.speed,
        "heading_deg": cp.heading.degrees,
        "stopping_distance_m": decision.stopping_distance,
        "active": decision.active,
        "nearest_front_m": decision.nearest_front_distance,
        "nearest_front_sep_deg": decision.nearest_front_heading_sep,
    }


def timeline_to_jsonl(timeline: AdvisoryTimeline) -> Iterator[str]:
    """One JSON object per advisory decision, in replay order."""
    for decision in timeline.decisions:
        yield json.dumps(decision_to_record(decision))
