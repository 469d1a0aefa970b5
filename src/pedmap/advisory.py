"""Advisory replay: walk a test drive past a hotspot map and decide, every K
meters, whether the driver should be warned.

A checkpoint is an interpolated along-track sample of the drive carrying
position, heading, and speed. ``checkpoints`` takes all of a drive's
checkpoints in one forward pass over the trace; a stop keeps the heading of
the move before it (or after it, if the drive begins parked). At each
checkpoint the stopping distance for the current speed defines a search
radius; the advisory is active when any hotspot node with enough sightings
lies inside that radius ahead of the vehicle (heading separation at most the
configured threshold, 90 degrees by default).
The advisory is preemptive: it comes on before the hotspot and drops as soon
as every in-radius node has fallen behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from math import isfinite
from typing import Iterable, Iterator, Literal, Optional

from .geodesy import (
    GeoPoint,
    Heading,
    angular_separation,
    coincident,
    haversine_distance,
    initial_bearing,
    interpolate_along,
)
from .ingest import HotspotMap, _read_rows

TRACE_HEADER = ["timestamp", "latitude", "longitude", "clip_id"]

# Below this distance a hotspot node is treated as dead ahead: the bearing to it
# is numerically meaningless and the vehicle is effectively on top of it.
COINCIDENT_M = 1e-6

KMH_PER_MPS = 3.6

# Speeds divide by timestamp differences as floats; within this bound each converts finite, rounded at most once.
MAX_TIMESTAMP_MS = 2**53

# A finer grid is no use at GPS accuracy, and one near 0 m never finishes.
MIN_SAMPLING_DISTANCE_M = 0.01

# The checkpoint grid takes an arc at most this far past the end of a trace.
ARC_TOLERANCE_M = 1e-9

# Checkpoints a replay decides from one shared view of the index (``BallTree.around``): at K = 2 m, 32
# span 64 m. Blocks of 64 were slower on the 50k-node map; blocks of 16 slowed the smaller maps' sweeps.
_BLOCK = 32


def _check_sampling_distance(sampling_distance: float) -> None:
    if not isfinite(sampling_distance):
        raise ValueError("sampling_distance must be finite")
    if sampling_distance < MIN_SAMPLING_DISTANCE_M:
        raise ValueError(f"sampling_distance must be >= {MIN_SAMPLING_DISTANCE_M}")


@dataclass(frozen=True, slots=True)
class AdvisoryConfig:
    """Tunable advisory parameters.

    Each field's ``help`` metadata says what it sets; the CLI turns every field
    into a flag with that help, the field's default and its type.
    """

    reaction_time: float = field(default=2.5, metadata={"help": "Driver reaction time, seconds."})
    friction: float = field(default=0.7, metadata={"help": "Road friction coefficient."})
    grade: float = field(default=0.0, metadata={"help": "Road grade (positive uphill)."})
    safety_factor: float = field(default=1.0, metadata={"help": "Multiplier on the stopping-distance radius."})
    sampling_distance: float = field(default=2.0, metadata={"help": "Meters between advisory checkpoints."})
    heading_threshold: float = field(default=90.0, metadata={"help": "Max heading separation, degrees, for a node to count as in front."})
    min_count: int = field(default=1, metadata={"help": "Minimum sightings for a node to trigger."})

    def __post_init__(self) -> None:
        for f in fields(self):
            if type(f.default) is float and not isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.reaction_time <= 0:
            raise ValueError("reaction_time must be > 0")
        if self.safety_factor <= 0:
            raise ValueError("safety_factor must be > 0")
        _check_sampling_distance(self.sampling_distance)
        if self.friction + self.grade <= 0:
            raise ValueError("non-positive braking denominator (friction + grade)")
        if not 0 < self.heading_threshold <= 180:
            raise ValueError("heading_threshold must be in (0, 180]")
        if type(self.min_count) is not int:
            raise ValueError(f"min_count must be an integer, got {self.min_count!r}")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")


@dataclass(frozen=True, slots=True)
class TraceFix:
    timestamp_ms: int
    position: GeoPoint


@dataclass(frozen=True, slots=True)
class DriveTrace:
    """An ordered GPS trace of one test drive clip.

    Timestamps must be strictly increasing and at most 2^53 in magnitude. A
    drive may cross ±180°: each segment runs the short way round. ``arcs``
    holds the meters along the trace from its first fix to each fix, measured
    once, as the trace is validated.
    """

    fixes: tuple[TraceFix, ...]
    clip_id: str
    arcs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.fixes and max(-self.fixes[0].timestamp_ms, self.fixes[-1].timestamp_ms) > MAX_TIMESTAMP_MS:
            raise ValueError(f"timestamps outside [-2**53, 2**53] ms in clip {self.clip_id!r}")
        arcs = [0.0]
        for prev, cur in zip(self.fixes, self.fixes[1:]):
            if cur.timestamp_ms <= prev.timestamp_ms:
                raise ValueError(
                    f"timestamps not strictly increasing at {cur.timestamp_ms} in clip {self.clip_id!r}"
                )
            arcs.append(arcs[-1] + haversine_distance(prev.position, cur.position))
        object.__setattr__(self, "arcs", tuple(arcs) if self.fixes else ())


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """An along-track sample where the advisory condition is evaluated: position, heading and speed."""

    arc_position: float  # meters from trace start; a multiple of the sampling distance
    position: GeoPoint
    heading: Heading
    speed: float  # km/h


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
    def events(self) -> list[tuple[int, int]]:
        """Advisory events: the index ranges ``[start, stop)`` of the maximal runs of active decisions."""
        runs = []
        start = 0
        for active, run in groupby(d.active for d in self.decisions):
            stop = start + sum(1 for _ in run)
            if active:
                runs.append((start, stop))
            start = stop
        return runs

    @property
    def transitions(self) -> list[Transition]:
        """ON at the first decision of each event, OFF at the decision after its last, if any."""
        result = []
        for start, stop in self.events:
            for i, kind in ((start, "ON"), (stop, "OFF")):
                if i < len(self.decisions):
                    cp = self.decisions[i].checkpoint
                    result.append(Transition(cp.arc_position, cp.position, kind))
        return result


def stopping_distance(speed_kmh: float, cfg: AdvisoryConfig) -> float:
    """AASHTO perception-reaction plus braking distance, scaled by the safety factor.

    ``s = b * (0.278 * t * v + v^2 / (254 * (f + G)))`` with v in km/h, s in meters.
    A result too large for a float raises ValueError.
    """
    if not speed_kmh >= 0:  # NaN too
        raise ValueError("speed must be >= 0")
    # AdvisoryConfig guarantees finite fields and friction + grade > 0, so only an overflow to inf is not finite.
    try:
        s = cfg.safety_factor * (
            0.278 * cfg.reaction_time * speed_kmh + speed_kmh**2 / (254.0 * (cfg.friction + cfg.grade))
        )
        if isfinite(s):
            return s
    except OverflowError:  # ``**`` raises past about 1.3e154 km/h, where ``*`` would give inf
        pass
    raise ValueError(f"stopping distance overflows at {speed_kmh:g} km/h")


# --- trace geometry ---------------------------------------------------------


def checkpoints(trace: DriveTrace, sampling_distance: float) -> list[Checkpoint]:
    """Position, heading and segment speed at each arc of the fixed grid 0, K, 2K, ...
    within the trace, taken in one forward walk over its segments.

    The grid is anchored at the trace start so that the checkpoint set for a
    multiple of K is a subset of the set for K, independent of GPS fix spacing.
    An arc exactly on a fix belongs to the segment starting there, stationary
    included, and the heading is that of the latest moving segment (the first
    one, while the drive begins parked). The walk notes each moving segment it
    enters and computes a heading only on reaching a new one. The arcs are the
    trace's own ``arcs``, so a drive sampled at several K is measured only once.
    ``sampling_distance`` must pass the check ``AdvisoryConfig`` applies:
    finite, and at least ``MIN_SAMPLING_DISTANCE_M``.
    """
    _check_sampling_distance(sampling_distance)
    fixes = trace.fixes
    if len(fixes) < 2:
        raise ValueError("trace needs at least 2 fixes")
    arcs = trace.arcs
    total, last = arcs[-1], len(arcs) - 2
    # The relative 1e-9 absorbs rounding in the division; the last arc
    # must also fall within ARC_TOLERANCE_M of the end.
    n = int(total / sampling_distance + 1e-9)
    if n * sampling_distance > total + ARC_TOLERANCE_M:
        n -= 1
    moving = next((s for s in range(last + 1) if not coincident(fixes[s].position, fixes[s + 1].position)), None)
    if moving is None:
        raise ValueError("degenerate trace: no segment with a defined heading")
    seg = 0  # moving is the latest moving segment at or before seg, else the first one
    heading_of = -1  # the segment ``heading`` was last computed from
    result = []
    for i in range(n + 1):
        arc = i * sampling_distance
        while seg < last and arcs[seg] < arc and arcs[seg + 1] <= arc:
            seg += 1
            if not coincident(fixes[seg].position, fixes[seg + 1].position):
                moving = seg
        if heading_of != moving:
            heading_of = moving
            heading = initial_bearing(fixes[moving].position, fixes[moving + 1].position)
        a, b = fixes[seg], fixes[seg + 1]
        seg_len = arcs[seg + 1] - arcs[seg]
        frac = min((arc - arcs[seg]) / seg_len, 1.0) if seg_len > 0 else 0.0
        position = interpolate_along(a.position, b.position, frac)
        speed_kmh = seg_len / ((b.timestamp_ms - a.timestamp_ms) / 1000.0) * KMH_PER_MPS
        result.append(Checkpoint(arc, position, heading, speed_kmh))
    return result


# --- advisory decision ------------------------------------------------------


def evaluate_checkpoint(cp: Checkpoint, hotspot_map: HotspotMap, cfg: AdvisoryConfig) -> AdvisoryDecision:
    """Apply the advisory condition at one checkpoint.

    Active when any node with ``count >= min_count`` lies within the stopping
    distance and no more than ``heading_threshold`` degrees off the direction of
    travel. A node the vehicle is standing on counts as in front.

    For thresholds up to 90 degrees the index is given the heading and skips
    what lies behind the vehicle (see ``spatial_index``). It still yields every
    node this rule can accept, those within ``COINCIDENT_M`` included, so the
    decision is the one a scan of all nodes gives.
    """
    radius = stopping_distance(cp.speed, cfg)
    heading = cp.heading if cfg.heading_threshold <= 90 else None
    for hit in hotspot_map.index.iter_within(cp.position, radius, heading):
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
        return AdvisoryDecision(cp, True, radius, hit.distance, sep)
    return AdvisoryDecision(cp, False, radius)


def run_replay(
    trace: DriveTrace, hotspot_map: HotspotMap, cfg: AdvisoryConfig, decided: Optional[dict[float, AdvisoryDecision]] = None
) -> AdvisoryTimeline:
    """Evaluate every checkpoint of a drive in order and return the timeline.

    ``decided`` maps exact arc positions to decisions: a checkpoint reuses the
    stored one, and a new decision is stored. Share it only between replays of
    the same trace, map and config that differ in the sampling distance alone.

    The checkpoints still to decide are taken in blocks of ``_BLOCK``
    consecutive ones. Each block is decided against a view of the map's index
    around it (``BallTree.around``, to the block's largest stopping distance),
    so its queries skip the descent from the root they would otherwise share.
    The view answers as the index does, so every decision is the one
    ``evaluate_checkpoint`` gives on the map itself, and a stopping distance
    that overflows raises at the first such checkpoint, in order.
    """
    if decided is None:
        decided = {}
    cps = checkpoints(trace, cfg.sampling_distance)
    for start in range(0, len(cps), _BLOCK):
        block = [cp for cp in cps[start : start + _BLOCK] if cp.arc_position not in decided]
        if block:
            reach = max([stopping_distance(cp.speed, cfg) for cp in block])
            local = HotspotMap(hotspot_map.nodes)
            local.index = hotspot_map.index.around([cp.position for cp in block], reach)
            for cp in block:
                decided[cp.arc_position] = evaluate_checkpoint(cp, local, cfg)
    return AdvisoryTimeline(tuple(decided[cp.arc_position] for cp in cps), trace.clip_id, cfg.sampling_distance)


def with_sampling_distance(cfg: AdvisoryConfig, sampling_distance: float) -> AdvisoryConfig:
    return replace(cfg, sampling_distance=sampling_distance)


# --- I/O ---------------------------------------------------------------------


def parse_trace_csv(source: Iterable[str]) -> list[DriveTrace]:
    """Parse test-drive CSV text into one trace per clip, ordered by clip id.

    The header must be exactly ``timestamp,latitude,longitude,clip_id``; rows
    are checked as in ``ingest.parse_detection_log``.
    """
    by_clip: dict[str, list[TraceFix]] = {}
    for _, ts, position, row in _read_rows(source, TRACE_HEADER):
        by_clip.setdefault(row[3], []).append(TraceFix(ts, position))
    traces = []
    for clip_id in sorted(by_clip):
        fixes = sorted(by_clip[clip_id], key=lambda f: f.timestamp_ms)
        traces.append(DriveTrace(tuple(fixes), clip_id))
    return traces


# ``JSONEncoder``'s defaults, and with them its C encoder, but NaN and inf raise.
_JSONL_ENCODER = json.JSONEncoder(allow_nan=False)


def timeline_to_jsonl(timeline: AdvisoryTimeline) -> Iterator[str]:
    """One JSON object per advisory decision, in replay order; a non-finite value raises ValueError."""
    for decision in timeline.decisions:
        cp = decision.checkpoint
        yield _JSONL_ENCODER.encode({
            "arc_m": cp.arc_position,
            "lat": cp.position.lat,
            "lon": cp.position.lon,
            "speed_kmh": cp.speed,
            "heading_deg": cp.heading.degrees,
            "stopping_distance_m": decision.stopping_distance,
            "active": decision.active,
            "nearest_front_m": decision.nearest_front_distance,
            "nearest_front_sep_deg": decision.nearest_front_heading_sep,
        })
