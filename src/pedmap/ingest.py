"""Drive-log ingestion: CSV parsing, 1-second interval aggregation, and map assembly.

A training drive log is a CSV of per-frame pedestrian detections tagged with the
ego vehicle's GPS fix, read by ``_read_rows``, the one CSV reader (test-drive
CSVs included). Records are grouped per clip into fixed wall-clock 1-second
bins; each bin with at least one detected pedestrian becomes a hotspot node at
the median vehicle position. Maps from separate drives or vehicles are
merged by plain node-list concatenation: repeated sightings of the same spot are
the signal, so nothing is deduplicated.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from io import TextIOWrapper
from itertools import chain
from math import isfinite
from typing import IO, Iterable, Iterator, Literal, Optional, Union

from .geodesy import GeoPoint
from .spatial_index import DEFAULT_LEAF_SIZE, BallTree

MAP_SCHEMA_VERSION = 1

TRAINING_HEADER = ["timestamp", "latitude", "longitude", "pedestrian_count", "clip_id"]

CountMode = Literal["max", "sum"]


class ParseError(ValueError):
    """A malformed input file; carries the 1-based line number where parsing failed."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True, slots=True)
class DetectionRecord:
    """One annotated frame: where the vehicle was and how many pedestrians it saw."""

    timestamp_ms: int
    position: GeoPoint
    pedestrian_count: int
    clip_id: str

    def __post_init__(self) -> None:
        if self.pedestrian_count < 0:
            raise ValueError("pedestrian_count must be >= 0")


@dataclass(frozen=True, slots=True)
class Interval:
    """All fixes of one clip falling inside a single 1-second wall-clock bin."""

    index: int  # epoch second (start_ms // 1000)
    clip_id: str
    start_ms: int
    end_ms: int
    fixes: tuple[GeoPoint, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class HotspotNode:
    """Median vehicle position of an interval plus the pedestrian count seen there."""

    position: GeoPoint
    count: int
    timestamp_ms: int
    clip_id: str

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("hotspot nodes require count >= 1")


@dataclass
class HotspotMap:
    """The trained artifact: hotspot nodes plus a lazily built ball-tree index.

    Treat a completed map as immutable; concurrent readers may share it freely.
    """

    nodes: list[HotspotNode] = field(default_factory=list)
    _index: Optional[BallTree] = field(default=None, repr=False, compare=False)

    @property
    def index(self) -> BallTree:
        if self._index is None:
            self.build_spatial_index()
        return self._index

    def build_spatial_index(self, leaf_size: int = DEFAULT_LEAF_SIZE) -> BallTree:
        self._index = BallTree([n.position for n in self.nodes], leaf_size=leaf_size)
        return self._index

    def __len__(self) -> int:
        return len(self.nodes)


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-integer {what} {text!r}", line) from None


def _read_rows(
    source: Union[IO[bytes], IO[str], Iterable[str]], header: list[str]
) -> Iterator[tuple[int, int, GeoPoint, list[str]]]:
    """Yield ``(line, timestamp_ms, position, row)`` per non-blank row of a CSV (bytes
    are read as UTF-8) whose header is exactly ``header``, starting with
    ``timestamp,latitude,longitude``. Raises ParseError naming the bad line."""
    if hasattr(source, "read") and isinstance(source.read(0), bytes):  # type: ignore[union-attr]
        source = TextIOWrapper(source, encoding="utf-8", newline="")  # type: ignore[arg-type]
    reader = csv.reader(source)
    width = len(header)
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError("missing header row", 1)
        if first != header:
            raise ParseError(f"bad header {first!r}, expected {header!r}", 1)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line)
            ts = _parse_int(row[0], "timestamp", line)
            try:
                lat, lon = float(row[1]), float(row[2])
            except ValueError:
                raise ParseError(f"non-numeric coordinate {row[1]!r},{row[2]!r}", line) from None
            if not -90.0 <= lat <= 90.0:
                raise ParseError(f"latitude {lat} outside [-90, 90]", line)
            if not -180.0 <= lon <= 180.0:
                raise ParseError(f"longitude {lon} outside [-180, 180]", line)
            yield line, ts, GeoPoint(lat, lon), row
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def parse_detection_log(source: Union[IO[bytes], IO[str], Iterable[str]]) -> list[DetectionRecord]:
    """Parse a training CSV into records sorted by (clip_id, timestamp).

    The header must be exactly ``timestamp,latitude,longitude,pedestrian_count,clip_id``.
    Raises ParseError (with line number) on any malformed or out-of-range row.
    """
    records = []
    for line, ts, position, row in _read_rows(source, TRAINING_HEADER):
        count = _parse_int(row[3], "pedestrian_count", line)
        if count < 0:
            raise ParseError(f"negative pedestrian_count {count}", line)
        records.append(DetectionRecord(ts, position, count, row[4]))
    records.sort(key=lambda r: (r.clip_id, r.timestamp_ms))
    return records


def split_intervals(records: list[DetectionRecord]) -> list[Interval]:
    """Split records into per-clip 1-second intervals aligned to wall-clock seconds.

    Expects records sorted by (clip_id, timestamp); every record lands in exactly
    one interval, and intervals never span clips.
    """
    intervals: list[Interval] = []
    fixes: list[GeoPoint] = []
    counts: list[int] = []
    current: Optional[tuple[str, int]] = None  # (clip_id, epoch second)

    def flush() -> None:
        if current is not None:
            clip, sec = current
            intervals.append(
                Interval(sec, clip, sec * 1000, sec * 1000 + 1000, tuple(fixes), tuple(counts))
            )

    for rec in records:
        key = (rec.clip_id, rec.timestamp_ms // 1000)
        if key != current:
            flush()
            current = key
            fixes = []
            counts = []
        fixes.append(rec.position)
        counts.append(rec.pedestrian_count)
    flush()
    return intervals


def aggregate_interval(interval: Interval, count_mode: CountMode = "max") -> Optional[HotspotNode]:
    """Collapse an interval to a hotspot node, or None when no pedestrian was seen.

    The position is the component-wise median of the interval's fixes (an even
    number of fixes averages the two middle values per component). The count is
    the max of the per-fix counts by default; ``sum`` adds them instead, which
    over-counts pedestrians that stay in view across frames.
    """
    if count_mode not in ("max", "sum"):
        raise ValueError(f"count_mode must be 'max' or 'sum', got {count_mode!r}")
    count = max(interval.counts) if count_mode == "max" else sum(interval.counts)
    if count == 0:
        return None
    position = GeoPoint(
        statistics.median(p.lat for p in interval.fixes),
        statistics.median(p.lon for p in interval.fixes),
    )
    return HotspotNode(position, count, interval.start_ms, interval.clip_id)


def build_map(records: list[DetectionRecord], count_mode: CountMode = "max") -> HotspotMap:
    """Aggregate records into a hotspot map, ordered by clip then interval start."""
    records = sorted(records, key=lambda r: (r.clip_id, r.timestamp_ms))
    nodes = []
    for interval in split_intervals(records):
        node = aggregate_interval(interval, count_mode)
        if node is not None:
            nodes.append(node)
    return HotspotMap(nodes)


def merge_maps(*maps: HotspotMap) -> HotspotMap:
    """Multiset union of the maps' nodes, in argument order; the result's index is rebuilt lazily."""
    return HotspotMap(list(chain.from_iterable(m.nodes for m in maps)))


# --- serialization ---------------------------------------------------------


def map_to_dict(hotspot_map: HotspotMap) -> dict:
    return {
        "schema_version": MAP_SCHEMA_VERSION,
        "nodes": [
            {
                "lat": n.position.lat,
                "lon": n.position.lon,
                "count": n.count,
                "timestamp_ms": n.timestamp_ms,
                "clip_id": n.clip_id,
            }
            for n in hotspot_map.nodes
        ],
    }


def _node(kind: str, i: int, fields: object) -> HotspotNode:
    """A node from a decoded JSON object; errors name it as ``"<kind> <i>"``."""
    try:
        if not isinstance(fields, dict):
            raise ValueError("expected an object")
        lat, lon = fields.get("lat"), fields.get("lon")
        count, timestamp_ms, clip_id = fields.get("count"), fields.get("timestamp_ms"), fields.get("clip_id")
        if not (type(lat) in (int, float) and type(lon) in (int, float) and isfinite(lat) and isfinite(lon)):
            raise ValueError(f"lat and lon must be finite numbers, got {lat!r}, {lon!r}")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude {lon} outside [-180, 180]")
        if not (type(count) is int and type(timestamp_ms) is int and isinstance(clip_id, str)):
            raise ValueError(f"count and timestamp_ms must be integers and clip_id a string, got {count!r}, {timestamp_ms!r}, {clip_id!r}")
        return HotspotNode(GeoPoint(lat, lon), count, timestamp_ms, clip_id)
    except (ValueError, OverflowError) as exc:  # isfinite overflows on integers beyond float range
        raise ValueError(f"{kind} {i}: {exc}") from None


def map_from_dict(data: object) -> HotspotMap:
    """Rebuild a map from its decoded JSON form; raises ValueError on any schema breach."""
    if not isinstance(data, dict):
        raise ValueError("a map must be a JSON object")
    version = data.get("schema_version")
    if type(version) is not int or version != MAP_SCHEMA_VERSION:
        raise ValueError(f"unsupported map schema_version {version!r}")
    nodes = data.get("nodes")
    if not isinstance(nodes, list):
        raise ValueError("map nodes must be a list")
    return HotspotMap([_node("node", i, n) for i, n in enumerate(nodes)])


def save_map(hotspot_map: HotspotMap, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(map_to_dict(hotspot_map), f, indent=2, allow_nan=False)
        f.write("\n")


def load_map(path: str) -> HotspotMap:
    with open(path, "r", encoding="utf-8") as f:
        return map_from_dict(json.load(f))


def map_to_geojson(hotspot_map: HotspotMap) -> dict:
    """GeoJSON FeatureCollection of Point features; coordinates are [lon, lat]."""
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [n.position.lon, n.position.lat]},
                "properties": {
                    "count": n.count,
                    "timestamp_ms": n.timestamp_ms,
                    "clip_id": n.clip_id,
                },
            }
            for n in hotspot_map.nodes
        ],
    }


def map_from_geojson(data: object) -> HotspotMap:
    """Rebuild a map from its GeoJSON export (the inverse of ``map_to_geojson``)."""
    if not (isinstance(data, dict) and data.get("type") == "FeatureCollection" and isinstance(data.get("features"), list)):
        raise ValueError("expected a GeoJSON FeatureCollection")
    nodes = []
    for i, feature in enumerate(data["features"]):
        geometry = feature.get("geometry") if isinstance(feature, dict) else None
        coords = geometry.get("coordinates") if isinstance(geometry, dict) else None
        if not (isinstance(coords, list) and len(coords) == 2 and isinstance(feature.get("properties"), dict)):
            raise ValueError(f"feature {i}: expected a Point with [lon, lat] coordinates and properties")
        nodes.append(_node("feature", i, {**feature["properties"], "lon": coords[0], "lat": coords[1]}))
    return HotspotMap(nodes)
