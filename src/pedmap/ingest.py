"""Drive-log ingestion: CSV parsing, 1-second interval aggregation, and map assembly.

A training drive log is a CSV of per-frame pedestrian detections tagged with the
ego vehicle's GPS fix, read by ``_read_rows``, the one CSV reader (test-drive
CSVs included). Records are grouped per clip into fixed wall-clock 1-second
bins, in one grouped pass over the sorted records; each bin with at least one
detected pedestrian becomes a hotspot node at the median vehicle position. Maps
from separate drives or vehicles are merged by plain node-list concatenation:
repeated sightings of the same spot are the signal, so nothing is deduplicated.
A map file holds the bytes of ``json.dump(map_to_dict(m), indent=2)``, written
node by node.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter
from typing import Iterable, Iterator, Literal, Optional, Sequence

from .geodesy import GeoPoint
from .spatial_index import DEFAULT_LEAF_SIZE, BallTree

MAP_SCHEMA_VERSION = 1

TRAINING_HEADER = ["timestamp", "latitude", "longitude", "pedestrian_count", "clip_id"]

CountMode = Literal["max", "sum"]


class ParseError(ValueError):
    """A malformed input file; carries the 1-based line number where parsing failed."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


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

    clip_id: str
    start_ms: int  # the bin is [start_ms, start_ms + 1000)
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
    _index: Optional[BallTree] = field(default=None, init=False, repr=False, compare=False)

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


def _read_rows(source: Iterable[str], header: list[str]) -> Iterator[tuple[int, int, GeoPoint, list[str]]]:
    """Yield ``(line, timestamp_ms, position, row)`` per non-blank row of CSV text
    (a file opened with ``newline=""``, or lines) whose header is exactly ``header``,
    starting with ``timestamp,latitude,longitude``. Raises ParseError naming the bad line."""
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


# Records are ordered by clip, then time, before they are binned.
_record_order = attrgetter("clip_id", "timestamp_ms")


def parse_detection_log(source: Iterable[str]) -> list[DetectionRecord]:
    """Parse training CSV text into records sorted by (clip_id, timestamp).

    The header must be exactly ``timestamp,latitude,longitude,pedestrian_count,clip_id``.
    Raises ParseError (with line number) on any malformed or out-of-range row.
    """
    records = []
    for line, ts, position, row in _read_rows(source, TRAINING_HEADER):
        count = _parse_int(row[3], "pedestrian_count", line)
        if count < 0:
            raise ParseError(f"negative pedestrian_count {count}", line)
        records.append(DetectionRecord(ts, position, count, row[4]))
    records.sort(key=_record_order)
    return records


def _bin_key(r: DetectionRecord) -> tuple[str, int]:
    """A record's 1-second bin: its clip and the wall-clock epoch second it falls in."""
    return r.clip_id, r.timestamp_ms // 1000


def split_intervals(records: list[DetectionRecord]) -> list[Interval]:
    """Split records into per-clip 1-second intervals aligned to wall-clock seconds.

    Expects records sorted by (clip_id, timestamp); every record lands in exactly
    one interval, and intervals never span clips.
    """
    intervals = []
    for (clip, sec), group in groupby(records, _bin_key):
        fixes, counts = zip(*((r.position, r.pedestrian_count) for r in group))
        intervals.append(Interval(clip, sec * 1000, fixes, counts))
    return intervals


def _count_rule(count_mode: CountMode):
    """How a bin's per-fix counts combine: ``max`` or ``sum``."""
    if count_mode not in ("max", "sum"):
        raise ValueError(f"count_mode must be 'max' or 'sum', got {count_mode!r}")
    return max if count_mode == "max" else sum


def _median(values: list[float]) -> float:
    """``statistics.median``'s arithmetic: the middle value, or the mean of the two middle ones."""
    values.sort()
    mid, odd = divmod(len(values), 2)
    return values[mid] if odd else (values[mid - 1] + values[mid]) / 2


def _hotspot(fixes: Sequence[GeoPoint], counts: Sequence[int], start_ms: int, clip_id: str, total) -> Optional[HotspotNode]:
    """One bin's node: ``total`` (max or sum) of its counts at the median of its fixes, or None at 0."""
    count = total(counts)
    if count == 0:
        return None
    position = GeoPoint(_median([p.lat for p in fixes]), _median([p.lon for p in fixes]))
    return HotspotNode(position, count, start_ms, clip_id)


def aggregate_interval(interval: Interval, count_mode: CountMode = "max") -> Optional[HotspotNode]:
    """Collapse an interval to a hotspot node, or None when no pedestrian was seen.

    The position is the component-wise median of the interval's fixes (an even
    number of fixes averages the two middle values per component). The count is
    the max of the per-fix counts by default; ``sum`` adds them instead, which
    over-counts pedestrians that stay in view across frames.
    """
    return _hotspot(interval.fixes, interval.counts, interval.start_ms, interval.clip_id, _count_rule(count_mode))


def build_map(records: list[DetectionRecord], count_mode: CountMode = "max") -> HotspotMap:
    """Aggregate records into a hotspot map, ordered by clip then interval start.

    One grouped pass over the sorted records: each 1-second bin becomes a node
    as ``aggregate_interval`` would make it, with no ``Interval`` in between.
    """
    total = _count_rule(count_mode)
    nodes = []
    for (clip, sec), group in groupby(sorted(records, key=_record_order), _bin_key):
        group = list(group)
        node = _hotspot([r.position for r in group], [r.pedestrian_count for r in group], sec * 1000, clip, total)
        if node is not None:
            nodes.append(node)
    return HotspotMap(nodes)


def merge_maps(*maps: HotspotMap) -> HotspotMap:
    """Multiset union of the maps' nodes, in argument order; the result's index is rebuilt lazily."""
    return HotspotMap(list(chain.from_iterable(m.nodes for m in maps)))


# --- serialization ---------------------------------------------------------


_NODE_KEYS = ("lat", "lon", "count", "timestamp_ms", "clip_id")


def _node_values(n: HotspotNode) -> tuple:
    """A node's values in ``_NODE_KEYS`` order."""
    return n.position.lat, n.position.lon, n.count, n.timestamp_ms, n.clip_id


def map_to_dict(hotspot_map: HotspotMap) -> dict:
    return {
        "schema_version": MAP_SCHEMA_VERSION,
        "nodes": [dict(zip(_NODE_KEYS, _node_values(n))) for n in hotspot_map.nodes],
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


# ``json.dump(map_to_dict(m), f, indent=2)`` around its node list, split at the
# empty list, and one node as that call lays it out, after its list separator.
_MAP_HEAD, _MAP_TAIL = json.dumps(map_to_dict(HotspotMap()), indent=2).split("[]")
_NODE_FORMAT = "{}    {{\n" + ",\n".join(f'      "{k}": {{}}' for k in _NODE_KEYS) + "\n    }}"


def _node_texts(nodes: list[HotspotNode]) -> Iterator[str]:
    sep, node_format = "\n", _NODE_FORMAT.format
    for n in nodes:
        lat, lon, count, timestamp_ms, clip_id = _node_values(n)
        if not (isfinite(lat) and isfinite(lon)):
            raise ValueError("Out of range float values are not JSON compliant")
        yield node_format(sep, repr(lat), repr(lon), repr(count), repr(timestamp_ms), encode_basestring_ascii(clip_id))
        sep = ",\n"


def save_map(hotspot_map: HotspotMap, path: str) -> None:
    """Write the bytes of ``json.dump(map_to_dict(m), f, indent=2, allow_nan=False)``
    plus a newline, node by node, without building the node dicts or the whole text."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_MAP_HEAD + "[")
        if hotspot_map.nodes:
            f.writelines(_node_texts(hotspot_map.nodes))
            f.write("\n  ")
        f.write("]" + _MAP_TAIL + "\n")


def load_map(path: str) -> HotspotMap:
    with open(path, "r", encoding="utf-8") as f:
        return map_from_dict(json.load(f))


def map_to_geojson(hotspot_map: HotspotMap) -> dict:
    """GeoJSON FeatureCollection of Point features, one per ``map_to_dict`` node:
    its ``lon`` and ``lat`` become the [lon, lat] coordinates, and its other keys the properties."""
    features = []
    for properties in map_to_dict(hotspot_map)["nodes"]:
        coordinates = [properties.pop("lon"), properties.pop("lat")]
        features.append({"type": "Feature", "geometry": {"type": "Point", "coordinates": coordinates}, "properties": properties})
    return {"type": "FeatureCollection", "features": features}


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
