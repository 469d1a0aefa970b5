"""Drive-log ingestion: CSV parsing, 1-second binning and aggregation, and map assembly.

A training drive log is a CSV of per-frame pedestrian detections tagged with the
ego vehicle's GPS fix, read by ``_read_rows``, the one CSV reader (test-drive
CSVs included). ``split_intervals`` sorts the records by clip and time and
groups them per clip into fixed wall-clock 1-second bins; ``build_map`` turns
each bin with at least one detected pedestrian into a hotspot node at the
median vehicle position. Maps from separate drives or vehicles are merged by
plain node-list concatenation: repeated sightings of the same spot are the
signal, so nothing is deduplicated.
A map file holds the bytes of ``json.dump(map_to_dict(m), indent=2)``, written
node by node; ``pedmap export``'s GeoJSON is written the same way, by the same writer.
``parse_detection_log``, ``build_map``, ``load_map`` and ``HotspotMap.build_spatial_index`` run with the cyclic
garbage collector paused: every object they make is acyclic, so reference counting alone frees whatever they drop.
"""

from __future__ import annotations

import csv
import gc
import json
from dataclasses import dataclass, field, fields
from functools import cached_property, wraps
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter
from typing import Iterable, Iterator, Literal

from .geodesy import GeoPoint, lon_near
from .spatial_index import BallTree

MAP_SCHEMA_VERSION = 1

TRAINING_HEADER = ["timestamp", "latitude", "longitude", "pedestrian_count", "clip_id"]

CountMode = Literal["max", "sum"]


def _without_gc(fn):
    """``fn`` run with the cyclic garbage collector paused, and the collector then left on or off as it was found."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class ParseError(ValueError):
    """A malformed input file; carries the 1-based line number where parsing failed."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(message, line)  # ``args`` match the signature, so pickle and copy can rebuild it

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


@dataclass(slots=True)
class DetectionRecord:
    """One annotated frame: where the vehicle was and how many pedestrians it saw.
    Not frozen (read once, never shared), so a field assigned later is not checked again."""

    timestamp_ms: int
    position: GeoPoint
    pedestrian_count: int
    clip_id: str

    def __post_init__(self) -> None:
        if type(self.position) is not GeoPoint:
            raise ValueError(f"position must be a GeoPoint, got {self.position!r}")
        if not (type(self.timestamp_ms) is int and type(self.pedestrian_count) is int and isinstance(self.clip_id, str)):
            raise ValueError(f"timestamp_ms and pedestrian_count must be integers and clip_id a string, got {self.timestamp_ms!r}, {self.pedestrian_count!r}, {self.clip_id!r}")
        if self.pedestrian_count < 0:
            raise ValueError("pedestrian_count must be >= 0")


@dataclass(frozen=True, slots=True)
class HotspotNode:
    """Median vehicle position of an interval plus the pedestrian count seen there."""

    position: GeoPoint
    count: int
    timestamp_ms: int
    clip_id: str

    def __init__(self, position: GeoPoint, count: int, timestamp_ms: int, clip_id: str) -> None:
        if type(position) is not GeoPoint:
            raise ValueError(f"position must be a GeoPoint, got {position!r}")
        if not (type(count) is int and type(timestamp_ms) is int and isinstance(clip_id, str)):  # or save_map writes bad JSON
            raise ValueError(f"count and timestamp_ms must be integers and clip_id a string, got {count!r}, {timestamp_ms!r}, {clip_id!r}")
        if count < 1:
            raise ValueError("hotspot nodes require count >= 1")
        _set_node_position(self, position)
        _set_node_count(self, count)
        _set_node_ts(self, timestamp_ms)
        _set_node_clip(self, clip_id)


_set_node_position, _set_node_count, _set_node_ts, _set_node_clip = (getattr(HotspotNode, f.name).__set__ for f in fields(HotspotNode))


@dataclass
class HotspotMap:
    """The trained artifact: hotspot nodes, and their ball tree ``index``, built on first use and kept (not a field).
    Treat a completed map as immutable; concurrent readers may share it freely."""

    nodes: list[HotspotNode] = field(default_factory=list)

    @cached_property
    def index(self) -> BallTree:
        return self.build_spatial_index()

    @_without_gc
    def build_spatial_index(self) -> BallTree:  # bench/pipeline.py times the index build by wrapping this method
        return BallTree([n.position for n in self.nodes])

    def __len__(self) -> int:
        return len(self.nodes)


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        if text.isascii() and "_" not in text:  # ``int`` alone also reads PEP 515 underscores and non-ASCII digits
            return int(text)
    except ValueError:
        pass
    raise ParseError(f"non-integer {what} {text!r}", line)


def _read_rows(source: Iterable[str], header: list[str]) -> Iterator[tuple[int, int, GeoPoint, list[str]]]:
    """Yield ``(line, timestamp_ms, position, row)`` per non-blank row of CSV text (a file opened
    with ``newline=""``, or lines) whose header is exactly ``header``, starting with ``timestamp,latitude,longitude``.
    A ParseError names a bad row's last line, or for malformed CSV (an unclosed quote) the line it starts on."""
    reader = csv.reader(source, strict=True)
    width, line = len(header), 0  # ``line``: the last line of the last row read
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError("missing header row", 1)
        if first != header:
            raise ParseError(f"bad header {first!r}, expected {header!r}", 1)
        line = reader.line_num
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line)
            ts = _parse_int(row[0], "timestamp", line)
            try:
                if not (coords := row[1] + row[2]).isascii() or "_" in coords:  # as in ``_parse_int``, for ``float``
                    raise ValueError
                lat, lon = float(row[1]), float(row[2])
            except ValueError:
                raise ParseError(f"non-numeric coordinate {row[1]!r},{row[2]!r}", line) from None
            try:
                position = GeoPoint(lat, lon)
            except ValueError as exc:
                raise ParseError(str(exc), line) from None
            yield line, ts, position, row
    except csv.Error as exc:
        raise ParseError(str(exc), line + 1) from None


@_without_gc
def parse_detection_log(source: Iterable[str]) -> list[DetectionRecord]:
    """Parse training CSV text into records, in file order (``build_map`` orders them).

    The header must be exactly ``timestamp,latitude,longitude,pedestrian_count,clip_id``.
    Raises ParseError (with line number) on any malformed or out-of-range row.
    """
    records = []
    for line, ts, position, row in _read_rows(source, TRAINING_HEADER):
        count = _parse_int(row[3], "pedestrian_count", line)
        if count < 0:
            raise ParseError(f"negative pedestrian_count {count}", line)
        records.append(DetectionRecord(ts, position, count, row[4]))
    return records


def split_intervals(records: list[DetectionRecord]) -> list[list[DetectionRecord]]:
    """Split records into per-clip 1-second bins aligned to wall-clock seconds.

    Each element is one bin's records in time order, ties in input order, and the bins
    come in clip-then-time order, whatever order the records arrive in. Every record
    lands in exactly one bin, and a bin never spans two clips or two seconds.
    """
    # Two stable sorts give one sort on (clip_id, timestamp_ms), ties included, with no key tuple per record.
    ordered = sorted(records, key=attrgetter("timestamp_ms"))
    ordered.sort(key=attrgetter("clip_id"))
    return [list(group) for _, group in groupby(ordered, lambda r: (r.clip_id, r.timestamp_ms // 1000))]


def _median(values: list[float]) -> float:
    """``statistics.median``'s arithmetic on sorted values: the middle one, or the mean of the two middle ones."""
    mid, odd = divmod(len(values), 2)
    return values[mid] if odd else (values[mid - 1] + values[mid]) / 2


@_without_gc
def build_map(records: list[DetectionRecord], count_mode: CountMode = "max") -> HotspotMap:
    """Aggregate records into a hotspot map, one node per ``split_intervals`` bin
    in which a pedestrian was seen, ordered by clip then bin start.

    A node sits at the component-wise median of its bin's fixes (an even number of fixes averages the two middle
    values per component), zero-count fixes included, each longitude taken on the side of ±180° nearest the bin's
    first fix and the median wrapped back; a counted bin that still spans 180 degrees or more raises ValueError.
    Its count is the max of the per-fix counts by default; ``sum`` adds them instead,
    which over-counts pedestrians that stay in view across frames.
    """
    if count_mode not in ("max", "sum"):
        raise ValueError(f"count_mode must be 'max' or 'sum', got {count_mode!r}")
    total = max if count_mode == "max" else sum
    nodes = []
    for group in split_intervals(records):
        count = total([r.pedestrian_count for r in group])
        if count:
            first = group[0]
            start_ms = first.timestamp_ms // 1000 * 1000
            if len(group) == 1:  # a one-fix bin's median is its fix: the same stored point
                position = first.position
            else:
                lons = sorted([lon_near(r.position.lon, first.position.lon) for r in group])
                if lons[-1] - lons[0] >= 180.0:  # no short way round: its median could land anywhere
                    raise ValueError(f"longitudes >= 180 degrees apart in clip {first.clip_id!r} at {start_ms} ms")
                position = GeoPoint(_median(sorted([r.position.lat for r in group])), lon_near(_median(lons)))
            nodes.append(HotspotNode(position, count, start_ms, first.clip_id))
    return HotspotMap(nodes)


def merge_maps(*maps: HotspotMap) -> HotspotMap:
    """Multiset union of the maps' nodes, in argument order; the result's own index is rebuilt lazily, on first use."""
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
        return HotspotNode(GeoPoint(lat, lon), count, timestamp_ms, clip_id)  # the point first: its error is reported first
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


# One node as ``json.dump(doc, f, indent=2)`` lays it out in a map's, or a GeoJSON document's, list one level deep:
# its list separator, then its values in ``_NODE_KEYS`` order. A feature's coordinates are [lon, lat], its properties the rest.
_NODE_FORMAT = "{0}    {{\n" + ",\n".join(f'      "{k}": {{{i}}}' for i, k in enumerate(_NODE_KEYS, 1)) + "\n    }}"
_FEATURE_FORMAT = (
    '{0}    {{\n      "type": "Feature",\n      "geometry": {{\n        "type": "Point",\n        "coordinates": [\n'
    '          {2},\n          {1}\n        ]\n      }},\n      "properties": {{\n'
    + ",\n".join(f'        "{k}": {{{i}}}' for i, k in enumerate(_NODE_KEYS[2:], 3)) + "\n      }}\n    }}"
)


def _document(nodes: list[HotspotNode], head: str, node_format: str, tail: str) -> Iterator[str]:
    """What ``json.dump(doc, f, indent=2, allow_nan=False)`` writes plus a newline, piece by piece, for the document
    ``head``, list of ``nodes`` (each laid out by ``node_format``), ``tail``, without building its dicts or its whole text."""
    sep, node_format = head + "[\n", node_format.format
    for n in nodes:
        lat, lon, count, timestamp_ms, clip_id = _node_values(n)
        yield node_format(sep, repr(lat), repr(lon), repr(count), repr(timestamp_ms), encode_basestring_ascii(clip_id))
        sep = ",\n"
    yield ("\n  ]" if nodes else head + "[]") + tail + "\n"


def save_map(hotspot_map: HotspotMap, path: str) -> None:
    """Write the bytes of ``json.dump(map_to_dict(m), f, indent=2, allow_nan=False)`` plus a newline, node by node."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_document(hotspot_map.nodes, f'{{\n  "schema_version": {MAP_SCHEMA_VERSION},\n  "nodes": ', _NODE_FORMAT, "\n}"))


@_without_gc
def load_map(path: str) -> HotspotMap:
    with open(path, "r", encoding="utf-8") as f:
        return map_from_dict(json.load(f))


def geojson_text(hotspot_map: HotspotMap) -> str:
    """The map as a GeoJSON FeatureCollection with one Point feature per node, laid out as ``save_map`` lays out a map."""
    return "".join(_document(hotspot_map.nodes, '{\n  "type": "FeatureCollection",\n  "features": ', _FEATURE_FORMAT, "\n}"))


def map_from_geojson(data: object) -> HotspotMap:
    """Rebuild a map from its GeoJSON export (the inverse of ``pedmap export``)."""
    if not (isinstance(data, dict) and data.get("type") == "FeatureCollection" and isinstance(data.get("features"), list)):
        raise ValueError("expected a GeoJSON FeatureCollection")
    nodes = []
    for i, feature in enumerate(data["features"]):
        geometry = feature.get("geometry") if isinstance(feature, dict) else None
        coords = geometry.get("coordinates") if isinstance(geometry, dict) and geometry.get("type") == "Point" else None
        if not (isinstance(coords, list) and len(coords) == 2 and isinstance(feature.get("properties"), dict)):
            raise ValueError(f"feature {i}: expected a Point with [lon, lat] coordinates and properties")
        nodes.append(_node("feature", i, {**feature["properties"], "lon": coords[0], "lat": coords[1]}))
    return HotspotMap(nodes)
