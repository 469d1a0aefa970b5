"""Geodetic primitives: great-circle distance, bearings, and along-track interpolation.

All computations use a spherical earth of radius ``EARTH_RADIUS_M``. Latitudes and
longitudes are WGS84 decimal degrees; distances are meters; bearings are degrees
clockwise from true north.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, atan2, copysign, cos, degrees, radians, sin, sqrt

EARTH_RADIUS_M = 6_371_000.0

# Two points closer than this (in degrees, per component) have no defined bearing.
COINCIDENT_DEG = 1e-12

_COORDINATE_TYPES = frozenset((int, float))  # the exact types whose repr the map writers print as a JSON number


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 latitude/longitude pair.

    Latitude must lie in [-90, 90] and longitude in [-180, 180], each an exact int or float.
    Both are stored as given, except that longitude 180 is stored as -180 (one meridian) and -0.0 as 0.0.
    """

    lat: float
    lon: float

    # Written by hand to store each field once, through its slot setter (bound below): one point per CSV row.
    def __init__(self, lat: float, lon: float) -> None:
        if type(lat) not in _COORDINATE_TYPES or type(lon) not in _COORDINATE_TYPES:
            raise ValueError(f"latitude and longitude must be int or float, got {type(lat).__name__} {lat!r}, {type(lon).__name__} {lon!r}")
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude {lat} outside [-90, 90]")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude {lon} outside [-180, 180]")
        _set_lat(self, lat)
        _set_lon(self, lon + 0.0 if lon < 180.0 else -180.0)  # + 0.0 makes an int a float and -0.0 0.0; other floats keep their bits


_set_lat, _set_lon = GeoPoint.lat.__set__, GeoPoint.lon.__set__


@dataclass(frozen=True, slots=True)
class Heading:
    """A compass heading in degrees, clockwise from true north, normalized to [0, 360); NaN and ±inf raise ValueError."""

    degrees: float

    def __post_init__(self) -> None:
        d = self.degrees % 360.0
        if d != d:  # the modulo gives NaN for NaN and ±inf alike, so one comparison refuses all three
            raise ValueError(f"heading {self.degrees} is not finite")
        # A tiny negative angle rounds up to exactly 360 under the modulo.
        object.__setattr__(self, "degrees", 0.0 if d == 360.0 else d)


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters."""
    h = (
        sin(radians(b.lat - a.lat) * 0.5) ** 2
        + cos(radians(a.lat)) * cos(radians(b.lat)) * sin(radians(b.lon - a.lon) * 0.5) ** 2
    )
    # h can exceed 1 by rounding near antipodal pairs; clamp before asin.
    return 2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(h)))


def coincident(a: GeoPoint, b: GeoPoint) -> bool:
    """True when both coordinate components differ by less than ``COINCIDENT_DEG``."""
    return abs(a.lat - b.lat) < COINCIDENT_DEG and abs(a.lon - b.lon) < COINCIDENT_DEG


def initial_bearing(origin: GeoPoint, target: GeoPoint) -> Heading:
    """Initial great-circle bearing from ``origin`` toward ``target``.

    Raises ValueError for coincident points, where the bearing is undefined.
    """
    if coincident(origin, target):
        raise ValueError("undefined bearing: points are coincident")
    lat1 = radians(origin.lat)
    lat2 = radians(target.lat)
    dlon = radians(target.lon - origin.lon)
    x = sin(dlon) * cos(lat2)
    y = cos(lat1) * sin(lat2) - sin(lat1) * cos(lat2) * cos(dlon)
    return Heading(degrees(atan2(x, y)))


def angular_separation(a: Heading, b: Heading) -> float:
    """Minimal absolute angle between two headings, in [0, 180] degrees; both lie in [0, 360), and so does their difference."""
    d = abs(a.degrees - b.degrees)
    return min(d, 360.0 - d)


def interpolate_along(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    """Linear lat/lon interpolation between ``a`` and ``b``, the short way round:
    across ±180° when their longitudes lie more than 180 degrees apart.

    Adequate at the meter scale between consecutive GPS fixes; not a
    great-circle slerp. ``fraction`` must lie in [0, 1].
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    if fraction == 0.0:
        return a
    if fraction == 1.0:
        return b
    return GeoPoint(a.lat + (b.lat - a.lat) * fraction, lon_near(a.lon + lon_near(b.lon - a.lon) * fraction))


def lon_near(lon: float, ref: float = 0.0) -> float:
    """``lon`` moved 360 degrees toward ``ref`` when more than 180 from it, else as it is (by default, wrapped into [-180, 180])."""
    return lon - copysign(360.0, d) if abs(d := lon - ref) > 180.0 else lon
