"""Geodetic primitives: great-circle distance, bearings, and along-track interpolation.

All computations use a spherical earth of radius ``EARTH_RADIUS_M``. Latitudes and
longitudes are WGS84 decimal degrees; distances are meters; bearings are degrees
clockwise from true north.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, atan2, cos, degrees, radians, sin, sqrt

EARTH_RADIUS_M = 6_371_000.0

# Two points closer than this (in degrees, per component) have no defined bearing.
COINCIDENT_DEG = 1e-12


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 latitude/longitude pair.

    Latitude must lie in [-90, 90]; longitude must be finite and is normalized
    into [-180, 180) at construction.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        lon = ((self.lon + 180.0) % 360.0) - 180.0
        if lon != lon:  # NaN, which is also what the normalization makes of +-inf
            raise ValueError(f"longitude {self.lon} is not finite")
        object.__setattr__(self, "lon", lon)


@dataclass(frozen=True, slots=True)
class Heading:
    """A compass heading in degrees, clockwise from true north, normalized to [0, 360)."""

    degrees: float

    def __post_init__(self) -> None:
        d = self.degrees % 360.0
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
    """Minimal absolute angle between two headings, in [0, 180] degrees."""
    d = abs(a.degrees - b.degrees) % 360.0
    return min(d, 360.0 - d)


def interpolate_along(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    """Linear lat/lon interpolation between ``a`` and ``b``.

    Adequate at the meter scale between consecutive GPS fixes; not a
    great-circle slerp. ``fraction`` must lie in [0, 1].
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    if fraction == 0.0:
        return a
    if fraction == 1.0:
        return b
    return GeoPoint(
        a.lat + (b.lat - a.lat) * fraction,
        a.lon + (b.lon - a.lon) * fraction,
    )
