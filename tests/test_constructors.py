"""Oracle tests for the constructors of ``GeoPoint``, ``DetectionRecord`` and ``HotspotNode``.

``GeoPoint`` and ``HotspotNode`` are frozen and write out their ``__init__``, which
checks its arguments and then stores each field once through its slot. Each must
raise what the dataclass-generated ``__init__`` plus the ``__post_init__`` below
raises, and store the same values bit for bit. ``OldGeoPoint`` and ``OldHotspotNode``
are those definitions, kept here as the oracle; ``OldGeoPoint`` states the coordinate
rule: both types (exact int or float) and both ranges checked, and longitude stored as
given but for 180 (stored as -180) and -0.0 (stored as 0.0). ``DetectionRecord`` is a
plain slotted dataclass with a ``__post_init__`` check, so it has no written-out
constructor to compare.
"""

import copy
import dataclasses
import math
import pickle
import struct
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, strategies as st

from conftest import wrap_lon
from pedmap.geodesy import GeoPoint
from pedmap.ingest import DetectionRecord, HotspotNode


@dataclass(frozen=True, slots=True)
class OldGeoPoint:
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not {type(self.lat), type(self.lon)} <= {int, float}:
            raise ValueError(
                "latitude and longitude must be int or float, "
                f"got {type(self.lat).__name__} {self.lat!r}, {type(self.lon).__name__} {self.lon!r}"
            )
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")
        object.__setattr__(self, "lon", -180.0 if self.lon == 180 else float(self.lon) + 0.0)


# Not an independent oracle: ``DetectionRecord`` is itself the dataclass-generated
# constructor, so its cases check only that keyword and positional construction agree
# and that copies round-trip. ``TestDetectionRecord`` in ``test_ingest.py`` pins its rule.
OldDetectionRecord = DetectionRecord


@dataclass(frozen=True, slots=True)
class OldHotspotNode:
    position: GeoPoint
    count: int
    timestamp_ms: int
    clip_id: str

    def __post_init__(self) -> None:
        if not (type(self.count) is int and type(self.timestamp_ms) is int and isinstance(self.clip_id, str)):
            raise ValueError(
                "count and timestamp_ms must be integers and clip_id a string, "
                f"got {self.count!r}, {self.timestamp_ms!r}, {self.clip_id!r}"
            )
        if self.count < 1:
            raise ValueError("hotspot nodes require count >= 1")


def stored(obj) -> tuple:
    """Each field's type and value; floats by their IEEE bytes, so 0.0 and -0.0 differ and NaN matches itself."""
    values = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if type(value) is float:
            values.append((float, struct.pack("<d", value)))
        elif dataclasses.is_dataclass(value):
            values.append((type(value), stored(value)))
        else:
            values.append((type(value), value))
    return tuple(values)


def outcome(cls, *args, **kwargs) -> tuple:
    """What constructing ``cls`` does: the exception type and message it raises, or the values it stores."""
    try:
        return "stored", stored(cls(*args, **kwargs))
    except Exception as exc:
        return "raised", type(exc), str(exc)


_EDGES = [0.0, -0.0, 0, 5e-324, 90.0, -90.0, 90, 180.0, -180.0, 180, -180, 360.0, 540, 1.7976931348623157e308]
# Longitudes the old wrap ``((lon + 180) % 360) - 180`` rounded, and the two neighbours of +-180 inside and out.
_EDGES += [0.1, 12.3456789012345, 4.8e-228, 179.99999999999997, -180.00000000000003]
_EDGES += [math.nan, -math.nan, math.inf, -math.inf]
# Any float (NaN, +-inf and -0.0 included), int or bool, with the edges drawn often.
numbers = st.one_of(st.sampled_from(_EDGES), st.floats(), st.integers(), st.booleans())
positions = st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180))
clips = st.text(max_size=3)
any_clips = st.one_of(clips, st.integers(), st.none())

# (class, its oracle, any arguments, arguments it accepts)
CASES = [
    (
        GeoPoint,
        OldGeoPoint,
        st.tuples(numbers, numbers),
        st.tuples(
            st.one_of(st.floats(-90, 90), st.integers(-90, 90)),
            st.one_of(st.floats(-180, 180), st.integers(-180, 180)),
        ),
    ),
    (
        DetectionRecord,
        OldDetectionRecord,
        st.tuples(numbers, positions, numbers, any_clips),
        st.tuples(st.integers(), positions, st.integers(min_value=0), clips),
    ),
    (
        HotspotNode,
        OldHotspotNode,
        st.tuples(positions, numbers, numbers, any_clips),
        st.tuples(positions, st.integers(min_value=1), st.integers(), clips),
    ),
]
cases = pytest.mark.parametrize("cls, old, any_args, valid_args", CASES, ids=[case[0].__name__ for case in CASES])


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@cases
@given(data=st.data())
def test_raises_or_stores_what_the_old_constructor_did(cls, old, any_args, valid_args, data):
    args = data.draw(any_args)
    expected = outcome(old, *args)
    assert outcome(cls, *args) == expected
    assert outcome(cls, **dict(zip(field_names(cls), args))) == expected


@cases
@given(data=st.data())
def test_replace_copy_pickle_freeze_and_hash(cls, old, any_args, valid_args, data):
    args = data.draw(valid_args)
    obj, old_obj = cls(*args), old(*args)
    assert stored(obj) == stored(old_obj)
    # ``replace`` goes through the constructor again, checks and normalization included.
    name = data.draw(st.sampled_from(field_names(cls)))
    change = {name: data.draw(any_args)[field_names(cls).index(name)]}
    assert outcome(dataclasses.replace, obj, **change) == outcome(dataclasses.replace, old_obj, **change)
    frozen = cls is not DetectionRecord
    for clone in (dataclasses.replace(obj), copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj
        if frozen:
            assert hash(clone) == hash(obj)
    if not frozen:
        # Not frozen, so not hashable: a record is read once and never shared.
        with pytest.raises(TypeError):
            hash(obj)
        return
    for name in field_names(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    again = cls(*args)
    assert again == obj
    assert hash(again) == hash(obj) == hash(old_obj)


class TestGeoPointEdges:
    def test_lon_180_and_minus_180_are_one_point(self):
        east, west = GeoPoint(12.5, 180.0), GeoPoint(12.5, -180.0)
        assert east == west
        assert hash(east) == hash(west)
        assert dataclasses.replace(west, lon=180) == west

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_replace_rejects_non_finite_lon(self, lon):
        with pytest.raises(ValueError, match=rf"^longitude {lon} outside \[-180, 180\]$"):
            dataclasses.replace(GeoPoint(0.0, 0.0), lon=lon)

    @given(st.one_of(st.sampled_from(_EDGES), st.floats(-180, 180), st.integers(-180, 180)).filter(lambda lon: -180 <= lon <= 180))
    def test_only_longitudes_the_old_wrap_rounded_change(self, lon):
        # Wherever the wrap kept the value (as ``lon + 0.0``: an int as a float, -0.0
        # as 0.0), the stored longitude has the wrap's bits.
        old, new = wrap_lon(lon), GeoPoint(0.0, lon).lon
        if struct.pack("<d", old) == struct.pack("<d", lon + 0.0):
            assert struct.pack("<d", new) == struct.pack("<d", old)

    def test_keyword_construction(self):
        assert GeoPoint(lon=-1.0, lat=-0.0) == GeoPoint(-0.0, -1.0)
        with pytest.raises(TypeError):
            GeoPoint(1.0)
        with pytest.raises(TypeError):
            GeoPoint(1.0, 2.0, 3.0)
