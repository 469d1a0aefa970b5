import copy
import gc
import io
import json
import math
import os
import pickle
import random
import statistics
import struct
import subprocess
import sys
import tempfile
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pedmap import ingest
from pedmap.geodesy import GeoPoint
from pedmap.ingest import (
    TRAINING_HEADER,
    DetectionRecord,
    HotspotMap,
    HotspotNode,
    ParseError,
    _read_rows,
    build_map,
    geojson_text,
    load_map,
    map_from_dict,
    map_from_geojson,
    map_to_dict,
    merge_maps,
    parse_detection_log,
    save_map,
    split_intervals,
)
from pedmap.spatial_index import BallTree

HEADER = "timestamp,latitude,longitude,pedestrian_count,clip_id\n"


def rec(ts, lat, lon, count, clip="clipA"):
    return DetectionRecord(ts, GeoPoint(lat, lon), count, clip)


def one_bin(coords, counts, ts=1000, clip="clipA"):
    """Records of one 1-second bin: one fix per ``(lat, lon)`` with its count, a millisecond apart."""
    return [rec(ts + i, lat, lon, n, clip) for i, ((lat, lon), n) in enumerate(zip(coords, counts))]


def reference_nodes(records, mode):
    """``build_map``'s nodes, worked out without its helpers: one stable sort on the
    ``(clip_id, timestamp_ms)`` key tuple, bins keyed ``(clip_id, second)`` in a dict,
    ``statistics.median`` per component, ``max`` or ``sum``, and zero-count bins dropped.
    A longitude more than 180 degrees east (west) of its bin's first fix is taken 360
    west (east), and a median beyond ±180 is moved back by 360. The first counted bin
    whose longitudes still lie 180 degrees or more apart raises ValueError."""
    bins = {}
    for r in sorted(records, key=lambda r: (r.clip_id, r.timestamp_ms)):
        bins.setdefault((r.clip_id, r.timestamp_ms // 1000), []).append(r)
    total = max if mode == "max" else sum
    nodes = []
    for (clip, sec), group in bins.items():
        count = total(r.pedestrian_count for r in group)
        if count:
            first = group[0].position.lon
            lons = [r.position.lon for r in group]
            lons = [lon - 360.0 if lon - first > 180.0 else lon + 360.0 if lon - first < -180.0 else lon for lon in lons]
            if max(lons) - min(lons) >= 180.0:
                raise ValueError(f"longitudes >= 180 degrees apart in clip {clip!r} at {sec * 1000} ms")
            lon = statistics.median(lons)
            lon = lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon
            position = GeoPoint(statistics.median(r.position.lat for r in group), lon)
            nodes.append(HotspotNode(position, count, sec * 1000, clip))
    return nodes


def map_to_geojson(hotspot_map):
    """The oracle for ``geojson_text``: a GeoJSON FeatureCollection of Point features, one per ``map_to_dict``
    node, its ``lon`` and ``lat`` the [lon, lat] coordinates and its other keys the properties."""
    features = []
    for properties in map_to_dict(hotspot_map)["nodes"]:
        coordinates = [properties.pop("lon"), properties.pop("lat")]
        features.append({"type": "Feature", "geometry": {"type": "Point", "coordinates": coordinates}, "properties": properties})
    return {"type": "FeatureCollection", "features": features}


def node_reprs(make_nodes):
    """The ``repr`` of each node ``make_nodes()`` returns, or the message of the ValueError it raises."""
    try:
        return list(map(repr, make_nodes()))
    except ValueError as exc:
        return str(exc)


class TestParseDetectionLog:
    def test_single_row(self):
        records = parse_detection_log(io.StringIO(HEADER + "1000,32.8801,-117.2340,2,clipA\n"))
        assert len(records) == 1
        assert records[0].pedestrian_count == 2
        assert records[0].timestamp_ms == 1000
        assert records[0].position == GeoPoint(32.8801, -117.2340)
        assert records[0].clip_id == "clipA"

    def test_header_only(self):
        assert parse_detection_log(io.StringIO(HEADER)) == []

    def test_negative_count_reports_line(self):
        stream = io.StringIO(HEADER + "1000,0,0,1,a\n2000,0,0,-1,a\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_detection_log(stream)

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_detection_log(io.StringIO(HEADER + "1000,0,0\n"))
        with pytest.raises(ParseError, match="line 2"):
            parse_detection_log(io.StringIO(HEADER + "1000,zero,0,1,a\n"))
        with pytest.raises(ParseError, match="line 2"):
            parse_detection_log(io.StringIO(HEADER + "10.5,0,0,1,a\n"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1_000,1_0,2,1_0,a", "non-integer timestamp '1_000'"),
            ("\u0661\u0662,1,2,\u0661\u0662,a", "non-integer timestamp '\u0661\u0662'"),
            ("1000,1_0,2,1,a", "non-numeric coordinate '1_0','2'"),
            ("1000,1,\u0662.5,1,a", "non-numeric coordinate '1','\u0662.5'"),
            ("1000,1,2,1_0,a", "non-integer pedestrian_count '1_0'"),
            ("1000,1,2,\uff11,a", "non-integer pedestrian_count '\uff11'"),
        ],
    )
    def test_numbers_are_ascii_without_underscores(self, row, message):
        # ``int`` and ``float`` also read PEP 515 underscores and non-ASCII digits; a CSV number holds neither.
        with pytest.raises(ParseError) as info:
            parse_detection_log(io.StringIO(HEADER + row + "\n"))
        assert str(info.value) == f"line 2: {message}"

    def test_other_number_spellings_still_read(self):
        (r,) = parse_detection_log(io.StringIO(HEADER + " +12 ,+1.5,2E0, 3 ,a_b\n"))
        assert (r.timestamp_ms, r.position, r.pedestrian_count, r.clip_id) == (12, GeoPoint(1.5, 2.0), 3, "a_b")

    def test_latlon_out_of_range(self):
        with pytest.raises(ParseError, match="latitude"):
            parse_detection_log(io.StringIO(HEADER + "1,91,0,1,a\n"))
        with pytest.raises(ParseError, match="longitude"):
            parse_detection_log(io.StringIO(HEADER + "1,0,-200,1,a\n"))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_detection_log(io.StringIO("ts,lat,lon,n,clip\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError, match="header"):
            parse_detection_log(io.StringIO(""))

    def test_quoted_field_may_span_lines(self):
        records = parse_detection_log(io.StringIO(HEADER + '1000,1.0,2.0,1,"x\ny"\n2000,1.0,2.0,1,z\n'))
        assert [r.clip_id for r in records] == ["x\ny", "z"]
        with pytest.raises(ParseError, match="^line 3: negative"):  # a bad value names its row's last line
            parse_detection_log(io.StringIO(HEADER + '1000,1.0,2.0,-1,"x\ny"\n'))

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param('1000,1.0,2.0,1,"a\n2000,1.0,2.0,1,a\n3000,1.0,2.0,1,a\n4000,1.0,2.0,1,a\n', "line 2: unexpected end of data", id="unterminated"),
            pytest.param('1000,1.0,2.0,1,"x\ny"\n2000,1.0,2.0,1,"b"c\n', "line 4: ',' expected after '\"'", id="bad-quote-after-two-line-row"),
            pytest.param('1000,1.0,2.0,1,a\n\n2000,1.0,2.0,1,"a\n', "line 4: unexpected end of data", id="unterminated-after-blank"),
            pytest.param("1000,1.0,2.0,1," + "a" * 131_073 + "\n", "line 2: field larger than field limit (131072)", id="over-long-field"),
        ],
    )
    def test_malformed_csv_names_the_line_its_row_starts_on(self, body, message):
        """Quoting is strict: an unclosed quote is an error, not a field that swallows the rest of the file."""
        with pytest.raises(ParseError) as info:
            parse_detection_log(io.StringIO(HEADER + body))
        assert str(info.value) == message

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))], ids=["copy", "deepcopy", "pickle"])
    def test_parse_error_survives_copy_and_pickle(self, clone):
        exc = clone(ParseError("non-integer timestamp 'x'", 3))
        assert type(exc) is ParseError
        assert (str(exc), exc.line) == ("line 3: non-integer timestamp 'x'", 3)

    def test_malformed_header_is_line_1(self):
        with pytest.raises(ParseError, match="^line 1: unexpected end of data$"):
            parse_detection_log(io.StringIO('"timestamp,latitude,longitude,pedestrian_count,clip_id\n1,0,0,1,a\n'))

    def test_sorted_by_clip_then_time(self):
        """The parser keeps file order; ``build_map`` orders the nodes by clip, then time."""
        text = HEADER + "3000,0,0,1,b\n1000,0,0,1,b\n2000,0,0,1,a\n"
        records = parse_detection_log(io.StringIO(text))
        assert [(r.clip_id, r.timestamp_ms) for r in records] == [("b", 3000), ("b", 1000), ("a", 2000)]
        assert [(n.clip_id, n.timestamp_ms) for n in build_map(records).nodes] == [
            ("a", 2000),
            ("b", 1000),
            ("b", 3000),
        ]

    def test_shuffled_log_with_ties_keeps_file_order_within_a_tie(self):
        # Bin ("a", 1000) holds latitude 0.0 at 1500 ms, then the tie 0.0, -0.0 at
        # 1000 ms. Its median is -0.0 only when the bin takes its fixes by time,
        # with the tie in file order.
        lines = ["1500,0,0,8,a", "3000,0,0,7,b", "1000,0,0,1,a", "2000,0,0,2,c", "1000,0,0,3,b", "1000,-0.0,0,4,a", "500,0,0,5,c", "2000,0,0,6,a"]
        records = parse_detection_log(io.StringIO(HEADER + "\n".join(lines) + "\n"))
        assert [r.pedestrian_count for r in records] == [8, 7, 1, 2, 3, 4, 5, 6]
        nodes = build_map(records).nodes
        assert [(n.clip_id, n.timestamp_ms, n.count) for n in nodes] == [
            ("a", 1000, 8),
            ("a", 2000, 6),
            ("b", 1000, 3),
            ("b", 3000, 7),
            ("c", 0, 5),
            ("c", 2000, 2),
        ]
        assert math.copysign(1.0, nodes[0].position.lat) == -1.0


def struct_bits(x):
    """A float's IEEE bytes, so 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


def old_reader_position(lat_text, lon_text, line):
    """The reader's coordinate checks before ``GeoPoint`` owned them, and the
    longitude that point stores: as given, but 180 as -180 and -0.0 as 0.0."""
    lat, lon = float(lat_text), float(lon_text)
    if not -90.0 <= lat <= 90.0:
        raise ParseError(f"latitude {lat} outside [-90, 90]", line)
    if not -180.0 <= lon <= 180.0:
        raise ParseError(f"longitude {lon} outside [-180, 180]", line)
    return lat, -180.0 if lon == 180.0 else lon + 0.0


# Coordinate texts as a CSV may hold them: in range, out of range, +-180,
# -0.0, and what ``float`` reads as NaN or inf.
_COORD_TEXTS = st.one_of(
    st.floats(-180, 180).map(repr),
    st.floats().map(repr),
    st.integers(-400, 400).map(str),
    st.sampled_from(["180", "-180", "180.0", "-180.0", "90", "-90.0", "-0.0", "0.1", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "179.99999999999997"]),
)


class TestReaderCoordinates:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 2), _COORD_TEXTS, _COORD_TEXTS), min_size=1, max_size=4))
    def test_same_errors_and_longitudes_as_the_old_reader_checks(self, rows):
        # Each row follows 0-2 blank lines, so the line numbers the errors carry vary.
        text = HEADER + "".join("\n" * blanks + f"1000,{lat},{lon},1,a\n" for blanks, lat, lon in rows)
        expected = []
        line = 1
        try:
            for blanks, lat, lon in rows:
                line += blanks + 1
                expected.append((line, *map(struct_bits, old_reader_position(lat, lon, line))))
        except ParseError as exc:
            expected = ("raised", str(exc), exc.line)
        try:
            actual = [(n, struct_bits(p.lat), struct_bits(p.lon)) for n, _, p, _ in _read_rows(io.StringIO(text), TRAINING_HEADER)]
        except ParseError as exc:
            actual = ("raised", str(exc), exc.line)
        assert actual == expected


class TestRecordOrder:
    @given(
        st.lists(
            st.builds(rec, st.integers(0, 3), st.just(0.0), st.just(0.0), st.integers(0, 2), st.sampled_from("abc")),
            max_size=40,
        )
    )
    def test_same_objects_as_one_sort_on_the_key_tuple(self, records):
        before = list(records)
        expected = sorted(records, key=attrgetter("clip_id", "timestamp_ms"))
        assert [id(r) for b in split_intervals(records) for r in b] == [id(r) for r in expected]
        assert [id(r) for r in records] == [id(r) for r in before]  # the caller's list is not reordered


class TestSplitIntervals:
    def test_three_fixes_one_second(self):
        records = [rec(1000, 0, 0, 1), rec(1400, 0, 0.001, 1), rec(1900, 0, 0.002, 0)]
        assert split_intervals(records) == [records]

    def test_boundary_lands_in_next_window(self):
        bins = split_intervals([rec(1000, 0, 0, 1), rec(2000, 0, 0, 1)])
        assert [[r.timestamp_ms for r in b] for b in bins] == [[1000], [2000]]

    def test_empty(self):
        assert split_intervals([]) == []

    def test_never_spans_clips(self):
        bins = split_intervals([rec(1000, 0, 0, 1, "a"), rec(1100, 0, 0, 1, "b"), rec(1200, 0, 0, 1, "a")])
        assert [(b[0].clip_id, len(b)) for b in bins] == [("a", 2), ("b", 1)]

    def test_orders_an_unordered_log(self):
        # A row out of time order joins its second's bin instead of starting a new one.
        records = parse_detection_log(io.StringIO(HEADER + "1000,0,0,1,a\n5000,0,0,1,a\n1500,0,0,1,a\n"))
        assert [[r.timestamp_ms for r in b] for b in split_intervals(records)] == [[1000, 1500], [5000]]

    @given(
        st.lists(
            st.tuples(st.integers(-3_000, 20_000), st.integers(0, 3), st.sampled_from(["a", "b"])),
            max_size=60,
        )
    )
    def test_every_record_in_exactly_one_interval(self, rows):
        records = [rec(ts, 0, 0, n, clip) for ts, n, clip in rows]  # in no particular order
        bins = split_intervals(records)
        assert sorted(id(r) for b in bins for r in b) == sorted(map(id, records))
        keys = []
        for b in bins:
            assert len({(r.clip_id, r.timestamp_ms // 1000) for r in b}) == 1
            keys.append((b[0].clip_id, b[0].timestamp_ms // 1000))
        assert keys == sorted(set(keys))


class TestAggregateInterval:
    """The node ``build_map`` makes from one 1-second bin of records."""

    def test_odd_median(self):
        (node,) = build_map(one_bin([(0, 10), (0, 0), (0, 2)], [1, 1, 1])).nodes
        assert node.position == GeoPoint(0, 2)
        assert node.count == 1

    def test_even_median_and_max_count(self):
        (node,) = build_map(one_bin([(0, 0), (0, 2)], [3, 1]), "max").nodes
        assert node.position == GeoPoint(0, 1)
        assert node.count == 3

    def test_sum_mode(self):
        (node,) = build_map(one_bin([(0, 0), (0, 2)], [3, 1]), "sum").nodes
        assert node.count == 4

    def test_zero_counts_give_no_node(self):
        assert build_map(one_bin([(0, 0), (0, 1)], [0, 0])).nodes == []

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="count_mode"):
            build_map(one_bin([(0, 0)], [1]), "avg")

    def test_node_timestamp_is_interval_start(self):
        (node,) = build_map(one_bin([(1, 1)], [2], ts=7450)).nodes
        assert node.timestamp_ms == 7000
        assert node.clip_id == "clipA"
        (node,) = build_map(one_bin([(1, 1)], [2], ts=-1)).nodes  # -1 ms is in second -1
        assert node.timestamp_ms == -1000

    @given(
        # Each bin's longitudes from one side of +-180, less than 180 degrees apart;
        # 180 is stored as -180, so it sits with the west.
        st.sampled_from([st.floats(-180, -0.5) | st.just(180.0), st.floats(0.5, 180, exclude_max=True)]).flatmap(
            lambda lons: st.lists(st.tuples(st.floats(-80, 80), lons), min_size=1, max_size=12)
        )
    )
    def test_median_within_component_bounds(self, coords):
        records = one_bin(coords, [1] * len(coords))
        (node,) = build_map(records).nodes
        fixes = [r.position for r in records]  # as stored (180 as -180), as the median sees them
        assert min(p.lat for p in fixes) <= node.position.lat <= max(p.lat for p in fixes)
        assert min(p.lon for p in fixes) <= node.position.lon <= max(p.lon for p in fixes)


class TestBuildMap:
    def test_empty(self):
        assert len(build_map([])) == 0

    def test_counts_only_pedestrian_intervals(self):
        records = [
            rec(1000, 0, 0, 1),
            rec(2000, 0, 0.001, 0),
            rec(3000, 0, 0.002, 2),
        ]
        hotspot_map = build_map(records)
        assert len(hotspot_map) == 2
        assert [n.count for n in hotspot_map.nodes] == [1, 2]

    def test_repeat_passes_not_deduplicated(self):
        records = [rec(1000, 0, 0, 1, "a"), rec(1000, 0, 0, 1, "b")]
        assert len(build_map(records)) == 2

    def test_deterministic_ordering(self):
        rng = random.Random(5)
        rows = [
            rec(rng.randrange(0, 10_000), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.randrange(3), rng.choice("ab"))
            for _ in range(100)
        ]
        a = build_map(list(rows)).nodes
        rng.shuffle(rows)
        b = build_map(rows).nodes
        assert a == b
        keys = [(n.clip_id, n.timestamp_ms) for n in a]
        assert keys == sorted(keys)

    def test_every_pedestrian_record_lands_in_a_node_interval(self):
        rng = random.Random(6)
        records = [
            rec(rng.randrange(0, 5_000), 0, 0, rng.randrange(0, 2), rng.choice("ab"))
            for _ in range(60)
        ]
        node_bins = {(n.clip_id, n.timestamp_ms // 1000) for n in build_map(records).nodes}
        expected = {
            (r.clip_id, r.timestamp_ms // 1000) for r in records if r.pedestrian_count >= 1
        }
        assert node_bins == expected


    def test_bad_mode_fails_without_records(self):
        with pytest.raises(ValueError, match="count_mode"):
            build_map([], "avg")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3_000, 3_000),
                st.floats(-90, 90),
                st.one_of(st.floats(-180, 180), st.just(180.0)),
                st.integers(0, 3),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=40,
        ),
        st.sampled_from(["max", "sum"]),
    )
    # -0.0 == 0.0, so the median keeps their order: binned in input order rather
    # than by time, this bin's latitude is -0.0 where the reference gives 0.0.
    @example([(500, 0.0, 0.0, 1, "a"), (100, -0.0, 0.0, 1, "a"), (300, 0.0, 0.0, 1, "a")], "max")
    def test_matches_reference_binning(self, rows, mode):
        # Unsorted input over several clips; timestamps straddle second
        # boundaries on both sides of 0 (-1 ms is in second -1); zero counts
        # sit inside counted bins; longitude 180 is stored as -180; a counted
        # bin across +-180 is refused.
        records = [rec(ts, lat, lon, n, clip) for ts, lat, lon, n, clip in rows]
        assert node_reprs(lambda: build_map(records, mode).nodes) == node_reprs(lambda: reference_nodes(records, mode))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-90, 90), st.integers(-90, 90)),
                st.one_of(st.floats(-180, 180), st.integers(-180, 180)),
                st.integers(1, 3),
            ),
            max_size=30,
        ),
        st.sampled_from(["max", "sum"]),
    )
    def test_one_fix_bin_keeps_its_fix_point(self, fixes, mode):
        # One fix per second, at either end of it: each node is the reference's
        # rebuilt median point, and is the very point its record holds.
        records = [rec(1000 * s + 999 * (s % 2), lat, lon, n) for s, (lat, lon, n) in enumerate(fixes)]
        nodes = build_map(records, mode).nodes
        assert node_reprs(lambda: nodes) == node_reprs(lambda: reference_nodes(records, mode))
        assert len(nodes) == len(records)
        assert all(n.position is r.position for n, r in zip(nodes, records))

    @pytest.mark.parametrize(
        "lons, node_lon",
        [
            (["179.9999", "180"], 179.99995),  # 180 is stored as -180, the same meridian
            (["179.99999", "-179.99999"], -180.0),
            (["-179.9", "179.9", "-179.8"], -179.9),
        ],
    )
    def test_bin_across_the_antimeridian_builds_its_node_there(self, lons, node_lon):
        rows = "".join(f"{1000 + i},10.0,{lon},1,c\n" for i, lon in enumerate(lons))
        (node,) = build_map(parse_detection_log(io.StringIO(HEADER + rows))).nodes
        assert node.position == GeoPoint(10.0, node_lon)

    def test_bin_with_no_short_way_round_is_refused(self):
        # 0, 120 and -120 lie 120 degrees apart each way: on either side of the first fix, they still span 240.
        with pytest.raises(ValueError, match="^longitudes >= 180 degrees apart in clip 'clipA' at 1000 ms$"):
            build_map(one_bin([(0, 0), (0, 120), (0, -120)], [1, 0, 0]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-90, 90),
                st.one_of(st.floats(-180, 180), st.sampled_from([180.0, -180.0, 179.99999, -179.99999, 0.5, -0.0])),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @example([(0.0, 0.0), (0.0, -5e-324)])  # the median longitude rounds to -0.0, which GeoPoint stores as 0.0
    def test_bins_that_do_not_cross_the_antimeridian_keep_the_old_arithmetic(self, coords):
        # Keep the fixes less than 180 degrees east of the westmost, as stored: the bins the
        # old component-wise median took, passed through GeoPoint as a node's position is. Their nodes keep its bits.
        west = min(GeoPoint(lat, lon).lon for lat, lon in coords)
        records = one_bin([(lat, lon) for lat, lon in coords if GeoPoint(lat, lon).lon - west < 180.0], [1] * len(coords))
        (node,) = build_map(records).nodes
        lats, lons = [r.position.lat for r in records], [r.position.lon for r in records]
        old = GeoPoint(statistics.median(lats), statistics.median(lons))
        assert (struct_bits(node.position.lat), struct_bits(node.position.lon)) == (struct_bits(old.lat), struct_bits(old.lon))

    def test_bins_come_from_one_split_intervals_call(self, monkeypatch):
        calls = []

        def counted(records):
            bins = split_intervals(records)
            calls.append(len(bins))
            return bins

        monkeypatch.setattr(ingest, "split_intervals", counted)
        records = [rec(2500, 0, 0, 0), rec(1000, 0, 0, 1), rec(1200, 0, 0, 2, "b"), rec(3000, 0, 0, 1)]
        nodes = build_map(records).nodes
        assert calls == [4]  # one call; four bins, one of them without a pedestrian
        assert len(nodes) == 3


class TestMergeMaps:
    def nodes(self, seed, n):
        rng = random.Random(seed)
        return [
            HotspotNode(GeoPoint(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randrange(1, 4), rng.randrange(10_000), "c")
            for _ in range(n)
        ]

    def test_identity(self):
        m = HotspotMap(self.nodes(1, 5))
        assert merge_maps(HotspotMap(), m).nodes == m.nodes
        assert merge_maps().nodes == []

    def test_size_adds(self):
        a, b = HotspotMap(self.nodes(1, 5)), HotspotMap(self.nodes(2, 7))
        assert len(merge_maps(a, b)) == 12

    def test_commutative_as_multiset(self):
        a, b = HotspotMap(self.nodes(1, 5)), HotspotMap(self.nodes(2, 7))
        left = sorted(map(repr, merge_maps(a, b).nodes))
        right = sorted(map(repr, merge_maps(b, a).nodes))
        assert left == right

    def test_associative(self):
        a, b, c = (HotspotMap(self.nodes(s, 4)) for s in (1, 2, 3))
        assert merge_maps(merge_maps(a, b), c).nodes == merge_maps(a, merge_maps(b, c)).nodes
        assert merge_maps(a, b, c).nodes == a.nodes + b.nodes + c.nodes

    def test_index_is_not_a_constructor_argument(self):
        # An index passed in could belong to other nodes; the map builds its own.
        with pytest.raises(TypeError):
            HotspotMap(self.nodes(1, 5), HotspotMap(self.nodes(2, 3)).index)

    def test_merge_invalidates_index(self):
        a = HotspotMap(self.nodes(1, 5))
        a.index  # noqa: B018 - builds a's tree
        merged = merge_maps(a, HotspotMap(self.nodes(2, 3)))
        assert len(merged.index) == 8


class TestMapIndex:
    """``index`` is built by ``build_spatial_index`` on first read and kept; it is not a field."""

    nodes = TestMergeMaps.nodes

    def counted_builds(self, monkeypatch):
        built, build = [], HotspotMap.build_spatial_index
        monkeypatch.setattr(HotspotMap, "build_spatial_index", lambda m: built.append(m) or build(m))
        return built

    def test_two_reads_build_once(self, monkeypatch):
        built = self.counted_builds(monkeypatch)
        m = HotspotMap(self.nodes(1, 5))
        assert built == []
        tree = m.index
        assert m.index is tree and len(tree) == 5
        assert built == [m]

    def test_assigning_the_index_replaces_the_tree(self, monkeypatch):
        built = self.counted_builds(monkeypatch)
        m = HotspotMap(self.nodes(1, 5))
        m.index = tree = BallTree([n.position for n in m.nodes], leaf_size=1)
        assert m.index is tree and built == []
        built_first = HotspotMap(self.nodes(1, 5))
        built_tree = built_first.index
        built_first.index = tree
        assert built_first.index is tree is not built_tree and len(built) == 1

    def test_a_merge_builds_its_own(self, monkeypatch):
        built = self.counted_builds(monkeypatch)
        a = HotspotMap(self.nodes(1, 5))
        a.index  # noqa: B018
        merged = merge_maps(a)
        assert merged.index is not a.index
        assert [id(m) for m in built] == [id(a), id(merged)]  # equal maps: compare by identity

    def test_equal_nodes_compare_equal_whether_or_not_the_index_is_built(self):
        a, b = HotspotMap(self.nodes(1, 5)), HotspotMap(self.nodes(1, 5))
        a.index  # noqa: B018
        assert a == b and repr(a) == repr(b)
        assert a != HotspotMap(self.nodes(2, 5))


class TestSerialization:
    def test_map_json_round_trip_exact(self):
        original = build_map(
            [rec(1000, 32.88012345, -117.23409876, 2), rec(3000, 32.8802, -117.2342, 1)]
        )
        restored = map_from_dict(json.loads(json.dumps(map_to_dict(original))))
        assert restored.nodes == original.nodes

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema_version"):
            map_from_dict({"schema_version": 99, "nodes": []})

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_schema_version_must_be_integer(self, version):
        # True == 1.0 == 1 in Python, so equality alone lets these through.
        with pytest.raises(ValueError, match="schema_version"):
            map_from_dict({"schema_version": version, "nodes": []})

    def test_geojson_shape(self):
        m = HotspotMap([HotspotNode(GeoPoint(32.88, -117.23), 2, 1000, "c")])
        geo = json.loads(geojson_text(m))
        assert geo["type"] == "FeatureCollection"
        feature = geo["features"][0]
        assert feature["geometry"]["coordinates"] == [-117.23, 32.88]  # lon, lat order
        assert feature["properties"] == {"count": 2, "timestamp_ms": 1000, "clip_id": "c"}

    def test_geojson_round_trip(self):
        original = build_map([rec(1000, 32.88012345, -117.23409876, 2)])
        restored = map_from_geojson(json.loads(geojson_text(original)))
        assert restored.nodes == original.nodes

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda lat, lon, count, ts, clip: HotspotNode(GeoPoint(lat, lon), count, ts, clip),
                st.one_of(
                    st.integers(-90, 90),  # load_map keeps "lat": 5 an int
                    st.floats(-90, 90),
                    st.sampled_from([-0.0, 1e-300, 0.1 + 0.2, 32.880123456789012]),
                ),
                st.one_of(st.floats(-180, 180), st.sampled_from([-180.0, -117.23409876543211])),
                st.one_of(st.integers(1, 3), st.integers(1, 10**30)),
                st.one_of(st.integers(-(2**60), 2**60), st.just(2**60)),
                st.one_of(st.text(), st.sampled_from(["", 'a"b', "a\\b", "\x00\x1f\t\n", "caf\u00e9", "\U0001f6b6"])),
            ),
            max_size=6,
        )
    )
    def test_save_writes_json_dump_bytes(self, nodes):
        # Both documents come from one writer: the map file, and the GeoJSON text ``pedmap export`` writes.
        m = HotspotMap(nodes)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "map.json"
            save_map(m, str(path))
            written = path.read_bytes()
        assert written == (json.dumps(map_to_dict(m), indent=2, allow_nan=False) + "\n").encode("utf-8")
        assert geojson_text(m) == json.dumps(map_to_geojson(m), indent=2, allow_nan=False) + "\n"

    def test_empty_geojson(self):
        assert geojson_text(HotspotMap()) == '{\n  "type": "FeatureCollection",\n  "features": []\n}\n'

    GOOD_NODE = {"lat": 1.5, "lon": -2.5, "count": 2, "timestamp_ms": 1000, "clip_id": "c"}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lon": math.nan}, "finite"),
            ({"lat": -math.inf}, "finite"),
            ({"lat": True}, "finite"),
            ({"lon": "1.0"}, "finite"),
            ({"lat": None}, "finite"),
            ({"lat": 10**400}, "too large"),
            ({"lat": 91.0}, "latitude"),
            ({"count": True}, "integers"),
            ({"count": 2.0}, "integers"),
            ({"count": 0}, "count >= 1"),
            ({"timestamp_ms": "1000"}, "integers"),
            ({"clip_id": 7}, "string"),
            ({"lon": 200.0}, "longitude 200.0 outside"),
            ({"lon": -180.5}, "longitude -180.5 outside"),
            # Two faults: ``GeoPoint`` checks latitude first, before the count's type.
            ({"lat": 91.0, "lon": 200.0}, "latitude 91.0 outside"),
            ({"lat": -90.5, "count": True}, "latitude -90.5 outside"),
        ],
    )
    def test_node_schema_enforced_in_both_formats(self, change, message):
        bad = {**self.GOOD_NODE, **change}
        with pytest.raises(ValueError, match=f"^node 1: .*{message}"):
            map_from_dict({"schema_version": 1, "nodes": [self.GOOD_NODE, bad]})
        features = [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [n["lon"], n["lat"]]},
                "properties": {k: n[k] for k in ("count", "timestamp_ms", "clip_id")},
            }
            for n in (self.GOOD_NODE, bad)
        ]
        with pytest.raises(ValueError, match=f"^feature 1: .*{message}"):
            map_from_geojson({"type": "FeatureCollection", "features": features})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "JSON object"),
            ({"schema_version": 1}, "must be a list"),
            ({"schema_version": 1, "nodes": {}}, "must be a list"),
            ({"schema_version": 1, "nodes": [[1.5, -2.5]]}, "node 0: expected an object"),
        ],
    )
    def test_map_shape_checked(self, data, message):
        with pytest.raises(ValueError, match=message):
            map_from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"type": "FeatureCollection"},
            {"type": "FeatureCollection", "features": [1]},
            {"type": "FeatureCollection", "features": [{"geometry": {"coordinates": [0]}, "properties": {}}]},
            {"type": "FeatureCollection", "features": [{"geometry": {"coordinates": [0, 0]}, "properties": []}]},
            {"type": "FeatureCollection", "features": [{"geometry": {"type": "Polygon", "coordinates": [-117.2, 32.8]}, "properties": {"count": 1, "timestamp_ms": 0, "clip_id": "c"}}]},
        ],
    )
    def test_geojson_shape_checked(self, data):
        with pytest.raises(ValueError):
            map_from_geojson(data)


class TestHotspotNode:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            HotspotNode(GeoPoint(0, 0), 0, 0, "c")

    @pytest.mark.parametrize(
        "count, timestamp_ms, clip_id",
        [(True, 0, "c"), (2.5, 0, "c"), (math.nan, 0, "c"), (1, True, "c"), (1, 2.5, "c"), (1, math.nan, "c"), (1, 0, 7), (1, 0, None)],
    )
    def test_field_types_checked(self, count, timestamp_ms, clip_id):
        # Each of these used to be stored, and ``save_map`` then wrote a map that
        # is not JSON (``True``, ``NaN``) or one that ``load_map`` refuses.
        with pytest.raises(ValueError, match="count and timestamp_ms must be integers and clip_id a string"):
            HotspotNode(GeoPoint(1, 2), count, timestamp_ms, clip_id)

    def test_position_must_be_a_geopoint(self):
        # It used to construct, and save_map then failed with "'tuple' object has no attribute 'lat'".
        with pytest.raises(ValueError, match=r"^position must be a GeoPoint, got \(1\.0, 2\.0\)$"):
            HotspotNode((1.0, 2.0), 1, 0, "a")
        with pytest.raises(ValueError, match="^position must be a GeoPoint, got None$"):  # checked first
            HotspotNode(None, 0, 2.5, 7)

    def test_position_holds_only_coordinates_the_writers_print(self):
        # This node used to construct, save_map wrote "lat": True, and load_map then failed with "Expecting value".
        with pytest.raises(ValueError, match="^latitude and longitude must be int or float, got bool True, float 0.0$"):
            HotspotNode(GeoPoint(True, 0.0), 1, 0, "a")

    def test_boolean_count_refused_through_build_map(self):
        # The record refuses it now, before build_map can make a node of it.
        with pytest.raises(ValueError, match=r"^timestamp_ms and pedestrian_count must be integers and clip_id a string, got 1000, True, 'a'$"):
            build_map([DetectionRecord(1000, GeoPoint(1, 2), True, "a")])


class TestDetectionRecord:
    def test_position_must_be_a_geopoint(self):
        # build_map used to make a node holding the tuple, which save_map could not write.
        with pytest.raises(ValueError, match=r"^position must be a GeoPoint, got \(1\.0, 2\.0\)$"):
            DetectionRecord(1000, (1.0, 2.0), 1, "a")
        with pytest.raises(ValueError, match="^position must be a GeoPoint, got None$"):  # checked first
            DetectionRecord(1000.5, None, -1, 7)

    def test_negative_count_refused(self):
        # The CSV reader refuses it first, so only this test runs the record's own check every time.
        with pytest.raises(ValueError, match="^pedestrian_count must be >= 0$"):
            DetectionRecord(1000, GeoPoint(1, 2), -1, "a")

    def test_nan_count_refused(self):
        # It used to construct; max() then dropped it or build_map failed, by record order.
        with pytest.raises(ValueError, match="^timestamp_ms and pedestrian_count must be integers and clip_id a string, got 1000, nan, 'a'$"):
            DetectionRecord(1000, GeoPoint(1, 2), math.nan, "a")

    @pytest.mark.parametrize(
        "timestamp_ms, count, clip_id",
        [(1000.0, 1, "a"), (1000.5, 1, "a"), (True, 1, "a"), (1000, 2.5, "a"), (1000, -1.5, "a"), (1000, True, "a"), (1000, 1, 7), (1000, 1, None)],
    )
    def test_field_types_checked(self, timestamp_ms, count, clip_id):
        # Each of these used to construct and fail later, in HotspotNode, under the node's field names.
        with pytest.raises(ValueError) as exc_info:
            DetectionRecord(timestamp_ms, GeoPoint(1, 2), count, clip_id)
        assert str(exc_info.value) == (
            f"timestamp_ms and pedestrian_count must be integers and clip_id a string, got {timestamp_ms!r}, {count!r}, {clip_id!r}"
        )

    @pytest.mark.parametrize("timestamp_ms, clip_id", [(1100, 7), ("1100", "a")])
    def test_mixed_key_types_refused_through_build_map(self, timestamp_ms, clip_id):
        # The sort used to raise TypeError: '<' not supported between instances of 'int' and 'str'.
        # The second record is refused when it is built, before any sort.
        with pytest.raises(ValueError, match=rf"^timestamp_ms and pedestrian_count must be integers and clip_id a string, got {timestamp_ms!r}, 1, {clip_id!r}$"):
            build_map([rec(1000, 1, 2, 1, "a"), rec(timestamp_ms, 1, 2, 1, clip_id)])


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def golden_records(name="train_a.csv"):
    with open(GOLDEN_INPUTS / name, encoding="utf-8", newline="") as f:
        return parse_detection_log(f)


def lines_then(text, exc):
    """``text``'s lines, then ``exc`` raised where the next line would be read."""
    yield from io.StringIO(text)
    raise exc


# Per builder that runs with the collector paused: what it calls through ``ingest`` (to look inside the pause),
# a call on golden-size input, and calls that fail part-way through their input, with the error each raises.
PAUSED = {
    "parse_detection_log": (
        "_read_rows",
        golden_records,
        [
            (lambda: golden_records("bad_train.csv"), ParseError),
            (lambda: parse_detection_log(lines_then(HEADER + "1000,0.0,0.0,1,a\n", KeyboardInterrupt)), KeyboardInterrupt),
        ],
    ),
    "build_map": (
        "split_intervals",
        lambda: build_map(golden_records()),
        [(lambda: build_map(golden_records() + one_bin([(0.0, 179.0), (0.0, -1.0)], [1, 1], clip="zz")), ValueError)],
    ),
    "load_map": (
        "map_from_dict",
        lambda: load_map(GOLDEN_INPUTS / "map.json"),
        [(lambda: load_map(GOLDEN_INPUTS / "bad_map.json"), ValueError)],
    ),
    "build_spatial_index": (
        "BallTree",
        lambda: load_map(GOLDEN_INPUTS / "map.json").build_spatial_index(),
        [(lambda: HotspotMap(load_map(GOLDEN_INPUTS / "map.json").nodes + [None]).build_spatial_index(), AttributeError)],
    ),
}


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """Each test runs with the collector on and with it already off; it is back on afterwards."""
    if not request.param:
        gc.disable()
    try:
        yield request.param
    finally:
        gc.enable()


class TestCollectorPause:
    @pytest.mark.parametrize("name", PAUSED)
    def test_paused_inside(self, name, monkeypatch):
        callee, good, _ = PAUSED[name]
        seen = []
        original = getattr(ingest, callee)

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(ingest, callee, spy)
        good()
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("name", PAUSED)
    def test_left_as_found_after_success(self, name, collector):
        PAUSED[name][1]()
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("name", PAUSED)
    def test_left_as_found_after_an_error_part_way(self, name, collector):
        for fail, error in PAUSED[name][2]:
            with pytest.raises(error):
                fail()
            assert gc.isenabled() is collector

    @pytest.mark.parametrize("name", PAUSED)
    def test_makes_no_reference_cycles(self, name):
        # What makes the pause safe: on golden-size input the builder leaves nothing for a collection to free,
        # its result included, which is dropped before the count.
        good = PAUSED[name][1]
        good()  # imports and caches filled outside the count
        gc.collect()
        gc.disable()
        try:
            good()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_conftest_fails_a_test_that_leaves_the_collector_disabled(tmp_path):
    # The autouse fixture in conftest.py turns a missed ``gc.enable()`` into this test's error, not a later test's.
    (tmp_path / "test_leak.py").write_text("import gc\n\ndef test_leaks():\n    gc.disable()\n", encoding="utf-8")
    tests_dir = str(Path(__file__).parent)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest", str(tmp_path / "test_leak.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([tests_dir, str(Path(tests_dir).parent / "src")])},
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "the test left the cyclic garbage collector disabled" in run.stdout
