import io
import json
import math
import random
import statistics
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pedmap.geodesy import GeoPoint
from pedmap.ingest import (
    DetectionRecord,
    HotspotMap,
    HotspotNode,
    ParseError,
    aggregate_interval,
    build_map,
    map_from_dict,
    map_from_geojson,
    map_to_dict,
    map_to_geojson,
    merge_maps,
    parse_detection_log,
    save_map,
    split_intervals,
)

HEADER = "timestamp,latitude,longitude,pedestrian_count,clip_id\n"


def rec(ts, lat, lon, count, clip="clipA"):
    return DetectionRecord(ts, GeoPoint(lat, lon), count, clip)


def interval_of(fixes, counts, clip="clipA", sec=0):
    from pedmap.ingest import Interval

    return Interval(clip, sec * 1000, tuple(fixes), tuple(counts))


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

    def test_sorted_by_clip_then_time(self):
        text = HEADER + "3000,0,0,1,b\n1000,0,0,1,b\n2000,0,0,1,a\n"
        records = parse_detection_log(io.StringIO(text))
        assert [(r.clip_id, r.timestamp_ms) for r in records] == [
            ("a", 2000),
            ("b", 1000),
            ("b", 3000),
        ]


class TestSplitIntervals:
    def test_three_fixes_one_second(self):
        records = [rec(1000, 0, 0, 1), rec(1400, 0, 0.001, 1), rec(1900, 0, 0.002, 0)]
        intervals = split_intervals(records)
        assert len(intervals) == 1
        assert len(intervals[0].fixes) == 3
        assert intervals[0].start_ms == 1000

    def test_boundary_lands_in_next_window(self):
        intervals = split_intervals([rec(1000, 0, 0, 1), rec(2000, 0, 0, 1)])
        assert [len(iv.fixes) for iv in intervals] == [1, 1]
        assert [iv.start_ms for iv in intervals] == [1000, 2000]

    def test_empty(self):
        assert split_intervals([]) == []

    def test_never_spans_clips(self):
        records = sorted(
            [rec(1000, 0, 0, 1, "a"), rec(1100, 0, 0, 1, "b"), rec(1200, 0, 0, 1, "a")],
            key=lambda r: (r.clip_id, r.timestamp_ms),
        )
        intervals = split_intervals(records)
        assert [(iv.clip_id, len(iv.fixes)) for iv in intervals] == [("a", 2), ("b", 1)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 20_000), st.integers(0, 3), st.sampled_from(["a", "b"])),
            max_size=60,
        )
    )
    def test_every_record_in_exactly_one_interval(self, rows):
        records = sorted(
            (rec(ts, 0, 0, n, clip) for ts, n, clip in rows),
            key=lambda r: (r.clip_id, r.timestamp_ms),
        )
        intervals = split_intervals(records)
        assert sum(len(iv.fixes) for iv in intervals) == len(records)
        for iv in intervals:
            assert iv.fixes  # non-empty
            assert len(iv.fixes) == len(iv.counts)


class TestAggregateInterval:
    def test_odd_median(self):
        node = aggregate_interval(
            interval_of([GeoPoint(0, 0), GeoPoint(0, 2), GeoPoint(0, 10)], [1, 1, 1])
        )
        assert node.position == GeoPoint(0, 2)
        assert node.count == 1

    def test_even_median_and_max_count(self):
        node = aggregate_interval(interval_of([GeoPoint(0, 0), GeoPoint(0, 2)], [3, 1]), "max")
        assert node.position == GeoPoint(0, 1)
        assert node.count == 3

    def test_sum_mode(self):
        node = aggregate_interval(interval_of([GeoPoint(0, 0), GeoPoint(0, 2)], [3, 1]), "sum")
        assert node.count == 4

    def test_zero_counts_give_no_node(self):
        assert aggregate_interval(interval_of([GeoPoint(0, 0)], [0])) is None

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            aggregate_interval(interval_of([GeoPoint(0, 0)], [1]), "avg")

    def test_node_timestamp_is_interval_start(self):
        node = aggregate_interval(interval_of([GeoPoint(1, 1)], [2], sec=7))
        assert node.timestamp_ms == 7000
        assert node.clip_id == "clipA"

    @given(
        st.lists(
            st.tuples(
                st.floats(-80, 80, allow_nan=False), st.floats(-170, 170, allow_nan=False)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_median_within_component_bounds(self, coords):
        fixes = [GeoPoint(lat, lon) for lat, lon in coords]
        node = aggregate_interval(interval_of(fixes, [1] * len(fixes)))
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
    def test_grouped_pass_matches_interval_path(self, rows, mode):
        # Unsorted input over several clips; timestamps straddle second
        # boundaries on both sides of 0 (-1 ms is in second -1); zero counts
        # sit inside counted bins; longitude 180 normalizes to -180.
        records = [rec(ts, lat, lon, n, clip) for ts, lat, lon, n, clip in rows]
        intervals = split_intervals(sorted(records, key=lambda r: (r.clip_id, r.timestamp_ms)))
        expected = [node for node in (aggregate_interval(iv, mode) for iv in intervals) if node is not None]
        nodes = build_map(records, mode).nodes
        assert list(map(repr, nodes)) == list(map(repr, expected))
        by_bin = {(iv.clip_id, iv.start_ms): iv.fixes for iv in intervals}
        for node in nodes:
            fixes = by_bin[node.clip_id, node.timestamp_ms]
            median = GeoPoint(statistics.median(p.lat for p in fixes), statistics.median(p.lon for p in fixes))
            assert repr(node.position) == repr(median)


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
        a.build_spatial_index()
        merged = merge_maps(a, HotspotMap(self.nodes(2, 3)))
        assert len(merged.index) == 8


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
        geo = map_to_geojson(m)
        assert geo["type"] == "FeatureCollection"
        feature = geo["features"][0]
        assert feature["geometry"]["coordinates"] == [-117.23, 32.88]  # lon, lat order
        assert feature["properties"] == {"count": 2, "timestamp_ms": 1000, "clip_id": "c"}

    def test_geojson_round_trip(self):
        original = build_map([rec(1000, 32.88012345, -117.23409876, 2)])
        restored = map_from_geojson(json.loads(json.dumps(map_to_geojson(original))))
        assert restored.nodes == original.nodes

    def test_save_refuses_nan(self, tmp_path):
        # GeoPoint rejects a NaN longitude, so plant one past its check.
        point = GeoPoint(1.5, -2.5)
        object.__setattr__(point, "lon", math.nan)
        m = HotspotMap([HotspotNode(point, 2, 1000, "c")])
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_map(m, str(tmp_path / "map.json"))

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
        m = HotspotMap(nodes)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "map.json"
            save_map(m, str(path))
            written = path.read_bytes()
        assert written == (json.dumps(map_to_dict(m), indent=2, allow_nan=False) + "\n").encode("utf-8")

    def test_empty_geojson(self):
        assert map_to_geojson(HotspotMap()) == {"type": "FeatureCollection", "features": []}

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
        ],
    )
    def test_geojson_shape_checked(self, data):
        with pytest.raises(ValueError):
            map_from_geojson(data)


class TestHotspotNode:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            HotspotNode(GeoPoint(0, 0), 0, 0, "c")
