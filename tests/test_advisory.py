import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import map_of, make_node, northbound_trace, offset, random_scenario
from pedmap import spatial_index
from pedmap.advisory import (
    COINCIDENT_M,
    AdvisoryConfig,
    AdvisoryDecision,
    Checkpoint,
    DriveTrace,
    TraceFix,
    checkpoints,
    estimate_kinematics,
    evaluate_checkpoint,
    parse_trace_csv,
    run_replay,
    stopping_distance,
    timeline_to_jsonl,
    trace_arc_length,
    with_sampling_distance,
)
from pedmap.geodesy import GeoPoint, Heading, angular_separation, haversine_distance, initial_bearing
from pedmap.ingest import HotspotMap, ParseError


class TestAdvisoryConfig:
    def test_defaults(self):
        cfg = AdvisoryConfig()
        assert (cfg.reaction_time, cfg.friction, cfg.grade) == (2.5, 0.7, 0.0)
        assert (cfg.safety_factor, cfg.sampling_distance) == (1.0, 2.0)
        assert (cfg.heading_threshold, cfg.min_count) == (90.0, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reaction_time": 0.0},
            {"safety_factor": -1.0},
            {"sampling_distance": 0.0},
            {"friction": 0.0, "grade": 0.0},
            {"friction": 0.5, "grade": -0.5},
            {"heading_threshold": 0.0},
            {"heading_threshold": 181.0},
            {"min_count": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdvisoryConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["reaction_time", "friction", "grade", "safety_factor", "sampling_distance", "heading_threshold"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AdvisoryConfig(**{name: value})


class TestStoppingDistance:
    def test_zero_speed(self):
        assert stopping_distance(0.0, AdvisoryConfig()) == 0.0

    def test_reference_value_at_50(self):
        assert stopping_distance(50.0, AdvisoryConfig()) == pytest.approx(48.81, abs=0.01)

    def test_linear_in_safety_factor(self):
        assert stopping_distance(50.0, AdvisoryConfig(safety_factor=2.0)) == pytest.approx(
            97.62, abs=0.02
        )

    def test_strictly_increasing_in_speed(self):
        cfg = AdvisoryConfig()
        values = [stopping_distance(v, cfg) for v in range(0, 201)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_continuous_at_zero(self):
        assert stopping_distance(1e-9, AdvisoryConfig()) == pytest.approx(0.0, abs=1e-8)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            stopping_distance(-1.0, AdvisoryConfig())

    def test_exact_safety_factor_scaling(self):
        cfg1 = AdvisoryConfig()
        for b in [0.5, 1.7, 3.0]:
            cfgb = AdvisoryConfig(safety_factor=b)
            for v in [3.0, 27.5, 88.0, 140.0]:
                assert stopping_distance(v, cfgb) == pytest.approx(
                    b * stopping_distance(v, cfg1), rel=1e-12
                )


class TestDriveTrace:
    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DriveTrace((TraceFix(1000, GeoPoint(0, 0)), TraceFix(1000, GeoPoint(0, 0.001))), "c")

    def test_longitude_jump_rejected(self):
        with pytest.raises(ValueError, match="longitude"):
            DriveTrace(
                (TraceFix(0, GeoPoint(0, -179.9)), TraceFix(1000, GeoPoint(0, 179.9))), "c"
            )


class TestEstimateKinematics:
    def test_start_of_trace(self):
        trace = northbound_trace(GeoPoint(0, 0), 100, 50)
        position, heading, speed = estimate_kinematics(trace, 0.0)
        assert position == trace.fixes[0].position
        assert heading.degrees == pytest.approx(0.0, abs=1e-9)
        assert speed == pytest.approx(50.0, abs=0.01)

    def test_speed_from_segment(self):
        # Two fixes 27.78 m apart over one second: 100 km/h.
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, offset(GeoPoint(0, 0), north_m=27.78))),
            "c",
        )
        _, _, speed = estimate_kinematics(trace, 10.0)
        assert speed == pytest.approx(100.0, abs=0.1)

    def test_stationary_mid_trace_carries_heading(self):
        p0 = GeoPoint(0, 0)
        p1 = offset(p0, north_m=10)
        trace = DriveTrace(
            (TraceFix(0, p0), TraceFix(1000, p1), TraceFix(2000, p1), TraceFix(3000, offset(p1, north_m=10))),
            "c",
        )
        position, heading, speed = estimate_kinematics(trace, 10.0)
        assert position == p1
        assert heading.degrees == pytest.approx(0.0, abs=1e-9)
        assert speed == 0.0

    def test_beyond_end_rejected(self):
        trace = northbound_trace(GeoPoint(0, 0), 100, 50)
        with pytest.raises(ValueError, match="arc position"):
            estimate_kinematics(trace, trace_arc_length(trace) + 5.0)

    def test_parked_trace_degenerate(self):
        p = GeoPoint(0, 0)
        trace = DriveTrace((TraceFix(0, p), TraceFix(1000, p), TraceFix(2000, p)), "c")
        with pytest.raises(ValueError, match="degenerate"):
            estimate_kinematics(trace, 0.0)

    def test_interpolated_position(self):
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, GeoPoint(0.0002, 0))), "c"
        )
        total = trace_arc_length(trace)
        position, _, _ = estimate_kinematics(trace, total / 2)
        assert position.lat == pytest.approx(0.0001, rel=1e-9)


class TestCheckpoints:
    def make_trace(self, length_m):
        return northbound_trace(GeoPoint(0, 0), length_m, 36.0)  # 10 m/s, 10 m fixes

    def test_arc_grid(self):
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, offset(GeoPoint(0, 0), north_m=9.0))),
            "c",
        )
        cps = checkpoints(trace, 2.0)
        assert [cp.arc_position for cp in cps] == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_coarser_grid_is_subset(self):
        trace = self.make_trace(95)
        arcs2 = {cp.arc_position for cp in checkpoints(trace, 2.0)}
        arcs4 = {cp.arc_position for cp in checkpoints(trace, 4.0)}
        assert arcs4 <= arcs2

    def test_short_trace_single_checkpoint(self):
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, offset(GeoPoint(0, 0), north_m=1.0))),
            "c",
        )
        cps = checkpoints(trace, 2.0)
        assert [cp.arc_position for cp in cps] == [0.0]

    def test_end_inclusive_when_exact_multiple(self):
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, offset(GeoPoint(0, 0), north_m=8.0))),
            "c",
        )
        arcs = [cp.arc_position for cp in checkpoints(trace, 2.0)]
        assert arcs[-1] == pytest.approx(8.0)

    def test_too_few_fixes(self):
        with pytest.raises(ValueError, match="2 fixes"):
            checkpoints(DriveTrace((TraceFix(0, GeoPoint(0, 0)),), "c"), 2.0)

    def test_bad_sampling_distance(self):
        with pytest.raises(ValueError):
            checkpoints(self.make_trace(50), 0.0)

    def test_nesting_on_random_traces(self):
        rng = random.Random(31)
        for _ in range(10):
            scenario = random_scenario(rng)
            base = {cp.arc_position for cp in checkpoints(scenario.trace, 2.0)}
            for m in (2, 3, 4):
                coarse = {cp.arc_position for cp in checkpoints(scenario.trace, 2.0 * m)}
                assert coarse <= base


class TestEvaluateCheckpoint:
    def checkpoint_at(self, position, heading_deg=0.0, speed=50.0):
        from pedmap.advisory import Checkpoint
        from pedmap.geodesy import Heading

        return Checkpoint(0.0, position, Heading(heading_deg), speed, 0)

    def test_empty_map_inactive(self):
        decision = evaluate_checkpoint(
            self.checkpoint_at(GeoPoint(0, 0)), HotspotMap(), AdvisoryConfig()
        )
        assert not decision.active
        assert decision.nearest_front_distance is None

    def test_node_ahead_triggers(self):
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(make_node(offset(origin, north_m=10)))
        decision = evaluate_checkpoint(self.checkpoint_at(origin), hotspot_map, AdvisoryConfig())
        assert decision.active
        assert decision.stopping_distance == pytest.approx(48.81, abs=0.01)
        assert decision.nearest_front_distance == pytest.approx(10.0, abs=1e-6)
        assert decision.nearest_front_heading_sep == pytest.approx(0.0, abs=1e-9)

    def test_node_behind_ignored(self):
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(make_node(offset(origin, north_m=10)))
        decision = evaluate_checkpoint(
            self.checkpoint_at(origin, heading_deg=180.0), hotspot_map, AdvisoryConfig()
        )
        assert not decision.active

    def test_node_beyond_radius_ignored(self):
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(make_node(offset(origin, north_m=60)))
        decision = evaluate_checkpoint(self.checkpoint_at(origin), hotspot_map, AdvisoryConfig())
        assert not decision.active  # s(50) ~ 48.8 m < 60 m

    def test_min_count_filter(self):
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(make_node(offset(origin, north_m=10), count=2))
        cfg3 = AdvisoryConfig(min_count=3)
        assert not evaluate_checkpoint(self.checkpoint_at(origin), hotspot_map, cfg3).active
        cfg2 = AdvisoryConfig(min_count=2)
        assert evaluate_checkpoint(self.checkpoint_at(origin), hotspot_map, cfg2).active

    def test_coincident_node_counts_as_in_front(self):
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(make_node(origin))
        decision = evaluate_checkpoint(
            self.checkpoint_at(origin, heading_deg=180.0), hotspot_map, AdvisoryConfig()
        )
        assert decision.active
        assert decision.nearest_front_heading_sep == 0.0

    def test_nearest_in_front_wins_over_behind(self):
        # The globally nearest node is behind; a farther in-front node still triggers.
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(
            make_node(offset(origin, north_m=-5)), make_node(offset(origin, north_m=20))
        )
        decision = evaluate_checkpoint(self.checkpoint_at(origin), hotspot_map, AdvisoryConfig())
        assert decision.active
        assert decision.nearest_front_distance == pytest.approx(20.0, abs=1e-6)

    def test_decision_invariant(self):
        rng = random.Random(17)
        cfg = AdvisoryConfig()
        for _ in range(20):
            scenario = random_scenario(rng)
            timeline = run_replay(scenario.trace, scenario.hotspot_map, cfg)
            for d in timeline.decisions:
                if d.active:
                    assert d.nearest_front_distance <= d.stopping_distance
                    assert d.nearest_front_heading_sep <= cfg.heading_threshold
                else:
                    assert d.nearest_front_distance is None


def decide_by_scan(cp, hotspot_map, cfg):
    """The advisory rule over every node, nearest by (distance, index); no index."""
    radius = stopping_distance(cp.speed, cfg)
    best = None
    for i, node in enumerate(hotspot_map.nodes):
        d = haversine_distance(cp.position, node.position)
        if node.count < cfg.min_count or d > radius:
            continue
        sep = 0.0 if d < COINCIDENT_M else angular_separation(cp.heading, initial_bearing(cp.position, node.position))
        if sep <= cfg.heading_threshold and (best is None or (d, i) < best[0]):
            best = ((d, i), sep)
    if best is None:
        return AdvisoryDecision(cp, False, radius)
    return AdvisoryDecision(cp, True, radius, best[0][0], best[1])


_ORIGIN = GeoPoint(32.8, -117.3)
# Nodes within ~70 m of the checkpoint, some repeated and some on top of it.
_node_offsets = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(-70, 70), st.floats(-70, 70)),
)


class TestEvaluateCheckpointOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        offsets=st.lists(st.tuples(_node_offsets, st.integers(1, 4)), max_size=60),
        repeats=st.lists(st.integers(0, 59), max_size=20),
        heading=st.floats(0, 360, exclude_max=True),
        speed=st.floats(0, 120),
        min_count=st.integers(1, 4),
        heading_threshold=st.floats(0, 180, exclude_min=True),
        leaf_size=st.integers(1, 8),
    )
    def test_matches_linear_scan(self, offsets, repeats, heading, speed, min_count, heading_threshold, leaf_size):
        nodes = [make_node(offset(_ORIGIN, north_m=n, east_m=e), count) for (n, e), count in offsets]
        nodes += [nodes[r] for r in repeats if r < len(nodes)]
        hotspot_map = HotspotMap(nodes)
        hotspot_map.build_spatial_index(leaf_size=leaf_size)
        cfg = AdvisoryConfig(min_count=min_count, heading_threshold=heading_threshold)
        cp = Checkpoint(0.0, _ORIGIN, Heading(heading), speed, 0)
        assert evaluate_checkpoint(cp, hotspot_map, cfg) == decide_by_scan(cp, hotspot_map, cfg)


class TestDecisionCost:
    def test_decision_stops_before_full_radius_search(self, monkeypatch):
        # A dense map: every node is inside the 48.8 m radius and in front.
        rng = random.Random(5)
        nodes = [
            make_node(offset(_ORIGIN, north_m=rng.uniform(1, 45), east_m=rng.uniform(-15, 15)))
            for _ in range(2000)
        ]
        hotspot_map = HotspotMap(nodes)
        tree = hotspot_map.index
        cfg = AdvisoryConfig()
        cp = Checkpoint(0.0, _ORIGIN, Heading(0.0), 50.0, 0)

        calls = 0
        real = haversine_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(spatial_index, "haversine_distance", counting)
        assert evaluate_checkpoint(cp, hotspot_map, cfg).active
        decision_calls, calls = calls, 0
        assert len(tree.within_radius(cp.position, stopping_distance(cp.speed, cfg))) == 2000
        assert decision_calls < calls / 10, f"{decision_calls} vs {calls} haversine evals"


class TestRunReplay:
    def single_hotspot_setup(self, node_arc=150.0, length=220.0, speed=50.0):
        start = GeoPoint(0, 0)
        trace = northbound_trace(start, length, speed)
        hotspot_map = map_of(make_node(offset(start, north_m=node_arc)))
        return trace, hotspot_map

    def test_drive_through_hotspot_one_on_one_off(self):
        trace, hotspot_map = self.single_hotspot_setup()
        cfg = AdvisoryConfig(sampling_distance=2.0)
        timeline = run_replay(trace, hotspot_map, cfg)
        transitions = timeline.transitions
        assert [t.kind for t in transitions] == ["ON", "OFF"]
        s = stopping_distance(50.0, cfg)
        on, off = transitions
        assert 150.0 - s - 2.0 <= on.arc_position <= 150.0
        assert 150.0 < off.arc_position <= 152.0 + 1e-9

    def test_empty_map_no_transitions(self):
        trace, _ = self.single_hotspot_setup()
        timeline = run_replay(trace, HotspotMap(), AdvisoryConfig())
        assert timeline.transitions == []
        assert not any(d.active for d in timeline.decisions)

    def test_parked_vehicle_rejected(self):
        p = GeoPoint(0, 0)
        trace = DriveTrace((TraceFix(0, p), TraceFix(1000, p)), "c")
        with pytest.raises(ValueError, match="degenerate"):
            run_replay(trace, HotspotMap(), AdvisoryConfig())

    def test_transitions_alternate_starting_on(self):
        rng = random.Random(23)
        for _ in range(15):
            scenario = random_scenario(rng)
            timeline = run_replay(scenario.trace, scenario.hotspot_map, AdvisoryConfig())
            kinds = [t.kind for t in timeline.transitions]
            assert kinds == ["ON", "OFF"] * (len(kinds) // 2) + (["ON"] if len(kinds) % 2 else [])

    def test_raising_safety_factor_never_deactivates(self):
        rng = random.Random(29)
        for _ in range(10):
            scenario = random_scenario(rng)
            low = run_replay(scenario.trace, scenario.hotspot_map, AdvisoryConfig(safety_factor=1.0))
            high = run_replay(scenario.trace, scenario.hotspot_map, AdvisoryConfig(safety_factor=1.8))
            for d_low, d_high in zip(low.decisions, high.decisions):
                assert d_high.active or not d_low.active

    def test_adding_nodes_never_deactivates(self):
        rng = random.Random(37)
        cfg = AdvisoryConfig()
        for _ in range(10):
            scenario = random_scenario(rng)
            extra = [
                make_node(
                    offset(scenario.trace.fixes[0].position, north_m=rng.uniform(0, 300), east_m=rng.uniform(-40, 40))
                )
                for _ in range(3)
            ]
            bigger = HotspotMap(scenario.hotspot_map.nodes + extra)
            base = run_replay(scenario.trace, scenario.hotspot_map, cfg)
            grown = run_replay(scenario.trace, bigger, cfg)
            for d_a, d_b in zip(base.decisions, grown.decisions):
                assert d_b.active or not d_a.active


class TestTimelineJsonl:
    def test_record_shape(self):
        trace, hotspot_map = TestRunReplay().single_hotspot_setup()
        timeline = run_replay(trace, hotspot_map, AdvisoryConfig())
        lines = list(timeline_to_jsonl(timeline))
        assert len(lines) == len(timeline.decisions)
        first = json.loads(lines[0])
        assert list(first) == [
            "arc_m",
            "lat",
            "lon",
            "speed_kmh",
            "heading_deg",
            "stopping_distance_m",
            "active",
            "nearest_front_m",
            "nearest_front_sep_deg",
        ]
        assert first["arc_m"] == 0.0
        inactive = next(rec for rec in map(json.loads, lines) if not rec["active"])
        assert inactive["nearest_front_m"] is None


class TestParseTraceCsv:
    HEADER = "timestamp,latitude,longitude,clip_id\n"

    def test_single_clip(self):
        text = self.HEADER + "0,0,0,c\n1000,0.0001,0,c\n"
        traces = parse_trace_csv(io.StringIO(text))
        assert len(traces) == 1
        assert traces[0].clip_id == "c"
        assert len(traces[0].fixes) == 2

    def test_clips_split_and_sorted(self):
        text = self.HEADER + "0,0,0,b\n0,0,0,a\n1000,0.0001,0,a\n1000,0.0001,0,b\n"
        traces = parse_trace_csv(io.StringIO(text))
        assert [t.clip_id for t in traces] == ["a", "b"]

    def test_unsorted_rows_ordered_by_time(self):
        text = self.HEADER + "2000,0.0002,0,c\n0,0,0,c\n1000,0.0001,0,c\n"
        traces = parse_trace_csv(io.StringIO(text))
        assert [f.timestamp_ms for f in traces[0].fixes] == [0, 1000, 2000]

    def test_duplicate_timestamps_rejected(self):
        text = self.HEADER + "0,0,0,c\n0,0.0001,0,c\n"
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_trace_csv(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_trace_csv(io.StringIO("timestamp,lat,lon,clip\n"))

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_trace_csv(io.StringIO(self.HEADER + "0,0,0,c\n1000,x,0,c\n"))


class TestWithSamplingDistance:
    def test_override_revalidates(self):
        cfg = with_sampling_distance(AdvisoryConfig(), 5.0)
        assert cfg.sampling_distance == 5.0
        with pytest.raises(ValueError):
            with_sampling_distance(AdvisoryConfig(), -1.0)
