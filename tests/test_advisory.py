import io
import json
import math
import random
import re
import sys
from bisect import bisect_left

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import destination, map_of, make_node, northbound_trace, offset, random_scenario, wrap_lon
from pedmap import advisory, evaluation, spatial_index
from pedmap.advisory import (
    ARC_TOLERANCE_M,
    COINCIDENT_M,
    KMH_PER_MPS,
    MIN_SAMPLING_DISTANCE_M,
    AdvisoryConfig,
    AdvisoryDecision,
    AdvisoryTimeline,
    Checkpoint,
    DriveTrace,
    TraceFix,
    checkpoints,
    evaluate_checkpoint,
    parse_trace_csv,
    run_replay,
    stopping_distance,
    timeline_to_jsonl,
    with_sampling_distance,
)
from pedmap.evaluation import (
    EvalReport,
    EvalRow,
    GroundTruthWindow,
    match_advisories,
    precision,
    recall,
    sweep_sampling_distance,
)
from pedmap.geodesy import (
    GeoPoint,
    Heading,
    angular_separation,
    coincident,
    haversine_distance,
    initial_bearing,
    interpolate_along,
)
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

    @pytest.mark.parametrize("k", [1e-300, 0.0099])
    def test_sampling_distance_floor(self, k):
        with pytest.raises(ValueError, match=r"^sampling_distance must be >= 0\.01$"):
            AdvisoryConfig(sampling_distance=k)
        assert AdvisoryConfig(sampling_distance=MIN_SAMPLING_DISTANCE_M).sampling_distance == 0.01

    @pytest.mark.parametrize(
        "name", ["reaction_time", "friction", "grade", "safety_factor", "sampling_distance", "heading_threshold"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AdvisoryConfig(**{name: value})

    def test_non_finite_checked_in_field_order(self):
        with pytest.raises(ValueError, match="^reaction_time must be finite$"):
            AdvisoryConfig(heading_threshold=math.nan, reaction_time=math.inf)

    @pytest.mark.parametrize("value", [math.nan, 1.5, True, "2"])
    def test_non_integer_min_count_rejected(self, value):
        with pytest.raises(ValueError, match=rf"^min_count must be an integer, got {re.escape(repr(value))}$"):
            AdvisoryConfig(min_count=value)

    def test_huge_min_count_builds(self):
        # min_count is an int, so it never reaches isfinite, which would overflow on it.
        assert AdvisoryConfig(min_count=10**400).min_count == 10**400


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
        for speed in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^speed must be >= 0$"):
                stopping_distance(speed, AdvisoryConfig())

    @settings(max_examples=500)
    @given(
        speed=st.one_of(st.floats(0, 100), st.floats(0, 1e12), st.floats(0, allow_infinity=False)),
        reaction_time=st.floats(0, exclude_min=True, allow_infinity=False),
        friction=st.floats(allow_nan=False, allow_infinity=False),
        grade=st.floats(allow_nan=False, allow_infinity=False),
        safety_factor=st.floats(0, exclude_min=True, allow_infinity=False),
    )
    @example(speed=50.0, reaction_time=1e308, friction=0.7, grade=0.0, safety_factor=1.0)
    @example(speed=50.0, reaction_time=2.5, friction=0.7, grade=0.0, safety_factor=1e308)
    @example(speed=50.0, reaction_time=2.5, friction=5e-324, grade=0.0, safety_factor=1.0)
    @example(speed=0.0, reaction_time=1e308, friction=1e308, grade=1e308, safety_factor=1e308)
    @example(speed=1e200, reaction_time=2.5, friction=0.7, grade=0.0, safety_factor=1.0)
    @example(speed=sys.float_info.max, reaction_time=2.5, friction=0.7, grade=0.0, safety_factor=1.0)
    def test_formula_or_overflow_error(self, speed, reaction_time, friction, grade, safety_factor):
        # Where the formula is finite the result has its bits; where it overflows to inf, the call raises.
        # Past about 1.3e154 km/h ``speed**2`` raises OverflowError, where ``speed * speed`` would give inf.
        assume(friction + grade > 0)
        cfg = AdvisoryConfig(reaction_time=reaction_time, friction=friction, grade=grade, safety_factor=safety_factor)
        try:
            expected = safety_factor * (0.278 * reaction_time * speed + speed**2 / (254.0 * (friction + grade)))
        except OverflowError:
            expected = math.inf
        if math.isfinite(expected):
            assert stopping_distance(speed, cfg).hex() == expected.hex()
        else:
            assert expected == math.inf
            with pytest.raises(ValueError, match=f"^stopping distance overflows at {re.escape(f'{speed:g}')} km/h$"):
                stopping_distance(speed, cfg)

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

    def test_timestamps_within_2_53(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 0.001)
        assert len(DriveTrace((TraceFix(-(2**53), a), TraceFix(2**53, b)), "c").fixes) == 2
        for first, last in ((-(2**53) - 1, 0), (0, 2**53 + 1)):
            with pytest.raises(ValueError, match="outside"):
                DriveTrace((TraceFix(first, a), TraceFix(last, b)), "c")

    def test_drive_across_antimeridian_replays(self):
        # Each fix 0.0001 degrees (11 m) east of the last, at 1 Hz; 180 is stored as -180.
        # It used to be refused as a longitude jump of 180 degrees or more.
        lons = [179.9998, 179.9999, 180, -179.9999, -179.9998]
        trace = DriveTrace(tuple(TraceFix(1000 * i, GeoPoint(0, lon)) for i, lon in enumerate(lons)), "c")
        assert trace.arcs[-1] == pytest.approx(4 * 11.1195, rel=1e-4)
        timeline = run_replay(trace, map_of(make_node(GeoPoint(0, -179.99975))), AdvisoryConfig(sampling_distance=5))
        cps = [d.checkpoint for d in timeline.decisions]
        assert [cp.arc_position for cp in cps] == [5.0 * i for i in range(9)]
        assert all(cp.heading.degrees == pytest.approx(90.0) and cp.speed == pytest.approx(40.03, abs=0.01) for cp in cps)
        # Every checkpoint lies on the 44 m the drive covers, and the advisory is on from the 4th.
        assert all(haversine_distance(GeoPoint(0, 179.9998), cp.position) == pytest.approx(cp.arc_position, abs=1e-6) for cp in cps)
        assert [d.active for d in timeline.decisions] == [False] * 3 + [True] * 6


class TestEstimateKinematics:
    """Position, heading and speed at the checkpoints of a drive."""

    def test_start_of_trace(self):
        trace = northbound_trace(GeoPoint(0, 0), 100, 50)
        cp = checkpoints(trace, 2.0)[0]
        assert cp.position == trace.fixes[0].position
        assert cp.heading.degrees == pytest.approx(0.0, abs=1e-9)
        assert cp.speed == pytest.approx(50.0, abs=0.01)

    def test_speed_from_segment(self):
        # Two fixes 27.78 m apart over one second: 100 km/h.
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, offset(GeoPoint(0, 0), north_m=27.78))),
            "c",
        )
        cp = checkpoints(trace, 10.0)[1]
        assert cp.arc_position == 10.0
        assert cp.speed == pytest.approx(100.0, abs=0.1)

    def test_stationary_mid_trace_carries_heading(self):
        p0 = GeoPoint(0, 0)
        p1 = offset(p0, north_m=10)
        trace = DriveTrace(
            (TraceFix(0, p0), TraceFix(1000, p1), TraceFix(2000, p1), TraceFix(3000, offset(p1, north_m=10))),
            "c",
        )
        cp = checkpoints(trace, 10.0)[1]
        assert cp.arc_position == 10.0
        assert cp.position == p1
        assert cp.heading.degrees == pytest.approx(0.0, abs=1e-9)
        assert cp.speed == 0.0

    def test_parked_trace_degenerate(self):
        p = GeoPoint(0, 0)
        trace = DriveTrace((TraceFix(0, p), TraceFix(1000, p), TraceFix(2000, p)), "c")
        with pytest.raises(ValueError, match="degenerate"):
            checkpoints(trace, 2.0)

    def test_parked_start_takes_first_moving_heading(self):
        trace = parked_start_trace()
        first, second = checkpoints(trace, 5.0)[:2]
        assert first.position == GeoPoint(0, 0)
        assert first.heading == initial_bearing(GeoPoint(0, 0), GeoPoint(0.0001, 0))
        assert first.speed == 0.0
        assert second.arc_position == 5.0
        assert second.heading.degrees == pytest.approx(0.0, abs=1e-9)
        assert second.speed == pytest.approx(haversine_distance(GeoPoint(0, 0), GeoPoint(0.0001, 0)) * KMH_PER_MPS)

    def test_interpolated_position(self):
        trace = DriveTrace(
            (TraceFix(0, GeoPoint(0, 0)), TraceFix(1000, GeoPoint(0.0002, 0))), "c"
        )
        total = trace.arcs[-1]
        cp = checkpoints(trace, total / 2)[1]
        assert cp.arc_position == total / 2
        assert cp.position.lat == pytest.approx(0.0001, rel=1e-9)


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
        with pytest.raises(ValueError, match="must be >= 0.01"):
            checkpoints(self.make_trace(50), 1e-300)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sampling_distance must be finite"):
                checkpoints(self.make_trace(50), bad)

    def test_parked_start(self):
        trace = parked_start_trace()
        cps = checkpoints(trace, 2.0)
        north = initial_bearing(GeoPoint(0, 0), GeoPoint(0.0001, 0))
        assert all(cp.heading == north for cp in cps)
        assert (cps[0].position, cps[0].speed) == (GeoPoint(0, 0), 0.0)
        assert all(cp.speed > 0 for cp in cps[1:])

    def test_nesting_on_random_traces(self):
        rng = random.Random(31)
        for _ in range(10):
            scenario = random_scenario(rng)
            base = {cp.arc_position for cp in checkpoints(scenario.trace, 2.0)}
            for m in (2, 3, 4):
                coarse = {cp.arc_position for cp in checkpoints(scenario.trace, 2.0 * m)}
                assert coarse <= base


def parked_start_trace() -> DriveTrace:
    """A drive that waits one second, then heads north at about 40 km/h."""
    fixes = [(0, 0.0), (1000, 0.0), (2000, 0.0001), (3000, 0.0002)]
    return DriveTrace(tuple(TraceFix(t, GeoPoint(lat, 0.0)) for t, lat in fixes), "c")


def kinematics_by_bisect(trace, arcs, arc_position):
    """Reference for the forward sampler: a bisect and a walk back per checkpoint.

    Returns ``(position, heading, speed_kmh)`` at ``arc_position``.
    A trace whose segments up to the arc are all stationary has no heading here.
    """
    total = arcs[-1]
    if arc_position < 0 or arc_position > total + 1e-9:
        raise ValueError(f"arc position {arc_position} outside trace [0, {total}]")
    i = bisect_left(arcs, arc_position)
    seg = i if i < len(arcs) and arcs[i] == arc_position else i - 1
    seg = min(max(seg, 0), len(arcs) - 2)
    a, b = trace.fixes[seg], trace.fixes[seg + 1]
    seg_len = arcs[seg + 1] - arcs[seg]
    frac = min((arc_position - arcs[seg]) / seg_len, 1.0) if seg_len > 0 else 0.0
    position = interpolate_along(a.position, b.position, frac)
    j = seg
    while j >= 0 and coincident(trace.fixes[j].position, trace.fixes[j + 1].position):
        j -= 1
    if j < 0:
        raise ValueError("degenerate trace: no segment with a defined heading")
    heading = initial_bearing(trace.fixes[j].position, trace.fixes[j + 1].position)
    speed_kmh = seg_len / ((b.timestamp_ms - a.timestamp_ms) / 1000.0) * KMH_PER_MPS
    return position, heading, speed_kmh


# A step of a random drive: stay put, or move up to 30 m north and east.
_move = st.tuples(st.floats(-30, 30), st.floats(-30, 30))
_trace_step = st.one_of(st.none(), _move)


@st.composite
def drive_traces(draw):
    """Drives with stationary runs at the start (half of them), in the middle and at the end."""
    steps = [None] * draw(st.sampled_from([0, 0, 1, 3]))
    steps += [draw(_move)] + draw(st.lists(_trace_step, max_size=24))
    steps += [None] * draw(st.integers(0, 3))
    position, t = GeoPoint(32.8, -117.3), 0
    fixes = [TraceFix(t, position)]
    for step in steps:
        if step is not None:
            position = offset(position, north_m=step[0], east_m=step[1])
        t += draw(st.integers(1, 3000))
        fixes.append(TraceFix(t, position))
    return DriveTrace(tuple(fixes), "c")


class TestCheckpointsOracle:
    @settings(max_examples=300, deadline=None)
    @given(trace=drive_traces(), k=st.sampled_from([1.0, 2.0, 2.5, 3.0, 5.0]), whole_meters=st.booleans())
    def test_matches_bisect_reference(self, trace, k, whole_meters):
        # With whole-meter segment lengths, grid arcs land exactly on fixes,
        # stationary ones included, which exercises the boundary rule.
        calls = {"haversine": 0, "bearing": 0}

        def distance(a, b):
            calls["haversine"] += 1
            d = haversine_distance(a, b)
            return float(round(d)) if whole_meters else d

        def bearing(a, b):
            calls["bearing"] += 1
            return initial_bearing(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(advisory, "haversine_distance", distance)
            if whole_meters:
                trace = DriveTrace(trace.fixes, trace.clip_id)
            arcs = trace.arcs
            calls["haversine"] = 0
            mp.setattr(advisory, "initial_bearing", bearing)
            fixes = [f.position for f in trace.fixes]
            moving = [j for j in range(len(fixes) - 1) if not coincident(fixes[j], fixes[j + 1])]
            headed = set()  # the (from, to) fixes of each segment the reference takes a heading from

            def reference_bearing(a, b, plain=initial_bearing):
                headed.add((id(a), id(b)))
                return plain(a, b)

            mp.setattr(sys.modules[__name__], "initial_bearing", reference_bearing)
            expected = []
            for i in range(int(arcs[-1] / k + 1e-9) + 1):
                if i * k > arcs[-1] + ARC_TOLERANCE_M:
                    break  # the grid ends ARC_TOLERANCE_M past the trace
                try:
                    expected.append(Checkpoint(i * k, *kinematics_by_bisect(trace, arcs, i * k)))
                except ValueError as exc:
                    if "degenerate" not in str(exc):
                        raise
                    expected.append(None)  # in a parked start: the reference has no heading
            if not moving:
                with pytest.raises(ValueError, match="degenerate"):
                    checkpoints(trace, k)
                return
            calls["bearing"] = 0
            got = checkpoints(trace, k)

        assert calls["haversine"] == 0  # the arcs were measured when the trace was built
        if None in expected:  # a parked start takes the first moving segment's heading
            headed.add((id(fixes[moving[0]]), id(fixes[moving[0] + 1])))
        assert calls["bearing"] == len(headed)
        first_heading = initial_bearing(fixes[moving[0]], fixes[moving[0] + 1])
        assert len(got) == len(expected)
        for cp, want in zip(got, expected):
            if want is None:
                assert cp.heading == first_heading
            else:
                assert cp == want


def two_fix_trace() -> DriveTrace:
    """One northbound segment, whose length tests patch."""
    return DriveTrace((TraceFix(0, GeoPoint(0, 0)), TraceFix(10_000, GeoPoint(0.0001, 0))), "c")


class TestGridTolerance:
    def test_drive_just_short_of_a_multiple_replays(self, monkeypatch):
        # 3e-9 m short of 2 K: inside the grid's relative rounding guard at
        # K=5 (5e-9 m), but past the grid's absolute ARC_TOLERANCE_M.
        monkeypatch.setattr(advisory, "haversine_distance", lambda a, b: 10 - 3e-9)
        trace = two_fix_trace()
        assert [cp.arc_position for cp in checkpoints(trace, 5.0)] == [0.0, 5.0]
        timeline = run_replay(trace, HotspotMap(), AdvisoryConfig(sampling_distance=5.0))
        assert [d.checkpoint.arc_position for d in timeline.decisions] == [0.0, 5.0]

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.one_of(st.sampled_from([MIN_SAMPLING_DISTANCE_M, 0.5, 1.0, 2.0, 5.0, 7.5]), st.floats(MIN_SAMPLING_DISTANCE_M, 50)),
        multiple=st.integers(0, 400),
        short=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, -1.0]), st.floats(-2, 2)),
    )
    def test_every_grid_arc_passes_the_sample_bound(self, k, multiple, short):
        # Lengths near a multiple of K, short of it by up to twice the larger
        # of the two tolerances, 1e-9 m and 1e-9 K.
        length = multiple * k - short * 1e-9 * max(1.0, k)
        assume(length >= 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(advisory, "haversine_distance", lambda a, b: length)
            arcs = [cp.arc_position for cp in checkpoints(two_fix_trace(), k)]
        assert all(arc <= length + ARC_TOLERANCE_M for arc in arcs)
        # The grid that used to be sampled, minus a last arc that used to
        # raise: every drive that replayed keeps its checkpoints.
        before = [i * k for i in range(int(length / k + 1e-9) + 1)]
        assert arcs == (before if before[-1] <= length + ARC_TOLERANCE_M else before[:-1])


class TestEvaluateCheckpoint:
    def checkpoint_at(self, position, heading_deg=0.0, speed=50.0):
        from pedmap.advisory import Checkpoint
        from pedmap.geodesy import Heading

        return Checkpoint(0.0, position, Heading(heading_deg), speed)

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

    def test_node_half_a_micrometer_behind_counts_as_in_front(self):
        # Within COINCIDENT_M, so dead ahead by the rule, though it lies behind
        # the vehicle: the index must not prune it as behind.
        origin = GeoPoint(0, 0)
        hotspot_map = map_of(make_node(offset(origin, north_m=-0.5e-6)))
        decision = evaluate_checkpoint(self.checkpoint_at(origin), hotspot_map, AdvisoryConfig())
        assert decision.active
        assert decision.nearest_front_distance < COINCIDENT_M
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
        hotspot_map.index = spatial_index.BallTree([n.position for n in nodes], leaf_size=leaf_size)
        cfg = AdvisoryConfig(min_count=min_count, heading_threshold=heading_threshold)
        cp = Checkpoint(0.0, _ORIGIN, Heading(heading), speed)
        assert evaluate_checkpoint(cp, hotspot_map, cfg) == decide_by_scan(cp, hotspot_map, cfg)


# Checkpoints in both hemispheres, near both poles and on the antimeridian.
_SITES = [
    _ORIGIN,
    GeoPoint(-33.9, 151.2),
    GeoPoint(0.0, 100.0),
    GeoPoint(89.99, 10.0),
    GeoPoint(-89.99, -45.0),
    GeoPoint(0.0, 180.0),
    GeoPoint(-41.3, -180.0),
    GeoPoint(12.5, 179.9999995),
]
_HEADINGS = st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0, 360, exclude_max=True))
# Either side of 90 degrees, where the index starts to prune.
_EDGE_THRESHOLDS = (89.999999, 90.0, 90.000001, 180.0)


@st.composite
def _nodes_around(draw, site, heading):
    """Up to 40 nodes within 70 m: off the heading by any angle or by more
    than 90 degrees, close to abeam, dead behind, on the site's own parallel
    or meridian (exactly abeam on the equator), or within a few micrometers;
    some of them repeated. Each map mixes a few of these kinds, so that maps
    with nothing ahead are common."""
    kind_of = st.sampled_from(["bearing", "rear", "abeam", "behind", "parallel", "meridian", "close"])
    kinds = draw(st.one_of(kind_of.map(lambda kind: [kind]), st.sets(kind_of, min_size=2, max_size=3).map(sorted)))
    nodes = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        d = draw(st.floats(1e-3, 70))  # only "close" nodes sit on the site
        step = draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-7, 6e-4))  # degrees
        if kind == "bearing":
            position = destination(site, heading + draw(st.floats(0, 360)), d)
        elif kind == "rear":
            position = destination(site, heading + draw(st.floats(90, 270)), d)
        elif kind == "abeam":
            position = destination(site, heading + draw(st.sampled_from([90.0, 270.0])) + draw(st.floats(-1e-6, 1e-6)), d)
        elif kind == "behind":
            position = destination(site, heading + 180.0, d)
        elif kind == "parallel":
            position = GeoPoint(site.lat, wrap_lon(site.lon + step))
        elif kind == "meridian":
            position = GeoPoint(max(-90.0, min(90.0, site.lat + step)), site.lon)
        else:
            position = destination(site, draw(st.floats(0, 360)), draw(st.floats(0, 2 * COINCIDENT_M)))
        nodes.append(make_node(position, draw(st.integers(1, 3))))
    repeats = draw(st.lists(st.integers(0, 39), max_size=10))
    return nodes + [nodes[r] for r in repeats if r < len(nodes)]


class TestBehindPruneOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        site=st.sampled_from(_SITES),
        heading=_HEADINGS,
        speed=st.floats(0, 120),
        min_count=st.integers(1, 3),
        heading_threshold=st.floats(0, 180, exclude_min=True),
        leaf_size=st.integers(1, 8),
        data=st.data(),
    )
    def test_matches_linear_scan(self, site, heading, speed, min_count, heading_threshold, leaf_size, data):
        hotspot_map = HotspotMap(data.draw(_nodes_around(site, heading)))
        hotspot_map.index = spatial_index.BallTree([n.position for n in hotspot_map.nodes], leaf_size=leaf_size)
        cp = Checkpoint(0.0, site, Heading(heading), speed)
        for threshold in (heading_threshold, *_EDGE_THRESHOLDS):
            cfg = AdvisoryConfig(min_count=min_count, heading_threshold=threshold)
            assert evaluate_checkpoint(cp, hotspot_map, cfg) == decide_by_scan(cp, hotspot_map, cfg)


class TestDecisionCost:
    @pytest.mark.parametrize("heading_threshold", [90.0, 120.0])
    def test_nodes_behind_cost_no_haversine_up_to_90_degrees(self, monkeypatch, heading_threshold):
        # A dense map: every node is inside the 48.8 m radius and behind.
        rng = random.Random(6)
        nodes = [
            make_node(offset(_ORIGIN, north_m=-rng.uniform(1, 45), east_m=rng.uniform(-15, 15)))
            for _ in range(2000)
        ]
        hotspot_map = HotspotMap(nodes)
        hotspot_map.index  # noqa: B018 - builds the tree before counting
        cfg = AdvisoryConfig(heading_threshold=heading_threshold)
        cp = Checkpoint(0.0, _ORIGIN, Heading(0.0), 50.0)

        calls = 0
        real = haversine_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(spatial_index, "haversine_distance", counting)
        decision = evaluate_checkpoint(cp, hotspot_map, cfg)
        assert decision == decide_by_scan(cp, hotspot_map, cfg)
        if heading_threshold <= 90:
            assert calls == 0 and not decision.active
        else:
            # Above 90 degrees nothing is pruned as behind: hits are drawn as before.
            assert calls > 0 and decision.active

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
        cp = Checkpoint(0.0, _ORIGIN, Heading(0.0), 50.0)

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

    def test_decision_refines_only_the_point_it_uses(self, monkeypatch):
        # The dense in-front map above: points wait in the heap keyed by their
        # chord bound, so only the first hit, which qualifies, pays for a haversine.
        rng = random.Random(5)
        nodes = [
            make_node(offset(_ORIGIN, north_m=rng.uniform(1, 45), east_m=rng.uniform(-15, 15)))
            for _ in range(2000)
        ]
        hotspot_map = HotspotMap(nodes)
        hotspot_map.index  # noqa: B018 - builds the tree before counting
        cfg = AdvisoryConfig()
        cp = Checkpoint(0.0, _ORIGIN, Heading(0.0), 50.0)

        calls = 0
        real = haversine_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(spatial_index, "haversine_distance", counting)
        decision = evaluate_checkpoint(cp, hotspot_map, cfg)
        assert decision == decide_by_scan(cp, hotspot_map, cfg) and decision.active
        assert calls == 1


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


# Sampling distances whose grids share arcs in many combinations; lists may repeat one.
_sweep_ks = st.lists(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0]), min_size=2, max_size=6)


@st.composite
def replay_scenarios(draw):
    """A random drive, nodes scattered around its fixes, and a random config."""
    trace = draw(drive_traces())
    nodes = []
    for (north, east), count in draw(st.lists(st.tuples(_node_offsets, st.integers(1, 4)), max_size=30)):
        near = trace.fixes[draw(st.integers(0, len(trace.fixes) - 1))].position
        nodes.append(make_node(offset(near, north_m=north, east_m=east), count))
    cfg = AdvisoryConfig(
        min_count=draw(st.integers(1, 4)), heading_threshold=draw(st.floats(0, 180, exclude_min=True))
    )
    return trace, HotspotMap(nodes), cfg


@st.composite
def windows_along(draw, trace):
    """Disjoint ground-truth windows cut from the drive's length."""
    length = trace.arcs[-1]
    cuts = sorted({f * length for f in draw(st.lists(st.floats(0, 1), min_size=2, max_size=10))})
    return [GroundTruthWindow(trace.clip_id, start, end) for start, end in zip(cuts[::2], cuts[1::2])]


def sweep_by_replays(trace, hotspot_map, cfg, ks, windows):
    """The sweep with no shared decisions: every checkpoint of every K decided anew."""
    rows = []
    for k in sorted(set(ks)):
        k_cfg = with_sampling_distance(cfg, k)
        timeline = AdvisoryTimeline(
            tuple(evaluate_checkpoint(cp, hotspot_map, k_cfg) for cp in checkpoints(trace, k)), trace.clip_id, k
        )
        counts = match_advisories(timeline, windows)
        rows.append(EvalRow(k, precision(counts), recall(counts), counts))
    return EvalReport(tuple(rows))


class TestSharedDecisions:
    @settings(max_examples=150, deadline=None)
    @given(scenario=replay_scenarios(), ks=_sweep_ks, data=st.data())
    def test_sweep_matches_replays_from_scratch(self, scenario, ks, data):
        trace, hotspot_map, cfg = scenario
        windows = data.draw(windows_along(trace))
        try:
            expected = sweep_by_replays(trace, hotspot_map, cfg, ks, windows)
        except ValueError as exc:  # a degenerate drive, or a grid arc past the end
            with pytest.raises(ValueError) as raised:
                sweep_sampling_distance(trace, hotspot_map, cfg, ks, windows)
            assert str(raised.value) == str(exc)
            return
        assert sweep_sampling_distance(trace, hotspot_map, cfg, ks, windows) == expected

    @settings(max_examples=100, deadline=None)
    @given(scenario=replay_scenarios(), ks=_sweep_ks, rng=st.randoms(use_true_random=False))
    def test_shared_dict_keeps_timelines_in_any_order(self, scenario, ks, rng):
        trace, hotspot_map, cfg = scenario
        configs = {k: with_sampling_distance(cfg, k) for k in sorted(set(ks))}
        try:
            plain = {k: run_replay(trace, hotspot_map, k_cfg) for k, k_cfg in configs.items()}
        except ValueError:
            assume(False)
        shuffled = list(configs)
        rng.shuffle(shuffled)
        for order in (list(configs), list(configs)[::-1], shuffled):
            decided = {}
            for k in order:
                assert run_replay(trace, hotspot_map, configs[k], decided) == plain[k]

    def test_each_distinct_arc_decided_once(self, monkeypatch):
        trace, hotspot_map = TestRunReplay().single_hotspot_setup(length=300.0)
        cfg = AdvisoryConfig()
        ks = [2.0, 3.0, 4.0, 5.0]
        decided_arcs, replayed = [], []
        real_decide, real_replay = advisory.evaluate_checkpoint, evaluation.run_replay

        def deciding(cp, hotspot_map, cfg):
            decided_arcs.append(cp.arc_position)
            return real_decide(cp, hotspot_map, cfg)

        def replaying(trace, hotspot_map, cfg, *rest):
            replayed.append(cfg.sampling_distance)
            return real_replay(trace, hotspot_map, cfg, *rest)

        monkeypatch.setattr(advisory, "evaluate_checkpoint", deciding)
        monkeypatch.setattr(evaluation, "run_replay", replaying)
        sweep_sampling_distance(trace, hotspot_map, cfg, ks, [GroundTruthWindow(trace.clip_id, 135.0, 165.0)])
        grids = [[cp.arc_position for cp in checkpoints(trace, k)] for k in ks]
        union = sorted(set().union(*grids))
        assert replayed == ks
        assert sorted(decided_arcs) == union
        assert len(union) < sum(map(len, grids))

        decided_arcs.clear()
        run_replay(trace, hotspot_map, cfg)
        assert decided_arcs == grids[0]


def _long_drive(rng, start, bearing, stop_and_go=False):
    """About 1.4 km at 1 Hz in six 15 s legs, each at its own speed and turning
    up to 40 degrees; with ``stop_and_go`` every other leg is a stop."""
    t, position, fixes = 0, start, [TraceFix(0, start)]
    for leg in range(6):
        speed = 0.0 if stop_and_go and leg % 2 else rng.uniform(20.0, 110.0)
        bearing += rng.uniform(-40.0, 40.0)
        for _ in range(15):
            t += 1000
            position = destination(position, bearing, speed / KMH_PER_MPS)
            fixes.append(TraceFix(t, position))
    return DriveTrace(tuple(fixes), "c")


def _map_along(rng, trace, n, leaf_size):
    """``n`` nodes within 80 m of the drive's fixes, counts 1 to 4, indexed with ``leaf_size``."""
    nodes = [
        make_node(destination(rng.choice(trace.fixes).position, rng.uniform(0, 360), rng.uniform(0, 80)), rng.randint(1, 4))
        for _ in range(n)
    ]
    hotspot_map = HotspotMap(nodes)
    hotspot_map.index = spatial_index.BallTree([node.position for node in nodes], leaf_size=leaf_size)
    return hotspot_map


# (start, bearing, stop-and-go, config): a site, a stop-and-go drive, drives across ±180° and near a pole,
# and configs that change what a block's view must cover or what its queries may skip.
_BLOCKED_CASES = {
    "defaults": (GeoPoint(32.8, -117.3), 30.0, False, {}),
    "min_count": (GeoPoint(32.8, -117.3), 30.0, False, {"min_count": 3}),
    "heading_threshold": (GeoPoint(32.8, -117.3), 30.0, False, {"heading_threshold": 135.0}),
    "stop_and_go": (GeoPoint(32.8, -117.3), 30.0, True, {}),
    "antimeridian": (GeoPoint(-20.0, 179.995), 90.0, False, {}),
    "pole": (GeoPoint(89.995, 0.0), 0.0, False, {}),
    "safety_factor": (GeoPoint(32.8, -117.3), 30.0, False, {"safety_factor": 20.0}),
    "k_200": (GeoPoint(32.8, -117.3), 30.0, True, {"sampling_distance": 200.0}),
}


class TestBlockedReplay:
    """``run_replay`` decides blocks of checkpoints from views of the index; it
    must give the decisions of ``evaluate_checkpoint`` on the map itself."""

    @pytest.mark.parametrize("leaf_size", [2, 16])
    @pytest.mark.parametrize("case", list(_BLOCKED_CASES))
    def test_replay_and_sweep_match_decisions_on_the_map(self, case, leaf_size):
        start, bearing, stop_and_go, fields = _BLOCKED_CASES[case]
        rng = random.Random(case)
        trace = _long_drive(rng, start, bearing, stop_and_go)
        hotspot_map = _map_along(rng, trace, 400, leaf_size)
        cfg = AdvisoryConfig(**fields)
        expected = tuple(evaluate_checkpoint(cp, hotspot_map, cfg) for cp in checkpoints(trace, cfg.sampling_distance))
        assert any(d.active for d in expected)
        assert run_replay(trace, hotspot_map, cfg).decisions == expected
        windows = [GroundTruthWindow("c", 100.0, 300.0), GroundTruthWindow("c", 500.0, 700.0)]
        ks = [2.0, 3.0, 5.0, 200.0]
        assert sweep_sampling_distance(trace, hotspot_map, cfg, ks, windows) == sweep_by_replays(trace, hotspot_map, cfg, ks, windows)

    def test_crosses_the_antimeridian(self):
        trace = _long_drive(random.Random("antimeridian"), *_BLOCKED_CASES["antimeridian"][:3])
        assert {math.copysign(1.0, fix.position.lon) for fix in trace.fixes} == {-1.0, 1.0}

    def test_every_checkpoint_of_a_block_starts_from_its_cover(self, monkeypatch):
        # Building a block's cover bounds the root once; a checkpoint's query
        # that fell back to the root would bound it again.
        rng = random.Random(3)
        trace = _long_drive(rng, GeoPoint(32.8, -117.3), 30.0)
        hotspot_map = _map_along(rng, trace, 2000, 16)
        root = hotspot_map.index._root
        covers, root_bounds = [], 0
        real_dist, real_around = spatial_index.dist, spatial_index.BallTree.around

        def counting(a, b):
            nonlocal root_bounds
            root_bounds += b is root.center
            return real_dist(a, b)

        def around(tree, points, radius_m):
            view = real_around(tree, points, radius_m)
            covers.append(view._cover)
            return view

        monkeypatch.setattr(spatial_index, "dist", counting)
        monkeypatch.setattr(spatial_index.BallTree, "around", around)
        timeline = run_replay(trace, hotspot_map, AdvisoryConfig())
        assert len(covers) == math.ceil(len(timeline.decisions) / advisory._BLOCK) > 1
        assert all(1 < len(cover) <= spatial_index._COVER_BALLS and root not in cover for cover in covers)
        assert root_bounds == len(covers)

    def test_first_overflow_in_a_block_raises_not_the_largest(self):
        # One block holds checkpoints at 180,000 km/h and then 360,000 km/h,
        # and at this safety factor both stopping distances overflow.
        start = GeoPoint(0, 0)
        arcs_ms = [(0.0, 0), (10.0, 1000), (60.0, 1001), (160.0, 1002)]
        trace = DriveTrace(tuple(TraceFix(ms, offset(start, north_m=arc)) for arc, ms in arcs_ms), "c")
        cfg = AdvisoryConfig(safety_factor=1e305, sampling_distance=10.0)
        speeds = [cp.speed for cp in checkpoints(trace, 10.0)]
        assert len(speeds) <= advisory._BLOCK and max(speeds) == pytest.approx(360_000)
        with pytest.raises(ValueError, match="overflows"):
            stopping_distance(max(speeds), cfg)
        with pytest.raises(ValueError, match=r"^stopping distance overflows at 180000 km/h$"):
            run_replay(trace, map_of(make_node(start)), cfg)


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

    def test_non_finite_value_raises(self):
        cp = Checkpoint(0.0, GeoPoint(0, 0), Heading(0.0), 50.0)
        timeline = AdvisoryTimeline((AdvisoryDecision(cp, False, math.nan),), "c", 2.0)
        # json's own message; Python 3.12 and later append the value, so match its start.
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            list(timeline_to_jsonl(timeline))


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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1_000,1_0,2,c", "non-integer timestamp '1_000'"),
            ("\u0661\u0662,1,2,c", "non-integer timestamp '\u0661\u0662'"),
            ("1000,1_0,2,c", "non-numeric coordinate '1_0','2'"),
            ("1000,1,\u0662,c", "non-numeric coordinate '1','\u0662'"),
        ],
    )
    def test_numbers_are_ascii_without_underscores(self, row, message):
        with pytest.raises(ParseError) as info:
            parse_trace_csv(io.StringIO(self.HEADER + "0,0,0,c\n" + row + "\n"))
        assert str(info.value) == f"line 3: {message}"

    def test_unterminated_quote_names_its_line(self):
        with pytest.raises(ParseError, match="^line 3: unexpected end of data$"):
            parse_trace_csv(io.StringIO(self.HEADER + '0,0,0,c\n1000,0.0001,0,"c\n2000,0.0002,0,c\n'))


class TestWithSamplingDistance:
    def test_override_revalidates(self):
        cfg = with_sampling_distance(AdvisoryConfig(), 5.0)
        assert cfg.sampling_distance == 5.0
        with pytest.raises(ValueError):
            with_sampling_distance(AdvisoryConfig(), -1.0)
