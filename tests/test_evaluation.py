import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import map_of, make_node, northbound_trace, offset, random_scenario
from pedmap import advisory, evaluation
from pedmap.advisory import AdvisoryConfig, AdvisoryDecision, AdvisoryTimeline, Checkpoint, Transition, run_replay
from pedmap.evaluation import (
    EvalCounts,
    EvalReport,
    EvalRow,
    GroundTruthWindow,
    load_ground_truth,
    match_advisories,
    precision,
    recall,
    report_to_markdown,
    report_to_tsv,
    sweep_sampling_distance,
)
from pedmap.geodesy import GeoPoint, Heading, haversine_distance
from pedmap.ingest import HotspotMap


def fake_timeline(active_arcs, sampling_distance=2.0, clip_id="c", end_arc=None):
    """A timeline active exactly at the given grid arcs."""
    active = set(active_arcs)
    end = end_arc if end_arc is not None else (max(active) + 4 * sampling_distance if active else 20.0)
    decisions = []
    arc = 0.0
    while arc <= end + 1e-9:
        cp = Checkpoint(arc, GeoPoint(0, 0), Heading(0), 30.0)
        is_active = any(abs(arc - a) < 1e-9 for a in active)
        decisions.append(AdvisoryDecision(cp, is_active, 25.0, 5.0 if is_active else None, 0.0 if is_active else None))
        arc += sampling_distance
    return AdvisoryTimeline(tuple(decisions), clip_id, sampling_distance)


def window(start, end, clip_id="c", label=""):
    return GroundTruthWindow(clip_id, start, end, label)


class TestGroundTruthWindow:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            window(10.0, 10.0)
        with pytest.raises(ValueError):
            window(-5.0, 10.0)


class TestMatchAdvisories:
    def test_span_inside_window(self):
        timeline = fake_timeline([10.0, 12.0, 14.0])
        counts = match_advisories(timeline, [window(5.0, 20.0)])
        assert counts == EvalCounts(1, 0, 0)

    def test_span_misses_window(self):
        timeline = fake_timeline([10.0, 12.0])
        counts = match_advisories(timeline, [window(100.0, 120.0)])
        assert counts == EvalCounts(0, 1, 1)

    def test_mixed_spans_and_windows(self):
        # Three correct spans, one false span, one untouched window: P = R = 0.75.
        timeline = fake_timeline([10.0, 12.0, 30.0, 32.0, 50.0, 52.0, 90.0])
        windows = [window(8.0, 14.0), window(28.0, 34.0), window(48.0, 54.0), window(200.0, 210.0)]
        counts = match_advisories(timeline, windows)
        assert counts == EvalCounts(3, 1, 1)
        assert precision(counts) == 0.75
        assert recall(counts) == 0.75

    def test_one_span_covers_two_windows(self):
        timeline = fake_timeline([10.0, 12.0, 14.0, 16.0, 18.0, 20.0])
        counts = match_advisories(timeline, [window(9.0, 13.0), window(17.0, 21.0)])
        assert counts == EvalCounts(1, 0, 0)

    def test_preemptive_onset_credited_one_k_ahead(self):
        # Span ends at 10; with K=2 the extension reaches 12, overlapping [11, 15).
        timeline = fake_timeline([8.0, 10.0])
        assert match_advisories(timeline, [window(11.0, 15.0)]) == EvalCounts(1, 0, 0)

    def test_touching_extension_is_not_overlap(self):
        # Extension ends exactly where the window starts: zero-length intersection.
        timeline = fake_timeline([8.0, 10.0])
        assert match_advisories(timeline, [window(12.0, 15.0)]) == EvalCounts(0, 1, 1)

    def test_no_advisories(self):
        timeline = fake_timeline([])
        assert match_advisories(timeline, [window(5.0, 10.0)]) == EvalCounts(0, 0, 1)

    def test_clip_mismatch_rejected(self):
        timeline = fake_timeline([10.0])
        with pytest.raises(ValueError, match="clip mismatch"):
            match_advisories(timeline, [window(5.0, 10.0, clip_id="other")])


def reference_transitions(timeline):
    """ON/OFF at every change of the active flag, starting from inactive."""
    events = []
    prev_active = False
    for d in timeline.decisions:
        if d.active != prev_active:
            events.append(Transition(d.checkpoint.arc_position, d.checkpoint.position, "ON" if d.active else "OFF"))
            prev_active = d.active
    return events


def reference_match(timeline, windows):
    """Events as (first, last) active arcs of each maximal active run, matched one K wide on each side."""
    spans = []
    start = last = None
    for d in timeline.decisions:
        arc = d.checkpoint.arc_position
        if d.active:
            if start is None:
                start = arc
            last = arc
        elif start is not None:
            spans.append((start, last))
            start = None
    if start is not None:
        spans.append((start, last))
    k = timeline.sampling_distance
    correct = false_advisories = 0
    matched = [False] * len(windows)
    for span_start, span_end in spans:
        hits = [i for i, w in enumerate(windows) if min(span_end + k, w.end_m) - max(span_start - k, w.start_m) > 0]
        for i in hits:
            matched[i] = True
        correct += bool(hits)
        false_advisories += not hits
    return EvalCounts(correct, false_advisories, matched.count(False))


class TestAdvisoryEventsOracle:
    @given(
        flags=st.lists(st.booleans(), max_size=40),
        k=st.sampled_from([0.5, 2.0, 3.0, 7.5]),
        cuts=st.lists(st.floats(0, 100), max_size=8),
    )
    def test_events_match_reference_loops(self, flags, k, cuts):
        decisions = tuple(
            AdvisoryDecision(Checkpoint(i * k, GeoPoint(0, i * 1e-4), Heading(0), 30.0), active, 25.0)
            for i, active in enumerate(flags)
        )
        timeline = AdvisoryTimeline(decisions, "c", k)
        bounds = sorted(set(cuts))
        windows = [window(a, b) for a, b in zip(bounds[::2], bounds[1::2])]
        assert timeline.transitions == reference_transitions(timeline)
        assert len(timeline.events) == sum(t.kind == "ON" for t in timeline.transitions)
        assert match_advisories(timeline, windows) == reference_match(timeline, windows)


class TestPrecisionRecall:
    def test_direct_ratio(self):
        assert precision(EvalCounts(3, 1, 1)) == 0.75
        assert recall(EvalCounts(3, 1, 1)) == 0.75

    def test_undefined_precision(self):
        counts = EvalCounts(0, 0, 4)
        assert precision(counts) is None
        assert recall(counts) == 0.0

    def test_all_false_advisories(self):
        counts = EvalCounts(0, 3, 2)
        assert precision(counts) == 0.0
        assert recall(counts) == 0.0

    def test_undefined_recall(self):
        counts = EvalCounts(0, 2, 0)
        assert recall(counts) is None

    def test_in_unit_interval(self):
        rng = random.Random(77)
        for _ in range(200):
            counts = EvalCounts(rng.randrange(5), rng.randrange(5), rng.randrange(5))
            for metric in (precision(counts), recall(counts)):
                assert metric is None or 0.0 <= metric <= 1.0


class TestSweep:
    def scenario(self):
        start = GeoPoint(0, 0)
        trace = northbound_trace(start, 260.0, 40.0)
        hotspot_map = map_of(make_node(offset(start, north_m=150.0)))
        windows = [GroundTruthWindow("test", 135.0, 165.0, "hotspot")]
        return trace, hotspot_map, windows

    def test_rows_sorted_and_deduped(self):
        trace, hotspot_map, windows = self.scenario()
        report = sweep_sampling_distance(trace, hotspot_map, AdvisoryConfig(), [5, 2, 3, 2], windows)
        assert [row.sampling_distance for row in report.rows] == [2.0, 3.0, 5.0]

    def test_perfect_single_hotspot(self):
        trace, hotspot_map, windows = self.scenario()
        report = sweep_sampling_distance(trace, hotspot_map, AdvisoryConfig(), [2.0], windows)
        row = report.rows[0]
        assert row.counts == EvalCounts(1, 0, 0)
        assert row.precision == 1.0 and row.recall == 1.0

    def test_empty_map_rows(self):
        trace, _, windows = self.scenario()
        report = sweep_sampling_distance(trace, HotspotMap(), AdvisoryConfig(), [2.0, 4.0], windows)
        for row in report.rows:
            assert row.precision is None
            assert row.recall == 0.0
            assert row.counts == EvalCounts(0, 0, 1)

    def test_empty_ks_rejected(self):
        trace, hotspot_map, windows = self.scenario()
        with pytest.raises(ValueError):
            sweep_sampling_distance(trace, hotspot_map, AdvisoryConfig(), [], windows)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, 1e-300])
    def test_bad_k_fails_before_any_replay(self, monkeypatch, bad):
        trace, hotspot_map, windows = self.scenario()
        replayed = []

        def recording(trace, hotspot_map, cfg, *rest):
            replayed.append(cfg.sampling_distance)
            return run_replay(trace, hotspot_map, cfg, *rest)

        monkeypatch.setattr(evaluation, "run_replay", recording)
        with pytest.raises(ValueError, match="sampling_distance"):
            sweep_sampling_distance(trace, hotspot_map, AdvisoryConfig(), [2.0, 3.0, bad], windows)
        assert replayed == []

    def test_sweep_reuses_the_arcs_measured_with_the_trace(self, monkeypatch):
        trace, hotspot_map, windows = self.scenario()
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return haversine_distance(a, b)

        monkeypatch.setattr(advisory, "haversine_distance", counting)
        sweep_sampling_distance(trace, hotspot_map, AdvisoryConfig(), [2.0, 3.0, 4.0, 5.0], windows)
        assert calls == []

    def test_recall_nesting_on_random_scenarios(self):
        rng = random.Random(55)
        for _ in range(12):
            scenario = random_scenario(rng)
            report = sweep_sampling_distance(
                scenario.trace, scenario.hotspot_map, AdvisoryConfig(), [2.0, 4.0], scenario.windows
            )
            r2, r4 = report.rows[0].recall, report.rows[1].recall
            assert r2 is not None and r4 is not None
            assert r2 >= r4

    def test_deterministic(self):
        rng = random.Random(60)
        scenario = random_scenario(rng)
        args = (scenario.trace, scenario.hotspot_map, AdvisoryConfig(), [2.0, 3.0], scenario.windows)
        assert report_to_tsv(sweep_sampling_distance(*args)) == report_to_tsv(
            sweep_sampling_distance(*args)
        )


class TestGroundTruthIO:
    def test_load(self):
        text = '[{"clip_id": "c", "start_m": 20.5, "end_m": 40.0, "label": "crosswalk"}]'
        windows = load_ground_truth(io.StringIO(text))
        assert windows == [GroundTruthWindow("c", 20.5, 40.0, "crosswalk")]

    def test_sorted_on_load(self):
        text = '[{"clip_id": "c", "start_m": 50, "end_m": 60}, {"clip_id": "c", "start_m": 10, "end_m": 20}]'
        windows = load_ground_truth(io.StringIO(text))
        assert [w.start_m for w in windows] == [10.0, 50.0]

    def test_overlap_rejected(self):
        text = '[{"clip_id": "c", "start_m": 10, "end_m": 30}, {"clip_id": "c", "start_m": 25, "end_m": 40}]'
        with pytest.raises(ValueError, match="overlap"):
            load_ground_truth(io.StringIO(text))

    def test_non_array_rejected(self):
        with pytest.raises(ValueError, match="array"):
            load_ground_truth(io.StringIO('{"clip_id": "c"}'))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1", "expected an object"),
            ('{"start_m": 0, "end_m": 5}', "clip_id"),
            ('{"clip_id": "c", "label": null, "start_m": 0, "end_m": 5}', "label"),
            ('{"clip_id": "c", "start_m": "0", "end_m": 5}', "numbers"),
            ('{"clip_id": "c", "start_m": false, "end_m": 5}', "numbers"),
            ('{"clip_id": "c", "start_m": 0}', "numbers"),
            ('{"clip_id": "c", "start_m": 0, "end_m": 1e400}', "inf"),
            ('{"clip_id": "c", "start_m": NaN, "end_m": 5}', "nan"),
            ('{"clip_id": "c", "start_m": 0, "end_m": 1%s}' % ("0" * 400), "too large"),
        ],
    )
    def test_bad_entry_named(self, entry, message):
        text = '[{"clip_id": "c", "start_m": 0, "end_m": 5}, ' + entry + "]"
        with pytest.raises(ValueError, match=f"^ground-truth entry 1: .*{message}"):
            load_ground_truth(io.StringIO(text))

    def test_window_bounds_must_be_finite(self):
        with pytest.raises(ValueError, match="inf"):
            GroundTruthWindow("c", 0.0, math.inf)


class TestReportRendering:
    def report(self):
        trace, hotspot_map, windows = TestSweep().scenario()
        return sweep_sampling_distance(trace, hotspot_map, AdvisoryConfig(), [2.0], windows)

    def test_tsv_layout(self):
        text = report_to_tsv(self.report())
        lines = text.splitlines()
        assert lines[0] == "K_m\tprecision\trecall\tcorrect\tfalse\tmissed"
        assert lines[1] == "2\t1\t1\t1\t0\t0"

    def test_tsv_undefined_marker(self):
        trace, _, windows = TestSweep().scenario()
        report = sweep_sampling_distance(trace, HotspotMap(), AdvisoryConfig(), [2.0], windows)
        row_text = report_to_tsv(report).splitlines()[1]
        assert row_text.split("\t")[1] == "—"

    def test_markdown_mirrors_table_layout(self):
        text = report_to_markdown(self.report())
        assert text.splitlines()[0] == "| Sampling Distance (m) | Precision | Recall |"
        assert "| 2 | 1 | 1 |" in text

    def test_markdown_prints_zero_with_flag_when_undefined(self):
        trace, _, windows = TestSweep().scenario()
        report = sweep_sampling_distance(trace, HotspotMap(), AdvisoryConfig(), [2.0], windows)
        text = report_to_markdown(report)
        assert "| 2 | 0* | 0 |" in text
        assert "undefined" in text

    def test_k_labels_read_back_as_their_k(self):
        # ``.6g`` prints 2.0000001 and 2.0000002 both as 2: a K that its six
        # digits do not read back as is printed in full, and no other changes.
        ks = [0.1, 1 / 3, 2.0, 2.0000001, 2.0000002, 2.5, 1e6, 1234567.0]
        report = EvalReport(tuple(EvalRow(k, 1.0, 1.0, EvalCounts(1, 0, 0)) for k in ks))
        expected = ["0.1", "0.3333333333333333", "2", "2.0000001", "2.0000002", "2.5", "1e+06", "1234567.0"]
        tsv = [line.split("\t")[0] for line in report_to_tsv(report).splitlines()[1:]]
        markdown = [line.split(" | ")[0].removeprefix("| ") for line in report_to_markdown(report).splitlines()[2:]]
        assert tsv == markdown == expected
        assert [float(label) for label in tsv] == ks
