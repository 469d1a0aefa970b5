"""The CLI's ``build``, ``replay`` and ``sweep`` jobs as the benchmark drives them,
the wrappers that trace and count them, and the checks on their outputs.

Each stage calls pedmap's public functions in the order ``pedmap.cli`` does, on
the files the generator wrote, and writes the same output files the CLI would.
Every call goes through a module attribute (``ingest.load_map``, not a
from-import), so the wrappers in ``span_targets`` and ``count_targets`` see it.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from typing import Optional

from pedmap import advisory, evaluation, geodesy, ingest, spatial_index

from tracing import Counters, Spans

SWEEP_KS = [2.0, 3.0, 4.0, 5.0]
STAGES = ("build", "setup", "replay", "sweep")
M_PER_DEG = geodesy.EARTH_RADIUS_M * math.pi / 180.0


class Pipeline:
    """One workload's inputs and output paths, with one method per stage."""

    def __init__(self, inputs, work_dir: str):
        self.inputs = inputs
        self.cfg = advisory.AdvisoryConfig(min_count=inputs.min_count)
        self.map_path = os.path.join(work_dir, "map.json")
        self.jsonl_path = os.path.join(work_dir, "timeline.jsonl")
        self.tsv_path = os.path.join(work_dir, "sweep.tsv")
        self.spans: Optional[Spans] = None

    def _span(self, name: str):
        return self.spans.span(name) if self.spans is not None else nullcontext()

    def run(self, stage: str, *args):
        """Run one stage, under a ``stage.<name>`` span when tracing."""
        with self._span("stage." + stage):
            return getattr(self, stage)(*args)

    def build(self) -> ingest.HotspotMap:
        """``pedmap build``: parse each training CSV, aggregate, merge, save."""
        hotspot_map = ingest.HotspotMap()
        for path in self.inputs.training_csvs:
            with open(path, "r", encoding="utf-8", newline="") as f:
                records = ingest.parse_detection_log(f)
            hotspot_map = ingest.merge_maps(hotspot_map, ingest.build_map(records, "max"))
        ingest.save_map(hotspot_map, self.map_path)
        return hotspot_map

    def setup(self) -> ingest.HotspotMap:
        """The wait before the first advisory: load the map file and build its index."""
        hotspot_map = ingest.load_map(self.map_path)
        hotspot_map.index  # noqa: B018 - builds the ball tree
        return hotspot_map

    def _trace(self) -> advisory.DriveTrace:
        with open(self.inputs.trace_csv, "r", encoding="utf-8", newline="") as f:
            traces = advisory.parse_trace_csv(f)
        (trace,) = [t for t in traces if t.clip_id == self.inputs.clip_id]
        return trace

    def replay(self, hotspot_map: ingest.HotspotMap) -> advisory.AdvisoryTimeline:
        """``pedmap replay -o``: trace CSV parse to the last JSONL byte written."""
        timeline = advisory.run_replay(self._trace(), hotspot_map, self.cfg)
        with self._span("advisory.jsonl"):
            lines = "".join(line + "\n" for line in advisory.timeline_to_jsonl(timeline))
            with open(self.jsonl_path, "w", encoding="utf-8") as f:
                f.write(lines)
        return timeline

    def sweep(self, hotspot_map: ingest.HotspotMap):
        """``pedmap sweep --ks 2,3,4,5``: trace parse to the TSV report written."""
        trace = self._trace()
        with open(self.inputs.ground_truth, "r", encoding="utf-8") as f:
            windows = [w for w in evaluation.load_ground_truth(f) if w.clip_id == trace.clip_id]
        report = evaluation.sweep_sampling_distance(trace, hotspot_map, self.cfg, SWEEP_KS, windows)
        with self._span("evaluation.report"):
            text = evaluation.report_to_tsv(report)
            with open(self.tsv_path, "w", encoding="utf-8") as f:
                f.write(text)
        return report, trace, windows


# --- wrappers -----------------------------------------------------------------


def span_targets(spans: Spans) -> list:
    """Where each per-layer span is attached, and the span's name."""

    def named(name):
        return lambda fn: spans.wrap(fn, name)

    return [
        (ingest, "parse_detection_log", named("ingest.parse")),
        (ingest, "build_map", named("ingest.aggregate")),
        (ingest, "merge_maps", named("ingest.merge")),
        (ingest, "save_map", named("ingest.save")),
        (ingest, "load_map", named("ingest.load")),
        (ingest.HotspotMap, "build_spatial_index", named("spatial_index.build")),
        (spatial_index.BallTree, "within_radius", named("spatial_index.query")),
        (advisory, "parse_trace_csv", named("advisory.trace_parse")),
        (advisory, "run_replay", named("advisory.replay")),
        (evaluation, "run_replay", named("advisory.replay")),
        (advisory, "checkpoints", named("advisory.checkpoints")),
        (advisory, "evaluate_checkpoint", named("advisory.decide")),
        (evaluation, "sweep_sampling_distance", named("evaluation.sweep")),
        (evaluation, "match_advisories", named("evaluation.match")),
    ]


def count_targets(c: Counters) -> list:
    """Counting wrappers, including haversine and bearing calls as bound in each caller."""

    def sized(name):
        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                c[name] += len(result)
                return result

            return counted

        return make

    def queries(fn):
        def within_radius(self, query, radius_m):
            hits = fn(self, query, radius_m)
            c["spatial_index.queries"] += 1
            c["spatial_index.hits"] += len(hits)
            c["spatial_index.nonempty"] += bool(hits)
            return hits

        return within_radius

    def index_build(fn):
        def build_spatial_index(*args, **kwargs):
            before = c["spatial_index.haversine"]
            tree = fn(*args, **kwargs)
            c["spatial_index.build_haversine"] += c["spatial_index.haversine"] - before
            return tree

        return build_spatial_index

    def decisions(fn):
        def evaluate_checkpoint(cp, hotspot_map, cfg):
            decision = fn(cp, hotspot_map, cfg)
            c["advisory.decisions"] += 1
            c["advisory.active"] += decision.active
            return decision

        return evaluate_checkpoint

    def matches(fn):
        def match_advisories(timeline, windows):
            counts = fn(timeline, windows)
            c["evaluation.events"] += counts.correct + counts.false_advisories
            c["evaluation.windows"] = len(windows)
            return counts

        return match_advisories

    def calls(name):
        return lambda fn: c.calls(fn, name)

    return [
        (ingest, "parse_detection_log", sized("ingest.rows")),
        (ingest, "split_intervals", sized("ingest.intervals")),
        (ingest.HotspotMap, "build_spatial_index", index_build),
        (spatial_index, "haversine_distance", calls("spatial_index.haversine")),
        (spatial_index.BallTree, "within_radius", queries),
        (advisory, "haversine_distance", calls("advisory.haversine")),
        (advisory, "initial_bearing", calls("advisory.bearing")),
        (advisory, "checkpoints", sized("advisory.checkpoints")),
        (advisory, "evaluate_checkpoint", decisions),
        (evaluation, "run_replay", calls("evaluation.replays")),
        (evaluation, "match_advisories", matches),
    ]


# --- output checks --------------------------------------------------------------


class LinearScan:
    """The decision rule evaluated over every eligible node, without the index.

    Eligible nodes are kept sorted by latitude. Great-circle distance is never
    less than ``R * |dlat|``, so nodes outside the latitude band of the search
    radius (plus a 1 m margin for rounding) cannot be within it.
    """

    def __init__(self, hotspot_map: ingest.HotspotMap, cfg: advisory.AdvisoryConfig):
        self.cfg = cfg
        eligible = [(n.position.lat, i, n) for i, n in enumerate(hotspot_map.nodes) if n.count >= cfg.min_count]
        eligible.sort(key=lambda e: e[0])
        self.lats = [e[0] for e in eligible]
        self.nodes = [(i, n) for _, i, n in eligible]

    def candidates(self, cp: advisory.Checkpoint, radius: float):
        band = (radius + 1.0) / M_PER_DEG
        lo = bisect_left(self.lats, cp.position.lat - band)
        hi = bisect_right(self.lats, cp.position.lat + band)
        return self.nodes[lo:hi]

    def decide(self, cp: advisory.Checkpoint) -> tuple[advisory.AdvisoryDecision, bool]:
        """The oracle's decision, and whether any node lay within the radius."""
        radius = advisory.stopping_distance(cp.speed, self.cfg)
        best = None
        any_hit = False
        for i, node in self.candidates(cp, radius):
            d = geodesy.haversine_distance(cp.position, node.position)
            if d > radius:
                continue
            any_hit = True
            if d < advisory.COINCIDENT_M:
                sep = 0.0
            else:
                bearing = geodesy.initial_bearing(cp.position, node.position)
                sep = geodesy.angular_separation(cp.heading, bearing)
                if sep > self.cfg.heading_threshold:
                    continue
            if best is None or (d, i) < best[0]:
                best = ((d, i), sep)
        if best is None:
            return advisory.AdvisoryDecision(cp, False, radius), any_hit
        return advisory.AdvisoryDecision(cp, True, radius, best[0][0], best[1]), any_hit


def sweep_oracle(report, replay_timeline, trace, hotspot_map, cfg, windows) -> list[bool]:
    """Per sweep row: does it equal ``match_advisories`` on a separate ``run_replay``?

    The replay stage's timeline is already a separate ``run_replay`` at the
    default K, so it is reused for that row.
    """
    ok = []
    for row in report.rows:
        k = row.sampling_distance
        if k == replay_timeline.sampling_distance:
            timeline = replay_timeline
        else:
            timeline = advisory.run_replay(trace, hotspot_map, advisory.with_sampling_distance(cfg, k))
        counts = evaluation.match_advisories(timeline, windows)
        expected = evaluation.EvalRow(k, evaluation.precision(counts), evaluation.recall(counts), counts)
        ok.append(row == expected)
    ok.append([r.sampling_distance for r in report.rows] == SWEEP_KS)
    return ok
