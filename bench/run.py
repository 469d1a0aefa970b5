#!/usr/bin/env python3
"""Pipeline benchmark for pedmap: build a hotspot map, replay a drive, sweep K.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fleet-replay --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, runs the four stages of the
CLI's jobs (build, setup, replay, sweep) on them in this process, checks the
outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced pass and a counting
pass. See bench/README.md for what each metric means and which workload
exercises it. Scratch files go under ``.bench_build/bench`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fleet-build", "fleet-replay", "vehicle-sweep")

# Cycles of the four stages repeat until --seconds have passed; at least
# MIN_CYCLES run, so setup's median is never one sample, and at most MAX_CYCLES.
MIN_CYCLES = 3
MAX_CYCLES = 100
ORACLE_STRIDE = 7  # check every 7th replay decision against the linear scan

# On a shared virtual machine the CPU's speed can change by up to 2x in spells
# of seconds to minutes. A fixed pure-Python loop, timed after every stage
# repetition, tracks that speed, so end-to-end times are reported at a
# reference speed: a stage's median time scaled by CALIBRATION_REF_S over the
# loop's mean time in the same run. The mean, because the loop's times are
# bimodal and the run's average speed is what the stage times reflect.
CALIBRATION_LOOPS = 40_000
CALIBRATION_REF_S = 0.015


def calibrate() -> float:
    """Seconds taken by a fixed loop of pure-Python work like pedmap's: tuples, a dict, float math."""
    seen = {}
    acc = 0.0
    gc.disable()  # a collection of the program's heap must not land in the loop
    try:
        t0 = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            item = (i, math.sqrt(i + 1.0), str(i % 97))
            seen[item[2]] = item
            acc += math.sin(item[1])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="how long cycles of the four stages repeat")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="shrink every input size (tests use 0.02)")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` inside the checkout, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": args.seed,
        "git_commit": git_commit(ROOT),
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """Runs one workload's stages, times them, and counts failed operations."""

    def __init__(self, pipe, pipeline, tracing):
        self.pipe = pipe
        self.pl = pipeline
        self.tr = tracing
        self.attempted = 0
        self.failures: list[str] = []
        self.times = {s: [] for s in pipeline.STAGES}
        self.traced_times = {s: [] for s in pipeline.STAGES}
        self.digests: dict[str, str] = {}
        self.first: dict[str, object] = {}
        self.hotspot_map = None
        self.built_nodes = None
        self.calibrations: list[float] = []
        self.outputs = {"build": pipe.map_path, "replay": pipe.jsonl_path, "sweep": pipe.tsv_path}

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"bench: FAILED {message}", file=sys.stderr)

    def run_stage(self, stage: str, record: list[float]):
        """One timed repetition of a stage; the output is hashed outside the timing."""
        if stage in ("replay", "sweep") and self.hotspot_map is None:
            return None
        if stage == "setup":
            self.hotspot_map = None  # let the previous map go before loading the next
        args = () if stage in ("build", "setup") else (self.hotspot_map,)
        self.attempted += 1
        gc.collect()  # start each repetition from a clean heap, as a fresh CLI process would
        try:
            t0 = time.perf_counter()
            out = self.pipe.run(stage, *args)
            elapsed = time.perf_counter() - t0
        except Exception:
            self.fail(f"{stage}: {traceback.format_exc(limit=4)}")
            return None
        finally:
            self.calibrations.append(calibrate())
        record.append(elapsed)
        path = self.outputs.get(stage)
        if path is not None:
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            if self.digests.setdefault(stage, digest) != digest:
                self.fail(f"{stage}: output {os.path.basename(path)} differs from the first repetition")
        if stage == "build" and self.built_nodes is None:
            self.built_nodes = out.nodes
        if stage == "setup":
            self.hotspot_map = out
            if self.built_nodes is not None:
                self.attempted += 1
                if out.nodes != self.built_nodes:
                    self.fail("setup: load_map(save_map(m)) does not give back m's nodes")
                self.built_nodes = None
        if stage not in ("build", "setup"):
            self.first.setdefault(stage, out)
        return out

    def ready(self, stage: str) -> bool:
        """Whether the stages this one reads from have produced their output."""
        if stage == "setup":
            return "build" in self.digests
        if stage in ("replay", "sweep"):
            return self.hotspot_map is not None
        return True

    def schedule(self, seconds: float, min_cycles: int, body) -> None:
        """Call ``body(stage)`` on each ready stage in pipeline order, cycle after cycle.

        Cycles continue until ``seconds`` have passed and at least
        ``min_cycles`` have run, so every stage gets the same number of
        samples, spread over the whole run.
        """
        start = time.perf_counter()
        cycles = 0
        while cycles < min_cycles or (cycles < MAX_CYCLES and time.perf_counter() - start < seconds):
            for stage in self.pl.STAGES:
                if self.ready(stage):
                    body(stage)
            cycles += 1

    def measure(self, seconds: float) -> None:
        self.schedule(seconds, MIN_CYCLES, lambda stage: self.run_stage(stage, self.times[stage]))

    def measure_traced(self, seconds: float):
        """Untraced and traced repetitions in turn, then one counting pass."""
        spans = self.tr.Spans()
        ranges = defaultdict(list)

        def pair(stage):
            self.run_stage(stage, self.times[stage])
            i0 = len(spans.records)
            self.pipe.spans = spans
            try:
                with self.tr.patched(self.pl.span_targets(spans)):
                    self.run_stage(stage, self.traced_times[stage])
            finally:
                self.pipe.spans = None
            ranges[stage].append((i0, len(spans.records)))

        self.schedule(seconds, 1, pair)

        counters = self.tr.Counters()
        per_stage = {}
        with self.tr.patched(self.pl.count_targets(counters)):
            for stage in self.pl.STAGES:
                before = dict(counters)
                self.run_stage(stage, [])
                per_stage[stage] = {k: v - before.get(k, 0) for k, v in counters.items()}
        return spans, ranges, per_stage

    def check(self, shape: dict) -> dict:
        """Oracle checks on the first replay and sweep; returns what was checked."""
        result = {}
        timeline = self.first.get("replay")
        if timeline is not None and self.hotspot_map is not None:
            scan = self.pl.LinearScan(self.hotspot_map, self.pipe.cfg)
            sampled = hits = 0
            for i in range(0, len(timeline.decisions), ORACLE_STRIDE):
                decision = timeline.decisions[i]
                expected, any_hit = scan.decide(decision.checkpoint)
                self.attempted += 1
                sampled += 1
                hits += any_hit
                if decision != expected:
                    self.fail(f"replay: decision {i} differs from the linear scan: {decision} != {expected}")
            shape["checkpoints"] = len(timeline.decisions)
            shape["checkpoint_hit_share"] = round(hits / sampled, 4)
            shape["checkpoint_hit_share_sample"] = sampled
            result["decisions_checked"] = sampled
        swept = self.first.get("sweep")
        if swept is not None and timeline is not None:
            report, trace, windows = swept
            oks = self.pl.sweep_oracle(report, timeline, trace, self.hotspot_map, self.pipe.cfg, windows)
            self.attempted += len(oks)
            for ok, k in zip(oks, [*self.pl.SWEEP_KS, "ks"]):
                if not ok:
                    self.fail(f"sweep: row {k} differs from match_advisories on a separate run_replay")
            result["sweep_rows_checked"] = len(oks) - 1
        return result


def end_to_end(bench: Bench, shape: dict) -> dict:
    t = bench.times
    speed = CALIBRATION_REF_S / statistics.fmean(bench.calibrations)

    def med(samples):
        return statistics.median(samples) * speed

    metrics = {}
    if t["setup"]:
        metrics["setup_s"] = (med(t["setup"]), "s")
    if t["build"]:
        metrics["build_rows_per_s"] = (shape["rows"] / med(t["build"]), "rows/s")
    if t["replay"] and "checkpoints" in shape:
        metrics["replay_checkpoints_per_s"] = (shape["checkpoints"] / med(t["replay"]), "checkpoints/s")
    if t["sweep"]:
        metrics["sweep_s"] = (med(t["sweep"]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return metrics


def per_layer(bench: Bench, spans, ranges, per_stage: dict, pipe) -> dict:
    own = spans.self_times_ns()
    records = spans.records
    total_ns = defaultdict(float)
    for reps in ranges.values():
        samples = defaultdict(lambda: [0] * len(reps))
        for r, (i0, i1) in enumerate(reps):
            for j in range(i0, i1):
                name, start, end, _ = records[j]
                samples[name][r] += end - start
                samples[name + ":self"][r] += own[j]
        for name, values in samples.items():
            total_ns[name] += statistics.median(values)
    decide_us = [(e - s) / 1000.0 for name, s, e, _ in records if name == "advisory.decide"]
    pct = statistics.quantiles(decide_us, n=100) if len(decide_us) >= 2 else decide_us * 99

    c = defaultdict(int)
    for counts in per_stage.values():
        for k, v in counts.items():
            c[k] += v
    sweep = defaultdict(int, per_stage.get("sweep", {}))

    def ratio(a, b):
        return a / b if b else 0.0

    def sec(name):
        return total_ns[name] / 1e9

    # untraced and traced repetitions alternate, so each pair saw the same machine
    overhead = sum(
        statistics.median(t - u for t, u in zip(bench.traced_times[s], bench.times[s]))
        for s in bench.traced_times
        if bench.traced_times[s]
    )
    def size(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    query_haversine = c["spatial_index.haversine"] - c["spatial_index.build_haversine"]
    return {
        "ingest.parse_s": (sec("ingest.parse"), "s"),
        "ingest.rows": (c["ingest.rows"], "count"),
        "ingest.aggregate_s": (sec("ingest.aggregate"), "s"),
        "ingest.intervals": (c["ingest.intervals"], "count"),
        "ingest.nodes": (len(bench.hotspot_map.nodes) if bench.hotspot_map else 0, "count"),
        "ingest.merge_s": (sec("ingest.merge"), "s"),
        "ingest.save_s": (sec("ingest.save"), "s"),
        "ingest.save_bytes": (size(pipe.map_path), "bytes"),
        "ingest.load_s": (sec("ingest.load"), "s"),
        "ingest.load_bytes": (size(pipe.map_path), "bytes"),
        "spatial_index.build_s": (sec("spatial_index.build"), "s"),
        "spatial_index.build_haversine_calls": (c["spatial_index.build_haversine"], "count"),
        "spatial_index.query_s": (sec("spatial_index.query"), "s"),
        "spatial_index.queries": (c["spatial_index.queries"], "count"),
        "spatial_index.haversine_per_query": (ratio(query_haversine, c["spatial_index.queries"]), "count/query"),
        "spatial_index.hits_per_query": (ratio(c["spatial_index.hits"], c["spatial_index.queries"]), "count/query"),
        "spatial_index.hits_used_ratio": (ratio(c["advisory.active"], c["spatial_index.hits"]), "ratio"),
        "spatial_index.nonempty_ratio": (ratio(c["spatial_index.nonempty"], c["spatial_index.queries"]), "ratio"),
        "advisory.trace_parse_s": (sec("advisory.trace_parse"), "s"),
        "advisory.replay_s": (sec("advisory.replay"), "s"),
        "advisory.checkpoints_s": (sec("advisory.checkpoints"), "s"),
        "advisory.checkpoints": (c["advisory.checkpoints"], "count"),
        "advisory.decide_self_s": (sec("advisory.decide:self"), "s"),
        "advisory.bearing_calls": (c["advisory.bearing"], "count"),
        "advisory.decision_p50_us": (pct[49] if pct else 0.0, "us"),
        "advisory.decision_p99_us": (pct[98] if pct else 0.0, "us"),
        "advisory.active_ratio": (ratio(c["advisory.active"], c["advisory.decisions"]), "ratio"),
        "advisory.jsonl_s": (sec("advisory.jsonl"), "s"),
        "advisory.jsonl_bytes": (size(pipe.jsonl_path), "bytes"),
        "evaluation.replays": (sweep["evaluation.replays"], "count"),
        "evaluation.checkpoints_decided": (sweep["advisory.decisions"], "count"),
        "evaluation.match_s": (sec("evaluation.match"), "s"),
        "evaluation.events": (c["evaluation.events"], "count"),
        "evaluation.windows": (c["evaluation.windows"], "count"),
        "evaluation.report_s": (sec("evaluation.report"), "s"),
        "geodesy.haversine_calls": (c["spatial_index.haversine"] + c["advisory.haversine"], "count"),
        "stage.build_s": (sec("stage.build"), "s"),
        "stage.setup_s": (sec("stage.setup"), "s"),
        "stage.replay_s": (sec("stage.replay"), "s"),
        "stage.sweep_s": (sec("stage.sweep"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent in spans.records:
            f.write(json.dumps([name, start, end, parent]) + "\n")


def import_program() -> str:
    """Import pedmap from the checkout's ``src/``; returns an error message, or "" on success."""
    if not (SRC / "pedmap" / "__init__.py").is_file():
        return f"no pedmap sources at {SRC / 'pedmap'}; run from a checkout"
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pedmap

    if Path(pedmap.__file__).resolve().parent != (SRC / "pedmap").resolve():
        return f"imported pedmap from {pedmap.__file__}, not from {SRC}"
    return ""


def execute(args) -> tuple[dict, dict]:
    """Run one workload; returns the report and the result object."""
    import generate
    import pipeline
    import tracing

    out_dir = ROOT / ".bench_build" / "bench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = generate.generate(args.workload, args.seed, str(work), args.scale)
        shape = dict(inputs.shape)
        pipe = pipeline.Pipeline(inputs, str(work))
        bench = Bench(pipe, pipeline, tracing)
        if args.trace:
            spans, ranges, per_stage = bench.measure_traced(args.seconds)
        else:
            bench.measure(args.seconds)
        checks = bench.check(shape)
        if bench.hotspot_map is not None:
            shape["nodes"] = len(bench.hotspot_map.nodes)
        if args.trace:
            metrics = per_layer(bench, spans, ranges, per_stage, pipe)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(spans, spans_path)
        else:
            metrics = end_to_end(bench, shape)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failures)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "environment": environment(args),
        "shape": shape,
        "stage_times_s": {s: quartiles(v) for s, v in bench.times.items() if v},
        "samples_s": bench.times,
        "calibration_s": bench.calibrations,
        "calibration_ref_s": CALIBRATION_REF_S,
        "checks": checks,
        "failed_ratio": failed / bench.attempted if bench.attempted else 1.0,
        "failures": bench.failures[:5],
        "output_sha256": bench.digests,
    }
    if args.trace:
        report["traced_stage_times_s"] = {s: quartiles(v) for s, v in bench.traced_times.items() if v}
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_program()
    if not error and (args.seconds <= 0 or args.scale <= 0):
        error = "--seconds and --scale must be positive"
    if error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    report, result = execute(args)
    print(json.dumps(report, indent=2))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
