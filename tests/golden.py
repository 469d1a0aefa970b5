"""Golden-output corpus: a small seeded scenario and the exact bytes every CLI
command gives on it.

``tests/golden/inputs`` holds the scenario and ``tests/golden/expected`` one
directory per case in ``CASES``: ``terminal.txt`` (stdout and stderr as a user
sees them) and every file the command writes. ``tests/test_golden.py`` runs
each case on a copy of the inputs and compares bytes exactly.

The scenario is a 1 Hz test drive with a parked start, a stop and a turn, past
a map whose nodes give correct advisories, a false advisory (a node with no
window), a missed window (a window with no node) and, at ``--min-count 9``,
no advisory at all (an undefined precision). Two training CSVs feed ``build``,
with a clip id that needs CSV quoting and JSON escaping.

Only running this file rewrites the corpus; no test runs it::

    PYTHONPATH=src python tests/golden.py

A change that reruns it must list every file it changed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass

from click.testing import CliRunner

from pedmap.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS_DIR = os.path.join(GOLDEN_DIR, "inputs")
EXPECTED_DIR = os.path.join(GOLDEN_DIR, "expected")
TERMINAL = "terminal.txt"

SEED = 20231
M_PER_DEG_LAT = 6_371_000.0 * math.pi / 180.0
ORIGIN = (37.7749, -122.4194)
DRIVE_CLIP = "drive1"
START_MS = 1_700_000_000_000


@dataclass(frozen=True)
class Case:
    name: str
    args: tuple[str, ...]
    writes: tuple[str, ...] = ()  # files the command writes, relative to the working directory
    exit_code: int = 0


_REPLAY = ("map.json", "drive.csv")
_SCORE = (*_REPLAY, "gt.json")

CASES = (
    Case("build_max", ("build", "train_a.csv", "train_b.csv", "-o", "built.json"), ("built.json",)),
    Case("build_sum", ("build", "train_a.csv", "train_b.csv", "--count-mode", "sum", "-o", "built_sum.json"), ("built_sum.json",)),
    Case("merge", ("merge", "map.json", "extra_map.json", "-o", "merged.json"), ("merged.json",)),
    Case("replay_default", ("replay", *_REPLAY)),
    Case("replay_min_count_heading", ("replay", *_REPLAY, "--min-count", "2", "--heading-threshold", "120")),
    Case("replay_out", ("replay", *_REPLAY, "--sampling-distance", "5", "-o", "timeline.jsonl"), ("timeline.jsonl",)),
    Case("eval_tsv", ("eval", *_SCORE)),
    Case("eval_markdown", ("eval", *_SCORE, "--markdown")),
    Case("sweep_tsv", ("sweep", *_SCORE)),
    Case("sweep_markdown", ("sweep", *_SCORE, "--markdown")),
    Case("sweep_undefined_tsv", ("sweep", *_SCORE, "--min-count", "9", "--ks", "2,5")),
    Case("sweep_undefined_markdown", ("sweep", *_SCORE, "--min-count", "9", "--ks", "2,5", "--markdown")),
    Case("export", ("export", "map.json")),
    Case("error_training_csv", ("build", "bad_train.csv", "-o", "never.json"), exit_code=1),
    Case("error_trace", ("replay", "map.json", "bad_trace.csv"), exit_code=1),
    Case("error_map", ("replay", "bad_map.json", "drive.csv"), exit_code=1),
)


def run_case(case: Case, workdir: str) -> dict[str, bytes]:
    """Run ``case`` in ``workdir`` (which holds a copy of the inputs) and return its
    terminal output and written files by name; raise if its exit code is not the expected one."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = CliRunner().invoke(main, list(case.args))
    finally:
        os.chdir(cwd)
    if result.exit_code != case.exit_code:
        raise AssertionError(f"{case.name}: exit code {result.exit_code}, expected {case.exit_code}:\n{result.output}")
    outputs = {TERMINAL: result.output.encode("utf-8")}
    for name in case.writes:
        with open(os.path.join(workdir, name), "rb") as f:
            outputs[name] = f.read()
    return outputs


def first_difference(expected: bytes, actual: bytes) -> str:
    """Where ``actual`` first departs from ``expected``: the line number and both lines."""
    exp_lines, act_lines = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    for i, (e, a) in enumerate(zip(exp_lines, act_lines), 1):
        if e != a:
            return f"line {i}: expected {e!r}, got {a!r}"
    n = min(len(exp_lines), len(act_lines)) + 1
    if len(exp_lines) > len(act_lines):
        return f"line {n}: expected {exp_lines[n - 1]!r}, got end of output"
    return f"line {n}: expected end of output, got {act_lines[n - 1]!r}"


# --- scenario ----------------------------------------------------------------


def _offset(lat: float, lon: float, north_m: float, east_m: float) -> tuple[float, float]:
    return lat + north_m / M_PER_DEG_LAT, lon + east_m / (M_PER_DEG_LAT * math.cos(math.radians(lat)))


def _drive(rng: random.Random) -> list[tuple[float, float, float, float]]:
    """``(arc_m, heading_deg, lat, lon)`` per 1 Hz fix: parked start, cruise at
    about 30 km/h heading 30 degrees, a three-second stop, a turn to 100 degrees."""
    speeds = [0, 0, 3, 6, 8] + [8] * 15 + [5, 2, 0, 0, 0, 3, 6] + [8] * 8 + [7] * 5 + [8] * 14 + [5, 2]
    headings = [30.0] * 33 + [45.0, 60.0, 75.0, 90.0] + [100.0] * 20
    lat, lon = ORIGIN
    arc = 0.0
    fixes = []
    for speed, heading in zip(speeds, headings):
        arc += speed
        lat, lon = _offset(lat, lon, speed * math.cos(math.radians(heading)), speed * math.sin(math.radians(heading)))
        fixes.append((arc, heading, lat, lon))
    return fixes


def _at_arc(fixes, arc: float, lateral_m: float, along_m: float = 0.0) -> tuple[float, float]:
    """A point ``lateral_m`` right of (and ``along_m`` ahead of) the drive's fix nearest to ``arc``."""
    _, heading, lat, lon = min(fixes, key=lambda f: abs(f[0] - arc))
    h = math.radians(heading)
    north = along_m * math.cos(h) - lateral_m * math.sin(h)
    east = along_m * math.sin(h) + lateral_m * math.cos(h)
    return _offset(lat, lon, north, east)


def _node(lat: float, lon: float, count: int, timestamp_ms: int, clip_id: str) -> dict:
    return {"lat": lat, "lon": lon, "count": count, "timestamp_ms": timestamp_ms, "clip_id": clip_id}


def _map_text(nodes: list[dict]) -> str:
    return json.dumps({"schema_version": 1, "nodes": nodes}, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _training_rows(rng: random.Random, clip_id: str, start_ms: int, origin: tuple[float, float], heading: float) -> list[list]:
    """About 5 Hz for 30 s along a straight road, with bursts of sightings
    (some seconds mix zero and nonzero counts, so ``max`` and ``sum`` differ)."""
    rows = []
    lat, lon = origin
    t = start_ms
    burst = 0
    while t < start_ms + 30_000:
        step = rng.uniform(0.9, 1.5)
        lat, lon = _offset(lat, lon, step * math.cos(math.radians(heading)), step * math.sin(math.radians(heading)))
        if burst == 0 and rng.random() < 0.06:
            burst = rng.randint(3, 9)
        count = rng.choice((0, 1, 1, 2, 3)) if burst else 0
        burst = max(0, burst - 1)
        jlat, jlon = _offset(lat, lon, rng.gauss(0, 0.3), rng.gauss(0, 0.3))
        rows.append([t, f"{jlat:.8f}", f"{jlon:.8f}", count, clip_id])
        t += rng.randint(150, 260)
    return rows


def write_inputs(directory: str) -> None:
    """Write the scenario files from ``SEED``, without calling the program."""
    rng = random.Random(SEED)
    os.makedirs(directory, exist_ok=True)

    def write(name: str, text: str) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as f:
            f.write(text)

    fixes = _drive(rng)
    trace_rows = []
    t = START_MS
    for i, (_, _, lat, lon) in enumerate(fixes):
        if i and fixes[i][0] != fixes[i - 1][0]:  # moving fixes get GPS jitter; a stop repeats its fix
            lat, lon = _offset(lat, lon, rng.gauss(0, 0.2), rng.gauss(0, 0.2))
        trace_rows.append([t, f"{lat:.8f}", f"{lon:.8f}", DRIVE_CLIP])
        t += 1000 + rng.randint(-40, 40)
    write("drive.csv", _csv_text(["timestamp", "latitude", "longitude", "clip_id"], trace_rows))
    bad_trace = trace_rows[:6]
    bad_trace[3] = [bad_trace[3][0], "95.0", bad_trace[3][2], DRIVE_CLIP]
    write("bad_trace.csv", _csv_text(["timestamp", "latitude", "longitude", "clip_id"], bad_trace))

    nodes = [
        _node(*_at_arc(fixes, 60, 4.0), 3, START_MS - 86_400_000, "train-a"),  # correct: window w-near
        _node(*_at_arc(fixes, 130, -6.0), 1, START_MS - 86_300_000, "train-a"),  # correct below --min-count 2
        _node(*_at_arc(fixes, 205, 5.0), 2, START_MS - 86_200_000, "train-b"),  # false: no window
        _node(*_at_arc(fixes, 290, 14.0, -3.0), 2, START_MS - 86_100_000, "train-b"),  # abeam, just behind
    ]
    for i in range(30):  # off-route nodes that fill the index
        bearing, dist = rng.uniform(0, 2 * math.pi), rng.uniform(80.0, 1500.0)
        lat, lon = _offset(*ORIGIN, dist * math.cos(bearing), dist * math.sin(bearing))
        nodes.append(_node(lat, lon, rng.randint(1, 4), START_MS - 3_600_000 + 1000 * i, "train-c"))
    write("map.json", _map_text(nodes))
    write("extra_map.json", _map_text([
        _node(*_offset(*ORIGIN, -40.0, 12.0), 1, START_MS, 'quote "é" clip'),
        _node(*_offset(*ORIGIN, 300.0, -25.0), 5, START_MS + 1000, "extra"),
    ]))
    bad = [dict(n) for n in nodes[:3]]
    bad[1]["lat"] = math.nan
    write("bad_map.json", _map_text(bad))

    windows = [
        {"clip_id": DRIVE_CLIP, "start_m": 40.0, "end_m": 75.0, "label": "w-near"},
        {"clip_id": DRIVE_CLIP, "start_m": 110.0, "end_m": 140.0, "label": "w-low-count"},
        {"clip_id": DRIVE_CLIP, "start_m": 330.0, "end_m": 350.0, "label": "w-missed"},
        {"clip_id": "other-clip", "start_m": 0.0, "end_m": 10.0, "label": "elsewhere"},
    ]
    write("gt.json", json.dumps(windows, indent=2) + "\n")

    header = ["timestamp", "latitude", "longitude", "pedestrian_count", "clip_id"]
    a1 = _training_rows(rng, "a1", START_MS - 500_000, _offset(*ORIGIN, 20.0, 0.0), 30.0)
    a2 = _training_rows(rng, "a2", START_MS - 400_000, _offset(*ORIGIN, 0.0, 150.0), 100.0)
    rows_a = [row for pair in zip(a1, a2) for row in pair] + a1[len(a2):] + a2[len(a1):]  # clips interleaved
    write("train_a.csv", _csv_text(header, rows_a))
    rows_b = _training_rows(rng, 'b1 "é", east', START_MS - 300_000, _offset(*ORIGIN, -10.0, 40.0), 75.0)
    write("train_b.csv", _csv_text(header, rows_b))
    bad_rows = [list(r) for r in rows_b[:8]]
    bad_rows[4][3] = -2
    write("bad_train.csv", _csv_text(header, bad_rows))


def regenerate() -> None:
    """Rewrite the inputs from ``SEED`` and every case's expected bytes from the current program."""
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    write_inputs(INPUTS_DIR)
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            shutil.copytree(INPUTS_DIR, workdir, dirs_exist_ok=True)
            outputs = run_case(case, workdir)
        case_dir = os.path.join(EXPECTED_DIR, case.name)
        os.makedirs(case_dir)
        for name, data in outputs.items():
            with open(os.path.join(case_dir, name), "wb") as f:
                f.write(data)


if __name__ == "__main__":
    regenerate()
    sys.stdout.write(f"wrote {len(CASES)} cases under {os.path.relpath(GOLDEN_DIR)}\n")
