"""Seeded input generator for the pipeline benchmark.

Everything the program reads is written here from ``random.Random(seed)``:
training CSVs, the test-drive CSV and the ground-truth JSON. The same seed and
scale give byte-identical files. The program under test receives only those
files; nothing here imports it.

Geography is a meandering road that heads roughly east (its heading stays
within 45 degrees of east), so it never doubles back on itself and the number
of hotspots inside a stopping distance varies little from seed to seed.
Hotspots are roadside spots, one at a random point of each equal stretch of
that road.
"""

from __future__ import annotations

import json
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace

M_PER_DEG_LAT = 6_371_000.0 * math.pi / 180.0
ORIGIN = (32.8801, -117.2340)
GPS_SIGMA_M = 3.0 / math.sqrt(2.0)  # 3 m radial jitter, split over two axes

TRAINING_HEADER = "timestamp,latitude,longitude,pedestrian_count,clip_id\n"
TRACE_HEADER = "timestamp,latitude,longitude,clip_id\n"


@dataclass(frozen=True)
class Spec:
    """Shape of one workload at scale 1; ``scaled`` shrinks it for quick runs."""

    route_m: float
    hotspots: int
    # training: "passes" drives the fleet logs; "nodes" writes one detection row per map node
    training: str
    files: int
    passes_per_file: int
    train_hz: float
    sighting_frames: int  # frames per pass in which a hotspot is seen
    node_jitter_m: float
    nodes_per_hotspot: int  # "nodes" training only
    background_nodes: int  # "nodes" training only
    false_frame_rate: float  # "passes" training: share of frames with a spurious detection
    drive_share: float  # the drive covers this leading share of the road
    drive_hz: float
    stop_and_go: bool
    drive_jitter_m: float
    gt_share: float  # share of hotspots on the drive that get a ground-truth window
    min_count: int
    count_range: tuple[int, int] = (1, 3)

    def scaled(self, scale: float) -> "Spec":
        def n(v: int) -> int:
            return max(1, round(v * scale)) if v else 0

        return replace(
            self,
            route_m=max(400.0, self.route_m * scale),
            hotspots=n(self.hotspots),
            files=n(self.files),
            nodes_per_hotspot=n(self.nodes_per_hotspot),
            background_nodes=n(self.background_nodes),
        )


SPECS = {
    # 20 passes x ~10k rows at 10 Hz; each pass sees each of 200 hotspots in
    # 5 frames, so each hotspot is sighted ~100 times and ~10% of rows carry
    # pedestrians. The map stays small (~5k nodes).
    "fleet-build": Spec(
        route_m=10_000.0, hotspots=200, training="passes", files=20, passes_per_file=1,
        train_hz=10.0, sighting_frames=5, node_jitter_m=0.0, nodes_per_hotspot=0,
        background_nodes=0, false_frame_rate=0.002, drive_share=1.0, drive_hz=10.0,
        stop_and_go=False, drive_jitter_m=0.05, gt_share=1.0, min_count=1,
    ),
    # 200 hotspots x 100 nodes with 3 m jitter plus 30k background nodes
    # uniform within 300 m of the road, written as one detection row per node
    # across 20 vehicle logs.
    # The drive covers the first 2.5 km of the road, so a run fits four
    # samples of each stage next to the 50k-node index builds.
    "fleet-replay": Spec(
        route_m=10_000.0, hotspots=200, training="nodes", files=20, passes_per_file=0,
        train_hz=1.0, sighting_frames=0, node_jitter_m=3.0, nodes_per_hotspot=100,
        background_nodes=30_000, false_frame_rate=0.0, drive_share=0.25, drive_hz=10.0,
        stop_and_go=False, drive_jitter_m=0.05, gt_share=1.0, min_count=1,
    ),
    # One vehicle, 9 passes at 1 Hz over 100 hotspots; a 10 km stop-and-go
    # drive at 1 Hz scored against ~90 windows with --min-count 2.
    "vehicle-sweep": Spec(
        route_m=10_000.0, hotspots=100, training="passes", files=1, passes_per_file=9,
        train_hz=1.0, sighting_frames=1, node_jitter_m=0.0, nodes_per_hotspot=0,
        background_nodes=0, false_frame_rate=0.1, drive_share=1.0, drive_hz=1.0,
        stop_and_go=True, drive_jitter_m=0.3, gt_share=0.9, min_count=2, count_range=(1, 4),
    ),
}


@dataclass
class Inputs:
    """Paths of the generated files plus the shape the generator put into them."""

    training_csvs: list[str]
    trace_csv: str
    ground_truth: str
    clip_id: str
    min_count: int
    shape: dict = field(default_factory=dict)


class Route:
    """A polyline in local east/north meters, addressable by arc length."""

    def __init__(self, rng: random.Random, length_m: float):
        pts = [(0.0, 0.0)]
        arcs = [0.0]
        heading = math.pi / 2  # east, measured clockwise from north
        while arcs[-1] < length_m + 200.0:
            heading += rng.uniform(-0.5, 0.5)
            heading = min(max(heading, math.pi / 4), 3 * math.pi / 4)
            seg = rng.uniform(150.0, 400.0)
            e, n = pts[-1]
            pts.append((e + seg * math.sin(heading), n + seg * math.cos(heading)))
            arcs.append(arcs[-1] + seg)
        self.pts = pts
        self.arcs = arcs
        self.length = length_m

    def at(self, arc: float) -> tuple[float, float, float]:
        """East, north and heading (radians clockwise from north) at ``arc``."""
        i = min(bisect_right(self.arcs, arc) - 1, len(self.pts) - 2)
        (e0, n0), (e1, n1) = self.pts[i], self.pts[i + 1]
        f = (arc - self.arcs[i]) / (self.arcs[i + 1] - self.arcs[i])
        return e0 + (e1 - e0) * f, n0 + (n1 - n0) * f, math.atan2(e1 - e0, n1 - n0)

    def offset(self, arc: float, lateral_m: float) -> tuple[float, float]:
        e, n, h = self.at(arc)
        # positive lateral is to the right of the direction of travel
        return e + lateral_m * math.cos(h), n - lateral_m * math.sin(h)


def to_geo(e: float, n: float) -> tuple[float, float]:
    lat0, lon0 = ORIGIN
    return (
        lat0 + n / M_PER_DEG_LAT,
        lon0 + e / (M_PER_DEG_LAT * math.cos(math.radians(lat0))),
    )


def _row_latlon(e: float, n: float) -> str:
    lat, lon = to_geo(e, n)
    return f"{lat:.8f},{lon:.8f}"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _speed_profile(rng: random.Random, length_m: float, hz: float, stop_and_go: bool):
    """Arc positions of successive fixes at ``hz``; stops repeat the same arc."""
    dt = 1.0 / hz
    arcs = [0.0]
    speed = rng.uniform(9.0, 13.0)
    target = speed
    next_change = rng.uniform(200.0, 600.0)
    next_stop = rng.uniform(300.0, 900.0) if stop_and_go else math.inf
    while arcs[-1] < length_m:
        a = arcs[-1]
        if a >= next_stop:
            arcs.extend([a] * rng.randint(5, 30))  # stationary stretch
            next_stop = a + rng.uniform(400.0, 1000.0)
            speed = 1.5
            target = rng.uniform(6.0, 14.0)
        if a >= next_change:
            target = rng.uniform(6.0, 15.0) if stop_and_go else rng.uniform(9.0, 13.0)
            next_change = a + rng.uniform(200.0, 600.0)
        speed += max(-2.0 * dt, min(2.0 * dt, target - speed))  # bounded acceleration
        arcs.append(min(a + speed * dt, length_m))
    return arcs


def _pass_rows(rng, route, hotspot_arcs, spec, clip, t0_ms, out: list[str]) -> tuple[int, int]:
    """One training pass over the whole route; returns (rows, rows with pedestrians)."""
    arcs = _speed_profile(rng, route.length, spec.train_hz, stop_and_go=False)
    step_ms = round(1000 / spec.train_hz)
    # frames within which each hotspot is in view: the ones nearest to it
    seen: dict[int, int] = {}
    j = 0
    for i, a in enumerate(arcs):
        while j < len(hotspot_arcs) and hotspot_arcs[j] <= a:
            first = max(0, i - spec.sighting_frames // 2)
            for k in range(first, first + spec.sighting_frames):
                seen[k] = rng.randint(*spec.count_range)
            j += 1
    lo, hi = spec.count_range
    peds = 0
    for i, a in enumerate(arcs):
        e, n = route.offset(a, 0.0)
        e += rng.gauss(0.0, GPS_SIGMA_M)
        n += rng.gauss(0.0, GPS_SIGMA_M)
        count = seen.get(i, 0)
        if count == 0 and rng.random() < spec.false_frame_rate:
            count = rng.randint(lo, hi)
        peds += count > 0
        out.append(f"{t0_ms + i * step_ms},{_row_latlon(e, n)},{count},{clip}\n")
    return len(arcs), peds


def _node_rows(rng, route, hotspot_arcs, spec) -> list[list[str]]:
    """One detection row per map node, dealt across ``spec.files`` vehicle logs."""
    nodes = []
    for a in hotspot_arcs:
        ce, cn = route.offset(a, rng.uniform(-2.0, 2.0))
        for _ in range(spec.nodes_per_hotspot):
            nodes.append((ce + rng.gauss(0.0, spec.node_jitter_m / math.sqrt(2.0)),
                          cn + rng.gauss(0.0, spec.node_jitter_m / math.sqrt(2.0))))
    for _ in range(spec.background_nodes):
        nodes.append(route.offset(rng.uniform(0.0, route.length), rng.uniform(-300.0, 300.0)))
    rng.shuffle(nodes)
    files: list[list[str]] = [[TRAINING_HEADER] for _ in range(spec.files)]
    lo, hi = spec.count_range
    for i, (e, n) in enumerate(nodes):
        f = i % spec.files
        ts = 1_600_000_000_000 + (i // spec.files) * 1000
        files[f].append(f"{ts},{_row_latlon(e, n)},{rng.randint(lo, hi)},veh{f:02d}\n")
    return files


def generate(workload: str, seed: int, out_dir: str, scale: float = 1.0) -> Inputs:
    """Write one workload's inputs under ``out_dir`` and return their paths and shape."""
    spec = SPECS[workload].scaled(scale)
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    route = Route(rng, spec.route_m)
    # one hotspot per equal stretch of road, so their density is the same for every seed
    spacing = (spec.route_m - 60.0) / spec.hotspots
    hotspot_arcs = [30.0 + (i + rng.uniform(0.2, 0.8)) * spacing for i in range(spec.hotspots)]

    training = []
    rows = ped_rows = 0
    if spec.training == "passes":
        for f in range(spec.files):
            lines = [TRAINING_HEADER]
            for p in range(spec.passes_per_file):
                clip = f"pass{f:02d}-{p:02d}"
                t0 = 1_600_000_000_000 + (f * spec.passes_per_file + p) * 86_400_000
                r, pr = _pass_rows(rng, route, hotspot_arcs, spec, clip, t0, lines)
                rows += r
                ped_rows += pr
            training.append(lines)
    else:
        training = _node_rows(rng, route, hotspot_arcs, spec)
        rows = ped_rows = sum(len(lines) - 1 for lines in training)
    paths = []
    for i, lines in enumerate(training):
        path = os.path.join(out_dir, f"train{i:02d}.csv")
        _write(path, "".join(lines))
        paths.append(path)

    # test drive: the leading share of the road, from its start
    drive_m = spec.route_m * spec.drive_share
    drive_arcs = _speed_profile(rng, drive_m, spec.drive_hz, spec.stop_and_go)
    clip = "drive"
    step_ms = round(1000 / spec.drive_hz)
    lines = [TRACE_HEADER]
    prev = None
    for i, a in enumerate(drive_arcs):
        if prev is not None and a == prev[0]:
            e, n = prev[1]  # stationary: the exact same fix
        else:
            e, n = route.offset(a, 0.0)
            e += rng.gauss(0.0, spec.drive_jitter_m)
            n += rng.gauss(0.0, spec.drive_jitter_m)
        prev = (a, (e, n))
        lines.append(f"{1_700_000_000_000 + i * step_ms},{_row_latlon(e, n)},{clip}\n")
    trace_path = os.path.join(out_dir, "drive.csv")
    _write(trace_path, "".join(lines))

    # ground truth: the stretch before each hotspot on the drive, overlaps merged
    spans = []
    for a in hotspot_arcs:
        if a <= drive_m and rng.random() < spec.gt_share:
            spans.append((max(0.0, a - 20.0), a + 5.0))
    merged: list[list[float]] = []
    for s, e in sorted(spans):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    gt = [{"clip_id": clip, "start_m": round(s, 3), "end_m": round(e, 3)} for s, e in merged]
    gt_path = os.path.join(out_dir, "ground_truth.json")
    _write(gt_path, json.dumps(gt, indent=1) + "\n")

    shape = {
        "training_files": len(paths),
        "rows": rows,
        "pedestrian_row_share": round(ped_rows / rows, 4),
        "trace_fixes": len(drive_arcs),
        "stationary_fixes": sum(1 for x, y in zip(drive_arcs, drive_arcs[1:]) if x == y),
        "windows": len(gt),
        "min_count": spec.min_count,
    }
    return Inputs(paths, trace_path, gt_path, clip, spec.min_count, shape)
