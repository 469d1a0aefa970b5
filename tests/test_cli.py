import json
import math

import pytest
from click.testing import CliRunner

from conftest import M_PER_DEG_LAT, northbound_trace
from pedmap.cli import main
from pedmap.geodesy import GeoPoint
from pedmap.ingest import load_map, map_from_geojson


@pytest.fixture
def runner():
    return CliRunner()


def training_csv_text(node_lat_m, count=1, clip="train", lon=0.0):
    """Three fixes in one second straddling the node position; median is the middle fix."""
    lines = ["timestamp,latitude,longitude,pedestrian_count,clip_id"]
    for i, d_m in enumerate((-0.5, 0.0, 0.5)):
        lat = (node_lat_m + d_m) / M_PER_DEG_LAT
        lines.append(f"{5000 + 300 * i},{lat:.12f},{lon},{count},{clip}")
    return "\n".join(lines) + "\n"


def trace_csv_text(trace):
    lines = ["timestamp,latitude,longitude,clip_id"]
    for fix in trace.fixes:
        lines.append(f"{fix.timestamp_ms},{fix.position.lat:.12f},{fix.position.lon:.12f},{trace.clip_id}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def scenario_files(tmp_path):
    """Training CSV with one hotspot at 150 m, a test drive past it, ground truth."""
    (tmp_path / "train.csv").write_text(training_csv_text(150.0))
    trace = northbound_trace(GeoPoint(0, 0), 220.0, 50.0, clip_id="drive1")
    (tmp_path / "drive.csv").write_text(trace_csv_text(trace))
    (tmp_path / "gt.json").write_text(
        json.dumps([{"clip_id": "drive1", "start_m": 135.0, "end_m": 165.0, "label": "hotspot"}])
    )
    return tmp_path


def build_map_file(runner, tmp_path, *csvs, name="map.json"):
    out = tmp_path / name
    result = runner.invoke(main, ["build", *map(str, csvs), "-o", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestBuild:
    def test_single_csv(self, runner, scenario_files):
        out = scenario_files / "map.json"
        result = runner.invoke(main, ["build", str(scenario_files / "train.csv"), "-o", str(out)])
        assert result.exit_code == 0
        assert "1 nodes" in result.output
        assert len(load_map(str(out))) == 1

    def test_two_csvs_equal_build_then_merge(self, runner, tmp_path):
        (tmp_path / "a.csv").write_text(training_csv_text(100.0, clip="a"))
        (tmp_path / "b.csv").write_text(training_csv_text(300.0, clip="b"))
        combined = build_map_file(runner, tmp_path, tmp_path / "a.csv", tmp_path / "b.csv", name="both.json")
        map_a = build_map_file(runner, tmp_path, tmp_path / "a.csv", name="a.json")
        map_b = build_map_file(runner, tmp_path, tmp_path / "b.csv", name="b.json")
        merged = tmp_path / "merged.json"
        result = runner.invoke(main, ["merge", str(map_a), str(map_b), "-o", str(merged)])
        assert result.exit_code == 0
        assert load_map(str(combined)).nodes == load_map(str(merged)).nodes

    def test_malformed_csv_fails_without_output(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,latitude,longitude,pedestrian_count,clip_id\n1,0,0,-2,c\n")
        out = tmp_path / "map.json"
        result = runner.invoke(main, ["build", str(bad), "-o", str(out)])
        assert result.exit_code != 0
        assert "line 2" in result.output
        assert not out.exists()

    def test_count_mode_flag(self, runner, tmp_path):
        (tmp_path / "t.csv").write_text(training_csv_text(50.0, count=2))
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["build", str(tmp_path / "t.csv"), "-o", str(out), "--count-mode", "sum"])
        assert result.exit_code == 0
        assert load_map(str(out)).nodes[0].count == 6  # three fixes of 2 each


class TestReplay:
    def test_single_hotspot_one_on_one_off(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(main, ["replay", str(map_file), str(scenario_files / "drive.csv")])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        flags = [r["active"] for r in records]
        changes = sum(1 for prev, cur in zip([False] + flags, flags) if prev != cur)
        assert flags.count(True) > 0
        assert changes == 2  # one ON, one OFF

    def test_sampling_distance_changes_checkpoint_count(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        drive = str(scenario_files / "drive.csv")
        fine = runner.invoke(main, ["replay", str(map_file), drive, "--sampling-distance", "2"])
        coarse = runner.invoke(main, ["replay", str(map_file), drive, "--sampling-distance", "5"])
        assert len(fine.output.splitlines()) > len(coarse.output.splitlines())

    def test_zero_braking_denominator_rejected(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            ["replay", str(map_file), str(scenario_files / "drive.csv"), "--friction", "0", "--grade", "0"],
        )
        assert result.exit_code != 0
        assert "braking denominator" in result.output

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--reaction-time", "nan", "reaction_time"),
            ("--sampling-distance", "nan", "sampling_distance"),
            ("--safety-factor", "inf", "safety_factor"),
        ],
    )
    def test_non_finite_config_rejected(self, runner, scenario_files, flag, value, name):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(main, ["replay", str(map_file), str(scenario_files / "drive.csv"), flag, value])
        assert result.exit_code == 1
        assert f"Error: {name} must be finite" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_output_file(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        out = scenario_files / "timeline.jsonl"
        result = runner.invoke(
            main, ["replay", str(map_file), str(scenario_files / "drive.csv"), "-o", str(out)]
        )
        assert result.exit_code == 0
        assert out.exists()
        assert "advisories" in result.output

    def test_drive_that_begins_parked(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        drive = scenario_files / "parked.csv"
        drive.write_text("timestamp,latitude,longitude,clip_id\n0,0,0,c\n1000,0,0,c\n2000,0.0001,0,c\n3000,0.0002,0,c\n")
        result = runner.invoke(main, ["replay", str(map_file), str(drive)])
        assert result.exit_code == 0, result.output
        first = json.loads(result.output.splitlines()[0])
        assert (first["speed_kmh"], first["heading_deg"]) == (0.0, 0.0)

    def test_multi_clip_requires_selector(self, runner, scenario_files, tmp_path):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        t1 = northbound_trace(GeoPoint(0, 0), 50.0, 30.0, clip_id="a")
        t2 = northbound_trace(GeoPoint(0.01, 0), 50.0, 30.0, clip_id="b")
        multi = tmp_path / "multi.csv"
        multi.write_text(trace_csv_text(t1) + "\n".join(trace_csv_text(t2).splitlines()[1:]) + "\n")
        assert runner.invoke(main, ["replay", str(map_file), str(multi)]).exit_code != 0
        assert runner.invoke(main, ["replay", str(map_file), str(multi), "--clip", "a"]).exit_code == 0


class TestEvalAndSweep:
    def test_default_sweep_four_rows(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json")],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "K_m\tprecision\trecall\tcorrect\tfalse\tmissed"
        assert len(lines) == 5
        assert [line.split("\t")[0] for line in lines[1:]] == ["2", "3", "4", "5"]

    def test_single_k(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", "2"],
        )
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 2

    def test_eval_at_configured_k(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            [
                "eval",
                str(map_file),
                str(scenario_files / "drive.csv"),
                str(scenario_files / "gt.json"),
                "--sampling-distance",
                "3",
            ],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[1].startswith("3\t")

    def test_wrong_clip_ground_truth_fails(self, runner, scenario_files, tmp_path):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps([{"clip_id": "nope", "start_m": 0.0, "end_m": 5.0}]))
        result = runner.invoke(
            main, ["eval", str(map_file), str(scenario_files / "drive.csv"), str(wrong)]
        )
        assert result.exit_code != 0
        assert "no ground-truth windows" in result.output

    def test_markdown_rendering(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            [
                "sweep",
                str(map_file),
                str(scenario_files / "drive.csv"),
                str(scenario_files / "gt.json"),
                "--markdown",
            ],
        )
        assert result.exit_code == 0
        assert result.output.startswith("| Sampling Distance (m) | Precision | Recall |")

    def test_bad_ks_rejected(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        for ks in ("abc", "-2", ""):
            result = runner.invoke(
                main,
                ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", ks],
            )
            assert result.exit_code != 0

    def test_byte_identical_reports(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        args = ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json")]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestExport:
    def test_empty_map(self, runner, tmp_path):
        empty_csv = tmp_path / "empty.csv"
        empty_csv.write_text("timestamp,latitude,longitude,pedestrian_count,clip_id\n")
        map_file = build_map_file(runner, tmp_path, empty_csv)
        result = runner.invoke(main, ["export", str(map_file)])
        assert result.exit_code == 0
        geo = json.loads(result.output)
        assert geo == {"type": "FeatureCollection", "features": []}

    def test_feature_per_node_and_round_trip(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(main, ["export", str(map_file)])
        geo = json.loads(result.output)
        original = load_map(str(map_file))
        assert len(geo["features"]) == len(original)
        restored = map_from_geojson(geo)
        for a, b in zip(original.nodes, restored.nodes):
            assert abs(a.position.lat - b.position.lat) < 1e-9
            assert abs(a.position.lon - b.position.lon) < 1e-9

    def test_unreadable_map_fails(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert runner.invoke(main, ["export", str(bad)]).exit_code != 0


NODE = {"lat": 0.001, "lon": 0.0, "count": 1, "timestamp_ms": 5000, "clip_id": "train"}
WINDOW = {"clip_id": "drive1", "start_m": 135.0, "end_m": 165.0}


def map_text(**changes):
    return json.dumps({"schema_version": 1, "nodes": [{**NODE, **changes}]})


def ground_truth_text(**changes):
    return json.dumps([{**WINDOW, **changes}])


@pytest.mark.parametrize(
    "kind, text",
    [
        pytest.param("map", "[]", id="map-array"),
        pytest.param("map", json.dumps({"schema_version": 1, "nodes": {}}), id="map-nodes-object"),
        pytest.param("map", json.dumps({"schema_version": 1, "nodes": [1]}), id="map-node-number"),
        pytest.param("map", map_text(lon=math.nan), id="map-lon-nan"),
        pytest.param("map", map_text(lon=math.inf), id="map-lon-inf"),
        pytest.param("map", map_text(count=True), id="map-count-bool"),
        pytest.param("map", map_text(timestamp_ms="5000"), id="map-timestamp-string"),
        pytest.param("map", map_text(clip_id=7), id="map-clip-int"),
        pytest.param("map", map_text(lon=200.0), id="map-lon-200"),
        pytest.param("map", json.dumps({"schema_version": True, "nodes": [NODE]}), id="map-version-bool"),
        pytest.param("map", "[" * 200_000 + "]" * 200_000, id="map-nested-200k"),
        pytest.param("ground_truth", "[1]", id="gt-entry-number"),
        pytest.param("ground_truth", ground_truth_text(start_m=None), id="gt-start-null"),
        pytest.param("ground_truth", ground_truth_text(end_m=math.inf), id="gt-end-inf"),
        pytest.param("ground_truth", ground_truth_text(start_m="5"), id="gt-start-string"),
        pytest.param("ground_truth", ground_truth_text(clip_id=7), id="gt-clip-int"),
        pytest.param("ground_truth", ground_truth_text(label=7), id="gt-label-int"),
        pytest.param("ground_truth", "[" * 200_000 + "]" * 200_000, id="gt-nested-200k"),
    ],
)
def test_malformed_input_fails_cleanly(runner, scenario_files, kind, text):
    map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
    bad = scenario_files / f"bad_{kind}.json"
    bad.write_text(text)
    paths = {"map": map_file, "ground_truth": scenario_files / "gt.json", kind: bad}
    result = runner.invoke(
        main, ["eval", str(paths["map"]), str(scenario_files / "drive.csv"), str(paths["ground_truth"])]
    )
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: {bad}: ")
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)
