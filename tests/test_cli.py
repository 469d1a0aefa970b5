import json
import math
import os
import tempfile
from dataclasses import fields

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import M_PER_DEG_LAT, northbound_trace
from pedmap import evaluation
from pedmap.advisory import AdvisoryConfig
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

    def test_sampling_distance_below_floor_rejected(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main, ["replay", str(map_file), str(scenario_files / "drive.csv"), "--sampling-distance", "1e-300"]
        )
        assert result.exit_code == 1
        assert result.output == "Error: sampling_distance must be >= 0.01\n"
        assert isinstance(result.exception, SystemExit)

    def test_infinite_stopping_distance_fails_cleanly(self, runner, scenario_files):
        # The radius overflows to inf, and stopping_distance refuses it before any output is written.
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(main, ["replay", str(map_file), str(scenario_files / "drive.csv"), "--reaction-time", "1e308"])
        assert result.exit_code == 1
        assert result.output == "Error: stopping distance overflows at 50 km/h\n"
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("flag", ["--reaction-time", "--safety-factor"])
    def test_infinite_stopping_distance_fails_eval_and_sweep_as_replay(self, runner, scenario_files, command, flag):
        # eval and sweep write no JSONL: they used to score every checkpoint as active, precision and recall 1.
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        inputs = [str(map_file), str(scenario_files / "drive.csv")]
        replayed = runner.invoke(main, ["replay", *inputs, flag, "1e308"])
        result = runner.invoke(main, [command, *inputs, str(scenario_files / "gt.json"), flag, "1e308"])
        assert replayed.exit_code == result.exit_code == 1
        assert result.output == replayed.output == "Error: stopping distance overflows at 50 km/h\n"
        assert isinstance(result.exception, SystemExit)

    def test_output_file(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        out = scenario_files / "timeline.jsonl"
        args = ["replay", str(map_file), str(scenario_files / "drive.csv")]
        result = runner.invoke(main, [*args, "-o", str(out)])
        assert result.exit_code == 0
        stdout = runner.invoke(main, args).output
        assert out.read_text() == stdout
        flags = [json.loads(line)["active"] for line in stdout.splitlines()]
        ons = sum(1 for prev, cur in zip([False] + flags, flags) if cur and not prev)
        assert result.output == f"{len(flags)} checkpoints, {ons} advisories -> {out}\n"

    def test_drive_that_begins_parked(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        drive = scenario_files / "parked.csv"
        drive.write_text("timestamp,latitude,longitude,clip_id\n0,0,0,c\n1000,0,0,c\n2000,0.0001,0,c\n3000,0.0002,0,c\n")
        result = runner.invoke(main, ["replay", str(map_file), str(drive)])
        assert result.exit_code == 0, result.output
        first = json.loads(result.output.splitlines()[0])
        assert (first["speed_kmh"], first["heading_deg"]) == (0.0, 0.0)

    def test_trace_with_only_its_header_fails(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        drive = scenario_files / "empty.csv"
        drive.write_text("timestamp,latitude,longitude,clip_id\n")
        result = runner.invoke(main, ["replay", str(map_file), str(drive)])
        assert result.exit_code == 1
        assert result.output == f"Error: {drive}: no fixes found\n"

    def test_unterminated_quote_in_trace_names_its_line(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        drive = scenario_files / "drive.csv"
        lines = drive.read_text().splitlines()
        lines[2] = lines[2].replace("drive1", '"drive1')
        drive.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(map_file), str(drive)])
        assert result.exit_code == 1
        assert result.output == f"Error: {drive}: line 3: unexpected end of data\n"

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

    @pytest.mark.parametrize("flags", [[], ["--markdown"]], ids=["tsv", "markdown"])
    def test_ks_that_six_digits_merge_keep_their_labels(self, runner, scenario_files, flags):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        inputs = [str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json")]
        result = runner.invoke(main, ["sweep", *inputs, "--ks", "2.0000001,2.0000002,3", *flags])
        assert result.exit_code == 0, result.output
        rows = result.output.splitlines()[1:4] if not flags else result.output.splitlines()[2:5]
        labels = [row.split("\t")[0] if not flags else row.split(" | ")[0].removeprefix("| ") for row in rows]
        assert labels == ["2.0000001", "2.0000002", "3"]

    def test_single_k(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", "2"],
        )
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 2

    def test_sweep_has_no_sampling_distance_flag(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        inputs = [str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json")]
        result = runner.invoke(main, ["sweep", *inputs, "--sampling-distance", "7"])
        assert result.exit_code == 2
        error = result.output.splitlines()[-1]  # click words it "No such option: --x" or "No such option '--x'."
        assert error.startswith("Error: No such option") and "--sampling-distance" in error

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

    @pytest.mark.parametrize("flags", [[], ["--markdown"]], ids=["tsv", "markdown"])
    def test_eval_is_a_single_k_sweep(self, runner, scenario_files, flags):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        inputs = [str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), *flags]
        evaluated = runner.invoke(main, ["eval", *inputs, "--sampling-distance", "3"])
        swept = runner.invoke(main, ["sweep", *inputs, "--ks", "3"])
        assert evaluated.exit_code == swept.exit_code == 0
        assert evaluated.output == swept.output

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
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", "abc"],
        )
        assert result.exit_code == 1
        assert result.output == "Error: bad --ks value 'abc'\n"

    @pytest.mark.parametrize(
        "ks, message",
        [("-2", "sampling_distance must be >= 0.01"), ("0", "sampling_distance must be >= 0.01"), ("", "at least one sampling distance is required")],
    )
    def test_non_positive_or_empty_ks_rejected_before_any_replay(self, runner, scenario_files, monkeypatch, ks, message):
        """``AdvisoryConfig`` and ``sweep_sampling_distance`` own the K rules; the CLI only parses the list."""
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        replayed = []
        monkeypatch.setattr(evaluation, "run_replay", lambda *args: replayed.append(args))
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", ks],
        )
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        assert replayed == []

    @pytest.mark.parametrize("ks", ["nan", "inf", "2,nan"])
    def test_non_finite_ks_rejected(self, runner, scenario_files, ks):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", ks],
        )
        assert result.exit_code == 1
        assert result.output == "Error: sampling_distance must be finite\n"
        assert isinstance(result.exception, SystemExit)

    def test_ks_below_floor_rejected_before_any_replay(self, runner, scenario_files, monkeypatch):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        replayed = []
        monkeypatch.setattr(evaluation, "run_replay", lambda *args: replayed.append(args))
        result = runner.invoke(
            main,
            ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json"), "--ks", "2,1e-300"],
        )
        assert result.exit_code == 1
        assert result.output == "Error: sampling_distance must be >= 0.01\n"
        assert replayed == []

    def test_byte_identical_reports(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        args = ["sweep", str(map_file), str(scenario_files / "drive.csv"), str(scenario_files / "gt.json")]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


@pytest.mark.parametrize("command", ["replay", "eval", "sweep"])
def test_help_lists_every_config_field_with_its_default(runner, command):
    """``sweep`` takes its K values from ``--ks`` alone, so it lists every field but ``sampling_distance``."""
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    text = " ".join(result.output.split())  # undo the help's line wrapping
    for f in fields(AdvisoryConfig):
        flag = "--" + f.name.replace("_", "-")
        if command == "sweep" and f.name == "sampling_distance":
            assert flag not in text
            continue
        assert flag + " " in text
        entry = text.split(flag + " ", 1)[1].split(" --", 1)[0]
        assert f"[default: {f.default}]" in entry


# Key order, [lon, lat] coordinates and two-space indentation, byte for byte.
EXPECTED_EXPORT = """\
{
  "type": "FeatureCollection",
  "features": [
    {
      "type": "Feature",
      "geometry": {
        "type": "Point",
        "coordinates": [
          -117.234,
          32.88
        ]
      },
      "properties": {
        "count": 3,
        "timestamp_ms": 1000,
        "clip_id": "a"
      }
    },
    {
      "type": "Feature",
      "geometry": {
        "type": "Point",
        "coordinates": [
          2.25,
          -1.5
        ]
      },
      "properties": {
        "count": 1,
        "timestamp_ms": -7,
        "clip_id": "b"
      }
    },
    {
      "type": "Feature",
      "geometry": {
        "type": "Point",
        "coordinates": [
          -0.5,
          5
        ]
      },
      "properties": {
        "count": 1234567890123456789012345678901,
        "timestamp_ms": 0,
        "clip_id": "q\\"\\\\\\u0007\\u00e9"
      }
    }
  ]
}
"""


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

    def test_output_file(self, runner, scenario_files):
        map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
        out = scenario_files / "map.geojson"
        result = runner.invoke(main, ["export", str(map_file), "-o", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == runner.invoke(main, ["export", str(map_file)]).output
        assert result.output == f"1 features -> {out}\n"

    def test_exact_output(self, runner, tmp_path):
        map_file = tmp_path / "two.json"
        nodes = [
            {"lat": 32.88, "lon": -117.234, "count": 3, "timestamp_ms": 1000, "clip_id": "a"},
            {"lat": -1.5, "lon": 2.25, "count": 1, "timestamp_ms": -7, "clip_id": "b"},
            # An integer lat, a 31-digit count, and a quote, a backslash, a control and a non-ASCII character.
            {"lat": 5, "lon": -0.5, "count": 1234567890123456789012345678901, "timestamp_ms": 0, "clip_id": 'q"\\\x07\u00e9'},
        ]
        map_file.write_text(json.dumps({"schema_version": 1, "nodes": nodes}))
        result = runner.invoke(main, ["export", str(map_file)])
        assert result.exit_code == 0
        assert result.output == EXPECTED_EXPORT

    def test_unreadable_map_fails(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert runner.invoke(main, ["export", str(bad)]).exit_code != 0


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


@pytest.mark.parametrize(
    "row, timestamp", [(-1, 2**53 + 1), (1, -(2**53) - 1), (-1, 10**400)], ids=["2^53+1", "-2^53-1", "10^400"]
)
def test_drive_timestamp_beyond_float_range_fails_cleanly(runner, scenario_files, row, timestamp):
    map_file = build_map_file(runner, scenario_files, scenario_files / "train.csv")
    drive = scenario_files / "drive.csv"
    lines = drive.read_text().splitlines()
    lines[row] = ",".join([str(timestamp)] + lines[row].split(",")[1:])
    drive.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["replay", str(map_file), str(drive)])
    assert result.exit_code == 1
    assert result.output == f"Error: {drive}: timestamps outside [-2**53, 2**53] ms in clip 'drive1'\n"
    assert isinstance(result.exception, SystemExit)


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


# --- fuzzing the CLI boundary ---------------------------------------------------

# Splices for a file's text: structure breakers, non-finite and out-of-range
# values, a 400-digit number and non-ASCII characters. They seldom turn a
# coordinate of the base files into a distant in-range one, so a mangled drive
# stays short enough to replay quickly.
_JUNK = [
    "", " ", ",", '"', "\n", "\r\n", "\x00", "\ufeff", "é", "-", ".", "e", "x", "{", "}", "[", "]", ":",
    "null", "true", "nan", "NaN", "Infinity", "-inf", "1e999", "-91", "181", "9" * 400,
]


@st.composite
def mangled(draw, text):
    """``text`` as bytes after up to three edits (a junk splice over up to 12
    characters, or a line dropped, duplicated or swapped), sometimes with a
    byte that is not UTF-8."""
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["splice", "drop", "dup", "swap"]))
        if op == "splice":
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 12)))
            text = text[:i] + draw(st.sampled_from(_JUNK)) + text[j:]
            continue
        lines = text.split("\n")
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + b"\xff" + data[i:]
    return data


def _maybe_mangled(text):
    return st.one_of(st.just(text.encode()), mangled(text))


# Flag values click itself parses, so each run reaches the program's own checks.
# The valid sampling distances stay at or above 0.5 m: far smaller ones make a
# replay of millions of checkpoints. 1e-300 is below the floor and refused.
_FLOAT_FLAGS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "2", "45", "180", "1e308"]
_FLAG_VALUES = {
    "--reaction-time": _FLOAT_FLAGS,
    "--friction": _FLOAT_FLAGS,
    "--grade": _FLOAT_FLAGS,
    "--safety-factor": _FLOAT_FLAGS,
    "--sampling-distance": ["nan", "inf", "-1", "0", "0.5", "2", "5", "1e308", "1e-300"],
    "--heading-threshold": _FLOAT_FLAGS,
    "--min-count": ["-1", "0", "1", "2", "99999999999999999999"],
}
_KS_PARTS = ["2", "3", "0.5", "5", "1e308", "nan", "inf", "-1", "0", "abc", " ", "", "1e-300"]


@st.composite
def cli_runs(draw):
    """A subcommand, the bytes of each input file, and its flags."""
    command = draw(st.sampled_from(["build", "replay", "eval", "sweep"]))
    files, flags = {}, []
    if command == "build":
        files["train.csv"] = draw(_maybe_mangled(training_csv_text(150.0)))
        files["train2.csv"] = draw(_maybe_mangled(training_csv_text(300.0, clip="other")))
        flags += ["--count-mode", draw(st.sampled_from(["max", "sum"]))]
    else:
        trace = northbound_trace(GeoPoint(0, 0), 220.0, 50.0, clip_id="drive1")
        files["map.json"] = draw(_maybe_mangled(json.dumps({"schema_version": 1, "nodes": [NODE, {**NODE, "lat": 0.0013}]})))
        files["drive.csv"] = draw(_maybe_mangled(trace_csv_text(trace)))
        # ``sweep`` takes its K values from ``--ks`` alone.
        names = sorted(f for f in _FLAG_VALUES if command != "sweep" or f != "--sampling-distance")
        for flag in sorted(draw(st.sets(st.sampled_from(names)))):
            flags += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
        clip = draw(st.sampled_from([None, "drive1", "nope"]))
        flags += [] if clip is None else ["--clip", clip]
    if command in ("eval", "sweep"):
        files["gt.json"] = draw(_maybe_mangled(ground_truth_text()))
        flags += ["--markdown"] if draw(st.booleans()) else []
    if command == "sweep" and draw(st.booleans()):
        flags += ["--ks", ",".join(draw(st.lists(st.sampled_from(_KS_PARTS), min_size=1, max_size=4)))]
    return command, files, flags


def _strict_json(line):
    def refuse(constant):
        raise ValueError(f"non-finite {constant} in JSON")

    return json.loads(line, parse_constant=refuse)


class TestFuzzedInput:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(run=cli_runs())
    def test_exits_cleanly(self, run):
        """Every run exits 0 with well-formed output, or 1 with one ``Error:`` line."""
        command, files, flags = run
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, name) for name in files}
            for name, data in files.items():
                with open(paths[name], "wb") as f:
                    f.write(data)
            out = os.path.join(tmp, "out.json")
            if command == "build":
                args = ["build", paths["train.csv"], paths["train2.csv"], "-o", out]
            else:
                args = [command, paths["map.json"], paths["drive.csv"]]
                args += [paths["gt.json"]] if command != "replay" else []
            result = CliRunner().invoke(main, args + flags)
            if result.exit_code == 1:
                assert isinstance(result.exception, SystemExit), result.exception
                assert result.output.startswith("Error: ") and result.output.count("\n") == 1, result.output
                return
            assert result.exit_code == 0, result.output
            if command == "build":
                assert result.output == f"{len(load_map(out))} nodes -> {out}\n"
            elif command == "replay":
                records = [_strict_json(line) for line in result.output.splitlines()]
                assert records and all(isinstance(r["active"], bool) for r in records)
            else:
                lines = result.output.splitlines()
                assert lines[0] in ("K_m\tprecision\trecall\tcorrect\tfalse\tmissed", "| Sampling Distance (m) | Precision | Recall |")
