"""Tests of the benchmark itself, at a tiny scale: ``python3 -m pytest -q bench/test_bench.py``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
TINY = ["--seed", "3", "--seconds", "0.3", "--scale", "0.03"]
END_TO_END = {"setup_s", "build_rows_per_s", "replay_checkpoints_per_s", "sweep_s", "peak_rss_mb"}

assert run.import_program() == ""
from pedmap import advisory  # noqa: E402  (imported from the checkout by import_program)

import generate  # noqa: E402


def execute(workload: str, trace: int) -> tuple[dict, dict]:
    return run.execute(run.parse_args(["--workload", workload, "--trace", str(trace), *TINY]))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_traced_outputs_match(workload):
    report, result = execute(workload, 0)
    assert result["correct"] and result["failed"] == 0 and report["failed_ratio"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["checks"]["decisions_checked"] >= 1
    assert report["checks"]["sweep_rows_checked"] == 4

    traced_report, traced = execute(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert traced_report["output_sha256"] == report["output_sha256"]
    assert set(report["output_sha256"]) == {"build", "replay", "sweep"}
    layers = traced["metrics"]
    assert layers["evaluation.replays"]["value"] == 4
    assert layers["ingest.rows"]["value"] == report["shape"]["rows"]
    assert layers["advisory.checkpoints"]["value"] > 0
    assert layers["geodesy.haversine_calls"]["value"] > 0


def test_generator_is_deterministic(tmp_path):
    a = generate.generate("vehicle-sweep", 7, str(tmp_path / "a"), 0.05)
    b = generate.generate("vehicle-sweep", 7, str(tmp_path / "b"), 0.05)
    c = generate.generate("vehicle-sweep", 8, str(tmp_path / "c"), 0.05)
    for name in ("train00.csv", "drive.csv", "ground_truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "drive.csv").read_bytes() != (tmp_path / "c" / "drive.csv").read_bytes()
    assert a.shape == b.shape


def test_checks_catch_a_wrong_decision(monkeypatch):
    original = advisory.evaluate_checkpoint

    def flipped(cp, hotspot_map, cfg):
        decision = original(cp, hotspot_map, cfg)
        if cp.arc_position == 0.0:
            return advisory.AdvisoryDecision(cp, not decision.active, decision.stopping_distance)
        return decision

    monkeypatch.setattr(advisory, "evaluate_checkpoint", flipped)
    _, result = execute("fleet-build", 0)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    benchmark_json = BENCH_DIR.parent / "BENCHMARK.json"
    if benchmark_json.exists():
        shutil.copy(benchmark_json, tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet-build", *TINY],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no pedmap sources" in proc.stderr
    assert "Traceback" not in proc.stderr
