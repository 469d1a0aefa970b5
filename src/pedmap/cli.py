"""Command-line surface: build and merge hotspot maps, replay test drives,
score them against ground truth, and export maps as GeoJSON.

Every subcommand is deterministic: the same inputs and flags produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

import click

from . import advisory, evaluation, ingest


@contextmanager
def _failing(path: Optional[str] = None) -> Iterator[None]:
    """The CLI's one error boundary: bad input (``ValueError``, or ``RecursionError`` from JSON
    nested too deep to decode) or a file error (``OSError``) ends the command with a one-line
    message, prefixed with ``path`` when given."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        raise click.ClickException(f"{path}: {exc}" if path else str(exc)) from exc


def _load_map(path: str) -> ingest.HotspotMap:
    with _failing(path):
        return ingest.load_map(path)


def _load_trace(path: str, clip: Optional[str]) -> advisory.DriveTrace:
    with _failing(path):
        with open(path, "r", encoding="utf-8", newline="") as f:
            traces = advisory.parse_trace_csv(f)
        if not traces:
            raise ValueError("no fixes found")
        if clip is not None:
            for t in traces:
                if t.clip_id == clip:
                    return t
            raise ValueError(f"no clip {clip!r} (has {[t.clip_id for t in traces]})")
        if len(traces) > 1:
            raise ValueError(f"multiple clips {[t.clip_id for t in traces]}; pick one with --clip")
        return traces[0]


def config_options(command):
    """Advisory flags shared by replay/eval/sweep, mirroring AdvisoryConfig."""
    for decorator in reversed(
        [
            click.option("--reaction-time", type=float, default=2.5, show_default=True, help="Driver reaction time, seconds."),
            click.option("--friction", type=float, default=0.7, show_default=True, help="Road friction coefficient."),
            click.option("--grade", type=float, default=0.0, show_default=True, help="Road grade (positive uphill)."),
            click.option("--safety-factor", type=float, default=1.0, show_default=True, help="Multiplier on the stopping-distance radius."),
            click.option("--sampling-distance", type=float, default=2.0, show_default=True, help="Meters between advisory checkpoints."),
            click.option("--heading-threshold", type=float, default=90.0, show_default=True, help="Max heading separation, degrees, for a node to count as in front."),
            click.option("--min-count", type=int, default=1, show_default=True, help="Minimum sightings for a node to trigger."),
        ]
    ):
        command = decorator(command)
    return command


@click.group()
@click.version_option(package_name="pedmap")
def main() -> None:
    """Pedestrian hotspot maps from drive logs, with replayed driver advisories."""


@main.command()
@click.argument("training_csv", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out-map", required=True, type=click.Path(dir_okay=False), help="Output map JSON path.")
@click.option("--count-mode", type=click.Choice(["max", "sum"]), default="max", show_default=True, help="Per-interval pedestrian count aggregation.")
def build(training_csv: tuple[str, ...], out_map: str, count_mode: str) -> None:
    """Build a hotspot map from one or more training drive CSVs."""
    maps = []
    for path in training_csv:
        with _failing(path), open(path, "r", encoding="utf-8", newline="") as f:
            maps.append(ingest.build_map(ingest.parse_detection_log(f), count_mode))
    hotspot_map = ingest.merge_maps(*maps)
    with _failing():
        ingest.save_map(hotspot_map, out_map)
    click.echo(f"{len(hotspot_map)} nodes -> {out_map}")


@main.command()
@click.argument("maps", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out-map", required=True, type=click.Path(dir_okay=False), help="Output map JSON path.")
def merge(maps: tuple[str, ...], out_map: str) -> None:
    """Merge hotspot maps into one (plain node union, no deduplication)."""
    merged = ingest.merge_maps(*(_load_map(path) for path in maps))
    with _failing():
        ingest.save_map(merged, out_map)
    click.echo(f"{len(merged)} nodes -> {out_map}")


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", "out_path", type=click.Path(dir_okay=False), help="Write the timeline JSONL here instead of stdout.")
@click.option("--clip", help="Clip id to replay when the trace CSV holds several.")
@config_options
def replay(map_file: str, trace_csv: str, out_path: Optional[str], clip: Optional[str], **cfg_kwargs) -> None:
    """Replay a test drive against a map and emit the advisory timeline as JSONL."""
    with _failing():
        cfg = advisory.AdvisoryConfig(**cfg_kwargs)
        hotspot_map = _load_map(map_file)
        timeline = advisory.run_replay(_load_trace(trace_csv, clip), hotspot_map, cfg)
    lines = "".join(line + "\n" for line in advisory.timeline_to_jsonl(timeline))
    if out_path:
        with _failing(), open(out_path, "w", encoding="utf-8") as f:
            f.write(lines)
        on_count = sum(1 for t in timeline.transitions if t.kind == "ON")
        click.echo(f"{len(timeline.decisions)} checkpoints, {on_count} advisories -> {out_path}")
    else:
        sys.stdout.write(lines)


def _windows_for_trace(gt_path: str, trace: advisory.DriveTrace) -> list[evaluation.GroundTruthWindow]:
    with _failing(gt_path):
        with open(gt_path, "r", encoding="utf-8") as f:
            windows = evaluation.load_ground_truth(f)
        matching = [w for w in windows if w.clip_id == trace.clip_id]
        if not matching:
            raise ValueError(f"no ground-truth windows for clip {trace.clip_id!r}")
        return matching


def _emit_report(report: evaluation.EvalReport, markdown: bool) -> None:
    text = evaluation.report_to_markdown(report) if markdown else evaluation.report_to_tsv(report)
    sys.stdout.write(text)


@main.command("eval")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.option("--clip", help="Clip id to evaluate when the trace CSV holds several.")
@click.option("--markdown", is_flag=True, help="Render a Markdown table instead of TSV.")
@config_options
def eval_cmd(map_file: str, trace_csv: str, ground_truth: str, clip: Optional[str], markdown: bool, **cfg_kwargs) -> None:
    """Score one replay against ground-truth windows at a single sampling distance."""
    with _failing():
        cfg = advisory.AdvisoryConfig(**cfg_kwargs)
        hotspot_map = _load_map(map_file)
        trace = _load_trace(trace_csv, clip)
        windows = _windows_for_trace(ground_truth, trace)
        report = evaluation.sweep_sampling_distance(trace, hotspot_map, cfg, [cfg.sampling_distance], windows)
    _emit_report(report, markdown)


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.option("--ks", default="2,3,4,5", show_default=True, help="Comma-separated sampling distances in meters.")
@click.option("--clip", help="Clip id to evaluate when the trace CSV holds several.")
@click.option("--markdown", is_flag=True, help="Render a Markdown table instead of TSV.")
@config_options
def sweep(map_file: str, trace_csv: str, ground_truth: str, ks: str, clip: Optional[str], markdown: bool, **cfg_kwargs) -> None:
    """Score replays across a list of sampling distances."""
    with _failing():
        cfg = advisory.AdvisoryConfig(**cfg_kwargs)
        try:
            k_values = [float(part) for part in ks.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"bad --ks value {ks!r}") from None
        if not k_values or any(k <= 0 for k in k_values):
            raise ValueError("--ks needs positive sampling distances")
        hotspot_map = _load_map(map_file)
        trace = _load_trace(trace_csv, clip)
        windows = _windows_for_trace(ground_truth, trace)
        report = evaluation.sweep_sampling_distance(trace, hotspot_map, cfg, k_values, windows)
    _emit_report(report, markdown)


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", "out_path", type=click.Path(dir_okay=False), help="Write the GeoJSON here instead of stdout.")
def export(map_file: str, out_path: Optional[str]) -> None:
    """Export a hotspot map as a GeoJSON FeatureCollection of points."""
    hotspot_map = _load_map(map_file)
    text = json.dumps(ingest.map_to_geojson(hotspot_map), indent=2, allow_nan=False) + "\n"
    if out_path:
        with _failing(), open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
        click.echo(f"{len(hotspot_map)} features -> {out_path}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
