"""Command-line surface: build and merge hotspot maps, replay test drives,
score them against ground truth, and export maps as GeoJSON.

Every subcommand is deterministic: the same inputs and flags produce
byte-identical outputs.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from typing import Iterator, Optional

import click

from . import __version__, advisory, evaluation, ingest


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


def _write(text: str, out_path: Optional[str], summary: str) -> None:
    """Write ``text`` to ``out_path`` and echo ``summary -> out_path``, or write it to stdout."""
    if out_path:
        with _failing(), open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
        click.echo(f"{summary} -> {out_path}")
    else:
        sys.stdout.write(text)


def config_options(command, omit: tuple[str, ...] = ()):
    """Advisory flags for replay/eval/sweep: one per AdvisoryConfig field not in ``omit``, in field
    order, with its default, type and ``help`` metadata (``min_count`` becomes ``--min-count``)."""
    # ``f.type`` is a string under postponed annotations, so the default gives the type.
    for f in reversed([f for f in fields(advisory.AdvisoryConfig) if f.name not in omit]):
        flag = "--" + f.name.replace("_", "-")
        command = click.option(flag, type=type(f.default), default=f.default, show_default=True, help=f.metadata["help"])(command)
    return command


@click.group()
@click.version_option(version=__version__)
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
    _write(lines, out_path, f"{len(timeline.decisions)} checkpoints, {len(timeline.events)} advisories")


def _windows_for_trace(gt_path: str, trace: advisory.DriveTrace) -> list[evaluation.GroundTruthWindow]:
    with _failing(gt_path):
        with open(gt_path, "r", encoding="utf-8") as f:
            windows = evaluation.load_ground_truth(f)
        matching = [w for w in windows if w.clip_id == trace.clip_id]
        if not matching:
            raise ValueError(f"no ground-truth windows for clip {trace.clip_id!r}")
        return matching


def _score(
    map_file: str, trace_csv: str, ground_truth: str, clip: Optional[str], markdown: bool, ks: Optional[str], **cfg_kwargs
) -> None:
    """Score replays at each of the comma-separated ``ks``, or at the configured
    sampling distance when ``ks`` is None, and write the report to stdout."""
    with _failing():
        cfg = advisory.AdvisoryConfig(**cfg_kwargs)
        k_values = [cfg.sampling_distance]
        if ks is not None:
            try:
                k_values = [float(part) for part in ks.split(",") if part.strip()]
            except ValueError:
                raise ValueError(f"bad --ks value {ks!r}") from None
        hotspot_map = _load_map(map_file)
        trace = _load_trace(trace_csv, clip)
        windows = _windows_for_trace(ground_truth, trace)
        report = evaluation.sweep_sampling_distance(trace, hotspot_map, cfg, k_values, windows)
    sys.stdout.write(evaluation.report_to_markdown(report) if markdown else evaluation.report_to_tsv(report))


@main.command("eval")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.option("--clip", help="Clip id to evaluate when the trace CSV holds several.")
@click.option("--markdown", is_flag=True, help="Render a Markdown table instead of TSV.")
@config_options
def eval_cmd(**kwargs) -> None:
    """Score one replay against ground-truth windows at a single sampling distance."""
    _score(ks=None, **kwargs)


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.option("--ks", default="2,3,4,5", show_default=True, help="Comma-separated sampling distances in meters.")
@click.option("--clip", help="Clip id to evaluate when the trace CSV holds several.")
@click.option("--markdown", is_flag=True, help="Render a Markdown table instead of TSV.")
@partial(config_options, omit=("sampling_distance",))  # ``--ks`` alone sets its K values
def sweep(**kwargs) -> None:
    """Score replays across a list of sampling distances."""
    _score(**kwargs)


@main.command()
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", "out_path", type=click.Path(dir_okay=False), help="Write the GeoJSON here instead of stdout.")
def export(map_file: str, out_path: Optional[str]) -> None:
    """Export a hotspot map as a GeoJSON FeatureCollection of points."""
    hotspot_map = _load_map(map_file)
    _write(ingest.geojson_text(hotspot_map), out_path, f"{len(hotspot_map)} features")


if __name__ == "__main__":
    main()
