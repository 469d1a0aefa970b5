"""Scoring replayed advisories against hand-labeled ground truth.

Ground truth is a set of arc-length windows along the test trace where an
advisory should have been active. The advisory events are the timeline's
``AdvisoryTimeline.events``, its maximal runs of active decisions. An event
spans the arcs of its first and last decision, and it is correct when it
overlaps at least one window, after extending the span by one sampling
distance on each side so a preemptive onset just before the window still
gets credit. Precision is correct events over all events; recall is correct
events over correct events plus missed windows. A zero denominator leaves
the metric undefined rather than zero. A sweep replays the drive at each
sampling distance K, but each distinct arc position is decided once and
shared by every K whose grid has it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf
from typing import IO, Optional, Sequence

from .advisory import AdvisoryConfig, AdvisoryDecision, AdvisoryTimeline, DriveTrace, run_replay, with_sampling_distance
from .ingest import HotspotMap

UNDEFINED_MARKER = "—"  # em dash rendered for an undefined metric


@dataclass(frozen=True, slots=True)
class GroundTruthWindow:
    """An arc-length span of the test trace where pedestrians warrant an advisory."""

    clip_id: str
    start_m: float
    end_m: float
    label: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.start_m < self.end_m < inf:
            raise ValueError(f"window requires 0 <= start_m < end_m < inf, got [{self.start_m}, {self.end_m}]")


@dataclass(frozen=True, slots=True)
class EvalCounts:
    correct: int
    false_advisories: int
    missed: int


@dataclass(frozen=True, slots=True)
class EvalRow:
    sampling_distance: float
    precision: Optional[float]
    recall: Optional[float]
    counts: EvalCounts


@dataclass(frozen=True, slots=True)
class EvalReport:
    rows: tuple[EvalRow, ...]


def match_advisories(timeline: AdvisoryTimeline, windows: Sequence[GroundTruthWindow]) -> EvalCounts:
    """Count correct events (those matching a window), false advisories (every other event) and missed windows.

    An event and a window match when they overlap in positive length, with the
    event extended by one sampling distance on each side. One event spanning
    two windows counts once as correct and marks both windows matched.
    """
    for w in windows:
        if w.clip_id != timeline.clip_id:
            raise ValueError(
                f"clip mismatch: timeline is {timeline.clip_id!r}, window is {w.clip_id!r}"
            )
    k = timeline.sampling_distance
    decisions = timeline.decisions
    events = timeline.events
    correct = 0
    matched: set[int] = set()
    for start, stop in events:
        lo = decisions[start].checkpoint.arc_position - k
        hi = decisions[stop - 1].checkpoint.arc_position + k
        hits = {i for i, w in enumerate(windows) if min(hi, w.end_m) - max(lo, w.start_m) > 0}
        correct += bool(hits)
        matched |= hits
    return EvalCounts(correct, len(events) - correct, len(windows) - len(matched))


def precision(counts: EvalCounts) -> Optional[float]:
    """Correct advisories over all advisories given; None when none were given."""
    denom = counts.correct + counts.false_advisories
    return counts.correct / denom if denom else None


def recall(counts: EvalCounts) -> Optional[float]:
    """Correct advisories over the advisories the system should have given."""
    denom = counts.correct + counts.missed
    return counts.correct / denom if denom else None


def sweep_sampling_distance(
    trace: DriveTrace,
    hotspot_map: HotspotMap,
    cfg: AdvisoryConfig,
    sampling_distances: Sequence[float],
    windows: Sequence[GroundTruthWindow],
) -> EvalReport:
    """Replay the drive at each sampling distance and score each run; the replays
    share their decisions, so each distinct arc is decided once.

    Rows come back sorted ascending by sampling distance; duplicates collapse.
    Every sampling distance is validated before any replay starts.
    """
    if not sampling_distances:
        raise ValueError("at least one sampling distance is required")
    configs = {k: with_sampling_distance(cfg, k) for k in sorted(set(sampling_distances))}
    decided: dict[float, AdvisoryDecision] = {}
    rows = []
    for k, k_cfg in configs.items():
        timeline = run_replay(trace, hotspot_map, k_cfg, decided)
        counts = match_advisories(timeline, windows)
        rows.append(EvalRow(k, precision(counts), recall(counts), counts))
    return EvalReport(tuple(rows))


# --- I/O ---------------------------------------------------------------------


def load_ground_truth(source: IO[str]) -> list[GroundTruthWindow]:
    """Read ground-truth windows from a JSON array in a text file, sorted by (clip_id, start_m).

    Windows within one clip must not overlap; ``_window`` gives the entry schema.
    """
    data = json.load(source)
    if not isinstance(data, list):
        raise ValueError("ground truth must be a JSON array")
    windows = [_window(i, w) for i, w in enumerate(data)]
    windows.sort(key=lambda w: (w.clip_id, w.start_m))
    for a, b in zip(windows, windows[1:]):
        if a.clip_id == b.clip_id and b.start_m < a.end_m:
            raise ValueError(f"overlapping windows in clip {a.clip_id!r} at {b.start_m}")
    return windows


def _window(i: int, entry: object) -> GroundTruthWindow:
    """One window from a decoded JSON object with a string ``clip_id``, numeric
    ``start_m`` and ``end_m`` and an optional string ``label``."""
    try:
        if not isinstance(entry, dict):
            raise ValueError("expected an object")
        clip_id, label, start, end = entry.get("clip_id"), entry.get("label", ""), entry.get("start_m"), entry.get("end_m")
        if not (isinstance(clip_id, str) and isinstance(label, str)):
            raise ValueError(f"clip_id and label must be strings, got {clip_id!r}, {label!r}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (start, end)):
            raise ValueError(f"start_m and end_m must be numbers, got {start!r}, {end!r}")
        return GroundTruthWindow(clip_id, float(start), float(end), label)
    except (ValueError, OverflowError) as exc:  # float() overflows on integers beyond float range
        raise ValueError(f"ground-truth entry {i}: {exc}") from None


def _fmt_metric(value: Optional[float]) -> str:
    return UNDEFINED_MARKER if value is None else f"{value:.6g}"


def _fmt_k(k: float) -> str:
    """K to 6 significant digits when that reads back as K, else in full, so no two rows share a label."""
    text = f"{k:.6g}"
    return text if float(text) == k else repr(k)


def report_to_tsv(report: EvalReport) -> str:
    """Tab-separated report; an undefined metric renders as an em dash."""
    lines = ["K_m\tprecision\trecall\tcorrect\tfalse\tmissed"]
    for row in report.rows:
        c = row.counts
        lines.append(
            f"{_fmt_k(row.sampling_distance)}\t{_fmt_metric(row.precision)}\t{_fmt_metric(row.recall)}"
            f"\t{c.correct}\t{c.false_advisories}\t{c.missed}"
        )
    return "\n".join(lines) + "\n"


def report_to_markdown(report: EvalReport) -> str:
    """Markdown table in the precision/recall-by-sampling-distance layout.

    An undefined metric prints as 0 (the convention of published result tables)
    but keeps a footnote marker so it is not mistaken for a measured zero.
    """
    lines = [
        "| Sampling Distance (m) | Precision | Recall |",
        "|---|---|---|",
    ]
    for row in report.rows:
        p, r = ("0*" if v is None else f"{v:.6g}" for v in (row.precision, row.recall))
        lines.append(f"| {_fmt_k(row.sampling_distance)} | {p} | {r} |")
    out = "\n".join(lines) + "\n"
    if any(None in (row.precision, row.recall) for row in report.rows):
        out += "\n\\* no advisories issued; metric undefined\n"
    return out
