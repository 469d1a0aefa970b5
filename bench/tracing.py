"""In-memory spans and work counters, attached by wrapping pedmap's public names.

Nothing here edits the program. A span or counter is attached by replacing a
module attribute or class attribute with a wrapper for the duration of a
``with patched(...)`` block, and the original is put back on exit. Because
pedmap modules call each other through names bound in the calling module
(``advisory`` calls its own ``haversine_distance``, ``evaluation`` calls its
own ``run_replay``), each wrapper is installed where the caller looks it up.

Spans and counters are collected in separate passes, so counting wrappers on
hot functions such as ``haversine_distance`` never inflate a span's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Spans:
    """Spans kept in memory as ``[name, start_ns, end_ns, parent_index]``."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.records[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.records]
        for _, start, end, parent in self.records:
            if parent >= 0:
                own[parent] -= end - start
        return own


class Counters(dict):
    """Named work counts; missing names read as zero."""

    def __missing__(self, key: str) -> int:
        return 0

    def calls(self, fn: Callable, name: str) -> Callable:
        def counted(*args, **kwargs):
            self[name] += 1
            return fn(*args, **kwargs)

        return counted


@contextmanager
def patched(targets: list[tuple[object, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for each target, then restore."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
