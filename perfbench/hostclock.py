"""Host-speed-normalised timing.

The speed of a small shared host drifts by tens of percent within a minute,
which swamps any change worth measuring.  :class:`HostClock` therefore
interleaves a fixed reference loop (the *probe*, ~7 ms) with the measured
work, at most every :data:`INTERVAL_S` seconds, and converts each stretch of
work between two probes into *reference seconds*:

    reference seconds = raw seconds * REFERENCE_PROBE_S / (host probe time)

i.e. the time the stretch would have taken on a host where the probe takes
exactly :data:`REFERENCE_PROBE_S`.  One probe is noisy (about 20%), while
the host drifts over seconds, so the host probe time is the median of the
last :data:`WINDOW` probes; every section starts with a fresh window.
Probe time is excluded from both the raw and the normalised totals.  The
probe must never change: the normalised numbers of two commits are
comparable only under the same probe.

This module imports nothing heavy, so it can time the program's imports.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Callable, Optional, Tuple

#: Probe duration of the reference host, in seconds.
REFERENCE_PROBE_S = 0.007

#: Probes whose median estimates the host's current probe time.
WINDOW = 5

#: Shortest stretch of work between two probes, in seconds.
INTERVAL_S = 0.2

_PROBE_ITERATIONS = 40_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def probe() -> float:
    """Run the fixed reference loop once and return its duration."""
    start = time.perf_counter()
    table = {}
    cell = _Cell()
    total = 0
    for index in range(_PROBE_ITERATIONS):
        table[index & 255] = total
        total += table.get((index * 7) & 255, 1) % 13
        cell.value = total
    return time.perf_counter() - start


class HostClock:
    """Measures sections of work in raw and in reference seconds."""

    def __init__(self) -> None:
        #: Called with each probe's duration (lets a tracer exclude it).
        self.on_probe: Optional[Callable[[float], None]] = None
        self._segment_start: Optional[float] = None
        self._recent: deque = deque(maxlen=WINDOW)
        self._raw = 0.0
        self._normalised = 0.0

    def _probe(self) -> None:
        seconds = probe()
        if self.on_probe is not None:
            self.on_probe(seconds)
        self._recent.append(seconds)

    def start(self) -> None:
        """Open a section (refreshes the probe window first)."""
        for _ in range(WINDOW // 2 + 1):
            self._probe()
        self._raw = 0.0
        self._normalised = 0.0
        self._segment_start = time.perf_counter()

    def tick(self) -> None:
        """Probe if the current stretch of work has run long enough."""
        if self._segment_start is not None and (
            time.perf_counter() - self._segment_start >= INTERVAL_S
        ):
            self._close_segment()

    def _close_segment(self) -> None:
        raw = time.perf_counter() - self._segment_start
        self._probe()
        self._raw += raw
        self._normalised += raw * REFERENCE_PROBE_S / statistics.median(self._recent)
        self._segment_start = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """Close the section; return its ``(raw, reference)`` seconds."""
        self._close_segment()
        self._segment_start = None
        return self._raw, self._normalised
