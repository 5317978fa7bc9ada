"""Shared measurement helpers: percentiles and GC accounting."""

from __future__ import annotations

import gc
import math
import time

now = time.perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class GcMonitor:
    """Counts collections and their pauses through ``gc.callbacks``.

    The collector stays enabled: the pauses are part of what a user of
    the system waits for.
    """

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = now()
            return
        self.pause_s += now() - self._started
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
