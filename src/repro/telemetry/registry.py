"""Process-local metrics registry: counters, gauges, histograms, timers.

Primitives are deliberately tiny (``__slots__``, plain attribute
arithmetic): they live on the hot side of the telemetry boundary and are
only ever touched when telemetry is enabled.  Every snapshot is a plain
string-keyed tree bottoming out in finite numbers, which the run-manifest
schema checks with :func:`repro.utils.validation._check_numeric_tree`.

Snapshots from different processes merge associatively
(:meth:`MetricsRegistry.merge`), which is how per-replication worker
registries fold into one experiment-wide view.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (geometric, covers sub-ms timings
#: through minutes as well as small integer counts like drift ages).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def add(self, n: float = 1) -> None:
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming summary (count/sum/min/max) plus cumulative-style buckets.

    ``bounds`` are inclusive upper bounds; one overflow bucket catches the
    rest.  Two histograms with the same bounds merge exactly.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, n: int = 1) -> None:
        value = float(value)
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += n
                return
        self.bucket_counts[-1] += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        out: dict[str, float] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for bound, n in zip(self.bounds, self.bucket_counts):
            out[f"le_{bound:g}"] = n
        out["overflow"] = self.bucket_counts[-1]
        return out

    def merge_snapshot(self, snap: Mapping) -> None:
        count = int(snap.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(snap.get("sum", 0.0))
        self.min = min(self.min, float(snap.get("min", math.inf)))
        self.max = max(self.max, float(snap.get("max", -math.inf)))
        for i, bound in enumerate(self.bounds):
            self.bucket_counts[i] += int(snap.get(f"le_{bound:g}", 0))
        self.bucket_counts[-1] += int(snap.get("overflow", 0))


class Timer:
    """Aggregated monotonic-clock durations (count/total/min/max seconds)."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @contextmanager
    def time(self) -> Iterator[None]:
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(perf_counter() - t0)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s if self.count else 0.0,
        }

    def merge_snapshot(self, snap: Mapping) -> None:
        count = int(snap.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total_s += float(snap.get("total_s", 0.0))
        self.min_s = min(self.min_s, float(snap.get("min_s", math.inf)))
        self.max_s = max(self.max_s, float(snap.get("max_s", -math.inf)))


class MetricsRegistry:
    """Create-on-first-use registry for the four metric kinds."""

    __slots__ = ("counters", "gauges", "histograms", "timers")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, Timer] = {}

    # -- accessors (create on demand) -----------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(bounds)
        return h

    def timer(self, name: str) -> Timer:
        t = self.timers.get(name)
        if t is None:
            t = self.timers[name] = Timer()
        return t

    # -- one-shot conveniences -------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counter(name).add(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float, n: int = 1) -> None:
        self.histogram(name).observe(value, n)

    def timer_add(self, name: str, seconds: float) -> None:
        self.timer(name).add(seconds)

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-friendly numeric tree of everything recorded so far."""
        return {
            "counters": {k: c.snapshot() for k, c in sorted(self.counters.items())},
            "gauges": {k: g.snapshot() for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self.histograms.items())
            },
            "timers": {k: t.snapshot() for k, t in sorted(self.timers.items())},
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters/histograms/timers add; gauges are last-write-wins (the
        merge order is the caller's replication order).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, snap in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_snapshot(snap)
        for name, snap in snapshot.get("timers", {}).items():
            self.timer(name).merge_snapshot(snap)
