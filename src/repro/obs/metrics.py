"""Lightweight metrics primitives: counters, gauges, histograms.

The registry is the numeric half of the run-telemetry subsystem
(:mod:`repro.obs`). Design constraints, in order:

1. **Zero cost when telemetry is disabled.** Instrumented code holds a
   reference to the active :class:`~repro.obs.telemetry.TelemetrySession`
   (or None); with no session the hot paths never touch this module.
2. **Cheap when enabled.** An increment is one attribute add on a
   ``__slots__`` object; histograms use a precomputed bucket scan.
3. **Process-local.** The harness fans experiment cells out over
   forked workers; each worker owns its own registry and writes its
   snapshots into its telemetry stream, and :mod:`repro.obs.report`
   merges the last snapshot of each stream (counters/histograms sum,
   gauges keep the latest value).

Metric names are dotted strings (``inject.skipped.decay``); the
canonical name list lives in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (milliseconds-oriented).
DEFAULT_BUCKETS: Tuple[float, ...] = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 10_000.0)


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (e.g. the virtual time of the latest run)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket distribution with count/sum/min/max.

    ``buckets`` are inclusive upper bounds; values above the last bound
    land in the implicit overflow bucket.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation within the bucket holding the target rank;
        the observed min/max clamp the first and overflow buckets, so
        the estimate can never leave the observed value range. Error is
        bounded by the width of one bucket.
        """
        return bucket_percentile(
            self.buckets, self.bucket_counts, self.count, self.min, self.max, q
        )


def bucket_percentile(
    buckets: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    minimum: Optional[float],
    maximum: Optional[float],
    q: float,
) -> float:
    """Quantile estimate over cumulative-bucket data (shared by live
    :class:`Histogram` instances and the merged snapshot dicts that
    ``repro obs report`` / the dashboard aggregate across processes)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile fraction must be in [0, 1], got %r" % q)
    if not count:
        return 0.0
    lo_clamp = minimum if minimum is not None else 0.0
    hi_clamp = maximum if maximum is not None else (buckets[-1] if buckets else 0.0)
    rank = q * count
    cumulative = 0
    lower = lo_clamp
    bounds = list(buckets) + [hi_clamp]
    for index, bound in enumerate(bounds):
        in_bucket = bucket_counts[index]
        if in_bucket:
            upper = min(bound, hi_clamp)
            base = max(lower, lo_clamp)
            if upper < base:
                upper = base
            if cumulative + in_bucket >= rank:
                fraction = (rank - cumulative) / in_bucket
                fraction = max(0.0, min(1.0, fraction))
                return base + (upper - base) * fraction
            cumulative += in_bucket
        lower = bound
    return hi_clamp


def snapshot_percentile(histogram: dict, q: float) -> float:
    """:func:`bucket_percentile` over one merged-snapshot histogram dict
    (the ``{"count", "sum", "min", "max", "buckets", "bucket_counts"}``
    shape :meth:`MetricsRegistry.snapshot` / :func:`merge_snapshots`
    produce)."""
    return bucket_percentile(
        histogram.get("buckets", ()),
        histogram.get("bucket_counts", ()),
        int(histogram.get("count", 0)),
        histogram.get("min"),
        histogram.get("max"),
        q,
    )


class MetricsRegistry:
    """Name -> instrument map with create-or-return semantics."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument's current state."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge per-process snapshots: counters and histograms sum. A gauge
    named ``*_total`` is a per-process running total and sums too; any
    other gauge keeps the last snapshot's value (processes report
    independent instants)."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            if name.endswith("_total"):
                value += gauges.get(name, 0.0)
            gauges[name] = value
        for name, hist in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "count": hist["count"],
                    "sum": hist["sum"],
                    "min": hist["min"],
                    "max": hist["max"],
                    "buckets": list(hist["buckets"]),
                    "bucket_counts": list(hist["bucket_counts"]),
                }
                continue
            merged["count"] += hist["count"]
            merged["sum"] += hist["sum"]
            for bound_key in ("min", "max"):
                values = [v for v in (merged[bound_key], hist[bound_key]) if v is not None]
                if bound_key == "min":
                    merged[bound_key] = min(values) if values else None
                else:
                    merged[bound_key] = max(values) if values else None
            if merged["buckets"] == hist["buckets"]:
                merged["bucket_counts"] = [
                    a + b for a, b in zip(merged["bucket_counts"], hist["bucket_counts"])
                ]
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
