"""Observability: metrics, event tracing, and the unified ``stats()``.

The paper's argument is an I/O-cost argument; this package makes those
costs first-class operational data instead of benchmark-only internals.
Three pieces:

* :class:`MetricsRegistry` (with :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`, :class:`Timer`) -- a zero-dependency metrics
  home every layer writes into;
* :class:`TraceSink` / :class:`TraceEvent` -- a structured event ring
  buffer (flushes, segment overwrites, dummy rotations, checkpoints,
  overflows, zone queries) with JSONL streaming;
* :class:`ReservoirStats` -- the frozen snapshot every reservoir,
  device, and file structure returns from its ``stats()`` method.

Wiring is one call::

    registry, trace = MetricsRegistry(), TraceSink()
    reservoir.instrument(registry, trace)
    reservoir.ingest(10_000_000)
    print(registry.to_json())
    print(reservoir.stats().records_per_second)

Attaching observers never charges simulated I/O: instrumented and
uninstrumented runs produce bit-identical clocks (tested).
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    Timer,
)
from .stats import ReservoirStats, aggregate_stats, stats_from_dict
from .trace import EVENT_KINDS, TraceEvent, TraceSink

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "ReservoirStats",
    "Timer",
    "TraceEvent",
    "TraceSink",
    "aggregate_stats",
    "stats_from_dict",
]
