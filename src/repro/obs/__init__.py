"""Observability: span tracing, metrics, and profiling hooks.

The telemetry layer of the package, dependency-free and off-path by
default:

* :mod:`repro.obs.trace` — a span tracer threaded through sessions,
  stages, all execution backends, and the service job lifecycle.  Inactive
  tracing costs two no-op calls per span; activate with
  :func:`use_tracer`, the ``MLNCleanConfig.trace`` knob, ``python -m
  repro.experiments run --trace out.json`` or ``python -m repro.service
  serve --trace-dir DIR``.
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  in a :class:`MetricsRegistry`; the process-default :data:`REGISTRY`
  below carries the library-level instruments (per-stage wall-clock,
  completed runs) and absorbs the process-global distance-engine counters
  as a scrape-time collector.  The service serves all of it as
  ``GET /metrics`` in Prometheus text format.

:func:`stage_scope` is the only timer of a cleaning, baseline or detection
phase, so a phase is instrumented with exactly one ``with`` statement::

    with stage_scope(timings, "batch", stage.name):
        stage.run(context)

which measures once and fans out to three sinks: the report's
``TimingBreakdown``, the ``repro_stage_seconds_total`` counter, and (when a
tracer is ambient) a ``stage:<name>`` span.  The MLNClean backends label
their phases ``batch`` / ``streaming`` / ``distributed``; the baselines
label theirs with the cleaner name (``holoclean``, ``factor-graph``,
``minimal-repair``), so both sides of the paper's runtime comparison are
measured the same way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    ensure_tracer,
    name_tree,
    redacted_spans,
    render_tree,
    span,
    to_chrome,
    tracing_active,
    use_tracer,
)

#: the process-default registry (library instruments + the service's scrape)
REGISTRY = MetricsRegistry()

#: wall-clock per pipeline stage, per backend — always on (one counter add
#: per stage per run), the substrate of stage-resolved perf trajectories
STAGE_SECONDS = REGISTRY.counter(
    "repro_stage_seconds_total",
    "wall-clock seconds spent per pipeline stage",
    ("backend", "stage"),
)

#: completed cleaning runs per backend
RUNS_TOTAL = REGISTRY.counter(
    "repro_runs_total",
    "completed cleaning runs",
    ("backend",),
)

#: latency of the WAL fsync that gates every delta acknowledgement — the
#: durability tax of the cluster's write path (buckets sized for fsync:
#: sub-millisecond on NVMe through tens of milliseconds on shared disks)
WAL_FSYNC_SECONDS = REGISTRY.histogram(
    "repro_wal_fsync_seconds",
    "wall-clock seconds per write-ahead-log append + fsync",
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0),
)

#: deltas replayed from WAL tails during shard recovery
RECOVERY_REPLAYED_DELTAS = REGISTRY.counter(
    "repro_recovery_replayed_deltas_total",
    "deltas replayed from write-ahead-log tails during shard recovery",
)

#: shard recoveries performed, by how the state came back
RECOVERY_RUNS = REGISTRY.counter(
    "repro_recovery_runs_total",
    "shard recoveries, by source of the recovered state",
    ("source",),
)

#: cells flagged dirty by each detector of a detection stack
DETECTOR_CELLS = REGISTRY.counter(
    "repro_detector_cells_total",
    "cells flagged dirty per error detector",
    ("detector",),
)


def get_registry() -> MetricsRegistry:
    """The process-default :class:`MetricsRegistry`."""
    return REGISTRY


def observe_run(backend: str) -> None:
    """Count one completed cleaning run in the default registry."""
    RUNS_TOTAL.labels(backend=backend).inc()


@contextmanager
def stage_scope(timings, backend: str, stage: str, **attrs):
    """Time one stage into ``timings``, the stage counter, and a span.

    One measurement, three sinks: the per-run ``TimingBreakdown`` the
    report carries, the cumulative ``repro_stage_seconds_total`` counter,
    and a ``stage:<name>`` span on the ambient tracer (no-op when tracing
    is off).  Yields the span, so callers can attach outcome attributes.
    """
    started = time.perf_counter()
    try:
        with span(f"stage:{stage}", backend=backend, **attrs) as stage_span:
            yield stage_span
    finally:
        elapsed = time.perf_counter() - started
        timings.record(stage, elapsed)
        STAGE_SECONDS.labels(backend=backend, stage=stage).inc(elapsed)


def stage_seconds_snapshot() -> "dict[str, float]":
    """``{"<backend>.<stage>": seconds}`` from the default registry.

    Benchmarks diff two snapshots around a harness run to attribute
    wall-clock to stages (``BENCH_perf.json``'s ``stage_seconds``).
    """
    out: "dict[str, float]" = {}
    for labels, child in STAGE_SECONDS.samples():
        out[f"{labels['backend']}.{labels['stage']}"] = child.value
    return out


@REGISTRY.register_collector
def _distance_collector():
    """Expose the process-global distance-engine counters at scrape time.

    The accumulator itself lives in :mod:`repro.perf.engine` (engine-local
    counters merged under a lock); this collector absorbs it into the
    registry instead of keeping a second copy of every counter.  The import
    is deferred to keep :mod:`repro.obs` free of package dependencies.
    """
    from repro.perf.engine import global_distance_stats

    stats = global_distance_stats().as_dict()
    hit_rate = stats.pop("hit_rate", 0.0)
    families = [
        {
            "name": f"repro_distance_{key}_total",
            "type": "counter",
            "help": f"process-wide distance-engine counter: {key}",
            "samples": [({}, value)],
        }
        for key, value in stats.items()
    ]
    families.append(
        {
            "name": "repro_distance_cache_hit_rate",
            "type": "gauge",
            "help": "fraction of pair requests answered without computation",
            "samples": [({}, hit_rate)],
        }
    )
    return families


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RECOVERY_REPLAYED_DELTAS",
    "RECOVERY_RUNS",
    "REGISTRY",
    "RUNS_TOTAL",
    "STAGE_SECONDS",
    "WAL_FSYNC_SECONDS",
    "Span",
    "Tracer",
    "current_tracer",
    "ensure_tracer",
    "get_registry",
    "name_tree",
    "observe_run",
    "parse_prometheus",
    "redacted_spans",
    "render_tree",
    "span",
    "stage_scope",
    "stage_seconds_snapshot",
    "to_chrome",
    "tracing_active",
    "use_tracer",
]
