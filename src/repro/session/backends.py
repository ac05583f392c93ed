"""Execution backends: one protocol, three engines, one registry.

A backend is *how* a cleaning request is executed — on the stand-alone batch
pipeline, on the partitioned (simulated-cluster) driver, or by replaying the
table through the incremental streaming engine.  All backends take the same
:class:`CleaningRequest` and return the same unified
:class:`~repro.core.report.CleaningReport`, so a
:class:`~repro.session.session.CleaningSession` can swap them with one
builder call::

    session = CleaningSession.builder().with_backend("distributed", workers=4)...

New backends plug in through :func:`register_backend` (mirroring
:func:`repro.workloads.register_workload`) instead of editing this module.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from repro.constraints.rules import Rule
from repro.core.config import MLNCleanConfig
from repro.core.pipeline import MLNClean
from repro.core.report import CleaningReport
from repro.dataset.table import Table
from repro.distributed.driver import DistributedMLNClean
from repro.errors.groundtruth import GroundTruth
from repro.metrics.timing import TimingBreakdown
from repro.obs import observe_run, span
from repro.registry import Registry
from repro.streaming.cleaner import StreamingMLNClean
from repro.streaming.source import TableStreamSource
from repro.streaming.window import WindowPolicy


@dataclass
class CleaningRequest:
    """Everything a backend needs to execute one cleaning run."""

    #: the dirty input table
    dirty: Table
    #: the integrity constraints governing it
    rules: list[Rule]
    #: the pipeline configuration
    config: MLNCleanConfig = field(default_factory=MLNCleanConfig)
    #: injected-error ledger; switches on accuracy instrumentation
    ground_truth: Optional[GroundTruth] = None
    #: explicit stage-name sequence (``None`` = the default Algorithm-1 order)
    stages: Optional[list[str]] = None
    #: error-detector stack (specs, see :mod:`repro.detect`); ``None`` runs
    #: without a detection phase
    detectors: Optional[list] = None


@runtime_checkable
class ExecutionBackend(Protocol):
    """The contract every execution backend implements."""

    #: registry name of the backend ("batch", "distributed", "streaming", ...)
    name: str

    def run(self, request: CleaningRequest) -> CleaningReport:
        """Execute the request and return the unified report."""
        ...  # pragma: no cover - protocol body


class BatchBackend:
    """The stand-alone Algorithm-1 pipeline (the paper's primary setting).

    ``parallelism=N`` (opt-in, default serial) runs the independent
    per-block calls of the ``agp`` and ``rsc`` stages in N forked worker
    processes; output is bit-identical to the serial run — blocks share no
    Stage-I state and the per-block outcomes are merged deterministically in
    block order.  Detectors and custom stage orders work as in serial runs.
    """

    name = "batch"

    def __init__(self, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError("the batch backend needs parallelism >= 1")
        self.parallelism = parallelism

    def run(self, request: CleaningRequest) -> CleaningReport:
        cleaner = MLNClean(
            request.config,
            stages=request.stages,
            parallelism=self.parallelism,
            detectors=request.detectors,
        )
        with span("backend:batch", parallelism=self.parallelism):
            report = cleaner.clean(
                request.dirty, request.rules, request.ground_truth
            )
        observe_run(self.name)
        return report


class DistributedBackend:
    """The partitioned pipeline of Section 6 on a simulated worker pool."""

    name = "distributed"

    def __init__(self, workers: int = 4):
        self.workers = workers

    def run(self, request: CleaningRequest) -> CleaningReport:
        if request.stages is not None:
            raise ValueError(
                "the distributed backend runs the fixed partition/learn/fuse/"
                "clean/gather sequence; custom stage orders are batch-only"
            )
        detect_timings = TimingBreakdown()
        if request.detectors is not None:
            # The detection phase still runs (provenance + metrics + its
            # ``detect`` phase), but the partitioned driver always cleans
            # full-scope, so a detection that would prune anything is
            # rejected rather than ignored.
            from repro.detect.run import run_detection

            detected = run_detection(
                request.dirty,
                request.rules,
                request.detectors,
                ground_truth=request.ground_truth,
                backend=self.name,
                timings=detect_timings,
            )
            if not detected.covers(request.dirty):
                raise ValueError(
                    "the distributed backend cleans full-scope; dirty-cell-"
                    "scoped detectors are batch/streaming-only (use the "
                    "'all-cells' detector to keep detection metrics without "
                    "scoping)"
                )
        driver = DistributedMLNClean(workers=self.workers, config=request.config)
        with span("backend:distributed", workers=self.workers):
            report = driver.clean(
                request.dirty, request.rules, request.ground_truth
            )
        observe_run(self.name)
        cleaning = report.as_cleaning_report()
        cleaning.timings = detect_timings.merge(cleaning.timings)
        return cleaning


class StreamingBackend:
    """Full replay through the incremental engine in insert micro-batches.

    The dirty table is streamed in ascending-tid micro-batches of
    ``batch_size`` tuples; the engine maintains index, Stage I and Stage II
    incrementally.  The engine that executed the last :meth:`run` stays
    reachable as :attr:`engine`, so callers can keep feeding it deltas
    (late corrections, continuous arrivals) after the replay.
    """

    name = "streaming"

    def __init__(self, batch_size: int = 100, window: Optional[WindowPolicy] = None):
        if batch_size < 1:
            raise ValueError("the streaming backend needs batch_size >= 1")
        self.batch_size = batch_size
        self.window = window
        #: the engine of the most recent run (None before the first run)
        self.engine: Optional[StreamingMLNClean] = None

    def build_engine(self, request: CleaningRequest) -> StreamingMLNClean:
        """A fresh incremental engine for the request's rules and schema."""
        if request.stages is not None:
            raise ValueError(
                "the streaming backend re-cleans incrementally in the fixed "
                "Algorithm-1 stage order; custom stage orders are batch-only"
            )
        return StreamingMLNClean(
            request.rules,
            schema=request.dirty.attributes,
            config=request.config,
            window=self.window,
            detectors=request.detectors,
        )

    def run(self, request: CleaningRequest) -> CleaningReport:
        engine = self.build_engine(request)
        source = TableStreamSource(
            request.dirty, self.batch_size, request.ground_truth
        )
        with span(
            "backend:streaming", batch_size=self.batch_size
        ) as backend_span:
            engine.consume(source)
            backend_span.set(ticks=engine.batches_applied)
        self.engine = engine
        observe_run(self.name)
        return engine.report()


#: backend name → factory; factory options are backend-specific
BackendFactory = Callable[..., ExecutionBackend]

_BACKENDS: Registry[BackendFactory] = Registry("backend")
for _name, _factory in (
    ("batch", BatchBackend),
    ("distributed", DistributedBackend),
    ("streaming", StreamingBackend),
):
    _BACKENDS.register(_name, _factory)


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory under ``name`` (case-insensitive).

    Re-registering the same factory is a no-op; rebinding a name to a
    different factory is an error.
    """
    _BACKENDS.register(name, factory)


def available_backends() -> list[str]:
    """All registered backend names, in registration order."""
    return _BACKENDS.names()


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    Keyword options are forwarded to the backend factory (e.g.
    ``workers=4`` for "distributed", ``batch_size=50`` for "streaming").
    """
    return _BACKENDS.get(name)(**options)
