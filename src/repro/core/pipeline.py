"""The MLNClean pipeline (Algorithm 1 of the paper).

::

    dirty table + rules
        │  pre-processing: MLN index construction
        ▼
    blocks (one per rule) ──► Stage I per block: AGP, then RSC
        │                     (one clean data version per block)
        ▼
    Stage II: FSCR across the data versions, duplicate elimination
        │
        ▼
    clean table (+ report)

The stage sequence is pluggable: each step is a registered
:class:`~repro.core.stages.Stage` and the default order is
:data:`~repro.core.stages.DEFAULT_STAGES`.  A caller (usually a
:class:`~repro.session.CleaningSession`) may reorder, disable, or extend the
stages by passing an explicit stage-name sequence.

The pipeline can run *instrumented*: when the caller supplies the ground
truth of the injected errors, the per-stage component metrics (Figures 8-14)
and the overall repair accuracy (Eq. 7) are computed alongside the cleaning
itself.  Instrumentation never influences any cleaning decision — the ground
truth is only read by the metric counters.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from repro.constraints.rules import Rule
from repro.core.config import MLNCleanConfig
from repro.core.index import MLNIndex
from repro.core.report import CleaningReport
from repro.core.stages import StageContext, build_stages
from repro.dataset.table import Table
from repro.detect.run import CleaningScope, run_detection
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import evaluate_repair
from repro.metrics.timing import PerfDetails, TimingBreakdown
from repro.obs import ensure_tracer, span, stage_scope


class MLNClean:
    """The hybrid data cleaning framework of the paper.

    Typical use::

        cleaner = MLNClean(MLNCleanConfig(abnormal_threshold=1))
        report = cleaner.clean(dirty_table, rules)
        clean_table = report.cleaned

    ``stages`` overrides the Algorithm-1 stage order with an explicit
    sequence of registered stage names (see :mod:`repro.core.stages`);
    ``None`` keeps the paper's AGP → RSC → FSCR → dedup sequence, with the
    dedup stage honouring ``config.remove_duplicates``.

    ``parallelism=N`` (N > 1) lets the ``agp`` and ``rsc`` stages run their
    independent per-block calls in N forked worker processes, merging the
    outcomes in block order — the cleaned table, F1 and stage outcomes are
    bit-identical to a serial run; only wall-clock (still reported as
    separate ``agp`` and ``rsc`` phases) changes.  It composes with custom
    stage orders and detectors like any other run.

    ``detectors`` is an optional error-detection stack (detector specs, see
    :mod:`repro.detect`) run before the index build.  The result scopes the
    run to the detected-dirty cells — Stage I only enumerates blocks
    containing detected cells, Stage II only re-fuses affected tuples —
    under the exact-or-prune contract: a detection covering every cell
    (e.g. the ``all-cells`` default detector) disables scoping, producing
    byte-identical output to a run without detectors.
    """

    def __init__(
        self,
        config: Optional[MLNCleanConfig] = None,
        stages: Optional[Sequence[str]] = None,
        parallelism: int = 1,
        detectors: Optional[Sequence] = None,
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.config = config or MLNCleanConfig()
        self.stages = list(stages) if stages is not None else None
        self.parallelism = parallelism
        self.detectors = list(detectors) if detectors is not None else None

    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
    ) -> CleaningReport:
        """Run the full two-stage cleaning process on ``dirty``.

        ``ground_truth`` (the injected-error ledger) switches on the
        instrumentation: overall accuracy and per-component metrics are
        attached to the returned report.
        """
        if not rules:
            raise ValueError("MLNClean needs at least one integrity constraint")
        timings = TimingBreakdown()
        instrument = self.config.instrument and ground_truth is not None
        context = StageContext(
            dirty=dirty,
            rules=list(rules),
            config=self.config,
            parallelism=self.parallelism,
        )
        # One shared distance engine for the whole run: AGP, RSC, FSCR and
        # dedup all read/write the same cache, and its counters end up in the
        # report's PerfDetails.
        context.engine = self.config.engine()
        if instrument:
            clean_reference = ground_truth.clean_table(dirty)

            def clean_lookup(tid: int) -> dict[str, str]:
                return clean_reference.row(tid).as_dict()

            context.clean_lookup = clean_lookup
            context.dirty_cells = ground_truth.dirty_cells

        with ensure_tracer(self.config.trace), span(
            "pipeline.clean",
            backend="batch",
            tuples=len(dirty),
            rules=len(rules),
            parallelism=self.parallelism,
        ):
            # The optional detection phase (before the index: detectors read
            # only the table and the rules).  Exact-or-prune: a detection
            # covering the whole table builds no scope, so the run below is
            # byte-identical to one without detectors.
            if self.detectors is not None:
                context.detected = run_detection(
                    dirty,
                    rules,
                    self.detectors,
                    ground_truth=ground_truth,
                    backend="batch",
                    timings=timings,
                )
                if not context.detected.covers(dirty):
                    context.scope = CleaningScope(context.detected, dirty)

            # Pre-processing: MLN index construction (lines 1-13 of Alg. 1).
            with stage_scope(timings, "batch", "index") as index_span:
                index = MLNIndex.build(dirty, rules)
                context.blocks = index.block_list
                index_span.set(blocks=len(context.blocks))

            # Candidate-pruning support: per-block q-gram indexes for the
            # engine's batch API (skipped for metrics without a valid gram
            # bound, where batch queries scan plainly anyway).
            if context.engine.supports_qgram:
                with stage_scope(timings, "batch", "qgram-index") as qgram_span:
                    index.enable_qgram(context.engine.qgram_size)
                    qgram_span.set(
                        values=sum(
                            len(block.qgram_index or ())
                            for block in context.blocks
                        )
                    )

            # The stage sequence (Stage I lines 14-17, Stage II line 18 +
            # dedup).
            for stage in build_stages(self.stages, self.config):
                with stage_scope(timings, "batch", stage.name):
                    stage.run(context)

        repaired = context.repaired if context.repaired is not None else dirty.copy(
            name=f"{dirty.name}-repaired"
        )
        cleaned = context.cleaned if context.cleaned is not None else repaired

        accuracy = None
        if instrument:
            accuracy = evaluate_repair(dirty, repaired, ground_truth)

        return CleaningReport(
            dirty=dirty,
            repaired=repaired,
            cleaned=cleaned,
            timings=timings,
            agp=context.outcomes.get("agp"),
            rsc=context.outcomes.get("rsc"),
            fscr=context.outcomes.get("fscr"),
            dedup=context.dedup,
            accuracy=accuracy,
            backend="batch",
            details=PerfDetails(
                distance=context.engine.stats.as_dict(),
                parallelism=self.parallelism,
                detection=self._detection_details(context),
            ),
        )

    @staticmethod
    def _detection_details(context: StageContext) -> Optional[dict]:
        """The masked detection drill-down of the run (``None`` without one)."""
        if context.detected is None:
            return None
        payload = context.detected.to_json_dict()
        payload["scoped"] = context.scope is not None
        if context.scope is not None:
            payload["scoped_blocks"] = context.scope.selected_block_names()
            payload["affected_tuples"] = len(context.scope.tids)
        return payload

    def clean_table(self, dirty: Table, rules: Sequence[Rule]) -> Table:
        """Convenience wrapper returning only the cleaned table."""
        return self.clean(dirty, rules).cleaned
