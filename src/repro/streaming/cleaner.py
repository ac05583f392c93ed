"""StreamingMLNClean: micro-batch incremental cleaning.

The batch pipeline (:class:`repro.core.pipeline.MLNClean`) re-derives
everything from scratch on every run: index, weights, Stage I, Stage II.
This engine instead keeps the whole cleaning state alive between micro-
batches and re-derives only what a batch's deltas invalidated:

1. **Index** — the raw two-layer index is maintained per delta
   (:class:`~repro.streaming.incremental_index.IncrementalMLNIndex`); the
   ``O(|B| × |T|)`` rebuild disappears.
2. **Stage I (AGP + RSC)** — a delta dirties specific groups of specific
   blocks; only the *affected blocks* are re-cleaned, each through the
   ``agp`` then the ``rsc`` stage of :mod:`repro.core.stages`.  The block is
   the sound re-cleaning unit because RSC's weight learning is block-global
   (the Eq.-4 prior normalises by the block's total support), so any change
   inside a block can shift every weight of that block; blocks no delta
   touched keep their previous Stage-I result untouched.
3. **Stage II (FSCR)** — fusion is re-run only for the tuples whose fusion
   *inputs* changed: tuples whose γ values or weight changed in some
   re-cleaned block, tuples whose earlier fusion involved conflicts or
   substitutions against a re-cleaned block (their substitution pool may
   have changed), previously unfusable tuples covered by a re-cleaned
   block, and the batch's own tuples.  Everything else keeps its fusion.
   :meth:`~repro.core.stages.FSCRStage.fuse_tuples` re-fuses them and
   patches the maintained repaired table.
4. **Deduplication** — the ``dedup`` stage re-runs over the maintained
   repaired table (a cheap hash pass).

Affected-set tracking is exact, not heuristic: a tuple outside the set has
bit-identical fusion inputs, so re-running FSCR on it could not change its
row.  Combined with the canonical-order block clones of the incremental
index, replaying a table as deltas (in ascending tuple-id order) therefore
converges to exactly the cleaned table batch MLNClean produces — the
equivalence the streaming tests assert.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.constraints.rules import Rule
from repro.core.agp import AGPOutcome
from repro.core.config import MLNCleanConfig
from repro.core.dedup import DeduplicationResult
from repro.core.fscr import FSCROutcome, TupleFusion
from repro.core.index import Block
from repro.core.report import CleaningReport
from repro.core.rsc import RSCOutcome
from repro.core.stages import AGPStage, DedupStage, FSCRStage, RSCStage, StageContext
from repro.dataset.schema import Schema
from repro.dataset.table import Cell, Table
from repro.errors.groundtruth import ErrorType, GroundTruth, InjectedError
from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.timing import TimingBreakdown
from repro.obs import ensure_tracer, span, stage_scope
from repro.streaming.delta import Delete, Delta, DeltaBatch, Insert, Update
from repro.detect.run import CleaningScope
from repro.detect.streaming import StreamDetection
from repro.streaming.incremental_index import (
    DirtiedGroups,
    IncrementalMLNIndex,
    merge_dirtied,
)
from repro.streaming.window import WindowPolicy

#: one tuple's post-Stage-I data version in one block: (γ values, γ weight)
Version = tuple[tuple[str, ...], float]


@dataclass
class StreamingBatchReport:
    """What one micro-batch changed and what it cost."""

    #: 0-based batch sequence number
    sequence: int
    #: inserts / updates / deletes applied (window evictions count as deletes)
    delta_counts: dict[str, int] = field(default_factory=dict)
    #: tuples the window policy expired this batch
    evicted_tids: list[int] = field(default_factory=list)
    #: blocks whose Stage I was re-run
    affected_blocks: list[str] = field(default_factory=list)
    #: groups the batch dirtied, per block
    dirtied_groups: DirtiedGroups = field(default_factory=dict)
    #: tuples whose fusion (Stage II) was re-resolved
    resolved_tids: list[int] = field(default_factory=list)
    #: tuples whose fusion attempt failed this batch (kept dirty)
    failed_tids: list[int] = field(default_factory=list)
    #: wall-clock per phase for this batch only
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    #: Stage-I outcomes of the re-cleaned blocks
    agp: AGPOutcome = field(default_factory=AGPOutcome)
    rsc: RSCOutcome = field(default_factory=RSCOutcome)
    #: tuples retained after the batch (post-eviction)
    tuples_total: int = 0
    #: cumulative repair accuracy, when a ground truth is being streamed
    accuracy: Optional[RepairAccuracy] = None

    @property
    def dirtied_group_count(self) -> int:
        return sum(len(keys) for keys in self.dirtied_groups.values())

    @property
    def runtime(self) -> float:
        return self.timings.total

    def describe(self) -> str:
        """A one-line human-readable summary (used by the examples)."""
        counts = ", ".join(f"{k}={v}" for k, v in self.delta_counts.items() if v)
        line = (
            f"batch {self.sequence}: {counts or 'no deltas'}"
            f" | blocks re-cleaned {len(self.affected_blocks)}"
            f" | groups dirtied {self.dirtied_group_count}"
            f" | tuples re-fused {len(self.resolved_tids)}"
            f" | retained {self.tuples_total}"
            f" | {self.runtime:.3f}s"
        )
        if self.accuracy is not None:
            line += f" | f1 {self.accuracy.f1:.3f}"
        return line


class StreamingMLNClean:
    """Incremental MLNClean over micro-batches of tuple deltas.

    Typical use::

        engine = StreamingMLNClean(rules, schema=["HN", "CT", "ST", "PN"])
        for batch in source:
            report = engine.apply_batch(batch.deltas, batch.ground_truth)
            print(report.describe())
        clean_table = engine.cleaned

    Each :class:`StreamingBatchReport` lists the AGP merges and RSC repairs
    of its tick.  The engine's cumulative totals (:meth:`report`,
    :meth:`state_dict`) keep only the counters of those outcomes, so their
    size stays constant however many ticks the stream runs.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        schema: Union[Schema, Sequence[str]],
        config: Optional[MLNCleanConfig] = None,
        window: Optional[WindowPolicy] = None,
        detectors: Optional[Sequence] = None,
    ):
        if not rules:
            raise ValueError("StreamingMLNClean needs at least one integrity constraint")
        self.rules = list(rules)
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.config = config or MLNCleanConfig()
        self.window = window
        # Incremental re-detection: per tick, only the dirtied rules /
        # touched tuples are re-checked (table-granularity detectors fall
        # back to a full pass).  Exact-or-prune per tick: a detection that
        # covers the retained table disables scoping for that tick.
        self._detect = (
            StreamDetection(detectors, self.rules) if detectors is not None else None
        )
        self._detected = None

        self._dirty = Table(self.schema, name="stream")
        self._repaired = Table(self.schema, name="stream-repaired")
        self._cleaned: Table = self._repaired
        self._index = IncrementalMLNIndex(self.rules)
        # The distance engine persists across micro-batches: re-cleaning a
        # dirtied block re-reads almost all of its γ-pair distances from the
        # cache.  Value tracking reference-counts every retained tuple's
        # values, so window eviction invalidates exactly the cache entries of
        # values that left the stream.
        self._engine = self.config.engine(track_values=True)
        if self._engine.supports_qgram:
            # Built empty here, then maintained by the delta hooks — the
            # streaming analog of the batch pipeline's qgram-index stage.
            self._index.enable_qgram(self._engine.qgram_size)
        self._agp = AGPStage(self.config)
        self._rsc = RSCStage(self.config)
        self._fscr = FSCRStage(self.config)
        self._dedup_stage = DedupStage(self.config)

        #: post-Stage-I state of every block, in rule order (FSCR consumes it)
        self._stage1: dict[str, Block] = {rule.name: Block(rule) for rule in self.rules}
        #: per block: tid → (γ values, weight) after the last Stage-I run
        self._block_versions: dict[str, dict[int, Version]] = {
            rule.name: {} for rule in self.rules
        }
        self._fusions: dict[int, TupleFusion] = {}
        self._failed: set[int] = set()
        self._dedup: Optional[DeduplicationResult] = None
        self._ground_truth = GroundTruth()
        self._timings = TimingBreakdown()
        self._agp_total = AGPOutcome()
        self._rsc_total = RSCOutcome()
        self._batches = 0

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> Table:
        """The current (as-arrived) table, deltas applied, uncleaned."""
        return self._dirty

    @property
    def repaired(self) -> Table:
        """The repaired table with every retained tuple still present."""
        return self._repaired

    @property
    def cleaned(self) -> Table:
        """The repaired table after duplicate elimination."""
        return self._cleaned

    @property
    def index(self) -> IncrementalMLNIndex:
        return self._index

    @property
    def engine(self):
        """The persistent distance engine (cache + counters) of this stream."""
        return self._engine

    @property
    def batches_applied(self) -> int:
        return self._batches

    @property
    def detection(self):
        """The :class:`~repro.detect.DirtyCells` of the last tick.

        ``None`` when the engine runs without detectors (or before the
        first batch).
        """
        return self._detected

    @property
    def detected_cells(self) -> Optional[int]:
        """Detected-cell count of the last tick (promoted to run metrics)."""
        return None if self._detected is None else self._detected.count

    def __len__(self) -> int:
        return len(self._dirty)

    # ------------------------------------------------------------------
    # the micro-batch step
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        batch: Union[DeltaBatch, Iterable[Delta]],
        ground_truth: Optional[GroundTruth] = None,
    ) -> StreamingBatchReport:
        """Apply one micro-batch of deltas and re-clean what it invalidated.

        ``ground_truth`` extends the engine's cumulative injected-error
        ledger (sources that replay corrupted workloads provide one per
        batch); when present, the cumulative repair accuracy is attached to
        the report.
        """
        if not isinstance(batch, DeltaBatch):
            batch = DeltaBatch(list(batch))
        self._validate_batch(batch)
        if ground_truth is not None:
            # merged before the tick so ledger-driven detectors (perfect)
            # see the batch's own injected errors
            self._ground_truth = self._ground_truth.merge(ground_truth)
        report = StreamingBatchReport(sequence=self._batches)
        timings = report.timings
        dirtied: DirtiedGroups = {}

        with span(
            "stream.tick", sequence=self._batches, deltas=len(batch)
        ) as tick_span:
            with stage_scope(timings, "streaming", "delta"):
                inserted, updated, deleted = self._apply_deltas(batch, dirtied)
                report.evicted_tids = self._apply_window(
                    inserted, deleted, dirtied
                )
            report.delta_counts = {
                "inserts": len(inserted),
                "updates": len(updated),
                "deletes": len(deleted) + len(report.evicted_tids),
            }
            report.dirtied_groups = {
                name: set(keys) for name, keys in dirtied.items()
            }

            # Incremental re-detection on the dirtied blocks / touched
            # tuples only; exact-or-prune per tick (a covering detection
            # leaves this tick's cleaning unscoped, i.e. today's exact path).
            scope = None
            if self._detect is not None:
                with stage_scope(timings, "streaming", "detect") as detect_span:
                    self._detected = self._detect.update(
                        self._dirty,
                        dirtied_rules=[
                            name for name, keys in dirtied.items() if keys
                        ],
                        touched_tids=inserted + updated,
                        removed_tids=deleted + report.evicted_tids,
                        ground_truth=self._ground_truth
                        if len(self._ground_truth)
                        else None,
                    )
                    detect_span.set(cells=self._detected.count)
                if not self._detected.covers(self._dirty):
                    scope = CleaningScope(self._detected, self._dirty)

            # Stage I on the affected blocks only, block-major: AGP then RSC
            # per block (under a scope the stages skip the blocks without
            # detected cells, which still get their canonical post-delta
            # structure).
            context = StageContext(
                dirty=self._dirty,
                rules=self.rules,
                config=self.config,
                engine=self._engine,
                scope=scope,
            )
            affected = [name for name in self._stage1 if dirtied.get(name)]
            report.affected_blocks = affected
            for name in affected:
                context.blocks = [self._index.canonical_block(name)]
                with stage_scope(timings, "streaming", "agp", block=name):
                    self._agp.run(context)
                report.agp.extend(context.outcomes["agp"])
                with stage_scope(timings, "streaming", "rsc", block=name):
                    self._rsc.run(context)
                report.rsc.extend(context.outcomes["rsc"])
                self._stage1[name] = context.blocks[0]

            # Stage II for the tuples whose fusion inputs changed (under a
            # scope, only the affected tuples that hold a detected cell).
            with stage_scope(timings, "streaming", "fscr"):
                affected_tids = self._affected_tuples(
                    affected, inserted, updated
                )
                if scope is not None:
                    affected_tids &= scope.tids
                resolved, failed = self._refuse(context, affected_tids)
            report.resolved_tids = resolved
            report.failed_tids = failed

            if self.config.remove_duplicates:
                context.repaired = self._repaired
                with stage_scope(timings, "streaming", "dedup"):
                    self._dedup_stage.run(context)
                self._dedup = context.dedup
                self._cleaned = context.cleaned
            else:
                self._dedup = None
                self._cleaned = self._repaired
            report.tuples_total = len(self._dirty)
            tick_span.set(
                affected_blocks=len(affected),
                resolved=len(resolved),
                retained=report.tuples_total,
            )

        if self.config.instrument and len(self._ground_truth):
            report.accuracy = self.accuracy()

        self._timings = self._timings.merge(timings)
        # counters only: the per-tick merge / repair lists stay on the report
        self._agp_total.extend(replace(report.agp, merges=[]))
        self._rsc_total.extend(replace(report.rsc, repairs=[]))
        self._batches += 1
        return report

    def consume(self, stream: Iterable) -> list[StreamingBatchReport]:
        """Drain a stream source, applying every batch it yields.

        Accepts any iterable of :class:`DeltaBatch` or of objects with
        ``deltas`` / ``ground_truth`` attributes (the stream sources of
        :mod:`repro.streaming.source`).
        """
        reports = []
        with ensure_tracer(self.config.trace):
            for item in stream:
                deltas = getattr(item, "deltas", item)
                ground_truth = getattr(item, "ground_truth", None)
                reports.append(self.apply_batch(deltas, ground_truth))
        return reports

    # ------------------------------------------------------------------
    # cumulative results
    # ------------------------------------------------------------------
    def accuracy(self) -> Optional[RepairAccuracy]:
        """Cumulative repair accuracy against the streamed ground truth."""
        if not len(self._ground_truth):
            return None
        return evaluate_repair(self._dirty, self._repaired, self._ground_truth)

    def report(self) -> CleaningReport:
        """A cumulative :class:`CleaningReport` over everything streamed so far.

        Timings accumulate across batches; the stage outcomes aggregate the
        counters of the re-cleaning work actually performed (not what a
        batch run would have done once).  Their ``merges`` / ``repairs``
        lists are empty: each tick's are on its :class:`StreamingBatchReport`.
        """
        fscr = FSCROutcome(
            repaired=self._repaired,
            fusions=dict(self._fusions),
            failed_tuples=sorted(self._failed),
        )
        return CleaningReport(
            dirty=self._dirty,
            repaired=self._repaired,
            cleaned=self._cleaned,
            timings=self._timings,
            agp=self._agp_total,
            rsc=self._rsc_total,
            fscr=fscr,
            dedup=self._dedup,
            accuracy=self.accuracy(),
            backend="streaming",
            details=self,
        )

    # ------------------------------------------------------------------
    # state snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A JSON-safe snapshot from which :meth:`restore_state` rebuilds
        an equivalent engine.

        Only the *path-dependent* state is serialized: the retained dirty
        rows (in arrival order), the window bookkeeping, tid allocators,
        the batch counter, the cumulative Stage-I counters (the totals hold
        no merge or repair lists, so a snapshot does not grow with the
        number of ticks) and the streamed ground-truth ledger.  Everything
        else — index, block versions, fusions, the repaired/cleaned tables,
        the distance cache — is content-deterministic (the affected-set
        tracking is exact, see the module docstring) and is re-derived by
        replaying the retained rows through the normal apply path on
        restore.
        """
        return {
            "format": 1,
            "schema": list(self.schema),
            "batches": self._batches,
            "next_tid": self._dirty.next_tid,
            "rows": [[row.tid, [row[a] for a in self.schema]] for row in self._dirty],
            "window": None if self.window is None else self.window.state_dict(),
            "agp_total": self._agp_total.as_json_dict(),
            "rsc_total": self._rsc_total.as_json_dict(),
            "ground_truth": [
                {
                    "tid": error.cell.tid,
                    "attribute": error.cell.attribute,
                    "clean": error.clean_value,
                    "dirty": error.dirty_value,
                    "type": error.error_type.value,
                }
                for error in self._ground_truth
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild this (fresh) engine from a :meth:`state_dict` payload.

        The retained rows are bootstrapped through :meth:`apply_batch` as
        one synthetic insert batch with the window detached (the rows
        already survived eviction), then the path-dependent accumulators
        are overwritten from the snapshot.  Timings restart at zero —
        wall-clock is masked out of report signatures anyway.
        """
        if self._batches or len(self._dirty):
            raise ValueError("restore_state needs a freshly constructed engine")
        if int(state.get("format", 0)) != 1:
            raise ValueError(f"unsupported engine state format {state.get('format')!r}")
        if list(self.schema) != list(state["schema"]):
            raise ValueError("engine state was taken under a different schema")
        window, self.window = self.window, None
        try:
            rows = state["rows"]
            if rows:
                self.apply_batch(
                    DeltaBatch(
                        [
                            Insert(
                                values=dict(zip(self.schema, values)), tid=int(tid)
                            )
                            for tid, values in rows
                        ]
                    )
                )
        finally:
            self.window = window
        if self.window is not None:
            if state["window"] is None:
                raise ValueError("engine state has no window bookkeeping")
            self.window.restore_state(state["window"])
        elif state["window"] is not None:
            raise ValueError("engine state expects a window policy")
        next_tid = int(state["next_tid"])
        # both tables share the stream's tid allocator
        self._dirty.reserve_tids(next_tid)
        self._repaired.reserve_tids(next_tid)
        self._batches = int(state["batches"])
        # snapshots taken before the totals became counters-only still carry
        # the merge / repair lists; they are dropped here
        self._agp_total = replace(
            AGPOutcome.from_json_dict(state["agp_total"]), merges=[]
        )
        self._rsc_total = replace(
            RSCOutcome.from_json_dict(state["rsc_total"]), repairs=[]
        )
        self._ground_truth = GroundTruth(
            InjectedError(
                cell=Cell(int(e["tid"]), str(e["attribute"])),
                clean_value=str(e["clean"]),
                dirty_value=str(e["dirty"]),
                error_type=ErrorType(e["type"]),
            )
            for e in state["ground_truth"]
        )
        self._timings = TimingBreakdown()

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def _validate_batch(self, batch: DeltaBatch) -> None:
        """Reject malformed batches before any state is mutated."""
        present = set(self._dirty.tids)
        # Mirror Table.append's tid assignment so collisions between
        # auto-assigned and explicit tids are caught up front too.
        next_tid = self._dirty.next_tid
        for delta in batch:
            if isinstance(delta, Insert):
                missing = [a for a in self.schema if a not in delta.values]
                if missing:
                    raise KeyError(f"insert is missing attributes {missing!r}")
                extra = [a for a in delta.values if a not in self.schema]
                if extra:
                    raise KeyError(f"insert has attributes outside the schema: {extra!r}")
                tid = delta.tid if delta.tid is not None else next_tid
                if tid in present:
                    raise ValueError(f"insert reuses live tuple id {tid}")
                present.add(tid)
                next_tid = max(next_tid, tid + 1)
            elif isinstance(delta, Update):
                if delta.tid not in present:
                    raise KeyError(f"update targets unknown tuple id {delta.tid}")
                extra = [a for a in delta.changes if a not in self.schema]
                if extra:
                    raise KeyError(f"update has attributes outside the schema: {extra!r}")
            elif isinstance(delta, Delete):
                if delta.tid not in present:
                    raise KeyError(f"delete targets unknown tuple id {delta.tid}")
                present.discard(delta.tid)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported delta {delta!r}")

    def _apply_deltas(
        self, batch: DeltaBatch, dirtied: DirtiedGroups
    ) -> tuple[list[int], list[int], list[int]]:
        """Apply the deltas to the table, index and repaired table."""
        inserted: list[int] = []
        updated: list[int] = []
        deleted: list[int] = []
        for delta in batch:
            if isinstance(delta, Insert):
                row = self._dirty.append(delta.values, tid=delta.tid)
                values = row.as_dict()
                merge_dirtied(dirtied, self._index.add_tuple(row.tid, values))
                self._repaired.append(values, tid=row.tid)
                self._engine.retain(values.values())
                inserted.append(row.tid)
            elif isinstance(delta, Update):
                old_values = self._dirty.row(delta.tid).as_dict()
                new_values = dict(old_values)
                new_values.update(
                    {attribute: str(value) for attribute, value in delta.changes.items()}
                )
                merge_dirtied(
                    dirtied,
                    self._index.update_tuple(delta.tid, old_values, new_values),
                )
                for attribute, value in delta.changes.items():
                    self._dirty.set_value(delta.tid, attribute, value)
                self._engine.retain(new_values.values())
                self._engine.release(old_values.values())
                updated.append(delta.tid)
            else:
                self._remove_tuple(delta.tid, dirtied)
                deleted.append(delta.tid)
        return inserted, updated, deleted

    def _apply_window(
        self, inserted: list[int], deleted: list[int], dirtied: DirtiedGroups
    ) -> list[int]:
        """Let the window policy expire old tuples through the delete path."""
        if self.window is None:
            return []
        if deleted:
            self.window.forget(deleted)
        # A tuple inserted and deleted within the same batch must never
        # enter the window — it would be a stale tid at eviction time.
        live_inserts = [tid for tid in inserted if self._dirty.has_tid(tid)]
        evicted = self.window.observe(live_inserts)
        for tid in evicted:
            self._remove_tuple(tid, dirtied)
        return evicted

    def _remove_tuple(self, tid: int, dirtied: DirtiedGroups) -> None:
        values = self._dirty.row(tid).as_dict()
        merge_dirtied(dirtied, self._index.remove_tuple(tid, values))
        self._engine.release(values.values())
        self._dirty.remove(tid)
        if self._repaired.has_tid(tid):
            self._repaired.remove(tid)
        self._fusions.pop(tid, None)
        self._failed.discard(tid)

    # ------------------------------------------------------------------
    # selective Stage II
    # ------------------------------------------------------------------
    def _affected_tuples(
        self, affected_blocks: list[str], inserted: list[int], updated: list[int]
    ) -> set[int]:
        """The tuples whose fusion inputs this batch (possibly) changed.

        * version diff — a tuple's γ values or weight changed in a
          re-cleaned block (covers gained and lost coverage as well),
        * conflict-prone fusions — an earlier fusion used substitutions or
          hit conflicts, and the tuple touches a re-cleaned block whose
          candidate pool may have shifted,
        * previously unfusable tuples touching a re-cleaned block,
        * the batch's own inserts and updates (an update can change the
          repaired row even when no γ identity moved).
        """
        affected: set[int] = set(inserted) | set(updated)
        for name in affected_blocks:
            new_versions = self._versions_of(self._stage1[name])
            old_versions = self._block_versions[name]
            for tid in new_versions.keys() | old_versions.keys():
                if new_versions.get(tid) != old_versions.get(tid):
                    affected.add(tid)
            self._block_versions[name] = new_versions
        if affected_blocks:
            coverage = [self._block_versions[name] for name in affected_blocks]
            for tid, fusion in self._fusions.items():
                if not fusion.substitutions and not fusion.conflicted_attributes:
                    continue
                if any(tid in versions for versions in coverage):
                    affected.add(tid)
            for tid in self._failed:
                if any(tid in versions for versions in coverage):
                    affected.add(tid)
        return {tid for tid in affected if self._dirty.has_tid(tid)}

    @staticmethod
    def _versions_of(block: Block) -> dict[int, Version]:
        """tid → (γ values, weight) for one post-Stage-I block."""
        versions: dict[int, Version] = {}
        for group in block.group_list:
            for piece in group.gammas:
                for tid in piece.tids:
                    versions[tid] = (piece.values, piece.weight)
        return versions

    def _refuse(
        self, context: StageContext, affected_tids: set[int]
    ) -> tuple[list[int], list[int]]:
        """Re-fuse the affected tuples and record their fusions."""
        live = [tid for tid in self._dirty.tids if tid in affected_tids]
        outcome = self._fscr.fuse_tuples(
            context,
            live,
            [self._stage1[rule.name] for rule in self.rules],
            self._repaired,
        )
        failed = set(outcome.failed_tuples)
        for tid in live:
            if tid in outcome.fusions:
                self._fusions[tid] = outcome.fusions[tid]
            else:
                self._fusions.pop(tid, None)
            if tid in failed:
                self._failed.add(tid)
            else:
                self._failed.discard(tid)
        return live, sorted(failed)
