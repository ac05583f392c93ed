"""Pluggable pipeline stages (Stage I/II of the paper as registered units).

The pipeline of :class:`repro.core.pipeline.MLNClean` runs the stage
sequence AGP → RSC → FSCR → dedup.  This module factors each of those steps
into a :class:`Stage` that reads and mutates one shared
:class:`StageContext`, and keeps a registry mapping stage names to factories
so a session can reorder, disable, or extend the sequence::

    register_stage("my-normalizer", lambda config: MyNormalizer(config))
    session = CleaningSession.builder().with_stages(
        "agp", "my-normalizer", "rsc", "fscr", "dedup"
    )...

Stage contracts (what each built-in stage consumes and produces):

* ``agp``   — rewrites the selected ``context.blocks`` (group merges),
* ``rsc``   — rewrites the selected ``context.blocks`` (weights + γ repairs),
* ``fscr``  — reads ``context.blocks``, sets ``context.repaired``,
* ``dedup`` — reads ``context.repaired`` (errors when no earlier stage set
  it), sets ``context.cleaned`` and ``context.dedup``.

Every stage records its outcome under its name in ``context.outcomes``; the
pipeline assembles the typed report fields (``report.agp`` etc.) from there.

This module is the only code that runs the algorithm's steps.  The backends
only schedule them: batch runs every stage once over all blocks (stage-major,
the per-block calls of ``agp``/``rsc`` optionally fanned out to forked
workers by ``context.parallelism``), streaming runs ``agp`` then ``rsc`` per
dirtied block and re-fuses the affected tuples with
:meth:`FSCRStage.fuse_tuples`, and the distributed driver runs ``fscr`` and
``dedup`` over the gathered partition blocks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.constraints.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detect.base import DirtyCells
    from repro.detect.run import CleaningScope
from repro.core.agp import AbnormalGroupProcessor, AGPOutcome
from repro.core.config import MLNCleanConfig
from repro.core.dedup import DeduplicationResult, remove_duplicates
from repro.core.fscr import FSCROutcome, FusionScoreResolver
from repro.core.index import Block
from repro.core.rsc import ReliabilityScoreCleaner, RSCOutcome
from repro.dataset.table import Cell, Table
from repro.perf.engine import DistanceEngine
from repro.perf.parallel import map_blocks
from repro.registry import Registry

#: tid → ground-truth clean values of that tuple (instrumentation only)
CleanLookup = Callable[[int], dict[str, str]]


@dataclass
class StageContext:
    """Shared mutable state the stages of one cleaning run pass along."""

    #: the input (dirty) table — stages must not mutate it
    dirty: Table
    #: the integrity constraints of the run
    rules: list[Rule]
    #: the pipeline configuration
    config: MLNCleanConfig
    #: the post-index per-rule blocks (Stage-I stages mutate them in place)
    blocks: list[Block] = field(default_factory=list)
    #: ground-truth lookup enabling the component instrumentation (optional)
    clean_lookup: Optional[CleanLookup] = None
    #: the injected dirty cells, for the FSCR instrumentation (optional)
    dirty_cells: Optional[set[Cell]] = None
    #: the repaired table (set by ``fscr``; every tuple still present)
    repaired: Optional[Table] = None
    #: the final table (set by ``dedup``; defaults to ``repaired``)
    cleaned: Optional[Table] = None
    #: the duplicate-elimination result (set by ``dedup``)
    dedup: Optional[DeduplicationResult] = None
    #: stage name → that stage's outcome object
    outcomes: dict[str, object] = field(default_factory=dict)
    #: the run-wide shared distance engine (set by the pipeline so AGP, RSC,
    #: FSCR and dedup share one cache; ``None`` keeps per-stage defaults)
    engine: Optional[DistanceEngine] = None
    #: the detection result of the run (``None`` when no detectors ran)
    detected: Optional["DirtyCells"] = None
    #: the dirty-cell scope; ``None`` means full-scope — either no detectors
    #: ran or the detection covered every cell (the exact-or-prune pivot:
    #: a ``None`` scope is exactly today's unscoped code path)
    scope: Optional["CleaningScope"] = None
    #: worker processes the Stage-I stages may fan their blocks out to
    parallelism: int = 1


def merge_stage_outcomes(
    agp_outcomes: Iterable[AGPOutcome],
    rsc_outcomes: Iterable[RSCOutcome],
) -> tuple[AGPOutcome, RSCOutcome]:
    """Deterministically fold per-block / per-partition Stage-I outcomes.

    The fold order is the iteration order of the inputs, which callers keep
    at block order (the Stage-I stages) or partition order (the distributed
    driver), so merged ``StageCounts``, merge lists and repair lists are
    identical to what a serial run accumulates.
    """
    return _fold(AGPOutcome(), agp_outcomes), _fold(RSCOutcome(), rsc_outcomes)


def _fold(total, outcomes: Iterable):
    for outcome in outcomes:
        total.extend(outcome)
    return total


def _map_selected_blocks(
    context: StageContext, task: Callable[[Block], object], engine: DistanceEngine
) -> list:
    """``task`` over the blocks the scope selects, outcomes in block order.

    Forked workers return mutated copies of their blocks; those replace the
    originals in ``context.blocks`` (in process, they are the originals).
    """
    scope = context.scope
    blocks = context.blocks if scope is None else scope.select_blocks(context.blocks)
    results = map_blocks(task, blocks, context.parallelism, engine)
    adopted = {id(old): new for old, (new, _) in zip(blocks, results)}
    context.blocks = [adopted.get(id(block), block) for block in context.blocks]
    return [outcome for _, outcome in results]


@runtime_checkable
class Stage(Protocol):
    """One pluggable step of the cleaning pipeline."""

    #: registry name; doubles as the timing-phase label of the stage
    name: str

    def run(self, context: StageContext) -> None:
        """Execute the stage, reading and mutating ``context``."""
        ...  # pragma: no cover - protocol body


class AGPStage:
    """Stage I, part 1: abnormal group processing, one block at a time.

    Under a dirty-cell scope, only the blocks containing detected cells are
    enumerated, and only the abnormal groups holding an affected tuple are
    merged — merging rewrites the reason-part values of a group's tuples,
    which a dirty-scoped run must not do to undetected tuples.
    """

    name = "agp"

    def __init__(self, config: MLNCleanConfig):
        self._processor = AbnormalGroupProcessor(config)

    def run(self, context: StageContext) -> None:
        if context.engine is not None:
            self._processor.engine = context.engine
        lookup = context.clean_lookup
        group_filter = None if context.scope is None else context.scope.selects_group
        outcomes = _map_selected_blocks(
            context,
            lambda block: self._processor.process_block(block, lookup, group_filter),
            self._processor.engine,
        )
        context.outcomes[self.name] = _fold(AGPOutcome(), outcomes)


class RSCStage:
    """Stage I, part 2: weight learning + reliability-score cleaning.

    Under a dirty-cell scope, only the selected blocks are cleaned and only
    the groups holding an affected tuple are resolved — those γs are the
    fusion inputs of the tuples Stage II will re-fuse; weight learning
    stays block-global either way (the Eq.-4 prior is a block sum).
    """

    name = "rsc"

    def __init__(self, config: MLNCleanConfig):
        self._cleaner = ReliabilityScoreCleaner(config)

    def run(self, context: StageContext) -> None:
        if context.engine is not None:
            self._cleaner.engine = context.engine
        lookup = context.clean_lookup
        group_filter = None if context.scope is None else context.scope.selects_group
        outcomes = _map_selected_blocks(
            context,
            lambda block: self._cleaner.clean_block(
                block, lookup, group_filter=group_filter
            ),
            self._cleaner.engine,
        )
        context.outcomes[self.name] = _fold(RSCOutcome(), outcomes)


class FSCRStage:
    """Stage II, part 1: fusion-score conflict resolution across versions.

    Under a dirty-cell scope, only the affected tuples (those with at least
    one detected cell) are re-fused, against the data versions of the
    selected blocks; every other tuple keeps its as-arrived row.
    """

    name = "fscr"

    def __init__(self, config: MLNCleanConfig):
        self._resolver = FusionScoreResolver(config)

    def run(self, context: StageContext) -> None:
        if context.engine is not None:
            self._resolver.engine = context.engine
        scope = context.scope
        if scope is None:
            outcome = self._resolver.resolve(
                context.dirty, context.blocks, context.clean_lookup, context.dirty_cells
            )
        else:
            outcome = self.fuse_tuples(
                context,
                [tid for tid in context.dirty.tids if tid in scope.tids],
                scope.select_blocks(context.blocks),
                context.dirty.copy(name=f"{context.dirty.name}-repaired"),
            )
        context.outcomes[self.name] = outcome
        context.repaired = outcome.repaired
        # A fresh repaired table invalidates anything derived from an older
        # one (e.g. a dedup a custom stage order ran earlier).
        context.cleaned = None
        context.dedup = None

    def fuse_tuples(
        self,
        context: StageContext,
        tids: Sequence[int],
        blocks: list[Block],
        target: Table,
    ) -> FSCROutcome:
        """Fuse the tuples ``tids`` of ``context.dirty`` against ``blocks``.

        The fused rows are patched into ``target``, which becomes the
        outcome's ``repaired`` table; rows of every other tuple in it stay
        as they are.  Scoped batch runs patch a copy of the dirty table;
        the streaming engine patches its maintained repaired table.
        """
        if context.engine is not None:
            self._resolver.engine = context.engine
        if not tids:
            return FSCROutcome(repaired=target)
        subset = context.dirty.subset(tids, name=context.dirty.name)
        outcome = self._resolver.resolve(
            subset, blocks, context.clean_lookup, context.dirty_cells
        )
        for tid in tids:
            for attribute, value in outcome.repaired.row(tid).as_dict().items():
                target.set_value(tid, attribute, value)
        outcome.repaired = target
        return outcome


class DedupStage:
    """Stage II, part 2: exact-duplicate elimination on the repaired table.

    Requires a repaired table, i.e. an earlier stage (normally ``fscr``)
    must have set ``context.repaired``.  Running dedup before fusion would
    silently emit a stale deduplication of the *dirty* table as the final
    result, so that ordering is rejected loudly instead.
    """

    name = "dedup"

    def __init__(self, config: MLNCleanConfig):
        self.config = config

    def run(self, context: StageContext) -> None:
        if context.repaired is None:
            raise ValueError(
                "the dedup stage needs a repaired table: order it after a "
                "stage that produces one (normally fscr)"
            )
        result = remove_duplicates(context.repaired, context.engine)
        context.outcomes[self.name] = result
        context.dedup = result
        context.cleaned = result.deduplicated


#: stage name → factory building a fresh stage for one configuration
StageFactory = Callable[[MLNCleanConfig], Stage]

_STAGES: Registry[StageFactory] = Registry("stage")
for _name, _factory in (
    ("agp", AGPStage),
    ("rsc", RSCStage),
    ("fscr", FSCRStage),
    ("dedup", DedupStage),
):
    _STAGES.register(_name, _factory)

#: the paper's stage order (Algorithm 1): Stage I then Stage II
DEFAULT_STAGES: tuple[str, ...] = ("agp", "rsc", "fscr", "dedup")


def register_stage(name: str, factory: StageFactory) -> None:
    """Register a stage factory under ``name`` (case-insensitive).

    Mirrors :func:`repro.workloads.register_workload`: re-registering the
    same factory is a no-op, rebinding a name to a different factory is an
    error.
    """
    _STAGES.register(name, factory)


def available_stages() -> list[str]:
    """All registered stage names, in registration order."""
    return _STAGES.names()


def get_stage(name: str, config: MLNCleanConfig) -> Stage:
    """Instantiate the stage registered under ``name`` for ``config``."""
    return _STAGES.get(name)(config)


def build_stages(
    names: Optional[Sequence[str]], config: MLNCleanConfig
) -> list[Stage]:
    """Instantiate a stage sequence.

    ``names=None`` yields the default Algorithm-1 order, honouring
    ``config.remove_duplicates`` (the dedup stage is dropped when the config
    disables duplicate elimination).  An explicit sequence is taken verbatim.
    """
    if names is None:
        names = [
            name
            for name in DEFAULT_STAGES
            if name != "dedup" or config.remove_duplicates
        ]
    return [get_stage(name, config) for name in names]
