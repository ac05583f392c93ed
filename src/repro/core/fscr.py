"""FSCR — fusion-score based conflict resolution (Section 5.2, Algorithm 2).

Stage I leaves one clean γ per group but up to ``|B|`` *data versions* per
tuple — one from every block — and those versions can disagree on shared
attributes (tuple t3 of the running example keeps ``CT = DOTHAN`` in block B1
and ``CT = BOAZ`` in block B3).  FSCR fuses the versions of each tuple into a
single assignment, preferring the fusion with the highest *fusion score*

    f-score(t) = w(γ¹) × w(γ²) × ... × w(γᵐ)

(the product of the fused γ weights, Eq. 5).  When two versions conflict, the
conflicting version can be swapped for the highest-weight γ of its block that
does not conflict with what has been fused so far; if no such γ exists the
fusion attempt fails (f-score 0), matching Algorithm 2.

Because the fusion result depends on the merge order, the search tries every
order when the number of versions is small (``fscr_exhaustive_limit``) and
otherwise tries each version as the starting point followed by the remaining
versions in decreasing weight order — the factorial search of the paper,
bounded for large rule sets.

Most tuples never need that search.  When a tuple's versions agree pairwise
on every shared attribute, no merge order can meet a conflict: each
version's values on the attributes fused so far were set by an earlier
version that agrees with it.  Every order then fuses the same union of the
versions, with no substitution and no conflicted attribute, and scores the
same product of the same factors.  Such tuples are fused in one pass over
their versions (the order search would differ only in the float rounding of
that product); a single disagreement sends the tuple through the full
search.

Each γ's attribute → value mapping is built once per :meth:`resolve` call
and shared by the pass above and the order search.  The mapping lives only
for that call: streaming and service resolvers serve a whole stream, so a
mapping kept on the resolver would grow with every γ ever fused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import MLNCleanConfig
from repro.core.index import Block, DataPiece
from repro.dataset.table import Cell, Table
from repro.metrics.component import StageCounts
from repro.perf.engine import DistanceEngine

CleanLookup = Callable[[int], dict[str, str]]

#: learned weights are capped here before exponentiation so the fusion-score
#: product cannot overflow even for tuples covered by many rules.
_WEIGHT_CAP = 30.0


def _weight_factor(weight: float) -> float:
    """The positive factor a γ contributes to the fusion score.

    The paper's fusion score multiplies γ weights (Eq. 5); because learned
    weights can be negative the product is taken over ``exp(w)`` instead —
    ``Pr(γ) ∝ exp(w)`` by Eq. 2, and the exponential preserves the weight
    ordering while keeping every factor positive.
    """
    return math.exp(min(weight, _WEIGHT_CAP))


class _Assignments(dict):
    """γ → :meth:`DataPiece.as_assignment`, built on first use."""

    def __missing__(self, piece: DataPiece) -> dict[str, str]:
        assignment = self[piece] = piece.as_assignment()
        return assignment


@dataclass
class TupleFusion:
    """The fusion chosen for one tuple."""

    tid: int
    assignment: dict[str, str]
    f_score: float
    conflicted_attributes: set[str] = field(default_factory=set)
    substitutions: int = 0


@dataclass
class FSCROutcome:
    """Result of running FSCR over the whole table."""

    repaired: Table
    fusions: dict[int, TupleFusion] = field(default_factory=dict)
    failed_tuples: list[int] = field(default_factory=list)
    counts: StageCounts = field(default_factory=StageCounts)
    #: tuples whose fusion was served from the per-resolve signature memo
    #: (tuples with identical data versions and identical current values
    #: fuse identically, so the order search runs once per signature)
    memo_hits: int = 0


class FusionScoreResolver:
    """Derives the unified clean table from the per-block data versions."""

    def __init__(
        self,
        config: Optional[MLNCleanConfig] = None,
        engine: Optional[DistanceEngine] = None,
    ):
        self.config = config or MLNCleanConfig()
        #: shared distance engine of the run; FSCR computes no distances, but
        #: interning fusion-signature strings in the engine's pool keeps the
        #: memo keys below cheap to hash and equal-by-identity across the
        #: many tuples that share the same data versions
        self.engine: Optional[DistanceEngine] = engine

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def resolve(
        self,
        dirty: Table,
        blocks: list[Block],
        clean_lookup: Optional[CleanLookup] = None,
        dirty_cells: Optional[set[Cell]] = None,
    ) -> FSCROutcome:
        """Fuse the data versions of every tuple and apply them to a copy.

        ``clean_lookup`` and ``dirty_cells`` (the injected cells) enable the
        Precision-F / Recall-F instrumentation.
        """
        repaired = dirty.copy(name=f"{dirty.name}-repaired")
        outcome = FSCROutcome(repaired=repaired)
        tid_versions = self._versions_by_tid(blocks, set(dirty.tids))
        block_candidates = self._candidates_by_block(blocks)
        assignments = _Assignments()

        # Fusion depends only on the tuple's data versions (γ values and
        # weights per block, in block order) and its current row values — not
        # on the tuple id.  Duplicate entities share both, so the order
        # search runs once per distinct signature and its outcome is replayed
        # for every other tuple carrying it.
        memo: dict[object, Optional[tuple[dict[str, str], float, frozenset, int]]] = {}
        for tid in dirty.tids:
            versions = tid_versions.get(tid, [])
            if not versions:
                continue
            current_values = dirty.row(tid).as_dict()
            signature = self._fusion_signature(versions, current_values)
            if signature in memo:
                outcome.memo_hits += 1
                cached = memo[signature]
            else:
                cached = self._fuse_signature(
                    versions, block_candidates, current_values, assignments
                )
                memo[signature] = cached
            if cached is None:
                outcome.failed_tuples.append(tid)
                continue
            assignment, f_score, conflicted, substitutions = cached
            fusion = TupleFusion(
                tid=tid,
                assignment=dict(assignment),
                f_score=f_score,
                conflicted_attributes=set(conflicted),
                substitutions=substitutions,
            )
            outcome.fusions[tid] = fusion
            for attribute, value in fusion.assignment.items():
                repaired.set_value(tid, attribute, value)

        if clean_lookup is not None and dirty_cells is not None:
            self._instrument(outcome, dirty, repaired, clean_lookup, dirty_cells)
        return outcome

    def _fusion_signature(
        self,
        versions: list[tuple[Block, DataPiece]],
        current_values: dict[str, str],
    ) -> tuple:
        """A hashable identity of everything a fusion decision depends on."""
        values = tuple(current_values.values())
        if self.engine is not None:
            # One memoized tuple-intern probe instead of re-interning every
            # value on every signature (the tuples recur per micro-batch).
            values = self.engine.intern_values(values)
        return (
            tuple(
                (block.name, piece.values, piece.weight)
                for block, piece in versions
            ),
            values,
        )

    # ------------------------------------------------------------------
    # fusion search
    # ------------------------------------------------------------------
    def _fuse_signature(
        self,
        versions: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        current_values: dict[str, str],
        assignments: _Assignments,
    ) -> Optional[tuple[dict[str, str], float, frozenset, int]]:
        """The best fusion of one version signature (Algorithm 2).

        Returns ``(assignment, f_score, conflicted_attributes,
        substitutions)`` — everything a :class:`TupleFusion` needs except the
        tuple id — or ``None`` when every merge order fails.  Conflict-free
        versions skip the order search (see the module docstring).
        """
        fused = self._fuse_conflict_free(versions, current_values, assignments)
        if fused is None:
            fused = self._search_orders(
                versions, block_candidates, current_values, assignments
            )
        return fused

    def _search_orders(
        self,
        versions: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        current_values: dict[str, str],
        assignments: _Assignments,
    ) -> Optional[tuple[dict[str, str], float, frozenset, int]]:
        """The highest-scoring fusion over :meth:`_merge_orders`."""
        conflicted_attributes: set[str] = set()
        best: Optional[tuple[dict[str, str], float, int]] = None
        for order in self._merge_orders(versions):
            attempt = self._try_order(
                order,
                block_candidates,
                conflicted_attributes,
                current_values,
                assignments,
            )
            if attempt is None:
                continue
            if best is None or attempt[1] > best[1]:
                best = attempt
        if best is None:
            return None
        assignment, f_score, substitutions = best
        return assignment, f_score, frozenset(conflicted_attributes), substitutions

    def _fuse_conflict_free(
        self,
        versions: list[tuple[Block, DataPiece]],
        current_values: dict[str, str],
        assignments: _Assignments,
    ) -> Optional[tuple[dict[str, str], float, frozenset, int]]:
        """The fusion every merge order yields when the versions agree
        pairwise; ``None`` as soon as two of them disagree."""
        union: dict[str, str] = {}
        f_score = 1.0
        for _, piece in versions:
            for attribute, value in assignments[piece].items():
                if union.setdefault(attribute, value) != value:
                    return None
            f_score *= _weight_factor(piece.weight)
        f_score *= self._minimality_factor(union, current_values)
        return union, f_score, frozenset(), 0

    def _merge_orders(
        self, versions: list[tuple[Block, DataPiece]]
    ) -> list[list[tuple[Block, DataPiece]]]:
        """The fusion orders to try.

        All permutations up to ``fscr_exhaustive_limit`` versions; otherwise
        each version leads once, followed by the rest in decreasing weight
        order (a greedy approximation of the factorial search).
        """
        if len(versions) <= self.config.fscr_exhaustive_limit:
            return [list(order) for order in itertools.permutations(versions)]
        orders: list[list[tuple[Block, DataPiece]]] = []
        for index, leader in enumerate(versions):
            rest = versions[:index] + versions[index + 1 :]
            rest.sort(key=lambda item: item[1].weight, reverse=True)
            orders.append([leader, *rest])
        return orders

    def _try_order(
        self,
        order: list[tuple[Block, DataPiece]],
        block_candidates: dict[str, list[DataPiece]],
        conflicted_attributes: set[str],
        current_values: dict[str, str],
        assignments: _Assignments,
    ) -> Optional[tuple[dict[str, str], float, int]]:
        """Fuse the versions in one specific order; ``None`` when it fails."""
        assignment: dict[str, str] = {}
        f_score = 1.0
        substitutions = 0
        for block, piece in order:
            candidate = piece
            conflicts = self._conflicts(assignment, assignments[candidate])
            if conflicts:
                conflicted_attributes.update(conflicts)
                candidate = self._find_substitute(
                    assignment, block_candidates[block.name], assignments
                )
                if candidate is None:
                    return None
                substitutions += 1
            for attribute, value in assignments[candidate].items():
                assignment.setdefault(attribute, value)
            f_score *= _weight_factor(candidate.weight)
        f_score *= self._minimality_factor(assignment, current_values)
        return assignment, f_score, substitutions

    def _minimality_factor(
        self, assignment: dict[str, str], current_values: dict[str, str]
    ) -> float:
        """``exp(-bias × changes)``: the score factor of a fusion that rewrites
        ``changes`` of the tuple's values.

        Fusions that rewrite fewer of the tuple's values are preferred when
        the weight products are comparable (the paper's cleaning criteria
        combine statistical evidence with the principle of minimality; see
        DESIGN.md for the rationale of this extension).
        """
        if self.config.fscr_minimality_bias <= 0.0:
            return 1.0
        changes = sum(
            1
            for attribute, value in assignment.items()
            if current_values.get(attribute) != value
        )
        return math.exp(-self.config.fscr_minimality_bias * changes)

    @staticmethod
    def _conflicts(
        assignment: dict[str, str], candidate: dict[str, str]
    ) -> list[str]:
        """Shared attributes on which the fusion and the candidate disagree."""
        return [
            attribute
            for attribute, value in candidate.items()
            if attribute in assignment and assignment[attribute] != value
        ]

    def _find_substitute(
        self,
        assignment: dict[str, str],
        candidates: list[DataPiece],
        assignments: _Assignments,
    ) -> Optional[DataPiece]:
        """The highest-weight γ of the block that agrees with the fusion."""
        for candidate in candidates:
            if not self._conflicts(assignment, assignments[candidate]):
                return candidate
        return None

    # ------------------------------------------------------------------
    # precomputed lookups
    # ------------------------------------------------------------------
    @staticmethod
    def _versions_by_tid(
        blocks: list[Block], tids: Optional[set[int]] = None
    ) -> dict[int, list[tuple[Block, DataPiece]]]:
        """For each tuple, its post-Stage-I γ in every block that covers it.

        ``tids`` restricts the map to the tuples being resolved — the
        streaming engine fuses small affected subsets against blocks that
        index the whole retained table, so building versions for every
        indexed tuple would scale with table size instead of subset size.
        """
        versions: dict[int, list[tuple[Block, DataPiece]]] = {}
        for block in blocks:
            for group in block.group_list:
                for piece in group.gammas:
                    for tid in piece.tids:
                        if tids is None or tid in tids:
                            versions.setdefault(tid, []).append((block, piece))
        return versions

    @staticmethod
    def _candidates_by_block(blocks: list[Block]) -> dict[str, list[DataPiece]]:
        """Per block (by rule name), all post-Stage-I γs sorted by weight.

        Several :class:`Block` objects can share a rule name when the caller
        is the distributed driver (one block per rule *per partition*); their
        candidate pools are merged so the substitution search sees the global
        pool, as the paper's gather step intends.
        """
        candidates: dict[str, list[DataPiece]] = {}
        for block in blocks:
            candidates.setdefault(block.name, []).extend(block.pieces)
        for pieces in candidates.values():
            pieces.sort(key=lambda piece: piece.weight, reverse=True)
        return candidates

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def _instrument(
        self,
        outcome: FSCROutcome,
        dirty: Table,
        repaired: Table,
        clean_lookup: CleanLookup,
        dirty_cells: set[Cell],
    ) -> None:
        """Fill the Precision-F / Recall-F counters (Section 7.3)."""
        counts = outcome.counts
        for cell in dirty_cells:
            if not repaired.has_tid(cell.tid):
                continue
            counts.total_erroneous_values += 1
            clean_value = clean_lookup(cell.tid)[cell.attribute]
            repaired_value = repaired.value(cell.tid, cell.attribute)
            is_correct = repaired_value == clean_value
            if is_correct:
                counts.fscr_correct_values += 1
            fusion = outcome.fusions.get(cell.tid)
            involved_in_conflict = (
                fusion is not None and cell.attribute in fusion.conflicted_attributes
            )
            if involved_in_conflict:
                counts.conflict_erroneous_values += 1
                if is_correct:
                    counts.conflict_correct_values += 1
