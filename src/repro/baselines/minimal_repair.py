"""A purely qualitative minimality-based repairer.

The introduction of the paper describes how classic qualitative techniques
repair constraint violations "with the principle of minimality (i.e.,
minimizing the impact on the dataset by trying to preserve as many tuples as
possible)": in a group of tuples that agree on a rule's reason part but
disagree on its result part, the minority values are overwritten by the
majority value.  The paper also points out the limits of this approach — it
cannot fix values that violate no rule (t2's typo) and cannot recover
replacement errors in the reason part (t3) — which is exactly why MLNClean
exists.  This repairer is kept as an ablation baseline so those limits are
measurable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.rules import (
    ConditionalFunctionalDependency,
    Rule,
)
from repro.core.report import CleaningReport
from repro.dataset.table import Cell, Table
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.timing import TimingBreakdown
from repro.obs import stage_scope


@dataclass
class MinimalRepairReport:
    """Outcome of the minimality-only repairer."""

    dirty: Table
    repaired: Table
    repairs: dict[Cell, str] = field(default_factory=dict)
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    accuracy: Optional[RepairAccuracy] = None

    @property
    def f1(self) -> float:
        return self.accuracy.f1 if self.accuracy is not None else 0.0

    def as_dict(self) -> dict:
        """JSON-safe summary (how serialized reports carry this drill-down)."""
        return {"repaired_cells": len(self.repairs)}

    def as_cleaning_report(self) -> CleaningReport:
        """This run in the unified :class:`~repro.core.report.CleaningReport` shape.

        The repairer only overwrites values (no tuple removal), so
        ``cleaned`` equals the repaired table; the per-cell repair listing
        stays reachable through ``report.details``.
        """
        return CleaningReport(
            dirty=self.dirty,
            repaired=self.repaired,
            cleaned=self.repaired,
            timings=self.timings,
            accuracy=self.accuracy,
            backend="minimal-repair",
            details=self,
        )


class MinimalityRepairer:
    """Majority-vote repair of constraint violations, one rule at a time."""

    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
    ) -> MinimalRepairReport:
        repaired = dirty.copy(name=f"{dirty.name}-minimal")
        report = MinimalRepairReport(dirty=dirty, repaired=repaired)
        with stage_scope(report.timings, "minimal-repair", "repair"):
            for rule in rules:
                self._repair_rule(repaired, rule, report)
        if ground_truth is not None:
            report.accuracy = evaluate_repair(dirty, repaired, ground_truth)
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _repair_rule(self, table: Table, rule: Rule, report: MinimalRepairReport) -> None:
        if isinstance(rule, ConditionalFunctionalDependency):
            self._repair_cfd(table, rule, report)
            return
        self._repair_dependency(table, rule, report)

    def _repair_dependency(
        self, table: Table, rule: Rule, report: MinimalRepairReport
    ) -> None:
        """FD / DC repair: within a reason-value group, impose the majority result."""
        reason_attrs = rule.reason_attributes
        result_attrs = rule.result_attributes
        groups: dict[tuple[str, ...], list[int]] = {}
        for row in table:
            values = row.as_dict()
            if not rule.covers(values):
                continue
            groups.setdefault(tuple(values[a] for a in reason_attrs), []).append(row.tid)
        for tids in groups.values():
            if len(tids) < 2:
                continue
            results = Counter(
                table.row(tid).values_for(result_attrs) for tid in tids
            )
            if len(results) <= 1:
                continue
            majority = results.most_common(1)[0][0]
            for tid in tids:
                current = table.row(tid).values_for(result_attrs)
                if current == majority:
                    continue
                for attribute, value in zip(result_attrs, majority):
                    table.set_value(tid, attribute, value)
                    report.repairs[Cell(tid, attribute)] = value

    def _repair_cfd(
        self,
        table: Table,
        rule: ConditionalFunctionalDependency,
        report: MinimalRepairReport,
    ) -> None:
        """CFD repair: force the constant consequent on pattern-matching tuples."""
        constant_consequents = rule.constant_consequents
        if not constant_consequents:
            self._repair_dependency(table, rule, report)
            return
        for row in table:
            if not rule.matches_pattern(row.as_dict()):
                continue
            for attribute, value in constant_consequents.items():
                if row[attribute] != value:
                    table.set_value(row.tid, attribute, value)
                    report.repairs[Cell(row.tid, attribute)] = value
