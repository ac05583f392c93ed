"""The HoloClean-style probabilistic repair baseline.

HoloClean (the paper's state-of-the-art comparator) repairs one cell at a
time: an external detector marks noisy cells, a statistical model is trained
on the clean partition, and every noisy cell is assigned its most probable
candidate value.  The paper runs it with a 100 %-accuracy detector so only
repair quality is compared; :class:`HoloCleanBaseline` defaults to the same
setting via :class:`~repro.detect.PerfectDetector` when a ground truth is
supplied.

Two properties of the original system — both discussed in Section 7.2 of the
paper — are deliberately preserved:

* the minimum repair unit is a single attribute value (MLNClean repairs a
  whole γ at once, which is one source of its speed advantage), and
* the model is trained only on the clean partition, so error types that never
  appear among clean values (typos) are harder to fix than replacement
  errors, especially on sparse data such as CAR.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.factor_graph import CellFactorGraph
from repro.constraints.rules import Rule
from repro.core.report import CleaningReport
from repro.dataset.table import Cell, Table
from repro.detect import Detector, PerfectDetector, ViolationDetector
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.timing import TimingBreakdown
from repro.obs import stage_scope


@dataclass
class HoloCleanConfig:
    """Tunable parameters of the baseline."""

    #: maximum number of repair candidates per noisy cell after pruning
    max_candidates: int = 20
    #: SGD epochs for feature-weight training
    training_epochs: int = 10
    #: number of clean cells sampled as training examples
    training_sample: int = 2000
    #: SGD learning rate
    learning_rate: float = 0.5
    #: random seed (sampling of training cells, SGD shuffling)
    seed: int = 11


@dataclass
class HoloCleanReport:
    """The outcome of one baseline run."""

    dirty: Table
    repaired: Table
    detected_cells: set[Cell] = field(default_factory=set)
    repairs: dict[Cell, str] = field(default_factory=dict)
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    accuracy: Optional[RepairAccuracy] = None

    @property
    def runtime(self) -> float:
        return self.timings.total

    @property
    def f1(self) -> float:
        return self.accuracy.f1 if self.accuracy is not None else 0.0

    def as_dict(self) -> dict:
        """JSON-safe summary (how serialized reports carry this drill-down)."""
        return {
            "detected_cells": len(self.detected_cells),
            "repaired_cells": len(self.repairs),
        }

    def as_cleaning_report(self) -> CleaningReport:
        """This run in the unified :class:`~repro.core.report.CleaningReport` shape.

        HoloClean neither deduplicates nor removes tuples, so ``cleaned`` is
        the repaired table itself; the full baseline drill-down (detected
        cells, per-cell repairs) stays reachable through ``report.details``.
        """
        return CleaningReport(
            dirty=self.dirty,
            repaired=self.repaired,
            cleaned=self.repaired,
            timings=self.timings,
            accuracy=self.accuracy,
            backend="holoclean",
            details=self,
        )


class HoloCleanBaseline:
    """Detect-then-repair probabilistic cleaning, one cell at a time."""

    def __init__(self, config: Optional[HoloCleanConfig] = None):
        self.config = config or HoloCleanConfig()

    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
        detector: Optional[Detector] = None,
    ) -> HoloCleanReport:
        """Run detection, training and repair on ``dirty``.

        When ``detector`` is omitted, a :class:`PerfectDetector` is used if a
        ground truth is available (the paper's comparison setting) and a
        :class:`ViolationDetector` otherwise.
        """
        timings = TimingBreakdown()
        if detector is None:
            detector = (
                PerfectDetector(ground_truth)
                if ground_truth is not None
                else ViolationDetector()
            )

        with stage_scope(timings, "holoclean", "detect"):
            noisy_cells = detector.detect(dirty, rules)

        repaired = dirty.copy(name=f"{dirty.name}-holoclean")
        report = HoloCleanReport(
            dirty=dirty,
            repaired=repaired,
            detected_cells=set(noisy_cells),
            timings=timings,
        )
        if noisy_cells:
            with stage_scope(timings, "holoclean", "compile"):
                graph = CellFactorGraph(
                    dirty,
                    rules,
                    noisy_cells,
                    max_candidates=self.config.max_candidates,
                    seed=self.config.seed,
                )
            with stage_scope(timings, "holoclean", "train"):
                examples = graph.training_examples(self.config.training_sample)
                graph.train(
                    examples,
                    epochs=self.config.training_epochs,
                    learning_rate=self.config.learning_rate,
                )
            with stage_scope(timings, "holoclean", "repair"):
                for cell in sorted(noisy_cells, key=lambda c: (c.tid, c.attribute)):
                    best = graph.map_repair(cell)
                    if best.value != dirty.cell_value(cell):
                        repaired.set_cell(cell, best.value)
                        report.repairs[cell] = best.value

        if ground_truth is not None:
            report.accuracy = evaluate_repair(dirty, repaired, ground_truth)
        return report
