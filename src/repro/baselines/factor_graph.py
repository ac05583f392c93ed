"""A lightweight factor graph for per-cell probabilistic repair.

HoloClean compiles repair signals (integrity constraints, co-occurrence
statistics, minimality priors) into a factor graph whose random variables are
the noisy cells and whose factor weights are learned from the clean part of
the data.  This module implements the same construction at the granularity
the baseline needs:

* every noisy cell becomes a variable whose domain is a pruned candidate set,
* every candidate is scored by a feature vector (co-occurrence with the
  tuple's other values, raw frequency, minimality, constraint compatibility),
* feature weights are trained with softmax regression (SGD) on the clean
  cells — each clean cell is a labelled example whose observed value is the
  correct assignment,
* inference assigns every noisy cell the candidate with the highest
  probability under the learned weights.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.rules import (
    ConditionalFunctionalDependency,
    DenialConstraint,
    FunctionalDependency,
    Rule,
)
from repro.core.report import CleaningReport
from repro.dataset.table import Cell, Table
from repro.errors.groundtruth import GroundTruth
from repro.metrics.accuracy import RepairAccuracy, evaluate_repair
from repro.metrics.timing import TimingBreakdown
from repro.obs import stage_scope

#: names of the candidate features, in vector order
FEATURE_NAMES = (
    "cooccurrence",
    "frequency",
    "minimality",
    "constraint",
)


@dataclass
class RepairCandidate:
    """One candidate value for a noisy cell, with its feature vector."""

    cell: Cell
    value: str
    features: tuple[float, ...]
    probability: float = 0.0


@dataclass
class TrainingExample:
    """A clean cell used as a labelled example during weight learning."""

    candidates: list[RepairCandidate]
    correct_index: int


class CooccurrenceModel:
    """Pairwise co-occurrence and frequency statistics of the clean cells.

    Statistics are collected only from tuples/cells that the detector did not
    flag, mirroring HoloClean's clean/noisy split: "it uses clean values which
    are picked by error detection methods to learn the statistical model
    parameters" (Section 7.2).
    """

    def __init__(self) -> None:
        #: (attribute, value) -> count over clean cells
        self.value_counts: dict[tuple[str, str], int] = Counter()
        #: (given_attr, given_value) -> target_attr -> Counter(target_value)
        self.cooccurrence_index: dict[tuple[str, str], dict[str, Counter]] = {}
        #: attribute -> number of clean observations
        self.attribute_totals: dict[str, int] = Counter()
        #: attribute -> Counter(value), for frequency-ranked candidate padding
        self.per_attribute_counts: dict[str, Counter] = defaultdict(Counter)

    @classmethod
    def fit(cls, table: Table, noisy_cells: set[Cell]) -> "CooccurrenceModel":
        model = cls()
        for row in table:
            values = row.as_dict()
            clean_attrs = [
                a for a in values if Cell(row.tid, a) not in noisy_cells
            ]
            for attribute in clean_attrs:
                value = values[attribute]
                model.value_counts[(attribute, value)] += 1
                model.attribute_totals[attribute] += 1
                model.per_attribute_counts[attribute][value] += 1
            for attr_a in clean_attrs:
                key = (attr_a, values[attr_a])
                targets = model.cooccurrence_index.setdefault(key, {})
                for attr_b in clean_attrs:
                    if attr_a == attr_b:
                        continue
                    targets.setdefault(attr_b, Counter())[values[attr_b]] += 1
        return model

    def frequency(self, attribute: str, value: str) -> float:
        total = self.attribute_totals.get(attribute, 0)
        if total == 0:
            return 0.0
        return self.value_counts.get((attribute, value), 0) / total

    def conditional(
        self, attribute: str, value: str, given_attribute: str, given_value: str
    ) -> float:
        """P(attribute = value | given_attribute = given_value) on clean data."""
        targets = self.cooccurrence_index.get((given_attribute, given_value))
        if not targets:
            return 0.0
        counts = targets.get(attribute)
        if not counts:
            return 0.0
        marginal = self.value_counts.get((given_attribute, given_value), 0)
        if marginal == 0:
            return 0.0
        return counts.get(value, 0) / marginal

    def candidate_values(
        self, attribute: str, context: dict[str, str], limit: int
    ) -> list[str]:
        """Domain pruning: values of ``attribute`` that co-occur with the context.

        Candidates are ranked by their summed conditional probability given
        the tuple's other (clean) values; the overall most frequent values
        pad the list when co-occurrence evidence is thin.
        """
        scores: dict[str, float] = defaultdict(float)
        for given_attribute, given_value in context.items():
            if given_attribute == attribute:
                continue
            targets = self.cooccurrence_index.get((given_attribute, given_value))
            if not targets:
                continue
            counts = targets.get(attribute)
            if not counts:
                continue
            marginal = self.value_counts.get((given_attribute, given_value), 1)
            for value, count in counts.items():
                scores[value] += count / marginal
        ranked = sorted(scores, key=lambda v: scores[v], reverse=True)
        if len(ranked) < limit:
            frequent = [
                value
                for value, _ in self.per_attribute_counts.get(attribute, Counter()).most_common()
                if value not in scores
            ]
            ranked.extend(frequent[: limit - len(ranked)])
        return ranked[:limit]


class CellFactorGraph:
    """The factor graph: candidate generation, training and inference."""

    def __init__(
        self,
        table: Table,
        rules: Sequence[Rule],
        noisy_cells: set[Cell],
        max_candidates: int = 20,
        seed: int = 11,
    ):
        self.table = table
        self.rules = list(rules)
        self.noisy_cells = set(noisy_cells)
        self.max_candidates = max_candidates
        self.seed = seed
        self.statistics = CooccurrenceModel.fit(table, noisy_cells)
        self.weights: list[float] = [1.0] * len(FEATURE_NAMES)
        self._constraint_index = _ConstraintIndex(table, self.rules, self.noisy_cells)

    # ------------------------------------------------------------------
    # candidate generation and features
    # ------------------------------------------------------------------
    def candidates_for(self, cell: Cell) -> list[RepairCandidate]:
        """The pruned, featurised candidate set of one cell."""
        row = self.table.row(cell.tid).as_dict()
        current_value = row[cell.attribute]
        context = {
            attribute: value
            for attribute, value in row.items()
            if attribute != cell.attribute
            and Cell(cell.tid, attribute) not in self.noisy_cells
        }
        values = self.statistics.candidate_values(
            cell.attribute, context, self.max_candidates
        )
        if current_value not in values:
            values = [current_value, *values]
        is_noisy = cell in self.noisy_cells
        candidates = [
            RepairCandidate(
                cell=cell,
                value=value,
                features=self._features(cell, value, current_value, context, is_noisy),
            )
            for value in values
        ]
        return candidates

    def _features(
        self,
        cell: Cell,
        value: str,
        current_value: str,
        context: dict[str, str],
        is_noisy: bool,
    ) -> tuple[float, ...]:
        cooccurrence = 0.0
        if context:
            cooccurrence = sum(
                self.statistics.conditional(cell.attribute, value, attr, ctx_value)
                for attr, ctx_value in context.items()
            ) / len(context)
        frequency = self.statistics.frequency(cell.attribute, value)
        # The initial-value prior only applies to cells the detector trusts:
        # a detected-noisy cell's current value is suspect, so keeping it gets
        # no bonus (otherwise the prior, learned on clean cells where the
        # current value is always correct, would freeze every noisy cell).
        minimality = 0.0 if is_noisy else (1.0 if value == current_value else 0.0)
        constraint = self._constraint_index.compatibility(cell, value)
        return (cooccurrence, frequency, minimality, constraint)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def training_examples(self, sample_size: int = 2000) -> list[TrainingExample]:
        """Labelled examples built from clean cells on constrained attributes."""
        rng = random.Random(self.seed)
        # Sorted so the candidate list (and therefore the seeded sample) is
        # identical across processes; a plain set comprehension would make
        # the training sample depend on the interpreter's hash seed.
        constrained_attributes = sorted(
            {attribute for rule in self.rules for attribute in rule.attributes}
        )
        clean_cells = [
            Cell(tid, attribute)
            for tid in self.table.tids
            for attribute in constrained_attributes
            if Cell(tid, attribute) not in self.noisy_cells
        ]
        if len(clean_cells) > sample_size:
            clean_cells = rng.sample(clean_cells, sample_size)
        examples: list[TrainingExample] = []
        for cell in clean_cells:
            candidates = self.candidates_for(cell)
            if len(candidates) < 2:
                continue
            observed = self.table.cell_value(cell)
            correct_index = next(
                (i for i, c in enumerate(candidates) if c.value == observed), None
            )
            if correct_index is None:
                continue
            examples.append(TrainingExample(candidates, correct_index))
        return examples

    def train(
        self,
        examples: Sequence[TrainingExample] | None = None,
        epochs: int = 10,
        learning_rate: float = 0.5,
        l2: float = 1e-3,
    ) -> list[float]:
        """Softmax-regression training of the feature weights via SGD."""
        if examples is None:
            examples = self.training_examples()
        if not examples:
            return self.weights
        rng = random.Random(self.seed)
        weights = list(self.weights)
        example_list = list(examples)
        for _ in range(epochs):
            rng.shuffle(example_list)
            for example in example_list:
                scores = [
                    _dot(weights, candidate.features)
                    for candidate in example.candidates
                ]
                probabilities = _softmax(scores)
                for index, candidate in enumerate(example.candidates):
                    indicator = 1.0 if index == example.correct_index else 0.0
                    error = indicator - probabilities[index]
                    for j, feature in enumerate(candidate.features):
                        weights[j] += learning_rate * (error * feature - l2 * weights[j])
        self.weights = weights
        return weights

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def infer_cell(self, cell: Cell) -> list[RepairCandidate]:
        """Candidates of one cell with their posterior probabilities filled in."""
        candidates = self.candidates_for(cell)
        scores = [_dot(self.weights, candidate.features) for candidate in candidates]
        probabilities = _softmax(scores)
        for candidate, probability in zip(candidates, probabilities):
            candidate.probability = probability
        candidates.sort(key=lambda c: c.probability, reverse=True)
        return candidates

    def map_repair(self, cell: Cell) -> RepairCandidate:
        """The most probable candidate of one noisy cell."""
        return self.infer_cell(cell)[0]


class _ConstraintIndex:
    """Fast compatibility checks of a candidate value against the rules.

    A candidate value of a cell is *compatible* when assigning it does not
    contradict any FD / CFD / DC evidence built from the clean part of the
    table.  The score is the fraction of applicable rules the candidate
    agrees with (1.0 when no rule applies).
    """

    def __init__(self, table: Table, rules: Sequence[Rule], noisy_cells: set[Cell]):
        self.table = table
        self.rules = list(rules)
        self.noisy_cells = noisy_cells
        # FD evidence: rule name -> reason values -> Counter of result values.
        self._fd_evidence: dict[str, dict[tuple[str, ...], Counter]] = {}
        for rule in self.rules:
            if isinstance(rule, (FunctionalDependency, DenialConstraint)) or (
                isinstance(rule, ConditionalFunctionalDependency)
            ):
                self._fd_evidence[rule.name] = self._collect_evidence(rule)

    def _collect_evidence(self, rule: Rule) -> dict[tuple[str, ...], Counter]:
        evidence: dict[tuple[str, ...], Counter] = defaultdict(Counter)
        reason_attrs = rule.reason_attributes
        result_attrs = rule.result_attributes
        for row in self.table:
            values = row.as_dict()
            if not rule.covers(values):
                continue
            if any(
                Cell(row.tid, attribute) in self.noisy_cells
                for attribute in (*reason_attrs, *result_attrs)
            ):
                continue
            reason = tuple(values[a] for a in reason_attrs)
            result = tuple(values[a] for a in result_attrs)
            evidence[reason][result] += 1
        return dict(evidence)

    def compatibility(self, cell: Cell, value: str) -> float:
        row = self.table.row(cell.tid).as_dict()
        hypothetical = dict(row)
        hypothetical[cell.attribute] = value
        applicable = 0
        compatible = 0
        for rule in self.rules:
            if cell.attribute not in rule.attributes:
                continue
            if not rule.covers(hypothetical):
                continue
            evidence = self._fd_evidence.get(rule.name)
            if not evidence:
                continue
            reason = tuple(hypothetical[a] for a in rule.reason_attributes)
            observed_results = evidence.get(reason)
            if not observed_results:
                continue
            applicable += 1
            result = tuple(hypothetical[a] for a in rule.result_attributes)
            if result in observed_results:
                compatible += 1
        if applicable == 0:
            return 1.0
        return compatible / applicable


@dataclass
class FactorGraphReport:
    """Outcome of one stand-alone (untrained) factor-graph repair run."""

    dirty: Table
    repaired: Table
    detected_cells: set[Cell] = field(default_factory=set)
    repairs: dict[Cell, str] = field(default_factory=dict)
    weights: list[float] = field(default_factory=list)
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
            "weights": list(self.weights),
        }

    def as_cleaning_report(self) -> CleaningReport:
        """This run in the unified :class:`~repro.core.report.CleaningReport` shape."""
        return CleaningReport(
            dirty=self.dirty,
            repaired=self.repaired,
            cleaned=self.repaired,
            timings=self.timings,
            accuracy=self.accuracy,
            backend="factor-graph",
            details=self,
        )


class FactorGraphRepairer:
    """Per-cell MAP repair over the factor graph *without* weight training.

    The ablation that separates HoloClean's model structure from its learned
    weights: every detected cell is assigned the candidate maximising the
    uniform-prior score (all feature weights at 1.0, or after
    ``training_epochs > 0`` SGD epochs when a partially trained variant is
    wanted).  Everything else — detection, candidate pruning, features —
    matches :class:`~repro.baselines.holoclean.HoloCleanBaseline`.
    """

    def __init__(
        self,
        max_candidates: int = 20,
        seed: int = 11,
        training_epochs: int = 0,
        training_sample: int = 2000,
        learning_rate: float = 0.5,
    ):
        if training_epochs < 0:
            raise ValueError("training_epochs must be >= 0")
        self.max_candidates = max_candidates
        self.seed = seed
        self.training_epochs = training_epochs
        self.training_sample = training_sample
        self.learning_rate = learning_rate

    def clean(
        self,
        dirty: Table,
        rules: Sequence[Rule],
        ground_truth: Optional[GroundTruth] = None,
        detector=None,
    ) -> FactorGraphReport:
        """Detect noisy cells and repair each with the MAP candidate.

        ``detector`` defaults like the HoloClean baseline: perfect detection
        when a ground truth is supplied, violation-based detection otherwise.
        """
        from repro.detect import PerfectDetector, ViolationDetector

        timings = TimingBreakdown()
        if detector is None:
            detector = (
                PerfectDetector(ground_truth)
                if ground_truth is not None
                else ViolationDetector()
            )
        with stage_scope(timings, "factor-graph", "detect"):
            noisy_cells = detector.detect(dirty, rules)

        repaired = dirty.copy(name=f"{dirty.name}-factorgraph")
        report = FactorGraphReport(
            dirty=dirty,
            repaired=repaired,
            detected_cells=set(noisy_cells),
            timings=timings,
        )
        if noisy_cells:
            with stage_scope(timings, "factor-graph", "compile"):
                graph = CellFactorGraph(
                    dirty,
                    rules,
                    noisy_cells,
                    max_candidates=self.max_candidates,
                    seed=self.seed,
                )
            if self.training_epochs:
                with stage_scope(timings, "factor-graph", "train"):
                    graph.train(
                        graph.training_examples(self.training_sample),
                        epochs=self.training_epochs,
                        learning_rate=self.learning_rate,
                    )
            with stage_scope(timings, "factor-graph", "repair"):
                for cell in sorted(noisy_cells, key=lambda c: (c.tid, c.attribute)):
                    best = graph.map_repair(cell)
                    if best.value != dirty.cell_value(cell):
                        repaired.set_cell(cell, best.value)
                        report.repairs[cell] = best.value
            report.weights = list(graph.weights)

        if ground_truth is not None:
            report.accuracy = evaluate_repair(dirty, repaired, ground_truth)
        return report


def _dot(weights: Sequence[float], features: Sequence[float]) -> float:
    return sum(w * f for w, f in zip(weights, features))


def _softmax(scores: Sequence[float]) -> list[float]:
    peak = max(scores)
    exponentials = [math.exp(s - peak) for s in scores]
    total = sum(exponentials)
    return [e / total for e in exponentials]
