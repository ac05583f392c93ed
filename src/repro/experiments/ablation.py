"""Ablation studies of the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation:

* :func:`ablation_reliability_score` — what happens when the reliability
  score drops its distance factor (weight-only) or its weight factor
  (distance-only, i.e. pure minimality),
* :func:`ablation_fscr_minimality` — the fusion score with and without the
  minimality factor this reproduction adds,
* :func:`ablation_partitioner` — Algorithm-3 partitioning vs naive
  round-robin partitioning for the distributed runner.

Each ablation is a checked-in spec over registered cleaners: the score
variants are the ``"rscore-ablation"`` cleaner (one per ``variant`` option)
and the partitioner ablation pits the stock distributed backend against the
``"roundrobin-distributed"`` cleaner.  Registering experiment-specific
cleaners is the intended extension path — a new ablation is a
:func:`~repro.session.register_cleaner` call plus a spec, not a new loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace
from functools import partial
from typing import Optional

from repro.core.config import MLNCleanConfig
from repro.core.pipeline import MLNClean
from repro.core.report import CleaningReport
from repro.core.rsc import ReliabilityScoreCleaner
from repro.core.stages import RSCStage, register_stage
from repro.distributed.driver import DistributedMLNClean
from repro.distributed.partition import DataPartitioner, hash_partition
from repro.experiments.harness import ExperimentResult
from repro.experiments.spec import (
    CleanerSpec,
    ConfigCell,
    ExperimentRunner,
    RunArtifact,
    load_spec,
)
from repro.session import register_cleaner
from repro.session.backends import CleaningRequest
from repro.session.cleaners import _reject_custom_stages


# ----------------------------------------------------------------------
# variant cleaners
# ----------------------------------------------------------------------
class RScoreAblationCleaner:
    """Stage-I-only runs scoring γs by a degenerate reliability score.

    The run is ``MLNClean`` with the stage order ``agp`` → RSC, where the
    RSC stage chooses the winning γ of each group by the full r-score
    (``variant="full"``, the stock ``rsc`` stage), by weight alone
    (``"weight_only"``, pure statistics) or by support×distance alone
    (``"distance_only"``, pure minimality).  The cleaner reports the
    Stage-I RSC precision/recall as numeric ``details`` so the experiment
    runner surfaces them as cell metrics.
    """

    name = "rscore-ablation"

    def __init__(self, variant: str = "full"):
        if variant not in _VARIANT_STAGES:
            raise ValueError(f"unknown reliability-score variant {variant!r}")
        self.variant = variant

    def run(self, request: CleaningRequest) -> CleaningReport:
        _reject_custom_stages(request, self.name)
        if request.ground_truth is None:
            raise ValueError(
                "the rscore-ablation cleaner measures RSC accuracy and "
                "therefore needs a ground truth"
            )
        cleaner = MLNClean(
            replace(request.config, instrument=True),
            stages=["agp", _VARIANT_STAGES[self.variant]],
        )
        staged = cleaner.clean(request.dirty, request.rules, request.ground_truth)
        counts = staged.rsc.counts
        precision = (
            counts.correctly_repaired_gammas / counts.repaired_gammas
            if counts.repaired_gammas
            else 1.0
        )
        recall = (
            counts.correctly_repaired_gammas / counts.erroneous_gammas
            if counts.erroneous_gammas
            else 1.0
        )
        # Stage-I only: no repaired table is derived, so the report carries
        # the dirty table and the measured scores ride in `details`
        return CleaningReport(
            dirty=request.dirty,
            repaired=request.dirty,
            cleaned=request.dirty,
            timings=staged.timings,
            rsc=staged.rsc,
            backend=self.name,
            details={
                "variant": self.variant,
                "precision_r": round(precision, 4),
                "recall_r": round(recall, 4),
            },
        )


class _VariantRSCStage(RSCStage):
    """The ``rsc`` stage with a reliability score that ignores one factor."""

    def __init__(self, config: MLNCleanConfig, score):
        super().__init__(config)
        cleaner = self._cleaner
        cleaner.reliability_scores = lambda group: score(cleaner, group)  # type: ignore[method-assign]


def _weight_only(cleaner: ReliabilityScoreCleaner, group) -> dict:
    return {piece: float(piece.weight) for piece in group.gammas}


def _distance_only(cleaner: ReliabilityScoreCleaner, group) -> dict:
    gammas = group.gammas
    if len(gammas) < 2:
        return {piece: 1.0 for piece in gammas}
    # the run's shared engine keeps the variant's distance calls cached and
    # pruned like the full score's
    neighbors = cleaner.engine.pairwise([piece.values for piece in gammas])
    return {
        piece: piece.support * neighbors[index][1]
        for index, piece in enumerate(gammas)
    }


#: ablation variant → the registered RSC stage that scores it
_VARIANT_STAGES = {
    "full": "rsc",
    "weight_only": "rsc-weight-only",
    "distance_only": "rsc-distance-only",
}
register_stage("rsc-weight-only", partial(_VariantRSCStage, score=_weight_only))
register_stage("rsc-distance-only", partial(_VariantRSCStage, score=_distance_only))


class _RoundRobinPartitioner(DataPartitioner):
    def partition(self, table):  # type: ignore[override]
        return hash_partition(table, self.parts)


class RoundRobinDistributedCleaner:
    """Distributed MLNClean with naive round-robin partitioning.

    The counterfactual for the Algorithm-3 partitioner: same driver, same
    workers, but tuples are dealt to parts round-robin instead of being
    co-located by rule-attribute similarity.
    """

    name = "roundrobin-distributed"

    def __init__(self, workers: int = 4):
        self.workers = workers

    def run(self, request: CleaningRequest) -> CleaningReport:
        _reject_custom_stages(request, self.name)
        driver = DistributedMLNClean(
            workers=self.workers,
            config=request.config,
            partitioner=_RoundRobinPartitioner(parts=self.workers),
        )
        report = driver.clean(request.dirty, request.rules, request.ground_truth)
        return report.as_cleaning_report()


register_cleaner("rscore-ablation", RScoreAblationCleaner)
register_cleaner("roundrobin-distributed", RoundRobinDistributedCleaner)


# ----------------------------------------------------------------------
# the ablation experiments (spec + renderer each)
# ----------------------------------------------------------------------
def render_ablation_fscr(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_fscr",
        description="FSCR minimality factor ablation",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "variant": cell.coords["config"]["label"],
                "f1": cell.metrics["f1"],
                "precision": cell.metrics["precision"],
                "recall": cell.metrics["recall"],
            }
        )
    return result


def ablation_fscr_minimality(
    datasets: Sequence[str] = ("car", "hai"),
    error_rate: float = 0.05,
    tuples: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Fusion score with / without the minimality factor."""
    spec = replace(
        load_spec("ablation_fscr"),
        workloads=list(datasets),
        error_rates=[error_rate],
        tuples=tuples,
        seed=seed,
    )
    return render_ablation_fscr(ExperimentRunner(spec).run())


def render_ablation_rscore(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_rscore",
        description="reliability-score factor ablation (RSC precision/recall)",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "variant": cell.coords["system"],
                "precision_r": cell.metrics["precision_r"],
                "recall_r": cell.metrics["recall_r"],
            }
        )
    return result


def ablation_reliability_score(
    datasets: Sequence[str] = ("car", "hai"),
    error_rate: float = 0.05,
    tuples: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Reliability score vs its two degenerate forms, measured on Stage I."""
    spec = replace(
        load_spec("ablation_rscore"),
        workloads=list(datasets),
        error_rates=[error_rate],
        tuples=tuples,
        seed=seed,
    )
    return render_ablation_rscore(ExperimentRunner(spec).run())


def render_ablation_partition(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_partition",
        description="distributed partitioning strategy ablation",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "partitioner": cell.coords["system"],
                "workers": cell.metrics["workers"],
                "f1": cell.metrics["f1"],
                "runtime_s": cell.metrics["sim_runtime_s"],
            }
        )
    return result


def ablation_partitioner(
    dataset: str = "tpch",
    workers: int = 4,
    error_rate: float = 0.05,
    tuples: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Algorithm-3 partitioning vs round-robin partitioning."""
    spec = replace(
        load_spec("ablation_partition"),
        workloads=[dataset],
        error_rates=[error_rate],
        cleaners=[
            CleanerSpec(
                cleaner="mlnclean",
                label="algorithm3",
                options={"backend": "distributed", "workers": int(workers)},
            ),
            CleanerSpec(
                cleaner="roundrobin-distributed",
                label="round_robin",
                options={"workers": int(workers)},
            ),
        ],
        tuples=tuples,
        seed=seed,
    )
    return render_ablation_partition(ExperimentRunner(spec).run())


def render_ablation_pruning(artifact: RunArtifact) -> ExperimentResult:
    result = ExperimentResult(
        experiment="pruning_ablation",
        description="batch-API pruning knobs: accuracy vs distance budget",
    )
    for cell in artifact.cells:
        result.add(
            {
                "dataset": cell.coords["workload"],
                "variant": cell.coords["config"]["label"],
                "f1": cell.metrics["f1"],
                "distance_calls": cell.perf.get("distance_calls", 0),
                "raw_evaluations": cell.perf.get("raw_evaluations", 0),
                "kernel_evaluations": cell.perf.get("kernel_evaluations", 0),
                "qgram_filtered": cell.perf.get("qgram_filtered", 0),
            }
        )
    return result


def ablation_pruning(
    datasets: Sequence[str] = ("hospital-sample",),
    error_rate: float = 0.1,
    tuples: Optional[int] = 60,
    seed: int = 7,
) -> ExperimentResult:
    """Exact defaults vs the approximating pruning knobs, F1 + budget.

    The exact variants (kernel and python backend) must produce identical
    F1 — only their ``raw_evaluations`` / ``kernel_evaluations`` split
    differs; the ``pruning_topk`` / ``max_candidates`` rows trade repair
    quality for a smaller distance budget.
    """
    spec = replace(
        load_spec("pruning_ablation"),
        workloads=list(datasets),
        error_rates=[error_rate],
        tuples=tuples,
        seed=seed,
    )
    return render_ablation_pruning(ExperimentRunner(spec).run())


# referenced by the checked-in spec defaults (kept here so a bare
# `load_spec("ablation_fscr")` renders with the same labels)
FSCR_VARIANTS: list[ConfigCell] = [
    ConfigCell(overrides={}, label="weights_and_minimality"),
    ConfigCell(overrides={"fscr_minimality_bias": 0.0}, label="weights_only (Eq.5)"),
]
