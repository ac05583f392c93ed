"""Per-run timing and performance drill-down records.

The paper reports runtimes alongside accuracy (Figures 6, 11, 15 and
Table 6).  :class:`TimingBreakdown` holds one run's wall-clock per named
phase; :func:`repro.obs.stage_scope` is the only code that measures a phase
into it, for the MLNClean stages, the baselines' ``detect`` / ``compile`` /
``train`` / ``repair`` and the detection pass alike, so the two sides of a
runtime comparison are timed the same way.  Weight learning runs inside the
``rsc`` phase and is not a phase of its own, so the paper's claim that it
takes ~95 % of MLNClean's runtime cannot be read off this breakdown.
:class:`PerfDetails` carries the run's distance-engine counters, fan-out
width and detection drill-down; the batch pipeline surfaces it as
``CleaningReport.details`` (the phase timings stay on ``report.timings``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class TimingBreakdown:
    """Accumulated wall-clock time per named phase."""

    phases: dict[str, float] = field(default_factory=dict)

    def record(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        merged = TimingBreakdown(dict(self.phases))
        for phase, seconds in other.phases.items():
            merged.record(phase, seconds)
        return merged

    def as_dict(self) -> dict[str, float]:
        return dict(self.phases)


@dataclass
class PerfDetails:
    """Performance drill-down of one batch cleaning run.

    Attached to :attr:`repro.core.report.CleaningReport.details` by the
    batch pipeline: the shared :class:`~repro.perf.DistanceEngine` counters
    (pair-distance calls, cache hit rate, raw metric evaluations, prune
    counts) and the Stage-I worker fan-out width of ``parallelism=N`` runs.
    Per-stage wall-clock is ``report.timings``.
    """

    #: the distance engine's counters (a ``DistanceStats.as_dict()``)
    distance: dict[str, object] = field(default_factory=dict)
    #: Stage-I worker processes of the run (1 = serial)
    parallelism: int = 1
    #: detection drill-down when a detector stack ran (a
    #: ``DirtyCells.to_json_dict()`` plus scope info), ``None`` otherwise
    detection: Optional[dict] = None

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "distance": dict(self.distance),
            "parallelism": self.parallelism,
        }
        if self.detection is not None:
            payload["detection"] = dict(self.detection)
        return payload

    @property
    def detected_cells(self) -> Optional[int]:
        """Detected-cell count (the experiments promote this to a metric)."""
        if self.detection is None:
            return None
        return self.detection.get("count")
