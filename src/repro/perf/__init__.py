"""Performance subsystem: the shared distance engine and the block scheduler.

:mod:`repro.perf.engine` provides the cached / pruned / early-exit
:class:`DistanceEngine` every stage runs its string distances through;
:mod:`repro.perf.parallel` maps the per-block calls of the Stage-I stages
over forked worker processes for the batch backend's opt-in
``parallelism=N`` mode.
"""

from repro.perf.engine import (
    DistanceEngine,
    DistanceStats,
    global_distance_stats,
    reset_global_distance_stats,
)
from repro.perf.kernel import HAVE_NUMPY, BatchLevenshteinKernel
from repro.perf.qgram import QGramIndex, ValueProfile, build_profile
from repro.perf.stats import LatencyWindow

__all__ = [
    "BatchLevenshteinKernel",
    "DistanceEngine",
    "DistanceStats",
    "HAVE_NUMPY",
    "LatencyWindow",
    "QGramIndex",
    "ValueProfile",
    "build_profile",
    "global_distance_stats",
    "reset_global_distance_stats",
]
