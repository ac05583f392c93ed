"""Measurement plumbing shared by the workloads: results, host speed, statistics."""

from __future__ import annotations

import bisect
import random
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TypeVar

import numpy

T = TypeVar("T")


@dataclass
class Measurement:
    """What one run measured: metric values, operation counts, report lines."""

    #: metric name -> value, in the unit ``BENCHMARK.json`` gives it
    metrics: dict[str, float] = field(default_factory=dict)
    #: timed operations plus final output checks
    attempted: int = 0
    #: operations that raised, failed or were refused, and failed checks
    failed: int = 0
    #: the end-to-end times as plain wall-clock figures, printed for comparison
    wall: dict[str, float] = field(default_factory=dict)
    #: human-readable lines printed before the result (sample counts, host)
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, what: str, ok: bool) -> None:
        """Record an output check; a failing one is an operation failure."""
        self.op(ok)
        self.notes.append(f"check {what}: {'ok' if ok else 'MISMATCH'}")


#: one probe's thread CPU seconds on an uncontended reference host (Intel
#: Xeon, 2 vCPUs): the unit that turns probe ratios back into seconds
REFERENCE_PROBE_S = 0.0036
#: probe loops per sample; the sample is their median
_PROBE_REPEATS = 5


class HostSpeed:
    """Host-speed probes taken between operations, to normalise timings.

    The benchmark host is shared: its speed drifts by up to 2x over
    minutes as other tenants contend for the cores and caches, and thread
    CPU time inflates as much as wall time does.  A fixed probe, timed
    between operations, follows that drift: it groups, sorts and compares
    strings in Python and scans a small numpy array, the mix of work a
    clean does.  An operation's time is reported in reference-host seconds:
    its wall time scaled by ``REFERENCE_PROBE_S`` over the mean probe
    around it.  The probe runs no code of the program, so changes to the
    program show in full.
    """

    def __init__(self) -> None:
        rng = random.Random(5)
        letters = "ABCDEFGHIJKLMNOP"
        self._rows = [
            tuple(
                "".join(rng.choice(letters) for _ in range(rng.randint(4, 9)))
                for _ in range(6)
            )
            for _ in range(1500)
        ]
        self._codes = numpy.array(
            [[ord(char) for char in f"{row[0]:<8}"[:8]] for row in self._rows],
            dtype=numpy.int32,
        )
        self._stamps: list[float] = []
        self._probes: list[float] = []
        #: wall seconds each sample took, so windows can leave them out
        self._walls: list[float] = []

    def _probe_once(self) -> float:
        """Thread CPU seconds of one fixed probe loop."""
        started = time.thread_time()
        groups: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        for row in self._rows:
            groups.setdefault((row[0][:2], row[1][:1]), []).append(row)
        for key in sorted(groups)[:60]:
            members = groups[key][:4]
            for left_row in members:
                for right_row in members:
                    left, right = left_row[2], right_row[2]
                    previous = list(range(len(right) + 1))
                    for i, left_char in enumerate(left, 1):
                        current = [i]
                        for j, right_char in enumerate(right, 1):
                            current.append(
                                min(
                                    previous[j] + 1,
                                    current[j - 1] + 1,
                                    previous[j - 1] + (left_char != right_char),
                                )
                            )
                        previous = current
        for query in range(20):
            int((self._codes != self._codes[query]).sum(axis=1).argmin())
        return time.thread_time() - started

    def sample(self) -> None:
        """Take one probe sample (the median of a few probe loops)."""
        started = time.perf_counter()
        probe = statistics.median(self._probe_once() for _ in range(_PROBE_REPEATS))
        ended = time.perf_counter()
        self._stamps.append(ended)
        self._probes.append(probe)
        self._walls.append(ended - started)

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` (``time.perf_counter`` stamps) in reference seconds.

        Leaves out the wall time of samples taken inside the window, and
        scales by the last probe at or before ``start``, every probe inside
        the window and the first probe at or after ``end``.
        """
        first = max(bisect.bisect_right(self._stamps, start) - 1, 0)
        inside = bisect.bisect_right(self._stamps, start)
        last = bisect.bisect_left(self._stamps, end)
        window = self._probes[first : last + 1]
        busy = (end - start) - sum(self._walls[inside:last])
        return busy * REFERENCE_PROBE_S / mean(window)

    def timed(self, action: Callable[[], T]) -> tuple[float, float, T]:
        """Run ``action`` between probes: wall seconds, reference seconds, result."""
        if not self._stamps:
            self.sample()
        started = time.perf_counter()
        result = action()
        ended = time.perf_counter()
        self.sample()
        return ended - started, self.seconds(started, ended), result

    @property
    def slowdown(self) -> float:
        """Median probe over the reference probe (1.0 = reference speed)."""
        return statistics.median(self._probes) / REFERENCE_PROBE_S


def timed_setup(
    build: Callable[[], T], repeats: int, speed: HostSpeed
) -> tuple[float, float, T]:
    """Run ``build`` ``repeats`` times: median reference and wall seconds, last result."""
    times = []
    walls = []
    result = None
    for _ in range(repeats):
        wall, seconds, result = speed.timed(build)
        times.append(seconds)
        walls.append(wall)
    return statistics.median(times), statistics.median(walls), result


def p90(samples: list[float]) -> float:
    """The 90th percentile; callers hold at least 100 samples (10 beyond it)."""
    return statistics.quantiles(samples, n=10)[8]


def mean(samples: list[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def distance_metrics(stats, operations: int) -> dict[str, float]:
    """The distance layer's counters per operation, and its two ratios."""
    candidates = stats.qgram_candidates
    return {
        "distance.calls": stats.calls / operations,
        "distance.exact_evaluations": stats.exact_evaluations / operations,
        "distance.cache_hit_rate": stats.hit_rate,
        "distance.qgram_pass_rate": (
            (candidates - stats.qgram_filtered) / candidates if candidates else 0.0
        ),
    }
