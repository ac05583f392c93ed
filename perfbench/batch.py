"""Batch workloads: ``MLNClean.clean`` of a whole dirty table.

The untraced run times repeated ``MLNClean.clean`` calls with
``config.trace`` off and no ground truth, so no instrumentation runs inside
the program.  The traced run replays Algorithm 1 from here, calling each
layer's public functions in the pipeline's order (index, q-gram index, AGP,
per block RSC weight learning then scoring, FSCR, dedup), each under its
own timer, and checks that the table it produces is the one
``MLNClean.clean`` returns.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from harness import HostSpeed, Measurement, distance_metrics, mean, timed_setup
from inputs import Seeds, TableSpec, digest
from repro import MLNClean
from repro.core.agp import AbnormalGroupProcessor
from repro.core.dedup import remove_duplicates
from repro.core.fscr import FusionScoreResolver
from repro.core.index import MLNIndex
from repro.core.rsc import ReliabilityScoreCleaner
from repro.metrics.accuracy import evaluate_repair

TABLES = {
    "batch-hai": TableSpec("hai", tuples=2000, error_rate=0.10, threshold=10),
    "batch-car30": TableSpec("car", tuples=2000, error_rate=0.30, threshold=1),
}
#: set-up (generate + inject) takes ~0.1 s, too short for one reading to be
#: steady on a shared host, so the median of many is reported
SETUP_REPEATS = 15
#: timed cleans per run even when one clean outlasts ``--seconds``
MIN_CLEANS = 3
#: the layers of the traced clean, in Algorithm-1 order
LAYERS = (
    "index.build_s",
    "index.qgram_s",
    "agp.s",
    "rsc.weights_s",
    "rsc.score_s",
    "fscr.s",
    "dedup.s",
)
#: the paper's share of MLNClean's runtime spent in weight learning
#: (see ``repro.metrics.timing``)
PAPER_WEIGHTS_SHARE = 0.95


def run(workload: str, seeds: Seeds, seconds: float, trace: bool) -> Measurement:
    spec = TABLES[workload]
    speed = HostSpeed()
    setup_s, setup_wall, instance = timed_setup(lambda: spec.instance(seeds), SETUP_REPEATS, speed)
    cleaner = MLNClean(spec.config())
    measurement = Measurement()
    # The first clean is timed like the rest; its output is the one every
    # later clean, traced or not, must reproduce.
    first_wall, first_s, first = speed.timed(
        lambda: cleaner.clean(instance.dirty, instance.rules)
    )
    measurement.op(True)
    reference = digest(first.cleaned)

    def timed_clean() -> tuple[float, float] | None:
        """Wall and reference seconds of one checked clean (None if it raised)."""
        try:
            wall, seconds_, report = speed.timed(
                lambda: cleaner.clean(instance.dirty, instance.rules)
            )
        except Exception as exc:  # noqa: BLE001 - a raising clean is a failed op
            measurement.op(False)
            measurement.notes.append(f"clean raised {type(exc).__name__}: {exc}")
            return None
        measurement.op(digest(report.cleaned) == reference)
        return wall, seconds_

    if trace:
        _traced(measurement, spec, instance, [first_wall], timed_clean, reference, seconds)
        return measurement

    walls, times = [first_wall], [first_s]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or measurement.attempted < MIN_CLEANS:
        timed = timed_clean()
        if timed is not None:
            walls.append(timed[0])
            times.append(timed[1])
    median = statistics.median(times)
    accuracy = evaluate_repair(instance.dirty, first.repaired, instance.ground_truth)
    measurement.metrics.update(
        setup_s=setup_s,
        throughput_per_s=spec.tuples / median,
        latency_p50_s=median,
        # fewer than ten samples lie beyond any percentile above the median
        latency_tail_s=median,
        f1=accuracy.f1,
    )
    wall_median = statistics.median(walls)
    measurement.wall.update(
        setup_s=setup_wall,
        throughput_per_s=spec.tuples / wall_median,
        latency_p50_s=wall_median,
        latency_tail_s=wall_median,
    )
    measurement.notes += [
        f"host speed: probe {speed.slowdown:.2f}x the reference; times below are reference-host seconds",
        f"tuples_per_s = {spec.tuples / median:.2f} 1/s ({spec.tuples} tuples / median of {len(times)} timed cleans)",
        f"clean_p50_s = {median:.4f} s (wall {statistics.median(walls):.4f} s; n={len(times)}; "
        "tail reported as p50: fewer than 10 samples beyond p90)",
    ]
    return measurement


def traced_clean(dirty, rules, config) -> tuple:
    """Algorithm 1 through the layers' public functions, each call timed.

    Returns the cleaned table, the seconds per layer, the traced total, the
    layer counters and the distance engine of the run.
    """
    layers = dict.fromkeys(LAYERS, 0.0)

    @contextmanager
    def layer(name: str):
        started = time.perf_counter()
        yield
        layers[name] += time.perf_counter() - started

    started = time.perf_counter()
    engine = config.engine()
    with layer("index.build_s"):
        index = MLNIndex.build(dirty, rules)
    blocks = index.block_list
    groups = sum(len(block.groups) for block in blocks)
    if engine.supports_qgram:
        with layer("index.qgram_s"):
            index.enable_qgram(engine.qgram_size)
    with layer("agp.s"):
        agp = AbnormalGroupProcessor(config, engine).process_index(blocks)
    rsc = ReliabilityScoreCleaner(config, engine)
    for block in blocks:
        with layer("rsc.weights_s"):
            rsc.learn_block_weights(block)
        with layer("rsc.score_s"):
            rsc.clean_index([block], relearn_weights=False)
    with layer("fscr.s"):
        fscr = FusionScoreResolver(config, engine).resolve(dirty, blocks)
    cleaned = fscr.repaired
    if config.remove_duplicates:
        with layer("dedup.s"):
            cleaned = remove_duplicates(fscr.repaired, engine).deduplicated
    total = time.perf_counter() - started
    fused = len(fscr.fusions) + len(fscr.failed_tuples)
    counters = {
        "index.groups": groups,
        "agp.merges": len(agp.merges),
        "agp.abnormal_groups": agp.detected_abnormal_groups,
        "fscr.memo_hit_rate": fscr.memo_hits / fused if fused else 0.0,
        "fscr.failed_tuples": len(fscr.failed_tuples),
    }
    return cleaned, layers, total, counters, engine


def _traced(measurement, spec, instance, untraced, timed_clean, reference, seconds) -> None:
    """Alternate untraced and traced cleans; per-layer means of the traced ones.

    Per-layer times are wall seconds: they are shares of one traced clean.
    """
    config = spec.config()
    totals: list[float] = []
    layer_runs: list[dict] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not totals:
        cleaned, layers, total, counters, engine = traced_clean(
            instance.dirty, instance.rules, config
        )
        measurement.op(digest(cleaned) == reference)
        totals.append(total)
        layer_runs.append(layers)
        timed = timed_clean()
        if timed is not None:
            untraced.append(timed[0])
    metrics = {name: mean([run[name] for run in layer_runs]) for name in LAYERS}
    traced_total = mean(totals)
    metrics.update(counters)
    metrics.update(distance_metrics(engine.stats, 1))
    metrics["trace.total_s"] = traced_total
    metrics["other_s"] = traced_total - sum(metrics[name] for name in LAYERS)
    metrics["trace_overhead_s"] = traced_total - mean(untraced)
    metrics["rsc.weights_share"] = metrics["rsc.weights_s"] / traced_total
    measurement.metrics.update(metrics)
    measurement.notes += [
        f"traced cleans: {len(totals)}, untraced cleans: {len(untraced)} (per-layer values are means)",
        f"paper fidelity: rsc.weights_share = {metrics['rsc.weights_share']:.1%} of the traced clean "
        f"(paper: ~{PAPER_WEIGHTS_SHARE:.0%})",
    ]
