"""Stream workloads: update ticks through ``StreamingMLNClean`` and the service.

Both load the same dirty HAI table as insert batches (part of set-up), then
run closed loops of 5-update ticks on ``CountyName``, the attribute of the
one rule ``ZIPCode -> CountyName``.  ``stream-hai`` calls
``StreamingMLNClean.apply_batch`` from one caller; ``svc-hai`` sends the
ticks as ``DeltaRequestSpec``s to an in-process ``CleaningService`` from two
clients on one shard, so queued requests coalesce into one engine tick.

Ticks come in (perturb, revert) pairs and a run stops only after a revert,
so the final dirty table is the loaded one.  Two output checks follow,
untimed: the final dirty table equals the loaded table, and the engine's
cleaned table equals a batch ``MLNClean.clean`` of it (streaming ≡ batch).
"""

from __future__ import annotations

import asyncio
import statistics
import time

from harness import HostSpeed, Measurement, distance_metrics, mean, p90, timed_setup
from inputs import Seeds, TableSpec, UpdatePairs
from repro import DeltaBatch, MLNClean, StreamingMLNClean
from repro.metrics.accuracy import evaluate_repair
from repro.service import CleaningService, DeltaRequestSpec, JobStatus

TABLE = TableSpec("hai", tuples=600, error_rate=0.10, threshold=10)
LOAD_BATCH = 200
UPDATE_ATTRIBUTE = "CountyName"
UPDATES_PER_TICK = 5
#: loading runs every stage on the whole table, so fewer repeats than batch
SETUP_REPEATS = 3
#: ticks (requests) per run even when ``--seconds`` ends first: p90 needs
#: at least ten samples beyond it
MIN_OPS = 100
#: concurrent closed-loop clients of the service workload
SERVICE_CLIENTS = 2
#: the streaming engine's per-tick phases (``StreamingBatchReport.timings``)
STREAM_PHASES = ("delta", "agp", "rsc", "fscr", "dedup")


def _load_batches(instance) -> list[DeltaBatch]:
    tids = sorted(instance.dirty.tids)
    return [
        DeltaBatch.from_table(instance.dirty, tids=tids[start : start + LOAD_BATCH])
        for start in range(0, len(tids), LOAD_BATCH)
    ]


def _check_final(measurement: Measurement, instance, engine) -> None:
    """The untimed output checks, and the repair F1 of the final table."""
    config = TABLE.config()
    measurement.check(
        "final dirty table equals the loaded table", engine.dirty.equals(instance.dirty)
    )
    batch = MLNClean(config).clean(engine.dirty.copy(), instance.rules)
    measurement.check(
        "streaming cleaned table equals batch MLNClean.clean",
        engine.cleaned.equals(batch.cleaned),
    )
    accuracy = evaluate_repair(instance.dirty, engine.repaired, instance.ground_truth)
    measurement.metrics["f1"] = accuracy.f1


def run_stream(workload: str, seeds: Seeds, seconds: float, trace: bool) -> Measurement:
    speed = HostSpeed()

    def setup():
        instance = TABLE.instance(seeds)
        engine = StreamingMLNClean(
            instance.rules, instance.dirty.attributes, config=TABLE.config()
        )
        for batch in _load_batches(instance):
            speed.sample()  # inside the timed window, left out of its time
            engine.apply_batch(batch)
        return instance, engine

    setup_s, setup_wall, (instance, engine) = timed_setup(setup, SETUP_REPEATS, speed)
    measurement = Measurement()
    updates = UpdatePairs(
        instance.dirty, instance.dirty.tids, UPDATE_ATTRIBUTE, UPDATES_PER_TICK, seeds.delta
    )
    ticks: list[tuple[float, float]] = []  # (start, end) perf_counter stamps
    phases = dict.fromkeys(STREAM_PHASES, 0.0)
    refused = 0
    recleaned = 0
    deltas = 0
    distance_before = engine.engine.stats.copy()
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline or measurement.attempted < MIN_OPS:
        speed.sample()
        for batch in updates.next_pair():
            tick_started = time.perf_counter()
            try:
                report = engine.apply_batch(batch)
            except Exception as exc:  # noqa: BLE001 - a raising tick is a failed op
                measurement.op(False)
                measurement.notes.append(f"tick raised {type(exc).__name__}: {exc}")
                continue
            ticks.append((tick_started, time.perf_counter()))
            measurement.op(True)
            deltas += len(batch)
            for phase in STREAM_PHASES:
                phases[phase] += report.timings.phases.get(phase, 0.0)
            refused += len(report.resolved_tids)
            recleaned += len(report.affected_blocks)
    ended = time.perf_counter()
    speed.sample()
    distance = engine.engine.stats.diff(distance_before)
    _check_final(measurement, instance, engine)

    if trace:
        count = len(ticks)
        metrics = {f"stream.{phase}_s": phases[phase] / count for phase in STREAM_PHASES}
        tick_s = mean([end - start for start, end in ticks])
        metrics["other_s"] = tick_s - sum(metrics.values())
        metrics["trace.total_s"] = tick_s
        # every tick fills its report's phase timings, traced run or not
        metrics["trace_overhead_s"] = 0.0
        metrics["stream.refused_per_delta"] = refused / deltas
        metrics["stream.blocks_recleaned"] = recleaned / count
        metrics.update(distance_metrics(distance, count))
        measurement.metrics.update(metrics)
        measurement.notes.append(f"ticks: {count} (per-layer values are per-tick means)")
        return measurement

    tick_s = [speed.seconds(start, end) for start, end in ticks]
    tick_p50 = statistics.median(tick_s)
    tick_p90 = p90(tick_s)
    loop_s = speed.seconds(started, ended)
    measurement.metrics.update(
        setup_s=setup_s,
        throughput_per_s=deltas / loop_s,
        latency_p50_s=tick_p50,
        latency_tail_s=tick_p90,
    )
    walls = [end - start for start, end in ticks]
    measurement.wall.update(
        setup_s=setup_wall,
        throughput_per_s=deltas / (ended - started),
        latency_p50_s=statistics.median(walls),
        latency_tail_s=p90(walls),
    )
    measurement.notes += [
        f"host speed: probe {speed.slowdown:.2f}x the reference; times below are reference-host seconds",
        f"tick_p50_s = {tick_p50:.4f} s, tick_p90_s = {tick_p90:.4f} s (n={len(ticks)} ticks; "
        f"wall p50 {statistics.median(walls):.4f} s, p90 {p90(walls):.4f} s)",
        f"deltas_per_s = {deltas / loop_s:.2f} 1/s ({deltas} deltas in {ended - started:.2f} wall s, "
        "one closed-loop caller)",
    ]
    return measurement


def _delta_request(instance, config, batch: DeltaBatch) -> DeltaRequestSpec:
    """A delta request with inline rules and schema; acks only, no table."""
    return DeltaRequestSpec(
        deltas=batch,
        rules=list(instance.rules),
        schema=list(instance.dirty.attributes),
        config=config,
        include_table=False,
    )


async def _loaded_service(instance, config, speed: HostSpeed) -> CleaningService:
    """A started service whose one shard holds the loaded table."""
    service = await CleaningService().start()
    try:
        for batch in _load_batches(instance):
            speed.sample()  # inside the timed window, left out of its time
            job = await service.submit(_delta_request(instance, config, batch))
            await service.wait(job.id)
            if job.status is not JobStatus.DONE:
                raise RuntimeError(f"load request failed: {job.error}")
    except BaseException:
        await service.stop()
        raise
    return service


def run_service(workload: str, seeds: Seeds, seconds: float, trace: bool) -> Measurement:
    return asyncio.run(_run_service(seeds, seconds, trace))


async def _run_service(seeds: Seeds, seconds: float, trace: bool) -> Measurement:
    config = TABLE.config()
    speed = HostSpeed()
    setup_times: list[float] = []
    setup_walls: list[float] = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            await service.stop()
        speed.sample()
        started = time.perf_counter()
        instance = TABLE.instance(seeds)
        service = await _loaded_service(instance, config, speed)
        ended = time.perf_counter()
        speed.sample()
        setup_times.append(speed.seconds(started, ended))
        setup_walls.append(ended - started)
    try:
        measurement = await _drive_service(
            service, instance, config, seeds, seconds, trace, speed
        )
    finally:
        await service.stop()
    if not trace:
        measurement.metrics["setup_s"] = statistics.median(setup_times)
        measurement.wall["setup_s"] = statistics.median(setup_walls)
    return measurement


async def _drive_service(service, instance, config, seeds, seconds, trace, speed) -> Measurement:
    measurement = Measurement()
    engine = service.pool.shards()[0].stream
    distance_before = engine.engine.stats.copy()
    requests: list[tuple[float, float]] = []  # (submitted, finished) perf_counter stamps
    round_trips: list[float] = []  # client side: submit call to wait's return
    queue_wait = 0.0
    execution = 0.0
    ticks: set[int] = set()
    # job stamps are time.monotonic(); the loop's clock is time.perf_counter()
    clock_shift = time.perf_counter() - time.monotonic()
    tids = sorted(instance.dirty.tids)
    started = time.perf_counter()
    deadline = started + seconds

    async def client(index: int) -> None:
        nonlocal queue_wait, execution
        # disjoint tuples per client, so each revert restores its own perturb
        updates = UpdatePairs(
            instance.dirty,
            tids[index::SERVICE_CLIENTS],
            UPDATE_ATTRIBUTE,
            UPDATES_PER_TICK,
            seeds.delta * SERVICE_CLIENTS + index,
        )
        while time.perf_counter() < deadline or measurement.attempted < MIN_OPS:
            if index == 0 and not trace:
                # blocks the event loop: the clients are in lockstep, so no
                # request is in flight while client 0 probes (traced runs
                # skip it, as it could land in a queued request's wait)
                speed.sample()
            for batch in updates.next_pair():
                sent = time.perf_counter()
                try:
                    job = await service.submit(_delta_request(instance, config, batch))
                    await service.wait(job.id)
                except Exception as exc:  # noqa: BLE001 - a refused request is a failed op
                    measurement.op(False)
                    measurement.notes.append(f"request raised {type(exc).__name__}: {exc}")
                    continue
                ok = job.status is JobStatus.DONE
                measurement.op(ok)
                if not ok:
                    measurement.notes.append(f"request failed: {job.error}")
                    continue
                round_trips.append(time.perf_counter() - sent)
                requests.append((job.submitted + clock_shift, job.finished + clock_shift))
                queue_wait += job.started - job.submitted
                execution += job.finished - job.started
                ticks.add(job.result["tick"])

    await asyncio.gather(*(client(index) for index in range(SERVICE_CLIENTS)))
    ended = time.perf_counter()
    speed.sample()
    distance = engine.engine.stats.diff(distance_before)
    _check_final(measurement, instance, engine)

    if trace:
        count = len(requests)
        metrics = {
            "service.queue_wait_s": queue_wait / count,
            "service.exec_s": execution / count,
            "service.requests_per_tick": count / len(ticks),
            "trace.total_s": mean(round_trips),
            # every job carries its stamps, traced run or not
            "trace_overhead_s": 0.0,
        }
        metrics["other_s"] = (
            metrics["trace.total_s"] - metrics["service.queue_wait_s"] - metrics["service.exec_s"]
        )
        metrics.update(distance_metrics(distance, count))
        measurement.metrics.update(metrics)
        measurement.notes.append(f"requests: {count} (per-layer values are per-request means)")
        return measurement

    latencies = [speed.seconds(submitted, finished) for submitted, finished in requests]
    req_p50 = statistics.median(latencies)
    req_p90 = p90(latencies)
    loop_s = speed.seconds(started, ended)
    measurement.metrics.update(
        throughput_per_s=len(requests) / loop_s,
        latency_p50_s=req_p50,
        latency_tail_s=req_p90,
    )
    walls = [finished - submitted for submitted, finished in requests]
    measurement.wall.update(
        throughput_per_s=len(requests) / (ended - started),
        latency_p50_s=statistics.median(walls),
        latency_tail_s=p90(walls),
    )
    measurement.notes += [
        f"host speed: probe {speed.slowdown:.2f}x the reference; times below are reference-host seconds",
        f"req_p50_s = {req_p50:.4f} s, req_p90_s = {req_p90:.4f} s (n={len(requests)} requests, "
        f"submit to job done; wall p50 {statistics.median(walls):.4f} s, p90 {p90(walls):.4f} s)",
        f"req_per_s = {len(requests) / loop_s:.2f} 1/s ({SERVICE_CLIENTS} closed-loop clients, "
        f"{len(requests) / len(ticks):.2f} requests per tick)",
    ]
    return measurement
