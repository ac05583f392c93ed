"""CI smoke driver for the observability layer.

Runs against an already-running ``python -m repro.service serve --trace-dir
DIR`` (the ``obs-smoke`` CI job boots one in the background) and checks the
three observable surfaces end to end:

1. **Requests** — fires concurrent ``POST /clean`` and ``POST /deltas``
   requests so the service has jobs to trace and meter, plus one
   ``cleaner="holoclean"`` clean for the baseline path;
2. **Metrics** — fetches ``GET /metrics`` raw, asserts the Prometheus
   content type, and feeds the body through the package's own *strict*
   :func:`repro.obs.parse_prometheus` (any malformed line fails the job),
   then checks the service-, stage- and distance-level series are present
   and that the HoloClean phases fed ``repro_stage_seconds_total``;
3. **Traces** — loads every ``trace-*.json`` the server exported and
   validates the Chrome ``trace_event`` schema: complete events only, one
   root per job, every parent id resolving inside the file; the HoloClean
   job's trace must hold a ``stage:train`` span;
4. **Overhead gate** — asserts that with tracing *off* the instrumentation
   costs at most ``--overhead-pct`` (default 2%) of a cleaning run: the
   number of spans a traced run records, times the measured cost of one
   no-op span on the null-tracer path, must stay under that share of the
   fastest of N untraced runs.

Usage::

    python -m repro.service serve --port 8736 --trace-dir traces &
    python benchmarks/obs_smoke.py --port 8736 --trace-dir traces \\
        --requests 8 --out obs-smoke.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from repro.experiments.harness import prepare_instance
from repro.obs import parse_prometheus, span
from repro.service import ServiceClient, ServiceError
from repro.session import CleaningSession
from repro.workloads.registry import recommended_config

WORKLOAD = "hospital-sample"
TUPLES = 48
ERROR_RATE = 0.1

#: the series every scrape of a served cleaning workload must carry
REQUIRED_METRIC_PREFIXES = (
    "repro_service_jobs_total",
    "repro_service_job_seconds_bucket",
    "repro_service_uptime_seconds",
    "repro_service_pending_jobs",
    "repro_stage_seconds_total",
    "repro_runs_total",
    "repro_distance_calls_total",
    "repro_distance_cache_hit_rate",
)


def fetch_metrics(host: str, port: int):
    """Raw ``GET /metrics``: (status, content type, body)."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        connection.close()


def drive_requests(
    client: ServiceClient, requests: int, threads: int
) -> "tuple[int, str | None]":
    """Fire concurrent clean + delta requests and one HoloClean clean.

    Returns the failure count and the HoloClean job's id (``None`` when it
    did not finish).
    """

    def one_clean(_index: int):
        return client.clean(
            workload=WORKLOAD, tuples=TUPLES, error_rate=ERROR_RATE, timeout=300
        )

    failures = 0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for job in pool.map(one_clean, range(requests)):
            if job["status"] != "done":
                print(f"FAIL: job {job['id']} ended {job['status']}: {job.get('error')}")
                failures += 1
    try:
        delta_job = client.deltas(
            [
                {
                    "op": "insert",
                    "values": {"HN": "H1", "CT": "DOTHAN", "ST": "AL", "PN": "1"},
                }
            ],
            workload=WORKLOAD,
        )
        if delta_job["status"] != "done":
            print(f"FAIL: delta job ended {delta_job['status']}")
            failures += 1
    except ServiceError as exc:
        print(f"FAIL: delta request answered {exc.status}: {exc}")
        failures += 1
    baseline_job = client.clean(
        workload=WORKLOAD,
        tuples=TUPLES,
        error_rate=ERROR_RATE,
        cleaner="holoclean",
        timeout=300,
    )
    if baseline_job["status"] != "done":
        print(f"FAIL: holoclean job ended {baseline_job['status']}")
        return failures + 1, None
    return failures, baseline_job["id"]


def check_metrics(host: str, port: int) -> "tuple[int, dict]":
    """Scrape and strictly parse /metrics; returns (failures, samples)."""
    failures = 0
    status, content_type, body = fetch_metrics(host, port)
    if status != 200:
        print(f"FAIL: GET /metrics answered {status}")
        return 1, {}
    if not (content_type or "").startswith("text/plain; version=0.0.4"):
        print(f"FAIL: /metrics content type is {content_type!r}")
        failures += 1
    try:
        samples = parse_prometheus(body)
    except ValueError as exc:
        print(f"FAIL: /metrics body is not valid Prometheus text: {exc}")
        return failures + 1, {}
    for prefix in REQUIRED_METRIC_PREFIXES:
        if not any(key.startswith(prefix) for key in samples):
            print(f"FAIL: /metrics is missing the {prefix} series")
            failures += 1
    if not any(
        key.startswith("repro_stage_seconds_total") and 'backend="holoclean"' in key
        for key in samples
    ):
        print("FAIL: /metrics has no repro_stage_seconds_total sample for holoclean")
        failures += 1
    hit_rate = samples.get("repro_distance_cache_hit_rate")
    if hit_rate is None or not 0.0 <= hit_rate <= 1.0:
        print(f"FAIL: distance cache hit rate {hit_rate!r} out of range")
        failures += 1
    print(f"/metrics: {len(samples)} samples parsed strictly")
    return failures, samples


def check_traces(trace_dir: Path, expected: int, baseline_job) -> int:
    """Validate every exported trace file as a connected trace_event tree.

    The HoloClean job's trace must also carry its ``stage:train`` span.
    """
    failures = 0
    paths = sorted(trace_dir.glob("trace-*.json"))
    if len(paths) < expected:
        print(f"FAIL: only {len(paths)} trace files for {expected} finished jobs")
        failures += 1
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        events = payload.get("traceEvents")
        if not events:
            print(f"FAIL: {path.name} carries no traceEvents")
            failures += 1
            continue
        ids = {event["args"]["span_id"] for event in events}
        roots = [e for e in events if e["args"]["parent_id"] is None]
        dangling = [
            e["name"]
            for e in events
            if e["args"]["parent_id"] is not None
            and e["args"]["parent_id"] not in ids
        ]
        if any(e.get("ph") != "X" for e in events):
            print(f"FAIL: {path.name} has non-complete events")
            failures += 1
        if len(roots) != 1:
            print(f"FAIL: {path.name} has {len(roots)} roots (want 1 per job)")
            failures += 1
        if dangling:
            print(f"FAIL: {path.name} has dangling parents on {dangling}")
            failures += 1
    if baseline_job is not None:
        path = trace_dir / f"trace-{baseline_job}.json"
        events = (
            json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
            if path.exists()
            else []
        )
        if not any(event["name"] == "stage:train" for event in events):
            print(f"FAIL: {path.name} has no stage:train span")
            failures += 1
    print(f"traces: {len(paths)} files validated as connected span trees")
    return failures


def overhead_gate(max_share: float, rounds: int) -> "tuple[int, dict]":
    """Tracing OFF must cost <= ``max_share`` of a cleaning run's wall-clock.

    The off-path cost is spans-per-run (counted from one traced run) times
    the measured unit cost of a no-op span on the null-tracer path; the
    budget is ``max_share`` of the *fastest* of ``rounds`` untraced runs
    (min-of-N filters scheduler noise without hiding a real regression).
    """
    instance = prepare_instance(WORKLOAD, tuples=TUPLES * 4, error_rate=ERROR_RATE)
    config = recommended_config(WORKLOAD)

    def run_once(trace: bool):
        session = CleaningSession(
            rules=instance.rules, config=replace(config, trace=trace)
        )
        started = time.perf_counter()
        session.run(table=instance.dirty, ground_truth=instance.ground_truth)
        return time.perf_counter() - started, session

    _, traced_session = run_once(trace=True)
    spans_per_run = len(traced_session.last_trace.finished())
    baseline = min(run_once(trace=False)[0] for _ in range(rounds))

    probes = 20_000
    started = time.perf_counter()
    for _ in range(probes):
        with span("overhead-probe"):
            pass
    unit_cost = (time.perf_counter() - started) / probes

    off_path_cost = spans_per_run * unit_cost
    budget = max_share * baseline
    record = {
        "spans_per_run": spans_per_run,
        "null_span_unit_s": round(unit_cost, 9),
        "off_path_cost_s": round(off_path_cost, 9),
        "baseline_wall_s": round(baseline, 6),
        "budget_s": round(budget, 6),
        "share": round(off_path_cost / baseline, 6) if baseline else None,
    }
    print(
        f"overhead: {spans_per_run} spans x {unit_cost * 1e9:.0f}ns null-span "
        f"= {off_path_cost * 1e6:.1f}us against a {budget * 1e3:.2f}ms budget "
        f"({max_share:.0%} of a {baseline * 1e3:.1f}ms run)"
    )
    if off_path_cost > budget:
        print("FAIL: tracing-off instrumentation exceeds its overhead budget")
        return 1, record
    return 0, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8736)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--overhead-pct", type=float, default=2.0)
    parser.add_argument("--overhead-rounds", type=int, default=3)
    parser.add_argument("--out", default="obs-smoke.json")
    args = parser.parse_args(argv)

    client = ServiceClient(host=args.host, port=args.port, timeout=600)
    health = client.wait_until_healthy(timeout=60)
    print(f"server healthy: {health}")

    failures, baseline_job = drive_requests(client, args.requests, args.threads)
    metric_failures, samples = check_metrics(args.host, args.port)
    failures += metric_failures
    failures += check_traces(
        Path(args.trace_dir), expected=args.requests + 2, baseline_job=baseline_job
    )
    gate_failures, overhead = overhead_gate(
        args.overhead_pct / 100.0, args.overhead_rounds
    )
    failures += gate_failures

    stats = client.stats()
    Path(args.out).write_text(
        json.dumps(
            {
                "metrics_samples": len(samples),
                "trace_files": len(sorted(Path(args.trace_dir).glob("trace-*.json"))),
                "overhead": overhead,
                "stats": stats,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"obs snapshot written to {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
