"""The repository benchmark: batch, streaming and service cleaning.

Run from the repository root::

    python3 perfbench/run.py --workload batch-hai --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate run that measures the per-layer metrics.  The metric names,
units and workloads are those of ``BENCHMARK.json``; README.md in this
directory says what each one means on each workload.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The exit code is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("batch-hai", "batch-car30", "stream-hai", "svc-hai")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, help="clean-table seed (default: --seed)")
    parser.add_argument("--error-seed", type=int, help="error-injection seed (default: --seed + 1000)")
    parser.add_argument("--delta-seed", type=int, help="update-stream seed (default: --seed + 2000)")
    return parser.parse_args(argv)


def host_stamp() -> dict[str, str]:
    """CPU model, core count, Python and numpy versions, distance kernel."""
    from repro.core.config import MLNCleanConfig
    from repro.perf import HAVE_NUMPY

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    kernel = MLNCleanConfig().distance_kernel
    if kernel == "auto":
        kernel = "numpy" if HAVE_NUMPY else "python"
    return {
        "cpu": cpu,
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "distance_kernel": kernel,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: needs {spec_path.name} and the repro sources under src/; "
            "run it from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import batch
    import stream
    from inputs import Seeds

    runners = {
        "batch-hai": batch.run,
        "batch-car30": batch.run,
        "stream-hai": stream.run_stream,
        "svc-hai": stream.run_service,
    }
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = Seeds.derive(args.seed, args.workload_seed, args.error_seed, args.delta_seed)
    host = host_stamp()

    measurement = runners[args.workload](args.workload, seeds, args.seconds, bool(args.trace))
    if not args.trace:
        # ru_maxrss is in KiB on Linux
        measurement.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )

    print(f"workload {args.workload} | seeds {seeds} | seconds {args.seconds:g} | trace {args.trace}")
    print("host " + " | ".join(f"{key} {value}" for key, value in host.items()))
    for note in measurement.notes:
        print(note)
    if measurement.wall:
        print("wall-clock " + json.dumps(measurement.wall))
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name in measurement.metrics:
            value = measurement.metrics[name]
            print(f"{name} = {value:.6g} {entry['unit']}")
        elif args.trace:
            # the layer does no work on this workload (see README.md)
            value = 0.0
            print(f"{name} = n/a (layer not exercised by {args.workload})")
        else:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(
        f"ops_failed_frac = {measurement.failed / measurement.attempted:.6g} "
        f"({measurement.failed} of {measurement.attempted} operations and output checks)"
    )
    correct = measurement.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
