"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print the same figures for people,
including the raw wall-clock values next to the machine-speed-scaled ones.
See README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOAD_NAMES = ("paper-scale", "sweep-mixed", "serve-mixed")

#: End-to-end metrics and their units, in print order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fleet_agents": "agents",
}
#: Per workload, the machine-speed references each scaled metric follows (see
#: README.md, "Machine-speed reference").  A time is multiplied by the
#: geometric mean of the references' factors ``NOMINAL / measured`` and a
#: throughput divided by it.  ``setup_s`` follows the references sampled
#: during set-up.
_COMPUTE = ("loop", "mem")
SCALING = {
    "paper-scale": {name: _COMPUTE for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")},
    "sweep-mixed": {name: _COMPUTE for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")},
    "serve-mixed": {name: ("loop", "ipc") for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms")},
}

#: Per-layer metrics and their units, in print order.
PER_LAYER = {
    "import.repro_ms": "ms",
    "import.scipy_ms": "ms",
    "serve.boot_ms": "ms",
    "maps.build_ms": "ms",
    "traffic.check_ms": "ms",
    "record.ms": "ms",
    "record.bytes": "bytes",
    "synthesis.ms": "ms",
    "solver.highs_ms": "ms",
    "synthesis.build_ms": "ms",
    "synthesis.variables": "count",
    "synthesis.constraints": "count",
    "synthesis.retries": "count",
    "decomposition.ms": "ms",
    "realization.ms": "ms",
    "validation.ms": "ms",
    "plan.agent_steps": "count",
    "sim.ms": "ms",
    "sim.ticks": "ticks",
    "routing.ms": "ms",
    "routing.expansions": "count",
    "routing.replans": "count",
    "routing.goals": "count",
    "routing.expansions_per_goal": "expansions/goal",
    "service.hit_ms": "ms",
    "service.miss_ms": "ms",
    "service.queue_ms": "ms",
    "service.compute_ms": "ms",
    "service.overhead_ms": "ms",
    "service.hits": "count",
    "service.misses": "count",
    "service.rejected": "count",
    "service.response_bytes": "bytes",
    "ref.loop_ms": "ms",
    "ref.ipc_us": "us",
    "ref.mem_ms": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="orders the workload's operations")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--out", help="also write the result JSON to this path")
    return parser.parse_args(argv)


def scale(workload, metrics, references):
    """The metrics with :data:`SCALING` applied."""
    scaled = dict(metrics)
    for name, followed in SCALING[workload].items():
        phase = "setup_" if name == "setup_s" else ""
        ratio = math.prod(
            common.NOMINAL[reference] / references[phase + reference] for reference in followed
        ) ** (1.0 / len(followed))
        scaled[name] = metrics[name] / ratio if name == "ops_per_s" else metrics[name] * ratio
    return scaled


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_source()
    except common.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts (children inherit
    # the mask): the vCPUs of a shared machine run at different speeds, and
    # the reference samples must read the CPU the measured work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import checks
    import workloads

    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  attempted {outcome.attempted}  "
          f"failed {outcome.failed}")
    print("  references  " + "  ".join(f"{k} {v:.4f}" for k, v in outcome.references.items()))
    if args.trace:
        names = PER_LAYER
        # A layer the workload never calls (the service on an in-process
        # workload, routing on paper-scale) measured no work: 0.
        values = {name: outcome.layers.get(name, 0.0) for name in PER_LAYER}
    else:
        names = END_TO_END
        values = scale(args.workload, outcome.metrics, outcome.references)
        for name in END_TO_END:
            raw = outcome.metrics[name]
            note = f"  (wall clock {raw:.6g})" if name in SCALING[args.workload] else ""
            print(f"  {name:<14s} {values[name]:12.6g} {END_TO_END[name]}{note}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in names.items()}
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<28s} {entry['value']:14.6g} {entry['unit']}")
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
