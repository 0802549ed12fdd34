"""Per-layer timers for the traced run.

:class:`LayerTrace` replaces a layer's public entry point, at the module
attribute its caller looks up, with a wrapper that adds the call's wall time
(and any counts read from its result) to the trace.  Nothing in ``src/``
changes: the wrappers live here and are removed by :meth:`LayerTrace.close`.

Each layer is timed at the boundary named in README.md.  ``sim.ms`` and
``synthesis.build_ms`` are derived: the simulator's time minus the routing
it called, and synthesis minus the HiGHS solve it called.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

class LayerTrace:
    """Wall time and counts per layer, accumulated over a run's operations."""

    def __init__(self) -> None:
        self.ms: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attribute: str,
        layer: str,
        count: Optional[Callable[[object, Dict[str, float]], None]] = None,
    ) -> None:
        original = getattr(owner, attribute)
        trace = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                trace.ms[layer] += (time.perf_counter() - start) * 1e3
            if count is not None:
                count(result, trace.counts)
            return result

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, timed)

    def install(self) -> "LayerTrace":
        """Wrap every in-process layer entry point of the pipeline."""
        from repro.core import pipeline
        from repro import solver
        from repro.experiments import scenario
        from repro.io import serialization
        from repro.sim import runner as sim_runner
        from repro.warehouse import plan as plan_module

        def synthesis_counts(result, counts):
            counts["synthesis.calls"] += 1
            counts["synthesis.variables"] += result.num_variables
            counts["synthesis.constraints"] += result.num_constraints

        def plan_counts(result, counts):
            counts["plan.agent_steps"] += result.plan.num_agents * result.plan.horizon

        def sim_counts(report, counts):
            counts["sim.ticks"] += report.ticks

        def routing_counts(result, counts):
            report = result[1]
            counts["routing.expansions"] += report.expansions
            counts["routing.replans"] += report.replans
            counts["routing.goals"] += report.goals_total

        def record_counts(document, counts):
            # The record crosses a process boundary (or lands in a JSONL
            # store) as JSON, so its serialized size and cost belong here.
            start = time.perf_counter()
            size = len(json.dumps(document))
            self.ms["record.ms"] += (time.perf_counter() - start) * 1e3
            counts["record.bytes"] += size

        def solve_counts(_solution, counts):
            counts["solves"] += 1

        self.wrap(pipeline.WSPSolver, "solve_instance", "solve.total_ms", solve_counts)
        self.wrap(scenario.ScenarioSpec, "build", "maps.build_ms")
        self.wrap(pipeline, "assert_valid", "traffic.check_ms")
        self.wrap(pipeline, "synthesize_flows", "synthesis.ms", synthesis_counts)
        self.wrap(solver, "solve_with_scipy", "solver.highs_ms")
        self.wrap(pipeline, "decompose_flow_set", "decomposition.ms")
        self.wrap(pipeline, "build_delivery_schedule", "decomposition.ms")
        self.wrap(pipeline, "realize_cycle_set", "realization.ms", plan_counts)
        self.wrap(plan_module.PlanValidator, "validate", "validation.ms")
        self.wrap(sim_runner, "simulate_solution", "sim.total_ms", sim_counts)
        self.wrap(sim_runner, "route_plan", "routing.ms", routing_counts)
        self.wrap(serialization, "run_record_to_dict", "record.ms", record_counts)
        return self

    def close(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def metrics(self, operations: int) -> Dict[str, float]:
        """Every in-process layer metric, per operation (mean over the run)."""
        per_op = 1.0 / max(1, operations)
        ms, counts = self.ms, self.counts
        values = {
            "maps.build_ms": ms["maps.build_ms"] * per_op,
            "traffic.check_ms": ms["traffic.check_ms"] * per_op,
            "record.ms": ms["record.ms"] * per_op,
            "record.bytes": counts["record.bytes"] * per_op,
            "synthesis.ms": ms["synthesis.ms"] * per_op,
            "solver.highs_ms": ms["solver.highs_ms"] * per_op,
            "synthesis.build_ms": (ms["synthesis.ms"] - ms["solver.highs_ms"]) * per_op,
            "synthesis.variables": counts["synthesis.variables"] * per_op,
            "synthesis.constraints": counts["synthesis.constraints"] * per_op,
            # Synthesis calls beyond one per solve: cycle-time-factor retries.
            "synthesis.retries": (counts["synthesis.calls"] - counts["solves"]) * per_op,
            "decomposition.ms": ms["decomposition.ms"] * per_op,
            "realization.ms": ms["realization.ms"] * per_op,
            "validation.ms": ms["validation.ms"] * per_op,
            "plan.agent_steps": counts["plan.agent_steps"] * per_op,
            "sim.ms": (ms["sim.total_ms"] - ms["routing.ms"]) * per_op,
            "sim.ticks": counts["sim.ticks"] * per_op,
            "routing.ms": ms["routing.ms"] * per_op,
            "routing.expansions": counts["routing.expansions"] * per_op,
            "routing.replans": counts["routing.replans"] * per_op,
            "routing.goals": counts["routing.goals"] * per_op,
            "routing.expansions_per_goal": (
                counts["routing.expansions"] / counts["routing.goals"]
                if counts["routing.goals"]
                else 0.0
            ),
        }
        return values
