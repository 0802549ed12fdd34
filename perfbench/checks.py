"""Independent output checks, run outside the timed phase.

None of these calls :class:`repro.warehouse.PlanValidator` or compares with a
stored copy of an earlier output: each property is recomputed here from the
plan matrices, the floorplan's cell coordinates and the demand vector.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Record fields that are measurements of the run, not results of it.
_TIMING_FIELDS = ("timings",)


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_plan(plan, workload, label: str) -> int:
    """Plan properties; returns the units the plan delivers.

    * no two agents on one vertex at one tick, and no two agents swapping
      across an edge between consecutive ticks;
    * every step is a wait or a move between floorplan cells one apart;
    * per product, the units dropped at station vertices cover the demand.
    """
    positions = np.asarray(plan.positions, dtype=np.int64)
    carrying = np.asarray(plan.carrying, dtype=np.int64)
    agents, ticks = positions.shape
    floorplan = plan.warehouse.floorplan
    num_vertices = floorplan.num_vertices
    require(
        bool(((positions >= 0) & (positions < num_vertices)).all()),
        f"{label}: plan visits a vertex outside the floorplan",
    )

    tick_index = np.arange(ticks, dtype=np.int64)[None, :]
    occupied = (tick_index * num_vertices + positions).ravel()
    require(
        np.unique(occupied).size == occupied.size,
        f"{label}: two agents share a vertex at some tick",
    )

    here, there = positions[:, :-1], positions[:, 1:]
    moving = here != there
    step_tick = np.broadcast_to(tick_index[:, :-1], here.shape)[moving]
    forward = (step_tick * num_vertices + here[moving]) * num_vertices + there[moving]
    backward = (step_tick * num_vertices + there[moving]) * num_vertices + here[moving]
    require(
        not np.isin(forward, backward).any(),
        f"{label}: two agents swap across an edge",
    )

    cells = np.array([floorplan.cell_of(v) for v in range(num_vertices)], dtype=np.int64)
    distance = np.abs(cells[here] - cells[there]).sum(axis=-1)
    require(bool((distance <= 1).all()), f"{label}: an agent jumps between non-adjacent cells")

    stations = np.zeros(num_vertices, dtype=bool)
    stations[list(plan.warehouse.station_vertices)] = True
    dropped = (carrying[:, :-1] != 0) & (carrying[:, 1:] == 0) & stations[here]
    delivered = np.bincount(carrying[:, :-1][dropped], minlength=len(workload.demands) + 1)
    short = [
        product
        for product, demand in enumerate(workload.demands, start=1)
        if delivered[product] < demand
    ]
    require(not short, f"{label}: products {short} delivered below demand")
    return int(delivered.sum())


def check_orders(trace, label: str, demanded_units: int = -1) -> None:
    """Order conservation: served + pending = created.

    ``served`` is counted from the latencies of fulfilled orders and must match
    the trace's served count and never exceed the created count.  With every
    order created at tick 0 (``demanded_units >= 0``) the created count must
    equal the demanded units.
    """
    served = len(trace.order_latencies)
    require(
        served == trace.orders_served,
        f"{label}: {served} order latencies for {trace.orders_served} served orders",
    )
    require(
        served <= trace.orders_created,
        f"{label}: served {served} orders but only {trace.orders_created} were created",
    )
    if demanded_units >= 0:
        require(
            trace.orders_created == demanded_units,
            f"{label}: {trace.orders_created} orders created for {demanded_units} demanded units",
        )


def check_replay(solution, delivered_units: int, label: str) -> int:
    """Abstract replay with instant service and every order at tick 0 serves
    exactly the plan's delivered units at the promised throughput."""
    from repro.sim.runner import SimulationConfig

    report = solution.simulate(SimulationConfig(seed=0, record_events=False))
    require(
        report.trace.units_served == delivered_units,
        f"{label}: replay served {report.trace.units_served} of {delivered_units} delivered units",
    )
    require(report.throughput_ratio == 1.0, f"{label}: replay throughput ratio {report.throughput_ratio}")
    demanded = solution.instance.workload.total_units
    check_orders(report.trace, label + " (replay)", demanded)
    # The plan covers the demand, so an instant-service replay leaves no
    # order pending.
    require(
        report.trace.orders_served == demanded,
        f"{label}: replay left {demanded - report.trace.orders_served} orders pending",
    )
    return report.trace.units_served


def check_routed(report, replay_units: int, label: str) -> None:
    """A grid-routed run reaches every waypoint and serves what the replay did."""
    routing = report.routing
    require(
        routing.completed and routing.goals_completed == routing.goals_total,
        f"{label}: routing reached {routing.goals_completed} of {routing.goals_total} waypoints",
    )
    require(
        report.trace.units_served == replay_units,
        f"{label}: routed run served {report.trace.units_served}, replay {replay_units}",
    )


def comparable(record: Dict) -> Dict:
    """A run record without its wall-clock measurements."""
    return {key: value for key, value in record.items() if key not in _TIMING_FIELDS}


def same_records(left: Dict, right: Dict, label: str) -> None:
    require(comparable(left) == comparable(right), f"{label}: records differ:\n{left}\n{right}")


def check_record_against(record: Dict, agents: int, delivered: int, report, label: str) -> None:
    """A run record agrees with the pipeline run in this process: its fleet
    size, the delivered units counted by :func:`check_plan`, and the
    simulation's served units and orders."""
    require(record["status"] == "ok", f"{label}: status {record['status']}: {record['message'][:300]}")
    require(record["num_agents"] == agents, f"{label}: fleet size differs")
    require(record["units_delivered"] == delivered, f"{label}: delivered units differ")
    sim = record["sim"]
    require(sim["units_served"] == report.trace.units_served, f"{label}: served units differ")
    require(sim["orders_created"] == report.trace.orders_created, f"{label}: created orders differ")
    require(sim["orders_served"] == report.trace.orders_served, f"{label}: served orders differ")

