"""The three workloads: a closed loop of operations, then the output checks.

Each workload function returns a :class:`Outcome`: the operations attempted
and failed, the end-to-end metrics measured as wall-clock figures, the
machine-speed reference samples, and (traced runs) the per-layer metrics.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import checks
import common
import specs
from layers import LayerTrace

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: ``repro serve`` boots timed for ``setup_s`` on ``serve-mixed``.
SERVE_BOOTS = 3
#: Reference samples (pure-Python loop, round trip, memory pass) taken
#: before each operation and at the start of each round, per workload: enough
#: samples spread over the run that their medians follow the machine, at a
#: few percent of its time.
REF_PER_OP = {"paper-scale": (60, 10, 10), "sweep-mixed": (4, 1, 1), "serve-mixed": (1, 1, 0)}
REF_PER_ROUND = {"paper-scale": (0, 0, 0), "sweep-mixed": (0, 0, 0), "serve-mixed": (0, 0, 1)}
#: Rounds a run completes at least, so every run has the same kind of sample
#: set: sweep-mixed needs 40 operations for a tail.
MIN_ROUNDS = {"paper-scale": 1, "sweep-mixed": 4, "serve-mixed": 10}
#: Pool workers and client connections of ``serve-mixed`` (never above nproc).
POOL_WORKERS = 1


class References:
    """Machine-speed reference samples taken through a run."""

    def __init__(self, workload: str) -> None:
        self.per_op = dict(zip(("loop", "ipc", "mem"), REF_PER_OP[workload]))
        self.per_round = dict(zip(("loop", "ipc", "mem"), REF_PER_ROUND[workload]))
        self.samples: Dict[str, List[float]] = {name: [] for name in self.per_op}
        self.setup_samples: Dict[str, List[float]] = {name: [] for name in self.per_op}
        self.child = common.ReferenceChild()

    def sample(self, setup: bool = False, round_start: bool = False) -> None:
        samples = self.setup_samples if setup else self.samples
        counts = self.per_round if round_start else self.per_op
        takers = {
            "loop": common.ref_sample,
            "ipc": self.child.round_trip_us,
            "mem": self.child.memory_pass_ms,
        }
        # Interleaved, so each round trip follows a loop sample's idle gap.
        for index in range(max(counts.values())):
            for name, take in takers.items():
                if index < counts[name]:
                    samples[name].append(take())

    def medians(self) -> Dict[str, float]:
        values = {name: common.median(v) for name, v in self.samples.items() if v}
        values.update(
            {"setup_" + name: common.median(v) for name, v in self.setup_samples.items() if v}
        )
        return values

    def close(self) -> None:
        self.child.close()


@dataclass
class Loop:
    """What one closed loop measured."""

    latencies_ms: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ms) / 1e3

    def end_to_end(self) -> Dict[str, float]:
        latencies = self.latencies_ms
        # paper-scale runs three operations: its "tail" is the slowest one.
        worst = common.tail(latencies) if len(latencies) >= 40 else max(latencies)
        return {
            "ops_per_s": (self.attempted - self.failed) / self.busy_s,
            "op_p50_ms": common.median(latencies),
            "op_tail_ms": worst,
        }


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: End-to-end metrics as measured (wall clock), before any scaling.
    metrics: Dict[str, float]
    #: Medians of the machine-speed references (``References.medians``).
    references: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)


def closed_loop(
    workload: str,
    references: References,
    seconds: float,
    rounds: Callable[[int], Iterable],
    operation: Callable[[object], Tuple[bool, str]],
) -> Loop:
    """Run whole rounds of operations, one at a time, until ``seconds`` have
    passed.  ``operation(item)`` returns ``(ok, kind)``; the references are
    sampled between operations, outside the timed operations."""
    loop = Loop()
    start = time.perf_counter()
    round_index = 0
    while True:
        references.sample(round_start=True)
        for item in rounds(round_index):
            references.sample()
            began = time.perf_counter()
            try:
                ok, kind = operation(item)
            except Exception:  # an operation that raises is a failed operation
                if not loop.failed:
                    traceback.print_exc(file=sys.stderr)
                ok, kind = False, "error"
            loop.latencies_ms.append((time.perf_counter() - began) * 1e3)
            loop.kinds.append(kind)
            loop.attempted += 1
            loop.failed += 0 if ok else 1
        round_index += 1
        if round_index >= MIN_ROUNDS[workload] and time.perf_counter() - start >= seconds:
            return loop


def setup_seconds(code: str, references: References) -> float:
    seconds = []
    for _ in range(SETUP_REPEATS):
        seconds.append(common.probe_setup(code)["seconds"])
        references.sample(setup=True)
    return common.median(seconds)


def import_layers(code: str) -> Dict[str, float]:
    samples = [common.probe_setup(code, importtime=True) for _ in range(3)]
    return {
        name: common.median([sample[name] for sample in samples])
        for name in ("import.repro_ms", "import.scipy_ms")
    }


def traced_loops(workload, references, seconds, rounds, operation) -> Tuple[Loop, Loop, LayerTrace]:
    """An untraced loop, then the same loop with every layer wrapped."""
    plain = closed_loop(workload, references, seconds, rounds, operation)
    trace = LayerTrace().install()
    try:
        traced = closed_loop(workload, references, seconds, rounds, operation)
    finally:
        trace.close()
    return plain, traced, trace


def layer_metrics(
    plain: Loop, traced: Loop, trace: Optional[LayerTrace], references: References
) -> Dict[str, float]:
    values = trace.metrics(traced.attempted) if trace is not None else {}
    medians = references.medians()
    values["ref.loop_ms"] = medians["loop"]
    values["ref.ipc_us"] = medians["ipc"]
    values["ref.mem_ms"] = medians["mem"]
    values["trace.overhead_ms"] = common.median(traced.latencies_ms) - common.median(
        plain.latencies_ms
    )
    return values


# -- paper-scale -----------------------------------------------------------------

PAPER_SETUP = (
    "from repro.core.pipeline import WSPSolver\n"
    "from repro.maps.catalog import fulfillment_center_1\n"
    "fulfillment_center_1()\n"
)


def paper_scale(seed: int, seconds: float, traced: bool, references: References) -> Outcome:
    """The Table I instances on Fulfillment 1, solved end to end (stages 1-5)."""
    from repro.core.pipeline import WSPSolver
    from repro.maps.catalog import fulfillment_center_1
    from repro.warehouse import Workload
    from repro.warehouse.warehouse import WSPInstance

    setup = None if traced else setup_seconds(PAPER_SETUP, references)
    designed = fulfillment_center_1()
    catalog = designed.warehouse.catalog
    instances = {
        units: WSPInstance(designed.warehouse, Workload.uniform(catalog, units), specs.PAPER_HORIZON)
        for units in specs.PAPER_UNITS
    }
    rng = random.Random(seed)
    solutions: Dict[int, object] = {}

    def operation(units):
        solution = WSPSolver(designed.traffic_system).solve_instance(instances[units])
        solutions.setdefault(units, solution)
        return solution.succeeded and solution.plan_is_feasible, "solve"

    def rounds(_index):
        return specs.shuffled(specs.PAPER_UNITS, rng)

    layers: Dict[str, float] = {}
    if traced:
        plain, loop, trace = traced_loops("paper-scale", references, seconds, rounds, operation)
        layers = layer_metrics(plain, loop, trace, references)
        layers.update(import_layers(PAPER_SETUP))
    else:
        loop = closed_loop("paper-scale", references, seconds, rounds, operation)
    peak_rss = common.self_peak_rss_mb()

    fleet = 0
    for units, solution in sorted(solutions.items()):
        label = f"{specs.PAPER_MAP}/{units}"
        checks.require(solution.succeeded, f"{label}: no plan: {solution.message}")
        checks.check_plan(solution.plan, instances[units].workload, label)
        fleet += solution.num_agents

    metrics = loop.end_to_end()
    metrics.update({"peak_rss_mb": peak_rss, "fleet_agents": float(fleet)})
    if setup is not None:
        metrics["setup_s"] = setup
    return Outcome(loop.attempted, loop.failed, metrics, references.medians(), layers)


# -- sweep-mixed -----------------------------------------------------------------

SWEEP_SETUP = (
    "import repro.core.pipeline, repro.sim.runner\n"
    "from repro.experiments.runner import execute_scenario\n"
    "import sys\n"
    f"sys.path.insert(0, {str(common.ROOT / 'perfbench')!r})\n"
    "import specs\n"
    "for spec in specs.SWEEP_SPECS:\n"
    "    spec.build()\n"
)


def sweep_mixed(seed: int, seconds: float, traced: bool, references: References) -> Outcome:
    """A dozen fixed scenarios through ``execute_scenario``, one after another."""
    from repro.experiments.runner import execute_scenario

    setup = None if traced else setup_seconds(SWEEP_SETUP, references)
    documents = {spec.scenario_id: spec.to_dict() for spec in specs.SWEEP_SPECS}
    # One untimed run pays the lazy imports a sweep worker pays once.
    execute_scenario(documents[specs.SWEEP_SPECS[2].scenario_id])
    rng = random.Random(seed)
    records: Dict[str, List[Dict]] = {}

    def operation(spec):
        record = execute_scenario(documents[spec.scenario_id])
        records.setdefault(spec.scenario_id, []).append(record)
        return record["status"] == "ok", "scenario"

    def rounds(_index):
        return specs.shuffled(specs.SWEEP_ROUND, rng)

    layers: Dict[str, float] = {}
    if traced:
        plain, loop, trace = traced_loops("sweep-mixed", references, seconds, rounds, operation)
        layers = layer_metrics(plain, loop, trace, references)
        layers.update(import_layers(SWEEP_SETUP))
    else:
        loop = closed_loop("sweep-mixed", references, seconds, rounds, operation)
    peak_rss = common.self_peak_rss_mb()

    fleet = 0
    for spec in specs.SWEEP_SPECS:
        spec_records = records[spec.scenario_id]
        for record in spec_records[1:]:
            checks.same_records(spec_records[0], record, f"{spec.label} (repeat)")
        fleet += check_scenario(spec, spec_records[0])

    metrics = loop.end_to_end()
    metrics.update({"peak_rss_mb": peak_rss, "fleet_agents": float(fleet)})
    if setup is not None:
        metrics["setup_s"] = setup
    return Outcome(loop.attempted, loop.failed, metrics, references.medians(), layers)


def check_scenario(spec, record: Dict) -> int:
    """Re-run ``spec`` through the pipeline in this process and check its plan,
    its replay, its own simulation and the record; returns its fleet size."""
    from repro.core.pipeline import WSPSolver
    from repro.experiments.scenario import parse_service_time
    from repro.sim.runner import SimulationConfig

    label = spec.label
    designed, workload = spec.build()
    solver = WSPSolver(designed.traffic_system)
    solution = solver.solve(workload, horizon=spec.horizon)
    checks.require(solution.succeeded, f"{label}: no plan: {solution.message}")
    delivered = checks.check_plan(solution.plan, workload, label)
    replay_units = checks.check_replay(solution, delivered, label)
    report = solver.simulate(
        solution,
        SimulationConfig(
            seed=spec.seed,
            service_time=parse_service_time(spec.service_time),
            arrival_rate=spec.arrival_rate,
            record_events=False,
            routing=spec.routing_config(),
            disruptions=spec.disruption_config(),
        ),
    )
    all_at_start = spec.arrival_rate is None and spec.disruptions == "none"
    checks.check_orders(report.trace, label, workload.total_units if all_at_start else -1)
    if report.routing is not None:
        checks.check_routed(report, replay_units, label)
    checks.check_record_against(record, solution.num_agents, delivered, report, label)
    return solution.num_agents


# -- serve-mixed -----------------------------------------------------------------

SERVE_SETUP = "import repro.cli, repro.service\n"


class Server:
    """One ``repro serve`` process with an ephemeral port."""

    def __init__(self) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(POOL_WORKERS), "--cache-capacity", "4096",
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=str(common.ROOT), env=common.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise common.BenchmarkError(f"repro serve did not start: {line!r}")
            self.host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            self.port = int(port)
            self.connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
            self.connection.request("GET", "/healthz")
            reply = self.connection.getresponse()
            reply.read()
            if reply.status != 200:
                raise common.BenchmarkError(f"/healthz answered {reply.status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def solve(self, body: bytes) -> Tuple[int, bytes]:
        self.connection.request(
            "POST", "/solve", body=body, headers={"Content-Type": "application/json"}
        )
        reply = self.connection.getresponse()
        return reply.status, reply.read()

    def stop(self) -> None:
        """SIGINT drains and exits; wait for the server and its pool workers."""
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            _, stderr = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            _, stderr = self.process.communicate()
        if self.process.returncode not in (0, -signal.SIGINT) and stderr:
            print(stderr[-2000:], file=sys.stderr)


def request_body(spec) -> bytes:
    from repro.service.api import ServiceRequest

    return json.dumps(ServiceRequest(spec).to_dict()).encode()


def serve_mixed(seed: int, seconds: float, traced: bool, references: References) -> Outcome:
    """One keep-alive client against ``repro serve``: ~95% hot-set cache hits,
    ~5% never-seen scenarios computed by the pool."""
    from repro.experiments.runner import execute_scenario

    boots: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(SERVE_BOOTS):  # the last server boot stays up for the loop
            if server is not None:
                server.stop()
                server = None
            server = Server()
            boots.append(server.boot_s)
            references.sample(setup=True)
        hot_bodies = {spec.scenario_id: request_body(spec) for spec in specs.HOT_SPECS}
        first_records: Dict[str, Dict] = {}
        for spec in specs.HOT_SPECS:  # warm the cache: these are the hot set's misses
            status, raw = server.solve(hot_bodies[spec.scenario_id])
            document = json.loads(raw)
            checks.require(
                status == 200 and document["state"] == "ok",
                f"{spec.label}: warm-up answered {status} {document.get('message', '')[:300]}",
            )
            first_records[spec.scenario_id] = document["record"]

        rng = random.Random(seed)
        misses_asked = itertools.count()
        responses: List[Tuple[str, object, Dict, int]] = []

        def operation(item):
            kind, spec, body = item
            status, raw = server.solve(body)
            document = json.loads(raw) if raw else {}
            responses.append((kind, spec, document, len(raw)))
            ok = status == 200 and document.get("state") == "ok" and document.get("cache") == kind
            return ok, kind

        def rounds(_index):
            # Bodies are rendered here, outside the timed operation.
            for kind, spec in specs.serve_round(rng, seed, next(misses_asked)):
                body = hot_bodies[spec.scenario_id] if kind == "hit" else request_body(spec)
                yield kind, spec, body

        plain = closed_loop("serve-mixed", references, seconds, rounds, operation)
        # The service layers run in the server; the client reads them from
        # each response, so the traced loop wraps nothing in-process and its
        # overhead is the difference between two identical loops.
        loop = (
            closed_loop("serve-mixed", references, seconds, rounds, operation) if traced else plain
        )
        peak_rss = common.tree_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()

    misses: List[Tuple[object, Dict]] = []
    for kind, spec, document, _size in responses:
        if document.get("state") != "ok":
            continue  # counted as failed by the loop
        if kind == "hit":
            checks.require(
                document["record"] == first_records[spec.scenario_id],
                f"{spec.label}: a hit returned another record than its miss",
            )
        else:
            misses.append((spec, document["record"]))
    for spec, record in [(spec, first_records[spec.scenario_id]) for spec in specs.HOT_SPECS] + misses[:2]:
        checks.same_records(
            execute_scenario(spec.to_dict()), record, f"{spec.label} (served vs in-process)"
        )

    metrics = loop.end_to_end()
    fleet = sum(record["num_agents"] for record in first_records.values())
    metrics.update({"peak_rss_mb": peak_rss, "fleet_agents": float(fleet)})
    if not traced:
        metrics["setup_s"] = common.median(boots)
    layers: Dict[str, float] = {}
    if traced:
        layers = layer_metrics(plain, loop, None, references)
        layers.update(import_layers(SERVE_SETUP))
        layers["serve.boot_ms"] = common.median(boots) * 1e3
        layers.update(service_layers(loop, responses[-loop.attempted:]))
    return Outcome(loop.attempted, loop.failed, metrics, references.medians(), layers)


def service_layers(loop: Loop, responses) -> Dict[str, float]:
    hit_ms = [ms for ms, kind in zip(loop.latencies_ms, loop.kinds) if kind == "hit"]
    miss = [
        (ms, document) for ms, (kind, _spec, document, _size) in zip(loop.latencies_ms, responses)
        if kind == "miss"
    ]
    queue_ms = [document.get("queue_seconds", 0.0) * 1e3 for _ms, document in miss]
    compute_ms = [document.get("compute_seconds", 0.0) * 1e3 for _ms, document in miss]
    overhead_ms = [ms - q - c for (ms, _doc), q, c in zip(miss, queue_ms, compute_ms)]
    return {
        "service.hit_ms": common.median(hit_ms),
        "service.miss_ms": common.median([ms for ms, _doc in miss]),
        "service.queue_ms": common.median(queue_ms),
        "service.compute_ms": common.median(compute_ms),
        "service.overhead_ms": common.median(overhead_ms),
        "service.hits": float(sum(1 for _k, _s, d, _n in responses if d.get("cache") == "hit")),
        "service.misses": float(sum(1 for _k, _s, d, _n in responses if d.get("cache") == "miss")),
        "service.rejected": float(
            sum(1 for _k, _s, d, _n in responses if d.get("state") == "rejected")
        ),
        "service.response_bytes": common.median([size for _k, _s, _d, size in responses]),
    }


WORKLOADS = {
    "paper-scale": paper_scale,
    "sweep-mixed": sweep_mixed,
    "serve-mixed": serve_mixed,
}


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    references = References(workload)
    try:
        return WORKLOADS[workload](seed, seconds, traced, references)
    finally:
        references.close()
