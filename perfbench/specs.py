"""The fixed inputs of each workload, and how ``--seed`` orders them.

The seed only decides the order of operations within a round (and, on
``serve-mixed``, where the miss falls and which never-seen scenarios are
asked for).  The program receives only the generated specs and requests.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

from repro.experiments.scenario import ScenarioSpec

#: ``paper-scale``: the paper's Table I instances on Fulfillment 1.
PAPER_MAP = "fulfillment-1"
PAPER_UNITS = (550, 825, 1100)
PAPER_HORIZON = 3600

_FULFILLMENT = ScenarioSpec(
    kind="fulfillment", num_slices=2, shelf_columns=4, shelf_bands=3,
    num_stations=1, num_products=6, horizon=900,
)
_SORTING = ScenarioSpec(
    kind="sorting", num_slices=2, shelf_columns=5, shelf_bands=1, num_stations=2, horizon=900,
)
#: The routing-scale fulfillment map: every grid router completes its plan.
_ROUTED = ScenarioSpec(
    kind="fulfillment", num_slices=2, shelf_columns=5, shelf_bands=3, num_stations=2,
    num_products=8, units=24, horizon=1200,
)

#: ``sweep-mixed``: the distinct scenarios.  Grid routing runs only on maps
#: whose plans every router completes; see README.md ("Known faults").
SWEEP_SPECS: Tuple[ScenarioSpec, ...] = (
    replace(_FULFILLMENT, units=12, name="fulfillment/uniform"),
    replace(_FULFILLMENT, units=18, workload_mix="zipf", name="fulfillment/zipf"),
    replace(_FULFILLMENT, units=16, shelf_depth=2, name="fulfillment/deep-shelves"),
    replace(_FULFILLMENT, units=12, service_time="uniform:1,3", name="fulfillment/stochastic-service"),
    replace(
        _FULFILLMENT, units=12, service_time="geometric:2", arrival_rate=0.05,
        name="fulfillment/poisson",
    ),
    replace(
        _FULFILLMENT, num_slices=3, num_stations=2, num_products=8, units=24, horizon=1200,
        name="fulfillment/three-slices",
    ),
    replace(_SORTING, units=16, name="sorting/uniform"),
    replace(_SORTING, units=12, workload_mix="zipf", arrival_rate=0.05, name="sorting/zipf-poisson"),
    replace(_ROUTED, router="prioritized", name="routed/prioritized"),
    replace(_ROUTED, router="ecbs", name="routed/ecbs"),
    replace(_SORTING, units=8, router="lifelong", routing_window=8, name="routed/lifelong-w8"),
    replace(_ROUTED, disruptions="breakdown:0.01:20", name="disrupted/breakdown"),
)

#: One round: every sweep scenario once and the three-slice map once more.
#: Thirteen operations put the median inside one scenario's samples, and the
#: repeat makes the three heaviest operations of a round (this map twice and
#: ECBS routing) hold the tail for any round count from 4 to 10, so the number
#: of rounds a machine manages does not move either statistic.
SWEEP_ROUND: Tuple[ScenarioSpec, ...] = SWEEP_SPECS + (SWEEP_SPECS[5],)

#: ``serve-mixed``: the hot set every hit is drawn from.
HOT_SPECS: Tuple[ScenarioSpec, ...] = (
    replace(_FULFILLMENT, units=16, shelf_depth=2, name="hot/deep-shelves"),
    replace(_SORTING, units=16, name="hot/sorting"),
    replace(_SORTING, units=12, workload_mix="zipf", arrival_rate=0.05, name="hot/sorting-poisson"),
    replace(_FULFILLMENT, units=12, name="hot/fulfillment"),
    replace(_ROUTED, name="hot/routed-map"),
    replace(_ROUTED, router="prioritized", name="hot/routed"),
)
#: Requests per ``serve-mixed`` round: one miss and ``ROUND_REQUESTS - 1`` hits.
ROUND_REQUESTS = 20
#: Never-seen scenarios differ from this template only in their ``seed``
#: field, so every miss costs about the same.
MISS_TEMPLATE = replace(_SORTING, units=16, name="miss")


def shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def miss_spec(seed: int, index: int) -> ScenarioSpec:
    """The ``index``-th never-seen scenario of a run seeded with ``seed``."""
    return replace(MISS_TEMPLATE, seed=(seed % 100_000) * 100_000 + index + 1)


def serve_round(rng: random.Random, seed: int, miss_index: int) -> List[Tuple[str, ScenarioSpec]]:
    """One round of requests: ``("hit", spec)`` and one ``("miss", spec)``
    asking for the ``miss_index``-th never-seen scenario."""
    hits = [rng.choice(HOT_SPECS) for _ in range(ROUND_REQUESTS - 1)]
    requests = [("hit", spec) for spec in hits]
    requests.insert(rng.randrange(ROUND_REQUESTS), ("miss", miss_spec(seed, miss_index)))
    return requests
