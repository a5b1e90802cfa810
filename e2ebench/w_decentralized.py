"""``decentralized_rr8``: n=1024 filtered DGD on a random 8-regular graph.

CWTM per neighbourhood, 20 spread gradient-reverse agents, and link drops,
delays and corruption. Topology and cost building are set-up; the measured
work is repeated ``run_decentralized_dgd`` calls: one of ``ROUNDS`` rounds
(throughput) followed by ``SHORT_CALLS`` of ``SHORT_ROUNDS`` rounds
(latency of a short call, about a third of which is the call's own set-up:
neighbour gather layout, per-edge fault parameters, liveness state).
"""

from __future__ import annotations

import os
import random
from typing import Dict

import numpy as np

from common import check, median, now

N, D, DEGREE, ROUNDS = 1024, 8, 8, 200
SHORT_ROUNDS, SHORT_CALLS = 10, 5
FAULTY_COUNT = 20
SETUP_REPEATS = 9
#: Worst honest agent's distance to the shared minimizer after ROUNDS rounds.
MAX_HONEST_DISTANCE = 0.05


def make_inputs(seed: int) -> Dict:
    rng = random.Random(seed)
    return {
        "topology_seed": rng.randrange(2**31),
        "instance_seed": rng.randrange(2**31),
        "fault_seed": rng.randrange(2**31),
        "run_seed": rng.randrange(2**31),
        "placement_seed": rng.randrange(2**31),
    }


def spread_faulty(topology, seed: int) -> list:
    """``FAULTY_COUNT`` agents, no two in one neighbourhood (every f_i <= 1).

    Agents are taken in a seeded random order and kept unless one already
    kept shares a neighbour with them.
    """
    order = list(range(N))
    random.Random(seed).shuffle(order)
    faulty, blocked = [], set()
    for agent in order:
        if agent in blocked:
            continue
        faulty.append(agent)
        for peer in topology.neighbors(agent):
            blocked.add(int(peer))
            blocked.update(int(p) for p in topology.neighbors(int(peer)))
        if len(faulty) == FAULTY_COUNT:
            return sorted(faulty)
    raise RuntimeError("topology too dense to spread the faulty agents")


def build(inputs: Dict):
    """The set-up: topology and per-agent costs; returns its wall time first.

    The faulty placement is the benchmark's own code, so it is not timed.
    """
    from repro.experiments.topology_resilience import full_local_rank_costs
    from repro.system.topology import make_topology

    start = now()
    topology = make_topology("random-regular", N, seed=inputs["topology_seed"], degree=DEGREE)
    costs, x_star = full_local_rank_costs(N, D, instance_seed=inputs["instance_seed"])
    return now() - start, topology, costs, x_star


def run_once(inputs: Dict, topology, faulty, costs, x_star, rounds: int = ROUNDS) -> Dict:
    from repro.attacks.simple import GradientReverse
    from repro.system.decentralized import run_decentralized_dgd
    from repro.system.netfaults import LinkFaultModel, LinkFaultProfile

    link_faults = LinkFaultModel(
        default_profile=LinkFaultProfile(drop_prob=0.05, delay_prob=0.1, max_delay=2,
                                         corrupt_prob=0.01),
        seed=inputs["fault_seed"],
    )
    start = now()
    result = run_decentralized_dgd(
        costs, topology, aggregation="cwtm", faulty_ids=faulty,
        behavior=GradientReverse(strength=2.0), iterations=rounds,
        seed=inputs["run_seed"], link_faults=link_faults,
    )
    wall = now() - start
    counters = result.counters
    distance = float(np.max(result.distances_to(x_star)[result.honest_ids]))
    check(counters["quarantined"] == counters["corrupted_edges"],
          f"quarantined {counters['quarantined']} != corrupted {counters['corrupted_edges']}")
    check(counters["degraded_agent_rounds"] == 0,
          f"{counters['degraded_agent_rounds']} degraded agent-rounds")
    check(rounds < ROUNDS or distance < MAX_HONEST_DISTANCE,
          f"max honest distance {distance:.4g} >= {MAX_HONEST_DISTANCE}")
    return {"wall": wall, "counters": dict(counters), "distance": distance}


def run(seed: int, seconds: float, work: str, trace: bool) -> Dict:
    inputs = make_inputs(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, topology, costs, x_star = build(inputs)
        setups.append(setup_s)
    faulty = spread_faulty(topology, inputs["placement_seed"])
    runs, short, per_layer = [], [], {}
    if trace:
        import layers

        base = run_once(inputs, topology, faulty, costs, x_star)
        trace_dir = os.path.join(work, "spans")
        layers.install(trace_dir)
        start = now()
        # The same seed rebuilds the same topology, so ``faulty`` still fits.
        _, topology, costs, x_star = build(inputs)
        traced = run_once(inputs, topology, faulty, costs, x_star)
        wall = now() - start
        per_layer = layers.report(trace_dir, wall, median(setups) + base["wall"])
        runs = [base, traced]
    else:
        begin = now()
        while not runs or now() - begin < seconds:
            runs.append(run_once(inputs, topology, faulty, costs, x_star))
            short.extend(run_once(inputs, topology, faulty, costs, x_star, SHORT_ROUNDS)
                         for _ in range(SHORT_CALLS))
    first = runs[0]["counters"]
    report = {
        "agent_rounds_per_s": (median([N * ROUNDS / r["wall"] for r in runs]), "1/s"),
        "max_honest_distance": (max(r["distance"] for r in runs), "1"),
        "runs": (len(runs), "count"),
    }
    if short:
        report["short_call_p50_s"] = (median([r["wall"] for r in short]),
                                      f"s ({SHORT_ROUNDS} rounds, n={len(short)})")
    return {
        "setup_s": median(setups),
        "throughput_per_s": report["agent_rounds_per_s"][0],
        "latency_p50_s": median([r["wall"] for r in short or runs]),
        "attempted": len(runs) + len(short), "failed": 0,
        "report": report,
        "counts": {name: first[name] for name in (
            "dropped_edges", "delayed_edges", "corrupted_edges", "quarantined",
            "stale_reuses", "degraded_agent_rounds")},
        "per_layer": per_layer,
    }
