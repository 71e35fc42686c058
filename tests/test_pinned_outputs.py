"""Seeded outputs pinned against a fixed table, not only against a twin.

Every equivalence suite compares the windowed engine with its step-wise
``*_reference`` twin. A refactor that moves both the same way — an rng
draw reordered in a loop they share, a phase renamed in both — passes
those suites. This one pins, per packet-level protocol, a digest of the
seeded result (its tagged wire form), the step count and the trace
totals — per phase, for protocols that run on a caller's network — at
two seeds on two deterministic graphs, under both engines, with and
without one sampled fault schedule. Both engines must produce the
pinned digest.

Re-pin only with a :data:`~repro.engine.sampler.STREAM_VERSION` bump:
print the table with ``PYTHONPATH=src python tests/test_pinned_outputs.py``
and paste it over :data:`PINNED`.
"""

from __future__ import annotations

import hashlib
import json

import networkx as nx
import numpy as np
import pytest

import repro.api as api
from repro import graphs
from repro.api.wire import encode_value
from repro.baselines import binary_search_election
from repro.core.mis import MISConfig
from repro.core.mis_restart import RestartableMISConfig
from repro.engine import ExecutionPolicy
from repro.faults import FaultSchedule
from repro.radio import RadioNetwork

#: Small configs that keep the step-wise runs quick.
CONFIGS = {
    "mis": MISConfig(eed_C=3),
    "mis_restart": RestartableMISConfig(epochs=2, eed_C=3),
    "decay": api.DecayConfig(iterations=3),
    "eed": api.EEDConfig(C=3),
    "wakeup": api.WakeupConfig(n=400, k=24),
    "broadcast": api.BroadcastConfig(packet=True),
    "leader": api.LeaderConfig(packet=True),
}

#: Every registered protocol that simulates radio steps (``broadcast``
#: and ``leader`` through their packet variants), plus the
#: binary-search election baseline.
PROTOCOLS = [
    name for name in api.protocol_names() if name != "partition"
] + ["binary_search"]

GRAPHS = {
    "clique_chain": lambda: graphs.clique_chain(5, 6),
    "star_of_cliques": lambda: nx.convert_node_labels_to_integers(
        graphs.star_of_cliques(4, 5)
    ),
}

SEEDS = [3, 8]


def _faults(n: int) -> FaultSchedule:
    return FaultSchedule.sample(
        n, 800, seed=5, churn=0.2, jam=0.05, hetero=0.3
    )


def _digest(result, steps: int, trace: dict, phases: dict) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(encode_value(result), sort_keys=True).encode())
    digest.update(json.dumps([steps, trace, phases], sort_keys=True).encode())
    return digest.hexdigest()[:20]


def _run(name: str, graph_kind: str, seed: int, engine: str, faulted: bool):
    graph = GRAPHS[graph_kind]()
    n = graph.number_of_nodes() if name != "wakeup" else CONFIGS[name].n
    policy = ExecutionPolicy(
        engine=engine, faults=_faults(n) if faulted else None
    )
    if name == "binary_search":
        network = RadioNetwork(graph)
        result = binary_search_election(
            network, np.random.default_rng(seed), policy=policy
        )
        trace = network.trace
        totals = [
            trace.total_steps, trace.total_transmissions,
            trace.total_receptions,
        ]
        return _digest(result, result.steps, totals, _phases(network))
    spec = api.get_protocol(name)
    target = None
    if spec.accepts == "network":
        target = RadioNetwork(graph)
    elif spec.accepts == "graph":
        target = graph
    report = api.run(
        name, target, seed=seed, config=CONFIGS.get(name), policy=policy
    )
    phases = _phases(target) if spec.accepts == "network" else {}
    return _digest(report.result, report.steps, report.trace, phases)


def _phases(network: RadioNetwork) -> dict:
    return {
        phase: [stats.steps, stats.transmissions, stats.receptions]
        for phase, stats in sorted(network.trace.phase_stats().items())
    }


CASES = [
    (name, kind, seed, faulted)
    for name in PROTOCOLS
    for kind in (["own"] if name == "wakeup" else list(GRAPHS))
    for seed in SEEDS
    for faulted in (False, True)
    # The wake-up reduction builds its own clique: faults on a caller's
    # node ids cannot apply, and it refuses them.
    if not (name == "wakeup" and faulted)
]


def _case_id(name: str, kind: str, seed: int, faulted: bool) -> str:
    return f"{name}-{kind}-{seed}{'-faulted' if faulted else ''}"


def _table() -> dict[str, str]:
    table = {}
    for name, kind, seed, faulted in CASES:
        graph_kind = "clique_chain" if kind == "own" else kind
        table[_case_id(name, kind, seed, faulted)] = _run(
            name, graph_kind, seed, "windowed", faulted
        )
    return table


#: ``_run`` digests of every case, as the stream-version-3 protocols
#: produced them.
PINNED = {
    "mis-clique_chain-3": "68cb16e2df16bd371c60",
    "mis-clique_chain-3-faulted": "3dec77580d20fd5d1733",
    "mis-clique_chain-8": "ae39c5df49936c932d5d",
    "mis-clique_chain-8-faulted": "3ae709ef123122d41588",
    "mis-star_of_cliques-3": "929b228b8807b5949178",
    "mis-star_of_cliques-3-faulted": "704abec3cb40021b0276",
    "mis-star_of_cliques-8": "de9dbd07d181a65a3e85",
    "mis-star_of_cliques-8-faulted": "74b7a93c384a0b08bcb7",
    "mis_restart-clique_chain-3": "c57df58360f4a9fb937b",
    "mis_restart-clique_chain-3-faulted": "40d0a2c621263586e49a",
    "mis_restart-clique_chain-8": "634f161d105d402f6c17",
    "mis_restart-clique_chain-8-faulted": "1455bdc5fe551b945afb",
    "mis_restart-star_of_cliques-3": "c67e06ef5515e57b04e0",
    "mis_restart-star_of_cliques-3-faulted": "64e1081cd0b0cbe55778",
    "mis_restart-star_of_cliques-8": "98497c3916b087f10f55",
    "mis_restart-star_of_cliques-8-faulted": "5106f8486c0e1bdf44f3",
    "decay-clique_chain-3": "fd85913cd5e0355244af",
    "decay-clique_chain-3-faulted": "b7e2bf216a1151a23040",
    "decay-clique_chain-8": "15ba5b97adc12ff7083d",
    "decay-clique_chain-8-faulted": "ff2a9c90ca09d9dbf199",
    "decay-star_of_cliques-3": "2a6e7d2a328e77e73ec5",
    "decay-star_of_cliques-3-faulted": "648ece0d7a52b80f3a54",
    "decay-star_of_cliques-8": "d85dc921dbf00ee39fb2",
    "decay-star_of_cliques-8-faulted": "42c66289fe1bbae79765",
    "eed-clique_chain-3": "47ae67d315d1a3f33c32",
    "eed-clique_chain-3-faulted": "289a6bd62f2187bd0c2b",
    "eed-clique_chain-8": "cfb2c8c0624bddfb63d0",
    "eed-clique_chain-8-faulted": "229b5ca1af0e7495e913",
    "eed-star_of_cliques-3": "dd4b3477d24a37d90521",
    "eed-star_of_cliques-3-faulted": "37e36589cd184dede94b",
    "eed-star_of_cliques-8": "4e22a2e90173951ed6d7",
    "eed-star_of_cliques-8-faulted": "97a70220ca9072b54ab5",
    "icp-clique_chain-3": "401d1e4ba1f724ba9f48",
    "icp-clique_chain-3-faulted": "0c165a0d848f46db31df",
    "icp-clique_chain-8": "5d5033bd756ec3bd1eec",
    "icp-clique_chain-8-faulted": "a651877749eb173311aa",
    "icp-star_of_cliques-3": "427ff36b37d0bc5ba36f",
    "icp-star_of_cliques-3-faulted": "8491e59ee7ee80c362c7",
    "icp-star_of_cliques-8": "78dc5cfb589cd93b4136",
    "icp-star_of_cliques-8-faulted": "569e681d0a63abc235c9",
    "bgi-clique_chain-3": "e01710f252d182e6acb8",
    "bgi-clique_chain-3-faulted": "a9f8066d998d36b9571b",
    "bgi-clique_chain-8": "229726e65e424e7a569e",
    "bgi-clique_chain-8-faulted": "2950af0bf0f6ebcb4c3d",
    "bgi-star_of_cliques-3": "bcd32fc7955d717d4bf4",
    "bgi-star_of_cliques-3-faulted": "cd9156d398038f94db09",
    "bgi-star_of_cliques-8": "212b6482ee20effa448f",
    "bgi-star_of_cliques-8-faulted": "f117b67ce1d841b55535",
    "wakeup-own-3": "6bb3aeafd5dd62a38d1a",
    "wakeup-own-8": "22bf0e2fe9c4bfb82638",
    "broadcast-clique_chain-3": "460317aa7638cced524a",
    "broadcast-clique_chain-3-faulted": "b49513f2af27c9240bfc",
    "broadcast-clique_chain-8": "2e063ed393ceaefd1d87",
    "broadcast-clique_chain-8-faulted": "3a797d355ea4ec9fbcdc",
    "broadcast-star_of_cliques-3": "a2180b26342eb2387596",
    "broadcast-star_of_cliques-3-faulted": "06365849ee04469865f1",
    "broadcast-star_of_cliques-8": "6fd8ffe404d2de09e385",
    "broadcast-star_of_cliques-8-faulted": "6f7dc48f5e303da79cae",
    "leader-clique_chain-3": "d9a9c201ef9cd1f58584",
    "leader-clique_chain-3-faulted": "f27fa53d98637ba51ce3",
    "leader-clique_chain-8": "8d9481990f4fceb3528f",
    "leader-clique_chain-8-faulted": "eaa7b196c2a6af789791",
    "leader-star_of_cliques-3": "b628f198586f038d9537",
    "leader-star_of_cliques-3-faulted": "2a99c207010ef65ee93f",
    "leader-star_of_cliques-8": "4b2fc1f4addcd097ea6b",
    "leader-star_of_cliques-8-faulted": "eb42367f3d09ddff9fc8",
    "leader_uptime-clique_chain-3": "b633e3300910e27abfb8",
    "leader_uptime-clique_chain-3-faulted": "de9b36b98b659f58bd6e",
    "leader_uptime-clique_chain-8": "9afd0e6e62a83a2617af",
    "leader_uptime-clique_chain-8-faulted": "fba2e6d1ab265479347a",
    "leader_uptime-star_of_cliques-3": "f1e6b25ecae6a5fcc5d6",
    "leader_uptime-star_of_cliques-3-faulted": "3061a80bfe31baa01059",
    "leader_uptime-star_of_cliques-8": "5f5c641139db181f8371",
    "leader_uptime-star_of_cliques-8-faulted": "4dca74ef398c425ca754",
    "binary_search-clique_chain-3": "5a971ea3b837542fad67",
    "binary_search-clique_chain-3-faulted": "9b47a94b92bef3368aa6",
    "binary_search-clique_chain-8": "f44432b2a507745efd8c",
    "binary_search-clique_chain-8-faulted": "ad511afab2a79e0937e1",
    "binary_search-star_of_cliques-3": "4f0175b0fcf27b1e909f",
    "binary_search-star_of_cliques-3-faulted": "9e9100a099c19e1d9d6a",
    "binary_search-star_of_cliques-8": "6528958c9dae99134fe7",
    "binary_search-star_of_cliques-8-faulted": "9622d2044791dfd3ade0",
}


@pytest.mark.parametrize("engine", ["windowed", "reference"])
@pytest.mark.parametrize(
    "name,kind,seed,faulted", CASES, ids=[_case_id(*c) for c in CASES]
)
def test_seeded_output_is_pinned(name, kind, seed, faulted, engine):
    graph_kind = "clique_chain" if kind == "own" else kind
    got = _run(name, graph_kind, seed, engine, faulted)
    assert got == PINNED[_case_id(name, kind, seed, faulted)]


def test_every_case_is_pinned():
    assert set(PINNED) == {_case_id(*case) for case in CASES}


if __name__ == "__main__":
    for key, value in _table().items():
        print(f'    "{key}": "{value}",')
