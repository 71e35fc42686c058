"""Packet-level Compete: the full pipeline, every collision simulated.

The round-accounted :mod:`repro.core.compete` is the scalable way to
measure the paper's asymptotic shapes; this module is its ground-truth
companion for small graphs — **everything** here happens on the radio
simulator:

1. Radio MIS (Algorithm 7) finds the cluster-center candidates;
2. ``Partition(beta, MIS)`` clusterings are built by the packet-level
   wave protocol of [18] (:mod:`repro.core.partition_radio`);
3. each phase runs packet-level Intra-Cluster Propagation (Algorithms
   9-10: slot schedules + Decay background) on a freshly chosen fine
   clustering;
4. the loop ends when every node knows the highest message.

One documented simplification (a fidelity knob, not a silent cheat): the
phase sequence of fine clusterings is drawn from shared randomness
instead of being negotiated through the coarse-clustering machinery of
Algorithm 2 steps 2-7. The paper introduces coarse clusters *only* to
let nodes agree on those random choices in the ad-hoc model; the
round-accounted pipeline models that machinery and charges for it, while
this packet-level variant assumes a shared seed so that every simulated
step is protocol communication. E6's packet-vs-accounted comparison
quantifies the difference.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..graphs.context import GraphContext, graph_context
from ..radio.errors import (
    BudgetExceededError,
    GraphContractError,
    ProtocolError,
)
from ..radio.network import RadioNetwork
from .costmodel import propagation_length
from .decay import run_decay
from .intra_cluster import intra_cluster_propagation
from .mis import MISConfig, compute_mis
from .mpx import beta_of_j, j_range
from .partition_radio import partition_radio
from .schedule import build_schedule


@dataclasses.dataclass
class PacketCompeteConfig:
    """Knobs of the packet-level Compete.

    ``clusterings_per_j`` fine clusterings are prepared per ``j`` (the
    paper's ``D^0.2``, capped for tractability — resampling on
    exhaustion preserves the randomization; DESIGN.md substitution 2).
    ``mis_config`` defaults to the oracle-degree speed knob since MIS
    step costs are already measured separately in E1. The execution
    policy is not a config knob: it travels as ``policy=``, like every
    other entry point's.
    """

    clusterings_per_j: int = 2
    c_ell: float = 4.0
    mis_config: MISConfig = dataclasses.field(
        default_factory=lambda: MISConfig(oracle_degree=True)
    )
    max_phases: int | None = None
    final_sweep_iterations: int = 4


@dataclasses.dataclass
class PacketCompeteResult:
    """Outcome of a packet-level Compete run.

    ``steps`` counts every simulated radio step across all stages;
    ``stage_steps`` itemizes them (mis / partition / icp / sweep).
    """

    winner: int
    delivered: bool
    steps: int
    phases: int
    mis_size: int
    stage_steps: dict[str, int]


def compete_packet(
    network: RadioNetwork,
    sources: dict[int, int],
    rng: np.random.Generator,
    config: PacketCompeteConfig | None = None,
    alpha: int | None = None,
    context: GraphContext | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> PacketCompeteResult:
    """Run the fully simulated Compete on ``network``.

    Parameters
    ----------
    network:
        A connected radio network (node labels are indices here; build
        the network from a generator graph).
    sources:
        Node index (in ``[0, n)``) -> non-negative message key; highest
        key wins.
    rng:
        Shared randomness (see module docstring).
    config:
        Pipeline knobs.
    alpha:
        Independence-number estimate for the phase length; defaults to
        the MIS size found in stage 1.
    context:
        Optional pre-built :class:`~repro.graphs.context.GraphContext`;
        repeated trials share the cached connectivity and diameter.
        Defaults to the memoized per-graph context.
    policy:
        The :class:`~repro.engine.policy.ExecutionPolicy` every stage
        (MIS, partition, ICP, sweep) runs under (``None`` = the default
        policy):
        its engine picks the windowed engine or their step-wise
        reference twins, and its fault schedule is installed on the
        network before any stage runs. Seeded runs are bit-identical
        across engines.
    """
    config = config or PacketCompeteConfig()
    for node in sources:
        if not 0 <= int(node) < network.n:
            raise ProtocolError(f"source {node} out of range [0, {network.n})")
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    context = (
        context if context is not None else graph_context(network.graph)
    )
    if not context.is_connected():
        raise GraphContractError("Compete requires a connected network")
    if not sources:
        raise ValueError("Compete needs at least one source message")
    if any(key < 0 for key in sources.values()):
        raise ValueError("message keys must be non-negative")

    n = network.n
    graph = network.graph
    steps_at = {"start": network.steps_elapsed}

    # --- stage 1: Radio MIS ----------------------------------------------
    mis_result = compute_mis(
        network, rng, config.mis_config, policy=policy
    )
    mis = sorted(network.index_of(v) for v in mis_result.mis)
    steps_at["mis"] = network.steps_elapsed
    alpha_used = alpha if alpha is not None else max(1, len(mis))
    d = max(2, context.diameter)

    # --- stage 2: fine clusterings via the radio wave protocol ------------
    js = j_range(d)
    clusterings = {}
    for j in js:
        beta = beta_of_j(j)
        clusterings[j] = []
        for _ in range(config.clusterings_per_j):
            clustering = partition_radio(
                network, beta, mis, rng, policy=policy
            )
            schedule = build_schedule(graph, clustering)
            clusterings[j].append((clustering, schedule))
    steps_at["partition"] = network.steps_elapsed

    # --- stage 3: phase loop ----------------------------------------------
    knowledge = np.full(n, -1, dtype=np.int64)
    for node, key in sources.items():
        knowledge[node] = max(knowledge[node], int(key))
    winner = int(knowledge.max())

    max_phases = (
        config.max_phases if config.max_phases is not None else 40 + 20 * d
    )
    phases = 0
    while not bool((knowledge == winner).all()):
        if phases >= max_phases:
            raise BudgetExceededError(
                f"packet Compete did not deliver within {max_phases} phases"
            )
        j = int(js[rng.integers(len(js))])
        clustering, schedule = clusterings[j][
            int(rng.integers(len(clusterings[j])))
        ]
        ell = propagation_length(
            beta_of_j(j), alpha_used, d, config.c_ell
        )
        icp = intra_cluster_propagation(
            network, clustering, schedule, knowledge, ell, rng,
            policy=policy,
        )
        knowledge = icp.knowledge
        phases += 1
    steps_at["icp"] = network.steps_elapsed

    # --- stage 4: verification sweep ---------------------------------------
    # A final multi-source Decay sweep models the "all nodes confirm"
    # epilogue; it also mops up any straggler in the rare event the loop
    # exited on a stale check.
    informed = knowledge == winner
    run_decay(
        network,
        informed,
        rng,
        messages=[int(k) for k in knowledge],
        iterations=config.final_sweep_iterations,
        policy=policy,
    )
    steps_at["sweep"] = network.steps_elapsed

    stage_steps = {
        "mis": steps_at["mis"] - steps_at["start"],
        "partition": steps_at["partition"] - steps_at["mis"],
        "icp": steps_at["icp"] - steps_at["partition"],
        "sweep": steps_at["sweep"] - steps_at["icp"],
    }
    return PacketCompeteResult(
        winner=winner,
        delivered=bool((knowledge == winner).all()),
        steps=network.steps_elapsed - steps_at["start"],
        phases=phases,
        mis_size=len(mis),
        stage_steps=stage_steps,
    )


def broadcast_packet(
    network: RadioNetwork,
    source: int,
    rng: np.random.Generator,
    config: PacketCompeteConfig | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> PacketCompeteResult:
    """Packet-level broadcast: ``compete_packet`` with one source."""
    return compete_packet(
        network, {source: 1}, rng, config=config, policy=policy
    )
