"""Broadcasting via Compete (paper Theorem 7).

Broadcasting is ``Compete({s})``: the single source's message is the only
candidate, so when Compete finishes, every node knows it — in
``O(D log_D alpha + polylog n)`` charged rounds with high probability.
On growth-bounded graphs (``alpha = poly(D)``) this is
``O(D + polylog n)`` (Corollary 9), with the optimal ``O(D)`` leading
term.

Two fidelity levels share this entry point (DESIGN.md Section 1.1):
:func:`broadcast` charges rounds at cluster-event granularity (the
scalable way to measure the theorem's shape), while
:func:`broadcast_packet_level` simulates every radio step of the
pipeline on the windowed engine — MIS, radio Partition, slot-schedule
ICP with the Decay background — and is the packet ground truth the E6
comparison uses.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np

from ..engine.policy import ExecutionPolicy
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from ..radio.trace import CostLedger, StepTrace
from .compete import CompeteConfig, CompeteResult, compete
from .compete_packet import (
    PacketCompeteConfig,
    PacketCompeteResult,
    broadcast_packet,
)


@dataclasses.dataclass
class BroadcastResult:
    """Outcome of a broadcast: delivery flag plus the round ledger."""

    source: int
    delivered: bool
    total_rounds: int
    setup_rounds: int
    propagation_rounds: int
    ledger: CostLedger
    compete: CompeteResult


def broadcast(
    graph: nx.Graph,
    source: int,
    rng: np.random.Generator,
    config: CompeteConfig | None = None,
    alpha: int | None = None,
) -> BroadcastResult:
    """Broadcast from ``source`` to every node (round-accounted).

    Parameters
    ----------
    graph:
        Connected graph with nodes ``0..n-1``.
    source:
        The designated source node.
    rng:
        Randomness source.
    config:
        Compete knobs; ``centers_mode="all"`` turns this into the [7]
        baseline broadcast.
    alpha:
        Optional independence-number estimate (paper Section 1.1: any
        polynomial approximation suffices).

    Returns
    -------
    BroadcastResult
        ``delivered`` is true when every node ended with the source
        message; rounds are itemized in ``ledger``.
    """
    if source not in graph:
        raise ProtocolError(
            f"source {source} out of range [0, {graph.number_of_nodes()})"
        )
    result = compete(graph, {source: 1}, rng, config=config, alpha=alpha)
    return BroadcastResult(
        source=source,
        delivered=result.delivered,
        total_rounds=result.total_rounds,
        setup_rounds=result.ledger.setup_total,
        propagation_rounds=result.ledger.propagation_total,
        ledger=result.ledger,
        compete=result,
    )


def broadcast_packet_level(
    graph: nx.Graph,
    source: int,
    rng: np.random.Generator,
    config: PacketCompeteConfig | None = None,
    trace: StepTrace | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> PacketCompeteResult:
    """Packet-level broadcast: every radio step simulated, engine-backed.

    Builds a :class:`~repro.radio.network.RadioNetwork` over ``graph``
    and runs the full packet pipeline
    (:func:`~repro.core.compete_packet.broadcast_packet`). The default
    policy uses the windowed engine; pass
    ``policy=ExecutionPolicy(engine="reference")`` for the step-wise
    path (bit-identical seeded results, much slower).
    """
    network = RadioNetwork(graph, trace=trace)
    return broadcast_packet(
        network, source, rng, config=config, policy=policy
    )
