"""Leader election (paper Algorithm 3, Theorem 8).

The protocol:

1. every node independently becomes a *candidate* with probability
   ``Theta(log n / n)`` — so ``|C| = Theta(log n)`` with high
   probability, and in particular ``C`` is non-empty;
2. candidates draw uniformly random ``Theta(log n)``-bit IDs — unique
   with high probability;
3. ``Compete(C)`` propagates the candidate IDs; the highest ID wins and
   every node learns it.

Success requires both "some candidate exists" and "the maximum ID is
unique"; the E7 experiment measures the empirical success rate against
the with-high-probability claim.
"""

from __future__ import annotations

import dataclasses
import math

import networkx as nx
import numpy as np

from ..engine.policy import ExecutionPolicy
from ..radio.network import RadioNetwork
from ..radio.trace import CostLedger
from .compete import CompeteConfig, CompeteResult, compete
from .compete_packet import (
    PacketCompeteConfig,
    PacketCompeteResult,
    compete_packet,
)


@dataclasses.dataclass
class LeaderElectionResult:
    """Outcome of a leader election run.

    ``elected`` requires a unique winner known by everyone: exactly one
    candidate held the maximum ID and Compete delivered it network-wide.
    """

    leader: int | None
    leader_id: int | None
    candidates: dict[int, int]
    elected: bool
    total_rounds: int
    ledger: CostLedger
    compete: CompeteResult | None


def candidate_probability(n: int, c_cand: float = 1.0) -> float:
    """The ``Theta(log n / n)`` candidacy probability, capped at 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return min(1.0, c_cand * math.log2(max(2, n)) / n)


def id_bits(n: int, c_bits: float = 3.0) -> int:
    """Candidate ID length: ``Theta(log n)`` bits.

    ``c_bits = 3`` gives IDs from ``[O(n^3)]``, making collisions
    ``O(log^2 n / n)``-unlikely per the paper's Section 1.1 remark.
    """
    return max(4, math.ceil(c_bits * math.log2(max(2, n))))


def elect_leader(
    graph: nx.Graph,
    rng: np.random.Generator,
    config: CompeteConfig | None = None,
    alpha: int | None = None,
    c_cand: float = 1.0,
) -> LeaderElectionResult:
    """Run Algorithm 3 on ``graph``.

    Returns a :class:`LeaderElectionResult`; ``elected`` is false when no
    node became a candidate or the maximum ID collided (both
    low-probability events the algorithm is allowed to suffer — the
    theorem's guarantee is with high probability, not certainty).
    """
    n = graph.number_of_nodes()
    candidates = _draw_candidates(n, rng, c_cand)
    if not candidates:
        # No candidates — the run fails (detected by silence in practice;
        # rerunning is the standard amplification).
        return LeaderElectionResult(
            leader=None,
            leader_id=None,
            candidates={},
            elected=False,
            total_rounds=0,
            ledger=CostLedger(),
            compete=None,
        )

    result = compete(graph, candidates, rng, config=config, alpha=alpha)
    top_id = max(candidates.values())
    holders = [v for v, cid in candidates.items() if cid == top_id]
    unique = len(holders) == 1
    elected = unique and result.delivered
    return LeaderElectionResult(
        leader=holders[0] if unique else None,
        leader_id=top_id,
        candidates=candidates,
        elected=elected,
        total_rounds=result.total_rounds,
        ledger=result.ledger,
        compete=result,
    )


@dataclasses.dataclass
class PacketLeaderResult:
    """Outcome of a packet-level (fully simulated) leader election.

    ``steps`` counts actual radio steps across the whole Compete
    pipeline; ``compete`` holds the per-stage itemization.
    """

    leader: int | None
    leader_id: int | None
    candidates: dict[int, int]
    elected: bool
    steps: int
    compete: PacketCompeteResult | None


def _draw_candidates(
    n: int, rng: np.random.Generator, c_cand: float
) -> dict[int, int]:
    """Algorithm 3 steps 1-2: candidacy coins, then random IDs.

    Shared by :func:`elect_leader` and :func:`elect_leader_packet` so
    both draw the identical candidate set from one seed.
    """
    prob = candidate_probability(n, c_cand)
    bits = id_bits(n)
    candidate_mask = rng.random(n) < prob
    return {
        int(v): int(rng.integers(1, 2**bits))
        for v in np.nonzero(candidate_mask)[0]
    }


def elect_leader_packet(
    network: RadioNetwork,
    rng: np.random.Generator,
    config: PacketCompeteConfig | None = None,
    alpha: int | None = None,
    c_cand: float = 1.0,
    *,
    policy: ExecutionPolicy | None = None,
) -> PacketLeaderResult:
    """Algorithm 3, every radio step simulated on the windowed engine.

    Candidates are drawn exactly as in :func:`elect_leader` (same rng
    order), then their IDs race through the packet-level Compete
    pipeline. Pass ``policy=ExecutionPolicy(engine="reference")`` for
    the step-wise path; seeded results are bit-identical across
    engines. The policy's fault schedule is installed before the
    candidates are drawn.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    n = network.n
    candidates = _draw_candidates(n, rng, c_cand)
    if not candidates:
        return PacketLeaderResult(
            leader=None,
            leader_id=None,
            candidates={},
            elected=False,
            steps=0,
            compete=None,
        )
    result = compete_packet(
        network, candidates, rng, config=config, alpha=alpha, policy=policy
    )
    top_id = max(candidates.values())
    holders = [v for v, cid in candidates.items() if cid == top_id]
    unique = len(holders) == 1
    return PacketLeaderResult(
        leader=holders[0] if unique else None,
        leader_id=top_id,
        candidates=candidates,
        elected=unique and result.delivered,
        steps=result.steps,
        compete=result,
    )
