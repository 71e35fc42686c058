"""Binary-search leader election baseline (packet level).

The classical reduction (paper Section 1.5.1): leader election completes
in ``O(log n) x broadcasting time`` by binary-searching for the highest
ID. Each phase asks "does any node have an ID in the upper half of the
current range?" — a multi-source broadcast from the nodes in that half;
hearing the flood (or not) lets every node halve the range identically.

Here each phase runs the packet-level multi-source BGI broadcast
(:mod:`repro.baselines.bgi_broadcast`) to completion, so the measured
step count embodies the ``O(log n * (D log n + log^2 n))`` cost this
approach pays, versus the single-Compete cost of the paper's
Algorithm 3.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..radio.errors import GraphContractError
from ..radio.network import RadioNetwork
from .bgi_broadcast import bgi_broadcast


@dataclasses.dataclass
class BinarySearchElectionResult:
    """Outcome of binary-search leader election."""

    leader: int
    leader_id: int
    phases: int
    steps: int
    elected: bool


def binary_search_election(
    network: RadioNetwork,
    rng: np.random.Generator,
    id_bits: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> BinarySearchElectionResult:
    """Elect the node with the highest random ID by binary search.

    Parameters
    ----------
    network:
        A connected radio network.
    rng:
        Randomness source; also draws the ``Theta(log n)``-bit node IDs.
    id_bits:
        ID length; defaults to ``3 ceil(log2 n)`` (unique whp).
    policy:
        Execution policy for the per-phase BGI floods —
        ``engine="windowed"`` (the default, one sparse product per
        sweep) or ``"reference"`` (step-wise); seeded
        results are bit-identical.

    Notes
    -----
    The per-phase "is the upper half inhabited?" test floods from the
    inhabited set; an *empty* upper half produces no flood, which every
    node detects by hearing nothing for the phase's full budget. Since
    multi-source BGI has no fixed budget here (it runs to completion),
    the empty case is resolved by the simulation directly — at the cost
    of zero steps, which only *under*-counts this baseline's steps,
    keeping the comparison conservative.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    if not network.is_connected():
        raise GraphContractError("leader election requires connectivity")
    n = network.n
    if id_bits is None:
        id_bits = 3 * max(2, int(np.ceil(np.log2(max(2, n)))))
    ids = rng.integers(0, 2**id_bits, size=n)
    leader_id, phases, steps = search_highest_id(
        network, ids, id_bits, rng, policy
    )
    winners = np.nonzero(ids == leader_id)[0]
    return BinarySearchElectionResult(
        leader=int(winners[0]),
        leader_id=leader_id,
        phases=phases,
        steps=steps,
        elected=len(winners) == 1,
    )


def search_highest_id(
    network: RadioNetwork,
    ids: np.ndarray,
    id_bits: int,
    rng: np.random.Generator,
    policy: ExecutionPolicy,
    flood_sweeps: int | None = None,
) -> tuple[int, int, int]:
    """Binary-search the highest of ``ids`` in ``[0, 2^id_bits)``.

    Each phase floods from the nodes at or above the range's midpoint
    (multi-source BGI under ``policy``) and halves the range; an empty
    upper half floods nothing. Floods run to completion without
    ``flood_sweeps``, and best-effort within that many sweeps with it.
    Returns the highest id, the phases and the radio steps taken.
    """
    lo, hi = 0, 2**id_bits - 1
    steps_before = network.steps_elapsed
    phases = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        upper = [int(v) for v in np.nonzero(ids >= mid)[0]]
        phases += 1
        if upper:
            bgi_broadcast(
                network, upper[0], rng, sources=upper,
                max_sweeps=flood_sweeps,
                best_effort=flood_sweeps is not None,
                policy=policy,
            )
            lo = mid
        else:
            hi = mid - 1
    return lo, phases, network.steps_elapsed - steps_before


def binary_search_election_reference(
    network: RadioNetwork,
    rng: np.random.Generator,
    id_bits: int | None = None,
) -> BinarySearchElectionResult:
    """Step-wise binary-search election (BGI floods on the reference
    delivery path); the equivalence suite pins the windowed run against
    it bit-for-bit."""
    return binary_search_election(
        network, rng, id_bits=id_bits,
        policy=ExecutionPolicy(engine="reference"),
    )
