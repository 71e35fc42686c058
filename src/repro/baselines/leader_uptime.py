"""Uptime-threshold leader election: churn-robust binary search.

The robustness variant of :mod:`repro.baselines.leader_binary_search`
for networks under churn (:mod:`repro.faults`). Plain binary-search
election happily elects a node that was asleep for most of the run —
a useless leader. Here each node first checks its *own* uptime over
the declared horizon (a node knows when it was up; this is per-node
local state, exactly like its own coin flips — the vectorized read via
:func:`repro.faults.node_uptime_fractions` is simulator convenience)
and only nodes with uptime fraction at or above ``threshold``
self-select as candidates. The highest-ID *candidate* then wins the
usual binary search — the plain baseline's own search loop
(:func:`~repro.baselines.leader_binary_search.search_highest_id`),
each phase a packet-level multi-source BGI flood.

IDs are drawn for **all** nodes before masking the non-candidates, so
the rng stream — and therefore every downstream coin — is independent
of the threshold: sweeping ``threshold`` in a degradation experiment
changes only the candidate set, never the randomness. With no (or an
empty) fault schedule every node has uptime 1.0 and the election
degenerates to the plain baseline (same floods, same seeded winner).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.decay import decay_span
from ..engine.policy import ExecutionPolicy
from ..faults import node_uptime_fractions
from ..radio.errors import GraphContractError, ProtocolError
from ..radio.network import RadioNetwork
from .leader_binary_search import search_highest_id


@dataclasses.dataclass
class UptimeElectionResult:
    """Outcome of uptime-threshold leader election.

    ``elected`` is False when no node clears the uptime threshold
    (total churn collapse — the interesting end of the degradation
    curve) or on an ID tie; ``leader``/``leader_id`` are ``-1`` in the
    no-candidate case.
    """

    leader: int
    leader_id: int
    candidates: int
    phases: int
    steps: int
    elected: bool


def uptime_threshold_election(
    network: RadioNetwork,
    rng: np.random.Generator,
    threshold: float = 0.5,
    horizon: int | None = None,
    id_bits: int | None = None,
    flood_sweeps: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> UptimeElectionResult:
    """Elect the highest-ID node whose uptime clears ``threshold``.

    Parameters
    ----------
    network:
        A connected radio network; install the fault schedule first
        (``policy.bind`` does, and :func:`repro.api.run` always has).
    rng:
        Randomness source; draws ``Theta(log n)``-bit IDs for all
        nodes (threshold-independent stream, see module docstring).
    threshold:
        Minimum uptime fraction in ``[0, 1]`` to stand as a candidate.
    horizon:
        Step horizon the uptime fraction is measured over; defaults to
        the schedule's declared horizon, else ``64 * ceil(log2 n)``.
    id_bits:
        ID length; defaults to ``3 ceil(log2 n)`` (unique whp).
    flood_sweeps:
        Per-phase sweep budget of the BGI floods (best-effort: the
        flood stops there whether or not everyone heard — under
        faults a crashed node makes completion unreachable, and no
        real node can detect global completion anyway). Defaults to
        run-to-completion with no active fault schedule (exactly the
        plain baseline's floods) and ``4 * decay_span(n)`` under one.
    policy:
        Execution policy for the per-phase BGI floods; its ``faults``
        are installed on the network by the usual bind.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    if not 0.0 <= threshold <= 1.0:
        raise ProtocolError(
            f"threshold must be an uptime fraction in [0, 1], "
            f"got {threshold}"
        )
    if not network.is_connected():
        raise GraphContractError("leader election requires connectivity")
    n = network.n
    if horizon is None:
        schedule = network.faults
        declared = schedule.horizon if schedule is not None else None
        horizon = (
            declared
            if declared is not None
            else 64 * max(1, int(np.ceil(np.log2(max(2, n)))))
        )
    if id_bits is None:
        id_bits = 3 * max(2, int(np.ceil(np.log2(max(2, n)))))
    if flood_sweeps is None and network._fault_state is not None:
        flood_sweeps = 4 * decay_span(n)

    ids = rng.integers(0, 2**id_bits, size=n)
    candidates = node_uptime_fractions(network, horizon) >= threshold
    ids = np.where(candidates, ids, -1)
    n_candidates = int(candidates.sum())
    if n_candidates == 0:
        return UptimeElectionResult(
            leader=-1, leader_id=-1, candidates=0,
            phases=0, steps=0, elected=False,
        )

    leader_id, phases, steps = search_highest_id(
        network, ids, id_bits, rng, policy, flood_sweeps
    )
    winners = np.nonzero(ids == leader_id)[0]
    return UptimeElectionResult(
        leader=int(winners[0]),
        leader_id=leader_id,
        candidates=n_candidates,
        phases=phases,
        steps=steps,
        elected=len(winners) == 1,
    )


def uptime_threshold_election_reference(
    network: RadioNetwork,
    rng: np.random.Generator,
    threshold: float = 0.5,
    horizon: int | None = None,
    id_bits: int | None = None,
    flood_sweeps: int | None = None,
) -> UptimeElectionResult:
    """Step-wise uptime election (BGI floods on the reference delivery
    path); the fault-twin suite pins the windowed run against it
    bit-for-bit under shared schedules (install the schedule on the
    network before calling)."""
    return uptime_threshold_election(
        network, rng, threshold=threshold, horizon=horizon,
        id_bits=id_bits, flood_sweeps=flood_sweeps,
        policy=ExecutionPolicy(engine="reference"),
    )
