"""Deterministic round-robin broadcast (the trivial deterministic baseline).

The simplest deterministic broadcast that works on every graph: nodes
take turns by ID — in step ``t``, the unique node with ``ID = t mod n``
transmits iff it knows the message. One full rotation pushes the
message at least one hop (the informed frontier contains some node
whose turn comes up, and single transmitters never collide), so the
message covers the graph in ``O(n D)`` steps.

Serious deterministic algorithms (Kowalski's ``O(n log D)``, paper
Section 1.5.1) beat this with selective families; round-robin is here
as the floor every deterministic scheme must beat, and as the only
*collision-free-by-construction* comparator, which makes it useful in
tests (its behavior is exactly predictable).

Unlike the ad-hoc randomized algorithms, round-robin needs unique IDs
in ``[n]`` — the standard extra assumption for deterministic radio
broadcast, granted to the baseline but not to the paper's algorithms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.runner import protocol_schedule
from ..radio.errors import BudgetExceededError, GraphContractError
from ..radio.network import NO_SENDER, RadioNetwork
from ..radio.protocol import Protocol


@dataclasses.dataclass
class RoundRobinResult:
    """Outcome of a deterministic round-robin broadcast."""

    source: int
    delivered: bool
    steps: int
    rotations: int


class RoundRobin(Protocol):
    """Turn-taking broadcast: in step ``t`` node ``t mod n`` transmits
    iff it is informed, and every listener that hears becomes informed.

    Deterministic — :meth:`transmit_mask` ignores its ``rng``. A turn
    elapses whether or not its node has anything to say: deterministic
    schedules cannot skip silent turns (nobody else knows the turn went
    unused). The protocol never finishes on its own; the driver runs
    whole rotations of ``n`` steps, each step a one-row window whose
    product reads only the lone transmitter's neighbors.
    """

    def __init__(self, network: RadioNetwork, source: int) -> None:
        super().__init__(network)
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[source] = True
        self._turn = 0

    def transmit_mask(self, rng: np.random.Generator | None) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self._turn] = self.informed[self._turn]
        return mask

    def observe(self, hear_from: np.ndarray) -> None:
        self.informed |= hear_from != NO_SENDER
        self._turn = (self._turn + 1) % self.n


def round_robin_broadcast(
    network: RadioNetwork,
    source: int,
    max_rotations: int | None = None,
) -> RoundRobinResult:
    """Broadcast deterministically by taking turns in ID order.

    Parameters
    ----------
    network:
        A connected radio network; internal indices serve as the IDs.
    source:
        Index of the initially informed node.
    max_rotations:
        Budget in full rotations; defaults to ``n + 1`` (the diameter is
        at most ``n - 1``, and each rotation gains a hop).
    """
    if not network.is_connected():
        raise GraphContractError("broadcast requires a connected network")
    n = network.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    if max_rotations is None:
        max_rotations = n + 1

    protocol = RoundRobin(network, source)
    runner = ExecutionPolicy().runner(network)
    steps_before = network.steps_elapsed
    network.trace.enter_phase("round-robin")
    rotations = 0
    while not protocol.informed.all():
        if rotations >= max_rotations:
            raise BudgetExceededError(
                f"round-robin broadcast incomplete after {max_rotations} "
                "rotations — is the graph connected?"
            )
        runner.run(protocol_schedule(protocol, None, n))
        rotations += 1
    network.trace.enter_phase("default")
    return RoundRobinResult(
        source=source,
        delivered=bool(protocol.informed.all()),
        steps=network.steps_elapsed - steps_before,
        rotations=rotations,
    )
