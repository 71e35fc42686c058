"""Intra-Cluster Propagation (paper Algorithms 9 and 10), packet level.

Algorithm 9 moves the highest message known inside each cluster to every
member within distance ``ell`` of the center in three pipelined passes:

1. downward — the center's message flows out along BFS layers;
2. upward — members knowing a *higher* message flow it toward the center;
3. downward again — the center redistributes the new highest message.

Passes use the slot schedules of :mod:`repro.core.schedule` (collision
-free within clusters). Algorithm 10 is the concurrent background
process: clusters repeatedly flip coordinated coins and run single Decay
iterations, which works around collisions caused by nodes bordering
*other* clusters — those are real in this simulation, exactly the
failure mode the background exists for.

Knowledge is represented as an ``int64`` array of message keys with
``-1`` meaning "knows nothing"; keys are ordered, and bigger overrides
smaller (the ``Compete`` override rule).

Engine notes. A Decay iteration (Algorithm 5) runs over a set ``S``
that is *fixed for the sweep*, so :class:`DecayBackground` freezes its
participant set and payloads at each block boundary and commits
receptions when the block ends — sweep-synchronized semantics, closer
to the primitive the paper invokes. :func:`intra_cluster_propagation`
builds one step-wise stack — :class:`ICPProtocol`, time-multiplexed
with the background by a :class:`~repro.radio.protocol.TimeMultiplexer`
(or alone, without one) — and hands it to one of two drivers:
:func:`~repro.radio.protocol.run_steps` under ``engine="reference"``,
or the engine's :func:`~repro.engine.runner.protocol_schedule` lift,
which runs every step as a one-row window through the transmitter-pair
product. The slot passes are adaptive (each slot's mask depends on
knowledge received in earlier slots), so a step is the widest window
the stack can promise. Both drivers are bit-identical on a shared seed
(``tests/test_engine_mux.py``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.runner import protocol_schedule
from ..engine.sampler import RowSampler, draw_block_key
from ..radio.errors import ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from ..radio.protocol import Protocol, TimeMultiplexer, run_steps
from .cluster import Clustering
from .resulteq import ArrayEqMixin
from .schedule import ClusterSchedule


@dataclasses.dataclass(eq=False)
class ICPResult(ArrayEqMixin):
    """Outcome of one packet-level Intra-Cluster Propagation run."""

    knowledge: np.ndarray
    steps: int


class _SlotPassProtocol(Protocol):
    """One sequence of (layer, color) slots over clusters in lockstep.

    ``layers`` lists the layer indices in firing order (ascending for a
    downward pass, descending for upward); each layer expands into its
    color slots. Nodes with no knowledge stay silent even when their slot
    fires.
    """

    def __init__(
        self,
        network: RadioNetwork,
        schedule: ClusterSchedule,
        knowledge: np.ndarray,
        layers: list[int],
    ) -> None:
        super().__init__(network)
        self.schedule = schedule
        self.knowledge = knowledge  # shared, mutated in place
        self.slots: list[tuple[int, int]] = [
            (layer, color)
            for layer in layers
            for color in range(schedule.n_colors)
        ]
        self._slot_masks = schedule.pass_masks(layers)
        self._cursor = 0
        self._tx_snapshot: np.ndarray | None = None
        self._finished = not self.slots

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        mask = self._slot_masks[self._cursor] & (self.knowledge >= 0)
        self._tx_snapshot = self.knowledge.copy()
        return mask

    def observe(self, hear_from: np.ndarray) -> None:
        assert self._tx_snapshot is not None
        heard = hear_from != NO_SENDER
        senders = hear_from[heard]
        values = self._tx_snapshot[senders]
        np.maximum.at(self.knowledge, np.nonzero(heard)[0], values)
        self._cursor += 1
        if self._cursor >= len(self.slots):
            self._finished = True

    def result(self) -> np.ndarray:
        return self.knowledge


class DecayBackground(Protocol):
    """Algorithm 10: the Decay background process of ICP.

    Runs forever (until the multiplexer's main process completes): cycling
    ``i = 1 .. log n``, each cluster flips a coordinated coin with
    probability ``2^-i``; on heads its knowledge-bearing members perform
    one Decay iteration (a ``log n``-step sweep), on tails they stay
    silent for the same duration. Listeners everywhere adopt the highest
    message they hear — this is what carries messages across cluster
    boundaries despite schedule collisions.

    Sweep-synchronized semantics: a Decay iteration (Algorithm 5) runs
    over a set fixed for the whole sweep, so the participant set, the
    transmitted payloads, and the sweep's keyed transmitter rows are all
    frozen when a block starts, and receptions are committed to
    ``knowledge`` when the block ends.
    """

    def __init__(
        self,
        network: RadioNetwork,
        clustering: Clustering,
        knowledge: np.ndarray,
        n_estimate: int | None = None,
    ) -> None:
        super().__init__(network)
        self.clustering = clustering
        self.knowledge = knowledge  # shared, mutated in place
        n_est = n_estimate if n_estimate is not None else self.n
        self.span = max(1, math.ceil(math.log2(max(2, n_est))))
        self._i = 1
        self._step_in_block = 0
        self._block_masks: np.ndarray | None = None
        self._block_payload: np.ndarray | None = None
        self._block_incoming: np.ndarray | None = None
        # Per-block planning is on the hot path of both ICP drivers, so
        # the per-node center lookup is precomputed once: position of
        # each node's center in the used-centers order, -1 when the
        # node's assignment is not a used center.
        self._centers = np.asarray(
            clustering.used_centers(), dtype=np.int64
        )
        center_pos = {int(c): i for i, c in enumerate(self._centers)}
        self._assign_pos = np.array(
            [center_pos.get(int(c), -1) for c in clustering.assignment],
            dtype=np.int64,
        )
        self._probs = 2.0 ** -(np.arange(self.span) + 1.0)
        self._on_padded: np.ndarray | None = None

    @property
    def _cluster_on(self) -> dict[int, bool]:
        """Per-center on/off coins of the current block, as a dict.

        Introspection only (tests, debugging) — planning reads the
        vectorized ``_on_padded`` directly, so the dict is built
        lazily, off the per-block hot path.
        """
        if self._on_padded is None:
            return {}
        return {
            int(c): bool(v)
            for c, v in zip(self._centers, self._on_padded[:-1])
        }

    def _plan_block(self, rng: np.random.Generator) -> None:
        """Freeze one sweep: cluster coins, participants, payloads and
        transmitters.

        Draw order: the per-center coins in ``used_centers`` order (one
        vectorized draw), then the sweep's block key; the whole sweep is
        sampled at once.
        """
        coins = rng.random(self._centers.size) < 2.0**-self._i
        # A trailing False lets assignment positions of -1 (no used
        # center) index it.
        self._on_padded = np.append(coins, False)
        participants = self._on_padded[self._assign_pos] & (
            self.knowledge >= 0
        )
        sampler = RowSampler(draw_block_key(rng), participants, self._probs)
        self._block_masks = np.zeros((self.span, self.n), dtype=bool)
        self._block_masks[sampler.sample(0, self.span)] = True
        self._block_payload = self.knowledge.copy()
        self._block_incoming = np.full(self.n, -1, dtype=np.int64)

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        if self._step_in_block == 0:
            self._plan_block(rng)
        assert self._block_masks is not None
        return self._block_masks[self._step_in_block]

    def observe(self, hear_from: np.ndarray) -> None:
        assert self._block_payload is not None
        assert self._block_incoming is not None
        heard = hear_from != NO_SENDER
        values = self._block_payload[hear_from[heard]]
        np.maximum.at(self._block_incoming, np.nonzero(heard)[0], values)
        self._step_in_block += 1
        if self._step_in_block >= self.span:
            # Block boundary: commit the sweep's receptions.
            np.maximum(
                self.knowledge, self._block_incoming, out=self.knowledge
            )
            self._step_in_block = 0
            self._i += 1
            if self._i > self.span:
                self._i = 1

    def result(self) -> np.ndarray:
        return self.knowledge


class ICPProtocol(Protocol):
    """Full Algorithm 9: down / up / down slot passes over distance ``ell``.

    Layers beyond ``ell`` never fire — the paper's
    ``Intra-Cluster Propagation(ell)`` only serves nodes within distance
    ``ell`` of their center; deeper nodes rely on later phases (their
    clusters were built with a different random shift) and the
    background.
    """

    def __init__(
        self,
        network: RadioNetwork,
        schedule: ClusterSchedule,
        knowledge: np.ndarray,
        ell: int,
    ) -> None:
        super().__init__(network)
        if ell < 1:
            raise ProtocolError(f"ell must be >= 1, got {ell}")
        depth = min(ell, schedule.n_layers - 1)
        down = list(range(0, depth + 1))
        up = list(range(depth, -1, -1))
        self._passes = [
            _SlotPassProtocol(network, schedule, knowledge, down),
            _SlotPassProtocol(network, schedule, knowledge, up),
            _SlotPassProtocol(network, schedule, knowledge, down),
        ]
        self._stage = 0
        self.knowledge = knowledge

    @property
    def finished(self) -> bool:
        return self._stage >= len(self._passes)

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        return self._passes[self._stage].transmit_mask(rng)

    def observe(self, hear_from: np.ndarray) -> None:
        current = self._passes[self._stage]
        current.observe(hear_from)
        if current.finished:
            self._stage += 1

    def result(self) -> np.ndarray:
        return self.knowledge


def build_icp_inputs(
    graph,
    rng: np.random.Generator,
    beta: float = 0.3,
    sources: dict[int, int] | None = None,
) -> tuple[Clustering, ClusterSchedule, np.ndarray]:
    """The standard setup pipeline for one standalone ICP phase.

    Greedy-MIS centers, one ``Partition(beta, MIS)`` draw, its slot
    schedule, and a knowledge vector seeded from ``sources`` (node
    index in ``[0, n)`` -> message key; everyone else knows nothing).
    The CLI ``icp`` subcommand and the P3 benchmark share this so the
    configuration being demonstrated is the one the bit-identity claims
    were verified on.
    """
    from ..graphs import greedy_independent_set
    from .mpx import partition
    from .schedule import build_schedule

    n = graph.number_of_nodes()
    for node in sources or {}:
        if not 0 <= int(node) < n:
            raise ProtocolError(f"icp source {node} out of range [0, {n})")
    mis = sorted(greedy_independent_set(graph, rng, "random"))
    clustering = partition(graph, beta, mis, rng)
    schedule = build_schedule(graph, clustering)
    knowledge = np.full(n, -1, dtype=np.int64)
    for node, key in (sources or {}).items():
        knowledge[node] = max(knowledge[node], int(key))
    return clustering, schedule, knowledge


def intra_cluster_propagation(
    network: RadioNetwork,
    clustering: Clustering,
    schedule: ClusterSchedule,
    knowledge: np.ndarray,
    ell: int,
    rng: np.random.Generator,
    with_background: bool = True,
    *,
    policy: ExecutionPolicy | None = None,
) -> ICPResult:
    """Run one packet-level ICP phase, mutating and returning knowledge.

    When ``with_background`` is set (the default, matching the paper),
    the Algorithm 10 background process is time-multiplexed with the slot
    passes, doubling the step count but carrying messages across cluster
    boundaries.

    One protocol stack — :class:`ICPProtocol`, under a
    :class:`~repro.radio.protocol.TimeMultiplexer` with
    :class:`DecayBackground` when there is a background — runs under
    one of two drivers, bit-identically on a shared seed:

    * the engine (``"windowed"``, the default):
      :func:`~repro.engine.runner.protocol_schedule` lifts each step
      into a one-row window delivered by the transmitter-pair product;
    * ``engine="reference"``: the step-wise executable specification,
      :func:`~repro.radio.protocol.run_steps`.

    The policy's ``mem_budget`` is a memory knob only, bit-identical at
    any setting, and ignored by the reference driver.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    knowledge = np.asarray(knowledge, dtype=np.int64).copy()
    main = ICPProtocol(network, schedule, knowledge, ell)
    stack: Protocol = main
    steps = sum(len(p.slots) for p in main._passes)
    if with_background:
        # Main takes the even steps and the stack ends with main's last
        # slot, so one background step follows each of the others.
        stack = TimeMultiplexer(
            network, main, DecayBackground(network, clustering, knowledge)
        )
        steps = 2 * steps - 1
    steps_before = network.steps_elapsed
    network.trace.enter_phase("icp")
    if policy.engine == "reference":
        run_steps(stack, rng, steps)
    else:
        policy.run_schedule(network, protocol_schedule(stack, rng, steps))
    network.trace.enter_phase("default")
    return ICPResult(
        knowledge=knowledge, steps=network.steps_elapsed - steps_before
    )
