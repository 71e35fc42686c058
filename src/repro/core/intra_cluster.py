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

Engine migration notes. A Decay iteration (Algorithm 5) runs over a set
``S`` that is *fixed for the sweep*, so :class:`DecayBackground`
freezes its participant set and payloads at each block boundary and
commits receptions when the block ends — sweep-synchronized semantics
that are both closer to the primitive the paper invokes and what makes
a standalone background block an oblivious window
(:func:`decay_background_schedule`). Inside
:func:`intra_cluster_propagation` the background is time-multiplexed
with the *adaptive* slot passes (each slot's mask depends on knowledge
received in earlier slots). The plan/commit split lets the
:func:`~repro.engine.mux.multiplex` combinator zip the slot passes
(width-1 planned windows, exact step count) with sweep-wide background
windows (:class:`DecayBackgroundSource`) into joint oblivious windows,
each a sparse product over the few transmitters of a slot and a sweep
row. ``engine="reference"`` drives the identical protocols through
:func:`~repro.radio.protocol.run_steps` over a
:class:`~repro.radio.protocol.TimeMultiplexer`. Both are bit-identical
on a shared seed (``tests/test_engine_mux.py``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..engine.mux import multiplex
from ..engine.policy import ExecutionPolicy
from ..engine.runner import (
    ProtocolSegmentSource,
    protocol_schedule,
)
from ..engine.segments import (
    ObliviousWindow,
    ProtocolSchedule,
    SegmentProtocol,
)
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
    transmitted payloads, and the sweep's coins are all frozen when a
    block starts, and receptions are committed to ``knowledge`` when the
    block ends. This is what makes a block *oblivious* — the windowed
    :func:`decay_background_schedule` executes the identical plan as one
    sparse product per block, bit-identical to stepping this protocol.
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
        # Per-block planning is on the hot path of every ICP engine, so
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

    def _refresh_cluster_coins(self, rng: np.random.Generator) -> None:
        # One vectorized draw over the used centers consumes exactly the
        # stream of the historical per-center scalar draws, in the same
        # (used_centers) order. A trailing False lets assignment
        # positions of -1 (no used center) index it.
        prob = 2.0**-self._i
        coins = rng.random(self._centers.size) < prob
        self._on_padded = np.append(coins, False)

    def _plan_block(self, rng: np.random.Generator) -> None:
        """Freeze one sweep: cluster coins, participants, payloads, coins.

        Draw order (cluster coins first, then the ``(span, n)`` coin
        matrix) is the stream contract shared with
        :func:`decay_background_schedule`.
        """
        self._refresh_cluster_coins(rng)
        on = self._on_padded[self._assign_pos]
        participants = on & (self.knowledge >= 0)
        coins = rng.random((self.span, self.n)) < self._probs[:, None]
        self._block_masks = participants[None, :] & coins
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


def _commit_decay_block(
    protocol: DecayBackground, hear_window: np.ndarray
) -> None:
    """Fold one completed sweep's receptions into ``knowledge``.

    The vectorized equivalent of ``span`` sequential ``observe`` calls
    followed by the block-end commit: the max-fold is associative and
    commutative over exact integers, so folding the whole ``(span, n)``
    window at once is bit-identical to the step-wise path. Also
    advances the sweep's density counter, as ``observe`` does at block
    boundaries.
    """
    payload = protocol._block_payload
    assert payload is not None
    heard = hear_window != NO_SENDER
    incoming = np.full(protocol.n, -1, dtype=np.int64)
    step_idx, node_idx = np.nonzero(heard)
    np.maximum.at(
        incoming, node_idx, payload[hear_window[step_idx, node_idx]]
    )
    np.maximum(protocol.knowledge, incoming, out=protocol.knowledge)
    protocol._i += 1
    if protocol._i > protocol.span:
        protocol._i = 1


class DecayBackgroundSource(SegmentProtocol):
    """Plan/commit form of the :class:`DecayBackground` sweep stream.

    ``plan`` freezes one sweep — cluster coins, participants, payloads,
    the ``(span, n)`` coin matrix — exactly as the protocol's
    ``_plan_block`` does at a block boundary, and emits it as one
    :class:`~repro.engine.segments.ObliviousWindow`; ``commit`` folds
    the sweep's receptions at the block end. This is the native
    plan/commit citizen the :func:`~repro.engine.mux.multiplex`
    combinator needs (the generator form cannot separate the two —
    its ``knowledge`` commit would land at the wrong multiplexed step).
    A sweep that the run abandons mid-block is never committed,
    matching the step-wise protocol, which only commits at block ends.
    """

    def __init__(self, protocol: DecayBackground) -> None:
        super().__init__(protocol.n)
        self.protocol = protocol
        self._awaiting_commit = False

    def plan(self, rng: np.random.Generator) -> ObliviousWindow:
        if self._awaiting_commit:
            raise ProtocolError(
                "DecayBackgroundSource.plan() before the previous sweep "
                "was committed"
            )
        self.protocol._plan_block(rng)
        assert self.protocol._block_masks is not None
        self._awaiting_commit = True
        return ObliviousWindow(self.protocol._block_masks)

    def commit(self, hear_window: np.ndarray) -> None:
        if not self._awaiting_commit:
            raise ProtocolError(
                "DecayBackgroundSource.commit() without a planned sweep"
            )
        _commit_decay_block(self.protocol, hear_window)
        self._awaiting_commit = False

    def result(self) -> np.ndarray:
        return self.protocol.knowledge


def decay_background_schedule(
    network: RadioNetwork,
    clustering: Clustering,
    knowledge: np.ndarray,
    rng: np.random.Generator,
    total_steps: int,
    n_estimate: int | None = None,
) -> ProtocolSchedule:
    """Run the Decay background alone for ``total_steps`` radio steps,
    one oblivious window per sweep.

    Standalone (no multiplexed main process), every block of
    :class:`DecayBackground` is an oblivious window: participants,
    payloads, and coins are frozen at the block boundary. This emitter
    executes exactly the plan the protocol would have stepped through —
    same rng draws, same masks, same block-end commits; a final partial
    block executes its steps but (like the step-wise protocol, which
    only commits at block ends) leaves ``knowledge`` untouched. Returns
    ``knowledge``, mutated in place.
    """
    if total_steps < 0:
        raise ValueError(f"total_steps must be >= 0, got {total_steps}")
    protocol = DecayBackground(
        network, clustering, knowledge, n_estimate=n_estimate
    )
    done = 0
    while done < total_steps:
        protocol._plan_block(rng)
        masks = protocol._block_masks
        assert masks is not None
        remaining = total_steps - done
        if remaining < protocol.span:
            yield ObliviousWindow(masks[:remaining])
            done = total_steps
            break
        hear_window = yield ObliviousWindow(masks)
        _commit_decay_block(protocol, hear_window)
        done += protocol.span
    return knowledge


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
            raise ValueError(f"ell must be >= 1, got {ell}")
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
    index -> message key; everyone else knows nothing). The CLI ``icp``
    subcommand and the P3 benchmark share this so the configuration
    being demonstrated is the one the bit-identity claims were
    verified on.
    """
    from ..graphs import greedy_independent_set
    from .mpx import partition
    from .schedule import build_schedule

    mis = sorted(greedy_independent_set(graph, rng, "random"))
    clustering = partition(graph, beta, mis, rng)
    schedule = build_schedule(graph, clustering)
    knowledge = np.full(graph.number_of_nodes(), -1, dtype=np.int64)
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

    Two engines execute the identical protocol, bit-identically on a
    shared seed:

    * ``engine="windowed"`` (the ``"auto"`` default) — the slot passes
      enter as a width-1 plan/commit stream (:class:`~repro.engine
      .runner.ProtocolSegmentSource`, exact step count) and the
      background as sweep-wide planned windows
      (:class:`DecayBackgroundSource`); the
      :func:`~repro.engine.mux.multiplex` combinator zips them into
      joint oblivious windows of one or two rows, delivered as sparse
      window products. Without a background there is nothing to
      multiplex, and the slot passes run as decision steps
      (:func:`~repro.engine.runner.protocol_schedule`).
    * ``engine="reference"`` — the step-wise executable specification
      through :func:`~repro.radio.protocol.run_steps`, with the
      background interleaved by a
      :class:`~repro.radio.protocol.TimeMultiplexer`.

    The policy's ``chunk_steps``/``mem_budget`` bound the engine path's
    chunk height — memory knobs only, bit-identical at any setting,
    ignored by the reference path.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    engine = policy.engine_for()
    knowledge = np.asarray(knowledge, dtype=np.int64).copy()
    main = ICPProtocol(network, schedule, knowledge, ell)
    main_slots = sum(len(p.slots) for p in main._passes)
    background = (
        DecayBackground(network, clustering, knowledge)
        if with_background
        else None
    )
    steps_before = network.steps_elapsed
    network.trace.enter_phase("icp")
    if engine == "reference":
        if background is None:
            run_steps(main, rng, main_slots)
        else:
            # The multiplexer runs main on even steps; give it twice
            # the slots.
            muxed = TimeMultiplexer(network, main, background)
            run_steps(muxed, rng, 2 * main_slots + 2)
    elif background is None:
        policy.run_schedule(
            network, protocol_schedule(main, rng, steps=main_slots)
        )
    else:
        policy.run_schedule(
            network,
            multiplex(
                ProtocolSegmentSource(main, steps=main_slots),
                DecayBackgroundSource(background),
                rng=rng,
            ),
        )
    network.trace.enter_phase("default")
    return ICPResult(
        knowledge=knowledge, steps=network.steps_elapsed - steps_before
    )
