"""The synchronous radio network simulator.

This is the substrate every packet-level algorithm in this package runs
on. It implements exactly the model of the paper (Section 1.1):

* time is divided into synchronous steps;
* in each step every node either **transmits** a message or **listens**;
* a listening node hears a message **iff exactly one of its neighbors
  transmits** in that step — otherwise (zero or several transmitting
  neighbors) it hears nothing;
* there is **no collision detection**: a listener cannot distinguish
  silence from a collision;
* a transmitting node hears nothing in that step (it is not listening).

The simulator is *ad-hoc faithful by convention*: it exposes global graph
knowledge (it must, to compute deliveries), but protocol implementations in
:mod:`repro.core` and :mod:`repro.baselines` only consult per-node state
plus what each node heard, never the topology.

There are two ways into the simulator. :meth:`RadioNetwork.deliver` is
one step: the transmit indicator and the id-weighted indicator are
stacked into an ``(n, 2)`` right-hand side, so one fused sparse product
over the int32-indexed CSR adjacency yields both the per-listener
transmitter counts and the unique-sender identities. It is what the
step-wise ``*_reference`` twins drive. The engine's way in is
:meth:`RadioNetwork._deliver_pairs`: the
:class:`~repro.engine.runner.WindowedRunner` hands it each chunk of a
window's transmitters as ``(step, node)`` pairs, and it delivers them
through the one exact sparse product of
:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo` with the
graph's cached ``A + 2I``, at a cost
that follows the transmitters' degree sum; packet-level runs of
hundreds of thousands of steps on graphs with thousands of nodes are
practical.

Protocols do not call either entry point directly: they emit
:mod:`repro.engine` schedules of windows (an adaptive step is a one-row
window), and the runner delivers every window through the
transmitter-pair product. The product is bit-identical per step to
:meth:`RadioNetwork.deliver` here, which is what makes the engine's
windowed execution exactly equivalent to the step-wise reference
loops — and :meth:`deliver`, which shares no code with the product, is
the oracle the validating runner replays every window against.
"""

from __future__ import annotations

from time import perf_counter
from typing import Hashable, Iterable

import networkx as nx
import numpy as np
import scipy.sparse as sp

from ..graphs.context import graph_context
from .errors import GraphContractError, InvalidActionError, ProtocolError
from .trace import StepTrace

#: Sentinel in ``hear_from`` arrays meaning "heard nothing this step".
NO_SENDER = -1


class RadioNetwork:
    """A radio network over an undirected :class:`networkx.Graph`.

    Parameters
    ----------
    graph:
        The communication topology. Must be a non-empty undirected graph.
        Self-loops are rejected (a node interfering with itself has no
        sensible semantics in the model). Connectivity is *not* required
        here — MIS is defined on disconnected graphs — but the broadcast
        and leader election entry points check it themselves.
    trace:
        Optional :class:`StepTrace` to record activity into. A fresh one
        is created if omitted; it is available as :attr:`trace`.

    Notes
    -----
    Nodes are internally indexed ``0..n-1`` in the iteration order of
    ``graph.nodes``. :meth:`index_of` / :meth:`label_of` convert between
    user labels and internal indices; vectorized protocols work with
    indices throughout.
    """

    def __init__(
        self,
        graph: nx.Graph,
        trace: StepTrace | None = None,
        *,
        faults=None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise GraphContractError("radio network requires a non-empty graph")
        if graph.is_directed():
            raise GraphContractError(
                "the paper's model (and this simulator) is undirected; "
                "got a directed graph"
            )

        self.graph = graph
        self.n = graph.number_of_nodes()
        # The binary float64 / int32-indexed CSR adjacency, the node
        # labels and the window product's A + 2I all come from the
        # per-graph GraphContext cache: repeated RadioNetwork
        # constructions over one graph (Monte-Carlo trials) share one
        # build of each instead of repeating it.
        self._context = graph_context(graph)
        if self._context.csr.diagonal().any():
            raise GraphContractError("self-loops are not allowed")
        self._adj: sp.csr_array = self._context.csr
        # Fetched here, not at the first window: a window's memory
        # budget covers its chunks, not the graph's storage.
        self._plus_2i: sp.csr_array = self._context.csr_plus_2i()
        self._ids = np.arange(self.n, dtype=np.float64)
        # 1-based ids so id-sums of transmitting neighbors never vanish:
        # for a clean reception, sender = round(idsum1) - count = idsum1 - 1.
        self._ids1 = self._ids + 1.0
        # Preallocated (n, 2) right-hand side for the fused per-step
        # product: column 0 the transmit indicator, column 1 id-weighted.
        self._rhs2 = np.empty((self.n, 2), dtype=np.float64)
        self.degrees = self._context.degrees.copy()
        self.trace = trace if trace is not None else StepTrace()
        self.steps_elapsed = 0
        # Delivery provenance: per-kernel executed-row counters, filled
        # by the window product, surfaced through RunReport.
        self.kernel_use: dict[str, int] = {}
        # Per-phase wall-clock buckets (seconds), filled by the
        # windowed runner: planning/emitter time, coin generation,
        # fault transforms, delivery kernels, and reception folds.
        # Surfaced as RunReport.provenance["timing"]; reset per run()
        # alongside the counters above.
        self.phase_timing: dict[str, float] = {
            "plan": 0.0,
            "coins": 0.0,
            "faults": 0.0,
            "deliver": 0.0,
            "commit": 0.0,
        }
        # Lazy DeliveryKernels view over the graph's A + 2I: the window
        # product (repro.engine.kernels).
        self._kernels = None
        # Fault layer (repro.faults): None until a non-empty schedule is
        # installed — the disabled path is a single attribute check per
        # delivery, which is what keeps it bit-identical and overhead-free.
        self.faults = None
        self._fault_state = None
        self._fault_step: tuple[np.ndarray, np.ndarray] | None = None
        if faults is not None:
            self.install_faults(faults)

    # ------------------------------------------------------------------
    # fault & churn injection (repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, schedule) -> None:
        """Install a :class:`~repro.faults.FaultSchedule` on this network.

        The schedule's transforms are applied between plan and commit
        inside every delivery entry point — as mask transforms in
        :meth:`deliver` and :meth:`deliver_detect`, as transmitter-pair
        filters on every window — keyed on the global
        :attr:`steps_elapsed` clock, so the windowed, validating, and
        step-wise reference execution paths all realize exactly the same
        fault pattern.

        Installing an **empty** schedule is a no-op (runs stay
        bit-identical to a network without one). Installation is
        idempotent for an equal schedule; installing a *different*
        schedule on a network that already has one is refused — build a
        fresh network per fault environment.
        """
        if schedule is None:
            return
        from ..faults import FaultSchedule, FaultState

        if not isinstance(schedule, FaultSchedule):
            raise ProtocolError(
                f"install_faults needs a FaultSchedule (build one with "
                f"FaultSchedule(...) or FaultSchedule.sample(...)), got "
                f"{schedule!r}"
            )
        if self.faults is not None:
            if schedule == self.faults:
                return
            raise ProtocolError(
                "a different FaultSchedule is already installed on this "
                "network; build a fresh RadioNetwork per fault schedule"
            )
        self.faults = schedule
        if not schedule.is_empty:
            self._fault_state = FaultState(schedule, self.n)

    # ------------------------------------------------------------------
    # label <-> index conversion
    # ------------------------------------------------------------------
    def index_of(self, label: Hashable) -> int:
        """Internal index of the node with this label (``KeyError`` if
        the graph has no such node)."""
        return self._context.index_of(label)

    def label_of(self, index: int) -> Hashable:
        """User-facing label of the node with this internal index."""
        return self._context.nodelist[index]

    def labels(self) -> list[Hashable]:
        """All node labels in internal index order."""
        return list(self._context.nodelist)

    def indices_of(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Vectorized :meth:`index_of`."""
        index_of = self._context.index_of
        return np.array([index_of(label) for label in labels], dtype=np.int64)

    def neighbors_of(self, index: int) -> np.ndarray:
        """Indices of the neighbors of node ``index``."""
        start, end = self._adj.indptr[index], self._adj.indptr[index + 1]
        return self._adj.indices[start:end].astype(np.int64)

    # ------------------------------------------------------------------
    # the radio step
    # ------------------------------------------------------------------
    def _validate_mask(self, transmit: np.ndarray) -> np.ndarray:
        """Shared transmit-mask validation: :meth:`deliver`,
        :meth:`deliver_detect`, and the engine's step lift
        (:func:`~repro.engine.runner.protocol_schedule`)."""
        transmit = np.asarray(transmit)
        if transmit.shape != (self.n,):
            raise InvalidActionError(
                f"transmit mask has shape {transmit.shape}, expected ({self.n},)"
            )
        if transmit.dtype != np.bool_:
            raise InvalidActionError(
                f"transmit mask must be boolean, got dtype {transmit.dtype}"
            )
        return transmit

    def _deliver_core(
        self, transmit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fused delivery: ``(hear_from, counts, heard)``.

        The two classic matvecs (transmitter counts and id-sums) are
        stacked into one ``(n, 2)`` right-hand side so the adjacency is
        traversed once. Column 1 uses 1-based ids, hence for a listener
        with a unique transmitting neighbor ``idsum1 = sender + 1``.
        Records the step into the trace and advances ``steps_elapsed``.
        With an installed fault schedule the intended mask is first
        transformed to the effective one (dead/sleeping/suppressed
        transmitters cleared) and receptions on deaf listeners are
        silenced — the step-wise realization of exactly the transforms
        the window paths apply in bulk.
        """
        fault_state = self._fault_state
        deaf = None
        if fault_state is not None:
            transmit, deaf = fault_state.transform_step(
                transmit, self.steps_elapsed
            )
        rhs = self._rhs2
        np.copyto(rhs[:, 0], transmit)
        np.multiply(rhs[:, 0], self._ids1, out=rhs[:, 1])
        out = self._adj @ rhs
        counts = out[:, 0]

        hear_from = np.full(self.n, NO_SENDER, dtype=np.int64)
        heard = (~transmit) & (counts == 1.0)
        hear_from[heard] = np.rint(out[heard, 1]).astype(np.int64) - 1
        if deaf is not None:
            silenced = heard & deaf
            n_silenced = int(np.count_nonzero(silenced))
            if n_silenced:
                hear_from[silenced] = NO_SENDER
                heard = heard & ~deaf
                fault_state.note_silenced(n_silenced)
            self._fault_step = (transmit, deaf)

        self.steps_elapsed += 1
        self.trace.record_step(
            transmissions=int(np.count_nonzero(transmit)),
            receptions=int(np.count_nonzero(heard)),
        )
        return hear_from, counts, heard

    def deliver(self, transmit: np.ndarray) -> np.ndarray:
        """Execute one radio step given a boolean transmit mask.

        Parameters
        ----------
        transmit:
            Boolean array of length ``n``; ``True`` where the node
            transmits this step, ``False`` where it listens.

        Returns
        -------
        numpy.ndarray
            Integer array ``hear_from`` of length ``n``. For each node
            ``v``, ``hear_from[v]`` is the index of the unique transmitting
            neighbor ``v`` heard, or :data:`NO_SENDER` if ``v`` transmitted
            itself, had no transmitting neighbor, or suffered a collision
            (two or more transmitting neighbors).
        """
        transmit = self._validate_mask(transmit)
        hear_from, _, _ = self._deliver_core(transmit)
        return hear_from

    def deliver_detect(
        self, transmit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One radio step in the *with collision detection* model variant.

        The paper's model is explicitly without collision detection
        (Section 1.1); this entry point exists for the baselines from the
        literature that *require* CD (Schneider–Wattenhofer [29],
        Dessmark–Pelc [12]) so the E13 experiment can measure what CD
        buys. Algorithms in :mod:`repro.core` never call it.

        Validation and the fused delivery product are shared with
        :meth:`deliver` — the carrier-sense vector ``busy`` is derived
        from the same transmitter counts, so CD costs no extra matvec.

        Returns
        -------
        (hear_from, busy):
            ``hear_from`` as in :meth:`deliver`; ``busy`` is a boolean
            array marking listeners that sensed energy — at least one
            transmitting neighbor, whether or not the transmission was
            clean. A CD-capable listener distinguishes silence
            (``busy`` false), clean reception (``hear_from != NO_SENDER``)
            and collision (``busy`` true, nothing heard).
        """
        transmit = self._validate_mask(transmit)
        hear_from, counts, _ = self._deliver_core(transmit)
        if self._fault_state is not None:
            # Carrier sense follows the same fault semantics as
            # reception: suppressed (but awake) transmitters sense the
            # channel like any listener, while down or jammed nodes
            # sense nothing.
            effective, deaf = self._fault_step
            busy = (~effective) & (counts >= 1.0) & ~deaf
        else:
            busy = (~transmit) & (counts >= 1.0)
        return hear_from, busy

    # ------------------------------------------------------------------
    # the engine's way in: transmitter pairs through the window product
    # ------------------------------------------------------------------
    def _deliver_pairs(
        self, w: int, steps: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deliver one ``w``-step block of intended transmitter pairs.

        ``(steps, nodes)`` are int64, ``steps`` block-relative,
        row-major with nodes ascending within a step. With a fault
        schedule installed the pairs are filtered to the effective
        transmitters (:meth:`~repro.faults.state.FaultState.filter_coo`)
        and receptions on deaf listeners dropped
        (:meth:`~repro.faults.state.FaultState.deaf_at`), both keyed on
        the global clock; the one product runs in between. Accounts
        the ``w`` steps and returns the clean receptions as
        ``(step, node, sender)`` int64 triples, step ascending. Wall
        time lands in the ``faults`` and ``deliver`` buckets of
        :attr:`phase_timing`.
        """
        timing = self.phase_timing
        fault_state = self._fault_state
        t0 = perf_counter()
        if fault_state is not None:
            steps, nodes = fault_state.filter_coo(
                steps, nodes, self.steps_elapsed, w
            )
        t1 = perf_counter()
        timing["faults"] += t1 - t0
        rx_steps, rx_nodes, senders = self._delivery_kernels().execute_coo(
            w, steps, nodes, counters=self.kernel_use
        )
        if fault_state is not None and rx_steps.size:
            deaf = fault_state.deaf_at(rx_steps + self.steps_elapsed, rx_nodes)
            dropped = int(np.count_nonzero(deaf))
            if dropped:
                keep = ~deaf
                rx_steps = rx_steps[keep]
                rx_nodes = rx_nodes[keep]
                senders = senders[keep]
                fault_state.note_silenced(dropped)
        self._account_steps(w, int(steps.size), int(rx_steps.size))
        timing["deliver"] += perf_counter() - t1
        return rx_steps, rx_nodes, senders

    def _delivery_kernels(self):
        """The window product bound to the graph's shared A + 2I (lazy;
        the kernel holds no copy of the matrix)."""
        if self._kernels is None:
            from ..engine.kernels import DeliveryKernels

            self._kernels = DeliveryKernels(
                self._adj.indptr, self._adj.indices, self.n, self._plus_2i
            )
        return self._kernels

    def _account_steps(
        self, steps: int, transmissions: int, receptions: int
    ) -> None:
        """Advance ``steps_elapsed`` and the trace by ``steps`` executed
        steps with these transmission and reception totals."""
        self.steps_elapsed += steps
        self.trace.record_window(
            steps=steps,
            transmissions=transmissions,
            receptions=receptions,
        )

    # ------------------------------------------------------------------
    # convenience graph facts (used by generators/tests, not protocols)
    # ------------------------------------------------------------------
    def neighbor_sum(self, values: np.ndarray) -> np.ndarray:
        """For each node, the sum of ``values`` over its neighbors.

        Global knowledge: this is *not* available to protocol logic in the
        ad-hoc model. It exists for instrumentation (golden-round
        tracking), oracle fidelity knobs that are explicitly documented as
        such (``oracle_degree`` in Radio MIS), and tests.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise InvalidActionError(
                f"values has shape {values.shape}, expected ({self.n},)"
            )
        return self._adj @ values

    def is_connected(self) -> bool:
        """Whether the underlying graph is connected (cached per graph)."""
        return self._context.is_connected()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RadioNetwork(n={self.n}, m={self.graph.number_of_edges()}, "
            f"steps={self.steps_elapsed})"
        )
