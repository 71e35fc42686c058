"""Windows and the runner that executes them on a radio network.

A :class:`StreamedWindow` is a block of radio steps whose transmitters
are all fixed before the first of them executes: a lazy source of
transmitter pairs plus the fold its receptions land in. A protocol
runs a window by handing it to :meth:`WindowedRunner.run`, which is the
single place where protocols meet the simulator's engine path. Every
window runs through one chunk loop: the window produces the chunk's
transmitter pairs, the fault layer filters them, the one exact sparse
product delivers them
(:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`), and the
window's fold consumes the reception triples. The product is
bit-identical per step to the step-wise
:meth:`~repro.radio.network.RadioNetwork.deliver`, so a protocol that
calls its windows here produces exactly the receptions, trace totals
and ``steps_elapsed`` of its step-wise ``*_reference`` twin — only
faster (``tests/test_schedule_contract.py`` replays every registered
protocol's windows step-wise through the
:class:`~repro.engine.validate.ValidatingRunner`).

The obliviousness promise
-------------------------
Handing a window to :meth:`WindowedRunner.run` is a *promise*: none of
the window's rows depends on anything heard inside the window. Every
row may (and usually does) depend on receptions from windows already
run, and on randomness drawn while building the window. A protocol
draws its randomness in the order of its step-wise twin — every
oblivious block draws one key, at the block's first step
(:mod:`repro.engine.sampler`) — which is what keeps engine and
reference runs on one seed bit-identical. An adaptive step, whose
transmitters depend on everything heard so far, is a one-row window:
:meth:`WindowedRunner.run_steps` runs a step-wise
:class:`~repro.radio.protocol.Protocol` object (a
:class:`~repro.radio.protocol.TimeMultiplexer` stack included) that
way, which is how Intra-Cluster Propagation runs its slot passes and
their Decay background on the engine.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..radio.errors import InvalidActionError, ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork


@dataclasses.dataclass
class StreamedWindow:
    """An oblivious window of radio steps, executed in bounded chunks.

    ``transmitters(start, stop)`` returns the transmitters of window
    steps ``start .. stop - 1`` as int64 ``(steps, nodes)`` pairs —
    ``steps`` relative to ``start``, row-major, nodes ascending within
    a step. The runner calls it for consecutive, non-overlapping
    intervals covering ``[0, total_steps)`` in order, exactly once
    each, so a producer may draw lazily and still consume its
    randomness in one fixed order; windows whose rows are keyed samples
    (:class:`~repro.engine.sampler.RowSampler`) produce the same pairs
    whatever the interval boundaries.

    Each chunk's clean receptions fold through ``consume_coo(k, steps,
    nodes, senders)``: the ``k``-step chunk's reception triples as
    parallel int64 arrays, ``steps`` chunk-relative, ``nodes`` and
    ``senders`` global ids, in arbitrary order. Chunks arrive in step
    order, so an order-dependent fold (first-hear semantics) is exactly
    the fold of one monolithic reply. The chunk height is the runner's
    choice — a memory knob, never a semantics knob.
    """

    total_steps: int
    transmitters: Callable[[int, int], tuple[np.ndarray, np.ndarray]]
    consume_coo: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


class WindowedRunner:
    """Runs windows on one :class:`RadioNetwork`.

    Parameters
    ----------
    network:
        The radio network every window runs on.
    chunk_steps:
        The chunk height: at most this many radio steps of a window
        execute at once. A memory knob only, never a semantics knob
        (chunked execution is bit-identical whatever the height).
        :meth:`ExecutionPolicy.runner
        <repro.engine.policy.ExecutionPolicy.runner>` derives it from
        the policy's ``mem_budget`` through
        :func:`~repro.engine.streaming.chunk_steps_for_budget`.
    """

    def __init__(self, network: RadioNetwork, chunk_steps: int) -> None:
        if isinstance(chunk_steps, bool) or not isinstance(
            chunk_steps, (int, np.integer)
        ) or chunk_steps < 1:
            raise ProtocolError(
                f"chunk_steps must be a positive integer, "
                f"got {chunk_steps!r}"
            )
        self.network = network
        self.chunk_steps = int(chunk_steps)

    def run(self, window: StreamedWindow) -> None:
        """Execute ``window``, at most :attr:`chunk_steps` steps at a time.

        Per ``k``-step chunk, in step order: the window produces its
        intended transmitter pairs (``coins`` bucket), and
        :meth:`_deliver_coo` delivers them and hands the reception
        triples to the window's fold. The protocol's own time since
        the network's previous window ended — planning the rows,
        folding state between windows — is charged to the ``plan``
        bucket as the window starts.
        """
        network = self.network
        timing = network.phase_timing
        start = perf_counter()
        if network._window_end is not None:
            timing["plan"] += start - network._window_end
        total = window.total_steps
        if total < 0:
            raise InvalidActionError(
                f"window has negative total_steps: {total}"
            )
        done = 0
        while done < total:
            k = min(self.chunk_steps, total - done)
            t0 = perf_counter()
            steps, nodes = window.transmitters(done, done + k)
            timing["coins"] += perf_counter() - t0
            self._deliver_coo(k, steps, nodes, window.consume_coo)
            done += k
        network._window_end = perf_counter()

    def _deliver_coo(
        self,
        k: int,
        steps: np.ndarray,
        nodes: np.ndarray,
        consume_coo: Any,
    ) -> None:
        """Deliver one ``k``-step chunk of intended transmitter pairs
        and fold its reception triples (hook for the validator)."""
        network = self.network
        rx_steps, rx_nodes, senders = network._deliver_pairs(k, steps, nodes)
        t0 = perf_counter()
        consume_coo(k, rx_steps, rx_nodes, senders)
        network.phase_timing["commit"] += perf_counter() - t0

    def run_steps(
        self,
        protocol: Any,
        rng: np.random.Generator | None,
        steps: int,
    ) -> None:
        """Advance a step-wise :class:`~repro.radio.protocol.Protocol`
        by ``steps`` steps, or until it finishes.

        Each step is a one-row window through :meth:`run`, planned only
        after the previous step was observed, so ``transmit_mask`` and
        ``observe`` run in exactly the order of
        :func:`repro.radio.protocol.run_steps` and a run here is
        bit-identical to it on the same seed. Each mask passes
        :meth:`~repro.radio.network.RadioNetwork.deliver`'s own shape
        and dtype check, and ``observe`` receives a fresh ``hear_from``
        row, as ``deliver`` returns one.
        """
        if steps < 0:
            raise ProtocolError(f"steps must be >= 0, got {steps}")
        network = self.network
        for _ in range(steps):
            if protocol.finished:
                return
            mask = network._validate_mask(protocol.transmit_mask(rng))
            hear_from = np.full(network.n, NO_SENDER, dtype=np.int64)

            def row(start: int, stop: int):
                nodes = np.flatnonzero(mask)
                return np.zeros(nodes.size, dtype=np.int64), nodes

            def fold(k, rx_steps, rx_nodes, senders):
                hear_from[rx_nodes] = senders

            self.run(StreamedWindow(1, row, fold))
            protocol.observe(hear_from)


__all__ = ["StreamedWindow", "WindowedRunner"]
