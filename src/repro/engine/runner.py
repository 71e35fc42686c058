"""Execution of protocol schedules on a radio network.

:class:`WindowedRunner` is the single place where protocol schedules
meet the simulator. Every window is a
:class:`~repro.engine.segments.StreamedWindow` — a lazy
:class:`~repro.engine.segments.TransmitterPlan` plus one fold — and
runs through one chunk loop: the plan produces the chunk's transmitter
pairs, the fault layer filters them, the one exact sparse product
delivers them
(:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`), and the
window's fold consumes the reception triples. The product is
bit-identical per step to the step-wise
:meth:`~repro.radio.network.RadioNetwork.deliver`, so a schedule
executed here produces exactly the receptions, trace totals and
``steps_elapsed`` of the step-wise loop it replaced — only faster (the
contract suite ``tests/test_schedule_contract.py`` re-verifies every
window of every in-tree emitter against the step-wise replay). The
runner sets no step budget: every emitter bounds its own loop.

:func:`protocol_schedule` is the one lift of a step-wise
:class:`~repro.radio.protocol.Protocol` object onto the runner: each
protocol step becomes a one-row window, planned only after the
previous step was observed. A
:class:`~repro.radio.protocol.TimeMultiplexer` stack lifts the same
way, which is how Intra-Cluster Propagation runs its slot passes and
their Decay background on the engine.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

import numpy as np

from ..radio.errors import InvalidActionError, ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from .segments import (
    ProtocolSchedule,
    StreamedWindow,
    TracePhase,
    TransmitterPlan,
)


class WindowedRunner:
    """Drives schedule emitters on one :class:`RadioNetwork`.

    Parameters
    ----------
    network:
        The radio network all schedules run on.
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

    def _run_chunks(self, window: StreamedWindow) -> None:
        """The chunk loop every window runs on, at most
        :attr:`chunk_steps` steps at a time.

        Per ``k``-step chunk, in step order: the plan produces its
        intended transmitter pairs (``coins`` bucket), and
        :meth:`_deliver_coo` delivers them and hands the reception
        triples to the window's fold.
        """
        plan = window.plan
        total = plan.total_steps
        if total < 0:
            raise InvalidActionError(
                f"transmit plan has negative total_steps: {total}"
            )
        timing = self.network.phase_timing
        done = 0
        while done < total:
            k = min(self.chunk_steps, total - done)
            t0 = perf_counter()
            steps, nodes = plan.transmitters(done, done + k)
            timing["coins"] += perf_counter() - t0
            self._deliver_coo(k, steps, nodes, window.consume_coo)
            done += k

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

    def run(self, schedule: ProtocolSchedule) -> Any:
        """Execute ``schedule`` to completion and return its result.

        The emitter's ``StopIteration`` value is the protocol result —
        emitters ``return`` it like any generator. Every segment is
        answered with ``None``.

        Wall time spent *inside* the emitter (row planning, protocol
        state folds between segments) accrues to the network's
        ``phase_timing["plan"]`` bucket; every window's chunks fill the
        ``coins``/``faults``/``deliver``/``commit`` buckets stage by
        stage.
        """
        timing = self.network.phase_timing
        while True:
            t_plan = perf_counter()
            try:
                segment = schedule.send(None)
            except StopIteration as stop:
                return stop.value
            finally:
                timing["plan"] += perf_counter() - t_plan
            if isinstance(segment, StreamedWindow):
                self._run_chunks(segment)
            elif isinstance(segment, TracePhase):
                self.network.trace.enter_phase(segment.name)
            else:
                raise ProtocolError(
                    f"schedule yielded a non-segment: {segment!r}"
                )


def protocol_schedule(
    protocol: Any,
    rng: np.random.Generator,
    steps: int | None = None,
) -> ProtocolSchedule:
    """Lift a step-wise :class:`~repro.radio.protocol.Protocol` object.

    Yields each protocol step as a one-row
    :class:`~repro.engine.segments.StreamedWindow` until the protocol
    finishes — or for exactly ``steps`` steps, whichever comes first,
    mirroring :func:`repro.radio.protocol.run_steps`. Every step is
    treated as adaptive: its mask is planned only after the previous
    step was observed, so ``transmit_mask`` and ``observe`` run in
    exactly the step-wise drivers' order and a run on a
    :class:`WindowedRunner` is bit-identical to
    :func:`~repro.radio.protocol.run_steps` on the same seed. Each mask
    passes :meth:`~repro.radio.network.RadioNetwork.deliver`'s own
    shape and dtype check, and ``observe`` receives a fresh
    ``hear_from`` row, as ``deliver`` returns one. Returns
    ``protocol.result()`` when the protocol finished, else ``None``.
    """
    if steps is not None and steps < 0:
        raise ProtocolError(f"steps must be >= 0, got {steps}")
    network = protocol.network
    taken = 0
    while not protocol.finished and (steps is None or taken < steps):
        mask = network._validate_mask(protocol.transmit_mask(rng))
        hear_from = np.full(network.n, NO_SENDER, dtype=np.int64)

        def row(start: int, stop: int):
            nodes = np.flatnonzero(mask)
            return np.zeros(nodes.size, dtype=np.int64), nodes

        def fold(k, rx_steps, rx_nodes, senders):
            hear_from[rx_nodes] = senders

        yield StreamedWindow(TransmitterPlan(1, row), consume_coo=fold)
        protocol.observe(hear_from)
        taken += 1
    return protocol.result() if protocol.finished else None


__all__ = [
    "WindowedRunner",
    "protocol_schedule",
]
