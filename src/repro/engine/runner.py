"""Execution of protocol schedules on a radio network.

:class:`WindowedRunner` is the single place where protocol schedules
meet the simulator. Every window — a materialized
:class:`~repro.engine.segments.ObliviousWindow` or a sampled
:class:`~repro.engine.segments.TransmitterPlan` streamed as a
:class:`~repro.engine.segments.StreamedWindow` — runs through one
chunk loop: the chunk's transmitter pairs are produced (sampled, or
read off the window's masks with ``np.nonzero``), the fault layer
filters them, the one exact sparse product delivers them
(:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`), and the
reception triples are folded into what the segment expects. The
product is bit-identical per step to the step-wise
:meth:`~repro.radio.network.RadioNetwork.deliver`, so a schedule
executed here produces exactly the receptions, trace totals and
``steps_elapsed`` of the step-wise loop it replaced — only faster (the
contract suite ``tests/test_schedule_contract.py`` re-verifies every
window of every in-tree emitter against the step-wise replay).

:func:`protocol_schedule` is the one lift of a step-wise
:class:`~repro.radio.protocol.Protocol` object onto the runner: each
protocol step becomes a width-1 window, planned only after the
previous step's reply was observed. A
:class:`~repro.radio.protocol.TimeMultiplexer` stack lifts the same
way, which is how Intra-Cluster Propagation runs its slot passes and
their Decay background on the engine.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

import numpy as np

from ..radio.errors import (
    BudgetExceededError,
    InvalidActionError,
    ProtocolError,
)
from ..radio.network import NO_SENDER, RadioNetwork
from .segments import (
    ObliviousWindow,
    PlanSection,
    ProtocolSchedule,
    StreamedWindow,
    TracePhase,
)


class WindowedRunner:
    """Drives schedule emitters on one :class:`RadioNetwork`.

    Parameters
    ----------
    network:
        The radio network all schedules run on.
    chunk_steps:
        The chunk height: at most this many radio steps of a window
        execute at once, whether the window is a materialized
        :class:`~repro.engine.segments.ObliviousWindow` or a streamed
        :class:`~repro.engine.segments.StreamedWindow` plan. A memory
        knob only, never a semantics knob (chunked execution is
        bit-identical whatever the height).
        :meth:`ExecutionPolicy.runner
        <repro.engine.policy.ExecutionPolicy.runner>` derives it from
        the policy's ``mem_budget`` through
        :func:`~repro.engine.streaming.chunk_steps_for_budget`.
    max_steps:
        Optional radio-step budget across all :meth:`run` calls on this
        runner. A segment whose execution would exceed the budget raises
        :class:`~repro.radio.errors.BudgetExceededError` *before*
        executing, so a bounded run never overshoots — the engine
        counterpart of :func:`repro.radio.protocol.run_protocol`'s
        budget check. Budget charges are per radio step: a ``w``-row
        window costs ``w`` whether it runs whole or chunked.
    """

    def __init__(
        self,
        network: RadioNetwork,
        chunk_steps: int,
        max_steps: int | None = None,
    ) -> None:
        if isinstance(chunk_steps, bool) or not isinstance(
            chunk_steps, (int, np.integer)
        ) or chunk_steps < 1:
            raise ProtocolError(
                f"chunk_steps must be a positive integer, "
                f"got {chunk_steps!r}"
            )
        self.network = network
        self.chunk_steps = int(chunk_steps)
        self.max_steps = max_steps
        self.steps_executed = 0

    def _charge(self, steps: int) -> None:
        if (
            self.max_steps is not None
            and self.steps_executed + steps > self.max_steps
        ):
            raise BudgetExceededError(
                f"schedule would exceed the {self.max_steps}-step budget "
                f"({self.steps_executed} executed, next segment {steps})"
            )
        self.steps_executed += steps

    def _execute_window(self, masks: np.ndarray) -> np.ndarray:
        """Execute one charged oblivious window; return its ``(w, n)``
        ``hear_from`` reply.

        The window runs through the chunk loop as one span — whole, or
        chunk-wise when it is taller than :attr:`chunk_steps` — and
        each chunk's reception triples land in the one preallocated
        reply.
        """
        network = self.network
        masks = network._validate_window_masks(np.asarray(masks))
        w = masks.shape[0]
        hear_from = np.full((w, network.n), NO_SENDER, dtype=np.int64)
        done = 0

        def fold(k: int, steps, nodes, senders) -> None:
            nonlocal done
            hear_from[steps + done, nodes] = senders
            done += k

        self._run_chunks(
            0,
            w,
            self.chunk_steps,
            lambda start, stop: np.nonzero(masks[start:stop]),
            fold,
            charge=False,
        )
        return hear_from

    def _plan_sections(
        self, segment: StreamedWindow
    ) -> tuple[PlanSection, ...]:
        """The section list of a streamed window.

        Fused windows carry their own sections; a plain window becomes
        one anonymous section wrapping its ``consume_coo`` fold, so
        there is exactly one loop for every plan.
        """
        total = segment.plan.total_steps
        if total < 0:
            raise InvalidActionError(
                f"transmit plan has negative total_steps: {total}"
            )
        if segment.sections is None:
            return (PlanSection(total, None, segment.consume_coo),)
        covered = sum(s.width for s in segment.sections)
        if covered != total:
            raise ProtocolError(
                f"fused StreamedWindow sections cover {covered} steps "
                f"but the plan has {total}"
            )
        return tuple(segment.sections)

    def _execute_stream(self, segment: StreamedWindow) -> None:
        """Execute one streamed window, folding chunks as they arrive.

        Budget charges land per chunk, after its transmitters are
        produced and before it executes — the granularity (and rng
        consumption on an aborted run) of the pre-streaming emitters,
        which drew each chunk's coins before yielding it. Fused windows
        execute section by section (chunks never straddle a section
        boundary; each section may enter its own trace phase).
        """
        plan = segment.plan
        sections = self._plan_sections(segment)
        base = 0
        for section in sections:
            if section.consume_coo is None:
                raise ProtocolError(
                    "a StreamedWindow section needs a consume_coo fold"
                )
            if section.phase is not None:
                self.network.trace.enter_phase(section.phase)
            self._run_chunks(
                base,
                base + section.width,
                self.chunk_steps,
                plan.transmitters,
                section.consume_coo,
                charge=True,
            )
            base += section.width

    def _run_chunks(
        self, start: int, stop: int, chunk: int, pairs, fold, charge: bool
    ) -> None:
        """The chunk loop every window runs on: steps ``start`` to
        ``stop`` of a plan, at most ``chunk`` at a time.

        Per ``k``-step chunk: ``pairs(lo, hi)`` produces its intended
        transmitter pairs (``coins`` bucket: sampling, or reading them
        off masks), the chunk is charged when ``charge`` is set
        (materialized windows are charged whole, up front), and
        :meth:`_deliver_coo` delivers it and hands the reception
        triples to ``fold(k, steps, nodes, senders)``.
        """
        timing = self.network.phase_timing
        done = start
        while done < stop:
            k = min(chunk, stop - done)
            t0 = perf_counter()
            steps, nodes = pairs(done, done + k)
            timing["coins"] += perf_counter() - t0
            if charge:
                self._charge(k)
            self._deliver_coo(k, steps, nodes, fold)
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
        emitters ``return`` it like any generator.

        Wall time spent *inside* the emitter (mask construction,
        protocol state folds between segments) accrues to the
        network's ``phase_timing["plan"]`` bucket; every window's
        chunks fill the ``coins``/``faults``/``deliver``/``commit``
        buckets stage by stage.
        """
        timing = self.network.phase_timing
        reply: Any = None
        while True:
            t_plan = perf_counter()
            try:
                segment = schedule.send(reply)
            except StopIteration as stop:
                return stop.value
            finally:
                timing["plan"] += perf_counter() - t_plan
            if isinstance(segment, ObliviousWindow):
                self._charge(segment.masks.shape[0])
                reply = self._execute_window(segment.masks)
            elif isinstance(segment, StreamedWindow):
                if segment.consume_coo is None and segment.sections is None:
                    raise ProtocolError(
                        "schedule yielded a StreamedWindow without a "
                        "consume_coo fold or sections"
                    )
                self._execute_stream(segment)
                reply = None
            elif isinstance(segment, TracePhase):
                self.network.trace.enter_phase(segment.name)
                reply = None
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

    Yields each protocol step as a width-1
    :class:`~repro.engine.segments.ObliviousWindow` until the protocol
    finishes — or for exactly ``steps`` steps, whichever comes first,
    mirroring :func:`repro.radio.protocol.run_steps`. Every step is
    treated as adaptive: its mask is planned only after the previous
    step's reply was observed, so ``transmit_mask`` and ``observe``
    run in exactly the step-wise drivers' order and a run on a
    :class:`WindowedRunner` is bit-identical to
    :func:`~repro.radio.protocol.run_steps` on the same seed. Returns
    ``protocol.result()`` when the protocol finished, else ``None``.
    """
    if steps is not None and steps < 0:
        raise ProtocolError(f"steps must be >= 0, got {steps}")
    taken = 0
    while not protocol.finished and (steps is None or taken < steps):
        mask = np.asarray(protocol.transmit_mask(rng))
        hear_from = yield ObliviousWindow(mask[None, :])
        protocol.observe(hear_from[0])
        taken += 1
    return protocol.result() if protocol.finished else None


__all__ = [
    "WindowedRunner",
    "protocol_schedule",
]
