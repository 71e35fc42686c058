"""Execution of protocol schedules on a radio network.

:class:`WindowedRunner` is the single place where protocol schedules
meet the simulator: :class:`~repro.engine.segments.ObliviousWindow`
segments execute through the batched
:meth:`~repro.radio.network.RadioNetwork.deliver_window` product,
:class:`~repro.engine.segments.DecisionStep` segments through the fused
single-step :meth:`~repro.radio.network.RadioNetwork.deliver` path.
Because both network entry points are bit-identical per step, a schedule
executed here produces exactly the receptions, trace totals and
``steps_elapsed`` of the step-wise loop it replaced — only faster.

Delivery routing: ``deliver_window`` has two internally equivalent
execution strategies — the sparse product and, for windows whose masks
light up most (listener, step) pairs, an exact dense matmul. The
runner's ``delivery`` knob (``"auto"`` by default) selects between them
per window from the masks' popcounts; both are exact small-integer
sums, so the choice can never change a single ``hear_from`` bit (the
contract ``tests/test_schedule_contract.py`` re-verifies on every
window of every in-tree emitter).

Two adapters bridge the older protocol forms onto the engine:

* :func:`protocol_schedule` lifts a legacy
  :class:`~repro.radio.protocol.Protocol` object into a stream of
  decision steps — one adaptive step per protocol step.
* :class:`ProtocolSegmentSource` lifts the same objects onto the
  plan/commit :class:`~repro.engine.segments.SegmentProtocol` interface
  as width-1 windows, which is what lets a deterministic-length
  protocol (ICP's slot passes) ride the
  :func:`~repro.engine.mux.multiplex` combinator.

:func:`segment_schedule` closes the loop in the other direction: it
drives any :class:`~repro.engine.segments.SegmentProtocol` as an
ordinary generator-form schedule, so plan/commit sources run on the
same runner (and the same budget accounting) as everything else.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any

import numpy as np

from ..radio.errors import BudgetExceededError, ProtocolError
from ..radio.network import (
    DELIVERY_MODES,
    NO_SENDER,
    RadioNetwork,
    TransmitPlan,
)
from .kernels import require_delivery_mode
from .segments import (
    DecisionStep,
    ObliviousWindow,
    PlanSection,
    ProtocolSchedule,
    SegmentProtocol,
    StreamedWindow,
    TracePhase,
    TransmitterPlan,
)
from .streaming import default_stream_chunk, resolve_chunk_steps


class WindowedRunner:
    """Drives schedule emitters on one :class:`RadioNetwork`.

    Parameters
    ----------
    network:
        The radio network all schedules run on.
    max_steps:
        Optional radio-step budget across all :meth:`run` calls on this
        runner. A segment whose execution would exceed the budget raises
        :class:`~repro.radio.errors.BudgetExceededError` *before*
        executing, so a bounded run never overshoots — the engine
        counterpart of :func:`repro.radio.protocol.run_protocol`'s
        budget check. Budget charges are per radio step regardless of
        execution strategy: a ``w``-row window costs ``w`` whether it
        runs sparse, dense, or as a multiplexed joint window.
    delivery:
        Window execution strategy, forwarded to
        :meth:`~repro.radio.network.RadioNetwork.deliver_window`:
        ``"auto"`` (default) routes each window by its estimated
        density, ``"sparse"``/``"dense"`` force one path. All three are
        bit-identical; this is a performance knob only. It routes mask
        windows only: transmitter-list chunks always run the one
        sparse product of
        :meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`.
    chunk_steps, mem_budget:
        The streaming knobs — memory knobs only, never semantics knobs
        (streamed execution is bit-identical whatever the slab height).
        ``chunk_steps`` fixes the slab height directly; ``mem_budget``
        derives it from a target peak-bytes cap through
        :func:`~repro.engine.streaming.chunk_steps_for_budget`; with
        neither set, the process-wide default budget
        (:func:`~repro.engine.streaming.set_memory_budget`) applies, and
        absent that, :class:`~repro.engine.segments.StreamedWindow`
        plans stream at the legacy
        :func:`~repro.engine.segments.coin_chunk` granularity while
        materialized :class:`~repro.engine.segments.ObliviousWindow`
        segments execute unchunked (the pre-streaming behavior). When a
        bound *is* configured, materialized windows wider than it are
        executed slab-wise too, bounding the kernels' working set.
    """

    def __init__(
        self,
        network: RadioNetwork,
        max_steps: int | None = None,
        delivery: str = "auto",
        chunk_steps: int | None = None,
        mem_budget: int | None = None,
    ) -> None:
        # All delivery modes (including the compiled numba/cupy
        # backends) validate through the kernel registry: unknown names
        # and absent dependencies are refused here, before any run.
        require_delivery_mode(delivery)
        # Validate the streaming knobs eagerly (resolution also consults
        # the process-wide default, so it happens per execution).
        resolve_chunk_steps(network.n, chunk_steps, mem_budget)
        self.network = network
        self.max_steps = max_steps
        self.delivery = delivery
        self.chunk_steps = chunk_steps
        self.mem_budget = mem_budget
        self.steps_executed = 0

    def _resolved_chunk_steps(self) -> int | None:
        """The configured streaming bound, or ``None`` when unset."""
        return resolve_chunk_steps(
            self.network.n, self.chunk_steps, self.mem_budget
        )

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

    # The execution hooks exist so the contract-checking
    # ValidatingRunner (repro.engine.validate) can interpose replay
    # checks without duplicating the dispatch loop.
    def _execute_window(self, masks: np.ndarray) -> np.ndarray:
        """Execute one charged oblivious window.

        When a streaming bound is configured and the window is wider,
        the kernels run slab-wise through ``deliver_window_chunks`` into
        one preallocated reply — identical results, trace, and step
        accounting (the trace keeps aggregates), with the kernels'
        working set bounded by the slab height.
        """
        chunk = self._resolved_chunk_steps()
        w = masks.shape[0]
        if chunk is None or w <= chunk:
            return self.network.deliver_window(masks, mode=self.delivery)
        hear_from = np.full((w, self.network.n), NO_SENDER, dtype=np.int64)
        done = 0
        for slab in self.network.deliver_window_chunks(
            masks, chunk_steps=chunk, mode=self.delivery
        ):
            hear_from[done : done + slab.shape[0]] = slab
            done += slab.shape[0]
        return hear_from

    def _execute_step(self, mask: np.ndarray) -> np.ndarray:
        """Execute one charged decision step."""
        return self.network.deliver(mask)

    def _plan_sections(
        self, segment: StreamedWindow
    ) -> tuple[PlanSection, ...]:
        """The section list of a streamed window.

        Fused windows carry their own sections; a plain window becomes
        one anonymous section wrapping its ``consume``/``consume_coo``
        callbacks, so there is exactly one loop per plan form.
        """
        if segment.sections is not None:
            total = sum(s.width for s in segment.sections)
            if total != segment.plan.total_steps:
                raise ProtocolError(
                    f"fused StreamedWindow sections cover {total} steps "
                    f"but the plan has {segment.plan.total_steps}"
                )
            return tuple(segment.sections)
        return (
            PlanSection(
                segment.plan.total_steps,
                None,
                segment.consume,
                segment.consume_coo,
            ),
        )

    def _execute_stream(self, segment: StreamedWindow) -> None:
        """Execute one streamed window, folding chunks as they arrive.

        Budget charges land per chunk, after its rows are produced and
        before it executes — the granularity (and rng consumption on an
        aborted run) of the pre-streaming emitters, which drew each
        chunk's coins before yielding it. Fused windows execute section
        by section (chunks never straddle a section boundary; each
        section may enter its own trace phase).

        A :class:`~repro.engine.segments.TransmitterPlan` runs on the
        transmitter-list loop (:meth:`_execute_stream_coo`); a mask
        :class:`~repro.radio.network.TransmitPlan` runs here, through
        ``deliver_window_chunks``, with per-slab processing in
        :meth:`_consume_stream_slab`, the hook the validating runner
        interposes on.
        """
        plan = segment.plan
        sections = self._plan_sections(segment)
        if isinstance(plan, TransmitterPlan):
            self._execute_stream_coo(plan, sections)
            return
        timing = self.network.phase_timing
        chunk = default_stream_chunk(
            self.network.n, self._resolved_chunk_steps()
        )
        inner = plan.masks
        # Plans are one-shot (lazy coin draws cannot be replayed), so
        # the charging wrapper also stashes each chunk's masks for the
        # per-slab hook; exactly one chunk is in flight at a time.
        current: list[np.ndarray] = []
        coin_spent = [0.0]
        base = 0
        for section in sections:
            if section.phase is not None:
                self.network.trace.enter_phase(section.phase)

            def charged(
                start: int, stop: int, _base: int = base
            ) -> np.ndarray:
                t0 = perf_counter()
                masks = np.asarray(inner(_base + start, _base + stop))
                coin_spent[0] += perf_counter() - t0
                self._charge(stop - start)
                current.append(masks)
                return masks

            stream = self.network.deliver_window_chunks(
                TransmitPlan(section.width, charged),
                chunk_steps=chunk,
                mode=self.delivery,
            )
            while True:
                # "deliver" is the chunk's wall time minus its mask
                # production (timed inside `charged`); with faults
                # installed the mask path's transform time lands in
                # "deliver" too — only the transmitter-list loop
                # separates it.
                coin_spent[0] = 0.0
                t0 = perf_counter()
                slab = next(stream, None)
                if slab is None:
                    break
                timing["deliver"] += perf_counter() - t0 - coin_spent[0]
                timing["coins"] += coin_spent[0]
                t0 = perf_counter()
                self._consume_stream_slab(
                    slab, current.pop(), section.consume
                )
                timing["commit"] += perf_counter() - t0
            base += section.width

    def _execute_stream_coo(
        self, plan: TransmitterPlan, sections: tuple[PlanSection, ...]
    ) -> None:
        """The transmitter-list loop: sample, filter, deliver, fold.

        Per chunk: the plan samples the chunk's transmitter pairs
        (``coins`` bucket), the fault layer filters them
        (:meth:`~repro.faults.state.FaultState.filter_coo`, keyed on
        global ids and the global clock), one sparse product delivers
        straight from the pairs (:meth:`_deliver_coo`), and the
        section's ``consume_coo`` folds the reception triples. No
        ``(k, n)`` mask block or hear slab exists on this path.
        """
        network = self.network
        timing = network.phase_timing
        chunk = default_stream_chunk(network.n, self._resolved_chunk_steps())
        base = 0
        for section in sections:
            if section.consume_coo is None:
                raise ProtocolError(
                    "a TransmitterPlan section needs a consume_coo fold"
                )
            if section.phase is not None:
                network.trace.enter_phase(section.phase)
            done = 0
            while done < section.width:
                k = min(chunk, section.width - done)
                start = base + done
                t0 = perf_counter()
                steps, nodes = plan.transmitters(start, start + k)
                timing["coins"] += perf_counter() - t0
                self._charge(k)
                self._deliver_coo(k, steps, nodes, section.consume_coo)
                done += k
            base += section.width

    def _deliver_coo(
        self,
        k: int,
        steps: np.ndarray,
        nodes: np.ndarray,
        consume_coo: Any,
    ) -> None:
        """Execute and fold one ``k``-step chunk of intended
        transmitter pairs (hook for the validator)."""
        network = self.network
        timing = network.phase_timing
        fault_state = network._fault_state
        t0 = perf_counter()
        if fault_state is not None:
            steps, nodes = fault_state.filter_coo(
                steps, nodes, network.steps_elapsed, k
            )
        t1 = perf_counter()
        timing["faults"] += t1 - t0
        rx_steps, rx_nodes, senders = network._delivery_kernels().execute_coo(
            k, steps, nodes, counters=network.kernel_use
        )
        receptions = int(rx_steps.size)
        if fault_state is not None and receptions:
            deaf = fault_state.deaf_at(
                rx_steps + network.steps_elapsed, rx_nodes
            )
            dropped = int(np.count_nonzero(deaf))
            if dropped:
                keep = ~deaf
                rx_steps = rx_steps[keep]
                rx_nodes = rx_nodes[keep]
                senders = senders[keep]
                receptions -= dropped
                fault_state.note_silenced(dropped)
        network._account_steps(k, int(steps.size), receptions)
        t2 = perf_counter()
        timing["deliver"] += t2 - t1
        consume_coo(k, rx_steps, rx_nodes, senders)
        timing["commit"] += perf_counter() - t2

    def _consume_stream_slab(
        self,
        slab: np.ndarray,
        masks: np.ndarray,
        consume: Any,
    ) -> None:
        """Fold one executed stream slab (hook for the validator)."""
        consume(slab)

    def run(self, schedule: ProtocolSchedule) -> Any:
        """Execute ``schedule`` to completion and return its result.

        The emitter's ``StopIteration`` value is the protocol result —
        emitters ``return`` it like any generator.

        Wall time spent *inside* the emitter (mask construction,
        protocol state folds between segments) accrues to the
        network's ``phase_timing["plan"]`` bucket; segment execution
        fills the other buckets (streamed windows per stage, decision
        steps and materialized windows as ``"deliver"``).
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
                t0 = perf_counter()
                reply = self._execute_window(segment.masks)
                timing["deliver"] += perf_counter() - t0
            elif isinstance(segment, StreamedWindow):
                if (
                    segment.consume is None
                    and segment.consume_coo is None
                    and segment.sections is None
                ):
                    raise ProtocolError(
                        "schedule yielded a StreamedWindow without a "
                        "consume callback; generator-form emitters must "
                        "bind one (plan/commit sources get theirs from "
                        "segment_schedule)"
                    )
                self._execute_stream(segment)
                reply = None
            elif isinstance(segment, DecisionStep):
                self._charge(1)
                t0 = perf_counter()
                reply = self._execute_step(segment.mask)
                timing["deliver"] += perf_counter() - t0
            elif isinstance(segment, TracePhase):
                self.network.trace.enter_phase(segment.name)
                reply = None
            else:
                raise ProtocolError(
                    f"schedule yielded a non-segment: {segment!r}"
                )

    def run_segments(
        self, source: SegmentProtocol, rng: np.random.Generator
    ) -> Any:
        """Drive a plan/commit source to completion on this runner."""
        return self.run(segment_schedule(source, rng))


def run_schedule(
    network: RadioNetwork,
    schedule: ProtocolSchedule,
    max_steps: int | None = None,
    delivery: str = "auto",
    chunk_steps: int | None = None,
    mem_budget: int | None = None,
) -> Any:
    """One-shot convenience: ``WindowedRunner(network, ...).run(...)``."""
    return WindowedRunner(
        network,
        max_steps=max_steps,
        delivery=delivery,
        chunk_steps=chunk_steps,
        mem_budget=mem_budget,
    ).run(schedule)


def segment_schedule(
    source: SegmentProtocol, rng: np.random.Generator
) -> ProtocolSchedule:
    """Drive a :class:`SegmentProtocol` as a generator-form schedule.

    ``plan`` and ``commit`` alternate with nothing in between — the
    degenerate (single-stream) interleaving, under which the plan/commit
    form is trivially equivalent to the generator form. Returns
    ``source.result()``.

    Streamed windows
    (:class:`~repro.engine.segments.StreamedWindow`) planned without a
    ``consume`` callback — the
    :class:`~repro.engine.streaming.StreamingSegmentProtocol` form —
    have their chunks routed to the source's ``commit(hear_chunk)``,
    one call per executed chunk in step order; no trailing whole-window
    commit follows (there is no materialized reply to deliver).
    """
    while True:
        segment = source.plan(rng)
        if segment is None:
            return source.result()
        if isinstance(segment, TracePhase):
            yield segment
            source.commit(None)
        elif isinstance(segment, StreamedWindow):
            if segment.consume is None and segment.sections is None:
                segment = dataclasses.replace(
                    segment, consume=source.commit
                )
            yield segment
        else:
            reply = yield segment
            source.commit(reply)


def protocol_schedule(
    protocol: Any,
    rng: np.random.Generator,
    steps: int | None = None,
) -> ProtocolSchedule:
    """Adapt a legacy :class:`~repro.radio.protocol.Protocol` object.

    Yields one :class:`DecisionStep` per protocol step (every legacy
    step is conservatively treated as adaptive) until the protocol
    finishes — or for exactly ``steps`` steps, whichever comes first,
    mirroring :func:`repro.radio.protocol.run_steps`. Because the
    adapter calls ``transmit_mask`` and ``observe`` in exactly the
    step-wise drivers' order, running it on a :class:`WindowedRunner`
    is bit-identical to :func:`~repro.radio.protocol.run_steps` on the
    same seed. Returns ``protocol.result()`` when the protocol
    finished, else ``None``.
    """
    if steps is not None and steps < 0:
        raise ProtocolError(f"steps must be >= 0, got {steps}")
    taken = 0
    while not protocol.finished and (steps is None or taken < steps):
        hear_from = yield DecisionStep(protocol.transmit_mask(rng))
        protocol.observe(hear_from)
        taken += 1
    return protocol.result() if protocol.finished else None


class ProtocolSegmentSource(SegmentProtocol):
    """Plan/commit lift of a legacy :class:`~repro.radio.protocol.Protocol`.

    Each ``plan`` call produces the protocol's next transmit mask as a
    width-1 :class:`~repro.engine.segments.ObliviousWindow`; ``commit``
    feeds the delivered ``hear_from`` row to ``observe``. Because plan
    is only ever called at a clean frontier, ``transmit_mask`` and
    ``observe`` run at exactly the causal points the step-wise drivers
    would call them — the same guarantee :func:`protocol_schedule`
    gives, now in the form the :func:`~repro.engine.mux.multiplex`
    combinator can zip.

    Parameters
    ----------
    protocol:
        The protocol to lift.
    steps:
        Optional step bound, mirroring :func:`protocol_schedule`'s
        ``steps``. For a *deterministic-length* protocol, pass its exact
        step count: :meth:`steps_remaining` then reports the exact
        remainder, which is what entitles the multiplexer to batch past
        the reference drivers' per-step termination checks. Passing a
        ``steps`` larger than the protocol's true length is safe only
        outside the multiplexer (the protocol's ``finished`` flag still
        ends the stream, but the remainder estimate goes stale).
    """

    def __init__(self, protocol: Any, steps: int | None = None) -> None:
        super().__init__(protocol.n)
        if steps is not None and steps < 0:
            raise ProtocolError(f"steps must be >= 0, got {steps}")
        self.protocol = protocol
        self.steps = steps
        self._planned = 0
        self._awaiting_commit = False

    def plan(self, rng: np.random.Generator) -> ObliviousWindow | None:
        if self._awaiting_commit:
            raise ProtocolError(
                "ProtocolSegmentSource.plan() before the previous step "
                "was committed"
            )
        if self.protocol.finished or (
            self.steps is not None and self._planned >= self.steps
        ):
            return None
        mask = self.protocol.transmit_mask(rng)
        self._planned += 1
        self._awaiting_commit = True
        return ObliviousWindow(np.asarray(mask)[None, :])

    def commit(self, reply: np.ndarray) -> None:
        if not self._awaiting_commit:
            raise ProtocolError(
                "ProtocolSegmentSource.commit() without a planned step"
            )
        self.protocol.observe(reply[0])
        self._awaiting_commit = False

    def steps_remaining(self) -> int | None:
        if self.protocol.finished:
            return 0
        if self.steps is not None:
            return self.steps - self._planned
        return None

    def result(self) -> Any:
        return self.protocol.result() if self.protocol.finished else None


__all__ = [
    "DELIVERY_MODES",
    "ProtocolSegmentSource",
    "WindowedRunner",
    "protocol_schedule",
    "run_schedule",
    "segment_schedule",
]
