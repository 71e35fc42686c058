"""The ``ProtocolSchedule`` intermediate representation.

A *schedule emitter* is a generator that describes a packet-level
protocol as a stream of segments instead of imperative ``deliver``
calls::

    def my_schedule(network, rng):
        hear = yield ObliviousWindow(mask[None, :])  # one adaptive step
        window = yield ObliviousWindow(masks)        # a batch of fixed steps
        ...
        return result                                # via StopIteration

The generator receives, through ``send``, exactly what the network
delivered for the segment it yielded: a ``(w, n)`` ``hear_from``
matrix for an :class:`ObliviousWindow`, ``None`` for a
:class:`StreamedWindow` (folded chunk by chunk) or a
:class:`TracePhase`. An adaptive step — one whose mask depends on
everything heard so far — is simply a width-1 window: the emitter
plans it after folding the previous reply, which is all adaptivity
needs. Emitters never touch the network themselves; execution is
entirely the runner's business, which is what lets one protocol
description run bit-identically under any chunking.

The obliviousness contract
--------------------------
Yielding an :class:`ObliviousWindow` is a *promise*: none of the
window's masks depends on anything heard inside the window. Every mask
may (and usually does) depend on receptions from segments already
completed, and on randomness drawn while building the window. Emitters
must consume the protocol generator in the same order as the step-wise
reference implementation — every oblivious block draws one key, at the
block's first step (:mod:`repro.engine.sampler`) — which is what keeps
engine and reference runs on one seed bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator, Union

import numpy as np

@dataclasses.dataclass
class ObliviousWindow:
    """A block of radio steps with masks fixed before the block starts.

    ``masks`` has shape ``(w, n)``; row ``t`` is the transmit mask of
    window step ``t``. The runner answers with the ``(w, n)``
    ``hear_from`` matrix — what
    :meth:`repro.radio.network.RadioNetwork.deliver_window` returns.
    A width-1 window is one adaptive step
    (:func:`~repro.engine.runner.protocol_schedule` lifts step-wise
    protocols this way).
    """

    masks: np.ndarray


@dataclasses.dataclass
class TransmitterPlan:
    """A lazily sampled window of transmitter sets (COO form).

    ``transmitters(start, stop)`` returns the transmitters of window
    steps ``start .. stop - 1`` as int64 ``(steps, nodes)`` pairs —
    ``steps`` relative to ``start``, row-major, nodes ascending within
    a step — instead of ``(stop - start, n)`` boolean masks. The
    runner calls it for consecutive, non-overlapping intervals covering
    ``[0, total_steps)`` in order, exactly once each, so a producer may
    draw lazily and still consume its randomness in one fixed order;
    emitters whose rows are keyed samples
    (:class:`~repro.engine.sampler.RowSampler`) produce the same pairs
    whatever the interval boundaries.
    """

    total_steps: int
    transmitters: Callable[[int, int], tuple[np.ndarray, np.ndarray]]


@dataclasses.dataclass
class PlanSection:
    """One phase-labeled span of a fused :class:`StreamedWindow`.

    A fused plan concatenates what used to be several back-to-back
    streamed windows (the two Decay blocks of a Radio MIS round, the
    density levels of an EED block) into one plan. Sections keep the
    pieces' identities: ``width`` rows of the plan, an optional trace
    ``phase`` the runner enters when the section starts, and the
    section's own fold ``consume_coo(k, steps, nodes, senders)`` — the
    ``k``-step chunk's clean receptions as parallel int64 arrays:
    ``steps`` chunk-relative, ``nodes`` and ``senders`` global ids,
    arbitrary order.

    The runner never lets an executed chunk straddle a section
    boundary, so a section's callback sees exactly the rows of its own
    span — which is what lets a fused emitter switch per-section state
    (the second Decay block's membership depends on the first's
    outcome) inside one plan.
    """

    width: int
    phase: str | None = None
    consume_coo: (
        Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None
    ) = None


@dataclasses.dataclass
class StreamedWindow:
    """An oblivious window executed as a stream of bounded chunks.

    The out-of-core form of :class:`ObliviousWindow`: instead of
    materializing ``(w, n)`` masks and receiving a ``(w, n)``
    ``hear_from`` reply, the segment carries a lazy
    :class:`TransmitterPlan` and the runner executes it chunk by chunk
    on the transmitter-pair product, folding each chunk's reception
    triples through ``consume_coo`` as it is produced. The runner's
    reply to the segment is ``None`` — by the time the generator
    resumes, every chunk has already been folded. Chunks arrive in step
    order, so an order-dependent fold (first-hear semantics) is exactly
    the fold of the monolithic reply.

    The obliviousness promise of :class:`ObliviousWindow` applies
    unchanged: no row may depend on anything heard inside the window.
    The chunk size is the *runner's* choice (its ``chunk_steps``
    height, from the policy's ``mem_budget``) — a memory knob, never a
    semantics knob, because plans produce rows lazily in row order.
    """

    plan: TransmitterPlan
    #: Reception-triple fold (see :class:`PlanSection`).
    consume_coo: (
        Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None
    ) = None
    #: Fused multi-phase form: when set, a tuple of
    #: :class:`PlanSection` whose widths sum to ``plan.total_steps``;
    #: the sections' folds replace ``consume_coo``.
    sections: tuple[PlanSection, ...] | None = None


@dataclasses.dataclass
class TracePhase:
    """Switch the network trace's current phase (costs no radio step).

    The runner answers with ``None``.
    """

    name: str


Segment = Union[ObliviousWindow, StreamedWindow, TracePhase]
"""A single element of a protocol schedule."""

ProtocolSchedule = Generator[Segment, Any, Any]
"""The emitter type: yields segments, receives delivery results, and
returns the protocol's result via ``StopIteration.value``."""


__all__ = [
    "ObliviousWindow",
    "PlanSection",
    "ProtocolSchedule",
    "Segment",
    "StreamedWindow",
    "TracePhase",
    "TransmitterPlan",
]
