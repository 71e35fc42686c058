"""The ``ProtocolSchedule`` intermediate representation.

A *schedule emitter* is a generator that describes a packet-level
protocol as a stream of segments instead of imperative ``deliver``
calls::

    def my_schedule(network, rng):
        yield TracePhase("my/phase")
        yield StreamedWindow(TransmitterPlan(w, rows), consume_coo=fold)
        ...
        return result                  # via StopIteration

There are two segment kinds. A :class:`StreamedWindow` is a block of
radio steps: a lazy :class:`TransmitterPlan` plus the fold its
receptions land in, chunk by chunk. A :class:`TracePhase` switches the
trace's attribution. The runner answers every segment with ``None``:
by the time the generator resumes, the window's receptions are folded.
An adaptive step — one whose transmitters depend on everything heard
so far — is simply a one-row window: the emitter plans it after the
previous window's fold, which is all adaptivity needs. Emitters never
touch the network themselves; execution is entirely the runner's
business, which is what lets one protocol description run
bit-identically under any chunking.

The obliviousness contract
--------------------------
Yielding a :class:`StreamedWindow` is a *promise*: none of the
window's rows depends on anything heard inside the window. Every row
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
class StreamedWindow:
    """An oblivious window executed as a stream of bounded chunks.

    The segment carries a lazy :class:`TransmitterPlan` and the runner
    executes it chunk by chunk on the transmitter-pair product, folding
    each chunk's clean receptions through ``consume_coo(k, steps,
    nodes, senders)`` as they are produced: the ``k``-step chunk's
    reception triples as parallel int64 arrays, ``steps``
    chunk-relative, ``nodes`` and ``senders`` global ids, in arbitrary
    order. Chunks arrive in step order, so an order-dependent fold
    (first-hear semantics) is exactly the fold of one monolithic
    reply.

    The chunk height is the *runner's* choice (its ``chunk_steps``,
    from the policy's ``mem_budget``) — a memory knob, never a
    semantics knob, because plans produce rows lazily in row order.
    """

    plan: TransmitterPlan
    consume_coo: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


@dataclasses.dataclass
class TracePhase:
    """Switch the network trace's current phase (costs no radio step).

    The runner answers with ``None``.
    """

    name: str


Segment = Union[StreamedWindow, TracePhase]
"""A single element of a protocol schedule."""

ProtocolSchedule = Generator[Segment, Any, Any]
"""The emitter type: yields segments, receives ``None`` for each, and
returns the protocol's result via ``StopIteration.value``."""


__all__ = [
    "ProtocolSchedule",
    "Segment",
    "StreamedWindow",
    "TracePhase",
    "TransmitterPlan",
]
