"""The unified windowed protocol engine (the scheduler layer).

Packet-level protocols in this package no longer drive
:meth:`repro.radio.network.RadioNetwork.deliver` one step at a time.
Instead each protocol is a *schedule emitter*: a generator that yields a
stream of :mod:`segments <repro.engine.segments>` —

* :class:`~repro.engine.segments.ObliviousWindow` — a block of radio
  steps whose transmit masks are all fixed before the first of them
  executes; an adaptive step, whose mask depends on everything heard
  so far, is a width-1 window (the only kind in-tree emitters yield);
* :class:`~repro.engine.segments.StreamedWindow` — an oblivious block
  (Decay, EED, MIS, a BGI sweep, a wake-up block), carried as a lazily
  sampled :class:`~repro.engine.segments.TransmitterPlan` plus a
  per-chunk fold;
* :class:`~repro.engine.segments.TracePhase` — a trace-attribution
  switch (no radio step).

and the :class:`~repro.engine.runner.WindowedRunner` executes the
stream: every window as transmitter pairs through the one exact sparse
product of
:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`. The runner
preserves the exact rng stream, ``steps_elapsed`` count, and trace
totals of the step-wise loops it replaces — the contract every
``*_reference`` implementation, ``tests/test_engine_windowed.py``, and
the :mod:`repro.engine.validate` harness pin down (see DESIGN.md, "The
engine layer").

Step-wise :class:`~repro.radio.protocol.Protocol` objects enter through
one lift, :func:`~repro.engine.runner.protocol_schedule`, one width-1
window per protocol step. Intra-Cluster Propagation rides it with its
whole :class:`~repro.radio.protocol.TimeMultiplexer` stack — the slot
passes and their time-multiplexed Decay background — the same stack
its step-wise reference hands to :func:`~repro.radio.protocol
.run_steps`.

*Streamed* windows (:mod:`repro.engine.streaming`) run in bounded
chunks, with the chunk height derived from the policy's peak-memory
budget, at a cost that follows the transmissions rather than ``n``
times the steps (rows drawn by :mod:`repro.engine.sampler`; DESIGN.md,
"Streaming windows" and "The rng-stream contract"). Materialized
windows taller than the chunk height run on the same chunk loop.
"""

from .kernels import DeliveryKernels
from .policy import ENGINE_MODES, ExecutionPolicy, parse_mem_budget
from .runner import WindowedRunner, protocol_schedule
from .sampler import STREAM_VERSION, RowSampler
from .segments import (
    ObliviousWindow,
    PlanSection,
    ProtocolSchedule,
    Segment,
    StreamedWindow,
    TracePhase,
    TransmitterPlan,
)
from .streaming import STREAM_CELL_BYTES, chunk_steps_for_budget
from .validate import ObliviousnessViolationError, ValidatingRunner

__all__ = [
    "DeliveryKernels",
    "ENGINE_MODES",
    "ExecutionPolicy",
    "PlanSection",
    "RowSampler",
    "STREAM_VERSION",
    "ObliviousnessViolationError",
    "ObliviousWindow",
    "ProtocolSchedule",
    "STREAM_CELL_BYTES",
    "Segment",
    "StreamedWindow",
    "TracePhase",
    "TransmitterPlan",
    "ValidatingRunner",
    "WindowedRunner",
    "chunk_steps_for_budget",
    "parse_mem_budget",
    "protocol_schedule",
]
