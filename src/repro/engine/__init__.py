"""The unified windowed protocol engine (the scheduler layer).

Packet-level protocols in this package no longer drive
:meth:`repro.radio.network.RadioNetwork.deliver` one step at a time.
Instead each protocol is a *schedule emitter*: a generator that yields a
stream of :mod:`segments <repro.engine.segments>` of two kinds —

* :class:`~repro.engine.segments.StreamedWindow` — a block of radio
  steps whose transmitters are all fixed before the first of them
  executes (Decay, one EED level, a BGI sweep, a wake-up block),
  carried as a lazily sampled
  :class:`~repro.engine.segments.TransmitterPlan` plus one per-chunk
  fold; an adaptive step, whose transmitters depend on everything
  heard so far, is a one-row window;
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
one lift, :func:`~repro.engine.runner.protocol_schedule`, one one-row
window per protocol step. Intra-Cluster Propagation rides it with its
whole :class:`~repro.radio.protocol.TimeMultiplexer` stack — the slot
passes and their time-multiplexed Decay background — the same stack
its step-wise reference hands to :func:`~repro.radio.protocol
.run_steps`.

Windows run in bounded chunks (:mod:`repro.engine.streaming`), with
the chunk height derived from the policy's peak-memory budget, at a
cost that follows the transmissions rather than ``n`` times the steps
(rows drawn by :mod:`repro.engine.sampler`; DESIGN.md, "Streaming
windows" and "The rng-stream contract").
"""

from .kernels import DeliveryKernels
from .policy import ENGINE_MODES, ExecutionPolicy, parse_mem_budget
from .runner import WindowedRunner, protocol_schedule
from .sampler import STREAM_VERSION, RowSampler
from .segments import (
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
    "RowSampler",
    "STREAM_VERSION",
    "ObliviousnessViolationError",
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
