"""The unified windowed protocol engine (the scheduler layer).

Packet-level protocols in this package no longer drive
:meth:`repro.radio.network.RadioNetwork.deliver` one step at a time.
Instead each protocol is a *schedule emitter*: a generator that yields a
stream of :mod:`segments <repro.engine.segments>` —

* :class:`~repro.engine.segments.ObliviousWindow` — a block of radio
  steps whose transmit masks are all fixed before the first of them
  executes (Decay sweeps, EstimateEffectiveDegree levels, round-robin
  rotations, background blocks);
* :class:`~repro.engine.segments.DecisionStep` — a single step whose
  mask may depend on everything heard so far (slot-schedule passes,
  marking decisions);
* :class:`~repro.engine.segments.TracePhase` — a trace-attribution
  switch (no radio step).

and the :class:`~repro.engine.runner.WindowedRunner` executes the
stream: oblivious windows as transmitter pairs through the one exact
sparse product of
:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`, decision
points through the fused single-step
:meth:`~repro.radio.network.RadioNetwork.deliver` path. The runner
preserves the exact rng stream, ``steps_elapsed`` count, and trace
totals of the step-wise loops it replaces — the contract every
``*_reference`` implementation, ``tests/test_engine_windowed.py``, and
the :mod:`repro.engine.validate` harness pin down (see DESIGN.md, "The
engine layer").

On top of the generator form sits the *plan/commit* form
(:class:`~repro.engine.segments.SegmentProtocol`): planning the next
segment and committing the previous segment's receptions are separate
calls, which is what lets the :func:`~repro.engine.mux.multiplex`
combinator zip two protocols' planned windows into joint oblivious
windows — how Intra-Cluster Propagation runs its slot passes and its
time-multiplexed Decay background as window products instead of one
decision step per radio step.

Orthogonal to both forms is *streaming* execution
(:mod:`repro.engine.streaming`): a window too wide to materialize is
carried as a :class:`~repro.engine.segments.StreamedWindow` — a lazily
sampled :class:`~repro.engine.segments.TransmitterPlan` (rows drawn by
:mod:`repro.engine.sampler`) plus a per-chunk fold — and the runner
executes it in bounded chunks, with the chunk height derived from a
peak-memory budget, at a cost that follows the transmissions rather
than ``n`` times the steps (DESIGN.md, "Streaming windows" and "The
rng-stream contract"). Materialized windows wider than the bound run
on the same chunk loop.
"""

from .kernels import DeliveryKernels
from .mux import multiplex
from .policy import (
    ENGINE_MODES,
    ExecutionPolicy,
    TRACE_MODES,
    parse_mem_budget,
)
from .runner import (
    ProtocolSegmentSource,
    WindowedRunner,
    protocol_schedule,
    run_schedule,
)
from .sampler import STREAM_VERSION, RowSampler
from .segments import (
    COIN_BUDGET,
    DecisionStep,
    ObliviousWindow,
    PlanSection,
    ProtocolSchedule,
    Segment,
    SegmentProtocol,
    StreamedWindow,
    TracePhase,
    TransmitterPlan,
    coin_chunk,
)
from .streaming import (
    STREAM_CELL_BYTES,
    chunk_steps_for_budget,
    memory_budget,
    resolve_chunk_steps,
    set_memory_budget,
)
from .validate import ObliviousnessViolationError, ValidatingRunner

__all__ = [
    "COIN_BUDGET",
    "DeliveryKernels",
    "ENGINE_MODES",
    "DecisionStep",
    "ExecutionPolicy",
    "PlanSection",
    "RowSampler",
    "STREAM_VERSION",
    "TRACE_MODES",
    "ObliviousnessViolationError",
    "ObliviousWindow",
    "ProtocolSchedule",
    "ProtocolSegmentSource",
    "STREAM_CELL_BYTES",
    "Segment",
    "SegmentProtocol",
    "StreamedWindow",
    "TracePhase",
    "TransmitterPlan",
    "ValidatingRunner",
    "WindowedRunner",
    "chunk_steps_for_budget",
    "coin_chunk",
    "memory_budget",
    "multiplex",
    "parse_mem_budget",
    "protocol_schedule",
    "resolve_chunk_steps",
    "run_schedule",
    "set_memory_budget",
]
