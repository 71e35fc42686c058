"""The windowed protocol engine.

Packet-level protocols in this package do not drive
:meth:`repro.radio.network.RadioNetwork.deliver` one step at a time.
Each protocol keeps one loop, and every block of radio steps whose
transmitters are all fixed before the first of them executes — a Decay
block, an EED block, a BGI sweep, a wake-up block — it hands to the
:class:`~repro.engine.runner.WindowedRunner` as one
:class:`~repro.engine.runner.StreamedWindow`: a lazy source of
transmitter pairs plus one per-chunk fold. The runner executes every
window through the one exact sparse product of
:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`, preserving
the exact rng stream, ``steps_elapsed`` count, and trace totals of the
step-wise loop — the contract every ``*_reference`` twin (the same
loop under ``ExecutionPolicy(engine="reference")``),
``tests/test_engine_windowed.py``, and the :mod:`repro.engine.validate`
harness pin down (see DESIGN.md, "The engine layer"). A keyed block
is a :class:`~repro.engine.runner.SampledBlock`, the one class that
draws a block key and forks between the engines.

Step-wise :class:`~repro.radio.protocol.Protocol` objects run through
:meth:`~repro.engine.runner.WindowedRunner.run_steps`, one one-row
window per protocol step. Intra-Cluster Propagation rides it with its
whole :class:`~repro.radio.protocol.TimeMultiplexer` stack — the slot
passes and their time-multiplexed Decay background — the same stack
its step-wise reference hands to :func:`~repro.radio.protocol
.run_steps`.

Windows run in bounded chunks (:mod:`repro.engine.streaming`): at
most the row cap the policy's peak-memory budget buys, cut below it
where the rows' expected work reaches a target set by ``n``, at a
cost that follows the transmissions rather than ``n`` times the steps
(rows drawn by :mod:`repro.engine.sampler`; DESIGN.md, "Streaming
windows" and "The rng-stream contract").
"""

from .kernels import DeliveryKernels
from .policy import ENGINE_MODES, ExecutionPolicy, parse_mem_budget
from .runner import SampledBlock, StreamedWindow, WindowedRunner
from .sampler import STREAM_VERSION, RowSampler
from .streaming import STREAM_CELL_BYTES, chunk_steps_for_budget
from .validate import ObliviousnessViolationError, ValidatingRunner

__all__ = [
    "DeliveryKernels",
    "ENGINE_MODES",
    "ExecutionPolicy",
    "RowSampler",
    "STREAM_VERSION",
    "ObliviousnessViolationError",
    "STREAM_CELL_BYTES",
    "SampledBlock",
    "StreamedWindow",
    "ValidatingRunner",
    "WindowedRunner",
    "chunk_steps_for_budget",
    "parse_mem_budget",
]
