"""Streaming window execution: memory budgets and the chunked
plan/commit form.

The windowed engine's one scaling wall was the dense ``(w, n)``
hear-window: a protocol block of ``w`` oblivious steps materialized
``w * n`` masks, coins, and ``hear_from`` cells at once, so experiments
stalled around ``n = 10^4`` however fast the kernels were. This module
is the policy layer of the fix (the mechanism is the
:class:`~repro.engine.runner.WindowedRunner` chunk loop and the
:class:`~repro.engine.segments.StreamedWindow` segment):

* a **cost model** turning a target peak-byte budget into the
  ``chunk_steps`` slab height the runner streams at
  (:func:`chunk_steps_for_budget`), plus a process-wide default budget
  (:func:`set_memory_budget`) so experiment harnesses can impose one
  cap across every protocol a trial runs;

* the **streaming plan/commit form**
  (:class:`StreamingSegmentProtocol`): a
  :class:`~repro.engine.segments.SegmentProtocol` whose
  ``commit(hear_chunk)`` is called once per executed chunk of a
  streamed window, in step order, instead of once with the whole
  ``(w, n)`` reply;

* the **compatibility adapter** (:class:`StreamedCommitAdapter`)
  lifting any whole-window :class:`~repro.engine.segments
  .SegmentProtocol` onto the streaming interface unmodified — planned
  windows execute chunk-wise (bounding the kernels' working set) and
  the chunks are buffered back into the one whole-window ``commit`` the
  wrapped source expects.

Bit-identity: chunking never changes results. Window steps are
independent given their transmitters, the delivery product computes
exact small-integer sums, plans draw their coins lazily in row order
(stream-identical to one monolithic draw), and chunks are folded in
step order — so streamed execution reproduces the monolithic path
bit-for-bit: results, ``steps_elapsed``, trace totals, and the final
rng state (pinned by ``tests/test_engine_streaming.py`` across chunk
sizes including the ``1``, ``w``, and ``w + 1`` boundary cases).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..radio.errors import ProtocolError
from ..radio.network import as_transmit_plan
from .segments import (
    ObliviousWindow,
    Segment,
    SegmentProtocol,
    StreamedWindow,
    coin_chunk,
)

#: Cost-model bytes per (window step, node) cell of a streamed chunk.
#: Every chunk runs the one transmitter-pair product, whose output is
#: at most one 12-byte entry per cell (capped at ``k * n`` entries
#: whatever the degrees) next to a one-byte-per-cell half-duplex
#: bitmap; reception triples exist only for clean cells. A mask plan's
#: chunk adds its boolean masks (1), the pairs read off them (16 per
#: transmitter) and the int64 hear slab its fold expects (8); a
#: transmitter-list chunk has neither masks nor slab. 64 bytes a cell
#: keeps the memory-ceiling regressions' margin wide across numpy
#: versions, and is deliberately NOT lowered for the leaner form: the
#: model is one ceiling for both plan forms, with the savings banked
#: as headroom rather than spent on taller chunks.
STREAM_CELL_BYTES = 64

#: Process-wide default memory budget in bytes (None = no budget).
_default_memory_budget: int | None = None


def chunk_steps_for_budget(n: int, mem_budget: int) -> int:
    """Slab height that keeps one streamed chunk near ``mem_budget`` bytes.

    The :data:`STREAM_CELL_BYTES` cost model: a chunk of ``k`` steps
    over ``n`` nodes costs about ``k * n * STREAM_CELL_BYTES`` bytes of
    working set, so ``k = mem_budget / (n * STREAM_CELL_BYTES)``,
    floored at one row (a window can never stream finer than one step).
    """
    if mem_budget < 1:
        raise ProtocolError(
            f"mem_budget must be >= 1 byte, got {mem_budget}"
        )
    return max(1, mem_budget // (STREAM_CELL_BYTES * max(1, n)))


def set_memory_budget(mem_budget: int | None) -> None:
    """Set the process-wide default peak-memory target for streaming.

    Runners whose ``chunk_steps``/``mem_budget`` knobs are unset resolve
    their slab height from this budget (see :func:`resolve_chunk_steps`).
    ``None`` clears it. Experiment harnesses
    (:func:`repro.analysis.experiments.run_trials`) set it around each
    trial — including inside process-pool workers — so one knob caps
    every protocol a trial runs.
    """
    global _default_memory_budget
    if mem_budget is not None and mem_budget < 1:
        raise ProtocolError(
            f"mem_budget must be >= 1 byte, got {mem_budget}"
        )
    _default_memory_budget = mem_budget


def memory_budget() -> int | None:
    """The process-wide default memory budget (None = unset)."""
    return _default_memory_budget


def resolve_chunk_steps(
    n: int,
    chunk_steps: int | None = None,
    mem_budget: int | None = None,
) -> int | None:
    """Resolve the streaming slab height from the three knob layers.

    Precedence: an explicit ``chunk_steps`` wins; else an explicit
    ``mem_budget`` is converted through the cost model; else the
    process-wide default budget; else ``None`` — meaning "no configured
    bound" (runners then fall back to the legacy
    :func:`~repro.engine.segments.coin_chunk` granularity for streamed
    plans and leave materialized windows unchunked).
    """
    if chunk_steps is not None:
        if chunk_steps < 1:
            raise ProtocolError(
                f"chunk_steps must be >= 1, got {chunk_steps}"
            )
        return chunk_steps
    if mem_budget is not None:
        return chunk_steps_for_budget(n, mem_budget)
    if _default_memory_budget is not None:
        return chunk_steps_for_budget(n, _default_memory_budget)
    return None


def default_stream_chunk(n: int, resolved: int | None) -> int:
    """Slab height for a streamed plan: the resolved knob, or the legacy
    coin-budget granularity (what the pre-streaming emitters chunked
    their coin draws at, keeping default-memory behavior unchanged)."""
    return resolved if resolved is not None else coin_chunk(n)


class StreamingSegmentProtocol(SegmentProtocol):
    """A plan/commit source whose window commits arrive chunk-wise.

    The streaming counterpart of :class:`~repro.engine.segments
    .SegmentProtocol`: ``plan`` may return a
    :class:`~repro.engine.segments.StreamedWindow` (typically built with
    :meth:`stream`, leaving ``consume`` unset), and the driver then
    calls ``commit(hear_chunk)`` once per executed chunk, in step
    order — the final chunk of a segment is recognizable by the source's
    own step accounting (it knows its plan's ``total_steps``). Segments
    other than streamed windows keep the whole-reply commit contract of
    the base class.

    Randomness discipline is unchanged *in order* but not in place: a
    streamed plan's coins are drawn lazily inside
    ``TransmitPlan.masks``, between ``plan`` and the chunk commits, in
    row order — the same stream as the reference's per-step draws.
    """

    def stream(self, plan) -> StreamedWindow:
        """Wrap a plan for this source: chunks route to ``commit``."""
        return StreamedWindow(plan, consume=None)


class StreamedCommitAdapter(StreamingSegmentProtocol):
    """Lift a whole-window :class:`~repro.engine.segments.SegmentProtocol`
    onto the streaming interface, unmodified.

    Planned :class:`~repro.engine.segments.ObliviousWindow` segments are
    re-emitted as streamed windows, so the runner executes them through
    the bounded chunk kernels; the executed chunks are buffered and the
    wrapped source's ``commit`` receives the one stacked ``(w, n)``
    reply it was written for. The memory win is accordingly partial —
    kernel intermediates are bounded by ``chunk_steps`` but the full
    reply still materializes at the commit boundary — which is exactly
    the compatibility trade: existing sources run on the streaming
    pipeline with zero changes, and sources that want the full win
    implement :class:`StreamingSegmentProtocol` natively (fold each
    chunk, never stack).

    Other segment kinds (decision steps, zero-width windows,
    :class:`~repro.engine.segments.TracePhase`) pass through untouched
    with the whole-reply commit.
    """

    def __init__(self, source: SegmentProtocol) -> None:
        super().__init__(source.n)
        self.source = source
        self._streaming = False
        self._chunks: list[np.ndarray] = []
        self._pending = 0

    def plan(self, rng: np.random.Generator) -> Segment | None:
        if self._pending:
            raise ProtocolError(
                "StreamedCommitAdapter.plan() before the previous "
                "window's chunks were all committed"
            )
        segment = self.source.plan(rng)
        if isinstance(segment, ObliviousWindow) and segment.masks.shape[0]:
            self._streaming = True
            self._chunks = []
            self._pending = segment.masks.shape[0]
            return self.stream(as_transmit_plan(segment.masks))
        self._streaming = False
        return segment

    def commit(self, reply: Any) -> None:
        if not self._streaming:
            self.source.commit(reply)
            return
        self._chunks.append(reply)
        self._pending -= reply.shape[0]
        if self._pending < 0:
            raise ProtocolError(
                "StreamedCommitAdapter received more chunk rows than "
                "the planned window holds"
            )
        if self._pending == 0:
            stacked = (
                self._chunks[0]
                if len(self._chunks) == 1
                else np.concatenate(self._chunks, axis=0)
            )
            self._chunks = []
            self._streaming = False
            self.source.commit(stacked)

    def steps_remaining(self) -> int | None:
        return self.source.steps_remaining()

    def result(self) -> Any:
        return self.source.result()


__all__ = [
    "STREAM_CELL_BYTES",
    "StreamedCommitAdapter",
    "StreamingSegmentProtocol",
    "chunk_steps_for_budget",
    "default_stream_chunk",
    "memory_budget",
    "resolve_chunk_steps",
    "set_memory_budget",
]
