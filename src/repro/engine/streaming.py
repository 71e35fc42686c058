"""Streaming window execution: memory budgets and chunk heights.

The windowed engine's one scaling wall was the dense ``(w, n)``
hear-window: a protocol block of ``w`` oblivious steps materialized
``w * n`` masks, coins, and ``hear_from`` cells at once, so experiments
stalled around ``n = 10^4`` however fast the kernels were. This module
is the policy layer of the fix (the mechanism is the
:class:`~repro.engine.runner.WindowedRunner` chunk loop and the
:class:`~repro.engine.segments.StreamedWindow` segment over a sampled
:class:`~repro.engine.segments.TransmitterPlan`): a **cost model**
turning a target peak-byte budget into the ``chunk_steps`` height the
runner executes windows at (:func:`chunk_steps_for_budget`). The knobs
are explicit :class:`~repro.engine.policy.ExecutionPolicy` fields only;
there is no process-wide default. Streamed plans run at that height; a
materialized :class:`~repro.engine.segments.ObliviousWindow` wider than
it runs chunk-wise into its one reply, bounding the product's working
set.

Bit-identity: chunking never changes results. Window steps are
independent given their transmitters, the delivery product computes
exact small-integer sums, plans draw lazily in row order
(stream-identical to one monolithic draw), and chunks are folded in
step order — so chunked execution reproduces the monolithic path
bit-for-bit: results, ``steps_elapsed``, trace totals, and the final
rng state (pinned by ``tests/test_engine_streaming.py`` across chunk
sizes including the ``1``, ``w``, and ``w + 1`` boundary cases).
"""

from __future__ import annotations

from ..radio.errors import ProtocolError
from .segments import coin_chunk

#: Cost-model bytes per (window step, node) cell of a streamed chunk.
#: Every chunk runs the one transmitter-pair product, whose output is
#: at most one 12-byte entry per cell (capped at ``k * n`` entries
#: whatever the degrees) next to a one-byte-per-cell half-duplex
#: bitmap; reception triples exist only for clean cells. A chunk of a
#: materialized window adds the pairs read off its masks (16 per
#: transmitter); a transmitter-list chunk has no masks at all. 64 bytes
#: a cell keeps the memory-ceiling regressions' margin wide across
#: numpy versions — the savings of the lean transmitter-list form are
#: banked as headroom rather than spent on taller chunks.
STREAM_CELL_BYTES = 64


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


def resolve_chunk_steps(
    n: int,
    chunk_steps: int | None = None,
    mem_budget: int | None = None,
) -> int | None:
    """Resolve the streaming slab height from the two explicit knobs.

    Precedence: an explicit ``chunk_steps`` wins; else an explicit
    ``mem_budget`` is converted through the cost model; else ``None`` —
    meaning "no configured bound" (runners then fall back to the legacy
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
    return None


def default_stream_chunk(n: int, resolved: int | None) -> int:
    """Slab height for a streamed plan: the resolved knob, or the legacy
    coin-budget granularity (what the pre-streaming emitters chunked
    their coin draws at, keeping default-memory behavior unchanged)."""
    return resolved if resolved is not None else coin_chunk(n)


__all__ = [
    "STREAM_CELL_BYTES",
    "chunk_steps_for_budget",
    "default_stream_chunk",
    "resolve_chunk_steps",
]
