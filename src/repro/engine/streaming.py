"""Streaming window execution: memory budgets and chunk heights.

The windowed engine's one scaling wall was the dense ``(w, n)``
hear-window: a protocol block of ``w`` oblivious steps materialized
``w * n`` masks, coins, and ``hear_from`` cells at once, so experiments
stalled around ``n = 10^4`` however fast the kernels were. This module
is the policy layer of the fix (the mechanism is the
:class:`~repro.engine.runner.WindowedRunner` chunk loop over the
:class:`~repro.engine.segments.StreamedWindow`'s sampled
:class:`~repro.engine.segments.TransmitterPlan`): a **cost model**
turning a target peak-byte budget into the ``chunk_steps`` height the
runner executes every window at (:func:`chunk_steps_for_budget`). The
budget is one explicit :class:`~repro.engine.policy.ExecutionPolicy`
field with one default (256 MiB); there is no process-wide setting.

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

#: Cost-model bytes per (window step, node) cell of a streamed chunk.
#: Every chunk runs the one transmitter-pair product, whose output is
#: at most one 12-byte entry per cell (capped at ``k * n`` entries
#: whatever the degrees); half-duplex comes from the product's own
#: ``A + 2I`` diagonal, so no per-cell array exists. Reception triples
#: exist only for clean cells, and the chunk's transmitters are
#: 16-byte pairs, not masks. ``A + 2I`` is per-graph storage, not chunk
#: memory. 64 bytes a cell keeps the memory-ceiling regressions' margin
#: wide across numpy versions — the savings of the transmitter-pair
#: form are banked as headroom rather than spent on taller chunks.
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


__all__ = [
    "STREAM_CELL_BYTES",
    "chunk_steps_for_budget",
]
