"""Window multiplexing: fuse planned protocol streams into one.

The paper's background processes run "concurrently via time
multiplexing" (Appendix A): a main protocol takes the even steps, a
background process the odd ones. Before this module, the engine could
only execute such a pair through the legacy-protocol adapter — every
multiplexed step a :class:`~repro.engine.segments.DecisionStep`, one
fused dense delivery per step — because the generator IR could not see
both protocols' upcoming windows at once. The plan/commit split
(:class:`~repro.engine.segments.SegmentProtocol`) removes that
limitation, and :func:`multiplex` is the payoff: it *zips* the
streams' planned mask rows into joint
:class:`~repro.engine.segments.ObliviousWindow` segments, which the
runner executes as transmitter-pair window products.
ICP's Decay background is the motivating case: its sweeps are planned
span-wide, so the fused run executes ~half as many delivery calls, each
a cheap sparse product over the few transmitters of a slot or a sweep
row, instead of one dense matvec per step.

The combinator is **k-way**: ``multiplex(main, *backgrounds, slots=...)``
zips one terminating main stream with any number of background streams,
the repeating ``slots`` pattern assigning each joint step to a stream
(``0`` the main, ``i >= 1`` the ``i``-th background). The default
pattern is strict round-robin over all streams — the paper's
time multiplexing for one background, its natural generalization
beyond.

Bit-identity argument (pinned by ``tests/test_engine_mux.py`` and the
fuzz suite): a radio step's ``hear_from`` is a pure function of that
step's mask, so *any* batching of already-planned rows delivers
identical receptions; what must be preserved is the causal order of
``plan`` and ``commit`` calls, because those are the points where
sources read shared state and draw randomness. The combinator
guarantees the reference drivers' order with one rule — **flush before
plan**: before any source plans, every row zipped so far is executed
(one joint window) and every completed segment committed, in row
order. A source therefore plans at exactly the multiplexed step where
the step-wise :class:`~repro.radio.protocol.TimeMultiplexer` would
have called its ``transmit_mask``, seeing the same shared state and
the same rng stream position.

Termination mirrors the reference drivers, which re-check
``main.finished`` between every pair of steps: the joint stream ends
*before* the first row that would follow the main stream's last one.
Batching across those checks is only sound when their outcomes are
predetermined, which is why the main stream must report an exact
:meth:`~repro.engine.segments.SegmentProtocol.steps_remaining` —
deterministic-length protocols like ICP's slot passes do; for anything
else the reference interleaving is the only faithful execution and
:func:`multiplex` refuses with a :class:`~repro.radio.errors
.ProtocolError` naming the offending source (one consistent refusal at
the combinator, wherever the call came from — the CLI's ``icp
--fused``, packet Compete's fused phases, or a direct call).

Streaming: with ``stream=True`` the flushed joint windows go out as
:class:`~repro.engine.segments.StreamedWindow` segments — the runner
executes them in bounded slabs and the combinator folds each slab's
rows (committing completed sub-segments, in row order) as it arrives,
so joint hear-windows never materialize whole. Commits then land
mid-window instead of after it, which is *closer* to the step-wise
drivers' observe-per-step order and reads the same shared state: no
source plans until the whole window is flushed either way.

:class:`~repro.engine.segments.TracePhase` is not allowed inside
multiplexed sub-streams — phase attribution is ambiguous when
protocols interleave (set the phase around the whole multiplexed run
instead). Nor are nested :class:`~repro.engine.segments
.StreamedWindow` plans: a sub-stream's planned rows must be
materialized to be zipped (the joint windows themselves are what
stream).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..radio.errors import ProtocolError
from ..radio.network import as_transmit_plan
from .segments import (
    DecisionStep,
    ObliviousWindow,
    ProtocolSchedule,
    SegmentProtocol,
    StreamedWindow,
    TracePhase,
)

#: Stream indices in the ``slots`` pattern (the first background; a
#: k-way pattern uses indices ``0 .. k``).
MAIN, BACKGROUND = 0, 1


def _coerce_masks(segment: Any, n: int, who: str) -> np.ndarray:
    """Validate a sub-stream's planned segment, returning its mask rows."""
    if isinstance(segment, TracePhase):
        raise ProtocolError(
            f"{who} planned a TracePhase inside multiplex(); "
            "phase attribution is ambiguous when protocols "
            "interleave — set the phase around the whole multiplexed "
            "run instead"
        )
    if isinstance(segment, StreamedWindow):
        raise ProtocolError(
            f"{who} planned a StreamedWindow inside multiplex(); "
            "sub-stream rows must be materialized to be zipped — "
            "plan ObliviousWindows and let the joint windows stream "
            "(multiplex(..., stream=True)) instead"
        )
    if isinstance(segment, DecisionStep):
        masks = np.asarray(segment.mask)[None, :]
    elif isinstance(segment, ObliviousWindow):
        masks = np.asarray(segment.masks)
    else:
        raise ProtocolError(
            f"{who} planned a non-segment: {segment!r}"
        )
    if masks.ndim != 2 or masks.shape[1] != n:
        raise ProtocolError(
            f"{who} planned masks of shape {masks.shape}, "
            f"expected (w, {n})"
        )
    if masks.dtype != np.bool_:
        raise ProtocolError(
            f"{who} planned masks of dtype {masks.dtype}, "
            "expected bool"
        )
    return masks


def multiplex(
    main: SegmentProtocol,
    *backgrounds: SegmentProtocol,
    slots: Sequence[int] | None = None,
    rng: np.random.Generator,
    max_steps: int | None = None,
    stream: bool = False,
) -> ProtocolSchedule:
    """Zip plan/commit streams into one joint oblivious schedule.

    Parameters
    ----------
    main:
        The terminating stream. Must have an exact
        :meth:`~repro.engine.segments.SegmentProtocol.steps_remaining`
        (see module docstring); the multiplexed run ends when it has no
        more rows, exactly as :class:`~repro.radio.protocol
        .TimeMultiplexer` finishes with its main protocol.
    *backgrounds:
        One or more concurrent streams. Each runs until ``main`` ends;
        a background that ends first (``plan`` returns ``None``) has
        its remaining slots transmit silence, matching the reference
        multiplexer's treatment of a finished sub-protocol.
    slots:
        The repeating interleaving pattern as stream indices — ``0``
        the main stream, ``i >= 1`` the ``i``-th background. Defaults
        to strict round-robin over all streams (``(0, 1)`` for one
        background: the paper's time multiplexing). Patterns like
        ``(0, 1, 1)`` give a background extra steps, ``(0, 1, 2)``
        interleaves two backgrounds. Must contain a ``0`` (the main
        stream must get slots) and only indices of actual streams.
    rng:
        Randomness source forwarded to every stream's ``plan`` call —
        one shared generator, so draws interleave in exactly the
        reference drivers' order.
    max_steps:
        Optional cap on total zipped radio steps, mirroring the
        ``steps`` bound of the step-wise drivers: the joint stream
        stops (mid-segment if necessary) once the cap is reached.
        Planned-but-unexecuted segments are never committed, matching a
        reference run that stops mid-block.
    stream:
        Emit flushed joint windows as
        :class:`~repro.engine.segments.StreamedWindow` segments (the
        runner's ``chunk_steps``/``mem_budget`` knobs then bound the
        joint hear-window's materialization). Bit-identical either
        way; see module docstring.

    Returns
    -------
    ProtocolSchedule
        A generator-form schedule yielding joint
        :class:`~repro.engine.segments.ObliviousWindow` (or streamed)
        segments; its ``StopIteration`` value is ``main.result()``.
    """
    # Validate eagerly — this wrapper is a plain function, so contract
    # violations surface at the call site, not at the first send().
    if not backgrounds:
        raise ProtocolError(
            "multiplex() needs at least one background stream"
        )
    for stream_ in (main, *backgrounds):
        # Catch the pre-k-way calling convention (slots passed
        # positionally) and plain misuse with a clear error instead of
        # an AttributeError deep in validation.
        if not isinstance(stream_, SegmentProtocol):
            raise ProtocolError(
                f"multiplex() streams must be SegmentProtocol "
                f"instances, got {stream_!r} (note: slots is "
                "keyword-only — multiplex(main, *backgrounds, "
                "slots=...))"
            )
    streams = (main, *backgrounds)
    slots = (
        tuple(range(len(streams))) if slots is None else tuple(slots)
    )
    if not slots or any(
        s not in range(len(streams)) for s in slots
    ):
        raise ProtocolError(
            f"slots must be a non-empty pattern over stream indices "
            f"0..{len(streams) - 1}, got {slots!r}"
        )
    if MAIN not in slots:
        raise ProtocolError(
            "slots pattern never schedules the main stream (index 0); "
            "the multiplexed run could not terminate"
        )
    if main.steps_remaining() is None:
        raise ProtocolError(
            f"multiplex() needs a main stream with an exact "
            f"steps_remaining(), but {type(main).__name__} reports "
            "None (data-dependent length): the step-wise reference "
            "re-checks termination between every pair of steps, and "
            "batching past those checks is only sound when their "
            "outcomes are predetermined (wrap deterministic-length "
            "protocols in ProtocolSegmentSource(protocol, steps=...))"
        )
    for i, background in enumerate(backgrounds, start=1):
        if background.n != main.n:
            raise ProtocolError(
                f"stream sizes disagree: main n={main.n}, "
                f"background {i} ({type(background).__name__}) "
                f"n={background.n}"
            )
    if max_steps is not None and max_steps < 0:
        raise ProtocolError(f"max_steps must be >= 0, got {max_steps}")
    return _multiplex(streams, slots, rng, max_steps, stream)


def _multiplex(
    streams: tuple[SegmentProtocol, ...],
    slots: tuple[int, ...],
    rng: np.random.Generator,
    max_steps: int | None,
    stream: bool,
) -> ProtocolSchedule:
    """Generator body of :func:`multiplex` (arguments pre-validated)."""
    main = streams[MAIN]
    n = main.n
    k = len(streams)
    who = ["main"] + [
        f"background {i} ({type(s).__name__})"
        for i, s in enumerate(streams[1:], start=1)
    ]
    cur: list[np.ndarray | None] = [None] * k  # planned segment rows
    taken = [0] * k  # rows of cur handed into joint windows
    heard: list[list[np.ndarray]] = [[] for _ in range(k)]
    decision = [False] * k  # current segment was a DecisionStep
    ended = [False] * k  # plan() returned None
    rows: list[np.ndarray] = []  # the open joint window
    owners: list[int | None] = []
    silent = np.zeros(n, dtype=bool)
    total = 0
    pos = 0

    def _fold_rows(
        reply: np.ndarray, owner_rows: Sequence[int | None]
    ) -> None:
        """Route executed hear rows to their streams; commit completed
        segments in row order (the step-wise drivers' observe order)."""
        for i, owner in enumerate(owner_rows):
            if owner is None:
                continue
            heard[owner].append(reply[i])
            segment = cur[owner]
            assert segment is not None
            if len(heard[owner]) == segment.shape[0]:
                stacked = np.stack(heard[owner])
                # A DecisionStep's reply is a 1-D hear vector everywhere
                # else in the engine; keep that shape here too.
                streams[owner].commit(
                    stacked[0] if decision[owner] else stacked
                )
                heard[owner] = []
                cur[owner] = None
                taken[owner] = 0

    def _flush_segment():
        """The open joint window as one segment; clears the buffers."""
        joint = np.array(rows)
        owner_rows = tuple(owners)
        rows.clear()
        owners.clear()
        if not stream:
            return ObliviousWindow(joint), owner_rows
        cursor = 0

        def consume(slab: np.ndarray) -> None:
            nonlocal cursor
            _fold_rows(slab, owner_rows[cursor : cursor + slab.shape[0]])
            cursor += slab.shape[0]

        return StreamedWindow(as_transmit_plan(joint), consume), None

    def _main_has_more() -> bool:
        segment = cur[MAIN]
        if segment is not None and taken[MAIN] < segment.shape[0]:
            return True
        if ended[MAIN]:
            return False
        remaining = main.steps_remaining()
        if remaining is None:
            raise ProtocolError(
                f"main stream {type(main).__name__}'s steps_remaining() "
                "became unknown mid-run"
            )
        return remaining > 0

    while True:
        s = slots[pos % len(slots)]
        if not _main_has_more():
            break
        if max_steps is not None and total >= max_steps:
            break
        if not ended[s]:
            # Ensure the stream has an untaken planned row; planning
            # requires a clean frontier (flush + commit), the rule that
            # pins every plan() to its reference-driver causal point.
            while cur[s] is None or taken[s] == cur[s].shape[0]:
                if rows:
                    segment, owner_rows = _flush_segment()
                    reply = yield segment
                    if owner_rows is not None:
                        _fold_rows(reply, owner_rows)
                segment = streams[s].plan(rng)
                if segment is None:
                    ended[s] = True
                    break
                masks = _coerce_masks(segment, n, who[s])
                decision[s] = isinstance(segment, DecisionStep)
                if masks.shape[0] == 0:
                    # A zero-step segment executes nothing; commit its
                    # empty reply immediately (what the plain runner
                    # would have replied) and plan on.
                    streams[s].commit(
                        np.empty((0, n), dtype=np.int64)
                    )
                    continue
                cur[s] = masks
                taken[s] = 0
                heard[s] = []
            if ended[MAIN] and s == MAIN:
                continue  # termination check at the top will break
        if ended[s]:
            rows.append(silent)
            owners.append(None)
        else:
            segment = cur[s]
            assert segment is not None
            rows.append(segment[taken[s]])
            owners.append(s)
            taken[s] += 1
        total += 1
        pos += 1

    if rows:
        segment, owner_rows = _flush_segment()
        reply = yield segment
        if owner_rows is not None:
            _fold_rows(reply, owner_rows)
    return main.result()


__all__ = ["BACKGROUND", "MAIN", "multiplex"]
