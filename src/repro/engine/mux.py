"""Window multiplexing: a main stream and a background as joint windows.

The paper's background processes run "concurrently via time
multiplexing" (Appendix A): a main protocol takes the even steps, a
background process the odd ones. The plan/commit split
(:class:`~repro.engine.segments.SegmentProtocol`) lets :func:`multiplex`
see both streams' upcoming rows at once and *zip* them into joint
:class:`~repro.engine.segments.ObliviousWindow` segments, which the
runner executes as transmitter-pair window products. This is the engine
path of Intra-Cluster Propagation
(:func:`~repro.core.intra_cluster.intra_cluster_propagation`): the
adaptive slot passes plan width-1 windows, the Decay background
sweep-wide ones, and each joint window is the one or two rows between
two plans of the slot passes — a slot, and the sweep row beside it.
Windows that narrow cost nothing to materialize, so they go out as
plain ``ObliviousWindow`` segments (chunked by the runner like any
other materialized window when a streaming bound is set).

Bit-identity argument (pinned by ``tests/test_engine_mux.py`` and the
fuzz suite): a radio step's ``hear_from`` is a pure function of that
step's mask, so *any* batching of already-planned rows delivers
identical receptions; what must be preserved is the causal order of
``plan`` and ``commit`` calls, because those are the points where
sources read shared state and draw randomness. The combinator
guarantees the reference drivers' order with one rule — **flush before
plan**: before either source plans, every row zipped so far is executed
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
.ProtocolError` naming the offending source.

Sub-streams plan materialized ``ObliviousWindow`` rows only. A
:class:`~repro.engine.segments.TracePhase` is refused because phase
attribution is ambiguous when protocols interleave (set the phase
around the whole multiplexed run instead); a streamed window or a
decision step cannot be zipped row by row.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..radio.errors import ProtocolError
from .segments import (
    ObliviousWindow,
    ProtocolSchedule,
    SegmentProtocol,
    TracePhase,
)

#: Stream indices: the main stream takes the even joint steps, the
#: background the odd ones.
MAIN, BACKGROUND = 0, 1


def _planned_rows(segment: Any, n: int, who: str) -> np.ndarray:
    """Validate a sub-stream's planned segment, returning its mask rows."""
    if isinstance(segment, TracePhase):
        raise ProtocolError(
            f"{who} planned a TracePhase inside multiplex(); "
            "phase attribution is ambiguous when protocols "
            "interleave — set the phase around the whole multiplexed "
            "run instead"
        )
    if not isinstance(segment, ObliviousWindow):
        raise ProtocolError(
            f"{who} planned {segment!r}: multiplex() zips the rows of "
            "materialized ObliviousWindows only (a non-segment, a "
            "StreamedWindow or a DecisionStep cannot be zipped)"
        )
    masks = np.asarray(segment.masks)
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
    background: SegmentProtocol,
    *,
    rng: np.random.Generator,
) -> ProtocolSchedule:
    """Zip a main and a background plan/commit stream into one joint
    oblivious schedule, main on the even steps.

    Parameters
    ----------
    main:
        The terminating stream. Must have an exact
        :meth:`~repro.engine.segments.SegmentProtocol.steps_remaining`
        (see module docstring); the multiplexed run ends when it has no
        more rows, exactly as :class:`~repro.radio.protocol
        .TimeMultiplexer` finishes with its main protocol.
    background:
        The concurrent stream. It runs until ``main`` ends; if it ends
        first (``plan`` returns ``None``) its remaining slots transmit
        silence, matching the reference multiplexer's treatment of a
        finished sub-protocol.
    rng:
        Randomness source forwarded to both streams' ``plan`` calls —
        one shared generator, so draws interleave in exactly the
        reference drivers' order.

    Returns
    -------
    ProtocolSchedule
        A generator-form schedule yielding joint
        :class:`~repro.engine.segments.ObliviousWindow` segments; its
        ``StopIteration`` value is ``main.result()``.
    """
    # Validate eagerly — this wrapper is a plain function, so contract
    # violations surface at the call site, not at the first send().
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
    if background.n != main.n:
        raise ProtocolError(
            f"stream sizes disagree: main n={main.n}, background "
            f"({type(background).__name__}) n={background.n}"
        )
    return _multiplex((main, background), rng)


def _multiplex(
    streams: tuple[SegmentProtocol, SegmentProtocol],
    rng: np.random.Generator,
) -> ProtocolSchedule:
    """Generator body of :func:`multiplex` (arguments pre-validated)."""
    main = streams[MAIN]
    n = main.n
    who = ("main", f"background ({type(streams[BACKGROUND]).__name__})")
    cur: list[np.ndarray | None] = [None, None]  # planned segment rows
    taken = [0, 0]  # rows of cur handed into joint windows
    heard: list[list[np.ndarray]] = [[], []]
    ended = [False, False]  # plan() returned None
    rows: list[np.ndarray] = []  # the open joint window
    owners: list[int | None] = []
    silent = np.zeros(n, dtype=bool)
    pos = 0

    def _fold(reply: np.ndarray, owner_rows: tuple[int | None, ...]) -> None:
        """Route executed hear rows to their streams; commit completed
        segments in row order (the step-wise drivers' observe order)."""
        for i, owner in enumerate(owner_rows):
            if owner is None:
                continue
            heard[owner].append(reply[i])
            segment = cur[owner]
            assert segment is not None
            if len(heard[owner]) == segment.shape[0]:
                streams[owner].commit(np.stack(heard[owner]))
                heard[owner] = []
                cur[owner] = None
                taken[owner] = 0

    def _main_has_more() -> bool:
        segment = cur[MAIN]
        if segment is not None and taken[MAIN] < segment.shape[0]:
            return True
        return not ended[MAIN] and main.steps_remaining() > 0

    while _main_has_more():
        s = pos % 2
        if not ended[s]:
            # Ensure the stream has an untaken planned row; planning
            # requires a clean frontier (flush + commit), the rule that
            # pins every plan() to its reference-driver causal point.
            while cur[s] is None or taken[s] == cur[s].shape[0]:
                if rows:
                    owner_rows = tuple(owners)
                    joint = np.array(rows)
                    rows.clear()
                    owners.clear()
                    _fold((yield ObliviousWindow(joint)), owner_rows)
                segment = streams[s].plan(rng)
                if segment is None:
                    ended[s] = True
                    break
                masks = _planned_rows(segment, n, who[s])
                if masks.shape[0] == 0:
                    # A zero-step segment executes nothing; commit its
                    # empty reply immediately (what the plain runner
                    # would have replied) and plan on.
                    streams[s].commit(np.empty((0, n), dtype=np.int64))
                    continue
                cur[s] = masks
                taken[s] = 0
                heard[s] = []
            if ended[MAIN] and s == MAIN:
                continue  # the loop condition ends the run
        if ended[s]:
            rows.append(silent)
            owners.append(None)
        else:
            segment = cur[s]
            assert segment is not None
            rows.append(segment[taken[s]])
            owners.append(s)
            taken[s] += 1
        pos += 1

    if rows:
        owner_rows = tuple(owners)
        _fold((yield ObliviousWindow(np.array(rows))), owner_rows)
    return main.result()


__all__ = ["multiplex"]
