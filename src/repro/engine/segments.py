"""The ``ProtocolSchedule`` intermediate representation.

A *schedule emitter* is a generator that describes a packet-level
protocol as a stream of segments instead of imperative ``deliver``
calls::

    def my_schedule(network, rng):
        hear = yield DecisionStep(mask)          # one adaptive step
        window = yield ObliviousWindow(masks)    # a batch of fixed steps
        ...
        return result                            # via StopIteration

The generator receives, through ``send``, exactly what the network
delivered for the segment it yielded: a length-``n`` ``hear_from``
vector for a :class:`DecisionStep`, a ``(w, n)`` matrix for an
:class:`ObliviousWindow`, ``None`` for a :class:`TracePhase`. Emitters
never touch the network themselves — execution strategy (batched sparse
products vs. fused single steps) is entirely the runner's business,
which is what lets one protocol description run bit-identically on
either path.

The obliviousness contract
--------------------------
Yielding an :class:`ObliviousWindow` is a *promise*: none of the
window's masks depends on anything heard inside the window. Every mask
may (and usually does) depend on receptions from segments already
completed, and on randomness drawn while building the window. Emitters
must consume the protocol generator in the same order as the step-wise
reference implementation — coin blocks row-major (numpy's
``rng.random((w, n))`` equals ``w`` consecutive ``rng.random(n)``
calls), keyed blocks one key per block at the block's first step
(:mod:`repro.engine.sampler`) — which is what keeps engine and
reference runs on one seed bit-identical.

Plan/commit form
----------------
The generator form above conflates two distinct events: *folding* the
receptions of the segment just executed (``send`` delivers them) and
*planning* the next segment (the generator body computes it before the
next ``yield``). A single-stream runner never notices, but a combinator
that interleaves two protocols' windows — :func:`repro.engine.mux
.multiplex` — needs to see both streams' upcoming masks while earlier
receptions are still in flight. :class:`SegmentProtocol` is the split
form: ``plan(rng)`` produces the next segment, ``commit(reply)`` folds
its delivery result, and the two may be separated by the other stream's
radio steps. The causal contract mirrors the step-wise reference: the
combinator calls ``plan`` only when every previously planned row has
been executed and every completed segment committed, so a source
observes exactly the world state the reference loop's
``transmit_mask`` would.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Callable, Generator, Union

import numpy as np

from ..radio.errors import ProtocolError

#: Cap on the number of boolean coin-matrix entries an emitter should
#: materialize per window: windows larger than this are chunked. Chunked
#: ``rng.random`` draws are stream-identical to one big draw, so the
#: chunk size is a memory knob, never a semantics knob.
COIN_BUDGET = 1 << 22


def coin_chunk(n: int, budget: int = COIN_BUDGET) -> int:
    """Window rows to draw per chunk for an ``n``-node coin matrix."""
    return max(1, budget // max(1, n))


@dataclasses.dataclass
class ObliviousWindow:
    """A block of radio steps with masks fixed before the block starts.

    ``masks`` has shape ``(w, n)``; row ``t`` is the transmit mask of
    window step ``t``. The runner answers with the ``(w, n)``
    ``hear_from`` matrix — what
    :meth:`repro.radio.network.RadioNetwork.deliver_window` returns.
    """

    masks: np.ndarray


@dataclasses.dataclass
class DecisionStep:
    """A single radio step whose mask may depend on prior receptions.

    The runner answers with the length-``n`` ``hear_from`` vector of
    :meth:`repro.radio.network.RadioNetwork.deliver`.
    """

    mask: np.ndarray


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
class PlanSection:
    """One phase-labeled span of a fused :class:`StreamedWindow`.

    A fused plan concatenates what used to be several back-to-back
    streamed windows (the two Decay blocks of a Radio MIS round, the
    density levels of an EED block) into one plan. Sections keep the
    pieces' identities: ``width`` rows of the plan, an optional trace
    ``phase`` the runner enters when the section starts, and the
    section's own fold ``consume_coo(k, steps, nodes, senders)`` — the
    ``k``-step chunk's clean receptions as parallel int64 arrays:
    ``steps`` chunk-relative, ``nodes`` and ``senders`` global ids,
    arbitrary order.

    The runner never lets an executed chunk straddle a section
    boundary, so a section's callback sees exactly the rows of its own
    span — which is what lets a fused emitter switch per-section state
    (the second Decay block's membership depends on the first's
    outcome) inside one plan.
    """

    width: int
    phase: str | None = None
    consume_coo: (
        Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None
    ) = None


@dataclasses.dataclass
class StreamedWindow:
    """An oblivious window executed as a stream of bounded chunks.

    The out-of-core form of :class:`ObliviousWindow`: instead of
    materializing ``(w, n)`` masks and receiving a ``(w, n)``
    ``hear_from`` reply, the segment carries a lazy
    :class:`TransmitterPlan` and the runner executes it chunk by chunk
    on the transmitter-pair product, folding each chunk's reception
    triples through ``consume_coo`` as it is produced. The runner's
    reply to the segment is ``None`` — by the time the generator
    resumes, every chunk has already been folded. Chunks arrive in step
    order, so an order-dependent fold (first-hear semantics) is exactly
    the fold of the monolithic reply.

    The obliviousness promise of :class:`ObliviousWindow` applies
    unchanged: no row may depend on anything heard inside the window.
    The chunk size is the *runner's* choice (its ``chunk_steps`` /
    ``mem_budget`` knobs) — a memory knob, never a semantics knob,
    because plans produce rows lazily in row order.
    """

    plan: TransmitterPlan
    #: Reception-triple fold (see :class:`PlanSection`).
    consume_coo: (
        Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None
    ) = None
    #: Fused multi-phase form: when set, a tuple of
    #: :class:`PlanSection` whose widths sum to ``plan.total_steps``;
    #: the sections' folds replace ``consume_coo``.
    sections: tuple[PlanSection, ...] | None = None


@dataclasses.dataclass
class TracePhase:
    """Switch the network trace's current phase (costs no radio step).

    The runner answers with ``None``. Not allowed inside multiplexed
    sub-schedules (phase attribution is ambiguous when two protocols
    interleave; set the phase around the whole multiplexed run instead).
    """

    name: str


Segment = Union[ObliviousWindow, StreamedWindow, DecisionStep, TracePhase]
"""A single element of a protocol schedule."""

ProtocolSchedule = Generator[Segment, Any, Any]
"""The emitter type: yields segments, receives delivery results, and
returns the protocol's result via ``StopIteration.value``."""


class SegmentProtocol(abc.ABC):
    """A schedule emitter in plan/commit form.

    Unlike the generator form, planning the next segment and committing
    the previous segment's receptions are separate calls, which lets
    :func:`~repro.engine.mux.multiplex` interleave this source's planned
    rows with another stream's before any of them execute (see module
    docstring, "Plan/commit form").

    The call contract, enforced by the combinator:

    * ``plan(rng)`` is called only at a *clean frontier*: every row this
      source has planned so far has been executed, and every fully
      executed segment has been committed. Randomness must be drawn
      inside ``plan`` (never ``commit``), in the same order the
      step-wise reference draws it.
    * ``commit(reply)`` is called exactly once per planned window, in
      planning order, with the window's full ``(w, n)`` ``hear_from``
      matrix. A run may end with the final segment's commit never
      arriving (the multiplexed main stream finishing first); sources
      must not rely on a trailing commit for correctness of *prior*
      state.
    """

    def __init__(self, n: int) -> None:
        self.n = n

    @abc.abstractmethod
    def plan(self, rng: np.random.Generator) -> Segment | None:
        """Produce the next segment, or ``None`` when the stream ends."""

    @abc.abstractmethod
    def commit(self, reply: Any) -> None:
        """Fold the delivery result of the oldest uncommitted segment."""

    def steps_remaining(self) -> int | None:
        """Exact number of radio-step rows still to be planned.

        ``None`` means data-dependent (unknown until the stream actually
        ends). Deterministic-length sources should override this: a
        multiplexed *main* stream must know its remaining step count
        exactly, because the reference drivers re-check termination
        between every pair of steps and the combinator can only skip
        those checks when the answer is predetermined.
        """
        return None

    def result(self) -> Any:
        """Protocol output; meaningful once ``plan`` returned ``None``."""
        raise ProtocolError(
            f"{type(self).__name__} does not define a result"
        )


__all__ = [
    "COIN_BUDGET",
    "DecisionStep",
    "ObliviousWindow",
    "PlanSection",
    "ProtocolSchedule",
    "Segment",
    "SegmentProtocol",
    "StreamedWindow",
    "TracePhase",
    "TransmitterPlan",
    "coin_chunk",
]
