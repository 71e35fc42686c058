"""Windows and the runner that executes them on a radio network.

A :class:`StreamedWindow` is a block of radio steps whose transmitters
are all fixed before the first of them executes: a lazy source of
transmitter pairs plus the fold its receptions land in. A protocol
runs a window by handing it to :meth:`WindowedRunner.run`, which is the
single place where protocols meet the simulator's engine path. Every
window runs through one chunk loop: the window produces the chunk's
transmitter pairs, the fault layer filters them, the one exact sparse
product delivers them
(:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`), and the
window's fold consumes the reception triples. The product is
bit-identical per step to the step-wise
:meth:`~repro.radio.network.RadioNetwork.deliver`, so a protocol that
calls its windows here produces exactly the receptions, trace totals
and ``steps_elapsed`` of its step-wise ``*_reference`` twin — only
faster (``tests/test_schedule_contract.py`` replays every registered
protocol's windows step-wise through the
:class:`~repro.engine.validate.ValidatingRunner`).

The obliviousness promise
-------------------------
Handing a window to :meth:`WindowedRunner.run` is a *promise*: none of
the window's rows depends on anything heard inside the window. Every
row may (and usually does) depend on receptions from windows already
run, and on randomness drawn while building the window. A protocol
draws its randomness in the order of its step-wise twin — every
oblivious block draws one key, at the block's first step
(:mod:`repro.engine.sampler`) — which is what keeps engine and
reference runs on one seed bit-identical. A keyed block is a
:class:`SampledBlock`: the one class that draws a block key and the
one place a block forks between the engines. An adaptive step, whose
transmitters depend on everything heard so far, is a one-row window:
:meth:`WindowedRunner.run_steps` runs a step-wise
:class:`~repro.radio.protocol.Protocol` object (a
:class:`~repro.radio.protocol.TimeMultiplexer` stack included) that
way, which is how Intra-Cluster Propagation runs its slot passes and
their Decay background on the engine.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any, Callable

import numpy as np

from ..radio.errors import InvalidActionError, ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from ..radio.protocol import Protocol, run_steps
from .sampler import RowSampler, draw_block_key
from .streaming import chunk_bounds, chunk_work_target


@dataclasses.dataclass
class StreamedWindow:
    """An oblivious window of radio steps, executed in bounded chunks.

    ``transmitters(start, stop)`` returns the transmitters of window
    steps ``start .. stop - 1`` as int64 ``(steps, nodes)`` pairs —
    ``steps`` relative to ``start``, row-major, nodes ascending within
    a step. The runner calls it for consecutive, non-overlapping
    intervals covering ``[0, total_steps)`` in order, exactly once
    each, so a producer may draw lazily and still consume its
    randomness in one fixed order; windows whose rows are keyed samples
    (:class:`~repro.engine.sampler.RowSampler`) produce the same pairs
    whatever the interval boundaries.

    Each chunk's clean receptions fold through ``consume_coo(k, steps,
    nodes, senders)``: the ``k``-step chunk's reception triples as
    parallel int64 arrays, ``steps`` chunk-relative, ``nodes`` and
    ``senders`` global ids, in arbitrary order. Chunks arrive in step
    order, so an order-dependent fold (first-hear semantics) is exactly
    the fold of one monolithic reply.

    ``row_work``, when given, holds every row's expected product work
    (:meth:`~repro.engine.sampler.RowSampler.row_work`), and the runner
    cuts the window where that work reaches its per-chunk target;
    without it, every chunk is the budget's row cap. Where the cuts
    fall is the runner's choice — a cost knob, never a semantics knob.
    """

    total_steps: int
    transmitters: Callable[[int, int], tuple[np.ndarray, np.ndarray]]
    consume_coo: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]
    row_work: np.ndarray | None = None


class WindowedRunner:
    """Runs windows on one :class:`RadioNetwork`.

    Parameters
    ----------
    network:
        The radio network every window runs on.
    chunk_steps:
        The row cap: at most this many radio steps of a window execute
        at once. :meth:`ExecutionPolicy.runner
        <repro.engine.policy.ExecutionPolicy.runner>` derives it from
        the policy's ``mem_budget`` through
        :func:`~repro.engine.streaming.chunk_steps_for_budget`. Below
        it, windows with row work are cut by work
        (:func:`~repro.engine.streaming.chunk_bounds`); results are
        bit-identical wherever the cuts fall.
    """

    def __init__(self, network: RadioNetwork, chunk_steps: int) -> None:
        if isinstance(chunk_steps, bool) or not isinstance(
            chunk_steps, (int, np.integer)
        ) or chunk_steps < 1:
            raise ProtocolError(
                f"chunk_steps must be a positive integer, "
                f"got {chunk_steps!r}"
            )
        self.network = network
        self.chunk_steps = int(chunk_steps)
        self.work_target = chunk_work_target(network.n)

    def run(self, window: StreamedWindow) -> None:
        """Execute ``window`` in the chunks of
        :func:`~repro.engine.streaming.chunk_bounds`.

        Per ``k``-step chunk, in step order: the window produces its
        intended transmitter pairs (``coins`` bucket), and
        :meth:`_deliver_coo` delivers them and hands the reception
        triples to the window's fold. The protocol's own time since
        the network's previous window ended — planning the rows,
        folding state between windows, cutting this window — is charged
        to the ``plan`` bucket as the window starts.
        """
        network = self.network
        timing = network.phase_timing
        total = window.total_steps
        if total < 0:
            raise InvalidActionError(
                f"window has negative total_steps: {total}"
            )
        bounds = chunk_bounds(
            total, self.chunk_steps, window.row_work, self.work_target
        )
        start = perf_counter()
        if network._window_end is not None:
            timing["plan"] += start - network._window_end
        for lo, hi in zip(bounds, bounds[1:]):
            t0 = perf_counter()
            steps, nodes = window.transmitters(lo, hi)
            timing["coins"] += perf_counter() - t0
            self._deliver_coo(hi - lo, steps, nodes, window.consume_coo)
        network._window_end = perf_counter()

    def _deliver_coo(
        self,
        k: int,
        steps: np.ndarray,
        nodes: np.ndarray,
        consume_coo: Any,
    ) -> None:
        """Deliver one ``k``-step chunk of intended transmitter pairs
        and fold its reception triples (hook for the validator)."""
        network = self.network
        rx_steps, rx_nodes, senders = network._deliver_pairs(k, steps, nodes)
        t0 = perf_counter()
        consume_coo(k, rx_steps, rx_nodes, senders)
        network.phase_timing["commit"] += perf_counter() - t0

    def run_steps(
        self,
        protocol: Any,
        rng: np.random.Generator | None,
        steps: int,
    ) -> None:
        """Advance a step-wise :class:`~repro.radio.protocol.Protocol`
        by ``steps`` steps, or until it finishes.

        Each step is a one-row window through :meth:`run`, planned only
        after the previous step was observed, so ``transmit_mask`` and
        ``observe`` run in exactly the order of
        :func:`repro.radio.protocol.run_steps` and a run here is
        bit-identical to it on the same seed. Each mask passes
        :meth:`~repro.radio.network.RadioNetwork.deliver`'s own shape
        and dtype check, and ``observe`` receives a fresh ``hear_from``
        row, as ``deliver`` returns one.
        """
        if steps < 0:
            raise ProtocolError(f"steps must be >= 0, got {steps}")
        network = self.network
        for _ in range(steps):
            if protocol.finished:
                return
            mask = network._validate_mask(protocol.transmit_mask(rng))
            hear_from = np.full(network.n, NO_SENDER, dtype=np.int64)

            def row(start: int, stop: int):
                nodes = np.flatnonzero(mask)
                return np.zeros(nodes.size, dtype=np.int64), nodes

            def fold(k, rx_steps, rx_nodes, senders):
                hear_from[rx_nodes] = senders

            self.run(StreamedWindow(1, row, fold))
            protocol.observe(hear_from)


class SampledBlock(Protocol):
    """An oblivious block of keyed transmitter rows.

    Row ``t`` transmits each member ``v`` independently with
    probability ``row_probs[t] * weights[v]`` (``weights`` default 1),
    sampled by a :class:`~repro.engine.sampler.RowSampler` under one
    block key. :meth:`bind_key` draws the key at the block's first
    step, the only place any block draws one, so the block run
    step-wise and as one window samples the same rows and leaves the
    generator in the same state. :meth:`run` is the one engine fork of
    a keyed block. A subclass passes its ladder and weights and folds
    receptions in ``observe`` (a step) and ``_absorb_coo`` (a chunk),
    both ending in :meth:`_advance`.
    """

    def __init__(
        self,
        network: RadioNetwork,
        members: np.ndarray,
        row_probs: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        super().__init__(network)
        self.active = members
        self.total_steps = len(row_probs)
        self._row_probs = row_probs
        self._weights = weights
        self._step = 0
        self._finished = self.total_steps == 0
        self._sampler: RowSampler | None = None

    @staticmethod
    def count(name: str, value: Any, least: int) -> int:
        """``value`` as an ``int``: a boolean, a non-integer or a value
        below ``least`` is refused, naming ``name``."""
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)
        ) or value < least:
            raise ProtocolError(
                f"{name} must be an integer >= {least}, got {value!r}"
            )
        return int(value)

    def bind_key(self, rng: np.random.Generator) -> None:
        """Draw the block key (once per block, at its first step)."""
        if self._sampler is None:
            self._sampler = RowSampler(
                draw_block_key(rng), self.active, self._row_probs,
                self._weights,
            )

    def transmitters(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transmitter pairs of block steps ``[start, stop)`` (see
        :meth:`RowSampler.sample`). Needs :meth:`bind_key` first."""
        return self._sampler.sample(start, stop)

    def row_work(self) -> np.ndarray:
        """Expected product work of every block step (see
        :meth:`RowSampler.row_work`). Needs :meth:`bind_key` first."""
        return self._sampler.row_work(self.network.degrees)

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        self.bind_key(rng)
        _, nodes = self.transmitters(self._step, self._step + 1)
        mask = np.zeros(self.n, dtype=bool)
        mask[nodes] = True
        return mask

    def _advance(self, k: int) -> None:
        """Count ``k`` folded steps; the block finishes after its last."""
        self._step += k
        if self._step >= self.total_steps:
            self._finished = True

    def run(
        self,
        rng: np.random.Generator,
        policy: Any,
        fold: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]
        | None = None,
    ) -> None:
        """Run the whole block under ``policy`` (an
        :class:`~repro.engine.policy.ExecutionPolicy`): step by step
        through :func:`~repro.radio.protocol.run_steps` under
        ``engine="reference"``, else as one :class:`StreamedWindow` cut
        by the rows' work, its receptions folded by ``fold`` (default
        ``_absorb_coo``)."""
        if policy.engine == "reference":
            run_steps(self, rng, self.total_steps)
        elif self.total_steps:
            self.bind_key(rng)
            policy.runner(self.network).run(
                StreamedWindow(
                    self.total_steps,
                    self.transmitters,
                    fold or self._absorb_coo,
                    self.row_work(),
                )
            )


__all__ = ["SampledBlock", "StreamedWindow", "WindowedRunner"]
