"""The Decay protocol (paper Algorithm 5, Bar-Yehuda–Goldreich–Itai).

Decay is the classic single-hop transmission primitive: each node in a
transmitting set ``S`` runs, for ``i = 1 .. log n``, a step in which it
transmits its message with probability ``2^-i``. Whatever the unknown
local density of ``S``, some ``i`` matches it and each node with a
neighbor in ``S`` hears a transmission with constant probability during
the sweep. Iterating the sweep ``O(log n)`` times amplifies this to high
probability (paper Claim 10).

This module provides the vectorized :class:`Decay` protocol (all of ``S``
decaying concurrently), its schedule emitter :func:`decay_block_schedule`, and
the convenience :func:`run_decay` wrapper used by Radio MIS and
intra-cluster propagation.

Performance: a Decay block is *oblivious* — the transmit mask of every
step depends only on the fixed active set and the block's randomness,
never on what was heard — so :func:`decay_block_schedule` emits the
whole block as one streamed window whose rows are sampled transmitter
lists (:class:`~repro.engine.sampler.RowSampler`, keyed by one block
key drawn from the protocol rng): the engine's cost follows the
transmissions, not ``n`` times the steps. The :class:`Decay` protocol
samples its rows from the same key, one step at a time, so results,
trace totals, and the post-call rng state are all bit-identical to
driving it step by step — which :func:`run_decay_reference` still does,
as the executable specification the equivalence suite compares against.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.sampler import RowSampler, draw_block_key
from ..engine.segments import (
    ProtocolSchedule,
    StreamedWindow,
    TransmitterPlan,
)
from ..radio.errors import ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from ..radio.protocol import Protocol, run_steps
from .resulteq import ArrayEqMixin


def decay_span(n_estimate: int) -> int:
    """Number of steps in one Decay sweep: ``ceil(log2 n)``, at least 1.

    ``n_estimate`` is the (linear upper estimate of the) network size the
    ad-hoc model gives every node; the probability ladder
    ``1/2, 1/4, ..., 2^-span`` reaches below ``1/n`` so that even
    full-density neighborhoods get an uncontended step.
    """
    if n_estimate < 1:
        raise ValueError(f"n_estimate must be >= 1, got {n_estimate}")
    return max(1, math.ceil(math.log2(max(2, n_estimate))))


def claim10_iterations(n_estimate: int, amplification: float = 4.0) -> int:
    """Iteration count for Claim 10's high-probability amplification.

    One sweep succeeds per listener with probability Omega(1); repeating
    ``Theta(log n)`` times drives the failure probability to ``n^-c``.
    ``amplification`` is the constant inside the Theta — benchmarks sweep
    it in E3 to locate the success/failure trade-off empirically.
    """
    return max(1, math.ceil(amplification * math.log2(max(2, n_estimate))))


@dataclasses.dataclass(eq=False)
class DecayResult(ArrayEqMixin):
    """Outcome of a Decay block.

    Attributes
    ----------
    heard:
        Boolean array: node heard at least one transmission during the
        block. In a block where only members of ``S`` transmit, this is
        exactly "node learned it has a neighbor in ``S``".
    heard_from:
        For each hearing node, the index of one transmitter it heard
        (the first); ``NO_SENDER`` elsewhere.
    messages:
        For each hearing node, the message of that first-heard
        transmitter; ``None`` elsewhere.
    """

    heard: np.ndarray
    heard_from: np.ndarray
    messages: list[Any]


class Decay(Protocol):
    """Vectorized concurrent Decay over a transmitting set.

    Parameters
    ----------
    network:
        The radio network.
    active:
        Boolean mask of the transmitting set ``S``. Nodes outside listen.
    messages:
        Optional per-node payloads for members of ``S`` (length-``n``
        list); defaults to each node's own index.
    iterations:
        Number of sweeps (Claim 10 amplification).
    n_estimate:
        Size estimate defining the sweep length; defaults to the true
        ``n`` (the strongest version of the known-``n`` assumption).

    The protocol finishes after ``iterations * decay_span`` steps and its
    :meth:`result` is a :class:`DecayResult`.
    """

    def __init__(
        self,
        network: RadioNetwork,
        active: np.ndarray,
        messages: list[Any] | None = None,
        iterations: int = 1,
        n_estimate: int | None = None,
    ) -> None:
        super().__init__(network)
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.n,):
            raise ValueError(
                f"active mask has shape {active.shape}, expected ({self.n},)"
            )
        self.active = active.copy()
        if messages is not None and len(messages) != self.n:
            raise ValueError(
                f"messages has length {len(messages)}, expected {self.n}"
            )
        #: Per-node payloads; ``None`` means each node's own index.
        self.messages = None if messages is None else list(messages)
        self.span = decay_span(n_estimate if n_estimate is not None else self.n)
        self.total_steps = iterations * self.span
        self._step = 0
        self.heard = np.zeros(self.n, dtype=bool)
        self.heard_from = np.full(self.n, NO_SENDER, dtype=np.int64)
        self._finished = self.total_steps == 0
        self._sampler: RowSampler | None = None

    def bind_key(self, rng: np.random.Generator) -> None:
        """Draw the block key (once per block, at its first step)."""
        if self._sampler is None:
            # Step t transmits with probability 2^-i, i = (t mod span) + 1.
            steps = np.arange(self.total_steps)
            ladder = 2.0 ** -((steps % self.span) + 1.0)
            self._sampler = RowSampler(
                draw_block_key(rng), self.active, ladder
            )

    def transmitters(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transmitter pairs of block steps ``[start, stop)`` (see
        :meth:`RowSampler.sample`). Needs :meth:`bind_key` first."""
        return self._sampler.sample(start, stop)

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        self.bind_key(rng)
        _, nodes = self.transmitters(self._step, self._step + 1)
        mask = np.zeros(self.n, dtype=bool)
        mask[nodes] = True
        return mask

    def observe(self, hear_from: np.ndarray) -> None:
        new = (hear_from != NO_SENDER) & ~self.heard
        self.heard_from[new] = hear_from[new]
        self.heard |= new
        self._step += 1
        if self._step >= self.total_steps:
            self._finished = True

    def _absorb_coo(
        self,
        k: int,
        steps: np.ndarray,
        nodes: np.ndarray,
        senders: np.ndarray,
    ) -> None:
        """Fold a ``k``-step chunk of receptions, in step order.

        Equivalent to ``k`` sequential :meth:`observe` calls: the
        ``(step, node, sender)`` triples arrive in arbitrary order, and
        among a node's receptions the earliest step wins (the radio
        model delivers at most one sender per node per step, so the
        earliest step pins a unique sender).
        """
        fresh = ~self.heard[nodes]
        if fresh.any():
            st = steps[fresh]
            nd = nodes[fresh]
            sd = senders[fresh]
            order = np.lexsort((st, nd))
            nd = nd[order]
            first = np.ones(nd.shape[0], dtype=bool)
            first[1:] = nd[1:] != nd[:-1]
            self.heard_from[nd[first]] = sd[order][first]
            self.heard[nd[first]] = True
        self._step += k
        if self._step >= self.total_steps:
            self._finished = True

    def result(self) -> DecayResult:
        payloads: list[Any] = [None] * self.n
        messages = self.messages or range(self.n)
        for v in np.nonzero(self.heard)[0]:
            payloads[v] = messages[self.heard_from[v]]
        return DecayResult(
            heard=self.heard.copy(),
            heard_from=self.heard_from.copy(),
            messages=payloads,
        )


def decay_block_schedule(
    network: RadioNetwork,
    active: np.ndarray,
    rng: np.random.Generator,
    messages: list[Any] | None = None,
    iterations: int = 1,
    n_estimate: int | None = None,
) -> ProtocolSchedule:
    """Schedule emitter for one full Decay block.

    Emits the block as a single
    :class:`~repro.engine.segments.StreamedWindow` over a
    :class:`~repro.engine.segments.TransmitterPlan` — every row is the
    fixed active set thinned by the ladder probability, so the whole
    block is oblivious, and the runner executes it in bounded chunks
    (its memory knob). The block key is drawn here, where the step-wise
    :class:`Decay` draws it at its first step, and every row is a pure
    function of it, so any chunking reproduces the per-step rows;
    receptions fold in step order through :meth:`Decay._absorb_coo`.
    Returns the block's :class:`DecayResult`.
    """
    protocol = Decay(
        network,
        active,
        messages=messages,
        iterations=iterations,
        n_estimate=n_estimate,
    )
    total = protocol.total_steps
    if total:
        protocol.bind_key(rng)
        yield StreamedWindow(
            TransmitterPlan(total, protocol.transmitters),
            consume_coo=protocol._absorb_coo,
        )
    return protocol.result()


def run_decay(
    network: RadioNetwork,
    active: np.ndarray,
    rng: np.random.Generator,
    messages: list[Any] | None = None,
    iterations: int = 1,
    n_estimate: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> DecayResult:
    """Run a full Decay block and return its :class:`DecayResult`.

    This is the form in which Radio MIS consumes Decay: "marked nodes
    perform ``O(log n)`` iterations of Decay" translates to
    ``run_decay(network, marked, rng, iterations=claim10_iterations(n))``.

    The block executes :func:`decay_block_schedule` under ``policy``
    (see the module docstring) — ``engine="reference"`` dispatches to
    :func:`run_decay_reference`; results and rng consumption are
    identical either way, the engine path just much faster.
    """
    if iterations < 0:
        raise ProtocolError(f"iterations must be >= 0, got {iterations}")
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    if policy.engine == "reference":
        return run_decay_reference(
            network, active, rng,
            messages=messages, iterations=iterations,
            n_estimate=n_estimate,
        )
    return policy.run_schedule(
        network,
        decay_block_schedule(
            network,
            active,
            rng,
            messages=messages,
            iterations=iterations,
            n_estimate=n_estimate,
        ),
    )


def run_decay_reference(
    network: RadioNetwork,
    active: np.ndarray,
    rng: np.random.Generator,
    messages: list[Any] | None = None,
    iterations: int = 1,
    n_estimate: int | None = None,
) -> DecayResult:
    """Step-wise Decay block: the executable specification of
    :func:`run_decay`.

    Drives the :class:`Decay` protocol one
    :meth:`~repro.radio.network.RadioNetwork.deliver` call at a time.
    ``tests/test_engine_windowed.py`` pins bit-identical results, trace
    totals, and post-call rng state against the windowed path.
    """
    protocol = Decay(
        network,
        active,
        messages=messages,
        iterations=iterations,
        n_estimate=n_estimate,
    )
    run_steps(protocol, rng, protocol.total_steps)
    return protocol.result()
