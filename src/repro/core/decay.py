"""The Decay protocol (paper Algorithm 5, Bar-Yehuda–Goldreich–Itai).

Decay is the classic single-hop transmission primitive: each node in a
transmitting set ``S`` runs, for ``i = 1 .. log n``, a step in which it
transmits its message with probability ``2^-i``. Whatever the unknown
local density of ``S``, some ``i`` matches it and each node with a
neighbor in ``S`` hears a transmission with constant probability during
the sweep. Iterating the sweep ``O(log n)`` times amplifies this to high
probability (paper Claim 10).

This module provides the vectorized :class:`Decay` protocol (all of ``S``
decaying concurrently) and :func:`run_decay`, which runs one block of
it.

A block reports *who* each listener heard (``heard_from``), never what
was said: what a transmitter says is its own state, which the caller
already holds in its own arrays and indexes by ``heard_from`` — radio
Partition reads its announcers' cluster id and wave that way.

Performance: a Decay block is *oblivious* — the transmit mask of every
step depends only on the fixed active set and the block's randomness,
never on what was heard — so :func:`run_decay` runs the whole block as
one window whose rows are sampled transmitter lists
(:class:`~repro.engine.sampler.RowSampler`, keyed by one block key
drawn from the protocol rng): the engine's cost follows the
transmissions, not ``n`` times the steps. The :class:`Decay` protocol
samples its rows from the same key, one step at a time, so results,
trace totals, and the post-call rng state are all bit-identical to
driving it step by step — which :func:`run_decay` does under
``engine="reference"`` (:func:`run_decay_reference`), as the executable
specification the equivalence suite compares against.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.runner import StreamedWindow
from ..engine.sampler import RowSampler, draw_block_key
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
    """

    heard: np.ndarray
    heard_from: np.ndarray


class Decay(Protocol):
    """Vectorized concurrent Decay over a transmitting set.

    Parameters
    ----------
    network:
        The radio network.
    active:
        Boolean mask of the transmitting set ``S``. Nodes outside listen.
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
        self.span = decay_span(n_estimate if n_estimate is not None else self.n)
        self.total_steps = iterations * self.span
        self._step = 0
        self.heard = np.zeros(self.n, dtype=bool)
        self.heard_from = np.full(self.n, NO_SENDER, dtype=np.int64)
        self._finished = self.total_steps == 0
        self._sampler: RowSampler | None = None
        # Per node, the key of the reception the chunk fold picked
        # (allocated at the first fold; step-wise runs never need it).
        self._first: np.ndarray | None = None

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
        earliest step pins a unique sender). One pass, no sort: each
        not-yet-heard triple is keyed ``step * count + slot`` (distinct
        per triple), ``np.minimum.at`` keeps every node's least key, and
        the triple holding it wins. A node enters this scratch in one
        fold only — it is heard from then on — so it is never reset.
        """
        fresh = ~self.heard[nodes]
        if fresh.any():
            nd = nodes[fresh]
            key = steps[fresh] * nd.size + np.arange(nd.size)
            if self._first is None:
                self._first = np.full(self.n, np.iinfo(np.int64).max)
            np.minimum.at(self._first, nd, key)
            won = self._first[nd] == key
            self.heard_from[nd[won]] = senders[fresh][won]
            self.heard[nd[won]] = True
        self._step += k
        if self._step >= self.total_steps:
            self._finished = True

    def result(self) -> DecayResult:
        return DecayResult(
            heard=self.heard.copy(), heard_from=self.heard_from.copy()
        )


def run_decay(
    network: RadioNetwork,
    active: np.ndarray,
    rng: np.random.Generator,
    iterations: int = 1,
    n_estimate: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> DecayResult:
    """Run a full Decay block and return its :class:`DecayResult`.

    Radio MIS's "marked nodes perform ``O(log n)`` iterations of Decay"
    is one such block, ``run_decay(network, marked, rng,
    iterations=claim10_iterations(n))``.

    Under ``policy`` (see the module docstring): ``engine="reference"``
    drives the :class:`Decay` protocol one
    :meth:`~repro.radio.network.RadioNetwork.deliver` call at a time;
    the windowed engine draws the block key, where the step-wise
    protocol draws it at its first step, and runs the block as one
    window whose receptions fold in step order through
    :meth:`Decay._absorb_coo`. Every row is a pure function of the key,
    so any chunking reproduces the per-step rows: results and rng
    consumption are identical either way, the engine path just much
    faster.
    """
    if iterations < 0:
        raise ProtocolError(f"iterations must be >= 0, got {iterations}")
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    protocol = Decay(
        network, active, iterations=iterations, n_estimate=n_estimate
    )
    if policy.engine == "reference":
        run_steps(protocol, rng, protocol.total_steps)
    elif protocol.total_steps:
        protocol.bind_key(rng)
        policy.runner(network).run(
            StreamedWindow(
                protocol.total_steps,
                protocol.transmitters,
                protocol._absorb_coo,
            )
        )
    return protocol.result()


def run_decay_reference(
    network: RadioNetwork,
    active: np.ndarray,
    rng: np.random.Generator,
    iterations: int = 1,
    n_estimate: int | None = None,
) -> DecayResult:
    """Step-wise Decay block: the executable specification of
    :func:`run_decay`, which it is under
    ``ExecutionPolicy(engine="reference")``.

    ``tests/test_engine_windowed.py`` pins bit-identical results, trace
    totals, and post-call rng state against the windowed path.
    """
    return run_decay(
        network, active, rng, iterations=iterations, n_estimate=n_estimate,
        policy=ExecutionPolicy(engine="reference"),
    )
