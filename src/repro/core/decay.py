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
never on what was heard — so :class:`Decay` is a
:class:`~repro.engine.runner.SampledBlock`: its rows are transmitter
lists sampled from one block key drawn from the protocol rng, and
:func:`run_decay` runs the whole block as one window, at an engine cost
that follows the transmissions, not ``n`` times the steps. Under
``engine="reference"`` (:func:`run_decay_reference`) the same rows are
delivered one step at a time, as the executable specification the
equivalence suite compares against; results, trace totals, and the
post-call rng state are bit-identical.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.runner import SampledBlock
from ..radio.network import NO_SENDER, RadioNetwork
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


class Decay(SampledBlock):
    """Vectorized concurrent Decay over a transmitting set.

    Parameters
    ----------
    network:
        The radio network.
    active:
        Boolean mask of the transmitting set ``S``. Nodes outside listen.
    iterations:
        Number of sweeps (Claim 10 amplification), an integer >= 0.
    n_estimate:
        Size estimate defining the sweep length, an integer >= 1;
        defaults to the true ``n`` (the strongest version of the
        known-``n`` assumption).

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
        iterations = self.count("iterations", iterations, 0)
        n_est = network.n if n_estimate is None else n_estimate
        self.span = decay_span(self.count("n_estimate", n_est, 1))
        active = np.asarray(active, dtype=bool)
        if active.shape != (network.n,):
            raise ValueError(
                f"active mask has shape {active.shape}, "
                f"expected ({network.n},)"
            )
        # Step t transmits with probability 2^-i, i = (t mod span) + 1.
        steps = np.arange(iterations * self.span)
        super().__init__(
            network, active.copy(), 2.0 ** -((steps % self.span) + 1.0)
        )
        self.heard = np.zeros(self.n, dtype=bool)
        self.heard_from = np.full(self.n, NO_SENDER, dtype=np.int64)
        # Per node, the key of the reception the chunk fold picked
        # (allocated at the first fold; step-wise runs never need it).
        self._first: np.ndarray | None = None

    def observe(self, hear_from: np.ndarray) -> None:
        new = (hear_from != NO_SENDER) & ~self.heard
        self.heard_from[new] = hear_from[new]
        self.heard |= new
        self._advance(1)

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
        self._advance(k)

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

    Under ``policy`` (see the module docstring) the block runs through
    :meth:`~repro.engine.runner.SampledBlock.run`: step by step under
    ``engine="reference"``, else as one window whose receptions fold in
    step order through :meth:`Decay._absorb_coo`. Results and rng
    consumption are identical either way, the engine path just much
    faster.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    block = Decay(
        network, active, iterations=iterations, n_estimate=n_estimate
    )
    block.run(rng, policy)
    return block.result()


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
