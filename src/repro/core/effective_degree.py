"""EstimateEffectiveDegree (paper Algorithm 6).

Radio MIS needs each node ``v`` to know whether its *effective degree*
``d_t(v) = sum of p_t(u) over neighbors u`` is large or small — but exact
effective degrees cannot be collected in a radio network. Algorithm 6
estimates it by listening: for each density guess ``i = 0 .. log n``,
every node transmits with probability ``p_t(v) / 2^i`` for ``C log n``
steps; when ``2^i`` matches ``d_t(v)``, a constant fraction of those
steps deliver a clean transmission, so hearing at least ``C log n / 33``
transmissions at some ``i`` certifies a large effective degree
(Lemma 11: ``d_t(v) >= 1`` implies High whp, ``d_t(v) <= 0.01`` implies
Low whp; in between either answer is allowed).

The protocol runs on *all* active nodes concurrently — each node is both
a transmitter (perturbing others' estimates exactly as in the real
algorithm) and a listener counting its own hears.

Performance: Algorithm 6 is *fully oblivious* — every transmit mask
depends only on the fixed desire levels, the step's density guess, and
the block's randomness, never on what was heard (receptions only
update counters). :class:`EstimateEffectiveDegree` is therefore a
:class:`~repro.engine.runner.SampledBlock`, all rows sampled from one
block key (with the desire levels as column factors), and
:func:`estimate_effective_degree` runs the ``O(log^2 n)``-step block as
one window, whose expected work per row lets the runner cut the dense
levels fine and the sparse tail coarse, so the engine's cost follows
the transmissions. The step-wise drive is retained as its
``engine="reference"`` branch
(:func:`estimate_effective_degree_reference`); it samples the same rows
from the same block key, so results, trace totals, and rng consumption
are bit-identical.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.runner import SampledBlock
from ..radio.errors import ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from .resulteq import ArrayEqMixin

#: Lemma 11's hearing-rate threshold: High iff some round-``i`` hear count
#: reaches ``steps_per_level / 33``.
THRESHOLD_DIVISOR = 33.0

#: Effective degree above which Lemma 11 guarantees High.
HIGH_GUARANTEE = 1.0

#: Effective degree below which Lemma 11 guarantees Low.
LOW_GUARANTEE = 0.01


@dataclasses.dataclass(eq=False)
class EffectiveDegreeResult(ArrayEqMixin):
    """Outcome of one EstimateEffectiveDegree block.

    ``high`` is the per-node High/Low verdict (True = High); ``counts``
    has shape ``(levels, n)`` with the raw per-level hear counts, kept for
    the E2 accuracy experiment.
    """

    high: np.ndarray
    counts: np.ndarray
    steps_per_level: int


class EstimateEffectiveDegree(SampledBlock):
    """Vectorized Algorithm 6 over the active node set.

    Parameters
    ----------
    network:
        The radio network.
    p:
        Desire levels ``p_t(v)``; only entries of active nodes are used.
    active:
        Mask of nodes still in the (MIS-residual) graph. Inactive nodes
        neither transmit nor produce a verdict.
    C:
        The "sufficiently large constant", an integer >= 1: each
        density level runs for ``C * ceil(log2 n)`` steps. Larger ``C``
        sharpens Lemma 11's guarantee at linear cost in steps; the E2
        benchmark sweeps it.
    n_estimate:
        Network-size estimate, an integer >= 1; defaults to the true
        ``n``.
    """

    def __init__(
        self,
        network: RadioNetwork,
        p: np.ndarray,
        active: np.ndarray,
        C: int = 24,
        n_estimate: int | None = None,
    ) -> None:
        C = self.count("C", C, 1)
        n_est = network.n if n_estimate is None else n_estimate
        n_est = self.count("n_estimate", n_est, 1)
        p = np.asarray(p, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        if p.shape != (network.n,) or active.shape != (network.n,):
            raise ValueError("p and active must be length-n arrays")
        if np.any((p < 0) | (p > 1)):
            raise ProtocolError("desire levels must lie in [0, 1]")
        log_n = max(1, math.ceil(math.log2(max(2, n_est))))
        self.levels = log_n + 1  # i = 0 .. log n inclusive
        self.steps_per_level = C * log_n
        self.p = np.where(active, p, 0.0)
        # Step t transmits with probability p(v) / 2^i,
        # i = t // steps_per_level.
        steps = np.arange(self.levels * self.steps_per_level)
        super().__init__(
            network, active.copy(), 2.0 ** -(steps // self.steps_per_level),
            self.p,
        )
        self.counts = np.zeros((self.levels, self.n), dtype=np.int64)

    def observe(self, hear_from: np.ndarray) -> None:
        heard = (hear_from != NO_SENDER) & self.active
        self.counts[self._step // self.steps_per_level, heard] += 1
        self._advance(1)

    def _absorb_coo(
        self,
        k: int,
        steps: np.ndarray,
        nodes: np.ndarray,
        senders: np.ndarray,
    ) -> None:
        """Fold a ``k``-step chunk of receptions.

        Equivalent to ``k`` sequential :meth:`observe` calls: each
        ``(step, node, sender)`` triple bumps the counter of its step's
        density level. Hear counts are order-independent sums, so
        arbitrary triple order is fine. One ``np.bincount`` over
        ``(level - lo) * n + node`` counts the chunk's levels
        ``lo .. hi - 1`` at once — duplicates (a node hearing on several
        steps) included, and a chunk that spans levels too.
        """
        keep = self.active[nodes]
        if keep.any():
            lo = self._step // self.steps_per_level
            hi = (self._step + k - 1) // self.steps_per_level + 1
            lev = (self._step + steps[keep]) // self.steps_per_level
            cells = (lev - lo) * self.n + nodes[keep]
            self.counts[lo:hi] += np.bincount(
                cells, minlength=(hi - lo) * self.n
            ).reshape(hi - lo, self.n)
        self._advance(k)

    def result(self) -> EffectiveDegreeResult:
        threshold = self.steps_per_level / THRESHOLD_DIVISOR
        high = (self.counts >= threshold).any(axis=0) & self.active
        return EffectiveDegreeResult(
            high=high,
            counts=self.counts.copy(),
            steps_per_level=self.steps_per_level,
        )


def estimate_effective_degree(
    network: RadioNetwork,
    p: np.ndarray,
    active: np.ndarray,
    rng: np.random.Generator,
    C: int = 24,
    n_estimate: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> EffectiveDegreeResult:
    """Run one full EstimateEffectiveDegree block under ``policy``.

    Step ``t`` of the block transmits with probability
    ``p(v) / 2^(t // steps_per_level)``. The block runs through
    :meth:`~repro.engine.runner.SampledBlock.run`: one step at a time
    under ``engine="reference"``, else as one window of rows sampled
    from the block's key, whose receptions fold per chunk through
    :meth:`EstimateEffectiveDegree._absorb_coo`, which counts every
    level a chunk spans.

    The policy's ``mem_budget`` caps the streamed chunk height, and the
    rows' expected work cuts below that cap (bit-identical wherever the
    cuts fall); this block is
    the canonical out-of-core workload, since its ``O(log^2 n)`` steps
    are what stalled ``n >= 10^5`` runs when materialized whole.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    block = EstimateEffectiveDegree(
        network, p, active, C=C, n_estimate=n_estimate
    )
    block.run(rng, policy)
    return block.result()


def estimate_effective_degree_reference(
    network: RadioNetwork,
    p: np.ndarray,
    active: np.ndarray,
    rng: np.random.Generator,
    C: int = 24,
    n_estimate: int | None = None,
) -> EffectiveDegreeResult:
    """Step-wise EstimateEffectiveDegree: the executable specification,
    :func:`estimate_effective_degree` under
    ``ExecutionPolicy(engine="reference")``; the equivalence suite pins
    the windowed path against it.
    """
    return estimate_effective_degree(
        network, p, active, rng, C=C, n_estimate=n_estimate,
        policy=ExecutionPolicy(engine="reference"),
    )


def exact_effective_degree(
    network: RadioNetwork, p: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Oracle effective degrees ``d_t(v)`` (instrumentation only).

    Used by the ``oracle_degree`` fidelity knob of Radio MIS (documented
    in DESIGN.md substitution 3) and by golden-round instrumentation;
    never by the faithful protocol path.
    """
    p = np.asarray(p, dtype=np.float64)
    active = np.asarray(active, dtype=bool)
    return network.neighbor_sum(np.where(active, p, 0.0))
