"""Radio MIS (paper Algorithm 7, Section 4) — the first maximal
independent set algorithm for general-graph radio networks.

The algorithm is Ghaffari's LOCAL-model MIS (Algorithm 4) with its three
communication needs realized by radio primitives:

* "did any neighbor mark itself?" — marked nodes run ``O(log n)``
  iterations of Decay (Claim 10);
* "did a neighbor join the MIS?" — joining nodes run Decay likewise;
* "is my effective degree high or low?" — EstimateEffectiveDegree
  (Algorithm 6 / Lemma 11), replacing Ghaffari's exact threshold test
  with a (1, 0.01) two-sided test.

Each of ``O(log n)`` rounds costs ``O(log^2 n)`` radio steps, for the
``O(log^3 n)`` total of Theorem 14, a ``log n`` factor from the
``Omega(log^2 n)`` lower bound. :func:`mis_rounds` is that round loop;
:func:`compute_mis` runs it once, and restartable MIS
(:mod:`repro.core.mis_restart`) once per epoch. A round is two
:func:`~repro.core.decay.run_decay` calls and one
:func:`~repro.core.effective_degree.estimate_effective_degree` call,
each under the caller's policy, so the same loop runs on the windowed
engine or, under ``engine="reference"``, step by step
(:func:`compute_mis_reference`).

Instrumentation for the analysis (Lemmas 12-13) is built in: golden
rounds of both types are tracked per node using oracle effective degrees
(instrumentation only — the protocol path never reads them unless the
documented ``oracle_degree`` speed knob is enabled).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Hashable

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..radio.network import RadioNetwork
from .decay import claim10_iterations, run_decay
from .resulteq import ArrayEqMixin
from .effective_degree import (
    HIGH_GUARANTEE,
    estimate_effective_degree,
    exact_effective_degree,
)

#: Effective-degree floor of a type-2 golden round (Lemma 12).
TYPE2_DEGREE_FLOOR = 1.0 / 200.0

#: Fraction of ``d_t(v)`` that low-degree neighbors must contribute for a
#: type-2 golden round.
TYPE2_LOW_FRACTION = 0.1


@dataclasses.dataclass
class MISConfig:
    """Tunable constants of Radio MIS.

    All defaults correspond to the paper's structure; the explicit
    constants inside the O() notations are exposed because the
    reproduction's benchmarks measure how behavior depends on them
    (DESIGN.md substitution 3).

    Attributes
    ----------
    round_factor:
        Round budget is ``ceil(round_factor * log2 n)`` — the paper's
        ``13 c log n`` with ``round_factor = 13c``.
    decay_amplification:
        Claim 10 constant: each Decay block runs
        ``ceil(decay_amplification * log2 n)`` sweeps.
    eed_C:
        The ``C`` of Algorithm 6.
    oracle_degree:
        If true, skip the EstimateEffectiveDegree sub-protocol and use
        exact effective degrees with threshold
        :data:`~repro.core.effective_degree.HIGH_GUARANTEE` instead —
        a documented fidelity/speed knob that removes the dominant
        ``O(log^2 n)``-step cost per round while keeping the marking
        dynamics identical in distribution up to Lemma 11's slack.
    stop_when_done:
        Stop as soon as no active nodes remain (output is identical;
        remaining rounds would be no-ops). Disable to measure the full
        fixed budget.
    record_golden:
        Track golden rounds per node (costs one oracle degree computation
        per round; has no effect on protocol behavior).
    """

    round_factor: float = 10.0
    decay_amplification: float = 4.0
    eed_C: int = 24
    oracle_degree: bool = False
    stop_when_done: bool = True
    record_golden: bool = True


@dataclasses.dataclass
class MISRoundRecord:
    """Per-round instrumentation of a Radio MIS run."""

    round_index: int
    active_before: int
    marked: int
    joined: int
    removed: int
    golden_type1: int
    golden_type2: int


@dataclasses.dataclass(eq=False)
class MISResult(ArrayEqMixin):
    """Output of :func:`compute_mis`.

    ``mis`` holds node labels; ``mis_mask`` the same set as a boolean
    index array. ``golden_type1``/``golden_type2`` count golden rounds
    per node over the whole run (Lemma 12 instrumentation).
    """

    mis: set[Hashable]
    mis_mask: np.ndarray
    rounds_used: int
    steps_used: int
    all_removed: bool
    history: list[MISRoundRecord]
    golden_type1: np.ndarray
    golden_type2: np.ndarray

    @property
    def size(self) -> int:
        """Number of MIS nodes."""
        return len(self.mis)


def mis_round_budget(n_estimate: int, round_factor: float) -> int:
    """The ``O(log n)`` round budget of Algorithm 7."""
    return max(1, math.ceil(round_factor * math.log2(max(2, n_estimate))))


def compute_mis(
    network: RadioNetwork,
    rng: np.random.Generator,
    config: MISConfig | None = None,
    n_estimate: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> MISResult:
    """Run Radio MIS (Algorithm 7) on ``network``.

    Parameters
    ----------
    network:
        The radio network. Connectivity is *not* required (MIS is a local
        problem, paper Section 1.2).
    rng:
        Randomness source for all nodes' coins.
    config:
        Constants; see :class:`MISConfig`.
    n_estimate:
        The network-size estimate nodes are assumed to know; defaults to
        the exact ``n``.
    policy:
        The :class:`~repro.engine.policy.ExecutionPolicy` every block
        of the round loop runs under. ``engine="windowed"`` (the
        default) runs each block on the batched engine, ``"reference"``
        step by step — bit-identical seeded results; ``mem_budget``
        streams the engine path's windows (a memory knob only — peak
        memory is bounded by the chunk instead of growing with
        ``log^2 n * n``).

    Returns
    -------
    MISResult
        With high probability (for default constants) ``mis`` is a
        maximal independent set and ``all_removed`` is true; tests
        validate both via :func:`repro.graphs.is_maximal_independent_set`.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    config = config or MISConfig()
    n_est = n_estimate if n_estimate is not None else network.n
    active = np.ones(network.n, dtype=bool)
    steps_before = network.steps_elapsed
    in_mis, rounds_used, history, golden1, golden2 = mis_rounds(
        network, rng, active, config, n_est, policy, "mis"
    )
    network.trace.enter_phase("default")
    mis_labels = {network.label_of(int(i)) for i in np.nonzero(in_mis)[0]}
    return MISResult(
        mis=mis_labels,
        mis_mask=in_mis,
        rounds_used=rounds_used,
        steps_used=network.steps_elapsed - steps_before,
        all_removed=not bool(active.any()),
        history=history,
        golden_type1=golden1,
        golden_type2=golden2,
    )


def mis_rounds(
    network: RadioNetwork,
    rng: np.random.Generator,
    active: np.ndarray,
    config: MISConfig,
    n_est: int,
    policy: ExecutionPolicy,
    phase: str,
) -> tuple[np.ndarray, int, list[MISRoundRecord], np.ndarray, np.ndarray]:
    """Algorithm 7's round loop over the nodes of ``active``.

    Up to :func:`mis_round_budget` rounds, each: mark, the marked-echo
    and MIS-announce Decay blocks, the effective-degree test (EED, or
    the oracle under ``config.oracle_degree``) and the desire update,
    every block under ``policy`` in the trace phases
    ``<phase>/decay-marked``, ``<phase>/decay-mis`` and ``<phase>/eed``.
    Joiners and their dominated neighbors are cleared from ``active``
    in place. Returns the joiners' mask, the rounds used, the per-round
    history and the per-node golden-round counts of both types (zero
    without ``config.record_golden``).
    """
    n = network.n
    decay_iters = claim10_iterations(n_est, config.decay_amplification)
    p = np.full(n, 0.5, dtype=np.float64)
    in_mis = np.zeros(n, dtype=bool)
    golden1 = np.zeros(n, dtype=np.int64)
    golden2 = np.zeros(n, dtype=np.int64)
    history: list[MISRoundRecord] = []

    rounds_used = 0
    for t in range(mis_round_budget(n_est, config.round_factor)):
        if config.stop_when_done and not active.any():
            break
        rounds_used = t + 1
        active_before = int(active.sum())

        g1 = g2 = 0
        if config.record_golden:
            g1, g2 = _record_golden_rounds(
                network, p, active, golden1, golden2
            )

        # --- marking ---------------------------------------------------
        marked = active & (rng.random(n) < p)

        # --- both Decay blocks -------------------------------------------
        network.trace.enter_phase(f"{phase}/decay-marked")
        marked_echo = run_decay(
            network, marked, rng, iterations=decay_iters, n_estimate=n_est,
            policy=policy,
        )
        # A node v heard during block 1 iff some marked neighbor's
        # transmission reached it cleanly; Claim 10 makes this whp exact.
        joined = marked & ~marked_echo.heard

        in_mis |= joined

        network.trace.enter_phase(f"{phase}/decay-mis")
        mis_echo = run_decay(
            network, joined, rng, iterations=decay_iters, n_estimate=n_est,
            policy=policy,
        )
        removed = joined | (mis_echo.heard & active)
        active &= ~removed

        # --- effective degree estimate -----------------------------------
        if config.oracle_degree:
            d_exact = exact_effective_degree(network, p, active)
            high = active & (d_exact >= HIGH_GUARANTEE)
        else:
            network.trace.enter_phase(f"{phase}/eed")
            eed = estimate_effective_degree(
                network, p, active, rng, C=config.eed_C, n_estimate=n_est,
                policy=policy,
            )
            high = eed.high

        # --- desire-level update -----------------------------------------
        p = np.where(high, p / 2.0, np.minimum(2.0 * p, 0.5))

        history.append(
            MISRoundRecord(
                round_index=t,
                active_before=active_before,
                marked=int(marked.sum()),
                joined=int(joined.sum()),
                removed=int(removed.sum()),
                golden_type1=g1,
                golden_type2=g2,
            )
        )
    return in_mis, rounds_used, history, golden1, golden2


def compute_mis_reference(
    network: RadioNetwork,
    rng: np.random.Generator,
    config: MISConfig | None = None,
    n_estimate: int | None = None,
) -> MISResult:
    """Step-wise Radio MIS: the executable specification.

    :func:`compute_mis` under ``ExecutionPolicy(engine="reference")``:
    the same round loop with its sub-protocols driven one
    :meth:`~repro.radio.network.RadioNetwork.deliver` call at a time.
    The equivalence suite pins the windowed run against it bit-for-bit
    (results, step counts, trace totals, rng stream).
    """
    return compute_mis(
        network, rng, config, n_estimate,
        policy=ExecutionPolicy(engine="reference"),
    )


def _record_golden_rounds(
    network: RadioNetwork,
    p: np.ndarray,
    active: np.ndarray,
    golden1: np.ndarray,
    golden2: np.ndarray,
) -> tuple[int, int]:
    """Tally golden rounds (Lemma 12's two types) for active nodes.

    Type 1: ``d_t(v) < 1`` and ``p_t(v) = 1/2``.
    Type 2: ``d_t(v) >= 1/200`` and low-degree neighbors (those with
    ``d_t(u) < 1``) contribute at least ``d_t(v) / 10`` of it.
    Oracle computation; instrumentation only.
    """
    d = exact_effective_degree(network, p, active)
    low_degree = active & (d < 1.0)
    low_contribution = network.neighbor_sum(
        np.where(low_degree & active, p, 0.0)
    )

    type1 = active & (d < 1.0) & (p == 0.5)
    type2 = (
        active
        & (d >= TYPE2_DEGREE_FLOOR)
        & (low_contribution >= TYPE2_LOW_FRACTION * d)
    )
    golden1[type1] += 1
    golden2[type2] += 1
    return int(type1.sum()), int(type2.sum())
