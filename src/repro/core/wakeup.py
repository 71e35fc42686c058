"""The single-hop wake-up problem (paper Section 1.5.1).

The paper's MIS lower bound comes by reduction: ``n`` nodes sit in a
clique but only an unknown ``k`` of them are *activated* at time 0; the
goal is a *successful transmission* — a step where exactly one active
node transmits. Any high-probability MIS algorithm, simulated by the
active nodes, must produce such a step (a node cannot safely join the
MIS of a clique without one), so the ``Omega(log^2 n)`` wake-up lower
bound of Farach-Colton–Fernandes–Mosteiro transfers to MIS.

This module makes the reduction concrete and measurable:

* :func:`run_wakeup` — the wake-up game itself, for any transmission
  strategy (a per-step probability schedule);
* :func:`decay_schedule` — the cyclic Decay ladder, the classic
  ``O(log^2 n)``-expected strategy (and the one inside Algorithm 7);
* :func:`uniform_schedule` — the naive fixed-probability strategy that
  degrades badly when ``k`` is far from its tuned density;
* :func:`mis_as_wakeup_strategy` — runs actual Radio MIS on the
  k-active clique and reports the step of its first successful
  transmission, realizing the reduction in the paper's footnote 3
  (the MIS algorithm must still work when given ``n`` but run on ``k``
  nodes, because isolated extra nodes are indistinguishable).

Experiment E11 uses these to reproduce the lower-bound *shape*: every
correct strategy needs steps growing with both ``log n`` (to sweep
densities) and the confidence level.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from ..corpus.graph import CSRGraph
from ..engine.policy import ExecutionPolicy
from ..engine.segments import StreamedWindow, TransmitterPlan
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from .decay import Decay, claim10_iterations
from .effective_degree import HIGH_GUARANTEE

Schedule = Callable[[int], float]
"""Maps a step index to the transmission probability every active node
uses in that step (symmetric strategies — the interesting regime, since
nodes are indistinguishable before the first success)."""


def decay_schedule(n_estimate: int) -> Schedule:
    """Cyclic Decay ladder: step ``t`` uses probability ``2^-(t mod L + 1)``.

    ``L = ceil(log2 n)``; some rung is within a factor 2 of ``1/k`` for
    every ``k <= n``, giving a constant success chance per cycle —
    hence expected ``O(log n)`` steps *per cycle hit* and ``O(log^2 n)``
    for high-probability success over all k simultaneously.
    """
    span = max(1, math.ceil(math.log2(max(2, n_estimate))))

    def schedule(step: int) -> float:
        return 2.0 ** -((step % span) + 1)

    return schedule


def uniform_schedule(probability: float) -> Schedule:
    """Fixed-probability strategy (optimal iff tuned to ``k``).

    With ``p = 1/k`` the per-step success chance is ``~1/e``; with ``k``
    unknown the strategy collapses: success probability per step is
    ``k p (1-p)^(k-1) -> 0`` when ``p`` misses ``1/k`` by a large
    factor. The E11 table shows exactly that failure.
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability}")

    def schedule(step: int) -> float:
        return probability

    return schedule


@dataclasses.dataclass
class WakeupResult:
    """Outcome of one wake-up game."""

    succeeded: bool
    steps: int
    k: int


def run_wakeup(
    k: int,
    schedule: Schedule,
    rng: np.random.Generator,
    max_steps: int = 10_000,
) -> WakeupResult:
    """Play the wake-up game with ``k`` active clique nodes.

    Each step, every active node independently transmits with the
    schedule's probability; success is the first step with exactly one
    transmitter. The clique topology never matters beyond "everyone
    collides with everyone", so the game is simulated directly on the
    binomial count.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for step in range(max_steps):
        p = schedule(step)
        transmitters = rng.binomial(k, p)
        if transmitters == 1:
            return WakeupResult(succeeded=True, steps=step + 1, k=k)
    return WakeupResult(succeeded=False, steps=max_steps, k=k)


def expected_steps(
    k: int,
    schedule: Schedule,
    rng: np.random.Generator,
    trials: int = 50,
    max_steps: int = 10_000,
) -> float:
    """Mean steps-to-success over repeated games (failures count full)."""
    results = [run_wakeup(k, schedule, rng, max_steps) for _ in range(trials)]
    return float(np.mean([r.steps for r in results]))


def _next_desire(p: float, k: int) -> float:
    """Ghaffari's update after a round without success, on the clique's
    exact effective degree ``(k - 1) p`` (every node stays active and
    shares ``p``), as :func:`~repro.core.mis.compute_mis` applies it
    under ``oracle_degree=True``."""
    if (k - 1) * p >= HIGH_GUARANTEE:
        return p / 2.0
    return min(2.0 * p, 0.5)


def _clique_network(k: int) -> RadioNetwork:
    """The radio network of the ``k``-clique both drivers of the
    reduction run on, over an identity-labeled CSR built with numpy
    (row ``i`` lists every other node, ascending)."""
    others = np.arange(k - 1, dtype=np.int32)
    rows = np.arange(k, dtype=np.int32)[:, None]
    indices = (others + (others >= rows)).ravel()
    indptr = np.arange(k + 1, dtype=np.int32) * np.int32(k - 1)
    return RadioNetwork(CSRGraph(indptr, indices))


def _wakeup_mis_schedule(
    network: RadioNetwork, n: int, rng: np.random.Generator
):
    """Schedule emitter for the MIS-as-wake-up reduction on the
    ``k``-clique ``network``.

    A Decay block's success event — its first row with exactly one
    transmitter — is a property of its keyed rows alone, so the emitter
    samples the block, trims it at that row and streams it. The
    reference samples the same rows one step at a time, so steps,
    result and final rng state agree.
    """
    k = network.n
    p = 0.5
    steps = 0
    for _ in range(max(1, math.ceil(10 * math.log2(max(2, n))))):
        marked = rng.random(k) < p
        # Claim 10's iterations of the ladder for n believed nodes.
        block = Decay(
            network, marked, iterations=claim10_iterations(n), n_estimate=n
        )
        block.bind_key(rng)
        total = block.total_steps
        row_of, _ = block.transmitters(0, total)
        singles = np.flatnonzero(np.bincount(row_of, minlength=total) == 1)
        width = int(singles[0]) + 1 if singles.size else total
        yield StreamedWindow(
            TransmitterPlan(width, block.transmitters),
            consume_coo=lambda *reception: None,  # only the rows matter
        )
        steps += width
        if singles.size:
            return WakeupResult(succeeded=True, steps=steps, k=k)
        p = _next_desire(p, k)
    return WakeupResult(succeeded=False, steps=steps, k=k)


def mis_as_wakeup_strategy(
    n: int,
    k: int,
    rng: np.random.Generator,
    *,
    policy: ExecutionPolicy | None = None,
) -> WakeupResult:
    """The paper's reduction, executed: run Radio MIS on a k-clique
    while telling it the network size is ``n``.

    Per footnote 3, a correct MIS algorithm must behave correctly here —
    the ``k`` active nodes cannot distinguish this network from one with
    ``n - k`` extra isolated nodes. We run the *marking* dynamics of
    Algorithm 7 on the clique and report the step of the first clean
    (single-transmitter) step inside its Decay blocks, which is exactly
    the wake-up success event the lower bound counts. A round without
    one updates the desire level by Ghaffari's rule on the clique's
    exact effective degree (:func:`_next_desire`).

    ``engine="windowed"`` (default) streams the Decay blocks through
    the windowed engine; ``"reference"`` is the retained step-wise
    loop. Seeded results and the final rng state are bit-identical.
    """
    if not 1 <= k <= n:
        raise ProtocolError(f"need 1 <= k <= n, got k={k}, n={n}")
    policy = policy or ExecutionPolicy()
    schedule = policy.faults
    if schedule is not None and not schedule.is_empty:
        raise ProtocolError(
            "mis_as_wakeup_strategy builds its own internal k-clique, "
            "so a FaultSchedule over the caller's topology cannot "
            "apply; run the reduction fault-free (faults=None or an "
            "empty FaultSchedule)"
        )
    if policy.engine == "reference":
        return mis_as_wakeup_strategy_reference(n, k, rng)
    clique = _clique_network(k)
    return policy.run_schedule(clique, _wakeup_mis_schedule(clique, n, rng))


def mis_as_wakeup_strategy_reference(
    n: int,
    k: int,
    rng: np.random.Generator,
) -> WakeupResult:
    """Step-wise MIS-as-wake-up: the executable specification.

    One :meth:`~repro.radio.network.RadioNetwork.deliver` call per step,
    each step's transmitters sampled alone from the block's rows,
    stopping at the first single-transmitter step.
    """
    if not 1 <= k <= n:
        raise ProtocolError(f"need 1 <= k <= n, got k={k}, n={n}")
    net = _clique_network(k)

    p = 0.5
    steps = 0
    for _ in range(max(1, math.ceil(10 * math.log2(max(2, n))))):
        marked = rng.random(k) < p
        block = Decay(
            net, marked, iterations=claim10_iterations(n), n_estimate=n
        )
        block.bind_key(rng)
        for t in range(block.total_steps):
            _, nodes = block.transmitters(t, t + 1)
            transmit = np.zeros(k, dtype=bool)
            transmit[nodes] = True
            net.deliver(transmit)  # collision or silence unless one sent
            steps += 1
            if nodes.size == 1:
                return WakeupResult(succeeded=True, steps=steps, k=k)
        p = _next_desire(p, k)
    return WakeupResult(succeeded=False, steps=steps, k=k)
