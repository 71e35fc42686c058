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
from typing import Callable, Sequence

import numpy as np

from ..radio.errors import ProtocolError

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


def _wakeup_mis_schedule(
    n: int, k: int, rng: np.random.Generator, chunk: int
):
    """Schedule emitter for the MIS-as-wake-up reduction.

    Each Decay block of the marking dynamics is oblivious (masks are the
    round's marked set gated by fresh coins), so blocks go out as
    :class:`~repro.engine.segments.ObliviousWindow` chunks of at most
    ``chunk`` steps. The success event — the first step with exactly
    one transmitter — is a property of the masks alone, so the emitter
    scans each chunk, trims the final window at the success step, and
    stops. On success it rewinds the generator to the chunk's start and
    redraws only the rows up to the success step, so executed radio
    steps, the returned :class:`WakeupResult` and the final rng state
    are all bit-identical to the step-wise reference.
    """
    from ..engine.segments import ObliviousWindow
    from .decay import claim10_iterations, decay_span

    span = decay_span(n)  # the algorithm believes the network has n nodes
    iterations = claim10_iterations(n)
    block = iterations * span
    probs = 2.0 ** -((np.arange(block) % span) + 1.0)

    p = np.full(k, 0.5)
    steps = 0
    budget = max(1, math.ceil(10 * math.log2(max(2, n))))
    for _ in range(budget):
        marked = rng.random(k) < p
        done = 0
        while done < block:
            c = min(chunk, block - done)
            state = rng.bit_generator.state
            coins = rng.random((c, k)) < probs[done : done + c, None]
            masks = marked[None, :] & coins
            singles = np.nonzero(masks.sum(axis=1) == 1)[0]
            if singles.size:
                t = int(singles[0])
                # The reference draws no coin past the success step:
                # rewind and redraw exactly rows 0..t (row-major, so
                # they are the rows just drawn).
                rng.bit_generator.state = state
                rng.random((t + 1, k))
                yield ObliviousWindow(masks[: t + 1])
                return WakeupResult(succeeded=True, steps=steps + t + 1, k=k)
            yield ObliviousWindow(masks)
            steps += c
            done += c
        # Nobody succeeded this round; in the clique every d_t is high,
        # so Ghaffari's update halves every desire level.
        p = p / 2.0
    return WakeupResult(succeeded=False, steps=steps, k=k)


def mis_as_wakeup_strategy(
    n: int,
    k: int,
    rng: np.random.Generator,
    *,
    policy: "ExecutionPolicy | None" = None,
) -> WakeupResult:
    """The paper's reduction, executed: run Radio MIS on a k-clique
    while telling it the network size is ``n``.

    Per footnote 3, a correct MIS algorithm must behave correctly here —
    the ``k`` active nodes cannot distinguish this network from one with
    ``n - k`` extra isolated nodes. We run the *marking* dynamics of
    Algorithm 7 on the clique and report the step of the first clean
    (single-transmitter) step inside its Decay blocks, which is exactly
    the wake-up success event the lower bound counts.

    ``engine="windowed"`` (default) batches the Decay blocks through the
    windowed engine, in coin chunks of the runner's chunk height;
    ``"reference"`` is the retained step-wise loop. Seeded results and
    the final rng state are bit-identical.
    """
    from ..engine.policy import ExecutionPolicy

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

    import networkx as nx

    from ..radio.network import RadioNetwork

    runner = policy.runner(RadioNetwork(nx.complete_graph(k)))
    return runner.run(_wakeup_mis_schedule(n, k, rng, runner.chunk_steps))


def mis_as_wakeup_strategy_reference(
    n: int,
    k: int,
    rng: np.random.Generator,
) -> WakeupResult:
    """Step-wise MIS-as-wake-up: the executable specification.

    One :meth:`~repro.radio.network.RadioNetwork.deliver` call per step,
    stopping at the first single-transmitter step.
    """
    import networkx as nx

    from ..radio.network import RadioNetwork
    from .decay import claim10_iterations, decay_span

    if not 1 <= k <= n:
        raise ProtocolError(f"need 1 <= k <= n, got k={k}, n={n}")
    clique = nx.complete_graph(k)
    net = RadioNetwork(clique)
    span = decay_span(n)  # the algorithm believes the network has n nodes
    iterations = claim10_iterations(n)

    p = np.full(k, 0.5)
    steps = 0
    budget = max(1, math.ceil(10 * math.log2(max(2, n))))
    for _ in range(budget):
        marked = rng.random(k) < p
        for i in range(iterations * span):
            prob = 2.0 ** -((i % span) + 1)
            transmit = marked & (rng.random(k) < prob)
            hear = net.deliver(transmit)
            steps += 1
            if transmit.sum() == 1:
                return WakeupResult(succeeded=True, steps=steps, k=k)
            del hear  # collision or silence: the game continues
        # Nobody succeeded this round; in the clique every d_t is high,
        # so Ghaffari's update halves every desire level.
        p = p / 2.0
    return WakeupResult(succeeded=False, steps=steps, k=k)
