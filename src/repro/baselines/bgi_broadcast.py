"""The Bar-Yehuda–Goldreich–Itai Decay broadcast baseline (packet level).

The seminal randomized broadcast for radio networks (paper Section
1.5.1): every node that knows the message participates in repeated Decay
sweeps; listeners that hear the message join the informed set at the
next sweep boundary (BGI's sweeps are synchronized — a Decay sweep runs
over a set fixed for the whole sweep, exactly as Algorithm 5 is
stated). Completes in ``O(D log n + log^2 n)`` steps with high
probability — the bound the paper's ``O(D log_D alpha + polylog n)``
improves on whenever ``log_D alpha = o(log n)``.

Because this baseline is simple enough to simulate packet-by-packet at
every scale we benchmark, it anchors the E6 comparison: our pipeline's
*charged* rounds versus BGI's *actually simulated* steps, both against
their respective claimed shapes.

Engine: sweep synchronization makes each sweep one Decay iteration
over the frozen informed set — an *oblivious window* of ``log n``
keyed transmitter rows, one block key per sweep — and the informed-set
update at the sweep boundary is the decision point. :func:`bgi_broadcast`
is one sweep loop; each sweep is a :class:`~repro.core.decay.Decay`
block run by :meth:`~repro.engine.runner.SampledBlock.run` — one window
on the windowed engine, folding only who heard, or, under
``engine="reference"`` (:func:`bgi_broadcast_reference`), step by step.
Seeded runs of the two are bit-identical — results, step counts, trace
totals, and rng stream.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.decay import Decay
from ..engine.policy import ExecutionPolicy
from ..radio.errors import (
    BudgetExceededError,
    GraphContractError,
    ProtocolError,
)
from ..radio.network import RadioNetwork


@dataclasses.dataclass
class BGIBroadcastResult:
    """Outcome of a packet-level BGI broadcast."""

    source: int
    delivered: bool
    steps: int
    sweeps: int
    informed_history: list[int]


def _initial_informed(
    network: RadioNetwork,
    source: int,
    sources: list[int] | None,
    max_sweeps: int | None,
) -> tuple[np.ndarray, int]:
    """The checked initial informed set and the sweep budget, by default
    ``8 n + 16 log n`` (D-proxy ``n``; it only guards the simulation)."""
    n = network.n
    nodes = [int(s) for s in (sources if sources is not None else [source])]
    for s in nodes:
        if not 0 <= s < n:
            raise ProtocolError(f"bgi source {s} out of range [0, {n})")
    if not network.is_connected():
        raise GraphContractError("broadcast requires a connected network")
    informed = np.zeros(n, dtype=bool)
    informed[nodes] = True
    if max_sweeps is None:
        max_sweeps = 8 * n + 16 * max(1, math.ceil(math.log2(max(2, n))))
    return informed, max_sweeps


def bgi_broadcast(
    network: RadioNetwork,
    source: int,
    rng: np.random.Generator,
    sources: list[int] | None = None,
    max_sweeps: int | None = None,
    *,
    best_effort: bool = False,
    policy: ExecutionPolicy | None = None,
) -> BGIBroadcastResult:
    """Broadcast ``source``'s message with repeated Decay sweeps.

    Parameters
    ----------
    network:
        The radio network (must be connected).
    source:
        Index of the source node (ignored if ``sources`` is given).
    rng:
        Randomness source.
    sources:
        Optional multiple sources (multi-source broadcast, used by the
        binary-search leader election baseline).
    max_sweeps:
        Safety budget in Decay sweeps; see :func:`_initial_informed`.
    best_effort:
        Exhausting the sweep budget returns ``delivered=False`` instead
        of raising — the mode fault-tolerant callers need, since a
        crashed node makes all-informed completion unreachable.
    policy:
        Execution policy. ``engine="windowed"`` (the default)
        executes one sparse product per sweep;
        ``"reference"`` steps through :func:`bgi_broadcast_reference`.
        Seeded results are bit-identical.

    Returns
    -------
    BGIBroadcastResult
        ``steps`` counts actual simulated radio steps.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    informed, max_sweeps = _initial_informed(
        network, source, sources, max_sweeps
    )

    steps_before = network.steps_elapsed
    network.trace.enter_phase("bgi-broadcast")
    history = [int(informed.sum())]
    sweeps = 0
    while not informed.all():
        if sweeps >= max_sweeps:
            if best_effort:
                break
            raise BudgetExceededError(
                f"BGI broadcast did not complete within {max_sweeps} sweeps"
            )
        sweep = Decay(network, informed)

        def fold(k, steps, nodes, senders) -> None:
            sweep.heard[nodes] = True  # all a sweep boundary reads

        sweep.run(rng, policy, fold)
        informed |= sweep.heard
        sweeps += 1
        history.append(int(informed.sum()))
    network.trace.enter_phase("default")

    return BGIBroadcastResult(
        source=source,
        delivered=bool(informed.all()),
        steps=network.steps_elapsed - steps_before,
        sweeps=sweeps,
        informed_history=history,
    )


def bgi_broadcast_reference(
    network: RadioNetwork,
    source: int,
    rng: np.random.Generator,
    sources: list[int] | None = None,
    max_sweeps: int | None = None,
    best_effort: bool = False,
) -> BGIBroadcastResult:
    """Step-wise BGI broadcast: the executable specification.

    :func:`bgi_broadcast` under ``ExecutionPolicy(engine="reference")``:
    the same sweep-synchronized loop — the informed set is frozen per
    sweep, updated at sweep boundaries — with each sweep's
    :class:`~repro.core.decay.Decay` driven one
    :meth:`~repro.radio.network.RadioNetwork.deliver` call per step.
    """
    return bgi_broadcast(
        network, source, rng, sources=sources, max_sweeps=max_sweeps,
        best_effort=best_effort, policy=ExecutionPolicy(engine="reference"),
    )
