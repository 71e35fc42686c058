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

Engine migration: sweep synchronization makes each sweep an *oblivious
window* — its ``log n`` masks are the frozen informed set gated by
fresh coins — and the informed-set update at the sweep boundary is the
decision point. :func:`bgi_schedule` emits exactly that structure;
:func:`bgi_broadcast` runs it on the windowed engine (one sparse
matrix-matrix product per sweep), and :func:`bgi_broadcast_reference`
retains the step-wise drive of the same semantics. Seeded runs of the
two are bit-identical — results, step counts, trace totals, and rng
stream.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.decay import decay_span
from ..engine.policy import ExecutionPolicy
from ..engine.segments import ObliviousWindow, ProtocolSchedule, TracePhase
from ..radio.errors import BudgetExceededError, GraphContractError
from ..radio.network import NO_SENDER, RadioNetwork


@dataclasses.dataclass
class BGIBroadcastResult:
    """Outcome of a packet-level BGI broadcast."""

    source: int
    delivered: bool
    steps: int
    sweeps: int
    informed_history: list[int]


def _initial_informed(
    network: RadioNetwork, source: int, sources: list[int] | None
) -> tuple[np.ndarray, int]:
    if not network.is_connected():
        raise GraphContractError("broadcast requires a connected network")
    informed = np.zeros(network.n, dtype=bool)
    for s in sources if sources is not None else [source]:
        informed[int(s)] = True
    return informed, network.n


def _default_max_sweeps(n: int) -> int:
    """Safety budget: ``8 * (D-proxy) + 16 log n`` sweeps with D-proxy
    ``n`` (the ad-hoc algorithm does not need D; this only guards the
    simulation)."""
    return 8 * n + 16 * max(1, math.ceil(math.log2(max(2, n))))


def bgi_schedule(
    network: RadioNetwork,
    source: int,
    rng: np.random.Generator,
    sources: list[int] | None = None,
    max_sweeps: int | None = None,
    best_effort: bool = False,
) -> ProtocolSchedule:
    """Schedule emitter for BGI broadcast.

    One :class:`~repro.engine.segments.ObliviousWindow` per Decay sweep
    (the informed set is frozen for the sweep), one informed-set update
    per sweep boundary. Returns the :class:`BGIBroadcastResult`.
    """
    informed, n = _initial_informed(network, source, sources)
    span = decay_span(n)
    probs = 2.0 ** -(np.arange(1, span + 1, dtype=np.float64))
    if max_sweeps is None:
        max_sweeps = _default_max_sweeps(n)

    steps_before = network.steps_elapsed
    yield TracePhase("bgi-broadcast")
    history = [int(informed.sum())]
    sweeps = 0
    while not informed.all():
        if sweeps >= max_sweeps:
            if best_effort:
                break
            raise BudgetExceededError(
                f"BGI broadcast did not complete within {max_sweeps} sweeps"
            )
        coins = rng.random((span, n)) < probs[:, None]
        masks = informed[None, :] & coins
        hear_window = yield ObliviousWindow(masks)
        informed |= (hear_window != NO_SENDER).any(axis=0)
        sweeps += 1
        history.append(int(informed.sum()))
    yield TracePhase("default")

    return BGIBroadcastResult(
        source=source,
        delivered=bool(informed.all()),
        steps=network.steps_elapsed - steps_before,
        sweeps=sweeps,
        informed_history=history,
    )


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
        Safety budget in Decay sweeps; see :func:`_default_max_sweeps`.
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
    if policy.engine == "reference":
        return bgi_broadcast_reference(
            network, source, rng, sources=sources, max_sweeps=max_sweeps,
            best_effort=best_effort,
        )
    return policy.run_schedule(
        network,
        bgi_schedule(
            network, source, rng, sources=sources, max_sweeps=max_sweeps,
            best_effort=best_effort,
        ),
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

    Same sweep-synchronized semantics as :func:`bgi_schedule` — the
    informed set is frozen per sweep, updated at sweep boundaries — one
    :meth:`~repro.radio.network.RadioNetwork.deliver` call per step.
    """
    informed, n = _initial_informed(network, source, sources)
    span = decay_span(n)
    if max_sweeps is None:
        max_sweeps = _default_max_sweeps(n)

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
        frozen = informed.copy()
        newly = np.zeros(n, dtype=bool)
        for i in range(1, span + 1):
            coins = rng.random(n) < 2.0**-i
            hear_from = network.deliver(frozen & coins)
            newly |= hear_from != NO_SENDER
        informed |= newly
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
