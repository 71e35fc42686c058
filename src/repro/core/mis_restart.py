"""Restartable Radio MIS: epoch-restarted MIS under churn.

The robustness variant of Algorithm 7 for networks with sleep/wake
churn and late joins (:mod:`repro.faults`). Plain Radio MIS decides
every node once; under churn, nodes that were asleep (or not yet
joined) during the run wake up undecided — and nodes that crash out of
the MIS leave their neighborhoods uncovered. This variant runs MIS in
**epochs**: each epoch re-admits the currently awake undecided nodes,
first re-announcing the existing MIS (so woken nodes adjacent to an
MIS member get dominated instead of competing), then running compact
MIS rounds among the remainder.

Every epoch runs the base algorithm's own round loop
(:func:`~repro.core.mis.mis_rounds`) after its re-announcing Decay
block, every block under the caller's policy, so one loop serves the
windowed engine and the step-wise reference alike. The loop is
fault-agnostic; crashes, sleep, jamming, and capability faults apply
inside the delivery layer. The only fault awareness is each node's
*own* up/down status (its own local state, exactly as legitimate as
its own coin flips), read through :func:`_awake_mask` — global mask
assembly is simulator convenience, like the protocols' batched coin
draws.

Under a non-empty schedule the MIS guarantee degrades measurably
(jamming can suppress the "did a neighbor mark?" echo, letting two
neighbors join): the result records ``conflict_edges`` and the
dominated fraction as oracle instrumentation, which is exactly the
degradation curve ``benchmarks/bench_p6_faults.py`` measures. With no
(or an empty) schedule, every epoch after the first is a no-op check
and the guarantees of Theorem 14 carry over unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from .decay import claim10_iterations, run_decay
from .mis import MISConfig, mis_rounds
from .resulteq import ArrayEqMixin


@dataclasses.dataclass(frozen=True)
class RestartableMISConfig:
    """Tunable constants of restartable Radio MIS.

    ``epochs`` bounds the restart count, at least 1; each epoch
    re-admits awake undecided nodes and runs up to
    ``ceil(round_factor * log2 n)`` compact MIS rounds. The Decay/EED
    constants mirror :class:`~repro.core.mis.MISConfig` (smaller
    defaults — each epoch is a full MIS pass, and the variant exists
    to be swept across fault rates). Frozen, so the refusal below
    holds for every instance.
    """

    epochs: int = 3
    round_factor: float = 4.0
    decay_amplification: float = 2.0
    eed_C: int = 8
    stop_when_done: bool = True

    def __post_init__(self) -> None:
        # Zero epochs would decide nobody and report the empty set —
        # which has no conflict edges — as a success.
        if (
            isinstance(self.epochs, bool)
            or not isinstance(self.epochs, int)
            or self.epochs < 1
        ):
            raise ProtocolError(
                f"epochs must be an integer >= 1, got {self.epochs!r}"
            )


@dataclasses.dataclass
class RestartEpochRecord:
    """Per-epoch instrumentation of a restartable MIS run."""

    epoch_index: int
    awake: int
    admitted: int
    rounds: int
    mis_size_after: int


@dataclasses.dataclass(eq=False)
class RestartableMISResult(ArrayEqMixin):
    """Output of :func:`compute_restartable_mis`.

    ``readmitted`` totals the awake undecided nodes epochs after the
    first re-admitted into competition (woken sleepers and late
    joiners; 0 in fault-free runs when the first epoch decides
    everyone). ``conflict_edges`` and ``dominated_fraction`` are
    oracle instrumentation of the degraded guarantee — the protocol
    path never reads them.
    """

    mis: set[Hashable]
    mis_mask: np.ndarray
    epochs_used: int
    rounds_used: int
    steps_used: int
    readmitted: int
    conflict_edges: int
    dominated_fraction: float
    history: list[RestartEpochRecord]

    @property
    def size(self) -> int:
        """Number of MIS nodes."""
        return len(self.mis)


def _awake_mask(network: RadioNetwork) -> np.ndarray:
    """Who is up at the network's current global step.

    Each node's own up/down status is its own local state; the
    vectorized read from the fault state is simulator convenience.
    All-ones without an active schedule.
    """
    state = network._fault_state
    if state is None:
        return np.ones(network.n, dtype=bool)
    return state.alive_window(network.steps_elapsed, 1)[0]


def _finish(
    network: RadioNetwork,
    in_mis: np.ndarray,
    decided: np.ndarray,
    epochs_used: int,
    rounds_used: int,
    steps_used: int,
    readmitted: int,
    history: list[RestartEpochRecord],
) -> RestartableMISResult:
    """Assemble the result; the quality facts are oracle instrumentation."""
    mis_neighbors = network.neighbor_sum(in_mis.astype(np.float64))
    conflict_edges = int(round(float(mis_neighbors[in_mis].sum()) / 2.0))
    mis_labels = {network.label_of(int(i)) for i in np.nonzero(in_mis)[0]}
    return RestartableMISResult(
        mis=mis_labels,
        mis_mask=in_mis,
        epochs_used=epochs_used,
        rounds_used=rounds_used,
        steps_used=steps_used,
        readmitted=readmitted,
        conflict_edges=conflict_edges,
        dominated_fraction=float(decided.mean()),
        history=history,
    )


def compute_restartable_mis(
    network: RadioNetwork,
    rng: np.random.Generator,
    config: RestartableMISConfig | None = None,
    n_estimate: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> RestartableMISResult:
    """Run restartable Radio MIS on ``network`` under ``policy``.

    Each epoch: one Decay block re-announcing the current MIS (woken
    neighbors of members get dominated), then compact MIS rounds
    (mark -> marked-echo Decay -> join -> MIS-announce Decay ->
    EstimateEffectiveDegree -> desire update) over the awake undecided
    nodes. ``policy.faults`` is installed on the network first; every
    block runs under ``policy``, so ``engine="windowed"`` (the default)
    and ``"reference"`` draw the same rng stream and give bit-identical
    seeded results under any shared schedule.
    """
    policy = policy or ExecutionPolicy()
    policy.bind(network)
    config = config or RestartableMISConfig()
    n = network.n
    n_est = n_estimate if n_estimate is not None else n
    round_config = MISConfig(
        round_factor=config.round_factor,
        decay_amplification=config.decay_amplification,
        eed_C=config.eed_C,
        stop_when_done=config.stop_when_done,
        record_golden=False,
    )
    decay_iters = claim10_iterations(n_est, config.decay_amplification)

    in_mis = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    history: list[RestartEpochRecord] = []
    steps_before = network.steps_elapsed
    epochs_used = 0
    rounds_used = 0
    readmitted = 0

    for epoch in range(config.epochs):
        awake = _awake_mask(network)
        admitted = int((awake & ~decided).sum())
        if epoch > 0:
            readmitted += admitted
            if config.stop_when_done and admitted == 0:
                break
        epochs_used = epoch + 1

        # --- re-announce the standing MIS --------------------------------
        network.trace.enter_phase("mis-restart/announce")
        announce_echo = run_decay(
            network, in_mis & awake, rng,
            iterations=decay_iters, n_estimate=n_est, policy=policy,
        )
        decided |= announce_echo.heard & awake

        # --- compact MIS rounds among the awake undecided ----------------
        competing = awake & ~decided
        active = competing.copy()
        joined, epoch_rounds, _, _, _ = mis_rounds(
            network, rng, active, round_config, n_est, policy, "mis-restart"
        )
        in_mis |= joined
        decided |= competing & ~active

        rounds_used += epoch_rounds
        history.append(
            RestartEpochRecord(
                epoch_index=epoch,
                awake=int(awake.sum()),
                admitted=admitted,
                rounds=epoch_rounds,
                mis_size_after=int(in_mis.sum()),
            )
        )

    network.trace.enter_phase("default")
    return _finish(
        network, in_mis, decided, epochs_used, rounds_used,
        network.steps_elapsed - steps_before, readmitted, history,
    )


def restartable_mis_reference(
    network: RadioNetwork,
    rng: np.random.Generator,
    config: RestartableMISConfig | None = None,
    n_estimate: int | None = None,
) -> RestartableMISResult:
    """Step-wise restartable MIS: the executable specification.

    :func:`compute_restartable_mis` under
    ``ExecutionPolicy(engine="reference")`` — the identical epoch/round
    loop with its sub-protocols driven one
    :meth:`~repro.radio.network.RadioNetwork.deliver` call at a time;
    the fault-twin suite pins the windowed run against it bit-for-bit
    under shared seeded fault schedules.
    """
    return compute_restartable_mis(
        network, rng, config, n_estimate,
        policy=ExecutionPolicy(engine="reference"),
    )


__all__ = [
    "RestartEpochRecord",
    "RestartableMISConfig",
    "RestartableMISResult",
    "compute_restartable_mis",
    "restartable_mis_reference",
]
