"""Packet-level radio implementation of ``Partition(beta, centers)``.

This is the Haeupler–Wajc [18] realization of Miller–Peng–Xu clustering
that the paper's pipeline actually runs in the radio model, simulated at
full collision fidelity:

* each center ``c`` draws ``delta_c ~ Exponential(beta)`` and is
  *activated* at integer time ``max_delta - floor(delta_c)`` (larger
  shift = earlier start), provided no other cluster captured it first;
* time advances in *epochs*; in each epoch, every already-assigned node
  announces its cluster id with a Decay block (Claim 10), and every
  unassigned node that hears an announcement joins the cluster of the
  announcer it heard, at hop distance one more than that sender's;
* a node therefore joins the first shifted BFS front to reach it —
  ``argmin_c (dist(u, c) - floor(delta_c))`` up to Decay failures, which
  is the MPX rule with integer shifts.

Each epoch costs one Decay block (``O(log^2 n)`` steps), so a clustering
with maximum cluster radius ``R`` costs ``O((max_shift + R) log^2 n)``
steps — the ``O(polylog(n)/beta)`` construction cost the paper quotes.
The E10 experiment compares the result against the centralized
:func:`repro.core.mpx.partition` on the same shifts.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine.policy import ExecutionPolicy
from ..radio.errors import BudgetExceededError
from ..radio.network import RadioNetwork
from .cluster import Clustering
from .decay import claim10_iterations, run_decay
from .mpx import draw_shifts


def partition_radio(
    network: RadioNetwork,
    beta: float,
    centers: list[int],
    rng: np.random.Generator,
    shifts: dict[int, float] | None = None,
    decay_amplification: float = 4.0,
    max_epochs: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> Clustering:
    """Run the radio Partition protocol and return its clustering.

    Parameters
    ----------
    network:
        The radio network (nodes indexed ``0..n-1``).
    beta:
        Exponential shift rate.
    centers:
        Candidate center indices (the MIS in the paper's pipeline).
    rng:
        Randomness source.
    shifts:
        Pre-drawn real-valued shifts (floored to integers internally);
        drawn fresh if omitted. Passing the same shifts to
        :func:`repro.core.mpx.partition` yields the clustering this
        protocol converges to when every Decay block succeeds.
    decay_amplification:
        Claim 10 constant for the per-epoch announcement blocks.
    max_epochs:
        Safety budget; defaults to ``max_shift + n + 8`` epochs. A clean
        run needs ``max_shift + max_cluster_radius`` epochs; persistent
        Decay failures beyond the budget raise
        :class:`~repro.radio.errors.BudgetExceededError`.
    policy:
        The execution policy of every announcement block (``None`` =
        the default policy).

    Notes
    -----
    Epoch loops re-announce from *all* assigned nodes, not only the
    current frontier, so a node that misses its epoch (Decay failure)
    joins in a later epoch at a possibly one-larger recorded distance
    instead of deadlocking — matching [18]'s robustness discussion.
    """
    n = network.n
    centers = sorted(set(int(c) for c in centers))
    if not centers:
        raise ValueError("need at least one center")
    if shifts is None:
        shifts = draw_shifts(centers, beta, rng)

    int_shift = {c: int(math.floor(shifts[c])) for c in centers}
    max_shift = max(int_shift.values())
    activation = {c: max_shift - int_shift[c] for c in centers}
    if max_epochs is None:
        max_epochs = max_shift + n + 8

    assignment = np.full(n, -1, dtype=np.int64)
    wave = np.full(n, -1, dtype=np.int64)  # hop distance to own center
    decay_iters = claim10_iterations(n, decay_amplification)

    for epoch in range(max_epochs + 1):
        # Activate centers whose start time arrived and that are still free.
        for c in centers:
            if activation[c] == epoch and assignment[c] == -1:
                assignment[c] = c
                wave[c] = 0

        if (assignment != -1).all():
            break

        announcers = assignment != -1
        if not announcers.any():
            continue
        network.trace.enter_phase("partition/announce")
        echo = run_decay(
            network, announcers, rng, iterations=decay_iters, policy=policy
        )
        # A joiner adopts what its heard announcer said: that sender's
        # *own* (cluster id, wave) — ad-hoc discipline. Both arrays are
        # written only here, after the block, so they hold what every
        # announcer said during it.
        joiners = np.flatnonzero(~announcers & echo.heard)
        senders = echo.heard_from[joiners]
        assignment[joiners] = assignment[senders]
        wave[joiners] = wave[senders] + 1
    else:
        unassigned = int((assignment == -1).sum())
        raise BudgetExceededError(
            f"radio partition left {unassigned} nodes unassigned after "
            f"{max_epochs} epochs"
        )

    network.trace.enter_phase("default")
    return Clustering(
        beta=beta,
        centers=centers,
        assignment=assignment,
        distance_to_center=wave,
        delta={c: float(int_shift[c]) for c in centers},
    )
