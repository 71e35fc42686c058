"""Realized fault state: the mask transforms behind a schedule.

A :class:`FaultState` is built once per network from a non-empty
:class:`~repro.faults.schedule.FaultSchedule` and applied by the
delivery layer between plan and commit, in two forms that realize the
same channel:

* the mask form, behind the step-wise
  :meth:`~repro.radio.network.RadioNetwork.deliver`:
  :meth:`transform_window` turns **intended** transmit masks into the
  **effective** masks the channel sees (dead, sleeping,
  not-yet-joined, coin-suppressed, and energy-exhausted transmitters
  are cleared) and returns the matching **deaf** mask (listeners that
  hear silence: down nodes plus jammed regions), and the step forces
  ``hear_from`` to silence wherever a reception landed on a deaf
  listener;
* the transmitter-pair form, behind every window:
  :meth:`filter_coo` applies the same transforms to intended
  ``(step, node)`` pairs and :meth:`deaf_at` drops the receptions
  that land on deaf listeners.

Determinism contract
--------------------
Every transform is a pure function of ``(schedule, global step,
node)`` except energy depletion, which additionally carries the
per-node remaining budget forward — and the within-window depletion is
a prefix-sum, so splitting a window into chunks at *any* boundary
yields exactly the same effective masks. Transmit-probability coins
come from a stateless splitmix64-style hash of ``(schedule seed, step,
node)``, never from the protocol rng: installing a schedule cannot
perturb a protocol's own coin stream, and the monolithic, streamed,
fused, validating, and step-wise reference paths all realize the
identical fault pattern. ``clone()`` gives the validating runner's
shadow networks an in-sync copy mid-run.
"""

from __future__ import annotations

import numpy as np

from ..radio.errors import ProtocolError
from .schedule import NEVER, FaultSchedule

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


def _splitmix(x: np.ndarray) -> np.ndarray:
    """Finalize a uint64 array splitmix64-style (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _hash_uniform(
    seed: int, steps: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Uniform [0, 1) floats keyed on (seed, step, node), stateless.

    ``steps`` and ``nodes`` are uint64 arrays that broadcast together —
    a (w, 1) by (1, k) grid for the window form, parallel pair lists
    for the transmitter-list form. Counter-based, so any chunking of
    the step axis, and either form, reproduces the same coins.
    """
    with np.errstate(over="ignore"):
        key = _splitmix(steps * _GOLDEN + nodes)
        key = _splitmix(key ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return (key >> np.uint64(11)).astype(np.float64) * _INV_2_53


class FaultState:
    """Mutable realization of a :class:`FaultSchedule` on ``n`` nodes.

    Holds the precomputed per-node lifetime bounds, capability
    vectors, the depleting energy ledger, and realized-event counters
    (reported in RunReport provenance). One instance per network; the
    validating runner clones it onto its shadow networks.
    """

    def __init__(self, schedule: FaultSchedule, n: int) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ProtocolError(
                f"FaultState needs a FaultSchedule, got {schedule!r}"
            )
        top = schedule.max_node()
        if top >= n:
            raise ProtocolError(
                f"fault schedule names node {top} but the network has "
                f"only {n} nodes (valid nodes are 0..{n - 1})"
            )
        self.schedule = schedule
        self.n = int(n)

        crash = np.full(n, NEVER, dtype=np.int64)
        for node, step in schedule.crashes:
            crash[node] = min(crash[node], step)
        self.crash_step = crash

        join = np.zeros(n, dtype=np.int64)
        for node, step in schedule.joins:
            join[node] = max(join[node], step)
        self.join_step = join

        self.sleeps = tuple(schedule.sleeps)
        self.jams = tuple(schedule.jams)

        tx_scale = np.ones(n, dtype=np.float64)
        for node, prob in schedule.tx_prob:
            tx_scale[node] = min(tx_scale[node], prob)
        self.tx_scale = tx_scale
        self._scaled = np.nonzero(tx_scale < 1.0)[0]

        energy = np.full(n, -1, dtype=np.int64)
        for node, budget in schedule.energy:
            energy[node] = budget if energy[node] < 0 else min(
                energy[node], budget
            )
        self._energy_init = energy
        self.energy_remaining = energy.copy()
        self._budgeted = np.nonzero(energy >= 0)[0]
        # Sleep intervals sorted by node, for the point-wise lookups of
        # the transmitter-list forms (filter_coo, deaf_at).
        sleeps = sorted(self.sleeps)
        self._sleep_node = np.array([s[0] for s in sleeps], dtype=np.int64)
        self._sleep_start = np.array([s[1] for s in sleeps], dtype=np.int64)
        self._sleep_stop = np.array([s[2] for s in sleeps], dtype=np.int64)

        self.realized = {
            "steps_faulted": 0,
            "suppressed_transmissions": 0,
            "silenced_receptions": 0,
        }

    # ------------------------------------------------------------------
    def clone(self) -> "FaultState":
        """An independent copy carrying the current energy ledger.

        Used by the validating runner so shadow networks start from the
        primary's exact mid-run state and then advance in lockstep.
        """
        twin = FaultState(self.schedule, self.n)
        twin.energy_remaining = self.energy_remaining.copy()
        twin.realized = dict(self.realized)
        return twin

    # ------------------------------------------------------------------
    def alive_window(self, start: int, width: int) -> np.ndarray:
        """(width, n) bool: node up (joined, not crashed, not asleep)
        at each global step in ``[start, start + width)``."""
        steps = np.arange(start, start + width, dtype=np.int64)[:, None]
        alive = (steps >= self.join_step[None, :]) & (
            steps < self.crash_step[None, :]
        )
        stop_w = start + width
        for node, s0, s1 in self.sleeps:
            lo, hi = max(s0, start), min(s1, stop_w)
            if lo < hi:
                alive[lo - start : hi - start, node] = False
        return alive

    def deaf_window(
        self, start: int, width: int, alive: np.ndarray
    ) -> np.ndarray:
        """(width, n) bool: listeners forced to silence — down nodes
        plus jammed regions in ``[start, start + width)``."""
        deaf = ~alive
        stop_w = start + width
        for jam in self.jams:
            lo, hi = max(jam.start, start), min(jam.stop, stop_w)
            if lo < hi:
                rows = slice(lo - start, hi - start)
                if jam.nodes is None:
                    deaf[rows, :] = True
                else:
                    deaf[rows, list(jam.nodes)] = True
        return deaf

    # ------------------------------------------------------------------
    def transform_window(
        self, masks: np.ndarray, start: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intended (w, n) masks at global step ``start`` → effective
        masks + deaf mask; commits energy depletion and counters.

        Call exactly once per executed window/chunk, in execution
        order — energy carries across calls, everything else is
        stateless in the step index.
        """
        width = masks.shape[0]
        alive = self.alive_window(start, width)
        effective = masks & alive

        if self._scaled.size:
            gids = self._scaled
            sub = effective[:, gids]
            if sub.any():
                steps = np.arange(
                    start, start + width, dtype=np.uint64
                )[:, None]
                coins = _hash_uniform(
                    self.schedule.seed, steps, gids.astype(np.uint64)[None, :]
                )
                effective[:, gids] = sub & (
                    coins < self.tx_scale[gids][None, :]
                )

        if self._budgeted.size:
            gids = self._budgeted
            sub = effective[:, gids]
            if sub.any():
                used = np.cumsum(sub, axis=0, dtype=np.int64)
                allowed = sub & (
                    used <= self.energy_remaining[gids][None, :]
                )
                effective[:, gids] = allowed
                self.energy_remaining[gids] -= allowed.sum(
                    axis=0, dtype=np.int64
                )

        deaf = self.deaf_window(start, width, alive)
        self.realized["steps_faulted"] += int(width)
        self.realized["suppressed_transmissions"] += int(
            masks.sum() - effective.sum()
        )
        return effective, deaf

    def transform_step(
        self, transmit: np.ndarray, step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-step form of :meth:`transform_window` (1-D in/out)."""
        effective, deaf = self.transform_window(transmit[None, :], step)
        return effective[0], deaf[0]

    # ------------------------------------------------------------------
    def _asleep(self, steps: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Point-wise: node asleep at global step (bool per pair)."""
        asleep = np.zeros(nodes.shape, dtype=bool)
        if not self._sleep_node.size or not nodes.size:
            return asleep
        lo = np.searchsorted(self._sleep_node, nodes, side="left")
        hi = np.searchsorted(self._sleep_node, nodes, side="right")
        count = hi - lo
        if not count.any():
            return asleep
        # One (pair, interval) row per sleep interval of the pair's node.
        pair = np.repeat(np.arange(nodes.size), count)
        interval = np.arange(pair.size) - np.repeat(
            np.cumsum(count) - count - lo, count
        )
        inside = (steps[pair] >= self._sleep_start[interval]) & (
            steps[pair] < self._sleep_stop[interval]
        )
        asleep[pair[inside]] = True
        return asleep

    def filter_coo(
        self, steps: np.ndarray, nodes: np.ndarray, start: int, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transmitter-list form of :meth:`transform_window`.

        ``(steps, nodes)`` are the intended transmitters of a ``width``
        step chunk starting at global step ``start`` (``steps``
        chunk-relative, row-major). Returns the effective pairs — the
        same transforms in the same order, each keyed on global ids and
        the global clock: lifetime and sleep lookups, the ``tx_prob``
        hash coin per transmitter, then the energy budget as a per-node
        running count in step order. Commits the energy ledger and the
        realized counters exactly as the window form would.
        """
        intended = int(steps.size)
        if intended:
            clock = steps + start
            keep = (clock >= self.join_step[nodes]) & (
                clock < self.crash_step[nodes]
            )
            keep &= ~self._asleep(clock, nodes)
            if self._scaled.size:
                scaled = keep & (self.tx_scale[nodes] < 1.0)
                if scaled.any():
                    coins = _hash_uniform(
                        self.schedule.seed,
                        clock[scaled].astype(np.uint64),
                        nodes[scaled].astype(np.uint64),
                    )
                    keep[scaled] = coins < self.tx_scale[nodes[scaled]]
            steps, nodes = steps[keep], nodes[keep]
            if self._budgeted.size:
                budgeted = np.flatnonzero(self._energy_init[nodes] >= 0)
                if budgeted.size:
                    who = nodes[budgeted]
                    # Stable sort by node keeps each node's transmissions
                    # in step order: its rank is its running count.
                    order = np.argsort(who, kind="stable")
                    sorted_who = who[order]
                    first = np.searchsorted(sorted_who, sorted_who)
                    used = np.empty(who.size, dtype=np.int64)
                    used[order] = np.arange(who.size) - first + 1
                    allowed = used <= self.energy_remaining[who]
                    np.subtract.at(
                        self.energy_remaining, who[allowed], 1
                    )
                    if not allowed.all():
                        keep = np.ones(steps.size, dtype=bool)
                        keep[budgeted[~allowed]] = False
                        steps, nodes = steps[keep], nodes[keep]
        self.realized["steps_faulted"] += int(width)
        self.realized["suppressed_transmissions"] += intended - int(
            steps.size
        )
        return steps, nodes

    def deaf_at(
        self, steps: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Point-wise deafness test: ``deaf_window`` semantics for a
        sparse set of ``(global step, global node)`` reception pairs.

        Returns the bool drop mask (True = listener hears silence).
        The transmitter-list path filters its COO receptions with this
        and reports the drop count through :meth:`note_silenced`; the
        result matches indexing the window form —
        ``deaf_window(...)[steps - start, nodes]`` — entry for entry.
        """
        deaf = (steps < self.join_step[nodes]) | (
            steps >= self.crash_step[nodes]
        )
        deaf |= self._asleep(steps, nodes)
        for jam in self.jams:
            in_window = (steps >= jam.start) & (steps < jam.stop)
            if jam.nodes is None:
                deaf |= in_window
            elif in_window.any():
                deaf |= in_window & np.isin(
                    nodes, np.asarray(list(jam.nodes), dtype=np.int64)
                )
        return deaf

    def note_silenced(self, count: int) -> None:
        """Record receptions the hear transform masked to silence."""
        self.realized["silenced_receptions"] += int(count)

    # ------------------------------------------------------------------
    def uptime_fractions(self, horizon: int) -> np.ndarray:
        """Per-node fraction of ``[0, horizon)`` spent up.

        Each node knows its own uptime locally (its join/crash/sleep
        history is its own state); the vectorized form is simulator
        convenience, exactly like the protocols' batched coin flips.
        Jamming does not reduce uptime — a jammed node is up, just
        deafened.
        """
        if horizon < 1:
            raise ProtocolError(
                f"uptime horizon must be >= 1 step, got {horizon}"
            )
        up = np.clip(
            np.minimum(self.crash_step, horizon) - np.minimum(
                self.join_step, horizon
            ),
            0,
            horizon,
        ).astype(np.float64)
        for node, s0, s1 in self.sleeps:
            lo = max(s0, int(self.join_step[node]))
            hi = min(s1, int(min(self.crash_step[node], horizon)))
            if lo < hi:
                up[node] -= hi - lo
        return np.clip(up, 0.0, None) / float(horizon)


def node_uptime_fractions(network, horizon: int) -> np.ndarray:
    """Per-node uptime fractions over ``[0, horizon)`` for a network.

    All-ones when the network has no (or an empty) fault schedule —
    the fault-free limit in which every node is a perfect candidate.
    """
    state = getattr(network, "_fault_state", None)
    if state is None:
        if horizon < 1:
            raise ProtocolError(
                f"uptime horizon must be >= 1 step, got {horizon}"
            )
        return np.ones(network.n, dtype=np.float64)
    return state.uptime_fractions(horizon)


__all__ = ["FaultState", "node_uptime_fractions"]
