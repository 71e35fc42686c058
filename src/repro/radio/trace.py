"""Round accounting and tracing for radio network simulations.

Two accounting tools live here:

* :class:`StepTrace` — records what actually happened in a packet-level
  simulation (steps executed, transmissions, successful receptions), with
  named phases so multi-stage protocols like Radio MIS can attribute their
  step budget to sub-procedures (Decay blocks, EstimateEffectiveDegree,
  ...).

* :class:`CostLedger` — records *charged* rounds for the round-accounted
  fidelity level used by the full ``Compete`` pipeline, where components
  taken as black boxes from prior work (fast schedules, schedule
  computation) are charged their published cost instead of being simulated
  bit-by-bit. Every charge carries a reason string so benchmark output can
  itemize where the rounds went.

DESIGN.md Section 1.1 explains why both levels exist.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict


@dataclasses.dataclass
class PhaseStats:
    """Aggregate statistics for one named phase of a packet simulation."""

    steps: int = 0
    transmissions: int = 0
    receptions: int = 0


class StepTrace:
    """Mutable record of a packet-level simulation run.

    The :class:`~repro.radio.network.RadioNetwork` updates the trace for
    every step it delivers, one at a time or a window at once. Protocols
    switch the current phase with :meth:`enter_phase`; steps are attributed
    to whichever phase is current when they execute.
    """

    def __init__(self) -> None:
        self.total_steps = 0
        self.total_transmissions = 0
        self.total_receptions = 0
        self._phase = "default"
        self._phases: dict[str, PhaseStats] = defaultdict(PhaseStats)

    @property
    def current_phase(self) -> str:
        """Name of the phase steps are currently attributed to."""
        return self._phase

    def enter_phase(self, name: str) -> None:
        """Attribute subsequent steps to phase ``name``."""
        self._phase = name

    def record_step(self, transmissions: int, receptions: int) -> None:
        """Record one executed radio step (called by the network)."""
        self.total_steps += 1
        self.total_transmissions += transmissions
        self.total_receptions += receptions
        stats = self._phases[self._phase]
        stats.steps += 1
        stats.transmissions += transmissions
        stats.receptions += receptions

    def record_window(
        self, steps: int, transmissions: int, receptions: int
    ) -> None:
        """Record a whole batch of steps in one call.

        The runner's chunk loop (through
        :meth:`~repro.radio.network.RadioNetwork._deliver_pairs`) uses
        this instead of ``steps`` individual :meth:`record_step` calls;
        since the trace only keeps aggregates and the current phase
        cannot change mid-chunk, the resulting trace state is identical
        to the per-step recording.
        """
        self.total_steps += steps
        self.total_transmissions += transmissions
        self.total_receptions += receptions
        stats = self._phases[self._phase]
        stats.steps += steps
        stats.transmissions += transmissions
        stats.receptions += receptions

    def phase_stats(self) -> dict[str, PhaseStats]:
        """Return a copy of the per-phase statistics."""
        return dict(self._phases)

    def steps_in_phase(self, name: str) -> int:
        """Steps executed while ``name`` was the current phase."""
        return self._phases[name].steps if name in self._phases else 0

    def summary(self) -> str:
        """Human-readable multi-line summary (used by examples)."""
        lines = [
            f"total steps: {self.total_steps}",
            f"total transmissions: {self.total_transmissions}",
            f"total successful receptions: {self.total_receptions}",
        ]
        for name, stats in sorted(self._phases.items()):
            lines.append(
                f"  phase {name!r}: {stats.steps} steps, "
                f"{stats.transmissions} tx, {stats.receptions} rx"
            )
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class Charge:
    """One itemized round charge in a :class:`CostLedger`."""

    rounds: int
    reason: str
    category: str


@dataclasses.dataclass
class CostLedger:
    """Round charges for the round-accounted fidelity level.

    The full ``Compete`` pipeline (Algorithm 2) is simulated at cluster
    -event granularity; each component's rounds are charged here using the
    formulas in :mod:`repro.core.costmodel`. The ledger distinguishes
    *setup* charges (MIS computation, clustering construction, schedule
    computation — the additive ``polylog n`` term of Theorems 6-8) from
    *propagation* charges (the ``D log_D alpha`` leading term), because the
    paper's claims are about the leading term's shape.

    A ledger is a value over its list of :class:`Charge` records: two
    ledgers with the same charges in the same order compare equal, and
    the wire codec round-trips it like any other report dataclass.
    """

    _charges: list[Charge] = dataclasses.field(default_factory=list)

    def charge(self, rounds: int, reason: str, category: str = "propagation") -> None:
        """Add ``rounds`` to the ledger under ``category``.

        ``category`` is ``"setup"`` or ``"propagation"``; anything else
        raises ``ValueError`` to catch typos in cost-model code.
        """
        if category not in ("setup", "propagation"):
            raise ValueError(f"unknown charge category: {category!r}")
        if rounds < 0:
            raise ValueError(f"negative round charge: {rounds}")
        self._charges.append(Charge(int(rounds), reason, category))

    @property
    def total(self) -> int:
        """Total charged rounds across both categories."""
        return sum(c.rounds for c in self._charges)

    def total_in(self, category: str) -> int:
        """Total charged rounds in one category."""
        return sum(c.rounds for c in self._charges if c.category == category)

    @property
    def setup_total(self) -> int:
        """Total setup rounds (the additive polylog term)."""
        return self.total_in("setup")

    @property
    def propagation_total(self) -> int:
        """Total propagation rounds (the ``D log_D alpha`` leading term)."""
        return self.total_in("propagation")

    def itemized(self) -> list[Charge]:
        """Copy of the charge list, in the order charges were made."""
        return list(self._charges)

    def by_reason(self) -> dict[str, int]:
        """Total rounds grouped by reason string."""
        grouped: dict[str, int] = defaultdict(int)
        for c in self._charges:
            grouped[c.reason] += c.rounds
        return dict(grouped)

    def summary(self) -> str:
        """Human-readable itemization (used by benchmark output)."""
        lines = [
            f"total charged rounds: {self.total} "
            f"(setup {self.setup_total}, propagation {self.propagation_total})"
        ]
        for reason, rounds in sorted(self.by_reason().items()):
            lines.append(f"  {reason}: {rounds}")
        return "\n".join(lines)
