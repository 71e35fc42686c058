"""Fault & churn injection over the plan/commit IR.

Declarative, seeded :class:`FaultSchedule` objects (crash, sleep/wake,
late-join, jamming, per-node capabilities) realized as deterministic
transmit-/hear-mask transforms inside the radio delivery layer — every
execution engine and every step-wise reference twin sees the identical
fault pattern, and an empty schedule is bit-identical to none.
"""

from .schedule import (
    FaultSchedule,
    Jam,
    validate_faults,
)
from .state import FaultState, node_uptime_fractions

__all__ = [
    "FaultSchedule",
    "FaultState",
    "Jam",
    "node_uptime_fractions",
    "validate_faults",
]
