"""Radio network simulator substrate.

Implements the synchronous, collision-prone, no-collision-detection radio
network model of the paper (Section 1.1). See DESIGN.md Section 1.1.
"""

from .errors import (
    BudgetExceededError,
    GraphContractError,
    InvalidActionError,
    ProtocolError,
    RadioError,
)
from .network import NO_SENDER, RadioNetwork
from .protocol import (
    Protocol,
    SilentProtocol,
    TimeMultiplexer,
    run_steps,
)
from .trace import Charge, CostLedger, PhaseStats, StepTrace

__all__ = [
    "BudgetExceededError",
    "Charge",
    "CostLedger",
    "GraphContractError",
    "InvalidActionError",
    "NO_SENDER",
    "PhaseStats",
    "Protocol",
    "ProtocolError",
    "RadioError",
    "RadioNetwork",
    "SilentProtocol",
    "StepTrace",
    "TimeMultiplexer",
    "run_steps",
]
