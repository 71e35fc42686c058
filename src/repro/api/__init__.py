"""repro.api — the single front door to every protocol in this package.

Three pieces, one surface:

* :class:`ExecutionPolicy` — every engine knob (engine variant,
  streaming memory budget, contract validation) as one frozen value,
  the only carrier of execution settings. Performance
  and diagnostics knobs only — seeded results are bit-identical under
  every policy — except the one semantics knob: ``faults``, a
  :class:`FaultSchedule` of crash/sleep/join/jam events and per-node
  capabilities injected into every delivery.
* the **protocol registry** — every runnable protocol declared as a
  :class:`ProtocolSpec` (name, config dataclass, schedule emitters,
  execute hook, CLI metadata) and discoverable through
  :func:`protocol_names` / :func:`list_protocols`. The CLI's
  subcommands are generated from it; the contract suite pins the
  emitter inventory against it.
* :func:`run` — execute any registered protocol on a graph (or
  prebuilt network) and get a :class:`RunReport`: the protocol result
  (bit-identical to the legacy entry point on a shared seed) plus
  steps, trace totals, wall time, optional memory peak, the policy
  echo, and provenance.

Quickstart::

    import numpy as np
    import repro.api as api
    from repro import graphs

    g = graphs.random_udg(n=300, side=8.0, rng=np.random.default_rng(7))
    report = api.run("mis", g, seed=7)
    print(report.result.size, "MIS nodes in", report.steps, "radio steps")

    # Same protocol, streamed under a 64 MiB peak-memory policy:
    policy = api.ExecutionPolicy(mem_budget=api.parse_mem_budget("64M"))
    report = api.run("mis", g, seed=7, policy=policy)   # identical result

The :mod:`repro.core` entry points take the same value as ``policy=``.
"""

from ..core.mis_restart import RestartableMISConfig
from ..engine.policy import ENGINE_MODES, ExecutionPolicy, parse_mem_budget
from ..faults import FaultSchedule, Jam
from . import protocols as _protocols  # noqa: F401  (registers the specs)
from .protocols import (
    BGIConfig,
    BroadcastConfig,
    DecayConfig,
    EEDConfig,
    ICPConfig,
    LeaderConfig,
    PartitionConfig,
    UptimeLeaderConfig,
    WakeupConfig,
)
from .registry import (
    CLISpec,
    ProtocolSpec,
    get_protocol,
    list_protocols,
    protocol_names,
    register_protocol,
)
from .report import RunReport
from .run import run

__all__ = [
    "BGIConfig",
    "BroadcastConfig",
    "CLISpec",
    "DecayConfig",
    "EEDConfig",
    "ENGINE_MODES",
    "ExecutionPolicy",
    "FaultSchedule",
    "ICPConfig",
    "Jam",
    "LeaderConfig",
    "PartitionConfig",
    "ProtocolSpec",
    "RestartableMISConfig",
    "RunReport",
    "UptimeLeaderConfig",
    "WakeupConfig",
    "get_protocol",
    "list_protocols",
    "parse_mem_budget",
    "protocol_names",
    "register_protocol",
    "run",
]
