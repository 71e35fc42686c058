"""Execution policy: the one object that carries every engine knob.

:class:`ExecutionPolicy` is a frozen record of *how* to execute a
protocol — which engine variant, how much memory a streamed chunk may
take, whether to interpose the contract checker, and which fault
schedule to realize — that travels as one value through
:func:`repro.api.run`, every protocol entry point's ``policy=``, the
CLI's shared flag group, :func:`~repro.analysis.run_report_trials` and
campaign specs. It is the only carrier of execution settings: there
are no process-wide defaults to fold in, and no resolution step — the
policy a caller builds is the policy that runs, the one a
:class:`~repro.api.report.RunReport` echoes, and the one a store key
digests.

Every knob except ``faults`` is a **performance or diagnostics knob,
never a semantics knob**: seeded protocol results are bit-identical
whatever policy executes them (the engine equivalence suites and the
:class:`~repro.engine.validate.ValidatingRunner` pin exactly that).

Refusals are uniform by construction: unknown ``engine`` strings,
unknown fields (including knobs earlier versions accepted, like
``delivery``, ``restrict``, ``chunk_steps`` and ``trace``), malformed
``mem_budget`` values, and ``validate`` under the reference engine
raise :class:`~repro.radio.errors.ProtocolError` naming the accepted
values, from one shared set of validators — the API, the CLI (via thin
argparse wrappers), and the experiment harness all refuse the same
way.

This module lives in the engine layer (below :mod:`repro.core`) so core
entry points can accept policies without an import cycle; its public
home is :mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..faults.schedule import FaultSchedule, validate_faults
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from .streaming import chunk_steps_for_budget

#: The engine variants every protocol accepts: ``"windowed"`` (the
#: engine, the default) and ``"reference"`` (the step-wise twin).
ENGINE_MODES = ("windowed", "reference")

#: Suffix multipliers accepted by :func:`parse_mem_budget`.
_MEM_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def validate_engine(engine: str) -> str:
    """Check an engine name against :data:`ENGINE_MODES`, naming them.

    Raises :class:`~repro.radio.errors.ProtocolError` (also a
    ``ValueError``) on anything else — the one refusal every layer
    (API, CLI, campaign specs) shares.
    """
    if engine not in ENGINE_MODES:
        raise ProtocolError(
            f"unknown engine: {engine!r} (expected one of {ENGINE_MODES})"
        )
    return engine


def validate_mem_budget(mem_budget: int) -> int:
    """Check a peak-memory target in bytes.

    Python and numpy integers both pass (budgets computed with numpy
    arithmetic are natural in this codebase); booleans and everything
    else refuse.
    """
    if isinstance(mem_budget, bool) or not isinstance(
        mem_budget, (int, np.integer)
    ):
        raise ProtocolError(
            f"mem_budget must be a positive byte count, "
            f"got {mem_budget!r} (strings like '64M' go through "
            f"parse_mem_budget)"
        )
    if mem_budget < 1:
        raise ProtocolError(
            f"mem_budget must be >= 1 byte, got {mem_budget}"
        )
    return int(mem_budget)


def parse_mem_budget(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (e.g. ``"64M"``).

    The one parser behind every surface that accepts textual budgets
    (the CLI's ``--mem-budget``, policy construction from strings).
    Raises :class:`~repro.radio.errors.ProtocolError` on malformed
    input, naming the accepted form.
    """
    original = text
    text = text.strip()
    scale = 1
    if text and text[-1].lower() in _MEM_SUFFIXES:
        scale = _MEM_SUFFIXES[text[-1].lower()]
        text = text[:-1]
    try:
        value = int(text) * scale
    except ValueError:
        raise ProtocolError(
            f"malformed memory budget {original!r}: expected bytes with "
            f"an optional K/M/G suffix (e.g. 64M)"
        ) from None
    return validate_mem_budget(value)


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """How to execute a protocol — every engine knob as one frozen value.

    Attributes
    ----------
    engine:
        ``"windowed"`` (default) runs the batched engine,
        ``"reference"`` the retained step-wise twin. Every protocol
        implements both.
    mem_budget:
        Target peak bytes of one streamed chunk, default ``1 << 28``
        (256 MiB). The runner turns it into the chunk height every
        window executes at through the
        :data:`~repro.engine.streaming.STREAM_CELL_BYTES` cost model
        (:func:`~repro.engine.streaming.chunk_steps_for_budget`): the
        default is ``max(1, 2**22 // n)`` rows over ``n`` nodes.
    validate:
        Interpose the contract-checking
        :class:`~repro.engine.validate.ValidatingRunner` — every
        delivered window replayed step-wise on a shadow network,
        asserting bit-identical delivery. A diagnostics knob (slow;
        results are unchanged by construction). Refused with the
        reference engine, which builds no windows to check.
    faults:
        A :class:`~repro.faults.FaultSchedule` to install on the
        network the run executes over (``None`` = fault-free). The
        **one semantics knob** on the policy, by design: faults change
        what the channel commits — but deterministically, identically
        under every engine, and an *empty* schedule is bit-identical to
        ``None``.

    All other knobs are performance/diagnostics knobs — seeded results
    are bit-identical under every policy with the same fault schedule.
    Validation happens at construction, so an ``ExecutionPolicy`` that
    exists is well-formed.
    """

    engine: str = "windowed"
    mem_budget: int = 1 << 28
    validate: bool = False
    faults: FaultSchedule | None = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "ExecutionPolicy":
        # Unknown keywords (including knobs earlier versions accepted,
        # like ``restrict``, ``delivery``, ``chunk_steps`` and
        # ``trace``) get the uniform refusal naming the accepted
        # fields, not the dataclass constructor's TypeError.
        unknown = {
            k: kwargs[k] for k in sorted(set(kwargs) - set(POLICY_FIELDS))
        }
        if unknown:
            raise ProtocolError(
                f"unknown ExecutionPolicy field(s) {unknown} "
                f"(accepted fields: {POLICY_FIELDS})"
            )
        return super().__new__(cls)

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        validate_mem_budget(self.mem_budget)
        validate_faults(self.faults)
        if not isinstance(self.validate, bool):
            # ``1`` would run like ``True`` but digest apart from it.
            raise ProtocolError(
                f"validate must be True or False, got {self.validate!r}"
            )
        if self.engine == "reference" and self.validate:
            # An inert knob is refused, never silently dropped.
            raise ProtocolError(
                "validate=True re-executes engine windows through the "
                "contract checker, but engine='reference' runs the "
                "step-wise specification with no windows to check; "
                "drop validate or use the windowed engine"
            )

    def bind(self, network: RadioNetwork | None) -> RadioNetwork | None:
        """Install this policy's fault schedule on ``network``.

        The one call every migrated protocol entry point makes before
        executing: a no-op without a schedule (or without a network),
        idempotent for an equal schedule, and a refusal if the network
        already carries a different one. Returns ``network``.
        """
        if network is not None and self.faults is not None:
            network.install_faults(self.faults)
        return network

    def runner(self, network: RadioNetwork):
        """Build the runner this policy prescribes for ``network``.

        A plain :class:`~repro.engine.runner.WindowedRunner`, or the
        contract-checking
        :class:`~repro.engine.validate.ValidatingRunner` when
        :attr:`validate` is set; either way executing windows at the
        chunk height :attr:`mem_budget` buys over ``network.n`` nodes.
        """
        from .runner import WindowedRunner

        self.bind(network)
        if self.validate:
            from .validate import ValidatingRunner

            cls: type[WindowedRunner] = ValidatingRunner
        else:
            cls = WindowedRunner
        return cls(
            network, chunk_steps_for_budget(network.n, self.mem_budget)
        )


#: The policy's field names, in declaration order — the accepted set
#: every refusal of an unknown field names.
POLICY_FIELDS = tuple(f.name for f in dataclasses.fields(ExecutionPolicy))


__all__ = [
    "ENGINE_MODES",
    "ExecutionPolicy",
    "POLICY_FIELDS",
    "parse_mem_budget",
    "validate_engine",
    "validate_mem_budget",
]
