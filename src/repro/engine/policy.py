"""Execution policy: the one object that carries every engine knob.

:class:`ExecutionPolicy` is a frozen record of *how* to execute a
protocol — which engine variant, how to stream, whether to interpose
the contract checker, which trace grade to record, and which fault
schedule to realize — that travels as one value through
:func:`repro.api.run`, every protocol entry point's ``policy=``, the
CLI's shared flag group, :func:`~repro.analysis.run_report_trials` and
campaign specs. It is the only carrier of execution settings: there
are no process-wide defaults to fold in.

Every knob except ``faults`` is a **performance or diagnostics knob,
never a semantics knob**: seeded protocol results are bit-identical
whatever policy executes them (the engine equivalence suites and the
:class:`~repro.engine.validate.ValidatingRunner` pin exactly that).

Refusals are uniform by construction: unknown ``engine`` strings,
unknown fields (including knobs earlier versions accepted, like
``delivery`` and ``restrict``), and malformed
``chunk_steps``/``mem_budget`` values raise
:class:`~repro.radio.errors.ProtocolError` naming the accepted values,
from one shared set of validators — the API, the CLI (via thin argparse
wrappers), and the experiment harness all refuse the same way.

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
from .streaming import resolve_chunk_steps

#: The engine variants every protocol accepts: ``"windowed"`` (the
#: engine), ``"reference"`` (the step-wise twin), and ``"auto"``, which
#: resolves to ``"windowed"``.
ENGINE_MODES = ("auto", "windowed", "reference")

#: Trace grades: ``"default"`` records per-phase transmission/reception
#: detail (:class:`~repro.radio.trace.StepTrace`); ``"cheap"`` keeps
#: only step totals (:class:`~repro.radio.trace.CheapTrace`) for bulk
#: workloads. A trace grade changes what is *recorded*, never what is
#: executed.
TRACE_MODES = ("default", "cheap")

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


def validate_chunk_steps(chunk_steps: int | None) -> int | None:
    """Check a streamed slab height (``None`` = unset).

    Python and numpy integers both pass (slab heights computed with
    numpy arithmetic are natural in this codebase); booleans and
    everything else refuse.
    """
    if chunk_steps is None:
        return None
    if isinstance(chunk_steps, bool) or not isinstance(
        chunk_steps, (int, np.integer)
    ):
        raise ProtocolError(
            f"chunk_steps must be a positive integer or None, "
            f"got {chunk_steps!r}"
        )
    if chunk_steps < 1:
        raise ProtocolError(
            f"chunk_steps must be >= 1, got {chunk_steps}"
        )
    return int(chunk_steps)


def validate_mem_budget(mem_budget: int | None) -> int | None:
    """Check a peak-memory target in bytes (``None`` = unset).

    Python and numpy integers both pass; booleans and everything else
    refuse.
    """
    if mem_budget is None:
        return None
    if isinstance(mem_budget, bool) or not isinstance(
        mem_budget, (int, np.integer)
    ):
        raise ProtocolError(
            f"mem_budget must be a positive byte count or None, "
            f"got {mem_budget!r} (strings like '64M' go through "
            f"parse_mem_budget)"
        )
    if mem_budget < 1:
        raise ProtocolError(
            f"mem_budget must be >= 1 byte, got {mem_budget}"
        )
    return int(mem_budget)


def validate_trace(trace: str) -> str:
    """Check a trace grade, naming the accepted values."""
    if trace not in TRACE_MODES:
        raise ProtocolError(
            f"unknown trace mode: {trace!r} "
            f"(expected one of {TRACE_MODES})"
        )
    return trace


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
        ``"windowed"`` runs the batched engine, ``"reference"`` the
        retained step-wise twin; ``"auto"`` (default) resolves to
        ``"windowed"``. Every protocol implements both.
    chunk_steps, mem_budget:
        The streaming knobs: slab height directly, or derived from a
        peak-bytes target through the
        :data:`~repro.engine.streaming.STREAM_CELL_BYTES` cost model.
        With neither set, windows run at the engine's default heights.
    validate:
        Interpose the contract-checking
        :class:`~repro.engine.validate.ValidatingRunner` — every
        delivered window replayed step-wise on a shadow network,
        asserting bit-identical delivery. A diagnostics knob (slow;
        results are unchanged by construction).
    trace:
        Trace grade for networks the executor constructs:
        ``"default"`` (full :class:`~repro.radio.trace.StepTrace`) or
        ``"cheap"`` (totals only). Networks the caller built keep the
        trace they were built with.
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

    engine: str = "auto"
    chunk_steps: int | None = None
    mem_budget: int | None = None
    validate: bool = False
    trace: str = "default"
    faults: FaultSchedule | None = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "ExecutionPolicy":
        # Unknown keywords (including knobs earlier versions accepted,
        # like ``restrict`` and ``delivery``) get the uniform refusal
        # naming the accepted fields, not the dataclass constructor's
        # TypeError.
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
        validate_chunk_steps(self.chunk_steps)
        validate_mem_budget(self.mem_budget)
        validate_trace(self.trace)
        validate_faults(self.faults)

    def engine_for(self) -> str:
        """The engine a protocol entry point runs: ``"auto"`` resolved
        to ``"windowed"``.

        ``validate`` combined with the reference engine refuses: the
        step-wise reference builds no runner, so the contract checker
        could not interpose — an inert knob is refused, never silently
        dropped.
        """
        engine = "windowed" if self.engine == "auto" else self.engine
        if engine == "reference" and self.validate:
            raise ProtocolError(
                "validate=True re-executes engine windows through the "
                "contract checker, but engine='reference' runs the "
                "step-wise specification with no windows to check; "
                "drop validate or use the windowed engine"
            )
        return engine

    def resolve(self, n: int | None = None) -> "ExecutionPolicy":
        """The effective policy: what a run actually executes under —
        and what :class:`~repro.api.report.RunReport` echoes back.

        Resolution reads the explicit fields only:

        * ``engine`` ``"auto"`` becomes ``"windowed"``, so policies
          that differ only in that spelling resolve (and digest)
          identically;
        * ``chunk_steps``, when ``n`` is known, is resolved from an
          explicit ``mem_budget`` through the cost model (an explicit
          ``chunk_steps`` always wins — the same precedence
          :func:`~repro.engine.streaming.resolve_chunk_steps` applies
          everywhere).

        Resolution is idempotent: resolving a resolved policy is a
        no-op.
        """
        engine = "windowed" if self.engine == "auto" else self.engine
        chunk = self.chunk_steps
        if chunk is None and n is not None:
            chunk = resolve_chunk_steps(n, None, self.mem_budget)
        if engine == self.engine and chunk == self.chunk_steps:
            return self
        return dataclasses.replace(self, engine=engine, chunk_steps=chunk)

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

    def make_trace(self):
        """A fresh trace object of this policy's grade."""
        from ..radio.trace import CheapTrace, StepTrace

        return CheapTrace() if self.trace == "cheap" else StepTrace()

    def runner(
        self, network: RadioNetwork, max_steps: int | None = None
    ):
        """Build the runner this policy prescribes for ``network``.

        A plain :class:`~repro.engine.runner.WindowedRunner`, or the
        contract-checking
        :class:`~repro.engine.validate.ValidatingRunner` when
        :attr:`validate` is set; either way carrying this policy's
        streaming knobs.
        """
        from .runner import WindowedRunner

        self.bind(network)
        if self.validate:
            from .validate import ValidatingRunner

            cls: type[WindowedRunner] = ValidatingRunner
        else:
            cls = WindowedRunner
        return cls(
            network,
            max_steps=max_steps,
            chunk_steps=self.chunk_steps,
            mem_budget=self.mem_budget,
        )

    def run_schedule(
        self,
        network: RadioNetwork,
        schedule,
        max_steps: int | None = None,
    ):
        """Execute a schedule under this policy (one-shot runner)."""
        return self.runner(network, max_steps=max_steps).run(schedule)


#: The policy's field names, in declaration order — the accepted set
#: every refusal of an unknown field names.
POLICY_FIELDS = tuple(f.name for f in dataclasses.fields(ExecutionPolicy))


__all__ = [
    "ENGINE_MODES",
    "ExecutionPolicy",
    "POLICY_FIELDS",
    "TRACE_MODES",
    "parse_mem_budget",
    "validate_chunk_steps",
    "validate_engine",
    "validate_mem_budget",
    "validate_trace",
]
