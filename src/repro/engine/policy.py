"""Execution policy: the one object that carries every engine knob.

Four PRs of engine growth left each protocol entry point threading its
own copy of ``engine=``, ``delivery=``, ``chunk_steps=``, and
``mem_budget=`` keyword arguments, and every consumer (CLI, experiment
harness, benchmarks, the validating runner) re-parsing them
independently. :class:`ExecutionPolicy` replaces that: a frozen record
of *how* to execute a protocol — which engine variant, which window
delivery strategy, how to stream, whether to interpose the contract
checker, and which trace grade to record — that travels as one value
through :func:`repro.api.run`, the CLI's shared flag group, and
``run_trials*``.

Every knob here is a **performance or diagnostics knob, never a
semantics knob**: seeded protocol results are bit-identical whatever
policy executes them (the engine equivalence suites and the
:class:`~repro.engine.validate.ValidatingRunner` pin exactly that).

Refusals are uniform by construction: unknown ``engine``/``delivery``
strings and malformed ``chunk_steps``/``mem_budget`` values raise
:class:`~repro.radio.errors.ProtocolError` naming the accepted values,
from one shared set of validators — the API, the CLI (via thin argparse
wrappers), and the experiment harness all refuse the same way.

This module lives in the engine layer (below :mod:`repro.core`) so core
entry points can accept policies without an import cycle; its public
home is :mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Any

import numpy as np

from ..faults.schedule import FaultSchedule, default_faults, validate_faults
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from .kernels import (
    ALL_DELIVERY_MODES,
    available_delivery_modes,
    require_delivery_mode,
)
from .streaming import memory_budget, resolve_chunk_steps

#: Every engine variant any protocol accepts. ``"auto"`` defers to the
#: protocol's default (the fastest correct path); individual protocols
#: accept a subset (e.g. only ICP and packet Compete support
#: ``"fused"``) and refuse the rest by name.
ENGINE_MODES = ("auto", "windowed", "reference", "fused")

#: Trace grades: ``"default"`` records per-phase transmission/reception
#: detail (:class:`~repro.radio.trace.StepTrace`); ``"cheap"`` keeps
#: only step totals (:class:`~repro.radio.trace.CheapTrace`) for bulk
#: workloads. A trace grade changes what is *recorded*, never what is
#: executed.
TRACE_MODES = ("default", "cheap")

#: Suffix multipliers accepted by :func:`parse_mem_budget`.
_MEM_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def validate_engine(
    engine: str, allowed: tuple[str, ...] = ENGINE_MODES
) -> str:
    """Check an engine name against ``allowed``, naming the options.

    Raises :class:`~repro.radio.errors.ProtocolError` (also a
    ``ValueError``) on anything else — the one refusal every layer
    (API, CLI, ``run_trials*``) shares.
    """
    if engine not in allowed:
        raise ProtocolError(
            f"unknown engine: {engine!r} (expected one of {allowed})"
        )
    return engine


def validate_delivery(delivery: str) -> str:
    """Check a window delivery mode, naming the accepted values.

    Beyond the always-available numpy strategies
    (:data:`~repro.radio.network.DELIVERY_MODES`), the compiled
    backends ``"numba"`` and ``"cupy"`` are accepted exactly when their
    optional dependency is importable and usable — an explicit request
    for an absent backend refuses by name, listing the installed
    alternatives (:func:`~repro.engine.kernels.available_delivery_modes`);
    ``"auto"`` is the only mode that silently adapts.
    """
    return require_delivery_mode(delivery)


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
        ``"auto"`` (default) picks the protocol's fastest verified
        path; ``"windowed"`` forces the batched engine,
        ``"reference"`` the retained step-wise twin, ``"fused"`` the
        window-multiplexed path where one exists. Protocols refuse
        engines they do not implement, naming the ones they do.
    delivery:
        Execution strategy of mask-path windows (``"auto"``/
        ``"sparse"``/``"dense"``, or an installed compiled backend),
        forwarded to
        :meth:`~repro.radio.network.RadioNetwork.deliver_window`: the
        windows of ICP's Decay background, BGI and Compete. Decay, EED
        and Radio MIS blocks run as transmitter-list chunks, which
        always take the one sparse product of
        :meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`;
        this knob does not reach them.
    chunk_steps, mem_budget:
        The streaming knobs: slab height directly, or derived from a
        peak-bytes target through the
        :data:`~repro.engine.streaming.STREAM_CELL_BYTES` cost model.
        With neither set, :meth:`resolve` folds in the process-wide
        default budget
        (:func:`~repro.engine.streaming.set_memory_budget`).
    validate:
        Interpose the contract-checking
        :class:`~repro.engine.validate.ValidatingRunner` — every
        window re-executed step-wise and through the forced strategies
        on shadow networks, asserting bit-identical delivery. A
        diagnostics knob (slow; results are unchanged by construction).
    trace:
        Trace grade for networks the executor constructs:
        ``"default"`` (full :class:`~repro.radio.trace.StepTrace`) or
        ``"cheap"`` (totals only). Networks the caller built keep the
        trace they were built with.
    faults:
        A :class:`~repro.faults.FaultSchedule` to install on the
        network the run executes over (``None`` = unset; :meth:`resolve`
        folds in the process-wide default,
        :func:`~repro.faults.set_default_faults`). The **one semantics
        knob** on the policy, by design: faults change what the channel
        commits — but deterministically, identically under every
        engine, and an *empty* schedule is bit-identical to ``None``.

    All other knobs are performance/diagnostics knobs — seeded results
    are bit-identical under every policy with the same effective fault
    schedule. Validation happens at construction, so an
    ``ExecutionPolicy`` that exists is well-formed.
    """

    engine: str = "auto"
    delivery: str = "auto"
    chunk_steps: int | None = None
    mem_budget: int | None = None
    validate: bool = False
    trace: str = "default"
    faults: FaultSchedule | None = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "ExecutionPolicy":
        # Unknown keywords (including knobs earlier versions accepted,
        # like ``restrict``) get the uniform refusal naming the
        # accepted fields, not the dataclass constructor's TypeError.
        unknown = sorted(set(kwargs) - set(POLICY_FIELDS))
        if unknown:
            raise ProtocolError(
                f"unknown ExecutionPolicy field(s) {unknown} "
                f"(accepted fields: {POLICY_FIELDS})"
            )
        return super().__new__(cls)

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        validate_delivery(self.delivery)
        validate_chunk_steps(self.chunk_steps)
        validate_mem_budget(self.mem_budget)
        validate_trace(self.trace)
        validate_faults(self.faults)

    def engine_for(
        self, allowed: tuple[str, ...], default: str
    ) -> str:
        """Resolve ``"auto"`` to a protocol's default engine.

        ``allowed`` is the protocol's accepted engine set (without
        ``"auto"``); anything else is refused by name. ``validate``
        combined with the reference engine also refuses: the
        step-wise reference builds no runner, so the contract checker
        could not interpose — an inert knob is refused, never
        silently dropped.
        """
        engine = (
            default
            if self.engine == "auto"
            else validate_engine(self.engine, allowed)
        )
        if engine == "reference" and self.validate:
            raise ProtocolError(
                "validate=True re-executes engine windows through the "
                "contract checker, but engine='reference' runs the "
                "step-wise specification with no windows to check; "
                "drop validate or use the windowed/fused engine"
            )
        return engine

    def resolve(self, n: int | None = None) -> "ExecutionPolicy":
        """Fold in the process-wide defaults; return the effective policy.

        The returned policy is what a run actually executes under — and
        what :class:`~repro.api.report.RunReport` echoes back:

        * ``mem_budget`` falls back to the process-wide default budget
          (:func:`~repro.engine.streaming.memory_budget`) when unset
          and no explicit ``chunk_steps`` overrides it;
        * ``chunk_steps``, when ``n`` is known, is resolved from the
          budget through the cost model (an explicit ``chunk_steps``
          always wins — the same precedence
          :func:`~repro.engine.streaming.resolve_chunk_steps` applies
          everywhere);
        * ``faults`` falls back to the process-wide default schedule
          (:func:`~repro.faults.default_faults`) when unset — the
          mechanism ``run_trials*`` uses to impose one fault
          environment across a whole trial matrix.

        Resolution is idempotent: resolving a resolved policy is a
        no-op.
        """
        chunk = self.chunk_steps
        budget = self.mem_budget
        if chunk is None and budget is None:
            budget = memory_budget()
        if chunk is None and n is not None:
            chunk = resolve_chunk_steps(n, None, budget)
        faults = self.faults if self.faults is not None else default_faults()
        if (
            chunk == self.chunk_steps
            and budget == self.mem_budget
            and faults is self.faults
        ):
            return self
        return dataclasses.replace(
            self, chunk_steps=chunk, mem_budget=budget, faults=faults
        )

    def fault_schedule(self):
        """The effective fault schedule: this policy's, or the
        process-wide default (:func:`~repro.faults.default_faults`)
        when unset; ``None`` when neither exists."""
        return self.faults if self.faults is not None else default_faults()

    def bind(self, network: RadioNetwork | None) -> RadioNetwork | None:
        """Install this policy's effective fault schedule on ``network``.

        The one call every migrated protocol entry point makes before
        executing: a no-op without a schedule (or without a network),
        idempotent for an equal schedule, and a refusal if the network
        already carries a different one. Returns ``network``.
        """
        if network is not None:
            schedule = self.fault_schedule()
            if schedule is not None:
                network.install_faults(schedule)
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
        delivery and streaming knobs.
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
            delivery=self.delivery,
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


# ---------------------------------------------------------------------------
# Legacy-kwarg deprecation shims.
# ---------------------------------------------------------------------------

#: Entry points that already warned about legacy kwargs this process
#: (the "warning emitted once" contract; tests clear it to re-assert).
_warned_legacy: set[str] = set()


def legacy_policy(
    policy: ExecutionPolicy | None,
    entry: str,
    **kwargs: Any,
) -> ExecutionPolicy:
    """Fold legacy per-call kwargs into an :class:`ExecutionPolicy`.

    The shim behind every migrated entry point: callers that pass the
    old ``engine=``/``delivery=``/``chunk_steps=``/``mem_budget=``
    keywords get a policy constructed from them (with one
    ``DeprecationWarning`` per entry point per process), callers that
    pass ``policy=`` use it directly, and passing both refuses loudly —
    a silent merge would make precedence ambiguous.

    ``kwargs`` holds the legacy values with ``None`` meaning "not
    given" (the migrated signatures' defaults); the constructed policy
    is bit-identical in effect to the old kwargs, so old and new call
    forms produce identical runs (pinned by
    ``tests/test_api.py``).
    """
    given = {k: v for k, v in kwargs.items() if v is not None}
    if policy is not None:
        if given:
            raise ProtocolError(
                f"{entry}() got both policy= and legacy keyword(s) "
                f"{sorted(given)}; pass the policy alone "
                f"(dataclasses.replace() to override fields)"
            )
        return policy
    if given and entry not in _warned_legacy:
        _warned_legacy.add(entry)
        warnings.warn(
            f"{entry}(): per-call {sorted(given)} keywords are "
            f"deprecated; pass policy=ExecutionPolicy(...) (see "
            f"repro.api)",
            DeprecationWarning,
            stacklevel=3,
        )
    return ExecutionPolicy(**given)


__all__ = [
    "ALL_DELIVERY_MODES",
    "ENGINE_MODES",
    "ExecutionPolicy",
    "POLICY_FIELDS",
    "TRACE_MODES",
    "available_delivery_modes",
    "legacy_policy",
    "parse_mem_budget",
    "validate_chunk_steps",
    "validate_delivery",
    "validate_engine",
    "validate_mem_budget",
    "validate_trace",
]
