"""RunReport: the structured record every :func:`repro.api.run` returns.

One protocol run produces one :class:`RunReport` — the protocol's own
result plus the execution facts every consumer used to re-derive
independently: radio-step count, trace totals, wall time, optional
tracemalloc peak, the :class:`~repro.engine.policy.ExecutionPolicy`
echo (the policy that executed, exactly as the caller built it), and
provenance (seed, graph spec, code version). The CLI prints them,
``run_report_trials`` and campaigns aggregate them, and benchmarks
persist their :meth:`RunReport.row` form into ``BENCH_*.json``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.resulteq import ArrayEqMixin, values_equal
from ..engine.policy import ExecutionPolicy


@dataclasses.dataclass(frozen=True, eq=False)
class RunReport(ArrayEqMixin):
    """Outcome of one :func:`repro.api.run` call.

    Reports compare by *outcome*: ``run(...) == run(...)`` is True when
    protocol, result, steps, trace totals, policy, and
    provenance all match — the corpus layer's cache-hit check. The
    measurement fields (:attr:`wall_time_s`, :attr:`peak_mem_bytes`)
    are excluded from comparison, since wall clock differs on every
    execution of the same outcome; ndarray payloads inside the nested
    result compare via :func:`numpy.array_equal`.

    Attributes
    ----------
    protocol:
        Registry name of the protocol that ran.
    result:
        The protocol's own result object (e.g.
        :class:`~repro.core.mis.MISResult`) — exactly what the legacy
        entry point returns, bit-identical on a shared seed.
    steps:
        Radio steps the run simulated (0 for round-accounted
        protocols, whose cost lives in the result's ledger).
    trace:
        Trace totals over the run: ``steps``, ``transmissions``,
        ``receptions``.
    wall_time_s:
        Wall-clock seconds of the protocol execution itself (setup —
        graph build, network construction — is excluded).
    peak_mem_bytes:
        Tracemalloc peak of the execution, or ``None`` when the run
        was not memory-measured (measurement taxes allocations, so it
        is opt-in; see ``run(..., measure_memory=True)``).
    policy:
        The policy echo: the engine, memory budget, validation flag
        and fault schedule the run executed under — what a reader
        needs to reproduce the execution exactly. Protocols consult
        only the knobs they implement: a round-accounted run simulates
        no radio steps, so the memory budget (and, outside packet
        mode, the engine) is necessarily inert there.
    provenance:
        Reproduction facts: ``seed`` (the integer seed, or ``None``
        when the caller passed a live generator), ``graph`` (family /
        ``n`` / ``edges``, or ``None`` for protocols that build their
        own topology), ``faults`` (``None`` for fault-free runs —
        including empty schedules — else the schedule's content
        ``digest``, its configured event counts, and the realized
        event counters the network recorded), ``version`` (the
        package version).
    """

    protocol: str
    result: Any
    steps: int
    trace: dict[str, int]
    wall_time_s: float = dataclasses.field(compare=False)
    peak_mem_bytes: int | None = dataclasses.field(compare=False)
    policy: ExecutionPolicy
    provenance: dict[str, Any]

    def __eq__(self, other: Any) -> bool:
        # Outcome equality, like the mixin — but the per-phase wall
        # buckets in provenance["timing"] are a measurement (they
        # differ on every execution of the same outcome), so they are
        # excluded exactly as wall_time_s is.
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        for field in dataclasses.fields(self):
            if not field.compare:
                continue
            a = getattr(self, field.name)
            b = getattr(other, field.name)
            if field.name == "provenance":
                a = {k: v for k, v in a.items() if k != "timing"}
                b = {k: v for k, v in b.items() if k != "timing"}
            if not values_equal(a, b):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def to_json(self, indent: int | None = None) -> str:
        """Serialize this report to the tagged-JSON wire format.

        The document round-trips exactly: ``RunReport.from_json(
        r.to_json()) == r`` under the report's own outcome equality
        (ndarray payloads byte-exact, sets/tuples/nested dataclasses
        reconstructed; see :mod:`repro.api.wire`). This is the
        experiment service's storage and HTTP format.
        """
        from .wire import report_to_json

        return report_to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunReport":
        """Parse a :meth:`to_json` document back into a report."""
        from .wire import report_from_json

        return report_from_json(text)

    def row(self) -> dict[str, Any]:
        """Flatten to a JSON-ready dict (the ``BENCH_*.json`` row form).

        The protocol result itself is summarized to its type name —
        result objects carry arrays; benchmarks pick the scalar facts
        they need from :attr:`result` and merge them into the row.
        """
        graph = self.provenance.get("graph") or {}
        return {
            "protocol": self.protocol,
            "result_type": type(self.result).__name__,
            "steps": self.steps,
            "trace": dict(self.trace),
            "wall_time_s": self.wall_time_s,
            "peak_mem_bytes": self.peak_mem_bytes,
            "engine": self.policy.engine,
            "mem_budget": self.policy.mem_budget,
            "validate": self.policy.validate,
            "faults": (self.provenance.get("faults") or {}).get("digest"),
            "seed": self.provenance.get("seed"),
            "graph": dict(graph) if graph else None,
            "version": self.provenance.get("version"),
        }


__all__ = ["RunReport"]
