"""The protocol registry: every runnable protocol, declared once.

A :class:`ProtocolSpec` is the registry's unit: a protocol's name, its
config dataclass and the schedule emitters it owns — plus the hook
that actually executes it and optional CLI metadata from which
:mod:`repro.cli` generates the protocol's subcommand. Specs register
through :func:`register_protocol` at import of
:mod:`repro.api.protocols`, so ``import repro.api`` is all discovery
takes::

    >>> import repro.api as api
    >>> sorted(api.protocol_names())        # doctest: +ELLIPSIS
    ['bgi', 'broadcast', 'decay', 'eed', ...]

The registry is also a *completeness contract*: every schedule emitter
in the tree must be claimed by exactly the spec that owns it (or be
the engine-layer lift in :data:`ADAPTER_EMITTERS`), and
``tests/test_schedule_contract.py`` pins the AST-scanned emitter
inventory against exactly that union — a new emitter that forgets
``@register_protocol`` fails CI.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from ..radio.errors import ProtocolError

#: Schedule emitters that belong to the engine layer itself — the
#: generic lift every step-wise protocol may ride — rather than to any
#: one registered protocol. The inventory test unions these with the
#: specs' claimed emitters.
ADAPTER_EMITTERS = frozenset({"protocol_schedule"})


def _exit_ok(report: Any, fields: dict[str, Any]) -> int:
    """Default CLI exit code: every finished run is a success."""
    return 0


@dataclasses.dataclass(frozen=True)
class CLISpec:
    """How a registered protocol surfaces as a CLI subcommand.

    The CLI builds every protocol subcommand from this record plus the
    shared graph/policy flag groups — no per-subcommand policy parsing
    exists anymore.

    Attributes
    ----------
    help:
        One-line subcommand help.
    add_arguments:
        Optional hook adding protocol-specific flags to the
        subcommand's parser.
    config_from_args:
        Builds the protocol's config object from parsed args (may
        raise :class:`~repro.radio.errors.ProtocolError` for
        contradictory flags; the CLI prints it and exits 2).
    report_fields:
        ``(report, graph, config) -> dict`` — the protocol-specific
        fields of the printed report (merged after the shared
        graph/engine fields).
    exit_code:
        ``(report, fields) -> int`` — process exit code (0 =
        success), given the already-computed ``report_fields`` dict so
        derived facts (MIS validity, informed counts) are computed
        once per run.
    relabel:
        Convert node labels to integers before running (protocols
        whose configs address nodes by index on label-carrying graph
        families).
    """

    help: str
    config_from_args: Callable[[Any], Any]
    report_fields: Callable[[Any, Any, Any], dict[str, Any]]
    add_arguments: Callable[[Any], None] | None = None
    exit_code: Callable[[Any, dict[str, Any]], int] = _exit_ok
    relabel: bool = False


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol: declaration plus execution hook.

    Attributes
    ----------
    name:
        Registry key (and CLI subcommand name).
    title:
        One-line description.
    config_cls:
        The protocol's config dataclass (``None`` for config-free
        protocols).
    emitters:
        Names of the schedule-emitter generator functions this
        protocol owns — the registry side of the AST-pinned emitter
        inventory (see module docstring).
    execute:
        ``execute(target, rng, config, policy) -> (result, network)``
        — the actual run. ``target`` is the graph or network
        :func:`~repro.api.run.run` prepared, ``policy`` is the
        caller's policy; ``network`` is the radio network the run used
        (``None`` for round-accounted protocols, which simulate no
        radio steps).
    accepts:
        What ``execute`` expects as target: ``"network"`` (a
        :class:`~repro.radio.network.RadioNetwork` is built from graph
        input), ``"graph"`` (the bare graph), or ``"none"`` (the
        protocol builds its own topology, e.g. the wake-up clique).
        Graph input may be a networkx graph or an array-native
        :class:`~repro.corpus.graph.CSRGraph` (a corpus entry) for
        every protocol that takes a target.
    cli:
        CLI metadata, or ``None`` for library-only protocols.
    """

    name: str
    title: str
    config_cls: type | None
    emitters: tuple[str, ...]
    execute: Callable[..., Any]
    accepts: str = "network"
    cli: CLISpec | None = None


#: The process-wide registry, keyed by spec name (insertion-ordered).
_REGISTRY: dict[str, ProtocolSpec] = {}


def register_protocol(**spec_kwargs: Any) -> Callable[[Callable], Callable]:
    """Class-of-service decorator declaring a protocol's spec.

    Applied to the protocol's ``execute`` hook::

        @register_protocol(
            name="mis", title="Radio MIS (Algorithm 7)",
            config_cls=MISConfig, emitters=("mis_schedule",),
        )
        def _execute_mis(network, rng, config, policy): ...

    The decorated function is stored as :attr:`ProtocolSpec.execute`
    and returned unchanged. Registering a name twice refuses — specs
    are declarations, not configuration to be monkey-patched.
    """

    def decorate(execute: Callable) -> Callable:
        spec = ProtocolSpec(execute=execute, **spec_kwargs)
        if spec.name in _REGISTRY:
            raise ProtocolError(
                f"protocol {spec.name!r} is already registered"
            )
        _REGISTRY[spec.name] = spec
        return execute

    return decorate


def get_protocol(name_or_spec: str | ProtocolSpec) -> ProtocolSpec:
    """Look up a registered protocol, refusing unknowns by name."""
    if isinstance(name_or_spec, ProtocolSpec):
        return name_or_spec
    spec = _REGISTRY.get(name_or_spec)
    if spec is None:
        raise ProtocolError(
            f"unknown protocol: {name_or_spec!r} "
            f"(registered: {protocol_names()})"
        )
    return spec


def protocol_names() -> tuple[str, ...]:
    """Registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def list_protocols() -> tuple[ProtocolSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def registered_emitters() -> frozenset[str]:
    """Every emitter name claimed by a registered protocol.

    The inventory test asserts the AST-scanned emitter set equals this
    union plus :data:`ADAPTER_EMITTERS`.
    """
    names: set[str] = set()
    for spec in _REGISTRY.values():
        names.update(spec.emitters)
    return frozenset(names)


__all__ = [
    "ADAPTER_EMITTERS",
    "CLISpec",
    "ProtocolSpec",
    "get_protocol",
    "list_protocols",
    "protocol_names",
    "register_protocol",
    "registered_emitters",
]
