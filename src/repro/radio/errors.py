"""Exception types for the radio network simulator.

All simulator-raised errors derive from :class:`RadioError` so callers can
catch everything this package raises with a single ``except`` clause.
"""

from __future__ import annotations


class RadioError(Exception):
    """Base class for all errors raised by :mod:`repro.radio`."""


class InvalidActionError(RadioError):
    """A protocol produced an action the model does not permit.

    Examples: a node transmitting ``None`` as a message, or an action
    vector whose length does not match the number of nodes.
    """


class ProtocolError(RadioError, ValueError):
    """A protocol implementation violated the :class:`Protocol` contract,
    or a caller configured one with values outside the contract.

    Raised, for instance, when a protocol reports completion but its
    :meth:`~repro.radio.protocol.Protocol.result` raises, when ``step``
    is called after the protocol already finished — and, uniformly
    across the API/CLI/harness surfaces, when an unknown ``engine=``
    string, an unknown policy field or a malformed
    ``chunk_steps``/``mem_budget`` value is refused (the refusal names
    the accepted values). Also a
    :class:`ValueError`, so callers that predate the unified refusals
    keep catching what they caught.
    """


class GraphContractError(RadioError):
    """The input graph violates a documented precondition.

    The simulator requires a non-empty undirected :class:`networkx.Graph`
    with hashable node labels; algorithms that assume connectivity
    (broadcast, leader election) raise this on disconnected inputs.
    """


class BudgetExceededError(RadioError):
    """A protocol exceeded its configured round budget without finishing.

    Randomized radio protocols only succeed with high probability; a run
    that exhausts its budget is a legitimate (low-probability) outcome and
    is surfaced with this exception rather than a silent wrong answer.
    """
