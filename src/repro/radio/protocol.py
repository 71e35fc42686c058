"""Protocol abstraction and drivers for packet-level simulations.

Protocols are written SPMD-style: one Python object holds the per-node
state of *all* nodes in numpy arrays and advances every node by one radio
step at a time. This is a performance device only — a faithful protocol
derives each node's behavior exclusively from that node's own state and
what that node heard, never from the topology or other nodes' state. The
contract:

1. :meth:`Protocol.transmit_mask` returns who transmits this step, based
   on per-node state and per-node randomness;
2. the driver executes the step on the network;
3. :meth:`Protocol.observe` receives, for every node, the index of the
   unique neighbor it heard (or :data:`~repro.radio.network.NO_SENDER`)
   and updates per-node state. What the heard neighbor *said* is that
   neighbor's own state, which the protocol already holds in its
   arrays and indexes by sender; no payload travels with a step.

:class:`TimeMultiplexer` interleaves a main and a background protocol on
alternating steps, which is how the paper's algorithms run their
background processes ("conducted concurrently via time multiplexing",
Appendix A). Intra-Cluster Propagation builds one such stack and hands
it to either driver: :func:`run_steps` here (its step-wise reference)
or :meth:`repro.engine.runner.WindowedRunner.run_steps` (its engine
path).

This module is the *step-wise* layer. Production protocol entry points
run on the windowed engine instead: they hand their blocks of steps to
the :class:`~repro.engine.runner.WindowedRunner` as windows
(:mod:`repro.engine`), each executed as one sparse product. The driver
here (:func:`run_steps`) is what those entry points run under
``engine="reference"`` — the executable specification the
``*_reference`` twins are — and
:meth:`~repro.engine.runner.WindowedRunner.run_steps` runs any
:class:`Protocol` object — including :class:`TimeMultiplexer` stacks —
on the runner as one-row windows, with bit-identical behavior.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from .errors import ProtocolError
from .network import NO_SENDER, RadioNetwork


class Protocol(abc.ABC):
    """Base class for packet-level radio protocols.

    Subclasses hold vectorized per-node state and implement
    :meth:`transmit_mask` and :meth:`observe`. A protocol signals
    completion via :attr:`finished` and exposes its output via
    :meth:`result`.
    """

    def __init__(self, network: RadioNetwork) -> None:
        self.network = network
        self.n = network.n
        self._finished = False

    @property
    def finished(self) -> bool:
        """Whether the protocol has completed."""
        return self._finished

    @abc.abstractmethod
    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        """Return the boolean transmit mask for the next step."""

    @abc.abstractmethod
    def observe(self, hear_from: np.ndarray) -> None:
        """Update per-node state from the step's reception vector."""

    def result(self) -> Any:
        """Protocol output; only meaningful once :attr:`finished`."""
        raise ProtocolError(f"{type(self).__name__} does not define a result")


class SilentProtocol(Protocol):
    """A protocol in which every node listens forever.

    Useful as a placeholder background process and in tests of the
    multiplexer.
    """

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.n, dtype=bool)

    def observe(self, hear_from: np.ndarray) -> None:
        return None


class TimeMultiplexer(Protocol):
    """Interleave a main and a background protocol on alternating steps.

    Even-numbered multiplexer steps execute the main protocol, odd ones the
    background protocol; each inner protocol only observes its own steps,
    exactly as if the network ran at half speed for each. The multiplexer
    finishes when the main protocol does (background processes in the
    paper run "until the main process is complete").

    This doubles the step count of the main protocol, a constant factor
    the paper's O() bounds absorb.
    """

    def __init__(
        self,
        network: RadioNetwork,
        main: Protocol,
        background: Protocol,
    ) -> None:
        super().__init__(network)
        if main.network is not network or background.network is not network:
            raise ProtocolError(
                "multiplexed protocols must share the multiplexer's network"
            )
        self.main = main
        self.background = background
        self._parity = 0

    @property
    def finished(self) -> bool:
        return self.main.finished

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        active = self.main if self._parity == 0 else self.background
        if active.finished:
            # A finished sub-protocol stays silent on its slots.
            return np.zeros(self.n, dtype=bool)
        return active.transmit_mask(rng)

    def observe(self, hear_from: np.ndarray) -> None:
        active = self.main if self._parity == 0 else self.background
        if not active.finished:
            active.observe(hear_from)
        self._parity ^= 1

    def result(self) -> Any:
        return self.main.result()


def run_steps(
    protocol: Protocol,
    rng: np.random.Generator,
    steps: int,
) -> None:
    """Advance ``protocol`` by exactly ``steps`` steps (or until finished).

    Parameters
    ----------
    protocol:
        The protocol to run.
    rng:
        Randomness source shared by all nodes' coin flips. (Conceptually
        each node has a private source; a single generator drawing
        per-node vectors is statistically identical and much faster.)
    steps:
        Steps to run; each caller knows its block's length (a Decay
        block inside Radio MIS, one ICP phase).
    """
    for _ in range(steps):
        if protocol.finished:
            return
        mask = protocol.transmit_mask(rng)
        hear_from = protocol.network.deliver(mask)
        protocol.observe(hear_from)


__all__ = [
    "NO_SENDER",
    "Protocol",
    "SilentProtocol",
    "TimeMultiplexer",
    "run_steps",
]
