"""The contract-checking harness for the windowed engine.

The engine's speed rests on one promise: delivering a window through
the transmitter-pair product returns exactly what ``w`` sequential
:meth:`~repro.radio.network.RadioNetwork.deliver` calls would have.
:class:`ValidatingRunner` turns that promise into a runtime assertion:
it runs windows normally on its primary network while *replaying*
every delivered chunk step-by-step through ``deliver`` on a shadow
network over the same graph. Every window — a sampled block or a
step of :meth:`~repro.engine.runner.WindowedRunner.run_steps` —
reaches the product through the runner's one ``_deliver_coo`` hook,
which is where the replay sits. ``deliver``'s fused ``(n, 2)`` matvec
shares no code with the product, so the replay is an independent
executable specification, not the engine checking itself.
Any disagreement — a single ``hear_from`` bit — raises
:class:`ObliviousnessViolationError` naming the first divergent step.

``ExecutionPolicy(validate=True)`` puts this runner under every window
a protocol runs: :meth:`~repro.engine.policy.ExecutionPolicy.runner`
builds one per call, so a composite protocol builds one per block.
``tests/test_schedule_contract.py`` runs every registered protocol that
way across the pipeline's graph families and checks that the replayed
steps add up to the run's steps, so the windows being checked are the
ones real protocols actually run (transmitter rows from Decay ladders,
slot schedules, density guesses), not synthetic ones. The harness is
shipped, not test-only: run any protocol under ``validate=True`` when
debugging a suspected engine mismatch.
"""

from __future__ import annotations

import numpy as np

from ..radio.errors import ProtocolError
from ..radio.network import NO_SENDER, RadioNetwork
from .runner import WindowedRunner


class ObliviousnessViolationError(ProtocolError):
    """A batched window diverged from its step-by-step replay."""


class ValidatingRunner(WindowedRunner):
    """A :class:`~repro.engine.runner.WindowedRunner` that replays every
    delivered chunk step-by-step and asserts bit-identical delivery.

    Parameters are those of :class:`~repro.engine.runner.WindowedRunner`;
    one shadow network over ``network.graph`` is constructed internally
    (cheap: the CSR adjacency is shared through the per-graph context
    cache) and replays every chunk through sequential
    :meth:`~repro.radio.network.RadioNetwork.deliver` calls. The
    primary network's trace and step accounting are exactly those of
    an unvalidated run.

    Attributes
    ----------
    windows_checked, steps_checked:
        Running totals of validated windows and radio steps, so tests
        can assert the harness actually exercised something.
    """

    def __init__(self, network: RadioNetwork, chunk_steps: int) -> None:
        super().__init__(network, chunk_steps)
        self.shadow = RadioNetwork(network.graph)
        if network._fault_state is not None:
            # Under an active fault schedule the shadow must realize
            # the identical fault pattern: it gets a clone of the
            # primary's current state (same energy ledger) and starts
            # on the primary's global step clock, then advances in
            # lockstep — every step the primary executes is replayed.
            self.shadow.faults = network.faults
            self.shadow._fault_state = network._fault_state.clone()
            self.shadow.steps_elapsed = network.steps_elapsed
        self.windows_checked = 0
        self.steps_checked = 0

    def _compare(self, primary: np.ndarray, masks: np.ndarray) -> None:
        """Compare one delivered block against its step replay."""
        replay = np.full(masks.shape, NO_SENDER, dtype=np.int64)
        for t, mask in enumerate(masks):
            replay[t] = self.shadow.deliver(mask)
        if not (primary == replay).all():
            step, node = (int(i) for i in np.argwhere(primary != replay)[0])
            raise ObliviousnessViolationError(
                f"window of {masks.shape[0]} steps diverged from its "
                f"step replay at window step {step}, node {node}: "
                f"hear_from {primary[step, node]} != {replay[step, node]}"
            )
        self.steps_checked += masks.shape[0]

    def _deliver_coo(self, k, steps, nodes, consume_coo) -> None:
        """Check one delivered chunk against the step replay before
        folding it.

        The chunk executes on the primary's product; its intended
        transmitter pairs are then expanded to ``(k, n)`` masks and its
        reception triples to a hear slab — the only place either is
        built — and compared against the shadow's step replay, which
        realizes the same fault pattern through the mask transforms.
        Every window reaches the product through this hook.
        """
        n = self.network.n
        masks = np.zeros((k, n), dtype=bool)
        masks[steps, nodes] = True
        received = []
        super()._deliver_coo(
            k, steps, nodes, lambda *triple: received.append(triple)
        )
        _, rx_steps, rx_nodes, senders = received[0]
        slab = np.full((k, n), NO_SENDER, dtype=np.int64)
        slab[rx_steps, rx_nodes] = senders
        self._compare(slab, masks)
        consume_coo(k, rx_steps, rx_nodes, senders)

    def run(self, window) -> None:
        super().run(window)
        self.windows_checked += 1


__all__ = ["ObliviousnessViolationError", "ValidatingRunner"]
