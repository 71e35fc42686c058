"""Step accounting across every engine execution strategy.

The runner must account ICP's lifted time-multiplexed stack and dense
and sparse windows exactly as the step-wise drivers count steps — one
step per radio step, whatever the chunking — and the lift's own step
bound must end the stack exactly where the step-wise driver would,
plus the documented edge cases: the chunk height at ``n = 0`` and the
empty (``w = 0``) window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import build_schedule, partition
from repro.core.intra_cluster import (
    DecayBackground,
    ICPProtocol,
    intra_cluster_propagation,
)
from repro.engine import (
    STREAM_CELL_BYTES,
    ExecutionPolicy,
    StreamedWindow,
    TransmitterPlan,
    WindowedRunner,
    chunk_steps_for_budget,
    protocol_schedule,
)
from repro.graphs import greedy_independent_set
from repro.radio import RadioNetwork, TimeMultiplexer


def _icp_fixture(seed: int = 0):
    g = graphs.random_udg(50, 3.0, np.random.default_rng(seed))
    setup = np.random.default_rng(seed + 1)
    mis = sorted(greedy_independent_set(g, setup, "random"))
    clustering = partition(g, 0.3, mis, setup)
    schedule = build_schedule(g, clustering)
    know = np.full(50, -1, dtype=np.int64)
    know[0] = 2
    return g, clustering, schedule, know


def _lifted_icp(net, clustering, schedule, know, rng, steps=None):
    main = ICPProtocol(net, schedule, know, 3)
    total = sum(len(p.slots) for p in main._passes)
    background = DecayBackground(net, clustering, know)
    return total, protocol_schedule(
        TimeMultiplexer(net, main, background), rng, steps=steps
    )


class TestMultiplexedBudget:
    def test_charges_match_stepwise_drivers(self):
        # The lifted stack must execute exactly the steps the reference
        # executes: 2 * slots - 1 (the reference stops at the finished
        # check after main's last observe).
        g, clustering, schedule, know = _icp_fixture()
        ref = intra_cluster_propagation(
            RadioNetwork(g), clustering, schedule, know.copy(), 3,
            np.random.default_rng(5),
            policy=ExecutionPolicy(engine="reference"),
        )
        net = RadioNetwork(g)
        total, lifted = _lifted_icp(
            net, clustering, schedule, know.copy(), np.random.default_rng(5)
        )
        ExecutionPolicy().run_schedule(net, lifted)
        assert net.steps_elapsed == ref.steps == 2 * total - 1
        assert net.trace.total_steps == ref.steps

    def test_exact_budget_completes(self):
        # The lift's own step bound, set to the stack's exact length,
        # lets it finish and return its result.
        g, clustering, schedule, know = _icp_fixture()
        net = RadioNetwork(g)
        main = ICPProtocol(net, schedule, know, 3)
        budget = 2 * sum(len(p.slots) for p in main._passes) - 1
        _, lifted = _lifted_icp(
            net, clustering, schedule, know, np.random.default_rng(5),
            steps=budget,
        )
        assert ExecutionPolicy().run_schedule(net, lifted) is not None
        assert net.steps_elapsed == budget


#: Transmit densities per regime (the removed router's mode names):
#: sparse rows, dense rows, and windows mixing both.
_REGIME_DENSITY = {"sparse": 0.05, "dense": 0.5, "auto": [0.05, 0.5]}


def _regime_masks(delivery: str, rows: int, n: int) -> np.ndarray:
    density = np.resize(_REGIME_DENSITY[delivery], rows)[:, None]
    return np.random.default_rng(0).random((rows, n)) < density


class TestDeliveryPathBudget:
    @pytest.mark.parametrize("delivery", ["auto", "sparse", "dense"])
    def test_dense_and_sparse_charge_identically(self, delivery, mask_window):
        # ``delivery`` names the window's density regime.
        net = RadioNetwork(graphs.path(30))
        runner = ExecutionPolicy().runner(net)
        masks = _regime_masks(delivery, 12, 30)

        def emit():
            yield from mask_window(masks[:5])
            yield from mask_window(masks[5:])

        runner.run(emit())
        assert net.steps_elapsed == 12
        assert net.trace.total_steps == 12

    def test_runner_validates_delivery(self):
        # The runner has no delivery knob any more: naming one fails
        # loudly, never silently ignored.
        net = RadioNetwork(graphs.path(5))
        with pytest.raises(TypeError, match="delivery"):
            WindowedRunner(net, 4, delivery="gpu")
        with pytest.raises(TypeError, match="delivery"):
            ExecutionPolicy().run_schedule(net, iter(()), delivery="bogus")


class TestEdgeCases:
    def test_coin_chunk_n_zero(self):
        # The chunk height (which also sizes coin draws) at n = 0 must
        # not divide by zero; it degenerates to the whole budget's
        # cells (there are no per-node coins to bound).
        default = ExecutionPolicy().mem_budget
        assert chunk_steps_for_budget(0, default) == 2**22
        assert chunk_steps_for_budget(0, 17 * STREAM_CELL_BYTES) == 17
        assert chunk_steps_for_budget(1, default) == 2**22
        # And stays >= 1 even for absurd sizes.
        assert chunk_steps_for_budget(10 * 2**22, default) == 1

    def test_empty_window_charges_nothing(self, mask_window):
        net = RadioNetwork(graphs.path(6))
        runner = ExecutionPolicy().runner(net)

        collected = {}

        def emit():
            collected["reply"] = yield from mask_window(
                np.zeros((0, 6), dtype=bool)
            )
            return "done"

        assert runner.run(emit()) == "done"
        assert net.steps_elapsed == 0
        assert net.trace.total_steps == 0
        assert collected["reply"].shape == (0, 6)

    def test_empty_window_all_modes(self):
        # Every entry into the product: the kernel called directly, and
        # the runner whole and chunk-wise.
        net = RadioNetwork(graphs.path(6))
        empty = np.empty(0, dtype=np.int64)
        out = net._delivery_kernels().execute_coo(0, empty, empty)
        assert all(a.size == 0 for a in out)
        assert net.steps_elapsed == 0
        for chunk_steps in (64, 1):
            net = RadioNetwork(graphs.path(6))
            runner = WindowedRunner(net, chunk_steps)
            folded = []

            def emit():
                yield StreamedWindow(
                    TransmitterPlan(0, lambda s, e: (empty, empty)),
                    consume_coo=lambda *triple: folded.append(triple),
                )

            runner.run(emit())
            assert folded == []
            assert net.steps_elapsed == 0 and not net.kernel_use
