"""Budget accounting across every engine execution strategy.

``WindowedRunner(max_steps=...)`` must charge multiplexed joint windows
and dense and sparse windows exactly as the step-wise drivers count
steps —
one charge per radio step, raised *before* the segment that would
overshoot executes — plus the documented edge cases: ``coin_chunk`` at
``n = 0`` and the empty (``w = 0``) window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import build_schedule, partition
from repro.core.intra_cluster import (
    DecayBackground,
    DecayBackgroundSource,
    ICPProtocol,
    intra_cluster_propagation,
)
from repro.engine import (
    COIN_BUDGET,
    ExecutionPolicy,
    ObliviousWindow,
    ProtocolSegmentSource,
    WindowedRunner,
    coin_chunk,
    multiplex,
    run_schedule,
)
from repro.graphs import greedy_independent_set
from repro.radio import BudgetExceededError, RadioNetwork


def _icp_fixture(seed: int = 0):
    g = graphs.random_udg(50, 3.0, np.random.default_rng(seed))
    setup = np.random.default_rng(seed + 1)
    mis = sorted(greedy_independent_set(g, setup, "random"))
    clustering = partition(g, 0.3, mis, setup)
    schedule = build_schedule(g, clustering)
    know = np.full(50, -1, dtype=np.int64)
    know[0] = 2
    return g, clustering, schedule, know


def _fused_schedule(net, clustering, schedule, know, rng, max_steps=None):
    main = ICPProtocol(net, schedule, know, 3)
    total = sum(len(p.slots) for p in main._passes)
    return total, multiplex(
        ProtocolSegmentSource(main, steps=total),
        DecayBackgroundSource(DecayBackground(net, clustering, know)),
        rng=rng,
        max_steps=max_steps,
    )


class TestMultiplexedBudget:
    def test_charges_match_stepwise_drivers(self):
        # The fused run must charge exactly the steps the reference
        # executes: 2 * slots - 1 (the reference stops at the finished
        # check after main's last observe).
        g, clustering, schedule, know = _icp_fixture()
        ref = intra_cluster_propagation(
            RadioNetwork(g), clustering, schedule, know.copy(), 3,
            np.random.default_rng(5),
            policy=ExecutionPolicy(engine="reference"),
        )
        net = RadioNetwork(g)
        runner = WindowedRunner(net)
        total, fused = _fused_schedule(
            net, clustering, schedule, know.copy(), np.random.default_rng(5)
        )
        runner.run(fused)
        assert runner.steps_executed == ref.steps == 2 * total - 1
        assert net.steps_elapsed == ref.steps

    def test_exact_budget_completes(self):
        g, clustering, schedule, know = _icp_fixture()
        net = RadioNetwork(g)
        total, fused = _fused_schedule(
            net, clustering, schedule, know, np.random.default_rng(5)
        )
        runner = WindowedRunner(net, max_steps=2 * total - 1)
        runner.run(fused)
        assert runner.steps_executed == 2 * total - 1

    def test_raise_before_execute_at_window_boundary(self):
        # One step short: the runner must raise before executing the
        # joint window that would overshoot, leaving the network at a
        # window boundary below the budget.
        g, clustering, schedule, know = _icp_fixture()
        net = RadioNetwork(g)
        total, fused = _fused_schedule(
            net, clustering, schedule, know, np.random.default_rng(5)
        )
        budget = 2 * total - 2
        runner = WindowedRunner(net, max_steps=budget)
        with pytest.raises(BudgetExceededError):
            runner.run(fused)
        assert runner.steps_executed <= budget
        assert net.steps_elapsed == runner.steps_executed

    def test_mux_max_steps_vs_runner_budget(self):
        # multiplex's own max_steps trims the joint stream instead of
        # raising; the runner budget then passes.
        g, clustering, schedule, know = _icp_fixture()
        net = RadioNetwork(g)
        _, fused = _fused_schedule(
            net, clustering, schedule, know, np.random.default_rng(5),
            max_steps=41,
        )
        runner = WindowedRunner(net, max_steps=41)
        runner.run(fused)
        assert runner.steps_executed == net.steps_elapsed == 41


#: Transmit densities per regime (the removed router's mode names):
#: sparse rows, dense rows, and windows mixing both.
_REGIME_DENSITY = {"sparse": 0.05, "dense": 0.5, "auto": [0.05, 0.5]}


def _regime_masks(delivery: str, rows: int, n: int) -> np.ndarray:
    density = np.resize(_REGIME_DENSITY[delivery], rows)[:, None]
    return np.random.default_rng(0).random((rows, n)) < density


class TestDeliveryPathBudget:
    @pytest.mark.parametrize("delivery", ["auto", "sparse", "dense"])
    def test_dense_and_sparse_charge_identically(self, delivery):
        # ``delivery`` names the window's density regime.
        net = RadioNetwork(graphs.path(30))
        runner = WindowedRunner(net, max_steps=12)
        masks = _regime_masks(delivery, 12, 30)

        def emit():
            yield ObliviousWindow(masks[:5])
            yield ObliviousWindow(masks[5:])

        runner.run(emit())
        assert runner.steps_executed == 12
        assert net.steps_elapsed == 12
        assert net.trace.total_steps == 12

    @pytest.mark.parametrize("delivery", ["sparse", "dense"])
    def test_overshoot_raises_regardless_of_path(self, delivery):
        net = RadioNetwork(graphs.path(30))
        runner = WindowedRunner(net, max_steps=7)
        masks = _regime_masks(delivery, 8, 30)

        def emit():
            yield ObliviousWindow(masks)

        with pytest.raises(BudgetExceededError):
            runner.run(emit())
        assert net.steps_elapsed == 0  # raised before executing

    def test_runner_validates_delivery(self):
        # The runner has no delivery knob any more: naming one fails
        # loudly, never silently ignored.
        net = RadioNetwork(graphs.path(5))
        with pytest.raises(TypeError, match="delivery"):
            WindowedRunner(net, delivery="gpu")
        with pytest.raises(TypeError, match="delivery"):
            run_schedule(net, iter(()), delivery="bogus")


class TestEdgeCases:
    def test_coin_chunk_n_zero(self):
        # n = 0 must not divide by zero; the chunk degenerates to the
        # whole budget (there are no per-node coins to bound).
        assert coin_chunk(0) == COIN_BUDGET
        assert coin_chunk(0, budget=17) == 17
        assert coin_chunk(1) == COIN_BUDGET
        # And stays >= 1 even for absurd sizes.
        assert coin_chunk(10 * COIN_BUDGET) == 1

    def test_empty_window_charges_nothing(self):
        net = RadioNetwork(graphs.path(6))
        runner = WindowedRunner(net, max_steps=0)

        collected = {}

        def emit():
            collected["reply"] = yield ObliviousWindow(
                np.zeros((0, 6), dtype=bool)
            )
            return "done"

        assert runner.run(emit()) == "done"
        assert runner.steps_executed == 0
        assert net.steps_elapsed == 0
        assert net.trace.total_steps == 0
        assert collected["reply"].shape == (0, 6)

    def test_empty_window_all_modes(self):
        # Every entry into the product: the network's window call, and
        # the runner whole and chunk-wise.
        net = RadioNetwork(graphs.path(6))
        out = net.deliver_window(np.zeros((0, 6), dtype=bool))
        assert out.shape == (0, 6)
        assert net.steps_elapsed == 0
        for chunk_steps in (None, 1):
            net = RadioNetwork(graphs.path(6))
            runner = WindowedRunner(net, chunk_steps=chunk_steps)

            def emit():
                return (yield ObliviousWindow(np.zeros((0, 6), dtype=bool)))

            assert runner.run(emit()).shape == (0, 6)
            assert net.steps_elapsed == 0 and not net.kernel_use
