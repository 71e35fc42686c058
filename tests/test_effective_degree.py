"""Tests for EstimateEffectiveDegree (Algorithm 6 / Lemma 11)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.runner as runner_module
from repro import graphs
from repro.core.effective_degree import (
    EstimateEffectiveDegree,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    exact_effective_degree,
)
from repro.engine import ExecutionPolicy
from repro.engine.streaming import (
    STREAM_CELL_BYTES,
    chunk_bounds,
    chunk_work_target,
)
from repro.radio import ProtocolError, RadioNetwork


class TestExactOracle:
    def test_exact_effective_degree_star(self):
        g = graphs.star(6)
        net = RadioNetwork(g)
        p = np.full(6, 0.5)
        active = np.ones(6, dtype=bool)
        d = exact_effective_degree(net, p, active)
        hub = net.index_of(0)
        assert d[hub] == pytest.approx(0.5 * 5)
        leaf = net.index_of(1)
        assert d[leaf] == pytest.approx(0.5)

    def test_inactive_neighbors_excluded(self):
        g = graphs.star(6)
        net = RadioNetwork(g)
        p = np.full(6, 0.5)
        active = np.ones(6, dtype=bool)
        active[net.index_of(1)] = False
        d = exact_effective_degree(net, p, active)
        assert d[net.index_of(0)] == pytest.approx(0.5 * 4)


class TestLemma11:
    """High-degree nodes get High; low-degree nodes get Low (whp)."""

    def test_high_effective_degree_returns_high(self, rng):
        # Hub of a star with p = 1/2 leaves: d_t(hub) = 16 * 0.5 = 8 >= 1.
        g = graphs.star(17)
        net = RadioNetwork(g)
        p = np.full(net.n, 0.5)
        active = np.ones(net.n, dtype=bool)
        result = estimate_effective_degree(net, p, active, rng, C=24)
        assert result.high[net.index_of(0)]

    def test_low_effective_degree_returns_low(self, rng):
        # Leaves of a star where the hub has tiny desire level:
        # d_t(leaf) = p_hub = 0.004 <= 0.01.
        g = graphs.star(9)
        net = RadioNetwork(g)
        p = np.full(net.n, 0.004)
        active = np.ones(net.n, dtype=bool)
        result = estimate_effective_degree(net, p, active, rng, C=24)
        for leaf in range(1, 9):
            assert not result.high[net.index_of(leaf)]

    def test_isolated_node_low(self, rng):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from([0, 1])
        g.add_edge(0, 1)
        g.add_node(2)
        net = RadioNetwork(g)
        p = np.full(3, 0.5)
        active = np.ones(3, dtype=bool)
        result = estimate_effective_degree(net, p, active, rng, C=16)
        assert not result.high[net.index_of(2)]

    def test_clique_all_high(self, rng):
        # In a 32-clique at p = 1/2, every d_t(v) = 15.5 >= 1.
        g = graphs.clique(32)
        net = RadioNetwork(g)
        p = np.full(32, 0.5)
        active = np.ones(32, dtype=bool)
        result = estimate_effective_degree(net, p, active, rng, C=24)
        assert result.high.all()

    def test_accuracy_against_oracle(self, rng):
        # On a random UDG with mixed desire levels, the estimate must agree
        # with the oracle outside Lemma 11's (0.01, 1) dead zone.
        g = graphs.random_udg(n=60, side=3.0, rng=rng)
        net = RadioNetwork(g)
        p = rng.choice([0.001, 0.5], size=net.n, p=[0.5, 0.5])
        active = np.ones(net.n, dtype=bool)
        d = exact_effective_degree(net, p, active)
        result = estimate_effective_degree(net, p, active, rng, C=24)
        must_high = d >= 1.0
        must_low = d <= 0.01
        # Allow a small number of whp failures across 60 nodes.
        high_errors = int((must_high & ~result.high).sum())
        low_errors = int((must_low & result.high).sum())
        assert high_errors <= 2
        assert low_errors <= 2


class TestProtocolMechanics:
    def test_inactive_nodes_have_no_verdict(self, rng):
        g = graphs.clique(8)
        net = RadioNetwork(g)
        p = np.full(8, 0.5)
        active = np.ones(8, dtype=bool)
        active[0] = False
        result = estimate_effective_degree(net, p, active, rng, C=8)
        assert not result.high[0]

    def test_counts_shape(self, rng):
        g = graphs.path(8)
        net = RadioNetwork(g)
        protocol = EstimateEffectiveDegree(
            net, np.full(8, 0.5), np.ones(8, dtype=bool), C=4
        )
        assert protocol.counts.shape == (protocol.levels, 8)

    def test_total_steps_formula(self):
        g = graphs.path(16)
        net = RadioNetwork(g)
        protocol = EstimateEffectiveDegree(
            net, np.full(16, 0.5), np.ones(16, dtype=bool), C=4
        )
        # levels = log2(16) + 1 = 5, steps/level = 4 * 4 = 16.
        assert protocol.levels == 5
        assert protocol.steps_per_level == 16
        assert protocol.total_steps == 80

    def test_rejects_invalid_p(self):
        g = graphs.path(4)
        net = RadioNetwork(g)
        with pytest.raises(ValueError):
            EstimateEffectiveDegree(
                net, np.full(4, 1.5), np.ones(4, dtype=bool)
            )

    def test_rejects_invalid_C(self):
        g = graphs.path(4)
        net = RadioNetwork(g)
        with pytest.raises(ValueError):
            EstimateEffectiveDegree(
                net, np.full(4, 0.5), np.ones(4, dtype=bool), C=0
            )

    @pytest.mark.parametrize("field, value", [
        ("C", -2), ("C", 2.5), ("C", True), ("n_estimate", 0),
        ("n_estimate", -5), ("n_estimate", 100.0),
    ])
    def test_rejects_malformed_sizes_by_name(self, field, value):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ProtocolError, match=f"^{field} must be"):
            EstimateEffectiveDegree(
                net, np.full(4, 0.5), np.ones(4, dtype=bool),
                **{field: value},
            )

    def test_rejects_bad_shapes(self):
        g = graphs.path(4)
        net = RadioNetwork(g)
        with pytest.raises(ValueError):
            EstimateEffectiveDegree(
                net, np.full(3, 0.5), np.ones(4, dtype=bool)
            )


class TestBlockCuts:
    """An EED block is one window, cut by its rows' expected work."""

    SHAPES = {
        "dense": (np.full(80, 1.0), np.ones(80, dtype=bool)),
        "half": (np.full(80, 0.5), np.arange(80) % 2 == 0),
        "mixed": (
            np.array([0.5, 0.25, 0.3, 0.0625])[np.arange(80) % 4],
            np.arange(80) % 5 != 0,
        ),
        "one": (np.full(80, 0.5), np.arange(80) == 7),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_block_is_one_window_cut_by_row_work(self, recorded_cuts, shape):
        g = graphs.random_udg(80, 2.5, np.random.default_rng(3))
        p, active = self.SHAPES[shape]
        net = RadioNetwork(g)
        out = estimate_effective_degree(
            net, p, active, np.random.default_rng(5), C=2
        )
        protocol = EstimateEffectiveDegree(net, p, active, C=2)
        protocol.bind_key(np.random.default_rng(5))
        # One window, cut where its rows' work says.
        assert recorded_cuts == [
            chunk_bounds(
                protocol.total_steps,
                ExecutionPolicy().runner(net).chunk_steps,
                protocol.row_work(),
                chunk_work_target(80),
            )
        ]
        ref = estimate_effective_degree_reference(
            RadioNetwork(g), p, active, np.random.default_rng(5), C=2
        )
        assert out == ref

    def test_rows_above_the_target_run_alone(
        self, monkeypatch, recorded_cuts
    ):
        # On a clique with every p = 1, level 0's rows each exceed a
        # target of 20 entries; from level 3 on several rows share one.
        g = graphs.clique(40)
        monkeypatch.setattr(
            runner_module, "chunk_work_target", lambda n: 20.0 * 40
        )
        net = RadioNetwork(g)
        estimate_effective_degree(
            net, np.full(40, 1.0), np.ones(40, dtype=bool),
            np.random.default_rng(2), C=2,
        )
        (bounds,) = recorded_cuts
        width = EstimateEffectiveDegree(
            net, np.full(40, 1.0), np.ones(40, dtype=bool), C=2
        ).steps_per_level
        assert bounds[: width + 1] == list(range(width + 1))
        assert max(np.diff(bounds)) > 1

    def test_block_without_active_nodes_is_one_chunk(self, recorded_cuts):
        g = graphs.random_udg(50, 2.0, np.random.default_rng(1))
        net = RadioNetwork(g)
        estimate_effective_degree(
            net, np.full(50, 0.5), np.zeros(50, dtype=bool),
            np.random.default_rng(1), C=2,
        )
        assert recorded_cuts == [[0, net.steps_elapsed]]
        assert net.kernel_use == {"skip-empty": net.steps_elapsed}

    @pytest.mark.parametrize(
        "height",
        [lambda width: 1, lambda width: width - 1, lambda width: width + 1],
        ids=["1", "width-1", "width+1"],
    )
    def test_row_caps_cutting_mid_level(self, height):
        # Such caps cut the block's one window in the middle of its
        # levels, and its chunks span levels.
        n = 90
        g = graphs.random_udg(n, 3.0, np.random.default_rng(8))
        p = np.array([0.5, 0.25, 0.125])[np.arange(n) % 3]
        active = np.arange(n) % 7 != 0
        net = RadioNetwork(g)
        probe = EstimateEffectiveDegree(net, p, active, C=3)
        rows = height(probe.steps_per_level)
        runs = []
        for reference in (True, False):
            net = RadioNetwork(g)
            rng = np.random.default_rng(31)
            if reference:
                res = estimate_effective_degree_reference(
                    net, p, active, rng, C=3
                )
            else:
                res = estimate_effective_degree(
                    net, p, active, rng, C=3,
                    policy=ExecutionPolicy(
                        mem_budget=rows * n * STREAM_CELL_BYTES
                    ),
                )
            runs.append((res, net, rng.bit_generator.state))
        (ref, ref_net, ref_state), (out, net, state) = runs
        assert out == ref
        assert state == ref_state
        assert net.steps_elapsed == ref_net.steps_elapsed
        assert net.trace.total_transmissions == (
            ref_net.trace.total_transmissions
        )
        assert net.trace.total_receptions == ref_net.trace.total_receptions
