"""Tests for EstimateEffectiveDegree (Algorithm 6 / Lemma 11)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core.effective_degree import (
    EstimateEffectiveDegree,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    exact_effective_degree,
)
from repro.engine import ExecutionPolicy
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.radio import RadioNetwork


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

    def test_rejects_bad_shapes(self):
        g = graphs.path(4)
        net = RadioNetwork(g)
        with pytest.raises(ValueError):
            EstimateEffectiveDegree(
                net, np.full(3, 0.5), np.ones(4, dtype=bool)
            )


def _level_sizes(protocol: EstimateEffectiveDegree) -> np.ndarray:
    """Expected product size of every level's rows, computed apart
    from :meth:`EstimateEffectiveDegree.level_groups`."""
    width, n = protocol.steps_per_level, protocol.n
    load = sum(
        protocol.p[v] * (protocol.network.degrees[v] + 1) for v in range(n)
    )
    return np.array([
        min(width * load / 2**i, width * n) for i in range(protocol.levels)
    ])


class TestLevelGroups:
    """The windows of an EED block: consecutive levels share one while
    their expected product stays within the densest level's."""

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
    def test_plan_covers_levels_under_the_cap(self, shape):
        g = graphs.random_udg(80, 2.5, np.random.default_rng(3))
        p, active = self.SHAPES[shape]
        protocol = EstimateEffectiveDegree(RadioNetwork(g), p, active, C=2)
        groups = protocol.level_groups()
        sizes = _level_sizes(protocol)
        cap = sizes.max()
        # Every level once, in order.
        assert [lo for lo, _ in groups] == [0] + [hi for _, hi in groups[:-1]]
        assert groups[-1][1] == protocol.levels
        assert all(lo < hi for lo, hi in groups)
        for index, (lo, hi) in enumerate(groups):
            # No group above the cap, and none that could have taken
            # the next level.
            assert hi - lo == 1 or sizes[lo:hi].sum() <= cap
            if index + 1 < len(groups):
                assert sizes[lo:hi + 1].sum() > cap
        assert groups[0] == (0, 1)

    def test_dense_levels_keep_a_window_each(self):
        # Every level whose expected product fills all width * n cells
        # is as large as the cap by itself.
        g = graphs.clique(40)
        protocol = EstimateEffectiveDegree(
            RadioNetwork(g), np.full(40, 1.0), np.ones(40, dtype=bool), C=2
        )
        full = int(np.count_nonzero(
            _level_sizes(protocol) == protocol.steps_per_level * 40
        ))
        assert full >= 3
        assert protocol.level_groups()[:full] == [
            (i, i + 1) for i in range(full)
        ]

    def test_block_without_active_nodes_is_one_window(self):
        g = graphs.random_udg(50, 2.0, np.random.default_rng(1))
        protocol = EstimateEffectiveDegree(
            RadioNetwork(g), np.full(50, 0.5), np.zeros(50, dtype=bool), C=2
        )
        assert protocol.level_groups() == [(0, protocol.levels)]

    @pytest.mark.parametrize(
        "height",
        [lambda width: 1, lambda width: width - 1, lambda width: width + 1],
        ids=["1", "width-1", "width+1"],
    )
    def test_chunks_splitting_a_group_mid_level(self, height):
        # Such chunks cut the shared window of the sparse tail in the
        # middle of its levels.
        n = 90
        g = graphs.random_udg(n, 3.0, np.random.default_rng(8))
        p = np.array([0.5, 0.25, 0.125])[np.arange(n) % 3]
        active = np.arange(n) % 7 != 0
        net = RadioNetwork(g)
        probe = EstimateEffectiveDegree(net, p, active, C=3)
        assert any(hi - lo > 1 for lo, hi in probe.level_groups())
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
