"""Tests for the deterministic round-robin broadcast baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import baselines, graphs
from repro.radio import GraphContractError, RadioNetwork


class TestRoundRobin:
    def test_delivers_on_path(self):
        net = RadioNetwork(graphs.path(20))
        result = baselines.round_robin_broadcast(net, 0)
        assert result.delivered

    def test_delivers_on_udg(self, rng):
        g = graphs.random_udg(50, 3.5, rng)
        net = RadioNetwork(g)
        result = baselines.round_robin_broadcast(net, 0)
        assert result.delivered

    def test_deterministic_step_count(self):
        g = graphs.path(12)
        counts = set()
        for _ in range(3):
            net = RadioNetwork(g)
            counts.add(baselines.round_robin_broadcast(net, 0).steps)
        assert len(counts) == 1  # no randomness anywhere

    def test_steps_are_rotations_times_n(self):
        g = graphs.path(10)
        net = RadioNetwork(g)
        result = baselines.round_robin_broadcast(net, 0)
        assert result.steps == result.rotations * 10

    def test_one_rotation_gains_at_least_one_hop(self):
        # From source 0 on a path labeled 0..n-1, turn order matches hop
        # order, so a single rotation informs everyone — the best case.
        net = RadioNetwork(graphs.path(15))
        result = baselines.round_robin_broadcast(net, 0)
        assert result.rotations == 1

    def test_worst_case_direction(self):
        # From the far end the turn order opposes the hop order: each
        # rotation gains roughly one hop — the Theta(n D) regime.
        n = 15
        net = RadioNetwork(graphs.path(n))
        result = baselines.round_robin_broadcast(net, n - 1)
        assert result.rotations >= n - 2

    def test_rejects_disconnected(self):
        import networkx as nx

        net = RadioNetwork(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(GraphContractError):
            baselines.round_robin_broadcast(net, 0)

    def test_rejects_bad_source(self):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ValueError):
            baselines.round_robin_broadcast(net, 9)

    def test_slower_than_randomized_decay_on_big_path(self, rng):
        g = graphs.path(40)
        net_rr = RadioNetwork(g)
        rr = baselines.round_robin_broadcast(net_rr, 39)
        net_bgi = RadioNetwork(g)
        bgi = baselines.bgi_broadcast(net_bgi, 39, rng)
        assert rr.steps > bgi.steps

    def test_informed_set_follows_the_fault_layer(self):
        # A node that crashes before the message reaches it never hears
        # and never relays it: on a path, everything past it stays
        # uninformed, so the broadcast exhausts its rotation budget.
        from repro.faults import FaultSchedule
        from repro.radio import BudgetExceededError

        net = RadioNetwork(graphs.path(8))
        net.install_faults(FaultSchedule(crashes=((4, 0),)))
        with pytest.raises(BudgetExceededError):
            baselines.round_robin_broadcast(net, 0, max_rotations=3)
        assert net.steps_elapsed == 3 * 8
