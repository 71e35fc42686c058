"""Tests for the packet-level Compete (fully simulated pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import (
    PacketCompeteConfig,
    broadcast_packet,
    compete_packet,
)
from repro.engine import ExecutionPolicy, WindowedRunner
from repro.engine.validate import ValidatingRunner
from repro.radio import GraphContractError, RadioNetwork


class TestDelivery:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: graphs.random_udg(50, 3.5, rng),
            lambda rng: graphs.clique_chain(4, 6),
            lambda rng: graphs.path(25),
            lambda rng: graphs.connected_gnp(40, 0.15, rng),
        ],
        ids=["udg", "chain", "path", "gnp"],
    )
    def test_broadcast_delivers(self, maker, rng):
        g = maker(rng)
        net = RadioNetwork(g)
        result = broadcast_packet(net, 0, rng)
        assert result.delivered

    def test_highest_message_wins(self, rng):
        g = graphs.random_udg(40, 3.0, rng)
        net = RadioNetwork(g)
        result = compete_packet(net, {0: 2, 10: 9, 20: 5}, rng)
        assert result.winner == 9
        assert result.delivered

    def test_steps_are_real_simulated_steps(self, rng):
        g = graphs.random_udg(40, 3.0, rng)
        net = RadioNetwork(g)
        result = broadcast_packet(net, 0, rng)
        assert result.steps == net.steps_elapsed
        assert result.steps == sum(result.stage_steps.values())

    def test_stage_breakdown_nonzero(self, rng):
        g = graphs.random_udg(40, 3.0, rng)
        net = RadioNetwork(g)
        result = broadcast_packet(net, 0, rng)
        assert result.stage_steps["mis"] > 0
        assert result.stage_steps["partition"] > 0
        assert result.stage_steps["icp"] > 0

    def test_mis_size_reported(self, rng):
        g = graphs.random_udg(40, 3.0, rng)
        net = RadioNetwork(g)
        result = broadcast_packet(net, 0, rng)
        assert 1 <= result.mis_size <= 40


class TestValidation:
    def test_rejects_disconnected(self, rng):
        import networkx as nx

        net = RadioNetwork(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(GraphContractError):
            compete_packet(net, {0: 1}, rng)

    def test_rejects_empty_sources(self, rng):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ValueError):
            compete_packet(net, {}, rng)

    def test_rejects_negative_keys(self, rng):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ValueError):
            compete_packet(net, {0: -1}, rng)

    def test_rejects_out_of_range_source(self, rng):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ValueError):
            broadcast_packet(net, 7, rng)


class TestConfig:
    def test_alpha_override(self, rng):
        g = graphs.random_udg(40, 3.0, rng)
        net = RadioNetwork(g)
        result = compete_packet(net, {0: 1}, rng, alpha=5)
        assert result.delivered

    def test_more_clusterings_allowed(self, rng):
        g = graphs.path(20)
        net = RadioNetwork(g)
        config = PacketCompeteConfig(clusterings_per_j=3)
        result = compete_packet(net, {0: 1}, rng, config=config)
        assert result.delivered

    def test_deterministic_given_seed(self):
        g = graphs.clique_chain(3, 5)
        runs = []
        for _ in range(2):
            net = RadioNetwork(g)
            r = compete_packet(net, {0: 1}, np.random.default_rng(11))
            runs.append((r.steps, r.phases))
        assert runs[0] == runs[1]


class TestPolicyReachesEveryStage:
    """The caller's policy runs every stage, the partition included."""

    @staticmethod
    def _graph():
        return graphs.random_udg(60, 4.0, np.random.default_rng(1))

    def test_reference_engine_never_enters_the_runner(self, monkeypatch):
        def refuse(self, schedule):
            raise AssertionError("the windowed runner ran a stage")

        monkeypatch.setattr(WindowedRunner, "run", refuse)
        net = RadioNetwork(self._graph())
        result = broadcast_packet(
            net, 0, np.random.default_rng(3),
            policy=ExecutionPolicy(engine="reference"),
        )
        assert result.delivered
        assert result.stage_steps["partition"] > 0

    def test_validation_checks_every_step(self, monkeypatch):
        runners = []
        init = ValidatingRunner.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            runners.append(self)

        monkeypatch.setattr(ValidatingRunner, "__init__", record)
        net = RadioNetwork(self._graph())
        result = broadcast_packet(
            net, 0, np.random.default_rng(3),
            policy=ExecutionPolicy(validate=True),
        )
        assert result.stage_steps["partition"] > 0
        assert sum(r.steps_checked for r in runners) == result.steps
