"""Tests for the Decay protocol (Algorithm 5 / Claim 10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core.decay import (
    Decay,
    claim10_iterations,
    decay_span,
    run_decay,
)
from repro.radio import NO_SENDER, ProtocolError, RadioNetwork


class TestSpanAndIterations:
    def test_span_grows_logarithmically(self):
        assert decay_span(2) == 1
        assert decay_span(16) == 4
        assert decay_span(17) == 5
        assert decay_span(1024) == 10

    def test_span_minimum_one(self):
        assert decay_span(1) == 1

    def test_span_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decay_span(0)

    def test_claim10_iterations_scale(self):
        assert claim10_iterations(2, amplification=4.0) == 4
        assert claim10_iterations(256, amplification=4.0) == 32
        assert claim10_iterations(256, amplification=1.0) == 8


class TestSingleTransmitter:
    def test_lone_transmitter_always_heard_eventually(self, rng):
        g = graphs.star(10)
        net = RadioNetwork(g)
        active = np.zeros(net.n, dtype=bool)
        hub = net.index_of(0)
        active[hub] = True
        result = run_decay(net, active, rng, iterations=claim10_iterations(10))
        leaves = [net.index_of(v) for v in range(1, 10)]
        assert all(result.heard[v] for v in leaves)
        assert all(result.heard_from[v] == hub for v in leaves)

    def test_messages_delivered(self, rng):
        # The sender's message reaches both neighbors: a block reports
        # who was heard, and what the sender said is its own state,
        # which the caller indexes by heard_from.
        g = graphs.path(3)
        net = RadioNetwork(g)
        sender = net.index_of(1)
        active = np.zeros(3, dtype=bool)
        active[sender] = True
        result = run_decay(net, active, rng, iterations=8)
        assert result.heard_from[net.index_of(0)] == sender
        assert result.heard_from[net.index_of(2)] == sender
        assert result.heard_from[sender] == NO_SENDER

    def test_non_neighbors_hear_nothing(self, rng):
        g = graphs.path(5)
        net = RadioNetwork(g)
        active = np.zeros(5, dtype=bool)
        active[net.index_of(0)] = True
        result = run_decay(net, active, rng, iterations=8)
        assert not result.heard[net.index_of(3)]
        assert result.heard_from[net.index_of(3)] == NO_SENDER


class TestClaim10:
    """Claim 10: O(log n) iterations inform all neighbors of S whp."""

    def test_dense_set_still_heard(self, rng):
        # All leaves of a star transmit; the hub must hear despite heavy
        # contention — the low-probability steps of the sweep resolve it.
        g = graphs.star(33)
        net = RadioNetwork(g)
        active = np.ones(net.n, dtype=bool)
        active[net.index_of(0)] = False
        result = run_decay(
            net, active, rng, iterations=claim10_iterations(33)
        )
        assert result.heard[net.index_of(0)]

    def test_clique_everyone_hears(self, rng):
        g = graphs.clique(32)
        net = RadioNetwork(g)
        active = np.ones(net.n, dtype=bool)
        result = run_decay(
            net, active, rng, iterations=claim10_iterations(32)
        )
        # Every node has all others as neighbors in S; whp all hear at
        # least one clean transmission across the amplified sweeps.
        assert result.heard.mean() > 0.9

    def test_success_rate_improves_with_iterations(self, rng):
        g = graphs.clique(16)
        hits_few, hits_many = 0, 0
        trials = 15
        for _ in range(trials):
            net = RadioNetwork(g)
            active = np.ones(net.n, dtype=bool)
            few = run_decay(net, active, rng, iterations=1)
            hits_few += int(few.heard.all())
            net2 = RadioNetwork(g)
            many = run_decay(net2, active, rng, iterations=12)
            hits_many += int(many.heard.all())
        assert hits_many >= hits_few

    def test_empty_active_set_hears_nothing(self, rng):
        g = graphs.path(4)
        net = RadioNetwork(g)
        result = run_decay(net, np.zeros(4, dtype=bool), rng, iterations=4)
        assert not result.heard.any()


class TestProtocolMechanics:
    def test_total_steps(self, rng):
        g = graphs.path(8)
        net = RadioNetwork(g)
        protocol = Decay(net, np.ones(8, dtype=bool), iterations=3)
        assert protocol.total_steps == 3 * decay_span(8)

    def test_n_estimate_controls_span(self, rng):
        g = graphs.path(4)
        net = RadioNetwork(g)
        protocol = Decay(
            net, np.ones(4, dtype=bool), iterations=1, n_estimate=1024
        )
        assert protocol.total_steps == 10

    def test_rejects_bad_mask_shape(self):
        g = graphs.path(4)
        net = RadioNetwork(g)
        with pytest.raises(ValueError):
            Decay(net, np.ones(3, dtype=bool))

    @pytest.mark.parametrize("field, value", [
        ("iterations", -1), ("iterations", 2.5), ("iterations", True),
        ("iterations", "3"), ("n_estimate", 0), ("n_estimate", -5),
        ("n_estimate", 64.0), ("n_estimate", False),
    ])
    def test_rejects_malformed_sizes_by_name(self, field, value):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ProtocolError, match=f"^{field} must be"):
            Decay(net, np.ones(4, dtype=bool), **{field: value})

    def test_accepts_numpy_integer_sizes(self):
        net = RadioNetwork(graphs.path(4))
        block = Decay(
            net, np.ones(4, dtype=bool), iterations=np.int64(2),
            n_estimate=np.int32(16),
        )
        assert block.total_steps == 2 * decay_span(16)

    def test_transmit_probability_halves_within_sweep(self, rng):
        # Statistical check: step i transmits with probability 2^-i, so
        # over many draws the first step is busiest.
        g = graphs.clique(64)
        net = RadioNetwork(g)
        protocol = Decay(net, np.ones(64, dtype=bool), iterations=1)
        first = protocol.transmit_mask(rng).sum()
        protocol._step = decay_span(64) - 1  # jump to the last sweep step
        last = protocol.transmit_mask(rng).sum()
        assert first > last

    def test_first_heard_message_kept(self, rng):
        # heard_from records the first hearing only; a second hearing does
        # not overwrite it.
        g = graphs.path(3)
        net = RadioNetwork(g)
        active = np.zeros(3, dtype=bool)
        active[net.index_of(1)] = True
        protocol = Decay(net, active, iterations=20)
        middle_heard = []
        from repro.radio import run_steps

        run_steps(protocol, rng, protocol.total_steps)
        result = protocol.result()
        assert result.heard_from[net.index_of(0)] == net.index_of(1)
