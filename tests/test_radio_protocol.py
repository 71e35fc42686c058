"""Tests for the step-wise driver and the time multiplexer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio import (
    Protocol,
    ProtocolError,
    SilentProtocol,
    TimeMultiplexer,
    run_steps,
)


class CountdownProtocol(Protocol):
    """Finishes after a fixed number of steps; node 0 transmits always."""

    def __init__(self, network, steps):
        super().__init__(network)
        self.remaining = steps
        self.observed_steps = 0

    def transmit_mask(self, rng):
        mask = np.zeros(self.n, dtype=bool)
        mask[0] = True
        return mask

    def observe(self, hear_from):
        self.observed_steps += 1
        self.remaining -= 1
        if self.remaining <= 0:
            self._finished = True

    def result(self):
        return self.observed_steps


class TestRunProtocol:
    """Driving a protocol to its end: ``run_steps`` with its length."""

    def test_runs_to_completion(self, net_path5, rng):
        protocol = CountdownProtocol(net_path5, steps=7)
        run_steps(protocol, rng, 7)
        assert protocol.finished
        assert protocol.result() == 7

    def test_network_steps_advance(self, net_path5, rng):
        protocol = CountdownProtocol(net_path5, steps=4)
        run_steps(protocol, rng, 4)
        assert net_path5.steps_elapsed == 4

    def test_default_result_raises(self, net_path5):
        assert isinstance(SilentProtocol(net_path5), Protocol)
        with pytest.raises(ProtocolError):
            SilentProtocol(net_path5).result()


class TestRunSteps:
    def test_run_steps_partial(self, net_path5, rng):
        protocol = CountdownProtocol(net_path5, steps=10)
        run_steps(protocol, rng, 3)
        assert protocol.observed_steps == 3
        assert not protocol.finished

    def test_run_steps_stops_at_finish(self, net_path5, rng):
        protocol = CountdownProtocol(net_path5, steps=2)
        run_steps(protocol, rng, 100)
        assert protocol.observed_steps == 2
        assert net_path5.steps_elapsed == 2


class TestTimeMultiplexer:
    def test_main_gets_even_steps(self, net_path5, rng):
        main = CountdownProtocol(net_path5, steps=5)
        background = CountdownProtocol(net_path5, steps=1000)
        muxed = TimeMultiplexer(net_path5, main, background)
        # Main's 5 steps take even slots 0..8; background gets 1..7.
        run_steps(muxed, rng, 9)
        assert main.finished and muxed.finished
        assert main.observed_steps == 5
        assert background.observed_steps == 4

    def test_multiplexer_result_is_mains(self, net_path5, rng):
        main = CountdownProtocol(net_path5, steps=3)
        muxed = TimeMultiplexer(net_path5, main, SilentProtocol(net_path5))
        run_steps(muxed, rng, 5)
        assert muxed.result() == 3

    def test_multiplexer_doubles_step_count(self, net_path5, rng):
        main = CountdownProtocol(net_path5, steps=5)
        muxed = TimeMultiplexer(net_path5, main, SilentProtocol(net_path5))
        run_steps(muxed, rng, 2 * 5)
        # 5 main steps at even slots: the mux finishes after slot 8.
        assert muxed.finished
        assert net_path5.steps_elapsed == 9

    def test_rejects_foreign_network(self, net_path5, net_clique6):
        main = CountdownProtocol(net_path5, steps=1)
        foreign = CountdownProtocol(net_clique6, steps=1)
        with pytest.raises(ProtocolError):
            TimeMultiplexer(net_path5, main, foreign)

    def test_finished_background_stays_silent(self, net_path5, rng):
        main = CountdownProtocol(net_path5, steps=10)
        background = CountdownProtocol(net_path5, steps=1)
        muxed = TimeMultiplexer(net_path5, main, background)
        run_steps(muxed, rng, 2 * 10)
        assert background.observed_steps == 1
        assert main.observed_steps == 10


class TestSilentProtocol:
    def test_never_transmits(self, net_path5, rng):
        protocol = SilentProtocol(net_path5)
        mask = protocol.transmit_mask(rng)
        assert not mask.any()

    def test_never_finishes(self, net_path5, rng):
        protocol = SilentProtocol(net_path5)
        run_steps(protocol, rng, 5)
        assert not protocol.finished
