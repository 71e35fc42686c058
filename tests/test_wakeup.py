"""Tests for the single-hop wake-up problem and its MIS reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    decay_schedule,
    expected_steps,
    mis_as_wakeup_strategy,
    run_wakeup,
    uniform_schedule,
)


class TestSchedules:
    def test_decay_schedule_cycles(self):
        schedule = decay_schedule(16)
        # span = 4: probabilities 1/2, 1/4, 1/8, 1/16, then repeat.
        assert schedule(0) == 0.5
        assert schedule(3) == 2.0**-4
        assert schedule(4) == 0.5

    def test_uniform_schedule_constant(self):
        schedule = uniform_schedule(0.125)
        assert schedule(0) == schedule(99) == 0.125

    def test_uniform_schedule_validates(self):
        with pytest.raises(ValueError):
            uniform_schedule(0.0)
        with pytest.raises(ValueError):
            uniform_schedule(1.5)


class TestWakeupGame:
    def test_single_active_node_wins_quickly(self, rng):
        # k=1: success the first time the lone node transmits.
        result = run_wakeup(1, decay_schedule(64), rng)
        assert result.succeeded
        assert result.steps <= 64

    def test_decay_succeeds_across_k_range(self, rng):
        for k in (1, 4, 16, 64, 256):
            result = run_wakeup(k, decay_schedule(256), rng, max_steps=2000)
            assert result.succeeded, f"decay failed at k={k}"

    def test_mistuned_uniform_struggles(self, rng):
        # p tuned for k=2 but k=256 active: collision probability stays
        # near 1, so the mistuned strategy should do much worse than
        # decay on average.
        k = 256
        uniform = expected_steps(
            k, uniform_schedule(0.5), rng, trials=10, max_steps=3000
        )
        decay = expected_steps(
            k, decay_schedule(256), rng, trials=10, max_steps=3000
        )
        assert decay < uniform

    def test_tuned_uniform_is_fast(self, rng):
        k = 64
        tuned = expected_steps(
            k, uniform_schedule(1.0 / k), rng, trials=20
        )
        assert tuned <= 20  # ~e steps in expectation

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ValueError):
            run_wakeup(0, decay_schedule(8), rng)

    def test_failure_reported_not_raised(self, rng):
        # An impossible schedule (always transmit, k >= 2) never succeeds.
        result = run_wakeup(4, uniform_schedule(1.0), rng, max_steps=50)
        assert not result.succeeded
        assert result.steps == 50


class TestMISReduction:
    def test_mis_produces_successful_transmission(self, rng):
        # The paper's reduction: Algorithm 7 run on a k-clique (believing
        # n) must produce a clean transmission — whp within its budget.
        for k in (2, 8, 32):
            result = mis_as_wakeup_strategy(n=256, k=k, rng=rng)
            assert result.succeeded, f"MIS wake-up failed at k={k}"

    def test_steps_scale_with_log_budget(self, rng):
        # The first success should land well inside O(log^2 n) steps.
        n = 256
        result = mis_as_wakeup_strategy(n=n, k=16, rng=rng)
        assert result.steps <= 40 * math.log2(n) ** 2

    def test_k_equals_one(self, rng):
        result = mis_as_wakeup_strategy(n=64, k=1, rng=rng)
        assert result.succeeded

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_cliques_always_succeed(self, k):
        # The clique's effective degree (k - 1) p is Low for k <= 2 at
        # p = 1/2, so a failed round must raise p back toward 1/2;
        # halving it would starve the smallest cliques of marked nodes.
        failed = [
            seed
            for seed in range(200)
            if not mis_as_wakeup_strategy(
                n=64, k=k, rng=np.random.default_rng(seed)
            ).succeeded
        ]
        assert failed == []

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ValueError):
            mis_as_wakeup_strategy(n=8, k=0, rng=rng)
        with pytest.raises(ValueError):
            mis_as_wakeup_strategy(n=8, k=9, rng=rng)
