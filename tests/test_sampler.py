"""The keyed transmitter sampler's contract (:mod:`repro.engine.sampler`).

* **Chunking never changes a row.** A block's transmitter pairs are the
  same whether its rows are drawn in one call, one row at a time, in
  chunks of the ladder width ``w`` or ``w + 1``, or at random split
  points — and end to end, the pairs the runner executes are the same
  at every ``chunk_steps`` with or without a fault schedule installed.
* **Rates are the protocol's.** Empirical per-cell transmit rates fall
  inside 99.9% binomial intervals for the Decay ladder ``2^-i``, for
  EED's ``p(v) 2^-i`` (column factors that are not powers of two go
  through thinning), and for the fault layer's ``tx_prob`` thinning.
* **Degenerate blocks.** An empty member set, a single member and
  probability-0 columns behave exactly like the step-wise references.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from repro.core import (
    estimate_effective_degree,
    estimate_effective_degree_reference,
    run_decay,
    run_decay_reference,
)
from repro.core.decay import decay_block
from repro.core.effective_degree import effective_degree_schedule
from repro.engine.policy import ExecutionPolicy
from repro.engine.runner import WindowedRunner
from repro.engine.sampler import RowSampler, draw_block_key
from repro.engine.streaming import chunk_steps_for_budget
from repro.faults.schedule import FaultSchedule, Jam
from repro.faults.state import FaultState
from repro.radio import RadioNetwork

#: Decay ladder width of the sampler-level blocks.
SPAN = 6


def _ladder(rows: int, span: int = SPAN) -> np.ndarray:
    return 2.0 ** -((np.arange(rows) % span) + 1.0)


def _in_interval(count: int, trials: int, p: float) -> bool:
    lo, hi = stats.binom.interval(0.999, trials, p)
    return lo <= count <= hi


def _draw_in(sampler: RowSampler, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Draw consecutive intervals split at ``bounds``, absolute rows."""
    steps, nodes = [], []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        s, v = sampler.sample(start, stop)
        steps.append(s + start)
        nodes.append(v)
    return np.concatenate(steps), np.concatenate(nodes)


# ---------------------------------------------------------------------------
# Chunking never changes a row
# ---------------------------------------------------------------------------


class TestChunkInvariance:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_any_split_draws_the_same_rows(self, weighted):
        n, rows = 150, 8 * SPAN + 5
        members = np.arange(n) % 4 != 1
        weights = (
            np.array([0.5, 0.3, 0.05, 1.0, 0.0])[np.arange(n) % 5]
            if weighted else None
        )
        whole = _draw_in(
            RowSampler(99, members, _ladder(rows), weights), [0, rows]
        )
        assert whole[0].size > 0
        rng = np.random.default_rng(0)
        splits = {
            "1": range(rows + 1),
            "w": [*range(0, rows, SPAN), rows],
            "w+1": [*range(0, rows, SPAN + 1), rows],
            "random": [0, *np.sort(rng.choice(
                np.arange(1, rows), 9, replace=False
            )), rows],
        }
        for name, bounds in splits.items():
            got = _draw_in(
                RowSampler(99, members, _ladder(rows), weights),
                list(bounds),
            )
            np.testing.assert_array_equal(got[0], whole[0], err_msg=name)
            np.testing.assert_array_equal(got[1], whole[1], err_msg=name)

    def test_rows_are_row_major_and_ascending(self):
        sampler = RowSampler(
            5, np.ones(80, dtype=bool), _ladder(40),
            np.linspace(0.0, 1.0, 80),
        )
        steps, nodes = sampler.sample(0, 40)
        keys = steps * 80 + nodes
        assert np.all(np.diff(keys) > 0)


class _Recorder(WindowedRunner):
    """Records the intended transmitter pairs of every executed chunk
    (global steps), before the fault filter."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def _deliver_coo(self, k, steps, nodes, consume_coo) -> None:
        self.pairs.append((steps + self.network.steps_elapsed, nodes))
        super()._deliver_coo(k, steps, nodes, consume_coo)


#: Every fault kind, with windows that straddle the chunk splits.
_FAULTS = FaultSchedule(
    crashes=((3, 20),),
    joins=((5, 11),),
    sleeps=((7, 4, 30),),
    jams=(Jam(9, 25, (1, 2, 8)),),
    tx_prob=((6, 0.5), (10, 0.25)),
    energy=((12, 3),),
    seed=8,
)


class TestEndToEndChunking:
    @pytest.mark.parametrize("faulted", [False, True])
    def test_executed_pairs_independent_of_chunk_steps(self, faulted):
        g = nx.gnp_random_graph(60, 0.1, seed=4)
        n = g.number_of_nodes()
        active = np.arange(n) % 3 != 0
        p = np.array([0.5, 0.25, 0.1])[np.arange(n) % 3]
        default = chunk_steps_for_budget(n, ExecutionPolicy().mem_budget)
        runs = []
        for chunk in (1, SPAN, SPAN + 1, 17, default):
            net = RadioNetwork(g, faults=_FAULTS if faulted else None)
            rng = np.random.default_rng(3)
            runner = _Recorder(net, chunk)
            decay = runner.run(decay_block(
                net, active, rng, iterations=3
            )).result()
            eed = runner.run(effective_degree_schedule(
                net, p, active, rng, C=2
            ))
            pairs = (
                np.concatenate([s for s, _ in runner.pairs]),
                np.concatenate([v for _, v in runner.pairs]),
            )
            realized = (
                dict(net._fault_state.realized) if faulted else None
            )
            runs.append((pairs, decay, eed, realized, rng.random()))
        (pairs0, decay0, eed0, realized0, probe0) = runs[0]
        assert pairs0[0].size > 0
        for pairs, decay, eed, realized, probe in runs[1:]:
            np.testing.assert_array_equal(pairs[0], pairs0[0])
            np.testing.assert_array_equal(pairs[1], pairs0[1])
            assert decay == decay0 and eed == eed0
            assert realized == realized0 and probe == probe0


# ---------------------------------------------------------------------------
# Rates are the protocol's
# ---------------------------------------------------------------------------


class TestRates:
    def test_decay_ladder_rates(self):
        n, sweeps = 200, 400
        rows = SPAN * sweeps
        steps, _ = RowSampler(
            2024, np.ones(n, dtype=bool), _ladder(rows)
        ).sample(0, rows)
        level = steps % SPAN
        for i in range(SPAN):
            count = int(np.count_nonzero(level == i))
            assert _in_interval(count, sweeps * n, 2.0 ** -(i + 1)), i

    def test_eed_weighted_rates(self):
        # Desire levels that are powers of two and levels that are not
        # (thinned), each over EED's density ladder p(v) 2^-i.
        values = np.array([0.5, 0.3, 0.07, 0.0625, 1.0])
        per_value, levels, steps_per_level = 60, 4, 300
        n = per_value * values.size
        weights = values[np.arange(n) % values.size]
        rows = levels * steps_per_level
        guess = 2.0 ** -(np.arange(rows) // steps_per_level)
        steps, nodes = RowSampler(
            77, np.ones(n, dtype=bool), guess, weights
        ).sample(0, rows)
        level = steps // steps_per_level
        which = nodes % values.size
        for lev in range(levels):
            for k, value in enumerate(values):
                count = int(np.count_nonzero((level == lev) & (which == k)))
                trials = steps_per_level * per_value
                assert _in_interval(count, trials, value * 2.0**-lev), (
                    lev, value
                )

    def test_tx_prob_thinning_rates(self):
        probs = (0.9, 0.5, 0.2, 0.05)
        n, width = 40, 2000
        schedule = FaultSchedule(
            tx_prob=tuple((v, probs[v % 4]) for v in range(n)), seed=13
        )
        state = FaultState(schedule, n)
        steps = np.repeat(np.arange(width), n)
        nodes = np.tile(np.arange(n), width)
        _, kept = state.filter_coo(steps, nodes, 0, width)
        for k, prob in enumerate(probs):
            count = int(np.count_nonzero(kept % 4 == k))
            assert _in_interval(count, width * n // 4, prob), prob


# ---------------------------------------------------------------------------
# Degenerate blocks
# ---------------------------------------------------------------------------


class TestDegenerateBlocks:
    def test_empty_member_set(self):
        g = nx.path_graph(12)
        nets = [RadioNetwork(g) for _ in range(2)]
        rngs = [np.random.default_rng(1) for _ in range(2)]
        none = np.zeros(12, dtype=bool)
        a = run_decay(nets[0], none, rngs[0], iterations=2)
        b = run_decay_reference(nets[1], none, rngs[1], iterations=2)
        assert a == b and not a.heard.any()
        assert nets[0].trace.total_transmissions == 0
        twin = np.random.default_rng(1)
        draw_block_key(twin)
        assert rngs[0].bit_generator.state == twin.bit_generator.state
        assert rngs[1].bit_generator.state == twin.bit_generator.state

    def test_single_member(self):
        g = nx.star_graph(9)
        one = np.zeros(10, dtype=bool)
        one[0] = True
        nets = [RadioNetwork(g) for _ in range(2)]
        rngs = [np.random.default_rng(6) for _ in range(2)]
        a = run_decay(nets[0], one, rngs[0], iterations=40)
        b = run_decay_reference(nets[1], one, rngs[1], iterations=40)
        assert a == b
        assert a.heard[1:].all()  # the hub reaches every leaf
        assert nets[0].trace.total_transmissions == (
            nets[1].trace.total_transmissions
        )
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_probability_zero_columns_never_transmit(self):
        g = nx.cycle_graph(30)
        p = np.where(np.arange(30) % 2 == 0, 0.5, 0.0)
        active = np.ones(30, dtype=bool)
        nets = [RadioNetwork(g) for _ in range(2)]
        rngs = [np.random.default_rng(2) for _ in range(2)]
        runner = _Recorder(
            nets[0], chunk_steps_for_budget(30, ExecutionPolicy().mem_budget)
        )
        a = runner.run(effective_degree_schedule(
            nets[0], p, active, rngs[0], C=2
        ))
        b = estimate_effective_degree_reference(
            nets[1], p, active, rngs[1], C=2
        )
        assert a == b
        nodes = np.concatenate([v for _, v in runner.pairs])
        assert nodes.size and not np.any(nodes % 2)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        # And through the public front door.
        c = estimate_effective_degree(
            RadioNetwork(g), p, active, np.random.default_rng(2), C=2
        )
        assert c == a
