"""Streaming window execution (PR 4 tentpole).

Four pinned properties:

* **Bit-identity** — streamed execution (any ``chunk_steps``, any
  ``mem_budget``) reproduces the monolithic window path and the
  step-wise references exactly: results, ``steps_elapsed``, trace
  totals, and the final rng state, across the chunk-boundary edge
  cases ``chunk_steps ∈ {1, w, w + 1}`` and the ``w = 0`` window.
* **Memory ceiling** — streamed EstimateEffectiveDegree and Radio MIS
  at ``n = 20000`` stay under their configured byte budget
  (tracemalloc), while the monolithic ``(w, n)`` footprint alone would
  exceed it severalfold.
* **Knob resolution** — explicit ``chunk_steps`` beats ``mem_budget``
  beats the process-wide default; the experiment harness imposes and
  restores the default around trials.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.analysis.experiments import measure_peak
from repro.core.decay import run_decay, run_decay_reference
from repro.core.effective_degree import (
    EstimateEffectiveDegree,
    estimate_effective_degree,
    estimate_effective_degree_reference,
)
from repro.core.mis import MISConfig, compute_mis, compute_mis_reference
from repro.engine import (
    ExecutionPolicy,
    ObliviousWindow,
    StreamedWindow,
    TransmitterPlan,
    WindowedRunner,
    chunk_steps_for_budget,
    resolve_chunk_steps,
)
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.radio import (
    NO_SENDER,
    BudgetExceededError,
    InvalidActionError,
    ProtocolError,
    RadioNetwork,
)


def _assert_trace_equal(a: RadioNetwork, b: RadioNetwork) -> None:
    assert a.steps_elapsed == b.steps_elapsed
    assert a.trace.total_steps == b.trace.total_steps
    assert a.trace.total_transmissions == b.trace.total_transmissions
    assert a.trace.total_receptions == b.trace.total_receptions


def _graph(n: int = 60, seed: int = 0):
    return graphs.random_udg(n, 3.0, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# The runner's chunk loop over transmitter plans.
# ---------------------------------------------------------------------------
def _mask_plan(masks: np.ndarray) -> TransmitterPlan:
    """A transmitter plan whose rows are read off fixed masks."""
    return TransmitterPlan(
        masks.shape[0], lambda start, stop: np.nonzero(masks[start:stop])
    )


def _slab_fold(n: int, slabs: list):
    """A ``consume_coo`` fold that rebuilds each chunk's hear slab."""

    def fold(k, steps, nodes, senders):
        slab = np.full((k, n), NO_SENDER, dtype=np.int64)
        slab[steps, nodes] = senders
        slabs.append(slab)

    return fold


def _stream_slabs(net: RadioNetwork, plan, chunk_steps: int) -> list:
    """Run a transmitter plan (or a mask matrix read off as one) as one
    streamed window through the runner's chunk loop; return the hear
    slabs in step order."""
    if isinstance(plan, np.ndarray):
        plan = _mask_plan(plan)
    slabs: list[np.ndarray] = []

    def schedule():
        yield StreamedWindow(plan, consume_coo=_slab_fold(net.n, slabs))

    WindowedRunner(net, chunk_steps=chunk_steps).run(schedule())
    return slabs


#: Transmit densities per regime (the removed router's mode names):
#: sparse rows, dense rows, and windows mixing both.
_REGIME_DENSITY = {"sparse": 0.05, "dense": 0.5, "auto": [0.05, 0.3, 0.6]}


class TestDeliverWindowChunks:
    @pytest.mark.parametrize("chunk_steps", [1, 5, 21, 22, 1000])
    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_matches_monolithic_window(self, chunk_steps, mode):
        # ``mode`` names the window's density regime.
        g = _graph()
        density = np.resize(_REGIME_DENSITY[mode], 21)[:, None]
        masks = np.random.default_rng(1).random((21, 60)) < density
        mono_net, chunk_net = RadioNetwork(g), RadioNetwork(g)
        mono = mono_net.deliver_window(masks)
        slabs = _stream_slabs(chunk_net, masks, chunk_steps)
        assert (np.vstack(slabs) == mono).all()
        assert all(s.shape[0] <= chunk_steps for s in slabs)
        _assert_trace_equal(mono_net, chunk_net)

    def test_lazy_plan_called_in_order_exactly_once(self):
        g = _graph()
        masks = np.random.default_rng(2).random((10, 60)) < 0.2
        calls = []

        def produce(start, stop):
            calls.append((start, stop))
            return np.nonzero(masks[start:stop])

        net = RadioNetwork(g)
        out = np.vstack(
            _stream_slabs(net, TransmitterPlan(10, produce), 4)
        )
        assert calls == [(0, 4), (4, 8), (8, 10)]
        assert (out == RadioNetwork(g).deliver_window(masks)).all()

    def test_empty_plan_yields_nothing(self):
        net = RadioNetwork(_graph())
        plan = _mask_plan(np.zeros((0, 60), dtype=bool))
        assert _stream_slabs(net, plan, 3) == []
        assert net.steps_elapsed == 0
        assert net.trace.total_steps == 0

    def test_validation(self):
        # The chunk height, a plan's length and its transmitter ids are
        # checked; a materialized window's masks are checked for shape
        # and dtype before any chunk runs.
        net = RadioNetwork(_graph())
        masks = np.zeros((4, 60), dtype=bool)
        with pytest.raises(ProtocolError, match="chunk_steps"):
            _stream_slabs(net, masks, 0)
        negative = TransmitterPlan(-1, lambda s, e: np.nonzero(masks[s:e]))
        with pytest.raises(InvalidActionError, match="negative"):
            _stream_slabs(net, negative, 2)
        stray = TransmitterPlan(
            4,
            lambda s, e: (np.zeros(1, dtype=np.int64), np.full(1, 60)),
        )
        with pytest.raises(ValueError, match="node ids"):
            _stream_slabs(net, stray, 2)
        for bad, match in (
            (np.zeros((4, 60), dtype=np.int64), "boolean"),
            (np.zeros((4, 59), dtype=bool), "shape"),
        ):

            def window():
                yield ObliviousWindow(bad)

            with pytest.raises(InvalidActionError, match=match):
                WindowedRunner(net, chunk_steps=2).run(window())


# ---------------------------------------------------------------------------
# Streamed emitters: bit-identity across chunk boundaries.
# ---------------------------------------------------------------------------
class TestStreamedEmitterEquivalence:
    def _eed_width(self, net, C=3):
        p = np.full(net.n, 0.5)
        active = np.ones(net.n, dtype=bool)
        return EstimateEffectiveDegree(net, p, active, C=C).total_steps

    def chunk_cases(self, w):
        # The satellite's boundary cases: one row per slab, exactly one
        # slab, and a slab wider than the window.
        return [1, 7, w, w + 1]

    def test_decay_streamed_equals_reference_across_chunks(self):
        g = _graph(70, 3)
        active = np.random.default_rng(4).random(70) < 0.4
        active[0] = True
        w = 5 * 7  # iterations * span for n = 70
        ref_net = RadioNetwork(g)
        ref_rng = np.random.default_rng(9)
        ref = run_decay_reference(
            ref_net, active, ref_rng, iterations=5
        )
        assert ref_net.steps_elapsed == w
        for chunk in self.chunk_cases(w):
            net = RadioNetwork(g)
            rng = np.random.default_rng(9)
            res = run_decay(
                net, active, rng, iterations=5,
                policy=ExecutionPolicy(chunk_steps=chunk),
            )
            assert (res.heard == ref.heard).all()
            assert (res.heard_from == ref.heard_from).all()
            _assert_trace_equal(net, ref_net)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_eed_streamed_equals_reference_across_chunks(self):
        g = _graph(60, 5)
        p = np.full(60, 0.5)
        active = np.ones(60, dtype=bool)
        w = self._eed_width(RadioNetwork(g))
        ref_net = RadioNetwork(g)
        ref_rng = np.random.default_rng(11)
        ref = estimate_effective_degree_reference(
            ref_net, p, active, ref_rng, C=3
        )
        for chunk in self.chunk_cases(w):
            net = RadioNetwork(g)
            rng = np.random.default_rng(11)
            res = estimate_effective_degree(
                net, p, active, rng, C=3,
                policy=ExecutionPolicy(chunk_steps=chunk),
            )
            assert (res.counts == ref.counts).all()
            assert (res.high == ref.high).all()
            _assert_trace_equal(net, ref_net)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_eed_mem_budget_equals_reference(self):
        # The budget knob is just another route to a chunk size.
        g = _graph(60, 6)
        p = np.full(60, 0.4)
        active = np.ones(60, dtype=bool)
        ref = estimate_effective_degree_reference(
            RadioNetwork(g), p, active, np.random.default_rng(12), C=3
        )
        res = estimate_effective_degree(
            RadioNetwork(g), p, active, np.random.default_rng(12), C=3,
            # 10-row slabs:
            policy=ExecutionPolicy(mem_budget=10 * STREAM_CELL_BYTES * 60),
        )
        assert (res.counts == ref.counts).all()

    def test_mis_streamed_equals_reference(self):
        g = _graph(50, 7)
        config = MISConfig(eed_C=3, record_golden=False)
        ref_net = RadioNetwork(g)
        ref_rng = np.random.default_rng(21)
        ref = compute_mis_reference(ref_net, ref_rng, config)
        for chunk in (1, 13, None):
            net = RadioNetwork(g)
            rng = np.random.default_rng(21)
            res = compute_mis(
                net, rng, config, policy=ExecutionPolicy(chunk_steps=chunk)
            )
            assert res.mis == ref.mis
            assert res.steps_used == ref.steps_used
            assert res.rounds_used == ref.rounds_used
            _assert_trace_equal(net, ref_net)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_width_block_emits_nothing(self):
        # w = 0: a Decay block of zero iterations executes no steps and
        # leaves the rng untouched on every path.
        g = _graph(40, 8)
        active = np.ones(40, dtype=bool)
        net = RadioNetwork(g)
        rng = np.random.default_rng(3)
        res = run_decay(
            net, active, rng, iterations=0,
            policy=ExecutionPolicy(chunk_steps=1),
        )
        assert not res.heard.any()
        assert net.steps_elapsed == 0
        assert (
            rng.bit_generator.state
            == np.random.default_rng(3).bit_generator.state
        )

    def test_zero_total_streamed_window_direct(self):
        # A StreamedWindow with total_steps = 0 charges and executes
        # nothing; its fold is never called.
        net = RadioNetwork(_graph(40, 8))
        folded = []

        def emit():
            yield StreamedWindow(
                _mask_plan(np.zeros((0, 40), dtype=bool)),
                consume_coo=lambda *triple: folded.append(triple),
            )
            return "ok"

        runner = WindowedRunner(net, max_steps=0, chunk_steps=1)
        assert runner.run(emit()) == "ok"
        assert folded == []
        assert runner.steps_executed == 0
        assert net.steps_elapsed == 0

    def test_wide_materialized_window_streams_slabwise(self):
        # A plain ObliviousWindow wider than the configured bound is
        # executed in slabs into one reply — identical bits and trace.
        g = _graph()
        masks = np.random.default_rng(14).random((40, 60)) < 0.25

        def emit(collected):
            collected["reply"] = yield ObliviousWindow(masks)

        mono_net, stream_net = RadioNetwork(g), RadioNetwork(g)
        a, b = {}, {}
        WindowedRunner(mono_net).run(emit(a))
        WindowedRunner(stream_net, chunk_steps=7).run(emit(b))
        assert (a["reply"] == b["reply"]).all()
        _assert_trace_equal(mono_net, stream_net)


# ---------------------------------------------------------------------------
# Budget accounting on streamed windows.
# ---------------------------------------------------------------------------
class TestStreamedBudget:
    def test_raises_before_offending_chunk(self):
        g = _graph()
        masks = np.random.default_rng(15).random((12, 60)) < 0.2
        folded = []

        def emit():
            yield StreamedWindow(
                _mask_plan(masks), consume_coo=_slab_fold(60, folded)
            )

        net = RadioNetwork(g)
        runner = WindowedRunner(net, max_steps=10, chunk_steps=4)
        with pytest.raises(BudgetExceededError):
            runner.run(emit())
        # Two full chunks executed and folded; the third (rows 8..11)
        # raised before executing.
        assert len(folded) == 2
        assert runner.steps_executed == 8
        assert net.steps_elapsed == 8

    def test_exact_budget_completes(self):
        g = _graph()
        masks = np.random.default_rng(16).random((12, 60)) < 0.2
        net = RadioNetwork(g)
        runner = WindowedRunner(net, max_steps=12, chunk_steps=5)
        folded = []

        def emit():
            yield StreamedWindow(
                _mask_plan(masks), consume_coo=_slab_fold(60, folded)
            )

        runner.run(emit())
        assert runner.steps_executed == net.steps_elapsed == 12
        assert sum(f.shape[0] for f in folded) == 12

    def test_consumerless_stream_rejected_in_generator_form(self):
        net = RadioNetwork(_graph())

        def emit():
            yield StreamedWindow(_mask_plan(np.zeros((2, 60), bool)))

        with pytest.raises(ProtocolError, match="consume"):
            WindowedRunner(net).run(emit())


# ---------------------------------------------------------------------------
# Knob resolution: explicit knobs only.
# ---------------------------------------------------------------------------
class TestKnobResolution:
    def test_chunk_steps_for_budget_model(self):
        n = 1000
        assert chunk_steps_for_budget(n, STREAM_CELL_BYTES * n * 7) == 7
        assert chunk_steps_for_budget(n, 1) == 1  # floored at one row
        assert chunk_steps_for_budget(0, 123) >= 1
        with pytest.raises(ValueError, match="mem_budget"):
            chunk_steps_for_budget(n, 0)

    def test_precedence_explicit_over_budget_over_global(self):
        n = 100
        assert resolve_chunk_steps(n) is None
        assert resolve_chunk_steps(n, chunk_steps=5, mem_budget=1 << 30) == 5
        assert resolve_chunk_steps(
            n, mem_budget=STREAM_CELL_BYTES * n * 3
        ) == 3
        with pytest.raises(ValueError, match="chunk_steps"):
            resolve_chunk_steps(n, chunk_steps=0)

    def test_runner_validates_knobs(self):
        net = RadioNetwork(_graph())
        with pytest.raises(ValueError, match="chunk_steps"):
            WindowedRunner(net, chunk_steps=0)
        with pytest.raises(ValueError, match="mem_budget"):
            WindowedRunner(net, mem_budget=0)


# ---------------------------------------------------------------------------
# The memory ceiling at n = 20000 (the scaling acceptance regression).
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def big_udg():
    n = 20000
    # Average degree ~8: sparse enough that the cost model's slack
    # covers the gather/sparse kernels' degree-sum terms. MIS and EED
    # are defined on disconnected graphs, so one sample suffices.
    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(42), connected=False
    )


class TestMemoryCeiling:
    BUDGET = 64 << 20  # 64 MiB

    def test_streamed_eed_stays_under_budget(self, big_udg):
        n = big_udg.number_of_nodes()
        net = RadioNetwork(big_udg)
        p = np.full(n, 0.5)
        active = np.ones(n, dtype=bool)
        total = EstimateEffectiveDegree(net, p, active, C=8).total_steps
        # The monolithic (w, n) hear-window alone (int64) dwarfs the
        # budget — that is what stalled n >= 10^4 before streaming.
        assert total * n * 8 > 4 * self.BUDGET

        def workload():
            return estimate_effective_degree(
                net, p, active, np.random.default_rng(1), C=8,
                policy=ExecutionPolicy(mem_budget=self.BUDGET),
            )

        result, peak = measure_peak(workload)
        assert result.high.shape == (n,)
        assert peak < self.BUDGET, (
            f"streamed EED peaked at {peak / 2**20:.0f} MiB, over the "
            f"{self.BUDGET >> 20} MiB budget"
        )

    def test_streamed_mis_stays_under_budget(self, big_udg):
        n = big_udg.number_of_nodes()
        net = RadioNetwork(big_udg)
        config = MISConfig(
            round_factor=0.15,
            decay_amplification=0.5,
            eed_C=1,
            record_golden=False,
        )

        def workload():
            return compute_mis(
                net, np.random.default_rng(2), config,
                policy=ExecutionPolicy(mem_budget=self.BUDGET),
            )

        result, peak = measure_peak(workload)
        assert result.steps_used == net.steps_elapsed
        assert peak < self.BUDGET, (
            f"streamed MIS peaked at {peak / 2**20:.0f} MiB, over the "
            f"{self.BUDGET >> 20} MiB budget"
        )
