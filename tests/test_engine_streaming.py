"""Streaming window execution (PR 4 tentpole).

Four pinned properties:

* **Bit-identity** — streamed execution (any chunk height, any
  ``mem_budget``) reproduces sequential ``deliver`` calls and the
  step-wise references exactly: results, ``steps_elapsed``, trace
  totals, and the final rng state, across the chunk-boundary edge
  cases ``chunk_steps ∈ {1, w, w + 1}`` and the ``w = 0`` window.
* **Memory ceiling** — streamed EstimateEffectiveDegree and Radio MIS
  at ``n = 20000`` stay under their configured byte budget
  (tracemalloc), while the monolithic ``(w, n)`` footprint alone would
  exceed it severalfold; one EED block at ``n = 2000``, whose sparse
  levels share windows, stays near its one-window-per-level peak.
* **One knob** — the chunk height is the policy's ``mem_budget``
  through the cost model, and the default budget's height equals the
  pre-budget coin granularity ``max(1, 2**22 // n)`` at every ``n``.
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
    StreamedWindow,
    WindowedRunner,
    chunk_steps_for_budget,
)
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.radio import (
    NO_SENDER,
    InvalidActionError,
    ProtocolError,
    RadioNetwork,
    SilentProtocol,
)


def _assert_trace_equal(a: RadioNetwork, b: RadioNetwork) -> None:
    assert a.steps_elapsed == b.steps_elapsed
    assert a.trace.total_steps == b.trace.total_steps
    assert a.trace.total_transmissions == b.trace.total_transmissions
    assert a.trace.total_receptions == b.trace.total_receptions


def _graph(n: int = 60, seed: int = 0):
    return graphs.random_udg(n, 3.0, np.random.default_rng(seed))


def _rows(k: int, n: int) -> ExecutionPolicy:
    """A policy whose budget buys exactly ``k``-row chunks over ``n``
    nodes."""
    return ExecutionPolicy(mem_budget=k * n * STREAM_CELL_BYTES)


# ---------------------------------------------------------------------------
# The runner's chunk loop over a window's transmitter rows.
# ---------------------------------------------------------------------------
def _mask_rows(masks: np.ndarray):
    """``(total_steps, transmitters)`` of a window whose rows are read
    off fixed masks."""
    return masks.shape[0], lambda start, stop: np.nonzero(masks[start:stop])


def _slab_fold(n: int, slabs: list):
    """A ``consume_coo`` fold that rebuilds each chunk's hear slab."""

    def fold(k, steps, nodes, senders):
        slab = np.full((k, n), NO_SENDER, dtype=np.int64)
        slab[steps, nodes] = senders
        slabs.append(slab)

    return fold


def _stream_slabs(net: RadioNetwork, rows, chunk_steps: int) -> list:
    """Run ``rows`` — ``(total_steps, transmitters)``, or a mask matrix
    read off as such — as one window through the runner's chunk loop;
    return the hear slabs in step order."""
    if isinstance(rows, np.ndarray):
        rows = _mask_rows(rows)
    slabs: list[np.ndarray] = []
    WindowedRunner(net, chunk_steps).run(
        StreamedWindow(*rows, _slab_fold(net.n, slabs))
    )
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
        mono = np.stack([mono_net.deliver(m) for m in masks])
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
        out = np.vstack(_stream_slabs(net, (10, produce), 4))
        assert calls == [(0, 4), (4, 8), (8, 10)]
        step_net = RadioNetwork(g)
        assert (out == np.stack([step_net.deliver(m) for m in masks])).all()

    def test_empty_plan_yields_nothing(self):
        net = RadioNetwork(_graph())
        assert _stream_slabs(net, np.zeros((0, 60), dtype=bool), 3) == []
        assert net.steps_elapsed == 0
        assert net.trace.total_steps == 0

    def test_validation(self):
        # The chunk height, a window's length and its transmitter ids
        # are checked; a protocol step's mask is checked for shape and
        # dtype before it runs.
        net = RadioNetwork(_graph())
        masks = np.zeros((4, 60), dtype=bool)
        with pytest.raises(ProtocolError, match="chunk_steps"):
            _stream_slabs(net, masks, 0)
        negative = (-1, lambda s, e: np.nonzero(masks[s:e]))
        with pytest.raises(InvalidActionError, match="negative"):
            _stream_slabs(net, negative, 2)
        stray = (
            4,
            lambda s, e: (np.zeros(1, dtype=np.int64), np.full(1, 60)),
        )
        with pytest.raises(ValueError, match="node ids"):
            _stream_slabs(net, stray, 2)
        for bad, match in (
            (np.zeros(60, dtype=np.int64), "boolean"),
            (np.zeros(59, dtype=bool), "shape"),
        ):

            class Malformed(SilentProtocol):
                def transmit_mask(self, rng):
                    return bad

            with pytest.raises(InvalidActionError, match=match):
                WindowedRunner(net, 2).run_steps(
                    Malformed(net), np.random.default_rng(0), steps=1
                )
        assert net.steps_elapsed == 0


# ---------------------------------------------------------------------------
# Streamed blocks: bit-identity across chunk boundaries.
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
                policy=_rows(chunk, 70),
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
                policy=_rows(chunk, 60),
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
        for policy in (_rows(1, 50), _rows(13, 50), ExecutionPolicy()):
            net = RadioNetwork(g)
            rng = np.random.default_rng(21)
            res = compute_mis(net, rng, config, policy=policy)
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
            policy=_rows(1, 40),
        )
        assert not res.heard.any()
        assert net.steps_elapsed == 0
        assert (
            rng.bit_generator.state
            == np.random.default_rng(3).bit_generator.state
        )

    def test_zero_total_streamed_window_direct(self):
        # A StreamedWindow with total_steps = 0 executes nothing; its
        # fold is never called.
        net = RadioNetwork(_graph(40, 8))
        folded = []
        WindowedRunner(net, 1).run(
            StreamedWindow(
                *_mask_rows(np.zeros((0, 40), dtype=bool)),
                lambda *triple: folded.append(triple),
            )
        )
        assert folded == []
        assert net.steps_elapsed == 0

    def test_wide_materialized_window_streams_slabwise(self, mask_window):
        # A mask window taller than the chunk height is executed in
        # slabs into one reply — identical bits and trace.
        g = _graph()
        masks = np.random.default_rng(14).random((40, 60)) < 0.25

        mono_net, stream_net = RadioNetwork(g), RadioNetwork(g)
        mono, a = mask_window(masks)
        streamed, b = mask_window(masks)
        WindowedRunner(mono_net, 40).run(mono)
        WindowedRunner(stream_net, 7).run(streamed)
        assert (a == b).all()
        _assert_trace_equal(mono_net, stream_net)


# ---------------------------------------------------------------------------
# A window's fold is part of the window.
# ---------------------------------------------------------------------------
class TestStreamedBudget:
    def test_consumerless_stream_rejected_in_generator_form(self):
        # A window without a fold fails when it is built, before the
        # runner sees it.
        with pytest.raises(TypeError, match="consume_coo"):
            StreamedWindow(*_mask_rows(np.zeros((2, 60), bool)))


# ---------------------------------------------------------------------------
# Knob resolution: one budget, one default, no process-wide setting.
# ---------------------------------------------------------------------------
class TestKnobResolution:
    def test_chunk_steps_for_budget_model(self):
        n = 1000
        assert chunk_steps_for_budget(n, STREAM_CELL_BYTES * n * 7) == 7
        assert chunk_steps_for_budget(n, 1) == 1  # floored at one row
        assert chunk_steps_for_budget(0, 123) >= 1
        with pytest.raises(ValueError, match="mem_budget"):
            chunk_steps_for_budget(n, 0)

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 2000, 4097, 10**5, 10**6, 2**22, 2**22 + 1]
    )
    def test_default_budget_height_is_the_coin_granularity(self, n):
        # The default budget reproduces the height unset policies ran
        # streamed plans at before the budget had a default.
        default = ExecutionPolicy().mem_budget
        assert chunk_steps_for_budget(n, default) == max(1, 2**22 // n)

    def test_precedence_explicit_over_budget_over_global(self):
        # With one streaming knob the only precedence left is an
        # explicit budget over the policy's default one; no
        # process-wide setting exists to fall back to.
        net = RadioNetwork(_graph())
        assert _rows(3, net.n).runner(net).chunk_steps == 3
        default = ExecutionPolicy()
        assert default.runner(net).chunk_steps == 2**22 // net.n
        assert default.runner(net).chunk_steps == chunk_steps_for_budget(
            net.n, default.mem_budget
        )

    def test_runner_validates_knobs(self):
        net = RadioNetwork(_graph())
        for bad in (0, -3, 2.0, True, None):
            with pytest.raises(ValueError, match="chunk_steps"):
                WindowedRunner(net, bad)
        with pytest.raises(ValueError, match="mem_budget"):
            ExecutionPolicy(mem_budget=0)


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


# ---------------------------------------------------------------------------
# One EED block at n = 2000: level groups stay within the densest level.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def udg_2k():
    n = 2000
    # Average degree ~9, the perfbench MIS workload's density.
    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(5), connected=False
    )


class TestEEDBlockCeiling:
    """The tracemalloc peak of one EED block at ``n = 2000`` under the
    default budget, for three desire-level shapes. The block's sparse
    levels share windows whose expected product stays within the
    densest level's, so its peak stays near the one-window-per-level
    peak. Each ceiling is that peak, measured before levels shared
    windows (21.0, 14.3 and 5.4 MiB), plus 25%. Never raise one."""

    CEILING_MIB = {"all": 26.3, "half": 17.9, "tenth": 6.8}

    @staticmethod
    def _shape(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.arange(n)
        if name == "all":
            return np.full(n, 0.5), np.ones(n, dtype=bool)
        if name == "half":
            return np.full(n, 0.5), nodes % 2 == 0
        p = np.array([0.5, 0.25, 0.125, 0.0625, 0.3])[(nodes // 10) % 5]
        return p, nodes % 10 == 3

    @pytest.mark.parametrize("shape", sorted(CEILING_MIB))
    def test_block_peak(self, udg_2k, shape):
        n = udg_2k.number_of_nodes()
        p, active = self._shape(shape, n)
        net = RadioNetwork(udg_2k)

        def workload():
            return estimate_effective_degree(
                net, p, active, np.random.default_rng(1),
                policy=ExecutionPolicy(),
            )

        result, peak = measure_peak(workload)
        assert result.high.shape == (n,)
        assert peak < self.CEILING_MIB[shape] * 2**20, (
            f"EED block ({shape}) peaked at {peak / 2**20:.1f} MiB, over "
            f"its {self.CEILING_MIB[shape]} MiB ceiling"
        )
