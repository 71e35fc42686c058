"""The window-multiplexing combinator (PR 3 tentpole).

``multiplex`` zips two plan/commit streams into joint oblivious
windows. Everything here is pinned against step-wise references:

* the fused ICP path (slot passes x Decay background) against both the
  ``TimeMultiplexer`` reference and the decision-point engine path,
  bit-for-bit across the graph-family matrix — knowledge, step counts,
  trace totals (per phase), and the post-run rng stream;
* generalized slot patterns (``(0, 1, 1)``) against an in-test
  step-wise pattern driver;
* termination semantics: the joint stream ends before the first row
  that would follow the main stream's last one (the reference drivers'
  per-step ``finished`` check), backgrounds that end first fall silent;
* the documented prohibitions: ``TracePhase`` inside a multiplexed
  sub-stream raises ``ProtocolError`` (previously only a docstring
  promise), as does a main stream without an exact remaining-step
  count.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.core import build_schedule, partition
from repro.core.intra_cluster import (
    DecayBackground,
    DecayBackgroundSource,
    ICPProtocol,
    intra_cluster_propagation,
)
from repro.engine import (
    DecisionStep,
    ExecutionPolicy,
    ObliviousWindow,
    ProtocolSegmentSource,
    ScheduleSegmentAdapter,
    SegmentProtocol,
    TracePhase,
    WindowedRunner,
    multiplex,
    run_schedule,
)
from repro.graphs import greedy_independent_set
from repro.radio import (
    NO_SENDER,
    ProtocolError,
    Protocol,
    RadioNetwork,
    run_steps,
)


def _family_graph(kind: int, seed: int) -> nx.Graph:
    rng = np.random.default_rng(1000 + seed)
    if kind == 0:
        return graphs.random_udg(70, 3.0, rng)
    if kind == 1:
        return nx.convert_node_labels_to_integers(
            graphs.random_qudg(60, 3.0, rng)
        )
    if kind == 2:
        return nx.convert_node_labels_to_integers(
            graphs.star_of_cliques(5, 6)
        )
    if kind == 3:
        return graphs.path(45)
    return graphs.connected_gnp(50, 0.1, np.random.default_rng(1000 + seed))


def _assert_trace_equal(a: RadioNetwork, b: RadioNetwork) -> None:
    assert a.steps_elapsed == b.steps_elapsed
    assert a.trace.total_steps == b.trace.total_steps
    assert a.trace.total_transmissions == b.trace.total_transmissions
    assert a.trace.total_receptions == b.trace.total_receptions
    assert {
        k: (s.steps, s.transmissions, s.receptions)
        for k, s in a.trace.phase_stats().items()
    } == {
        k: (s.steps, s.transmissions, s.receptions)
        for k, s in b.trace.phase_stats().items()
    }


def _icp_setup(kind: int, seed: int):
    g = nx.convert_node_labels_to_integers(_family_graph(kind, seed))
    setup = np.random.default_rng(11 + seed)
    mis = sorted(greedy_independent_set(g, setup, "random"))
    clustering = partition(g, 0.3, mis, setup)
    schedule = build_schedule(g, clustering)
    know = np.full(g.number_of_nodes(), -1, dtype=np.int64)
    know[0] = 9
    if g.number_of_nodes() > 5:
        know[5] = 4
    return g, clustering, schedule, know


class TestFusedICPEquivalence:
    """Acceptance: fused ICP bit-identical to the time-multiplexed
    reference on shared seeds across the equivalence matrix."""

    @pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("ell", [2, 4])
    def test_matrix(self, kind, ell):
        g, clustering, schedule, know = _icp_setup(kind, 60 + kind)
        results = {}
        for engine in ("reference", "windowed", "fused"):
            net = RadioNetwork(g)
            rng = np.random.default_rng(12 + kind)
            res = intra_cluster_propagation(
                net, clustering, schedule, know, ell, rng,
                with_background=True,
                policy=ExecutionPolicy(engine=engine),
            )
            results[engine] = (res, net, rng)

        ref, net_ref, rng_ref = results["reference"]
        for engine in ("windowed", "fused"):
            res, net, rng = results[engine]
            assert (res.knowledge == ref.knowledge).all()
            assert res.steps == ref.steps
            _assert_trace_equal(net, net_ref)
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("delivery", ["auto", "sparse", "dense"])
    def test_delivery_modes_identical(self, delivery):
        # ``delivery`` names the transmitter-density regime the removed
        # router told apart: two informed nodes (sparse), every node
        # informed (dense), half of them (auto, a mix). The fused
        # windows' product matches the reference in each.
        g, clustering, schedule, know = _icp_setup(0, 7)
        know = know.copy()
        if delivery == "dense":
            know[:] = 3
        elif delivery == "auto":
            know[::2] = 3
        net = RadioNetwork(g)
        res = intra_cluster_propagation(
            net, clustering, schedule, know, 3,
            np.random.default_rng(5),
            policy=ExecutionPolicy(engine="fused"),
        )
        net_ref = RadioNetwork(g)
        ref = intra_cluster_propagation(
            net_ref, clustering, schedule, know, 3,
            np.random.default_rng(5),
            policy=ExecutionPolicy(engine="reference"),
        )
        assert (res.knowledge == ref.knowledge).all()
        assert res.steps == ref.steps
        _assert_trace_equal(net, net_ref)

    def test_fused_without_background_matches_reference(self):
        g, clustering, schedule, know = _icp_setup(0, 8)
        a = intra_cluster_propagation(
            RadioNetwork(g), clustering, schedule, know, 3,
            np.random.default_rng(6), with_background=False,
            policy=ExecutionPolicy(engine="fused"),
        )
        b = intra_cluster_propagation(
            RadioNetwork(g), clustering, schedule, know, 3,
            np.random.default_rng(6), with_background=False,
            policy=ExecutionPolicy(engine="reference"),
        )
        assert (a.knowledge == b.knowledge).all()
        assert a.steps == b.steps


# ---------------------------------------------------------------------------
# Synthetic protocols for pattern and termination tests.
# ---------------------------------------------------------------------------
class _RotorProtocol(Protocol):
    """Deterministic-length adaptive protocol: one transmitter per step,
    rotated by the number of successful receptions observed so far (so
    any causal slippage in the combinator changes its masks)."""

    def __init__(self, network: RadioNetwork, length: int) -> None:
        super().__init__(network)
        self.length = length
        self.rotor = 0
        self.heard_total = 0
        self._step = 0
        self._finished = length == 0

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[(self._step + self.rotor) % self.n] = True
        return mask

    def observe(self, hear_from: np.ndarray) -> None:
        got = int((hear_from != NO_SENDER).sum())
        self.heard_total += got
        self.rotor = (self.rotor + got) % self.n
        self._step += 1
        if self._step >= self.length:
            self._finished = True

    def result(self):
        return (self.rotor, self.heard_total)


class _BeepProtocol(Protocol):
    """Finishing background: transmits node ``step % n`` for ``length``
    steps, then stays finished (its multiplexed slots fall silent)."""

    def __init__(self, network: RadioNetwork, length: int) -> None:
        super().__init__(network)
        self.length = length
        self._step = 0
        self.heard = 0
        self._finished = length == 0

    def transmit_mask(self, rng: np.random.Generator) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self._step % self.n] = True
        return mask

    def observe(self, hear_from: np.ndarray) -> None:
        self.heard += int((hear_from != NO_SENDER).sum())
        self._step += 1
        if self._step >= self.length:
            self._finished = True

    def result(self):
        return self.heard


def _run_pattern_reference(
    network: RadioNetwork,
    protocols: list[Protocol],
    pattern: tuple[int, ...],
    rng: np.random.Generator,
) -> int:
    """Generalized step-wise time multiplexing: the executable
    specification ``multiplex`` is checked against for arbitrary slot
    patterns. Stops (like ``run_steps`` over ``TimeMultiplexer``)
    before the first step at which the main protocol is finished."""
    steps = 0
    pos = 0
    while not protocols[0].finished:
        active = protocols[pattern[pos % len(pattern)]]
        if active.finished:
            network.deliver(np.zeros(network.n, dtype=bool))
        else:
            hear = network.deliver(active.transmit_mask(rng))
            active.observe(hear)
        steps += 1
        pos += 1
    return steps


class TestMuxPatterns:
    @pytest.mark.parametrize("pattern", [(0, 1), (0, 1, 1), (0, 0, 1)])
    def test_pattern_matches_stepwise_reference(self, pattern):
        g, clustering, schedule, know_a = _icp_setup(0, 21)
        know_b = know_a.copy()
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)

        main_a = ICPProtocol(net_a, schedule, know_a, 3)
        bg_a = DecayBackground(net_a, clustering, know_a)
        total = sum(len(p.slots) for p in main_a._passes)
        result = run_schedule(
            net_a,
            multiplex(
                ProtocolSegmentSource(main_a, steps=total),
                DecayBackgroundSource(bg_a),
                slots=pattern,
                rng=rng_a,
            ),
        )

        main_b = ICPProtocol(net_b, schedule, know_b, 3)
        bg_b = DecayBackground(net_b, clustering, know_b)
        _run_pattern_reference(net_b, [main_b, bg_b], pattern, rng_b)

        assert (know_a == know_b).all()
        assert (result == know_a).all()
        _assert_trace_equal(net_a, net_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("pattern", [(0, 1, 2), (0, 2, 1, 1), None])
    @pytest.mark.parametrize("stream", [False, True])
    def test_three_streams_match_stepwise_reference(self, pattern, stream):
        # k-way generalization: main slot passes + the Decay background
        # + a second background, zipped under a 3-stream pattern,
        # pinned against the generalized time-multiplexed reference
        # driver on shared seeds (knowledge, steps, trace, rng stream).
        # `None` exercises the default round-robin pattern; `stream`
        # runs the same zip with streamed joint windows.
        g, clustering, schedule, know_a = _icp_setup(0, 23)
        know_b = know_a.copy()
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)

        main_a = ICPProtocol(net_a, schedule, know_a, 3)
        bg_a = DecayBackground(net_a, clustering, know_a)
        beep_a = _BeepProtocol(net_a, 25)
        total = sum(len(p.slots) for p in main_a._passes)
        result = run_schedule(
            net_a,
            multiplex(
                ProtocolSegmentSource(main_a, steps=total),
                DecayBackgroundSource(bg_a),
                ProtocolSegmentSource(beep_a, steps=25),
                slots=pattern,
                rng=rng_a,
                stream=stream,
            ),
        )

        main_b = ICPProtocol(net_b, schedule, know_b, 3)
        bg_b = DecayBackground(net_b, clustering, know_b)
        beep_b = _BeepProtocol(net_b, 25)
        _run_pattern_reference(
            net_b,
            [main_b, bg_b, beep_b],
            pattern or (0, 1, 2),
            rng_b,
        )

        assert (know_a == know_b).all()
        assert (result == know_a).all()
        assert beep_a.heard == beep_b.heard
        _assert_trace_equal(net_a, net_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_finished_background_falls_silent(self):
        g = graphs.path(12)
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)

        main_a = _RotorProtocol(net_a, 40)
        bg_a = _BeepProtocol(net_a, 7)
        result = run_schedule(
            net_a,
            multiplex(
                ProtocolSegmentSource(main_a, steps=40),
                ProtocolSegmentSource(bg_a, steps=7),
                rng=rng_a,
            ),
        )

        main_b = _RotorProtocol(net_b, 40)
        bg_b = _BeepProtocol(net_b, 7)
        steps = _run_pattern_reference(net_b, [main_b, bg_b], (0, 1), rng_b)

        assert result == main_b.result()
        assert bg_a.heard == bg_b.heard
        assert net_a.steps_elapsed == steps == 79  # 2 * 40 - 1
        _assert_trace_equal(net_a, net_b)

    def test_stops_before_row_after_mains_last(self):
        # The reference drivers re-check main.finished before every
        # step; the joint stream must not execute the background row
        # that would follow main's final step.
        g = graphs.path(9)
        net = RadioNetwork(g)
        main = _RotorProtocol(net, 5)
        bg = _BeepProtocol(net, 1000)
        run_schedule(
            net,
            multiplex(
                ProtocolSegmentSource(main, steps=5),
                ProtocolSegmentSource(bg, steps=1000),
                rng=np.random.default_rng(0),
            ),
        )
        assert net.steps_elapsed == 9  # 2 * 5 - 1, not 10

    def test_max_steps_stops_mid_block(self):
        g, clustering, schedule, know_a = _icp_setup(0, 22)
        know_b = know_a.copy()
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        cap = 37  # deliberately inside a background sweep

        main_a = ICPProtocol(net_a, schedule, know_a, 3)
        total = sum(len(p.slots) for p in main_a._passes)
        run_schedule(
            net_a,
            multiplex(
                ProtocolSegmentSource(main_a, steps=total),
                DecayBackgroundSource(
                    DecayBackground(net_a, clustering, know_a)
                ),
                rng=rng_a,
                max_steps=cap,
            ),
        )

        main_b = ICPProtocol(net_b, schedule, know_b, 3)
        bg_b = DecayBackground(net_b, clustering, know_b)
        from repro.radio.protocol import TimeMultiplexer

        run_steps(TimeMultiplexer(net_b, main_b, bg_b), rng_b, cap)

        assert net_a.steps_elapsed == net_b.steps_elapsed == cap
        assert (know_a == know_b).all()
        _assert_trace_equal(net_a, net_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ---------------------------------------------------------------------------
# Prohibitions and contract errors.
# ---------------------------------------------------------------------------
class _TracePhaseSource(SegmentProtocol):
    def __init__(self, n: int) -> None:
        super().__init__(n)

    def plan(self, rng):
        return TracePhase("sneaky")

    def commit(self, reply):
        pass

    def steps_remaining(self):
        return 5


class TestMuxProhibitions:
    def _main(self, net, steps=6):
        return ProtocolSegmentSource(_RotorProtocol(net, steps), steps=steps)

    def test_trace_phase_in_background_raises(self):
        # Regression for the docstring-only promise in engine/segments:
        # TracePhase is not allowed inside multiplexed sub-schedules.
        net = RadioNetwork(graphs.path(6))

        def schedule():
            yield TracePhase("inner")
            yield ObliviousWindow(np.zeros((2, 6), dtype=bool))

        mux = multiplex(
            self._main(net),
            ScheduleSegmentAdapter(schedule(), 6),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ProtocolError, match="TracePhase"):
            run_schedule(net, mux)

    def test_trace_phase_in_main_raises(self):
        net = RadioNetwork(graphs.path(6))
        mux = multiplex(
            _TracePhaseSource(6),
            self._main(net),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ProtocolError, match="TracePhase"):
            run_schedule(net, mux)

    def test_main_without_exact_remaining_rejected(self):
        net = RadioNetwork(graphs.path(6))

        def schedule():
            yield ObliviousWindow(np.zeros((2, 6), dtype=bool))

        with pytest.raises(ProtocolError, match="steps_remaining"):
            multiplex(
                ScheduleSegmentAdapter(schedule(), 6),
                self._main(net),
                rng=np.random.default_rng(0),
            )

    def test_refusal_names_the_offending_source(self):
        # The refusal must name the offending source's type, so the
        # error is actionable from any entry point (CLI --fused, packet
        # Compete, a direct call) without a traceback spelunk.
        net = RadioNetwork(graphs.path(6))

        def schedule():
            yield ObliviousWindow(np.zeros((2, 6), dtype=bool))

        with pytest.raises(ProtocolError, match="ScheduleSegmentAdapter"):
            multiplex(
                ScheduleSegmentAdapter(schedule(), 6),
                self._main(net),
                rng=np.random.default_rng(0),
            )
        # ProtocolSegmentSource without an exact step bound is the
        # other common way to hit it.
        bare = ProtocolSegmentSource(_RotorProtocol(net, 4))
        with pytest.raises(ProtocolError, match="ProtocolSegmentSource"):
            multiplex(bare, self._main(net), rng=np.random.default_rng(0))

    def test_needs_a_background(self):
        net = RadioNetwork(graphs.path(6))
        with pytest.raises(ProtocolError, match="background"):
            multiplex(self._main(net), rng=np.random.default_rng(0))

    def test_streamed_window_in_substream_rejected(self):
        from repro.engine import StreamedWindow
        from repro.radio import TransmitPlan

        net = RadioNetwork(graphs.path(6))

        class _Streamy(SegmentProtocol):
            def plan(self, rng):
                return StreamedWindow(
                    TransmitPlan(
                        2, lambda s, e: np.zeros((e - s, 6), dtype=bool)
                    )
                )

            def commit(self, reply):
                pass

        mux = multiplex(
            self._main(net), _Streamy(6), rng=np.random.default_rng(0)
        )
        with pytest.raises(ProtocolError, match="StreamedWindow"):
            run_schedule(net, mux)

    def test_slot_pattern_validation(self):
        net = RadioNetwork(graphs.path(6))
        with pytest.raises(ProtocolError, match="slots"):
            multiplex(
                self._main(net), self._main(net),
                slots=(), rng=np.random.default_rng(0),
            )
        with pytest.raises(ProtocolError, match="slots"):
            multiplex(
                self._main(net), self._main(net),
                slots=(0, 2), rng=np.random.default_rng(0),
            )
        with pytest.raises(ProtocolError, match="main"):
            multiplex(
                self._main(net), self._main(net),
                slots=(1, 1), rng=np.random.default_rng(0),
            )

    def test_stream_size_mismatch_rejected(self):
        net6 = RadioNetwork(graphs.path(6))
        net7 = RadioNetwork(graphs.path(7))
        with pytest.raises(ProtocolError, match="sizes"):
            multiplex(
                self._main(net6),
                ProtocolSegmentSource(_BeepProtocol(net7, 3), steps=3),
                rng=np.random.default_rng(0),
            )

    def test_decision_step_accepted_as_width_one(self):
        # A sub-stream planning DecisionSteps is legal: each becomes a
        # width-1 row of the joint window, and its commit reply keeps
        # the 1-D hear-vector shape every other driver delivers for a
        # DecisionStep.
        net = RadioNetwork(graphs.path(6))

        class DecisionSource(SegmentProtocol):
            def __init__(self):
                super().__init__(6)
                self.left = 4

            def plan(self, rng):
                if not self.left:
                    return None
                self.left -= 1
                mask = np.zeros(6, dtype=bool)
                mask[self.left] = True
                return DecisionStep(mask)

            def commit(self, reply):
                assert reply.shape == (6,)

            def steps_remaining(self):
                return self.left

            def result(self):
                return "done"

        result = run_schedule(
            net,
            multiplex(
                DecisionSource(), self._main(net),
                rng=np.random.default_rng(0),
            ),
        )
        assert result == "done"
        assert net.steps_elapsed == 7  # 2 * 4 - 1


class TestMuxPlanValidation:
    def _main(self, net, steps=6):
        return ProtocolSegmentSource(_RotorProtocol(net, steps), steps=steps)

    class _BadSource(SegmentProtocol):
        def __init__(self, n, segment_factory, remaining=5):
            super().__init__(n)
            self._factory = segment_factory
            self._remaining = remaining

        def plan(self, rng):
            return self._factory()

        def commit(self, reply):
            pass

        def steps_remaining(self):
            return self._remaining

    @pytest.mark.parametrize(
        "factory, match",
        [
            (lambda: "garbage", "non-segment"),
            (
                lambda: ObliviousWindow(np.zeros((2, 9), dtype=bool)),
                "shape",
            ),
            (
                lambda: ObliviousWindow(np.zeros((2, 6), dtype=np.int64)),
                "dtype",
            ),
        ],
    )
    def test_bad_planned_segments_rejected(self, factory, match):
        net = RadioNetwork(graphs.path(6))
        mux = multiplex(
            self._BadSource(6, factory),
            self._main(net),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ProtocolError, match=match):
            run_schedule(net, mux)

    def test_negative_max_steps_rejected(self):
        net = RadioNetwork(graphs.path(6))
        with pytest.raises(ProtocolError, match="max_steps"):
            multiplex(
                self._main(net), self._main(net),
                rng=np.random.default_rng(0), max_steps=-1,
            )

    def test_zero_row_segments_commit_and_plan_on(self):
        # A source may plan empty windows; they execute nothing, are
        # committed with an empty reply, and planning continues.
        net = RadioNetwork(graphs.path(6))
        committed = []

        class EmptyThenReal(SegmentProtocol):
            def __init__(self):
                super().__init__(6)
                self.planned = 0

            def plan(self, rng):
                self.planned += 1
                if self.planned % 2:
                    return ObliviousWindow(np.zeros((0, 6), dtype=bool))
                return ObliviousWindow(np.zeros((1, 6), dtype=bool))

            def commit(self, reply):
                committed.append(reply.shape)

            def steps_remaining(self):
                return None

        run_schedule(
            net,
            multiplex(
                self._main(net, steps=4), EmptyThenReal(),
                rng=np.random.default_rng(0),
            ),
        )
        assert (0, 6) in committed and (1, 6) in committed


class TestSegmentProtocolDefaults:
    def test_default_result_raises(self):
        class Bare(SegmentProtocol):
            def plan(self, rng):
                return None

            def commit(self, reply):
                pass

        with pytest.raises(ProtocolError, match="result"):
            Bare(4).result()
        assert Bare(4).steps_remaining() is None

    def test_trace_phase_through_segment_schedule(self):
        # Outside a mux, a plan/commit source may emit TracePhase; the
        # lift passes it through and commits None.
        net = RadioNetwork(graphs.path(4))
        seen = []

        class Phased(SegmentProtocol):
            def __init__(self):
                super().__init__(4)
                self.stage = 0

            def plan(self, rng):
                self.stage += 1
                if self.stage == 1:
                    return TracePhase("warm")
                if self.stage == 2:
                    return ObliviousWindow(np.zeros((2, 4), dtype=bool))
                return None

            def commit(self, reply):
                seen.append(None if reply is None else reply.shape)

            def result(self):
                return "phased"

        assert WindowedRunner(net).run_segments(
            Phased(), np.random.default_rng(0)
        ) == "phased"
        assert seen == [None, (2, 4)]
        assert net.trace.steps_in_phase("warm") == 2

    def test_protocol_schedule_negative_steps(self):
        from repro.engine import protocol_schedule

        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ProtocolError, match="steps"):
            list(
                protocol_schedule(
                    _RotorProtocol(net, 2), np.random.default_rng(0),
                    steps=-1,
                )
            )

    def test_validating_runner_empty_window(self):
        from repro.engine import ObliviousWindow as OW
        from repro.engine import ValidatingRunner

        net = RadioNetwork(graphs.path(4))
        runner = ValidatingRunner(net)

        def emit():
            yield OW(np.zeros((0, 4), dtype=bool))
            return "ok"

        assert runner.run(emit()) == "ok"
        assert runner.windows_checked == 1
        assert runner.steps_checked == 0


class TestSegmentAdapters:
    def test_adapter_requires_alternating_plan_commit(self):
        def schedule():
            yield ObliviousWindow(np.zeros((1, 4), dtype=bool))
            yield ObliviousWindow(np.zeros((1, 4), dtype=bool))

        adapter = ScheduleSegmentAdapter(schedule(), 4)
        rng = np.random.default_rng(0)
        adapter.plan(rng)
        with pytest.raises(ProtocolError, match="plan"):
            adapter.plan(rng)
        adapter.commit(np.full((1, 4), NO_SENDER, dtype=np.int64))
        with pytest.raises(ProtocolError, match="commit"):
            adapter.commit(np.full((1, 4), NO_SENDER, dtype=np.int64))

    def test_adapter_result_gating(self):
        def schedule():
            yield ObliviousWindow(np.zeros((1, 4), dtype=bool))
            return "value"

        adapter = ScheduleSegmentAdapter(schedule(), 4)
        rng = np.random.default_rng(0)
        with pytest.raises(ProtocolError, match="result"):
            adapter.result()
        adapter.plan(rng)
        adapter.commit(np.full((1, 4), NO_SENDER, dtype=np.int64))
        assert adapter.steps_remaining() is None
        assert adapter.plan(rng) is None
        assert adapter.steps_remaining() == 0
        assert adapter.result() == "value"

    def test_run_segments_equals_generator_run(self):
        from repro.core.decay import decay_block_schedule, run_decay

        g = graphs.path(20)
        active = np.zeros(20, dtype=bool)
        active[::3] = True
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)

        adapter = ScheduleSegmentAdapter(
            decay_block_schedule(net_a, active, rng_a, iterations=4), 20
        )
        a = WindowedRunner(net_a).run_segments(adapter, rng_a)
        b = run_decay(net_b, active, rng_b, iterations=4)

        assert (a.heard == b.heard).all()
        assert (a.heard_from == b.heard_from).all()
        _assert_trace_equal(net_a, net_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_protocol_source_validates(self):
        net = RadioNetwork(graphs.path(5))
        with pytest.raises(ProtocolError, match="steps"):
            ProtocolSegmentSource(_RotorProtocol(net, 3), steps=-1)
        source = ProtocolSegmentSource(_RotorProtocol(net, 3), steps=3)
        rng = np.random.default_rng(0)
        source.plan(rng)
        with pytest.raises(ProtocolError, match="plan"):
            source.plan(rng)
        with pytest.raises(ProtocolError, match="commit"):
            ProtocolSegmentSource(_RotorProtocol(net, 3)).commit(
                np.full((1, 5), NO_SENDER, dtype=np.int64)
            )
