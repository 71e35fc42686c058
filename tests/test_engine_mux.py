"""Intra-Cluster Propagation's engine path: one stack, two drivers.

ICP builds one step-wise protocol stack — the slot passes, under a
``TimeMultiplexer`` with the Decay background or alone — and runs it
through ``run_steps`` (the reference) or the engine's
``WindowedRunner.run_steps`` (every step a width-1 window through the
transmitter-pair product). Everything here is pinned against the
step-wise drivers:

* ICP under the default, windowed and validated policies against the
  reference, bit-for-bit across the graph-family matrix, with and
  without the background: knowledge, step counts, trace totals (per
  phase), and the post-run rng stream;
* time-multiplexing semantics on the runner: the stack ends before
  the row that would follow the main protocol's last step, a finished
  background falls silent, and a step bound can stop it inside a
  background sweep, which is then never committed.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.core import build_schedule, partition
from repro.core.intra_cluster import (
    DecayBackground,
    ICPProtocol,
    intra_cluster_propagation,
)
from repro.engine import ExecutionPolicy
from repro.graphs import greedy_independent_set
from repro.radio import (
    NO_SENDER,
    ProtocolError,
    Protocol,
    RadioNetwork,
    TimeMultiplexer,
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


class TestICPEquivalence:
    """Acceptance: ICP's engine path — the default — bit-identical to
    the step-wise reference on shared seeds across the equivalence
    matrix, with and without the background."""

    @pytest.mark.parametrize("with_background", [True, False])
    @pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("ell", [2, 4])
    def test_matrix(self, kind, ell, with_background):
        g, clustering, schedule, know = _icp_setup(kind, 60 + kind)
        columns = {
            "reference": ExecutionPolicy(engine="reference"),
            "default": None,
            "windowed": ExecutionPolicy(engine="windowed"),
            "validated": ExecutionPolicy(validate=True),
        }
        results = {}
        for column, policy in columns.items():
            net = RadioNetwork(g)
            rng = np.random.default_rng(12 + kind)
            res = intra_cluster_propagation(
                net, clustering, schedule, know, ell, rng,
                with_background=with_background, policy=policy,
            )
            results[column] = (res, net, rng)

        ref, net_ref, rng_ref = results["reference"]
        for column in ("default", "windowed", "validated"):
            res, net, rng = results[column]
            assert (res.knowledge == ref.knowledge).all()
            assert res.steps == ref.steps
            _assert_trace_equal(net, net_ref)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        # The default path runs every step as a window row through the
        # product, so its kernel counters account for every step.
        _, net_default, _ = results["default"]
        assert sum(net_default.kernel_use.values()) == ref.steps

    @pytest.mark.parametrize("delivery", ["auto", "sparse", "dense"])
    def test_delivery_modes_identical(self, delivery):
        # ``delivery`` names the transmitter-density regime the removed
        # router told apart: two informed nodes (sparse), every node
        # informed (dense), half of them (auto, a mix). The per-step
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


# ---------------------------------------------------------------------------
# Synthetic protocols for pattern and termination tests.
# ---------------------------------------------------------------------------
class _RotorProtocol(Protocol):
    """Deterministic-length adaptive protocol: one transmitter per step,
    rotated by the number of successful receptions observed so far (so
    any causal slippage in a driver changes its masks)."""

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


def _run_alternating_reference(
    network: RadioNetwork,
    main: Protocol,
    background: Protocol,
    rng: np.random.Generator,
) -> int:
    """Step-wise time multiplexing written out: main on even steps,
    background on odd ones, a finished background transmitting
    silence. Stops (like ``run_steps`` over ``TimeMultiplexer``)
    before the first step at which the main protocol is finished."""
    steps = 0
    while not main.finished:
        active = background if steps % 2 else main
        if active.finished:
            network.deliver(np.zeros(network.n, dtype=bool))
        else:
            hear = network.deliver(active.transmit_mask(rng))
            active.observe(hear)
        steps += 1
    return steps


class TestMuxPatterns:
    def test_finished_background_falls_silent(self):
        g = graphs.path(12)
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)

        main_a = _RotorProtocol(net_a, 40)
        bg_a = _BeepProtocol(net_a, 7)
        ExecutionPolicy().runner(net_a).run_steps(
            TimeMultiplexer(net_a, main_a, bg_a), rng_a, steps=80
        )

        main_b = _RotorProtocol(net_b, 40)
        bg_b = _BeepProtocol(net_b, 7)
        steps = _run_alternating_reference(net_b, main_b, bg_b, rng_b)

        assert main_a.finished and main_a.result() == main_b.result()
        assert bg_a.heard == bg_b.heard
        assert net_a.steps_elapsed == steps == 79  # 2 * 40 - 1
        _assert_trace_equal(net_a, net_b)

    def test_stops_before_row_after_mains_last(self):
        # The step-wise drivers re-check main.finished before every
        # step; so must the runner, which must not execute the
        # background row that would follow main's final step.
        g = graphs.path(9)
        net = RadioNetwork(g)
        main = _RotorProtocol(net, 5)
        bg = _BeepProtocol(net, 1000)
        ExecutionPolicy().runner(net).run_steps(
            TimeMultiplexer(net, main, bg),
            np.random.default_rng(0),
            steps=10,
        )
        assert net.steps_elapsed == 9  # 2 * 5 - 1, not 10

    def test_max_steps_stops_mid_block(self):
        # A step bound below the stack's natural length ends it inside
        # a background sweep: the executed prefix equals the step-wise
        # reference capped at the same step count, and the abandoned
        # sweep is never committed.
        g, clustering, schedule, know_a = _icp_setup(0, 22)
        know_b = know_a.copy()
        net_a, net_b = RadioNetwork(g), RadioNetwork(g)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        cap = 37  # deliberately inside a background sweep

        main_a = ICPProtocol(net_a, schedule, know_a, 3)
        assert sum(len(p.slots) for p in main_a._passes) > cap // 2 + 1
        bg_a = DecayBackground(net_a, clustering, know_a)
        ExecutionPolicy().runner(net_a).run_steps(
            TimeMultiplexer(net_a, main_a, bg_a), rng_a, steps=cap
        )

        main_b = ICPProtocol(net_b, schedule, know_b, 3)
        bg_b = DecayBackground(net_b, clustering, know_b)
        run_steps(TimeMultiplexer(net_b, main_b, bg_b), rng_b, cap)

        assert net_a.steps_elapsed == net_b.steps_elapsed == cap
        assert (know_a == know_b).all()
        _assert_trace_equal(net_a, net_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestRunnerEdgeCases:
    def test_run_steps_negative_steps(self):
        net = RadioNetwork(graphs.path(4))
        with pytest.raises(ProtocolError, match="steps"):
            ExecutionPolicy().runner(net).run_steps(
                _RotorProtocol(net, 2), np.random.default_rng(0), steps=-1
            )
        assert net.steps_elapsed == 0

    def test_validating_runner_empty_window(self, mask_window):
        from repro.engine import ValidatingRunner

        net = RadioNetwork(graphs.path(4))
        runner = ExecutionPolicy(validate=True).runner(net)
        assert isinstance(runner, ValidatingRunner)

        window, hear = mask_window(np.zeros((0, 4), dtype=bool))
        runner.run(window)
        assert hear.shape == (0, 4)
        assert runner.windows_checked == 1
        assert runner.steps_checked == 0
