"""Differential fuzzing of every engine/reference twin pair.

Each case draws seeded random graphs (mixing UDG, quasi-UDG, G(n, p),
paths, and hard star-of-cliques instances) and runs a protocol through
its independent implementations — the windowed engine (for ICP and the
packet pipeline also under the contract-checking ``validate=True``) and
the step-wise ``*_reference`` twin — pinning:

* the protocol **result** (every field that is seed-deterministic);
* ``steps_elapsed`` and the **trace totals** (global and per phase);
* the **final rng-stream state** (``bit_generator.state``), the
  strictest possible check that both paths drew exactly the same
  randomness in the same order (exception: the wake-up reduction,
  whose windowed path documents a post-success rng divergence).

The matrix is sized by ``--fuzz-rounds`` (default 2 — the CI tier-1
budget); crank it up locally for a deeper sweep::

    PYTHONPATH=src python -m pytest tests/test_fuzz_differential.py --fuzz-rounds 20
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.baselines import (
    bgi_broadcast,
    bgi_broadcast_reference,
    binary_search_election,
    binary_search_election_reference,
)
from repro.core import (
    MISConfig,
    build_schedule,
    compute_mis,
    compute_mis_reference,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    intra_cluster_propagation,
    partition,
    run_decay,
    run_decay_reference,
)
from repro.core.compete_packet import PacketCompeteConfig, compete_packet
from repro.core.leader_election import elect_leader_packet
from repro.core.wakeup import (
    mis_as_wakeup_strategy,
    mis_as_wakeup_strategy_reference,
)
from repro.baselines.leader_uptime import (
    uptime_threshold_election,
    uptime_threshold_election_reference,
)
from repro.core.mis_restart import (
    compute_restartable_mis,
    restartable_mis_reference,
)
from repro.engine.policy import ExecutionPolicy
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.faults import FaultSchedule
from repro.graphs import greedy_independent_set
from repro.radio import RadioNetwork


#: The policies the multi-engine twins run under: the step-wise
#: reference, the default engine path, and that path with every window
#: replayed through the contract checker.
_ENGINE_POLICIES = {
    "reference": ExecutionPolicy(engine="reference"),
    "default": ExecutionPolicy(),
    "validated": ExecutionPolicy(validate=True),
}


def _rows(k: int, n: int) -> ExecutionPolicy:
    """A policy whose budget buys exactly ``k``-row chunks over ``n``
    nodes."""
    return ExecutionPolicy(mem_budget=k * n * STREAM_CELL_BYTES)


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


def _assert_rng_equal(*rngs: np.random.Generator) -> None:
    states = [rng.bit_generator.state for rng in rngs]
    assert all(state == states[0] for state in states[1:])


def _fuzz_graph(round_index: int, case: str) -> nx.Graph:
    """A fresh seeded random graph per (round, case)."""
    seed = round_index * 7919 + sum(map(ord, case))
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(5))
    if kind == 0:
        n = int(rng.integers(40, 90))
        return graphs.random_udg(n, float(rng.uniform(2.5, 4.0)), rng)
    if kind == 1:
        return nx.convert_node_labels_to_integers(
            graphs.random_qudg(int(rng.integers(35, 70)), 3.0, rng)
        )
    if kind == 2:
        return nx.convert_node_labels_to_integers(
            graphs.star_of_cliques(int(rng.integers(3, 6)), int(rng.integers(4, 8)))
        )
    if kind == 3:
        return graphs.path(int(rng.integers(20, 60)))
    return graphs.connected_gnp(
        int(rng.integers(30, 70)), float(rng.uniform(0.06, 0.15)), rng
    )


def _seed(round_index: int, case: str) -> int:
    return round_index * 104729 + sum(map(ord, case)) * 31


class TestDifferentialFuzz:
    def test_decay(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "decay")
            n = g.number_of_nodes()
            seed = _seed(r, "decay")
            active = np.random.default_rng(seed).random(n) < 0.45
            active[0] = True
            net_w, net_r = RadioNetwork(g), RadioNetwork(g)
            rng_w = np.random.default_rng(seed + 1)
            rng_r = np.random.default_rng(seed + 1)
            a = run_decay(net_w, active, rng_w, iterations=5)
            b = run_decay_reference(net_r, active, rng_r, iterations=5)
            assert (a.heard == b.heard).all()
            assert (a.heard_from == b.heard_from).all()
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)

    @pytest.mark.parametrize("delivery", ["sparse", "dense"])
    def test_effective_degree(self, fuzz_rounds, delivery):
        # ``delivery`` names the desire levels' density regime.
        top = 0.5 if delivery == "dense" else 0.05
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "eed" + delivery)
            n = g.number_of_nodes()
            seed = _seed(r, "eed")
            setup = np.random.default_rng(seed)
            p = setup.random(n) * top
            active = setup.random(n) < 0.85
            net_w, net_r = RadioNetwork(g), RadioNetwork(g)
            rng_w = np.random.default_rng(seed + 1)
            rng_r = np.random.default_rng(seed + 1)
            a = estimate_effective_degree(net_w, p, active, rng_w, C=5)
            b = estimate_effective_degree_reference(
                net_r, p, active, rng_r, C=5
            )
            assert (a.high == b.high).all()
            assert (a.counts == b.counts).all()
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)

    def test_mis(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "mis")
            seed = _seed(r, "mis")
            config = MISConfig(eed_C=3)
            net_w, net_r = RadioNetwork(g), RadioNetwork(g)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = compute_mis(net_w, rng_w, config)
            b = compute_mis_reference(net_r, rng_r, config)
            assert a.mis == b.mis
            assert a.steps_used == b.steps_used
            assert a.rounds_used == b.rounds_used
            assert a.history == b.history
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)

    def test_bgi_broadcast(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "bgi")
            seed = _seed(r, "bgi")
            net_w, net_r = RadioNetwork(g), RadioNetwork(g)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = bgi_broadcast(net_w, 0, rng_w)
            b = bgi_broadcast_reference(net_r, 0, rng_r)
            assert a == b
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)

    def test_binary_search_election(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "leader")
            seed = _seed(r, "leader")
            net_w, net_r = RadioNetwork(g), RadioNetwork(g)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = binary_search_election(net_w, rng_w)
            b = binary_search_election_reference(net_r, rng_r)
            assert a == b
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)

    def test_wakeup(self, fuzz_rounds):
        # One generator per engine, shared across every round: both
        # paths draw one key per Decay block, at the block's first
        # step, so results and final states match after every call.
        rng_w = np.random.default_rng(_seed(0, "wakeup-stream"))
        rng_r = np.random.default_rng(_seed(0, "wakeup-stream"))
        for r in range(fuzz_rounds):
            seed = _seed(r, "wakeup")
            setup = np.random.default_rng(seed)
            n = int(setup.integers(64, 1024))
            k = int(setup.integers(2, min(48, n)))
            a = mis_as_wakeup_strategy(n, k, rng_w)
            b = mis_as_wakeup_strategy_reference(n, k, rng_r)
            assert a == b
            _assert_rng_equal(rng_w, rng_r)

    def test_icp_three_engines(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = nx.convert_node_labels_to_integers(_fuzz_graph(r, "icp"))
            seed = _seed(r, "icp")
            setup = np.random.default_rng(seed)
            mis = sorted(greedy_independent_set(g, setup, "random"))
            clustering = partition(g, 0.3, mis, setup)
            schedule = build_schedule(g, clustering)
            know = np.full(g.number_of_nodes(), -1, dtype=np.int64)
            know[0] = 3
            ell = int(setup.integers(2, 6))
            runs = {}
            for name, policy in _ENGINE_POLICIES.items():
                net = RadioNetwork(g)
                rng = np.random.default_rng(seed + 1)
                res = intra_cluster_propagation(
                    net, clustering, schedule, know, ell, rng,
                    policy=policy,
                )
                runs[name] = (res, net, rng)
            ref, net_ref, rng_ref = runs["reference"]
            for name in ("default", "validated"):
                res, net, rng = runs[name]
                assert (res.knowledge == ref.knowledge).all()
                assert res.steps == ref.steps
                _assert_trace_equal(net, net_ref)
                _assert_rng_equal(rng, rng_ref)

    def test_packet_compete(self, fuzz_rounds):
        # The full packet pipeline under all three policies; small
        # graphs — every stage is simulated step-for-step on the
        # reference side.
        for r in range(min(fuzz_rounds, 3)):
            seed = _seed(r, "compete")
            setup = np.random.default_rng(seed)
            g = nx.convert_node_labels_to_integers(
                graphs.random_udg(int(setup.integers(25, 45)), 2.5, setup)
            )
            sources = {0: 2, g.number_of_nodes() - 1: 5}
            runs = {}
            for name, policy in _ENGINE_POLICIES.items():
                net = RadioNetwork(g)
                rng = np.random.default_rng(seed + 1)
                res = compete_packet(
                    net, dict(sources), rng,
                    config=PacketCompeteConfig(), policy=policy,
                )
                runs[name] = (res, net, rng)
            ref, net_ref, rng_ref = runs["reference"]
            for name in ("default", "validated"):
                res, net, rng = runs[name]
                assert res == ref
                _assert_trace_equal(net, net_ref)
                _assert_rng_equal(rng, rng_ref)

    def test_packet_leader(self, fuzz_rounds):
        # Algorithm 3 on the packet pipeline: candidate draws, then
        # their IDs race through packet Compete under every policy.
        for r in range(min(fuzz_rounds, 3)):
            seed = _seed(r, "packet-leader")
            setup = np.random.default_rng(seed)
            g = nx.convert_node_labels_to_integers(
                graphs.random_udg(int(setup.integers(25, 45)), 2.5, setup)
            )
            runs = {}
            for name, policy in _ENGINE_POLICIES.items():
                net = RadioNetwork(g)
                rng = np.random.default_rng(seed + 1)
                res = elect_leader_packet(
                    net, rng, config=PacketCompeteConfig(), policy=policy
                )
                runs[name] = (res, net, rng)
            ref, net_ref, rng_ref = runs["reference"]
            for name in ("default", "validated"):
                res, net, rng = runs[name]
                assert res == ref
                _assert_trace_equal(net, net_ref)
                _assert_rng_equal(rng, rng_ref)


def _fuzz_schedule(n: int, seed: int) -> FaultSchedule:
    """A non-trivial shared fault environment for a twin pair."""
    return FaultSchedule.sample(
        n, 4000, seed=seed, crash_rate=0.08, churn=0.25, jam=0.1, hetero=0.3
    )


class TestFaultTwins:
    """Engine/reference pairs stay pinned under a shared FaultSchedule.

    The fault transforms are keyed purely on the global
    ``steps_elapsed`` clock, so the windowed engine and the step-wise
    reference twin must realize the *identical* fault pattern — same
    results, same trace totals, same final rng state, and the same
    realized-event counters. An empty schedule must additionally be
    bit-identical to no schedule at all.
    """

    @staticmethod
    def _twin_networks(g, seed):
        schedule = _fuzz_schedule(g.number_of_nodes(), seed)
        return (
            RadioNetwork(g, faults=schedule),
            RadioNetwork(g, faults=schedule),
        )

    @staticmethod
    def _assert_realized_equal(a: RadioNetwork, b: RadioNetwork) -> None:
        assert a._fault_state is not None and b._fault_state is not None
        assert a._fault_state.realized == b._fault_state.realized
        assert (
            a._fault_state.energy_remaining
            == b._fault_state.energy_remaining
        ).all()

    def test_decay_under_faults(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-decay")
            n = g.number_of_nodes()
            seed = _seed(r, "fault-decay")
            active = np.random.default_rng(seed).random(n) < 0.45
            active[0] = True
            net_w, net_r = self._twin_networks(g, seed)
            rng_w = np.random.default_rng(seed + 1)
            rng_r = np.random.default_rng(seed + 1)
            a = run_decay(net_w, active, rng_w, iterations=5)
            b = run_decay_reference(net_r, active, rng_r, iterations=5)
            assert (a.heard == b.heard).all()
            assert (a.heard_from == b.heard_from).all()
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)
            self._assert_realized_equal(net_w, net_r)

    def test_effective_degree_under_faults(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-eed")
            n = g.number_of_nodes()
            seed = _seed(r, "fault-eed")
            setup = np.random.default_rng(seed)
            p = setup.random(n) * 0.5
            active = setup.random(n) < 0.85
            net_w, net_r = self._twin_networks(g, seed)
            rng_w = np.random.default_rng(seed + 1)
            rng_r = np.random.default_rng(seed + 1)
            a = estimate_effective_degree(net_w, p, active, rng_w, C=5)
            b = estimate_effective_degree_reference(net_r, p, active, rng_r, C=5)
            assert (a.high == b.high).all()
            assert (a.counts == b.counts).all()
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)
            self._assert_realized_equal(net_w, net_r)

    def test_mis_under_faults(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-mis")
            seed = _seed(r, "fault-mis")
            config = MISConfig(eed_C=3)
            net_w, net_r = self._twin_networks(g, seed)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = compute_mis(net_w, rng_w, config)
            b = compute_mis_reference(net_r, rng_r, config)
            assert a.mis == b.mis
            assert a.steps_used == b.steps_used
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)
            self._assert_realized_equal(net_w, net_r)

    def test_mis_restricted_under_faults(self, fuzz_rounds):
        # Transmitter-list execution × faults: the engine's blocks touch
        # only their sampled transmitters (work restricted to the live
        # set by construction), yet realize the identical fault pattern
        # (crashes, jams, sleeps, energy debits land on the same global
        # (step, node) cells) as the step-wise twin — whether chunks are
        # whole sections or three steps that straddle every boundary.
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-mis-restrict")
            seed = _seed(r, "fault-mis-restrict")
            config = MISConfig(eed_C=3)
            schedule = _fuzz_schedule(g.number_of_nodes(), seed)
            nets = [RadioNetwork(g, faults=schedule) for _ in range(3)]
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            whole = compute_mis(nets[0], rngs[0], config)
            chunked = compute_mis(
                nets[1], rngs[1], config,
                policy=_rows(3, g.number_of_nodes()),
            )
            ref = compute_mis_reference(nets[2], rngs[2], config)
            assert whole.mis == chunked.mis == ref.mis
            assert whole.steps_used == chunked.steps_used == ref.steps_used
            assert whole.history == chunked.history == ref.history
            _assert_trace_equal(nets[0], nets[1])
            _assert_trace_equal(nets[0], nets[2])
            _assert_rng_equal(*rngs)
            self._assert_realized_equal(nets[0], nets[1])
            self._assert_realized_equal(nets[0], nets[2])

    def test_decay_restricted_under_faults(self, fuzz_rounds):
        # Same property at the single-block level, where the active set
        # is sparse from step 0.
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-decay-restrict")
            n = g.number_of_nodes()
            seed = _seed(r, "fault-decay-restrict")
            active = np.random.default_rng(seed).random(n) < 0.3
            active[0] = True
            net_f, net_r = self._twin_networks(g, seed)
            rng_f = np.random.default_rng(seed + 1)
            rng_r = np.random.default_rng(seed + 1)
            a = run_decay(
                net_f, active, rng_f, iterations=5,
                policy=_rows(4, n),
            )
            b = run_decay_reference(net_r, active, rng_r, iterations=5)
            assert (a.heard == b.heard).all()
            assert (a.heard_from == b.heard_from).all()
            _assert_trace_equal(net_f, net_r)
            _assert_rng_equal(rng_f, rng_r)
            self._assert_realized_equal(net_f, net_r)

    def test_bgi_broadcast_under_faults(self, fuzz_rounds):
        # Crashed nodes can never be informed, so both twins run the
        # same bounded best-effort sweep budget.
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-bgi")
            seed = _seed(r, "fault-bgi")
            net_w, net_r = self._twin_networks(g, seed)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = bgi_broadcast(net_w, 0, rng_w, max_sweeps=40, best_effort=True)
            b = bgi_broadcast_reference(
                net_r, 0, rng_r, max_sweeps=40, best_effort=True
            )
            assert a == b
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)
            self._assert_realized_equal(net_w, net_r)

    def test_mis_restart_under_faults(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-restart")
            seed = _seed(r, "fault-restart")
            net_w, net_r = self._twin_networks(g, seed)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = compute_restartable_mis(net_w, rng_w)
            b = restartable_mis_reference(net_r, rng_r)
            assert a.mis == b.mis
            assert a.readmitted == b.readmitted
            assert a.conflict_edges == b.conflict_edges
            assert a.dominated_fraction == b.dominated_fraction
            assert a.history == b.history
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)
            self._assert_realized_equal(net_w, net_r)

    def test_leader_uptime_under_faults(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-uptime")
            seed = _seed(r, "fault-uptime")
            net_w, net_r = self._twin_networks(g, seed)
            rng_w = np.random.default_rng(seed)
            rng_r = np.random.default_rng(seed)
            a = uptime_threshold_election(net_w, rng_w, threshold=0.6)
            b = uptime_threshold_election_reference(
                net_r, rng_r, threshold=0.6
            )
            assert a == b
            _assert_trace_equal(net_w, net_r)
            _assert_rng_equal(rng_w, rng_r)
            self._assert_realized_equal(net_w, net_r)

    def test_icp_under_faults(self, fuzz_rounds):
        for r in range(fuzz_rounds):
            g = nx.convert_node_labels_to_integers(
                _fuzz_graph(r, "fault-icp")
            )
            seed = _seed(r, "fault-icp")
            setup = np.random.default_rng(seed)
            mis = sorted(greedy_independent_set(g, setup, "random"))
            clustering = partition(g, 0.3, mis, setup)
            schedule = build_schedule(g, clustering)
            know = np.full(g.number_of_nodes(), -1, dtype=np.int64)
            know[0] = 3
            faults = _fuzz_schedule(g.number_of_nodes(), seed)
            runs = {}
            for name, policy in _ENGINE_POLICIES.items():
                net = RadioNetwork(g, faults=faults)
                rng = np.random.default_rng(seed + 1)
                res = intra_cluster_propagation(
                    net, clustering, schedule, know, 3, rng,
                    policy=policy,
                )
                runs[name] = (res, net, rng)
            ref, net_ref, rng_ref = runs["reference"]
            for name in ("default", "validated"):
                res, net, rng = runs[name]
                assert (res.knowledge == ref.knowledge).all()
                assert res.steps == ref.steps
                _assert_trace_equal(net, net_ref)
                _assert_rng_equal(rng, rng_ref)
                self._assert_realized_equal(net, net_ref)

    @pytest.mark.parametrize("case", ["decay", "mis"])
    def test_empty_schedule_is_bit_identical_to_none(self, fuzz_rounds, case):
        for r in range(fuzz_rounds):
            g = _fuzz_graph(r, "fault-empty-" + case)
            n = g.number_of_nodes()
            seed = _seed(r, "fault-empty-" + case)
            empty = FaultSchedule(seed=seed & 0xFFFF)
            net_plain = RadioNetwork(g)
            net_empty = RadioNetwork(g, faults=empty)
            assert net_empty._fault_state is None
            rng_plain = np.random.default_rng(seed)
            rng_empty = np.random.default_rng(seed)
            if case == "decay":
                active = np.random.default_rng(seed + 9).random(n) < 0.5
                active[0] = True
                a = run_decay(net_plain, active, rng_plain, iterations=4)
                b = run_decay(net_empty, active, rng_empty, iterations=4)
                assert (a.heard == b.heard).all()
                assert (a.heard_from == b.heard_from).all()
            else:
                a = compute_mis(
                    net_plain, rng_plain, policy=ExecutionPolicy()
                )
                b = compute_mis(
                    net_empty, rng_empty,
                    policy=ExecutionPolicy(faults=empty),
                )
                assert a.mis == b.mis
                assert a.steps_used == b.steps_used
            _assert_trace_equal(net_plain, net_empty)
            _assert_rng_equal(rng_plain, rng_empty)
