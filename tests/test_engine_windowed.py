"""Equivalence suite for the unified windowed protocol engine (PR 2).

Every protocol migrated onto the :mod:`repro.engine` scheduler layer
must be *exactly* equivalent to the step-wise implementation it
replaced. These tests pin that down, per protocol, across the graph
families the pipeline uses (UDG, quasi-UDG, hard instances, paths,
G(n,p)):

* seeded **bit-identical results** against the ``*_reference`` twins
  (Decay, EstimateEffectiveDegree, Radio MIS, wake-up reduction, BGI
  broadcast, binary-search election, Intra-Cluster Propagation, packet
  Compete / broadcast / leader election);
* matching **step counts and trace totals** (the windowed paths record
  through ``record_window`` what the step-wise paths record per step);
* matching **rng streams** after the run (the emitters draw the same
  numbers in the same order), wherever the protocol completes its
  schedule;
* runner behavior: step accounting, trace-phase segments, the
  step-wise protocol lift.

Plus the satellite engines: the CSR distance-2 coloring against the
networkx reference (valid colorings, identical layers) and the
sub-context fine clusterings against the relabel-copy reference
(bit-identical, shared rng stream).
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
    CompeteConfig,
    MISConfig,
    build_schedule,
    build_schedule_reference,
    compute_mis,
    compute_mis_reference,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    partition,
    partition_csr,
    run_decay,
    run_decay_reference,
)
from repro.core.compete import (
    _build_fine_clusterings,
    _build_fine_clusterings_reference,
)
from repro.core.compete_packet import (
    PacketCompeteConfig,
    broadcast_packet,
    compete_packet,
)
from repro.core.intra_cluster import intra_cluster_propagation
from repro.core.mpx import coarse_beta, j_range
from repro.core.schedule import _intra_cluster_csr
from repro.core.wakeup import (
    mis_as_wakeup_strategy,
    mis_as_wakeup_strategy_reference,
)
from repro.engine import (
    STREAM_CELL_BYTES,
    ExecutionPolicy,
    TracePhase,
    WindowedRunner,
    protocol_schedule,
)
from repro.graphs import greedy_independent_set
from repro.graphs.context import graph_context
from repro.radio import (
    InvalidActionError,
    ProtocolError,
    RadioNetwork,
    SilentProtocol,
)


def _family_graph(kind: int, seed: int) -> nx.Graph:
    """Small connected graphs across the families the pipeline targets."""
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
    return graphs.connected_gnp(50, 0.1, rng)


FAMILIES = [0, 1, 2, 3, 4]


def _twin_networks(g: nx.Graph) -> tuple[RadioNetwork, RadioNetwork]:
    return RadioNetwork(g), RadioNetwork(g)


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


def _assert_rng_equal(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


class TestDecayEquivalence:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_bit_identical(self, kind):
        g = _family_graph(kind, kind)
        net_w, net_r = _twin_networks(g)
        active = np.random.default_rng(7).random(net_w.n) < 0.4
        active[0] = True
        rng_w, rng_r = np.random.default_rng(50), np.random.default_rng(50)

        a = run_decay(net_w, active, rng_w, iterations=6)
        b = run_decay_reference(net_r, active, rng_r, iterations=6)

        assert (a.heard == b.heard).all()
        assert (a.heard_from == b.heard_from).all()
        _assert_trace_equal(net_w, net_r)
        assert rng_w.random() == rng_r.random()


class TestEffectiveDegreeEquivalence:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_bit_identical(self, kind):
        g = _family_graph(kind, 10 + kind)
        net_w, net_r = _twin_networks(g)
        setup = np.random.default_rng(3)
        p = setup.random(net_w.n) * 0.5
        active = setup.random(net_w.n) < 0.8
        rng_w, rng_r = np.random.default_rng(60), np.random.default_rng(60)

        a = estimate_effective_degree(net_w, p, active, rng_w, C=6)
        b = estimate_effective_degree_reference(net_r, p, active, rng_r, C=6)

        assert (a.high == b.high).all()
        assert (a.counts == b.counts).all()
        assert a.steps_per_level == b.steps_per_level
        _assert_trace_equal(net_w, net_r)
        assert rng_w.random() == rng_r.random()


class TestMISEquivalence:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_bit_identical(self, kind):
        g = _family_graph(kind, 20 + kind)
        net_w, net_r = _twin_networks(g)
        rng_w, rng_r = np.random.default_rng(70), np.random.default_rng(70)
        config = MISConfig(eed_C=4)

        a = compute_mis(net_w, rng_w, config)
        b = compute_mis_reference(net_r, rng_r, config)

        assert a.mis == b.mis
        assert (a.mis_mask == b.mis_mask).all()
        assert a.rounds_used == b.rounds_used
        assert a.steps_used == b.steps_used
        assert a.history == b.history
        assert (a.golden_type1 == b.golden_type1).all()
        assert (a.golden_type2 == b.golden_type2).all()
        _assert_trace_equal(net_w, net_r)
        assert rng_w.random() == rng_r.random()
        assert graphs.is_maximal_independent_set(g, a.mis)

    def test_oracle_degree_path(self):
        g = _family_graph(0, 99)
        net_w, net_r = _twin_networks(g)
        rng_w, rng_r = np.random.default_rng(71), np.random.default_rng(71)
        config = MISConfig(oracle_degree=True)
        a = compute_mis(net_w, rng_w, config)
        b = compute_mis_reference(net_r, rng_r, config)
        assert a.mis == b.mis and a.steps_used == b.steps_used
        assert rng_w.random() == rng_r.random()

    def test_engine_kwarg_validates(self):
        net = RadioNetwork(graphs.path(5))
        with pytest.raises(ValueError, match="engine"):
            compute_mis(
                net, np.random.default_rng(0),
                policy=ExecutionPolicy(engine="gpu"),
            )


class TestWakeupEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_result(self, seed):
        # One generator per engine, shared across calls: each call
        # starts where the previous one left the stream, so equal
        # sequences need equal final states after every call.
        rng_w = np.random.default_rng(seed)
        rng_r = np.random.default_rng(seed)
        for _ in range(3):
            a = mis_as_wakeup_strategy(512, 33, rng_w)
            b = mis_as_wakeup_strategy_reference(512, 33, rng_r)
            assert a == b
            _assert_rng_equal(rng_w, rng_r)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_same_state_at_any_chunk_height(self, rows):
        # Success usually lands inside a later chunk of its block: the
        # trimmed block's rows, and the one key drawn for it, must not
        # depend on where the runner cuts the chunks.
        k = 33
        policy = ExecutionPolicy(mem_budget=rows * k * STREAM_CELL_BYTES)
        rng_w = np.random.default_rng(40 + rows)
        rng_r = np.random.default_rng(40 + rows)
        for _ in range(3):
            a = mis_as_wakeup_strategy(512, k, rng_w, policy=policy)
            b = mis_as_wakeup_strategy_reference(512, k, rng_r)
            assert a == b
            _assert_rng_equal(rng_w, rng_r)

    def test_k_one(self):
        # k=1 can legitimately fail (the lone node may never mark
        # itself); what matters is that both paths agree exactly.
        rng_w = np.random.default_rng(5)
        rng_r = np.random.default_rng(5)
        for _ in range(2):
            a = mis_as_wakeup_strategy(64, 1, rng_w)
            b = mis_as_wakeup_strategy_reference(64, 1, rng_r)
            assert a == b
            _assert_rng_equal(rng_w, rng_r)

    def test_validates(self):
        with pytest.raises(ValueError):
            mis_as_wakeup_strategy(4, 9, np.random.default_rng(0))
        with pytest.raises(ValueError, match="engine"):
            mis_as_wakeup_strategy(
                9, 4, np.random.default_rng(0),
                policy=ExecutionPolicy(engine="x"),
            )


class TestBGIEquivalence:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_bit_identical(self, kind):
        g = _family_graph(kind, 30 + kind)
        net_w, net_r = _twin_networks(g)
        rng_w, rng_r = np.random.default_rng(80), np.random.default_rng(80)

        a = bgi_broadcast(net_w, 0, rng_w)
        b = bgi_broadcast_reference(net_r, 0, rng_r)

        assert a == b
        _assert_trace_equal(net_w, net_r)
        assert rng_w.random() == rng_r.random()
        assert a.delivered

    def test_multi_source(self):
        g = graphs.path(30)
        net_w, net_r = _twin_networks(g)
        a = bgi_broadcast(
            net_w, 0, np.random.default_rng(4), sources=[0, 29]
        )
        b = bgi_broadcast_reference(
            net_r, 0, np.random.default_rng(4), sources=[0, 29]
        )
        assert a == b


class TestBinarySearchElectionEquivalence:
    @pytest.mark.parametrize("kind", [0, 3])
    def test_bit_identical(self, kind):
        g = _family_graph(kind, 40 + kind)
        net_w, net_r = _twin_networks(g)
        a = binary_search_election(net_w, np.random.default_rng(6))
        b = binary_search_election_reference(net_r, np.random.default_rng(6))
        assert a == b
        _assert_trace_equal(net_w, net_r)


class TestICPEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2])
    @pytest.mark.parametrize("with_background", [True, False])
    def test_bit_identical(self, kind, with_background):
        g = nx.convert_node_labels_to_integers(
            _family_graph(kind, 60 + kind)
        )
        setup = np.random.default_rng(11)
        mis = sorted(greedy_independent_set(g, setup, "random"))
        clustering = partition(g, 0.3, mis, setup)
        schedule = build_schedule(g, clustering)
        know = np.full(g.number_of_nodes(), -1, dtype=np.int64)
        know[0] = 9
        net_w, net_r = _twin_networks(g)
        rng_w, rng_r = np.random.default_rng(12), np.random.default_rng(12)

        a = intra_cluster_propagation(
            net_w, clustering, schedule, know, 4, rng_w,
            with_background=with_background,
            policy=ExecutionPolicy(engine="windowed"),
        )
        b = intra_cluster_propagation(
            net_r, clustering, schedule, know, 4, rng_r,
            with_background=with_background,
            policy=ExecutionPolicy(engine="reference"),
        )

        assert (a.knowledge == b.knowledge).all()
        assert a.steps == b.steps
        _assert_trace_equal(net_w, net_r)
        assert rng_w.random() == rng_r.random()

    def test_engine_validates(self):
        g = graphs.path(10)
        clustering = partition(
            g, 0.4, sorted(greedy_independent_set(g)),
            np.random.default_rng(0),
        )
        schedule = build_schedule(g, clustering)
        with pytest.raises(ValueError, match="engine"):
            intra_cluster_propagation(
                RadioNetwork(g), clustering, schedule,
                np.full(10, -1, dtype=np.int64), 2,
                np.random.default_rng(1),
                policy=ExecutionPolicy(engine="bogus"),
            )


class TestPacketPipelineEquivalence:
    @pytest.mark.parametrize("kind", [0, 2])
    def test_broadcast_packet_bit_identical(self, kind):
        g = nx.convert_node_labels_to_integers(
            _family_graph(kind, 70 + kind)
        )
        net_w, net_r = _twin_networks(g)
        a = broadcast_packet(
            net_w, 0, np.random.default_rng(13),
            config=PacketCompeteConfig(),
        )
        b = broadcast_packet(
            net_r, 0, np.random.default_rng(13),
            config=PacketCompeteConfig(),
            policy=ExecutionPolicy(engine="reference"),
        )
        assert a == b
        _assert_trace_equal(net_w, net_r)
        assert a.delivered

    def test_multi_source_compete_packet(self):
        g = nx.convert_node_labels_to_integers(_family_graph(4, 77))
        net_w, net_r = _twin_networks(g)
        sources = {0: 2, 5: 7, 11: 4}
        a = compete_packet(
            net_w, sources, np.random.default_rng(14),
            config=PacketCompeteConfig(),
        )
        b = compete_packet(
            net_r, sources, np.random.default_rng(14),
            config=PacketCompeteConfig(),
            policy=ExecutionPolicy(engine="reference"),
        )
        assert a == b
        assert a.winner == 7

    def test_config_validates_engine(self):
        # The engine rides on the policy= keyword, validated where the
        # policy is built; the config carries no policy of its own.
        with pytest.raises(ValueError, match="engine"):
            ExecutionPolicy(engine="nope")
        with pytest.raises(TypeError, match="policy"):
            PacketCompeteConfig(policy=ExecutionPolicy())


class TestRunnerProperties:
    def test_trace_phase_segments(self, mask_window):
        net = RadioNetwork(graphs.path(6))

        def schedule():
            yield TracePhase("warmup")
            yield from mask_window(np.zeros((3, 6), dtype=bool))
            yield TracePhase("main")
            yield from mask_window(np.zeros((1, 6), dtype=bool))
            yield TracePhase("default")

        ExecutionPolicy().run_schedule(net, schedule())
        assert net.trace.steps_in_phase("warmup") == 3
        assert net.trace.steps_in_phase("main") == 1

    def test_rejects_non_segment(self):
        net = RadioNetwork(graphs.path(4))

        def schedule():
            yield "not a segment"

        with pytest.raises(ProtocolError):
            ExecutionPolicy().run_schedule(net, schedule())

    def test_returns_emitter_result(self, mask_window):
        net = RadioNetwork(graphs.path(4))

        def schedule():
            reply = yield TracePhase("default")
            hear = yield from mask_window(np.zeros((1, 4), dtype=bool))
            return ("done", reply, hear.shape)

        result = ExecutionPolicy().run_schedule(net, schedule())
        assert result == ("done", None, (1, 4))

    def test_window_reply_matches_sequential(self, mask_window):
        g = graphs.path(9)
        net_w, net_r = _twin_networks(g)
        masks = np.random.default_rng(3).random((11, 9)) < 0.3

        hear = ExecutionPolicy().run_schedule(net_w, mask_window(masks))
        sequential = np.stack([net_r.deliver(m) for m in masks])
        assert (hear == sequential).all()

    def test_legacy_protocol_adapter(self):
        g = graphs.path(8)
        net = RadioNetwork(g)
        protocol = SilentProtocol(net)
        result = ExecutionPolicy().run_schedule(
            net, protocol_schedule(protocol, np.random.default_rng(0), steps=5)
        )
        assert result is None  # SilentProtocol never finishes
        assert net.steps_elapsed == 5

    def test_lifted_protocol_mask_is_checked(self):
        # The lift checks every step's mask with deliver's own shape
        # and dtype check, so a malformed mask refuses on the engine
        # path before any step executes.
        net = RadioNetwork(graphs.path(8))
        for bad in (
            np.zeros(7, dtype=bool),
            np.zeros((1, 8), dtype=bool),
            np.zeros(8, dtype=np.int64),
            np.bool_(True),
        ):

            class Malformed(SilentProtocol):
                def transmit_mask(self, rng):
                    return bad

            lifted = protocol_schedule(
                Malformed(net), np.random.default_rng(0), steps=3
            )
            with pytest.raises(InvalidActionError, match="transmit mask"):
                ExecutionPolicy().run_schedule(net, lifted)
        assert net.steps_elapsed == 0

    def test_runner_counts_steps(self, mask_window):
        net = RadioNetwork(graphs.path(5))
        runner = WindowedRunner(net, 2)

        def schedule():
            yield from mask_window(np.zeros((2, 5), dtype=bool))
            yield from mask_window(np.zeros((1, 5), dtype=bool))

        runner.run(schedule())
        assert net.steps_elapsed == 3
        assert net.trace.total_steps == 3


class TestScheduleColoringEngine:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_valid_and_layers_match_reference(self, kind):
        g = nx.convert_node_labels_to_integers(
            _family_graph(kind, 80 + kind)
        )
        setup = np.random.default_rng(15)
        mis = sorted(greedy_independent_set(g, setup, "random"))
        clustering = partition(g, 0.35, mis, setup)

        fast = build_schedule(g, clustering)
        ref = build_schedule_reference(g, clustering)

        assert (fast.layer == ref.layer).all()
        assert fast.n_layers == ref.n_layers
        # Both are greedy colorings of the same square graph; orders
        # differ (the reference inherits set iteration order), so only
        # validity and the greedy bound are comparable.
        masked = _intra_cluster_csr(g, clustering)
        square = (masked + masked @ masked).tocsr()
        square.setdiag(0)
        square.eliminate_zeros()
        coo = square.tocoo()
        u, v = coo.coords
        assert not (fast.color[u] == fast.color[v]).any()
        max_d2 = int(np.diff(square.indptr).max()) if g.number_of_nodes() else 0
        assert fast.n_colors <= max_d2 + 1


class TestFineClusteringSubcontexts:
    def test_bit_identical_to_relabel_reference(self):
        g = nx.convert_node_labels_to_integers(
            graphs.random_udg(130, 3.5, np.random.default_rng(16))
        )
        ctx = graph_context(g)
        setup = np.random.default_rng(17)
        mis = sorted(greedy_independent_set(g, setup, "random"))
        d = max(2, ctx.diameter)
        coarse = partition(g, coarse_beta(d), mis, setup)
        config = CompeteConfig()
        js = j_range(d)
        rng_a, rng_b = np.random.default_rng(18), np.random.default_rng(18)

        fine = _build_fine_clusterings(g, coarse, mis, js, config, rng_a, ctx)
        ref = _build_fine_clusterings_reference(
            g, coarse, mis, js, config, rng_b
        )

        assert fine.keys() == ref.keys()
        for center in fine:
            assert fine[center].keys() == ref[center].keys()
            for j in fine[center]:
                for a, b in zip(fine[center][j], ref[center][j]):
                    assert (a.assignment == b.assignment).all()
                    assert (
                        a.distance_to_center == b.distance_to_center
                    ).all()
                    assert a.centers == b.centers
                    assert a.delta == b.delta
        assert rng_a.random() == rng_b.random()

    def test_induced_csr_matches_networkx_subgraph(self):
        g = nx.convert_node_labels_to_integers(
            graphs.random_udg(60, 2.5, np.random.default_rng(19))
        )
        ctx = graph_context(g)
        members = np.array(sorted(
            np.random.default_rng(20).choice(60, size=25, replace=False)
        ), dtype=np.int64)
        indptr, indices = ctx.induced_csr(members)
        sub = nx.relabel_nodes(
            g.subgraph(members.tolist()),
            {int(v): i for i, v in enumerate(members)},
            copy=True,
        )
        for i in range(members.size):
            mine = set(indices[indptr[i] : indptr[i + 1]].tolist())
            assert mine == set(sub.neighbors(i))

    def test_induced_csr_deterministic(self):
        g = graphs.path(12)
        ctx = graph_context(g)
        members = np.arange(5, dtype=np.int64)
        a = ctx.induced_csr(members)
        b = ctx.induced_csr(members)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_partition_csr_matches_partition(self):
        g = nx.convert_node_labels_to_integers(
            graphs.random_udg(80, 3.0, np.random.default_rng(21))
        )
        ctx = graph_context(g)
        centers = sorted(
            int(c)
            for c in np.random.default_rng(22).choice(80, 12, replace=False)
        )
        from repro.core.mpx import draw_shifts

        shifts = draw_shifts(centers, 0.3, np.random.default_rng(23))
        csr = ctx.identity_csr()
        a = partition_csr(
            csr.indptr, csr.indices, 80, 0.3, centers,
            np.random.default_rng(0), shifts=shifts,
        )
        b = partition(g, 0.3, centers, np.random.default_rng(0), shifts=shifts)
        assert (a.assignment == b.assignment).all()
        assert (a.distance_to_center == b.distance_to_center).all()
