"""Equivalence tests for the vectorized hot-path engine (PR 1).

The engine work is only admissible because it is *exactly* equivalent to
the straightforward implementations it replaced. These tests pin that
down:

* a runner window read off masks reproduces sequential ``deliver``
  bit-for-bit on random mask windows (including trace totals and step
  counts);
* the batched ``run_decay`` consumes the same rng stream and produces
  the same result as driving the ``Decay`` protocol step by step;
* the CSR-native frontier ``partition`` engine matches the reference
  multi-source Dijkstra bit-for-bit under shared shifts;
* ``deliver_detect`` agrees with ``deliver`` plus an explicit
  carrier-sense recomputation;
* the csgraph-backed graph facts (diameter, distance histograms,
  schedule layers) match their networkx predecessors;
* the parallel trial runner returns the serial runner's numbers.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.analysis import experiments
from repro.core.cluster_stats import center_distance_histogram
from repro.core.decay import Decay, run_decay
from repro.core.mpx import draw_shifts, partition, partition_reference
from repro.core.schedule import build_schedule
from repro.graphs.context import GraphContext, distances_from, graph_context
from repro.engine import ExecutionPolicy, protocol_schedule
from repro.radio import (
    InvalidActionError,
    NO_SENDER,
    RadioNetwork,
    SilentProtocol,
    run_steps,
)


def _random_graph(rng: np.random.Generator, kind: int) -> nx.Graph:
    if kind % 4 == 0:
        return graphs.random_udg(60, 2.2, rng)
    if kind % 4 == 1:
        return graphs.path(40)
    if kind % 4 == 2:
        return graphs.connected_gnp(50, 0.08, rng)
    return graphs.star(30)


class TestDeliverWindowEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    @pytest.mark.parametrize("density", [0.02, 0.2, 0.7])
    def test_matches_sequential_deliver(self, kind, density, mask_window):
        rng = np.random.default_rng(100 + kind)
        g = _random_graph(rng, kind)
        net_seq = RadioNetwork(g)
        net_win = RadioNetwork(g)
        w = 37
        masks = rng.random((w, net_seq.n)) < density

        sequential = np.stack([net_seq.deliver(m) for m in masks])
        windowed = ExecutionPolicy().run_schedule(net_win, mask_window(masks))

        assert (sequential == windowed).all()
        assert net_seq.steps_elapsed == net_win.steps_elapsed == w
        assert (
            net_seq.trace.total_transmissions
            == net_win.trace.total_transmissions
        )
        assert (
            net_seq.trace.total_receptions == net_win.trace.total_receptions
        )
        assert net_seq.trace.total_steps == net_win.trace.total_steps

    def test_empty_window(self, mask_window):
        net = RadioNetwork(graphs.path(5))
        out = ExecutionPolicy().run_schedule(
            net, mask_window(np.zeros((0, 5), dtype=bool))
        )
        assert out.shape == (0, 5)
        assert net.steps_elapsed == 0

    def test_all_silent_window(self, mask_window):
        net = RadioNetwork(graphs.path(5))
        out = ExecutionPolicy().run_schedule(
            net, mask_window(np.zeros((4, 5), dtype=bool))
        )
        assert (out == NO_SENDER).all()
        assert net.steps_elapsed == 4

    def test_rejects_bad_shape_and_dtype(self):
        # Masks reach the engine only through the step lift, which
        # refuses the masks deliver refuses, with deliver's message.
        net = RadioNetwork(graphs.path(5))
        for bad in (np.zeros(4, dtype=bool), np.zeros(5, dtype=np.int64)):

            class Malformed(SilentProtocol):
                def transmit_mask(self, rng):
                    return bad

            with pytest.raises(InvalidActionError) as stepwise:
                net.deliver(bad)
            with pytest.raises(InvalidActionError) as lifted:
                ExecutionPolicy().run_schedule(
                    net,
                    protocol_schedule(
                        Malformed(net), np.random.default_rng(0), steps=1
                    ),
                )
            assert str(lifted.value) == str(stepwise.value)


class TestDeliverDetectSharedPath:
    @pytest.mark.parametrize("kind", [0, 2])
    def test_busy_matches_explicit_counts(self, kind):
        rng = np.random.default_rng(7 + kind)
        g = _random_graph(rng, kind)
        net = RadioNetwork(g)
        ref = RadioNetwork(g)
        for _ in range(25):
            mask = rng.random(net.n) < 0.3
            hear, busy = net.deliver_detect(mask)
            hear_ref = ref.deliver(mask)
            counts = ref.neighbor_sum(mask.astype(np.float64))
            assert (hear == hear_ref).all()
            assert (busy == ((~mask) & (counts >= 1.0))).all()

    def test_single_validation_single_step(self):
        net = RadioNetwork(graphs.path(4))
        net.deliver_detect(np.zeros(4, dtype=bool))
        # One deliver_detect call is exactly one radio step.
        assert net.steps_elapsed == 1


class TestBatchedDecayEquivalence:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_same_result_and_rng_stream(self, kind):
        rng_batch = np.random.default_rng(555 + kind)
        rng_seq = np.random.default_rng(555 + kind)
        g = _random_graph(np.random.default_rng(kind), kind)
        net_batch = RadioNetwork(g)
        net_seq = RadioNetwork(g)
        active = np.random.default_rng(9).random(net_batch.n) < 0.5
        active[0] = True

        batched = run_decay(net_batch, active, rng_batch, iterations=6)

        protocol = Decay(net_seq, active, iterations=6)
        run_steps(protocol, rng_seq, protocol.total_steps)
        sequential = protocol.result()

        assert (batched.heard == sequential.heard).all()
        assert (batched.heard_from == sequential.heard_from).all()
        assert net_batch.steps_elapsed == net_seq.steps_elapsed
        # Identical downstream randomness: the batched path drew exactly
        # the same numbers in the same order.
        assert rng_batch.random() == rng_seq.random()


class TestPartitionEngineEquivalence:
    @pytest.mark.parametrize("trial", range(8))
    def test_bit_identical_to_dijkstra(self, trial):
        rng = np.random.default_rng(2000 + trial)
        g = _random_graph(rng, trial)
        g = nx.convert_node_labels_to_integers(g)
        n = g.number_of_nodes()
        n_centers = int(rng.integers(1, max(2, n // 3)))
        centers = sorted(
            int(c) for c in rng.choice(n, size=n_centers, replace=False)
        )
        beta = float(rng.uniform(0.05, 0.9))
        shifts = draw_shifts(centers, beta, rng)

        fast = partition(g, beta, centers, rng, shifts=shifts)
        ref = partition_reference(g, beta, centers, rng, shifts=shifts)

        assert (fast.assignment == ref.assignment).all()
        assert (fast.distance_to_center == ref.distance_to_center).all()
        assert fast.centers == ref.centers
        assert fast.delta == ref.delta

    def test_unreachable_nodes_still_rejected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="unreachable"):
            partition(g, 0.5, [0], rng)

    def test_unknown_engine_rejected(self):
        g = graphs.path(4)
        with pytest.raises(ValueError, match="engine"):
            partition(g, 0.5, [0], np.random.default_rng(0), engine="gpu")


class TestCsgraphGraphFacts:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_diameter_matches_networkx(self, kind):
        g = _random_graph(np.random.default_rng(30 + kind), kind)
        assert graphs.diameter(g) == nx.diameter(g)

    def test_diameter_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            graphs.diameter(g)

    def test_distances_from_matches_networkx(self):
        g = _random_graph(np.random.default_rng(3), 0)
        src = list(g.nodes)[0]
        assert distances_from(g, src) == dict(
            nx.single_source_shortest_path_length(g, src)
        )

    @pytest.mark.parametrize("kind", [0, 2])
    def test_histogram_matches_networkx(self, kind):
        rng = np.random.default_rng(40 + kind)
        g = _random_graph(rng, kind)
        g = nx.convert_node_labels_to_integers(g)
        n = g.number_of_nodes()
        centers = sorted(
            int(c) for c in rng.choice(n, size=max(1, n // 4), replace=False)
        )
        for v in [0, n // 2, n - 1]:
            m = center_distance_histogram(g, v, centers)
            dist = nx.single_source_shortest_path_length(g, v)
            reach = [d for u, d in dist.items() if u in set(centers)]
            expected = np.zeros(max(reach) + 1, dtype=np.int64)
            for d in reach:
                expected[d] += 1
            assert (m == expected).all()

    def test_schedule_layers_match_percluster_bfs(self):
        rng = np.random.default_rng(77)
        g = nx.convert_node_labels_to_integers(graphs.random_udg(80, 2.4, rng))
        n = g.number_of_nodes()
        centers = sorted(graphs.greedy_independent_set(g, rng, "random"))
        clustering = partition(g, 0.4, centers, rng)
        schedule = build_schedule(g, clustering)
        labels = list(g.nodes)
        for center, members in clustering.members().items():
            sub = g.subgraph([labels[v] for v in members])
            depths = nx.single_source_shortest_path_length(
                sub, labels[center]
            )
            for v in members:
                assert schedule.layer[v] == depths[labels[v]]


class TestGraphContextCache:
    def test_memoized_per_graph(self):
        g = graphs.path(10)
        assert graph_context(g) is graph_context(g)

    def test_invalidated_on_mutation(self):
        g = graphs.path(10)
        ctx = graph_context(g)
        g.add_edge(0, 9)
        ctx2 = graph_context(g)
        assert ctx2 is not ctx
        assert ctx2.m == ctx.m + 1

    def test_cached_facts(self):
        g = graphs.path(10)
        ctx = graph_context(g)
        assert ctx.diameter == 9
        assert ctx.is_connected()
        assert list(ctx.degrees) == [1] + [2] * 8 + [1]
        mis = ctx.mis()
        assert graphs.is_maximal_independent_set(g, set(mis))
        assert ctx.mis() == mis  # stable across calls
        assert ctx.alpha_lower() == len(mis)

    def test_identity_csr_requires_integer_labels(self):
        g = nx.Graph([("a", "b")])
        ctx = GraphContext(g)
        with pytest.raises(ValueError):
            ctx.identity_csr()

    def test_edges_cover_both_directions(self):
        g = graphs.path(4)
        src, dst = graph_context(g).edges()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}


def _measure_sum(rng: np.random.Generator) -> float:
    """Module-level trial function (picklable for the process pool)."""
    return float(rng.random(64).sum())


class TestParallelTrials:
    def test_matches_serial(self):
        serial = experiments.run_trials(_measure_sum, 12, seed=3)
        parallel = experiments.run_trials(
            _measure_sum, 12, seed=3, processes=3
        )
        assert serial == parallel

    def test_single_process_short_circuits(self):
        assert experiments.run_trials(
            _measure_sum, 5, seed=1, processes=1
        ) == experiments.run_trials(_measure_sum, 5, seed=1)

    def test_unpicklable_measure_falls_back(self):
        serial = experiments.run_trials(lambda r: float(r.random()), 4, 9)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            parallel = experiments.run_trials(
                lambda r: float(r.random()), 4, 9, processes=2
            )
        assert serial == parallel

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            experiments.run_trials(_measure_sum, 0, 1)
        with pytest.raises(ValueError):
            experiments.run_trials(_measure_sum, 2, 1, processes=0)
