"""Unit tests for the radio network simulator's collision semantics."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.corpus import CSRGraph
from repro.graphs.context import graph_context
from repro.radio import (
    GraphContractError,
    InvalidActionError,
    NO_SENDER,
    RadioNetwork,
)


class TestConstruction:
    def test_rejects_empty_graph(self):
        with pytest.raises(GraphContractError):
            RadioNetwork(nx.Graph())

    def test_rejects_directed_graph(self):
        with pytest.raises(GraphContractError):
            RadioNetwork(nx.DiGraph([(0, 1)]))

    def test_rejects_self_loops(self):
        g = nx.Graph([(0, 1)])
        g.add_edge(1, 1)
        with pytest.raises(GraphContractError):
            RadioNetwork(g)

    def test_rejects_self_loops_in_csr_graphs(self):
        # Node 1 lists itself. The graph's context records the fact
        # without refusing (round-accounted protocols only read the
        # context); the radio layer refuses.
        graph = CSRGraph(
            np.array([0, 1, 3], dtype=np.int32),
            np.array([1, 0, 1], dtype=np.int32),
        )
        assert graph_context(graph).has_self_loops
        with pytest.raises(GraphContractError, match="self-loops"):
            RadioNetwork(graph)

    def test_self_loop_scan_runs_once_per_graph(self, monkeypatch):
        g = graphs.path(6)
        RadioNetwork(g)

        def rescan(*args, **kwargs):
            raise AssertionError("the diagonal was scanned again")

        monkeypatch.setattr(graph_context(g).csr, "diagonal", rescan)
        assert RadioNetwork(g).n == 6

    def test_single_node_graph_is_allowed(self):
        g = nx.Graph()
        g.add_node("solo")
        net = RadioNetwork(g)
        assert net.n == 1

    def test_degrees_match_graph(self, star8):
        net = RadioNetwork(star8)
        hub = net.index_of(0)
        assert net.degrees[hub] == 7
        assert sorted(net.degrees) == [1] * 7 + [7]

    def test_label_index_roundtrip(self, small_udg):
        # Integer labels, string labels in an order unlike any integer
        # range, and an array-native graph whose labels are its rows:
        # the network reads all three off its graph context.
        named = nx.relabel_nodes(
            graphs.path(6), {i: f"n{5 - i}" for i in range(6)}
        )
        rows = CSRGraph(
            np.array([0, 1, 3, 4], dtype=np.int32),
            np.array([1, 0, 2, 1], dtype=np.int32),
        )
        for graph in (small_udg, named, rows):
            net = RadioNetwork(graph)
            for v in graph.nodes:
                assert net.label_of(net.index_of(v)) == v
            assert net.labels() == list(graph.nodes)
            for missing in ("missing", net.n, 0.5, None):
                with pytest.raises(KeyError):
                    net.index_of(missing)

    def test_labels_in_index_order(self, path5):
        net = RadioNetwork(path5)
        assert net.labels() == [net.label_of(i) for i in range(net.n)]

    def test_indices_of_vectorized(self, path5):
        net = RadioNetwork(path5)
        idx = net.indices_of([0, 2, 4])
        assert list(idx) == [net.index_of(v) for v in [0, 2, 4]]

    def test_neighbors_of(self, path5):
        net = RadioNetwork(path5)
        middle = net.index_of(2)
        neighbors = {net.label_of(i) for i in net.neighbors_of(middle)}
        assert neighbors == {1, 3}


class TestDeliverSemantics:
    def test_single_transmitter_reaches_all_neighbors(self, net_path5):
        transmit = np.zeros(5, dtype=bool)
        sender = net_path5.index_of(2)
        transmit[sender] = True
        hear = net_path5.deliver(transmit)
        for label in (1, 3):
            assert hear[net_path5.index_of(label)] == sender
        for label in (0, 4):
            assert hear[net_path5.index_of(label)] == NO_SENDER

    def test_transmitter_hears_nothing(self, net_path5):
        transmit = np.zeros(5, dtype=bool)
        transmit[net_path5.index_of(1)] = True
        hear = net_path5.deliver(transmit)
        assert hear[net_path5.index_of(1)] == NO_SENDER

    def test_two_transmitting_neighbors_collide(self, net_path5):
        transmit = np.zeros(5, dtype=bool)
        transmit[net_path5.index_of(1)] = True
        transmit[net_path5.index_of(3)] = True
        hear = net_path5.deliver(transmit)
        # Node 2 has two transmitting neighbors: collision, hears nothing.
        assert hear[net_path5.index_of(2)] == NO_SENDER
        # Nodes 0 and 4 each have exactly one: they hear.
        assert hear[net_path5.index_of(0)] == net_path5.index_of(1)
        assert hear[net_path5.index_of(4)] == net_path5.index_of(3)

    def test_no_collision_detection_soundness(self, net_clique6):
        """Collision (all transmit) is indistinguishable from silence."""
        silence = net_clique6.deliver(np.zeros(6, dtype=bool))
        everyone = net_clique6.deliver(np.ones(6, dtype=bool))
        assert (silence == NO_SENDER).all()
        assert (everyone == NO_SENDER).all()

    def test_clique_single_transmitter_reaches_everyone(self, net_clique6):
        transmit = np.zeros(6, dtype=bool)
        transmit[3] = True
        hear = net_clique6.deliver(transmit)
        others = [i for i in range(6) if i != 3]
        assert all(hear[i] == 3 for i in others)

    def test_clique_two_transmitters_collide_everywhere(self, net_clique6):
        transmit = np.zeros(6, dtype=bool)
        transmit[0] = transmit[1] = True
        hear = net_clique6.deliver(transmit)
        # 0 and 1 transmit (hear nothing); everyone else collides.
        assert (hear == NO_SENDER).all()

    def test_non_neighbor_transmission_not_heard(self):
        g = nx.Graph([(0, 1), (2, 3)])  # two disjoint edges
        net = RadioNetwork(g)
        transmit = np.zeros(4, dtype=bool)
        transmit[net.index_of(0)] = True
        hear = net.deliver(transmit)
        assert hear[net.index_of(2)] == NO_SENDER
        assert hear[net.index_of(3)] == NO_SENDER
        assert hear[net.index_of(1)] == net.index_of(0)

    def test_rejects_wrong_shape(self, net_path5):
        with pytest.raises(InvalidActionError):
            net_path5.deliver(np.zeros(4, dtype=bool))

    def test_rejects_non_boolean_mask(self, net_path5):
        with pytest.raises(InvalidActionError):
            net_path5.deliver(np.zeros(5, dtype=np.int64))

    def test_steps_counter_increments(self, net_path5):
        assert net_path5.steps_elapsed == 0
        net_path5.deliver(np.zeros(5, dtype=bool))
        net_path5.deliver(np.zeros(5, dtype=bool))
        assert net_path5.steps_elapsed == 2

    def test_trace_records_transmissions_and_receptions(self, net_path5):
        transmit = np.zeros(5, dtype=bool)
        transmit[net_path5.index_of(2)] = True
        net_path5.deliver(transmit)
        assert net_path5.trace.total_steps == 1
        assert net_path5.trace.total_transmissions == 1
        assert net_path5.trace.total_receptions == 2  # both path neighbors


class TestNeighborSum:
    def test_neighbor_sum_on_path(self, net_path5):
        values = np.array(
            [1.0, 2.0, 4.0, 8.0, 16.0]
        )[np.argsort([net_path5.index_of(v) for v in range(5)])]
        # Build values so that values[index_of(v)] = 2^v.
        values = np.zeros(5)
        for v in range(5):
            values[net_path5.index_of(v)] = 2.0**v
        sums = net_path5.neighbor_sum(values)
        assert sums[net_path5.index_of(0)] == 2.0  # neighbor 1
        assert sums[net_path5.index_of(2)] == 2.0 + 8.0  # neighbors 1, 3

    def test_neighbor_sum_shape_check(self, net_path5):
        with pytest.raises(InvalidActionError):
            net_path5.neighbor_sum(np.zeros(3))


class TestConnectivity:
    def test_is_connected_true(self, net_path5):
        assert net_path5.is_connected()

    def test_is_connected_false(self):
        net = RadioNetwork(nx.Graph([(0, 1), (2, 3)]))
        assert not net.is_connected()
