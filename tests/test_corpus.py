"""Tests for the corpus layer (repro.corpus): array-native generation,
the mmap store, shared-memory workers, and the front-door integration.

The load-bearing contracts:

1. **Bit-compatibility** — the cell-grid generators consume the same
   rng stream and emit the same edge set as the networkx reference
   generators in :mod:`repro.graphs`, so corpora built either way are
   interchangeable.
2. **Round-trip fidelity** — generate, persist, mmap-load, run: the
   result, steps, trace totals, and final rng state are bit-identical
   to running on the in-memory original (and on the networkx twin).
3. **Zero-copy fan-out** — pooled trials receive the graph through
   shared memory; worker payloads carry a handle of a few hundred
   bytes, and parallel trials match serial ones bit-for-bit.
"""

from __future__ import annotations

import json
import pickle

import networkx as nx
import numpy as np
import pytest

import repro.api as api
from repro import corpus, graphs
from repro.analysis.experiments import (
    run_report_trials,
    run_trials,
)
from repro.corpus import generate
from repro.corpus.generate import udg_csr
from repro.corpus.graph import CSRGraph
from repro.corpus.shm import SharedGraph, attach
from repro.graphs.quasi_udg import distance_threshold_rule, parity_rule
from repro.radio.errors import ProtocolError


def _edge_set(indptr: np.ndarray, indices: np.ndarray) -> set:
    out = set()
    for u in range(len(indptr) - 1):
        for v in indices[indptr[u]:indptr[u + 1]]:
            if u < v:
                out.add((u, int(v)))
    return out


def _nx_edge_set(g: nx.Graph) -> set:
    return {(min(u, v), max(u, v)) for u, v in g.edges}


# ---------------------------------------------------------------------------
# 1. Cell-grid generation: bit-compatible with the reference generators.
# ---------------------------------------------------------------------------


class TestGenerationParity:
    @pytest.mark.parametrize("side", [2.0, 4.0, 8.0])
    def test_udg_csr_matches_reference_edges(self, side):
        points = np.random.default_rng(17).uniform(0, side, size=(120, 2))
        indptr, indices = udg_csr(points, radius=1.0)
        ref = graphs.udg_from_points(points, radius=1.0)
        assert _edge_set(indptr, indices) == _nx_edge_set(ref)

    def test_boundary_distances_are_inclusive(self):
        # An exact integer grid puts many pairs at distance exactly 1.0
        # — the tie the reference's cKDTree keeps, so we must too.
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        points = np.column_stack([xs.ravel(), ys.ravel()])
        indptr, indices = udg_csr(points, radius=1.0)
        ref = graphs.udg_from_points(points, radius=1.0)
        assert _edge_set(indptr, indices) == _nx_edge_set(ref)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_udg_csr_same_stream_same_edges(self, seed):
        # Same rng stream (connectivity retries included) and same
        # edge set as the networkx reference — the bit-compat contract.
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        g_csr = corpus.random_udg_csr(60, side=5.5, rng=rng_a)
        g_ref = graphs.random_udg(n=60, side=5.5, rng=rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert _edge_set(*g_csr.csr_arrays()) == _nx_edge_set(g_ref)
        assert g_csr.graph["family"] == g_ref.graph["family"] == "udg"

    def test_grid_udg_csr_parity(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        g_csr = corpus.grid_udg_csr(4, 9, rng_a)
        g_ref = graphs.grid_udg(4, 9, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert _edge_set(*g_csr.csr_arrays()) == _nx_edge_set(g_ref)

    @pytest.mark.parametrize(
        "rule", [distance_threshold_rule(0.85), parity_rule()]
    )
    def test_qudg_parity_deterministic_rules(self, rule):
        points = np.random.default_rng(5).uniform(0, 4, size=(80, 2))
        g_csr = corpus.qudg_csr_graph(
            points, r=0.7, R=1.0, rng=np.random.default_rng(1),
            annulus_rule=rule,
        )
        g_ref = graphs.qudg_from_points(
            points, r=0.7, R=1.0, rng=np.random.default_rng(1),
            annulus_rule=rule,
        )
        assert _edge_set(*g_csr.csr_arrays()) == _nx_edge_set(g_ref)

    def test_tiny_inputs(self):
        indptr, indices = udg_csr(np.empty((0, 2)), radius=1.0)
        assert len(indptr) == 1 and len(indices) == 0
        indptr, indices = udg_csr(np.array([[0.5, 0.5]]), radius=1.0)
        assert len(indptr) == 2 and len(indices) == 0

    def test_too_sparse_point_spread_refused(self):
        points = np.array([[0.0, 0.0], [1e9, 1e9]])
        with pytest.raises(ValueError, match="grid cells"):
            udg_csr(points, radius=1.0)


# ---------------------------------------------------------------------------
# 2. CSRGraph: the graph-protocol surface consumers rely on.
# ---------------------------------------------------------------------------


class TestCSRGraph:
    def _square(self) -> CSRGraph:
        # 4-cycle 0-1-2-3
        indptr = np.array([0, 2, 4, 6, 8], dtype=np.int32)
        indices = np.array([1, 3, 0, 2, 1, 3, 0, 2], dtype=np.int32)
        return CSRGraph(indptr, indices)

    def test_protocol_surface(self):
        g = self._square()
        assert g.number_of_nodes() == len(g) == 4
        assert g.number_of_edges() == 4
        assert not g.is_directed()
        assert list(g.nodes) == [0, 1, 2, 3]
        assert sorted(g.neighbors(0)) == [1, 3]
        assert g.degree(2) == 2
        assert 3 in g and 4 not in g
        assert {(u, v) for u, v in g.edges} == {
            (0, 1), (0, 3), (1, 2), (2, 3)
        }

    def test_to_networkx_round_trips(self):
        g = corpus.random_udg_csr(
            50, side=4.0, rng=np.random.default_rng(2)
        )
        gx = g.to_networkx()
        assert _nx_edge_set(gx) == _edge_set(*g.csr_arrays())
        assert gx.graph["family"] == "udg"
        assert all("pos" in gx.nodes[v] for v in gx.nodes)

    def test_dtype_validation(self):
        with pytest.raises(ValueError):
            CSRGraph(
                np.array([0, 0], dtype=np.int64),
                np.array([], dtype=np.int32),
            )

    def test_runs_as_radio_network_target(self):
        g = self._square()
        report = api.run("decay", g, seed=1)
        assert report.result.heard.shape == (4,)


# ---------------------------------------------------------------------------
# 3. Store round-trip: generate -> persist -> mmap-load -> identical runs.
# ---------------------------------------------------------------------------


class TestStore:
    def _graph(self) -> CSRGraph:
        return corpus.random_udg_csr(
            80, side=5.0, rng=np.random.default_rng(9)
        )

    def test_round_trip_bit_identical(self, tmp_path):
        g = self._graph()
        digest = corpus.save_graph(g, tmp_path / "entry")
        loaded = corpus.load_graph(tmp_path / "entry")
        assert loaded.source == "mmap"
        assert np.array_equal(loaded.indptr, g.indptr)
        assert np.array_equal(loaded.indices, g.indices)
        assert np.array_equal(loaded.positions, g.positions)
        assert loaded.graph["digest"] == digest
        assert loaded.graph["family"] == "udg"

    def test_cached_invariants_round_trip(self, tmp_path):
        g = self._graph()
        corpus.save_graph(g, tmp_path / "entry")
        loaded = corpus.load_graph(tmp_path / "entry")
        from repro.graphs.context import graph_context

        ctx = graph_context(loaded)
        ref = graph_context(g.to_networkx())
        assert loaded.invariants["connected"] is True
        assert loaded.invariants["diameter"] == ref.diameter
        assert np.array_equal(loaded.invariants["degrees"], ref.degrees)
        assert list(loaded.invariants["mis"]) == ref.mis()
        # the context consumes the cache rather than recomputing
        assert ctx.diameter == ref.diameter
        assert ctx.mis() == ref.mis()

    def test_store_dedups_by_digest(self, tmp_path):
        g = self._graph()
        store = corpus.CorpusStore(tmp_path / "store")
        d1 = store.add(g)
        d2 = store.add(g)
        assert d1 == d2
        assert len(store.entries()) == 1
        assert d1 in store
        assert d1[:10] in store
        assert store.path(d1).name.startswith("udg-n80-")

    def test_ambiguous_prefix_refused(self, tmp_path):
        store = corpus.CorpusStore(tmp_path / "store")
        store.add(self._graph())
        store.add(
            corpus.random_udg_csr(
                40, side=3.5, rng=np.random.default_rng(4)
            )
        )
        with pytest.raises(ValueError, match="ambiguous"):
            store.path("")

    def test_unknown_digest_refused(self, tmp_path):
        with pytest.raises(KeyError):
            corpus.CorpusStore(tmp_path / "store").path("feedface")

    def test_not_an_entry_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            corpus.load_graph(tmp_path)

    def test_wrong_format_refused(self, tmp_path):
        entry = tmp_path / "entry"
        corpus.save_graph(self._graph(), entry)
        meta = json.loads((entry / "meta.json").read_text())
        meta["format"] = 99
        (entry / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            corpus.load_graph(entry)

    def test_networkx_graphs_persist_too(self, tmp_path):
        g = graphs.random_udg(n=40, side=3.5, rng=np.random.default_rng(6))
        digest = corpus.save_graph(g, tmp_path / "entry")
        loaded = corpus.load_graph(tmp_path / "entry")
        assert loaded.graph["digest"] == digest
        assert _edge_set(*loaded.csr_arrays()) == _nx_edge_set(g)

    def test_label_carrying_graphs_refused(self, tmp_path):
        g = nx.relabel_nodes(nx.path_graph(4), {0: "a"})
        with pytest.raises(ValueError, match="identity-labeled"):
            corpus.save_graph(g, tmp_path / "entry")


# ---------------------------------------------------------------------------
# 4. Front-door integration: run(..., corpus=) bit-identical + provenance.
# ---------------------------------------------------------------------------


class TestRunOnCorpus:
    def _twins(self):
        g_csr = corpus.random_udg_csr(
            60, side=4.0, rng=np.random.default_rng(21)
        )
        g_ref = graphs.random_udg(
            n=60, side=4.0, rng=np.random.default_rng(21)
        )
        return g_csr, g_ref

    def test_mmap_run_matches_networkx_run_exactly(self, tmp_path):
        g_csr, g_ref = self._twins()
        corpus.save_graph(g_csr, tmp_path / "entry")
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        on_corpus = api.run("mis", corpus=tmp_path / "entry", rng=rng_a)
        on_nx = api.run("mis", g_ref, rng=rng_b)
        assert on_corpus.result == on_nx.result
        assert on_corpus.steps == on_nx.steps
        assert on_corpus.trace == on_nx.trace
        # same protocol work consumes the same randomness
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_corpus_provenance_names_the_instance(self, tmp_path):
        g_csr, _ = self._twins()
        digest = corpus.save_graph(g_csr, tmp_path / "entry")
        report = api.run("mis", corpus=tmp_path / "entry", seed=3)
        prov = report.provenance["corpus"]
        assert prov == {"digest": digest, "source": "mmap", "n": 60}

    def test_networkx_runs_have_no_corpus_provenance(self):
        _, g_ref = self._twins()
        assert api.run("decay", g_ref, seed=1).provenance["corpus"] is None

    def test_corpus_and_target_refused(self):
        g_csr, g_ref = self._twins()
        with pytest.raises(ProtocolError, match="not both"):
            api.run("mis", g_ref, corpus=g_csr, seed=1)

    @pytest.mark.parametrize("name", ["broadcast", "leader", "partition"])
    def test_graph_protocols_take_csr_targets(self, name):
        # The graph-accepting protocols run on a CSRGraph exactly as on
        # its networkx materialization, at both fidelity levels (both
        # partition engines).
        g_csr, _ = self._twins()
        if name == "partition":
            reference = api.ExecutionPolicy(engine="reference")
            variants = [(None, None), (None, reference)]
        else:
            packet = api.get_protocol(name).config_cls(packet=True)
            variants = [(None, None), (packet, None)]
        for config, policy in variants:
            on_csr = api.run(
                name, corpus=g_csr, seed=1, config=config, policy=policy
            )
            on_nx = api.run(
                name, g_csr.to_networkx(), seed=1, config=config,
                policy=policy,
            )
            assert on_csr.result == on_nx.result
            assert on_csr.steps == on_nx.steps

    def test_wakeup_refuses_corpus(self):
        g_csr, _ = self._twins()
        with pytest.raises(ProtocolError):
            api.run("wakeup", corpus=g_csr, seed=1)

    def test_icp_keeps_corpus_support(self):
        # icp's setup pipeline (greedy MIS, partition draw, schedule)
        # is CSR-clean end to end.
        g_csr, _ = self._twins()
        report = api.run("icp", corpus=g_csr, seed=2)
        assert int((report.result.knowledge >= 0).sum()) > 1


# ---------------------------------------------------------------------------
# 5. Shared memory: publish/attach, tiny handles, cleanup.
# ---------------------------------------------------------------------------


class TestSharedMemory:
    def test_publish_attach_round_trip(self):
        g = corpus.random_udg_csr(
            50, side=4.0, rng=np.random.default_rng(8)
        )
        with SharedGraph.publish(g) as shared:
            attached = attach(shared.handle)
            assert attached.source == "shm"
            assert np.array_equal(attached.indptr, g.indptr)
            assert np.array_equal(attached.indices, g.indices)
            assert np.array_equal(attached.positions, g.positions)
            assert attached.graph["family"] == "udg"
            # per-process attach cache: same handle, same object
            assert attach(shared.handle) is attached

    def test_handle_is_tiny_whatever_the_graph(self):
        g = corpus.random_udg_csr(
            400, side=11.0, rng=np.random.default_rng(8)
        )
        with SharedGraph.publish(g) as shared:
            handle_bytes = len(pickle.dumps(shared.handle))
            graph_bytes = len(pickle.dumps((g.indptr, g.indices)))
            assert handle_bytes < 1024
            assert handle_bytes * 10 < graph_bytes


# ---------------------------------------------------------------------------
# 6. Pooled trials: zero-copy workers, bit-identical to serial.
# ---------------------------------------------------------------------------


def _mis_size_measure(rng: np.random.Generator, graph) -> float:
    return float(api.run("mis", corpus=graph, rng=rng).result.size)


class TestParallelCorpusTrials:
    def _graph(self):
        return corpus.random_udg_csr(
            60, side=4.0, rng=np.random.default_rng(13)
        )

    def test_corpus_trials_parallel_matches_serial(self):
        g = self._graph()
        parallel = run_trials(
            _mis_size_measure, 4, seed=5, processes=2, corpus=g
        )
        serial = run_trials(
            _mis_size_measure, 4, seed=5, processes=1, corpus=g
        )
        assert parallel == serial

    def test_corpus_serial_path_matches_plain_run_trials(self):
        g = self._graph()
        direct = run_trials(
            lambda rng: _mis_size_measure(rng, g), 3, seed=5
        )
        assert (
            run_trials(
                _mis_size_measure, 3, seed=5, processes=1, corpus=g
            )
            == direct
        )

    def test_report_trials_share_memory_and_match_serial(self):
        g = self._graph()
        pooled = run_report_trials(
            "mis", n_trials=3, seed=5, processes=2, corpus=g
        )
        serial = run_report_trials(
            "mis", n_trials=3, seed=5, processes=1, corpus=g
        )
        for a, b in zip(pooled, serial):
            assert a.result == b.result
            assert a.steps == b.steps
            assert a.trace == b.trace
        # provenance names the transport faithfully
        assert {r.provenance["corpus"]["source"] for r in pooled} <= {
            "shm", "memory"
        }

    def test_report_trials_refuse_target_plus_corpus(self):
        g = self._graph()
        with pytest.raises(ProtocolError, match="not both"):
            run_report_trials("mis", g, 2, 0, corpus=g)


# ---------------------------------------------------------------------------
# 7. CLI: --corpus runs a stored entry through the same front door.
# ---------------------------------------------------------------------------


class TestCLICorpus:
    def test_corpus_flag_runs_entry(self, tmp_path, capsys):
        from repro.cli import main

        g = corpus.random_udg_csr(
            50, side=4.0, rng=np.random.default_rng(7)
        )
        store = corpus.CorpusStore(tmp_path)
        entry = store.path(store.add(g))
        code = main(
            ["mis", "--corpus", str(entry), "--seed", "3", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 50
        assert report["valid"] is True

    @pytest.mark.parametrize("name", ["broadcast", "leader", "partition"])
    def test_corpus_flag_runs_graph_protocols(self, name, tmp_path, capsys):
        from repro.cli import main

        g = corpus.random_udg_csr(
            50, side=4.0, rng=np.random.default_rng(7)
        )
        store = corpus.CorpusStore(tmp_path)
        entry = store.path(store.add(g))
        code = main([name, "--corpus", str(entry), "--seed", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 50


class TestGeneratorEdgeCases:
    """Validation and refusal branches of the array-native generators."""

    def test_udg_csr_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 2\) point array"):
            udg_csr(np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"\(n, 2\) point array"):
            udg_csr(np.zeros(8))

    def test_udg_csr_graph_wraps_with_metadata(self):
        points = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]])
        g = generate.udg_csr_graph(points, radius=1.0)
        assert isinstance(g, CSRGraph)
        assert g.number_of_nodes() == 3
        assert _edge_set(*g.csr_arrays()) == {(0, 1)}
        assert g.graph["family"] == "udg"
        assert g.graph["radius"] == 1.0
        assert np.array_equal(g.positions, points)

    def test_int32_edge_overflow_refused(self, monkeypatch):
        # The real bound needs > 2^31 directed edges (terabytes);
        # lower it so the guard itself is exercised.
        monkeypatch.setattr(generate, "_INT32_MAX", 4)
        points = np.zeros((4, 2))  # coincident: 12 directed edges
        with pytest.raises(ValueError, match="overflow the int32"):
            udg_csr(points)

    def test_random_udg_csr_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            corpus.random_udg_csr(0, 4.0, np.random.default_rng(0))

    def test_random_udg_csr_connectivity_retries_exhaust(self):
        # n=3 in a 40x40 square at radius 1 is essentially never
        # connected; two attempts must exhaust and refuse.
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="could not sample a connected"):
            corpus.random_udg_csr(3, 40.0, rng, max_attempts=2)

    def test_grid_udg_csr_rejects_empty_grid(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least 1x1"):
            corpus.grid_udg_csr(0, 3, rng)

    def test_qudg_rejects_bad_radii(self):
        rng = np.random.default_rng(0)
        points = np.zeros((2, 2))
        with pytest.raises(ValueError, match="0 < r <= R"):
            corpus.qudg_csr_graph(points, r=2.0, R=1.0, rng=rng)
        with pytest.raises(ValueError, match="0 < r <= R"):
            corpus.qudg_csr_graph(points, r=0.0, R=1.0, rng=rng)

    def test_qudg_rejects_wrong_shape(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"\(n, 2\) point array"):
            corpus.qudg_csr_graph(np.zeros((3, 4)), r=0.5, R=1.0, rng=rng)

    def test_qudg_single_point(self):
        rng = np.random.default_rng(0)
        g = corpus.qudg_csr_graph(
            np.array([[0.5, 0.5]]), r=0.5, R=1.0, rng=rng
        )
        assert g.number_of_nodes() == 1
        assert g.number_of_edges() == 0
        assert g.graph["family"] == "quasi-udg"

    def test_qudg_default_rule_is_reproducible_bernoulli(self):
        # annulus_rule=None falls back to bernoulli_rule(0.5): the
        # stochastic default draws in sorted pair order, so two
        # same-seeded rngs build the identical graph.
        points = np.random.default_rng(11).uniform(0, 6, size=(80, 2))
        a = corpus.qudg_csr_graph(
            points, r=0.6, R=1.2, rng=np.random.default_rng(3)
        )
        b = corpus.qudg_csr_graph(
            points, r=0.6, R=1.2, rng=np.random.default_rng(3)
        )
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        # Hard edges (d <= r) are always present; the annulus makes it
        # a supergraph of the r-disk graph and a subgraph of the R one.
        hard = _edge_set(*udg_csr(points, radius=0.6))
        wide = _edge_set(*udg_csr(points, radius=1.2))
        got = _edge_set(*a.csr_arrays())
        assert hard <= got <= wide
