"""The transmitter-list chunk path: fault filter, product kernel, end to end.

Decay, EstimateEffectiveDegree and Radio MIS blocks execute as
:class:`~repro.engine.runner.StreamedWindow` chunks: sampled
transmitter pairs, filtered by the fault layer, delivered by one
sparse product, folded as reception triples. Every surface is pinned
against a mask-materializing twin:

* keyed rows: drawn one at a time they equal the whole-block draw, and
  drawing never touches the protocol generator;
* the transmitter-list fault filter
  (:meth:`~repro.faults.state.FaultState.filter_coo`) and the point-wise
  deafness test (:meth:`~repro.faults.state.FaultState.deaf_at`)
  against the window forms, including realized counters;
* the transmitter-list product
  (:meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`) against
  step-wise delivery and independent slab references on every regime
  the routed kernels used to split between, and its packing bound at
  its edge;
* end to end: Decay and full Radio MIS on the transmitter-list path
  bit-identical to their step-wise references — across arbitrary
  chunk splits, streaming budgets, and fault schedules whose
  jam windows straddle chunk and section boundaries — plus the refusal
  of the removed ``delivery`` knob, the per-run reset of the
  provenance counters, kernel counters that follow what ran, and the
  stage split of mask windows.
"""

from __future__ import annotations

import time

import numpy as np
import networkx as nx
import pytest
import scipy.sparse as sp

import repro.api as api
from repro.api import DecayConfig
from repro.core import (
    Decay,
    EstimateEffectiveDegree,
    MISConfig,
    compute_mis,
    compute_mis_reference,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    run_decay,
    run_decay_reference,
)
from repro.engine import (
    STREAM_CELL_BYTES,
    StreamedWindow,
    WindowedRunner,
)
from repro.engine.kernels import DeliveryKernels, coo_pack_shift
from repro.engine.sampler import (
    STREAM_VERSION,
    RowSampler,
    draw_block_key,
)
from repro.faults.schedule import FaultSchedule, Jam
from repro.faults.state import FaultState
from repro.graphs.context import graph_context
from repro.radio.errors import ProtocolError
from repro.radio.network import NO_SENDER, RadioNetwork
from repro.radio.protocol import run_steps


def _udg(n: int, seed: int) -> nx.Graph:
    from repro import graphs

    side = float(np.sqrt(n * np.pi / 9.0))
    return graphs.random_udg(
        n, side, np.random.default_rng(seed), connected=False
    )


# ---------------------------------------------------------------------------
# Keyed rows: one row at a time equals the block draw
# ---------------------------------------------------------------------------


class TestFusedCoinArithmetic:
    @pytest.mark.parametrize("rows,n", [(1, 1), (3, 7), (5, 64), (2, 129)])
    def test_fused_rows_match_block_draw(self, rows, n):
        """Drawing a block's rows one at a time (the step-wise twins'
        access pattern) reproduces the whole-block draw pair for pair,
        for Decay-style rows and for EED-style column factors that
        need thinning."""
        height = 40 * rows + 1
        row_probs = np.linspace(0.05, 0.95, height)
        members = np.ones(n, dtype=bool)
        for weights in (None, np.linspace(0.0, 1.0, n)):
            whole = RowSampler(20240907, members, row_probs, weights)
            steps, nodes = whole.sample(0, height)
            single = RowSampler(20240907, members, row_probs, weights)
            for t in range(height):
                _, got = single.sample(t, t + 1)
                np.testing.assert_array_equal(got, nodes[steps == t])

    def test_launch_states_do_not_advance_rng(self):
        """Building a sampler and drawing rows never touch the protocol
        generator; only the block key draw does."""
        rng = np.random.default_rng(5)
        key = draw_block_key(rng)
        before = rng.bit_generator.state
        sampler = RowSampler(key, np.ones(10, dtype=bool), np.full(4, 0.5))
        sampler.sample(0, 4)
        assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# The transmitter-list fault filter + point-wise deafness
# ---------------------------------------------------------------------------


def _fault_state(n: int = 40) -> FaultState:
    schedule = FaultSchedule(
        crashes=((3, 15), (8, 2)),
        joins=((5, 9), (11, 30)),
        sleeps=((7, 4, 22), (13, 0, 6)),
        jams=(Jam(5, 18, (1, 2, 7)), Jam(20, 26, None)),
        tx_prob=((9, 0.4), (17, 0.85)),
        energy=((12, 3), (19, 5)),
        seed=11,
    )
    return FaultState(schedule, n)


class TestFusedFaultTransform:
    @pytest.mark.parametrize("start", [0, 7, 13])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_inplace_transform_matches_window_form(self, start, restricted):
        """The transmitter-list filter realizes the window transform's
        effective transmitters, counters and energy ledger — for
        intended transmitters anywhere, or confined to a live set."""
        n = 40
        rng = np.random.default_rng(start + 1)
        for density in (0.05, 0.4):
            masks = rng.random((12, n)) < density
            if restricted:
                masks[:, np.arange(n) % 3 != 0] = False

            ref_state = _fault_state(n)
            effective, _ = ref_state.transform_window(masks.copy(), start)

            coo_state = _fault_state(n)
            steps, nodes = np.nonzero(masks)
            steps, nodes = coo_state.filter_coo(
                steps.astype(np.int64), nodes.astype(np.int64), start, 12
            )
            eff_steps, eff_nodes = np.nonzero(effective)
            np.testing.assert_array_equal(steps, eff_steps)
            np.testing.assert_array_equal(nodes, eff_nodes)
            assert dict(coo_state.realized) == dict(ref_state.realized)
            assert (
                coo_state.energy_remaining == ref_state.energy_remaining
            ).all()

    def test_inplace_counters_accumulate_across_chunks(self):
        """Chunked transmitter-list filters realize the same effective
        transmitters, counters and energy ledger as one whole-window
        transform."""
        n = 40
        rng = np.random.default_rng(3)
        masks = rng.random((24, n)) < 0.5

        whole = _fault_state(n)
        effective, _ = whole.transform_window(masks.copy(), 0)

        chunked = _fault_state(n)
        kept = np.zeros_like(masks)
        for start, stop in ((0, 6), (6, 11), (11, 17), (17, 24)):
            steps, nodes = np.nonzero(masks[start:stop])
            steps, nodes = chunked.filter_coo(
                steps.astype(np.int64), nodes.astype(np.int64),
                start, stop - start,
            )
            kept[start + steps, nodes] = True
        assert (kept == effective).all()
        assert dict(chunked.realized) == dict(whole.realized)
        assert (
            chunked.energy_remaining == whole.energy_remaining
        ).all()

    def test_deaf_at_matches_deaf_window(self):
        n = 40
        state = _fault_state(n)
        start, width = 3, 30
        alive = state.alive_window(start, width)
        deaf = state.deaf_window(start, width, alive)
        rng = np.random.default_rng(8)
        steps = rng.integers(start, start + width, size=200)
        nodes = rng.integers(0, n, size=200)
        point = state.deaf_at(steps, nodes)
        assert (point == deaf[steps - start, nodes]).all()


# ---------------------------------------------------------------------------
# The transmitter-list product against step-wise delivery and the slabs
# ---------------------------------------------------------------------------


def _product(kern, masks, counters=None):
    """Run ``masks`` through ``execute_coo`` as transmitter pairs and
    scatter the reception triples back into a hear slab."""
    w, n = masks.shape
    tx_step, tx_node = np.nonzero(masks)
    step, node, sender = kern.execute_coo(w, tx_step, tx_node, counters)
    assert step.dtype == node.dtype == sender.dtype == np.int64
    hear = np.full((w, n), NO_SENDER, dtype=np.int64)
    hear[step, node] = sender
    return hear


def _step_wise(g, masks):
    """The step-wise reference: one ``RadioNetwork.deliver`` per row."""
    net = RadioNetwork(g)
    return np.stack([net.deliver(m) for m in masks])


def _slab(g, masks, slab_mode, mask_window):
    """A comparison hear slab, independent of ``execute_coo``'s
    arithmetic except for ``"auto"``: ``"dense"`` is an exact int64
    dense matmul of the masks with the adjacency, ``"sparse"`` gathers
    each transmitter's neighbor list and bincounts (the arithmetic of
    the removed dense and gather kernels); ``"auto"`` is the engine's
    own route for a window read off masks, the runner's chunk loop."""
    w, n = masks.shape
    if slab_mode == "auto":
        window, hear = mask_window(masks)
        api.ExecutionPolicy().runner(RadioNetwork(g)).run(window)
        return hear
    adj = nx.to_scipy_sparse_array(g, nodelist=range(n), format="csr")
    if slab_mode == "dense":
        tx = masks.astype(np.int64)
        dense = adj.toarray().astype(np.int64)
        counts = tx @ dense
        idsum = (tx * (np.arange(n) + 1)) @ dense
    else:
        counts = np.zeros((w, n), dtype=np.int64)
        idsum = np.zeros((w, n), dtype=np.int64)
        for t, u in zip(*np.nonzero(masks)):
            nbrs = adj.indices[adj.indptr[u] : adj.indptr[u + 1]]
            np.add.at(counts[t], nbrs, 1)
            np.add.at(idsum[t], nbrs, u + 1)
    hear = np.full((w, n), NO_SENDER, dtype=np.int64)
    clean = (counts == 1) & ~masks
    hear[clean] = idsum[clean] - 1
    return hear


def _regime(name):
    """``(graph, masks)`` for one of the regimes the routed COO kernels
    used to split between."""
    rng = np.random.default_rng(len(name))
    if name == "half-duplex":
        # Adjacent transmitters on a path each have exactly one
        # transmitting neighbor, the other, yet hear nothing: a node
        # never listens in a step it transmits.
        g = nx.path_graph(12)
        masks = np.zeros((4, 12), dtype=bool)
        masks[0, [3, 4]] = True
        masks[1, [3, 4, 5]] = True
        masks[2, [0, 1, 10, 11]] = True
        masks[3, ::2] = True
        return g, masks
    if name == "star-hub":
        # The hub sits at maximum degree: it hears a lone leaf, collides
        # on two, and is deaf while it transmits itself.
        g = nx.star_graph(40)
        masks = np.zeros((5, 41), dtype=bool)
        masks[0, 7] = True
        masks[1, [7, 8]] = True
        masks[2, 0] = True
        masks[3, [0, 9]] = True
        masks[4, 1:] = True
        return g, masks
    if name == "isolated":
        # Isolated transmitters reach nobody: one row's product is
        # empty, another mixes them with a connected pair.
        g = nx.empty_graph(30)
        g.add_edges_from([(0, 1), (1, 2), (20, 21)])
        masks = np.zeros((3, 30), dtype=bool)
        masks[0, [5, 9, 14]] = True
        masks[1, [0, 5, 20]] = True
        masks[2, [2, 29]] = True
        return g, masks
    if name == "w1":
        return _udg(120, 13), rng.random((1, 120)) < 0.1
    if name == "wide":
        width = 41
        return _udg(120, 13), rng.random((width, 120)) < 0.1
    if name == "empty-rows":
        # Quiet rows between busy ones, at both ends and in the middle.
        masks = np.zeros((11, 120), dtype=bool)
        for row in (1, 2, 6, 9):
            masks[row] = rng.random(120) < 0.1
        return _udg(120, 13), masks
    assert name == "gnp-half"
    # At p = 0.5 every listener collides; a lone transmitter and a
    # pair lead the block so the dense graph's clean cells show too.
    g = nx.gnp_random_graph(200, 0.5, seed=17)
    masks = rng.random((6, 200)) < 0.5
    masks[:2] = False
    masks[0, 4] = True
    masks[1, [4, 5]] = True
    return g, masks


class TestCooKernels:
    @pytest.mark.parametrize("slab_mode", ["auto", "sparse", "dense"])
    @pytest.mark.parametrize(
        "family,width,density",
        [
            ("udg", 2, 0.1),
            ("udg", 12, 0.1),
            ("gnp", 6, 0.5),
            ("udg", 5, 0.0),
        ],
    )
    def test_coo_matches_slab(
        self, slab_mode, family, width, density, mask_window
    ):
        """The product equals each comparison slab (``slab_mode``, see
        :func:`_slab`) and the step-wise reference on random blocks;
        its counters account every row, busy rows as ``coo-spmm``."""
        n = 120
        if family == "udg":
            g = _udg(n, 13)
        else:
            g = nx.gnp_random_graph(n, 0.4, seed=13)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, n)
        rng = np.random.default_rng(width)
        masks = rng.random((width, n)) < density

        slab = _slab(g, masks, slab_mode, mask_window)

        counters: dict[str, int] = {}
        hear = _product(kern, masks, counters)
        assert (hear == slab).all()
        assert (hear == _step_wise(g, masks)).all()
        busy = int(masks.any(axis=1).sum())
        assert counters.get("coo-spmm", 0) == busy
        assert counters.get("skip-empty", 0) == width - busy

    @pytest.mark.parametrize(
        "regime",
        [
            "half-duplex",
            "star-hub",
            "isolated",
            "w1",
            "wide",
            "empty-rows",
            "gnp-half",
        ],
    )
    def test_product_regimes(self, regime, mask_window):
        """Each regime the routed kernels used to split between: the
        product equals step-wise delivery and every comparison slab,
        on a network's shared adjacency and on kernels built from bare
        CSR arrays."""
        g, masks = _regime(regime)
        net = RadioNetwork(g)
        want = _step_wise(g, masks)
        assert (want != NO_SENDER).any()
        for kern in (
            net._delivery_kernels(),
            DeliveryKernels(net._adj.indptr, net._adj.indices, net.n),
        ):
            counters: dict[str, int] = {}
            assert (_product(kern, masks, counters) == want).all()
            busy = int(masks.any(axis=1).sum())
            assert counters.get("coo-spmm", 0) == busy
            assert sum(counters.values()) == masks.shape[0]
        for mode in ("auto", "sparse", "dense"):
            assert (_slab(g, masks, mode, mask_window) == want).all(), mode

    def test_shares_the_network_adjacency(self):
        """Networks over one graph multiply by the graph's one A + 2I:
        it exists right after construction, before any window runs,
        every network's kernel holds it, and no kernel holds another
        copy of the adjacency."""
        g = _udg(90, 5)
        net = RadioNetwork(g)
        matrix = graph_context(g)._plus_2i
        assert matrix is not None
        other = RadioNetwork(g)
        assert net._plus_2i is other._plus_2i is matrix
        want = net._adj.toarray() + 2.0 * np.eye(net.n)
        assert (matrix.toarray() == want).all()
        masks = np.random.default_rng(2).random((9, net.n)) < 0.2
        for network in (net, other):
            kern = network._delivery_kernels()
            assert kern.matrix is matrix
            _product(kern, masks)
            assert kern.matrix is matrix
            held = [
                value
                for value in vars(kern).values()
                if isinstance(value, (np.ndarray, sp.sparray))
                and value is not matrix
            ]
            # Per-node vectors only: degrees and packed ids.
            assert held and all(
                isinstance(value, np.ndarray) and value.size == net.n
                for value in held
            )

    def test_coo_triples_are_int64_and_clean(self):
        g = _udg(90, 5)
        net = RadioNetwork(g)
        kern = DeliveryKernels(net._adj.indptr, net._adj.indices, net.n)
        rng = np.random.default_rng(1)
        masks = rng.random((9, net.n)) < 0.2
        step, node, sender = kern.execute_coo(9, *np.nonzero(masks), {})
        assert step.dtype == node.dtype == sender.dtype == np.int64
        # Clean receptions never land on a transmitter.
        assert not masks[step, node].any()
        # Triples come step-ascending.
        assert (np.diff(step) >= 0).all()

    @pytest.mark.parametrize("bad", [-1, 40])
    def test_out_of_range_nodes_refused(self, bad):
        kern = RadioNetwork(_udg(40, 3))._delivery_kernels()
        with pytest.raises(ValueError, match="node ids"):
            kern.execute_coo(
                1,
                np.zeros(2, dtype=np.int64),
                np.array([3, bad], dtype=np.int64),
            )

    def test_zero_width_and_pairless_blocks(self):
        kern = RadioNetwork(_udg(40, 3))._delivery_kernels()
        empty = np.empty(0, dtype=np.int64)
        counters: dict[str, int] = {}
        for w in (0, 4):
            step, node, sender = kern.execute_coo(w, empty, empty, counters)
            assert step.size == node.size == sender.size == 0
        assert counters == {"skip-empty": 4}


class TestPackingBound:
    @pytest.mark.parametrize("degree", [0, 1, 2**20, 2**25, 2**26 - 2])
    def test_holds_below_two_to_the_26_nodes(self, degree):
        """n = 2^26 - 1 packs with K = 26 at any degree below n: the
        largest, 2^26 - 2, sits exactly on (degree + 2) * 2^27 = 2^53."""
        assert coo_pack_shift(2**26 - 1, degree) == 26

    def test_edge_of_the_bound(self):
        # 2^26 nodes need K = 27: degree 2^25 - 2 sits exactly on
        # (max_degree + 2) * 2^28 = 2^53, one more breaks it.
        assert coo_pack_shift(2**26, 2**25 - 2) == 27
        for degree in (2**25 - 1, 2**25):
            with pytest.raises(ProtocolError, match="coo-spmm") as err:
                coo_pack_shift(2**26, degree)
            assert "(max_degree + 2) * 2^28 <= 2^53" in str(err.value)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 1000, 1023, 1024])
    def test_shift_exceeds_node_count(self, n):
        shift = coo_pack_shift(n, n - 1)
        assert 2**shift > n >= 2 ** (shift - 1)

    def test_kernel_refuses_beyond_the_bound(self, mask_window):
        """A kernel whose degrees break the bound refuses by name
        instead of rounding — runner windows included, since they run
        the same product."""
        net = RadioNetwork(nx.path_graph(10))
        kern = net._delivery_kernels()
        kern.max_degree = 2**50
        tx = np.array([3], dtype=np.int64)
        with pytest.raises(ProtocolError, match="coo-spmm"):
            kern.execute_coo(1, np.zeros(1, dtype=np.int64), tx)
        masks = np.zeros((2, 10), dtype=bool)
        masks[1, 3] = True
        with pytest.raises(ProtocolError, match="coo-spmm"):
            WindowedRunner(net, 2).run(mask_window(masks)[0])


# ---------------------------------------------------------------------------
# The removed delivery knob refuses
# ---------------------------------------------------------------------------


class TestPipelineMode:
    def test_forced_pipeline_runs_end_to_end_when_available(self):
        """No installed package makes ``delivery="pipeline"`` (or any
        delivery mode) available any more: the front door refuses the
        knob by name, naming the accepted policy fields."""
        from repro.engine.policy import POLICY_FIELDS

        g = _udg(150, 21)
        with pytest.raises(ProtocolError, match="delivery") as err:
            api.run(
                "decay", g, seed=3,
                policy=api.ExecutionPolicy(delivery="pipeline"),
            )
        assert str(POLICY_FIELDS) in str(err.value)


# ---------------------------------------------------------------------------
# End to end: the transmitter-list path against the step-wise references
# ---------------------------------------------------------------------------


#: A short EED ladder keeps the step-wise twins quick.
_MIS_CONFIG = MISConfig(eed_C=2, decay_amplification=2.0)

_TRACE_TOTALS = ("total_steps", "total_transmissions", "total_receptions")


def _rows(k: int, n: int) -> dict:
    """Policy fields whose budget buys exactly ``k``-row chunks over
    ``n`` nodes."""
    return {"mem_budget": k * n * STREAM_CELL_BYTES}


def _mis_run(g, seed, reference, faults=None, **policy_kw):
    """One MIS run: ``(result, trace totals, realized faults, probe)``,
    the probe being the next rng draws after the run."""
    net = RadioNetwork(g, faults=faults)
    rng = np.random.default_rng(seed)
    if reference:
        result = compute_mis_reference(net, rng, _MIS_CONFIG)
    else:
        result = compute_mis(
            net, rng, _MIS_CONFIG,
            policy=api.ExecutionPolicy(faults=faults, **policy_kw),
        )
    totals = tuple(getattr(net.trace, a) for a in _TRACE_TOTALS)
    realized = (
        dict(net._fault_state.realized) if net._fault_state else None
    )
    return result, totals, realized, rng.integers(0, 2**63, 4).tolist()


#: Step-wise reference runs, shared across parametrizations.
_REFERENCE_RUNS: dict = {}


def _reference_mis(g, key, seed, faults=None):
    if key not in _REFERENCE_RUNS:
        _REFERENCE_RUNS[key] = _mis_run(g, seed, True, faults=faults)
    return _REFERENCE_RUNS[key]


class TestChunkFolds:
    @staticmethod
    def _block(case, net):
        n = net.n
        if case == "decay-shuffled":
            return Decay(net, np.arange(n) % 2 == 0, iterations=3)
        return EstimateEffectiveDegree(
            net, np.full(n, 0.5), np.ones(n, dtype=bool), C=2
        )

    @pytest.mark.parametrize("case", ["decay-shuffled", "eed-across-levels"])
    def test_fold_equals_step_wise_observe(self, case):
        """A block's chunk fold equals its step-wise ``observe`` in
        chunk shapes the protocols never produce: Decay's with every
        chunk's triples shuffled (the earliest step must win whatever
        the order), EED's run as one window over every level, dense
        ones included, whose 9-row chunks cross its 14-step density
        levels."""
        g = _udg(120, 29)
        stepped = self._block(case, RadioNetwork(g))
        run_steps(stepped, np.random.default_rng(5), stepped.total_steps)

        net = RadioNetwork(g)
        block = self._block(case, net)
        block.bind_key(np.random.default_rng(5))
        shuffle = np.random.default_rng(1)
        shapes = []

        def fold(k, steps, nodes, senders):
            if case == "decay-shuffled":
                order = shuffle.permutation(steps.size)
                steps, nodes = steps[order], nodes[order]
                senders = senders[order]
                fresh = nodes[~block.heard[nodes]]
                shapes.append(np.unique(fresh).size < fresh.size)
            else:
                first, last = block._step, block._step + k - 1
                level = block.steps_per_level
                shapes.append(first // level != last // level)
            block._absorb_coo(k, steps, nodes, senders)

        WindowedRunner(net, 9).run(
            StreamedWindow(block.total_steps, block.transmitters, fold)
        )
        assert block.result() == stepped.result()
        # The chunk shape under test did occur.
        assert any(shapes)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("chunk_steps", [1, 3, 7, 64, 65])
    def test_decay_chunk_boundary_invariance(self, chunk_steps):
        """The transmitter-list path folds identically whatever the
        chunk split — including heights of 1 and heights that straddle
        sweeps — and equals the step-wise reference."""
        g = _udg(130, 31)
        net_a = RadioNetwork(g)
        net_b = RadioNetwork(g)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        active = np.arange(130) % 3 == 0
        ref = run_decay_reference(net_a, active, rng_a, iterations=4)
        out = run_decay(
            net_b, active, rng_b, iterations=4,
            policy=api.ExecutionPolicy(**_rows(chunk_steps, 130)),
        )
        assert out == ref
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert net_a.trace.total_transmissions == (
            net_b.trace.total_transmissions
        )

    @pytest.mark.parametrize("restrict", ["auto", "force", "off"])
    def test_eed_equivalence_across_restriction(self, restrict):
        """EED over a live set of any size — every node (``off``), a
        fifth missing (``auto``), or three nodes (``force``) — equals
        its step-wise reference in 6-row chunks. The engine runs the
        sparse levels as one shared window, so chunks here also cross
        levels; :class:`TestChunkFolds` pins the fold on such chunks."""
        n = 140
        g = _udg(n, 17)
        p = np.where(np.arange(n) % 2 == 0, 0.5, 0.125)
        active = {
            "off": np.ones(n, dtype=bool),
            "auto": np.arange(n) % 5 != 0,
            "force": np.isin(np.arange(n), (3, 40, 41)),
        }[restrict]
        runs = []
        for reference in (False, True):
            net = RadioNetwork(g)
            rng = np.random.default_rng(23)
            if reference:
                res = estimate_effective_degree_reference(
                    net, p, active, rng, C=2
                )
            else:
                res = estimate_effective_degree(
                    net, p, active, rng, C=2,
                    policy=api.ExecutionPolicy(**_rows(6, n)),
                )
            runs.append((res, net, rng.bit_generator.state))
        (ref, net_a, state_a), (out, net_b, state_b) = runs
        assert out == ref
        assert state_a == state_b
        assert net_a.trace.total_transmissions == (
            net_b.trace.total_transmissions
        )

    @pytest.mark.parametrize(
        "policy_kw",
        [
            {},
            _rows(7, 150),
            _rows(1, 150),
            {"mem_budget": 64 << 10},
        ],
    )
    def test_mis_equivalence(self, policy_kw):
        g = _udg(150, 41)
        ref = _reference_mis(g, "mis", 11)
        out = _mis_run(g, 11, False, **policy_kw)
        assert out[0].mis == ref[0].mis
        assert out[0].steps_used == ref[0].steps_used
        assert out[0].history == ref[0].history
        assert out[1:] == ref[1:]

    @pytest.mark.parametrize("chunk_steps", [3, 11, None])
    def test_mis_with_faults_straddling_boundaries(self, chunk_steps):
        """Jam windows and sleeps that straddle chunk AND section
        boundaries realize identically through the transmitter-list
        filter and the step-wise mask transforms."""
        g = _udg(130, 51)
        # One Decay section spans ceil(log2 130)*iters steps; windows
        # below are sized to cross both chunk splits and the
        # mis/decay-marked -> mis/decay-mis section boundary.
        faults = FaultSchedule(
            crashes=((5, 60),),
            joins=((9, 35),),
            sleeps=((11, 20, 160),),
            jams=(
                Jam(25, 95, (1, 2, 3, 11)),
                Jam(140, 260, None),
            ),
            tx_prob=((7, 0.6),),
            energy=((13, 8),),
            seed=4,
        )
        kw = _rows(chunk_steps, 130) if chunk_steps is not None else {}
        ref = _reference_mis(g, "faults", 19, faults=faults)
        out = _mis_run(g, 19, False, faults=faults, **kw)
        assert out[0].mis == ref[0].mis
        assert out[1:] == ref[1:]

    def test_validated_run_still_green(self):
        """The validating runner expands every transmitter-list chunk
        back to masks and cross-checks it against the step replay; the
        validated run equals the plain one."""
        g = _udg(90, 61)
        report = api.run(
            "mis", g, seed=2,
            policy=api.ExecutionPolicy(validate=True),
        )
        plain = api.run("mis", g, seed=2)
        assert report.result == plain.result


# ---------------------------------------------------------------------------
# Provenance: per-run counter reset, stream + timing surfaces
# ---------------------------------------------------------------------------


class TestProvenanceCounters:
    def test_stream_and_timing_in_provenance(self):
        report = api.run("mis", _udg(120, 71), seed=5)
        assert report.provenance["stream"] == STREAM_VERSION
        assert "residual" not in report.provenance
        timing = report.provenance["timing"]
        assert set(timing) == {
            "plan", "coins", "faults", "deliver", "commit"
        }
        assert all(v >= 0.0 for v in timing.values())
        assert timing["deliver"] > 0.0
        assert timing["coins"] > 0.0

    def test_plan_is_the_time_between_windows(self):
        """``plan`` is charged as each window starts, for the protocol's
        own time since the network's previous window ended; ``api.run``
        starts that clock afresh, so an instant left over from before
        the run is never charged."""
        net = RadioNetwork(_udg(120, 81))
        net._window_end = time.perf_counter() - 1000.0
        report = api.run("mis", net, seed=6)
        assert 0.0 < report.provenance["timing"]["plan"] < 1000.0

    def test_counters_reset_per_run_on_reused_network(self):
        """kernel_use and timing describe one run — a second run on the
        same network must not inherit the first run's counts."""
        net = RadioNetwork(_udg(120, 81))
        first = api.run("mis", net, seed=6)
        second = api.run("mis", net, seed=6)
        assert first.provenance["delivery"]["kernel_use"]
        assert first.provenance["delivery"]["kernel_use"] == (
            second.provenance["delivery"]["kernel_use"]
        )

    @pytest.mark.parametrize("protocol", ["decay", "mis"])
    def test_kernel_names_what_ran_not_what_was_probed(self, protocol):
        """A Decay or MIS report's delivery provenance is the row
        counters of the one product that ran — no probed backend, mode
        or kernel family name rides along."""
        report = api.run(protocol, _udg(120, 73), seed=8)
        delivery = report.provenance["delivery"]
        assert set(delivery) == {"kernel_use"}
        assert delivery["kernel_use"]["coo-spmm"] > 0
        assert set(delivery["kernel_use"]) <= {"coo-spmm", "skip-empty"}

    def test_mask_windows_report_stage_split(self):
        """A faulted ICP run — one one-row window per step, the
        default path — splits its chunks into coins/faults/deliver/commit like
        the transmitter-list path: fault filtering shows in ``faults``,
        and every row counts under the product's two counters."""
        from repro.api import ICPConfig

        g = _udg(200, 75)
        faults = FaultSchedule.sample(200, 400, seed=3, crash_rate=0.1,
                                      churn=0.2, jam=0.1)
        report = api.run(
            "icp", g, seed=4, config=ICPConfig(),
            policy=api.ExecutionPolicy(faults=faults),
        )
        timing = report.provenance["timing"]
        assert timing["faults"] > 0.0
        assert timing["coins"] > 0.0 and timing["commit"] > 0.0
        kernel_use = report.provenance["delivery"]["kernel_use"]
        assert set(kernel_use) <= {"coo-spmm", "skip-empty"}
        assert kernel_use["coo-spmm"] > 0

    def test_report_equality_ignores_timing(self):
        g = _udg(80, 95)
        assert api.run("mis", g, seed=4) == api.run("mis", g, seed=4)


# ---------------------------------------------------------------------------
# Decay config sanity for this suite's API use
# ---------------------------------------------------------------------------


def test_decay_config_roundtrip():
    report = api.run(
        "decay", _udg(100, 99), seed=1, config=DecayConfig(iterations=2)
    )
    assert report.steps > 0
