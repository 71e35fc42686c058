"""Keyed row draws, the delivery kernel, removed knobs, live-set work.

Four layers, each pinned independently:

* **Offset draws** (:mod:`repro.engine.sampler`) — a block's rows are
  drawn from one block key, so any row interval can be drawn on its
  own, at any offset, without drawing what precedes it: a sub-interval
  equals the same rows of the whole block, empty intervals are empty,
  the key is the only value taken from the protocol generator (one raw
  draw, whatever its bit generator), and sampling never touches the
  generator.
* **Delivery kernel** (:mod:`repro.engine.kernels`) — the one
  transmitter-pair product is bit-identical to a brute-force dense
  reference on the same CSR in every density regime the removed mode
  router told apart, and its degree state is recomputed from the CSR
  handed in (an induced sub-graph must not inherit a parent's degree
  extremes); the product over an induced sub-graph delivers exactly
  what the full graph delivers on its members.
* **Removed mode registry** — the ``delivery`` knob (and with it every
  mode it named, compiled backends included) and the ``restrict``
  knob are refused with the uniform :class:`ProtocolError` naming the
  accepted policy fields.
* **Live-set execution** — Decay, EED and Radio MIS blocks over sparse
  active sets run on the transmitter-list path, whose work is confined to the
  sampled transmitters; results, steps, per-phase trace totals and the
  final rng state are bit-identical to the step-wise references,
  including under :class:`ValidatingRunner`.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    MISConfig,
    compute_mis,
    compute_mis_reference,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    run_decay,
    run_decay_reference,
)
from repro.engine import StreamedWindow
from repro.engine.kernels import DeliveryKernels
from repro.engine.policy import POLICY_FIELDS, ExecutionPolicy
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.engine.sampler import RowSampler, draw_block_key
from repro.engine.validate import ValidatingRunner
from repro.radio import RadioNetwork
from repro.radio.errors import ProtocolError
from repro.radio.network import NO_SENDER


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


def _rows(k: int, n: int) -> ExecutionPolicy:
    """A policy whose budget buys exactly ``k``-row chunks over ``n``
    nodes."""
    return ExecutionPolicy(mem_budget=k * n * STREAM_CELL_BYTES)


def _rng_state(rng: np.random.Generator):
    return rng.bit_generator.state


# ---------------------------------------------------------------------------
# Offset draws: keyed rows at any interval
# ---------------------------------------------------------------------------


#: Rows per chunk in the interval tests.
_BLOCK = 64


def _ladder(rows: int, span: int = 5) -> np.ndarray:
    """Decay's row factors: ``2^-((t mod span) + 1)``."""
    return 2.0 ** -((np.arange(rows) % span) + 1.0)


def _draw(sampler: RowSampler, start: int, stop: int):
    steps, nodes = sampler.sample(start, stop)
    return steps + start, nodes


def _concat(parts):
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


class TestOffsetDraws:
    def test_jump_transform_matches_bit_generator_advance(self):
        # A block key is exactly one raw output of the protocol
        # generator: drawing it lands where numpy's own ``advance(1)``
        # puts a twin, and a Decay block (engine or step-wise) takes
        # exactly that one draw however many steps it runs.
        for seed in (0, 7, 123):
            rng = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            draw_block_key(rng)
            twin.bit_generator.advance(1)
            assert _rng_state(rng) == _rng_state(twin)
        g = nx.path_graph(30)
        for runner in (run_decay, run_decay_reference):
            rng = np.random.default_rng(4)
            twin = np.random.default_rng(4)
            runner(RadioNetwork(g), np.ones(30, dtype=bool), rng,
                   iterations=6)
            twin.bit_generator.advance(1)
            assert _rng_state(rng) == _rng_state(twin)

    def test_jump_transform_refuses_negative(self):
        members = np.ones(6, dtype=bool)
        with pytest.raises(ValueError, match="row factors"):
            RowSampler(1, members, np.array([0.5, -0.25]))
        with pytest.raises(ValueError, match="column factors"):
            RowSampler(1, members, _ladder(4), np.full(6, -0.5))
        with pytest.raises(ValueError, match="column factors"):
            RowSampler(1, members, _ladder(4), np.full(6, 1.5))

    def test_peek_matches_numpy_block_and_leaves_state(self):
        # Sampling is a pure read of the key: the protocol generator is
        # never touched, and a second sampler on the same key redraws
        # the identical rows.
        rng = np.random.default_rng(2024)
        key = draw_block_key(rng)
        before = _rng_state(rng)
        members = np.arange(57) % 3 != 0
        weights = np.linspace(0.0, 1.0, 57)
        first = RowSampler(key, members, _ladder(90), weights)
        second = RowSampler(key, members, _ladder(90), weights)
        a = _draw(first, 0, 90)
        b = _draw(second, 0, 90)
        assert _rng_state(rng) == before
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[0].size > 0

    def test_coinfield_draw_at_matches_draw_and_slice(self):
        # Any row interval, drawn on its own at any offset, equals the
        # same rows of the whole block.
        n, rows = 97, 3 * _BLOCK + 20
        members = np.zeros(n, dtype=bool)
        members[[1, 5, 8, 44, 90]] = True
        whole = _draw(RowSampler(31, members, _ladder(rows)), 0, rows)
        for start, stop in [(0, 4), (4, 5), (5, 12), (100, 180),
                            (rows - 3, rows)]:
            part = _draw(RowSampler(31, members, _ladder(rows)),
                         start, stop)
            inside = (whole[0] >= start) & (whole[0] < stop)
            np.testing.assert_array_equal(part[0], whole[0][inside])
            np.testing.assert_array_equal(part[1], whole[1][inside])

    def test_coinfield_wide_cols_take_fallback(self):
        # Every member of a wide set, on rows whose probability is 1:
        # each walk's gaps are all 1, so every cell transmits.
        n, rows = 300, 12
        members = np.ones(n, dtype=bool)
        members[::7] = False
        steps, nodes = RowSampler(8, members, np.ones(rows)).sample(
            0, rows
        )
        expected = np.flatnonzero(members)
        assert steps.size == rows * expected.size
        for t in range(rows):
            np.testing.assert_array_equal(nodes[steps == t], expected)

    def test_coinfield_non_pcg64_takes_fallback(self):
        # The key draw works on any bit generator: engine and step-wise
        # Decay agree bit for bit, final generator state included.
        g = nx.gnp_random_graph(40, 0.15, seed=3)
        active = np.arange(40) % 2 == 0
        for bits in (np.random.PCG64DXSM, np.random.MT19937,
                     np.random.Philox):
            rng_a = np.random.Generator(bits(5))
            rng_b = np.random.Generator(bits(5))
            a = run_decay(RadioNetwork(g), active, rng_a, iterations=3)
            b = run_decay_reference(
                RadioNetwork(g), active, rng_b, iterations=3
            )
            np.testing.assert_array_equal(a.heard_from, b.heard_from)
            # (MT19937 states hold arrays: compare the next draws.)
            np.testing.assert_array_equal(
                rng_a.integers(0, 2**63, 4), rng_b.integers(0, 2**63, 4)
            )

    def test_coinfield_fallback_blocks_tall_windows(self):
        # A tall block with dense rows: walks run past their first
        # batch and continue in doubling batches; drawing it in one
        # call, row by row, or chunk by chunk gives the same pairs.
        n, rows = 400, 2 * _BLOCK + 7
        members = np.ones(n, dtype=bool)
        probs = np.full(rows, 0.5)
        whole = _draw(RowSampler(77, members, probs), 0, rows)
        single = RowSampler(77, members, probs)
        by_row = _concat([_draw(single, t, t + 1) for t in range(rows)])
        chunked = RowSampler(77, members, probs)
        by_chunk = _concat([
            _draw(chunked, t, min(t + _BLOCK, rows))
            for t in range(0, rows, _BLOCK)
        ])
        for other in (by_row, by_chunk):
            np.testing.assert_array_equal(other[0], whole[0])
            np.testing.assert_array_equal(other[1], whole[1])

    def test_coinfield_empty_interval(self):
        sampler = RowSampler(0, np.ones(10, dtype=bool), _ladder(20))
        steps, nodes = sampler.sample(5, 5)
        assert steps.size == nodes.size == 0
        # No member, or only probability-0 columns: nothing transmits.
        for members, weights in (
            (np.zeros(10, dtype=bool), None),
            (np.ones(10, dtype=bool), np.zeros(10)),
        ):
            steps, nodes = RowSampler(
                0, members, _ladder(20), weights
            ).sample(0, 20)
            assert steps.size == nodes.size == 0
            assert steps.dtype == nodes.dtype == np.int64


# ---------------------------------------------------------------------------
# Delivery kernels on raw CSR
# ---------------------------------------------------------------------------


def _reference_delivery(adj: np.ndarray, masks: np.ndarray):
    """Brute-force radio semantics on a dense adjacency."""
    w, n = masks.shape
    hear = np.full((w, n), NO_SENDER, dtype=np.int64)
    tx = masks.astype(np.int64)
    counts = tx @ adj
    idsum = (tx * (np.arange(n) + 1)) @ adj
    clean = (counts == 1) & ~masks
    hear[clean] = idsum[clean] - 1
    return hear, int(clean.sum())


def _kernels_for(g: nx.Graph):
    net = RadioNetwork(g)
    csr = net._context.csr
    kern = DeliveryKernels(csr.indptr, csr.indices, net.n)
    return kern, csr.toarray().astype(np.int64)


def _execute(kern: DeliveryKernels, masks: np.ndarray, counters=None):
    """Run a mask block through the product; return its hear slab and
    reception count."""
    w = masks.shape[0]
    steps, nodes = np.nonzero(masks)
    rx_steps, rx_nodes, senders = kern.execute_coo(
        w, steps, nodes, counters=counters
    )
    hear = np.full((w, kern.n), NO_SENDER, dtype=np.int64)
    hear[rx_steps, rx_nodes] = senders
    return hear, int(rx_steps.size)


#: Row densities per regime the removed router told apart (its mode
#: names): sparse rows, dense rows, and windows mixing both.
_REGIMES = {
    "sparse": (0.05,),
    "dense": (0.5,),
    "auto": (0.05, 0.5, 0.0, 0.9),
}


class TestDeliveryKernels:
    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    @pytest.mark.parametrize("width", [5, 40])
    def test_modes_bit_identical_to_reference(self, mode, width):
        # ``mode`` names the density regime (the removed router's
        # modes): the one product is exact in each, at a narrow and a
        # wide width.
        g = nx.gnp_random_graph(48, 0.12, seed=11)
        kern, adj = _kernels_for(g)
        rng = np.random.default_rng(4)
        densities = np.resize(_REGIMES[mode], width)[:, None]
        masks = rng.random((width, kern.n)) < densities
        want, want_rx = _reference_delivery(adj, masks)
        hear, got_rx = _execute(kern, masks)
        np.testing.assert_array_equal(hear, want)
        assert got_rx == want_rx

    @pytest.mark.parametrize(
        "case", ["leading", "trailing", "middle", "no-clean", "one-row"]
    )
    def test_step_mapping_edge_rows(self, case, mask_window):
        # Each clean cell's step comes from the output rows' bounds:
        # empty rows at either end or inside a chunk, rows whose output
        # holds no clean cell, and a one-row chunk, each replayed step
        # by step through ``deliver`` by the validating runner.
        g = nx.gnp_random_graph(40, 0.15, seed=6)
        net = RadioNetwork(g)
        masks = np.random.default_rng(12).random((9, net.n)) < 0.08
        silent = {
            "leading": [0, 1, 2], "trailing": [6, 7, 8],
            "middle": [3, 4, 5], "no-clean": [], "one-row": [],
        }[case]
        masks[silent] = False
        if case == "no-clean":
            # Every node transmits: each output cell is a transmitter's
            # own, so these rows' outputs hold no clean reception.
            masks[[0, 4, 8]] = True
        if case == "one-row":
            masks = masks[4:5]
        runner = ValidatingRunner(net, chunk_steps=masks.shape[0])
        window, hear = mask_window(masks)
        runner.run(window)
        assert runner.steps_checked == masks.shape[0]
        want, _ = _reference_delivery(
            net._context.csr.toarray().astype(np.int64), masks
        )
        np.testing.assert_array_equal(hear, want)
        heard_rows = set(np.flatnonzero((hear != NO_SENDER).any(axis=1)))
        deaf = set(silent) | ({0, 4, 8} if case == "no-clean" else set())
        assert heard_rows == set(range(masks.shape[0])) - deaf

    def test_empty_masks_counted_as_skip(self):
        g = nx.path_graph(10)
        kern, _ = _kernels_for(g)
        counters: dict[str, int] = {}
        hear, rx = _execute(kern, np.zeros((4, 10), dtype=bool), counters)
        assert rx == 0
        assert counters == {"skip-empty": 4}
        assert (hear == NO_SENDER).all()

    def test_counters_account_every_row(self):
        g = nx.gnp_random_graph(40, 0.2, seed=2)
        kern, _ = _kernels_for(g)
        rng = np.random.default_rng(9)
        masks = rng.random((12, kern.n)) < 0.3
        masks[3] = True  # a fully dense row
        masks[5] = False  # and an empty one
        counters: dict[str, int] = {}
        _execute(kern, masks, counters)
        assert counters == {"coo-spmm": 11, "skip-empty": 1}

    def test_degrees_recomputed_from_handed_in_csr(self):
        # An induced sub-CSR's degree state reflects the *sub-graph's*
        # degrees. A star with the hub removed has no edges at all —
        # inheriting the parent's max_degree (n-1) would feed the
        # packing bound the wrong premise.
        g = nx.star_graph(12)  # hub 0, leaves 1..12
        net = RadioNetwork(g)
        full = DeliveryKernels(
            net._context.csr.indptr, net._context.csr.indices, net.n
        )
        assert full.max_degree == 12
        leaves = np.arange(1, 13, dtype=np.int64)
        sub_indptr, sub_indices = net._context.induced_csr(leaves)
        sub = DeliveryKernels(sub_indptr, sub_indices, leaves.size)
        assert sub.max_degree == 0
        assert sub.degrees.sum() == 0

    def test_zero_node_kernels(self):
        kern = DeliveryKernels(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
        )
        assert kern.max_degree == 0 and kern.degrees.size == 0


# ---------------------------------------------------------------------------
# The removed mode registry: refusals naming the accepted fields
# ---------------------------------------------------------------------------


class TestModeRegistry:
    def test_unknown_mode_refused_with_full_inventory(self):
        with pytest.raises(ProtocolError) as err:
            ExecutionPolicy(delivery="quantum")
        assert "delivery" in str(err.value)
        assert str(POLICY_FIELDS) in str(err.value)

    def test_absent_numba_refused_by_name(self):
        # Compiled backends are gone with the knob: a request for one
        # is refused naming it, never silently run on something else.
        with pytest.raises(ProtocolError) as err:
            ExecutionPolicy(delivery="numba")
        msg = str(err.value)
        assert "'numba'" in msg and str(POLICY_FIELDS) in msg

    def test_absent_cupy_refused_by_name(self):
        with pytest.raises(ProtocolError, match="cupy"):
            ExecutionPolicy(delivery="cupy")

    def test_restrict_modes_validated(self):
        # The restriction knob is gone: every value, including the
        # modes it used to accept, is refused naming the accepted
        # policy fields.
        for mode in ("auto", "off", "force", "maybe"):
            with pytest.raises(ProtocolError, match="restrict") as err:
                ExecutionPolicy(restrict=mode)
            assert str(POLICY_FIELDS) in str(err.value)


# ---------------------------------------------------------------------------
# Induced sub-graph delivery
# ---------------------------------------------------------------------------


class TestResidualContext:
    def test_support_shape_refused(self):
        # The member mask fixes the column layout: column factors of
        # another shape are refused.
        with pytest.raises(ValueError, match="shape"):
            RowSampler(0, np.ones(10, dtype=bool), _ladder(4), np.ones(7))

    def test_restricted_delivery_matches_full_on_members(self):
        # Executing a support-confined mask block on the product of the
        # sub-graph induced by the support and its one-hop neighborhood,
        # then translating senders back to global ids, equals the
        # full-graph delivery (non-members hear silence anyway).
        g = nx.gnp_random_graph(30, 0.15, seed=6)
        net = RadioNetwork(g)
        rng = np.random.default_rng(3)
        support = rng.random(30) < 0.3
        reach = net._adj @ support.astype(np.float64)
        members = np.flatnonzero(support | (reach > 0.0))
        sub_indptr, sub_indices = net._context.induced_csr(members)
        kern = DeliveryKernels(sub_indptr, sub_indices, members.size)
        masks = np.zeros((8, 30), dtype=bool)
        masks[:, support] = rng.random((8, int(support.sum()))) < 0.5
        adj = net._context.csr.toarray().astype(np.int64)
        want, _ = _reference_delivery(adj, masks)
        hear, _ = _execute(kern, masks[:, members])
        heard = hear != NO_SENDER
        hear[heard] = members[hear[heard]]  # local -> global ids
        np.testing.assert_array_equal(hear, want[:, members])
        # And silence everywhere else.
        outside = np.ones(30, dtype=bool)
        outside[members] = False
        assert (want[:, outside] == NO_SENDER).all()


# ---------------------------------------------------------------------------
# Live-set execution: bit-identity end to end
# ---------------------------------------------------------------------------


def _twin_nets(g: nx.Graph, count: int = 2):
    return [RadioNetwork(g) for _ in range(count)]


class TestRestrictedEquivalence:
    def test_decay_restricted_bit_identical(self):
        # A quarter of the nodes active: the transmitter-list path
        # samples and delivers only their transmissions, at any chunk
        # height, bit-identically to the step-wise reference.
        g = nx.gnp_random_graph(90, 0.07, seed=13)
        active = np.random.default_rng(1).random(90) < 0.25
        active[0] = True
        net_a, net_b, net_r = _twin_nets(g, 3)
        rngs = [np.random.default_rng(21) for _ in range(3)]
        a = run_decay(net_a, active, rngs[0], iterations=4)
        b = run_decay(
            net_b, active, rngs[1], iterations=4,
            policy=_rows(3, 90),
        )
        c = run_decay_reference(net_r, active, rngs[2], iterations=4)
        for other in (b, c):
            np.testing.assert_array_equal(a.heard, other.heard)
            np.testing.assert_array_equal(
                a.heard_from, other.heard_from
            )
        _assert_trace_equal(net_a, net_b)
        _assert_trace_equal(net_a, net_r)
        states = [_rng_state(r) for r in rngs]
        assert states[0] == states[1] == states[2]
        assert net_a.kernel_use and all(
            name.startswith("coo-") or name == "skip-empty"
            for name in net_a.kernel_use
        )

    def test_eed_restricted_bit_identical(self):
        g = nx.gnp_random_graph(70, 0.1, seed=17)
        setup = np.random.default_rng(5)
        p = setup.random(70) * 0.4
        active = setup.random(70) < 0.3
        net_f, net_r = _twin_nets(g)
        rng_f = np.random.default_rng(6)
        rng_r = np.random.default_rng(6)
        a = estimate_effective_degree(
            net_f, p, active, rng_f, C=4,
            policy=_rows(5, 70),
        )
        b = estimate_effective_degree_reference(
            net_r, p, active, rng_r, C=4
        )
        np.testing.assert_array_equal(a.high, b.high)
        np.testing.assert_array_equal(a.counts, b.counts)
        _assert_trace_equal(net_f, net_r)
        assert _rng_state(rng_f) == _rng_state(rng_r)

    @pytest.mark.parametrize(
        "policy",
        [
            pytest.param(ExecutionPolicy(), id="auto"),
            pytest.param(_rows(3, 80), id="force"),
        ],
    )
    def test_mis_restricted_bit_identical(self, policy):
        # Radio MIS: the live set shrinks round by round, and every
        # block touches only its sampled transmitters — at the default
        # chunk height, or in 3-step chunks that straddle every section
        # boundary — bit-identically to the step-wise reference.
        g = nx.gnp_random_graph(80, 0.08, seed=19)
        config = MISConfig(eed_C=3)
        net_e, net_r = _twin_nets(g)
        rng_e = np.random.default_rng(12)
        rng_r = np.random.default_rng(12)
        a = compute_mis(net_e, rng_e, config, policy=policy)
        b = compute_mis_reference(net_r, rng_r, config)
        assert a.mis == b.mis
        assert a.steps_used == b.steps_used
        assert a.history == b.history
        _assert_trace_equal(net_e, net_r)
        assert _rng_state(rng_e) == _rng_state(rng_r)

    def test_restricted_under_validating_runner(self):
        # ValidatingRunner expands each transmitter-list chunk back to
        # masks and compares it against the step replay; a validated
        # run must also stay bit-identical to the plain run.
        g = nx.gnp_random_graph(60, 0.1, seed=29)
        config = MISConfig(eed_C=3)
        net_v, net_p = _twin_nets(g)
        rng_v = np.random.default_rng(8)
        rng_p = np.random.default_rng(8)
        a = compute_mis(
            net_v, rng_v, config,
            policy=ExecutionPolicy(
                validate=True, mem_budget=7 * 60 * STREAM_CELL_BYTES
            ),
        )
        b = compute_mis(net_p, rng_p, config)
        assert a.mis == b.mis
        assert a.steps_used == b.steps_used
        _assert_trace_equal(net_v, net_p)
        assert _rng_state(rng_v) == _rng_state(rng_p)


# ---------------------------------------------------------------------------
# Plan-surface contracts
# ---------------------------------------------------------------------------


class TestPlanContracts:
    def test_window_without_consume_surface_refused(self):
        # The fold is a required field: a window without one fails
        # where it is built, before any chunk runs.
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(TypeError, match="consume_coo"):
            StreamedWindow(2, lambda s, e: (empty, empty))
