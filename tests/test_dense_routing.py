"""Pre-emptive dense routing: the COO output-size estimate (PR 5).

The mask path's ``auto`` window router always sent popcount-dense
rows to the packed dense kernel; this suite pins the PR 5 addition —
rows that are popcount-*sparse* but whose transmitters' degree sum
predicts a COO output heavier than the dense kernel's packed cells
(few transmitters, huge degrees: the ``p ~ 0.5`` G(n, p) regime) route
dense **before** the sparse product can blow a ``mem_budget``. Routing
is a performance/memory decision only: every kernel computes the same
exact integer sums, re-checked here and by the contract suite. The memory
ceilings cover both chunk forms: streamed masks through the
pre-emption, and a streamed EED block on the transmitter-list product.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.analysis.experiments import measure_peak
from repro.api import EEDConfig, ExecutionPolicy, run
from repro.engine.streaming import chunk_steps_for_budget
from repro.radio.network import (
    DENSE_ROW_DENSITY,
    DENSE_WINDOW_CELL_BYTES,
    NO_SENDER,
    SPARSE_COO_ENTRY_BYTES,
    SPARSE_PREEMPT_FACTOR,
    RadioNetwork,
    TransmitPlan,
)

N_DENSE = 1000


@pytest.fixture(scope="module")
def dense_net() -> RadioNetwork:
    """A p = 0.5 G(n, p): mean degree ~ n/2, the COO blow-up regime."""
    return RadioNetwork(nx.gnp_random_graph(N_DENSE, 0.5, seed=42))


def _sparse_popcount_masks(
    n: int, rows: int, transmitters: int, seed: int
) -> np.ndarray:
    """Masks far below the popcount-density threshold."""
    assert transmitters < DENSE_ROW_DENSITY * n
    rng = np.random.default_rng(seed)
    masks = np.zeros((rows, n), dtype=bool)
    for i in range(rows):
        masks[i, rng.choice(n, size=transmitters, replace=False)] = True
    return masks


class TestOutputSizeRouting:
    def test_degree_heavy_chunks_route_dense(self, dense_net):
        # 16 transmitters/row = popcount density 0.016 (well under the
        # popcount threshold), but each carries ~n/2 neighbors: the
        # estimated COO output dwarfs the dense cells past the
        # pre-emption factor.
        masks = _sparse_popcount_masks(N_DENSE, 32, 16, seed=1)
        routed = dense_net.dense_window_rows(masks)
        assert routed.all()
        # The estimate the router applied, spelled out:
        degree_sum = float((masks @ dense_net.degrees).sum())
        assert (
            degree_sum * SPARSE_COO_ENTRY_BYTES
            >= SPARSE_PREEMPT_FACTOR
            * masks.shape[0]
            * N_DENSE
            * DENSE_WINDOW_CELL_BYTES
        )

    def test_sparse_graphs_keep_popcount_routing(self):
        g = graphs.random_udg(500, 4.0, np.random.default_rng(3))
        net = RadioNetwork(g)
        masks = _sparse_popcount_masks(500, 32, 16, seed=2)
        # Low popcount + low degrees: nothing routes dense.
        assert not net.dense_window_rows(masks).any()

    def test_mid_band_stays_sparse(self, dense_net):
        # Just past memory parity but under the pre-emption factor
        # (2 transmitters/row: COO estimate ~2x the dense cells):
        # sparse is still the faster path there, so no flip.
        masks = _sparse_popcount_masks(N_DENSE, 16, 2, seed=4)
        assert not dense_net.dense_window_rows(masks).any()

    def test_routing_never_changes_bits(self, dense_net):
        masks = _sparse_popcount_masks(N_DENSE, 24, 16, seed=3)
        auto = dense_net.deliver_window(masks, "auto")
        sparse = RadioNetwork(dense_net.graph).deliver_window(
            masks, "sparse"
        )
        dense = RadioNetwork(dense_net.graph).deliver_window(
            masks, "dense"
        )
        assert (auto == sparse).all()
        assert (auto == dense).all()

    def test_empty_and_allzero_windows_still_work(self, dense_net):
        empty = np.zeros((0, N_DENSE), dtype=bool)
        assert dense_net.dense_window_rows(empty).shape == (0,)
        quiet = np.zeros((4, N_DENSE), dtype=bool)
        assert not dense_net.dense_window_rows(quiet).any()
        assert (
            dense_net.deliver_window(quiet, "auto") == -1
        ).all()


class TestMemBudgetRegression:
    def test_streamed_eed_at_half_density_respects_budget(self, dense_net):
        """A streamed EED block at p ~ 0.5 under a tight budget stays
        near the cost model instead of blowing through it.

        The desire ladder's high-``i`` levels are exactly the
        popcount-sparse / degree-dense rows whose sparse-product output
        scales with the transmitters' degree sum (tens of bytes per
        *edge* of every transmitter), not with the
        ~``STREAM_CELL_BYTES`` per (step, node) cell the budget model
        assumes. EED runs on the transmitter-list product, whose output
        is capped at one entry per (step, listener) cell, so its
        working set is the model's whatever the degrees.
        """
        budget = 512 << 10  # 512 KiB: 8-row chunks at n = 1000
        report, peak = measure_peak(
            lambda: run(
                "eed",
                dense_net,
                seed=9,
                config=EEDConfig(p=0.5, C=2),
                policy=ExecutionPolicy(mem_budget=budget),
            )
        )
        assert int(report.result.high.sum()) > 0
        # Measured: ~1.05x the budget. The 3x ceiling leaves slack for
        # numpy-version drift.
        assert peak <= 3 * budget, (
            f"streamed EED peak {peak} bytes blew the {budget}-byte "
            "budget's margin; transmitter-list product regressed?"
        )

    def test_streamed_masks_respect_budget_through_preemption(
        self, dense_net
    ):
        """The mask path's twin: ICP's Decay background, BGI and
        Compete still stream masks through ``deliver_window_chunks``,
        so the output-size pre-emption is what keeps their chunks near
        the cost model on very dense graphs. Degree-heavy,
        popcount-sparse masks (16 transmitters a row, ~n/2 neighbors
        each) at the 512 KiB budget's chunk height must stay under the
        same 3x ceiling; without the pre-emption those chunks run the
        sparse kernels, whose working set follows the transmitters'
        degree sum instead (measured: ~0.7x the budget with the
        pre-emption, ~3.9x without).
        """
        budget = 512 << 10
        chunk = chunk_steps_for_budget(N_DENSE, budget)
        rows = 8 * chunk
        plan = TransmitPlan(
            rows,
            lambda start, stop: _sparse_popcount_masks(
                N_DENSE, stop - start, 16, seed=start
            ),
        )
        net = RadioNetwork(dense_net.graph)

        def stream() -> int:
            heard = 0
            for slab in net.deliver_window_chunks(plan, chunk_steps=chunk):
                heard += int(np.count_nonzero(slab != NO_SENDER))
            return heard

        heard, peak = measure_peak(stream)
        assert peak <= 3 * budget, (
            f"streamed mask peak {peak} bytes blew the {budget}-byte "
            "budget's margin; mask-path pre-emption regressed?"
        )
        assert heard > 0
        assert net.kernel_use == {"dense": rows}
