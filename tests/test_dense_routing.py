"""Dense graphs on the one window product: exactness and memory.

The mask path used to route popcount-dense rows, and popcount-sparse
rows whose transmitters' degree sum predicted a heavy COO output, to a
packed dense kernel. Every window now runs the one transmitter-pair
product, whose output is capped at one entry per (step, listener) cell
whatever the degrees. This suite pins that the product stays exact on
the degree-heavy regime the router existed for (few transmitters, ~n/2
neighbors each: the ``p ~ 0.5`` G(n, p)), whichever route a window
takes into it, and that streamed chunks stay inside the memory cost
model there.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import graphs
from repro.analysis.experiments import measure_peak
from repro.api import EEDConfig, ExecutionPolicy, run
from repro.engine import StreamedWindow, WindowedRunner
from repro.engine.streaming import chunk_steps_for_budget
from repro.radio.network import NO_SENDER, RadioNetwork

N_DENSE = 1000


@pytest.fixture(scope="module")
def dense_net() -> RadioNetwork:
    """A p = 0.5 G(n, p): mean degree ~ n/2, the COO blow-up regime."""
    return RadioNetwork(nx.gnp_random_graph(N_DENSE, 0.5, seed=42))


def _sparse_popcount_masks(
    n: int, rows: int, transmitters: int, seed: int
) -> np.ndarray:
    """Masks with a fixed, small number of transmitters per row."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((rows, n), dtype=bool)
    for i in range(rows):
        masks[i, rng.choice(n, size=transmitters, replace=False)] = True
    return masks


def _step_replay(graph, masks: np.ndarray) -> np.ndarray:
    net = RadioNetwork(graph)
    return np.stack([net.deliver(m) for m in masks])


class TestOutputSizeRouting:
    def test_mid_band_stays_sparse(self, dense_net, mask_window):
        # Two transmitters a row on the dense graph (the band just past
        # the removed router's memory parity): the window stays on the
        # sparse product, every row counted as coo-spmm, and equals the
        # step replay.
        masks = _sparse_popcount_masks(N_DENSE, 16, 2, seed=4)
        net = RadioNetwork(dense_net.graph)
        window, hear = mask_window(masks)
        WindowedRunner(net, 16).run(window)
        assert net.kernel_use == {"coo-spmm": 16}
        assert (hear == _step_replay(dense_net.graph, masks)).all()

    def test_routing_never_changes_bits(self, dense_net, mask_window):
        # Degree-heavy, popcount-sparse masks: whichever route the
        # window takes into the product — the kernel on the whole
        # window's pairs, the runner whole or chunk-wise — the bits
        # equal the step replay.
        masks = _sparse_popcount_masks(N_DENSE, 24, 16, seed=3)
        graph = dense_net.graph
        want = _step_replay(graph, masks)
        step, node, sender = (
            RadioNetwork(graph)
            ._delivery_kernels()
            .execute_coo(24, *np.nonzero(masks))
        )
        direct = np.full(want.shape, NO_SENDER, dtype=np.int64)
        direct[step, node] = sender
        assert (direct == want).all()
        for chunk_steps in (24, 7, 5):
            window, hear = mask_window(masks)
            WindowedRunner(RadioNetwork(graph), chunk_steps).run(window)
            assert (hear == want).all()

    def test_empty_and_allzero_windows_still_work(
        self, dense_net, mask_window
    ):
        net = RadioNetwork(dense_net.graph)
        runner = WindowedRunner(net, 4)
        window, hear = mask_window(np.zeros((0, N_DENSE), dtype=bool))
        runner.run(window)
        assert hear.shape == (0, N_DENSE)
        assert net.steps_elapsed == 0 and not net.kernel_use
        window, hear = mask_window(np.zeros((4, N_DENSE), dtype=bool))
        runner.run(window)
        assert (hear == NO_SENDER).all()
        assert net.steps_elapsed == 4
        assert net.kernel_use == {"skip-empty": 4}


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

    def test_streamed_masks_respect_budget(self, dense_net):
        """The mask twin: windows built as masks (ICP's Decay
        background, BGI and Compete) reach the product as transmitter
        pairs read off their rows. Degree-heavy, popcount-sparse rows
        (16 transmitters a row, ~n/2 neighbors each), produced chunk by
        chunk at the 512 KiB budget's height, must stay under the same
        3x ceiling: the product's output is capped at one entry per
        cell, where the removed sparse kernels' working set followed
        the transmitters' degree sum (measured ~3.9x without the
        router's pre-emption).
        """
        budget = 512 << 10
        chunk = chunk_steps_for_budget(N_DENSE, budget)
        rows = 8 * chunk
        net = RadioNetwork(dense_net.graph)
        heard = [0]

        def consume(k, steps, nodes, senders) -> None:
            heard[0] += int(senders.size)

        window = StreamedWindow(
            rows,
            lambda start, stop: np.nonzero(
                _sparse_popcount_masks(N_DENSE, stop - start, 16, seed=start)
            ),
            consume,
        )
        runner = ExecutionPolicy(mem_budget=budget).runner(net)
        _, peak = measure_peak(lambda: runner.run(window))
        assert peak <= 3 * budget, (
            f"streamed mask peak {peak} bytes blew the {budget}-byte "
            "budget's margin; the mask path's chunk loop regressed?"
        )
        assert heard[0] > 0
        assert net.kernel_use == {"coo-spmm": rows}
