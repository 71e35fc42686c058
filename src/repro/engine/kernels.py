"""The delivery kernel: one exact sparse product over raw CSR adjacency.

:class:`DeliveryKernels` delivers every engine window — a transmitter
list a sampler drew (Decay, EstimateEffectiveDegree and Radio MIS
blocks, BGI sweeps, the wake-up reduction) or one mask turned into
pairs (the one-row steps of ICP's protocol stack) — through
:meth:`DeliveryKernels.execute_coo`: one exact sparse product of the
chunk's ``(w, n)`` transmitter matrix with ``A + 2I``, the all-ones
adjacency plus twice the identity, every row alike, at a cost that
follows the transmitters' degree sum. It works on bare
``(indptr, indices)`` arrays, so the same arithmetic runs against
*any* CSR — the full adjacency or a sub-graph built by
:meth:`~repro.graphs.context.GraphContext.induced_csr`.

The degrees (and with them the packing bound, :func:`coo_pack_shift`)
are **recomputed from the CSR handed in**, never inherited from a
parent graph: an induced sub-graph's degrees are what its bound must
use. The bound holds for every graph under ``2^26`` nodes; beyond it
the kernel refuses by name rather than round.

The single-step :meth:`~repro.radio.network.RadioNetwork.deliver` is
deliberately *not* this kernel: its fused ``(n, 2)`` matvec over ``A``
is the independent step-wise oracle that the validating runner and
every ``*_reference`` twin compare the product against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat

from ..graphs.context import plus_2i
from ..radio.errors import ProtocolError


def coo_pack_shift(n: int, max_degree: int) -> int:
    """The packing exponent ``K`` of :meth:`DeliveryKernels.execute_coo`.

    ``K`` is the smallest exponent with ``2^K > n``, so every packed
    value ``2^K + (u + 1)`` lies below ``2^(K+1)``. A product entry sums
    at most ``max_degree`` neighbors' values plus twice the cell's own
    (the diagonal of ``A + 2I``), so every partial sum is an integer
    below ``(max_degree + 2) * 2^(K+1)``, and float64 adds them exactly
    while ``(max_degree + 2) * 2^(K+1) <= 2^53`` — true for every graph
    under ``2^26`` nodes (``K <= 26``, ``max_degree + 2 <= 2^26``).
    Beyond the bound the ``coo-spmm`` kernel refuses rather than round.
    """
    shift = int(n).bit_length()
    if (int(max_degree) + 2) << (shift + 1) > 1 << 53:
        raise ProtocolError(
            f"the coo-spmm delivery kernel is not exact on {n} nodes at "
            f"maximum degree {max_degree}: its packing needs "
            f"(max_degree + 2) * 2^{shift + 1} <= 2^53"
        )
    return shift


class DeliveryKernels:
    """The delivery kernel bound to one CSR adjacency.

    Parameters
    ----------
    indptr, indices:
        The CSR row pointers and column indices of an undirected
        adjacency over ``n`` nodes (symmetric, no self-loops) — e.g.
        ``GraphContext.csr``'s arrays, or the output of
        :meth:`~repro.graphs.context.GraphContext.induced_csr`.
    n:
        Node count; ``indptr`` has ``n + 1`` entries.
    matrix:
        ``A + 2I`` of this adjacency (:func:`~repro.graphs.context.plus_2i`)
        when the caller already holds it — a network passes its graph's
        cached copy. Built here from ``(indptr, indices)`` otherwise.

    :meth:`execute_coo` delivers exactly the channel of ``w``
    sequential :meth:`~repro.radio.network.RadioNetwork.deliver` calls;
    the kernel tests and the validating runner pin that.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        n: int,
        matrix: sp.csr_array | None = None,
    ) -> None:
        self.n = int(n)
        # Degrees are *recomputed* from this CSR: a sub-graph's packing
        # bound must follow its own degrees, not a parent's.
        self.degrees = np.diff(indptr).astype(np.int64)
        self.max_degree = int(self.degrees.max()) if self.n else 0
        self._ids1 = np.arange(self.n, dtype=np.float64) + 1.0
        self.matrix = (
            matrix if matrix is not None else plus_2i(indptr, indices, self.n)
        )

    def execute_coo(
        self,
        w: int,
        tx_step: np.ndarray,
        tx_node: np.ndarray,
        counters: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Execute a ``w``-step block given as transmitter pairs.

        ``(tx_step, tx_node)`` are int64, row-major with nodes
        ascending within a step — which is already the canonical CSR
        layout of the block's ``(w, n)`` transmitter matrix. Valuing
        transmitter ``u`` at ``2^K + (u + 1)`` (:func:`coo_pack_shift`),
        one sparse product of that matrix with ``A + 2I`` gives every
        listener within reach of a transmitter the exact entry
        ``count * 2^K + idsum``: the listener hears cleanly exactly
        when the entry is below ``2^(K+1)``, and its sender is the entry
        minus ``2^K + 1``. A transmitter's own cell gains twice its
        value, at least ``2^(K+1)``, so half-duplex needs no lookup: the
        cell fails the clean test by itself. Every row runs this one
        kernel: no per-row routing, no mask block, no hear slab, no
        ``(w, n)`` array. Peak memory per chunk is the product's output:
        at most the pairs' degree sum plus the pair count, and at most
        ``w * n`` entries.

        Returns the clean receptions as ``(step, node, sender)`` int64
        arrays, step ascending (node order within a step is
        unspecified; the ``consume_coo`` folds are order-independent).
        ``counters`` (when given) is bumped by the non-empty rows under
        ``"coo-spmm"`` and by the empty ones under ``"skip-empty"``.
        """
        row_counts = np.bincount(tx_step, minlength=w)
        busy = int(np.count_nonzero(row_counts))
        if counters is not None:
            for name, rows in (("coo-spmm", busy), ("skip-empty", w - busy)):
                if rows:
                    counters[name] = counters.get(name, 0) + rows
        if not busy:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if tx_node.min() < 0 or tx_node.max() >= self.n:
            # The native product below indexes the adjacency unchecked.
            raise ValueError(
                f"transmitter node ids must lie in [0, {self.n})"
            )
        shift = coo_pack_shift(self.n, self.max_degree)
        base = float(1 << shift)
        adj = self.matrix
        # Each output entry is a distinct (step, node) cell reached by
        # at least one transmitter, its own cell included, so the pairs'
        # degree sum plus the pair count (capped at w * n) bounds the
        # output. Sized up front, the product is one pass of
        # ``csr_matmat``, the kernel behind scipy's own CSR ``@``, called
        # directly: scipy's ``@`` would add a counting pass and its
        # per-call wrapping.
        bound = min(
            int(self.degrees[tx_node].sum()) + tx_node.size, w * self.n
        )
        # Index arrays take the matrix's own dtype, so the product reads
        # its index arrays as they are instead of an upcast copy; int64
        # only when a chunk's pairs or output outgrow it.
        itype = adj.indices.dtype
        if max(tx_node.size, bound) > np.iinfo(itype).max:
            itype = np.dtype(np.int64)
        indptr = np.zeros(w + 1, dtype=itype)
        np.cumsum(row_counts, out=indptr[1:])
        values = self._ids1[tx_node]
        values += base
        out_indptr = np.empty(w + 1, dtype=itype)
        out_indices = np.empty(bound, dtype=itype)
        out_data = np.empty(bound, dtype=np.float64)
        csr_matmat(
            w,
            self.n,
            indptr,
            tx_node.astype(itype),
            values,
            adj.indptr.astype(itype, copy=False),
            adj.indices.astype(itype, copy=False),
            adj.data,
            out_indptr,
            out_indices,
            out_data,
        )
        data = out_data[: out_indptr[w]]
        heard = np.flatnonzero(data < 2.0 * base)
        # Each row's clean-cell count from its bounds: w + 1 searches,
        # not one per clean cell.
        step = np.repeat(
            np.arange(w), np.diff(np.searchsorted(heard, out_indptr))
        )
        node = out_indices[heard].astype(np.int64)
        sender = data[heard].astype(np.int64) - ((1 << shift) + 1)
        return step, node, sender


__all__ = [
    "DeliveryKernels",
    "coo_pack_shift",
]
