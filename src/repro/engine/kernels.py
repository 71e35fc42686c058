"""Chunk-delivery kernels over raw CSR adjacency.

:class:`DeliveryKernels` serves the engine's two chunk forms on bare
``(indptr, indices)`` arrays, so the same exact integer arithmetic can
run against *any* CSR — the full adjacency or a sub-graph built by
:meth:`~repro.graphs.context.GraphContext.induced_csr`:

* **Transmitter pairs** (:meth:`DeliveryKernels.execute_coo`) — the
  form Decay, EstimateEffectiveDegree and Radio MIS blocks run in. One
  exact sparse product of the chunk's ``(w, n)`` transmitter matrix
  with the all-ones adjacency, every row alike: no routing, no mask
  block, no hear slab, and a cost that follows the transmitters'
  degree sum. Its packing bound (:func:`coo_pack_shift`) holds for
  every graph under ``2^26`` nodes; beyond it the kernel refuses.
* **Mask slabs** (:meth:`DeliveryKernels.execute`) — the mask path's
  windows (ICP's Decay background, BGI, Compete) under a compiled
  backend or when called directly: the
  :class:`~repro.radio.RadioNetwork` window kernels with their
  density-adaptive per-row routing, selected by the ``delivery`` mode.

Degree-dependent state (max/min degree for the mask router's
output-size pre-emption, both packing bounds) is **recomputed from the
CSR handed in**, never inherited from a parent graph: an induced
sub-graph's degrees are what its decisions must use (inherited extremes
would over-route shrunken graphs dense and can violate a packing
bound's premise in the other direction).

Two optional compiled tiers register for the mask path:

* ``"numba"`` — an ``@njit`` CSR scatter kernel (per-row transmitter
  walk, integer collision counts, last-writer sender slots). Every
  quantity is an int64, so it is **exact**: bit-identical to the numpy
  kernels, validated by :class:`~repro.engine.validate.ValidatingRunner`
  and the differential-fuzz harness like any other path.
* ``"cupy"`` — the complex sparse product on the GPU. Same
  small-integer-in-float64 exactness argument as the CPU spmm
  componentwise, so it sits in the same exactness tier wherever the
  device's flush-to-zero settings leave exact integer adds alone
  (DESIGN.md §7 documents the tiers).

No optional dependency is imported until probed; probing is cached.
Requesting an absent backend raises the uniform
:class:`~repro.radio.errors.ProtocolError` naming the installed
alternatives — silent fallback happens only under ``delivery="auto"``
(:func:`require_delivery_mode`). Provenance names the compiled family
only when its counters show it ran (:func:`compiled_kernel_name`).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat

from ..radio.errors import ProtocolError
from ..radio.network import (
    DELIVERY_MODES,
    DENSE_ROW_DENSITY,
    DENSE_WINDOW_CELL_BYTES,
    GATHER_WINDOW_WIDTH,
    NO_SENDER,
    SPARSE_COO_ENTRY_BYTES,
    SPARSE_PREEMPT_FACTOR,
)

#: Delivery modes that require an optional compiled dependency.
COMPILED_DELIVERY_MODES = ("numba", "cupy")

#: The ``kernel_use`` counters of the compiled kernel legs.
COMPILED_KERNELS = ("csr-numba", "spmm-cupy")

#: Every delivery mode the policy layer accepts (availability is a
#: separate question — see :func:`require_delivery_mode`).
ALL_DELIVERY_MODES = DELIVERY_MODES + COMPILED_DELIVERY_MODES

_probe_cache: dict[str, bool] = {}
_numba_kernel = None


def probe_numba() -> bool:
    """Whether the numba JIT backend is importable (cached)."""
    if "numba" not in _probe_cache:
        try:  # pragma: no cover - depends on the installed environment
            import numba  # noqa: F401

            _probe_cache["numba"] = True
        except Exception:
            _probe_cache["numba"] = False
    return _probe_cache["numba"]


def probe_cupy() -> bool:
    """Whether the cupy GPU backend is importable *and has a device*."""
    if "cupy" not in _probe_cache:
        try:  # pragma: no cover - depends on the installed environment
            import cupy

            cupy.cuda.runtime.getDeviceCount()
            _probe_cache["cupy"] = True
        except Exception:
            _probe_cache["cupy"] = False
    return _probe_cache["cupy"]


_PROBES = {
    "numba": probe_numba,
    "cupy": probe_cupy,
}


def available_delivery_modes() -> tuple[str, ...]:
    """The delivery modes this process can actually execute.

    Always the three numpy modes (``"auto"``, ``"sparse"``,
    ``"dense"``); the compiled modes appear exactly when their
    dependency probes as importable.
    """
    return DELIVERY_MODES + tuple(
        mode for mode in COMPILED_DELIVERY_MODES if _PROBES[mode]()
    )


def require_delivery_mode(mode: str) -> None:
    """Refuse unknown modes and absent compiled backends, uniformly.

    An explicit request for ``"numba"``/``"cupy"`` without the
    dependency is an error naming the installed alternatives — never a
    silent fallback. Only ``delivery="auto"`` is allowed to degrade
    (that is what auto *means*).
    """
    if mode not in ALL_DELIVERY_MODES:
        raise ProtocolError(
            f"unknown delivery mode: {mode!r} "
            f"(expected one of {ALL_DELIVERY_MODES})"
        )
    if mode in COMPILED_DELIVERY_MODES and not _PROBES[mode]():
        raise ProtocolError(
            f"delivery mode {mode!r} requires the {mode!r} package, "
            f"which is not installed (or has no usable device); "
            f"installed delivery modes: {available_delivery_modes()}"
        )


def compiled_kernel_name(kernel_use: Mapping[str, int]) -> str:
    """The compiled kernel family a run actually executed, read from its
    per-kernel row counters (``RadioNetwork.kernel_use``): a compiled
    family (``"csr-numba"``, ``"spmm-cupy"``) only when one of its
    counters is non-zero, ``"numpy"`` otherwise — recorded in
    ``RunReport`` provenance so a run names the code that produced it,
    not the code its mode could have reached."""
    return next(
        (name for name in COMPILED_KERNELS if kernel_use.get(name)), "numpy"
    )


def coo_pack_shift(n: int, max_degree: int) -> int:
    """The packing exponent ``K`` of :meth:`DeliveryKernels.execute_coo`.

    ``K`` is the smallest exponent with ``2^K > n``, so the 1-based id
    sum of ``count`` transmitters stays below ``count * 2^K``. Every
    partial sum of the product is then an integer below
    ``max_degree * 2^(K+1)``, and float64 adds them exactly while
    ``max_degree * 2^(K+1) <= 2^53`` — true for every graph under
    ``2^26`` nodes (``K <= 26``, ``max_degree < 2^26``). Beyond the
    bound the ``coo-spmm`` kernel refuses rather than round.
    """
    shift = int(n).bit_length()
    if int(max_degree) << (shift + 1) > 1 << 53:
        raise ProtocolError(
            f"the coo-spmm delivery kernel is not exact on {n} nodes at "
            f"maximum degree {max_degree}: its packing needs "
            f"max_degree * 2^{shift + 1} <= 2^53"
        )
    return shift


def _get_numba_kernel():  # pragma: no cover - needs numba installed
    """Build (once) the ``@njit`` CSR window kernel.

    Row-parallel over window steps: each step walks its transmitters'
    CSR neighbor lists, bumping an int64 collision counter and a
    last-writer sender slot per listener. A listener with exactly one
    transmitting neighbor that is not itself transmitting hears that
    sender. Integer arithmetic throughout — no floats to round, so the
    result is bit-identical to the numpy kernels by construction.
    """
    global _numba_kernel
    if _numba_kernel is None:
        import numba

        @numba.njit(cache=True, parallel=True)
        def _csr_window(masks, indptr, indices, hear_from):
            w, n = masks.shape
            receptions = 0
            for t in numba.prange(w):
                counts = np.zeros(n, dtype=np.int64)
                sender = np.zeros(n, dtype=np.int64)
                for u in range(n):
                    if masks[t, u]:
                        for j in range(indptr[u], indptr[u + 1]):
                            v = indices[j]
                            counts[v] += 1
                            sender[v] = u
                heard = 0
                for v in range(n):
                    if counts[v] == 1 and not masks[t, v]:
                        hear_from[t, v] = sender[v]
                        heard += 1
                receptions += heard
            return receptions

        _numba_kernel = _csr_window
    return _numba_kernel


class DeliveryKernels:
    """Window-delivery kernels bound to one CSR adjacency.

    Parameters
    ----------
    indptr, indices:
        The CSR row pointers and column indices of an undirected
        adjacency over ``n`` nodes (symmetric, no self-loops) — e.g.
        ``GraphContext.csr``'s arrays, or the output of
        :meth:`~repro.graphs.context.GraphContext.induced_csr`.
    n:
        Node count; ``indptr`` has ``n + 1`` entries.

    The mask path's routing constants and kernel arithmetic mirror
    :class:`~repro.radio.RadioNetwork` exactly (same popcount
    thresholds, same output-size pre-emption, same packed-modulus dense
    product), so executing a mask block here is bit-identical to
    executing it there; :meth:`execute_coo` delivers the same channel
    from transmitter pairs. The kernel contract tests and the
    validating runner pin both.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, n: int
    ) -> None:
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr)
        self.indices = np.ascontiguousarray(indices)
        # Degree extremes are *recomputed* from this CSR. Sub-graphs
        # routed on a parent's cached extremes would mis-route (stale
        # max_degree over-triggers the spmm pre-emption; a stale
        # packing bound is unsound upward).
        self.degrees = np.diff(self.indptr).astype(np.int64)
        self.max_degree = int(self.degrees.max()) if self.n else 0
        self.min_degree = int(self.degrees.min()) if self.n else 0
        self._ids1 = np.arange(self.n, dtype=np.float64) + 1.0
        self.dense_pack_ok = (
            self.max_degree * (1.0 + self.n * (self.n + 1.0)) < 2.0**53
        )
        self._adj: sp.csr_array | None = None
        self._adj_complex: sp.csr_array | None = None
        self._cupy_adj = None

    # -- lazy matrix forms --------------------------------------------

    def _matrix(self) -> sp.csr_array:
        if self._adj is None:
            data = np.ones(self.indices.shape[0], dtype=np.float64)
            self._adj = sp.csr_array(
                (data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._adj

    def _complex_matrix(self) -> sp.csr_array:
        if self._adj_complex is None:
            self._adj_complex = self._matrix().astype(np.complex128)
        return self._adj_complex

    # -- routing ------------------------------------------------------

    def dense_rows(self, masks: np.ndarray) -> np.ndarray:
        """Rows the auto router sends dense — popcount density plus the
        output-size pre-emption, both on *this* CSR's degrees (see
        :meth:`~repro.radio.RadioNetwork.dense_window_rows` for the
        full rationale; the arithmetic here is the same)."""
        row_counts = np.count_nonzero(masks, axis=1)
        dense = row_counts >= DENSE_ROW_DENSITY * max(1, self.n)
        sparse = ~dense
        n_sparse = int(sparse.sum())
        if n_sparse:
            sparse_tx = int(row_counts[sparse].sum())
            flip_entries = (
                SPARSE_PREEMPT_FACTOR
                * n_sparse
                * self.n
                * (DENSE_WINDOW_CELL_BYTES / SPARSE_COO_ENTRY_BYTES)
            )
            if sparse_tx * self.max_degree >= flip_entries:
                if sparse_tx * self.min_degree >= flip_entries:
                    degree_sum = float(flip_entries)
                else:
                    sub = (
                        masks
                        if n_sparse == masks.shape[0]
                        else masks[sparse]
                    )
                    degree_sum = float(
                        self.degrees[np.nonzero(sub)[1]].sum()
                    )
                if degree_sum >= flip_entries:
                    dense = np.ones(masks.shape[0], dtype=bool)
        return dense

    # -- numpy kernels (mirrors of the RadioNetwork window kernels) ---

    def _gather(self, masks: np.ndarray, hear_from: np.ndarray) -> int:
        w = masks.shape[0]
        tx_step, tx_node = np.nonzero(masks)
        starts = self.indptr[tx_node].astype(np.int64)
        lens = self.indptr[tx_node + 1].astype(np.int64) - starts
        total = int(lens.sum())
        if total == 0:
            return 0
        offsets = np.repeat(np.cumsum(lens) - lens - starts, lens)
        neighbors = self.indices[
            np.arange(total, dtype=np.int64) - offsets
        ]
        flat = np.repeat(tx_step, lens) * self.n + neighbors
        counts = np.bincount(flat, minlength=w * self.n).reshape(
            w, self.n
        )
        idsum1 = np.bincount(
            flat,
            weights=np.repeat(self._ids1[tx_node], lens),
            minlength=w * self.n,
        ).reshape(w, self.n)
        clean = (counts == 1) & ~masks
        hear_from[clean] = np.rint(idsum1[clean]).astype(np.int64) - 1
        return int(clean.sum())

    def _spmm(self, masks: np.ndarray, hear_from: np.ndarray) -> int:
        w = masks.shape[0]
        tx_step, tx_node = np.nonzero(masks)
        if not tx_node.size:
            return 0
        data = np.empty(tx_node.size, dtype=np.complex128)
        data.real = 1.0
        data.imag = self._ids1[tx_node]
        rhs = sp.csr_array(
            (data, (tx_node, tx_step)), shape=(self.n, w)
        )
        out = (self._complex_matrix() @ rhs).tocoo()
        node, step = out.coords
        counts = out.data.real
        clean = (counts == 1.0) & ~masks[step, node]
        sender = np.rint(out.data.imag[clean]).astype(np.int64) - 1
        hear_from[step[clean], node[clean]] = sender
        return int(clean.sum())

    def _dense(self, masks: np.ndarray, hear_from: np.ndarray) -> int:
        masks_t = masks.T
        if self.dense_pack_ok:
            modulus = float(self.n + 1)
            vals = 1.0 + self._ids1 * modulus
            rhs = np.where(masks_t, vals[:, None], 0.0)
            out = self._matrix() @ rhs
            counts = np.remainder(out, modulus)
            heard = (~masks_t) & (counts == 1.0)
            node, step = np.nonzero(heard)
            idsum1 = (out[node, step] - 1.0) / modulus
        else:  # pragma: no cover - needs a graph beyond the 2^53 bound
            rhs = np.where(
                masks_t, (1.0 + 1j * self._ids1)[:, None], 0.0
            )
            out = self._complex_matrix() @ rhs
            heard = (~masks_t) & (out.real == 1.0)
            node, step = np.nonzero(heard)
            idsum1 = out.imag[node, step]
        hear_from[step, node] = np.rint(idsum1).astype(np.int64) - 1
        return int(node.size)

    def _sparse(self, masks: np.ndarray, hear_from: np.ndarray) -> int:
        if masks.shape[0] <= GATHER_WINDOW_WIDTH:
            return self._gather(masks, hear_from)
        return self._spmm(masks, hear_from)

    # -- compiled kernels ---------------------------------------------

    def _numba(self, masks, hear_from):  # pragma: no cover - needs numba
        kernel = _get_numba_kernel()
        return int(
            kernel(
                np.ascontiguousarray(masks),
                self.indptr,
                self.indices,
                hear_from,
            )
        )

    def _cupy(self, masks, hear_from):  # pragma: no cover - needs cupy
        import cupy
        import cupyx.scipy.sparse as cpsp

        adj = self._cupy_adj
        if adj is None:
            adj = cpsp.csr_matrix(
                sp.csr_matrix(self._complex_matrix())
            )
            self._cupy_adj = adj
        w = masks.shape[0]
        tx_step, tx_node = np.nonzero(masks)
        if not tx_node.size:
            return 0
        data = np.empty(tx_node.size, dtype=np.complex128)
        data.real = 1.0
        data.imag = self._ids1[tx_node]
        rhs = cpsp.csr_matrix(
            sp.csr_matrix(
                (data, (tx_node, tx_step)), shape=(self.n, w)
            )
        )
        out = (adj @ rhs).tocoo()
        node = cupy.asnumpy(out.row)
        step = cupy.asnumpy(out.col)
        vals = cupy.asnumpy(out.data)
        clean = (vals.real == 1.0) & ~masks[step, node]
        sender = np.rint(vals.imag[clean]).astype(np.int64) - 1
        hear_from[step[clean], node[clean]] = sender
        return int(clean.sum())

    # -- the routed entry point ---------------------------------------

    def execute(
        self,
        masks: np.ndarray,
        hear_from: np.ndarray,
        mode: str,
        counters: dict[str, int] | None = None,
    ) -> int:
        """Execute one ``(w, n)`` mask block into ``hear_from``.

        Same contract as
        :meth:`~repro.radio.RadioNetwork._execute_window_rows`: write
        clean receptions, return their count, no accounting. ``mode``
        accepts every member of :data:`ALL_DELIVERY_MODES`; ``"auto"``
        routes per row — dense rows to the packed matmul, sparse rows
        to the compiled CSR kernel when numba is installed, the
        gather/spmm pair otherwise. ``counters`` (when given) is
        bumped per kernel leg with the number of rows it executed,
        feeding ``RunReport`` delivery provenance.
        """

        def bump(name: str, rows: int) -> None:
            if counters is not None:
                counters[name] = counters.get(name, 0) + rows

        w = masks.shape[0]
        if not masks.any():
            bump("skip-empty", w)
            return 0
        if mode == "dense":
            bump("dense", w)
            return self._dense(masks, hear_from)
        if mode == "sparse":
            bump(
                "gather" if w <= GATHER_WINDOW_WIDTH else "spmm", w
            )
            return self._sparse(masks, hear_from)
        if mode == "numba":  # pragma: no cover - needs numba
            bump("csr-numba", w)
            return self._numba(masks, hear_from)
        if mode == "cupy":  # pragma: no cover - needs cupy
            bump("spmm-cupy", w)
            return self._cupy(masks, hear_from)
        # auto: per-row density routing, compiled kernel for the
        # sparse side when available.
        dense_rows = self.dense_rows(masks)
        if probe_numba():  # pragma: no cover - needs numba
            sparse_exec = self._numba
            sparse_name = "csr-numba"
        else:
            sparse_exec = self._sparse
            sparse_name = None
        if not dense_rows.any():
            if sparse_name is None:
                bump(
                    "gather" if w <= GATHER_WINDOW_WIDTH else "spmm", w
                )
            else:  # pragma: no cover - needs numba
                bump(sparse_name, w)
            return sparse_exec(masks, hear_from)
        if dense_rows.all():
            bump("dense", w)
            return self._dense(masks, hear_from)
        receptions = 0
        for rows, execute, name in (
            (dense_rows, self._dense, "dense"),
            (~dense_rows, sparse_exec, sparse_name or "sparse-mixed"),
        ):
            idx = np.nonzero(rows)[0]
            sub = np.full(
                (idx.size, self.n), NO_SENDER, dtype=np.int64
            )
            bump(name, idx.size)
            receptions += execute(masks[idx], sub)
            hear_from[idx] = sub
        return receptions

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
        one sparse product of that matrix with the all-ones adjacency
        gives every listener within reach of a transmitter the exact
        entry ``count * 2^K + idsum``: the listener hears cleanly
        exactly when the entry is below ``2^(K+1)``, and its sender is
        the entry minus ``2^K + 1``. Half-duplex drops listeners that
        transmit in the same step, read from a ``(w, n)`` transmitter
        bitmap. Every row runs this one kernel: no per-row routing, no
        mask block, no hear slab. Peak memory per chunk is the
        product's output (at most ``w * n`` entries, and at most the
        transmitters' degree sum) plus the one-byte-per-cell bitmap.

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
        adj = self._matrix()
        # Each output entry is a distinct (step, listener) cell reached
        # by at least one transmitter, so the transmitters' degree sum
        # (capped at w * n) bounds the output. Sized up front, the
        # product is one pass of ``csr_matmat``, the kernel behind
        # scipy's own CSR ``@``, called directly: scipy's ``@`` would
        # add a counting pass and its per-call wrapping.
        bound = min(int(self.degrees[tx_node].sum()), w * self.n)
        # Index arrays take the adjacency's own dtype, so the product
        # reads its index arrays as they are instead of an upcast copy;
        # int64 only when a chunk's pairs or output outgrow it.
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
        step = np.searchsorted(out_indptr[1:], heard, side="right")
        node = out_indices[heard].astype(np.int64)
        transmitting = np.zeros((w, self.n), dtype=bool)
        transmitting[tx_step, tx_node] = True
        keep = ~transmitting[step, node]
        sender = data[heard[keep]].astype(np.int64) - ((1 << shift) + 1)
        return step[keep], node[keep], sender


__all__ = [
    "ALL_DELIVERY_MODES",
    "COMPILED_DELIVERY_MODES",
    "DeliveryKernels",
    "available_delivery_modes",
    "compiled_kernel_name",
    "coo_pack_shift",
    "probe_cupy",
    "probe_numba",
    "require_delivery_mode",
]
