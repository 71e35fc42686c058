"""Registered chunk-delivery kernels over raw CSR adjacency.

:class:`DeliveryKernels` is the window-execution engine of
:class:`~repro.radio.RadioNetwork` factored out onto bare
``(indptr, indices)`` arrays, so the same density-adaptive routing and
the same exact integer arithmetic can run against *any* CSR — the full
adjacency or a sub-graph built by
:meth:`~repro.graphs.context.GraphContext.induced_csr`.

Degree-dependent routing state (max/min degree for the auto router's
output-size pre-emption, the dense packing bound) is **recomputed from
the CSR handed in**, never inherited from a parent graph: an induced
sub-graph's degrees are what its routing decisions must use (inherited
extremes would over-route shrunken graphs dense and can violate the
packing bound's premise in the other direction).

Two optional compiled tiers register here:

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
(:func:`require_delivery_mode`, satellite of ISSUE 7).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

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


def compiled_kernel_name(mode: str) -> str:
    """The chunk-kernel family a resolved ``delivery`` mode will use
    for its (popcount-)sparse rows — recorded in ``RunReport``
    provenance so a run names the code that produced it."""
    if mode == "numba" or (mode == "auto" and probe_numba()):
        return "csr-numba"
    if mode == "cupy":
        return "spmm-cupy"
    return "numpy"


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

    All routing constants and kernel arithmetic mirror
    :class:`~repro.radio.RadioNetwork` exactly (same popcount
    thresholds, same output-size pre-emption, same packed-modulus dense
    product), so executing a mask block here is bit-identical to
    executing it there — the property the COO kernel tests and the
    validating runner pin.
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
        # Scratch for the packed-modulus dense COO kernel: the value
        # vector is a pure function of n, the rhs slab is reused
        # across chunks (contents are fully rewritten every call).
        self._packed_vals: np.ndarray | None = None
        self._dense_rhs: np.ndarray | None = None

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

    # -- COO kernels (the transmitter-list reception form) ------------
    #
    # Same routing, same exact arithmetic as the slab kernels above, but
    # the block arrives as its ``(tx_step, tx_node)`` transmitter pairs
    # (row-major, nodes ascending within a step) and clean receptions
    # leave as ``(step, node, sender)`` int64 triples instead of a
    # ``(w, n)`` hear slab — transmissions and receptions are sparse,
    # so neither a mask block nor a hear slab is ever built (the dense
    # kernel's right-hand side is dense by nature). Triple order is
    # unspecified; the ``consume_coo`` folds are order-independent.

    @staticmethod
    def _empty_coo() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty

    def _listening(
        self,
        step: np.ndarray,
        node: np.ndarray,
        tx_step: np.ndarray,
        tx_node: np.ndarray,
    ) -> np.ndarray:
        """Half-duplex from the pairs: which ``(step, node)`` cells are
        not themselves transmitting. Transmitter keys are sorted (the
        pairs are row-major), so membership is one ``searchsorted``."""
        tx_key = tx_step * self.n + tx_node
        key = step * self.n + node
        at = np.minimum(np.searchsorted(tx_key, key), tx_key.size - 1)
        return tx_key[at] != key

    def _dense_rows_tx(
        self, w: int, tx_step: np.ndarray, tx_node: np.ndarray
    ) -> np.ndarray:
        """:meth:`dense_rows` computed from a transmitter list —
        identical routing decisions, no mask block."""
        row_counts = np.bincount(tx_step, minlength=w)
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
                    nodes = (
                        tx_node
                        if n_sparse == w
                        else tx_node[sparse[tx_step]]
                    )
                    degree_sum = float(self.degrees[nodes].sum())
                if degree_sum >= flip_entries:
                    dense = np.ones(w, dtype=bool)
        return dense

    def _gather_coo(
        self, w: int, tx_step: np.ndarray, tx_node: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = self.indptr[tx_node].astype(np.int64)
        lens = self.indptr[tx_node + 1].astype(np.int64) - starts
        total = int(lens.sum())
        if total == 0:
            return self._empty_coo()
        offsets = np.repeat(np.cumsum(lens) - lens - starts, lens)
        neighbors = self.indices[
            np.arange(total, dtype=np.int64) - offsets
        ]
        flat = np.repeat(tx_step, lens) * self.n + neighbors
        # Clean ⟺ the (step, listener) key occurs exactly once, found
        # by sorting instead of the slab kernel's w*n bincount.
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        boundary = np.empty(flat.size, dtype=bool)
        boundary[0] = True
        np.not_equal(flat[1:], flat[:-1], out=boundary[1:])
        single = boundary.copy()
        single[:-1] &= boundary[1:]
        keys = flat[single]
        senders = np.repeat(tx_node, lens)[order[single]]
        step = keys // self.n
        node = keys - step * self.n
        keep = self._listening(step, node, tx_step, tx_node)
        return step[keep], node[keep], senders[keep]

    def _spmm_coo(
        self, w: int, tx_step: np.ndarray, tx_node: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.dense_pack_ok:
            # The dense kernel's packed-modulus trick on the sparse
            # product: one float64 spmm instead of a complex128 one
            # (half the data traffic, a quarter of the multiplies).
            # Every per-listener sum is ``count + modulus * idsum1``
            # with exact-integer float terms, and ``dense_pack_ok`` is
            # precisely the bound keeping the worst such sum below
            # 2^53 — same remainder/unpack arithmetic, same exactness
            # argument, as ``_dense``.
            #
            # The product runs transposed — ``rhs_T @ A`` with the
            # adjacency's symmetry — because the transmitter pairs
            # arrive row-major (step ascending, node ascending within
            # a step), which IS the canonical CSR layout of the
            # ``(w, n)`` transmitter matrix: three array wraps replace
            # the COO sort-and-convert of the ``(n, w)`` orientation.
            modulus = float(self.n + 1)
            indptr = np.zeros(w + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(tx_step, minlength=w), out=indptr[1:]
            )
            rhs_t = sp.csr_array(
                (1.0 + self._ids1[tx_node] * modulus, tx_node, indptr),
                shape=(w, self.n),
            )
            out = (rhs_t @ self._matrix()).tocoo()
            step, node = out.coords
            clean = np.flatnonzero(np.remainder(out.data, modulus) == 1.0)
            idsum1 = (out.data[clean] - 1.0) / modulus
        else:  # pragma: no cover - needs a graph beyond the 2^53 bound
            data = np.empty(tx_node.size, dtype=np.complex128)
            data.real = 1.0
            data.imag = self._ids1[tx_node]
            rhs = sp.csr_array(
                (data, (tx_node, tx_step)), shape=(self.n, w)
            )
            out = (self._complex_matrix() @ rhs).tocoo()
            node, step = out.coords
            clean = np.flatnonzero(out.data.real == 1.0)
            idsum1 = out.data.imag[clean]
        # Half-duplex only on the single-sender cells.
        step = step[clean].astype(np.int64)
        node = node[clean].astype(np.int64)
        keep = self._listening(step, node, tx_step, tx_node)
        sender = np.rint(idsum1[keep]).astype(np.int64) - 1
        return step[keep], node[keep], sender

    def _dense_coo(
        self, w: int, tx_step: np.ndarray, tx_node: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.dense_pack_ok:
            modulus = float(self.n + 1)
            vals = self._packed_vals
            if vals is None:
                vals = 1.0 + self._ids1 * modulus
                self._packed_vals = vals
            view = self._dense_rhs
            if view is None or view.shape[1] != w:
                # Exact width: a sliced column view would lose C
                # contiguity and the spmm would copy it right back.
                view = np.empty((self.n, w), dtype=np.float64)
                self._dense_rhs = view
            view.fill(0.0)
            view[tx_node, tx_step] = vals[tx_node]
            out = self._matrix() @ view
            # Peak trimming: the remainder lands back in the rhs slab.
            counts = np.remainder(out, modulus, out=view)
            heard = counts == 1.0
            heard[tx_node, tx_step] = False
            node, step = np.nonzero(heard)
            idsum1 = (out[node, step] - 1.0) / modulus
        else:  # pragma: no cover - needs a graph beyond the 2^53 bound
            rhs = np.zeros((self.n, w), dtype=np.complex128)
            rhs[tx_node, tx_step] = 1.0 + 1j * self._ids1[tx_node]
            out = self._complex_matrix() @ rhs
            heard = out.real == 1.0
            heard[tx_node, tx_step] = False
            node, step = np.nonzero(heard)
            idsum1 = out.imag[node, step]
        sender = np.rint(idsum1).astype(np.int64) - 1
        return step, node, sender

    def _sparse_coo(
        self, w: int, tx_step: np.ndarray, tx_node: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if w <= GATHER_WINDOW_WIDTH:
            return self._gather_coo(w, tx_step, tx_node)
        return self._spmm_coo(w, tx_step, tx_node)

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

    def _numba_coo(
        self, w, tx_step, tx_node
    ):  # pragma: no cover - needs numba
        """COO form of the compiled CSR walk: run the slab kernel on
        the expanded masks, then lift its (sparse) receptions out."""
        masks = np.zeros((w, self.n), dtype=bool)
        masks[tx_step, tx_node] = True
        hear_from = np.full(masks.shape, NO_SENDER, dtype=np.int64)
        self._numba(masks, hear_from)
        step, node = np.nonzero(hear_from != NO_SENDER)
        return step, node, hear_from[step, node]

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
        mode: str,
        counters: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Execute a ``w``-step block given as transmitter pairs.

        ``(tx_step, tx_node)`` are int64, row-major with nodes
        ascending within a step. Same per-row routing and the same
        exact kernels as :meth:`execute`, returning clean receptions as
        ``(step, node, sender)`` int64 arrays (arbitrary order) instead
        of scattering a hear slab. ``mode`` ``"auto"`` routes per row
        (the compiled CSR walk serves the sparse side when numba is
        installed); ``"sparse"`` and ``"dense"`` force those kernels.
        Counter names carry a ``coo-`` prefix so ``kernel_use``
        provenance distinguishes this form from slab execution.
        """

        def bump(name: str, rows: int) -> None:
            if counters is not None:
                counters[name] = counters.get(name, 0) + rows

        if w == 0:
            return self._empty_coo()
        if not tx_step.size:
            bump("skip-empty", w)
            return self._empty_coo()
        if mode == "dense":
            bump("coo-dense", w)
            return self._dense_coo(w, tx_step, tx_node)
        if mode == "sparse":
            bump(
                "coo-gather" if w <= GATHER_WINDOW_WIDTH else "coo-spmm",
                w,
            )
            return self._sparse_coo(w, tx_step, tx_node)
        dense_rows = self._dense_rows_tx(w, tx_step, tx_node)
        if probe_numba():  # pragma: no cover - needs numba
            sparse_exec = self._numba_coo
            sparse_name = "coo-csr-numba"
        else:
            sparse_exec = self._sparse_coo
            sparse_name = None
        if not dense_rows.any():
            bump(
                sparse_name
                or ("coo-gather" if w <= GATHER_WINDOW_WIDTH else "coo-spmm"),
                w,
            )
            return sparse_exec(w, tx_step, tx_node)
        if dense_rows.all():
            bump("coo-dense", w)
            return self._dense_coo(w, tx_step, tx_node)
        parts = []
        for rows, execute, name in (
            (dense_rows, self._dense_coo, "coo-dense"),
            (~dense_rows, sparse_exec, sparse_name or "coo-sparse-mixed"),
        ):
            # Re-key the sub-block's transmitters onto its own row
            # numbering; pairs stay row-major.
            idx = np.flatnonzero(rows)
            bump(name, idx.size)
            sel = rows[tx_step]
            renum = np.cumsum(rows) - 1
            step, node, sender = execute(
                idx.size, renum[tx_step[sel]], tx_node[sel]
            )
            parts.append((idx[step], node, sender))
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )


__all__ = [
    "ALL_DELIVERY_MODES",
    "COMPILED_DELIVERY_MODES",
    "DeliveryKernels",
    "available_delivery_modes",
    "compiled_kernel_name",
    "probe_cupy",
    "probe_numba",
    "require_delivery_mode",
]
