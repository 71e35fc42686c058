"""Per-graph cached invariants: the ``GraphContext`` engine cache.

Monte-Carlo experiments rerun the same pipeline on the same graph dozens
to thousands of times, and before this cache existed every trial paid
again for facts that never change between trials: the CSR adjacency
(rebuilt by every :class:`~repro.radio.network.RadioNetwork` and every
``Partition`` call), the degree vector, the diameter (an all-sources BFS
``compete`` recomputed per run), and a deterministic maximal independent
set for analyses that want a fixed center set.

:func:`graph_context` hands out one :class:`GraphContext` per graph
object, memoized in a :class:`weakref.WeakKeyDictionary` and invalidated
automatically when the graph's node/edge counts change. All cached
quantities are *randomness-free* — anything drawn from an ``rng`` (the
random-order MIS inside ``compete``, exponential shifts, ...) stays
per-trial by design, so caching never changes a distribution.

The CSR arrays use int32 indices (the layout the vectorized hot paths
in :mod:`repro.radio.network` and :mod:`repro.core.mpx` consume), and
BFS-style queries are routed through :mod:`scipy.sparse.csgraph` instead
of per-call networkx traversals. The window product's matrix, the
adjacency plus twice the identity (:func:`plus_2i`), is cached here too,
so every network over one graph multiplies by the same copy.
"""

from __future__ import annotations

import weakref
from typing import Hashable, Iterable

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .independence import greedy_independent_set, greedy_independent_set_csr

#: Sources per chunk when sweeping all-pairs BFS for the diameter; bounds
#: the dense distance block at ``_BFS_CHUNK * n`` float64 entries.
_BFS_CHUNK = 256

_CACHE: "weakref.WeakKeyDictionary[nx.Graph, GraphContext]" = (
    weakref.WeakKeyDictionary()
)


def plus_2i(indptr: np.ndarray, indices: np.ndarray, n: int) -> sp.csr_array:
    """``A + 2I`` of the all-ones CSR adjacency ``(indptr, indices)``.

    The matrix :meth:`~repro.engine.kernels.DeliveryKernels.execute_coo`
    multiplies transmitter rows by: row ``i`` holds ``A``'s row ``i``
    (values 1) followed by the diagonal entry ``(i, i)`` valued 2, so a
    transmitter's own cell carries twice its packed value and fails the
    clean-reception test by itself. Built with numpy in one pass; the
    index arrays are int32 unless ``nnz + n`` outgrows int32.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    total = int(indptr[-1]) + n
    itype = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    out_indptr = (indptr + np.arange(n + 1)).astype(itype)
    diagonal = out_indptr[1:] - 1
    off = np.ones(total, dtype=bool)
    off[diagonal] = False
    out_indices = np.empty(total, dtype=itype)
    out_indices[off] = indices
    out_indices[diagonal] = np.arange(n, dtype=itype)
    data = np.ones(total, dtype=np.float64)
    data[diagonal] = 2.0
    return sp.csr_array((data, out_indices, out_indptr), shape=(n, n))


class GraphContext:
    """Cached structural facts of one graph, in CSR-native form.

    Build via :func:`graph_context` (which memoizes per graph object)
    rather than calling the constructor directly. All attributes are
    derived from the graph once; lazy properties compute on first access
    and are cached for the lifetime of the context.

    Attributes
    ----------
    n, m:
        Node and edge counts at construction time (used for staleness
        checks by :func:`graph_context`).
    nodelist:
        Node labels in graph iteration order; CSR row ``i`` corresponds
        to ``nodelist[i]``.
    indptr, indices:
        The int32 CSR adjacency of the graph over ``nodelist`` order.
        Symmetric: every undirected edge appears in both directions.
    degrees:
        Degree of each node, aligned with ``nodelist``.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self._graph_ref = weakref.ref(graph)
        self.n = graph.number_of_nodes()
        self.m = graph.number_of_edges()
        # Array-native graphs (the corpus layer's CSRGraph) hand their
        # CSR over by reference — memmap/shared-memory views included —
        # instead of round-tripping through networkx conversion. They
        # are identity-labeled by contract.
        self._from_arrays = hasattr(graph, "csr_arrays")
        if self._from_arrays:
            self.nodelist = range(self.n)  # type: ignore[assignment]
            self._index: dict[Hashable, int] | None = None
            self.indptr, self.indices = graph.csr_arrays()
            self._csr = sp.csr_array(
                (
                    np.ones(len(self.indices), dtype=np.float64),
                    self.indices,
                    self.indptr,
                ),
                shape=(self.n, self.n),
            )
            self._identity_order = True
        else:
            self.nodelist: list[Hashable] = list(graph.nodes)
            self._index = {
                label: i for i, label in enumerate(self.nodelist)
            }
            if self.n:
                adj = nx.to_scipy_sparse_array(
                    graph, nodelist=self.nodelist, format="csr"
                )
                adj = (adj != 0).astype(np.float64)
                self.indptr = adj.indptr.astype(np.int32)
                self.indices = adj.indices.astype(np.int32)
                self._csr = sp.csr_array(
                    (adj.data, self.indices, self.indptr),
                    shape=(self.n, self.n),
                )
            else:
                self.indptr = np.zeros(1, dtype=np.int32)
                self.indices = np.zeros(0, dtype=np.int32)
                self._csr = sp.csr_array((0, 0), dtype=np.float64)
            self._identity_order = self.nodelist == list(range(self.n))
        self.degrees = np.diff(self.indptr).astype(np.int64)
        self._plus_2i: sp.csr_array | None = None
        self._identity_csr: sp.csr_array | None = None
        self._edges: tuple[np.ndarray, np.ndarray] | None = None
        self._diameter: int | None = None
        self._connected: bool | None = None
        self._self_loops: bool | None = None
        self._mis: list[Hashable] | None = None
        if self._from_arrays:
            # Stored invariants (corpus entries cache them alongside
            # the arrays) seed the lazy caches: a mmap-loaded graph
            # answers diameter/mis without recomputing.
            cached = getattr(graph, "invariants", None) or {}
            if "diameter" in cached:
                self._diameter = int(cached["diameter"])
            if "connected" in cached:
                self._connected = bool(cached["connected"])
            if "mis" in cached:
                self._mis = [int(v) for v in np.asarray(cached["mis"])]

    # ------------------------------------------------------------------
    # adjacency views
    # ------------------------------------------------------------------
    @property
    def csr(self) -> sp.csr_array:
        """Binary float64 CSR adjacency in ``nodelist`` order."""
        return self._csr

    def csr_plus_2i(self) -> sp.csr_array:
        """``A + 2I`` over :attr:`csr` (:func:`plus_2i`), built once.

        Graph storage like :attr:`csr`: ``(nnz + n) * 12 + (n + 1) * 4``
        bytes with int32 indices. :class:`~repro.radio.network.RadioNetwork`
        fetches it at construction, so it exists before any window runs.
        """
        if self._plus_2i is None:
            self._plus_2i = plus_2i(self.indptr, self.indices, self.n)
        return self._plus_2i

    @property
    def has_identity_labels(self) -> bool:
        """Whether iteration order is exactly ``0..n-1`` (label == row)."""
        return self._identity_order

    def identity_csr(self) -> sp.csr_array:
        """CSR adjacency with row ``i`` == node label ``i``.

        Requires integer labels ``0..n-1``; when iteration order already
        matches (the common case for the generators), this is
        :attr:`csr` itself, otherwise a relabeled copy is built once.
        """
        if self._identity_order:
            return self._csr
        if set(self.nodelist) != set(range(self.n)):
            raise ValueError(
                "identity_csr requires integer node labels 0..n-1"
            )
        if self._identity_csr is None:
            graph = self._require_graph()
            adj = nx.to_scipy_sparse_array(
                graph, nodelist=range(self.n), format="csr"
            )
            adj = (adj != 0).astype(np.float64)
            self._identity_csr = sp.csr_array(
                (
                    adj.data,
                    adj.indices.astype(np.int32),
                    adj.indptr.astype(np.int32),
                ),
                shape=(self.n, self.n),
            )
        return self._identity_csr

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edge arrays ``(src, dst)`` covering both directions.

        Aligned with the CSR layout: ``src`` repeats each row index by
        its degree, ``dst`` is :attr:`indices`. Vectorized one-hop
        updates (``np.maximum.at`` style) consume these directly.
        """
        if self._edges is None:
            src = np.repeat(
                np.arange(self.n, dtype=np.int64), self.degrees
            )
            self._edges = (src, self.indices.astype(np.int64))
        return self._edges

    def index_of(self, label: Hashable) -> int:
        """CSR row of the node with this label."""
        if self._index is None:  # array-native: labels are rows
            try:
                row = int(label)
            except (TypeError, ValueError, OverflowError):
                raise KeyError(label) from None
            if row != label or not 0 <= row < self.n:
                raise KeyError(label)
            return row
        return self._index[label]

    def induced_csr(
        self, members: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the induced subgraph on ``members``.

        ``members`` are CSR row indices; the returned arrays describe
        the induced subgraph relabeled ``0..k-1`` in ``members`` order,
        sliced directly out of the cached parent CSR — no networkx
        subgraph/relabel copies. Callers that partition one subgraph
        repeatedly (Compete's fine clusterings slice each coarse
        cluster once and redraw ``len(j_range) * fine_per_j`` times)
        hold on to the returned arrays; nothing is memoized here, since
        member sets differ across calls in practice.
        """
        members = np.asarray(members, dtype=np.int64)
        k = members.size
        local = np.full(self.n, -1, dtype=np.int64)
        local[members] = np.arange(k)
        indptr64 = self.indptr.astype(np.int64)
        starts = indptr64[members]
        lens = indptr64[members + 1] - starts
        total = int(lens.sum())
        # Positions of the members' neighbor lists inside `indices`.
        offsets = np.repeat(
            starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
        )
        cols = local[self.indices[np.arange(total) + offsets]]
        keep = cols >= 0
        row_of = np.repeat(np.arange(k), lens)
        counts = np.bincount(row_of[keep], minlength=k)
        sub_indptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int32)
        sub_indices = cols[keep].astype(np.int32)
        return sub_indptr, sub_indices

    # ------------------------------------------------------------------
    # cached graph facts
    # ------------------------------------------------------------------
    @property
    def has_self_loops(self) -> bool:
        """Whether any node is its own neighbor (scanned once, cached).

        :class:`~repro.radio.network.RadioNetwork` refuses such graphs;
        round-accounted protocols, which only read the context, do not.
        """
        if self._self_loops is None:
            self._self_loops = bool(self._csr.diagonal().any())
        return self._self_loops

    def is_connected(self) -> bool:
        """Whether the graph is connected (cached)."""
        if self._connected is None:
            if self.n <= 1:
                self._connected = True
            else:
                n_comp = csgraph.connected_components(
                    self._csr, directed=False, return_labels=False
                )
                self._connected = bool(n_comp == 1)
        return self._connected

    @property
    def diameter(self) -> int:
        """Exact diameter via chunked all-sources BFS (cached).

        Raises ``ValueError`` on the empty graph or a disconnected one,
        matching :func:`repro.graphs.properties.diameter`.
        """
        if self._diameter is None:
            if self.n == 0:
                raise ValueError("diameter of the empty graph is undefined")
            if self.n == 1:
                self._diameter = 0
                return 0
            if not self.is_connected():
                raise ValueError("diameter requires a connected graph")
            best = 0.0
            for start in range(0, self.n, _BFS_CHUNK):
                block = self.bfs_distances(
                    range(start, min(self.n, start + _BFS_CHUNK))
                )
                best = max(best, float(block.max()))
            self._diameter = int(best)
        return self._diameter

    def bfs_distances(self, sources: Iterable[int] | int) -> np.ndarray:
        """Unweighted BFS distances from ``sources`` (CSR row indices).

        Returns a float64 array (``inf`` for unreachable nodes), shaped
        ``(n,)`` for a scalar source and ``(len(sources), n)`` otherwise
        — the :func:`scipy.sparse.csgraph.dijkstra` convention.
        """
        return csgraph.dijkstra(
            self._csr, directed=False, unweighted=True, indices=sources
        )

    def mis(self) -> list[Hashable]:
        """A deterministic greedy maximal independent set (cached).

        The min-degree greedy of
        :func:`repro.graphs.independence.greedy_independent_set` — a
        fixed, randomness-free center set for analyses and oracles.
        Algorithms whose guarantees rely on a *random* MIS (``compete``)
        keep drawing their own per trial.
        """
        if self._mis is None:
            if self._from_arrays:
                self._mis = [
                    int(v)
                    for v in greedy_independent_set_csr(
                        self.indptr, self.indices
                    )
                ]
            else:
                self._mis = sorted(
                    greedy_independent_set(self._require_graph()),
                    key=lambda v: self._index[v],
                )
        return list(self._mis)

    def alpha_lower(self) -> int:
        """Greedy lower bound on the independence number ``alpha``."""
        return max(1, len(self.mis()))

    def _require_graph(self) -> nx.Graph:
        graph = self._graph_ref()
        if graph is None:
            raise RuntimeError(
                "GraphContext outlived its graph; rebuild via graph_context"
            )
        return graph


def graph_context(graph: nx.Graph) -> GraphContext:
    """The memoized :class:`GraphContext` of ``graph``.

    One context is cached per graph object (weakly, so contexts die with
    their graphs) and rebuilt automatically if the graph's node or edge
    count changes. Mutating a graph *in place while preserving both
    counts* is not detected — treat graphs handed to the pipeline as
    frozen, which every caller in this package does.
    """
    ctx = _CACHE.get(graph)
    if (
        ctx is None
        or ctx.n != graph.number_of_nodes()
        or ctx.m != graph.number_of_edges()
    ):
        ctx = GraphContext(graph)
        try:
            _CACHE[graph] = ctx
        except TypeError:  # pragma: no cover - non-weakrefable graph type
            pass
    return ctx


def distances_from(
    graph: nx.Graph, source: Hashable, context: GraphContext | None = None
) -> dict[Hashable, int]:
    """Hop distances from ``source`` to every reachable node.

    A drop-in replacement for
    ``nx.single_source_shortest_path_length(graph, source)`` that runs
    one :mod:`scipy.sparse.csgraph` BFS over the cached CSR; unreachable
    nodes are absent from the result, matching the networkx contract.
    """
    ctx = context if context is not None else graph_context(graph)
    dist = ctx.bfs_distances(ctx.index_of(source))
    reach = np.nonzero(np.isfinite(dist))[0]
    return {ctx.nodelist[i]: int(dist[i]) for i in reach}


__all__ = ["GraphContext", "graph_context", "distances_from", "plus_2i"]
