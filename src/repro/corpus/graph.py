"""``CSRGraph``: an array-native graph the rest of the repo can run on.

The corpus layer's in-memory form: a symmetric int32 CSR adjacency
(``indptr``/``indices``), optional point positions, the same metadata
dict networkx graphs carry (``graph.graph["family"]`` etc.), and any
cached invariants that came with it from the store. The arrays may be
plain ndarrays or read-only ``np.memmap`` views over a corpus entry —
a ``CSRGraph`` never copies them. A mapped graph records its entry
directory, which is all a pool worker needs to map the same pages.

The class duck-types exactly the slice of the networkx surface the
pipeline consumes (``number_of_nodes``, ``number_of_edges``,
``is_directed``, ``nodes``, ``neighbors``, ``degree``, ``edges``, the
``.graph`` attribute dict, weakref-ability), plus ``csr_arrays()`` —
the marker method :class:`~repro.graphs.context.GraphContext` detects
to adopt the arrays directly instead of converting through networkx.
Nodes are always ``0..n-1``; corpus graphs are identity-labeled by
construction.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """Zero-copy CSR graph over caller-owned arrays.

    Parameters
    ----------
    indptr, indices:
        Symmetric CSR adjacency, int32, ``len(indptr) == n + 1``. Held
        by reference — memmap views stay zero-copy.
    positions:
        Optional ``(n, 2)`` float64 point coordinates (UDG families).
    meta:
        Metadata dict, exposed as :attr:`graph` (the networkx
        convention): ``family``, ``radius``, and for stored graphs the
        content ``digest``.
    invariants:
        Cached invariants from the store (``diameter``, ``connected``,
        ``mis``); :class:`~repro.graphs.context.GraphContext` seeds its
        lazy caches from these instead of recomputing.
    source:
        Where the arrays live: ``"memory"`` (generated, or loaded with
        ``mmap=False``) or ``"mmap"`` (mapped from a corpus entry on
        disk) — recorded in run provenance.
    entry:
        The absolute path of the corpus entry directory the arrays are
        mapped from, set by :func:`~repro.corpus.store.load_graph` when
        it maps; ``None`` otherwise. The arrays are then read-only
        views of that entry's files, so the path alone names the graph.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        positions: np.ndarray | None = None,
        meta: dict[str, Any] | None = None,
        invariants: dict[str, Any] | None = None,
        source: str = "memory",
        entry: str | None = None,
    ) -> None:
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-d array of length n+1")
        if indptr.dtype != np.int32 or indices.dtype != np.int32:
            raise ValueError(
                "corpus CSR arrays must be int32, got "
                f"indptr={indptr.dtype}, indices={indices.dtype}"
            )
        if int(indptr[-1]) != len(indices):
            raise ValueError(
                f"indptr[-1]={int(indptr[-1])} does not match "
                f"len(indices)={len(indices)}"
            )
        self.indptr = indptr
        self.indices = indices
        self.positions = positions
        self.graph: dict[str, Any] = dict(meta or {})
        self.invariants: dict[str, Any] = dict(invariants or {})
        self.source = source
        self.entry = entry
        self._n = len(indptr) - 1

    # -- the networkx slice the pipeline consumes -----------------------

    def number_of_nodes(self) -> int:
        """Node count ``n`` (nodes are always ``0..n-1``)."""
        return self._n

    def number_of_edges(self) -> int:
        """Undirected edge count (half the directed CSR entries)."""
        return len(self.indices) // 2

    def is_directed(self) -> bool:
        """Always ``False`` — corpus graphs are symmetric by format."""
        return False

    @property
    def nodes(self) -> range:
        return range(self._n)

    def neighbors(self, v: int) -> Iterator[int]:
        """Iterate ``v``'s neighbors in sorted order (CSR row slice)."""
        start, stop = self.indptr[v], self.indptr[v + 1]
        return iter(self.indices[start:stop].tolist())

    def degree(self, v: int) -> int:
        """Degree of node ``v`` — the CSR row width."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        return (
            (u, w)
            for u in range(self._n)
            for w in self.indices[
                self.indptr[u] : self.indptr[u + 1]
            ].tolist()
            if u < w
        )

    def __len__(self) -> int:
        return self._n

    def __contains__(self, v: object) -> bool:
        return isinstance(v, (int, np.integer)) and 0 <= int(v) < self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    # -- array-native surface -------------------------------------------

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(indptr, indices)`` pair, by reference (never a copy).

        This method doubles as the marker
        :class:`~repro.graphs.context.GraphContext` detects: any object
        providing it is adopted array-natively.
        """
        return self.indptr, self.indices

    def to_networkx(self):
        """Materialize as a real ``networkx.Graph`` (copies, O(n + m)).

        The escape hatch for graph-accepting protocols (``broadcast``,
        ``leader``, ``partition``) and anything else that needs full
        networkx semantics.
        """
        import networkx as nx

        graph = nx.Graph(**self.graph)
        graph.add_nodes_from(range(self._n))
        src = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self.indptr)
        )
        mask = src < self.indices
        graph.add_edges_from(
            zip(src[mask].tolist(), self.indices[mask].tolist())
        )
        if self.positions is not None:
            for v in range(self._n):
                graph.nodes[v]["pos"] = tuple(self.positions[v])
        return graph

    def __repr__(self) -> str:
        family = self.graph.get("family", "graph")
        return (
            f"CSRGraph({family!r}, n={self._n}, "
            f"m={self.number_of_edges()}, source={self.source!r})"
        )
