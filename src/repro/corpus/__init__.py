"""The graph corpus layer: generate at scale, persist, map.

Two pieces, one pipeline (ROADMAP item 4):

- :mod:`repro.corpus.generate` — array-native UDG / quasi-UDG
  generation via a cell-grid neighbor search, emitting ``(indptr,
  indices)`` CSR directly in ``O(n + m)``, bit-compatible (same rng
  stream, same edge set) with the networkx reference generators in
  :mod:`repro.graphs`;
- :mod:`repro.corpus.store` — the on-disk entry format (flat ``.npy``
  + ``meta.json``, content-digest keyed, cached invariants), loaded
  zero-copy via ``np.load(mmap_mode="r")``. Pool workers map the same
  entry by its directory, so the page cache shares one copy among
  them.

The in-memory common coin is :class:`~repro.corpus.graph.CSRGraph`,
which the rest of the repo (``GraphContext``, ``RadioNetwork``,
``repro.api.run``) consumes directly::

    from repro import corpus
    import numpy as np

    rng = np.random.default_rng(0)
    g = corpus.random_udg_csr(100_000, side=187.0, rng=rng)
    store = corpus.CorpusStore("corpus/")
    digest = store.add(g)

    loaded = store.load(digest)          # mmap, zero-copy
    # repro.api.run("mis", loaded, seed=3) — or run(..., corpus=path)
"""

from .generate import (
    grid_udg_csr,
    qudg_csr_graph,
    random_udg_csr,
    udg_csr,
    udg_csr_graph,
)
from .graph import CSRGraph
from .store import CorpusStore, graph_digest, load_graph, save_graph

__all__ = [
    "CSRGraph",
    "CorpusStore",
    "graph_digest",
    "grid_udg_csr",
    "load_graph",
    "qudg_csr_graph",
    "random_udg_csr",
    "save_graph",
    "udg_csr",
    "udg_csr_graph",
]
