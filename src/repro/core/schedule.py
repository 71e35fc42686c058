"""Intra-cluster transmission schedules (packet level).

``Intra-Cluster Propagation`` (paper Algorithm 9) relies on "fast
schedules" from Ghaffari–Haeupler–Khabbazian [17] as implemented by
Haeupler–Wajc [18] to move a message across a cluster in time linear in
the distance rather than ``distance x log n``. The paper uses those
schedules as a black box; per DESIGN.md substitution 1 we realize them at
packet level with the classic *BFS-layer pipelining + distance-2
coloring* construction:

* build a BFS layering of each cluster from its center;
* properly color the cluster's nodes so that two nodes sharing a common
  in-cluster neighbor get different colors (distance-2 coloring);
* a *slot* is a (layer, color) pair; when a slot fires, all its nodes
  transmit. Within a cluster no listener can hear two same-slot
  transmitters, so downward (and upward) passes are collision-free
  inside the cluster; collisions across cluster boundaries remain and
  are handled by the Decay background process (Algorithm 10), exactly
  the role it plays in the paper.

On growth-bounded graphs the number of colors is ``O(1)``-ish (bounded
by one plus the maximum distance-2 degree), so a pass over distance
``ell`` costs ``O(ell)`` slots — the behavior the paper's accounting
assumes.

Performance: both schedule ingredients are computed over the
*intra-cluster* CSR adjacency (between-cluster edges masked out) in
whole-graph passes — the BFS layering as one batched
:mod:`scipy.sparse.csgraph` multi-source sweep, and the distance-2
coloring as one sparse square (``A + A @ A``) followed by a single
greedy pass over all clusters at once (clusters are disjoint components
of the square, so one global greedy equals the per-cluster greedies).
The original per-cluster ``networkx.power`` + ``greedy_color``
construction is retained as :func:`build_schedule_reference`. Both are
greedy colorings of the same square graph; the CSR pass orders nodes
deterministically by (two-hop-degree desc, index asc), whereas the
networkx path inherits Python set iteration order from subgraph views,
so individual colors may differ between the two — the equivalence
suite checks the properties that matter (identical layers; a *valid*
distance-2 coloring, which is what makes slot passes collision-free
in-cluster; color counts within the same greedy bound).
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from ..graphs.context import graph_context
from .cluster import Clustering


@dataclasses.dataclass
class ClusterSchedule:
    """Packet-level schedule data for every cluster of a clustering.

    Attributes
    ----------
    layer:
        Length-``n`` array: BFS layer of each node inside its own cluster
        (0 at the center).
    color:
        Length-``n`` array: distance-2 color of each node within its
        cluster.
    n_layers, n_colors:
        Global maxima, defining the synchronized slot grid — all clusters
        run their slots in lockstep, slot ``(L, c)`` firing every node
        with ``layer == L`` and ``color == c``.
    """

    layer: np.ndarray
    color: np.ndarray
    n_layers: int
    n_colors: int
    _pass_masks_cache: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def slot_members(self, layer: int, color: int) -> np.ndarray:
        """Boolean mask of the nodes firing in slot ``(layer, color)``."""
        return (self.layer == layer) & (self.color == color)

    def pass_masks(self, layers: list[int]) -> np.ndarray:
        """Member masks of every slot of a pass over ``layers``, stacked.

        Row ``k`` is :meth:`slot_members` of the ``k``-th slot when the
        given layers fire in order, each expanded into its color slots
        — exactly the firing order of an ICP pass. Computed as one
        vectorized comparison against a combined ``layer * n_colors +
        color`` key and cached per layer tuple, so the three passes of
        an ICP phase (down/up/down share two layer orders) build their
        slot masks once instead of twice per slot per pass.
        """
        key = tuple(int(layer) for layer in layers)
        cached = self._pass_masks_cache.get(key)
        if cached is not None:
            return cached
        node_key = self.layer * self.n_colors + self.color
        slot_keys = np.array(
            [
                layer * self.n_colors + color
                for layer in key
                for color in range(self.n_colors)
            ],
            dtype=np.int64,
        )
        masks = slot_keys[:, None] == node_key[None, :]
        self._pass_masks_cache[key] = masks
        return masks


def _intra_cluster_csr(
    graph: nx.Graph, clustering: Clustering
) -> sp.csr_array:
    """CSR adjacency restricted to edges within one cluster.

    Between-cluster edges are masked out, so every cluster becomes its
    own connected component — the shared substrate of the batched
    layering BFS and the vectorized distance-2 coloring.
    """
    n = clustering.n
    ctx = graph_context(graph)
    src, dst = ctx.edges()
    assignment = clustering.assignment
    intra = assignment[src] == assignment[dst]
    return sp.csr_array(
        (np.ones(int(intra.sum()), dtype=np.float64),
         (src[intra], dst[intra])),
        shape=(n, n),
    )


def _cluster_layers(
    masked: sp.csr_array, clustering: Clustering
) -> np.ndarray:
    """In-cluster BFS depth of every node from its own center, batched.

    One :func:`scipy.sparse.csgraph.dijkstra` multi-source BFS over the
    intra-cluster adjacency computes every cluster's layering at once:
    each cluster is its own connected component containing exactly one
    used center, so the min-distance to the center set is the distance
    to the node's own center. This replaces one networkx BFS per
    cluster.
    """
    centers = np.asarray(clustering.used_centers(), dtype=np.int64)
    depths = csgraph.dijkstra(
        masked, directed=False, unweighted=True, indices=centers,
        min_only=True,
    )
    if not np.isfinite(depths).all():
        raise ValueError(
            "clustering has members unreachable from their center "
            "through in-cluster edges; MPX clusters must be connected"
        )
    return depths.astype(np.int64)


def _distance2_color_csr(masked: sp.csr_array) -> np.ndarray:
    """Vectorized distance-2 coloring over the intra-cluster adjacency.

    The two-hop neighborhoods of *all* clusters come from one sparse
    square — ``A + A @ A`` with the diagonal dropped — and a single
    greedy pass colors every node in (two-hop-degree desc, index asc)
    order with the smallest free color. Clusters are disjoint components
    of the square, so the global pass is exactly the per-cluster
    largest-first greedy, in a deterministic order (the networkx
    reference's order floats with Python set iteration).
    """
    n = masked.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    square = (masked + masked @ masked).tocsr()
    square.setdiag(0)
    square.eliminate_zeros()
    indptr = square.indptr
    indices = square.indices
    deg2 = np.diff(indptr)
    order = np.lexsort((np.arange(n), -deg2))

    colors = np.full(n, -1, dtype=np.int64)
    for v in order:
        used = colors[indices[indptr[v] : indptr[v + 1]]]
        used = used[used >= 0]
        if used.size == 0:
            colors[v] = 0
            continue
        present = np.zeros(int(used.max()) + 2, dtype=bool)
        present[used] = True
        colors[v] = int(np.nonzero(~present)[0][0])
    return colors


def build_schedule(
    graph: nx.Graph, clustering: Clustering
) -> ClusterSchedule:
    """Compute the synchronized slot schedule for all clusters.

    Schedule computation is centralized here (an oracle step); the
    distributed construction of [17]/[18] is charged by
    :meth:`repro.core.costmodel.CostModel.schedule_rounds` in the
    round-accounted pipeline. The *use* of the schedule — which
    transmissions collide where — is simulated exactly.

    Both ingredients run over the shared intra-cluster CSR: the
    layering as one batched :mod:`scipy.sparse.csgraph` BFS
    (:func:`_cluster_layers`), the distance-2 coloring as one sparse
    square plus a single global greedy pass
    (:func:`_distance2_color_csr`).

    Clustering indices are interpreted as positions in
    ``list(graph.nodes)`` (the convention of the packet-level radio
    pipeline). For integer-labeled graphs whose iteration order is
    *not* ``0..n-1`` that interpretation conflicts with the
    label-indexed clusterings of :func:`repro.core.mpx.partition`, so
    such graphs are rejected with a clear error — relabel with
    ``networkx.convert_node_labels_to_integers`` first.
    """
    nodes = list(graph.nodes)
    n = len(nodes)
    if set(nodes) == set(range(n)) and nodes != list(range(n)):
        raise ValueError(
            "build_schedule requires integer-labeled graphs to iterate "
            "in order 0..n-1 (clustering indices would be ambiguous); "
            "relabel with networkx.convert_node_labels_to_integers first"
        )
    masked = _intra_cluster_csr(graph, clustering)
    layer = _cluster_layers(masked, clustering)
    color = _distance2_color_csr(masked)
    return ClusterSchedule(
        layer=layer,
        color=color,
        n_layers=int(layer.max()) + 1 if clustering.n else 1,
        n_colors=int(color.max()) + 1 if clustering.n else 1,
    )


def build_schedule_reference(
    graph: nx.Graph, clustering: Clustering
) -> ClusterSchedule:
    """The per-cluster networkx schedule construction (reference).

    :func:`build_schedule`'s layering, with each cluster's square
    (``nx.power``) colored greedily in degree order (``greedy_color``):
    two nodes at distance <= 2 inside a cluster never share a color.
    The equivalence suite checks :func:`build_schedule`'s CSR coloring
    against this on every graph family the pipeline uses.
    """
    schedule = build_schedule(graph, clustering)
    color = np.zeros(clustering.n, dtype=np.int64)
    labels = list(graph.nodes)
    for member_indices in clustering.members().values():
        sub = graph.subgraph([labels[v] for v in member_indices])
        square = nx.power(sub, 2) if sub.number_of_nodes() > 1 else sub
        per_cluster = nx.coloring.greedy_color(
            square, strategy="largest_first"
        )
        for v in member_indices:
            color[v] = per_cluster[labels[v]]
    return dataclasses.replace(
        schedule,
        color=color,
        n_colors=int(color.max()) + 1 if clustering.n else 1,
    )
