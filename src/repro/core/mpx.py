"""Miller–Peng–Xu clustering with exponential shifts (paper Section 2.2).

The clustering process: each potential center ``v`` draws
``delta_v ~ Exponential(beta)``; each node ``u`` joins the cluster of the
center ``v`` minimizing ``dist(u, v) - delta_v``. The paper's single
change to the pipeline of [7] is the *center set*: ``Partition(beta, MIS)``
draws centers only from a maximal independent set instead of all nodes,
which is what converts the ``log_D n`` of [7, Thm 2.2] into the paper's
``log_D alpha`` (Theorem 2).

This module computes the clustering centrally (shifted multi-source
shortest paths); :mod:`repro.core.partition_radio` is the packet-level
radio implementation, and tests check the two agree in distribution. The
radio round cost of constructing a clustering is charged by
:mod:`repro.core.costmodel` in the round-accounted pipeline.

Performance: :func:`partition` runs a CSR-native multi-source
frontier relaxation — a Dial-style unit-weight wave over numpy arrays
that settles whole frontiers per sweep instead of popping one ``(key,
center, node)`` tuple at a time from a Python heap. Shift keys are
accumulated as the same sequential ``+1.0`` float additions the heap
performed, and the exact ``(key, center)`` lexicographic tiebreak is
realized by a per-frontier ``lexsort``; assignments, hop counts, and
keys are bit-identical to the reference multi-source Dijkstra, which
remains available as :func:`partition_reference` for equivalence
tests and benchmarking. Compete redraws clusterings many times per
run, so this is one of the two hottest paths in the repository (the
other is radio delivery).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

import networkx as nx
import numpy as np

from ..graphs.context import graph_context
from ..radio.errors import ProtocolError
from .cluster import Clustering


def draw_shifts(
    centers: Iterable[int], beta: float, rng: np.random.Generator
) -> dict[int, float]:
    """Draw ``delta_v ~ Exponential(beta)`` for each center.

    ``beta`` is the *rate*: mean shift ``1/beta``. Smaller ``beta`` means
    larger shifts and hence larger clusters (diameter ``O(log n / beta)``
    whp).
    """
    if beta <= 0:
        raise ProtocolError(f"beta must be positive, got {beta}")
    centers = list(centers)
    shifts = rng.exponential(scale=1.0 / beta, size=len(centers))
    return {c: float(s) for c, s in zip(centers, shifts)}


def _validate_partition_inputs(
    graph: nx.Graph,
    beta: float,
    centers: Iterable[int],
    rng: np.random.Generator,
    shifts: dict[int, float] | None,
) -> tuple[int, list[int], dict[int, float]]:
    """Shared validation/shift-drawing for both partition engines."""
    centers = sorted(set(int(c) for c in centers))
    if not centers:
        raise ValueError("need at least one center")
    n = graph.number_of_nodes()
    if set(graph.nodes) != set(range(n)):
        raise ValueError(
            "partition expects integer node labels 0..n-1; relabel with "
            "networkx.convert_node_labels_to_integers first"
        )
    if shifts is None:
        shifts = draw_shifts(centers, beta, rng)
    else:
        missing = [c for c in centers if c not in shifts]
        if missing:
            raise ValueError(f"shifts missing for centers: {missing[:5]}")
    return n, centers, shifts


def _finish_partition(
    beta: float,
    centers: list[int],
    shifts: dict[int, float],
    best_center: np.ndarray,
    hops: np.ndarray,
) -> Clustering:
    """Package engine output, checking every node was reached."""
    if (best_center == -1).any():
        unreached = int((best_center == -1).sum())
        raise ValueError(
            f"{unreached} nodes unreachable from any center; partition "
            "requires centers to dominate every component"
        )
    return Clustering(
        beta=beta,
        centers=centers,
        assignment=best_center,
        distance_to_center=hops,
        delta=dict(shifts),
    )


def partition(
    graph: nx.Graph,
    beta: float,
    centers: Iterable[int],
    rng: np.random.Generator,
    shifts: dict[int, float] | None = None,
) -> Clustering:
    """``Partition(beta, centers)`` — one MPX clustering draw.

    Parameters
    ----------
    graph:
        Undirected graph with nodes labeled ``0..n-1`` (as produced by the
        generators in :mod:`repro.graphs`). Every node must be within
        finite distance of some center — guaranteed when centers form a
        maximal independent set (every node is in it or adjacent to it)
        or when the graph is connected.
    beta:
        Exponential shift rate.
    centers:
        Candidate center indices; the paper's variant passes the MIS,
        the [7] baseline passes all nodes.
    rng:
        Randomness for the shift draws.
    shifts:
        Pre-drawn shifts (for paired comparisons across center sets or
        for the radio implementation to reuse); drawn fresh if omitted.

    Returns
    -------
    Clustering
        Every node assigned to the center minimizing
        ``dist(u, v) - delta_v``, ties broken by center index (the
        consistent tiebreak that keeps clusters connected).
    """
    n, centers, shifts = _validate_partition_inputs(
        graph, beta, centers, rng, shifts
    )
    csr = graph_context(graph).identity_csr()
    best_center, hops = _relax_frontier(
        csr.indptr, csr.indices, n, centers, shifts
    )
    return _finish_partition(beta, centers, shifts, best_center, hops)


def partition_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    beta: float,
    centers: Iterable[int],
    rng: np.random.Generator,
    shifts: dict[int, float] | None = None,
) -> Clustering:
    """``Partition(beta, centers)`` directly on CSR arrays.

    The graph-free entry point of the frontier engine: callers that
    already hold a CSR adjacency — Compete's fine clusterings run on
    :meth:`~repro.graphs.context.GraphContext.induced_csr` slices of
    coarse clusters — skip the networkx validation layer entirely.
    Node indices are ``0..n-1`` CSR rows; results are bit-identical to
    :func:`partition` on the equivalent graph under shared shifts.
    """
    centers = sorted(set(int(c) for c in centers))
    if not centers:
        raise ValueError("need at least one center")
    if shifts is None:
        shifts = draw_shifts(centers, beta, rng)
    else:
        missing = [c for c in centers if c not in shifts]
        if missing:
            raise ValueError(f"shifts missing for centers: {missing[:5]}")
    best_center, hops = _relax_frontier(indptr, indices, n, centers, shifts)
    return _finish_partition(beta, centers, shifts, best_center, hops)


def partition_reference(
    graph: nx.Graph,
    beta: float,
    centers: Iterable[int],
    rng: np.random.Generator,
    shifts: dict[int, float] | None = None,
) -> Clustering:
    """The original heap-based multi-source Dijkstra partition.

    Kept as the executable specification of :func:`partition`:
    equivalence tests check the frontier engine reproduces its
    assignments and hop counts bit-for-bit under shared shifts, and
    ``benchmarks/bench_p1_engine.py`` measures the speedup against it.
    """
    n, centers, shifts = _validate_partition_inputs(
        graph, beta, centers, rng, shifts
    )
    best_center, hops = _relax_dijkstra(graph, n, centers, shifts)
    return _finish_partition(beta, centers, shifts, best_center, hops)


def _relax_dijkstra(
    graph: nx.Graph,
    n: int,
    centers: list[int],
    shifts: dict[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source Dijkstra on shifted keys (the reference engine).

    Center ``c`` starts at key ``-delta_c``; unit edge weights.
    Lexicographic ``(key, center)`` priority realizes the consistent
    tiebreak.
    """
    INF = math.inf
    best_key = np.full(n, INF, dtype=np.float64)
    best_center = np.full(n, -1, dtype=np.int64)
    hops = np.full(n, -1, dtype=np.int64)

    heap: list[tuple[float, int, int, int]] = []
    for c in centers:
        key = -shifts[c]
        heapq.heappush(heap, (key, c, c, 0))
        # Do not pre-commit best_key: a center can be captured by another
        # center whose shifted ball covers it more deeply.

    while heap:
        key, center, u, hop = heapq.heappop(heap)
        if best_center[u] != -1 and (
            key > best_key[u]
            or (key == best_key[u] and center >= best_center[u])
        ):
            continue
        best_key[u] = key
        best_center[u] = center
        hops[u] = hop
        for w in graph.neighbors(u):
            candidate = key + 1.0
            if best_center[w] == -1 or candidate < best_key[w] or (
                candidate == best_key[w] and center < best_center[w]
            ):
                heapq.heappush(heap, (candidate, center, w, hop + 1))

    return best_center, hops


def _relax_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    centers: list[int],
    shifts: dict[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """CSR-native multi-source frontier relaxation (the fast engine).

    Unit edge weights make shifted-Dijkstra a Dial-style wave: every
    sweep relaxes all edges leaving the nodes improved by the previous
    sweep, entirely in numpy. Per sweep, the lexicographically smallest
    ``(key, center)`` candidate per target node is selected with one
    ``lexsort`` + first-of-group reduction; a node re-enters the
    frontier whenever its best candidate improves, so the iteration
    converges to the same fixpoint the heap reaches. Keys accumulate as
    ``parent key + 1.0`` — the identical float additions the heap
    performs — which keeps results bit-identical.
    """
    center_arr = np.asarray(centers, dtype=np.int64)
    shift_arr = np.array([shifts[c] for c in centers], dtype=np.float64)

    best_key = np.full(n, np.inf, dtype=np.float64)
    best_center = np.full(n, -1, dtype=np.int64)
    hops = np.full(n, -1, dtype=np.int64)
    best_key[center_arr] = -shift_arr
    best_center[center_arr] = center_arr
    hops[center_arr] = 0

    indptr64 = indptr.astype(np.int64)
    frontier = center_arr
    while frontier.size:
        starts = indptr64[frontier]
        degs = indptr64[frontier + 1] - starts
        total = int(degs.sum())
        if total == 0:
            break
        # Positions of the frontier's neighbor lists inside `indices`.
        offsets = np.repeat(starts - np.concatenate(
            ([0], np.cumsum(degs)[:-1])
        ), degs)
        pos = np.arange(total, dtype=np.int64) + offsets
        src = np.repeat(frontier, degs)
        dst = indices[pos].astype(np.int64)

        cand_key = best_key[src] + 1.0
        cand_center = best_center[src]
        cand_hop = hops[src] + 1

        # Lexicographically smallest (key, center) candidate per target.
        order = np.lexsort((cand_center, cand_key, dst))
        d_sorted = dst[order]
        first = np.ones(d_sorted.size, dtype=bool)
        first[1:] = d_sorted[1:] != d_sorted[:-1]
        win = order[first]

        u = dst[win]
        k = cand_key[win]
        c = cand_center[win]
        h = cand_hop[win]
        improve = (k < best_key[u]) | (
            (k == best_key[u]) & (c < best_center[u])
        )
        u, k, c, h = u[improve], k[improve], c[improve], h[improve]
        best_key[u] = k
        best_center[u] = c
        hops[u] = h
        frontier = u

    return best_center, hops


def j_range(diameter: int) -> list[int]:
    """The integer ``j`` range of Compete: ``0.01 log D <= j <= 0.1 log D``.

    For the small diameters reachable in simulation this window can be
    empty or a single point; we widen it to always contain at least
    ``[1, max(2, ...)]`` so fine clusterings exist at every scale, and
    record in EXPERIMENTS.md that constants-level widening is a
    simulation-scale accommodation (the paper's range is asymptotic).
    """
    if diameter < 2:
        return [1]
    log_d = math.log2(diameter)
    lo = max(1, math.ceil(0.01 * log_d))
    hi = max(lo + 1, math.floor(0.1 * log_d))
    # At simulation scales 0.1 log2(D) < 2, so extend the window upward a
    # little; betas stay in (0, 1/2] which is all the analysis needs.
    hi = max(hi, min(lo + 3, math.floor(log_d)))
    return list(range(lo, hi + 1))


def beta_of_j(j: int) -> float:
    """``beta = 2^-j`` (the fine-clustering parameter scale)."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return 2.0**-j


def coarse_beta(diameter: int) -> float:
    """The coarse clustering parameter ``beta = D^-0.5`` of Compete."""
    return max(2, diameter) ** -0.5
