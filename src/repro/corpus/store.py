"""The corpus file format and store: persist once, mmap forever.

One stored graph is one *entry directory* of flat ``.npy`` files plus a
``meta.json``::

    udg-n100000-3f1c9a2b44d0/
        meta.json       format tag, counts, digest, family metadata,
                        scalar invariants (connected, diameter)
        indptr.npy      int32, n + 1      (mmap-loaded)
        indices.npy     int32, 2 m        (mmap-loaded)
        positions.npy   float64 (n, 2)    (mmap-loaded, UDG families)
        degrees.npy     int64, n          (cached invariant)
        mis.npy         int64, sorted     (cached invariant, optional)

Separate ``.npy`` members rather than one ``.npz``: ``np.load`` only
memory-maps plain ``.npy`` files (``mmap_mode`` is silently ignored
inside a zip archive), and zero-copy loading is the point of the
format. :func:`load_graph` hands back a :class:`~repro.corpus.graph
.CSRGraph` whose arrays are read-only ``np.memmap`` views — nothing is
read from disk until a consumer touches the pages.

Entries are keyed by a sha256 **content digest** over the CSR arrays,
the positions, and the canonical family metadata. The digest names the
entry directory (with family and size prefixes for human listing),
deduplicates ``add`` calls, and rides into
``RunReport.provenance["corpus"]`` so a result row names the exact
instance it ran on.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any

import numpy as np

from ..graphs.context import graph_context
from .graph import CSRGraph

__all__ = [
    "CorpusStore",
    "graph_digest",
    "save_graph",
    "load_graph",
]

#: Format tag written into every ``meta.json``; loaders refuse others.
FORMAT_VERSION = 1

#: ``invariants="auto"`` thresholds: the exact diameter is an
#: all-sources BFS (quadratic-ish) and the greedy MIS a Python heap
#: loop, so both are cached by default only where they are cheap;
#: ``invariants=True`` forces them at any size.
AUTO_DIAMETER_LIMIT = 4096
AUTO_MIS_LIMIT = 50_000


def _canonical_meta(meta: dict[str, Any]) -> dict[str, Any]:
    """The JSON-serializable subset of a metadata dict, digest-stable."""
    out = {}
    for key in sorted(meta):
        if key == "digest":
            continue
        value = meta[key]
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
    return out


def graph_digest(
    indptr: np.ndarray,
    indices: np.ndarray,
    positions: np.ndarray | None,
    meta: dict[str, Any],
) -> str:
    """sha256 content digest of one graph (hex).

    Covers the CSR arrays byte-for-byte, the positions (when present),
    and the canonical metadata — two graphs share a digest iff they are
    the same instance of the same family.
    """
    h = hashlib.sha256()
    h.update(b"repro-corpus-v1")
    h.update(np.ascontiguousarray(indptr, dtype=np.int32).tobytes())
    h.update(np.ascontiguousarray(indices, dtype=np.int32).tobytes())
    if positions is not None:
        h.update(b"pos")
        h.update(
            np.ascontiguousarray(positions, dtype=np.float64).tobytes()
        )
    h.update(
        json.dumps(_canonical_meta(meta), sort_keys=True).encode()
    )
    return h.hexdigest()


def _as_csr_graph(graph: Any) -> CSRGraph:
    """Coerce a save target to :class:`CSRGraph` (zero-copy when it is one).

    networkx graphs must be identity-labeled (``0..n-1`` in iteration
    order) so CSR rows and node labels agree — the invariant every
    corpus consumer relies on.
    """
    if hasattr(graph, "csr_arrays"):
        return graph
    ctx = graph_context(graph)
    if not ctx.has_identity_labels:
        raise ValueError(
            "corpus entries require identity-labeled graphs (0..n-1); "
            "relabel with nx.convert_node_labels_to_integers first"
        )
    pos = None
    node_pos = [graph.nodes[v].get("pos") for v in range(ctx.n)]
    if ctx.n and all(p is not None for p in node_pos):
        pos = np.asarray(node_pos, dtype=np.float64)
    return CSRGraph(
        ctx.indptr, ctx.indices, positions=pos, meta=dict(graph.graph)
    )


def save_graph(
    graph: Any,
    directory: str | os.PathLike,
    invariants: bool | str = "auto",
) -> str:
    """Write one corpus entry into ``directory``; return its digest.

    ``graph`` may be a :class:`CSRGraph` or an identity-labeled
    networkx graph. ``invariants`` controls the cached facts:
    ``"auto"`` (default) stores degrees + connectivity always and
    diameter / greedy MIS up to the ``AUTO_*`` size limits; ``True``
    forces all of them; ``False`` stores only degrees + connectivity.
    The entry is written atomically (temp dir + ``os.replace``), so a
    crashed save never leaves a half-readable entry.
    """
    if invariants not in (True, False, "auto"):
        raise ValueError(
            f'invariants must be True, False, or "auto", got {invariants!r}'
        )
    cg = _as_csr_graph(graph)
    n = cg.number_of_nodes()
    digest = graph_digest(cg.indptr, cg.indices, cg.positions, cg.graph)

    ctx = graph_context(cg)
    connected = ctx.is_connected()
    scalars: dict[str, Any] = {"connected": bool(connected)}
    arrays: dict[str, np.ndarray] = {
        "degrees": ctx.degrees.astype(np.int64)
    }
    if invariants is True or (
        invariants == "auto" and n <= AUTO_DIAMETER_LIMIT
    ):
        if connected and n > 0:
            scalars["diameter"] = int(ctx.diameter)
    if invariants is True or (invariants == "auto" and n <= AUTO_MIS_LIMIT):
        arrays["mis"] = np.asarray(ctx.mis(), dtype=np.int64)

    directory = pathlib.Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    if directory.exists():
        return digest  # content-addressed: an existing entry is this one
    meta = {
        "format": FORMAT_VERSION,
        "n": n,
        "m": cg.number_of_edges(),
        "digest": digest,
        "meta": _canonical_meta(cg.graph),
        "invariants": scalars,
    }
    tmp = pathlib.Path(
        tempfile.mkdtemp(prefix=".tmp-", dir=directory.parent)
    )
    try:
        np.save(tmp / "indptr.npy", np.ascontiguousarray(cg.indptr))
        np.save(tmp / "indices.npy", np.ascontiguousarray(cg.indices))
        if cg.positions is not None:
            np.save(
                tmp / "positions.npy",
                np.ascontiguousarray(cg.positions, dtype=np.float64),
            )
        for name, arr in arrays.items():
            np.save(tmp / f"{name}.npy", arr)
        (tmp / "meta.json").write_text(json.dumps(meta, indent=1))
        os.replace(tmp, directory)
    finally:
        if tmp.exists():  # pragma: no cover - crash-path cleanup
            for leftover in tmp.iterdir():
                leftover.unlink()
            tmp.rmdir()
    return digest


def load_graph(path: str | os.PathLike, mmap: bool = True) -> CSRGraph:
    """Load a corpus entry as a zero-copy :class:`CSRGraph`.

    With ``mmap`` (default) every array is an ``np.load(...,
    mmap_mode="r")`` view — load time is metadata-only and independent
    of graph size; pages fault in as consumers touch them — and the
    graph records the entry's absolute path as ``entry``. ``mmap=
    False`` materializes plain in-memory copies instead.
    """
    path = pathlib.Path(path)
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise FileNotFoundError(
            f"{path} is not a corpus entry (no meta.json)"
        )
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported corpus format {meta.get('format')!r} in {path} "
            f"(this build reads format {FORMAT_VERSION})"
        )
    mode = "r" if mmap else None

    def _load(name: str) -> np.ndarray | None:
        file = path / f"{name}.npy"
        if not file.is_file():
            return None
        return np.load(file, mmap_mode=mode)

    indptr, indices = _load("indptr"), _load("indices")
    if indptr is None or indices is None:
        raise ValueError(f"corpus entry {path} is missing its CSR arrays")
    invariants: dict[str, Any] = dict(meta.get("invariants") or {})
    for name in ("degrees", "mis"):
        arr = _load(name)
        if arr is not None:
            invariants[name] = arr
    graph_meta = dict(meta.get("meta") or {})
    graph_meta["digest"] = meta["digest"]
    return CSRGraph(
        indptr,
        indices,
        positions=_load("positions"),
        meta=graph_meta,
        invariants=invariants,
        source="mmap" if mmap else "memory",
        entry=str(path.resolve()) if mmap else None,
    )


class CorpusStore:
    """A directory of corpus entries, addressed by content digest.

    ``add`` names each entry ``<family>-n<nodes>-<digest12>`` — listable
    by humans, resolved by digest prefix. The store is plain files; two
    processes adding the same graph race benignly (same digest, same
    bytes, atomic rename).
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)

    def add(self, graph: Any, invariants: bool | str = "auto") -> str:
        """Persist ``graph`` (dedup by digest); return its digest."""
        cg = _as_csr_graph(graph)
        digest = graph_digest(
            cg.indptr, cg.indices, cg.positions, cg.graph
        )
        existing = self._match(digest)
        if existing is not None:
            return digest
        family = str(cg.graph.get("family", "graph")).replace("/", "-")
        name = f"{family}-n{cg.number_of_nodes()}-{digest[:12]}"
        save_graph(cg, self.directory / name, invariants=invariants)
        return digest

    def entries(self) -> list[dict[str, Any]]:
        """``meta.json`` contents of every entry, sorted by name."""
        if not self.directory.is_dir():
            return []
        out = []
        for child in sorted(self.directory.iterdir()):
            meta = child / "meta.json"
            if meta.is_file():
                out.append(json.loads(meta.read_text()))
        return out

    def _match(self, digest_or_prefix: str) -> pathlib.Path | None:
        if not self.directory.is_dir():
            return None
        hits = [
            child
            for child in sorted(self.directory.iterdir())
            if (child / "meta.json").is_file()
            and json.loads((child / "meta.json").read_text())[
                "digest"
            ].startswith(digest_or_prefix)
        ]
        if len(hits) > 1:
            raise ValueError(
                f"digest prefix {digest_or_prefix!r} is ambiguous in "
                f"{self.directory} ({len(hits)} entries)"
            )
        return hits[0] if hits else None

    def __contains__(self, digest_or_prefix: object) -> bool:
        return (
            isinstance(digest_or_prefix, str)
            and self._match(digest_or_prefix) is not None
        )

    def path(self, digest_or_prefix: str) -> pathlib.Path:
        """Entry directory of the (unique) digest prefix."""
        hit = self._match(digest_or_prefix)
        if hit is None:
            raise KeyError(
                f"no corpus entry matches {digest_or_prefix!r} in "
                f"{self.directory}"
            )
        return hit

    def load(self, digest_or_prefix: str, mmap: bool = True) -> CSRGraph:
        """:func:`load_graph` of the entry with this digest prefix."""
        return load_graph(self.path(digest_or_prefix), mmap=mmap)
