"""Shared-memory graph slabs: publish once, attach everywhere.

Pickling whole graphs into every pool worker costs hundreds of MB per
worker at ``n = 10^6``. Instead, the harness's one fan-out
(``repro.analysis.experiments._fan_out``, behind ``run_trials``,
``run_report_trials`` and campaigns) has the parent copy the CSR slabs
(indptr, indices, positions) into ``multiprocessing.shared_memory``
segments **once**; what travels in each worker payload is a
:class:`SharedGraphHandle` — segment names, shapes, dtypes, and the
small metadata — a few hundred bytes regardless of graph size. Workers
:func:`attach` the segments as zero-copy ndarray views wrapped in a
:class:`~repro.corpus.graph.CSRGraph`, and the per-process attach
cache keeps one ``CSRGraph`` (and therefore one memoized
``GraphContext``) alive per segment set, so repeated trials in one
worker pay the attach exactly once.

Lifecycle (documented contract, exercised in ``tests/test_corpus.py``):

- the parent owns the segments: the fan-out publishes every distinct
  graph before submitting jobs and ``close()`` + ``unlink()`` in a
  ``finally`` once the pool drains (or breaks) —
  on Linux the memory persists until the last attached process
  closes, so unlinking while workers still hold views is safe;
- workers deliberately *unregister* their attachment from
  ``multiprocessing.resource_tracker``: on Python < 3.13 the tracker
  assumes every opener owns the segment and would unlink it (with a
  spurious leak warning) when the first worker exits;
- if the parent crashes before its ``finally``, its resource tracker
  unlinks the leaked segments at interpreter teardown (the standard
  library's crash net), at the price of a "leaked shared_memory"
  warning; a kill -9 of the whole tree leaves the segment to
  ``/dev/shm`` until reboot — the one hole mmap-backed corpus entries
  do not have.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from .graph import CSRGraph

__all__ = ["SharedGraph", "SharedGraphHandle", "attach"]

#: Per-process cache of attached graphs, keyed by segment names. Holds
#: strong references on purpose: a pool worker lives exactly as long
#: as its pool, and caching the CSRGraph keeps its memoized
#: GraphContext (degrees, diameter, greedy MIS) warm across trials.
_ATTACHED: dict[tuple[str, ...], CSRGraph] = {}

#: Segment names this process (or, after fork, an ancestor) published.
#: Attaching to one of these must NOT unregister it from the resource
#: tracker: fork workers share the publisher's tracker, and the one
#: registration the publisher made is what its ``unlink`` retires.
_PUBLISHED: set[str] = set()


@dataclasses.dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable description of a published graph (no array payload)."""

    segments: tuple[tuple[str, str, tuple[int, ...], str], ...]
    """``(field, segment_name, shape, dtype_str)`` per shared array."""

    meta: tuple[tuple[str, Any], ...]
    """The graph's metadata dict, as sorted items (hashable/frozen)."""

    invariants: tuple[tuple[str, Any], ...]
    """Scalar invariants (connected, diameter) forwarded to workers."""


def _new_segment(arr: np.ndarray) -> tuple[shared_memory.SharedMemory, str]:
    size = max(1, arr.nbytes)  # zero-size segments are refused by the OS
    shm = shared_memory.SharedMemory(create=True, size=size)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    _PUBLISHED.add(shm.name)
    return shm, shm.name


class SharedGraph:
    """Parent-side owner of one published graph's segments.

    Usable as a context manager; exit closes *and unlinks*. The
    :attr:`handle` is what worker payloads carry.
    """

    def __init__(
        self,
        segments: list[shared_memory.SharedMemory],
        handle: SharedGraphHandle,
    ) -> None:
        self._segments = segments
        self.handle = handle

    @classmethod
    def publish(cls, graph: CSRGraph) -> "SharedGraph":
        """Copy ``graph``'s arrays into fresh shared-memory segments."""
        arrays: list[tuple[str, np.ndarray]] = [
            ("indptr", graph.indptr),
            ("indices", graph.indices),
        ]
        if graph.positions is not None:
            arrays.append(
                ("positions", np.asarray(graph.positions, np.float64))
            )
        segments = []
        described = []
        try:
            for field, arr in arrays:
                shm, name = _new_segment(arr)
                segments.append(shm)
                described.append(
                    (field, name, tuple(arr.shape), str(arr.dtype))
                )
        except Exception:  # pragma: no cover - OS-level alloc failure
            for shm in segments:
                shm.close()
                shm.unlink()
            raise
        scalars = tuple(
            sorted(
                (k, v)
                for k, v in graph.invariants.items()
                if isinstance(v, (bool, int, float, str))
            )
        )
        handle = SharedGraphHandle(
            segments=tuple(described),
            meta=tuple(sorted(graph.graph.items())),
            invariants=scalars,
        )
        return cls(segments, handle)

    def close(self) -> None:
        """Drop the parent's own mappings (segments stay alive)."""
        for shm in self._segments:
            shm.close()

    def unlink(self) -> None:
        """Remove the segments; attached workers keep their views."""
        for shm in self._segments:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
            _PUBLISHED.discard(shm.name)

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        self.unlink()


def attach(handle: SharedGraphHandle) -> CSRGraph:
    """Worker-side: the published graph as zero-copy views (cached).

    Safe to call repeatedly — one attachment per segment set per
    process. The returned graph's ``source`` is ``"shm"``.
    """
    key = tuple(name for _field, name, _shape, _dtype in handle.segments)
    cached = _ATTACHED.get(key)
    if cached is not None:
        return cached
    fields: dict[str, np.ndarray] = {}
    segments = []
    for field, name, shape, dtype in handle.segments:
        shm = shared_memory.SharedMemory(name=name)
        if name not in _PUBLISHED:
            try:
                # The tracker treats every attachment as ownership and
                # would unlink the segment when this worker exits; only
                # the publishing parent owns cleanup. (Python 3.13's
                # ``track=False`` makes this official; this is the
                # documented workaround for 3.11/3.12.) Skipped when
                # this process *is* the publisher — fork workers share
                # the publisher's tracker, whose single registration
                # must survive until the publisher unlinks.
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - non-posix trackers
                pass
        segments.append(shm)
        fields[field] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf
        )
    graph = CSRGraph(
        fields["indptr"],
        fields["indices"],
        positions=fields.get("positions"),
        meta=dict(handle.meta),
        invariants=dict(handle.invariants),
        source="shm",
    )
    # The views borrow the segments' buffers; pin the SharedMemory
    # objects to the graph so neither is collected under the other.
    graph._shm_segments = segments  # type: ignore[attr-defined]
    _ATTACHED[key] = graph
    return graph
