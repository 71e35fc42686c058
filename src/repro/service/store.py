"""Content-addressed RunReport store: run once, serve forever.

The service's core bet is that a Monte-Carlo campaign is a *pure
function* of its coordinates: a seeded protocol run is bit-identical
given ``(protocol, graph, seed, resolved policy, faults, config)`` —
the equivalence suites pin exactly that. So the store keys every
:class:`~repro.api.report.RunReport` by the :class:`JobKey` of those
six coordinates (graph by corpus content digest, seed by the
``(base seed, trial index)`` pair that determines its
``SeedSequence`` child, policy, faults, and protocol config by
content digests) and a
repeated request is a cache hit — no re-execution, and a campaign
killed mid-flight resumes from whatever its first life persisted.

Entries are one JSON document each (the :mod:`repro.api.wire` tagged
format plus the key's own fields for listing), written atomically via
tempfile + ``os.replace`` exactly like
:class:`~repro.corpus.store.CorpusStore` entries: two processes
racing to persist the same job write the same bytes, and a crash
never leaves a half-readable entry. Documents are sharded into
two-hex-character subdirectories so a million-report store does not
put a million files in one directory.

Dot-named files and directories are never entries: in-flight and
crash-orphaned ``.tmp-*`` files are not listed or counted, and an
entry that no longer parses or decodes (a truncated file, a bad disk)
is moved into ``.quarantine/`` by the read that finds it and served
as a miss, so the job runs again and writes a good entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import re
import tempfile
import threading
import time
from typing import Any, Iterator

from ..api.report import RunReport
from ..api.wire import decode_value, encode_value
from ..engine.policy import ExecutionPolicy
from ..engine.sampler import STREAM_VERSION
from ..radio.errors import ProtocolError

__all__ = [
    "JobKey",
    "ReportStore",
    "config_digest",
    "faults_digest",
    "policy_digest",
]

#: Digest value standing for "no fault schedule" (or an empty one —
#: pinned bit-identical to none by the fault layer, so they must
#: share a cache key).
NO_FAULTS = "none"

#: Digest value standing for "no protocol config" — the protocol's
#: registered defaults.
NO_CONFIG = "none"

#: Subdirectory that unreadable entries are moved into (dot-named, so
#: never listed as entries).
QUARANTINE = ".quarantine"

#: The form of an entry address (:attr:`JobKey.digest`).
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _is_digest(value: object) -> bool:
    return isinstance(value, str) and _DIGEST.fullmatch(value) is not None


def policy_digest(policy: ExecutionPolicy, n: int | None = None) -> str:
    """Content digest of the **resolved** execution policy, hex.

    Resolution (:meth:`~repro.engine.policy.ExecutionPolicy.resolve`
    against the graph size) happens first, so the ``"auto"`` engine
    resolves to ``"windowed"`` and an explicit budget to its chunk
    height — the digest names what would actually execute, and two
    spellings of one policy share a key. The fault schedule is
    stripped: faults are the key's own coordinate
    (:func:`faults_digest`), not part of the policy digest.
    """
    resolved = dataclasses.replace(policy.resolve(n), faults=None)
    doc = json.dumps(encode_value(resolved), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def faults_digest(policy: ExecutionPolicy) -> str:
    """Digest of the policy's fault schedule (:data:`NO_FAULTS`
    for fault-free runs, including empty schedules — which the fault
    layer pins bit-identical to none, so they share a key)."""
    schedule = policy.faults
    if schedule is None or schedule.is_empty:
        return NO_FAULTS
    return schedule.digest()


def config_digest(config: Any) -> str:
    """Digest of the protocol config (:data:`NO_CONFIG` for ``None`` —
    the protocol's registered defaults).

    Hashes the tagged wire form (:mod:`repro.api.wire`) with sorted
    keys, so two configs share a digest exactly when they would travel
    the wire identically — campaigns differing only in config land in
    distinct store cells instead of colliding on a cached report.
    """
    if config is None:
        return NO_CONFIG
    doc = json.dumps(encode_value(config), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class JobKey:
    """The coordinates that determine one seeded run exactly.

    ``seed`` and ``trial`` together name the rng stream: trial ``t`` of
    a campaign runs on ``np.random.SeedSequence(seed).spawn(n)[t]`` —
    the same seeding contract as
    :func:`~repro.analysis.experiments.run_report_trials`, so the
    store serves those trials too. ``config`` is the protocol config's
    :func:`config_digest` (:data:`NO_CONFIG` for defaults): campaigns
    that differ only in config must not share cache entries.
    """

    protocol: str
    graph: str
    seed: int
    trial: int
    policy: str
    faults: str = NO_FAULTS
    config: str = NO_CONFIG

    def __post_init__(self) -> None:
        if not self.protocol or not isinstance(self.protocol, str):
            raise ProtocolError(
                f"JobKey.protocol must be a protocol name, "
                f"got {self.protocol!r}"
            )
        if not self.graph or not isinstance(self.graph, str):
            raise ProtocolError(
                f"JobKey.graph must be a corpus content digest, "
                f"got {self.graph!r}"
            )
        for field in ("seed", "trial"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    f"JobKey.{field} must be an integer, got {value!r}"
                )
        if self.trial < 0:
            raise ProtocolError(
                f"JobKey.trial must be >= 0, got {self.trial}"
            )

    @property
    def digest(self) -> str:
        """sha256 over the canonical key document (the entry address).

        The document also names the random stream
        (:data:`~repro.engine.sampler.STREAM_VERSION`): the same
        coordinates run on another stream give other numbers, so a
        store written under one stream must miss, never answer, under
        the next.
        """
        doc = json.dumps(
            {**dataclasses.asdict(self), "stream": STREAM_VERSION},
            sort_keys=True,
        )
        return hashlib.sha256(doc.encode()).hexdigest()

    def asdict(self) -> dict[str, Any]:
        """Plain-JSON form (stored beside the report for listing)."""
        return dataclasses.asdict(self)


class ReportStore:
    """A directory of report entries, addressed by :class:`JobKey` digest.

    Plain files, no index: ``get`` is a stat + read, ``put`` an atomic
    rename, and concurrent writers of the same key race benignly
    (content-addressed — same key, same resolved coordinates, same
    report outcome). ``hits``/``misses``/``writes``/``quarantined``
    counters feed the campaign engine's dedupe accounting and the
    service's status endpoint; they are bumped under a lock, because
    concurrent campaigns and the HTTP loop share one store.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self._lock = threading.Lock()

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def path_for(self, key: "JobKey | str") -> pathlib.Path:
        """Entry path of a key (or raw digest): sharded by prefix.

        A raw digest must be 64 lowercase hex characters, the form
        :attr:`JobKey.digest` produces; anything else is refused, so
        no string resolves to a path outside the store.
        """
        digest = key.digest if isinstance(key, JobKey) else key
        if not _is_digest(digest):
            raise ProtocolError(
                f"not a report digest (64 lowercase hex characters): "
                f"{digest!r}"
            )
        return self.directory / digest[:2] / f"{digest}.json"

    def __contains__(self, key: object) -> bool:
        if not (isinstance(key, JobKey) or _is_digest(key)):
            return False
        return self.path_for(key).is_file()

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move an unreadable entry into :data:`QUARANTINE` (kept, not
        deleted, for inspection) and count it."""
        target = self.directory / QUARANTINE
        target.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, target / f"{path.stem}.{time.time_ns()}.json")
        except FileNotFoundError:
            return  # a concurrent reader moved it first
        self._count("quarantined")

    def _load(self, path: pathlib.Path) -> dict[str, Any] | None:
        """The parsed document at ``path``; ``None`` when there is none
        or it does not parse (then it is quarantined)."""
        try:
            document = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except ValueError:  # truncated or garbled bytes
            document = None
        if isinstance(document, dict):
            return document
        self._quarantine(path)
        return None

    def get(self, key: "JobKey | str") -> RunReport | None:
        """The stored report of ``key``, or ``None`` (counted) on a miss.

        An entry that does not parse or decode to a
        :class:`~repro.api.report.RunReport` is quarantined and missed.
        """
        path = self.path_for(key)
        document = self._load(path)
        report = None
        if document is not None:
            try:
                report = decode_value(document["report"])
            except (AttributeError, KeyError, TypeError, ValueError):
                pass
            if not isinstance(report, RunReport):
                self._quarantine(path)
                report = None
        self._count("misses" if report is None else "hits")
        return report

    def get_document(self, digest: str) -> dict[str, Any] | None:
        """The raw stored document (key fields + tagged report) of a
        digest — what the fetch-report HTTP endpoint serves verbatim.
        ``None`` for a string that is not a digest, a missing entry,
        or one that does not parse (quarantined)."""
        if not _is_digest(digest):
            return None
        return self._load(self.path_for(digest))

    def put(self, key: JobKey, report: RunReport) -> pathlib.Path:
        """Persist ``report`` under ``key`` atomically; return the path.

        An existing entry wins (content-addressed: it records the same
        outcome); the write is tempfile + ``os.replace`` in the entry's
        own shard directory, so readers never observe a partial file
        and a crashed writer leaves only an orphaned dotfile. The
        document is encoded by one ``json.dumps`` call (CPython's C
        encoder; ``json.dump`` to a file runs the pure-Python one) and
        written at once.
        """
        if not isinstance(report, RunReport):
            raise ProtocolError(
                f"ReportStore.put takes a RunReport, "
                f"got {type(report).__name__}"
            )
        path = self.path_for(key)
        if path.is_file():
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(
            {
                "format": 1,
                "key": key.asdict(),
                "digest": key.digest,
                "report": encode_value(report),
            }
        )
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - crash path
                os.unlink(tmp)
        self._count("writes")
        return path

    def record_write(self) -> None:
        """Count an entry written into this directory through another
        handle: a campaign job persists its own report (in a pool
        worker, or on the serial path) and the campaign counts it
        here."""
        self._count("writes")

    def digests(self) -> Iterator[str]:
        """Every stored entry digest (no particular order).

        Dot-named files and directories are skipped: in-flight and
        orphaned ``.tmp-*`` files and :data:`QUARANTINE` are not
        entries.
        """
        if not self.directory.is_dir():
            return
        for shard in sorted(self.directory.iterdir()):
            if shard.name.startswith(".") or not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                if not entry.name.startswith("."):
                    yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def stats(self) -> dict[str, int]:
        """Hit/miss/write/quarantine counters plus the entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "entries": len(self),
        }
