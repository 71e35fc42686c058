"""Content-addressed RunReport store: run once, serve forever.

The service's core bet is that a Monte-Carlo campaign is a *pure
function* of its coordinates: a seeded protocol run is bit-identical
given ``(protocol, graph, seed, policy, faults, config)`` —
the equivalence suites pin exactly that. So the store keys every
:class:`~repro.api.report.RunReport` by the :class:`JobKey` of those
six coordinates (graph by corpus content digest, seed by the
``(base seed, trial index)`` pair that determines its
``SeedSequence`` child, policy, faults, and protocol config by
content digests) and a
repeated request is a cache hit — no re-execution, and a campaign
killed mid-flight resumes from whatever its first life persisted.

An entry is one file of three lines (format 2): the sha256 hex of
every byte after the first line; a header JSON object with the key's
own fields (for listing) and the report's three campaign scalars
(``steps``, ``wall_time_s``, ``peak_mem_bytes``); and the report in
the :mod:`repro.api.wire` tagged format. Every read checks the
checksum first, so a changed byte anywhere after it — in the report
or in a scalar — is never served, and :meth:`ReportStore.get_scalars`
serves a hit from the header without parsing the report at all. A
file whose first line is not a checksum is refused like one whose
checksum fails.

Entries are written atomically via tempfile + ``os.replace`` exactly
like :class:`~repro.corpus.store.CorpusStore` entries: two processes
racing to persist the same job write the same bytes, and a crash
never leaves a half-readable entry. Entries are sharded into
two-hex-character subdirectories so a million-report store does not
put a million files in one directory.

Dot-named files and directories are never entries: in-flight and
crash-orphaned ``.tmp-*`` files are not listed or counted, and an
entry that fails its checksum or no longer parses or decodes (a
truncated file, a bad disk, a flipped bit) is moved into
``.quarantine/`` by the read that finds it and served as a miss, so
the job runs again and writes a good entry.
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
from typing import Any, Callable, Iterator

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
    "report_scalars",
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

#: The form of an entry address (:attr:`JobKey.digest`), and of an
#: entry's first line (the checksum of the rest).
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _is_digest(value: object) -> bool:
    return isinstance(value, str) and _DIGEST.fullmatch(value) is not None


def report_scalars(report: RunReport) -> tuple[int, float, int | None]:
    """The three numbers a campaign records of a report, as a stored
    entry gives them back: ``(steps, wall_time_s, peak_mem_bytes)``."""
    peak = report.peak_mem_bytes
    return (
        int(report.steps),
        float(report.wall_time_s),
        None if peak is None else int(peak),
    )


def _split(raw: bytes) -> tuple[dict[str, Any], bytes]:
    """An entry's header and its report line, unparsed.

    The first line must be the sha256 hex of every byte after it; the
    second parses to the header. Raises ``ValueError`` for an entry
    without that first line, one that fails its checksum, or one whose
    header is not a JSON object.
    """
    checksum = raw[:64].decode("latin-1")
    if raw[64:65] != b"\n" or not _is_digest(checksum):
        raise ValueError("entry has no checksum line")
    if hashlib.sha256(memoryview(raw)[65:]).hexdigest() != checksum:
        raise ValueError("entry fails its checksum")
    cut = raw.find(b"\n", 65)
    if cut < 0:
        raise ValueError("entry has no report line")
    header = json.loads(raw[65:cut])
    if not isinstance(header, dict):
        raise ValueError("entry header is not a JSON object")
    return header, raw[cut + 1:]


def _decode(header: dict[str, Any], report: bytes) -> RunReport:
    """The entry's report, decoded in full."""
    value = decode_value(json.loads(report))
    if not isinstance(value, RunReport):
        raise ValueError(f"entry holds a {type(value).__name__}")
    return value


def _scalars(
    header: dict[str, Any], report: bytes
) -> tuple[int, float, int | None]:
    """The entry's :func:`report_scalars`, read from its header, the
    report left unparsed."""
    scalars = header["scalars"]
    return (
        scalars["steps"], scalars["wall_time_s"], scalars["peak_mem_bytes"]
    )


def _document(header: dict[str, Any], report: bytes) -> dict[str, Any]:
    """The entry as one document: key fields, scalars, tagged report."""
    return {**header, "report": json.loads(report)}


def policy_digest(policy: ExecutionPolicy, n: int | None = None) -> str:
    """Content digest of the execution policy as written, hex.

    A policy has one spelling (there is no alias to resolve), so the
    digest names exactly what executes. The fault schedule is
    stripped: faults are the key's own coordinate
    (:func:`faults_digest`), not part of the policy digest. ``n`` no
    longer changes the digest; it is accepted for callers that still
    pass the graph size.
    """
    doc = json.dumps(
        encode_value(dataclasses.replace(policy, faults=None)),
        sort_keys=True,
    )
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
        the next. Computed once and kept in ``__dict__``, outside the
        fields (so equality, hashing and :meth:`asdict` ignore it); a
        pickle carries it.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            doc = json.dumps(
                {**self.asdict(), "stream": STREAM_VERSION}, sort_keys=True
            )
            digest = hashlib.sha256(doc.encode()).hexdigest()
            self.__dict__["_digest"] = digest
        return digest

    def asdict(self) -> dict[str, Any]:
        """Plain-JSON form (stored beside the report for listing): the
        fields, which are plain strings and integers, so this equals
        :func:`dataclasses.asdict` without its recursive copy."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }


class ReportStore:
    """A directory of report entries, addressed by :class:`JobKey` digest.

    Plain files, no index: ``get`` is a stat + read, ``put`` an atomic
    rename, and concurrent writers of the same key race benignly
    (content-addressed — same key, same coordinates, same report
    outcome). ``hits``/``misses``/``writes``/``quarantined``
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

    def _open(
        self,
        path: pathlib.Path,
        read: Callable[[dict[str, Any], bytes], Any],
        quarantine: bool = True,
    ) -> Any:
        """``read(header, report line)`` of the entry at ``path``
        (:func:`_split`); ``None`` when there is none, or when it fails
        its checksum or ``read`` (then it is quarantined, unless
        ``quarantine`` is false)."""
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return read(*_split(raw))
        except (AttributeError, KeyError, TypeError, ValueError):
            if quarantine:
                self._quarantine(path)
            return None

    def get(self, key: "JobKey | str") -> RunReport | None:
        """The stored report of ``key``, or ``None`` (counted) on a miss.

        An entry that fails its checksum, or does not parse or decode
        to a :class:`~repro.api.report.RunReport`, is quarantined and
        missed.
        """
        report = self._open(self.path_for(key), _decode)
        self._count("misses" if report is None else "hits")
        return report

    def get_scalars(
        self, key: "JobKey | str"
    ) -> tuple[int, float, int | None] | None:
        """The stored :func:`report_scalars` of ``key``, or ``None``
        (counted) on a miss: what a campaign records of a hit.

        The entry is served from its header once its checksum holds,
        without parsing the report. Damaged entries are quarantined and
        missed, as by :meth:`get`.
        """
        scalars = self._open(self.path_for(key), _scalars)
        self._count("misses" if scalars is None else "hits")
        return scalars

    def get_document(self, digest: str) -> dict[str, Any] | None:
        """The stored document of a digest — key fields, scalars and
        the tagged report, what the fetch-report HTTP endpoint serves.
        ``None`` for a string that is not a digest, a missing entry,
        or one that fails its checksum or does not parse
        (quarantined)."""
        if not _is_digest(digest):
            return None
        return self._open(self.path_for(digest), _document)

    def verify(self, quarantine: bool = False) -> dict[str, list[str]]:
        """Check every entry's checksum, the way a read does.

        Returns the digests by verdict, ``ok`` and ``bad``. With
        ``quarantine`` each bad entry is moved into :data:`QUARANTINE`,
        as a read would move it; without, nothing is written. Audits
        count no hits or misses.
        """
        verdicts: dict[str, list[str]] = {"ok": [], "bad": []}
        for digest in list(self.digests()):
            verdict = self._open(
                self.path_for(digest), lambda header, report: "ok",
                quarantine,
            )
            verdicts[verdict or "bad"].append(digest)
        return verdicts

    def put(self, key: JobKey, report: RunReport) -> pathlib.Path:
        """Persist ``report`` under ``key`` atomically; return the path.

        An existing entry wins (content-addressed: it records the same
        outcome); the write is tempfile + ``os.replace`` in the entry's
        own shard directory, so readers never observe a partial file
        and a crashed writer leaves only an orphaned dotfile. The
        report line is encoded by one ``json.dumps`` call (CPython's C
        encoder; ``json.dump`` to a file runs the pure-Python one);
        the header carries the key and :func:`report_scalars`, and the
        first line the sha256 hex of both. All three go out in one
        write.
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
        steps, wall, peak = report_scalars(report)
        header = {
            "format": 2,
            "key": key.asdict(),
            "digest": key.digest,
            "scalars": {
                "steps": steps, "wall_time_s": wall, "peak_mem_bytes": peak,
            },
        }
        body = (
            json.dumps(header) + "\n" + json.dumps(encode_value(report))
        ).encode()
        checksum = hashlib.sha256(body).hexdigest().encode()
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(checksum + b"\n" + body)
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
