"""Campaign engine: a declarative trial grid, deduped and fanned out.

A :class:`CampaignSpec` names a Monte-Carlo campaign declaratively —
one protocol, a set of corpus entries, a seed range, and a grid of
execution policies (each optionally carrying a
:class:`~repro.faults.FaultSchedule`, which is how fault grids ride).
:class:`Campaign` expands the spec into one job per
``graph x policy x trial`` cell, **dedupes the grid against the
report store** (a previously-served job is a cache hit, never
re-executed — which is also what makes a killed campaign resumable),
and fans the remainder out through the trial harness's one pool
driver (:func:`~repro.analysis.experiments._fan_out`): worker
payloads carry only the path of each job's corpus entry, which every
worker maps once, and in-flight jobs are bounded so a 10^6-trial
submission does not materialize 10^6 futures. A campaign's graphs are
stored entries, so it writes nothing outside its report store, and a
pooled job's report equals a serial one in full. A job is the
harness's report job plus its :meth:`ReportStore.put`
(:func:`_execute_job`, in the worker that ran it), so the campaign
thread only records outcomes: a refusal
(:class:`~repro.radio.errors.ProtocolError`) fails the whole campaign
at every worker count, any other error counts one failed job, and
every job counts once — also when a broken pool sends the rest to the
serial fallback.

Seeding is the harness contract: trial ``t`` runs on
``np.random.SeedSequence(spec.seed).spawn(n_trials)[t]`` — exactly how
:func:`~repro.analysis.experiments.run_report_trials` seeds its
trials — so a store-backed campaign over one cell is bit-identical,
report for report, to the serial harness baseline (pinned in
``tests/test_service.py`` and gated in ``BENCH_PR10.json``).

Aggregates stream: the three numbers a campaign records of every
landed job (its steps, wall time and peak memory, which a store hit
reads from the entry header without decoding the report) fold into
the running :class:`~repro.analysis.experiments.TrialStats` via
``merge`` (no re-walk of the report list per update); once a campaign
settles, the summary is recomputed canonically over the jobs in
expansion order, so final aggregates are independent of worker
scheduling and identical across resumed and uninterrupted runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import threading
from typing import Any, Callable, Iterable

import numpy as np

from ..analysis.experiments import TrialStats, _fan_out, _run_one_report
from ..api.registry import get_protocol
from ..api.wire import TAG, decode_value, encode_value
from ..corpus.store import CorpusStore, load_graph
from ..engine.policy import ExecutionPolicy, parse_mem_budget
from ..radio.errors import ProtocolError
from .store import (
    JobKey,
    ReportStore,
    config_digest,
    faults_digest,
    policy_digest,
    report_scalars,
)

__all__ = ["Campaign", "CampaignJob", "CampaignSpec", "run_campaign"]

#: How many stragglers' error strings a campaign keeps verbatim.
MAX_RECORDED_ERRORS = 16

#: Probe the stop callback every this many store lookups during the
#: dedupe sweep (a 10^6-job probe phase must stay cancellable).
STOP_PROBE_EVERY = 64


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: ``protocol x corpus x seeds x policies``.

    Attributes
    ----------
    protocol:
        Registered protocol name; any protocol that takes a target
        graph (the campaign engine runs over corpus entries).
    corpus:
        Corpus entries to run on: content digests (or unambiguous
        prefixes) resolved against the service's
        :class:`~repro.corpus.store.CorpusStore`, or explicit entry
        directory paths.
    n_trials, seed:
        The seed range: trials ``0..n_trials-1`` on the
        ``SeedSequence(seed)`` spawn children, per grid cell.
    config:
        The protocol's config object (``None`` = defaults), shared by
        every job.
    policies:
        The policy/fault grid: one
        :class:`~repro.engine.policy.ExecutionPolicy` per grid column,
        each optionally carrying its own fault schedule. Defaults to
        ``(ExecutionPolicy(),)``.
    """

    protocol: str
    corpus: tuple[str, ...]
    n_trials: int
    seed: int = 0
    config: Any = None
    policies: tuple[ExecutionPolicy, ...] = (ExecutionPolicy(),)

    def __post_init__(self) -> None:
        # Normalize sequence fields (JSON submissions arrive as lists).
        object.__setattr__(self, "corpus", tuple(self.corpus))
        object.__setattr__(self, "policies", tuple(self.policies))
        spec = get_protocol(self.protocol)  # refuses unknowns by name
        if spec.accepts == "none":
            raise ProtocolError(
                f"protocol {self.protocol!r} builds its own topology "
                f"and takes no corpus graph, so it cannot run as a "
                f"campaign (campaigns run over corpus entries)"
            )
        if not self.corpus or not all(
            isinstance(c, str) and c for c in self.corpus
        ):
            raise ProtocolError(
                "CampaignSpec.corpus must name at least one corpus "
                "entry (a content digest or an entry directory path)"
            )
        if isinstance(self.n_trials, bool) or not isinstance(
            self.n_trials, int
        ) or self.n_trials < 1:
            raise ProtocolError(
                f"CampaignSpec.n_trials must be an integer >= 1, "
                f"got {self.n_trials!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ProtocolError(
                f"CampaignSpec.seed must be an integer, got {self.seed!r}"
            )
        if not self.policies or not all(
            isinstance(p, ExecutionPolicy) for p in self.policies
        ):
            raise ProtocolError(
                "CampaignSpec.policies must be a non-empty sequence of "
                "ExecutionPolicy values"
            )
        if self.config is not None and spec.config_cls is not None:
            if not isinstance(self.config, spec.config_cls):
                raise ProtocolError(
                    f"protocol {self.protocol!r} takes config of type "
                    f"{spec.config_cls.__name__}, got "
                    f"{type(self.config).__name__}"
                )

    @property
    def total_jobs(self) -> int:
        """Grid size: ``len(corpus) x len(policies) x n_trials``."""
        return len(self.corpus) * len(self.policies) * self.n_trials

    def to_json(self, indent: int | None = None) -> str:
        """Tagged-JSON form (full fidelity: configs, fault schedules)."""
        return json.dumps(encode_value(self), indent=indent)

    @classmethod
    def from_json(cls, text: str | bytes) -> "CampaignSpec":
        """Parse a submission document: tagged or plain JSON.

        The tagged form is whatever :meth:`to_json` produced. The
        *plain* form is the curl-friendly subset — a JSON object with
        ``protocol``, ``corpus``, ``n_trials``, and optional ``seed``,
        ``config`` (a field dict of the protocol's config class) and
        ``policies`` (a list of
        :class:`~repro.engine.policy.ExecutionPolicy` field dicts;
        ``mem_budget`` accepts ``"64M"``-style strings). Anything the
        plain form cannot express (fault schedules, array-valued
        configs) travels in the tagged form.
        """
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                f"campaign submission is not valid JSON: {exc}"
            ) from None
        if not isinstance(document, dict):
            raise ProtocolError(
                "campaign submission must be a JSON object"
            )
        if document.get(TAG) is not None:
            decoded = decode_value(document)
            if not isinstance(decoded, CampaignSpec):
                raise ProtocolError(
                    f"tagged campaign submission decoded to "
                    f"{type(decoded).__name__!r}, expected CampaignSpec"
                )
            return decoded
        return cls._from_plain(document)

    @classmethod
    def _from_plain(cls, document: dict[str, Any]) -> "CampaignSpec":
        allowed = {
            "protocol", "corpus", "n_trials", "seed", "config", "policies",
        }
        unknown = sorted(set(document) - allowed)
        if unknown:
            raise ProtocolError(
                f"campaign submission has unknown field(s) {unknown} "
                f"(accepted: {sorted(allowed)})"
            )
        missing = sorted(
            {"protocol", "corpus", "n_trials"} - set(document)
        )
        if missing:
            raise ProtocolError(
                f"campaign submission is missing required field(s) "
                f"{missing}"
            )
        protocol = document["protocol"]
        if not isinstance(protocol, str):
            raise ProtocolError(
                f"campaign protocol must be a string, got {protocol!r}"
            )
        config = document.get("config")
        if config is not None:
            spec = get_protocol(protocol)
            if spec.config_cls is None:
                raise ProtocolError(
                    f"protocol {protocol!r} takes no config"
                )
            if not isinstance(config, dict):
                raise ProtocolError(
                    f"plain-form config must be a field dict of "
                    f"{spec.config_cls.__name__}, got {config!r}"
                )
            try:
                config = spec.config_cls(**config)
            except TypeError as exc:
                raise ProtocolError(
                    f"bad config for {protocol!r}: {exc}"
                ) from None
        policies_doc = document.get("policies")
        policies: tuple[ExecutionPolicy, ...]
        if policies_doc is None:
            policies = (ExecutionPolicy(),)
        else:
            if not isinstance(policies_doc, list):
                raise ProtocolError(
                    "plain-form policies must be a list of "
                    "ExecutionPolicy field dicts"
                )
            policies = tuple(
                _policy_from_plain(entry) for entry in policies_doc
            )
        corpus = document["corpus"]
        if isinstance(corpus, str):
            corpus = [corpus]
        return cls(
            protocol=protocol,
            corpus=tuple(corpus),
            n_trials=document["n_trials"],
            seed=document.get("seed", 0),
            config=config,
            policies=policies,
        )


def _policy_from_plain(entry: Any) -> ExecutionPolicy:
    """One plain-form policy dict -> ExecutionPolicy (uniform refusals)."""
    if not isinstance(entry, dict):
        raise ProtocolError(
            f"plain-form policy must be a field dict, got {entry!r}"
        )
    if "faults" in entry:
        raise ProtocolError(
            "plain-form policies cannot carry fault schedules; submit "
            "the tagged form (CampaignSpec.to_json) for fault grids"
        )
    kwargs = dict(entry)
    budget = kwargs.get("mem_budget")
    if isinstance(budget, str):
        kwargs["mem_budget"] = parse_mem_budget(budget)
    try:
        return ExecutionPolicy(**kwargs)
    except (TypeError, ProtocolError) as exc:
        raise ProtocolError(f"bad policy field dict: {exc}") from None


def _refuse_repeats(axis: str, digests: list[Any]) -> None:
    """Refuse a grid axis whose entries name one cell twice."""
    first: dict[Any, int] = {}
    for i, digest in enumerate(digests):
        if digest in first:
            raise ProtocolError(
                f"campaign {axis} {first[digest]} and {i} name the same "
                f"cell, so their jobs would repeat a JobKey; repeat "
                f"trials through n_trials instead"
            )
        first[digest] = i


@dataclasses.dataclass(frozen=True)
class CampaignJob:
    """One cell of the expanded grid, with its store key."""

    index: int
    graph: str
    policy_index: int
    trial: int
    key: JobKey


def _resolve_corpus_entries(
    entries: Iterable[str], corpus: "CorpusStore | str | os.PathLike | None"
) -> list[Any]:
    """Resolve spec entries to loaded graphs (store digests or paths)."""
    store: CorpusStore | None
    if corpus is None:
        store = None
    elif isinstance(corpus, CorpusStore):
        store = corpus
    else:
        store = CorpusStore(corpus)
    graphs = []
    for entry in entries:
        path = pathlib.Path(entry)
        if (path / "meta.json").is_file():
            graphs.append(load_graph(path))
            continue
        if store is None:
            raise ProtocolError(
                f"campaign entry {entry!r} is not an entry directory "
                f"and no corpus store is configured to resolve digests"
            )
        try:
            graphs.append(store.load(entry))
        except (KeyError, ValueError) as exc:
            raise ProtocolError(
                f"cannot resolve corpus entry {entry!r}: {exc}"
            ) from None
    return graphs


def _single(value: float) -> TrialStats:
    """``TrialStats.from_values([value])`` without the array round trip:
    the mean, minimum and maximum of one value are that value."""
    value = float(value)
    return TrialStats(
        mean=value, std=0.0, minimum=value, maximum=value, count=1
    )


def _execute_job(
    target: Any,
    protocol: str,
    child: np.random.SeedSequence,
    config: Any,
    policy: ExecutionPolicy,
    directory: pathlib.Path,
    key: JobKey,
    keep_report: bool,
) -> tuple[tuple[int, float, int | None], Any, bool]:
    """One campaign job: the harness's report job, persisted.

    Runs in a pool worker or on the serial path alike. The job writes
    its own store entry through :meth:`ReportStore.put` (so encoding
    and writing run in parallel across the pool, not on the campaign
    thread) and returns the report's :func:`report_scalars`, the
    report only when ``keep_report`` (else ``None``), and whether that
    put wrote the entry — an existing entry wins. A failing put fails
    the job.
    """
    report = _run_one_report(target, protocol, child, config, policy)
    store = ReportStore(directory)
    store.put(key, report)
    wrote = store.writes == 1  # a fresh handle: this put's count
    return report_scalars(report), report if keep_report else None, wrote


class Campaign:
    """One expanded campaign execution over a :class:`ReportStore`.

    Thread-safe by design: :meth:`run` executes on whatever thread the
    caller provides (the HTTP service uses an executor thread), while
    :meth:`status` / :meth:`streaming_summary` read consistently from
    any other thread — the service's status endpoints poll exactly
    that. ``should_stop`` / :meth:`cancel` stop the campaign between
    jobs; completed work is already persisted, so a cancelled (or
    killed) campaign resumes from the store on resubmission.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        reports: ReportStore,
        corpus: "CorpusStore | str | os.PathLike | None" = None,
        workers: int | None = None,
        keep_reports: bool = True,
    ) -> None:
        if not isinstance(reports, ReportStore):
            raise ProtocolError(
                f"Campaign needs a ReportStore, got "
                f"{type(reports).__name__}"
            )
        workers = 1 if workers is None else workers
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or workers < 1:
            raise ProtocolError(
                f"workers must be an integer >= 1, got {workers!r}"
            )
        self.spec = spec
        self.store = reports
        self.workers = workers
        self.keep_reports = keep_reports
        self._lock = threading.Lock()
        self._cancel = threading.Event()
        self.state = "pending"
        self.errors: list[str] = []

        self._graphs = _resolve_corpus_entries(spec.corpus, corpus)
        self._children = np.random.SeedSequence(spec.seed).spawn(
            spec.n_trials
        )
        self.jobs = self._expand()
        total = len(self.jobs)
        self.reports: list[Any] = [None] * total if keep_reports else []
        self._done = np.zeros(total, dtype=bool)
        self._cached = np.zeros(total, dtype=bool)
        self._steps = np.zeros(total, dtype=np.int64)
        self._walls = np.zeros(total, dtype=np.float64)
        self._peaks: list[int | None] = [None] * total
        self.failed = 0
        self._stream: dict[str, TrialStats] = {}
        self._stream_peaks_ok = True

    # -- expansion ----------------------------------------------------

    def _expand(self) -> list[CampaignJob]:
        """The canonical job order: graph-major, then policy, then trial.

        Each policy digests once, and the spec's shared config digests
        once and rides every key, so campaigns differing only in
        config occupy distinct store cells. A grid that names one cell
        twice — two corpus entries for one graph, or two policies
        with one digest — is refused: its jobs would repeat a
        :class:`JobKey`, run once per mention, and count every copy
        in the summary.
        """
        graph_digs = []
        for graph in self._graphs:
            graph_dig = graph.graph.get("digest")
            if not graph_dig:
                raise ProtocolError(
                    "campaign graphs must carry a corpus content "
                    "digest (save them through CorpusStore.add first)"
                )
            graph_digs.append(graph_dig)
        policy_digs = [
            (policy_digest(policy), faults_digest(policy))
            for policy in self.spec.policies
        ]
        _refuse_repeats("corpus entries", graph_digs)
        _refuse_repeats("policies", policy_digs)
        jobs = []
        index = 0
        cfg_dig = config_digest(self.spec.config)
        for graph_dig in graph_digs:
            for pi, (pol_dig, flt_dig) in enumerate(policy_digs):
                for trial in range(self.spec.n_trials):
                    jobs.append(
                        CampaignJob(
                            index=index,
                            graph=graph_dig,
                            policy_index=pi,
                            trial=trial,
                            key=JobKey(
                                protocol=self.spec.protocol,
                                graph=graph_dig,
                                seed=self.spec.seed,
                                trial=trial,
                                policy=pol_dig,
                                faults=flt_dig,
                                config=cfg_dig,
                            ),
                        )
                    )
                    index += 1
        return jobs

    # -- bookkeeping --------------------------------------------------

    def _record(
        self,
        job: CampaignJob,
        scalars: tuple[int, float, int | None],
        cached: bool,
        report: Any = None,
    ) -> None:
        """Record one landed job: its :func:`report_scalars`, plus its
        report when the campaign keeps reports. Cold landings and both
        kinds of store hit come through here."""
        steps, wall, peak = scalars
        with self._lock:
            self._done[job.index] = True
            self._cached[job.index] = cached
            self._steps[job.index] = steps
            self._walls[job.index] = wall
            self._peaks[job.index] = peak
            if self.keep_reports:
                self.reports[job.index] = report
            update = {"steps": _single(steps), "wall_time_s": _single(wall)}
            if peak is None:
                self._stream_peaks_ok = False
                self._stream.pop("peak_mem_bytes", None)
            elif self._stream_peaks_ok:
                update["peak_mem_bytes"] = _single(peak)
            for name, stats in update.items():
                prior = self._stream.get(name)
                self._stream[name] = (
                    stats if prior is None else prior.merge(stats)
                )

    def cancel(self) -> None:
        """Ask the running campaign to stop between jobs."""
        self._cancel.set()

    def _stopped(self, should_stop: Callable[[], bool] | None) -> bool:
        return self._cancel.is_set() or (
            should_stop is not None and bool(should_stop())
        )

    # -- execution ----------------------------------------------------

    def run(
        self,
        should_stop: Callable[[], bool] | None = None,
        on_update: Callable[[], None] | None = None,
    ) -> "Campaign":
        """Dedupe against the store, execute the remainder, settle.

        Returns ``self`` (poll :meth:`status` / :meth:`final_summary`
        afterwards). A campaign runs once: re-running a settled one
        refuses — submit the spec again instead (its jobs are all
        store hits by then, which is the point).
        """
        with self._lock:
            if self.state != "pending":
                raise ProtocolError(
                    f"campaign already ran (state {self.state!r}); "
                    f"submit the spec again to serve it from the store"
                )
            self.state = "running"
        notify = on_update if on_update is not None else (lambda: None)
        stopped = False
        try:
            pending = self._probe_store(should_stop, notify)
            stopped = self._stopped(should_stop)
            if pending and not stopped:
                self._execute(pending, should_stop, notify)
                stopped = self._stopped(should_stop)
        except BaseException:
            with self._lock:
                self.state = "failed"
            raise
        with self._lock:
            if self.failed:
                self.state = "failed"
            elif stopped:
                self.state = "cancelled"
            else:
                self.state = "completed"
        notify()
        return self

    def _probe_store(
        self,
        should_stop: Callable[[], bool] | None,
        notify: Callable[[], None],
    ) -> list[CampaignJob]:
        """The dedupe sweep: serve every stored job as a cache hit.

        A campaign that keeps reports decodes each hit in full
        (:meth:`ReportStore.get`); one that does not, as the service's
        do, reads only the scalars it records
        (:meth:`ReportStore.get_scalars`: the entry's checksum and
        header, the report left unparsed).
        """
        pending = []
        for i, job in enumerate(self.jobs):
            if i % STOP_PROBE_EVERY == 0 and self._stopped(should_stop):
                break
            report = None
            if self.keep_reports:
                report = self.store.get(job.key)
                scalars = None if report is None else report_scalars(report)
            else:
                scalars = self.store.get_scalars(job.key)
            if scalars is None:
                pending.append(job)
            else:
                self._record(job, scalars, cached=True, report=report)
                notify()
        return pending

    def _execute(
        self,
        pending: list[CampaignJob],
        should_stop: Callable[[], bool] | None,
        notify: Callable[[], None],
    ) -> None:
        """Run the pending jobs through the harness's one fan-out.

        A :class:`~repro.radio.errors.ProtocolError` is a spec problem,
        not a flaky trial: at every worker count it cancels the jobs
        not yet started and propagates from :meth:`run`. Any other
        error counts one failed job.
        """
        by_digest = {g.graph.get("digest"): g for g in self._graphs}
        spec = self.spec
        tasks = [
            (
                by_digest[job.graph],
                (
                    spec.protocol,
                    self._children[job.trial],
                    spec.config,
                    spec.policies[job.policy_index],
                    self.store.directory,
                    job.key,
                    self.keep_reports,
                ),
            )
            for job in pending
        ]

        def land(index: int, outcome: Any, exc: Exception | None) -> None:
            job = pending[index]
            if exc is None:
                scalars, report, wrote = outcome
                if wrote:
                    self.store.record_write()
                self._record(job, scalars, cached=False, report=report)
            else:
                with self._lock:
                    self.failed += 1
                    if len(self.errors) < MAX_RECORDED_ERRORS:
                        self.errors.append(
                            f"job {job.index} (graph {job.graph[:12]}, "
                            f"trial {job.trial}): "
                            f"{type(exc).__name__}: {exc}"
                        )
            notify()

        _fan_out(
            "Campaign.run",
            _execute_job,
            tasks,
            self.workers,
            land,
            fatal=ProtocolError,
            stop=lambda: self._stopped(should_stop),
        )

    # -- reading ------------------------------------------------------

    def streaming_summary(self) -> dict[str, TrialStats]:
        """The live merged aggregates (landing order; see module doc)."""
        with self._lock:
            return dict(self._stream)

    def final_summary(self) -> dict[str, TrialStats]:
        """Canonical aggregates over completed jobs in expansion order.

        Deterministic given the store contents — independent of worker
        scheduling and of how many lives the campaign took, which is
        the resume bit-identity contract. Matches
        :func:`~repro.analysis.experiments.summarize_reports` over the
        same reports exactly (same values, same order, same reduction).
        """
        with self._lock:
            done = np.flatnonzero(self._done)
            if done.size == 0:
                raise ProtocolError(
                    "campaign has no completed jobs to summarize"
                )
            summary = {
                "steps": TrialStats.from_values(
                    self._steps[done].astype(float)
                ),
                "wall_time_s": TrialStats.from_values(self._walls[done]),
            }
            peaks = [self._peaks[i] for i in done]
            if all(p is not None for p in peaks):
                summary["peak_mem_bytes"] = TrialStats.from_values(
                    [float(p) for p in peaks]
                )
            return summary

    def status(self) -> dict[str, Any]:
        """A consistent snapshot of campaign progress (JSON-shaped)."""
        with self._lock:
            completed = int(self._done.sum())
            cached = int(self._cached.sum())
            state = self.state
            stream = dict(self._stream)
            failed = self.failed
            errors = list(self.errors)
        total = len(self.jobs)
        settled = state in ("completed", "cancelled", "failed")
        summary: dict[str, TrialStats] | None
        if settled and completed:
            summary = self.final_summary()
        elif completed:
            summary = stream
        else:
            summary = None
        return {
            "state": state,
            "protocol": self.spec.protocol,
            "total": total,
            "completed": completed,
            "cached": cached,
            "executed": completed - cached,
            "failed": failed,
            "pending": total - completed,
            "graphs": len(self._graphs),
            "policies": len(self.spec.policies),
            "n_trials": self.spec.n_trials,
            "errors": errors,
            "summary": (
                {
                    name: dataclasses.asdict(stats)
                    for name, stats in summary.items()
                }
                if summary is not None
                else None
            ),
        }

    def job_index(self) -> list[dict[str, Any]]:
        """Every job's coordinates + store digest (the fetch map)."""
        with self._lock:
            return [
                {
                    "index": job.index,
                    "graph": job.graph,
                    "policy": job.policy_index,
                    "trial": job.trial,
                    "digest": job.key.digest,
                    "completed": bool(self._done[job.index]),
                    "cached": bool(self._cached[job.index]),
                }
                for job in self.jobs
            ]


def run_campaign(
    spec: CampaignSpec,
    reports: ReportStore,
    corpus: "CorpusStore | str | os.PathLike | None" = None,
    workers: int | None = None,
    should_stop: Callable[[], bool] | None = None,
    on_update: Callable[[], None] | None = None,
    keep_reports: bool = True,
) -> Campaign:
    """Expand, dedupe, execute, settle — the one-call library form."""
    campaign = Campaign(
        spec,
        reports,
        corpus=corpus,
        workers=workers,
        keep_reports=keep_reports,
    )
    return campaign.run(should_stop=should_stop, on_update=on_update)
