"""The standing workloads, each driven through the public entry points.

Every workload is one caller in a closed loop: it sets up an instance
(outside the timed section), makes the timed call, waits for the
result, asks for the same job again (the resubmit), and checks the
outputs (outside the timed section). Instance ``i`` of a run with seed
``s`` draws its graph from ``default_rng((s, i))`` and its protocol
randomness from ``SeedSequence(s).spawn(i + 1)[i]``, the same seeding a
campaign uses for trial ``i`` of seed ``s``; the same seed always gives
the same inputs.

Lazy per-graph set-up is charged to ``setup_s``: each instance warms
the ``repro.graphs.context`` cache of its fresh graph (connectivity,
and the diameter BFS on connected graphs) before the timed call, so no
timed call gets that cache for free and none pays for it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import statistics
import tempfile
import time
from typing import Any, Callable, Iterator

import numpy as np

import repro.api as api
from repro.api.wire import report_from_json, report_to_json
from repro.corpus import CorpusStore, CSRGraph, random_udg_csr
from repro.faults import FaultSchedule
from repro.graphs.context import graph_context
from repro.graphs.independence import is_maximal_independent_set
from repro.radio import RadioNetwork
from repro.service import (
    CampaignSpec,
    JobKey,
    ReportStore,
    ServiceClient,
    config_digest,
    faults_digest,
    policy_digest,
    start_in_thread,
)

from spans import NULL_TRACER

#: Entry points the program calls internally, wrapped in the traced run.
TRACED_METHODS = [
    (RadioNetwork, "__init__", "radio.network_build"),
    (ReportStore, "get", "service.store.get"),
    (ReportStore, "put", "service.store.put"),
    (CorpusStore, "add", "corpus.save"),
    (CorpusStore, "load", "corpus.load"),
    (CSRGraph, "to_networkx", "corpus.to_networkx"),
]

#: Kernels named in ``provenance["delivery"]["kernel_use"]`` on the
#: NumPy engine; rows of any other kernel land in ``other``.
KERNELS = (
    "pipeline-numpy",
    "coo-spmm",
    "coo-sparse-mixed",
    "coo-dense",
    "coo-gather",
    "skip-empty",
    "spmm",
    "gather",
    "dense",
)

STAGES = ("plan", "coins", "faults", "deliver", "commit")
BROADCAST_STAGES = ("mis", "partition", "icp", "sweep")


def udg_side(n: int, degree: float) -> float:
    """Square side giving a random UDG of ``n`` nodes about ``degree``
    neighbours per node (unit radius)."""
    return math.sqrt(n * math.pi / degree)


def trial_seed(seed: int, trial: int) -> np.random.SeedSequence:
    """The rng seed of trial ``trial`` of ``seed`` (campaign contract)."""
    return np.random.SeedSequence(seed).spawn(trial + 1)[trial]


def warm_context(graph: Any) -> None:
    """Fill the graph-context cache a first run would otherwise fill."""
    ctx = graph_context(graph)
    if ctx.is_connected():
        ctx.diameter


def same_outcome(a: api.RunReport, b: api.RunReport) -> bool:
    """Report equality, ignoring how the graph arrays arrived (a pooled
    job attaches shared memory, a direct run maps the corpus file)."""

    def strip(report: api.RunReport) -> api.RunReport:
        prov = dict(report.provenance)
        corpus = prov.get("corpus")
        if corpus is not None:
            prov["corpus"] = {k: v for k, v in corpus.items() if k != "source"}
        return dataclasses.replace(report, provenance=prov)

    return strip(a) == strip(b)


def engine_totals(reports: list[api.RunReport]) -> dict[str, float]:
    """Sum the engine counters the reports already carry."""
    out: dict[str, float] = {f"engine.{s}_s": 0.0 for s in STAGES}
    kernels = {k: 0 for k in KERNELS + ("other",)}
    rebuilds = restricted = full = 0
    for report in reports:
        timing = report.provenance.get("timing") or {}
        for stage in STAGES:
            out[f"engine.{stage}_s"] += float(timing.get(stage, 0.0))
        delivery = report.provenance.get("delivery") or {}
        for kernel, rows in (delivery.get("kernel_use") or {}).items():
            kernels[kernel if kernel in kernels else "other"] += int(rows)
        residual = report.provenance.get("residual") or {}
        rebuilds += int(residual.get("rebuilds", 0))
        restricted += int(residual.get("restricted_steps", 0))
        full += int(residual.get("full_steps", 0))
    for kernel, rows in kernels.items():
        out[f"engine.kernel_rows.{kernel}"] = float(rows)
    out["engine.residual_rebuilds"] = float(rebuilds)
    out["engine.restricted_step_frac"] = (
        restricted / (restricted + full) if restricted + full else 0.0
    )
    return out


def radio_totals(reports: list[api.RunReport], n: int) -> dict[str, float]:
    """Simulated traffic: transmissions, receptions, tx per node-step."""
    steps = sum(r.steps for r in reports)
    tx = sum(r.trace["transmissions"] for r in reports)
    return {
        "radio.transmissions": float(tx),
        "radio.receptions": float(sum(r.trace["receptions"] for r in reports)),
        "radio.tx_per_node_step": tx / (n * steps) if steps else 0.0,
    }


def wire_round_trips(tracer: Any, report: api.RunReport, times: int = 5) -> bool:
    """Encode and decode ``report`` ``times`` times (one timing sample
    would be at the mercy of a garbage-collection pause)."""
    ok = True
    for _ in range(times):
        with tracer.span("api.wire.report_to_json"):
            text = report_to_json(report)
        with tracer.span("api.wire.report_from_json"):
            decoded = report_from_json(text)
        ok = ok and decoded == report
    return ok


def mean_ms(values: list[float]) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


@dataclasses.dataclass
class Instance:
    """One closed-loop iteration of a workload."""

    index: int
    setup_s: float
    #: The timed call: ``api.run``, or the cold campaign submit->done.
    wall_s: float
    jobs: int
    failed_jobs: int
    #: Simulated radio steps of the timed call.
    steps: int
    #: Wall of each resubmission of the same jobs, all cache hits.
    warm_s: list[float]
    warm_jobs: int
    checks: int
    failures: list[str]
    #: Simulated statistics: exact for a given seed.
    simulated: dict[str, Any]
    #: Span-list ranges of each phase, plus what ``layers`` reads.
    marks: dict[str, list[tuple[int, int]]]
    detail: dict[str, Any]


class Workload:
    """Shared plumbing: work directory, tracer, phases."""

    name = ""
    #: Instances every run makes, however short ``--seconds`` is; the
    #: simulated record covers exactly these.
    min_instances = 2

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer: Any = NULL_TRACER

    @contextlib.contextmanager
    def phase(
        self, marks: dict[str, list[tuple[int, int]]], name: str
    ) -> Iterator[None]:
        start = len(self.tracer.spans)
        with self.tracer.span(name):
            yield
        marks.setdefault(name, []).append((start, len(self.tracer.spans)))

    def fresh_dir(self, prefix: str) -> pathlib.Path:
        """A new empty directory under the run's work directory."""
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def spans(
        self, inst: Instance, name: str, phases: tuple[str, ...]
    ) -> list[float]:
        """Durations of ``name`` spans recorded during ``phases``."""
        return [
            s["end"] - s["start"]
            for phase in phases
            for lo, hi in inst.marks.get(phase, ())
            for s in self.tracer.spans[lo:hi]
            if s["name"] == name and s["end"] is not None
        ]

    def instance(self, index: int) -> Instance:
        raise NotImplementedError

    def layers(self, inst: Instance) -> dict[str, float]:
        raise NotImplementedError


class RunWorkload(Workload):
    """One ``repro.api.run`` per instance on a fresh stored corpus graph.

    The resubmit puts the report into a :class:`ReportStore` under its
    :class:`JobKey` and reads it back, as the service does for a job
    it has run before.
    """

    protocol = ""
    n = 0
    degree = 0.0
    connected = False
    config: Any = None
    policy = api.ExecutionPolicy()
    #: Store reads per instance in the resubmit phase.
    gets = 20

    def target(self, loaded: CSRGraph) -> dict[str, Any]:
        """``api.run`` keyword arguments naming the graph."""
        return {"corpus": loaded}

    def check(self, loaded: CSRGraph, report: api.RunReport) -> list[str]:
        raise NotImplementedError

    def simulated(self, report: api.RunReport) -> dict[str, Any]:
        return {
            "radio_steps": report.steps,
            "transmissions": report.trace["transmissions"],
            "receptions": report.trace["receptions"],
        }

    def instance(self, index: int) -> Instance:
        t = self.tracer
        marks: dict[str, list[tuple[int, int]]] = {}
        with self.phase(marks, "setup"):
            started = time.perf_counter()
            with t.span("corpus.generate"):
                graph = random_udg_csr(
                    self.n,
                    udg_side(self.n, self.degree),
                    np.random.default_rng((self.seed, index)),
                    connected=self.connected,
                )
            corpus = CorpusStore(self.fresh_dir("corpus-"))
            digest = corpus.add(graph, invariants=False)
            loaded = corpus.load(digest)
            target = self.target(loaded)
            with t.span("graphs.context_warmup"):
                warm_context(next(iter(target.values())))
            setup_s = time.perf_counter() - started

        rng = np.random.default_rng(trial_seed(self.seed, index))
        with self.phase(marks, "cold"):
            with t.span("api.run"):
                t0 = time.perf_counter()
                report = api.run(
                    self.protocol,
                    rng=rng,
                    config=self.config,
                    policy=self.policy,
                    **target,
                )
                wall = time.perf_counter() - t0

        key = JobKey(
            protocol=self.protocol,
            graph=digest,
            seed=self.seed,
            trial=index,
            policy=policy_digest(self.policy, self.n),
            faults=faults_digest(self.policy),
            config=config_digest(self.config),
        )
        store = ReportStore(self.fresh_dir("reports-"))
        with self.phase(marks, "store"):
            store.put(key, report)
        warm_s, served = [], []
        with self.phase(marks, "warm"):
            for _ in range(self.gets):
                t0 = time.perf_counter()
                served.append(store.get(key))
                warm_s.append(time.perf_counter() - t0)

        with self.phase(marks, "check"):
            failures = self.check(loaded, report)
            if not all(
                s is not None and same_outcome(s, report) for s in served
            ):
                failures.append("stored report differs from the run")
            if not wire_round_trips(t, report):
                failures.append("wire round trip changed the report")
        return Instance(
            index=index,
            setup_s=setup_s,
            wall_s=wall,
            jobs=1,
            failed_jobs=0,
            steps=report.steps,
            warm_s=warm_s,
            warm_jobs=1,
            checks=3,
            failures=failures,
            simulated=self.simulated(report),
            marks=marks,
            detail={
                "report": report,
                "hits": store.hits,
            },
        )

    def layers(self, inst: Instance) -> dict[str, float]:
        report = inst.detail["report"]
        stages = sum((report.provenance["timing"] or {}).values())
        out = {
            "corpus.generate_s": sum(
                self.spans(inst, "corpus.generate", ("setup",))
            ),
            "corpus.save_s": sum(self.spans(inst, "corpus.save", ("setup",))),
            "corpus.load_s": sum(self.spans(inst, "corpus.load", ("setup",))),
            "corpus.to_networkx_s": sum(
                self.spans(inst, "corpus.to_networkx", ("setup",))
            ),
            "radio.network_build_s": sum(
                self.spans(inst, "radio.network_build", ("cold",))
            ),
            "engine.unattributed_s": inst.wall_s - stages,
            "api.front_door_s": inst.wall_s - report.wall_time_s,
            "api.wire_encode_ms": mean_ms(
                self.spans(inst, "api.wire.report_to_json", ("check",))
            ),
            "api.wire_decode_ms": mean_ms(
                self.spans(inst, "api.wire.report_from_json", ("check",))
            ),
            "service.store_get_ms": mean_ms(
                self.spans(inst, "service.store.get", ("warm",))
            ),
            "service.store_put_ms": mean_ms(
                self.spans(inst, "service.store.put", ("store",))
            ),
            "service.job_exec_ms": 1e3 * report.wall_time_s,
            "service.cache_hit_frac": inst.detail["hits"] / self.gets,
            "core.radio_steps": float(report.steps),
        }
        out.update(radio_totals([report], self.n))
        out.update(engine_totals([report]))
        return out


class MISWorkload(RunWorkload):
    name = "mis-udg-2k"
    protocol = "mis"
    n = 2000
    degree = 9.0
    connected = False
    policy = api.ExecutionPolicy(mem_budget=api.parse_mem_budget("256M"))

    def check(self, loaded: CSRGraph, report: api.RunReport) -> list[str]:
        if is_maximal_independent_set(loaded.to_networkx(), report.result.mis):
            return []
        return ["MIS is not a maximal independent set"]

    def simulated(self, report: api.RunReport) -> dict[str, Any]:
        mask = np.packbits(np.asarray(report.result.mis_mask, dtype=bool))
        return {
            **super().simulated(report),
            "mis_size": report.result.size,
            "mis_digest": hashlib.sha256(mask.tobytes()).hexdigest()[:16],
        }

    def layers(self, inst: Instance) -> dict[str, float]:
        out = super().layers(inst)
        out["core.mis_size"] = float(inst.detail["report"].result.size)
        return out


class BroadcastWorkload(RunWorkload):
    name = "broadcast-packet-udg-1k"
    protocol = "broadcast"
    n = 1000
    degree = 20.0
    connected = True
    config = api.BroadcastConfig(packet=True)

    def target(self, loaded: CSRGraph) -> dict[str, Any]:
        # Broadcast walks networkx surfaces, so it takes the
        # materialized graph (CSRGraph.to_networkx, part of set-up).
        return {"target": loaded.to_networkx()}

    def check(self, loaded: CSRGraph, report: api.RunReport) -> list[str]:
        return [] if report.result.delivered else ["broadcast not delivered"]

    def simulated(self, report: api.RunReport) -> dict[str, Any]:
        result = report.result
        return {
            **super().simulated(report),
            "mis_size": result.mis_size,
            "phases": result.phases,
            "stage_steps": dict(result.stage_steps),
            "delivered": result.delivered,
        }

    def layers(self, inst: Instance) -> dict[str, float]:
        out = super().layers(inst)
        result = inst.detail["report"].result
        out["core.mis_size"] = float(result.mis_size)
        out["core.phases"] = float(result.phases)
        for stage in BROADCAST_STAGES:
            out[f"core.stage_steps.{stage}"] = float(
                result.stage_steps.get(stage, 0)
            )
        return out


class CampaignWorkload(Workload):
    """A cold Decay campaign through the HTTP service, then resubmits.

    Each instance starts a fresh service over an empty report store
    (set-up), submits the campaign and streams it to completion (the
    timed call), then resubmits the same spec, which the store serves.
    """

    name = "campaign-decay-2k"
    n = 2000
    degree = 9.0
    trials = 150
    #: Fault horizon in global steps; Decay at n = 2000 runs 11.
    horizon = 32
    resubmits = 2

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        self.workers = len(os.sched_getaffinity(0))

    def _drive(
        self, client: ServiceClient, spec: CampaignSpec
    ) -> dict[str, Any]:
        """Submit, then stream to completion; time both."""
        t0 = time.perf_counter()
        with self.tracer.span("service.client.submit"):
            submitted = client.submit(spec)
        submit_s = time.perf_counter() - t0
        first = None
        final: dict[str, Any] = {}
        with self.tracer.span("service.client.stream"):
            for snapshot in client.stream(submitted["id"]):
                if first is None and snapshot["completed"] > 0:
                    first = time.perf_counter() - t0
                final = snapshot
        return {
            "id": submitted["id"],
            "wall": time.perf_counter() - t0,
            "submit_s": submit_s,
            "first_result_s": first if first is not None else 0.0,
            "final": final,
        }

    def instance(self, index: int) -> Instance:
        t = self.tracer
        marks: dict[str, list[tuple[int, int]]] = {}
        spec_seed = self.seed * 1000 + index
        reports_dir = self.fresh_dir("reports-")
        with self.phase(marks, "setup"):
            started = time.perf_counter()
            with t.span("corpus.generate"):
                graph = random_udg_csr(
                    self.n,
                    udg_side(self.n, self.degree),
                    np.random.default_rng((self.seed, index)),
                    connected=False,
                )
            corpus = CorpusStore(self.fresh_dir("corpus-"))
            digest = corpus.add(graph, invariants=False)
            faults = FaultSchedule.sample(
                self.n, self.horizon, seed=spec_seed,
                crash_rate=0.1, hetero=0.2,
            )
            spec = CampaignSpec(
                protocol="decay",
                corpus=(digest,),
                n_trials=self.trials,
                seed=spec_seed,
                policies=(
                    api.ExecutionPolicy(),
                    api.ExecutionPolicy(faults=faults),
                ),
            )
            with t.span("service.start"):
                service = start_in_thread(
                    reports_dir, corpus, workers=self.workers
                )
            setup_s = time.perf_counter() - started
        try:
            client = ServiceClient(port=service.port)
            with self.phase(marks, "cold"):
                cold = self._drive(client, spec)
            warms = []
            for _ in range(self.resubmits):
                with self.phase(marks, "warm"):
                    warms.append(self._drive(client, spec))
            with self.phase(marks, "check"):
                failures, direct = self._check(
                    client, spec, cold, warms, corpus.load(digest)
                )
        finally:
            service.stop()

        final = cold["final"]
        total = spec.total_jobs
        steps = final["summary"]["steps"] if final.get("summary") else None
        stored = []
        if index < self.min_instances or self.tracer.enabled:
            store = ReportStore(reports_dir)
            stored = [store.get(d) for d in sorted(store.digests())]
        simulated = {
            "jobs": final.get("completed", 0),
            "radio_steps": (
                round(steps["mean"] * steps["count"]) if steps else 0
            ),
            "steps_digest": hashlib.sha256(
                json.dumps(steps, sort_keys=True).encode()
            ).hexdigest()[:16],
        }
        if stored:
            simulated["transmissions"] = sum(
                r.trace["transmissions"] for r in stored
            )
            simulated["receptions"] = sum(
                r.trace["receptions"] for r in stored
            )
        return Instance(
            index=index,
            setup_s=setup_s,
            wall_s=cold["wall"],
            jobs=total,
            failed_jobs=int(final.get("failed", total)),
            steps=simulated["radio_steps"],
            warm_s=[w["wall"] for w in warms],
            warm_jobs=total,
            checks=1 + len(warms) + 2 * len(direct),
            failures=failures,
            simulated=simulated,
            marks=marks,
            detail={
                "cold": cold,
                "warms": warms,
                "direct": direct,
                "stored": stored,
            },
        )

    def _check(
        self,
        client: ServiceClient,
        spec: CampaignSpec,
        cold: dict[str, Any],
        warms: list[dict[str, Any]],
        graph: CSRGraph,
    ) -> tuple[list[str], list[tuple[api.RunReport, float]]]:
        """Campaign outcome checks plus sampled jobs re-run directly."""
        t = self.tracer
        failures = []
        final = cold["final"]
        total = spec.total_jobs
        if final.get("state") != "completed" or final.get("executed") != total:
            failures.append(f"cold campaign ended {final.get('state')!r}")
        for warm in warms:
            again = warm["final"]
            if again.get("cached") != total or again.get(
                "summary"
            ) != final.get("summary"):
                failures.append("resubmit was not served whole from the store")

        # One sampled job per policy, re-run directly and compared.
        jobs = client.jobs(cold["id"])
        pick = np.random.default_rng((self.seed, spec.seed, 7))
        direct = []
        for p, policy in enumerate(spec.policies):
            trial = int(pick.integers(spec.n_trials))
            job = next(
                j for j in jobs if j["policy"] == p and j["trial"] == trial
            )
            stored = client.fetch_report(job["digest"])
            with t.span("api.run"):
                t0 = time.perf_counter()
                report = api.run(
                    spec.protocol,
                    graph,
                    rng=np.random.default_rng(trial_seed(spec.seed, trial)),
                    config=spec.config,
                    policy=policy,
                )
                wall = time.perf_counter() - t0
            direct.append((report, wall))
            if not same_outcome(stored, report):
                failures.append(
                    f"stored job (policy {p}, trial {trial}) differs from "
                    f"a direct run"
                )
            if not wire_round_trips(t, stored):
                failures.append("wire round trip changed a stored report")
        return failures, direct

    def layers(self, inst: Instance) -> dict[str, float]:
        cold = inst.detail["cold"]
        warms = inst.detail["warms"]
        direct = inst.detail["direct"]
        stored = inst.detail["stored"]
        summary = cold["final"]["summary"]
        job_walls = summary["wall_time_s"]["mean"] * summary["wall_time_s"][
            "count"
        ]
        stages = sum(
            sum((r.provenance["timing"] or {}).values()) for r in stored
        )
        builds = self.spans(inst, "radio.network_build", ("check",))
        out = {
            "corpus.generate_s": sum(
                self.spans(inst, "corpus.generate", ("setup",))
            ),
            "corpus.save_s": sum(self.spans(inst, "corpus.save", ("setup",))),
            # The service loads the entry once per submitted campaign.
            "corpus.load_s": statistics.fmean(
                self.spans(inst, "corpus.load", ("cold",)) or [0.0]
            ),
            "radio.network_build_s": sum(builds) / len(direct),
            "engine.unattributed_s": job_walls - stages,
            "api.front_door_s": statistics.fmean(
                wall - report.wall_time_s for report, wall in direct
            ),
            "api.wire_encode_ms": mean_ms(
                self.spans(inst, "api.wire.report_to_json", ("check",))
            ),
            "api.wire_decode_ms": mean_ms(
                self.spans(inst, "api.wire.report_from_json", ("check",))
            ),
            "service.submit_s": cold["submit_s"],
            "service.first_result_s": cold["first_result_s"],
            "service.store_get_ms": mean_ms(
                self.spans(inst, "service.store.get", ("warm",))
            ),
            "service.store_put_ms": mean_ms(
                self.spans(inst, "service.store.put", ("cold",))
            ),
            "service.job_exec_ms": 1e3 * summary["wall_time_s"]["mean"],
            "service.pool_efficiency": job_walls
            / (cold["wall"] * self.workers),
            "service.cache_hit_frac": warms[0]["final"]["cached"]
            / inst.warm_jobs,
            "core.radio_steps": float(inst.steps),
        }
        out.update(radio_totals(stored, self.n))
        out.update(engine_totals(stored))
        return out


WORKLOADS: dict[str, Callable[[int, pathlib.Path], Workload]] = {
    w.name: w for w in (MISWorkload, BroadcastWorkload, CampaignWorkload)
}
