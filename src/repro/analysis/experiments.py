"""Experiment harness: repeated trials, aggregation, scaling fits.

The benchmarks in ``benchmarks/`` are thin: they define workloads and
call these helpers, so that trial repetition, seeding, and slope fitting
are uniform across experiments and unit-testable on their own.

Seeded trials have two entry points: :func:`run_trials` (a scalar
``measure`` callable) and :func:`run_report_trials` (front-door runs,
one ``RunReport`` each). Both — and the campaign engine
(:mod:`repro.service.campaign`) — reach a process pool through one
fan-out, :func:`_fan_out`: one ``SeedSequence`` child per trial,
outcomes collected by trial index, so serial and pooled runs of the
same experiment produce the same numbers.

Execution settings ride an explicit
:class:`~repro.engine.policy.ExecutionPolicy` and nothing else: there
are no process-wide defaults for a trial runner to impose. A
``measure`` passes its policy to the protocols it calls (a
``functools.partial`` over a module-level function pickles into pool
workers), and :func:`run_report_trials` hands its ``policy`` to every
:func:`repro.api.run`. ``benchmarks/bench_p2_engine.py`` measures the
step-wise twins that way, with
``policy=ExecutionPolicy(engine="reference")``, and fans the E1/E6
slices out with ``run_trials(processes=...)``, recording wall-clock in
``BENCH_PR2.json``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import itertools
import math
import os
import pickle
import shutil
import tempfile
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..corpus.store import load_graph, save_graph
from ..engine.policy import ExecutionPolicy
from ..radio.errors import ProtocolError


def _resolve_corpus(corpus: Any) -> Any:
    """The ``corpus=`` knob's graph: a CSRGraph as-is, a path mmap-loaded."""
    if hasattr(corpus, "csr_arrays"):
        return corpus
    return load_graph(corpus)


def _seed_children(
    n_trials: int, seed: int, processes: int
) -> list[np.random.SeedSequence]:
    """The trial streams: one ``SeedSequence(seed)`` child per trial."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    return np.random.SeedSequence(seed).spawn(n_trials)


def _warn_serial(runner: str, reason: str, exc: BaseException) -> None:
    """A degraded path must say so, naming the actual failure.

    Silently running serially where the caller asked for a pool turns
    a pickling bug or a sandbox limit into a mysterious slowdown.
    """
    warnings.warn(
        f"{runner}: {reason}; running trials serially "
        f"({type(exc).__name__}: {exc})",
        RuntimeWarning,
        stacklevel=4,
    )


@dataclasses.dataclass(frozen=True)
class _Entry:
    """A pooled job's graph as it travels: the absolute path of the
    corpus entry directory the worker maps, in place of the arrays."""

    path: str


#: The worker side of :class:`_Entry`: one mapped ``CSRGraph`` (and so
#: one memoized ``GraphContext``) per entry per process. It holds its
#: graphs for the life of the process, which for a pool worker is one
#: fan-out.
_map_entry = functools.cache(load_graph)


def _run_job(job: Callable[..., Any], target: Any, args: tuple) -> Any:
    """Pool-worker body (module-level for pickling): map an entry
    payload's graph, once per process, and run one job."""
    if isinstance(target, _Entry):
        target = _map_entry(target.path)
    return job(target, *args)


def _fan_out(
    runner: str,
    job: Callable[..., Any],
    tasks: Sequence[tuple[Any, tuple]],
    processes: int,
    land: Callable[[int, Any, Exception | None], None],
    *,
    fatal: type[Exception] | tuple[type[Exception], ...] = Exception,
    stop: Callable[[], bool] | None = None,
) -> None:
    """Run ``job(target, *args)`` for every ``(target, args)`` task: the
    one fan-out behind :func:`run_trials`, :func:`run_report_trials` and
    the campaign engine.

    Each task's outcome reaches ``land(index, value, exc)`` once
    (``exc`` is ``None`` on success), in completion order. A job error
    of a ``fatal`` type is not landed: it cancels every job not yet
    started and propagates once the pool is down. ``stop`` is polled
    between jobs; once it answers true, unstarted jobs are cancelled
    and the running ones still land.

    With ``processes > 1`` the fan-out is pooled:

    * the first task's payload is probed with ``pickle.dumps``; an
      unpicklable job (a closure, a lambda measure) runs serially with
      a ``RuntimeWarning`` naming the failure;
    * every distinct array-native target
      (:class:`~repro.corpus.graph.CSRGraph`) travels as the absolute
      path of a corpus entry, never as arrays, and each worker maps it
      once. A graph :func:`~repro.corpus.store.load_graph` mapped sends
      its own entry, which must outlive the fan-out. Any other one is
      written once to a temporary entry, removed however the fan-out
      ends, so its pooled reports name ``"mmap"`` and that entry's
      digest;
    * at most ``max(4 x workers, 8)`` jobs are in flight, so a 10^6-job
      fan-out never materializes 10^6 futures;
    * a pool that cannot start or breaks (``BrokenProcessPool``,
      ``PermissionError``) degrades to the serial path with the same
      warning: outcomes that already landed stay, and only tasks
      without one run again.
    """
    landed = np.zeros(len(tasks), dtype=bool)
    aborted: list[Exception] = []

    def deliver(index: int, value: Any, exc: Exception | None) -> None:
        landed[index] = True
        if isinstance(exc, fatal):
            aborted.append(exc)
        else:
            land(index, value, exc)

    def halted() -> bool:
        return bool(aborted) or (stop is not None and bool(stop()))

    pooled = processes > 1 and len(tasks) > 1
    if pooled:
        target, args = tasks[0]
        try:
            pickle.dumps(
                (job, None if hasattr(target, "csr_arrays") else target, args)
            )
        except Exception as exc:
            _warn_serial(runner, "the job payload is not picklable", exc)
            pooled = False
    if pooled:
        entries: dict[int, _Entry] = {}
        scratch: str | None = None
        futures: dict[concurrent.futures.Future, int] = {}
        workers = min(processes, len(tasks))
        queue = iter(range(len(tasks)))

        def submit(pool: ProcessPoolExecutor) -> None:
            if halted():
                return
            room = max(4 * workers, 8) - len(futures)
            for index in itertools.islice(queue, room):
                target, args = tasks[index]
                payload = entries.get(id(target), target)
                futures[pool.submit(_run_job, job, payload, args)] = index

        def settle(every: bool) -> BaseException | None:
            """Land the finished futures; return the pool's breakage."""
            concurrent.futures.wait(
                futures,
                return_when=(
                    concurrent.futures.ALL_COMPLETED
                    if every
                    else concurrent.futures.FIRST_COMPLETED
                ),
            )
            broken = None
            for future in [f for f in futures if f.done()]:
                index = futures.pop(future)
                if future.cancelled():
                    continue
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    broken = exc
                else:
                    value = future.result() if exc is None else None
                    deliver(index, value, exc)
            return broken

        try:
            for target, _ in tasks:
                if id(target) in entries or not hasattr(target, "csr_arrays"):
                    continue
                path = getattr(target, "entry", None)
                if path is None:
                    if scratch is None:
                        scratch = tempfile.mkdtemp(prefix="repro-fan-out-")
                    path = os.path.join(scratch, str(len(entries)))
                    save_graph(target, path, invariants=False)
                entries[id(target)] = _Entry(path)
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                submit(pool)
                while futures:
                    broken = settle(every=False)
                    if broken is not None:
                        raise broken
                    if halted():
                        for future in futures:
                            future.cancel()
                        settle(every=True)
                    submit(pool)
            finally:
                pool.shutdown(cancel_futures=True)
        except (BrokenProcessPool, PermissionError) as exc:
            # Land every job that finished before the pool failed (the
            # shutdown above resolved them all); only the rest run again.
            settle(every=True)
            _warn_serial(runner, "the process pool failed", exc)
            pooled = False
        finally:
            if scratch is not None:
                shutil.rmtree(scratch)
    if not pooled:
        for index, (target, args) in enumerate(tasks):
            if landed[index]:
                continue
            if halted():
                break
            try:
                value = job(target, *args)
            except Exception as exc:
                deliver(index, None, exc)
            else:
                deliver(index, value, None)
    if aborted:
        raise aborted[0]


def measure_peak(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` and return ``(result, peak_bytes)`` via ``tracemalloc``.

    ``peak_bytes`` is the workload's peak allocation above the baseline
    at entry (numpy buffers included — numpy allocates through the
    traced ``PyDataMem`` hooks). Benchmarks record it next to wall time
    in every ``BENCH_*.json`` artifact, and the memory-ceiling
    regression tests assert streamed runs stay under their configured
    budget. Tracing costs some speed, so callers time and measure in
    separate passes when both numbers matter.

    Do **not** nest: the peak is process-global tracemalloc state, and
    an inner call's ``reset_peak`` necessarily discards the peak the
    outer call was accumulating (the outer result then reflects only
    allocations after the inner call returned). ``fn`` must not call
    ``measure_peak`` itself.
    """
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started_here:
            tracemalloc.stop()
    return result, max(0, peak - baseline)


@dataclasses.dataclass(frozen=True)
class TrialStats:
    """Aggregate of repeated scalar measurements."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TrialStats":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ProtocolError(
                "cannot aggregate zero trials: TrialStats.from_values "
                "needs at least one value"
            )
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            count=int(arr.size),
        )

    def merge(self, other: "TrialStats") -> "TrialStats":
        """Combine two disjoint aggregates into one (streaming update).

        Exact pooled mean/variance (Chan's parallel form): merging the
        stats of two value blocks equals aggregating the concatenated
        block, up to float rounding — which is what lets the campaign
        engine maintain live aggregates **incrementally** as reports
        land instead of re-walking every report per update
        (``summarize_reports`` over 10^6 reports per status poll would
        be quadratic in campaign size). ``std`` keeps the sample
        convention (``ddof=1``) of :meth:`from_values`.
        """
        if not isinstance(other, TrialStats):
            raise ProtocolError(
                f"TrialStats.merge takes another TrialStats, got "
                f"{type(other).__name__}"
            )
        na, nb = self.count, other.count
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * nb / n
        # Sum of squared deviations per side (ddof=1 stored stds).
        m2 = (
            self.std**2 * max(0, na - 1)
            + other.std**2 * max(0, nb - 1)
            + delta**2 * na * nb / n
        )
        return TrialStats(
            mean=float(mean),
            std=float(math.sqrt(m2 / (n - 1))) if n > 1 else 0.0,
            minimum=float(min(self.minimum, other.minimum)),
            maximum=float(max(self.maximum, other.maximum)),
            count=int(n),
        )


def _run_one_trial(
    graph: Any, measure: Callable[..., float], child: np.random.SeedSequence
) -> float:
    """One seeded trial: ``measure(rng)``, or ``measure(rng, graph)`` on
    a corpus."""
    rng = np.random.default_rng(child)
    return measure(rng) if graph is None else measure(rng, graph)


def run_trials(
    measure: Callable[..., float],
    n_trials: int,
    seed: int,
    *,
    processes: int = 1,
    corpus: Any | None = None,
) -> TrialStats:
    """Run ``measure`` on ``n_trials`` independent child generators.

    Seeding: a single ``SeedSequence`` spawns one child per trial, so
    trials are independent and the whole experiment is reproducible from
    one integer. Values are collected in trial order, so the statistics
    are bit-identical whatever ``processes`` is.

    Parameters
    ----------
    measure:
        Trial callable, ``measure(rng)``. It carries its own execution
        settings: pass a policy to the protocols it calls. With
        ``processes > 1`` it must pickle (a module-level function, or a
        ``functools.partial`` over one); an unpicklable measure runs
        serially with a ``RuntimeWarning`` naming the failure.
    n_trials, seed:
        Trial count (at least one) and the root seed.
    processes:
        Worker processes (default 1, serial). Trials fan out through
        the harness's one pool driver (:func:`_fan_out`); a sandbox
        that cannot start or keep a pool degrades to the serial path
        with a warning. A trial that raises fails the experiment.
    corpus:
        A :class:`~repro.corpus.graph.CSRGraph` (or corpus entry path,
        mmap-loaded) every trial runs on; ``measure`` then takes
        ``(rng, graph)``. Pooled, each payload carries only the path of
        the graph's corpus entry and each worker maps it once, so the
        page cache holds one copy whatever the worker count — the
        zero-copy path for ``n = 10^6`` Monte-Carlo sweeps.
    """
    children = _seed_children(n_trials, seed, processes)
    graph = _resolve_corpus(corpus) if corpus is not None else None
    values: list[float] = [0.0] * n_trials

    def land(index: int, value: float, exc: Exception | None) -> None:
        values[index] = value

    _fan_out(
        "run_trials",
        _run_one_trial,
        [(graph, (measure, child)) for child in children],
        processes,
        land,
    )
    return TrialStats.from_values(values)


@dataclasses.dataclass(frozen=True)
class ScalingFit:
    """Power-law fit ``y ~ c * x^exponent`` from log-log regression."""

    exponent: float
    coefficient: float
    r_squared: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> ScalingFit:
    """Least-squares fit of ``log y`` against ``log x``.

    Used by scaling experiments (E1, E6) to extract measured growth
    exponents — e.g. Radio MIS steps against ``log^3 n`` should fit with
    exponent ~1 when x is taken to be ``log^3 n`` itself.
    """
    xs = np.asarray(list(xs), dtype=float)
    ys = np.asarray(list(ys), dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need at least two matched (x, y) points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, deg=1)
    predicted = slope * lx + intercept
    total = float(((ly - ly.mean()) ** 2).sum())
    residual = float(((ly - predicted) ** 2).sum())
    r2 = 1.0 - residual / total if total > 0 else 1.0
    return ScalingFit(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        r_squared=float(r2),
    )


def success_rate(outcomes: Iterable[bool]) -> float:
    """Fraction of true outcomes (whp-claim verification helper)."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("cannot compute a success rate of zero outcomes")
    return sum(1 for o in outcomes if o) / len(outcomes)


def _run_one_report(
    target: Any,
    protocol: Any,
    child: np.random.SeedSequence,
    config: Any,
    policy: ExecutionPolicy | None,
) -> Any:
    """One seeded front-door run: the report job of
    :func:`run_report_trials` and of every campaign job."""
    from ..api import run

    return run(
        protocol,
        target,
        rng=np.random.default_rng(child),
        config=config,
        policy=policy,
    )


def run_report_trials(
    protocol: Any,
    target: Any = None,
    n_trials: int = 1,
    seed: int = 0,
    config: Any | None = None,
    policy: ExecutionPolicy | None = None,
    processes: int | None = None,
    corpus: Any | None = None,
) -> list[Any]:
    """Repeated :func:`repro.api.run` trials, one ``RunReport`` each.

    The front-door form of :func:`run_trials`: instead of a scalar
    ``measure`` callable, a registered protocol name (or spec) runs
    ``n_trials`` times on ``target`` with the usual one-``SeedSequence``
    -child-per-trial seeding, and the full
    :class:`~repro.api.report.RunReport` of every trial comes back in
    trial order — aggregate with :func:`summarize_reports`. ``policy``
    rides into every run unchanged.

    ``processes > 1`` (default 1: protocol runs are usually
    heavyweight, so pools are opt-in) fans trials out through the same
    pool driver as :func:`run_trials`, with the same graceful
    degradation (unpicklable payloads and sandboxed environments warn
    and run serially; trial order and seeding are identical either
    way). Wall-clock and peak-memory fields are per-trial measurements
    and naturally vary across runs; the protocol results are
    seed-reproducible.

    ``corpus`` (a :class:`~repro.corpus.graph.CSRGraph` or corpus
    entry path; exclusive with ``target``) is the zero-copy fan-out
    path: worker payloads carry only the path of the graph's corpus
    entry, which every worker maps, so the page cache holds one copy
    whatever the worker count. Array-native targets passed via
    ``target=`` take the same path when pooled. On a stored entry a
    pooled report equals a serial one in full, provenance included.
    """
    processes = 1 if processes is None else processes
    children = _seed_children(n_trials, seed, processes)
    if corpus is not None:
        if target is not None:
            raise ProtocolError(
                "run_report_trials takes target= or corpus=, not both — "
                "the corpus entry IS the graph"
            )
        target = _resolve_corpus(corpus)
    reports: list[Any] = [None] * n_trials

    def land(index: int, report: Any, exc: Exception | None) -> None:
        reports[index] = report

    _fan_out(
        "run_report_trials",
        _run_one_report,
        [(target, (protocol, child, config, policy)) for child in children],
        processes,
        land,
    )
    return reports


def summarize_reports(reports: Sequence[Any]) -> dict[str, TrialStats]:
    """Aggregate a batch of ``RunReport`` records into trial statistics.

    Returns :class:`TrialStats` over the execution facts every report
    carries — ``steps``, ``wall_time_s``, and (when every report was
    memory-measured) ``peak_mem_bytes`` — which is what benchmark rows
    and experiment tables need from repeated front-door runs.
    """
    reports = list(reports)
    if not reports:
        # Refuse by name rather than letting TrialStats trip over an
        # empty array (historically a bare ValueError with no context,
        # and a KeyError further down for callers indexing the dict):
        # the service maps this straight to a 4xx.
        raise ProtocolError(
            "summarize_reports got zero reports: an empty campaign or "
            "trial batch has no aggregates (submit at least one trial)"
        )
    summary = {
        "steps": TrialStats.from_values([r.steps for r in reports]),
        "wall_time_s": TrialStats.from_values(
            [r.wall_time_s for r in reports]
        ),
    }
    if all(r.peak_mem_bytes is not None for r in reports):
        summary["peak_mem_bytes"] = TrialStats.from_values(
            [r.peak_mem_bytes for r in reports]
        )
    return summary


def geometric_sizes(start: int, stop: int, points: int) -> list[int]:
    """Geometrically spaced integer sizes for scaling sweeps."""
    if start < 1 or stop < start or points < 1:
        raise ValueError(
            f"invalid sweep spec: start={start}, stop={stop}, points={points}"
        )
    raw = np.geomspace(start, stop, points)
    sizes = sorted({int(round(x)) for x in raw})
    return sizes
