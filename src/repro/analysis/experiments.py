"""Experiment harness: repeated trials, aggregation, scaling fits.

The benchmarks in ``benchmarks/`` are thin: they define workloads and
call these helpers, so that trial repetition, seeding, and slope fitting
are uniform across experiments and unit-testable on their own.

Monte-Carlo repetitions are embarrassingly parallel:
:func:`run_trials_parallel` fans the same seeded trials of
:func:`run_trials` across a process pool, with bit-identical seeding
(one ``SeedSequence`` child per trial, in trial order), so serial and
parallel runs of the same experiment produce the same numbers.

Trials that simulate protocols run on the windowed engine by default —
the packet-level entry points (:func:`repro.core.compute_mis`,
:func:`repro.core.run_decay`, packet Compete, the baselines) are
engine-backed, so every experiment inherits the batched delivery path
without opting in; pass them
``policy=ExecutionPolicy(engine="reference")`` to measure the step-wise
twins (``benchmarks/bench_p2_engine.py`` does exactly
that, and threads the E1/E6 slices through
:func:`run_trials_parallel`, recording wall-clock per PR in
``BENCH_PR2.json``).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import math
import os
import pickle
import tracemalloc
import warnings
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..corpus.shm import SharedGraph, SharedGraphHandle, attach
from ..engine.policy import ExecutionPolicy
from ..engine.streaming import memory_budget, set_memory_budget
from ..faults import default_faults, set_default_faults, validate_faults
from ..radio.errors import ProtocolError


def _resolve_corpus(corpus: Any) -> Any:
    """The ``corpus=`` knob's graph: a CSRGraph as-is, a path mmap-loaded."""
    if hasattr(corpus, "csr_arrays"):
        return corpus
    from ..corpus.store import load_graph

    return load_graph(corpus)


def _warn_unpicklable(runner: str, exc: Exception, fallback: str) -> None:
    """Satellite of the parallel runners: a degraded path must say so.

    Silently running serially where the caller asked for a pool turns
    a pickling bug into a mysterious slowdown; the warning names the
    actual failure so the caller can fix the measure/payload.
    """
    warnings.warn(
        f"{runner}: {fallback} ({type(exc).__name__}: {exc})",
        RuntimeWarning,
        stacklevel=3,
    )


def _trial_budget(
    mem_budget: int | None, policy: ExecutionPolicy | None
) -> tuple[int | None, Any]:
    """The process-wide defaults a block of trials should impose.

    ``policy`` is the front-door form (its ``mem_budget`` field is the
    streaming cap, its ``faults`` the fault schedule); the legacy
    ``mem_budget`` kwarg keeps working. Passing both refuses — two
    sources of truth. The trial runners drive opaque ``measure``
    callables, so the only policy fields they can impose process-wide
    are the two with process-wide defaults — ``mem_budget`` and
    ``faults`` — and a policy carrying any other non-default field
    refuses rather than silently dropping it (set engine/chunk_steps
    on the protocol calls inside ``measure``, or use
    :func:`run_report_trials`, which threads the whole policy through
    :func:`repro.api.run`).
    """
    if policy is not None:
        if mem_budget is not None:
            raise ProtocolError(
                "run_trials got both mem_budget= and policy=; put the "
                "budget on the policy"
            )
        if policy != ExecutionPolicy(
            mem_budget=policy.mem_budget, faults=policy.faults
        ):
            raise ProtocolError(
                "run_trials applies only the policy's mem_budget and "
                "faults (measure callables are opaque); set other "
                "policy fields on the protocol calls inside measure, "
                "or use run_report_trials for full-policy front-door "
                "trials"
            )
        return policy.mem_budget, policy.faults
    return mem_budget, None


@contextlib.contextmanager
def _trial_memory_budget(mem_budget: int | None) -> Iterator[None]:
    """Impose the process-wide streaming budget for a block of trials.

    ``None`` leaves the current budget untouched; otherwise the
    previous budget is restored on exit, so nesting experiments with
    different caps behaves.
    """
    if mem_budget is None:
        yield
        return
    previous = memory_budget()
    set_memory_budget(mem_budget)
    try:
        yield
    finally:
        set_memory_budget(previous)


@contextlib.contextmanager
def _trial_fault_default(faults: Any) -> Iterator[None]:
    """Impose the process-wide default fault schedule for a block of
    trials (the mechanism policy resolution consults), mirroring
    :func:`_trial_memory_budget`. ``None`` leaves the current default
    untouched; otherwise the previous default is restored on exit.
    """
    if faults is None:
        yield
        return
    validate_faults(faults)
    previous = default_faults()
    set_default_faults(faults)
    try:
        yield
    finally:
        set_default_faults(previous)


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


def run_trials(
    measure: Callable[[np.random.Generator], float],
    n_trials: int,
    seed: int,
    mem_budget: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> TrialStats:
    """Run ``measure`` with ``n_trials`` independent child generators.

    Seeding: a single ``SeedSequence`` spawns one child per trial, so
    trials are independent and the whole experiment is reproducible from
    one integer.

    ``policy`` (the front-door :class:`~repro.engine.policy
    .ExecutionPolicy` form) imposes its ``mem_budget`` as the
    process-wide streaming budget
    (:func:`repro.engine.streaming.set_memory_budget`) around the
    trials: every engine-backed protocol a trial runs then picks its
    streamed slab height from that target peak-bytes cap. The legacy
    ``mem_budget`` kwarg is the same knob (both at once refuses). A
    memory knob only — streamed execution is bit-identical, so trial
    values do not depend on it.

    A policy ``faults`` schedule is imposed the same way, as the
    process-wide default (:func:`repro.faults.set_default_faults`)
    around the trials — the one *semantics* knob: every
    policy-accepting protocol a trial runs then injects that schedule,
    and protocols that cannot realize it refuse, exactly as under
    :func:`repro.api.run`.
    """
    mem_budget, faults = _trial_budget(mem_budget, policy)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(n_trials)
    with _trial_memory_budget(mem_budget), _trial_fault_default(faults):
        values = [
            measure(np.random.default_rng(child)) for child in children
        ]
    return TrialStats.from_values(values)


def _run_one_trial(
    payload: tuple[
        Callable[[np.random.Generator], float],
        np.random.SeedSequence,
        int | None,
        Any,
    ]
) -> float:
    """Process-pool worker: run one seeded trial (module-level for pickling)."""
    measure, child, mem_budget, faults = payload
    with _trial_memory_budget(mem_budget), _trial_fault_default(faults):
        return measure(np.random.default_rng(child))


def _run_one_corpus_trial(
    payload: tuple[
        Callable[[np.random.Generator, Any], float],
        np.random.SeedSequence,
        int | None,
        Any,
        SharedGraphHandle,
    ]
) -> float:
    """Process-pool worker for corpus trials: attach the published CSR
    slabs (zero-copy, cached per process) and run one seeded trial.
    What crossed the process boundary is the handle — segment names and
    metadata, a few hundred bytes — never the arrays."""
    measure, child, mem_budget, faults, handle = payload
    graph = attach(handle)
    with _trial_memory_budget(mem_budget), _trial_fault_default(faults):
        return measure(np.random.default_rng(child), graph)


def run_trials_parallel(
    measure: Callable[..., float],
    n_trials: int,
    seed: int,
    processes: int | None = None,
    mem_budget: int | None = None,
    policy: ExecutionPolicy | None = None,
    corpus: Any | None = None,
) -> TrialStats:
    """Like :func:`run_trials`, fanned across a process pool.

    Seeding is identical to the serial runner — one ``SeedSequence``
    child per trial, results collected in trial order — so the returned
    statistics are bit-identical to ``run_trials(measure, n_trials,
    seed)`` regardless of worker count or scheduling.

    Parameters
    ----------
    measure:
        Trial callable; must be picklable (a module-level function or
        ``functools.partial`` over one), since workers are separate
        processes. Unpicklable callables fall back to the serial path
        (with a ``RuntimeWarning`` naming the failure) rather than
        failing the experiment. With ``corpus`` the signature is
        ``measure(rng, graph)`` — the graph reaches workers through
        shared memory, not through the measure's pickle.
    n_trials, seed:
        As in :func:`run_trials`.
    processes:
        Worker count; defaults to ``min(cpu_count, n_trials)``. ``1``
        short-circuits to the serial runner.
    mem_budget, policy:
        As in :func:`run_trials` (the policy's ``mem_budget`` is the
        cap; both at once refuses); the budget — and the policy's
        fault schedule — travel inside each worker's payload, so pool
        workers impose the same process-wide defaults as the serial
        path (neither survives process boundaries as a global). The
        cap is per trial, and trials within one worker run
        sequentially, so total worker memory stays near the cap plus
        the trial's graph fixtures.
    corpus:
        A :class:`~repro.corpus.graph.CSRGraph` (or corpus entry path,
        mmap-loaded) every trial runs on: the parent publishes the CSR
        slabs to ``multiprocessing.shared_memory`` **once** and each
        worker payload carries only the segment handle, so per-worker
        graph memory is independent of worker count — the zero-copy
        path for ``n = 10^6`` Monte-Carlo sweeps. ``measure`` then
        takes ``(rng, graph)``. Segments are closed and unlinked when
        the pool drains (also on worker crashes — the ``finally``
        below — and on parent crash by the resource tracker).
    """
    mem_budget, faults = _trial_budget(mem_budget, policy)
    serial_policy = ExecutionPolicy(mem_budget=mem_budget, faults=faults)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    graph = _resolve_corpus(corpus) if corpus is not None else None
    if graph is not None:
        serial_measure = lambda rng: measure(rng, graph)  # noqa: E731
    else:
        serial_measure = measure
    workers = (
        processes
        if processes is not None
        else min(os.cpu_count() or 1, n_trials)
    )
    if workers == 1 or n_trials == 1:
        return run_trials(serial_measure, n_trials, seed, policy=serial_policy)

    # Probe picklability up front so closures/lambdas take the serial
    # path immediately — the pool itself is then only guarded against
    # infrastructure failures, and genuine exceptions raised *by*
    # ``measure`` inside a worker propagate to the caller unchanged.
    try:
        pickle.dumps(measure)
    except Exception as exc:
        _warn_unpicklable(
            "run_trials_parallel",
            exc,
            "measure is not picklable; falling back to the serial path",
        )
        return run_trials(serial_measure, n_trials, seed, policy=serial_policy)

    children = np.random.SeedSequence(seed).spawn(n_trials)
    shared: SharedGraph | None = None
    if graph is not None:
        shared = SharedGraph.publish(graph)
        payloads = [
            (measure, child, mem_budget, faults, shared.handle)
            for child in children
        ]
        worker_fn: Callable[..., float] = _run_one_corpus_trial
    else:
        payloads = [
            (measure, child, mem_budget, faults) for child in children
        ]
        worker_fn = _run_one_trial
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            values = list(
                pool.map(
                    worker_fn,
                    payloads,
                    chunksize=max(1, n_trials // (4 * workers)),
                )
            )
    except (
        concurrent.futures.process.BrokenProcessPool,
        PermissionError,
    ):
        # Sandboxed environments that cannot spawn worker processes:
        # degrade gracefully to the serial path (same seeding, same
        # results, just slower).
        return run_trials(serial_measure, n_trials, seed, policy=serial_policy)
    finally:
        if shared is not None:
            shared.close()
            shared.unlink()
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
    payload: tuple[
        Any, Any, np.random.SeedSequence, Any, Any, int | None, Any
    ]
) -> Any:
    """Process-pool worker: one seeded front-door run (module-level for
    pickling). The parent's process-wide streaming budget and default
    fault schedule travel in the payload — globals do not survive
    spawn-style process boundaries, and policy resolution must see the
    same defaults inside a worker as in the serial path."""
    protocol, target, child, config, policy, budget, fault_default = payload
    from ..api import run

    if isinstance(target, SharedGraphHandle):
        target = attach(target)
    with _trial_memory_budget(budget), _trial_fault_default(fault_default):
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

    ``processes > 1`` fans trials across a process pool with the same
    graceful degradation as :func:`run_trials_parallel` (unpicklable
    targets warn and fall back to the serial path; so do sandboxed
    environments; trial order and seeding are identical either way).
    Wall-clock and peak-memory fields are per-trial measurements and
    naturally vary across runs; the protocol results are
    seed-reproducible.

    ``corpus`` (a :class:`~repro.corpus.graph.CSRGraph` or corpus
    entry path; exclusive with ``target``) is the zero-copy fan-out
    path: the parent publishes the CSR slabs to shared memory once and
    worker payloads carry only the segment handle — per-worker graph
    memory independent of worker count. Array-native targets passed
    via ``target=`` take the same shared-memory path when pooled.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if corpus is not None:
        if target is not None:
            raise ProtocolError(
                "run_report_trials takes target= or corpus=, not both — "
                "the corpus entry IS the graph"
            )
        target = _resolve_corpus(corpus)
    children = np.random.SeedSequence(seed).spawn(n_trials)
    default_budget = memory_budget()
    fault_default = default_faults()
    payloads = [
        (protocol, target, child, config, policy, default_budget,
         fault_default)
        for child in children
    ]
    workers = (
        processes
        if processes is not None
        else 1  # protocol runs are usually heavyweight; opt into pools
    )
    if workers < 1:
        raise ValueError(f"processes must be >= 1, got {workers}")
    shareable = hasattr(target, "csr_arrays")
    if workers > 1 and n_trials > 1:
        probe = (
            (protocol, config, policy)
            if shareable  # the graph travels via shared memory, not pickle
            else (protocol, target, config, policy)
        )
        try:
            pickle.dumps(probe)
        except Exception as exc:
            _warn_unpicklable(
                "run_report_trials",
                exc,
                "the (protocol, target, config, policy) payload is not "
                "picklable; running trials serially",
            )
            workers = 1
    if workers > 1 and n_trials > 1:
        shared = SharedGraph.publish(target) if shareable else None
        pool_payloads = (
            [
                (protocol, shared.handle, child, config, policy,
                 default_budget, fault_default)
                for child in children
            ]
            if shared is not None
            else payloads
        )
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, n_trials)
            ) as pool:
                return list(pool.map(_run_one_report, pool_payloads))
        except (
            concurrent.futures.process.BrokenProcessPool,
            PermissionError,
        ):
            pass
        finally:
            if shared is not None:
                shared.close()
                shared.unlink()
    return [_run_one_report(payload) for payload in payloads]


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
