"""The front door: one ``run()`` for every registered protocol.

``run(spec_or_name, graph_or_network, ...)`` is the uniform execution
surface the CLI, the experiment harness, and the benchmarks are built
on: look up the protocol in the registry, execute it under the
caller's :class:`~repro.engine.policy.ExecutionPolicy` as written, and
wrap the result in a :class:`~repro.api.report.RunReport` with
step/trace/wall/provenance accounting. Results are bit-identical to
the protocol's legacy entry point on a shared seed — ``run`` adds
accounting around the same code path, never a different one (pinned
per protocol by ``tests/test_api.py``).
"""

from __future__ import annotations

import time
from typing import Any

import networkx as nx
import numpy as np

from ..engine.policy import ExecutionPolicy
from ..engine.sampler import STREAM_VERSION
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from .registry import ProtocolSpec, get_protocol
from .report import RunReport


def _resolve_rng(
    seed: int | None, rng: np.random.Generator | None
) -> tuple[np.random.Generator, int | None]:
    """Exactly one randomness source, please."""
    if (seed is None) == (rng is None):
        raise ProtocolError(
            "run() needs exactly one of seed= (an integer) or rng= "
            "(a numpy Generator)"
        )
    if rng is not None:
        return rng, None
    return np.random.default_rng(seed), int(seed)  # type: ignore[arg-type]


def _graph_facts(
    graph: nx.Graph | None, network: RadioNetwork | None
) -> dict[str, Any] | None:
    """The provenance summary of the input graph.

    When the run held a network, its CSR adjacency gives the edge
    count for free; provenance must never re-walk a large graph (an
    ``nx.number_of_edges`` is an O(n) Python loop — measurable
    front-door overhead at ``n = 10^5``).
    """
    if graph is None:
        return None
    if network is not None:
        edges = int(network._adj.nnz // 2)
    else:
        edges = graph.number_of_edges()
    return {
        "family": graph.graph.get("family"),
        "n": graph.number_of_nodes(),
        "edges": edges,
    }


def _corpus_facts(graph: Any) -> dict[str, Any] | None:
    """The ``provenance["corpus"]`` record: which stored instance ran.

    ``None`` for ordinary networkx targets; for array-native
    :class:`~repro.corpus.graph.CSRGraph` targets it names the content
    digest (when the entry carries one) and how the arrays arrived
    (``"mmap"``, ``"shm"``, or ``"memory"``).
    """
    if graph is None or not hasattr(graph, "csr_arrays"):
        return None
    return {
        "digest": graph.graph.get("digest"),
        "source": getattr(graph, "source", "memory"),
        "n": graph.number_of_nodes(),
    }


def _resolve_corpus_target(
    spec: ProtocolSpec, target: Any, corpus: Any
) -> Any:
    """Fold the ``corpus=`` knob into the run target, refusing misuse.

    ``corpus`` may be a :class:`~repro.corpus.graph.CSRGraph` (used
    as-is) or a corpus entry path (mmap-loaded). Every protocol that
    takes a target takes a corpus graph; :func:`_prepare_target`
    refuses any target for protocols that build their own topology.
    """
    if corpus is not None:
        if target is not None:
            raise ProtocolError(
                "run() takes target= or corpus=, not both — the corpus "
                "entry IS the graph"
            )
        if hasattr(corpus, "csr_arrays"):
            target = corpus
        else:
            from ..corpus.store import load_graph

            target = load_graph(corpus)
    return target


def _prepare_target(
    spec: ProtocolSpec,
    target: nx.Graph | RadioNetwork | None,
) -> tuple[Any, RadioNetwork | None, nx.Graph | None]:
    """Coerce the caller's graph/network into what the spec accepts.

    Returns ``(execute_target, network, graph)`` — the network is the
    one step/trace accounting reads (``None`` when the protocol builds
    its own or simulates none).
    """
    if spec.accepts == "none":
        if target is not None:
            raise ProtocolError(
                f"protocol {spec.name!r} builds its own topology; "
                f"pass target=None (its config carries the sizes)"
            )
        return None, None, None
    if target is None:
        raise ProtocolError(
            f"protocol {spec.name!r} needs a graph or RadioNetwork target"
        )
    if spec.accepts == "graph":
        graph = target.graph if isinstance(target, RadioNetwork) else target
        return graph, None, graph
    # accepts == "network"
    if isinstance(target, RadioNetwork):
        return target, target, target.graph
    network = RadioNetwork(target)
    return network, network, target


def run(
    protocol: str | ProtocolSpec,
    target: nx.Graph | RadioNetwork | None = None,
    *,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    config: Any | None = None,
    policy: ExecutionPolicy | None = None,
    measure_memory: bool = False,
    corpus: Any | None = None,
) -> RunReport:
    """Run a registered protocol and return its :class:`RunReport`.

    Parameters
    ----------
    protocol:
        Registry name (see :func:`~repro.api.registry.protocol_names`)
        or a :class:`~repro.api.registry.ProtocolSpec` directly.
    target:
        The graph to run on — an ``nx.Graph`` (a
        :class:`~repro.radio.network.RadioNetwork` is built over it)
        or a prebuilt ``RadioNetwork``. For network-accepting
        protocols the prebuilt network is used as-is, keeping its
        trace and step counter (the report accounts the delta). Graph-accepting protocols (broadcast,
        leader, partition) take only the topology: pass a network and
        its ``.graph`` is used — packet modes build their own
        internal network (which the report accounts), leaving the
        caller's untouched. Self-topology protocols (``wakeup``) take
        ``None``.
    seed, rng:
        Exactly one: an integer seed (recorded in provenance) or a
        live generator (its stream is consumed exactly as the legacy
        entry point would — bit-identical runs).
    config:
        The protocol's config object (its registered ``config_cls``);
        ``None`` runs the protocol's defaults.
    policy:
        The :class:`~repro.engine.policy.ExecutionPolicy`; ``None``
        means the default policy. The report echoes it as given.
    measure_memory:
        Trace the execution with ``tracemalloc`` and record the peak.
        Opt-in: tracing taxes allocations, so timed runs leave it off
        and measure in a second pass (the benchmarks' two-pass
        pattern).
    corpus:
        Run on a corpus graph instead of ``target`` (passing both
        refuses): a :class:`~repro.corpus.graph.CSRGraph` directly, or
        the path of a stored entry — mmap-loaded zero-copy, with the
        entry digest recorded in ``provenance["corpus"]``. Every
        protocol that takes a target consumes the CSR arrays end to
        end; ``wakeup``, which builds its own topology, refuses.

    Returns
    -------
    RunReport
        With ``result`` bit-identical to the legacy entry point on the
        same seed.
    """
    spec = get_protocol(protocol)
    if config is not None and spec.config_cls is not None:
        if not isinstance(config, spec.config_cls):
            raise ProtocolError(
                f"protocol {spec.name!r} takes config of type "
                f"{spec.config_cls.__name__}, got "
                f"{type(config).__name__}"
            )
    policy = policy or ExecutionPolicy()
    generator, seed_used = _resolve_rng(seed, rng)
    target = _resolve_corpus_target(spec, target, corpus)
    execute_target, network, graph = _prepare_target(spec, target)

    if network is not None:
        # Per-run accounting: kernel_use and phase_timing describe
        # THIS run. On a reused network they would otherwise
        # accumulate across runs (mixing kernel counts and timing
        # buckets); steps/trace are different — they are lifetime
        # counters the report deltas.
        network.kernel_use.clear()
        for key in network.phase_timing:
            network.phase_timing[key] = 0.0

    steps_before = network.steps_elapsed if network is not None else 0
    trace_before = (
        (
            network.trace.total_steps,
            network.trace.total_transmissions,
            network.trace.total_receptions,
        )
        if network is not None
        else (0, 0, 0)
    )

    def execute() -> Any:
        # The policy goes down the same entry-point path a direct
        # caller would take, so runs are bit-identical to the legacy
        # form.
        return spec.execute(execute_target, generator, config, policy)

    peak: int | None = None
    started = time.perf_counter()
    if measure_memory:
        from ..analysis.experiments import measure_peak

        out, peak = measure_peak(execute)
    else:
        out = execute()
    wall = time.perf_counter() - started
    result, run_network = out

    network = network if network is not None else run_network
    faults_prov = None
    schedule = policy.faults
    if schedule is not None and not schedule.is_empty:
        realized = (
            dict(network._fault_state.realized)
            if network is not None and network._fault_state is not None
            else {}
        )
        faults_prov = {
            "digest": schedule.digest(),
            "events": schedule.event_counts(),
            "realized": realized,
        }
    # Delivery provenance: rows per kernel counter (``coo-spmm``,
    # ``skip-empty``) — what the window product actually executed.
    delivery_prov: dict[str, Any] = (
        {"kernel_use": dict(network.kernel_use)}
        if network is not None
        else {}
    )
    if network is not None:
        steps = network.steps_elapsed - steps_before
        trace = {
            "steps": network.trace.total_steps - trace_before[0],
            "transmissions": (
                network.trace.total_transmissions - trace_before[1]
            ),
            "receptions": (
                network.trace.total_receptions - trace_before[2]
            ),
        }
    else:
        steps = int(getattr(result, "steps", 0) or 0)
        trace = {"steps": steps, "transmissions": 0, "receptions": 0}

    import repro

    return RunReport(
        protocol=spec.name,
        result=result,
        steps=steps,
        trace=trace,
        wall_time_s=wall,
        peak_mem_bytes=peak,
        policy=policy,
        provenance={
            "seed": seed_used,
            "graph": _graph_facts(graph, network),
            "corpus": _corpus_facts(graph),
            "faults": faults_prov,
            "delivery": delivery_prov,
            "stream": STREAM_VERSION,
            "timing": (
                {
                    k: round(v, 6)
                    for k, v in network.phase_timing.items()
                }
                if network is not None
                else None
            ),
            "version": getattr(repro, "__version__", "unknown"),
        },
    )


__all__ = ["run"]
