"""Registered protocol specs: every runnable protocol, declared here.

Importing this module (which ``import repro.api`` does) populates the
registry with one :class:`~repro.api.registry.ProtocolSpec` per
protocol — packet-level algorithms (``mis``, ``decay``, ``eed``,
``icp``, ``bgi``, ``wakeup``), the round-accounted pipelines
(``broadcast``, ``leader``, both with packet variants behind a config
flag), and the clustering draw (``partition``). Each spec names the
schedule emitters it owns (the inventory contract pinned by
``tests/test_schedule_contract.py``) and the CLI metadata its
subcommand is generated from.

Execute hooks delegate to the protocols' own entry points with the
policy threaded through — :func:`repro.api.run` is accounting around
the very same code path a direct caller takes, which is what makes
front-door runs bit-identical to legacy calls on a shared seed.

Config dataclasses defined here (``DecayConfig`` and friends) exist
for protocols whose legacy entry points took loose arguments; they are
thin, explicit records — not behavior.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..baselines.bgi_broadcast import bgi_broadcast
from ..core.broadcast import broadcast
from ..core.compete import CompeteConfig
from ..core.compete_packet import (
    PacketCompeteConfig,
    PacketCompeteResult,
    broadcast_packet,
)
from ..core.decay import run_decay
from ..core.effective_degree import estimate_effective_degree
from ..core.intra_cluster import build_icp_inputs, intra_cluster_propagation
from ..core.leader_election import (
    PacketLeaderResult,
    elect_leader,
    elect_leader_packet,
)
from ..baselines.leader_uptime import uptime_threshold_election
from ..core.mis import MISConfig, compute_mis
from ..core.mis_restart import RestartableMISConfig, compute_restartable_mis
from ..core.mpx import partition, partition_reference
from ..core.wakeup import mis_as_wakeup_strategy
from ..graphs.independence import (
    greedy_independent_set,
    is_maximal_independent_set,
)
from ..graphs.properties import diameter
from ..radio.errors import ProtocolError
from ..radio.network import RadioNetwork
from .registry import CLISpec, register_protocol

# ---------------------------------------------------------------------------
# Config records for protocols whose entry points took loose arguments.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DecayConfig:
    """One Decay block: who participates, for how many iterations.

    ``active`` of ``None`` means every node participates (the sensible
    front-door default; pass an explicit boolean mask to reproduce a
    protocol-internal block).
    """

    active: np.ndarray | None = None
    iterations: int = 1
    n_estimate: int | None = None


@dataclasses.dataclass(frozen=True)
class EEDConfig:
    """One EstimateEffectiveDegree block (Algorithm 6).

    ``p`` is the desire-level vector, or a scalar broadcast to every
    node (default 0.5 — the fresh-MIS level); ``active`` of ``None``
    means all nodes.
    """

    p: float | np.ndarray = 0.5
    active: np.ndarray | None = None
    C: int = 24
    n_estimate: int | None = None


@dataclasses.dataclass(frozen=True)
class ICPConfig:
    """One standalone Intra-Cluster Propagation phase (Algorithms 9-10).

    The standard setup pipeline of
    :func:`~repro.core.intra_cluster.build_icp_inputs` runs first —
    greedy-MIS centers, one ``Partition(beta, MIS)`` draw, its slot
    schedule, knowledge seeded from ``sources`` (node -> message key).
    """

    beta: float = 0.25
    ell: int = 4
    sources: dict[int, int] = dataclasses.field(
        default_factory=lambda: {0: 1}
    )
    with_background: bool = True


@dataclasses.dataclass(frozen=True)
class BroadcastConfig:
    """Broadcast via Compete (Theorem 7), either fidelity level.

    ``packet=False`` (default) runs the round-accounted pipeline;
    ``packet=True`` simulates every radio step through packet Compete.
    ``baseline`` switches the round-accounted pipeline to the [7]
    all-nodes-centers baseline (packet mode has no such knob and
    refuses the combination).
    """

    source: int = 0
    packet: bool = False
    baseline: bool = False
    compete: CompeteConfig | None = None
    packet_compete: PacketCompeteConfig | None = None
    alpha: int | None = None


@dataclasses.dataclass(frozen=True)
class LeaderConfig:
    """Leader election (Algorithm 3), either fidelity level."""

    packet: bool = False
    c_cand: float = 1.0
    compete: CompeteConfig | None = None
    packet_compete: PacketCompeteConfig | None = None
    alpha: int | None = None


@dataclasses.dataclass(frozen=True)
class PartitionConfig:
    """One ``Partition(beta, MIS)`` clustering draw over greedy centers."""

    beta: float = 0.25


@dataclasses.dataclass(frozen=True)
class BGIConfig:
    """The Bar-Yehuda–Goldreich–Itai Decay-broadcast baseline."""

    source: int = 0
    sources: list[int] | None = None
    max_sweeps: int | None = None


@dataclasses.dataclass(frozen=True)
class UptimeLeaderConfig:
    """Uptime-threshold leader election (robustness variant).

    ``threshold`` is the minimum uptime fraction a node needs to stand
    as a candidate; ``horizon`` is the step horizon the fraction is
    measured over (defaults to the fault schedule's declared horizon,
    else ``64 ceil(log2 n)``).
    """

    threshold: float = 0.5
    horizon: int | None = None
    id_bits: int | None = None
    flood_sweeps: int | None = None


@dataclasses.dataclass(frozen=True)
class WakeupConfig:
    """The MIS-as-wake-up reduction: ``k`` active nodes in a clique,
    with the algorithm believing the network has ``n`` nodes."""

    n: int = 1024
    k: int = 32


# ---------------------------------------------------------------------------
# Shared CLI helpers.
# ---------------------------------------------------------------------------


def _refuse_inert_faults(name: str, policy: Any, fix: str) -> None:
    """Refuse a non-empty fault schedule a path cannot realize.

    Faults are a semantics knob: silently running fault-free where the
    caller asked for crashes/jamming would misreport robustness, so
    paths that simulate no (or their own) radio steps refuse by name.
    An *empty* schedule passes — it is bit-identical to none.
    """
    schedule = policy.faults
    if schedule is not None and not schedule.is_empty:
        raise ProtocolError(
            f"{name} cannot realize a FaultSchedule "
            f"(digest {schedule.digest()}): {fix}"
        )


def _refuse_inert_accounted_knobs(name: str, policy: Any) -> None:
    """Round-accounted pipelines refuse knobs they cannot honor.

    The non-packet paths charge rounds analytically — no radio steps
    execute, so an explicit engine variant, ``validate=True``, or a
    non-empty fault schedule would be silently inert; refusing names
    the fix (``packet=True``).
    """
    if policy.engine == "reference" or policy.validate:
        raise ProtocolError(
            f"round-accounted {name} simulates no radio steps, so "
            f"engine={policy.engine!r}/validate={policy.validate} "
            f"cannot take effect; run the packet-level pipeline "
            f"instead (packet=True in the config, --packet on the CLI)"
        )
    _refuse_inert_faults(
        f"round-accounted {name}",
        policy,
        "no radio steps are simulated, so crashes/jamming cannot be "
        "injected; run the packet-level pipeline instead (packet=True "
        "in the config, --packet on the CLI)",
    )


# ---------------------------------------------------------------------------
# Packet-level protocols.
# ---------------------------------------------------------------------------


@register_protocol(
    name="mis",
    title="Radio MIS (Algorithm 7, Theorem 14)",
    config_cls=MISConfig,
    emitters=("mis_schedule",),
    accepts="network",
    cli=CLISpec(
        help="run Radio MIS (Algorithm 7)",
        add_arguments=lambda p: (
            p.add_argument(
                "--oracle-degree",
                action="store_true",
                help="skip EstimateEffectiveDegree (documented speed knob)",
            ),
            p.add_argument(
                "--eed-c", type=int, default=8, help="Algorithm 6's C"
            ),
        ),
        config_from_args=lambda a: MISConfig(
            oracle_degree=a.oracle_degree, eed_C=a.eed_c
        ),
        report_fields=lambda report, graph, config: {
            "mis_size": report.result.size,
            "rounds": report.result.rounds_used,
            "radio_steps": report.result.steps_used,
            "valid": is_maximal_independent_set(graph, report.result.mis),
        },
        exit_code=lambda report, fields: 0 if fields["valid"] else 1,
    ),
)
def _execute_mis(network, rng, config, policy):
    """Registry hook for Radio MIS."""
    return compute_mis(network, rng, config, policy=policy), network


@register_protocol(
    name="mis_restart",
    title="Restartable Radio MIS (robustness variant, epoch restarts)",
    config_cls=RestartableMISConfig,
    emitters=("restartable_mis_schedule",),
    accepts="network",
    cli=CLISpec(
        help="restartable Radio MIS (re-admits woken nodes per epoch)",
        add_arguments=lambda p: (
            p.add_argument(
                "--epochs",
                type=int,
                default=3,
                help="restart epochs (each re-admits awake undecided nodes)",
            ),
            p.add_argument(
                "--eed-c", type=int, default=8, help="Algorithm 6's C"
            ),
        ),
        config_from_args=lambda a: RestartableMISConfig(
            epochs=a.epochs, eed_C=a.eed_c
        ),
        report_fields=lambda report, graph, config: {
            "mis_size": report.result.size,
            "epochs": report.result.epochs_used,
            "rounds": report.result.rounds_used,
            "readmitted": report.result.readmitted,
            "radio_steps": report.result.steps_used,
            "conflict_edges": report.result.conflict_edges,
            "dominated_fraction": round(
                report.result.dominated_fraction, 4
            ),
        },
        exit_code=lambda report, fields: 0
        if fields["conflict_edges"] == 0
        else 1,
    ),
)
def _execute_mis_restart(network, rng, config, policy):
    """Registry hook for restartable Radio MIS."""
    result = compute_restartable_mis(network, rng, config, policy=policy)
    return result, network


@register_protocol(
    name="decay",
    title="One Decay block (Algorithm 5 / Claim 10)",
    config_cls=DecayConfig,
    emitters=("decay_block",),
    accepts="network",
    cli=CLISpec(
        help="one Decay block over an active set",
        add_arguments=lambda p: (
            p.add_argument(
                "--iterations",
                type=int,
                default=4,
                help="Decay sweeps in the block",
            ),
        ),
        config_from_args=lambda a: DecayConfig(iterations=a.iterations),
        report_fields=lambda report, graph, config: {
            "radio_steps": report.steps,
            "heard_fraction": round(
                float(report.result.heard.mean()), 4
            ),
        },
    ),
)
def _execute_decay(network, rng, config, policy):
    """Registry hook for one Decay block."""
    config = config or DecayConfig()
    active = (
        np.ones(network.n, dtype=bool)
        if config.active is None
        else np.asarray(config.active, dtype=bool)
    )
    result = run_decay(
        network,
        active,
        rng,
        iterations=config.iterations,
        n_estimate=config.n_estimate,
        policy=policy,
    )
    return result, network


@register_protocol(
    name="eed",
    title="EstimateEffectiveDegree (Algorithm 6, Lemma 11)",
    config_cls=EEDConfig,
    emitters=("effective_degree_schedule",),
    accepts="network",
    cli=CLISpec(
        help="one EstimateEffectiveDegree block",
        add_arguments=lambda p: (
            p.add_argument(
                "--desire",
                type=float,
                default=0.5,
                help="uniform desire level p",
            ),
            p.add_argument(
                "--eed-c", type=int, default=8, help="Algorithm 6's C"
            ),
        ),
        config_from_args=lambda a: EEDConfig(p=a.desire, C=a.eed_c),
        report_fields=lambda report, graph, config: {
            "radio_steps": report.steps,
            "high_count": int(report.result.high.sum()),
            "steps_per_level": report.result.steps_per_level,
        },
    ),
)
def _execute_eed(network, rng, config, policy):
    """Registry hook for one EstimateEffectiveDegree block."""
    config = config or EEDConfig()
    p = np.asarray(config.p, dtype=np.float64)
    if p.ndim == 0:
        p = np.full(network.n, float(p))
    active = (
        np.ones(network.n, dtype=bool)
        if config.active is None
        else np.asarray(config.active, dtype=bool)
    )
    result = estimate_effective_degree(
        network,
        p,
        active,
        rng,
        C=config.C,
        n_estimate=config.n_estimate,
        policy=policy,
    )
    return result, network


@register_protocol(
    name="icp",
    title="Intra-Cluster Propagation phase (Algorithms 9-10)",
    config_cls=ICPConfig,
    emitters=(),
    accepts="network",
    cli=CLISpec(
        help="one Intra-Cluster Propagation phase (Algorithms 9-10)",
        add_arguments=lambda p: (
            p.add_argument(
                "--source", type=int, default=0, help="informed node"
            ),
            p.add_argument(
                "--beta", type=float, default=0.25, help="shift rate"
            ),
            p.add_argument(
                "--ell", type=int, default=4, help="propagation distance"
            ),
            p.add_argument(
                "--no-background",
                action="store_true",
                help="drop the Algorithm 10 Decay background process",
            ),
        ),
        config_from_args=lambda a: ICPConfig(
            beta=a.beta,
            ell=a.ell,
            sources={a.source: 1},
            with_background=not a.no_background,
        ),
        report_fields=lambda report, graph, config: {
            "ell": (config or ICPConfig()).ell,
            "radio_steps": report.result.steps,
            "informed": int((report.result.knowledge >= 0).sum()),
        },
        exit_code=lambda report, fields: 0
        if fields["informed"] > 1 or fields.get("n") == 1
        else 1,
        relabel=True,
    ),
)
def _execute_icp(network, rng, config, policy):
    """Registry hook for one standalone ICP phase.

    Runs the standard setup pipeline (greedy-MIS centers, one
    partition draw, the slot schedule) on the same rng, exactly as the
    CLI and the P3 benchmark always did — so front-door runs are
    bit-identical to that legacy sequence.
    """
    config = config or ICPConfig()
    clustering, schedule, knowledge = build_icp_inputs(
        network.graph, rng, beta=config.beta, sources=config.sources
    )
    result = intra_cluster_propagation(
        network,
        clustering,
        schedule,
        knowledge,
        config.ell,
        rng,
        with_background=config.with_background,
        policy=policy,
    )
    return result, network


@register_protocol(
    name="bgi",
    title="BGI Decay broadcast baseline (packet level)",
    config_cls=BGIConfig,
    emitters=("bgi_schedule",),
    accepts="network",
    cli=CLISpec(
        help="BGI Decay-broadcast baseline, every step simulated",
        add_arguments=lambda p: (
            p.add_argument(
                "--source", type=int, default=0, help="source node"
            ),
        ),
        config_from_args=lambda a: BGIConfig(source=a.source),
        report_fields=lambda report, graph, config: {
            "delivered": report.result.delivered,
            "radio_steps": report.result.steps,
            "sweeps": report.result.sweeps,
        },
        exit_code=lambda report, fields: 0
        if report.result.delivered
        else 1,
        relabel=True,
    ),
)
def _execute_bgi(network, rng, config, policy):
    """Registry hook for the BGI broadcast baseline."""
    config = config or BGIConfig()
    result = bgi_broadcast(
        network,
        config.source,
        rng,
        sources=config.sources,
        max_sweeps=config.max_sweeps,
        policy=policy,
    )
    return result, network


@register_protocol(
    name="wakeup",
    title="MIS-as-wake-up reduction (Section 1.5.1)",
    config_cls=WakeupConfig,
    emitters=("_wakeup_mis_schedule",),
    accepts="none",
    cli=CLISpec(
        help="MIS-as-wake-up reduction on a k-clique",
        add_arguments=lambda p: (
            p.add_argument(
                "--believed-n",
                type=int,
                default=1024,
                help="network size the algorithm is told",
            ),
            p.add_argument(
                "--k", type=int, default=32, help="active clique size"
            ),
        ),
        config_from_args=lambda a: WakeupConfig(n=a.believed_n, k=a.k),
        report_fields=lambda report, graph, config: {
            "succeeded": report.result.succeeded,
            "radio_steps": report.result.steps,
            "k": report.result.k,
        },
        exit_code=lambda report, fields: 0
        if report.result.succeeded
        else 1,
    ),
)
def _execute_wakeup(target, rng, config, policy):
    """Registry hook for the wake-up reduction (builds its own clique)."""
    config = config or WakeupConfig()
    result = mis_as_wakeup_strategy(config.n, config.k, rng, policy=policy)
    return result, None


# ---------------------------------------------------------------------------
# Pipelines (round-accounted, with packet variants behind a flag).
# ---------------------------------------------------------------------------


@register_protocol(
    name="broadcast",
    title="Broadcast via Compete (Theorem 7)",
    config_cls=BroadcastConfig,
    emitters=(),
    accepts="graph",
    cli=CLISpec(
        help="broadcast via Compete (Thm 7)",
        add_arguments=lambda p: (
            p.add_argument(
                "--source", type=int, default=0, help="source node"
            ),
            p.add_argument(
                "--baseline",
                action="store_true",
                help="use the [7] all-nodes-centers baseline instead",
            ),
            p.add_argument(
                "--packet",
                action="store_true",
                help="simulate every radio step on the windowed engine",
            ),
        ),
        config_from_args=lambda a: BroadcastConfig(
            source=a.source, packet=a.packet, baseline=a.baseline
        ),
        report_fields=lambda report, graph, config: (
            {
                "D": diameter(graph),
                "mode": "packet (windowed engine)",
                "delivered": report.result.delivered,
                "radio_steps": report.result.steps,
                "phases": report.result.phases,
                "stage_steps": report.result.stage_steps,
            }
            if isinstance(report.result, PacketCompeteResult)
            else {
                "D": diameter(graph),
                "mode": "all"
                if (config or BroadcastConfig()).baseline
                else "mis",
                "delivered": report.result.delivered,
                "total_rounds": report.result.total_rounds,
                "setup_rounds": report.result.setup_rounds,
                "propagation_rounds": report.result.propagation_rounds,
            }
        ),
        exit_code=lambda report, fields: 0
        if report.result.delivered
        else 1,
    ),
)
def _execute_broadcast(graph, rng, config, policy):
    """Registry hook for broadcast (both fidelity levels)."""
    config = config or BroadcastConfig()
    if config.packet:
        if config.baseline:
            raise ProtocolError(
                "--baseline applies to the round-accounted pipeline "
                "only; the packet level has no [7] baseline mode"
            )
        network = RadioNetwork(graph)
        result = broadcast_packet(
            network,
            config.source,
            rng,
            config=config.packet_compete,
            policy=policy,
        )
        return result, network
    _refuse_inert_accounted_knobs("broadcast", policy)
    compete_config = config.compete or CompeteConfig(
        centers_mode="all" if config.baseline else "mis"
    )
    result = broadcast(
        graph, config.source, rng, config=compete_config, alpha=config.alpha
    )
    return result, None


@register_protocol(
    name="leader",
    title="Leader election (Algorithm 3, Theorem 8)",
    config_cls=LeaderConfig,
    emitters=(),
    accepts="graph",
    cli=CLISpec(
        help="leader election (Algorithm 3)",
        add_arguments=lambda p: (
            p.add_argument(
                "--packet",
                action="store_true",
                help="simulate every radio step on the windowed engine",
            ),
        ),
        config_from_args=lambda a: LeaderConfig(packet=a.packet),
        report_fields=lambda report, graph, config: (
            {
                "mode": "packet (windowed engine)",
                "elected": report.result.elected,
                "leader": report.result.leader,
                "candidates": len(report.result.candidates),
                "radio_steps": report.result.steps,
            }
            if isinstance(report.result, PacketLeaderResult)
            else {
                "elected": report.result.elected,
                "leader": report.result.leader,
                "candidates": len(report.result.candidates),
                "total_rounds": report.result.total_rounds,
            }
        ),
        exit_code=lambda report, fields: 0
        if report.result.elected
        else 1,
    ),
)
def _execute_leader(graph, rng, config, policy):
    """Registry hook for leader election (both fidelity levels)."""
    config = config or LeaderConfig()
    if config.packet:
        network = RadioNetwork(graph)
        result = elect_leader_packet(
            network,
            rng,
            config=config.packet_compete,
            alpha=config.alpha,
            c_cand=config.c_cand,
            policy=policy,
        )
        return result, network
    _refuse_inert_accounted_knobs("leader election", policy)
    result = elect_leader(
        graph,
        rng,
        config=config.compete,
        alpha=config.alpha,
        c_cand=config.c_cand,
    )
    return result, None


@register_protocol(
    name="leader_uptime",
    title="Uptime-threshold leader election (robustness variant)",
    config_cls=UptimeLeaderConfig,
    emitters=(),
    accepts="network",
    cli=CLISpec(
        help="elect the highest-ID node whose uptime clears a threshold",
        add_arguments=lambda p: (
            p.add_argument(
                "--threshold",
                type=float,
                default=0.5,
                help="minimum uptime fraction to stand as candidate",
            ),
            p.add_argument(
                "--horizon",
                type=int,
                default=None,
                help="step horizon uptime is measured over",
            ),
        ),
        config_from_args=lambda a: UptimeLeaderConfig(
            threshold=a.threshold, horizon=a.horizon
        ),
        report_fields=lambda report, graph, config: {
            "elected": report.result.elected,
            "leader": report.result.leader,
            "candidates": report.result.candidates,
            "phases": report.result.phases,
            "radio_steps": report.result.steps,
        },
        exit_code=lambda report, fields: 0
        if report.result.elected
        else 1,
        relabel=True,
    ),
)
def _execute_leader_uptime(network, rng, config, policy):
    """Registry hook for uptime-threshold leader election."""
    config = config or UptimeLeaderConfig()
    result = uptime_threshold_election(
        network,
        rng,
        threshold=config.threshold,
        horizon=config.horizon,
        id_bits=config.id_bits,
        flood_sweeps=config.flood_sweeps,
        policy=policy,
    )
    return result, network


# ---------------------------------------------------------------------------
# Clustering.
# ---------------------------------------------------------------------------


@register_protocol(
    name="partition",
    title="Partition(beta, MIS) clustering draw (Theorem 2)",
    config_cls=PartitionConfig,
    emitters=(),
    accepts="graph",
    cli=CLISpec(
        help="one Partition(beta, MIS) clustering draw",
        add_arguments=lambda p: (
            p.add_argument(
                "--beta", type=float, default=0.25, help="shift rate"
            ),
        ),
        config_from_args=lambda a: PartitionConfig(beta=a.beta),
        report_fields=lambda report, graph, config: {
            "beta": (config or PartitionConfig()).beta,
            "centers": len(report.result.centers),
            "clusters_used": len(report.result.used_centers()),
            "max_radius": report.result.max_radius(),
            "mean_distance": round(report.result.mean_distance(), 3),
        },
    ),
)
def _execute_partition(graph, rng, config, policy):
    """Registry hook for one clustering draw over greedy-MIS centers.

    The policy's ``"reference"`` engine selects the heap-based
    multi-source Dijkstra specification; ``"windowed"`` (the default)
    the CSR frontier engine — bit-identical assignments under shared
    shifts.
    """
    config = config or PartitionConfig()
    if policy.validate:
        raise ProtocolError(
            "partition runs no radio windows, so validate=True cannot "
            "take effect; the contract checker applies to packet-level "
            "protocols"
        )
    _refuse_inert_faults(
        "partition",
        policy,
        "the clustering draw simulates no radio steps; inject faults "
        "into a packet-level protocol instead",
    )
    mis = sorted(greedy_independent_set(graph, rng, strategy="random"))
    if policy.engine == "reference":
        clustering = partition_reference(graph, config.beta, mis, rng)
    else:
        clustering = partition(graph, config.beta, mis, rng)
    return clustering, None


__all__ = [
    "BGIConfig",
    "BroadcastConfig",
    "DecayConfig",
    "EEDConfig",
    "ICPConfig",
    "LeaderConfig",
    "PartitionConfig",
    "UptimeLeaderConfig",
    "WakeupConfig",
]
