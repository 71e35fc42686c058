"""The paper's algorithms (Sections 2-4).

Packet-level primitives (Decay, EstimateEffectiveDegree, Radio MIS,
radio Partition, Intra-Cluster Propagation) and the round-accounted
Compete pipeline with broadcasting and leader election on top.
"""

from .broadcast import BroadcastResult, broadcast, broadcast_packet_level
from .cluster import Clustering
from .cluster_stats import (
    BadJReport,
    b_beta,
    b_constant,
    bad_j_report,
    center_distance_histogram,
    expected_distance_bound,
    is_bad_j,
    lemma4_bound,
    prefix_counts,
    s_beta,
    t_beta,
)
from .compete import (
    CompeteConfig,
    CompeteResult,
    PhaseRecord,
    compete,
)
from .compete_packet import (
    PacketCompeteConfig,
    PacketCompeteResult,
    broadcast_packet,
    compete_packet,
)
from .costmodel import CostModel, propagation_length, total_bound
from .decay import (
    Decay,
    DecayResult,
    claim10_iterations,
    decay_span,
    run_decay,
    run_decay_reference,
)
from .effective_degree import (
    EffectiveDegreeResult,
    EstimateEffectiveDegree,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    exact_effective_degree,
)
from .intra_cluster import (
    DecayBackground,
    ICPProtocol,
    ICPResult,
    build_icp_inputs,
    intra_cluster_propagation,
)
from .leader_election import (
    LeaderElectionResult,
    PacketLeaderResult,
    candidate_probability,
    elect_leader,
    elect_leader_packet,
    id_bits,
)
from .mis import (
    MISConfig,
    MISResult,
    MISRoundRecord,
    compute_mis,
    compute_mis_reference,
    mis_round_budget,
)
from .mis_restart import (
    RestartableMISConfig,
    RestartableMISResult,
    RestartEpochRecord,
    compute_restartable_mis,
    restartable_mis_reference,
)
from .mpx import (
    beta_of_j,
    coarse_beta,
    draw_shifts,
    j_range,
    partition,
    partition_csr,
    partition_reference,
)
from .partition_radio import partition_radio
from .schedule import (
    ClusterSchedule,
    build_schedule,
    build_schedule_reference,
)
from .wakeup import (
    WakeupResult,
    decay_schedule,
    expected_steps,
    mis_as_wakeup_strategy,
    mis_as_wakeup_strategy_reference,
    run_wakeup,
    uniform_schedule,
)

__all__ = [
    "BadJReport",
    "BroadcastResult",
    "Clustering",
    "ClusterSchedule",
    "CompeteConfig",
    "CompeteResult",
    "CostModel",
    "Decay",
    "DecayBackground",
    "DecayResult",
    "EffectiveDegreeResult",
    "EstimateEffectiveDegree",
    "ICPProtocol",
    "ICPResult",
    "LeaderElectionResult",
    "MISConfig",
    "MISResult",
    "MISRoundRecord",
    "PacketCompeteConfig",
    "PacketCompeteResult",
    "PacketLeaderResult",
    "PhaseRecord",
    "RestartEpochRecord",
    "RestartableMISConfig",
    "RestartableMISResult",
    "WakeupResult",
    "b_beta",
    "b_constant",
    "bad_j_report",
    "beta_of_j",
    "broadcast",
    "broadcast_packet",
    "broadcast_packet_level",
    "build_schedule",
    "build_schedule_reference",
    "candidate_probability",
    "center_distance_histogram",
    "claim10_iterations",
    "coarse_beta",
    "compete",
    "compete_packet",
    "compute_mis",
    "compute_mis_reference",
    "compute_restartable_mis",
    "build_icp_inputs",
    "decay_schedule",
    "decay_span",
    "draw_shifts",
    "elect_leader",
    "elect_leader_packet",
    "expected_steps",
    "estimate_effective_degree",
    "estimate_effective_degree_reference",
    "exact_effective_degree",
    "expected_distance_bound",
    "id_bits",
    "intra_cluster_propagation",
    "is_bad_j",
    "j_range",
    "lemma4_bound",
    "mis_as_wakeup_strategy",
    "mis_as_wakeup_strategy_reference",
    "mis_round_budget",
    "partition",
    "partition_csr",
    "partition_radio",
    "partition_reference",
    "prefix_counts",
    "propagation_length",
    "restartable_mis_reference",
    "run_decay",
    "run_decay_reference",
    "run_wakeup",
    "s_beta",
    "t_beta",
    "total_bound",
    "uniform_schedule",
]
