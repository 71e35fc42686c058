"""repro — reproduction of Davies, "Uniting General-Graph and
Geometric-Based Radio Networks via Independence Number Parametrization"
(PODC 2023, arXiv:2303.16832).

Public API layout:

* :mod:`repro.api` — **the front door**: the protocol registry,
  :class:`~repro.engine.policy.ExecutionPolicy`, and
  :func:`repro.api.run` returning structured
  :class:`~repro.api.report.RunReport` records;
* :mod:`repro.radio` — the radio network model (simulator substrate);
* :mod:`repro.graphs` — graph classes of Section 1.3 + properties;
* :mod:`repro.corpus` — graph corpus at scale: array-native CSR
  generation, the mmap-loaded on-disk store, shared-memory workers;
* :mod:`repro.core` — the paper's algorithms: Decay,
  EstimateEffectiveDegree, Radio MIS (Theorem 14), Partition(beta, MIS),
  Compete, broadcast (Theorem 7), leader election (Theorem 8);
* :mod:`repro.baselines` — prior-work comparators;
* :mod:`repro.analysis` — experiment harness helpers.

Quickstart::

    import numpy as np
    import repro.api as api
    from repro import graphs

    g = graphs.random_udg(n=150, side=6.0, rng=np.random.default_rng(7))
    mis = api.run("mis", g, seed=7)
    print(mis.result.size, "MIS nodes in", mis.steps, "radio steps")
    bc = api.run("broadcast", g, seed=7)
    print("broadcast rounds:", bc.result.total_rounds)
"""

from . import analysis, api, baselines, core, corpus, engine, graphs, radio
from .core import (
    BroadcastResult,
    CompeteConfig,
    CompeteResult,
    LeaderElectionResult,
    MISConfig,
    MISResult,
    broadcast,
    compete,
    compute_mis,
    elect_leader,
    partition,
)
from .graphs import (
    random_geometric_radio,
    random_qudg,
    random_udg,
    random_unit_ball_graph,
)
from .radio import RadioNetwork

__version__ = "1.0.0"

__all__ = [
    "BroadcastResult",
    "CompeteConfig",
    "CompeteResult",
    "LeaderElectionResult",
    "MISConfig",
    "MISResult",
    "RadioNetwork",
    "analysis",
    "api",
    "baselines",
    "broadcast",
    "compete",
    "compute_mis",
    "core",
    "corpus",
    "elect_leader",
    "engine",
    "graphs",
    "partition",
    "radio",
    "random_geometric_radio",
    "random_qudg",
    "random_udg",
    "random_unit_ball_graph",
]
