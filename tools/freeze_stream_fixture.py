#!/usr/bin/env python
"""Freeze the random stream's output distribution into a fixture.

Two fixtures, each recording per seed what the distribution tests in
``tests/test_stream_distribution.py`` compare:

* ``v1`` runs Radio MIS and EstimateEffectiveDegree over a fixed seed
  range on two fixed graphs: MIS size, radio steps and
  ``all_removed``, plus EED's High fraction and per-level hear-count
  totals;
* ``v2`` runs the protocols whose rows were coin blocks under stream
  version 2: BGI broadcast's radio steps (a connected UDG and the star
  of cliques), the informed count of one ICP phase with its Decay
  background (the UDG; clustering and schedule fixed by one setup
  seed, only the ICP seed varies), and the MIS-as-wake-up reduction's
  steps and success.

Only public entry points are used, so the same script runs against any
checkout of the package; run it on the code whose stream you want to
freeze::

    PYTHONPATH=src python tools/freeze_stream_fixture.py \\
        --out tests/fixtures/stream_v1.json
    PYTHONPATH=src python tools/freeze_stream_fixture.py --fixture v2 \\
        --out tests/fixtures/stream_v2.json

The graphs, seeds and configs are module constants shared with the
test, which imports them from here.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Any

import numpy as np

#: Seeds ``0 .. SEEDS - 1`` are frozen.
SEEDS = 200

#: MIS constants: cheaper than the defaults (fewer Decay sweeps, a
#: shorter EED ladder, a round budget some runs exhaust) so 2 x SEEDS
#: runs stay fast in tier-1, while every stage of Algorithm 7 still
#: runs and ``all_removed`` takes both values.
MIS_CONFIG = {
    "decay_amplification": 0.5,
    "eed_C": 1,
    "round_factor": 3.0,
    "record_golden": False,
}

#: EED's C for the standalone block.
EED_C = 3

#: The v2 fixture's ICP phase: setup (greedy-MIS centers, one
#: partition draw, the slot schedule) from ``setup_seed``, then one
#: phase with its Decay background per seed.
ICP = {"beta": 0.25, "ell": 4, "source": 0, "setup_seed": 2024}

#: The v2 fixture's wake-up reduction: ``k`` active clique nodes, the
#: algorithm told the network has ``n``.
WAKEUP = {"n": 1024, "k": 33}


def fixture_graphs(connected: bool = False) -> dict[str, Any]:
    """The two fixed graphs: a seeded sparse UDG and a hard instance.

    ``connected`` redraws the UDG until it is connected (the v2
    fixture's, since BGI refuses disconnected graphs); the v1 UDG is
    the first draw.
    """
    from repro.corpus import random_udg_csr
    from repro.graphs import hard_instances

    n = 300
    return {
        "udg-300": random_udg_csr(
            n,
            math.sqrt(n * math.pi / 9.0),
            np.random.default_rng(2024),
            connected=connected,
        ),
        "star-of-cliques-8x12": hard_instances.star_of_cliques(8, 12),
    }


def eed_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Desire levels and active set of the EED block: a power-of-two
    level, two levels that are not powers of two, and a zero level,
    over all nodes but every seventh."""
    p = np.array([0.0625, 0.04, 0.1, 0.0])[np.arange(n) % 4]
    active = np.arange(n) % 7 != 0
    return p, active


def record(graph: Any, seed: int) -> dict[str, Any]:
    """One seed's statistics on one graph."""
    from repro.core import MISConfig, compute_mis, estimate_effective_degree
    from repro.radio import RadioNetwork

    mis = compute_mis(
        RadioNetwork(graph),
        np.random.default_rng(seed),
        MISConfig(**MIS_CONFIG),
    )
    p, active = eed_inputs(graph.number_of_nodes())
    eed = estimate_effective_degree(
        RadioNetwork(graph),
        p,
        active,
        np.random.default_rng(seed),
        C=EED_C,
    )
    return {
        "mis_size": int(mis.size),
        "steps": int(mis.steps_used),
        "all_removed": bool(mis.all_removed),
        "eed_high_fraction": float(eed.high[active].mean()),
        "eed_level_counts": [int(c) for c in eed.counts.sum(axis=1)],
    }


def freeze(seeds: int = SEEDS) -> dict[str, Any]:
    """The v1 fixture: Radio MIS and EED, per graph and seed."""
    return {
        "seeds": seeds,
        "mis_config": MIS_CONFIG,
        "eed_C": EED_C,
        "graphs": {
            name: [record(graph, seed) for seed in range(seeds)]
            for name, graph in fixture_graphs().items()
        },
    }


def freeze_v2(seeds: int = SEEDS) -> dict[str, Any]:
    """The v2 fixture: BGI, ICP with its background, and the wake-up
    reduction, per run and seed."""
    from repro.baselines import bgi_broadcast
    from repro.core import (
        build_icp_inputs,
        intra_cluster_propagation,
        mis_as_wakeup_strategy,
    )
    from repro.radio import RadioNetwork

    graphs = fixture_graphs(connected=True)
    runs: dict[str, list[dict[str, Any]]] = {}
    for name, graph in graphs.items():
        runs[f"bgi/{name}"] = [
            {
                "steps": int(
                    bgi_broadcast(
                        RadioNetwork(graph), 0, np.random.default_rng(seed)
                    ).steps
                )
            }
            for seed in range(seeds)
        ]
    udg = graphs["udg-300"]
    clustering, schedule, knowledge = build_icp_inputs(
        udg,
        np.random.default_rng(ICP["setup_seed"]),
        beta=ICP["beta"],
        sources={ICP["source"]: 1},
    )
    runs["icp/udg-300"] = [
        {
            "informed": int(
                (
                    intra_cluster_propagation(
                        RadioNetwork(udg),
                        clustering,
                        schedule,
                        knowledge,
                        ICP["ell"],
                        np.random.default_rng(seed),
                    ).knowledge
                    >= 0
                ).sum()
            )
        }
        for seed in range(seeds)
    ]
    runs["wakeup/{n}x{k}".format(**WAKEUP)] = [
        {"steps": int(r.steps), "succeeded": bool(r.succeeded)}
        for r in (
            mis_as_wakeup_strategy(
                WAKEUP["n"], WAKEUP["k"], np.random.default_rng(seed)
            )
            for seed in range(seeds)
        )
    ]
    return {"seeds": seeds, "icp": ICP, "wakeup": WAKEUP, "runs": runs}


#: Each fixture's freeze function and the key holding its records.
FIXTURES = {"v1": (freeze, "graphs"), "v2": (freeze_v2, "runs")}


def dumps(doc: dict[str, Any], records: str = "graphs") -> str:
    """The fixture as JSON text, one seed record per line; ``records``
    names the key holding the per-seed record lists."""
    body = ",\n".join(
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"   {json.dumps(r, sort_keys=True)}" for r in rows)
        + "\n  ]"
        for name, rows in sorted(doc[records].items())
    )
    head = {k: v for k, v in doc.items() if k != records}
    return (
        json.dumps(head, sort_keys=True)[:-1]
        + f', "{records}": {{\n' + body + "\n }}\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--seeds", type=int, default=SEEDS)
    parser.add_argument(
        "--fixture",
        choices=sorted(FIXTURES),
        default="v1",
        help="v1: Radio MIS and EED; v2: BGI, ICP's background, wake-up",
    )
    args = parser.parse_args(argv)
    build, records = FIXTURES[args.fixture]
    doc = build(args.seeds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dumps(doc, records))
    print(
        f"froze {args.seeds} seeds x {len(doc[records])} {records} "
        f"to {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
