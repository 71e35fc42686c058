#!/usr/bin/env python
"""Freeze the random stream's output distribution into a fixture.

Runs Radio MIS and EstimateEffectiveDegree over a fixed seed range on
two fixed graphs and records, per seed, what the distribution tests in
``tests/test_stream_distribution.py`` compare: MIS size, radio steps
and ``all_removed``, plus EED's High fraction and per-level hear-count
totals. Only public entry points are used, so the same script runs
against any checkout of the package; run it on the code whose stream
you want to freeze::

    PYTHONPATH=src python tools/freeze_stream_fixture.py \\
        --out tests/fixtures/stream_v1.json

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


def fixture_graphs() -> dict[str, Any]:
    """The two fixed graphs: a seeded sparse UDG and a hard instance."""
    from repro.corpus import random_udg_csr
    from repro.graphs import hard_instances

    n = 300
    return {
        "udg-300": random_udg_csr(
            n,
            math.sqrt(n * math.pi / 9.0),
            np.random.default_rng(2024),
            connected=False,
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
    return {
        "seeds": seeds,
        "mis_config": MIS_CONFIG,
        "eed_C": EED_C,
        "graphs": {
            name: [record(graph, seed) for seed in range(seeds)]
            for name, graph in fixture_graphs().items()
        },
    }


def dumps(doc: dict[str, Any]) -> str:
    """The fixture as JSON text, one seed record per line."""
    graphs = ",\n".join(
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"   {json.dumps(r, sort_keys=True)}" for r in records)
        + "\n  ]"
        for name, records in sorted(doc["graphs"].items())
    )
    head = {k: v for k, v in doc.items() if k != "graphs"}
    return (
        json.dumps(head, sort_keys=True)[:-1]
        + ', "graphs": {\n' + graphs + "\n }}\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--seeds", type=int, default=SEEDS)
    args = parser.parse_args(argv)
    doc = freeze(args.seeds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dumps(doc))
    graphs = len(doc["graphs"])
    print(f"froze {args.seeds} seeds x {graphs} graphs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
