"""Tour of the one front door: registry, policies, streamed runs.

Everything in this package runs through three names from
``repro.api`` — ``protocol_names()`` to discover, ``ExecutionPolicy``
to say *how*, and ``run()`` to execute and get a structured
``RunReport`` back. This script walks all three:

1. discover every registered protocol, and the engines every one of
   them implements;
2. run Radio MIS plainly, then re-run it under increasingly opinionated
   policies (forced reference engine, a 16-row chunk budget, contract
   validation) and check the seeded results never change — the knobs
   are performance/diagnostics knobs only;
3. run a larger MIS *streamed* under a tight peak-memory budget — the
   out-of-core path that makes ``n >= 10^5`` runs laptop-sized —
   and show the RunReport's policy echo and provenance.

Run:  PYTHONPATH=src python examples/api_tour.py

CI executes this script as a smoke step, so the tour is guaranteed to
stay runnable.
"""

from __future__ import annotations

import numpy as np

import repro.api as api
from repro import graphs
from repro.engine import STREAM_CELL_BYTES


def tour_registry() -> None:
    """Step 1: what can run? Ask the registry, not the docs."""
    print("== registry ==")
    for spec in api.list_protocols():
        print(f"  {spec.name:10s} {spec.title}")
    print(f"  engines (every protocol): {'/'.join(api.ENGINE_MODES)}")


def tour_policies() -> tuple[int, int]:
    """Step 2: policies change execution, never results."""
    print("\n== policies (one seed, four executions) ==")
    g = graphs.random_udg(n=220, side=7.0, rng=np.random.default_rng(11))
    config = api.get_protocol("mis").config_cls(eed_C=4, record_golden=False)
    # The cost model charges STREAM_CELL_BYTES per (step, node) cell,
    # so this budget buys 16-row chunks.
    budget_16 = 16 * g.number_of_nodes() * STREAM_CELL_BYTES
    policies = {
        "default": api.ExecutionPolicy(),
        "reference engine": api.ExecutionPolicy(engine="reference"),
        "16-row budget": api.ExecutionPolicy(mem_budget=budget_16),
        "validated": api.ExecutionPolicy(validate=True),
    }
    sizes, steps = set(), set()
    for label, policy in policies.items():
        report = api.run("mis", g, seed=7, config=config, policy=policy)
        sizes.add(report.result.size)
        steps.add(report.steps)
        print(
            f"  {label:17s} engine={report.policy.engine:9s} "
            f"mis={report.result.size:3d} steps={report.steps:6d} "
            f"wall={report.wall_time_s:.3f}s"
        )
    assert len(sizes) == 1 and len(steps) == 1, "policies must not change results"
    print("  -> identical results under every policy (as promised)")
    return sizes.pop(), steps.pop()


def tour_streaming() -> None:
    """Step 3: a bigger MIS, streamed under a peak-memory budget."""
    print("\n== streamed large-n MIS (one run() call) ==")
    n = 3000
    side = float(np.sqrt(n * np.pi / 9.0))  # ~9 average degree
    g = graphs.random_udg(
        n, side, np.random.default_rng(23), connected=False
    )
    policy = api.ExecutionPolicy(mem_budget=api.parse_mem_budget("8M"))
    report = api.run(
        "mis",
        g,
        seed=23,
        config=api.get_protocol("mis").config_cls(
            record_golden=False, eed_C=8
        ),
        policy=policy,
        measure_memory=True,
    )
    echo = report.policy
    print(
        f"  n={n}: {report.result.size} MIS nodes, {report.steps} radio "
        f"steps in {report.wall_time_s:.1f}s"
    )
    print(
        f"  policy: engine={echo.engine}, "
        f"mem_budget={echo.mem_budget >> 20}M, "
        f"peak={report.peak_mem_bytes / 2**20:.0f} MiB"
    )
    print(f"  provenance: {report.provenance}")
    assert echo == policy, "the report echoes the policy as written"


def main() -> None:
    """Run the three tour stops in order."""
    tour_registry()
    tour_policies()
    tour_streaming()
    print("\napi tour complete.")


if __name__ == "__main__":
    main()
