"""Public-surface lint: the front door stays the front door.

Two checks, both cheap enough for every CI run (wired next to the
engine coverage floor):

1. **Pinned surfaces** — the ``__all__`` of ``repro.api``,
   ``repro.service``, ``repro.engine``, ``repro.core``,
   ``repro.radio``, ``repro.faults`` and ``repro.analysis``, and the
   :class:`ExecutionPolicy` fields, are an explicit contract. Adding or
   removing a name or a policy knob must edit the pin here, in the same
   commit, on purpose; silent drift fails.

2. **No deep imports in user-facing material** — ``examples/`` scripts
   and the fenced Python snippets in ``README.md`` / ``EXPERIMENTS.md``
   must import only *public package surfaces* (``repro``, ``repro.api``,
   ``repro.core``, ...), never deep modules (``repro.core.mis``,
   ``repro.engine.runner``, ...) or private names. What we demo is what
   we support; reaching around the front door in the demos un-teaches
   the API this repo ships.

Run directly::

    PYTHONPATH=src python tools/check_api_surface.py

Exit status is nonzero on any violation, with every offender listed.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: The pinned public surface of repro.api. Changing the API means
#: changing this list in the same commit — that is the point.
EXPECTED_API_ALL = [
    "BGIConfig",
    "BroadcastConfig",
    "CLISpec",
    "DecayConfig",
    "EEDConfig",
    "ENGINE_MODES",
    "ExecutionPolicy",
    "FaultSchedule",
    "ICPConfig",
    "Jam",
    "LeaderConfig",
    "PartitionConfig",
    "ProtocolSpec",
    "RestartableMISConfig",
    "RunReport",
    "UptimeLeaderConfig",
    "WakeupConfig",
    "get_protocol",
    "list_protocols",
    "parse_mem_budget",
    "protocol_names",
    "register_protocol",
    "run",
]

#: The pinned public surface of repro.service — the hosted-campaign
#: layer is a supported import root with the same drift discipline.
EXPECTED_SERVICE_ALL = [
    "Campaign",
    "CampaignJob",
    "CampaignSpec",
    "ExperimentService",
    "JobKey",
    "ReportStore",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "config_digest",
    "faults_digest",
    "policy_digest",
    "run_campaign",
    "start_in_thread",
]

#: The pinned public surface of repro.engine.
EXPECTED_ENGINE_ALL = [
    "DeliveryKernels",
    "ENGINE_MODES",
    "ExecutionPolicy",
    "RowSampler",
    "STREAM_VERSION",
    "ObliviousnessViolationError",
    "ProtocolSchedule",
    "STREAM_CELL_BYTES",
    "Segment",
    "StreamedWindow",
    "TracePhase",
    "TransmitterPlan",
    "ValidatingRunner",
    "WindowedRunner",
    "chunk_steps_for_budget",
    "parse_mem_budget",
    "protocol_schedule",
]

#: The pinned public surface of repro.core — the paper's algorithms.
EXPECTED_CORE_ALL = [
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
    "effective_degree_schedule",
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
    "mis_schedule",
    "partition",
    "partition_csr",
    "partition_radio",
    "partition_reference",
    "prefix_counts",
    "propagation_length",
    "restartable_mis_reference",
    "restartable_mis_schedule",
    "run_decay",
    "run_decay_reference",
    "run_wakeup",
    "s_beta",
    "t_beta",
    "total_bound",
    "uniform_schedule",
]

#: The pinned public surface of repro.radio — the simulator substrate.
EXPECTED_RADIO_ALL = [
    "BudgetExceededError",
    "Charge",
    "CostLedger",
    "GraphContractError",
    "InvalidActionError",
    "NO_SENDER",
    "PhaseStats",
    "Protocol",
    "ProtocolError",
    "RadioError",
    "RadioNetwork",
    "SilentProtocol",
    "StepTrace",
    "TimeMultiplexer",
    "run_steps",
]

#: The pinned public surface of repro.faults — schedules and their
#: realization; fault settings ride the policy, never a global.
EXPECTED_FAULTS_ALL = [
    "FaultSchedule",
    "FaultState",
    "Jam",
    "node_uptime_fractions",
    "validate_faults",
]

#: The pinned public surface of repro.analysis — the trial harness has
#: two entry points (run_trials, run_report_trials).
EXPECTED_ANALYSIS_ALL = [
    "ScalingFit",
    "TextTable",
    "TrialStats",
    "fit_power_law",
    "geometric_sizes",
    "measure_peak",
    "run_report_trials",
    "run_trials",
    "success_rate",
    "summarize_reports",
]

#: The pinned ExecutionPolicy fields, in declaration order.
EXPECTED_POLICY_FIELDS = [
    "engine",
    "mem_budget",
    "validate",
    "faults",
]

#: Package surfaces user-facing material may import from. One level
#: below ``repro`` only — anything deeper is an internal module.
ALLOWED_ROOTS = {
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.baselines",
    "repro.core",
    "repro.corpus",
    "repro.engine",
    "repro.faults",
    "repro.graphs",
    "repro.radio",
    "repro.service",
}


def _check_all_pin(package: str, expected: list[str]) -> list[str]:
    """Pin one package's ``__all__`` without importing it.

    Parsed from source (AST), so the check needs no dependencies and
    cannot be fooled by import-time mutation.
    """
    init = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(init.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            actual = [
                elt.value
                for elt in node.value.elts  # type: ignore[attr-defined]
            ]
            if actual != expected:
                unexpected = sorted(set(actual) - set(expected))
                missing = sorted(set(expected) - set(actual))
                detail = (
                    f"unexpected={unexpected}, missing={missing}"
                    if unexpected or missing
                    else "same names, different order"
                )
                return [
                    f"{package}.__all__ drifted from the pin in "
                    f"tools/check_api_surface.py ({detail})"
                ]
            return []
    return [f"{init.relative_to(REPO_ROOT)} has no literal __all__ to pin"]


def check_api_all() -> list[str]:
    """Pin the public ``__all__`` of every supported import root that
    declares one explicitly."""
    return (
        _check_all_pin("repro.api", EXPECTED_API_ALL)
        + _check_all_pin("repro.service", EXPECTED_SERVICE_ALL)
        + _check_all_pin("repro.engine", EXPECTED_ENGINE_ALL)
        + _check_all_pin("repro.core", EXPECTED_CORE_ALL)
        + _check_all_pin("repro.radio", EXPECTED_RADIO_ALL)
        + _check_all_pin("repro.faults", EXPECTED_FAULTS_ALL)
        + _check_all_pin("repro.analysis", EXPECTED_ANALYSIS_ALL)
    )


def check_policy_fields() -> list[str]:
    """Pin the ExecutionPolicy fields, parsed from source like the
    ``__all__`` pins."""
    problems = []
    tree = ast.parse((SRC / "repro/engine/policy.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ExecutionPolicy":
            fields = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
            if fields != EXPECTED_POLICY_FIELDS:
                problems.append(
                    f"ExecutionPolicy fields {fields} drifted from the "
                    f"pin {EXPECTED_POLICY_FIELDS}"
                )
    return problems


def _imported_modules(tree: ast.AST) -> list[tuple[str, str]]:
    """``(module, what)`` pairs for every repro import in a tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    found.append((alias.name, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "repro":
                for alias in node.names:
                    found.append((module, alias.name))
    return found


def _check_source(label: str, source: str) -> list[str]:
    """Deep-import and private-name violations in one source blob."""
    problems = []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # snippets with shell lines etc. — not Python, skip
    for module, name in _imported_modules(tree):
        if module not in ALLOWED_ROOTS:
            problems.append(
                f"{label}: imports deep module {module!r} "
                f"(allowed surfaces: one level below 'repro')"
            )
        if name.startswith("_"):
            problems.append(
                f"{label}: imports private name {name!r} from {module!r}"
            )
    return problems


def check_examples() -> list[str]:
    """Every example script imports only public surfaces."""
    problems = []
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        problems.extend(
            _check_source(f"examples/{path.name}", path.read_text())
        )
    return problems


def check_doc_snippets() -> list[str]:
    """Fenced python blocks in README/EXPERIMENTS import only surfaces."""
    problems = []
    fence = re.compile(r"```python\n(.*?)```", re.DOTALL)
    for doc in ("README.md", "EXPERIMENTS.md"):
        text = (REPO_ROOT / doc).read_text()
        for i, match in enumerate(fence.finditer(text)):
            problems.extend(
                _check_source(f"{doc} snippet #{i + 1}", match.group(1))
            )
    return problems


def main() -> int:
    """Run all surface checks; list every violation; nonzero on any."""
    problems = (
        check_api_all()
        + check_policy_fields()
        + check_examples()
        + check_doc_snippets()
    )
    if problems:
        print("public API surface violations:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        "api surface OK: __all__ pinned "
        f"({len(EXPECTED_API_ALL)} api + {len(EXPECTED_SERVICE_ALL)} "
        f"service + {len(EXPECTED_ENGINE_ALL)} engine + "
        f"{len(EXPECTED_CORE_ALL)} core + "
        f"{len(EXPECTED_RADIO_ALL)} radio + {len(EXPECTED_FAULTS_ALL)} "
        f"faults + {len(EXPECTED_ANALYSIS_ALL)} analysis names), "
        f"{len(EXPECTED_POLICY_FIELDS)} policy fields pinned, examples "
        "and doc snippets import public surfaces only"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
