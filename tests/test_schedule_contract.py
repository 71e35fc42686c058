"""The obliviousness-contract suite: every emitter, every window, replayed.

Two layers of enforcement:

1. **Inventory** — an AST scan of ``src/repro`` finds every generator
   function that yields engine segments (the *schedule emitters*). The
   meta-test pins that set: adding an emitter without registering it in
   ``EMITTER_RUNS`` below fails the suite, which is what makes "the
   contract harness covers 100% of in-tree schedule emitters" a durable
   property instead of a point-in-time audit.

2. **Replay** — each registered emitter runs under
   :class:`repro.engine.validate.ValidatingRunner`, which replays every
   chunk the transmitter-pair product delivers — sampled transmitter
   plans and lifted protocol steps alike —
   step-by-step through :meth:`~repro.radio.network.RadioNetwork.deliver`
   on a shadow network, asserting bit-identical ``hear_from``
   everywhere. The windows checked are the ones the real protocols emit
   on the pipeline's graph families (UDG, quasi-UDG, hard instances),
   across seeds.
"""

from __future__ import annotations

import ast
import pathlib

import networkx as nx
import numpy as np
import pytest

import repro
from repro import graphs
from repro.baselines.bgi_broadcast import bgi_schedule
from repro.core import build_schedule, partition
from repro.core.decay import decay_block
from repro.core.effective_degree import effective_degree_schedule
from repro.core.intra_cluster import DecayBackground, ICPProtocol
from repro.core.mis import MISConfig, mis_schedule
from repro.core.mis_restart import (
    RestartableMISConfig,
    restartable_mis_schedule,
)
from repro.core.wakeup import _wakeup_mis_schedule
from repro.faults import FaultSchedule
from repro.engine import ExecutionPolicy, ValidatingRunner, protocol_schedule
from repro.engine.validate import ObliviousnessViolationError
from repro.graphs import greedy_independent_set
from repro.radio import RadioNetwork
from repro.radio.protocol import TimeMultiplexer

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent
SEGMENT_NAMES = {
    "StreamedWindow",
    "TracePhase",
}


# ---------------------------------------------------------------------------
# Emitter inventory (AST scan).
# ---------------------------------------------------------------------------
def _own_nodes(func: ast.FunctionDef):
    """Nodes of ``func``'s own body, not descending into nested defs."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def find_schedule_emitters() -> set[str]:
    """Names of all in-tree generator functions that emit segments."""
    emitters: set[str] = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            own = list(_own_nodes(node))
            has_yield = any(
                isinstance(x, (ast.Yield, ast.YieldFrom)) for x in own
            )
            touches_segments = any(
                isinstance(x, ast.Name) and x.id in SEGMENT_NAMES
                for x in own
            )
            if has_yield and touches_segments:
                emitters.add(node.name)
    return emitters


#: Every schedule emitter in the tree, each mapped to the runner in
#: this file that drives it through the ValidatingRunner. Adding an
#: emitter to src/repro without registering it here fails
#: test_inventory_is_complete.
EMITTER_RUNS = {
    "decay_block": "test_decay_block",
    "effective_degree_schedule": "test_effective_degree",
    "mis_schedule": "test_mis",
    "restartable_mis_schedule": "test_mis_restart",
    "bgi_schedule": "test_bgi",
    "_wakeup_mis_schedule": "test_wakeup",
    "protocol_schedule": "test_legacy_protocol_adapter",
}


def test_inventory_is_complete():
    found = find_schedule_emitters()
    registered = set(EMITTER_RUNS)
    assert found == registered, (
        "schedule emitters changed: "
        f"unregistered={sorted(found - registered)}, "
        f"stale={sorted(registered - found)} — every emitter must run "
        "under the ValidatingRunner in this suite"
    )
    for test_name in EMITTER_RUNS.values():
        assert test_name in globals() or any(
            hasattr(obj, test_name)
            for obj in globals().values()
            if isinstance(obj, type)
        ), f"runner {test_name} missing"


def test_inventory_matches_protocol_registry():
    """The AST-pinned emitter inventory must equal the registry's claims.

    Every emitter belongs either to exactly one registered
    :class:`repro.api.registry.ProtocolSpec` (its ``emitters`` tuple)
    or to the engine layer's generic adapter set — so a new emitter
    whose protocol forgets ``@register_protocol`` (or forgets to claim
    the emitter in its spec) fails here, keeping the registry a
    complete catalog rather than a point-in-time list.
    """
    import repro.api  # noqa: F401  (imports register the specs)
    from repro.api.registry import ADAPTER_EMITTERS, registered_emitters

    found = find_schedule_emitters()
    claimed = set(registered_emitters()) | set(ADAPTER_EMITTERS)
    assert found == claimed, (
        "registry out of sync with the emitter inventory: "
        f"unclaimed={sorted(found - claimed)}, "
        f"phantom={sorted(claimed - found)} — every emitter must be "
        "claimed by a @register_protocol spec (or be an engine adapter)"
    )
    # And no emitter is claimed twice: specs own their emitters.
    from repro.api import list_protocols

    seen: dict[str, str] = {}
    for spec in list_protocols():
        for emitter in spec.emitters:
            assert emitter not in seen, (
                f"emitter {emitter!r} claimed by both {seen[emitter]!r} "
                f"and {spec.name!r}"
            )
            assert emitter not in ADAPTER_EMITTERS, (
                f"emitter {emitter!r} is an engine adapter; a protocol "
                "spec cannot claim it"
            )
            seen[emitter] = spec.name


# ---------------------------------------------------------------------------
# Replay runs.
# ---------------------------------------------------------------------------
def _contract_graph(kind: str, seed: int) -> nx.Graph:
    rng = np.random.default_rng(3000 + seed)
    if kind == "udg":
        return graphs.random_udg(60, 3.0, rng)
    if kind == "qudg":
        return nx.convert_node_labels_to_integers(
            graphs.random_qudg(50, 3.0, rng)
        )
    return nx.convert_node_labels_to_integers(graphs.star_of_cliques(4, 6))


GRAPH_KINDS = ["udg", "qudg", "hard"]
SEEDS = [0, 1]


def _validated(graph: nx.Graph) -> ValidatingRunner:
    return ExecutionPolicy(validate=True).runner(RadioNetwork(graph))


def _icp_fixture(g: nx.Graph, seed: int):
    setup = np.random.default_rng(40 + seed)
    mis = sorted(greedy_independent_set(g, setup, "random"))
    clustering = partition(g, 0.3, mis, setup)
    schedule = build_schedule(g, clustering)
    know = np.full(g.number_of_nodes(), -1, dtype=np.int64)
    know[0] = 7
    return clustering, schedule, know


class TestEmitterContracts:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_decay_block(self, kind, seed):
        g = _contract_graph(kind, seed)
        n = g.number_of_nodes()
        active = np.random.default_rng(seed).random(n) < 0.4
        active[0] = True
        runner = _validated(g)
        result = runner.run(
            decay_block(
                runner.network, active, np.random.default_rng(50 + seed),
                iterations=5,
            )
        ).result()
        assert runner.windows_checked > 0
        assert result.heard.shape == (n,)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_effective_degree(self, kind, seed):
        g = _contract_graph(kind, seed)
        n = g.number_of_nodes()
        setup = np.random.default_rng(seed)
        # p ~ 0.5 pushes the low levels into the dense regime, so the
        # replay exercises the dense path through "auto" routing too.
        p = np.full(n, 0.5)
        active = setup.random(n) < 0.9
        runner = _validated(g)
        result = runner.run(
            effective_degree_schedule(
                runner.network, p, active,
                np.random.default_rng(60 + seed), C=4,
            )
        )
        assert runner.windows_checked > 0
        assert result.counts.shape[1] == n

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_mis(self, kind, seed):
        g = _contract_graph(kind, seed)
        runner = _validated(g)
        result = runner.run(
            mis_schedule(
                runner.network, np.random.default_rng(70 + seed),
                MISConfig(eed_C=3, record_golden=False),
            )
        )
        assert runner.windows_checked > 0
        assert graphs.is_maximal_independent_set(g, result.mis)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_mis_restart(self, kind, seed):
        # Driven under a non-empty fault schedule: the replay then also
        # exercises the validator's faulted shadow paths (cloned fault
        # state, per-window transforms on all three shadows).
        g = _contract_graph(kind, seed)
        n = g.number_of_nodes()
        schedule = FaultSchedule.sample(
            n, 2000, seed=seed, crash_rate=0.1, churn=0.2, jam=0.05,
        )
        runner = ExecutionPolicy(validate=True).runner(
            RadioNetwork(g, faults=schedule)
        )
        result = runner.run(
            restartable_mis_schedule(
                runner.network, np.random.default_rng(75 + seed),
                RestartableMISConfig(epochs=2, eed_C=3),
            )
        )
        assert runner.windows_checked > 0
        assert 0.0 <= result.dominated_fraction <= 1.0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_bgi(self, kind, seed):
        g = _contract_graph(kind, seed)
        runner = _validated(g)
        result = runner.run(
            bgi_schedule(runner.network, 0, np.random.default_rng(80 + seed))
        )
        assert runner.windows_checked > 0
        assert result.delivered

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wakeup(self, seed):
        k = 24 + seed
        runner = _validated(nx.complete_graph(k))
        result = runner.run(
            _wakeup_mis_schedule(
                runner.network, 400, np.random.default_rng(90 + seed)
            )
        )
        assert runner.windows_checked > 0
        assert result.k == k

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_legacy_protocol_adapter(self, kind):
        # protocol_schedule over the time-multiplexed ICP stack — ICP's
        # engine path — validated one width-1 window per step.
        g = _contract_graph(kind, 2)
        clustering, schedule, know = _icp_fixture(g, 2)
        runner = _validated(g)
        main = ICPProtocol(runner.network, schedule, know, 3)
        background = DecayBackground(runner.network, clustering, know)
        muxed = TimeMultiplexer(runner.network, main, background)
        total = 2 * sum(len(p.slots) for p in main._passes) + 2
        runner.run(
            protocol_schedule(muxed, np.random.default_rng(3), steps=total)
        )
        assert runner.steps_checked > 0
        assert runner.windows_checked == runner.steps_checked


class TestValidatingRunnerDetectsViolations:
    @staticmethod
    def _corrupt_product(runner: ValidatingRunner) -> None:
        """Flip one sender in the primary's product output."""
        kern = runner.network._delivery_kernels()
        original = kern.execute_coo

        def corrupted(w, tx_step, tx_node, counters=None):
            step, node, sender = original(w, tx_step, tx_node, counters)
            if sender.size:
                sender = sender.copy()
                sender[0] = (sender[0] + 1) % runner.network.n
            return step, node, sender

        kern.execute_coo = corrupted  # type: ignore[method-assign]

    def test_catches_engine_divergence(self, mask_window):
        # Corrupt the primary's window product: a violated promise
        # must raise, proving the harness is not vacuous.
        g = graphs.path(8)
        runner = _validated(g)
        self._corrupt_product(runner)
        masks = np.zeros((3, 8), dtype=bool)
        masks[1, 2] = True

        with pytest.raises(ObliviousnessViolationError, match="diverged"):
            runner.run(mask_window(masks))

    @pytest.mark.parametrize("form", ["transmitter-plan", "lifted-step"])
    def test_catches_divergence_on_streamed_plans(self, form):
        # The same corruption on both window sources, a sampled plan
        # and a lifted protocol step: every window reaches the product
        # through the one checked hook.
        from repro.engine import StreamedWindow
        from repro.engine.segments import TransmitterPlan
        from repro.radio import Protocol

        g = graphs.path(8)
        runner = _validated(g)
        self._corrupt_product(runner)
        masks = np.zeros((3, 8), dtype=bool)
        masks[1, 2] = True

        class Replay(Protocol):
            def transmit_mask(self, rng):
                return masks[runner.network.steps_elapsed]

            def observe(self, hear_from):
                return None

        def emit():
            yield StreamedWindow(
                TransmitterPlan(3, lambda s, e: np.nonzero(masks[s:e])),
                consume_coo=lambda *triple: None,
            )

        if form == "transmitter-plan":
            schedule = emit()
        else:
            schedule = protocol_schedule(
                Replay(runner.network), np.random.default_rng(0), steps=3
            )
        with pytest.raises(ObliviousnessViolationError, match="diverged"):
            runner.run(schedule)
