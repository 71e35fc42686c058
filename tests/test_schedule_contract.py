"""The obliviousness-contract suite: every protocol, every window, replayed.

Two layers of enforcement, both on
:class:`repro.engine.validate.ValidatingRunner`, which replays every
chunk the transmitter-pair product delivers — sampled windows and
single protocol steps alike — step-by-step through
:meth:`~repro.radio.network.RadioNetwork.deliver` on a shadow network,
asserting bit-identical ``hear_from`` everywhere:

1. **Registry** — every protocol in :func:`repro.api.list_protocols`
   runs under ``ExecutionPolicy(validate=True)`` on the suite's graph
   kinds (UDG, quasi-UDG, hard instances) and seeds. The steps checked
   by all the validating runners it built must add up to the report's
   steps, and its result must equal the unvalidated run's. Protocols
   that simulate no radio step are listed in :data:`NO_RADIO_STEPS`
   and must refuse ``validate=True``. A protocol registered later is
   covered by construction.

2. **Replay** — per primitive (Decay, EED, MIS, restartable MIS under
   faults, BGI, wake-up, ICP's step driver), through its entry point
   under the validating policy, with every step replayed; plus the
   harness catching a corrupted product, and the step-wise
   ``*_reference`` twins never entering the runner.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import repro.api as api
from repro import graphs
from repro.baselines import (
    bgi_broadcast,
    bgi_broadcast_reference,
    binary_search_election_reference,
    uptime_threshold_election_reference,
)
from repro.core import (
    build_schedule,
    compute_mis_reference,
    estimate_effective_degree,
    estimate_effective_degree_reference,
    intra_cluster_propagation,
    mis_as_wakeup_strategy,
    mis_as_wakeup_strategy_reference,
    partition,
    restartable_mis_reference,
    run_decay,
    run_decay_reference,
)
from repro.core.mis import MISConfig, compute_mis
from repro.core.mis_restart import (
    RestartableMISConfig,
    compute_restartable_mis,
)
from repro.engine import (
    ExecutionPolicy,
    StreamedWindow,
    ValidatingRunner,
    WindowedRunner,
)
from repro.engine.validate import ObliviousnessViolationError
from repro.faults import FaultSchedule
from repro.graphs import greedy_independent_set
from repro.radio import Protocol, ProtocolError, RadioNetwork

VALIDATE = ExecutionPolicy(validate=True)


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


@pytest.fixture
def validating_runners(monkeypatch) -> list[ValidatingRunner]:
    """Every :class:`ValidatingRunner` built while the test runs."""
    runners: list[ValidatingRunner] = []
    init = ValidatingRunner.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runners.append(self)

    monkeypatch.setattr(ValidatingRunner, "__init__", record)
    return runners


def _steps_checked(runners: list[ValidatingRunner]) -> int:
    return sum(r.steps_checked for r in runners)


# ---------------------------------------------------------------------------
# Registry: every registered protocol, validated.
# ---------------------------------------------------------------------------

#: Protocols that simulate no radio step: validate=True refuses.
NO_RADIO_STEPS = {"broadcast", "leader", "partition"}

#: Small configs that keep the validated replays quick; the packet
#: pipelines behind ``broadcast`` and ``leader`` run as extra cases.
CONFIGS = {
    "mis": MISConfig(eed_C=3, record_golden=False),
    "mis_restart": RestartableMISConfig(epochs=2, eed_C=3),
    "decay": api.DecayConfig(iterations=3),
    "eed": api.EEDConfig(C=3),
    "wakeup": api.WakeupConfig(n=400, k=24),
    "broadcast": api.BroadcastConfig(packet=True),
    "leader": api.LeaderConfig(packet=True),
}

REGISTERED = [spec.name for spec in api.list_protocols()]

#: ``(protocol, graph kind, seed)`` per validated run; a protocol that
#: builds its own topology runs once per seed.
REPLAY_CASES = [
    (name, kind, seed)
    for name in [n for n in REGISTERED if n not in NO_RADIO_STEPS]
    + ["broadcast", "leader"]
    for kind in (
        ["own"] if api.get_protocol(name).accepts == "none" else GRAPH_KINDS
    )
    for seed in SEEDS
]


def test_no_radio_step_list_is_registered():
    assert NO_RADIO_STEPS <= set(REGISTERED)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("name", sorted(NO_RADIO_STEPS))
def test_protocols_without_radio_steps_refuse_validation(name, kind, seed):
    with pytest.raises(ProtocolError, match="validate"):
        api.run(
            name, _contract_graph(kind, seed), seed=seed, policy=VALIDATE
        )


@pytest.mark.parametrize("name,kind,seed", REPLAY_CASES)
def test_every_registered_protocol_replays_every_step(
    name, kind, seed, validating_runners
):
    graph = None if kind == "own" else _contract_graph(kind, seed)
    config = CONFIGS.get(name)
    report = api.run(name, graph, seed=50 + seed, config=config,
                     policy=VALIDATE)
    plain = api.run(name, graph, seed=50 + seed, config=config)
    assert report.steps > 0
    assert _steps_checked(validating_runners) == report.steps
    assert report.result == plain.result


# ---------------------------------------------------------------------------
# Replay runs, per primitive.
# ---------------------------------------------------------------------------
def _icp_fixture(g: nx.Graph, seed: int):
    setup = np.random.default_rng(40 + seed)
    mis = sorted(greedy_independent_set(g, setup, "random"))
    clustering = partition(g, 0.3, mis, setup)
    schedule = build_schedule(g, clustering)
    know = np.full(g.number_of_nodes(), -1, dtype=np.int64)
    know[0] = 7
    return clustering, schedule, know


class TestEmitterContracts:
    """Each primitive through its entry point under the validating
    policy: every step the network took was replayed."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_decay(self, kind, seed, validating_runners):
        g = _contract_graph(kind, seed)
        n = g.number_of_nodes()
        active = np.random.default_rng(seed).random(n) < 0.4
        active[0] = True
        net = RadioNetwork(g)
        result = run_decay(
            net, active, np.random.default_rng(50 + seed), iterations=5,
            policy=VALIDATE,
        )
        assert [r.windows_checked for r in validating_runners] == [1]
        assert _steps_checked(validating_runners) == net.steps_elapsed > 0
        assert result.heard.shape == (n,)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_effective_degree(self, kind, seed, validating_runners):
        g = _contract_graph(kind, seed)
        n = g.number_of_nodes()
        setup = np.random.default_rng(seed)
        # p ~ 0.5 pushes the low levels into the dense regime.
        p = np.full(n, 0.5)
        active = setup.random(n) < 0.9
        net = RadioNetwork(g)
        result = estimate_effective_degree(
            net, p, active, np.random.default_rng(60 + seed), C=4,
            policy=VALIDATE,
        )
        # One window per density level, all on the block's one runner.
        assert [r.windows_checked for r in validating_runners] == [
            result.counts.shape[0]
        ]
        assert _steps_checked(validating_runners) == net.steps_elapsed
        assert result.counts.shape[1] == n

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_mis(self, kind, seed, validating_runners):
        g = _contract_graph(kind, seed)
        net = RadioNetwork(g)
        result = compute_mis(
            net, np.random.default_rng(70 + seed),
            MISConfig(eed_C=3, record_golden=False), policy=VALIDATE,
        )
        # Two Decay blocks and one EED block a round, one runner each.
        assert len(validating_runners) == 3 * result.rounds_used
        assert _steps_checked(validating_runners) == result.steps_used
        assert graphs.is_maximal_independent_set(g, result.mis)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_mis_restart(self, kind, seed, validating_runners):
        # Under a non-empty fault schedule: the replay then also
        # exercises the validator's faulted shadows (each runner's
        # shadow starts from a clone of the fault state at its block).
        g = _contract_graph(kind, seed)
        n = g.number_of_nodes()
        schedule = FaultSchedule.sample(
            n, 2000, seed=seed, crash_rate=0.1, churn=0.2, jam=0.05,
        )
        net = RadioNetwork(g, faults=schedule)
        result = compute_restartable_mis(
            net, np.random.default_rng(75 + seed),
            RestartableMISConfig(epochs=2, eed_C=3), policy=VALIDATE,
        )
        assert validating_runners
        assert _steps_checked(validating_runners) == result.steps_used
        assert 0.0 <= result.dominated_fraction <= 1.0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_bgi(self, kind, seed, validating_runners):
        g = _contract_graph(kind, seed)
        result = bgi_broadcast(
            RadioNetwork(g), 0, np.random.default_rng(80 + seed),
            policy=VALIDATE,
        )
        # One window per sweep.
        assert len(validating_runners) == result.sweeps
        assert _steps_checked(validating_runners) == result.steps
        assert result.delivered

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wakeup(self, seed, validating_runners):
        k = 24 + seed
        result = mis_as_wakeup_strategy(
            400, k, np.random.default_rng(90 + seed), policy=VALIDATE
        )
        assert validating_runners
        assert _steps_checked(validating_runners) == result.steps
        assert result.k == k

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_legacy_protocol_adapter(self, kind, validating_runners):
        # ICP's time-multiplexed stack on the runner's step driver,
        # validated one width-1 window per step.
        g = _contract_graph(kind, 2)
        clustering, schedule, know = _icp_fixture(g, 2)
        result = intra_cluster_propagation(
            RadioNetwork(g), clustering, schedule, know, 3,
            np.random.default_rng(3), policy=VALIDATE,
        )
        (runner,) = validating_runners
        assert runner.steps_checked == result.steps > 0
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
        runner = VALIDATE.runner(RadioNetwork(g))
        self._corrupt_product(runner)
        masks = np.zeros((3, 8), dtype=bool)
        masks[1, 2] = True

        with pytest.raises(ObliviousnessViolationError, match="diverged"):
            runner.run(mask_window(masks)[0])

    @pytest.mark.parametrize("form", ["transmitter-plan", "lifted-step"])
    def test_catches_divergence_on_streamed_plans(self, form):
        # The same corruption on both window sources, a sampled window
        # and a protocol step: every window reaches the product through
        # the one checked hook.
        g = graphs.path(8)
        runner = VALIDATE.runner(RadioNetwork(g))
        self._corrupt_product(runner)
        masks = np.zeros((3, 8), dtype=bool)
        masks[1, 2] = True

        class Replay(Protocol):
            def transmit_mask(self, rng):
                return masks[runner.network.steps_elapsed]

            def observe(self, hear_from):
                return None

        with pytest.raises(ObliviousnessViolationError, match="diverged"):
            if form == "transmitter-plan":
                runner.run(
                    StreamedWindow(
                        3,
                        lambda s, e: np.nonzero(masks[s:e]),
                        lambda *triple: None,
                    )
                )
            else:
                runner.run_steps(
                    Replay(runner.network), np.random.default_rng(0), 3
                )


# ---------------------------------------------------------------------------
# The step-wise twins: every step through deliver, never the runner.
# ---------------------------------------------------------------------------
def _every_third(net: RadioNetwork) -> np.ndarray:
    return np.arange(net.n) % 3 == 0


#: Every step-wise twin, run on a network (the wake-up twin builds its
#: own clique).
TWINS = {
    "run_decay_reference": lambda net: run_decay_reference(
        net, _every_third(net), np.random.default_rng(1), iterations=3
    ),
    "estimate_effective_degree_reference": (
        lambda net: estimate_effective_degree_reference(
            net, np.full(net.n, 0.5), _every_third(net),
            np.random.default_rng(2), C=2,
        )
    ),
    "compute_mis_reference": lambda net: compute_mis_reference(
        net, np.random.default_rng(3), MISConfig(eed_C=2)
    ),
    "restartable_mis_reference": lambda net: restartable_mis_reference(
        net, np.random.default_rng(4),
        RestartableMISConfig(epochs=1, eed_C=2),
    ),
    "bgi_broadcast_reference": lambda net: bgi_broadcast_reference(
        net, 0, np.random.default_rng(5)
    ),
    "binary_search_election_reference": (
        lambda net: binary_search_election_reference(
            net, np.random.default_rng(6), id_bits=4
        )
    ),
    "uptime_threshold_election_reference": (
        lambda net: uptime_threshold_election_reference(
            net, np.random.default_rng(7)
        )
    ),
    "mis_as_wakeup_strategy_reference": (
        lambda net: mis_as_wakeup_strategy_reference(
            64, 6, np.random.default_rng(8)
        )
    ),
}


@pytest.mark.parametrize("twin", sorted(TWINS))
def test_reference_twins_deliver_every_step(twin, monkeypatch):
    def refuse(self, window):
        raise AssertionError(f"{twin} entered the windowed runner")

    delivered = []
    deliver = RadioNetwork.deliver

    def count(self, transmit):
        delivered.append(self)
        return deliver(self, transmit)

    monkeypatch.setattr(WindowedRunner, "run", refuse)
    monkeypatch.setattr(RadioNetwork, "deliver", count)
    TWINS[twin](RadioNetwork(_contract_graph("udg", 0)))
    assert delivered
    for network in set(delivered):
        assert delivered.count(network) == network.steps_elapsed
