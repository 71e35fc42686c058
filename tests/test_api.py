"""The front-door contract: ``repro.api.run`` vs the legacy entry points.

Three layers of pinning:

1. **Bit-identity** — every registered protocol run through
   :func:`repro.api.run` must reproduce its legacy entry point exactly
   on a shared seed: results, radio-step counts, trace totals, and the
   *final rng state* (the strongest stream-equality statement — one
   extra coin anywhere diverges it).
2. **Uniform refusals** — unknown ``engine`` strings (``"auto"``
   among them), removed knobs (``delivery``, ``restrict``,
   ``chunk_steps``, ``trace``), malformed ``mem_budget`` values and
   ``validate`` under the reference engine raise
   :class:`~repro.radio.errors.ProtocolError` naming the accepted
   values, identically across the policy constructor, ``run``, the
   CLI, and campaign specs.
3. **No per-call shims** — entry points take ``policy=`` only, and the
   packet-Compete config carries neither a policy nor an engine of
   its own.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.api as api
from repro import graphs
from repro.analysis import run_report_trials, summarize_reports
from repro.api import (
    BGIConfig,
    BroadcastConfig,
    DecayConfig,
    EEDConfig,
    ExecutionPolicy,
    ICPConfig,
    LeaderConfig,
    PartitionConfig,
    RunReport,
    WakeupConfig,
    parse_mem_budget,
)
from repro.baselines.bgi_broadcast import (
    bgi_broadcast,
    bgi_broadcast_reference,
)
from repro.core import (
    CompeteConfig,
    MISConfig,
    broadcast,
    broadcast_packet,
    broadcast_packet_level,
    build_icp_inputs,
    compete_packet,
    compute_mis,
    elect_leader,
    elect_leader_packet,
    estimate_effective_degree,
    intra_cluster_propagation,
    mis_as_wakeup_strategy,
    partition,
    run_decay,
)
from repro.engine import WindowedRunner, chunk_steps_for_budget
from repro.graphs import greedy_independent_set
from repro.radio import RadioNetwork
from repro.radio.errors import ProtocolError


def _udg(n: int = 80, seed: int = 5):
    return graphs.random_udg(n, 4.0, np.random.default_rng(seed))


def _rng_pair(seed: int = 17):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _state(rng):
    return rng.bit_generator.state


def _engine_policy(engine: str) -> ExecutionPolicy:
    """``"auto"`` is the default policy, its engine left unnamed."""
    if engine == "auto":
        return ExecutionPolicy()
    return ExecutionPolicy(engine=engine)


def _trace_totals(network):
    t = network.trace
    return {
        "steps": t.total_steps,
        "transmissions": t.total_transmissions,
        "receptions": t.total_receptions,
    }


# ---------------------------------------------------------------------------
# 1. Bit-identity per protocol.
# ---------------------------------------------------------------------------
class TestFrontDoorEquivalence:
    @pytest.mark.parametrize("engine", ["auto", "windowed", "reference"])
    def test_mis(self, engine):
        g = _udg()
        rng_a, rng_b = _rng_pair()
        config = MISConfig(eed_C=3, record_golden=False)
        net = RadioNetwork(g)
        policy = _engine_policy(engine)
        legacy = compute_mis(net, rng_a, config, policy=policy)
        report = api.run(
            "mis", g, rng=rng_b, config=config, policy=policy
        )
        assert report.result.mis == legacy.mis
        assert report.result.steps_used == legacy.steps_used
        assert report.steps == net.steps_elapsed
        assert report.trace == _trace_totals(net)
        assert _state(rng_a) == _state(rng_b)
        assert report.policy.engine == (
            "windowed" if engine == "auto" else engine
        )

    def test_decay(self):
        g = _udg()
        n = g.number_of_nodes()
        active = np.random.default_rng(2).random(n) < 0.5
        rng_a, rng_b = _rng_pair(3)
        net = RadioNetwork(g)
        legacy = run_decay(net, active, rng_a, iterations=5)
        report = api.run(
            "decay", g, rng=rng_b, config=DecayConfig(
                active=active, iterations=5
            ),
        )
        assert (report.result.heard_from == legacy.heard_from).all()
        assert report.steps == net.steps_elapsed
        assert report.trace == _trace_totals(net)
        assert _state(rng_a) == _state(rng_b)

    @pytest.mark.parametrize("delivery", ["auto", "sparse", "dense"])
    def test_eed(self, delivery):
        # ``delivery`` names the density regime of the desire levels
        # (the removed router's modes): sparse, dense, and a mix.
        g = _udg()
        n = g.number_of_nodes()
        p_level = {"sparse": 0.02, "dense": 0.5, "auto": 0.2}[delivery]
        p = np.full(n, p_level)
        active = np.ones(n, dtype=bool)
        rng_a, rng_b = _rng_pair(4)
        net = RadioNetwork(g)
        legacy = estimate_effective_degree(net, p, active, rng_a, C=3)
        report = api.run(
            "eed", g, rng=rng_b, config=EEDConfig(p=p_level, C=3)
        )
        assert (report.result.counts == legacy.counts).all()
        assert report.trace == _trace_totals(net)
        assert _state(rng_a) == _state(rng_b)

    @pytest.mark.parametrize("engine", ["windowed", "auto", "reference"])
    def test_icp(self, engine):
        g = _udg(70, 6)
        rng_a, rng_b = _rng_pair(5)
        config = ICPConfig(beta=0.3, ell=3, sources={0: 7})
        # The legacy sequence the CLI and P3 bench always ran:
        clustering, schedule, knowledge = build_icp_inputs(
            g, rng_a, beta=0.3, sources={0: 7}
        )
        net = RadioNetwork(g)
        legacy = intra_cluster_propagation(
            net, clustering, schedule, knowledge, 3, rng_a,
            policy=_engine_policy(engine),
        )
        report = api.run(
            "icp", g, rng=rng_b, config=config,
            policy=_engine_policy(engine),
        )
        assert (report.result.knowledge == legacy.knowledge).all()
        assert report.result.steps == legacy.steps
        assert report.steps == net.steps_elapsed
        assert report.trace == _trace_totals(net)
        assert _state(rng_a) == _state(rng_b)

    def test_bgi(self):
        g = _udg(60, 7)
        rng_a, rng_b = _rng_pair(6)
        net = RadioNetwork(g)
        legacy = bgi_broadcast(net, 0, rng_a)
        report = api.run("bgi", g, rng=rng_b, config=BGIConfig(source=0))
        assert report.result.steps == legacy.steps
        assert report.result.sweeps == legacy.sweeps
        assert report.trace == _trace_totals(net)
        assert _state(rng_a) == _state(rng_b)

    def test_wakeup(self):
        rng_a, rng_b = _rng_pair(8)
        legacy = mis_as_wakeup_strategy(512, 24, rng_a)
        report = api.run(
            "wakeup", None, rng=rng_b, config=WakeupConfig(n=512, k=24)
        )
        assert report.result == legacy
        assert report.steps == legacy.steps
        assert _state(rng_a) == _state(rng_b)

    @pytest.mark.parametrize("baseline", [False, True])
    def test_broadcast_accounted(self, baseline):
        g = _udg(60, 9)
        rng_a, rng_b = _rng_pair(9)
        config = CompeteConfig(centers_mode="all" if baseline else "mis")
        legacy = broadcast(g, 0, rng_a, config=config)
        report = api.run(
            "broadcast", g, rng=rng_b,
            config=BroadcastConfig(source=0, baseline=baseline),
        )
        assert report.result.delivered == legacy.delivered
        assert report.result.total_rounds == legacy.total_rounds
        assert report.steps == 0  # round-accounted: no radio steps
        assert _state(rng_a) == _state(rng_b)

    def test_broadcast_packet(self):
        g = _udg(50, 10)
        rng_a, rng_b = _rng_pair(10)
        legacy = broadcast_packet_level(g, 0, rng_a)
        report = api.run(
            "broadcast", g, rng=rng_b,
            config=BroadcastConfig(source=0, packet=True),
        )
        assert report.result.delivered == legacy.delivered
        assert report.result.steps == legacy.steps
        assert report.result.stage_steps == legacy.stage_steps
        assert report.steps == legacy.steps
        assert _state(rng_a) == _state(rng_b)

    @pytest.mark.parametrize("packet", [False, True])
    def test_leader(self, packet):
        g = _udg(60, 11)
        rng_a, rng_b = _rng_pair(11)
        if packet:
            legacy = elect_leader_packet(RadioNetwork(g), rng_a)
            report = api.run(
                "leader", g, rng=rng_b, config=LeaderConfig(packet=True)
            )
            assert report.result.steps == legacy.steps
        else:
            legacy = elect_leader(g, rng_a)
            report = api.run("leader", g, rng=rng_b)
            assert report.result.total_rounds == legacy.total_rounds
        assert report.result.elected == legacy.elected
        assert report.result.leader == legacy.leader
        assert report.result.candidates == legacy.candidates
        assert _state(rng_a) == _state(rng_b)

    @pytest.mark.parametrize("engine", ["windowed", "reference"])
    def test_partition(self, engine):
        g = _udg(70, 12)
        rng_a, rng_b = _rng_pair(12)
        mis = sorted(greedy_independent_set(g, rng_a, strategy="random"))
        legacy = partition(g, 0.25, mis, rng_a)
        report = api.run(
            "partition", g, rng=rng_b, config=PartitionConfig(beta=0.25),
            policy=ExecutionPolicy(engine=engine),
        )
        # The reference (Dijkstra) twin is pinned bit-identical to the
        # frontier engine elsewhere; here both paths must match the
        # legacy draw exactly.
        assert (report.result.assignment == legacy.assignment).all()
        assert (
            report.result.distance_to_center == legacy.distance_to_center
        ).all()
        assert _state(rng_a) == _state(rng_b)

    def test_prebuilt_network_accounts_delta(self):
        # A reused network: the report must account only this run.
        g = _udg(50, 13)
        net = RadioNetwork(g)
        api.run("decay", net, seed=1, config=DecayConfig(iterations=3))
        before = net.steps_elapsed
        report = api.run("decay", net, seed=2, config=DecayConfig(iterations=3))
        assert report.steps == net.steps_elapsed - before
        assert report.trace["steps"] == report.steps

    def test_streaming_policy_bit_identical(self):
        g = _udg(60, 14)
        rng_a, rng_b = _rng_pair(15)
        plain = api.run("mis", g, rng=rng_a,
                        config=MISConfig(eed_C=3, record_golden=False))
        streamed = api.run(
            "mis", g, rng=rng_b,
            config=MISConfig(eed_C=3, record_golden=False),
            policy=ExecutionPolicy(mem_budget=1 << 18),
        )
        assert streamed.result.mis == plain.result.mis
        assert streamed.steps == plain.steps
        assert _state(rng_a) == _state(rng_b)
        assert streamed.policy.mem_budget == 1 << 18

    def test_validating_policy(self):
        g = _udg(40, 16)
        report = api.run(
            "decay", g, seed=3, config=DecayConfig(iterations=3),
            policy=ExecutionPolicy(validate=True),
        )
        assert report.policy.validate
        assert report.result.heard.shape == (g.number_of_nodes(),)


# ---------------------------------------------------------------------------
# 2. The RunReport record.
# ---------------------------------------------------------------------------
class TestRunReport:
    def test_provenance_and_row(self):
        g = _udg(40, 20)
        report = api.run("eed", g, seed=123, config=EEDConfig(C=2))
        assert isinstance(report, RunReport)
        assert report.provenance["seed"] == 123
        assert report.provenance["graph"]["n"] == 40
        assert report.provenance["graph"]["family"] == "udg"
        assert report.provenance["version"]
        assert report.wall_time_s > 0
        assert report.peak_mem_bytes is None  # opt-in measurement
        row = report.row()
        json.dumps(row)  # must be JSON-clean
        assert row["protocol"] == "eed"
        assert row["engine"] == "windowed"

    def test_measure_memory(self):
        g = _udg(40, 21)
        report = api.run(
            "eed", g, seed=1, config=EEDConfig(C=2), measure_memory=True
        )
        assert report.peak_mem_bytes is not None
        assert report.peak_mem_bytes > 0

    def test_rng_provenance_is_none_for_live_generator(self):
        g = _udg(30, 22)
        report = api.run("decay", g, rng=np.random.default_rng(0))
        assert report.provenance["seed"] is None


# ---------------------------------------------------------------------------
# 3. Registry discovery.
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_expected_protocols_registered(self):
        names = set(api.protocol_names())
        assert {
            "mis", "decay", "eed", "icp", "bgi", "wakeup",
            "broadcast", "leader", "partition",
        } <= names

    def test_specs_are_coherent(self):
        for spec in api.list_protocols():
            assert spec.accepts in ("network", "graph", "none")
            if spec.cli is not None:
                assert spec.cli.help

    def test_unknown_protocol_refused_by_name(self):
        with pytest.raises(ProtocolError, match="registered"):
            api.get_protocol("does-not-exist")

    def test_duplicate_registration_refused(self):
        with pytest.raises(ProtocolError, match="already registered"):
            api.register_protocol(
                name="mis", title="dup", config_cls=None, emitters=()
            )(lambda *a: None)

    def test_wrong_config_type_refused(self):
        g = _udg(20, 24)
        with pytest.raises(ProtocolError, match="MISConfig"):
            api.run("mis", g, seed=0, config=DecayConfig())


# ---------------------------------------------------------------------------
# 4. Uniform refusals.
# ---------------------------------------------------------------------------
class TestUniformRefusals:
    def test_policy_names_accepted_engines(self):
        with pytest.raises(ProtocolError, match="windowed"):
            ExecutionPolicy(engine="bogus")

    def test_policy_names_accepted_deliveries(self):
        # No delivery is accepted any more: the refusal names the
        # accepted policy fields instead.
        from repro.engine.policy import POLICY_FIELDS

        with pytest.raises(ProtocolError, match="delivery") as err:
            ExecutionPolicy(delivery="bogus")
        assert str(POLICY_FIELDS) in str(err.value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_chunk_steps_bounds(self, value):
        # The chunk height is no policy field (the budget sets it), and
        # a runner refuses a height below one row.
        with pytest.raises(ProtocolError, match="chunk_steps"):
            ExecutionPolicy(chunk_steps=value)
        with pytest.raises(ProtocolError, match="chunk_steps"):
            WindowedRunner(RadioNetwork(_udg(20, 25)), value)

    def test_mem_budget_bounds(self):
        with pytest.raises(ProtocolError, match="mem_budget"):
            ExecutionPolicy(mem_budget=0)

    @pytest.mark.parametrize("value", [1, "no", None])
    def test_validate_must_be_a_bool(self, value):
        # A policy has one spelling: 1 would run like True yet digest
        # apart from it, and "no" would run the validator.
        with pytest.raises(ProtocolError, match="validate"):
            ExecutionPolicy(validate=value)

    @pytest.mark.parametrize("text", ["", "12Q", "fast", "-5M"])
    def test_parse_mem_budget_malformed(self, text):
        with pytest.raises(ProtocolError):
            parse_mem_budget(text)

    def test_parse_mem_budget_suffixes(self):
        assert parse_mem_budget("64M") == 64 << 20
        assert parse_mem_budget("2g") == 2 << 30
        assert parse_mem_budget("512") == 512

    def test_protocol_refuses_engines_it_lacks(self):
        # Every protocol implements every engine, so an engine outside
        # ENGINE_MODES is refused where the policy is built, naming
        # the accepted ones, before any protocol runs.
        g = _udg(20, 25)
        with pytest.raises(ProtocolError, match="windowed"):
            api.run(
                "mis", g, seed=0, policy=ExecutionPolicy(engine="fused")
            )
        # Same refusal, legacy path:
        with pytest.raises(ProtocolError, match="windowed"):
            compute_mis(
                RadioNetwork(g), np.random.default_rng(0),
                policy=ExecutionPolicy(engine="fused"),
            )

    def test_numpy_integer_knobs_accepted(self):
        # Budgets and heights computed with numpy arithmetic are
        # natural here; the validators must not reject np integers.
        p = ExecutionPolicy(mem_budget=np.int64(1 << 20))
        assert p.mem_budget == 1 << 20
        net = RadioNetwork(_udg(20, 25))
        assert WindowedRunner(net, np.int64(4)).chunk_steps == 4
        with pytest.raises(ProtocolError, match="mem_budget"):
            ExecutionPolicy(mem_budget=np.int64(0))

    def test_partition_refuses_inert_validate(self):
        g = _udg(20, 28)
        with pytest.raises(ProtocolError, match="validate"):
            api.run(
                "partition", g, seed=0,
                policy=ExecutionPolicy(validate=True),
            )

    def test_validate_refuses_reference_engine(self):
        # The reference paths build no runner, so the contract checker
        # could not interpose — an inert validate refuses by name,
        # where the policy is built, before any protocol runs.
        with pytest.raises(ProtocolError, match="validate"):
            ExecutionPolicy(engine="reference", validate=True)
        g = _udg(20, 27)
        with pytest.raises(ProtocolError, match="validate"):
            api.run(
                "mis", g, seed=0,
                policy=ExecutionPolicy(engine="reference", validate=True),
            )
        with pytest.raises(ProtocolError, match="validate"):
            run_decay(
                RadioNetwork(g), np.ones(20, dtype=bool),
                np.random.default_rng(0),
                policy=ExecutionPolicy(engine="reference", validate=True),
            )

    def test_run_needs_exactly_one_randomness_source(self):
        g = _udg(20, 26)
        with pytest.raises(ProtocolError, match="exactly one"):
            api.run("decay", g)
        with pytest.raises(ProtocolError, match="exactly one"):
            api.run("decay", g, seed=1, rng=np.random.default_rng(1))

    def test_cli_refuses_malformed_mem_budget(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["mis", "--n", "10", "--mem-budget", "12Q"])
        assert exc.value.code == 2
        assert "suffix" in capsys.readouterr().err

    def test_cli_refuses_unknown_engine(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["mis", "--n", "10", "--engine", "bogus"])
        assert exc.value.code == 2
        assert "windowed" in capsys.readouterr().err

    def test_reference_validate_refused_on_every_surface(self, capsys):
        # The policy, the CLI and a plain-JSON campaign spec all refuse
        # the combination at construction, naming validate.
        from repro.cli import main
        from repro.service import CampaignSpec

        with pytest.raises(ProtocolError, match="validate"):
            ExecutionPolicy(engine="reference", validate=True)
        assert main(
            ["mis", "--n", "10", "--engine", "reference", "--validate"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "validate" in err
        document = {
            "protocol": "decay",
            "corpus": ["0" * 64],
            "n_trials": 1,
            "policies": [{"engine": "reference", "validate": True}],
        }
        with pytest.raises(ProtocolError, match="validate"):
            CampaignSpec.from_json(json.dumps(document))



class TestRemovedKnobs:
    """``restrict``, ``delivery``, ``chunk_steps``, ``trace`` and the
    ``"auto"`` engine are gone: naming one at any entry point is the
    uniform refusal naming the accepted fields (or engines)."""

    def test_policy_refuses_removed_knobs(self):
        from repro.engine.policy import POLICY_FIELDS

        assert POLICY_FIELDS == (
            "engine", "mem_budget", "validate", "faults"
        )
        assert len(POLICY_FIELDS) == 4
        assert api.ENGINE_MODES == ("windowed", "reference")
        for knob, value in (
            ("restrict", "auto"),
            ("delivery", "dense"),
            ("chunk_steps", 16),
            ("trace", "cheap"),
        ):
            assert knob not in POLICY_FIELDS
            with pytest.raises(ProtocolError) as err:
                ExecutionPolicy(**{knob: value})
            assert knob in str(err.value)
            assert str(POLICY_FIELDS) in str(err.value)
        with pytest.raises(ProtocolError) as err:
            ExecutionPolicy(engine="auto")
        assert "'auto'" in str(err.value)
        assert str(api.ENGINE_MODES) in str(err.value)

    @pytest.mark.parametrize(
        "flags,named,accepted",
        [
            (["--restrict", "off"], "restrict", "mem_budget"),
            (["--delivery", "dense"], "delivery", "mem_budget"),
            (["--chunk-steps", "16"], "chunk_steps", "mem_budget"),
        ],
    )
    def test_cli_refuses_removed_knobs(self, capsys, flags, named, accepted):
        from repro.cli import main

        assert main(["mis", "--n", "10"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err and accepted in err

    def test_cli_refuses_auto_engine(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["mis", "--n", "10", "--engine", "auto"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'auto'" in err and "windowed" in err

    @pytest.mark.parametrize(
        "entry,named,accepted",
        [
            ({"restrict": "force"}, "restrict", "mem_budget"),
            ({"delivery": "dense"}, "delivery", "mem_budget"),
            ({"chunk_steps": 16}, "chunk_steps", "mem_budget"),
            ({"trace": "cheap"}, "trace", "mem_budget"),
            ({"engine": "auto"}, "auto", "windowed"),
        ],
    )
    def test_plain_campaign_spec_refuses_removed_knobs(
        self, entry, named, accepted
    ):
        from repro.service import CampaignSpec

        document = {
            "protocol": "decay",
            "corpus": ["0" * 64],
            "n_trials": 1,
            "policies": [entry],
        }
        with pytest.raises(ProtocolError) as err:
            CampaignSpec.from_json(json.dumps(document))
        assert named in str(err.value) and accepted in str(err.value)


def _refuse_fused_policy(tmp_path, capsys):
    with pytest.raises(ProtocolError) as err:
        ExecutionPolicy(engine="fused")
    assert "'fused'" in str(err.value)
    assert str(api.ENGINE_MODES) in str(err.value)


def _refuse_cli_engine_fused(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["icp", "--n", "10", "--engine", "fused"])
    assert exc.value.code == 2
    assert "'fused'" in capsys.readouterr().err


def _refuse_cli_icp_fused_flag(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["icp", "--n", "10", "--fused"])
    assert exc.value.code == 2
    assert "--fused" in capsys.readouterr().err


def _refuse_fused_campaign_over_http(tmp_path, capsys):
    import http.client

    from repro.service import ServiceClient, start_in_thread

    document = {
        "protocol": "icp",
        "corpus": ["0" * 64],
        "n_trials": 1,
        "policies": [{"engine": "fused"}],
    }
    with start_in_thread(tmp_path / "reports") as handle:
        client = ServiceClient(port=handle.port)
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request("POST", "/campaigns", body=json.dumps(document))
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 400
    assert payload["error"]["type"] == "ProtocolError"
    assert "'fused'" in payload["error"]["message"]
    assert str(api.ENGINE_MODES) in payload["error"]["message"]


def _refuse_packet_config_engine(tmp_path, capsys):
    from repro.core import PacketCompeteConfig

    with pytest.raises(TypeError, match="engine"):
        PacketCompeteConfig(engine="reference")


class TestRemovedSurface:
    """The ``"fused"`` engine, ``icp --fused`` and the packet-Compete
    ``engine`` field are gone: ICP has one engine path, the default,
    and every surface that could still name the old spellings
    refuses."""

    @pytest.mark.parametrize(
        "refusal",
        [
            _refuse_fused_policy,
            _refuse_cli_engine_fused,
            _refuse_cli_icp_fused_flag,
            _refuse_fused_campaign_over_http,
            _refuse_packet_config_engine,
        ],
        ids=lambda f: f.__name__.removeprefix("_refuse_"),
    )
    def test_refused(self, refusal, tmp_path, capsys):
        refusal(tmp_path, capsys)


# ---------------------------------------------------------------------------
# 5. Per-call knobs: policy= only; policy-carried engines.
# ---------------------------------------------------------------------------
class TestDeprecationShims:
    def test_policy_plus_legacy_kwargs_refused(self):
        # The per-call engine=/delivery=/chunk_steps=/mem_budget=
        # keywords are gone: passing one, with or without a policy,
        # is refused by name.
        g = _udg(20, 33)
        with pytest.raises(TypeError, match="engine"):
            compute_mis(
                RadioNetwork(g), np.random.default_rng(0),
                engine="reference", policy=ExecutionPolicy(),
            )
        active = np.ones(g.number_of_nodes(), dtype=bool)
        with pytest.raises(TypeError, match="chunk_steps"):
            run_decay(
                RadioNetwork(g), active, np.random.default_rng(0),
                chunk_steps=4,
            )

    def test_packet_config_policy_and_engine_refused(self):
        # The policy rides on the entry points' policy= keyword; the
        # config has neither a policy nor an engine of its own.
        from repro.core import PacketCompeteConfig

        with pytest.raises(TypeError, match="engine"):
            PacketCompeteConfig(engine="reference")
        with pytest.raises(TypeError, match="policy"):
            PacketCompeteConfig(policy=ExecutionPolicy())
        assert len(dataclasses.fields(PacketCompeteConfig)) == 5

    def test_round_accounted_refuses_inert_knobs(self):
        g = _udg(30, 36)
        with pytest.raises(ProtocolError, match="packet=True"):
            api.run(
                "broadcast", g, seed=0,
                policy=ExecutionPolicy(engine="reference"),
            )
        with pytest.raises(ProtocolError, match="packet=True"):
            api.run(
                "leader", g, seed=0,
                policy=ExecutionPolicy(validate=True),
            )
        # The same knobs are honored in packet mode.
        report = api.run(
            "broadcast", g, seed=0,
            config=BroadcastConfig(packet=True),
            policy=ExecutionPolicy(engine="reference"),
        )
        assert report.policy.engine == "reference"

    def test_bgi_source_bounds_refused(self):
        g = _udg(30, 37)
        with pytest.raises(ProtocolError, match="out of range"):
            api.run("bgi", g, seed=0, config=BGIConfig(source=99))
        with pytest.raises(ProtocolError, match="out of range"):
            api.run("bgi", g, seed=0, config=BGIConfig(sources=[0, 99]))


#: Every library entry point that takes source nodes, called with one
#: source ``s`` on a network (or graph) ``net``.
_SOURCE_ENTRY_POINTS = {
    "bgi_broadcast": lambda net, s, rng: bgi_broadcast(net, s, rng),
    "bgi_broadcast-sources": lambda net, s, rng: bgi_broadcast(
        net, 0, rng, sources=[0, s]
    ),
    "bgi_broadcast_reference": lambda net, s, rng: (
        bgi_broadcast_reference(net, s, rng)
    ),
    "build_icp_inputs": lambda net, s, rng: build_icp_inputs(
        net.graph, rng, sources={s: 5}
    ),
    "compete_packet": lambda net, s, rng: compete_packet(net, {s: 5}, rng),
    "broadcast_packet": lambda net, s, rng: broadcast_packet(net, s, rng),
}


class TestSourceBounds:
    """A source outside ``[0, n)`` is refused by the library entry
    point itself — a negative index must not wrap to node ``n - 1``."""

    @pytest.mark.parametrize("entry", sorted(_SOURCE_ENTRY_POINTS))
    @pytest.mark.parametrize("where", ["minus-one", "n"])
    def test_out_of_range_source_refused(self, entry, where):
        net = RadioNetwork(_udg(60, 37))
        source = -1 if where == "minus-one" else net.n
        with pytest.raises(ProtocolError, match="out of range"):
            _SOURCE_ENTRY_POINTS[entry](
                net, source, np.random.default_rng(0)
            )
        assert net.steps_elapsed == 0


# ---------------------------------------------------------------------------
# 6. Front-door trials.
# ---------------------------------------------------------------------------
class TestReportTrials:
    def test_reports_are_seed_reproducible(self):
        g = _udg(40, 40)
        a = run_report_trials("decay", g, 3, seed=7)
        b = run_report_trials("decay", g, 3, seed=7)
        assert [r.steps for r in a] == [r.steps for r in b]
        assert [
            (x.result.heard_from == y.result.heard_from).all()
            for x, y in zip(a, b)
        ] == [True, True, True]
        summary = summarize_reports(a)
        assert summary["steps"].count == 3

    def test_policy_travels_into_trials(self):
        g = _udg(40, 41)
        reports = run_report_trials(
            "eed", g, 2, seed=8,
            config=EEDConfig(C=2),
            policy=ExecutionPolicy(mem_budget=1 << 18),
        )
        assert all(r.policy.mem_budget == 1 << 18 for r in reports)

    def test_pooled_networkx_trials_match_serial(self):
        # A networkx target travels in each payload (no shared memory);
        # the policy rides along, and the pool changes no outcome.
        g = _udg(40, 42)
        policy = ExecutionPolicy(
            mem_budget=1 << 18,
            faults=api.FaultSchedule.sample(40, 64, seed=3, crash_rate=0.2),
        )
        pooled = run_report_trials(
            "decay", g, 3, seed=9, policy=policy, processes=2
        )
        serial = run_report_trials("decay", g, 3, seed=9, policy=policy)
        assert pooled == serial


# ---------------------------------------------------------------------------
# 7. From policy to execution: no resolution step.
# ---------------------------------------------------------------------------
class TestPolicyResolution:
    def test_budget_derives_chunk(self):
        p = ExecutionPolicy(mem_budget=64 << 20)
        net = RadioNetwork(_udg(50, 44))
        assert p.runner(net).chunk_steps == chunk_steps_for_budget(
            50, 64 << 20
        )

    def test_report_echoes_the_policy_as_written(self):
        # The policy a caller builds is the policy that runs and the
        # one the report echoes: defaults included, nothing rewritten.
        for policy in (
            ExecutionPolicy(), ExecutionPolicy(mem_budget=1 << 20)
        ):
            report = api.run(
                "decay", _udg(30, 45), seed=1,
                config=DecayConfig(iterations=2), policy=policy,
            )
            assert report.policy == policy
        assert api.run("decay", _udg(30, 45), seed=1).policy == (
            ExecutionPolicy()
        )
        assert ExecutionPolicy().mem_budget == 1 << 28

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().engine = "reference"  # type: ignore[misc]
