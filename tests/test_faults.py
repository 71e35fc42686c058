"""The fault layer's own suite (``repro.faults``).

Four layers of pinning:

1. **Schedule semantics** — :class:`FaultSchedule` is data: validation
   refuses every malformed spec by name, ``sample`` is deterministic in
   its seed, digests are stable provenance keys, pickling round-trips.
2. **Mask transforms** — :class:`FaultState` realizes the schedule as
   pure functions of the global step: lifetime windows, jam deafness,
   hash-coin suppression, and the depleting energy ledger, with the
   chunking-invariance contract checked at arbitrary split points.
3. **Integration** — installation on :class:`RadioNetwork`, the empty
   ≡ none bit-identity through :func:`repro.api.run`, RunReport
   provenance, and policy faults stamped on every front-door trial.
4. **Uniform refusals** — the same :class:`ProtocolError` text from the
   policy constructor, the API, the CLI flag group, and the paths that
   cannot realize faults (round-accounted pipelines, partition, the
   wake-up reduction).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.api as api
from repro import graphs
from repro.analysis import run_report_trials
from repro.api import ExecutionPolicy, FaultSchedule, Jam, RunReport
from repro.baselines import uptime_threshold_election
from repro.cli import main as cli_main
from repro.core import compute_restartable_mis, mis_as_wakeup_strategy
from repro.faults import (
    FaultState,
    node_uptime_fractions,
    validate_faults,
)
from repro.faults.state import _hash_uniform
from repro.radio import RadioNetwork
from repro.radio.errors import ProtocolError


def _udg(n: int = 60, seed: int = 3):
    return graphs.random_udg(n, 4.0, np.random.default_rng(seed))


def _sample(n: int = 60, horizon: int = 2000, seed: int = 11, **rates):
    return FaultSchedule.sample(n, horizon, seed=seed, **rates)


# ---------------------------------------------------------------------------
# 1. Schedule semantics
# ---------------------------------------------------------------------------


class TestScheduleValidation:
    """Every malformed spec refuses by name, before anything runs."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"crashes": ((0, -1),)}, r"crash entries are \(node, step\)"),
            ({"crashes": ((-2, 5),)}, r"crash entries are \(node, step\)"),
            ({"sleeps": ((0, 5, 5),)}, r"0 <= start < stop"),
            ({"sleeps": ((-1, 0, 4),)}, r"sleep entries are"),
            ({"joins": ((-1, 3),)}, r"join entries are"),
            ({"tx_prob": ((0, 1.5),)}, r"tx_prob probability must be in \[0, 1\]"),
            ({"tx_prob": ((0, -0.1),)}, r"tx_prob probability must be in \[0, 1\]"),
            ({"tx_prob": ((-1, 0.5),)}, r"tx_prob entries are"),
            ({"energy": ((0, -2),)}, r"energy entries are \(node, budget\)"),
            ({"energy": ((-1, 2),)}, r"energy entries are \(node, budget\)"),
            ({"horizon": 0}, r"fault horizon must be >= 1 step"),
            ({"seed": "zero"}, r"fault seed must be an integer"),
            ({"crashes": ((0, 1.5),)}, r"crash step must be an integer"),
            # bool is not an acceptable int-like (it would silently mean 0/1)
            ({"seed": True}, r"fault seed must be an integer"),
        ],
    )
    def test_malformed_schedules_refuse(self, kwargs, message):
        with pytest.raises(ProtocolError, match=message):
            FaultSchedule(**kwargs)

    def test_jam_window_form(self):
        with pytest.raises(ProtocolError, match=r"jam windows are \[start, stop\)"):
            Jam(4, 4)
        with pytest.raises(ProtocolError, match=r"jam windows are \[start, stop\)"):
            Jam(-1, 3)
        with pytest.raises(ProtocolError, match="jam region nodes must be >= 0"):
            Jam(0, 2, (-1, 4))

    def test_jam_past_horizon_refuses(self):
        with pytest.raises(
            ProtocolError,
            match=r"jam window \[100, 300\) extends past the declared "
            r"horizon 200",
        ):
            FaultSchedule(jams=(Jam(100, 300),), horizon=200)
        # At the horizon exactly is accepted: [start, stop) ends there.
        FaultSchedule(jams=(Jam(100, 200),), horizon=200)

    def test_crash_at_or_before_join_refuses(self):
        with pytest.raises(ProtocolError, match="strictly after its join"):
            FaultSchedule(crashes=((3, 5),), joins=((3, 5),))
        with pytest.raises(ProtocolError, match="strictly after its join"):
            FaultSchedule(crashes=((3, 2),), joins=((3, 5),))
        # Strictly after is a consistent lifetime.
        FaultSchedule(crashes=((3, 6),), joins=((3, 5),))

    def test_jam_tuples_coerce_to_jam(self):
        schedule = FaultSchedule(jams=((1, 4, None),))
        assert schedule.jams == (Jam(1, 4),)

    @pytest.mark.parametrize(
        "knob", ["crash_rate", "churn", "jam", "hetero"]
    )
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_sample_rate_refusals(self, knob, bad):
        with pytest.raises(ProtocolError, match=r"must be in \[0, 1\]"):
            FaultSchedule.sample(20, 100, **{knob: bad})

    def test_sample_rate_non_number_refuses(self):
        with pytest.raises(ProtocolError, match=r"must be a number in \[0, 1\]"):
            FaultSchedule.sample(20, 100, jam="lots")

    def test_sample_size_refusals(self):
        with pytest.raises(ProtocolError, match="n >= 1 and horizon >= 1"):
            FaultSchedule.sample(0, 100)
        with pytest.raises(ProtocolError, match="n >= 1 and horizon >= 1"):
            FaultSchedule.sample(20, 0)

    def test_validate_faults(self):
        schedule = _sample(crash_rate=0.2)
        assert validate_faults(None) is None
        assert validate_faults(schedule) is schedule
        with pytest.raises(
            ProtocolError, match="faults must be a FaultSchedule or None"
        ):
            validate_faults(42)


class TestScheduleValue:
    """Schedules are data: seeded, hashable, digestible, picklable."""

    def test_sample_is_deterministic_in_seed(self):
        a = _sample(crash_rate=0.2, churn=0.3, jam=0.1, hetero=0.4)
        b = _sample(crash_rate=0.2, churn=0.3, jam=0.1, hetero=0.4)
        c = _sample(seed=12, crash_rate=0.2, churn=0.3, jam=0.1, hetero=0.4)
        assert a == b
        assert a.digest() == b.digest()
        assert a != c
        assert a.digest() != c.digest()

    def test_digest_covers_every_field(self):
        base = FaultSchedule()
        assert base.digest() != FaultSchedule(seed=1).digest()
        assert base.digest() != FaultSchedule(horizon=50).digest()
        assert base.digest() != FaultSchedule(crashes=((0, 1),)).digest()
        assert base.digest() != FaultSchedule(jams=(Jam(0, 5),)).digest()

    def test_is_empty_ignores_seed_and_horizon(self):
        assert FaultSchedule().is_empty
        assert FaultSchedule(seed=9, horizon=50).is_empty
        assert not FaultSchedule(energy=((0, 3),)).is_empty

    def test_max_node_spans_all_fields(self):
        assert FaultSchedule().max_node() == -1
        schedule = FaultSchedule(
            crashes=((2, 10),),
            sleeps=((5, 0, 4),),
            jams=(Jam(0, 3, (7, 1)), Jam(4, 6)),
            tx_prob=((3, 0.5),),
        )
        assert schedule.max_node() == 7

    def test_event_counts(self):
        schedule = FaultSchedule(
            crashes=((0, 1), (1, 2)), jams=(Jam(0, 5),), energy=((2, 4),)
        )
        assert schedule.event_counts() == {
            "crashes": 2,
            "sleeps": 0,
            "joins": 0,
            "jams": 1,
            "tx_prob": 0,
            "energy": 1,
        }

    def test_pickle_round_trip(self):
        schedule = _sample(crash_rate=0.3, churn=0.2, jam=0.1, hetero=0.3)
        twin = pickle.loads(pickle.dumps(schedule))
        assert twin == schedule
        assert twin.digest() == schedule.digest()

    def test_sample_families_and_bounds(self):
        horizon = 640
        crashy = _sample(horizon=horizon, crash_rate=0.5)
        assert crashy.crashes and not (crashy.sleeps or crashy.joins)
        churny = _sample(horizon=horizon, churn=0.8)
        assert churny.sleeps and churny.joins
        jammy = _sample(horizon=horizon, jam=0.3)
        assert jammy.jams
        assert all(j.stop <= horizon for j in jammy.jams)
        hetero = _sample(horizon=horizon, hetero=0.8)
        assert hetero.tx_prob and hetero.energy
        assert all(0.3 <= p < 0.95 for _, p in hetero.tx_prob)
        assert all(b >= 1 for _, b in hetero.energy)
        # Drawn lifetimes are consistent by construction: late-joining
        # nodes crash strictly after their join (post_init would refuse).
        mixed = _sample(horizon=horizon, crash_rate=0.9, churn=0.9)
        joins = dict(mixed.joins)
        assert all(
            step > joins[node]
            for node, step in mixed.crashes
            if node in joins
        )


# ---------------------------------------------------------------------------
# 2. Mask transforms
# ---------------------------------------------------------------------------


class TestFaultState:
    def test_needs_a_schedule(self):
        with pytest.raises(ProtocolError, match="FaultState needs a FaultSchedule"):
            FaultState({"crashes": []}, 5)

    def test_node_out_of_range_refuses(self):
        schedule = FaultSchedule(crashes=((10, 3),))
        with pytest.raises(
            ProtocolError,
            match=r"names node 10 but the network has only 5 nodes "
            r"\(valid nodes are 0\.\.4\)",
        ):
            FaultState(schedule, 5)

    def test_alive_window_lifetimes(self):
        schedule = FaultSchedule(
            crashes=((0, 4),), joins=((1, 3),), sleeps=((2, 2, 5),)
        )
        alive = FaultState(schedule, 3).alive_window(0, 6)
        assert alive[:, 0].tolist() == [True] * 4 + [False] * 2
        assert alive[:, 1].tolist() == [False] * 3 + [True] * 3
        assert alive[:, 2].tolist() == [True, True, False, False, False, True]

    def test_deaf_window_down_plus_jammed(self):
        schedule = FaultSchedule(
            crashes=((0, 2),), jams=(Jam(1, 3), Jam(0, 6, (1,)))
        )
        state = FaultState(schedule, 3)
        alive = state.alive_window(0, 6)
        deaf = state.deaf_window(0, 6, alive)
        # Node 1 is region-jammed the whole window.
        assert deaf[:, 1].all()
        # Node 2 only during the global jam [1, 3).
        assert deaf[:, 2].tolist() == [False, True, True, False, False, False]
        # Node 0: global jam, plus down (crashed) from step 2.
        assert deaf[:, 0].tolist() == [False, True, True, True, True, True]

    def test_transform_counters_and_silence(self):
        schedule = FaultSchedule(crashes=((0, 0),))
        state = FaultState(schedule, 4)
        masks = np.ones((5, 4), dtype=bool)
        effective, deaf = state.transform_window(masks.copy(), 0)
        assert not effective[:, 0].any()
        assert effective[:, 1:].all()
        assert deaf[:, 0].all() and not deaf[:, 1:].any()
        assert state.realized["steps_faulted"] == 5
        assert state.realized["suppressed_transmissions"] == 5
        state.note_silenced(3)
        assert state.realized["silenced_receptions"] == 3

    def test_energy_ledger_depletes_exactly(self):
        schedule = FaultSchedule(energy=((1, 3),))
        state = FaultState(schedule, 2)
        masks = np.ones((10, 2), dtype=bool)
        effective, deaf = state.transform_window(masks.copy(), 0)
        # Exactly the first 3 transmissions of node 1 go out.
        assert effective[:, 1].tolist() == [True] * 3 + [False] * 7
        assert effective[:, 0].all()
        assert state.energy_remaining[1] == 0
        assert state.energy_remaining[0] == -1  # unlimited
        # Exhausted nodes stay up and keep hearing.
        assert not deaf.any()
        # Further windows stay silent for the exhausted node.
        again, _ = state.transform_window(masks.copy(), 10)
        assert not again[:, 1].any()

    def test_chunk_invariance_at_arbitrary_splits(self):
        n, width = 12, 24
        schedule = FaultSchedule(
            crashes=((0, 9),),
            sleeps=((1, 4, 15),),
            joins=((2, 6),),
            jams=(Jam(3, 8), Jam(10, 20, (4, 5))),
            tx_prob=((6, 0.5), (7, 0.25)),
            energy=((8, 5), (6, 3)),
            seed=77,
        )
        rng = np.random.default_rng(5)
        masks = rng.random((width, n)) < 0.6
        whole = FaultState(schedule, n)
        eff_whole, deaf_whole = whole.transform_window(masks.copy(), 0)
        for bounds in ([7, 12], [1, 2, 3, 23], [11]):
            chunked = FaultState(schedule, n)
            effs, deafs = [], []
            for lo, hi in zip([0] + bounds, bounds + [width]):
                e, d = chunked.transform_window(masks[lo:hi].copy(), lo)
                effs.append(e)
                deafs.append(d)
            np.testing.assert_array_equal(np.vstack(effs), eff_whole)
            np.testing.assert_array_equal(np.vstack(deafs), deaf_whole)
            np.testing.assert_array_equal(
                chunked.energy_remaining, whole.energy_remaining
            )
        assert whole.realized["suppressed_transmissions"] > 0

    def test_column_restricted_transform_matches_full(self):
        # The transmitter-list form sees only the transmitters' columns;
        # every transform is keyed on GLOBAL node ids and the global
        # step clock, so filtering the pairs must equal the full-width
        # window transform — including the hash coins (tx_prob), the
        # energy ledger, and the realized counters — and the point-wise
        # deafness test must equal the deaf window on those columns.
        n, width = 12, 24
        schedule = FaultSchedule(
            crashes=((0, 9),),
            sleeps=((1, 4, 15),),
            joins=((2, 6),),
            jams=(Jam(3, 8), Jam(10, 20, (4, 5))),
            tx_prob=((6, 0.5), (7, 0.25)),
            energy=((8, 5), (6, 3)),
            seed=77,
        )
        cols = np.array([0, 1, 2, 4, 6, 7, 8, 10], dtype=np.int64)
        rng = np.random.default_rng(5)
        masks = np.zeros((width, n), dtype=bool)
        masks[:, cols] = rng.random((width, cols.size)) < 0.6
        full = FaultState(schedule, n)
        eff_full, deaf_full = full.transform_window(masks.copy(), 0)
        restricted = FaultState(schedule, n)
        steps, nodes = np.nonzero(masks)
        steps, nodes = restricted.filter_coo(steps, nodes, 0, width)
        kept = np.zeros_like(masks)
        kept[steps, nodes] = True
        np.testing.assert_array_equal(kept, eff_full)
        np.testing.assert_array_equal(
            restricted.energy_remaining, full.energy_remaining
        )
        assert restricted.realized == full.realized
        grid_steps, grid_nodes = np.meshgrid(
            np.arange(width), cols, indexing="ij"
        )
        np.testing.assert_array_equal(
            restricted.deaf_at(grid_steps.ravel(), grid_nodes.ravel()),
            deaf_full[:, cols].ravel(),
        )

    def test_column_restricted_transform_is_chunk_invariant(self):
        # Crashes and late-joins landing mid-window on the transmitter
        # list: splitting it at arbitrary points realizes the identical
        # effective transmitters and ledger.
        n, width = 10, 20
        schedule = FaultSchedule(
            crashes=((0, 7),), joins=((3, 11),), energy=((5, 4),),
            tx_prob=((2, 0.5),), seed=9,
        )
        cols = np.array([0, 2, 3, 5, 8], dtype=np.int64)
        rng = np.random.default_rng(8)
        masks = np.zeros((width, n), dtype=bool)
        masks[:, cols] = rng.random((width, cols.size)) < 0.7
        whole = FaultState(schedule, n)
        steps, nodes = np.nonzero(masks)
        eff_whole = whole.filter_coo(steps, nodes, 0, width)
        for bounds in ([6, 13], [1, 2, 3, 19], [10]):
            chunked = FaultState(schedule, n)
            parts = []
            for lo, hi in zip([0] + bounds, bounds + [width]):
                s, v = np.nonzero(masks[lo:hi])
                s, v = chunked.filter_coo(s, v, lo, hi - lo)
                parts.append((s + lo, v))
            np.testing.assert_array_equal(
                np.concatenate([p[0] for p in parts]), eff_whole[0]
            )
            np.testing.assert_array_equal(
                np.concatenate([p[1] for p in parts]), eff_whole[1]
            )
            np.testing.assert_array_equal(
                chunked.energy_remaining, whole.energy_remaining
            )
            assert chunked.realized == whole.realized

    def test_transform_step_is_the_one_row_form(self):
        schedule = FaultSchedule(sleeps=((0, 2, 4),), seed=3)
        a, b = FaultState(schedule, 3), FaultState(schedule, 3)
        transmit = np.array([True, True, False])
        for step in range(5):
            eff_s, deaf_s = a.transform_step(transmit.copy(), step)
            eff_w, deaf_w = b.transform_window(transmit[None, :].copy(), step)
            np.testing.assert_array_equal(eff_s, eff_w[0])
            np.testing.assert_array_equal(deaf_s, deaf_w[0])

    def test_clone_carries_the_ledger_independently(self):
        schedule = FaultSchedule(energy=((0, 4),))
        state = FaultState(schedule, 2)
        state.transform_window(np.ones((3, 2), dtype=bool), 0)
        twin = state.clone()
        assert twin.energy_remaining[0] == state.energy_remaining[0] == 1
        assert twin.realized == state.realized
        twin.transform_window(np.ones((3, 2), dtype=bool), 3)
        assert twin.energy_remaining[0] == 0
        assert state.energy_remaining[0] == 1  # original untouched

    def test_hash_uniform_is_stateless_and_in_range(self):
        steps = np.arange(0, 50, dtype=np.uint64)[:, None]
        nodes = np.arange(0, 8, dtype=np.uint64)[None, :]
        coins = _hash_uniform(9, steps, nodes)
        assert coins.shape == (50, 8)
        assert ((coins >= 0.0) & (coins < 1.0)).all()
        # Counter-based: any restriction of the key grid reproduces it.
        np.testing.assert_array_equal(
            _hash_uniform(9, steps[17:30], nodes[:, 2:5]), coins[17:30, 2:5]
        )
        assert not np.array_equal(_hash_uniform(10, steps, nodes), coins)

    def test_uptime_fractions_math(self):
        schedule = FaultSchedule(
            crashes=((0, 4), (3, 5)),
            joins=((1, 6),),
            sleeps=((2, 2, 5), (3, 3, 20)),
            jams=(Jam(0, 10),),
        )
        up = FaultState(schedule, 5).uptime_fractions(10)
        # crash at 4 -> 4 steps up; join at 6 -> 4 steps up; sleep [2,5)
        # -> 7 up; crash at 5 with sleep [3,20) clipped to [3,5) -> 3 up;
        # jamming never reduces uptime (node 4 is jammed but up).
        np.testing.assert_allclose(up, [0.4, 0.4, 0.7, 0.3, 1.0])
        with pytest.raises(ProtocolError, match="uptime horizon must be >= 1"):
            FaultState(schedule, 5).uptime_fractions(0)

    def test_node_uptime_fractions_fault_free_limit(self):
        net = RadioNetwork(_udg(20))
        np.testing.assert_array_equal(
            node_uptime_fractions(net, 100), np.ones(20)
        )
        with pytest.raises(ProtocolError, match="uptime horizon must be >= 1"):
            node_uptime_fractions(net, 0)
        faulted = RadioNetwork(_udg(20), faults=FaultSchedule(crashes=((0, 5),)))
        assert node_uptime_fractions(faulted, 10)[0] == 0.5


# ---------------------------------------------------------------------------
# 3. Integration: installation, bit-identity, provenance, trials
# ---------------------------------------------------------------------------


class TestNetworkInstallation:
    def test_empty_schedule_installs_no_state(self):
        net = RadioNetwork(_udg(20), faults=FaultSchedule(seed=7))
        assert net.faults == FaultSchedule(seed=7)
        assert net._fault_state is None

    def test_install_refusals(self):
        net = RadioNetwork(_udg(20))
        net.install_faults(None)  # explicit no-op
        with pytest.raises(
            ProtocolError, match="install_faults needs a FaultSchedule"
        ):
            net.install_faults("crash everything")
        schedule = FaultSchedule(crashes=((1, 5),))
        net.install_faults(schedule)
        net.install_faults(FaultSchedule(crashes=((1, 5),)))  # idempotent
        with pytest.raises(
            ProtocolError, match="a different FaultSchedule is already installed"
        ):
            net.install_faults(FaultSchedule(crashes=((1, 6),)))

    def test_schedule_wider_than_network_refuses(self):
        with pytest.raises(ProtocolError, match="names node 90 but"):
            RadioNetwork(_udg(20), faults=FaultSchedule(crashes=((90, 5),)))

    @pytest.mark.parametrize("protocol", ["decay", "mis"])
    def test_empty_schedule_is_bit_identical_to_none(self, protocol):
        g = _udg(50, seed=9)
        plain = api.run(protocol, g, seed=21)
        empty = api.run(
            protocol, g, seed=21, policy=ExecutionPolicy(faults=FaultSchedule())
        )
        assert empty.steps == plain.steps
        assert empty.provenance["faults"] is None
        assert plain.provenance["faults"] is None
        assert repr(empty.result) == repr(plain.result)


class TestProvenance:
    def test_report_carries_digest_events_and_realized(self):
        g = _udg(50, seed=9)
        schedule = _sample(n=50, seed=4, crash_rate=0.1, churn=0.2, jam=0.1)
        report = api.run(
            "mis", g, seed=21, policy=ExecutionPolicy(faults=schedule)
        )
        assert isinstance(report, RunReport)
        prov = report.provenance["faults"]
        assert prov["digest"] == schedule.digest()
        assert prov["events"] == schedule.event_counts()
        assert prov["realized"]["steps_faulted"] > 0
        assert prov["realized"]["suppressed_transmissions"] >= 0
        assert report.row()["faults"] == schedule.digest()

    def test_fault_free_rows_say_none(self):
        report = api.run("decay", _udg(30), seed=2)
        assert report.row()["faults"] is None


class TestRunTrialsThreading:
    def test_run_report_trials_stamps_every_report(self):
        g = _udg(40, seed=6)
        schedule = _sample(n=40, seed=8, churn=0.3)
        reports = run_report_trials(
            "mis", g, 2, 0, policy=ExecutionPolicy(faults=schedule)
        )
        assert len(reports) == 2
        for report in reports:
            assert report.provenance["faults"]["digest"] == schedule.digest()


# ---------------------------------------------------------------------------
# 4. Uniform refusals across surfaces
# ---------------------------------------------------------------------------


class TestUniformRefusals:
    def test_policy_constructor_refuses_bad_faults(self):
        with pytest.raises(
            ProtocolError, match="faults must be a FaultSchedule or None"
        ):
            ExecutionPolicy(faults=3.14)

    def test_cli_refuses_malformed_rates_with_the_same_text(self, capsys):
        rc = cli_main(
            ["decay", "--graph", "clique", "--n", "16", "--seed", "1",
             "--crash-rate", "-0.5"]
        )
        assert rc == 2
        assert "crash rate must be in [0, 1]" in capsys.readouterr().err

    def test_cli_refuses_inert_fault_paths(self, capsys):
        rc = cli_main(
            ["broadcast", "--graph", "clique", "--n", "16", "--seed", "1",
             "--jam", "0.2"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot realize a FaultSchedule" in err
        assert "packet=True" in err

    @pytest.mark.parametrize("protocol", ["broadcast", "leader", "partition"])
    def test_api_refuses_inert_fault_paths(self, protocol):
        g = _udg(30)
        schedule = _sample(n=30, crash_rate=0.2)
        with pytest.raises(
            ProtocolError, match="cannot realize a FaultSchedule"
        ):
            api.run(
                protocol, g, seed=1, policy=ExecutionPolicy(faults=schedule)
            )
        # The empty schedule is bit-identical to none, so it passes.
        api.run(
            protocol, g, seed=1, policy=ExecutionPolicy(faults=FaultSchedule())
        )

    def test_wakeup_reduction_refuses_caller_faults(self):
        schedule = _sample(n=8, crash_rate=0.3)
        with pytest.raises(ProtocolError, match="cannot\\s+apply"):
            mis_as_wakeup_strategy(
                64, 8, np.random.default_rng(0),
                policy=ExecutionPolicy(faults=schedule),
            )


# ---------------------------------------------------------------------------
# 5. Robustness variants (the fuzz/contract suites pin their twins;
#    here: the degraded-guarantee semantics).
# ---------------------------------------------------------------------------


class TestRobustnessVariants:
    def test_uptime_election_fault_free_elects(self):
        net = RadioNetwork(_udg(50, seed=9))
        result = uptime_threshold_election(
            net, np.random.default_rng(3), threshold=0.5
        )
        assert result.elected
        assert result.candidates == 50
        assert 0 <= result.leader < 50

    def test_uptime_election_zero_candidates_collapses(self):
        n = 30
        schedule = FaultSchedule(
            crashes=tuple((node, 1) for node in range(n)), horizon=400
        )
        net = RadioNetwork(_udg(n), faults=schedule)
        result = uptime_threshold_election(
            net, np.random.default_rng(3), threshold=0.5
        )
        assert not result.elected
        assert result.leader == -1
        assert result.candidates == 0
        assert result.steps == 0

    def test_uptime_election_threshold_validation(self):
        net = RadioNetwork(_udg(30))
        with pytest.raises(ValueError, match="threshold"):
            uptime_threshold_election(
                net, np.random.default_rng(0), threshold=1.5
            )

    def test_restartable_mis_fault_free_is_maximal(self):
        g = _udg(60, seed=4)
        net = RadioNetwork(g)
        result = compute_restartable_mis(net, np.random.default_rng(2))
        assert result.conflict_edges == 0
        assert result.dominated_fraction == 1.0
        mis = set(result.mis)
        for u, v in g.edges():
            assert not (u in mis and v in mis)
        for node in g.nodes():
            assert node in mis or any(v in mis for v in g.neighbors(node))

    def test_restartable_mis_readmits_woken_nodes(self):
        n = 60
        schedule = _sample(n=n, horizon=3000, seed=5, churn=0.5)
        net = RadioNetwork(_udg(n, seed=4), faults=schedule)
        result = compute_restartable_mis(net, np.random.default_rng(2))
        assert result.epochs_used >= 2
        assert 0.0 <= result.dominated_fraction <= 1.0
        assert len(result.history) == result.epochs_used
