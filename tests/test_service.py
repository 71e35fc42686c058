"""Tests for the experiment service (repro.service) and its wire format.

The load-bearing contracts:

1. **Wire round-trip** — ``RunReport.from_json(r.to_json()) == r``
   under the report's own outcome equality, for reports carrying
   ndarray payloads, nested dataclasses, sets, and fault provenance;
   the codec refuses foreign dataclasses and malformed documents by
   name.
2. **Pure-function store** — a job is determined by its
   :class:`~repro.service.JobKey`; the store serves repeats as cache
   hits, writes atomically, checks each entry's checksum on every read
   (a damaged entry is quarantined and missed, by the full read and
   the scalar read alike), and two racing writers of one key are
   benign.
3. **Campaign = harness** — a store-backed campaign over one cell is
   bit-identical, report for report and aggregate for aggregate, to
   :func:`~repro.analysis.experiments.run_report_trials` — pooled or
   serial, uninterrupted or killed-and-resumed.
4. **HTTP front** — submit/status/stream/jobs/fetch/cancel over a live
   asyncio server, uniform ``ProtocolError``-shaped refusals on 4xx,
   and resubmission of a completed campaign is pure cache hits.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest

import repro.api as api
from repro import graphs
from repro.analysis.experiments import (
    TrialStats,
    _run_one_report,
    run_report_trials,
    summarize_reports,
)
from repro.api.report import RunReport
from repro.api.wire import (
    TAG,
    decode_value,
    encode_value,
    report_from_json,
    report_to_json,
)
from repro.corpus.generate import random_udg_csr
from repro.corpus.store import CorpusStore
from repro.engine.policy import ExecutionPolicy
from repro.engine.sampler import STREAM_VERSION
from repro.engine.streaming import STREAM_CELL_BYTES
from repro.faults import FaultSchedule
from repro.radio.errors import ProtocolError
from repro.service import (
    Campaign,
    CampaignSpec,
    JobKey,
    ReportStore,
    ServiceClient,
    ServiceError,
    config_digest,
    faults_digest,
    policy_digest,
    run_campaign,
    start_in_thread,
)
from repro.service.store import report_scalars


_Pair = collections.namedtuple("_Pair", "a b")


def _bits(value):
    """A float by its IEEE bits (NaN payloads and -0.0 included)."""
    return struct.pack("<d", value) if type(value) is float else value


def _item_wise(document):
    """A wire document as written before the ``rows`` form existed:
    every table spelled item by item, as nested ``tuple`` objects."""
    if isinstance(document, list):
        return [_item_wise(v) for v in document]
    if not isinstance(document, dict):
        return document
    if document.get(TAG) == "rows":
        return {
            TAG: "tuple",
            "items": [
                {TAG: "tuple", "items": list(row)}
                for row in decode_value(document)
            ],
        }
    return {k: _item_wise(v) for k, v in document.items()}


def _format_1(key: JobKey, tagged) -> str:
    """A store entry as written before entries carried a checksum
    (format 1): one JSON document of the key fields and a tagged
    report. Every read now quarantines one."""
    return json.dumps({
        "format": 1,
        "key": key.asdict(),
        "digest": key.digest,
        "report": tagged,
    })


def _entry(key: JobKey, report: RunReport, tagged=None) -> bytes:
    """A store entry laid out as :meth:`ReportStore.put` writes one —
    checksum line, header with the report's scalars, tagged report —
    around ``tagged`` (default: ``report``'s own tagged form)."""
    steps, wall, peak = report_scalars(report)
    header = {
        "format": 2, "key": key.asdict(), "digest": key.digest,
        "scalars": {
            "steps": steps, "wall_time_s": wall, "peak_mem_bytes": peak,
        },
    }
    return _checksummed((
        json.dumps(header) + "\n"
        + json.dumps(encode_value(report) if tagged is None else tagged)
    ).encode())


def _checksummed(body: bytes) -> bytes:
    """``body`` under the checksum line every store entry starts with."""
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def _bump_digit(line: bytes, after: bytes) -> bytes:
    """``line`` with the last digit of the number after ``after``
    changed: the line stays valid JSON, its number does not."""
    start = end = line.index(after) + len(after)
    while line[end:end + 1].isdigit():
        end += 1
    assert end > start, line[start:start + 16]
    digit = (int(line[end - 1:end]) + 1) % 10
    return line[:end - 1] + str(digit).encode() + line[end:]


def _chunked(rows: int, n: int = 60) -> ExecutionPolicy:
    """A non-default policy: a budget buying ``rows``-row chunks over
    ``n`` nodes."""
    return ExecutionPolicy(mem_budget=rows * n * STREAM_CELL_BYTES)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One corpus with two small graphs, shared across the module."""
    root = tmp_path_factory.mktemp("service")
    corpus = CorpusStore(root / "corpus")
    g1 = random_udg_csr(60, 5.0, np.random.default_rng(1))
    g2 = random_udg_csr(40, 4.0, np.random.default_rng(2))
    return corpus, corpus.add(g1), corpus.add(g2)


# ---------------------------------------------------------------------------
# wire format


class TestWire:
    def test_mis_report_round_trips(self):
        report = api.run("mis", graphs.random_udg(50, 4.0, np.random.default_rng(3)),
                         rng=np.random.default_rng(7))
        again = RunReport.from_json(report.to_json())
        assert again == report  # outcome equality: arrays byte-exact
        assert np.array_equal(
            np.asarray(again.result.mis), np.asarray(report.result.mis)
        )

    def test_decay_report_with_faults_round_trips(self):
        graph = graphs.random_udg(40, 4.0, np.random.default_rng(5))
        faults = FaultSchedule.sample(40, 64, seed=9, crash_rate=0.2)
        report = api.run(
            "decay", graph, rng=np.random.default_rng(1),
            policy=ExecutionPolicy(faults=faults),
        )
        again = RunReport.from_json(report.to_json())
        assert again == report
        assert again.provenance["faults"]["digest"] == \
            report.provenance["faults"]["digest"]
        # The schedule's event tables travel as columns; only its
        # empty tables remain (empty) item-wise tuples.
        text = report.to_json()
        assert text.count('"rows"') == 1  # crashes
        assert text.count('"tuple"') == text.count('"tuple", "items": []')

    @pytest.mark.parametrize(
        "table",
        [
            ((0, 5), (3, 1), (7, 2)),  # int columns
            ((0.5, 0.25), (1.0, 0.0)),  # float columns
            ((4, 0.5), (9, 0.75)),  # an (int, float) table
            ((-3, -(1 << 63)), ((1 << 63) - 1, -1)),  # negative, int64 ends
            ((1, -0.0), (2, math.inf), (3, -math.inf)),
            ((1, math.nan), (2, -math.nan)),
            ((7, 8, 9),),  # one row
            ((1,), (2,), (3,)),  # one column
        ],
    )
    def test_tables_travel_as_rows_exactly(self, table):
        wire = encode_value(table)
        assert wire[TAG] == "rows" and len(wire["columns"]) == len(table[0])
        again = decode_value(json.loads(json.dumps(wire)))
        assert type(again) is tuple and len(again) == len(table)
        for got, want in zip(again, table):
            assert type(got) is tuple
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [_bits(v) for v in got] == [_bits(v) for v in want]

    @pytest.mark.parametrize(
        "value",
        [
            ((True, 1), (False, 2)),  # bools
            ((np.int64(1), 2), (np.int64(3), 4)),  # numpy scalars
            ((1 << 63, 1), (2, 3)),  # outside int64
            ((1, 2), (1.5, 3)),  # a column mixing int and float
            ((1, 2), (3,)),  # ragged rows
            (((1, 2), 3), ((4, 5), 6)),  # nested tuples
            ((), ()),  # empty rows
            (),
            _Pair((1, 2), (3, 4)),  # a namedtuple of rows
            (_Pair(1, 2), _Pair(3, 4)),  # namedtuple rows
        ],
    )
    def test_other_tuples_travel_item_wise(self, value):
        wire = encode_value(value)
        assert wire[TAG] == "tuple"
        again = decode_value(json.loads(json.dumps(wire)))
        assert type(again) is tuple and again == value

    @pytest.mark.parametrize(
        "document",
        [
            {TAG: "rows", "columns": [
                encode_value(np.arange(2, dtype=np.int64)),
                encode_value(np.arange(3, dtype=np.int64)),
            ]},  # unequal column lengths
            {TAG: "rows", "columns": [
                encode_value(np.zeros((2, 2), dtype=np.int64)),
            ]},  # a 2-d column
            {TAG: "rows", "columns": [[1, 2]]},  # not an array
            {TAG: "rows", "columns": [
                encode_value(np.arange(2, dtype=np.int32)),
            ]},  # another dtype
            {TAG: "rows", "columns": []},  # no columns
            {TAG: "rows"},
        ],
    )
    def test_malformed_rows_refuse(self, document):
        with pytest.raises(ProtocolError, match="rows object"):
            decode_value(document)

    @pytest.mark.parametrize("name", ["broadcast", "leader"])
    def test_round_accounted_reports_are_values(self, name):
        # The round ledger is a value: same-seed reports compare equal
        # (the store's cache-hit check) and survive the wire.
        graph = graphs.random_udg(120, 4.0, np.random.default_rng(3))
        report = api.run(name, graph, seed=1)
        assert report == api.run(name, graph, seed=1)
        assert report_from_json(report_to_json(report)) == report

    def test_round_trip_preserves_measurements(self):
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        again = RunReport.from_json(report.to_json())
        # Excluded from ==, so pin them explicitly.
        assert again.wall_time_s == report.wall_time_s
        assert again.peak_mem_bytes == report.peak_mem_bytes

    def test_scalar_and_container_kinds_round_trip(self):
        value = {
            "array": np.arange(7, dtype=np.int32),
            "floats": np.linspace(0, 1, 5),
            "set": {3, 1, 2},
            "frozen": frozenset({"b", "a"}),
            "tuple": (1, "two", None),
            "bytes": b"\x00\xff",
            "intkeys": {0: "zero", 1: "one"},
        }
        again = decode_value(json.loads(json.dumps(encode_value(value))))
        assert again["set"] == value["set"]
        assert isinstance(again["frozen"], frozenset)
        assert again["tuple"] == value["tuple"]
        assert again["bytes"] == value["bytes"]
        assert again["intkeys"] == value["intkeys"]
        assert np.array_equal(again["array"], value["array"])
        assert again["array"].dtype == np.int32

    def test_foreign_dataclass_refused_by_name(self):
        @dataclasses.dataclass
        class Foreign:
            x: int = 1

        with pytest.raises(ProtocolError, match="repro"):
            encode_value(Foreign())

    def test_decode_refuses_unknown_class_and_fields(self):
        doc = encode_value(ExecutionPolicy())
        hostile = dict(doc, **{"class": "os:system"})
        with pytest.raises(ProtocolError, match="repro"):
            decode_value(hostile)
        bad_fields = json.loads(json.dumps(doc))
        bad_fields["fields"]["not_a_field"] = 1
        with pytest.raises(ProtocolError, match="not_a_field"):
            decode_value(bad_fields)

    def test_from_json_refuses_non_report_documents(self):
        with pytest.raises(ProtocolError, match="RunReport"):
            RunReport.from_json(json.dumps(encode_value({"a": 1})))
        with pytest.raises(ProtocolError, match="JSON"):
            RunReport.from_json("{not json")


# ---------------------------------------------------------------------------
# TrialStats.merge + empty-aggregate refusals (satellite bugfix)


class TestAggregates:
    def test_merge_matches_from_values(self):
        rng = np.random.default_rng(11)
        values = rng.normal(5.0, 2.0, size=37)
        whole = TrialStats.from_values(values)
        merged = TrialStats.from_values(values[:13]).merge(
            TrialStats.from_values(values[13:])
        )
        assert merged.count == whole.count
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum
        assert math.isclose(merged.mean, whole.mean, rel_tol=1e-12)
        assert math.isclose(merged.std, whole.std, rel_tol=1e-12)

    def test_merge_single_values_chain(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        stats = TrialStats.from_values(values[:1])
        for v in values[1:]:
            stats = stats.merge(TrialStats.from_values([v]))
        whole = TrialStats.from_values(values)
        assert stats.count == whole.count
        assert math.isclose(stats.mean, whole.mean, rel_tol=1e-12)
        assert math.isclose(stats.std, whole.std, rel_tol=1e-12)

    def test_merge_refuses_non_stats(self):
        stats = TrialStats.from_values([1.0])
        with pytest.raises(ProtocolError, match="TrialStats"):
            stats.merge({"mean": 0.0})

    def test_from_values_refuses_empty(self):
        with pytest.raises(ProtocolError, match="zero trials"):
            TrialStats.from_values([])

    def test_summarize_reports_refuses_empty(self):
        with pytest.raises(ProtocolError, match="zero reports"):
            summarize_reports([])


# ---------------------------------------------------------------------------
# store


class TestStore:
    def _key(self, **kw):
        base = dict(protocol="decay", graph="ab" * 8, seed=0, trial=0,
                    policy=policy_digest(ExecutionPolicy(), 64))
        base.update(kw)
        return JobKey(**base)

    def test_key_digest_is_stable_and_distinct(self):
        a, b = self._key(), self._key()
        assert a.digest == b.digest
        assert a.digest != self._key(trial=1).digest
        assert a.digest != self._key(seed=1).digest
        assert a.digest != self._key(faults="f" * 16).digest
        assert a.digest != self._key(config="c" * 16).digest

    def test_key_digest_is_computed_once_outside_the_fields(self):
        # Literals read before the digest was cached: the addresses
        # did not move.
        a = self._key()
        b = self._key(protocol="mis", seed=7, trial=5,
                      faults="f" * 16, config="c" * 16)
        assert a.digest == (
            "69869ee4c2d76c0326fed6c59b900a81b864927d47cba192576b299e3366c48f"
        )
        assert b.digest == (
            "aefdc5cd38c3913e162a61762b9dd0ba0e99797be5d96135db3971c99fd60c6a"
        )
        assert a.__dict__["_digest"] == a.digest
        # Equality, hashing and the key fields ignore the cached value.
        fresh = self._key()
        assert "_digest" not in fresh.__dict__
        assert a == fresh and hash(a) == hash(fresh)
        assert a.asdict() == fresh.asdict() == dataclasses.asdict(fresh)
        # A pickle (what pool workers receive) carries it.
        import pickle

        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and clone.__dict__["_digest"] == a.digest

    def test_config_digest_separates_configs(self):
        assert config_digest(None) == "none"
        one = config_digest(api.DecayConfig(iterations=1))
        assert one == config_digest(api.DecayConfig(iterations=1))
        assert one != config_digest(api.DecayConfig(iterations=3))
        assert one != "none"

    def test_key_refusals_name_the_field(self):
        with pytest.raises(ProtocolError, match="protocol"):
            self._key(protocol="")
        with pytest.raises(ProtocolError, match="trial"):
            self._key(trial=-1)
        with pytest.raises(ProtocolError, match="seed"):
            self._key(seed="zero")

    def test_policy_digest_resolves_and_strips_faults(self):
        # No resolution step: the digest is the policy as written. A
        # policy has one spelling, so the default and its explicit
        # form share a key, and the graph size never moves it.
        default = ExecutionPolicy()
        explicit = ExecutionPolicy(engine="windowed", mem_budget=256 << 20)
        assert policy_digest(explicit, 64) == policy_digest(default, 64)
        assert policy_digest(default, 64) == policy_digest(default, 2000)
        assert policy_digest(default) == policy_digest(default, 64)
        assert policy_digest(
            ExecutionPolicy(engine="reference"), 64
        ) != policy_digest(default, 64)
        assert policy_digest(_chunked(8)) != policy_digest(default)
        faults = FaultSchedule.sample(64, 32, seed=1, crash_rate=0.5)
        with_faults = dataclasses.replace(default, faults=faults)
        assert policy_digest(with_faults, 64) == policy_digest(default, 64)
        assert faults_digest(with_faults) == faults.digest()
        assert faults_digest(default) == "none"

    @pytest.mark.parametrize("policy, digest", [
        (ExecutionPolicy(),
         "a95cc31f0631316c4afde8f262cb159cb935c799ce3589416a3f7a46aa441487"),
        (ExecutionPolicy(mem_budget=256 << 20),
         "a95cc31f0631316c4afde8f262cb159cb935c799ce3589416a3f7a46aa441487"),
        (_chunked(8, 2000),
         "4cee9c1eb0438cce7fd03ba7b2f2735bea662664910f3405872770efb1357479"),
        (ExecutionPolicy(faults=FaultSchedule.sample(
            2000, 512, seed=7, crash_rate=0.05, churn=0.1)),
         "bbe1e60315e80c7224a40162591ba9b0cd200bb30a7663f8ffb1a74828fb926f"),
    ], ids=["default", "budget-256M", "chunk-8", "faults"])
    def test_store_keys_are_pinned(self, policy, digest):
        # Served stores outlive code changes: these addresses must not
        # move unless the stream version or the key document does.
        # The default policy is the 256M budget, so the two share one
        # address; ``chunk-8`` is the budget that buys 8-row chunks at
        # n = 2000.
        key = JobKey(protocol="decay", graph="5eed" * 16, seed=11, trial=3,
                     policy=policy_digest(policy, 2000),
                     faults=faults_digest(policy))
        assert key.digest == digest

    def test_put_get_round_trip_and_counters(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        assert store.get(key) is None
        assert key not in store
        path = store.put(key, report)
        assert path.is_file()
        assert key in store
        assert store.get(key) == report
        assert store.stats() == {
            "hits": 1, "misses": 1, "writes": 1, "quarantined": 0,
            "entries": 1,
        }
        assert list(store.digests()) == [key.digest]

    def test_put_writes_the_one_shot_encoding(self, tmp_path):
        # One json.dumps call writes exactly the bytes json.dump would
        # stream, so the entry format does not depend on the encoder.
        # The entry is format 2: the sha256 hex of the rest, the header
        # (key fields and scalars), the one-shot report.
        store = ReportStore(tmp_path / "reports")
        faults = FaultSchedule.sample(30, 16, seed=2, crash_rate=0.2)
        report = api.run(
            "decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
            rng=np.random.default_rng(0),
            policy=ExecutionPolicy(faults=faults),
        )
        key = self._key()
        path = store.put(key, report)
        header = {
            "format": 2,
            "key": key.asdict(),
            "digest": key.digest,
            "scalars": {
                "steps": report.steps,
                "wall_time_s": report.wall_time_s,
                "peak_mem_bytes": report.peak_mem_bytes,
            },
        }
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w") as handle:
            json.dump(header, handle)
            handle.write("\n")
            json.dump(encode_value(report), handle)
        rest = streamed.read_bytes()
        checksum = hashlib.sha256(rest).hexdigest().encode()
        assert path.read_bytes() == checksum + b"\n" + rest
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_listing_skips_dotfiles(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        path = store.put(key, report)
        # A crash-orphaned tempfile beside the entry, and a quarantined
        # copy, are not entries.
        (path.parent / ".tmp-x.json").write_text("{")
        (tmp_path / "reports" / ".quarantine").mkdir()
        (tmp_path / "reports" / ".quarantine" / f"{key.digest}.json") \
            .write_text("{")
        assert list(store.digests()) == [key.digest]
        assert len(store) == 1
        assert store.stats()["entries"] == 1

    def test_raw_digests_must_be_digests(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        store.put(key, report)
        assert store.get_document(key.digest) is not None
        for bad in ("..", "../x", key.digest[:63], key.digest.upper(),
                    key.digest + "0", "", 7):
            assert store.get_document(bad) is None
            assert bad not in store
        with pytest.raises(ProtocolError, match="64 lowercase hex"):
            store.path_for("..")
        with pytest.raises(ProtocolError, match="64 lowercase hex"):
            store.get(key.digest[:63])

    @pytest.mark.parametrize("damage", [
        "truncate", "garble", "not-object", "rows", "header-list",
        "one-line",
    ])
    def test_unreadable_entry_is_quarantined_and_missed(
        self, tmp_path, damage
    ):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        path = store.put(key, report)
        good = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(good[: len(good) // 2])
        elif damage == "garble":  # parses, does not decode to a report
            tagged = encode_value(report)
            tagged["fields"]["steps"] = {"__repro__": "bogus"}
            path.write_bytes(_entry(key, report, tagged))
        elif damage == "rows":  # a fault table whose columns disagree
            tagged = encode_value(report)
            faults = encode_value(FaultSchedule(crashes=((0, 5), (1, 6))))
            faults["fields"]["crashes"]["columns"][1] = encode_value(
                np.arange(3, dtype=np.int64)
            )
            tagged["fields"]["policy"]["fields"]["faults"] = faults
            path.write_bytes(_entry(key, report, tagged))
        elif damage == "not-object":  # checksum holds, report is a list
            path.write_bytes(_entry(key, report, [1, 2]))
        elif damage == "header-list":
            path.write_bytes(_checksummed(b"[1, 2]\n" + good.split(b"\n")[2]))
        else:  # checksum holds, no report line
            path.write_bytes(_checksummed(b"{}"))
        damaged = path.read_bytes()
        assert store.get(key) is None
        assert not path.exists()
        quarantine = tmp_path / "reports" / ".quarantine"
        moved = list(quarantine.iterdir())
        assert len(moved) == 1 and moved[0].read_bytes() == damaged
        assert store.stats()["quarantined"] == 1
        assert store.misses == 1 and store.hits == 0
        assert len(store) == 0
        # The cell is not poisoned: the next put writes a good entry.
        store.put(key, report)
        assert path.read_bytes() == good
        assert store.get(key) == report

    @pytest.mark.parametrize("read", ["get", "get_scalars", "get_document"])
    @pytest.mark.parametrize("damage", [
        "report-digit", "scalar-digit", "checksum", "truncate",
        "no-checksum", "format-1",
    ])
    def test_damaged_entry_is_quarantined_by_every_read(
        self, tmp_path, damage, read
    ):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        path = store.put(key, report)
        good = path.read_bytes()
        checksum, header, tagged = good.split(b"\n")
        if damage == "report-digit":
            # Valid JSON that decodes to a report with other numbers:
            # served as a hit before entries carried a checksum.
            tagged = _bump_digit(tagged, b'"transmissions": ')
            assert isinstance(decode_value(json.loads(tagged)), RunReport)
        elif damage == "scalar-digit":
            header = _bump_digit(header, b'"steps": ')
            assert json.loads(header)["scalars"]["steps"] != report.steps
        elif damage == "checksum":
            checksum = (b"1" if checksum[:1] == b"0" else b"0") + checksum[1:]
        damaged = b"\n".join((checksum, header, tagged))
        if damage == "truncate":
            damaged = good[: len(good) // 2]
        elif damage == "no-checksum":
            damaged = b"\n".join((header, tagged))
        elif damage == "format-1":
            # A checksum-less entry of the retired layout, one digit
            # changed: served as a hit while that layout was read.
            damaged = _format_1(key, json.loads(
                _bump_digit(tagged, b'"transmissions": ')
            )).encode()
        assert damaged != good
        path.write_bytes(damaged)
        assert getattr(store, read)(
            key.digest if read == "get_document" else key
        ) is None
        assert not path.exists()
        quarantine = tmp_path / "reports" / ".quarantine"
        moved = list(quarantine.iterdir())
        assert len(moved) == 1 and moved[0].read_bytes() == damaged
        assert store.stats()["quarantined"] == 1
        assert store.hits == 0
        assert store.misses == (0 if read == "get_document" else 1)
        assert len(store) == 0
        # The cell is not poisoned: the next put writes a good entry.
        store.put(key, report)
        assert path.read_bytes() == good
        assert store.get(key) == report

    @pytest.mark.parametrize("protocol, faulted, measured", [
        ("decay", False, False),
        ("decay", True, True),
        ("mis", False, False),
        ("mis", False, True),
    ], ids=["decay", "decay-faulted-peak", "mis", "mis-peak"])
    def test_scalar_read_matches_the_full_read(
        self, tmp_path, protocol, faulted, measured
    ):
        graph = graphs.random_udg(30, 4.0, np.random.default_rng(1))
        policy = ExecutionPolicy(faults=FaultSchedule.sample(
            30, 32, seed=4, crash_rate=0.2, hetero=0.4
        )) if faulted else ExecutionPolicy()
        report = api.run(protocol, graph, rng=np.random.default_rng(0),
                         policy=policy, measure_memory=measured)
        assert (report.peak_mem_bytes is not None) == measured
        store = ReportStore(tmp_path / "reports")
        key = self._key(protocol=protocol, faults=faults_digest(policy))
        store.put(key, report)
        full = store.get(key)
        scalars = store.get_scalars(key)
        assert scalars == (
            full.steps, full.wall_time_s, full.peak_mem_bytes
        )
        assert scalars == report_scalars(report)
        assert [type(v) for v in scalars] == [
            int, float, int if measured else type(None)
        ]
        assert store.hits == 2 and store.misses == 0
        # A format-1 entry (no checksum line) is quarantined and missed.
        legacy = _format_1(key, encode_value(report))
        store.path_for(key).write_text(legacy)
        assert store.get_scalars(key) is None
        store.path_for(key).write_text(legacy)
        assert store.get_document(key.digest) is None
        assert store.hits == 2 and store.misses == 1
        assert store.quarantined == 2 and key not in store

    def test_item_wise_faulted_entry_is_a_hit(self, tmp_path):
        # An entry written before fault tables travelled as columns
        # (every event pair a tagged tuple) still decodes: a hit equal
        # to a fresh run, nothing quarantined.
        graph = graphs.random_udg(30, 4.0, np.random.default_rng(1))
        faults = FaultSchedule.sample(
            30, 32, seed=4, crash_rate=0.2, churn=0.3, jam=0.1, hetero=0.4
        )
        policy = ExecutionPolicy(faults=faults)
        store = ReportStore(tmp_path / "reports")
        key = self._key(faults=faults_digest(policy))
        report = api.run(
            "decay", graph, rng=np.random.default_rng(0), policy=policy
        )
        path = store.put(key, report)
        entry = _entry(key, report, _item_wise(encode_value(report)))
        assert b'"rows"' not in entry
        assert entry.count(b'"tuple"') > len(faults.crashes) + len(
            faults.tx_prob
        )
        path.write_bytes(entry)
        fresh = api.run(
            "decay", graph, rng=np.random.default_rng(0), policy=policy
        )
        assert store.get(key) == fresh
        assert store.hits == 1 and store.quarantined == 0

    def test_counters_survive_concurrent_campaigns(self, tmp_path):
        # Concurrent campaigns count their jobs' writes into one shared
        # store; a lost update would show as a short count. More
        # threads than cores, with a tiny switch interval.
        import sys
        import threading

        store = ReportStore(tmp_path / "reports")
        threads, rounds = 6, 20000

        def count():
            for _ in range(rounds):
                store.record_write()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=count) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert store.writes == threads * rounds

    def test_existing_entry_wins(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        path = store.put(key, report)
        stamp = path.stat().st_mtime_ns
        store.put(key, report)  # no rewrite
        assert path.stat().st_mtime_ns == stamp
        assert store.writes == 1

    def test_get_document_serves_key_fields(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        key = self._key()
        store.put(key, report)
        document = store.get_document(key.digest)
        assert document["key"] == key.asdict()
        assert document["digest"] == key.digest
        assert document["format"] == 2
        assert document["scalars"]["steps"] == report.steps
        assert decode_value(document["report"]) == report
        assert store.get_document("ff" * 32) is None

    def test_put_refuses_non_reports(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        with pytest.raises(ProtocolError, match="RunReport"):
            store.put(self._key(), {"steps": 3})


# ---------------------------------------------------------------------------
# campaign spec


class TestCampaignSpec:
    def test_refusals_name_the_problem(self, stores):
        _corpus, digest, _ = stores
        with pytest.raises(ProtocolError, match="unknown protocol"):
            CampaignSpec(protocol="nope", corpus=(digest,), n_trials=1)
        with pytest.raises(ProtocolError, match="corpus"):
            CampaignSpec(protocol="decay", corpus=(), n_trials=1)
        with pytest.raises(ProtocolError, match="n_trials"):
            CampaignSpec(protocol="decay", corpus=(digest,), n_trials=0)
        with pytest.raises(ProtocolError, match="policies"):
            CampaignSpec(protocol="decay", corpus=(digest,), n_trials=1,
                         policies=())
        with pytest.raises(ProtocolError, match="campaign"):
            CampaignSpec(protocol="wakeup", corpus=(digest,), n_trials=1)
        with pytest.raises(ProtocolError, match="config"):
            CampaignSpec(protocol="decay", corpus=(digest,), n_trials=1,
                         config=object())

    def test_tagged_json_round_trips_with_faults(self, stores):
        _corpus, digest, _ = stores
        faults = FaultSchedule.sample(60, 64, seed=4, churn=0.3)
        spec = CampaignSpec(
            protocol="mis", corpus=(digest,), n_trials=4, seed=9,
            policies=(ExecutionPolicy(),
                      ExecutionPolicy(faults=faults)),
        )
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.policies[1].faults.digest() == faults.digest()

    def test_plain_form_accepts_curl_shapes(self, stores):
        _corpus, digest, _ = stores
        spec = CampaignSpec.from_json(json.dumps({
            "protocol": "decay",
            "corpus": digest,
            "n_trials": 3,
            "policies": [{"engine": "windowed", "mem_budget": "64M"}],
        }))
        assert spec.corpus == (digest,)
        assert spec.policies[0].mem_budget == 64 * 1024 * 1024

    def test_plain_form_refusals(self, stores):
        _corpus, digest, _ = stores
        with pytest.raises(ProtocolError, match="missing"):
            CampaignSpec.from_json('{"protocol": "decay"}')
        with pytest.raises(ProtocolError, match="unknown field"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest],
                "n_trials": 1, "bogus": True,
            }))
        with pytest.raises(ProtocolError, match="valid JSON"):
            CampaignSpec.from_json("{nope")
        with pytest.raises(ProtocolError, match="fault"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "policies": [{"faults": {}}],
            }))
        with pytest.raises(ProtocolError, match="field dict"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "config": 7,
            }))

    def test_scalar_field_refusals(self, stores):
        _corpus, digest, _ = stores
        with pytest.raises(ProtocolError, match="seed"):
            CampaignSpec(protocol="decay", corpus=(digest,), n_trials=1,
                         seed="zero")
        with pytest.raises(ProtocolError, match="JSON object"):
            CampaignSpec.from_json("[1, 2]")
        with pytest.raises(ProtocolError, match="CampaignSpec"):
            CampaignSpec.from_json(
                json.dumps(encode_value(ExecutionPolicy()))
            )
        with pytest.raises(ProtocolError, match="protocol"):
            CampaignSpec.from_json(json.dumps({
                "protocol": 7, "corpus": [digest], "n_trials": 1,
            }))
        with pytest.raises(ProtocolError, match="bad config"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "config": {"not_a_decay_field": 1},
            }))
        # DecayConfig carries no payload list: naming one is refused.
        with pytest.raises(ProtocolError, match="messages"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "config": {"messages": None},
            }))
        with pytest.raises(ProtocolError, match="policies must be"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "policies": {"engine": "windowed"},
            }))
        with pytest.raises(ProtocolError, match="field dict"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "policies": ["windowed"],
            }))
        with pytest.raises(ProtocolError, match="bad policy"):
            CampaignSpec.from_json(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 1,
                "policies": [{"enginee": "windowed"}],
            }))

    def test_total_jobs(self, stores):
        _corpus, d1, d2 = stores
        spec = CampaignSpec(
            protocol="decay", corpus=(d1, d2), n_trials=5,
            policies=(ExecutionPolicy(), _chunked(8)),
        )
        assert spec.total_jobs == 2 * 2 * 5


# ---------------------------------------------------------------------------
# campaign engine


class TestCampaign:
    def test_matches_run_report_trials_bit_identically(self, stores, tmp_path):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=6, seed=42)
        campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                corpus=corpus)
        baseline = run_report_trials(
            "decay", corpus.load(digest), n_trials=6, seed=42
        )
        assert all(a == b for a, b in zip(campaign.reports, baseline))
        summary = summarize_reports(baseline)
        final = campaign.final_summary()
        assert final["steps"] == summary["steps"]

    def test_resubmission_is_pure_cache_hits(self, stores, tmp_path):
        corpus, digest, _ = stores
        store = ReportStore(tmp_path / "r")
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=6, seed=42)
        first = run_campaign(spec, store, corpus=corpus)
        again = run_campaign(spec, store, corpus=corpus)
        status = again.status()
        assert status["cached"] == 6 and status["executed"] == 0
        assert again.final_summary() == first.final_summary()
        assert all(a == b for a, b in zip(again.reports, first.reports))

    def test_resubmits_agree_whether_or_not_reports_are_kept(
        self, stores, tmp_path
    ):
        # Kept reports are served by the full read, dropped ones by the
        # scalar read: the recorded numbers are the same.
        corpus, digest, _ = stores
        faults = FaultSchedule.sample(60, 32, seed=3, crash_rate=0.1,
                                      hetero=0.2)
        spec = CampaignSpec(
            protocol="decay", corpus=(digest,), n_trials=5, seed=19,
            policies=(ExecutionPolicy(), ExecutionPolicy(faults=faults)),
        )
        store = ReportStore(tmp_path / "r")
        cold = run_campaign(spec, store, corpus=corpus, keep_reports=False)
        kept = run_campaign(spec, store, corpus=corpus)
        dropped = run_campaign(spec, store, corpus=corpus,
                               keep_reports=False)
        assert dropped.status()["cached"] == spec.total_jobs
        assert kept.status() == dropped.status()
        assert kept.final_summary() == dropped.final_summary()
        assert dropped.final_summary() == cold.final_summary()
        assert len(kept.reports) == spec.total_jobs
        assert dropped.reports == []

    def test_changed_entry_reexecutes_under_the_scalar_probe(
        self, stores, tmp_path
    ):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=4, seed=41)
        store = ReportStore(tmp_path / "r")
        first = run_campaign(spec, store, corpus=corpus)
        victim = store.path_for(first.jobs[2].key)
        checksum, header, tagged = victim.read_bytes().split(b"\n")
        tagged = _bump_digit(tagged, b'"transmissions": ')
        victim.write_bytes(b"\n".join((checksum, header, tagged)))
        again = run_campaign(spec, store, corpus=corpus, keep_reports=False)
        status = again.status()
        assert status["executed"] == 1 and status["cached"] == 3
        assert store.quarantined == 1
        assert again.final_summary()["steps"] == \
            first.final_summary()["steps"]
        assert store.get(first.jobs[2].key) == first.reports[2]

    def test_round_accounted_broadcast_campaign(self, stores, tmp_path):
        # Protocols that take the bare graph run as campaigns too, and
        # their reports are served from the store on resubmit.
        corpus, digest, _ = stores
        store = ReportStore(tmp_path / "r")
        spec = CampaignSpec(protocol="broadcast", corpus=(digest,),
                            n_trials=3, seed=5)
        first = run_campaign(spec, store, corpus=corpus)
        assert first.status()["executed"] == 3
        assert all(r.result.delivered for r in first.reports)
        again = run_campaign(spec, store, corpus=corpus)
        status = again.status()
        assert status["cached"] == 3 and status["executed"] == 0
        assert again.final_summary() == first.final_summary()

    def test_previous_stream_entries_miss_and_reexecute(
        self, stores, tmp_path
    ):
        # A store written before the random stream changed holds the
        # same coordinates under a key document without the stream
        # version. Those entries must miss — never answer with the old
        # stream's numbers — and every job must re-execute.
        import hashlib
        import shutil

        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=3, seed=42)
        fresh = run_campaign(spec, ReportStore(tmp_path / "fresh"),
                             corpus=corpus)
        old_store = ReportStore(tmp_path / "old")
        for job in fresh.jobs:
            legacy = hashlib.sha256(
                json.dumps(dataclasses.asdict(job.key), sort_keys=True)
                .encode()
            ).hexdigest()
            assert legacy != job.key.digest
            target = old_store.path_for(legacy)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(
                ReportStore(tmp_path / "fresh").path_for(job.key), target
            )
            assert legacy in old_store
            assert job.key not in old_store
        again = run_campaign(spec, old_store, corpus=corpus)
        status = again.status()
        assert status["cached"] == 0 and status["executed"] == 3
        assert all(a == b for a, b in zip(again.reports, fresh.reports))
        assert all(
            r.provenance["stream"] == STREAM_VERSION for r in again.reports
        )

    def test_entries_under_the_delivery_policy_miss_and_reexecute(
        self, stores, tmp_path
    ):
        # The policy lost fields twice — ``delivery``, then
        # ``chunk_steps`` and ``trace`` — so every policy digest, and
        # with it every JobKey, changed each time. An entry stored
        # under an old key document (the six-field policy a default
        # run resolved to, with or without ``"delivery": "auto"``, and
        # a report whose policy echo still carries those fields) must
        # miss and re-execute: never be read, so never raise the
        # decode refusal its echo would trigger.
        import hashlib

        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=2, seed=17)
        fresh_store = ReportStore(tmp_path / "fresh")
        fresh = run_campaign(spec, fresh_store, corpus=corpus)
        six_fields = {
            "engine": "windowed", "chunk_steps": None, "mem_budget": None,
            "validate": False, "trace": "default", "faults": None,
        }
        eras = {
            "delivery": dict(six_fields, delivery="auto"),
            "chunk_steps": six_fields,
        }
        for era, fields in eras.items():
            doc = {
                "__repro__": "dataclass",
                "class": "repro.engine.policy:ExecutionPolicy",
                "fields": fields,
            }
            old_policy = hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()
            ).hexdigest()[:16]
            old_store = ReportStore(tmp_path / f"old-{era}")
            for job in fresh.jobs:
                assert old_policy != job.key.policy
                old_key = dataclasses.replace(job.key, policy=old_policy)
                report = fresh.reports[job.index]
                tagged = encode_value(report)
                tagged["fields"]["policy"]["fields"] = dict(fields)
                target = old_store.path_for(old_key)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(_entry(old_key, report, tagged))
                assert old_key in old_store and job.key not in old_store
                with pytest.raises(ProtocolError, match=era):
                    decode_value(tagged)
            again = run_campaign(spec, old_store, corpus=corpus)
            status = again.status()
            assert status["cached"] == 0 and status["executed"] == 2
            assert status["failed"] == 0
            assert all(
                a == b for a, b in zip(again.reports, fresh.reports)
            )
            # Never read: a read would have quarantined the old entries.
            assert old_store.quarantined == 0
            assert len(old_store) == 4

    def test_decay_entries_with_a_payload_list_are_not_served(
        self, stores, tmp_path
    ):
        # A decay entry whose report still carries DecayResult's old
        # per-node payload list sits under today's JobKey. Its checksum
        # holds, but the closed-world decoder refuses the unknown field,
        # so the read quarantines the entry and the job re-executes:
        # the old document is never served.
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=1, seed=23)
        fresh_store = ReportStore(tmp_path / "fresh")
        fresh = run_campaign(spec, fresh_store, corpus=corpus)
        (job,) = fresh.jobs
        (report,) = fresh.reports
        tagged = encode_value(report)
        heard, senders = report.result.heard, report.result.heard_from
        tagged["fields"]["result"]["fields"]["messages"] = [
            int(s) if h else None for h, s in zip(heard, senders)
        ]
        # What ServiceClient.fetch_report does with the verbatim
        # document: refuse it, naming the field.
        with pytest.raises(ProtocolError, match="messages"):
            decode_value(tagged)
        entry = _entry(job.key, report, tagged)
        store = ReportStore(tmp_path / "old")
        target = store.path_for(job.key)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(entry)
        assert job.key in store
        assert store.get(job.key) is None
        assert store.quarantined == 1 and job.key not in store

        target.write_bytes(entry)
        again = run_campaign(spec, store, corpus=corpus)
        status = again.status()
        assert status["executed"] == 1 and status["cached"] == 0
        assert status["failed"] == 0
        assert store.quarantined == 2
        assert store.get(job.key) == report

    def test_grid_naming_one_cell_twice_is_refused(self, tmp_path):
        # Two corpus entries for one graph (a digest and its prefix),
        # or two policies with one digest, would repeat every JobKey:
        # each cell would run once per mention and the summary would
        # count every copy. Expansion refuses before any job runs.
        corpus = CorpusStore(tmp_path / "corpus")
        d = corpus.add(random_udg_csr(200, 8.0, np.random.default_rng(3)))
        store = ReportStore(tmp_path / "r")
        repeated = CampaignSpec(
            protocol="decay", corpus=(d, d[:12]), n_trials=3,
            policies=(ExecutionPolicy(), ExecutionPolicy(engine="windowed")),
        )
        with pytest.raises(ProtocolError, match="corpus entries 0 and 1"):
            run_campaign(repeated, store, corpus=corpus)
        same_policy = dataclasses.replace(repeated, corpus=(d,))
        with pytest.raises(ProtocolError, match="policies 0 and 1"):
            run_campaign(same_policy, store, corpus=corpus)
        assert store.writes == 0 and len(store) == 0
        # The HTTP front end answers the same refusal with a 400.
        with start_in_thread(tmp_path / "reports", corpus) as handle:
            client = ServiceClient(port=handle.port)
            with pytest.raises(ServiceError, match="corpus entries") as e:
                client.submit(repeated)
            assert e.value.status == 400
        # One mention of each cell runs each job once.
        single = dataclasses.replace(
            repeated, corpus=(d,), policies=(ExecutionPolicy(),)
        )
        status = run_campaign(single, store, corpus=corpus).status()
        assert status["total"] == status["executed"] == 3
        assert status["summary"]["steps"]["count"] == 3

    def test_distinct_configs_occupy_distinct_store_cells(
        self, stores, tmp_path
    ):
        """The review contract: two campaigns differing only in config
        must not collide in the store — the second runs, it is not
        served the first's cached reports."""
        corpus, digest, _ = stores
        store = ReportStore(tmp_path / "r")
        base = dict(protocol="decay", corpus=(digest,), n_trials=2, seed=5)
        short = run_campaign(
            CampaignSpec(config=api.DecayConfig(iterations=1), **base),
            store, corpus=corpus,
        )
        long = run_campaign(
            CampaignSpec(config=api.DecayConfig(iterations=3), **base),
            store, corpus=corpus,
        )
        status = long.status()
        assert status["cached"] == 0 and status["executed"] == 2
        digests = {
            job.key.digest for c in (short, long) for job in c.jobs
        }
        assert len(digests) == 4
        assert len(store) == 4
        # And the cells hold genuinely different outcomes.
        assert long.reports[0].steps > short.reports[0].steps
        # Defaults (config=None) are their own cell too.
        bare = run_campaign(CampaignSpec(**base), store, corpus=corpus)
        assert bare.status()["cached"] == 0

    def test_pooled_matches_serial(self, stores, tmp_path):
        corpus, digest, _ = stores
        faults = FaultSchedule.sample(
            60, 32, seed=3, crash_rate=0.2, hetero=0.2
        )
        spec = CampaignSpec(
            protocol="decay", corpus=(digest,), n_trials=4, seed=3,
            policies=(
                ExecutionPolicy(), _chunked(8),
                ExecutionPolicy(faults=faults),
            ),
        )
        pooled = run_campaign(spec, ReportStore(tmp_path / "pool"),
                              corpus=corpus, workers=2)
        serial = run_campaign(spec, ReportStore(tmp_path / "serial"),
                              corpus=corpus, workers=1)
        assert pooled.status()["state"] == "completed"
        assert pooled.reports == serial.reports
        assert pooled.final_summary()["steps"] == \
            serial.final_summary()["steps"]

    def test_pooled_campaign_without_reports_lands_scalars(
        self, stores, tmp_path, monkeypatch
    ):
        # A pooled job of a campaign that keeps no reports sends back
        # its three scalars, never the report; the numbers are the ones
        # a report-keeping resubmit reads from the store.
        corpus, digest, _ = stores
        faults = FaultSchedule.sample(
            60, 32, seed=3, crash_rate=0.2, hetero=0.2
        )
        spec = CampaignSpec(
            protocol="decay", corpus=(digest,), n_trials=4, seed=23,
            policies=(ExecutionPolicy(), ExecutionPolicy(faults=faults)),
        )
        landed = []
        record = Campaign._record

        def spy(self, job, scalars, cached, report=None):
            landed.append((cached, report))
            record(self, job, scalars, cached, report=report)

        monkeypatch.setattr(Campaign, "_record", spy)
        store = ReportStore(tmp_path / "r")
        dropped = run_campaign(spec, store, corpus=corpus, workers=2,
                               keep_reports=False)
        assert dropped.status()["executed"] == spec.total_jobs
        assert landed == [(False, None)] * spec.total_jobs
        landed.clear()
        kept = run_campaign(spec, store, corpus=corpus, workers=2)
        assert kept.status()["cached"] == spec.total_jobs
        assert all(isinstance(r, RunReport) for _, r in landed)
        assert kept.final_summary() == dropped.final_summary()

    def test_kill_and_resume_bit_identical(self, stores, tmp_path):
        """The issue's resume contract: kill mid-campaign, restart,
        completed jobs are store hits, aggregates bit-identical."""
        corpus, d1, d2 = stores
        spec = CampaignSpec(protocol="decay", corpus=(d1, d2),
                            n_trials=5, seed=17)
        uninterrupted = run_campaign(
            spec, ReportStore(tmp_path / "ref"), corpus=corpus
        )

        store = ReportStore(tmp_path / "killed")
        landed = [0]

        def count_and_die():
            landed[0] += 1

        first = run_campaign(
            spec, store, corpus=corpus,
            should_stop=lambda: landed[0] >= 4,
            on_update=count_and_die,
        )
        status = first.status()
        assert status["state"] == "cancelled"
        assert 0 < status["completed"] < spec.total_jobs

        resumed = run_campaign(spec, ReportStore(tmp_path / "killed"),
                               corpus=corpus)
        final = resumed.status()
        assert final["state"] == "completed"
        assert final["cached"] == status["completed"]
        assert final["executed"] == spec.total_jobs - status["completed"]
        # Deterministic aggregates are bit-identical to the
        # uninterrupted run (wall_time_s is a measurement — it differs
        # on every execution by nature, like RunReport equality says).
        assert resumed.final_summary()["steps"] == \
            uninterrupted.final_summary()["steps"]
        assert all(
            a == b
            for a, b in zip(resumed.reports, uninterrupted.reports)
        )

    def test_streaming_summary_counts_every_landed_job(
        self, stores, tmp_path
    ):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=5, seed=1)
        campaign = Campaign(spec, ReportStore(tmp_path / "r"),
                            corpus=corpus)
        seen = []
        campaign.run(on_update=lambda: seen.append(
            campaign.streaming_summary().get("steps")
        ))
        counts = [s.count for s in seen if s is not None]
        assert counts == sorted(counts)
        assert counts[-1] == 5
        # Same mean as the canonical summary (order-insensitive).
        assert math.isclose(
            seen[-1].mean, campaign.final_summary()["steps"].mean,
            rel_tol=1e-12,
        )

    def test_refusals(self, stores, tmp_path):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,), n_trials=1)
        with pytest.raises(ProtocolError, match="ReportStore"):
            Campaign(spec, {})
        with pytest.raises(ProtocolError, match="workers"):
            Campaign(spec, ReportStore(tmp_path / "r"), corpus=corpus,
                     workers=0)
        with pytest.raises(ProtocolError, match="resolve"):
            run_campaign(
                CampaignSpec(protocol="decay", corpus=("f00dfeed",),
                             n_trials=1),
                ReportStore(tmp_path / "r"), corpus=corpus,
            )
        with pytest.raises(ProtocolError, match="corpus store"):
            run_campaign(spec, ReportStore(tmp_path / "r"), corpus=None)
        campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                corpus=corpus)
        with pytest.raises(ProtocolError, match="already ran"):
            campaign.run()

    def test_entry_directory_paths_resolve_without_store(
        self, stores, tmp_path
    ):
        corpus, digest, _ = stores
        path = corpus.path(digest)
        spec = CampaignSpec(protocol="decay", corpus=(str(path),),
                            n_trials=2, seed=8)
        campaign = run_campaign(spec, ReportStore(tmp_path / "r"))
        assert campaign.status()["state"] == "completed"

    def test_corpus_directory_path_resolves_digests(
        self, stores, tmp_path
    ):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=1, seed=8)
        campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                corpus=str(corpus.directory))
        assert campaign.status()["state"] == "completed"

    def test_worker_maps_an_entry(self, stores, tmp_path):
        """The pool worker body, exercised in-process with an entry."""
        from repro.analysis.experiments import _Entry, _map_entry, _run_job
        from repro.service.campaign import _execute_job

        corpus, digest, _ = stores
        entry = _Entry(str(corpus.path(digest).resolve()))
        child = np.random.SeedSequence(5).spawn(1)[0]
        key = JobKey(protocol="decay", graph=digest, seed=5, trial=0,
                     policy=policy_digest(ExecutionPolicy(), 60))
        args = (
            "decay", child, None, ExecutionPolicy(), tmp_path / "r", key,
            True,
        )
        try:
            scalars, report, wrote = _run_job(_execute_job, entry, args)
            assert scalars == report_scalars(report)
            # The mapped entry runs as the caller's own load of it does,
            # provenance included.
            assert report == _run_one_report(
                corpus.load(digest), "decay", child, None,
                ExecutionPolicy(),
            )
            assert report.provenance["corpus"]["source"] == "mmap"
            # The job persisted its own entry; a rerun finds it there.
            assert wrote is True
            assert ReportStore(tmp_path / "r").get(key) == report
            assert _run_job(_execute_job, entry, args)[2] is False
            # A job for a campaign that keeps no reports returns only
            # the scalars (its wall time is its own).
            bare, none, _ = _run_job(_execute_job, entry, (*args[:-1], False))
            assert none is None and bare[::2] == scalars[::2]
        finally:
            _map_entry.cache_clear()

    def test_graphs_without_digest_refused(self, stores, tmp_path,
                                           monkeypatch):
        import repro.service.campaign as campaign_mod

        corpus, digest, _ = stores
        bare = corpus.load(digest)
        bare.graph.pop("digest", None)
        monkeypatch.setattr(
            campaign_mod, "_resolve_corpus_entries",
            lambda entries, corpus: [bare],
        )
        spec = CampaignSpec(protocol="decay", corpus=(digest,), n_trials=1)
        with pytest.raises(ProtocolError, match="content"):
            Campaign(spec, ReportStore(tmp_path / "r"), corpus=corpus)

    def test_failing_jobs_are_recorded_not_fatal(
        self, stores, tmp_path, monkeypatch
    ):
        import repro.service.campaign as campaign_mod

        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,), n_trials=3)

        def explode(*args):
            raise RuntimeError("worker fell over")

        monkeypatch.setattr(campaign_mod, "_execute_job", explode)
        campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                corpus=corpus)
        status = campaign.status()
        assert status["state"] == "failed"
        assert status["failed"] == 3
        assert "worker fell over" in status["errors"][0]
        with pytest.raises(ProtocolError, match="no completed jobs"):
            campaign.final_summary()

    @pytest.mark.parametrize(
        "workers, refused",
        [
            pytest.param(1, "iterations", id="1"),
            pytest.param(2, "iterations", id="2"),
            pytest.param(1, "ell", id="icp-ell-0-1"),
            pytest.param(2, "ell", id="icp-ell-0-2"),
        ],
    )
    def test_spec_level_refusal_fails_the_campaign(
        self, stores, tmp_path, workers, refused
    ):
        # A spec a protocol cannot honor is a spec problem, surfaced as
        # a refusal, not a failure count — at every worker count: Decay
        # refuses a negative iteration count, and ICP a propagation
        # distance below 1, when the job runs.
        corpus, digest, _ = stores
        if refused == "iterations":
            spec = CampaignSpec(
                protocol="decay", corpus=(digest,), n_trials=4,
                config=api.DecayConfig(iterations=-1),
            )
        else:
            spec = CampaignSpec(
                protocol="icp", corpus=(digest,), n_trials=4,
                config=api.ICPConfig(ell=0),
            )
        campaign = Campaign(spec, ReportStore(tmp_path / "r"),
                            corpus=corpus, workers=workers)
        with pytest.raises(ProtocolError, match=refused):
            campaign.run()
        status = campaign.status()
        assert status["state"] == "failed"
        assert status["failed"] == 0 and status["errors"] == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_plain_json_size_fails_the_campaign(
        self, stores, tmp_path, workers
    ):
        # A plain-JSON config reaches DecayConfig as typed. Decay
        # refuses a fractional iteration count by name when the job
        # runs, which fails the campaign as a refusal at every worker
        # count, not as one failure per job.
        corpus, digest, _ = stores
        spec = CampaignSpec.from_json(json.dumps({
            "protocol": "decay", "corpus": [digest], "n_trials": 3,
            "config": {"iterations": 2.5},
        }))
        campaign = Campaign(spec, ReportStore(tmp_path / "r"),
                            corpus=corpus, workers=workers)
        with pytest.raises(ProtocolError, match="iterations must be"):
            campaign.run()
        status = campaign.status()
        assert status["state"] == "failed"
        assert status["failed"] == 0 and status["errors"] == []

    def test_unpicklable_payload_degrades_to_serial(
        self, stores, tmp_path, monkeypatch
    ):
        import pickle as pickle_mod

        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=3, seed=6)

        def refuse(obj, *a, **kw):
            raise TypeError("cannot pickle this payload")

        monkeypatch.setattr(pickle_mod, "dumps", refuse)
        with pytest.warns(RuntimeWarning, match="serial"):
            campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                    corpus=corpus, workers=2)
        assert campaign.status()["state"] == "completed"

    def test_broken_pool_degrades_to_serial(
        self, stores, tmp_path, monkeypatch
    ):
        import concurrent.futures.process as process_mod

        import repro.analysis.experiments as experiments

        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=3, seed=6)

        class NoForks:
            """A pool that breaks on the fan-out's first submission."""

            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                raise process_mod.BrokenProcessPool("no forks here")

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoForks)
        with pytest.warns(RuntimeWarning, match="no forks here"):
            campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                    corpus=corpus, workers=2)
        status = campaign.status()
        assert status["state"] == "completed"
        assert status["executed"] == 3

    def test_each_job_runs_and_counts_once_across_a_pool_break(
        self, stores, tmp_path, monkeypatch
    ):
        # Forked pool workers inherit the wrapped job body. Trial 0
        # fails in a worker; trial 5 kills its worker, which breaks the
        # pool. The failure must stay recorded once, and the serial
        # fallback (where trial 5 runs in this process and completes)
        # must run only the jobs that have no outcome yet.
        import os

        import repro.service.campaign as campaign_mod

        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=12, seed=19)
        parent = os.getpid()
        ran = tmp_path / "ran"
        report_job = campaign_mod._run_one_report

        def flaky(target, protocol, child, config, policy):
            trial = child.spawn_key[-1]
            with open(ran, "a") as log:
                log.write(f"{trial}\n")
            if trial == 0:
                raise RuntimeError("trial 0 fell over")
            if trial == 5 and os.getpid() != parent:
                os._exit(1)
            return report_job(target, protocol, child, config, policy)

        monkeypatch.setattr(campaign_mod, "_run_one_report", flaky)
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
            campaign = run_campaign(spec, ReportStore(tmp_path / "r"),
                                    corpus=corpus, workers=2)
        status = campaign.status()
        assert status["failed"] == 1
        assert status["completed"] == spec.total_jobs - 1
        assert len(status["errors"]) == 1
        assert "trial 0 fell over" in status["errors"][0]
        assert ran.read_text().split().count("0") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_persist_their_own_entries(self, stores, tmp_path, workers):
        corpus, digest, _ = stores
        spec = CampaignSpec(
            protocol="decay", corpus=(digest,), n_trials=4, seed=29,
            policies=(ExecutionPolicy(), _chunked(8)),
        )
        store = ReportStore(tmp_path / "r")
        campaign = run_campaign(spec, store, corpus=corpus, workers=workers)
        status = campaign.status()
        assert status["state"] == "completed"
        assert status["executed"] == spec.total_jobs
        assert {r.provenance["corpus"]["source"]
                for r in campaign.reports} == {"mmap"}
        assert all(job.key in store for job in campaign.jobs)
        assert store.writes == status["executed"]
        assert len(store) == spec.total_jobs
        assert not list((tmp_path / "r").rglob(".tmp-*"))
        again = run_campaign(spec, store, corpus=corpus, workers=workers)
        assert again.status()["cached"] == spec.total_jobs
        assert again.status()["executed"] == 0
        assert store.writes == status["executed"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_store_write_fails_the_job(
        self, stores, tmp_path, monkeypatch, workers
    ):
        # Forked pool workers inherit the patched class.
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=3, seed=31)

        def full_disk(self, key, report):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ReportStore, "put", full_disk)
        store = ReportStore(tmp_path / "r")
        campaign = run_campaign(spec, store, corpus=corpus, workers=workers)
        status = campaign.status()
        assert status["state"] == "failed"
        assert status["failed"] == 3 and status["completed"] == 0
        assert len(status["errors"]) == 3
        assert all("OSError" in error for error in status["errors"])
        assert store.writes == 0 and len(store) == 0

    def test_truncated_entry_reexecutes_one_job(self, stores, tmp_path):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=4, seed=37)
        store = ReportStore(tmp_path / "r")
        first = run_campaign(spec, store, corpus=corpus)
        victim = store.path_for(first.jobs[1].key)
        victim.write_bytes(victim.read_bytes()[:64])
        again = run_campaign(spec, store, corpus=corpus)
        status = again.status()
        assert status["state"] == "completed"
        assert status["executed"] == 1 and status["cached"] == 3
        assert store.quarantined == 1
        assert len(list((tmp_path / "r" / ".quarantine").iterdir())) == 1
        assert again.final_summary()["steps"] == \
            first.final_summary()["steps"]
        assert again.reports[1] == first.reports[1]

    def test_pooled_cancel_keeps_landed_work(self, stores, tmp_path):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=24, seed=13)
        store = ReportStore(tmp_path / "r")
        landed = [0]
        campaign = Campaign(spec, store, corpus=corpus, workers=2)
        campaign.run(
            should_stop=lambda: landed[0] >= 3,
            on_update=lambda: landed.__setitem__(0, landed[0] + 1),
        )
        status = campaign.status()
        assert status["state"] == "cancelled"
        assert status["completed"] < spec.total_jobs
        # Everything recorded is persisted: a resume serves it back.
        resumed = run_campaign(spec, ReportStore(tmp_path / "r"),
                               corpus=corpus)
        assert resumed.status()["cached"] >= status["completed"]

    def test_peak_memory_aggregates_when_measured(
        self, stores, tmp_path
    ):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=2, seed=1)
        campaign = Campaign(spec, ReportStore(tmp_path / "r"),
                            corpus=corpus)
        report = api.run("decay", corpus.load(digest),
                         rng=np.random.default_rng(0))
        for job, peak in zip(campaign.jobs, (1024, 2048)):
            campaign._record(
                job, (report.steps, report.wall_time_s, peak), cached=False
            )
        assert campaign.streaming_summary()["peak_mem_bytes"].count == 2
        summary = campaign.final_summary()
        assert summary["peak_mem_bytes"].maximum == 2048.0


# ---------------------------------------------------------------------------
# HTTP service + client


@pytest.fixture(scope="module")
def service(stores, tmp_path_factory):
    corpus, _d1, _d2 = stores
    root = tmp_path_factory.mktemp("service-http")
    with start_in_thread(root / "reports", corpus, workers=1) as handle:
        yield ServiceClient(port=handle.port)


class TestService:
    def test_health(self, service):
        health = service.health()
        assert health["ok"] is True
        assert set(health["store"]) == {
            "hits", "misses", "writes", "quarantined", "entries",
        }

    def test_submit_stream_fetch_resubmit(self, service, stores):
        _corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=6, seed=23)
        submitted = service.submit(spec)
        assert submitted["state"] in ("pending", "running", "completed")
        snapshots = list(service.stream(submitted["id"]))
        assert snapshots[-1]["state"] == "completed"
        final = service.wait(submitted["id"], timeout=120)
        assert final["completed"] == 6
        assert final["summary"]["steps"]["count"] == 6

        jobs = service.jobs(submitted["id"])
        assert len(jobs) == 6 and all(j["completed"] for j in jobs)
        report = service.fetch_report(jobs[0]["digest"])
        assert report.protocol == "decay"
        document = service.fetch_document(jobs[0]["digest"])
        assert document["digest"] == jobs[0]["digest"]

        # Resubmit: every job a store hit, summary identical.
        again = service.wait(service.submit(spec)["id"], timeout=120)
        assert again["cached"] == 6 and again["executed"] == 0
        assert again["summary"] == final["summary"]

    def test_stream_of_a_cached_campaign_is_coalesced(
        self, service, stores
    ):
        # 300 store hits land within milliseconds: the stream sends the
        # line on subscribe, at most one line per interval, and the
        # settled line at once, not one line per landed job.
        import time

        from repro.service.http import STREAM_INTERVAL_S

        _corpus, _d1, digest = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=300, seed=83)
        cold = service.wait(service.submit(spec)["id"], timeout=300)
        assert cold["executed"] == 300
        started = time.perf_counter()
        lines = list(service.stream(service.submit(spec)["id"]))
        elapsed = time.perf_counter() - started
        final = service.status(lines[-1]["id"])
        assert lines[-1] == final
        assert final["state"] == "completed" and final["cached"] == 300
        assert final["summary"] == cold["summary"]
        assert len(lines) < 300
        assert len(lines) <= 2 + elapsed / STREAM_INTERVAL_S

    def test_concurrent_streams_each_end_settled(self, service, stores):
        # Several subscribers re-arm one campaign's wake-up flag while
        # its thread lands jobs unlocked; with a tiny switch interval
        # every stream still ends on the settled status, and its
        # progress never goes backwards.
        import sys
        import threading

        _corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=120, seed=97)
        ident = service.submit(spec)["id"]
        streams = [[] for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda lines: lines.extend(service.stream(ident)),
                    args=(lines,),
                )
                for lines in streams
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        final = service.status(ident)
        assert final["state"] == "completed" and final["completed"] == 120
        for lines in streams:
            assert lines[-1] == final
            done = [line["completed"] for line in lines]
            assert done == sorted(done)

    def test_identical_inflight_spec_deduplicates(self, service, stores):
        _corpus, _d1, digest = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=30, seed=77)
        first = service.submit(spec)
        second = service.submit(spec)
        if second.get("deduplicated"):
            assert second["id"] == first["id"]
        service.wait(first["id"], timeout=120)

    def test_cancel_endpoint(self, service, stores):
        _corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=200, seed=131)
        submitted = service.submit(spec)
        status = service.cancel(submitted["id"])
        assert "state" in status
        final = service.wait(submitted["id"], timeout=120)
        assert final["state"] in ("cancelled", "completed")

    def test_refusals_are_protocol_error_shaped(self, service):
        with pytest.raises(ServiceError, match="unknown protocol") as e:
            service.submit('{"protocol":"nope","corpus":["x"],"n_trials":1}')
        assert e.value.status == 400
        with pytest.raises(ServiceError, match="no campaign") as e:
            service.status("c0ffee")
        assert e.value.status == 404
        with pytest.raises(ServiceError, match="no stored report"):
            service.fetch_document("deadbeef")
        with pytest.raises(ServiceError, match="JSON body"):
            service.submit("")
        with pytest.raises(ServiceError, match="no such endpoint"):
            service._request("GET", "/bogus")
        with pytest.raises(ServiceError, match="not supported") as e:
            service._request("DELETE", "/campaigns")
        assert e.value.status == 405

    def test_plain_config_refusal_is_a_400(self, service, stores):
        # A config its protocol refuses is the submitter's error:
        # restartable MIS with no epoch would report the empty set as a
        # success.
        _corpus, digest, _ = stores
        with pytest.raises(ServiceError, match="epochs") as e:
            service.submit(json.dumps({
                "protocol": "mis_restart", "corpus": [digest],
                "n_trials": 1, "config": {"epochs": 0},
            }))
        assert e.value.status == 400

    def test_malformed_content_length_is_a_client_refusal(self, service):
        import http.client

        for bad in ("banana", "-5"):
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=30
            )
            try:
                conn.putrequest("POST", "/campaigns",
                                skip_accept_encoding=True)
                conn.putheader("Content-Length", bad)
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 400
                payload = json.loads(response.read())
                assert "Content-Length" in payload["error"]["message"]
            finally:
                conn.close()

    def test_stalled_request_times_out_and_the_server_moves_on(
        self, service, monkeypatch
    ):
        # Half a request line, then silence: past the read deadline the
        # server answers 408 and closes, instead of holding the
        # connection open forever.
        import socket

        from repro.service import http as http_mod

        monkeypatch.setattr(http_mod, "READ_DEADLINE_S", 0.5)
        with socket.create_connection(
            (service.host, service.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /hea")
            received = b""
            while chunk := sock.recv(4096):
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 408 Request Timeout"
        payload = json.loads(body)
        assert payload["error"]["type"] == "ProtocolError"
        assert "read deadline" in payload["error"]["message"]
        # The stalled client cost the server nothing lasting.
        assert service.health()["ok"] is True

    def test_truncated_entry_is_a_miss_not_a_poisoned_cell(
        self, stores, tmp_path
    ):
        corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=5, seed=61)
        reports = tmp_path / "reports"
        # A document just outside the store, where "/reports/.." would
        # resolve if raw digests were joined onto the directory.
        (tmp_path / "...json").write_text('{"outside": true}')
        with start_in_thread(reports, corpus, workers=2) as handle:
            client = ServiceClient(port=handle.port)
            first = client.wait(client.submit(spec)["id"], timeout=120)
            assert first["state"] == "completed"
            for bad in ("..", "a" * 63):
                with pytest.raises(ServiceError, match="no stored") as e:
                    client.fetch_document(bad)
                assert e.value.status == 404
            victim = client.jobs(first["id"])[2]["digest"]
            path = ReportStore(reports).path_for(victim)
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            with pytest.raises(ServiceError, match="no stored") as e:
                client.fetch_document(victim)
            assert e.value.status == 404
            assert not path.exists()  # the fetch quarantined it
            again = client.wait(client.submit(spec)["id"], timeout=120)
            health = client.health()
        assert again["state"] == "completed"
        assert again["executed"] == 1 and again["cached"] == 4
        assert again["summary"]["steps"] == first["summary"]["steps"]
        assert len(list((reports / ".quarantine").iterdir())) == 1
        assert health["store"]["quarantined"] == 1
        assert health["store"]["writes"] == 6
        assert health["store"]["entries"] == 5

    def test_pooled_refusal_lands_in_the_record_error(
        self, stores, tmp_path
    ):
        import time

        corpus, digest, _ = stores
        spec = CampaignSpec(
            protocol="decay", corpus=(digest,), n_trials=4, seed=3,
            config=api.DecayConfig(iterations=-1),
        )
        with start_in_thread(tmp_path / "reports", corpus,
                             workers=2) as handle:
            client = ServiceClient(port=handle.port)
            ident = client.submit(spec)["id"]
            client.wait(ident, timeout=120)
            # The record's error is set just after the state settles.
            deadline = time.monotonic() + 30
            status = client.status(ident)
            while "error" not in status and time.monotonic() < deadline:
                time.sleep(0.05)
                status = client.status(ident)
        assert status["state"] == "failed"
        assert status["failed"] == 0
        assert "iterations" in status["error"]

    def test_campaign_listing(self, service):
        listed = service.campaigns()
        assert isinstance(listed, list)
        assert all("id" in entry for entry in listed)

    def test_stream_of_unknown_campaign_refuses(self, service):
        with pytest.raises(ServiceError, match="no campaign"):
            list(service.stream("cnope"))

    def test_wait_timeout_names_progress(self, service, stores):
        _corpus, digest, _ = stores
        spec = CampaignSpec(protocol="decay", corpus=(digest,),
                            n_trials=500, seed=991)
        submitted = service.submit(spec)
        if submitted["state"] in ("pending", "running"):
            with pytest.raises(ServiceError, match="did not settle"):
                service.wait(submitted["id"], timeout=0.0)
        service.cancel(submitted["id"])
        service.wait(submitted["id"], timeout=120)

    def test_service_errors_are_protocol_errors(self):
        assert issubclass(ServiceError, ProtocolError)


# ---------------------------------------------------------------------------
# CLI


class TestCLI:
    def test_serve_and_campaign_round_trip(
        self, stores, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        corpus, digest, _ = stores
        with start_in_thread(tmp_path / "reports", corpus) as handle:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({
                "protocol": "decay", "corpus": [digest], "n_trials": 3,
            }))
            rc = main([
                "campaign", "submit", str(spec_path),
                "--port", str(handle.port), "--wait", "--json",
            ])
            assert rc == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "completed"

            assert main([
                "campaign", "status", status["id"],
                "--port", str(handle.port),
            ]) == 0
            assert "state: completed" in capsys.readouterr().out

            assert main([
                "campaign", "watch", status["id"],
                "--port", str(handle.port),
            ]) == 0
            assert "3/3" in capsys.readouterr().out

    def test_store_verify_audits_every_entry(self, tmp_path, capsys):
        from repro.cli import main

        reports = tmp_path / "reports"
        store = ReportStore(reports)
        report = api.run("decay", graphs.random_udg(30, 4.0, np.random.default_rng(1)),
                         rng=np.random.default_rng(0))
        good, legacy, flipped = (
            JobKey(protocol="decay", graph="ab" * 8, seed=0, trial=trial,
                   policy=policy_digest(ExecutionPolicy()))
            for trial in range(3)
        )
        for key in (good, legacy, flipped):
            store.put(key, report)
        # A format-1 entry has no checksum line: bad, like a flipped bit.
        store.path_for(legacy).write_text(
            _format_1(legacy, encode_value(report))
        )
        path = store.path_for(flipped)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 1
        path.write_bytes(bytes(raw))

        def tree():
            return sorted(
                (str(p.relative_to(reports)), p.read_bytes())
                for p in reports.rglob("*") if p.is_file()
            )

        before = tree()
        assert main(["store", "verify", str(reports)]) == 1
        out = capsys.readouterr().out
        assert f"bad: {flipped.digest}\n" in out
        assert f"bad: {legacy.digest}\n" in out
        assert "1 ok, 2 bad" in out
        assert tree() == before  # an audit alone writes nothing

        assert main(["store", "verify", str(reports), "--quarantine"]) == 1
        out = capsys.readouterr().out
        assert f"bad: {flipped.digest} (quarantined)" in out
        assert f"bad: {legacy.digest} (quarantined)" in out
        assert not path.exists() and legacy not in store
        assert len(list((reports / ".quarantine").iterdir())) == 2

        assert main(["store", "verify", str(reports)]) == 0
        assert "1 ok, 0 bad" in capsys.readouterr().out
        assert store.get(legacy) is None and store.get(good) == report

        assert main(["store", "verify", str(tmp_path / "nowhere")]) == 2
        assert "no report store" in capsys.readouterr().err

    def test_campaign_refusals_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        missing.write_text('{"protocol":"nope","corpus":["x"],"n_trials":1}')
        with start_in_thread(tmp_path / "reports") as handle:
            assert main([
                "campaign", "submit", str(missing),
                "--port", str(handle.port),
            ]) == 2
            assert "unknown protocol" in capsys.readouterr().err
            assert main([
                "campaign", "status", "cbad", "--port", str(handle.port),
            ]) == 2

    def test_campaign_unreachable_service_exits_2(self, capsys):
        from repro.cli import main

        assert main([
            "campaign", "status", "c1", "--port", "1",
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err
