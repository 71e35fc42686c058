"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_graph_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mis", "--graph", "torus"])


class TestMIS:
    def test_runs_and_reports_valid(self, capsys):
        code = main(
            ["mis", "--graph", "udg", "--n", "40", "--side", "3.0",
             "--seed", "3", "--oracle-degree"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mis_size" in out
        assert "valid: True" in out

    def test_json_output(self, capsys):
        code = main(
            ["mis", "--graph", "clique", "--n", "16", "--seed", "1",
             "--oracle-degree", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["mis_size"] == 1

    def test_full_protocol_path(self, capsys):
        code = main(
            ["mis", "--graph", "path", "--n", "16", "--seed", "2",
             "--eed-c", "4"]
        )
        assert code == 0


class TestBroadcast:
    def test_delivers(self, capsys):
        code = main(
            ["broadcast", "--graph", "grid", "--rows", "3", "--cols", "10",
             "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered: True" in out

    def test_baseline_flag(self, capsys):
        code = main(
            ["broadcast", "--graph", "chain", "--chains", "4",
             "--clique-size", "5", "--baseline", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "all"
        assert report["delivered"] is True


class TestLeader:
    def test_elects(self, capsys):
        code = main(
            ["leader", "--graph", "gnp", "--n", "60", "--p", "0.12",
             "--seed", "4", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        # whp success; on the rare failure the exit code says so honestly.
        assert code in (0, 1)
        assert "elected" in report


class TestPartition:
    def test_reports_cluster_stats(self, capsys):
        code = main(
            ["partition", "--graph", "udg", "--n", "50", "--side", "3.5",
             "--beta", "0.25", "--seed", "6", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clusters_used"] >= 1
        assert report["max_radius"] >= 0


class TestClasses:
    def test_lists_families(self, capsys):
        code = main(["classes", "--n", "40", "--seed", "8", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        families = {row["family"] for row in rows}
        assert {"udg", "path", "star"} <= families


class TestOutOfRangeRefusals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["icp", "--n", "30", "--ell", "0"],
            ["icp", "--n", "30", "--beta", "0"],
            ["partition", "--n", "30", "--beta", "0"],
            ["eed", "--n", "30", "--eed-c", "0"],
            ["eed", "--n", "30", "--desire", "2"],
            ["mis", "--n", "30", "--eed-c", "0"],
            ["mis_restart", "--n", "30", "--epochs", "0"],
            ["mis_restart", "--n", "30", "--epochs", "-3"],
            ["wakeup", "--k", "0"],
            ["leader_uptime", "--n", "30", "--threshold", "2"],
            ["decay", "--n", "30", "--iterations", "-1"],
            ["decay", "--n", "0"],
            ["decay", "--graph", "gnp", "--n", "30", "--p", "2"],
            ["decay", "--graph", "grid", "--rows", "0"],
            ["decay", "--graph", "chain", "--chains", "0"],
        ],
        ids=" ".join,
    )
    def test_refused_with_exit_2(self, argv, capsys):
        # An out-of-range config or graph value is a refusal (exit 2,
        # one ``error:`` line), never a crash with a traceback.
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["999", "-1"])
    @pytest.mark.parametrize(
        "packet", [[], ["--packet"]], ids=["accounted", "packet"]
    )
    def test_source_out_of_range_refused(self, source, packet, capsys):
        # Both fidelity levels refuse an out-of-range broadcast source
        # with the same one-line error.
        code = main(["broadcast", "--n", "30", "--source", source, *packet])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: source {source} out of range [0, 30)\n"
