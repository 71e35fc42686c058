"""Command-line interface: the protocol registry, from a shell.

Every protocol subcommand is **generated from the registry**
(:mod:`repro.api`): one shared graph flag group, one shared execution
policy flag group, plus each protocol's own flags from its
:class:`~repro.api.registry.CLISpec`. No subcommand parses policy
knobs by hand anymore — ``--engine``, ``--mem-budget``, and
``--validate`` are the same three flags everywhere, refused the same
way everywhere (unknown values are named alongside the accepted
ones).

.. code-block:: bash

    python -m repro mis --graph udg --n 150 --seed 7
    python -m repro mis --n 150 --engine reference   # step-wise twin
    python -m repro mis --n 100000 --mem-budget 64M  # tighter streaming
    python -m repro broadcast --graph grid --rows 3 --cols 40
    python -m repro broadcast --graph udg --n 80 --packet
    python -m repro leader --graph gnp --n 100 --p 0.08
    python -m repro icp --graph udg --n 120
    python -m repro eed --graph udg --n 200 --desire 0.5
    python -m repro decay --graph udg --n 200 --iterations 8
    python -m repro bgi --graph udg --n 150
    python -m repro bgi --n 150 --jam 0.2           # adversarial jamming
    python -m repro mis_restart --n 150 --churn 0.3 # MIS under churn
    python -m repro leader_uptime --n 150 --crash-rate 0.1 --threshold 0.6
    python -m repro wakeup --believed-n 4096 --k 64
    python -m repro partition --graph udg --n 120 --beta 0.25
    python -m repro mis --corpus corpus/udg-n100000-3f1c9a2b44d0 --seed 7
    python -m repro classes --n 150

Every subcommand accepts ``--seed`` (default 0) and prints a short
human-readable report; machine-readable output is available with
``--json``. Protocol runs go through :func:`repro.api.run`, so the
printed report is a view of the same :class:`~repro.api.report
.RunReport` the library returns — engine, radio steps, wall time,
and the protocol's own fields. All engine/streaming flags are
performance or memory knobs only: seeded results are
bit-identical whatever the policy (``--validate`` re-checks exactly
that at runtime, slowly). Windows stream in chunks sized to the
memory budget (256M unless ``--mem-budget`` says otherwise), which is
what makes ``n >= 10^5`` runs practical on a laptop.

The fault-injection group (``--crash-rate``, ``--churn``, ``--jam``,
``--hetero``, plus ``--fault-seed``/``--fault-horizon``) samples a
seeded :class:`~repro.faults.FaultSchedule` over the built graph and
folds it into the policy — the one flag group that *does* change
semantics. Protocols that cannot realize faults (round-accounted
pipelines, ``partition``) refuse them by name, exactly as the API
does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any

import networkx as nx
import numpy as np

from . import api, graphs
from .engine.policy import parse_mem_budget
from .radio.errors import ProtocolError


def _build_graph(args: argparse.Namespace, rng: np.random.Generator):
    """Construct the graph a subcommand asked for.

    A generator's refusal of its parameters (``--n 0``, ``--p 2``)
    surfaces as a :class:`~repro.radio.errors.ProtocolError`, so the
    subcommand exits 2 with an ``error:`` line like any other refusal.
    """
    if getattr(args, "corpus", None) is not None:
        # A stored corpus entry replaces the generated families:
        # mmap-loaded CSR arrays, zero-copy, digest into provenance.
        from . import corpus

        return corpus.load_graph(args.corpus)
    kind = args.graph
    try:
        if kind == "udg":
            return graphs.random_udg(args.n, side=args.side, rng=rng)
        if kind == "grid":
            return graphs.grid_udg(args.rows, args.cols, rng)
        if kind == "gnp":
            return graphs.connected_gnp(args.n, args.p, rng)
        if kind == "chain":
            return graphs.clique_chain(args.chains, args.clique_size)
        if kind == "tree":
            return graphs.random_tree(args.n, rng)
        if kind == "path":
            return graphs.path(args.n)
        if kind == "clique":
            return graphs.clique(args.n)
    except ValueError as exc:
        raise ProtocolError(f"--graph {kind}: {exc}") from exc
    raise ProtocolError(f"unknown graph kind: {kind!r}")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """Flags every subcommand shares (seeding and output form)."""
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--json", action="store_true", help="print machine-readable JSON"
    )


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    """The shared graph-family flag group."""
    parser.add_argument(
        "--graph",
        default="udg",
        choices=["udg", "grid", "gnp", "chain", "tree", "path", "clique"],
        help="graph family (default: udg)",
    )
    parser.add_argument("--n", type=int, default=100, help="node count")
    parser.add_argument(
        "--side", type=float, default=5.0, help="UDG box side length"
    )
    parser.add_argument("--rows", type=int, default=3, help="grid rows")
    parser.add_argument("--cols", type=int, default=30, help="grid cols")
    parser.add_argument("--p", type=float, default=0.08, help="G(n,p) density")
    parser.add_argument(
        "--chains", type=int, default=8, help="clique-chain length"
    )
    parser.add_argument(
        "--clique-size", type=int, default=10, help="clique-chain clique size"
    )
    parser.add_argument(
        "--corpus",
        default=None,
        metavar="PATH",
        help="run on a stored corpus entry (mmap-loaded CSR graph) "
        "instead of generating one; overrides the --graph family flags",
    )


def _parse_mem_budget_arg(text: str) -> int:
    """Argparse type for ``--mem-budget``: the shared parser's refusal,
    surfaced as an argparse error."""
    try:
        return parse_mem_budget(text)
    except ProtocolError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: Policy knobs earlier versions accepted, kept as hidden flags.
_REMOVED_POLICY_FLAGS = ("restrict", "delivery", "chunk_steps")


def _add_policy_options(parser: argparse.ArgumentParser) -> None:
    """The shared execution-policy flag group, one per protocol.

    The ``--engine`` choice list is :data:`~repro.api.ENGINE_MODES`,
    the engines every protocol implements; argparse refuses the rest by
    name — the CLI face of the policy's uniform refusals.
    """
    group = parser.add_argument_group("execution policy")
    group.add_argument(
        "--engine",
        default="windowed",
        choices=api.ENGINE_MODES,
        help=(
            "execution engine (default windowed; the step-wise "
            "reference is bit-identical on a seed)"
        ),
    )
    # Knobs earlier versions accepted: still parsed, so that naming one
    # reaches the policy's uniform refusal instead of argparse's.
    for removed in _REMOVED_POLICY_FLAGS:
        group.add_argument(
            f"--{removed.replace('_', '-')}",
            default=None,
            help=argparse.SUPPRESS,
        )
    group.add_argument(
        "--mem-budget",
        type=_parse_mem_budget_arg,
        default=api.ExecutionPolicy().mem_budget,
        metavar="BYTES",
        help=(
            "target peak memory of one streamed chunk, with optional "
            "K/M/G suffix (default 256M); caps the chunk height by "
            "a bytes-per-cell cost model (memory knob only; "
            "bit-identical at any setting)"
        ),
    )
    group.add_argument(
        "--validate",
        action="store_true",
        help=(
            "re-execute every window step-by-step on a shadow network "
            "and assert bit-identical delivery (slow; diagnostics)"
        ),
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """The shared fault-injection flag group (semantics knobs).

    Rates sample a seeded :class:`~repro.faults.FaultSchedule` over
    the built graph; all-zero rates mean no schedule at all
    (bit-identical to today's runs).
    """
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="fraction of nodes that crash at a random step",
    )
    group.add_argument(
        "--churn",
        type=float,
        default=0.0,
        metavar="R",
        help=(
            "sleep/wake churn rate: fraction of nodes with a sleep "
            "interval, and of late joiners"
        ),
    )
    group.add_argument(
        "--jam",
        type=float,
        default=0.0,
        metavar="R",
        help="adversarial jamming rate: expected fraction of jammed steps",
    )
    group.add_argument(
        "--hetero",
        type=float,
        default=0.0,
        metavar="R",
        help=(
            "heterogeneity rate: fraction of nodes with scaled "
            "transmit probability and a finite energy budget"
        ),
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault schedule draw (independent of --seed)",
    )
    group.add_argument(
        "--fault-horizon",
        type=int,
        default=None,
        metavar="H",
        help=(
            "declared step horizon of the schedule (jam placement and "
            "uptime measurement; default 64 ceil(log2 n))"
        ),
    )


def _faults_from_args(
    args: argparse.Namespace, graph
) -> "api.FaultSchedule | None":
    """Sample the flag group's schedule over the built graph.

    Needs the graph (``n`` fixes the node range), so it runs after
    graph construction; returns None when every rate is zero.
    """
    if not any((args.crash_rate, args.churn, args.jam, args.hetero)):
        return None
    n = graph.number_of_nodes()
    horizon = (
        args.fault_horizon
        if args.fault_horizon is not None
        else 64 * max(1, int(np.ceil(np.log2(max(2, n)))))
    )
    return api.FaultSchedule.sample(
        n,
        horizon,
        seed=args.fault_seed,
        crash_rate=args.crash_rate,
        churn=args.churn,
        jam=args.jam,
        hetero=args.hetero,
    )


def _emit(args: argparse.Namespace, report: dict[str, Any]) -> None:
    """Print a report dict as key/value lines or JSON."""
    if args.json:
        print(json.dumps(report, default=str))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _policy_from_args(args: argparse.Namespace) -> api.ExecutionPolicy:
    """The shared flag group, folded into one policy value."""
    removed = {
        name: getattr(args, name)
        for name in _REMOVED_POLICY_FLAGS
        if getattr(args, name) is not None
    }
    return api.ExecutionPolicy(
        engine=args.engine,
        mem_budget=args.mem_budget,
        validate=args.validate,
        **removed,
    )


def _run_protocol(spec: api.ProtocolSpec, args: argparse.Namespace) -> int:
    """The one generated subcommand body behind every protocol.

    Builds the graph and policy from the shared flag groups, the
    config from the spec's own flags, executes through
    :func:`repro.api.run`, and prints the shared report prefix plus
    the spec's fields. Policy/config refusals print to stderr and
    exit 2 — uniformly, whatever the protocol.
    """
    rng = np.random.default_rng(args.seed)
    try:
        policy = _policy_from_args(args)
        config = spec.cli.config_from_args(args)
        if spec.accepts == "none":
            graph = None
        else:
            graph = _build_graph(args, rng)
            if spec.cli.relabel and not hasattr(graph, "csr_arrays"):
                # Corpus graphs are identity-labeled by construction.
                graph = nx.convert_node_labels_to_integers(graph)
            faults = _faults_from_args(args, graph)
            if faults is not None:
                policy = dataclasses.replace(policy, faults=faults)
        report = api.run(
            spec, graph, rng=rng, config=config, policy=policy
        )
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload: dict[str, Any] = {}
    if graph is not None:
        payload["graph"] = graph.graph.get("family")
        payload["n"] = graph.number_of_nodes()
    payload["engine"] = report.policy.engine
    payload.update(spec.cli.report_fields(report, graph, config))
    _emit(args, payload)
    return spec.cli.exit_code(report, payload)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the experiment service and serve until interrupted."""
    import asyncio

    from .service import ExperimentService

    try:
        service = ExperimentService(
            args.reports,
            args.corpus,
            host=args.host,
            port=args.port,
            workers=args.workers,
            campaign_slots=args.campaign_slots,
        )
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        await service.start()
        print(
            f"repro service on http://{service.host}:{service.port} "
            f"(reports: {service.reports.directory}, "
            f"workers: {service.workers})",
            flush=True,
        )
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Client-side campaign verbs: submit / status / watch."""
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.action == "submit":
            if args.spec == "-":
                document = sys.stdin.read()
            else:
                with open(args.spec) as handle:
                    document = handle.read()
            status = client.submit(document)
            if args.wait:
                status = client.wait(status["id"])
        elif args.action == "status":
            status = client.status(args.id)
        else:  # watch
            status = None
            for snapshot in client.stream(args.id):
                status = snapshot
                if not args.json:
                    print(
                        f"{snapshot['state']}: "
                        f"{snapshot['completed']}/{snapshot['total']} "
                        f"({snapshot['cached']} cached, "
                        f"{snapshot['failed']} failed)"
                    )
            if status is None:
                raise ProtocolError(
                    f"campaign {args.id!r} produced no status snapshots"
                )
            if not args.json:
                return 0 if status["state"] == "completed" else 1
    except (ServiceError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot reach service: {exc}", file=sys.stderr)
        return 2
    _emit(args, status)
    return 0 if status.get("state") != "failed" else 1


def _cmd_store_verify(args: argparse.Namespace) -> int:
    """Audit a report store: check every entry the way a read does."""
    from .service import ReportStore

    store = ReportStore(args.reports)
    if not store.directory.is_dir():
        print(f"error: no report store at {args.reports}", file=sys.stderr)
        return 2
    verdicts = store.verify(quarantine=args.quarantine)
    for digest in verdicts["bad"]:
        moved = " (quarantined)" if args.quarantine else ""
        print(f"bad: {digest}{moved}")
    print(f"{len(verdicts['ok'])} ok, {len(verdicts['bad'])} bad")
    return 1 if verdicts["bad"] else 0


def _cmd_classes(args: argparse.Namespace) -> int:
    """Summarize the paper's graph classes (not a protocol run)."""
    rng = np.random.default_rng(args.seed)
    n = args.n
    rows = []
    for name, g in {
        "udg": graphs.random_udg(n, max(2.0, (n / 4.0) ** 0.5), rng),
        "quasi-udg": graphs.random_qudg(n, max(2.0, (n / 5.0) ** 0.5), rng),
        "path": graphs.path(n),
        "star": graphs.star(n),
        "tree": graphs.random_tree(n, rng),
    }.items():
        summary = graphs.summarize(g)
        rows.append(
            {
                "family": name,
                "n": summary.n,
                "D": summary.D,
                "alpha": summary.alpha,
                "log_D_alpha": round(summary.log_d_alpha, 2),
            }
        )
    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests).

    Protocol subcommands are generated from the registry — adding a
    protocol with CLI metadata to :mod:`repro.api.protocols` grows the
    CLI with no parser code here.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Radio network algorithms parametrized by independence "
            "number (Davies, PODC 2023 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for spec in api.list_protocols():
        if spec.cli is None:
            continue
        sp = sub.add_parser(spec.name, help=spec.cli.help)
        _add_common_options(sp)
        if spec.accepts != "none":
            _add_graph_options(sp)
            _add_fault_options(sp)
        _add_policy_options(sp)
        if spec.cli.add_arguments is not None:
            spec.cli.add_arguments(sp)
        sp.set_defaults(
            func=lambda a, _spec=spec: _run_protocol(_spec, a)
        )

    classes = sub.add_parser(
        "classes", help="summarize graph classes (n, D, alpha)"
    )
    _add_common_options(classes)
    _add_graph_options(classes)
    classes.set_defaults(func=_cmd_classes)

    serve = sub.add_parser(
        "serve",
        help="host the experiment service (campaigns over HTTP)",
    )
    serve.add_argument(
        "--reports",
        required=True,
        metavar="DIR",
        help="report store directory (created on first write)",
    )
    serve.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="corpus store that resolves submitted graph digests",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8471, help="bind port (0 = pick free)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width per campaign (1 = in-process serial)",
    )
    serve.add_argument(
        "--campaign-slots",
        type=int,
        default=2,
        help="campaigns executing concurrently; the rest queue",
    )
    serve.set_defaults(func=_cmd_serve)

    campaign = sub.add_parser(
        "campaign", help="submit and track campaigns on a service"
    )
    campaign_sub = campaign.add_subparsers(dest="action", required=True)
    for action, doc in (
        ("submit", "submit a CampaignSpec JSON document"),
        ("status", "one status snapshot of a campaign"),
        ("watch", "stream status updates until the campaign settles"),
    ):
        ap = campaign_sub.add_parser(action, help=doc)
        ap.add_argument("--host", default="127.0.0.1")
        ap.add_argument("--port", type=int, default=8471)
        ap.add_argument(
            "--json", action="store_true",
            help="print machine-readable JSON",
        )
        if action == "submit":
            ap.add_argument(
                "spec", help="spec document path, or - for stdin"
            )
            ap.add_argument(
                "--wait",
                action="store_true",
                help="block until the campaign settles",
            )
        else:
            ap.add_argument("id", help="campaign id (from submit)")
        ap.set_defaults(func=_cmd_campaign)

    store = sub.add_parser("store", help="maintain a report store")
    store_sub = store.add_subparsers(dest="action", required=True)
    verify = store_sub.add_parser(
        "verify",
        help="check every entry's checksum the way a read does; exit 1 "
        "if any is bad",
    )
    verify.add_argument("reports", metavar="DIR", help="report store")
    verify.add_argument(
        "--quarantine",
        action="store_true",
        help="move bad entries into the store's .quarantine/ "
        "(without it, nothing is written)",
    )
    verify.set_defaults(func=_cmd_store_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (`repro campaign status | head`);
        # suppress the traceback and exit like a well-behaved filter.
        # stdout's buffer still holds unflushable bytes — detach it so
        # interpreter shutdown doesn't print a second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
