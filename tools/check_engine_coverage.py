#!/usr/bin/env python
"""Line-coverage floor for the engine layer (``src/repro/engine``),
the fault-injection layer (``src/repro/faults``), and the corpus
layer (``src/repro/corpus``).

Stdlib-only (the container bakes no ``coverage``/``pytest-cov``): line
events are collected with ``sys.monitoring`` on Python 3.12+ (cheap —
non-engine code objects are disabled after their first event) or a
``sys.settrace`` local-trace filter on 3.11, while the engine-focused
test files run in-process through ``pytest.main``. Executable lines
come from compiling each engine module and walking its code objects'
``co_lines`` tables.

The floor is a regression gate for the scheduler layer specifically:
the engine is the substrate every protocol's correctness argument rests
on, so untested engine branches are a categorically worse smell than
untested leaf protocols. The fault layer is held to the same floor for
the same reason — its mask transforms sit inside every delivery, so an
untested branch there corrupts every protocol at once. Run from the
repository root::

    PYTHONPATH=src python tools/check_engine_coverage.py

Exit status is nonzero when overall engine coverage drops below
``FLOOR`` (or any single module below ``FILE_FLOOR``, or below its own
entry in ``MODULE_FLOORS``).
"""

from __future__ import annotations

import ast
import pathlib
import sys
import types

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ENGINE_DIR = (REPO_ROOT / "src" / "repro" / "engine").resolve()
FAULTS_DIR = (REPO_ROOT / "src" / "repro" / "faults").resolve()
CORPUS_DIR = (REPO_ROOT / "src" / "repro" / "corpus").resolve()
SERVICE_DIR = (REPO_ROOT / "src" / "repro" / "service").resolve()
TRACKED_DIRS = (ENGINE_DIR, FAULTS_DIR, CORPUS_DIR, SERVICE_DIR)

#: Overall executable-line coverage the engine package must keep.
FLOOR = 0.90
#: Per-module floor (looser: small modules swing harder per line).
FILE_FLOOR = 0.85
#: Stricter floors for single modules: the transmitter sampler is the
#: randomness every Decay, EED and Radio MIS run rests on.
MODULE_FLOORS = {"engine/sampler.py": 0.95}

#: The test files that exercise the engine layer. Contract + fuzz
#: suites are included on purpose: their replay/twin checks are where
#: the rarely-taken engine branches (fault filters, chunk boundaries)
#: actually fire.
TEST_FILES = [
    "tests/test_engine_windowed.py",
    "tests/test_engine_mux.py",
    "tests/test_engine_budget.py",
    "tests/test_engine_streaming.py",
    "tests/test_schedule_contract.py",
    "tests/test_fuzz_differential.py",
    # The fault layer's own suite (schedule refusals, mask-transform
    # semantics, energy ledger, uptime math, provenance).
    "tests/test_faults.py",
    # The API front door is the policy layer's (engine/policy.py)
    # primary exerciser: equivalence, refusals, resolution.
    "tests/test_api.py",
    "tests/test_dense_routing.py",
    # Keyed offset draws, the delivery kernel, live-set equivalence.
    "tests/test_residual.py",
    # The transmitter sampler's contract (chunking, rates, degenerate
    # blocks).
    "tests/test_sampler.py",
    # The corpus layer (cell-grid generation, the mmap store, the
    # entry-path fan-out) and the result-equality mixin it leans on.
    "tests/test_corpus.py",
    "tests/test_result_equality.py",
    # The transmitter-list chunk path (fault filter, product kernel,
    # per-phase timing, provenance counters).
    "tests/test_pipeline.py",
    # The experiment service (report store, campaign engine, HTTP
    # front, client).
    "tests/test_service.py",
]

#: Comment marker excluding a statement (and its whole block) from the
#: floors. Reserved for code that *cannot* execute in a test run —
#: hardware-dependent or crash-only branches.
PRAGMA = "# pragma: no cover"

_executed: dict[str, set[int]] = {}
_prefix = tuple(str(d) for d in TRACKED_DIRS)


def _start_settrace() -> None:
    def global_trace(frame, event, arg):
        if event != "call":
            return None
        if not frame.f_code.co_filename.startswith(_prefix):
            return None
        lines = _executed.setdefault(frame.f_code.co_filename, set())
        lines.add(frame.f_lineno)

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    # sys.settrace hooks only the calling thread; the service layer
    # executes on asyncio/server and campaign-executor threads, which
    # threading.settrace covers (installed into each thread at start).
    import threading

    threading.settrace(global_trace)
    sys.settrace(global_trace)


def _start_monitoring() -> None:
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    mon.use_tool_id(tool, "engine-coverage")

    def on_line(code: types.CodeType, line: int):
        if code.co_filename.startswith(_prefix):
            _executed.setdefault(code.co_filename, set()).add(line)
            return None
        return mon.DISABLE

    def on_start(code: types.CodeType, _offset: int):
        if code.co_filename.startswith(_prefix):
            _executed.setdefault(code.co_filename, set()).add(
                code.co_firstlineno
            )
            return None
        return mon.DISABLE

    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.register_callback(tool, mon.events.PY_START, on_start)
    mon.set_events(tool, mon.events.LINE | mon.events.PY_START)


def _stop_tracing() -> None:
    if hasattr(sys, "monitoring"):
        mon = sys.monitoring
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)
    else:
        sys.settrace(None)


def pragma_excluded_lines(path: pathlib.Path) -> set[int]:
    """Lines excluded by ``# pragma: no cover`` markers.

    A pragma on a statement header (a ``def``, an ``if``, a ``try``)
    excludes the statement's whole source span, decorators included; a
    pragma on an ``else:``/``finally:`` keyword line excludes that
    clause's body. AST-based, so the exclusion tracks real block
    structure rather than indentation guessing.
    """
    source = path.read_text()
    text_lines = source.splitlines()
    pragma_lines = {
        i + 1 for i, line in enumerate(text_lines) if PRAGMA in line
    }
    if not pragma_lines:
        return set()
    excluded: set[int] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            start = min(
                [node.lineno]
                + [
                    d.lineno
                    for d in getattr(node, "decorator_list", [])
                ]
            )
            if node.lineno in pragma_lines or start in pragma_lines:
                excluded.update(range(start, node.end_lineno + 1))
        # else:/finally: keyword lines are not statement nodes; find
        # the keyword line just above the clause body and, if marked,
        # exclude the body.
        for field in ("orelse", "finalbody"):
            body = getattr(node, field, None)
            # ``IfExp.orelse`` is a single expression, not a clause
            # body — only statement lists have an ``else:`` keyword
            # line to look for.
            if not isinstance(body, list) or not body:
                continue
            for cand in range(body[0].lineno - 1, node.lineno, -1):
                stripped = text_lines[cand - 1].strip()
                if stripped.startswith(("else", "finally")):
                    if cand in pragma_lines:
                        excluded.add(cand)
                        excluded.update(
                            range(
                                body[0].lineno,
                                body[-1].end_lineno + 1,
                            )
                        )
                    break
    return excluded


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers with executable instructions, from the code objects.

    Function/def header lines are mapped by the interpreter to entry
    events rather than line events on some versions, so they are
    tracked separately via ``co_firstlineno`` (see ``on_start`` /
    the settrace call event) — here every line a ``co_lines`` table
    names is executable.
    """
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
        for _start, _end, line in co.co_lines():
            if line is not None:
                lines.add(line)
    return lines - pragma_excluded_lines(path)


def main() -> int:
    import pytest

    sys.path.insert(0, str(REPO_ROOT / "src"))
    if any(name.startswith("repro") for name in sys.modules):
        print(
            "error: repro imported before tracing started; run this "
            "tool as a fresh process",
            file=sys.stderr,
        )
        return 2

    if hasattr(sys, "monitoring"):
        _start_monitoring()
    else:
        _start_settrace()
    try:
        rc = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--fuzz-rounds", "1"]
            + [str(REPO_ROOT / t) for t in TEST_FILES]
        )
    finally:
        _stop_tracing()
    if rc != 0:
        print(f"engine test run failed (pytest exit {rc})", file=sys.stderr)
        return int(rc)

    total_expected = 0
    total_hit = 0
    failed = False
    print("\nengine + fault layer line coverage:")
    for tracked in TRACKED_DIRS:
        for path in sorted(tracked.glob("*.py")):
            label = f"{tracked.name}/{path.name}"
            expected = executable_lines(path)
            hit = _executed.get(str(path), set()) & expected
            missed = sorted(expected - hit)
            ratio = len(hit) / len(expected) if expected else 1.0
            total_expected += len(expected)
            total_hit += len(hit)
            floor = MODULE_FLOORS.get(label, FILE_FLOOR)
            flag = ""
            if ratio < floor:
                failed = True
                flag = f"  << below file floor {floor:.0%}"
            print(
                f"  {label:22s} {ratio:7.1%} "
                f"({len(hit)}/{len(expected)}){flag}"
            )
            if missed and ratio < 1.0:
                preview = ", ".join(map(str, missed[:12]))
                more = (
                    ""
                    if len(missed) <= 12
                    else f", ... +{len(missed) - 12}"
                )
                print(f"    missed lines: {preview}{more}")

    overall = total_hit / total_expected if total_expected else 1.0
    print(
        f"  {'TOTAL':22s} {overall:7.1%} ({total_hit}/{total_expected})"
    )
    if overall < FLOOR:
        failed = True
        print(f"overall coverage below floor {FLOOR:.0%}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
