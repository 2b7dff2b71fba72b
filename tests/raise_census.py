"""Every `raise` statement of `src/tsk` is raised by a Tier-1 test, or its function is listed in `NEVER_RAISED` with a reason.

Run from the repository root, with the Tier-1 suite's arguments or any
other pytest arguments (a subset of the suite gives a partial census):

    PYTHONPATH=src python tests/raise_census.py
    PYTHONPATH=src python tests/raise_census.py tests/test_svm.py

It runs pytest in this interpreter under `sys.settrace` and
`threading.settrace` (the noise fit's worker threads are traced too), and
records the line of every exception event in a frame of `src/tsk`: the frame
that raises sees the event first, at its `raise`. It exits 1 when the suite
fails, when a `raise` statement is neither raised nor in a function that
`NEVER_RAISED` lists, and when a listed function no longer holds a `raise`
that no test raises. Subprocesses (the reach probe, the import-footprint
probes, `rates --threads` workers) are not traced, so what only they raise
counts as never raised.

The traced suite takes about 1.6 times as long as the plain one, so it is a
CI step and not a Tier-1 test; Tier-1 runs `tests/test_raise_census.py`,
which checks that every entry still names a function with a `raise`.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tsk"
TIER1 = [str(ROOT / "tests"), "-q", "--continue-on-collection-errors"]

# function (module.qualname) -> why no Tier-1 test raises the `raise` statements in it
NEVER_RAISED = {}


def raise_sites() -> dict:
    """module.qualname of the function around each `raise` statement of `src/tsk` (the module's
    name for one outside any function), keyed by (file name, first line, last line) of the statement."""
    sites = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, file, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.Raise):
                sites[(file, child.lineno, child.end_lineno)] = prefix
            visit(child, file, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, path.stem)
    return sites


def traced_run(args) -> tuple:
    """pytest's exit code on `args`, and the (file name, line) of every exception event in a frame of `src/tsk`."""
    import pytest

    events, src = set(), str(SRC)

    def in_tsk(frame, event, arg):
        if event == "exception":
            events.add((Path(frame.f_code.co_filename).name, frame.f_lineno))
        return in_tsk

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        frame.f_trace_lines = False  # exception events only
        return in_tsk

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return code, events


def never_raised(events) -> dict:
    """The sites of `raise_sites` that no exception event falls on, with their function."""
    return {
        (file, first, last): name
        for (file, first, last), name in raise_sites().items()
        if not any((file, line) in events for line in range(first, last + 1))
    }


def main(argv) -> int:
    code, events = traced_run(argv or TIER1)
    never = never_raised(events)
    unlisted = sorted(f"{name} ({file}:{first})" for (file, first, _), name in never.items() if name not in NEVER_RAISED)
    stale = sorted(set(NEVER_RAISED) - set(never.values()))
    print(f"raise census: {len(raise_sites())} raise statements in src/tsk, {len(never)} never raised, {len(NEVER_RAISED)} functions listed")
    for site in unlisted:
        print(f"  never raised, not listed: {site}")
    for name in stale:
        print(f"  listed, but every raise in it ran: {name}")
    if code != 0:
        print(f"  the suite failed (pytest exit code {code})")
    return 1 if code != 0 or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
