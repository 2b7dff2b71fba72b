"""The names the benchmark under perfbench/ looks up in `tsk`.

perfbench traces the functions its `TRACED` table names by rebinding them in
the loaded `tsk` modules, and its worker stamps and counts through a few more
names. A rename or deletion in `tsk` would only show when the benchmark runs;
these checks make it fail with the rest of the suite.
"""

import ast
import importlib
from pathlib import Path

import pytest

import tsk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_names():
    """The literal `TRACED` table of perfbench/tracing.py, read without running the module."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no TRACED table")


@pytest.mark.parametrize("module, name", traced_names(), ids=lambda x: x)
def test_every_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"tsk.{module}"), name))


def test_worker_names_exist():
    from tsk import _backend, svm

    assert tsk.active_backend() == "python"
    assert _backend.HAVE_EXT is False
    assert callable(svm.train)
