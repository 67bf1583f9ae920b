"""The run directory's layout is one decision: its file names appear only in
``joint.RunDir``, and every write to a file goes through ``durable``."""

import ast
import re
from pathlib import Path

import pytest

import kbloop

SRC = Path(kbloop.__file__).resolve().parent
FILE_NAME = re.compile(r"[\w-]*\.(tsv|jsonl|json|npz)\b")
WRITE_MODE = re.compile(r"[wax+]")


def _docstrings(tree):
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _mode(call):
    """The constant mode string of an ``open`` call, if it has one."""
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        position = 1
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        position = 0
    else:
        return None
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[position:position + 1]
    return next((m.value for m in modes if isinstance(m, ast.Constant) and isinstance(m.value, str)),
                None)


def violations(source, module):
    """``(line, problem)`` for each file-name literal outside ``RunDir`` and
    each file write outside ``durable.py`` in ``source``."""
    tree = ast.parse(source)
    inside_run_dir = {
        id(node) for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "RunDir" for node in ast.walk(cls)
    }
    docstrings = _docstrings(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in inside_run_dir and id(node) not in docstrings
                and FILE_NAME.search(node.value)):
            found.append((node.lineno, f"file name {node.value!r} outside RunDir"))
        if isinstance(node, ast.Call) and module != "durable.py":
            mode = _mode(node)
            if mode is not None and WRITE_MODE.search(mode):
                found.append((node.lineno, f"open for writing ({mode!r})"))
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("write_text", "write_bytes"):
                found.append((node.lineno, f"{node.func.attr} call"))
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_names_no_run_dir_file_and_writes_only_through_durable(module):
    assert violations((SRC / module).read_text(encoding="utf-8"), module) == []


@pytest.mark.parametrize("source", [
    'path = run_dir / "report.json"',
    'path = run_dir / f"{name}.tsv"',
    'open(path, "w", encoding="utf-8")',
    'open(path, mode="ab")',
    'Path(p).open("w")',
    'Path(p).write_text("x")',
    'Path(p).write_bytes(b"x")',
    'class RunLog:\n    NAME = "paths.jsonl"',
])
def test_the_guard_sees_each_kind_of_breach(source):
    assert violations(source, "cli.py")


@pytest.mark.parametrize("source", [
    'class RunDir:\n    def f(self):\n        return self.path / "completer.npz"',
    'def f():\n    """Reads trajectories.jsonl."""',
    'open(path, "rb")',
    'opener.open(request, timeout=1)',
    'headers = {"Content-Type": "application/json"}',
])
def test_the_guard_lets_run_dir_names_and_reads_through(source):
    assert violations(source, "cli.py") == []
