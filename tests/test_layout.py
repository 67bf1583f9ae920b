"""The run directory's layout is one decision: its file names appear only in
``joint.RunDir``, and every write to a file goes through ``durable``. And
no definition in the package has a name that nothing in the package
mentions (a check by bare name, so a dead method whose name some other
object's attribute shares goes unseen)."""

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


# Definitions that nothing in the package refers to by name, each with why it stays.
USED_FROM_OUTSIDE = {
    "llm._NoRedirect.redirect_request": "urllib calls it",
    # perfbench alone calls these two; ROADMAP item 2 deletes both
    "completer.CompletionQuery.tail_query": "perfbench/selftest.py calls it",
    "joint.RunLog": "perfbench/spans.py wraps its methods",
}


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _definitions(tree, module):
    """``(line, qualified name)`` of each module-level function, class and
    assignment, and each method; click commands are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_click_command(node):
                yield node.lineno, f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.lineno, f"{module}.{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.lineno, f"{module}.{name.id}"


def unused(sources):
    """``(line, qualified name)`` of each definition in ``sources`` (module
    name to source) whose bare name no loaded name, attribute or import
    alias mentions. Dunders and ``USED_FROM_OUTSIDE`` are let through."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referred = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referred.add(node.attr)
            elif isinstance(node, ast.alias):
                referred.add(node.name)
    found = []
    for module, tree in trees.items():
        for line, qualified in _definitions(tree, module):
            name = qualified.rsplit(".", 1)[1]
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referred and qualified not in USED_FROM_OUTSIDE:
                found.append((line, qualified))
    return found


def test_every_definition_name_is_mentioned_in_the_package():
    """By bare name: it catches names nothing in the package mentions, not
    every definition nothing calls."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused(sources) == []


@pytest.mark.parametrize("source, flagged", [
    ("def f():\n    pass", [(1, "m.f")]),
    ("class C:\n    def f(self):\n        pass\n\nC()", [(2, "m.C.f")]),
    ("LIMIT = 3", [(1, "m.LIMIT")]),
    ("def f():\n    pass\n\nf()", []),
    ("class C:\n    def f(self):\n        pass\n\nC().f()", []),
    # by bare name: another object's attribute ``f`` lets the dead ``C.f`` through
    ("class C:\n    def f(self):\n        pass\n\nC()\nobject.f", []),
    ("def __getattr__(name):\n    pass", []),
    ("import click\n\n@click.group()\ndef main():\n    pass\n\n@main.command()\ndef run():\n"
     "    pass", []),
])
def test_the_unused_guard_flags_only_definitions_nothing_refers_to(source, flagged):
    assert unused({"m": source}) == flagged


def test_the_unused_guard_lets_the_named_exemptions_through():
    assert unused({"joint": "class RunLog:\n    pass"}) == []
