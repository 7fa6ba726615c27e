"""Module boundaries of the package: no module reaches into another's
private names, none reads the environment, so every knob is a flag or a
config field, none but the CLI imports `gc` or `threading` or forks, waits
for or exits a process, and the CLI writes its output in one place."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "speechpipe"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """`module.name` for every underscore-prefixed, non-dunder name that
    `path` imports from a speechpipe module (relative or absolute)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level > 0 or module == "speechpipe" or module.startswith("speechpipe.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{module}.{name}")
    return found


def test_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path) == []


def environment_reads(path: Path) -> list[str]:
    """`line N: <expression>` for every `os.environ` or `os.getenv` use in
    `path`, and for every `from os import environ/getenv`."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}" for a in node.names if a.name in names]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path) == []


def process_state_imports(path: Path) -> list[str]:
    """`line N: <module>` for every import of `gc` or `threading` in `path`."""
    names = {"gc", "threading"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.split(".")[0] in names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] in names:
            found.append(f"line {node.lineno}: {node.module}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cli_touches_process_wide_state(path):
    """The collector's switch is process-wide, so only `cli.main`, which owns
    the process, may flip it; no library module keeps a lock either."""
    assert path.name == "cli.py" or process_state_imports(path) == []


_PROCESS_CALLS = {"fork", "_exit", "waitpid"}


def process_calls(path: Path) -> list[str]:
    """`line N: <expression>` for every use of `os.fork`, `os._exit` or
    `os.waitpid` in `path`, and for every `from os import` of them."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS and ast.unparse(node.value) == "os":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}" for a in node.names if a.name in _PROCESS_CALLS]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cli_makes_processes(path):
    """Worker processes are the CLI's, as the collector switch is: a library
    module that forked, waited or left by `os._exit` would act for the whole
    process of every caller."""
    assert path.name == "cli.py" or process_calls(path) == []


def test_the_cli_makes_its_worker_processes():
    assert {line.split(": ")[1] for line in process_calls(PACKAGE / "cli.py")} == {"os.fork", "os._exit", "os.waitpid"}


_WRITER_CALLS = {"write_text", "write_bytes", "sys.stdout.write", "sys.stdout.buffer.write"}


def output_writes(path: Path, writer: str) -> list[str]:
    """`line N: <call>` for every call in `path` of a method named
    `write_text` or `write_bytes`, or of `sys.stdout.write` or
    `sys.stdout.buffer.write`, outside the function named `writer`."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == writer:
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _WRITER_CALLS or ast.unparse(node.func) in _WRITER_CALLS:
                found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_the_cli_writes_its_output_in_one_place():
    """Every report, CSV and RTTM the CLI writes goes through `cli._write`,
    so one encoding rule holds for stdout and every file."""
    assert output_writes(PACKAGE / "cli.py", "_write") == []
