"""What the benchmark in `perfbench/` asks of the program: the functions it
traces exist, and every command line it runs parses. Read only; the
benchmark's files are not changed here."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from speechpipe.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """A `perfbench` module, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in tracing.TRACED])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"speechpipe.{module}"), function, None))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("scale", sorted(workloads.SCALES))
@pytest.mark.parametrize("workers", [1, 2])
def test_every_op_parses(workload, scale, workers):
    for name, argv in workloads.ops(workload, scale, workers):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{workload} op {name}: the parser rejects {argv}")
