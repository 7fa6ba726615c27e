"""What the benchmark in `perfbench/` asks of the program: the functions it
traces exist, and every command line it runs parses. And what a committed
run record (`BENCH_*.json`) must be to count as evidence. Read only; the
benchmark's files are not changed here."""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from speechpipe.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def strict_json(path: Path):
    """The document in `path`; a key given twice in one object is an error."""

    def pairs(items):
        keys = [key for key, _ in items]
        assert len(set(keys)) == len(keys), f"duplicate keys in {path.name}"
        return dict(items)

    return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=pairs)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_run_record(path):
    """A run record cited as evidence came from a run that passed every check
    and carries the per-layer metrics `BENCHMARK.json` declares, no more, no
    fewer, each a finite number in its declared unit."""
    record = strict_json(path)
    assert record["correct"] is True
    assert record["failed"] == 0
    declared = {m["name"]: m["unit"] for m in strict_json(ROOT / "BENCHMARK.json")["per_layer"]}
    assert sorted(record["metrics"]) == sorted(declared)
    for name, metric in record["metrics"].items():
        assert metric["unit"] == declared[name], name
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), name
