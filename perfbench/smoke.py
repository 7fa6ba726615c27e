"""Smoke check of the benchmark at tiny sizes (about half a minute).

Usage: python3 perfbench/smoke.py

For every workload, in one interpreter: a pass at --workers 2, a pass at
--workers 1 and a traced pass at --workers 2 must all pass their output
checks and reproduce the recorded tiny-size digests of the default seed
(the determinism contract), and the traced pass must show time in exactly
the layers the workload is meant to load. Then run.py itself runs once
timed and once traced, on diarize_batch, and must print a correct result
with every metric BENCHMARK.json names. Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import child
import run
import tracing
import workloads

# Modules whose traced functions do work on each workload; every other
# module's per-layer times must be zero there (see README.md).
LOADED = {
    "longform_chunk": {"wavefile", "audio", "chunking"},
    "diarize_batch": {"interchange", "clustering", "timeline", "repair"},
    "score_corpus": {"timeline", "repair", "metrics"},
}
MODULES = {"wavefile", "audio", "chunking", "interchange", "clustering", "timeline", "repair", "metrics"}


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def in_process_checks() -> None:
    sys.path.insert(0, str(run.SRC))
    import speechpipe.cli as cli

    recorded = json.loads(run.DIGESTS.read_text())["tiny"]
    prepared = {w: run.prepare(w, run.DEFAULT_SEED, "tiny") for w in workloads.WORKLOADS}
    tracer = tracing.Tracer()
    here = os.getcwd()
    try:
        # Untraced passes first: installing the tracer rewrites the modules.
        for label, workers, traced in (("workers 2", 2, False), ("workers 1", 1, False), ("traced", 2, True)):
            if traced:
                tracer.install()
                if tracer.missing:
                    fail(f"traced names missing from the program: {tracer.missing}")
            for workload, (workdir, truth) in prepared.items():
                spec = {"workload": workload, "truth": truth, "ops": workloads.ops(workload, "tiny", workers)}
                os.chdir(workdir)
                first_span = len(tracer.spans)
                with contextlib.redirect_stderr(io.StringIO()):  # the CLI's per-file log lines
                    done = child.run_pass(cli, spec, tracer if traced else None, 0, recorded[workload])
                os.chdir(here)
                problems = [p for op in done["ops"] for p in op["problems"]]
                if problems:
                    fail(f"{workload} {label}: {problems[:5]}")
                if traced:
                    spans = [vars(s) for s in tracer.spans[first_span:]]
                    check_layers(workload, tracing.layer_metrics(spans, 1, len(done["ops"]), 0))
                print(f"smoke: {workload} {label}: {len(done['ops'])} ops, digests match")
    finally:
        os.chdir(here)
        for workdir, _ in prepared.values():
            shutil.rmtree(workdir, ignore_errors=True)


def check_layers(workload: str, metrics: dict[str, float]) -> None:
    busy = {name.split(".")[0] for name, value in metrics.items()
            if name.endswith(".s") and name.split(".")[0] in MODULES and value > 0}
    if busy != LOADED[workload]:
        fail(f"{workload}: time in {sorted(busy)}, expected {sorted(LOADED[workload])}")


def run_py_checks() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, names in ((0, [m["name"] for m in spec["end_to_end"]]), (1, [m["name"] for m in spec["per_layer"]])):
        argv = [sys.executable, str(run.HERE / "run.py"), "--workload", "diarize_batch", "--seed", "0",
                "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            fail(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-1000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not report["correct"] or report["failed"] or sorted(report["metrics"]) != sorted(names):
            fail(f"run.py --trace {trace}: {json.dumps(report)[:1000]}")
        print(f"smoke: run.py --trace {trace}: correct, {len(names)} metrics")


if __name__ == "__main__":
    if not (run.SRC / "speechpipe" / "cli.py").is_file():
        fail(f"speechpipe sources not found under {run.SRC}")
    in_process_checks()
    run_py_checks()
    print("smoke: ok")
