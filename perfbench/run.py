"""Benchmark of the speechpipe command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests    # rewrite perfbench/digests.json

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. It writes the workload's inputs from the seed,
reads each input once, then starts a child interpreter (child.py) that
calls `speechpipe.cli.main(argv)` once per op, with BLAS and OpenMP pinned
to one thread and `--workers 2`. Input generation, output hashing and
cleanup sit outside every timed region.

With --trace 0 the last stdout line reports the end-to-end metrics
(setup_s, wall_s, peak_rss_mb); with --trace 1 it reports the per-layer
metrics of a separate traced child, the tracing overhead, the import-time
breakdown and the host-drift probe. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKERS = 2
DEFAULT_SEED = 0
COLD_STARTS = 5
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_LAYERS = ["speechpipe.cli", "speechpipe.audio", "speechpipe.metrics",
                 "scipy.signal", "scipy.optimize", "numpy"]


class BenchError(Exception):
    """The run cannot produce a result (missing program, child crash, timeout)."""


def child_env(pinned: bool = True) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    env["PYTHONPATH"] = str(SRC)
    if pinned:
        env.update(PINNED)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        return remaining


def run_proc(argv: list[str], env: dict, deadline: Deadline, **kwargs) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=deadline.left(), **kwargs)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"timed out: {argv[:3]}") from exc


# ---------------------------------------------------------------------------
# Host-drift probe (not gated)

def calibrate() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    x = np.random.default_rng(0).standard_normal(1 << 19)
    for _ in range(4):
        np.sort(x)
        np.fft.rfft(x)
    return time.perf_counter() - t0


def steal_seconds() -> float:
    """Cumulative steal time of the host's CPUs from /proc/stat, read only."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# ---------------------------------------------------------------------------
# Import breakdown

def import_times(env: dict, deadline: Deadline) -> dict[str, float]:
    """Cumulative import seconds of the layers setup_s is made of (python -X importtime)."""
    proc = run_proc([sys.executable, "-X", "importtime", "-c", "import speechpipe.cli"], env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
    # Lines come children first; a package that a lazy loader imports has no
    # line of its own, so a layer sums its outermost matching lines.
    entries = []  # (depth, name, cumulative seconds, parent index)
    pending: list[int] = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)\s*$", line)
        if not m:
            continue
        depth = len(m.group(2))
        while pending and entries[pending[-1]][0] > depth:
            entries[pending.pop()][3] = len(entries)
        pending.append(len(entries))
        entries.append([depth, m.group(3), int(m.group(1)) / 1e6, None])

    def within(name: str, layer: str) -> bool:
        return name == layer or name.startswith(layer + ".")

    out = {}
    for layer in IMPORT_LAYERS:
        out[f"import.{layer}.s"] = sum(
            seconds for _, name, seconds, parent in entries
            if within(name, layer) and (parent is None or not within(entries[parent][1], layer))
        )
    return out


# ---------------------------------------------------------------------------
# Child runs

def run_child(workload: str, scale: str, workdir: Path, truth: dict, expected: dict | None, deadline: Deadline, *,
              seconds: float, min_passes: int, max_passes: int, cold_starts: int = 0,
              trace: bool = False, pinned: bool = True) -> dict:
    spec = {
        "workload": workload,
        "workdir": str(workdir),
        "src": str(SRC),
        "ops": workloads.ops(workload, scale, WORKERS),
        "truth": truth,
        "expected": expected,
        "seconds": seconds,
        "min_passes": min_passes,
        "max_passes": max_passes,
        "cold_starts": cold_starts,
        "trace": trace,
        "result": str(workdir / "result.json"),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = run_proc([sys.executable, str(HERE / "child.py"), str(spec_path)], child_env(pinned), deadline)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((workdir / "result.json").read_text())
    for name in ("spec.json", "result.json"):
        (workdir / name).unlink()
    return result


def failures(result: dict) -> list[str]:
    return [p for done in result["passes"] for op in done["ops"] for p in op["problems"]]


def count_ops(result: dict) -> tuple[int, int]:
    ops = [op for done in result["passes"] for op in done["ops"]]
    return len(ops), sum(1 for op in ops if op["problems"])


def expected_digests(workload: str, scale: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(scale, {}).get(workload)


def prepare(workload: str, seed: int, scale: str) -> tuple[Path, dict]:
    """Fresh work directory with the workload's inputs under in/, each read once."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    truth = workloads.generate(workload, scale, seed, workdir / "in")
    for path in sorted((workdir / "in").iterdir()):
        with open(path, "rb") as fh:
            while fh.read(1 << 23):
                pass
    return workdir, truth


# ---------------------------------------------------------------------------
# The two kinds of run

def timed_run(workload: str, seed: int, seconds: float, scale: str, deadline: Deadline) -> dict:
    workdir, truth = prepare(workload, seed, scale)
    try:
        calib0, steal0 = calibrate(), steal_seconds()
        result = run_child(workload, scale, workdir, truth, expected_digests(workload, scale, seed), deadline,
                           seconds=seconds, min_passes=3, max_passes=50, cold_starts=COLD_STARTS)
        calib1, steal1 = calibrate(), steal_seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = count_ops(result)
    walls = [done["wall"] for done in result["passes"]]
    starts = result["cold_starts"]
    log(workload, f"passes {len(walls)}: {' '.join(f'{w:.3f}' for w in walls)} s; "
                  f"cold starts {' '.join(f'{s:.3f}' for s in starts)} s; "
                  f"host.calib_s {calib0:.4f}/{calib1:.4f}, host.steal_s {steal1 - steal0:.2f}, "
                  f"host.cpu_s {result['cpu_s']:.2f}; BLAS threads 1, --workers {WORKERS}")
    for problem in failures(result)[:20]:
        log(workload, f"FAILED {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(starts), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        },
    }


def traced_run(workload: str, seed: int, scale: str, deadline: Deadline) -> dict:
    workdir, truth = prepare(workload, seed, scale)
    expected = expected_digests(workload, scale, seed)
    try:
        calib0, steal0 = calibrate(), steal_seconds()
        imports = import_times(child_env(), deadline)
        traced = run_child(workload, scale, workdir, truth, expected, deadline, trace=True,
                           seconds=0.0, min_passes=5, max_passes=5)
        runs = [traced]
        blas_wall = 0.0
        if workload == "diarize_batch":
            default_blas = run_child(workload, scale, workdir, truth, expected, deadline, pinned=False,
                                     seconds=0.0, min_passes=1, max_passes=1)
            runs.append(default_blas)
            blas_wall = default_blas["passes"][0]["wall"]
        calib1, steal1 = calibrate(), steal_seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = failed = 0
    for run in runs:
        a, f = count_ops(run)
        attempted, failed = attempted + a, failed + f
        for problem in failures(run)[:20]:
            log(workload, f"FAILED {problem}")
    traced_passes = [p for p in traced["passes"] if p["traced"]]
    plain_walls = [p["wall"] for p in traced["passes"][1:] if not p["traced"]]  # [0] warms up
    traced_ops = [op for p in traced_passes for op in p["ops"]]
    layers = tracing.layer_metrics(traced["spans"], len(traced_passes), len(traced_ops),
                                   sum(1 for op in traced_ops if op["problems"]))
    if traced["missing"] or traced["counter_errors"]:
        log(workload, f"missing traced names {traced['missing']}, unreadable counters {traced['counter_errors']}")
    layers.update(imports)
    layers["trace.overhead_s"] = (statistics.mean(p["wall"] for p in traced_passes)
                                  - statistics.mean(plain_walls))
    layers["blas_default.wall_s"] = blas_wall
    layers["host.calib_s"] = (calib0 + calib1) / 2
    layers["host.steal_s"] = steal1 - steal0
    layers["host.cpu_s"] = traced["cpu_s"]
    units = {m["name"]: m["unit"] for m in per_layer_spec()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def per_layer_spec() -> list[dict]:
    """The per-layer metric list of BENCHMARK.json, in order."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def log(workload: str, message: str) -> None:
    print(f"[{workload}] {message}", file=sys.stderr, flush=True)


def record_digests() -> None:
    """Write the reference digests of every op at the default seed, both scales."""
    doc = {}
    for scale in ("full", "tiny"):
        doc[scale] = {}
        for workload in workloads.WORKLOADS:
            workdir, truth = prepare(workload, DEFAULT_SEED, scale)
            try:
                result = run_child(workload, scale, workdir, truth, None, Deadline(600.0),
                                   seconds=0.0, min_passes=1, max_passes=1)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failures(result):
                raise BenchError(f"{scale} {workload}: {failures(result)}")
            doc[scale][workload] = result["passes"][0]["digests"]
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "speechpipe" / "cli.py").is_file():
        print(f"speechpipe sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        deadline = Deadline(DEADLINE_S)
        if args.trace:
            report = traced_run(args.workload, args.seed, args.scale, deadline)
        else:
            report = timed_run(args.workload, args.seed, args.seconds, args.scale, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
