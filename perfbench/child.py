"""One workload run inside a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec (written by run.py) names the work directory, the program's source
directory, the ops, the pass limits and the reference digests. The child
imports `speechpipe.cli` once, then runs passes: every op of the workload,
each as one `speechpipe.cli.main(argv)` call, timed as a whole. Between
passes, outside the timed region, it hashes and checks every output, removes
the output directory and times a cold start. In a traced run the tracer is
installed for two of the passes. The child writes its result as JSON to the
path the spec names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads


def digest_tree(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.relative_to(root).as_posix()] = h.hexdigest()
    return out


COLD_START = (
    "import time, speechpipe.cli as c; c.build_parser(); "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)


def cold_start() -> float:
    """Seconds from spawning a new interpreter to a ready speechpipe.cli
    (import plus build_parser), in this process's environment."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip()) - t0


def run_op(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 1


def fresh_out(op_names) -> None:
    shutil.rmtree("out", ignore_errors=True)
    for name in op_names:
        os.makedirs(f"out/{name}")


def run_pass(cli, spec: dict, tracer, op_base: int, reference: dict | None) -> dict:
    names = [name for name, _ in spec["ops"]]
    fresh_out(names)
    results = []
    t0 = time.perf_counter()
    for i, (name, argv) in enumerate(spec["ops"]):
        started = time.perf_counter()
        if tracer is None:
            rc = run_op(cli, argv)
        else:
            tracer.op = op_base + i
            rc = tracer.span(tracing.OP_SPAN, run_op, (cli, argv))
        results.append({"name": name, "wall": time.perf_counter() - started, "rc": rc})
    wall = time.perf_counter() - t0

    digests = {}
    for op in results:
        name = op["name"]
        digests[name] = digest_tree(Path("out") / name)
        problems = [f"{name}: exit code {op['rc']}"] if op["rc"] != 0 else []
        if not problems:
            try:
                problems = workloads.check(spec["workload"], name, spec["truth"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"{name}: unreadable output: {exc!r}"]
        if reference is not None and digests[name] != reference.get(name):
            changed = sorted(set(digests[name].items()) ^ set(reference.get(name, {}).items()))
            problems.append(f"{name}: digests differ from the reference in {sorted({k for k, _ in changed})[:5]}")
        op["problems"] = problems
    shutil.rmtree("out", ignore_errors=True)
    return {"wall": wall, "ops": results, "digests": digests}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    os.chdir(spec["workdir"])
    sys.path.insert(0, spec["src"])
    import speechpipe.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"speechpipe imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 3
    # A traced run makes a warm-up pass, then untraced and traced passes in
    # the order ABBA, so that their difference, the tracing overhead, is not
    # skewed by first-pass costs or a drifting host.
    tracer = tracing.Tracer() if spec["trace"] else None
    traced_order = [False, False, True, True, False] if tracer else []

    # Passes run until their summed wall time would pass the budget. Cold
    # starts go between passes, so that they and the passes sample the same
    # stretch of the host's load.
    reference = spec["expected"]
    passes, starts = [], []
    measured = 0.0
    while True:
        traced = len(passes) < len(traced_order) and traced_order[len(passes)]
        if traced:
            tracer.install()
        try:
            done = run_pass(cli, spec, tracer if traced else None, len(passes) * len(spec["ops"]), reference)
        finally:
            if traced:
                tracer.uninstall()
        done["traced"] = traced
        if reference is None:
            reference = done["digests"]  # later passes must reproduce the first
        passes.append(done)
        measured += done["wall"]
        if len(starts) < spec["cold_starts"]:
            starts.append(cold_start())
        if len(passes) >= spec["max_passes"]:
            break
        if len(passes) >= spec["min_passes"] and measured + done["wall"] > spec["seconds"]:
            break
    while len(starts) < spec["cold_starts"]:
        starts.append(cold_start())

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "passes": passes,
        "cold_starts": starts,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "spans": [dataclasses.asdict(s) for s in tracer.spans] if tracer else [],
        "missing": tracer.missing if tracer else [],
        "counter_errors": sorted(tracer.counter_errors) if tracer else [],
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
