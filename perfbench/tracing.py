"""Spans around the program's public functions, and per-layer metrics from them.

`install` replaces each traced function, wherever a loaded `speechpipe`
module holds it (the CLI's imported names and the defining module's global,
which library code calls internally), with a wrapper that records a span:
name, start, end, thread, parent span, op id and counters read from the
call's arguments and return value. Spans stay in memory until the run ends.
A traced name that the program no longer has is reported as missing.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field


def _counters_load_mono(args, result):
    return {"mb_read": os.path.getsize(args[0]) / 1e6}


def _counters_plan(args, result):
    return {"chunks": len(result.chunks), "forced_splits": result.forced_split_count}


def _counters_ahc(args, result):
    return {"merges": result.diagnostics["merges"], "dissolved_points": result.diagnostics["dissolved_points"]}


def _counters_gmm(args, result):
    return {"calls": 1, "em_iterations": result.iterations, "unconverged": int(not result.converged)}


def _counters_repair(args, result):
    report = result[1]
    return {"rows": report.total_lines, "rows_repaired": report.repaired, "rows_dropped": report.dropped}


# (module, function, counters from (args, result)); the size of the first
# argument is kept for the growth exponents.
TRACED = [
    ("wavefile", "load_mono", _counters_load_mono),
    ("wavefile", "write_wav", lambda a, r: {"files": 1}),
    ("audio", "resample", None),
    ("audio", "highpass", None),
    ("audio", "peak_normalize", None),
    ("audio", "split_on_silence", None),
    ("audio", "music_presence", None),
    ("chunking", "plan_chunks", _counters_plan),
    ("chunking", "chunk_to_samples", None),
    ("interchange", "read_embeddings_file", lambda a, r: {"windows": len(r)}),
    ("clustering", "ahc_centroid", _counters_ahc),
    ("clustering", "select_k_gmm", None),
    ("clustering", "gmm_fit", _counters_gmm),
    ("clustering", "kmeans", lambda a, r: {"iterations": r.diagnostics["iterations"]}),
    ("clustering", "estimate_k_silhouette", None),
    ("clustering", "silhouette_score", None),
    ("clustering", "smooth_labels_temporal", None),
    ("timeline", "merge_adjacent_windows", None),
    ("timeline", "suppress_gaps", None),
    ("timeline", "write_rttm", None),
    ("timeline", "parse_rttm", None),
    ("repair", "write_segments_csv", None),
    ("repair", "parse_segments_csv", None),
    ("repair", "repair_rows", _counters_repair),
    ("repair", "rows_to_csv", None),
    ("metrics", "wer", lambda a, r: {"ref_words": r.ref_word_count}),
    ("metrics", "der", lambda a, r: {"ref_segments": len(a[0].segments)}),
]

# Per-layer metrics: "<module>.<function>.s" for every traced function, plus
# these counters ("<module>.<function>.<counter>", or "<module>.<counter>").
COUNTER_METRICS = [
    "wavefile.load_mono.mb_read", "wavefile.write_wav.files",
    "chunking.chunks", "chunking.forced_splits",
    "interchange.windows",
    "clustering.ahc_centroid.merges", "clustering.ahc_centroid.dissolved_points",
    "clustering.gmm_fit.calls", "clustering.gmm_fit.em_iterations", "clustering.gmm_fit.unconverged",
    "clustering.kmeans.iterations",
    "repair.rows", "repair.rows_repaired", "repair.rows_dropped",
    "metrics.wer.ref_words", "metrics.der.ref_segments",
]
GROWTH_METRICS = {"audio.music_presence.growth_exp": "audio.music_presence",
                  "clustering.ahc_centroid.growth_exp": "clustering.ahc_centroid"}
OP_SPAN = "cli.main"


def layer_metric_names() -> list[str]:
    names = [f"{module}.{func}.s" for module, func, _ in TRACED]
    return names + COUNTER_METRICS + list(GROWTH_METRICS) + ["cli.self_s", "cli.ops", "cli.ops_failed"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    op: int
    size: int = 0
    counters: dict = field(default_factory=dict)


def _size(args) -> int:
    if not args:
        return 0
    first = args[0]
    samples = getattr(first, "samples", None)
    try:
        return len(samples if samples is not None else first)
    except TypeError:
        return 0


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._replaced: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args=(), kwargs=None, counters=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        start = time.perf_counter()
        with self._lock:  # worker threads record spans concurrently
            span = Span(len(self.spans), name, start, math.nan, threading.get_ident(), parent, self.op, _size(args))
            self.spans.append(span)
        stack.append(span.id)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if counters is not None:
            try:
                span.counters = counters(args, result)
            except (AttributeError, KeyError, TypeError, IndexError, OSError):
                self.counter_errors.add(name)
        return result

    def wrap(self, name: str, fn, counters):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, counters)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded speechpipe module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "speechpipe" or n.startswith("speechpipe.")]
        self.missing = []
        for module_name, func, counters in TRACED:
            name = f"{module_name}.{func}"
            try:
                home = importlib.import_module(f"speechpipe.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(home, func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every function that `install` wrapped."""
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced = []


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 with fewer than two sizes."""
    pts = [(math.log(n), math.log(s)) for n, s in points if n > 0 and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def layer_metrics(spans: list[dict], passes: int, ops_run: int, ops_failed: int) -> dict[str, float]:
    """Per-layer self time, counters and growth exponents from the spans of
    `passes` traced passes; times and counters are per pass.

    Self time is a span's duration minus the part covered by its child
    spans. `cli.self_s` is the time inside op spans when no traced call is
    running on any thread. With two worker threads a span also covers waits
    for the interpreter lock, so per-file times can add up to more than the
    pass took.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {name: 0.0 for name in layer_metric_names()}
    sizes: dict[str, list[tuple[int, float]]] = {}
    by_op: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["name"] == OP_SPAN:
            continue
        by_op.setdefault(s["op"], []).append((s["start"], s["end"]))
        duration = s["end"] - s["start"]
        out[f"{s['name']}.s"] += duration - _union_length(children.get(s["id"], []), s["start"], s["end"])
        sizes.setdefault(s["name"], []).append((s["size"], duration))
        module = s["name"].split(".")[0]
        for counter, value in s["counters"].items():
            key = f"{s['name']}.{counter}"
            key = key if key in out else f"{module}.{counter}"
            if key in out:
                out[key] += value
    for s in spans:
        if s["name"] == OP_SPAN:
            covered = _union_length(by_op.get(s["op"], []), s["start"], s["end"])
            out["cli.self_s"] += s["end"] - s["start"] - covered
    out = {name: value / passes for name, value in out.items()}
    for metric, name in GROWTH_METRICS.items():
        out[metric] = _slope(sizes.get(name, []))
    out["cli.ops"] = ops_run / passes
    out["cli.ops_failed"] = ops_failed / passes
    return out
