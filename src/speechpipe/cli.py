"""Command-line front-end.

Subcommands: chunk, detect-music, diarize, score wer, score der, repair,
windows, cluster. All reports are JSON on stdout (or --out); per-file work
runs in worker processes made by `fork` (see `_map_files`), and this
process runs a share of it, but outputs are always written here, ordered
by sorted input path, so results are deterministic regardless of worker
count. Every text a command writes (reports, CSV, RTTM) goes through
`_write`, as UTF-8.

Every flag that overrides a config value comes from one table, `OPTIONS`:
each row names the flag's dest (the flag is ``--`` plus the dest with
dashes), the config section and field it sets, its argparse keywords and
the subcommands that take it. The same rows build the parsers and apply
the overrides, so a flag and its config key cannot drift apart.

Exit codes: 0 success, 1 input error, 2 config error. The config file and
the flags are built into one config and checked once, so a bad value exits
2 before any input file is read. Other input and output errors exit 1 with
one ``<command>: error: <message>`` line, unless reported per file.

`main` holds CPython's cyclic garbage collector off while a command runs
(not while it parses flags and checks the config) and turns it back on
afterwards only if it was on. Its premise is that a command makes no cyclic
garbage that grows with its input: the rows, spans and segments the parsers
build are freed by reference counting alone, so a collection during a
command would free nothing and only walk the rows kept so far. The switch
is process-wide, so this module, which owns the process, is the only one
that flips it; a library caller that parses directly runs with the
collector as it left it, and can hold it off the same way.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import pickle
import signal
import sys
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .audio import MusicDetectConfig, SpooledSignal, check_frame_params, highpass_blocks, music_presence, split_on_silence
from .chunking import ChunkConfig, ChunkPlan, chunk_to_samples, plan_chunks
from .clustering import ClusteringConfig, cluster_embeddings
from .errors import ConfigError, ParameterError, PipelineError
from .interchange import build_config, check_window_params, parse_json, read_embeddings_file, read_transcripts_jsonl, window_schedule
from .metrics import der, merge_der_reports, merge_wer_reports, wer
from .repair import RepairReport, classify_rows, parse_segments_csv, rows_to_csv, write_segments_csv
from .timeline import SpeakerTimeline, merge_adjacent_windows, parse_rttm, suppress_gaps, write_rttm
from .wavefile import mono_stream, write_wav

# A failed allocation or spool write (say, an upsampled signal too large for
# memory or for the temp dir's disk) is that file's error.
_INPUT_ERRORS = (PipelineError, OSError, UnicodeDecodeError, MemoryError)


# ---------------------------------------------------------------------------
# Configuration

@dataclass
class SilenceConfig:
    top_db: float = 25.0
    frame_length: int = 2048
    hop_length: int = 512

    def __post_init__(self):
        if not self.top_db > 0:
            raise ParameterError(f"top_db must be positive, got {self.top_db}")
        check_frame_params(self.frame_length, self.hop_length)


@dataclass
class PreprocessConfig:
    target_sample_rate: int = 16000
    highpass_hz: float = 60.0       # 0 disables
    peak_target: float = 0.98       # 0 disables
    detect_music: bool = False

    def __post_init__(self):
        if not (self.target_sample_rate >= 0 and self.highpass_hz >= 0 and 0 <= self.peak_target <= 1):
            raise ParameterError(
                "need target_sample_rate >= 0, highpass_hz >= 0 and 0 <= peak_target <= 1, got "
                f"{self.target_sample_rate}, {self.highpass_hz} and {self.peak_target}"
            )
        if self.target_sample_rate and self.highpass_hz >= self.target_sample_rate / 2:
            raise ParameterError(
                "highpass_hz must lie below the Nyquist frequency of target_sample_rate, "
                f"{self.target_sample_rate / 2}, got {self.highpass_hz}"
            )


@dataclass
class DiarizationConfig:
    min_duration_off: float = 0.1

    def __post_init__(self):
        if not self.min_duration_off >= 0:
            raise ParameterError(f"min_duration_off must be >= 0, got {self.min_duration_off}")


@dataclass
class MetricsConfig:
    collar: float = 0.0
    skip_overlap: bool = False

    def __post_init__(self):
        if not self.collar >= 0:
            raise ParameterError(f"collar must be >= 0, got {self.collar}")


def _check_step(name: str, seconds: float, rate: int) -> None:
    """Raise unless a step of `seconds` spans at least one sample at `rate`
    Hz: a shorter chunk or window hop would make more steps than samples."""
    if seconds < 1 / rate:
        raise ParameterError(f"{name} must be at least one sample period at {rate} Hz, {1 / rate} s, got {seconds}")


@dataclass
class PipelineConfig:
    chunking: ChunkConfig = field(default_factory=ChunkConfig)
    silence: SilenceConfig = field(default_factory=SilenceConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    diarization: DiarizationConfig = field(default_factory=DiarizationConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    music: MusicDetectConfig = field(default_factory=MusicDetectConfig)

    def __post_init__(self):
        # At a target rate of 0 each file keeps its own rate and is checked on its own.
        if self.preprocess.target_sample_rate:
            _check_step("chunking.min_dur", self.chunking.min_dur, self.preprocess.target_sample_rate)


_CLUSTER_COMMANDS = ("diarize", "cluster")

# Override flags: (dest, config section, field, argparse keywords, subcommands).
# A numeric field's flag takes its argparse type from the field's default.
OPTIONS = [
    ("top_db", "silence", "top_db", {}, ("chunk",)),
    ("min_dur", "chunking", "min_dur", {}, ("chunk",)),
    ("max_dur", "chunking", "max_dur", {}, ("chunk",)),
    ("threshold", "music", "decision_threshold", {"help": "override the decision threshold"}, ("detect-music",)),
    ("method", "clustering", "method", {"choices": ["ahc", "gmm", "kmeans"]}, _CLUSTER_COMMANDS),
    ("tau", "clustering", "tau", {}, _CLUSTER_COMMANDS),
    ("min_cluster_size", "clustering", "min_cluster_size", {}, _CLUSTER_COMMANDS),
    ("pca_components", "clustering", "pca_components", {}, _CLUSTER_COMMANDS),
    ("fixed_k", "clustering", "fixed_k", {}, _CLUSTER_COMMANDS),
    ("k_min", "clustering", "k_min", {}, _CLUSTER_COMMANDS),
    ("k_max", "clustering", "k_max", {}, _CLUSTER_COMMANDS),
    ("criterion", "clustering", "criterion", {"choices": ["AIC", "BIC"]}, _CLUSTER_COMMANDS),
    ("smoothing_window", "clustering", "smoothing_window", {}, _CLUSTER_COMMANDS),
    ("min_duration_off", "diarization", "min_duration_off", {}, ("diarize",)),
    ("collar", "metrics", "collar", {}, ("score der",)),
    ("skip_overlap", "metrics", "skip_overlap", {"action": "store_true", "default": None}, ("score der",)),
]


def load_pipeline_config(path: str | None, args: argparse.Namespace | None = None) -> PipelineConfig:
    """The config file (if any) with the given `OPTIONS` flag values laid
    over it, type- and range-checked once as a whole."""
    try:
        doc = parse_json(Path(path).read_text(encoding="utf-8"), "config file") if path is not None else {}
        # A document or section that is not an object is left for build_config to reject.
        for dest, section, name, _, _ in OPTIONS:
            value = getattr(args, dest, None)
            if value is not None and isinstance(doc, dict) and isinstance(doc.setdefault(section, {}), dict):
                doc[section][name] = value
        return build_config(PipelineConfig, doc, "config")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except PipelineError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Helpers

def _map_files(paths: list[str], fn, workers: int) -> list[tuple[object, str | None]]:
    """fn over each file (or id): (result, None) or (None, error message) per
    path, in the order of `paths`.

    With w = min(workers, len(paths)), w - 1 forked children share the work
    with this process, dealt round robin: child i runs paths i, i + w, ...
    and this process runs paths 0, w, 2w, .... `fn` and the paths reach the
    children by the fork, and only their results come back, a path at a time,
    so `fn` must not rely on state it mutates. A dead child's paths that it
    sent no result for are errors naming how it ended; an exception outside
    `_INPUT_ERRORS` in any process fails the command. No child outlives the
    call: if this process's own share raises, they are killed and reaped."""
    def attempt(path: str):
        try:
            return fn(path), None
        except _INPUT_ERRORS as exc:
            return None, _message(exc)

    w = max(1, min(workers, len(paths)))
    results, children, sent = [None] * len(paths), [], []
    try:
        for i in range(1, w):
            children.append(_fork_share(attempt, paths[i::w]))
        results[::w] = [attempt(path) for path in paths[::w]]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, records in children:
            with records:
                status = os.waitpid(pid, 0)[1]
                records.seek(0)
                sent.append((records.read(), status))
    for i, (data, status) in enumerate(sent, 1):
        results[i::w] = _records(data, len(paths[i::w]), status)
    return results


def _fork_share(attempt, share: list[str]):
    """(pid, records file) of a forked child that pickles attempt(item) into
    the records file, an unnamed temp file opened here, as each item of
    `share` is done, or (None, (exception, traceback text)) if that raises.
    It leaves by `os._exit`: it never returns into the caller's stack, runs
    no cleanup of this process and flushes none of its buffered output."""
    records = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except OSError:
        records.close()
        raise
    if pid:
        return pid, records
    status = 1
    try:
        try:
            for item in share:
                records.write(pickle.dumps(attempt(item)))
                records.flush()
        except BaseException as exc:
            text = traceback.format_exc()
            try:
                records.write(pickle.dumps((None, (exc, text))))
            except Exception:  # an exception that does not pickle still fails the command
                records.write(pickle.dumps((None, (RuntimeError("an exception that does not pickle"), text))))
            records.flush()
        status = 0
    finally:
        os._exit(status)


def _records(data: bytes, count: int, status: int) -> list[tuple[object, str | None]]:
    """The (result, error) records a worker pickled one after another into
    `data`, raising its program error; each of its `count` items without a
    whole record is an error naming how it ended, from its wait `status`."""
    stream, records = io.BytesIO(data), []
    while True:
        try:
            result, error = pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):  # no record left, or one cut short
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            return records + [(None, f"worker process {how} before sending its results")] * (count - len(records))
        if isinstance(error, tuple):  # the worker's program error
            raise error[0] from RuntimeError(f"raised in a worker process:\n{error[1]}")
        records.append((result, error))


def _run_batch(args: argparse.Namespace, head: dict, work, describe) -> int:
    """Shared tail of the per-file commands: run `work` over the sorted
    paths, describe each result in path order, report errors; exit 1 on any.
    An input error in `work` or `describe` (which may write outputs) is that
    path's error."""
    paths = sorted(args.paths)
    files, errors = [], {}
    for path, (result, error) in zip(paths, _map_files(paths, work, args.workers or min(4, os.cpu_count() or 1))):
        if error is None:
            try:
                files.append(describe(path, result))
                continue
            except _INPUT_ERRORS as exc:
                error = _message(exc)
        errors[path] = error
    return _report({**head, "files": files}, errors, args.out)


def _claim_output(owners: dict[str, str], what: str, name: str, path: str) -> None:
    """The first path in sorted order owns an output name: a later path that
    claims the same name is that path's error, and the owner's outputs stand."""
    owner = owners.setdefault(name, path)
    if owner != path:
        raise PipelineError(f"{what} {name!r} is also that of {owner}: its outputs would overwrite that file's")


def _write(text: str, out: str | None) -> None:
    """`text` as UTF-8 to the file `out`, or to stdout without one: a path's
    undecodable bytes (surrogate escapes) go back as given, and the whole
    text is encoded before the file is opened."""
    data = text.encode("utf-8", "surrogateescape")
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _report(doc: dict, errors: dict[str, str], out: str | None) -> int:
    """Write `doc` as JSON, with the per-item `errors` if any; 1 on any, else 0."""
    if errors:
        doc["errors"] = errors
    _write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", out)
    return 1 if errors else 0


def _message(exc: Exception) -> str:
    """An input error's message, never empty: a bare `MemoryError()` has none.

    The exception's traceback is dropped first: its frames may hold what ran
    out of memory, and formatting the message needs memory."""
    exc.__traceback__ = None
    return str(exc) or ("out of memory" if isinstance(exc, MemoryError) else type(exc).__name__)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _conditioned(path: str, cfg: PreprocessConfig) -> SpooledSignal:
    """A WAV as every audio command analyses it: mono, resampled, high-passed
    and peak-normalized, in a temporary file that the caller closes.

    Decoded, downmixed, resampled and high-passed a block at a time into the
    spool, which notes the extremes; the peak gain scales each block read
    back. The samples read are those of
    `peak_normalize(highpass(load_mono(path, rate), hz), peak)`, byte for byte.
    """
    with mono_stream(path, cfg.target_sample_rate) as (rate, _, blocks):
        if cfg.highpass_hz:
            blocks = highpass_blocks(blocks, cfg.highpass_hz, rate)
        signal = SpooledSignal(blocks, rate)
    if cfg.peak_target:
        signal.normalize(cfg.peak_target)
    return signal


def _speech_spans(w: SpooledSignal, s: SilenceConfig):
    return split_on_silence(w, s.top_db, s.frame_length, s.hop_length)


def _warn_unconverged(command: str, path: str, result) -> None:
    """One stderr line for a file whose chosen mixture hit the EM iteration limit."""
    if result.diagnostics.get("converged") is False:
        _log(f"{command}: {path}: warning: EM iteration limit ({result.diagnostics['iterations']}) reached"
             " without converging")


def _speaker_name(label: int) -> str:
    return f"SPK_{label:02d}"


def _cluster_file(path: str, config: PipelineConfig, seed: int):
    """Read an embedding container: (recording id, which is the file stem when
    the container's is empty, window spans, clustering)."""
    emb = read_embeddings_file(path)
    return emb.recording_id or Path(path).stem, emb.spans, cluster_embeddings(emb.vectors, config.clustering, seed)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_chunk(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.write_chunks:
        os.makedirs(args.write_chunks, exist_ok=True)
    # Workers write concurrently, so each stem's owner (the first path in
    # sorted order, assigned last here) is fixed before any work starts.
    owners = {Path(p).stem: p for p in sorted(args.paths, reverse=True)}

    def work(path: str):
        # The chunk WAVs are written here, so no spool outlives its file.
        stem = Path(path).stem
        if args.write_chunks:
            _claim_output(owners, "file stem", stem, path)
        with _conditioned(path, config.preprocess) as w:
            _check_step("chunking.min_dur", config.chunking.min_dur, w.sample_rate)
            plan = plan_chunks(_speech_spans(w, config.silence), w.duration_seconds, config.chunking)
            presence = music_presence(w, config.music) if config.preprocess.detect_music else None
            if args.write_chunks:
                for i, piece in enumerate(chunk_to_samples(plan, w)):
                    write_wav(os.path.join(args.write_chunks, f"{stem}_chunk{i:03d}.wav"), piece)
        return plan, presence

    def describe(path: str, result) -> dict:
        plan, presence = result
        entry = {"path": path, **plan.to_dict(Path(path).stem, config.chunking)}
        if presence is not None:
            entry["music"] = {"score": presence.score, "is_music": presence.is_music}
        _log(f"chunk: {path}: {len(plan.chunks)} chunks, {plan.forced_split_count} forced")
        return entry

    return _run_batch(args, {"command": "chunk", "config": asdict(config)}, work, describe)


def cmd_detect_music(args: argparse.Namespace, config: PipelineConfig) -> int:
    def work(path: str):
        with _conditioned(path, config.preprocess) as w:
            return music_presence(w, config.music)

    def describe(path: str, presence) -> dict:
        _log(f"detect-music: {path}: score={presence.score:.3f} is_music={presence.is_music}")
        return {"path": path, "score": presence.score, "is_music": presence.is_music,
                "low_confidence": presence.low_confidence}

    head = {"command": "detect-music", "config": {"preprocess": asdict(config.preprocess), "music": asdict(config.music)}}
    return _run_batch(args, head, work, describe)


def cmd_diarize(args: argparse.Namespace, config: PipelineConfig) -> int:
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    def work(path: str):
        rid, spans, result = _cluster_file(path, config, args.seed)
        names = [_speaker_name(int(lab)) for lab in result.labels]
        timeline = merge_adjacent_windows(spans, names, rid)
        timeline = suppress_gaps(timeline, config.diarization.min_duration_off)
        return rid, timeline, result

    owners: dict[str, str] = {}

    def describe(path: str, result) -> dict:
        rid, timeline, clustering = result
        _claim_output(owners, "recording id", rid, path)
        csv_path = os.path.join(out_dir, f"{rid}.csv")
        rttm_path = os.path.join(out_dir, f"{rid}.rttm")
        _write(write_segments_csv([timeline]), csv_path)
        _write(write_rttm([timeline]), rttm_path)
        _log(f"diarize: {path}: {clustering.k} speakers, {len(timeline.segments)} segments")
        _warn_unconverged("diarize", path, clustering)
        return {"path": path, "recording_id": rid, "speakers": clustering.k,
                "segments": len(timeline.segments), "csv": csv_path, "rttm": rttm_path}

    head = {"command": "diarize", "seed": args.seed, "config": asdict(config)}
    return _run_batch(args, head, work, describe)


def _read_transcript_docs(path: str) -> dict[str, str]:
    if path.endswith(".jsonl"):
        records = read_transcripts_jsonl(Path(path).read_text(encoding="utf-8"))
        docs: dict[str, list[str]] = {}
        for record in records:
            docs.setdefault(record.recording_id, []).append(record.text)
        return {rid: " ".join(texts) for rid, texts in docs.items()}
    return {Path(path).stem: Path(path).read_text(encoding="utf-8")}


def _read_timelines(path: str, repair: bool) -> dict[str, SpeakerTimeline]:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".rttm"):
        timelines = parse_rttm(text)
    else:
        timelines, _ = parse_segments_csv(text, strict=not repair)
    return {t.recording_id: t for t in timelines}


def cmd_score(args: argparse.Namespace, config: PipelineConfig) -> int:
    metric = args.metric
    if metric == "wer":
        head = {"command": "score-wer"}
        read, merge = _read_transcript_docs, merge_wer_reports

        def score(rid: str, ref, hyps):
            return wer(ref, hyps.get(rid, ""), args.strip_punctuation)
    else:
        head = {"command": "score-der", "config": asdict(config.metrics)}
        read, merge = (lambda path: _read_timelines(path, args.repair)), merge_der_reports

        def score(rid: str, ref, hyps):
            return der(ref, hyps.get(rid, SpeakerTimeline(rid, [])),
                       collar=config.metrics.collar, skip_overlap=config.metrics.skip_overlap)
    refs, hyps = read(args.ref), read(args.hyp)
    extra = set(hyps) - set(refs)
    if extra:
        raise PipelineError(f"hypothesis ids with no reference: {sorted(extra)}")
    # A recording that cannot be scored is that id's error; the rest still
    # report. One worker: two threads measured slower, and two worker
    # processes were faster on `score wer` only (README).
    ids = sorted(refs)
    reports, errors = {}, {}
    for rid, (report, error) in zip(ids, _map_files(ids, lambda rid: score(rid, refs[rid], hyps), 1)):
        if error is None:
            reports[rid] = report
        else:
            errors[rid] = error
    if errors and not reports:
        raise PipelineError(errors[ids[0]])
    doc = {
        **head,
        "files": {rid: report.to_dict() for rid, report in reports.items()},
        "micro": merge(list(reports.values())).to_dict(),
        f"macro_{metric}": float(np.mean([getattr(r, metric) for r in reports.values()])),
    }
    return _report(doc, errors, args.out)


def cmd_repair(args: argparse.Namespace, config: PipelineConfig) -> int:
    # The input is read whole first, so `--out` may name it.
    report = RepairReport()
    outcomes = classify_rows(Path(args.path).read_text(encoding="utf-8"), report, args.strict)
    if args.strict:
        for outcome in outcomes:
            if outcome.status == "dropped":
                _log(f"repair: {args.path}:{outcome.line_no}: {outcome.diagnosis}")
    else:
        _write(rows_to_csv(outcomes), args.out)
    doc = {"command": "repair", "strict": args.strict, "report": report.to_dict()}
    if args.strict or args.report:
        _report(doc, {}, args.report)
    else:
        _log(json.dumps(doc["report"], ensure_ascii=False))
    return 1 if report.dropped and args.strict else 0


def cmd_windows(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.path.endswith(".json"):
        doc = parse_json(Path(args.path).read_text(encoding="utf-8"), "chunk plan")
        # A chunk report (the output of `chunk`) of one file stands for that file's plan.
        files = doc.get("files") if isinstance(doc, dict) and "chunks" not in doc else None
        if isinstance(files, list) and len(files) != 1:
            raise PipelineError(f"the chunk report lists {len(files)} files; windows takes the plan of one")
        spans = ChunkPlan.from_dict(files[0] if isinstance(files, list) else doc).chunks
    else:
        with _conditioned(args.path, config.preprocess) as w:
            _check_step("--hop", args.hop, w.sample_rate)
            spans = _speech_spans(w, config.silence)
    windows = [{"start": sw.span.start, "end": sw.span.end, "short": sw.short}
               for sw in window_schedule(spans, args.window, args.hop)]
    return _report({"command": "windows", "window": args.window, "hop": args.hop, "windows": windows}, {}, args.out)


def cmd_cluster(args: argparse.Namespace, config: PipelineConfig) -> int:
    def describe(path: str, found) -> dict:
        rid, _, result = found
        entry = {"path": path, "recording_id": rid, **result.to_dict()}
        _log(f"cluster: {path}: k={entry['k']}")
        _warn_unconverged("cluster", path, result)
        return entry

    head = {"command": "cluster", "seed": args.seed, "config": asdict(config.clustering)}
    return _run_batch(args, head, lambda path: _cluster_file(path, config, args.seed), describe)


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechpipe",
        description="Deterministic long-form speech pipeline tools",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = PipelineConfig()

    def finish(p: argparse.ArgumentParser, command: str, fn, config: bool = True,
               workers: str | None = "worker processes, >= 1 (default: CPUs, at most 4)") -> None:
        """Add the table flags of `command` and the common flags (`--config`
        if it reads the config, `--workers` with help `workers` unless None); route to `fn`."""
        for dest, section, name, kwargs, commands in OPTIONS:
            if command in commands:
                kind = type(getattr(getattr(defaults, section), name))
                if kind in (int, float):
                    kwargs = {"type": kind, **kwargs}
                p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kwargs)
        if config:
            p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if workers is not None:
            p.add_argument("--workers", type=int, help=workers)
        p.set_defaults(fn=fn)

    p = sub.add_parser("chunk", help="plan silence-aware chunks for WAV files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--write-chunks", help="directory for per-chunk WAVs")
    finish(p, "chunk", cmd_chunk)

    p = sub.add_parser("detect-music", help="spectral-flux music presence per file")
    p.add_argument("paths", nargs="+")
    finish(p, "detect-music", cmd_detect_music)

    p = sub.add_parser("diarize", help="cluster embedding containers into speaker timelines")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out-dir", help="directory for CSV/RTTM outputs (default .)")
    p.add_argument("--seed", type=int, default=0)
    finish(p, "diarize", cmd_diarize)

    p = sub.add_parser("score", help="score WER or DER against references")
    score_sub = p.add_subparsers(dest="metric", required=True)
    for metric in ("wer", "der"):
        sp = score_sub.add_parser(metric)
        sp.add_argument("--ref", required=True)
        sp.add_argument("--hyp", required=True)
        if metric == "wer":
            sp.add_argument("--strip-punctuation", dest="strip_punctuation", action="store_true")
        else:
            sp.add_argument("--repair", action="store_true", help="repair CSV inputs instead of strict parsing")
        finish(sp, f"score {metric}", cmd_score, config=metric == "der",
               workers="accepted and unused: score scores one recording after another")

    p = sub.add_parser("repair", help="repair a segments CSV")
    p.add_argument("path")
    # Strict mode writes no CSV, so it takes no --out.
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", help="validate only; list malformed rows")
    mode.add_argument("--out", help="write the repaired CSV here instead of stdout")
    p.add_argument("--report", help="write the repair report JSON here")
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("windows", help="sliding-window schedule from a plan JSON or WAV")
    p.add_argument("path")
    p.add_argument("--window", type=float, default=1.5)
    p.add_argument("--hop", type=float, default=0.75)
    finish(p, "windows", cmd_windows, workers=None)

    p = sub.add_parser("cluster", help="cluster embedding containers, report labels")
    p.add_argument("paths", nargs="+")
    p.add_argument("--seed", type=int, default=0)
    finish(p, "cluster", cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_pipeline_config(getattr(args, "config", None), args)
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "windows":
            check_window_params(args.window, args.hop)
            if config.preprocess.target_sample_rate:
                _check_step("--hop", args.hop, config.preprocess.target_sample_rate)
    except (ConfigError, ParameterError) as exc:
        _log(f"config error: {exc}")
        return 2
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args, config)
    except _INPUT_ERRORS as exc:
        _log(f"{args.command}: error: {_message(exc)}")
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
