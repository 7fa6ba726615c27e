"""Adapters between external neural models and this toolkit.

Embedding containers, sliding-window schedules, transcript JSON-lines, and
ASR decoding-configuration documents. Embeddings are produced offline by any
external model; everything here is model-agnostic by contract.
"""

from __future__ import annotations

import json
import os
import re
import struct
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .errors import FormatError, ParameterError, StructuralError
from .spans import TimeSpan, check_sorted_by_start, split_lines

EMBEDDING_MAGIC = b"EMB1"
EMBEDDING_VERSION = 1
_HEADER = struct.Struct("<4sHII")
# A JSON escape can name a lone surrogate, which no byte encoding can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass
class EmbeddingSet:
    """N window embeddings (float32, row-major) aligned with N time spans."""

    vectors: np.ndarray
    spans: list[TimeSpan]
    recording_id: str = ""

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ParameterError("vectors must be a 2-D matrix")
        if len(self.vectors) != len(self.spans):
            raise StructuralError(
                f"{len(self.vectors)} vectors but {len(self.spans)} spans"
            )
        if self.vectors.size and not np.all(np.isfinite(self.vectors)):
            raise ParameterError("embedding vectors must be finite")
        check_sorted_by_start(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


@dataclass
class ScheduledWindow:
    span: TimeSpan
    short: bool = False


def check_window_params(window: float, hop: float) -> None:
    """Raise unless 0 < hop <= window, both finite."""
    if not (0 < hop <= window <= sys.float_info.max):
        raise ParameterError(f"need 0 < hop <= window, both finite, got hop={hop} window={window}")


def window_schedule(
    speech_spans: list[TimeSpan], window: float, hop: float
) -> list[ScheduledWindow]:
    """Fixed windows stepped by `hop` inside each speech span.

    Windows never cross a span boundary. A span shorter than `window` yields
    a single window covering the whole span, flagged short.
    """
    check_window_params(window, hop)
    out: list[ScheduledWindow] = []
    for span in speech_spans:
        if span.duration < window - 1e-9:
            out.append(ScheduledWindow(span, short=True))
            continue
        # Each start is computed from the span start, not accumulated, so
        # starts do not drift on long spans.
        i, start = 0, span.start
        while start + window <= span.end + 1e-9:
            out.append(ScheduledWindow(TimeSpan(start, start + window)))
            i += 1
            start = span.start + i * hop
    return out


def write_embeddings(embeddings: EmbeddingSet) -> bytes:
    """Serialize to the binary container; floats are preserved bit-for-bit."""
    n, d = embeddings.vectors.shape
    out = bytearray()
    out += _HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_VERSION, n, d)
    out += embeddings.vectors.astype("<f4").tobytes()
    for span in embeddings.spans:
        out += struct.pack("<dd", span.start, span.end)
    rid = embeddings.recording_id.encode("utf-8")
    out += struct.pack("<I", len(rid)) + rid
    return bytes(out)


def read_embeddings(data: bytes) -> EmbeddingSet:
    """Parse the binary container, naming the byte offset of any defect."""
    if len(data) < _HEADER.size:
        raise FormatError("container shorter than header", offset=len(data))
    magic, version, n, d = _HEADER.unpack_from(data, 0)
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}", offset=0)
    if version != EMBEDDING_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)

    offset = _HEADER.size
    vec_bytes = n * d * 4
    if len(data) < offset + vec_bytes:
        raise FormatError("embedding payload truncated", offset=len(data))
    vectors = np.frombuffer(data, dtype="<f4", count=n * d, offset=offset).reshape(n, d).copy()
    offset += vec_bytes

    span_bytes = n * 16
    if len(data) < offset + span_bytes:
        raise FormatError("span payload truncated", offset=len(data))
    spans = []
    for i in range(n):
        start, end = struct.unpack_from("<dd", data, offset + i * 16)
        try:
            spans.append(TimeSpan(start, end))
        except ParameterError as exc:
            raise FormatError(str(exc), offset=offset + i * 16) from None
    offset += span_bytes

    if len(data) < offset + 4:
        raise FormatError("recording-id length truncated", offset=len(data))
    (rid_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + rid_len:
        raise FormatError("recording-id truncated", offset=len(data))
    try:
        rid = data[offset : offset + rid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"recording id is not valid UTF-8: {exc.reason}", offset=offset + exc.start) from None
    offset += rid_len
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes", offset=offset)

    try:
        return EmbeddingSet(vectors, spans, rid)
    except (ParameterError, StructuralError) as exc:
        raise FormatError(str(exc), offset=_HEADER.size) from None


def write_atomic(path, data: bytes, suffix: str) -> None:
    """Write `data` to `path` through a temp file (named with `suffix`) and a
    rename. The file gets the mode `open(path, "wb")` would give it: 0o666
    less the umask (`mkstemp` would give 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:  # a random name, created exclusively, is this call's alone
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}{suffix}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_embeddings_file(path, embeddings: EmbeddingSet) -> None:
    """Write a container atomically (temp file + rename)."""
    write_atomic(path, write_embeddings(embeddings), ".emb.tmp")


def read_embeddings_file(path) -> EmbeddingSet:
    with open(path, "rb") as fh:
        return read_embeddings(fh.read())


def parse_json(text: str, what: str):
    """`json.loads`, with a syntax error raised as FormatError at its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc.msg} at column {exc.colno}", line=exc.lineno) from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


def build_config(cls, doc, what: str):
    """The dataclass `cls` from a JSON object whose values have their field
    default's type: an int field takes an int but not a bool, a float field a
    finite int or float, a bool or str field a bool or str, a dataclass field
    an object built the same way. Values are kept as given; `cls` checks ranges."""
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise FormatError(f"unknown {what} keys: {sorted(unknown)}")
    defaults, kwargs = cls(), dict(doc)
    for key, value in doc.items():
        kind = type(getattr(defaults, key))
        if is_dataclass(kind):
            kwargs[key] = build_config(kind, value, f"{what}.{key}")
        elif kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
                raise ParameterError(f"{what}.{key} must be a finite number, got {value!r}")
        elif isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ParameterError(f"{what}.{key} must be {kind.__name__}, got {value!r}")
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ParameterError(f"{what}: {exc}") from None


@dataclass
class TranscriptRecord:
    recording_id: str
    chunk_span: TimeSpan
    text: str


def read_transcripts_jsonl(text: str) -> list[TranscriptRecord]:
    """One JSON object per line with keys id/start/end/text; reordered by (id, start).
    An id or text holding a surrogate code point (U+D800 to U+DFFF) is rejected."""
    records = []
    for line_no, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise FormatError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=line_no) from None
        if not isinstance(doc, dict) or not {"id", "start", "end", "text"} <= doc.keys():
            raise FormatError("object must have keys id, start, end, text", line=line_no)
        try:
            span = TimeSpan(float(doc["start"]), float(doc["end"]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(str(exc), line=line_no) from None
        rid, words = str(doc["id"]), str(doc["text"])
        if _SURROGATE.search(rid) or _SURROGATE.search(words):
            raise FormatError("id and text must not hold a surrogate code point (U+D800 to U+DFFF)", line=line_no)
        records.append(TranscriptRecord(rid, span, words))
    records.sort(key=lambda r: (r.recording_id, r.chunk_span.start, r.chunk_span.end))
    return records


def write_transcripts_jsonl(records: list[TranscriptRecord]) -> str:
    """Serialize records ordered by (id, start), compact JSON, one per line."""
    ordered = sorted(records, key=lambda r: (r.recording_id, r.chunk_span.start, r.chunk_span.end))
    lines = [
        json.dumps(
            {
                "id": r.recording_id,
                "start": r.chunk_span.start,
                "end": r.chunk_span.end,
                "text": r.text,
            },
            ensure_ascii=False,
            separators=(",", ":"),
        )
        for r in ordered
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class DecodeConfig:
    """Generation settings consumed by external ASR runners.

    Defaults follow the best-performing decode: 5 beams with a mild 0.8
    repetition penalty and no n-gram suppression.
    """

    beams: int = 5
    repetition_penalty: float = 0.8
    no_repeat_ngram: int = 0
    do_sample: bool = False
    temperature: float = 1.0

    def __post_init__(self):
        if self.beams < 1:
            raise ParameterError(f"beams must be >= 1, got {self.beams}")
        if self.no_repeat_ngram < 0:
            raise ParameterError("no_repeat_ngram must be >= 0")
        if not self.repetition_penalty > 0:
            raise ParameterError("repetition_penalty must be positive")
        if self.do_sample and not self.temperature > 0:
            raise ParameterError("temperature must be positive when sampling")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DecodeConfig":
        return build_config(cls, parse_json(text, "decode config"), "decode-config")
