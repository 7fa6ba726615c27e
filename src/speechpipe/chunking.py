"""Silence-aware chunk planning for long-form ASR.

Non-silent spans are greedily accumulated into chunks that close at silence
boundaries once a minimum duration is reached; chunks that would exceed the
maximum duration are force-split at exactly that limit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .audio import Waveform
from .errors import FormatError, ParameterError, StructuralError
from .spans import TimeSpan, check_sorted_by_start, check_sorted_disjoint

KIND_SILENCE = "silence"
KIND_FORCED = "forced"
KIND_END_OF_AUDIO = "end-of-audio"


@dataclass
class ChunkConfig:
    min_dur: float = 20.0
    max_dur: float = 30.0
    include_leading_silence: bool = False

    def __post_init__(self):
        if not (0 < self.min_dur <= self.max_dur):
            raise ParameterError(
                f"need 0 < min_dur <= max_dur, got min={self.min_dur} max={self.max_dur}"
            )


@dataclass
class ChunkPlan:
    chunks: list[TimeSpan]
    source_duration: float
    forced_split_count: int
    boundary_kinds: list[str]

    def to_dict(self, recording_id: str = "", config: ChunkConfig | None = None) -> dict:
        doc = {
            "recording_id": recording_id,
            "source_duration": self.source_duration,
            "forced_split_count": self.forced_split_count,
            "chunks": [
                {"start": c.start, "end": c.end, "kind": k}
                for c, k in zip(self.chunks, self.boundary_kinds)
            ],
        }
        if config is not None:
            doc["config"] = asdict(config)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ChunkPlan":
        """Inverse of `to_dict`; a document of the wrong shape raises FormatError
        naming where it is wrong."""
        if not isinstance(doc, dict):
            raise FormatError(f"chunk plan must be a JSON object, got {type(doc).__name__}")
        where = "chunk plan"
        try:
            chunks, kinds = [], []
            for i, c in enumerate(doc["chunks"]):
                where = f"chunk plan chunks[{i}]"
                chunks.append(TimeSpan(c["start"], c["end"]))
                kinds.append(c["kind"])
            where = "chunk plan"
            return cls(chunks, doc["source_duration"], doc["forced_split_count"], kinds)
        except KeyError as exc:
            raise FormatError(f"{where}: missing key {exc}") from None
        except (TypeError, ParameterError) as exc:
            raise FormatError(f"{where}: {exc}") from None


def _cut_stretch(
    open_at: float,
    close_at: float,
    kind: str,
    is_final: bool,
    spans: list[TimeSpan],
    cfg: ChunkConfig,
) -> list[tuple[float, float, str]]:
    """Cut one accumulation stretch into chunks of at most max_dur.

    Forced cuts land at exactly open + max_dur; after a cut in silence the
    next chunk opens at the next non-silent instant. A final piece shorter
    than min_dur becomes end-of-audio when the audio is exhausted, otherwise
    the last cut is pulled back so the closing piece is exactly min_dur long
    (still ending at the stretch's silence boundary).
    """
    pieces: list[list] = []
    cursor = open_at
    while close_at - cursor > cfg.max_dur:
        cut = cursor + cfg.max_dur
        pieces.append([cursor, cut, KIND_FORCED])
        cursor = cut
        for span in spans:
            if span.end > cut:
                cursor = max(cut, span.start)
                break

    if pieces and close_at - cursor < cfg.min_dur:
        if is_final:
            kind = KIND_END_OF_AUDIO
        else:
            cursor = close_at - cfg.min_dur
            pieces[-1][1] = min(pieces[-1][1], cursor)
    pieces.append([cursor, close_at, kind])
    return [(a, b, k) for a, b, k in pieces]


def plan_chunks(nonsilent: list[TimeSpan], total_duration: float, cfg: ChunkConfig) -> ChunkPlan:
    """Greedy accumulation of non-silent spans into ASR-ready chunks.

    A chunk opens at the first uncovered non-silent instant and extends
    across spans; reaching a span end with at least `min_dur` accumulated
    closes it there (a silence boundary). Material that would exceed
    `max_dur` is force-split at exactly that limit. Trailing material
    shorter than `min_dur` becomes a final chunk tagged end-of-audio.

    Forced splitting is resolved per accumulation stretch, so the chunk
    structure between silence closes does not depend on max_dur cascades:
    raising max_dur never increases the forced-split count.
    """
    check_sorted_disjoint(nonsilent, "non-silent spans")
    if nonsilent and (nonsilent[0].start < 0 or nonsilent[-1].end > total_duration + 1e-9):
        raise StructuralError("non-silent spans must lie within [0, total_duration]")

    # Accumulation stretches are independent of max_dur: open at the first
    # uncovered non-silent instant, close at the first span end reaching
    # min_dur, or at the final span end when the input runs out.
    stretches: list[tuple[float, float, str]] = []
    open_at: float | None = None
    for span in nonsilent:
        if open_at is None:
            open_at = 0.0 if cfg.include_leading_silence and not stretches else span.start
        if span.end - open_at >= cfg.min_dur:
            stretches.append((open_at, span.end, KIND_SILENCE))
            open_at = None
    if open_at is not None:
        stretches.append((open_at, nonsilent[-1].end, KIND_END_OF_AUDIO))

    chunks: list[TimeSpan] = []
    kinds: list[str] = []
    for i, (start, close, kind) in enumerate(stretches):
        is_final = i == len(stretches) - 1
        for a, b, piece_kind in _cut_stretch(start, close, kind, is_final, nonsilent, cfg):
            chunks.append(TimeSpan(a, b))
            kinds.append(piece_kind)

    return ChunkPlan(chunks, total_duration, kinds.count(KIND_FORCED), kinds)


def chunk_to_samples(plan: ChunkPlan, w: Waveform) -> list[Waveform]:
    """Each chunk's sample slice, a view of `w.samples` (no copy); boundaries
    round to the nearest sample."""
    if abs(plan.source_duration - w.duration_seconds) * w.sample_rate > 1.0:
        raise StructuralError(
            f"plan covers {plan.source_duration:.6f}s but waveform is {w.duration_seconds:.6f}s"
        )
    out = []
    n = len(w.samples)
    for chunk in plan.chunks:
        a = min(int(round(chunk.start * w.sample_rate)), n)
        b = min(int(round(chunk.end * w.sample_rate)), n)
        out.append(Waveform(w.samples[a:b], w.sample_rate))
    return out


@dataclass
class BoundaryAudit:
    """Word-straddle counts at chunk cut points."""

    boundaries: list[float]
    straddles_per_boundary: list[int]
    total_straddles: int
    mean_per_boundary: float

    def to_dict(self) -> dict:
        return asdict(self)


def boundary_error_audit(ref_words: list[tuple[str, TimeSpan]], plan: ChunkPlan) -> BoundaryAudit:
    """Count reference words whose span strictly contains a chunk cut point.

    Cut points are every chunk end except the last, plus any chunk start that
    does not coincide with the previous chunk's end (silence gaps are cut on
    both sides).
    """
    check_sorted_by_start([span for _, span in ref_words], "reference word spans")

    boundaries: list[float] = []
    for i, chunk in enumerate(plan.chunks):
        if i + 1 < len(plan.chunks):
            boundaries.append(chunk.end)
            if plan.chunks[i + 1].start > chunk.end:
                boundaries.append(plan.chunks[i + 1].start)

    counts = [sum(1 for _, span in ref_words if span.contains(b)) for b in boundaries]
    total = sum(counts)
    mean = total / len(boundaries) if boundaries else 0.0
    return BoundaryAudit(boundaries, counts, total, mean)


def fixed_interval_plan(total_duration: float, chunk_seconds: float) -> ChunkPlan:
    """Baseline fixed-length plan for audit comparisons; every cut is a forced split."""
    if chunk_seconds <= 0:
        raise ParameterError("chunk_seconds must be positive")
    chunks = []
    kinds = []
    t = 0.0
    while t < total_duration - 1e-9:
        end = min(t + chunk_seconds, total_duration)
        chunks.append(TimeSpan(t, end))
        kinds.append(KIND_FORCED if end < total_duration else KIND_END_OF_AUDIO)
        t = end
    forced = sum(1 for k in kinds if k == KIND_FORCED)
    return ChunkPlan(chunks, total_duration, forced, kinds)
