"""Silence-aware chunk planning for long-form ASR.

Non-silent spans are greedily accumulated into chunks that close at silence
boundaries once a minimum duration is reached; chunks that would exceed the
maximum duration are force-split at exactly that limit.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import asdict, dataclass

from .audio import Waveform
from .errors import FormatError, ParameterError, StructuralError
from .spans import TimeSpan, check_sorted_disjoint

KIND_SILENCE = "silence"
KIND_FORCED = "forced"
KIND_END_OF_AUDIO = "end-of-audio"
_KINDS = (KIND_SILENCE, KIND_FORCED, KIND_END_OF_AUDIO)


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
        naming where it is wrong: a kind outside the three, a source_duration
        that is not a finite number, or a forced_split_count other than the
        number of forced chunks."""
        if not isinstance(doc, dict):
            raise FormatError(f"chunk plan must be a JSON object, got {type(doc).__name__}")
        where = "chunk plan"
        try:
            chunks, kinds = [], []
            for i, c in enumerate(doc["chunks"]):
                where = f"chunk plan chunks[{i}]"
                chunks.append(TimeSpan(c["start"], c["end"]))
                if c["kind"] not in _KINDS:
                    raise ParameterError(f"kind must be one of {', '.join(_KINDS)}, got {c['kind']!r}")
                kinds.append(c["kind"])
            where = "chunk plan"
            duration, forced = doc["source_duration"], doc["forced_split_count"]
            if type(duration) not in (int, float) or not abs(duration) <= sys.float_info.max:
                raise ParameterError(f"source_duration must be a finite number, got {duration!r}")
            if type(forced) is not int or forced != kinds.count(KIND_FORCED):
                raise ParameterError(f"forced_split_count must be {kinds.count(KIND_FORCED)}, the number of"
                                     f" forced chunks, got {forced!r}")
            return cls(chunks, duration, forced, kinds)
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
    next chunk opens at the next non-silent instant, found by bisecting the
    ascending span ends. A final piece shorter than min_dur becomes
    end-of-audio when the audio is exhausted, otherwise the last cut is pulled
    back so the closing piece is exactly min_dur long (still ending at the
    stretch's silence boundary). A last cut that rounds onto the close, so
    that either rule would leave an empty piece, is dropped: the closing piece
    opens where that cut's piece opened. A cut that cannot advance raises
    ParameterError.
    """
    pieces: list[list] = []
    cursor = open_at
    while close_at - cursor > cfg.max_dur:
        cut = cursor + cfg.max_dur
        if cut <= cursor:
            raise ParameterError(f"max_dur={cfg.max_dur} is below the time resolution at {cursor}s: a cut cannot advance")
        pieces.append([cursor, cut, KIND_FORCED])
        after = bisect.bisect_right(spans, cut, key=lambda s: s.end)
        cursor = max(cut, spans[after].start) if after < len(spans) else cut

    if pieces and close_at - cursor < cfg.min_dur:
        if is_final and cursor < close_at:
            kind = KIND_END_OF_AUDIO
        elif not is_final and pieces[-1][0] < close_at - cfg.min_dur:
            cursor = close_at - cfg.min_dur
            pieces[-1][1] = min(pieces[-1][1], cursor)
        else:
            cursor = pieces.pop()[0]
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
