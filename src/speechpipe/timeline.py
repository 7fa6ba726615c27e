"""Speaker-timeline data model, RTTM interchange, and timeline post-processing."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .errors import FormatError, ParameterError, StructuralError
from .spans import TimeSpan, check_sorted_by_start


@dataclass(frozen=True)
class SpeakerSegment:
    span: TimeSpan
    speaker: str

    def __post_init__(self):
        if not self.speaker or any(ch.isspace() for ch in self.speaker):
            raise ParameterError(f"speaker label must be non-empty without whitespace: {self.speaker!r}")


@dataclass
class SpeakerTimeline:
    """Ordered speaker segments for one recording.

    Segments are sorted by (start, end, speaker). Same-speaker segments are
    non-overlapping and non-adjacent after normalization; different speakers
    may overlap (overlapped speech is real).
    """

    recording_id: str
    segments: list[SpeakerSegment] = field(default_factory=list)

    @classmethod
    def from_segments(
        cls, recording_id: str, segments: list[SpeakerSegment]
    ) -> "SpeakerTimeline":
        """Build a normalized timeline: merge same-speaker overlap/adjacency, sort."""
        return cls(recording_id, _merge_per_speaker(segments, lambda current, span: span.start <= current.end))

    def speakers(self) -> list[str]:
        return sorted({seg.speaker for seg in self.segments})


def _merge_per_speaker(segments, joins) -> list[SpeakerSegment]:
    """Merge each speaker's time-sorted spans into the running one while
    `joins(running, next)` holds; the result is sorted by (start, end, speaker)."""
    by_speaker: dict[str, list[TimeSpan]] = defaultdict(list)
    for seg in segments:
        by_speaker[seg.speaker].append(seg.span)
    merged: list[SpeakerSegment] = []
    for speaker, spans in by_speaker.items():
        spans.sort()
        current = spans[0]
        for span in spans[1:]:
            if joins(current, span):
                current = TimeSpan(current.start, max(current.end, span.end))
            else:
                merged.append(SpeakerSegment(current, speaker))
                current = span
        merged.append(SpeakerSegment(current, speaker))
    merged.sort(key=lambda s: (s.span.start, s.span.end, s.speaker))
    return merged


def _parse_time(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"non-numeric {what} {token!r}", line=line_no) from None
    if value < 0:
        raise FormatError(f"negative {what} {token!r}", line=line_no)
    return value


def timelines_from_rows(rows) -> list[SpeakerTimeline]:
    """Normalized timelines from `(recording id, span, speaker)` rows, in
    order of each id's first row."""
    grouped: dict[str, list[SpeakerSegment]] = {}
    for recording_id, span, speaker in rows:
        grouped.setdefault(recording_id, []).append(SpeakerSegment(span, speaker))
    return [SpeakerTimeline.from_segments(rid, segs) for rid, segs in grouped.items()]


def parse_rttm(text: str) -> list[SpeakerTimeline]:
    """Parse RTTM SPEAKER records, grouped by file in order of first appearance."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "SPEAKER":
            raise FormatError(f"unsupported record type {fields[0]!r}", line=line_no)
        if len(fields) != 10:
            raise FormatError(f"expected 10 fields, got {len(fields)}", line=line_no)
        tbeg = _parse_time(fields[3], line_no, "onset")
        tdur = _parse_time(fields[4], line_no, "duration")
        if tdur <= 0:
            continue  # zero-duration records carry no speech
        # The format carries millisecond precision; snap the reconstructed end
        # so onset+duration arithmetic cannot leak a stray ulp.
        try:
            span = TimeSpan(tbeg, round(tbeg + tdur, 6))
        except ParameterError as exc:
            raise FormatError(str(exc), line=line_no) from None
        rows.append((fields[1], span, fields[7]))
    return timelines_from_rows(rows)


def write_rttm(timelines: list[SpeakerTimeline]) -> str:
    """Serialize timelines as RTTM, times at millisecond precision."""
    lines = []
    for timeline in timelines:
        for seg in timeline.segments:
            lines.append(
                f"SPEAKER {timeline.recording_id} 1 {seg.span.start:.3f} "
                f"{seg.span.duration:.3f} <NA> <NA> {seg.speaker} <NA> <NA>"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def suppress_gaps(t: SpeakerTimeline, min_duration_off: float) -> SpeakerTimeline:
    """Absorb same-speaker gaps shorter than `min_duration_off` into one segment."""
    if not min_duration_off >= 0:
        raise ParameterError(f"min_duration_off must be >= 0, got {min_duration_off}")
    merged = _merge_per_speaker(t.segments, lambda current, span: span.start - current.end < min_duration_off)
    return SpeakerTimeline(t.recording_id, merged)


def merge_adjacent_windows(
    window_spans: list[TimeSpan],
    labels: list,
    recording_id: str = "",
) -> SpeakerTimeline:
    """Collapse runs of identically-labelled windows into speaker segments.

    At a label change the boundary is the midpoint of the overlap between the
    two adjacent windows; for disjoint windows it is the end of the earlier
    one. Labels are stringified into speaker names.
    """
    if len(window_spans) != len(labels):
        raise StructuralError(
            f"{len(window_spans)} windows but {len(labels)} labels"
        )
    check_sorted_by_start(window_spans, "windows")
    if not window_spans:
        return SpeakerTimeline(recording_id, [])

    # Close a run of identical labels at each label change and at the end.
    segments: list[SpeakerSegment] = []
    boundary = window_spans[0].start
    first = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[first]:
            end = window_spans[i - 1].end
            if i < len(labels) and window_spans[i].start < end:
                end = (window_spans[i].start + end) / 2.0
            seg_start = max(boundary, window_spans[first].start)
            if end > seg_start:
                segments.append(SpeakerSegment(TimeSpan(seg_start, end), str(labels[first])))
            boundary = max(boundary, end)
            first = i
    return SpeakerTimeline.from_segments(recording_id, segments)
