"""Speaker-timeline data model, RTTM interchange, and timeline post-processing."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import FormatError, ParameterError, StructuralError
from .spans import TimeSpan, check_sorted_by_start, split_lines

# `\S` is `str.isspace`'s complement on every code point.
_LABEL_RE = re.compile(r"\S+")
_START_END = attrgetter("start", "end")


def _check_label(speaker: str) -> None:
    if not _LABEL_RE.fullmatch(speaker):
        raise ParameterError(f"speaker label must be non-empty without whitespace: {speaker!r}")


@dataclass(frozen=True, slots=True, init=False)
class SpeakerSegment:
    span: TimeSpan
    speaker: str

    def __init__(self, span: TimeSpan, speaker: str):
        # Checked before the frozen fields are set, as `TimeSpan` does.
        _check_label(speaker)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "speaker", speaker)


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
        return cls(recording_id, _merge_per_speaker(_spans_by_speaker(segments), _touches))

    def speakers(self) -> list[str]:
        return sorted({seg.speaker for seg in self.segments})


def _touches(current: TimeSpan, span: TimeSpan) -> bool:
    return span.start <= current.end


def _add_span(by_speaker: dict[str, list[TimeSpan]], speaker: str, span: TimeSpan) -> None:
    """Append `span` to the speaker's spans; a label is checked when first seen,
    so the first row that holds a bad one raises."""
    spans = by_speaker.get(speaker)
    if spans is None:
        _check_label(speaker)
        by_speaker[speaker] = [span]
    else:
        spans.append(span)


def _spans_by_speaker(segments) -> dict[str, list[TimeSpan]]:
    by_speaker: dict[str, list[TimeSpan]] = {}
    for seg in segments:
        _add_span(by_speaker, seg.speaker, seg.span)
    return by_speaker


def _merge_per_speaker(by_speaker: dict[str, list[TimeSpan]], joins) -> list[SpeakerSegment]:
    """Merge each speaker's time-sorted spans into the running one while
    `joins(running, next)` holds; the result is sorted by (start, end, speaker).
    Sorts the span lists in place."""
    runs: list[tuple[float, float, str, TimeSpan]] = []
    for speaker, spans in by_speaker.items():
        spans.sort(key=_START_END)
        current = spans[0]
        for span in spans[1:]:
            if joins(current, span):
                current = TimeSpan(current.start, max(current.end, span.end))
            else:
                runs.append((current.start, current.end, speaker, current))
                current = span
        runs.append((current.start, current.end, speaker, current))
    # A speaker's merged spans are distinct, so no two runs tie on
    # (start, end, speaker) and the span itself is never compared.
    runs.sort()
    return [SpeakerSegment(span, speaker) for _, _, speaker, span in runs]


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
    grouped: dict[str, dict[str, list[TimeSpan]]] = {}
    for recording_id, span, speaker in rows:
        _add_span(grouped.setdefault(recording_id, {}), speaker, span)
    return [SpeakerTimeline(rid, _merge_per_speaker(by_speaker, _touches)) for rid, by_speaker in grouped.items()]


def parse_rttm(text: str) -> list[SpeakerTimeline]:
    """Parse RTTM SPEAKER records, grouped by file in order of first appearance."""
    return timelines_from_rows(_rttm_rows(text))


def _rttm_rows(text: str):
    """`(file id, span, speaker)` of each SPEAKER record of positive duration."""
    for line_no, line in enumerate(split_lines(text), start=1):
        fields = line.split()
        if not fields:
            continue
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
        yield fields[1], span, fields[7]


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
    merged = _merge_per_speaker(_spans_by_speaker(t.segments),
                                lambda current, span: span.start - current.end < min_duration_off)
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
    by_speaker: dict[str, list[TimeSpan]] = {}
    boundary = window_spans[0].start
    first = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[first]:
            end = window_spans[i - 1].end
            if i < len(labels) and window_spans[i].start < end:
                end = (window_spans[i].start + end) / 2.0
            seg_start = max(boundary, window_spans[first].start)
            if end > seg_start:
                _add_span(by_speaker, str(labels[first]), TimeSpan(seg_start, end))
            boundary = max(boundary, end)
            first = i
    return SpeakerTimeline(recording_id, _merge_per_speaker(by_speaker, _touches))
