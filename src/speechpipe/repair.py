"""Segments-CSV parsing with regex-based annotation repair.

Canonical format: header ``id,start,end,speaker``, UTF-8, LF line endings,
times as decimal seconds with up to 3 fractional digits. Strict mode rejects
any deviation; repair mode applies an ordered rule set, from most conservative
to most aggressive, and drops whatever remains unrecoverable. Rows that strict
mode accepts are never altered.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

from .errors import FormatError
from .spans import TimeSpan
from .timeline import SpeakerSegment, SpeakerTimeline

HEADER = "id,start,end,speaker"

RULE_TRIM = "trim-whitespace"
RULE_DECIMAL_COMMA = "decimal-comma"
RULE_QUOTES = "strip-quotes"
RULE_SWAP = "swap-times"
RULE_DELIMITERS = "collapse-delimiters"

_TIME_RE = re.compile(r"^\d+(\.\d+)?$")
_TOKEN_RE = re.compile(r"^\S+$")
_ALL_DIGITS_RE = re.compile(r"^\d+$")


@dataclass
class RepairReport:
    total_lines: int = 0
    parsed_ok: int = 0
    repaired: int = 0
    dropped: int = 0
    rules_fired: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "rules_fired": dict(sorted(self.rules_fired.items()))}


@dataclass
class RowOutcome:
    """Per-row result: status is 'ok', 'repaired', or 'dropped'."""

    line_no: int
    status: str
    record: tuple[str, float, float, str] | None = None
    rules: list[str] = field(default_factory=list)
    diagnosis: str = ""
    raw: str = ""


def format_seconds(t: float) -> str:
    """Canonical time text: millisecond precision, trailing zeros trimmed."""
    text = f"{t:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _strict_diagnosis(line: str) -> str:
    """Empty string when the row is canonical, else the first failed check."""
    tokens = line.split(",")
    if len(tokens) != 4:
        return f"expected 4 fields, got {len(tokens)}"
    rec_id, start, end, speaker = tokens
    if not _TOKEN_RE.match(rec_id):
        return f"bad id {rec_id!r}"
    if not _TIME_RE.match(start):
        return f"bad start time {start!r}"
    if not _TIME_RE.match(end):
        return f"bad end time {end!r}"
    if not _TOKEN_RE.match(speaker):
        return f"bad speaker {speaker!r}"
    if not float(start) < float(end):
        return f"start {start} not before end {end}"
    return ""


def _merge_decimal_commas(tokens: list[str]) -> tuple[list[str], bool]:
    """Pairwise-merge adjacent all-digit interior tokens left to right."""
    out = [tokens[0]]
    fired = False
    i = 1
    while i < len(tokens) - 1:
        if (
            i + 1 < len(tokens) - 1
            and _ALL_DIGITS_RE.match(tokens[i])
            and _ALL_DIGITS_RE.match(tokens[i + 1])
        ):
            out.append(tokens[i] + "." + tokens[i + 1])
            fired = True
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    if i == len(tokens) - 1:
        out.append(tokens[i])
    return out, fired


def _repair_line(line: str) -> tuple[tuple[str, float, float, str] | None, list[str]]:
    """Apply the repair rules to fixpoint; None when the row stays unrecoverable."""
    tokens = line.split(",")
    fired: list[str] = []

    for _ in range(4):  # compound corruptions settle within a few passes
        changed = False

        trimmed = [t.strip() for t in tokens]
        if trimmed != tokens:
            tokens = trimmed
            if RULE_TRIM not in fired:
                fired.append(RULE_TRIM)
            changed = True

        # Empty tokens mean duplicated delimiters, not decimal commas; let the
        # collapse rule clear them first and revisit on the next pass.
        if len(tokens) > 4 and "" not in tokens:
            merged, did = _merge_decimal_commas(tokens)
            if did:
                tokens = merged
                if RULE_DECIMAL_COMMA not in fired:
                    fired.append(RULE_DECIMAL_COMMA)
                changed = True

        unquoted = [
            t[1:-1] if len(t) >= 2 and t[0] == t[-1] and t[0] in "\"'" else t
            for t in tokens
        ]
        if unquoted != tokens:
            tokens = unquoted
            if RULE_QUOTES not in fired:
                fired.append(RULE_QUOTES)
            changed = True

        if len(tokens) == 4 and _TIME_RE.match(tokens[1]) and _TIME_RE.match(tokens[2]):
            if float(tokens[1]) > float(tokens[2]):
                tokens = [tokens[0], tokens[2], tokens[1], tokens[3]]
                if RULE_SWAP not in fired:
                    fired.append(RULE_SWAP)
                changed = True

        if len(tokens) > 4 and "" in tokens:
            tokens = [t for t in tokens if t != ""]
            if RULE_DELIMITERS not in fired:
                fired.append(RULE_DELIMITERS)
            changed = True

        if not changed:
            break

    if len(tokens) != 4:
        return None, fired
    rec_id, start, end, speaker = tokens
    if not (_TOKEN_RE.match(rec_id) and _TOKEN_RE.match(speaker)):
        return None, fired
    if not (_TIME_RE.match(start) and _TIME_RE.match(end)):
        return None, fired
    t0, t1 = float(start), float(end)
    if not t0 < t1:
        return None, fired
    return (rec_id, t0, t1, speaker), fired


def repair_rows(text: str, strict: bool = False) -> tuple[list[RowOutcome], RepairReport]:
    """Classify every data row; strict mode marks non-canonical rows dropped with a diagnosis."""
    lines = text.splitlines()
    if not lines or lines[0].lstrip("﻿").strip() != HEADER:
        found = lines[0] if lines else "<empty>"
        raise FormatError(f"expected header {HEADER!r}, found {found!r}", line=1)

    outcomes: list[RowOutcome] = []
    report = RepairReport()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        report.total_lines += 1
        diagnosis = _strict_diagnosis(line)
        if not diagnosis:
            rec_id, start, end, speaker = line.split(",")
            outcomes.append(
                RowOutcome(line_no, "ok", (rec_id, float(start), float(end), speaker), raw=line)
            )
            report.parsed_ok += 1
            continue
        if strict:
            outcomes.append(RowOutcome(line_no, "dropped", diagnosis=diagnosis))
            report.dropped += 1
            continue
        record, rules = _repair_line(line)
        if record is None:
            outcomes.append(RowOutcome(line_no, "dropped", rules=rules, diagnosis=diagnosis))
            report.dropped += 1
        else:
            outcomes.append(RowOutcome(line_no, "repaired", record, rules, diagnosis))
            report.repaired += 1
            for rule in rules:
                report.rules_fired[rule] = report.rules_fired.get(rule, 0) + 1
    return outcomes, report


def parse_segments_csv(
    text: str, strict: bool = False
) -> tuple[list[SpeakerTimeline], RepairReport]:
    """Parse a segments CSV into timelines; strict mode raises on the first bad row."""
    outcomes, report = repair_rows(text, strict=strict)
    if strict:
        for outcome in outcomes:
            if outcome.status == "dropped":
                raise FormatError(outcome.diagnosis, line=outcome.line_no)
    grouped: dict[str, list[SpeakerSegment]] = {}
    for outcome in outcomes:
        if outcome.record is None:
            continue
        rec_id, start, end, speaker = outcome.record
        grouped.setdefault(rec_id, []).append(
            SpeakerSegment(TimeSpan(start, end), speaker)
        )
    timelines = [SpeakerTimeline.from_segments(rid, segs) for rid, segs in grouped.items()]
    return timelines, report


def write_segments_csv(timelines: list[SpeakerTimeline]) -> str:
    """Serialize timelines in the canonical CSV format."""
    lines = [HEADER]
    for timeline in timelines:
        for seg in timeline.segments:
            lines.append(
                f"{timeline.recording_id},{format_seconds(seg.span.start)},"
                f"{format_seconds(seg.span.end)},{seg.speaker}"
            )
    return "\n".join(lines) + "\n"


def rows_to_csv(outcomes: list[RowOutcome]) -> str:
    """Re-emit recovered rows in input order.

    Rows strict mode accepted pass through byte-identical; repaired rows are
    canonically formatted.
    """
    lines = [HEADER]
    for outcome in outcomes:
        if outcome.record is None:
            continue
        if outcome.status == "ok":
            lines.append(outcome.raw)
            continue
        rec_id, start, end, speaker = outcome.record
        lines.append(f"{rec_id},{format_seconds(start)},{format_seconds(end)},{speaker}")
    return "\n".join(lines) + "\n"
