"""Segments-CSV parsing with regex-based annotation repair.

Canonical format: header ``id,start,end,speaker``, UTF-8, LF line endings,
times as decimal seconds with up to 3 fractional digits. Strict mode rejects
any deviation; repair mode applies an ordered rule set, from most conservative
to most aggressive, and drops whatever remains unrecoverable. Rows that strict
mode accepts are never altered. Rows are classified one at a time, as a
stream of outcomes (`classify_rows`) that the parser and the CSV writer
consume as it runs, so no outcome outlives its row unless a caller keeps it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from itertools import islice

from .errors import FormatError
from .spans import TimeSpan, split_lines
from .timeline import SpeakerTimeline, timelines_from_rows

HEADER = "id,start,end,speaker"

RULE_TRIM = "trim-whitespace"
RULE_DECIMAL_COMMA = "decimal-comma"
RULE_QUOTES = "strip-quotes"
RULE_SWAP = "swap-times"
RULE_DELIMITERS = "collapse-delimiters"

_TIME_RE = re.compile(r"^\d+(\.\d+)?$")
_TOKEN_RE = re.compile(r"^\S+$")
# The rows whose four comma-split tokens pass `_TOKEN_RE` and `_TIME_RE`, in
# one `fullmatch`: a token holds no comma, and a line holds no `\n`.
_CANONICAL_RE = re.compile(r"([^,\s]+),(\d+(?:\.\d+)?),(\d+(?:\.\d+)?),([^,\s]+)")
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


@dataclass(slots=True)
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


def _parse_row(tokens: list[str]) -> tuple[tuple[str, float, float, str] | None, str]:
    """(record, "") when the row's fields are canonical, else (None, the first failed check)."""
    if len(tokens) != 4:
        return None, f"expected 4 fields, got {len(tokens)}"
    rec_id, start, end, speaker = tokens
    if not _TOKEN_RE.match(rec_id):
        return None, f"bad id {rec_id!r}"
    if not _TIME_RE.match(start):
        return None, f"bad start time {start!r}"
    if not _TIME_RE.match(end):
        return None, f"bad end time {end!r}"
    if not _TOKEN_RE.match(speaker):
        return None, f"bad speaker {speaker!r}"
    t0, t1 = float(start), float(end)
    if math.isinf(t1):
        return None, f"bad end time {end!r}"
    if not t0 < t1:
        return None, f"start {start} not before end {end}"
    return (rec_id, t0, t1, speaker), ""


def _trim(tokens: list[str]) -> list[str]:
    return [t.strip() for t in tokens]


def _merge_decimal_commas(tokens: list[str]) -> list[str]:
    """Pairwise-merge adjacent all-digit interior tokens left to right."""
    # Empty tokens mean duplicated delimiters, not decimal commas; let the
    # collapse rule clear them first and revisit on the next pass.
    if len(tokens) <= 4 or "" in tokens:
        return tokens
    out = [tokens[0]]
    i = 1
    while i < len(tokens) - 1:
        if (
            i + 1 < len(tokens) - 1
            and _ALL_DIGITS_RE.match(tokens[i])
            and _ALL_DIGITS_RE.match(tokens[i + 1])
        ):
            out.append(tokens[i] + "." + tokens[i + 1])
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    if i == len(tokens) - 1:
        out.append(tokens[i])
    return out


def _strip_quotes(tokens: list[str]) -> list[str]:
    return [t[1:-1] if len(t) >= 2 and t[0] == t[-1] and t[0] in "\"'" else t for t in tokens]


def _swap_times(tokens: list[str]) -> list[str]:
    if len(tokens) == 4 and _TIME_RE.match(tokens[1]) and _TIME_RE.match(tokens[2]):
        if float(tokens[1]) > float(tokens[2]):
            return [tokens[0], tokens[2], tokens[1], tokens[3]]
    return tokens


def _collapse_delimiters(tokens: list[str]) -> list[str]:
    if len(tokens) > 4 and "" in tokens:
        return [t for t in tokens if t != ""]
    return tokens


# Applied in this order on every pass, most conservative first.
_RULES = [
    (RULE_TRIM, _trim),
    (RULE_DECIMAL_COMMA, _merge_decimal_commas),
    (RULE_QUOTES, _strip_quotes),
    (RULE_SWAP, _swap_times),
    (RULE_DELIMITERS, _collapse_delimiters),
]


def _repair_line(tokens: list[str]) -> tuple[tuple[str, float, float, str] | None, list[str]]:
    """Apply the repair rules to fixpoint; None when the row stays unrecoverable."""
    fired: list[str] = []
    for _ in range(4):  # compound corruptions settle within a few passes
        changed = False
        for name, rule in _RULES:
            repaired = rule(tokens)
            if repaired != tokens:
                tokens = repaired
                if name not in fired:
                    fired.append(name)
                changed = True
        if not changed:
            break
    return _parse_row(tokens)[0], fired


def classify_rows(text: str, report: RepairReport, strict: bool = False) -> Iterator[RowOutcome]:
    """Each data row's outcome, in file order, tallied into `report` as it is
    yielded; the header is checked at the first step. Strict mode marks
    non-canonical rows dropped with a diagnosis."""
    lines = split_lines(text)
    if not lines or lines[0].lstrip("\ufeff").strip() != HEADER:
        found = lines[0] if lines else "<empty>"
        raise FormatError(f"expected header {HEADER!r}, found {found!r}", line=1)

    canonical = _CANONICAL_RE.fullmatch
    fired = report.rules_fired
    for line_no, line in enumerate(islice(lines, 1, None), start=2):
        if not line.strip():
            continue
        report.total_lines += 1
        match = canonical(line)
        if match is not None:
            rec_id, start, end, speaker = match.groups()
            t0, t1 = float(start), float(end)
            if t0 < t1 and not math.isinf(t1):
                report.parsed_ok += 1
                yield RowOutcome(line_no, "ok", (rec_id, t0, t1, speaker), raw=line)
                continue
        # Not canonical: the per-token checks name the first that fails.
        tokens = line.split(",")
        diagnosis = _parse_row(tokens)[1]
        if strict:
            report.dropped += 1
            yield RowOutcome(line_no, "dropped", diagnosis=diagnosis)
            continue
        record, rules = _repair_line(tokens)
        if record is None:
            report.dropped += 1
        else:
            report.repaired += 1
            for rule in rules:
                fired[rule] = fired.get(rule, 0) + 1
        yield RowOutcome(line_no, "dropped" if record is None else "repaired", record, rules, diagnosis)


def repair_rows(text: str, strict: bool = False) -> tuple[list[RowOutcome], RepairReport]:
    """Every data row's outcome (`classify_rows`, as a list) and their report."""
    report = RepairReport()
    return list(classify_rows(text, report, strict)), report


def _kept_rows(outcomes: Iterator[RowOutcome], strict: bool):
    """`(id, span, speaker)` of each kept row; strict mode raises at the first dropped one."""
    for outcome in outcomes:
        if outcome.record is not None:
            rec_id, t0, t1, speaker = outcome.record
            yield rec_id, TimeSpan(t0, t1), speaker
        elif strict:
            raise FormatError(outcome.diagnosis, line=outcome.line_no)


def parse_segments_csv(
    text: str, strict: bool = False
) -> tuple[list[SpeakerTimeline], RepairReport]:
    """Parse a segments CSV into timelines; strict mode raises on the first bad
    row, before any later row is read."""
    report = RepairReport()
    return timelines_from_rows(_kept_rows(classify_rows(text, report, strict), strict)), report


def _csv_line(rec_id: str, start: float, end: float, speaker: str) -> str:
    return f"{rec_id},{format_seconds(start)},{format_seconds(end)},{speaker}"


def write_segments_csv(timelines: list[SpeakerTimeline]) -> str:
    """Serialize timelines in the canonical CSV format."""
    lines = [HEADER] + [
        _csv_line(t.recording_id, seg.span.start, seg.span.end, seg.speaker) for t in timelines for seg in t.segments
    ]
    return "\n".join(lines) + "\n"


def rows_to_csv(outcomes: Iterable[RowOutcome]) -> str:
    """Re-emit recovered rows in input order; `outcomes` may be a stream.

    Rows strict mode accepted pass through byte-identical; repaired rows are
    canonically formatted.
    """
    lines = [HEADER] + [o.raw if o.status == "ok" else _csv_line(*o.record) for o in outcomes if o.record is not None]
    return "\n".join(lines) + "\n"
