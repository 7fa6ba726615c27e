"""Half-open time intervals, the universal unit of the pipeline, and the line
split the interval-bearing text formats share."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ParameterError, StructuralError


_MAX_FLOAT = sys.float_info.max


@dataclass(frozen=True, order=True, slots=True, init=False)
class TimeSpan:
    """Half-open interval ``[start, end)`` in seconds, with ``0 <= start < end``
    and ``end`` finite."""

    start: float
    end: float

    def __init__(self, start: float, end: float):
        # Checked before the frozen fields are set: spans are built by the
        # hundred thousand when annotation files are parsed.
        if not (0.0 <= start < end <= _MAX_FLOAT):
            raise ParameterError(f"invalid span [{start}, {end}): need 0 <= start < end < inf")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def duration(self) -> float:
        return self.end - self.start


def split_lines(text: str) -> list[str]:
    """The lines of a CSV, RTTM or JSONL text. A line ends at ``\\n``,
    ``\\r\\n`` or a lone ``\\r`` and nowhere else: the other breaks
    ``str.splitlines`` knows (U+0085, U+2028, ``\\x0c``, ...) are line
    content. A final line end starts no empty line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def check_sorted_disjoint(spans: list[TimeSpan], what: str = "spans") -> None:
    """Raise if consecutive spans are unsorted or overlapping."""
    for prev, cur in zip(spans, spans[1:]):
        if cur.start < prev.end:
            raise StructuralError(
                f"{what} must be sorted and disjoint: "
                f"[{prev.start}, {prev.end}) then [{cur.start}, {cur.end})"
            )


def check_sorted_by_start(spans: list[TimeSpan], what: str = "spans") -> None:
    """Raise if a span starts before the span ahead of it."""
    if any(cur.start < prev.start for prev, cur in zip(spans, spans[1:])):
        raise StructuralError(f"{what} must be sorted by start")
