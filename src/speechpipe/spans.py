"""Half-open time intervals, the universal unit of the pipeline."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ParameterError, StructuralError


@dataclass(frozen=True, order=True)
class TimeSpan:
    """Half-open interval ``[start, end)`` in seconds, with ``0 <= start < end``
    and ``end`` finite."""

    start: float
    end: float

    def __post_init__(self):
        if not (0.0 <= self.start < self.end <= sys.float_info.max):
            raise ParameterError(f"invalid span [{self.start}, {self.end}): need 0 <= start < end < inf")

    @property
    def duration(self) -> float:
        return self.end - self.start


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
