"""Half-open time intervals, the universal unit of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, StructuralError


@dataclass(frozen=True, order=True)
class TimeSpan:
    """Half-open interval ``[start, end)`` in seconds, with ``0 <= start < end``."""

    start: float
    end: float

    def __post_init__(self):
        if not (0.0 <= self.start < self.end):
            raise ParameterError(f"invalid span [{self.start}, {self.end}): need 0 <= start < end")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, instant: float) -> bool:
        """True when `instant` lies strictly inside the interval."""
        return self.start < instant < self.end


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
