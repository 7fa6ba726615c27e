"""Exact WER and DER scoring.

WER uses Levenshtein alignment over word tokens after minimal text
normalization. DER sweeps boundary events into elementary intervals,
maps hypothesis speakers to reference speakers by optimal assignment,
and decomposes the error into miss / false alarm / confusion.
"""

from __future__ import annotations

import unicodedata
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ParameterError, StructuralError, UndefinedMetricError
from .timeline import SpeakerTimeline


def normalize_text(s: str, strip_punctuation: bool = False) -> str:
    """NFC composition, whitespace runs collapsed to single spaces, trimmed.

    Deliberately no dialect mapping: anything beyond this minimal cleanup
    risks creating mismatches against reference transcripts. Punctuation
    stripping (all Unicode P* categories, danda included) is opt-in.
    """
    text = unicodedata.normalize("NFC", s)
    if strip_punctuation:
        text = "".join(
            " " if unicodedata.category(ch).startswith("P") else ch for ch in text
        )
    return " ".join(text.split())


@dataclass
class WerReport:
    substitutions: int
    deletions: int
    insertions: int
    ref_word_count: int
    wer: float

    def to_dict(self) -> dict:
        return asdict(self)


def wer(ref: str, hyp: str, strip_punctuation: bool = False) -> WerReport:
    """Word error rate from a minimal-cost alignment with unit costs.

    On ties the backtrace prefers the diagonal, so one substitution is
    reported rather than an insertion plus a deletion.
    """
    ref_tokens = normalize_text(ref, strip_punctuation).split()
    hyp_tokens = normalize_text(hyp, strip_punctuation).split()
    if not ref_tokens:
        raise UndefinedMetricError("WER is undefined for an empty reference")

    n, m = len(ref_tokens), len(hyp_tokens)
    dist = np.zeros((n + 1, m + 1), dtype=np.int32)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    ref_arr = np.array(ref_tokens)
    hyp_arr = np.array(hyp_tokens)
    idx = np.arange(m + 1, dtype=np.int32)
    base = np.empty(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        # Insertion chains resolve to a prefix running minimum, so one
        # accumulate per row replaces the sequential inner loop.
        base[0] = i
        np.minimum(
            dist[i - 1, :-1] + (ref_arr[i - 1] != hyp_arr),
            dist[i - 1, 1:] + 1,
            out=base[1:],
        )
        dist[i] = np.minimum.accumulate(base - idx) + idx

    s = d = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref_tokens[i - 1] != hyp_tokens[j - 1]):
            if ref_tokens[i - 1] != hyp_tokens[j - 1]:
                s += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerReport(s, d, ins, n, (s + d + ins) / n)


@dataclass
class DerReport:
    missed: float
    false_alarm: float
    confusion: float
    total_ref: float
    der: float
    mapping: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "mapping": dict(sorted(self.mapping.items()))}


def optimal_assignment(cost_matrix: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Exact minimum-cost one-to-one assignment on a rectangular matrix.

    Equivalent to zero-padding to square and discarding dummy pairs; returns
    (pairs sorted by row, total cost).
    """
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.size and not np.all(np.isfinite(cost)):
        raise ParameterError("cost matrix entries must be finite")
    if cost.size == 0:
        return [], 0.0
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())


def _active_sets(timeline: SpeakerTimeline, edges: np.ndarray) -> list[set[str]]:
    """Speaker set active in each elementary interval [edges[i], edges[i+1])."""
    sets: list[set[str]] = [set() for _ in range(len(edges) - 1)]
    for seg in timeline.segments:
        lo = int(np.searchsorted(edges, seg.span.start))
        hi = int(np.searchsorted(edges, seg.span.end))
        for idx in range(lo, hi):
            sets[idx].add(seg.speaker)
    return sets


def der(
    ref: SpeakerTimeline,
    hyp: SpeakerTimeline,
    collar: float = 0.0,
    skip_overlap: bool = False,
) -> DerReport:
    """Diarization error rate with optimal speaker mapping.

    A ±collar region around every reference boundary is excluded from
    scoring. With `skip_overlap`, intervals where the reference has two or
    more active speakers are excluded as well.
    """
    if ref.recording_id != hyp.recording_id:
        raise StructuralError(
            f"recording ids differ: {ref.recording_id!r} vs {hyp.recording_id!r}"
        )
    if collar < 0:
        raise ParameterError(f"collar must be >= 0, got {collar}")

    edge_values: set[float] = set()
    for timeline in (ref, hyp):
        for seg in timeline.segments:
            edge_values.add(seg.span.start)
            edge_values.add(seg.span.end)
    exclusions: list[tuple[float, float]] = []
    if collar > 0:
        for seg in ref.segments:
            for b in (seg.span.start, seg.span.end):
                lo, hi = max(0.0, b - collar), b + collar
                exclusions.append((lo, hi))
                edge_values.update((lo, hi))
    if not edge_values:
        raise UndefinedMetricError("DER is undefined when the reference has no speech")
    edges = np.array(sorted(edge_values))

    ref_sets = _active_sets(ref, edges)
    hyp_sets = _active_sets(hyp, edges)
    lengths = np.diff(edges)
    midpoints = (edges[:-1] + edges[1:]) / 2.0

    scored = np.ones(len(lengths), dtype=bool)
    for lo, hi in exclusions:
        scored &= ~((midpoints > lo) & (midpoints < hi))
    if skip_overlap:
        scored &= np.array([len(s) < 2 for s in ref_sets])

    ref_speakers = ref.speakers()
    hyp_speakers = hyp.speakers()
    ref_index = {spk: i for i, spk in enumerate(ref_speakers)}
    hyp_index = {spk: i for i, spk in enumerate(hyp_speakers)}

    overlap = np.zeros((len(ref_speakers), len(hyp_speakers)))
    for idx in np.flatnonzero(scored):
        for r in ref_sets[idx]:
            for h in hyp_sets[idx]:
                overlap[ref_index[r], hyp_index[h]] += lengths[idx]
    if overlap.size:
        pairs, _ = optimal_assignment(-overlap)
    else:
        pairs = []
    mapping = {hyp_speakers[h]: ref_speakers[r] for r, h in pairs if overlap[r, h] > 0}

    missed = false_alarm = confusion = total_ref = 0.0
    for idx in np.flatnonzero(scored):
        length = float(lengths[idx])
        r_set, h_set = ref_sets[idx], hyp_sets[idx]
        r_count, h_count = len(r_set), len(h_set)
        total_ref += length * r_count
        matched = sum(1 for h in h_set if mapping.get(h) in r_set)
        missed += length * max(0, r_count - h_count)
        false_alarm += length * max(0, h_count - r_count)
        confusion += length * (min(r_count, h_count) - matched)

    if total_ref <= 0:
        raise UndefinedMetricError("DER is undefined when scored reference speech is empty")
    error = missed + false_alarm + confusion
    return DerReport(missed, false_alarm, confusion, total_ref, error / total_ref, mapping)


def merge_der_reports(reports: list[DerReport]) -> DerReport:
    """Micro-average: sum component times, then recompute the rate."""
    missed = sum(r.missed for r in reports)
    fa = sum(r.false_alarm for r in reports)
    conf = sum(r.confusion for r in reports)
    total = sum(r.total_ref for r in reports)
    if total <= 0:
        raise UndefinedMetricError("no reference speech across reports")
    return DerReport(missed, fa, conf, total, (missed + fa + conf) / total)


def merge_wer_reports(reports: list[WerReport]) -> WerReport:
    """Micro-average: sum edit counts over the corpus."""
    s = sum(r.substitutions for r in reports)
    d = sum(r.deletions for r in reports)
    ins = sum(r.insertions for r in reports)
    n = sum(r.ref_word_count for r in reports)
    if n <= 0:
        raise UndefinedMetricError("no reference words across reports")
    return WerReport(s, d, ins, n, (s + d + ins) / n)
