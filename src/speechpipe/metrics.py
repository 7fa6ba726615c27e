"""Exact WER and DER scoring.

WER uses Levenshtein alignment over word tokens after minimal text
normalization: the distance rows are computed bit-parallel and keep their
delta words, so the backtrace counts substitutions, deletions and
insertions exactly without a distance matrix. DER sweeps boundary events
into elementary intervals, builds (intervals × speakers) activity arrays,
maps hypothesis speakers to reference speakers by optimal assignment, and
decomposes the error into miss / false alarm / confusion, every sum taken
in interval order. scipy is imported on first use, not with the module.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import asdict, dataclass, field

import numpy as np

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

    The distance rows are computed bit-parallel (Myers 1999; Hyyrö 2001),
    bit j-1 of each word standing for hyp position j. Each row i keeps two
    of its delta words: `d0`, set where dist[i][j] == dist[i-1][j-1] (else
    it is one more), and `hp`, set where dist[i][j] == dist[i-1][j] + 1.
    They answer exactly the two tests of a full-matrix backtrace.
    """
    ref_tokens = normalize_text(ref, strip_punctuation).split()
    hyp_tokens = normalize_text(hyp, strip_punctuation).split()
    if not ref_tokens:
        raise UndefinedMetricError("WER is undefined for an empty reference")

    n, m = len(ref_tokens), len(hyp_tokens)
    mask = (1 << m) - 1
    peq: dict[str, int] = {}  # token -> bitmask of the hyp positions holding it
    for j, tok in enumerate(hyp_tokens):
        peq[tok] = peq.get(tok, 0) | 1 << j

    # vp/vn: where dist[i][j] - dist[i][j-1] is +1/-1; row 0 is dist[0][j] = j.
    vp, vn = mask, 0
    rows = [(0, 0)]  # rows[i] for i >= 1; the backtrace never reads row 0
    for tok in ref_tokens:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (mask & ~(d0 | vp))
        hn = vp & d0
        x = ((hp << 1) | 1) & mask  # dist[i][0] - dist[i-1][0] = +1
        vn = x & d0
        vp = ((hn << 1) & mask) | (mask & ~(x | d0))
        rows.append((d0, hp))

    s = d = ins = 0
    i, j = n, m
    while i > 0 and j > 0:
        d0, hp = rows[i]
        cost = ref_tokens[i - 1] != hyp_tokens[j - 1]
        # A match always sets d0, so the diagonal step costs `cost` exactly
        # when d0 is set for a match or clear for a mismatch.
        if (d0 >> (j - 1) & 1) != cost:
            s += cost
            i, j = i - 1, j - 1
        elif hp >> (j - 1) & 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    d += i  # column 0 is reached by deletions only, row 0 by insertions only
    ins += j
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
    from scipy.optimize import linear_sum_assignment  # on first use: a cold start loads no scipy

    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())


def _activity(timeline: SpeakerTimeline, edges: np.ndarray, speakers: list[str]) -> np.ndarray:
    """(intervals × speakers) bool: is the speaker active in [edges[k], edges[k+1])?

    A speaker whose own segments overlap counts once.
    """
    index = {spk: i for i, spk in enumerate(speakers)}
    delta = np.zeros((len(edges), len(speakers)), dtype=np.int32)
    segments = timeline.segments
    if segments:
        column = [index[seg.speaker] for seg in segments]
        np.add.at(delta, (np.searchsorted(edges, [seg.span.start for seg in segments]), column), 1)
        np.add.at(delta, (np.searchsorted(edges, [seg.span.end for seg in segments]), column), -1)
    return np.cumsum(delta[:-1], axis=0) > 0


def _total(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 from first to last, the order of a running `+=`
    (np.sum may add pairwise, which rounds differently)."""
    return np.cumsum(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


@np.errstate(over="ignore")  # spans near 1e308 overflow the sums: _der_report refuses them
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
    if not collar >= 0:
        raise ParameterError(f"collar must be >= 0, got {collar}")

    ref_bounds, hyp_bounds = (np.array([b for seg in t.segments for b in (seg.span.start, seg.span.end)], dtype=float)
                              for t in (ref, hyp))
    # The collar regions (lo, hi) around every reference boundary; none without a collar.
    collared = ref_bounds if collar > 0 else ref_bounds[:0]
    lo, hi = np.maximum(0.0, collared - collar), collared + collar
    edges = np.unique(np.concatenate([ref_bounds, hyp_bounds, lo, hi]))
    if not edges.size:
        raise UndefinedMetricError("DER is undefined when the reference has no speech")

    ref_speakers = ref.speakers()
    hyp_speakers = hyp.speakers()
    ref_active = _activity(ref, edges, ref_speakers)
    hyp_active = _activity(hyp, edges, hyp_speakers)
    lengths = np.diff(edges)
    midpoints = (edges[:-1] + edges[1:]) / 2.0

    # An interval is excluded when its midpoint lies strictly inside some
    # (lo, hi): +1/-1 at the first and past the last such midpoint.
    excluded = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.add.at(excluded, np.searchsorted(midpoints, lo, "right"), 1)
    np.add.at(excluded, np.searchsorted(midpoints, hi, "left"), -1)
    scored = np.cumsum(excluded[:-1]) == 0
    if skip_overlap:
        scored &= ref_active.sum(axis=1) < 2
    sel = np.flatnonzero(scored)
    ref_active, hyp_active, length = ref_active[sel], hyp_active[sel], lengths[sel]

    # overlap[r, h]: scored time where both speak.
    overlap = np.zeros((len(ref_speakers), len(hyp_speakers)))
    for r, active in enumerate(ref_active.T):
        overlap[r] = _total(np.where(active[:, None] & hyp_active, length[:, None], 0.0))
    pairs, _ = optimal_assignment(-overlap)
    pairs = [(r, h) for r, h in pairs if overlap[r, h] > 0]
    mapping = {hyp_speakers[h]: ref_speakers[r] for r, h in pairs}

    r_count, h_count = ref_active.sum(axis=1), hyp_active.sum(axis=1)
    matched = (ref_active[:, [r for r, _ in pairs]] & hyp_active[:, [h for _, h in pairs]]).sum(axis=1)
    total_ref = float(_total(length * r_count))
    missed = float(_total(length * np.maximum(0, r_count - h_count)))
    false_alarm = float(_total(length * np.maximum(0, h_count - r_count)))
    confusion = float(_total(length * (np.minimum(r_count, h_count) - matched)))

    if total_ref <= 0:
        raise UndefinedMetricError("DER is undefined when scored reference speech is empty")
    return _der_report(missed, false_alarm, confusion, total_ref, mapping)


def _der_report(missed: float, false_alarm: float, confusion: float, total_ref: float,
                mapping: dict[str, str] | None = None) -> DerReport:
    """The report of these times, refused when the total or the rate is not
    finite (every time is at most the error, which a finite rate bounds)."""
    error = missed + false_alarm + confusion
    rate = error / total_ref
    if not (math.isfinite(total_ref) and math.isfinite(rate)):
        raise UndefinedMetricError(
            f"DER is undefined: the scored times overflow float64 (total_ref={total_ref}, error={error})"
        )
    return DerReport(missed, false_alarm, confusion, total_ref, rate, mapping or {})


def merge_der_reports(reports: list[DerReport]) -> DerReport:
    """Micro-average: sum component times, then recompute the rate."""
    missed = sum(r.missed for r in reports)
    fa = sum(r.false_alarm for r in reports)
    conf = sum(r.confusion for r in reports)
    total = sum(r.total_ref for r in reports)
    if total <= 0:
        raise UndefinedMetricError("no reference speech across reports")
    return _der_report(missed, fa, conf, total)


def merge_wer_reports(reports: list[WerReport]) -> WerReport:
    """Micro-average: sum edit counts over the corpus."""
    s = sum(r.substitutions for r in reports)
    d = sum(r.deletions for r in reports)
    ins = sum(r.insertions for r in reports)
    n = sum(r.ref_word_count for r in reports)
    if n <= 0:
        raise UndefinedMetricError("no reference words across reports")
    return WerReport(s, d, ins, n, (s + d + ins) / n)
