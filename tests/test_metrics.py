from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from speechpipe import (
    ParameterError,
    SpeakerSegment,
    SpeakerTimeline,
    StructuralError,
    TimeSpan,
    UndefinedMetricError,
    der,
    merge_der_reports,
    merge_wer_reports,
    normalize_text,
    optimal_assignment,
    wer,
)
from synth import der_reference, edit_distance_oracle, frame_der_oracle, random_timeline, wer_reference


def seg(a, b, spk):
    return SpeakerSegment(TimeSpan(a, b), spk)


def timeline(rid, *segments):
    return SpeakerTimeline.from_segments(rid, list(segments))


class TestNormalizeText:
    def test_whitespace_collapse(self):
        assert normalize_text("  ক   খ ") == "ক খ"

    def test_nfc_composition(self):
        decomposed = "éclair"
        composed = "éclair"
        assert normalize_text(decomposed) == normalize_text(composed) == composed

    def test_already_normalized_identity(self):
        assert normalize_text("ami bhalo achi") == "ami bhalo achi"

    def test_tabs_and_newlines(self):
        assert normalize_text("a\tb\nc") == "a b c"

    def test_punctuation_kept_by_default(self):
        assert normalize_text("কথা। আর, কথা") == "কথা। আর, কথা"

    def test_punctuation_strip_opt_in(self):
        assert normalize_text("কথা। আর, কথা", strip_punctuation=True) == "কথা আর কথা"
        assert wer("কথা। আর", "কথা আর", strip_punctuation=True).wer == 0.0


class TestWer:
    def test_identical(self):
        report = wer("a b c", "a b c")
        assert (report.substitutions, report.deletions, report.insertions) == (0, 0, 0)
        assert report.wer == 0.0

    def test_single_substitution(self):
        report = wer("a b c", "a x c")
        assert report.substitutions == 1
        assert report.wer == pytest.approx(1 / 3)

    def test_empty_hypothesis_all_deletions(self):
        report = wer("a b", "")
        assert report.deletions == 2
        assert report.wer == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            wer("   ", "a b")

    def test_counts_sum_to_edit_distance(self):
        rng = np.random.default_rng(1)
        alphabet = list("abcde")
        for _ in range(300):
            ref = [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 21))]
            hyp = [alphabet[i] for i in rng.integers(0, 5, rng.integers(0, 21))]
            report = wer(" ".join(ref), " ".join(hyp))
            edits = edit_distance_oracle(ref, hyp)
            assert report.substitutions + report.deletions + report.insertions == edits
            assert report.wer == edits / len(ref)
            # alignment bookkeeping: matches + subs + dels cover the reference
            assert report.substitutions + report.deletions <= len(ref)
            assert report.substitutions + report.insertions <= len(hyp)

    def test_edit_roles_swap_between_directions(self):
        forward = wer("a b c d", "a c d e")
        backward = wer("a c d e", "a b c d")
        assert forward.insertions == backward.deletions
        assert forward.deletions == backward.insertions
        assert forward.substitutions == backward.substitutions

    def test_micro_average(self):
        merged = merge_wer_reports([wer("a b", "a x"), wer("c", "c")])
        assert merged.ref_word_count == 3
        assert merged.wer == pytest.approx(1 / 3)


class TestOptimalAssignment:
    def test_identity_diagonal(self):
        cost = np.ones((3, 3)) - np.eye(3)
        pairs, total = optimal_assignment(cost)
        assert pairs == [(0, 0), (1, 1), (2, 2)]
        assert total == 0.0

    def test_single_cell(self):
        pairs, total = optimal_assignment(np.array([[7.0]]))
        assert pairs == [(0, 0)]
        assert total == 7.0

    def test_matches_exhaustive_on_random_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            cost = rng.integers(0, 50, size=(6, 6)).astype(float)
            _, total = optimal_assignment(cost)
            brute = min(
                sum(cost[i, p[i]] for i in range(6))
                for p in itertools.permutations(range(6))
            )
            assert total == brute

    def test_rectangular(self):
        cost = np.array([[1.0, 9.0, 9.0], [9.0, 9.0, 2.0]])
        pairs, total = optimal_assignment(cost)
        assert pairs == [(0, 0), (1, 2)]
        assert total == 3.0

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            optimal_assignment(np.array([[np.nan]]))


class TestDer:
    def test_nan_collar_rejected(self):
        ref = timeline("r", seg(0, 10, "A"))
        with pytest.raises(ParameterError, match="collar must be >= 0, got nan"):
            der(ref, ref, float("nan"))

    def test_permuted_labels_score_zero(self):
        ref = timeline("r", seg(0, 10, "A"), seg(12, 20, "B"))
        hyp = timeline("r", seg(0, 10, "X"), seg(12, 20, "Y"))
        report = der(ref, hyp)
        assert report.der == 0.0
        assert report.mapping == {"X": "A", "Y": "B"}

    def test_hand_case_missed_tail(self):
        report = der(timeline("r", seg(0, 10, "A")), timeline("r", seg(0, 8, "X")))
        assert report.missed == pytest.approx(2.0)
        assert report.false_alarm == 0.0
        assert report.confusion == 0.0
        assert report.der == pytest.approx(0.2)

    def test_hand_case_confusion_half(self):
        ref = timeline("r", seg(0, 5, "A"), seg(5, 10, "B"))
        hyp = timeline("r", seg(0, 10, "X"))
        report = der(ref, hyp)
        assert report.missed == 0.0
        assert report.false_alarm == 0.0
        assert report.confusion == pytest.approx(5.0)
        assert report.der == pytest.approx(0.5)

    def test_self_score_zero_any_collar(self):
        rng = np.random.default_rng(3)
        for collar in (0.0, 0.05, 0.25):
            t = random_timeline(rng, "r", 3)
            assert der(t, t, collar=collar).der == 0.0

    def test_mismatched_recording_ids(self):
        with pytest.raises(StructuralError):
            der(timeline("a", seg(0, 1, "A")), timeline("b", seg(0, 1, "A")))

    def test_empty_reference_undefined(self):
        with pytest.raises(UndefinedMetricError):
            der(timeline("r"), timeline("r", seg(0, 1, "X")))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        ref = random_timeline(rng, "r", 3)
        hyp = random_timeline(rng, "r", 4)
        base = der(ref, hyp)
        renamed_hyp = SpeakerTimeline(
            "r", [seg(s.span.start, s.span.end, f"Z{s.speaker}") for s in hyp.segments]
        )
        renamed_ref = SpeakerTimeline(
            "r", [seg(s.span.start, s.span.end, f"Q{s.speaker}") for s in ref.segments]
        )
        assert der(renamed_ref, renamed_hyp).der == base.der

    def test_collar_never_increases_total_ref(self):
        rng = np.random.default_rng(5)
        ref = random_timeline(rng, "r", 3)
        hyp = random_timeline(rng, "r", 3)
        totals = [der(ref, hyp, collar=c).total_ref for c in (0.0, 0.05, 0.1, 0.25)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_matches_frame_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            ref = random_timeline(rng, "r", int(rng.integers(1, 6)))
            hyp = random_timeline(rng, "r", int(rng.integers(1, 6)))
            if not ref.segments:
                continue
            collar = float(rng.choice([0.0, 0.0, 0.05, 0.25]))
            skip = bool(rng.integers(0, 2))
            oracle = frame_der_oracle(ref, hyp, collar=collar, skip_overlap=skip)
            if oracle is None:
                continue
            report = der(ref, hyp, collar=collar, skip_overlap=skip)
            assert report.der == pytest.approx(oracle[0], rel=0.002, abs=1e-9)

    def test_skip_overlap_excludes_overlap_regions(self):
        ref = timeline("r", seg(0, 10, "A"), seg(5, 15, "B"))
        hyp = timeline("r", seg(0, 15, "X"))
        full = der(ref, hyp)
        skipped = der(ref, hyp, skip_overlap=True)
        assert full.total_ref == pytest.approx(20.0)
        assert skipped.total_ref == pytest.approx(10.0)  # [5,10] counted twice in full
        assert skipped.missed == 0.0

    def test_hyp_only_speech_is_false_alarm(self):
        ref = timeline("r", seg(0, 5, "A"))
        hyp = timeline("r", seg(0, 5, "X"), seg(8, 11, "X"))
        report = der(ref, hyp)
        assert report.false_alarm == pytest.approx(3.0)
        assert report.der == pytest.approx(0.6)

    def test_micro_average_merge(self):
        r1 = der(timeline("a", seg(0, 10, "A")), timeline("a", seg(0, 8, "X")))
        r2 = der(timeline("b", seg(0, 10, "A")), timeline("b", seg(0, 10, "X")))
        merged = merge_der_reports([r1, r2])
        assert merged.total_ref == pytest.approx(20.0)
        assert merged.der == pytest.approx(0.1)

    def test_overflowing_times_are_refused(self, recwarn):
        # Finite spans whose scored sums are not: two reference speakers of
        # 1e308 s, or a false alarm on top of 1e308 s of reference.
        two = timeline("a", seg(0, 1e308, "A"), seg(0, 1e308, "B"))
        with pytest.raises(UndefinedMetricError, match="overflow"):
            der(two, two)
        one = timeline("a", seg(0, 1e308, "A"))
        with pytest.raises(UndefinedMetricError, match="overflow"):
            der(one, timeline("a", seg(0, 1e308, "X"), seg(0, 1e308, "Y"), seg(0, 1e308, "Z")))
        report = der(one, one)
        assert report.total_ref == 1e308 and report.der == 0.0
        with pytest.raises(UndefinedMetricError, match="overflow"):
            merge_der_reports([report, report])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def random_words(rng: np.random.Generator, alphabet_size: int, n: int) -> str:
    return " ".join("abcd"[k] for k in rng.integers(0, alphabet_size, n))


def report_or_error(score, *args):
    try:
        return score(*args).to_dict()
    except UndefinedMetricError as exc:
        return str(exc)


class TestBitParallelWer:
    """`wer` against the former full-matrix DP, report for report."""

    # Hyp lengths on both sides of the 64-bit word boundaries.
    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 127, 128, 129])
    def test_matches_reference_at_word_boundaries(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(60):
            alphabet = int(rng.integers(1, 5))
            ref = random_words(rng, alphabet, int(rng.integers(1, 201)))
            hyp = random_words(rng, alphabet, m)
            assert wer(ref, hyp).to_dict() == wer_reference(ref, hyp).to_dict()

    def test_matches_reference_on_random_lengths(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            alphabet = int(rng.integers(1, 5))
            ref = random_words(rng, alphabet, int(rng.integers(1, 201)))
            hyp = random_words(rng, alphabet, int(rng.integers(0, 201)))
            assert wer(ref, hyp).to_dict() == wer_reference(ref, hyp).to_dict()

    def test_memory_bounded_on_long_transcripts(self):
        rng = np.random.default_rng(12)
        words = [f"w{k}" for k in rng.integers(0, 500, 6000)]
        hyp = list(words)
        for k in rng.choice(6000, 720, replace=False):  # about 12 % edits
            hyp[k] = "x" if k % 3 else ""
        ref_text, hyp_text = " ".join(words), " ".join(hyp)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            report = wer(ref_text, hyp_text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ref_word_count == 6000
        assert report.substitutions + report.deletions + report.insertions >= 480
        # The former int32 distance matrix alone was 6001 × 5761 × 4 bytes (138 MB).
        assert peak < 32 * 2**20


class TestArrayDer:
    """`der` against the former per-interval set loops, float for float."""

    @staticmethod
    def with_self_overlap(rng: np.random.Generator, t: SpeakerTimeline) -> SpeakerTimeline:
        """`t` plus segments overlapping the same speaker's, left unmerged
        (as `SpeakerTimeline(...)` keeps them; `from_segments` would merge)."""
        segments = list(t.segments)
        for _ in range(int(rng.integers(1, 4))):
            base = segments[int(rng.integers(len(segments)))]
            start = round(base.span.start + float(rng.uniform(0.0, 1.0)), 2)
            segments.append(seg(start, round(start + float(rng.uniform(0.2, 3.0)), 2), base.speaker))
        segments.sort(key=lambda s: (s.span.start, s.span.end, s.speaker))
        return SpeakerTimeline(t.recording_id, segments)

    @pytest.mark.parametrize("collar", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("skip_overlap", [False, True])
    def test_matches_reference(self, collar, skip_overlap):
        rng = np.random.default_rng(int(collar * 100) + 2 * skip_overlap)
        for trial in range(60):
            ref = self.with_self_overlap(rng, random_timeline(rng, "r", int(rng.integers(1, 5)), max_end=40.0))
            if trial % 10 == 0:
                hyp = SpeakerTimeline("r", [])
            else:
                hyp = random_timeline(rng, "r", int(rng.integers(1, 6)), max_end=40.0)
                if trial % 2:
                    hyp = self.with_self_overlap(rng, hyp)
            args = (ref, hyp, collar, skip_overlap)
            assert report_or_error(der, *args) == report_or_error(der_reference, *args)

    def test_self_overlap_counts_once(self):
        ref = SpeakerTimeline("r", [seg(0, 10, "A"), seg(2, 6, "A")])
        hyp = SpeakerTimeline("r", [seg(0, 10, "X"), seg(1, 3, "X")])
        assert der(ref, hyp).to_dict() == der_reference(ref, hyp).to_dict()
        assert der(ref, hyp).total_ref == 10.0
        assert der(ref, hyp, skip_overlap=True).total_ref == 10.0

    EDGE_CASES = {
        "no mapped pair": (SpeakerTimeline("r", [seg(0.0, 5.0, "A"), seg(5.0, 7.5, "B")]),
                           SpeakerTimeline("r", [seg(8.0, 9.0, "X")])),
        "negative zero start": (SpeakerTimeline("r", [seg(-0.0, 3.0, "A"), seg(4.0, 6.0, "B")]),
                                SpeakerTimeline("r", [seg(0.0, 2.5, "X"), seg(4.5, 6.0, "Y")])),
        "collar past zero": (SpeakerTimeline("r", [seg(0.2, 2.0, "A"), seg(2.1, 4.0, "B")]),
                             SpeakerTimeline("r", [seg(0.1, 3.0, "X")])),
        "empty hypothesis": (SpeakerTimeline("r", [seg(-0.0, 4.0, "A"), seg(3.0, 6.0, "B")]),
                             SpeakerTimeline("r", [])),
    }

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    @pytest.mark.parametrize("collar", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("skip_overlap", [False, True])
    def test_edge_cases_match_reference(self, case, collar, skip_overlap):
        args = (*self.EDGE_CASES[case], collar, skip_overlap)
        got = report_or_error(der, *args)
        # repr tells -0.0 from 0.0.
        assert repr(got) == repr(report_or_error(der_reference, *args))
        if case in ("no mapped pair", "empty hypothesis"):
            assert got["mapping"] == {}

    def test_collar_covering_everything_is_undefined(self):
        ref = timeline("r", seg(1.0, 1.2, "A"))
        with pytest.raises(UndefinedMetricError):
            der(ref, timeline("r", seg(0, 2, "X")), collar=1.0)
