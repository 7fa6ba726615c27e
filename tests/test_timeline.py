from __future__ import annotations

import numpy as np
import pytest

from speechpipe import (
    FormatError,
    ParameterError,
    SpeakerSegment,
    SpeakerTimeline,
    StructuralError,
    TimeSpan,
    merge_adjacent_windows,
    parse_rttm,
    suppress_gaps,
    write_rttm,
)
from speechpipe.timeline import timelines_from_rows
from synth import merge_adjacent_windows_reference, parse_rttm_reference


def seg(a, b, spk):
    return SpeakerSegment(TimeSpan(a, b), spk)


class TestParseRttm:
    def test_single_record(self):
        text = "SPEAKER rec1 1 0.50 2.00 <NA> <NA> A <NA> <NA>\n"
        timelines = parse_rttm(text)
        assert len(timelines) == 1
        t = timelines[0]
        assert t.recording_id == "rec1"
        assert t.segments == [seg(0.5, 2.5, "A")]

    def test_empty_input(self):
        assert parse_rttm("") == []

    def test_two_files_interleaved(self):
        text = (
            "SPEAKER a 1 5.0 1.0 <NA> <NA> X <NA> <NA>\n"
            "SPEAKER b 1 0.0 1.0 <NA> <NA> Y <NA> <NA>\n"
            "SPEAKER a 1 1.0 1.0 <NA> <NA> X <NA> <NA>\n"
        )
        timelines = parse_rttm(text)
        assert [t.recording_id for t in timelines] == ["a", "b"]
        assert timelines[0].segments == [seg(1.0, 2.0, "X"), seg(5.0, 6.0, "X")]

    def test_bad_field_count(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_rttm("SPEAKER rec1 1 0.5 2.0 <NA> A <NA>\n")

    def test_non_numeric_time(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_rttm(
                "SPEAKER rec1 1 0.5 2.0 <NA> <NA> A <NA> <NA>\n"
                "SPEAKER rec1 1 x 2.0 <NA> <NA> A <NA> <NA>\n"
            )

    def test_unknown_record_type(self):
        with pytest.raises(FormatError, match="record type"):
            parse_rttm("SPKR-INFO rec1 1 <NA> <NA> <NA> unknown A <NA> <NA>\n")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_format_line_ends_only(self, sep):
        """Other `str.splitlines` breaks separate fields; they end no line."""
        record = "SPEAKER rec1 1 0.5 2.0 <NA> <NA> A <NA> <NA>"
        assert parse_rttm(record + sep + "\n") == parse_rttm(record + "\n")
        with pytest.raises(FormatError, match="^line 1: expected 10 fields, got 20"):
            parse_rttm(record + sep + record + "\n")
        with pytest.raises(FormatError, match="^line 2: unsupported record type"):
            parse_rttm(record + sep + "\nLEXEME rec1 1 0.5 2.0 <NA> <NA> A <NA> <NA>\n")

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, eol):
        record = "SPEAKER rec1 1 0.5 2.0 <NA> <NA> A <NA> <NA>"
        assert parse_rttm(record + eol + eol + record + eol) == parse_rttm(record + "\n")
        with pytest.raises(FormatError, match="^line 3: unsupported"):
            parse_rttm(record + eol + eol + "LEXEME" + eol)


class TestWriteRttm:
    def test_round_trip(self):
        t = SpeakerTimeline.from_segments(
            "rec1", [seg(0.5, 2.5, "A"), seg(2.0, 4.0, "B")]
        )
        assert parse_rttm(write_rttm([t])) == [t]

    def test_millisecond_rounding(self):
        t = SpeakerTimeline("rec1", [seg(0.0, 0.0014, "A")])
        line = write_rttm([t]).splitlines()[0]
        assert line.split()[4] == "0.001"

    def test_empty_timeline(self):
        assert write_rttm([SpeakerTimeline("rec1", [])]) == ""

    def test_byte_stable(self):
        rng = np.random.default_rng(2)
        segs = [
            seg(round(float(a), 3), round(float(a) + round(float(d), 3) + 0.001, 3), f"S{i % 3}")
            for i, (a, d) in enumerate(zip(rng.uniform(0, 50, 20), rng.uniform(0.1, 5, 20)))
        ]
        t = SpeakerTimeline.from_segments("r", segs)
        once = write_rttm([t])
        again = write_rttm(parse_rttm(once))
        assert once == again


class TestNormalization:
    def test_same_speaker_overlap_merged(self):
        t = SpeakerTimeline.from_segments("r", [seg(0, 5, "A"), seg(4, 8, "A")])
        assert t.segments == [seg(0, 8, "A")]

    def test_same_speaker_adjacent_merged(self):
        t = SpeakerTimeline.from_segments("r", [seg(0, 5, "A"), seg(5, 8, "A")])
        assert t.segments == [seg(0, 8, "A")]

    def test_different_speakers_may_overlap(self):
        t = SpeakerTimeline.from_segments("r", [seg(0, 5, "A"), seg(3, 8, "B")])
        assert len(t.segments) == 2

    def test_sorted_by_start_end_speaker(self):
        t = SpeakerTimeline.from_segments(
            "r", [seg(3, 8, "B"), seg(0, 5, "A"), seg(3, 6, "C")]
        )
        keys = [(s.span.start, s.span.end, s.speaker) for s in t.segments]
        assert keys == sorted(keys)


class TestSpeakerLabel:
    def test_refuses_exactly_empty_and_whitespace_labels(self):
        """Every code point inside a label: refused exactly when `str.isspace`."""
        span = TimeSpan(0, 1)
        for label in ("", " A", "A ", "\u3000"):
            with pytest.raises(ParameterError):
                SpeakerSegment(span, label)
        for cp in range(0x110000):
            ch = chr(cp)
            try:
                SpeakerSegment(span, "A" + ch + "B")
            except ParameterError:
                assert ch.isspace(), hex(cp)
            else:
                assert not ch.isspace(), hex(cp)

    def test_timelines_from_rows_first_bad_row_raises(self):
        rows = [
            ("r1", TimeSpan(0, 1), "A"),
            ("r2", TimeSpan(5, 6), "X\u2003Y"),
            ("r1", TimeSpan(0, 2), ""),
        ]
        with pytest.raises(ParameterError) as err:
            timelines_from_rows(rows)
        assert str(err.value) == "speaker label must be non-empty without whitespace: 'X\\u2003Y'"
        with pytest.raises(ParameterError) as err:
            timelines_from_rows(rows[:1] + rows[2:])
        assert str(err.value) == "speaker label must be non-empty without whitespace: ''"

    def test_merge_adjacent_windows_refuses_whitespace_label(self):
        with pytest.raises(ParameterError, match="without whitespace: 'a b'"):
            merge_adjacent_windows([TimeSpan(0, 1.5)], ["a b"])


class TestSuppressGaps:
    def test_short_gap_merged(self):
        t = SpeakerTimeline.from_segments("r", [seg(0, 5, "A"), seg(5.05, 10, "A")])
        out = suppress_gaps(t, 0.1)
        assert out.segments == [seg(0, 10, "A")]

    def test_different_speakers_never_merged(self):
        t = SpeakerTimeline.from_segments("r", [seg(0, 5, "A"), seg(5.05, 10, "B")])
        assert suppress_gaps(t, 0.1).segments == t.segments

    def test_zero_threshold_is_identity(self):
        t = SpeakerTimeline.from_segments(
            "r", [seg(0, 5, "A"), seg(5.05, 10, "A"), seg(11, 12, "B")]
        )
        assert suppress_gaps(t, 0.0).segments == t.segments

    def test_nan_threshold_rejected(self):
        t = SpeakerTimeline.from_segments("r", [seg(0, 5, "A"), seg(5.05, 10, "A")])
        with pytest.raises(ParameterError, match="min_duration_off must be >= 0, got nan"):
            suppress_gaps(t, float("nan"))

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        segs = []
        for s in range(3):
            clock = 0.0
            for _ in range(10):
                start = clock + float(rng.uniform(0.01, 0.5))
                end = start + float(rng.uniform(0.2, 2.0))
                segs.append(seg(round(start, 3), round(end, 3), f"S{s}"))
                clock = end
        t = SpeakerTimeline.from_segments("r", segs)
        once = suppress_gaps(t, 0.15)
        twice = suppress_gaps(once, 0.15)
        assert once.segments == twice.segments

    def test_duration_accounting(self):
        t = SpeakerTimeline.from_segments(
            "r", [seg(0, 5, "A"), seg(5.05, 10, "A"), seg(10.5, 12, "A")]
        )
        out = suppress_gaps(t, 0.1)
        # Every segment is speaker A's.
        before = sum(s.span.duration for s in t.segments)
        after = sum(s.span.duration for s in out.segments)
        assert after == pytest.approx(before + 0.05)


class TestMergeAdjacentWindows:
    def test_midpoint_boundary_at_label_change(self):
        windows = [TimeSpan(s, s + 1.5) for s in (0, 0.75, 1.5, 2.25, 3.0)]
        t = merge_adjacent_windows(windows, [1, 1, 2, 2, 2], "r")
        assert t.segments == [seg(0, 1.875, "1"), seg(1.875, 4.5, "2")]

    def test_all_labels_identical(self):
        windows = [TimeSpan(s, s + 1.5) for s in (0, 0.75, 1.5)]
        t = merge_adjacent_windows(windows, ["A"] * 3, "r")
        assert t.segments == [seg(0, 3.0, "A")]

    def test_disjoint_windows_alternating(self):
        windows = [TimeSpan(0, 1), TimeSpan(2, 3), TimeSpan(4, 5)]
        t = merge_adjacent_windows(windows, ["A", "B", "A"], "r")
        assert t.segments == [seg(0, 1, "A"), seg(2, 3, "B"), seg(4, 5, "A")]

    def test_tiling_windows_cover_full_extent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            windows = [TimeSpan(0.75 * i, 0.75 * i + 1.5) for i in range(n)]
            labels = rng.integers(0, 3, size=n).tolist()
            t = merge_adjacent_windows(windows, labels, "r")
            assert t.segments[0].span.start == 0.0
            assert t.segments[-1].span.end == windows[-1].end
            for prev, cur in zip(t.segments, t.segments[1:]):
                assert cur.span.start == pytest.approx(prev.span.end)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            merge_adjacent_windows([TimeSpan(0, 1)], ["A", "B"], "r")

    def test_run_inside_previous_boundary_dropped(self):
        # The long first window puts the boundary at 5.5, after the end of "b".
        windows = [TimeSpan(0, 10), TimeSpan(1, 2), TimeSpan(3, 8)]
        t = merge_adjacent_windows(windows, ["a", "b", "c"], "r")
        assert t.segments == [seg(0, 5.5, "a"), seg(5.5, 8, "c")]
        assert merge_adjacent_windows_reference(windows, ["a", "b", "c"], "r") == (t, 1)

    def test_equals_former_two_pass_merge(self):
        rng = np.random.default_rng(5)
        dropped = 0
        for case in range(3000):
            n = int(rng.integers(0, 25))
            starts = np.cumsum(rng.choice([0.0, 0.25, 0.75, 1.0, rng.uniform(0, 2)], size=n))
            # Mixed lengths: mostly 1.5 s windows, some short, some long.
            lengths = rng.choice([1.5, 0.2, 6.0, rng.uniform(0.05, 4)], size=n, p=[0.6, 0.15, 0.1, 0.15])
            windows = [TimeSpan(float(a), float(a + b)) for a, b in zip(starts, lengths)]
            labels = rng.integers(0, int(rng.integers(1, 4)), size=n).tolist()
            if case % 2:
                labels = [f"SPK_{v:02d}" for v in labels]
            want, lost = merge_adjacent_windows_reference(windows, labels, "r")
            assert merge_adjacent_windows(windows, labels, "r") == want
            dropped += lost
        assert dropped > 0


class TestParseRttmEqualsFormer:
    def test_seeded_documents(self):
        """Interleaved files, blank lines, zero durations and same-speaker overlap and adjacency."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            lines = []
            for _ in range(int(rng.integers(0, 40))):
                if rng.random() < 0.1:
                    lines.append(rng.choice(["", "  ", "\t"]))
                    continue
                onset = round(float(rng.choice([rng.uniform(0, 60), rng.integers(0, 60)])), 3)
                duration = round(float(rng.choice([0.0, rng.uniform(0.001, 8), rng.integers(1, 4)])), 3)
                lines.append(f"SPEAKER f{rng.integers(3)} 1 {onset:.3f} {duration:.3f} <NA> <NA> "
                             f"S{rng.integers(4)} <NA> <NA>")
            text = "\n".join(lines)
            assert parse_rttm(text) == parse_rttm_reference(text)
