from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from speechpipe import (
    FormatError,
    RepairReport,
    classify_rows,
    format_seconds,
    parse_segments_csv,
    repair_rows,
    parse_rttm,
    rows_to_csv,
    write_rttm,
    write_segments_csv,
)
from synth import clean_rows, corrupt_row, parse_segments_csv_reference, repair_rows_reference

HEADER = "id,start,end,speaker"


def as_csv(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestStrictMode:
    def test_clean_file_all_ok(self):
        rows = clean_rows(50, seed=1)
        outcomes, report = repair_rows(as_csv(rows), strict=True)
        assert report.parsed_ok == 50
        assert report.repaired == report.dropped == 0

    def test_malformed_row_raises_with_line(self):
        text = as_csv(["rec1,0.0,5.0,A", "rec1, 1.0 ,2.0,B"])
        with pytest.raises(FormatError, match="line 3"):
            parse_segments_csv(text, strict=True)

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_segments_csv("a,b,c,d\n", strict=True)


class TestRepairRules:
    def test_trim_whitespace(self):
        timelines, report = parse_segments_csv(as_csv(["rec1, 0.0 , 5.2 ,SPK_1"]))
        assert report.repaired == 1
        assert report.rules_fired == {"trim-whitespace": 1}
        assert timelines[0].segments[0].span.end == 5.2

    def test_swapped_times(self):
        timelines, report = parse_segments_csv(as_csv(["rec1,5.2,0.0,SPK_1"]))
        assert report.rules_fired == {"swap-times": 1}
        span = timelines[0].segments[0].span
        assert (span.start, span.end) == (0.0, 5.2)

    def test_decimal_comma(self):
        timelines, report = parse_segments_csv(as_csv(["rec1,0,5,12,3,SPK_1"]))
        assert report.rules_fired == {"decimal-comma": 1}
        span = timelines[0].segments[0].span
        assert (span.start, span.end) == (0.5, 12.3)

    def test_wrapping_quotes(self):
        timelines, report = parse_segments_csv(as_csv(['rec1,"0.5","5.2",SPK_1']))
        assert report.rules_fired == {"strip-quotes": 1}
        assert timelines[0].segments[0].span.start == 0.5

    def test_duplicate_delimiters(self):
        timelines, report = parse_segments_csv(as_csv(["rec1,,0.5,5.2,SPK_1"]))
        assert report.rules_fired == {"collapse-delimiters": 1}
        assert timelines[0].segments[0].span.start == 0.5

    def test_duplicate_delimiter_with_integer_times(self):
        # The delimiter fix must win here, not a bogus decimal-comma merge.
        timelines, report = parse_segments_csv(as_csv(["rec1,,5,10,SPK_1"]))
        assert report.repaired == 1
        span = timelines[0].segments[0].span
        assert (span.start, span.end) == (5.0, 10.0)

    def test_compound_delimiter_then_swap(self):
        timelines, report = parse_segments_csv(as_csv(["rec1,,5.2,0.0,SPK_1"]))
        assert report.repaired == 1
        span = timelines[0].segments[0].span
        assert (span.start, span.end) == (0.0, 5.2)

    def test_unrecoverable_dropped(self):
        _, report = parse_segments_csv(as_csv(["rec1,abc,def,SPK_1"]))
        assert report.dropped == 1
        assert report.rules_fired == {}

    def test_report_accounting(self):
        rows = ["rec1,0.0,5.0,A", "rec1, 1.0 ,2.0,B", "rec1,x,y,C"]
        _, report = parse_segments_csv(as_csv(rows))
        assert report.total_lines == 3
        assert (report.parsed_ok, report.repaired, report.dropped) == (1, 1, 1)

    def test_strict_acceptable_rows_never_altered(self):
        # Quotes are legal label characters; a strict-valid row keeps them.
        rows = ['rec1,0.0,5.0,"A"']
        outcomes, report = repair_rows(as_csv(rows))
        assert report.parsed_ok == 1
        assert outcomes[0].record == ("rec1", 0.0, 5.0, '"A"')
        assert rows_to_csv(outcomes).splitlines()[1] == rows[0]


class TestCorruptionCorpus:
    def test_every_single_corruption_recovers(self):
        rng = np.random.default_rng(33)
        originals = clean_rows(300, seed=7)
        corrupted, names = [], []
        for row in originals:
            name, bad = corrupt_row(row, rng)
            corrupted.append(bad)
            names.append(name)
        outcomes, report = repair_rows(as_csv(corrupted))
        assert report.parsed_ok == 0  # every corruption defeats strict parsing
        recovered = rows_to_csv(outcomes).splitlines()[1:]
        misses = [
            (names[i], originals[i], corrupted[i])
            for i, row in enumerate(recovered)
            if row != originals[i]
        ]
        assert not misses, misses[:5]

    def test_strict_rejects_all_corrupted(self):
        rng = np.random.default_rng(5)
        originals = clean_rows(200, seed=8)
        corrupted = [corrupt_row(row, rng)[1] for row in originals]
        _, report = repair_rows(as_csv(corrupted), strict=True)
        assert report.parsed_ok == 0
        assert report.dropped == 200


class TestWriters:
    def test_format_seconds(self):
        assert format_seconds(5.2) == "5.2"
        assert format_seconds(5.0) == "5"
        assert format_seconds(0.001) == "0.001"
        assert format_seconds(12.345) == "12.345"

    def test_csv_round_trip(self):
        rows = clean_rows(40, seed=3)
        timelines, _ = parse_segments_csv(as_csv(rows))
        text = write_segments_csv(timelines)
        timelines2, report = parse_segments_csv(text)
        assert report.parsed_ok == report.total_lines
        assert write_segments_csv(timelines2) == text
        assert [t.segments for t in timelines2] == [t.segments for t in timelines]


def mixed_csv(seed: int) -> str:
    """Clean, corrupted and doubly corrupted rows, blank lines, rows dropped
    after a rule fired, rows no rule touches, and rows of one id apart."""
    rng = np.random.default_rng(seed)
    rows = []
    for row in clean_rows(300, seed):
        kind = int(rng.integers(7))
        if kind == 1:
            row = corrupt_row(row, rng)[1]
        elif kind == 2:
            row = corrupt_row(corrupt_row(row, rng)[1], rng)[1]
        elif kind == 3:
            row = rng.choice(["", "   ", "\t"])
        elif kind == 4:
            row = row.replace(",", " , ", 1).replace(".", "x", 1)  # trimmed, still dropped
        elif kind == 5:
            row = rng.choice(["rec1,abc,def,SPK_1", "rec2,1,2", "rec3,,,", "rec4,5,5,A"])
        rows.append(row)
    return as_csv(rows)


class TestEqualsFormerParsers:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strict", [False, True])
    def test_repair_rows(self, seed, strict):
        text = mixed_csv(seed)
        outcomes, report = repair_rows(text, strict=strict)
        want_outcomes, want_report = repair_rows_reference(text, strict=strict)
        assert outcomes == want_outcomes
        assert report.to_dict() == want_report.to_dict()
        assert report.dropped and (strict or report.repaired and report.rules_fired)
        assert strict or any(o.rules for o in outcomes if o.status == "dropped")

    @pytest.mark.parametrize("seed", range(4))
    def test_parse_segments_csv(self, seed):
        text = mixed_csv(seed)
        timelines, report = parse_segments_csv(text)
        want_timelines, want_report = parse_segments_csv_reference(text)
        assert timelines == want_timelines
        assert report.to_dict() == want_report.to_dict()
        with pytest.raises(FormatError) as got:
            parse_segments_csv(text, strict=True)
        with pytest.raises(FormatError) as want:
            parse_segments_csv_reference(text, strict=True)
        assert str(got.value) == str(want.value)

    def test_parse_segments_csv_strict_clean(self):
        text = as_csv(clean_rows(200, seed=11))
        assert parse_segments_csv(text, strict=True) == parse_segments_csv_reference(text, strict=True)


class TestClassifyRows:
    """`classify_rows` is the one classification loop: `repair_rows` is its
    list, and its report counts each outcome by the time it is yielded."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_report_tallied_as_outcomes_pass(self, strict):
        text = mixed_csv(1)
        want_outcomes, want_report = repair_rows(text, strict=strict)
        report = RepairReport()
        for n, outcome in enumerate(classify_rows(text, report, strict), start=1):
            assert outcome == want_outcomes[n - 1]
            assert report.total_lines == n
            assert report.parsed_ok + report.repaired + report.dropped == n
        assert report == want_report

    def test_header_checked_at_first_step(self):
        rows = classify_rows("a,b,c,d\n", RepairReport())
        with pytest.raises(FormatError, match="line 1: expected header"):
            next(rows)


EDGE_ROWS = {
    "unicode_digits": "rec1,\u0661\u0662,\u0661\u0663,A",
    "nbsp_in_id": "rec\u00a01,0,1,A",
    "em_space_in_label": "rec1,0,1,A\u2003B",
    "ideographic_space_label": "rec1,0,1,\u3000A",
    "ideographic_space_id": "\u3000rec1,0,1,A",
    "unit_separator_in_label": "rec1,0,1,A\x1fB",
    "huge_end": "rec1,0," + "9" * 400 + ",A",
    "huge_start_and_end": "rec1," + "9" * 400 + "," + "9" * 401 + ",A",
    "start_equals_end": "rec1,5,5,A",
    "trailing_point": "rec1,1.,2,A",
    "leading_point": "rec1,.5,2,A",
    "plus_sign": "rec1,+1,2,A",
    "three_fields": "rec1,1,2",
    "five_fields": "rec1,1,2,A,B",
    "five_fields_decimal_comma": "rec1,1,2,3,A",
    "quoted_id": '"rec1",1,2,A',
    "next_line_in_label": "rec1,0,1,A\x85B",
    "line_separator_in_label": "rec1,0,1,A\u2028B",
    "paragraph_separator_in_id": "rec\u20291,0,1,A",
    "form_feed_in_label": "rec1,0,1,A\x0cB",
    "record_separator_in_label": "rec1,0,1,A\x1eB",
}


class TestCanonicalPattern:
    """Rows at the edge of the canonical pattern give what the former
    token-by-token checks gave, in both modes."""

    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    @pytest.mark.parametrize("strict", [False, True])
    def test_equals_token_checks(self, name, strict):
        text = as_csv(["rec0,0,1,Z", EDGE_ROWS[name], "rec0,2,3,Z"])
        outcomes, report = repair_rows(text, strict=strict)
        want_outcomes, want_report = repair_rows_reference(text, strict=strict)
        assert outcomes == want_outcomes
        assert report.to_dict() == want_report.to_dict()
        assert rows_to_csv(outcomes) == rows_to_csv(want_outcomes)

    def test_unicode_digits_are_canonical(self):
        (outcome,), _ = repair_rows(as_csv([EDGE_ROWS["unicode_digits"]]), strict=True)
        assert outcome.status == "ok" and outcome.record == ("rec1", 12.0, 13.0, "A")

    @pytest.mark.parametrize("name", ["huge_end", "huge_start_and_end"])
    def test_infinite_end_dropped(self, name):
        row = EDGE_ROWS[name]
        for strict in (False, True):
            (outcome,), _ = repair_rows(as_csv([row]), strict=strict)
            assert outcome.status == "dropped" and outcome.record is None
            assert outcome.diagnosis.startswith("bad end time")

    def test_start_equal_end_dropped(self):
        (outcome,), _ = repair_rows(as_csv([EDGE_ROWS["start_equals_end"]]), strict=True)
        assert outcome.diagnosis == "start 5 not before end 5"

    def test_quoted_id_stays_ok_with_raw_text(self):
        row = EDGE_ROWS["quoted_id"]
        (outcome,), _ = repair_rows(as_csv([row]))
        assert outcome.status == "ok" and outcome.raw == row and outcome.record == ('"rec1"', 1.0, 2.0, "A")
        assert rows_to_csv([outcome]) == as_csv([row])


class TestLineEnds:
    """A row ends at `\\n`, `\\r\\n` or a lone `\\r` only; the other
    breaks `str.splitlines` knows are row content."""

    def test_next_line_is_row_content(self):
        outcomes, report = repair_rows(as_csv(["rec1,0,1,A\x85B", "rec1,2,3,C"]))
        assert [(o.line_no, o.status) for o in outcomes] == [(2, "dropped"), (3, "ok")]
        assert outcomes[0].diagnosis == "bad speaker 'A\\x85B'"
        assert report.total_lines == 2

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_rows_keep_their_file_lines(self, sep):
        text = as_csv(["rec1,0,1,A" + sep, "rec1,2,3,C", "rec1,x,4,C"])
        outcomes, _ = repair_rows(text)
        assert [(o.line_no, o.status) for o in outcomes] == [(2, "repaired"), (3, "ok"), (4, "dropped")]
        assert outcomes[0].rules == ["trim-whitespace"]
        with pytest.raises(FormatError, match="^line 2: bad speaker"):
            parse_segments_csv(text, strict=True)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_format_line_ends(self, eol):
        text = eol.join([HEADER, "rec1,0,1,A", "", "rec1,2,3,B"]) + eol
        outcomes, _ = repair_rows(text, strict=True)
        assert [(o.line_no, o.raw) for o in outcomes] == [(2, "rec1,0,1,A"), (4, "rec1,2,3,B")]


def rttm_text(rows: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return "".join(
        f"SPEAKER f{rng.integers(4)} 1 {rng.uniform(0, 3600):.3f} {rng.uniform(0.1, 8):.3f} "
        f"<NA> <NA> S{rng.integers(6)} <NA> <NA>\n"
        for _ in range(rows)
    )


def parse_all(clean: str, dirty: str, rttm: str):
    return (
        parse_segments_csv(clean, strict=True),
        parse_segments_csv(dirty),
        repair_rows(dirty),
        repair_rows(dirty, strict=True),
        parse_rttm(rttm),
    )


class TestGcPause:
    """The parsers leave the cyclic collector's switch as they found it, and
    what they build holds no reference cycle, so `cli.main` may hold the
    collector off around a command."""

    CLEAN = as_csv(clean_rows(3000, seed=4))
    DIRTY = HEADER + "\n" + "".join(mixed_csv(seed)[len(HEADER) + 1:] for seed in range(8))
    RTTM = rttm_text(3000, seed=4)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_kept(self, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            parse_all(self.CLEAN, self.DIRTY, self.RTTM)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_state_restored_after_error(self):
        bad_rttm = self.RTTM + "SPEAKER f1 1 x 1.0 <NA> <NA> A <NA> <NA>\n" + self.RTTM
        with pytest.raises(FormatError, match="line 3001: non-numeric onset"):
            parse_rttm(bad_rttm)
        assert gc.isenabled()

    def test_threads_parse_at_once(self):
        want = parse_all(self.CLEAN, self.DIRTY, self.RTTM)
        start = threading.Barrier(2, timeout=10)
        got = [None, None]

        def parse(i):
            start.wait()
            got[i] = parse_all(self.CLEAN, self.DIRTY, self.RTTM)

        threads = [threading.Thread(target=parse, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == [want, want]
        assert gc.isenabled()

    def test_parsed_rows_hold_no_cycles(self):
        """The pause's premise: what the parsers build is freed by reference
        counting alone."""
        assert write_rttm(parse_rttm(self.RTTM))  # every lazy import done
        gc.collect()
        results = parse_all(self.CLEAN, self.DIRTY, self.RTTM)
        assert len(results[2][0]) > 2000
        del results
        assert gc.collect() == 0
