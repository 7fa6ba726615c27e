from __future__ import annotations

import numpy as np
import pytest

from speechpipe import (
    DecodeConfig,
    EmbeddingSet,
    FormatError,
    ParameterError,
    TimeSpan,
    TranscriptRecord,
    read_embeddings,
    read_embeddings_file,
    read_transcripts_jsonl,
    window_schedule,
    write_embeddings,
    write_embeddings_file,
    write_transcripts_jsonl,
)


def random_embeddings(rng, n=None, d=None, rid="rec1"):
    n = int(rng.integers(0, 40)) if n is None else n
    d = int(rng.integers(1, 64)) if d is None else d
    starts = np.sort(rng.uniform(0, 100, size=n))
    spans = [TimeSpan(round(float(s), 3), round(float(s), 3) + 1.5) for s in starts]
    vectors = rng.normal(size=(n, d)).astype(np.float32)
    return EmbeddingSet(vectors, spans, rid)


class TestWindowSchedule:
    def test_three_windows_fit_exactly(self):
        windows = window_schedule([TimeSpan(0, 3.0)], 1.5, 0.75)
        starts = [w.span.start for w in windows]
        assert starts == [0.0, 0.75, 1.5]
        assert all(not w.short for w in windows)

    def test_short_span_single_flagged_window(self):
        windows = window_schedule([TimeSpan(0, 1.0)], 1.5, 0.75)
        assert len(windows) == 1
        assert windows[0].short
        assert windows[0].span == TimeSpan(0, 1.0)

    def test_empty_input(self):
        assert window_schedule([], 1.5, 0.75) == []

    def test_windows_stay_inside_spans(self):
        rng = np.random.default_rng(1)
        spans = []
        clock = 0.0
        for _ in range(10):
            clock += float(rng.uniform(0.5, 3))
            end = clock + float(rng.uniform(0.5, 8))
            spans.append(TimeSpan(round(clock, 3), round(end, 3)))
            clock = end
        for w in window_schedule(spans, 1.5, 0.75):
            assert any(
                s.start - 1e-9 <= w.span.start and w.span.end <= s.end + 1e-9
                for s in spans
            )

    def test_consecutive_full_windows_differ_by_hop(self):
        windows = window_schedule([TimeSpan(2.0, 12.0)], 1.5, 0.75)
        diffs = {
            round(b.span.start - a.span.start, 9)
            for a, b in zip(windows, windows[1:])
        }
        assert diffs == {0.75}

    def test_invalid_hop(self):
        with pytest.raises(ParameterError):
            window_schedule([TimeSpan(0, 3)], 1.0, 2.0)

    @pytest.mark.parametrize("span, window, hop", [((0.0, 100.0), 1.0, 0.1), ((3.7, 250.0), 1.5, 0.3)])
    def test_starts_do_not_drift(self, span, window, hop):
        windows = window_schedule([TimeSpan(*span)], window, hop)
        starts = [w.span.start for w in windows]
        assert starts == [span[0] + i * hop for i in range(len(starts))]
        if span == (0.0, 100.0):
            assert len(starts) == 991 and starts[500] == 50.0 and starts[-1] == 99.0


class TestEmbeddingContainer:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            emb = random_embeddings(rng)
            back = read_embeddings(write_embeddings(emb))
            assert back.recording_id == emb.recording_id
            assert np.array_equal(back.vectors, emb.vectors)
            assert back.spans == emb.spans

    def test_byte_stable(self):
        rng = np.random.default_rng(3)
        emb = random_embeddings(rng, n=17, d=8)
        data = write_embeddings(emb)
        assert write_embeddings(read_embeddings(data)) == data

    def test_empty_container(self):
        emb = EmbeddingSet(np.empty((0, 0), dtype=np.float32), [], "empty")
        back = read_embeddings(write_embeddings(emb))
        assert len(back) == 0
        assert back.recording_id == "empty"

    def test_truncation_names_offset(self):
        rng = np.random.default_rng(4)
        data = write_embeddings(random_embeddings(rng, n=5, d=4))
        with pytest.raises(FormatError, match="offset"):
            read_embeddings(data[:-1])

    def test_bad_magic(self):
        rng = np.random.default_rng(5)
        data = bytearray(write_embeddings(random_embeddings(rng, n=2, d=2)))
        data[:4] = b"NOPE"
        with pytest.raises(FormatError, match="magic"):
            read_embeddings(bytes(data))

    def test_trailing_garbage_rejected(self):
        rng = np.random.default_rng(6)
        data = write_embeddings(random_embeddings(rng, n=2, d=2))
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(data + b"\x00")

    def test_non_utf8_recording_id_names_offset(self):
        data = bytearray(write_embeddings(EmbeddingSet(np.zeros((1, 2), dtype=np.float32), [TimeSpan(0, 1)], "ab")))
        id_at = len(data) - 2
        data[id_at + 1] = 0xFF
        with pytest.raises(FormatError, match=f"UTF-8.*byte offset {id_at + 1}"):
            read_embeddings(bytes(data))

    def test_unsorted_spans_rejected(self):
        vectors = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(Exception):
            EmbeddingSet(vectors, [TimeSpan(5, 6), TimeSpan(0, 1)], "r")

    def test_file_round_trip_atomic(self, tmp_path):
        rng = np.random.default_rng(7)
        emb = random_embeddings(rng, n=9, d=16)
        path = tmp_path / "e.emb"
        write_embeddings_file(path, emb)
        back = read_embeddings_file(path)
        assert np.array_equal(back.vectors, emb.vectors)
        assert list(tmp_path.iterdir()) == [path]  # no temp litter


class TestTranscripts:
    def test_single_record(self):
        records = read_transcripts_jsonl('{"id":"rec1","start":0,"end":26,"text":"hello"}\n')
        assert records == [TranscriptRecord("rec1", TimeSpan(0, 26), "hello")]

    def test_empty_file(self):
        assert read_transcripts_jsonl("") == []

    def test_out_of_order_lines_sorted(self):
        text = (
            '{"id":"b","start":0,"end":1,"text":"x"}\n'
            '{"id":"a","start":5,"end":6,"text":"y"}\n'
            '{"id":"a","start":0,"end":1,"text":"z"}\n'
        )
        records = read_transcripts_jsonl(text)
        assert [(r.recording_id, r.chunk_span.start) for r in records] == [
            ("a", 0), ("a", 5), ("b", 0)
        ]

    def test_malformed_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            read_transcripts_jsonl('{"id":"a","start":0,"end":1,"text":"x"}\n{bad\n')

    def test_missing_key(self):
        with pytest.raises(FormatError, match="keys"):
            read_transcripts_jsonl('{"id":"a","start":0,"end":1}\n')

    def test_round_trip_and_stability(self):
        rng = np.random.default_rng(8)
        records = [
            TranscriptRecord(
                f"rec{rng.integers(0, 3)}",
                TimeSpan(round(float(s), 3), round(float(s), 3) + 2.0),
                "কথা " * int(rng.integers(1, 5)),
            )
            for s in rng.uniform(0, 50, size=12)
        ]
        text = write_transcripts_jsonl(records)
        back = read_transcripts_jsonl(text)
        assert write_transcripts_jsonl(back) == text
        assert sorted(r.recording_id for r in back) == sorted(r.recording_id for r in records)


class TestDecodeConfig:
    def test_defaults_follow_best_run(self):
        cfg = DecodeConfig()
        assert cfg.beams == 5
        assert cfg.repetition_penalty == 0.8
        assert cfg.no_repeat_ngram == 0

    def test_json_round_trip(self):
        cfg = DecodeConfig(beams=3, do_sample=True, temperature=0.7)
        assert DecodeConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown"):
            DecodeConfig.from_json('{"beams": 5, "width": 2}')

    def test_sampling_needs_positive_temperature(self):
        with pytest.raises(ParameterError):
            DecodeConfig(do_sample=True, temperature=0.0)

    def test_beams_lower_bound(self):
        with pytest.raises(ParameterError):
            DecodeConfig(beams=0)

    def test_malformed_json_located(self):
        with pytest.raises(FormatError, match=r"line 2: .*column 14"):
            DecodeConfig.from_json('{"beams": 5,\n "do_sample" true}')

    @pytest.mark.parametrize(
        "doc",
        ['{"beams": "5"}', '{"beams": 5.0}', '{"beams": true}',
         '{"do_sample": "no"}', '{"do_sample": 1}', '{"temperature": null}'],
    )
    def test_wrongly_typed_value_rejected(self, doc):
        with pytest.raises(ParameterError, match="decode-config"):
            DecodeConfig.from_json(doc)

    def test_int_accepted_for_float_field(self):
        assert DecodeConfig.from_json('{"temperature": 1}').temperature == 1
