"""Property tests of the parsers: no input lets an exception other than a
PipelineError escape, and the RTTM and segments-CSV parsers give finite
times only, or an error that names its line.

Each parser gets valid documents with random byte or token damage and
documents built from values at its format's edges (NaN, infinities, huge
integers, wrong JSON types). The streamed `load_mono` is checked against
`read_wav` on the same damaged WAVs. One more test checks the bit-parallel `wer`
against the former full-matrix DP on tie-dense token lists. The runs are
derandomized, so they are the same on every machine, and small enough to
keep the module at a few seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speechpipe import (
    DecodeConfig,
    EmbeddingSet,
    PipelineError,
    TimeSpan,
    downmix_mono,
    load_mono,
    parse_rttm,
    parse_segments_csv,
    read_embeddings,
    read_transcripts_jsonl,
    read_wav,
    wav_bytes,
    wer,
    write_embeddings,
)
from speechpipe.cli import OPTIONS, PipelineConfig, load_pipeline_config
from synth import wer_reference

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

HUGE_INT = 10**400            # beyond float range
OVERLONG_INT = "9" * 5000     # beyond Python's default int-parsing digit limit

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
EDGE_INTS = st.sampled_from([0, 1, 2, 3, 16, 32, 40, 0x7FFF, 0xFFFE, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF])


def rejects_only_with_pipeline_error(parse, *args) -> None:
    try:
        parse(*args)
    except PipelineError:
        pass


@st.composite
def damaged(draw, seeds: list[bytes]) -> bytes:
    """One of `seeds` with bytes and little-endian u32 fields overwritten, then
    maybe cut short or extended."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            data[at] = draw(st.integers(0, 255))
        else:
            data[at:at + 4] = struct.pack("<I", draw(EDGE_INTS))
    cut = draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))
    return bytes(data[:cut]) + draw(st.binary(max_size=8))


def tokens_line(tokens, separators):
    return st.tuples(st.lists(tokens, max_size=11), st.sampled_from(separators)).map(lambda ts: ts[1].join(ts[0]))


_WAV_SEEDS = [
    wav_bytes([np.linspace(-1, 1, 16, dtype=np.float32)], 16000, "pcm16"),
    wav_bytes([np.zeros(6, np.float32), np.ones(6, np.float32)], 8000, "float32"),
]
_EMB_SEEDS = [
    write_embeddings(EmbeddingSet(np.eye(3, 2, dtype=np.float32), [TimeSpan(i, i + 1.5) for i in range(3)], "r1")),
    write_embeddings(EmbeddingSet(np.zeros((0, 4), np.float32), [], "")),
]
_TIME_TOKENS = ["0", "0.5", "1.250", "-1", "nan", "inf", "-inf", "1e309", str(HUGE_INT)]
_RTTM_TOKENS = st.sampled_from(["SPEAKER", "LEXEME", "f1", "1", "<NA>", "spk", *_TIME_TOKENS]) | st.text(max_size=4)
_CSV_TOKENS = st.sampled_from(["rec", "spk", '"1.5"', " 2 ", "3,5", "", *_TIME_TOKENS]) | st.text(max_size=4)


@FUZZ
@given(damaged(_WAV_SEEDS))
def test_read_wav(data):
    rejects_only_with_pipeline_error(read_wav, data)


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.wav"


@FUZZ
@given(data=damaged(_WAV_SEEDS))
def test_load_mono_streams_what_read_wav_decodes(wav_path, data):
    """The streamed reader rejects exactly what the whole-file path rejects, with
    its message, and otherwise gives the downmix of its channels byte for byte."""
    wav_path.write_bytes(data)
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite float32 samples
            want = downmix_mono(*read_wav(data))
    except PipelineError as exc:
        with pytest.raises(PipelineError) as got:
            load_mono(wav_path)
        assert str(got.value) == str(exc)
        return
    got = load_mono(wav_path)
    assert got.sample_rate == want.sample_rate
    assert got.samples.tobytes() == want.samples.tobytes()


@FUZZ
@given(damaged(_EMB_SEEDS))
def test_read_embeddings(data):
    rejects_only_with_pipeline_error(read_embeddings, data)


def finite_times_or_error_at_a_line(timelines) -> None:
    """An annotation parser's result has finite times only; its errors name a line."""
    try:
        spans = [seg.span for timeline in timelines() for seg in timeline.segments]
    except PipelineError as exc:
        assert getattr(exc, "line", None) is not None, exc
        return
    assert all(math.isfinite(span.start) and math.isfinite(span.end) for span in spans)


@FUZZ
@given(st.lists(tokens_line(_RTTM_TOKENS, [" ", "\t"]), max_size=6).map("\n".join))
@example("SPEAKER f1 1 0 inf <NA> <NA> spk <NA> <NA>")
@example("SPEAKER f1 1 nan 1 <NA> <NA> spk <NA> <NA>")
def test_parse_rttm(text):
    finite_times_or_error_at_a_line(lambda: parse_rttm(text))


@FUZZ
@given(st.lists(tokens_line(_CSV_TOKENS, [",", ";", ", ", "\t"]), max_size=6), st.booleans(), st.booleans())
@example(["rec,0,%d,spk" % HUGE_INT], True, False)
@example(["rec,0,%d,spk" % HUGE_INT], True, True)
def test_parse_segments_csv(rows, with_header, strict):
    text = "\n".join((["id,start,end,speaker"] if with_header else []) + rows)
    finite_times_or_error_at_a_line(lambda: parse_segments_csv(text, strict)[0])


_RECORDS = st.fixed_dictionaries(
    {key: JSON_VALUES for key in ("id", "start", "end", "text")}, optional={"extra": JSON_VALUES}
)


@FUZZ
@given(st.lists(_RECORDS.map(json.dumps) | JSON_VALUES.map(json.dumps) | st.text(max_size=12), max_size=4))
@example(['{"id": "a", "start": 0, "end": %d, "text": ""}' % HUGE_INT])
@example([OVERLONG_INT])
def test_read_transcripts_jsonl(lines):
    rejects_only_with_pipeline_error(read_transcripts_jsonl, "\n".join(lines))


_DECODE_KEYS = st.sampled_from([f.name for f in fields(DecodeConfig)] + ["width"])


@FUZZ
@given(st.dictionaries(_DECODE_KEYS, JSON_VALUES, max_size=4).map(json.dumps) | st.text(max_size=12))
@example('{"temperature": %d}' % HUGE_INT)
@example('{"beams": %s}' % OVERLONG_INT)
def test_decode_config_from_json(text):
    rejects_only_with_pipeline_error(DecodeConfig.from_json, text)


_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)}  # type: ignore[misc]
_CONFIG_KEYS = st.sampled_from(sorted({f.name for cls in _SECTIONS.values() for f in fields(cls)}))
_CONFIG_DOCS = st.dictionaries(
    st.sampled_from([*_SECTIONS, "bogus"]),
    st.dictionaries(_CONFIG_KEYS, JSON_VALUES, max_size=3) | JSON_VALUES,
    max_size=3,
)


def _flag_values(section: str, name: str, kwargs: dict):
    """What argparse can hand over for one `OPTIONS` row."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    kind = type(getattr(_SECTIONS[section](), name))
    return {bool: st.just(True), int: st.integers(), float: st.floats()}[kind]


_FLAGS = st.fixed_dictionaries(
    {}, optional={dest: _flag_values(section, name, kwargs) for dest, section, name, kwargs, _ in OPTIONS}
)


@FUZZ
@given(_CONFIG_DOCS.map(json.dumps) | st.text(max_size=12), _FLAGS)
@example('{"music": {"min_duration": %d}}' % HUGE_INT, {})
@example('{"silence": {"top_db": %s}}' % OVERLONG_INT, {})
def test_load_pipeline_config(tmp_path_factory, text, flags):
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(text, encoding="utf-8")
    rejects_only_with_pipeline_error(load_pipeline_config, str(path), argparse.Namespace(**flags))


# One to three distinct words: most cells tie, so the backtrace's tie rule
# decides the counts.
_TIE_DENSE_PAIRS = st.integers(1, 3).map(lambda k: st.sampled_from("abc"[:k])).flatmap(
    lambda words: st.tuples(st.lists(words, min_size=1, max_size=150), st.lists(words, max_size=150))
)


@FUZZ
@given(_TIE_DENSE_PAIRS)
def test_wer_matches_full_matrix_reference(pair):
    ref_text, hyp_text = (" ".join(tokens) for tokens in pair)
    assert wer(ref_text, hyp_text).to_dict() == wer_reference(ref_text, hyp_text).to_dict()
