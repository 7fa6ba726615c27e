from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from speechpipe import (
    ChunkConfig,
    ChunkPlan,
    StructuralError,
    TimeSpan,
    Waveform,
    boundary_error_audit,
    chunk_to_samples,
    fixed_interval_plan,
    plan_chunks,
)
from synth import SR, tone


def spans(*pairs):
    return [TimeSpan(a, b) for a, b in pairs]


def random_span_set(rng, total=300.0):
    out = []
    clock = rng.uniform(0, 5)
    while clock < total - 2:
        end = min(clock + rng.uniform(0.5, 40.0), total)
        out.append(TimeSpan(round(clock, 3), round(end, 3)))
        clock = end + rng.uniform(0.1, 12.0)
    return out


def check_invariants(plan: ChunkPlan, nonsilent, cfg: ChunkConfig):
    # sorted, disjoint, within bounds
    for prev, cur in zip(plan.chunks, plan.chunks[1:]):
        assert prev.end <= cur.start + 1e-12
    for chunk in plan.chunks:
        assert -1e-9 <= chunk.start < chunk.end <= plan.source_duration + 1e-9
        assert chunk.duration <= cfg.max_dur + 1e-9
    # coverage of every non-silent instant
    for span in nonsilent:
        probes = np.linspace(span.start + 1e-6, span.end - 1e-6, 7)
        for p in probes:
            assert any(c.start - 1e-9 <= p <= c.end + 1e-9 for c in plan.chunks)
    # min-duration rule
    for i, (chunk, kind) in enumerate(zip(plan.chunks, plan.boundary_kinds)):
        last = i == len(plan.chunks) - 1
        if kind == "silence" and not last:
            assert chunk.duration >= cfg.min_dur - 1e-9
        if kind == "silence":
            assert any(abs(chunk.end - s.end) < 1e-9 for s in nonsilent)
    assert plan.forced_split_count == plan.boundary_kinds.count("forced")


class TestPlanChunks:
    def test_hand_case_silence_close(self):
        plan = plan_chunks(spans((0, 12), (13, 26), (27, 40)), 40, ChunkConfig(20, 30))
        assert [(c.start, c.end) for c in plan.chunks] == [(0, 26), (27, 40)]
        assert plan.boundary_kinds == ["silence", "end-of-audio"]
        assert plan.forced_split_count == 0

    def test_hand_case_forced_splits(self):
        plan = plan_chunks(spans((0, 70)), 70, ChunkConfig(20, 30))
        assert [(c.start, c.end) for c in plan.chunks] == [(0, 30), (30, 60), (60, 70)]
        assert plan.forced_split_count == 2
        assert plan.boundary_kinds == ["forced", "forced", "end-of-audio"]

    def test_empty_input(self):
        plan = plan_chunks([], 100, ChunkConfig())
        assert plan.chunks == []
        assert plan.forced_split_count == 0

    def test_overlapping_spans_rejected(self):
        with pytest.raises(StructuralError):
            plan_chunks(spans((0, 10), (5, 15)), 20, ChunkConfig())

    def test_invariants_on_random_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            nonsilent = random_span_set(rng)
            cfg = ChunkConfig(
                min_dur=float(rng.uniform(5, 25)), max_dur=float(rng.uniform(25, 60))
            )
            plan = plan_chunks(nonsilent, 300.0, cfg)
            check_invariants(plan, nonsilent, cfg)

    def test_forced_count_monotone_in_max_dur(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            nonsilent = random_span_set(rng)
            low = plan_chunks(nonsilent, 300.0, ChunkConfig(10, 22)).forced_split_count
            high = plan_chunks(nonsilent, 300.0, ChunkConfig(10, 33)).forced_split_count
            assert high <= low

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        nonsilent = random_span_set(rng)
        a = plan_chunks(nonsilent, 300.0, ChunkConfig())
        b = plan_chunks(nonsilent, 300.0, ChunkConfig())
        assert a == b

    def test_include_leading_silence(self):
        plan = plan_chunks(
            spans((5, 30)), 30, ChunkConfig(20, 30, include_leading_silence=True)
        )
        assert plan.chunks[0].start == 0.0

    def test_json_round_trip(self):
        plan = plan_chunks(spans((0, 70)), 70, ChunkConfig(20, 30))
        doc = plan.to_dict("rec1", ChunkConfig(20, 30))
        assert ChunkPlan.from_dict(doc) == plan


class TestChunkToSamples:
    def test_full_span_copy(self):
        w = Waveform(tone(440, 2.0), SR)
        plan = ChunkPlan([TimeSpan(0, 2.0)], 2.0, 0, ["end-of-audio"])
        pieces = chunk_to_samples(plan, w)
        assert np.array_equal(pieces[0].samples, w.samples)

    def test_exact_sample_count(self):
        w = Waveform(tone(440, 3.0), SR)
        plan = ChunkPlan([TimeSpan(1.0, 2.0)], 3.0, 0, ["silence"])
        assert len(chunk_to_samples(plan, w)[0]) == SR

    def test_adjacent_chunks_partition(self):
        w = Waveform(tone(440, 2.0), SR)
        plan = ChunkPlan([TimeSpan(0, 1.3), TimeSpan(1.3, 2.0)], 2.0, 0, ["silence"] * 2)
        a, b = chunk_to_samples(plan, w)
        assert len(a) + len(b) == len(w)
        assert np.array_equal(np.concatenate([a.samples, b.samples]), w.samples)

    def test_duration_mismatch_rejected(self):
        w = Waveform(tone(440, 1.0), SR)
        plan = ChunkPlan([TimeSpan(0, 2.0)], 2.0, 0, ["silence"])
        with pytest.raises(StructuralError):
            chunk_to_samples(plan, w)

    def test_pieces_are_views(self):
        w = Waveform(tone(440, 3.0), SR)
        plan = ChunkPlan([TimeSpan(0, 1.3), TimeSpan(1.3, 2.5)], 3.0, 0, ["silence"] * 2)
        for piece in chunk_to_samples(plan, w):
            assert np.shares_memory(piece.samples, w.samples)

    def test_peak_below_longest_chunk(self):
        # Ten minutes at 16 kHz: a copy of every chunk would trace the whole
        # 38 MB signal; views leave only the per-chunk finiteness checks.
        w = Waveform(np.zeros(600 * SR, dtype=np.float32), SR)
        plan = fixed_interval_plan(600.0, 30.0)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            pieces = chunk_to_samples(plan, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(p.samples.nbytes for p in pieces)


class TestBoundaryAudit:
    def test_boundaries_in_silence_have_no_straddles(self):
        words = [("w", TimeSpan(1.0, 2.0)), ("w", TimeSpan(12.0, 13.0))]
        plan = ChunkPlan([TimeSpan(0, 10), TimeSpan(10, 20)], 20, 0, ["silence"] * 2)
        audit = boundary_error_audit(words, plan)
        assert audit.total_straddles == 0

    def test_word_straddling_boundary_counted(self):
        words = [("w", TimeSpan(9.8, 10.2))]
        plan = ChunkPlan([TimeSpan(0, 10), TimeSpan(10, 20)], 20, 0, ["silence"] * 2)
        audit = boundary_error_audit(words, plan)
        assert audit.total_straddles == 1
        assert audit.mean_per_boundary == 1.0

    def test_fixed_plan_straddles_at_least_silence_aware(self):
        # Speech-like layout: utterances all shorter than max_dur, so the
        # silence-aware plan cuts only at silence while fixed 30 s cuts land
        # mid-speech.
        rng = np.random.default_rng(23)
        nonsilent = []
        clock = rng.uniform(0, 2)
        while clock < 236.0:
            end = min(clock + rng.uniform(3.0, 24.0), 240.0)
            nonsilent.append(TimeSpan(round(clock, 3), round(end, 3)))
            clock = end + rng.uniform(0.5, 4.0)
        words = []
        for span in nonsilent:
            clock = span.start
            while clock + 0.4 < span.end:
                words.append(("w", TimeSpan(round(clock, 3), round(clock + 0.35, 3))))
                clock += 0.45
        aware = plan_chunks(nonsilent, 240.0, ChunkConfig(20, 30))
        fixed = fixed_interval_plan(240.0, 30.0)
        n_aware = boundary_error_audit(words, aware).total_straddles
        n_fixed = boundary_error_audit(words, fixed).total_straddles
        assert n_fixed >= n_aware
