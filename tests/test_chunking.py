from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from speechpipe import (
    ChunkConfig,
    ChunkPlan,
    ParameterError,
    StructuralError,
    TimeSpan,
    Waveform,
    chunk_to_samples,
    plan_chunks,
)
from synth import SR, fixed_interval_chunks, plan_chunks_reference, straddle_count, tone


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

    def test_cut_below_time_resolution_raises(self):
        # 1000 + 1e-14 == 1000: a forced cut there could never advance.
        with pytest.raises(ParameterError, match=r"max_dur=1e-14 .* at 1000\.0s"):
            plan_chunks(spans((1000.0, 1001.0)), 1002.0, ChunkConfig(min_dur=1e-14, max_dur=1e-14))


def plan_or_error(planner, *args) -> str:
    """The plan as JSON, so floats compare bit for bit, or the error raised."""
    try:
        return json.dumps(planner(*args).to_dict())
    except ParameterError as exc:
        return f"ParameterError: {exc}"


class TestPlanChunksMatchesReference:
    """Reopening by bisecting the span ends reproduces the former linear
    rescan from the first span, plan for plan and float for float, wherever
    that planner plans. It raised where a forced cut rounded onto a stretch's
    close and left an empty piece; that cut is now dropped."""

    @staticmethod
    def matches_reference(nonsilent, total, cfg, case) -> bool:
        """Assert the plan is the reference's, or valid where the reference
        raises on an empty piece; True in the latter case."""
        want = plan_or_error(plan_chunks_reference, nonsilent, total, cfg)
        if want.startswith("ParameterError: invalid span"):
            check_invariants(plan_chunks(nonsilent, total, cfg), nonsilent, cfg)
            return True
        assert plan_or_error(plan_chunks, nonsilent, total, cfg) == want, case
        return False

    @staticmethod
    def span_set(rng, step: float | None, scale: float) -> list[TimeSpan]:
        """Sorted disjoint spans, some touching, some far longer than `scale`,
        with gaps from none to several `scale`s; times rounded to `step` when given."""
        bounds, clock = [], float(rng.choice([0.0, rng.uniform(0, 2 * scale)]))
        for _ in range(int(rng.integers(0, 25))):
            end = clock + float(rng.exponential(scale)) * float(rng.choice([0.2, 1.0, 4.0]))
            bounds.append((clock, end))
            clock = end + float(rng.choice([0.0, rng.exponential(scale / 2)]))
        if step is not None:
            bounds = [(round(a / step) * step, round(b / step) * step) for a, b in bounds]
        return [TimeSpan(a, b) for a, b in bounds if a < b]

    def test_random_span_sets(self):
        # Times on a grid of 0.01 s, of 0.5 s (exact in binary, so cuts land
        # exactly on span ends) or unrounded; each with leading silence on and off.
        rng = np.random.default_rng(314)
        reopened = 0
        for case in range(1200):
            step, lead, ratio = (None, 0.01, 0.5)[case % 3], case // 3 % 2 == 1, (1.0, 1.5, 3.0)[case // 6 % 3]
            min_dur = float(rng.uniform(0.5, 20.0))
            if step is not None:
                min_dur = max(0.5, round(min_dur / 0.5) * 0.5)
            cfg = ChunkConfig(min_dur=min_dur, max_dur=min_dur * ratio, include_leading_silence=lead)
            nonsilent = self.span_set(rng, step, min_dur)
            total = (nonsilent[-1].end if nonsilent else 0.0) + float(rng.uniform(0.0, 5.0))
            self.matches_reference(nonsilent, total, cfg, case)
            chunks = plan_chunks(nonsilent, total, cfg).to_dict()["chunks"]
            reopened += sum(c["kind"] == "forced" and nxt["start"] > c["end"] for c, nxt in zip(chunks, chunks[1:]))
        # Forced cuts that land in silence reopen past the cut: the search is exercised.
        assert reopened > 100

    def test_cut_rounding_onto_a_span_end(self):
        # 10.49 - 9.39 < 1.1, so the stretch runs on past the first span, yet
        # 9.39 + 1.1 == 10.49: the first cut lands on that span's end, and the
        # next chunk opens at the next span.
        nonsilent, cfg = spans((9.39, 10.49), (11.0, 20.0)), ChunkConfig(1.1, 1.1)
        assert plan_or_error(plan_chunks, nonsilent, 20.0, cfg) == plan_or_error(plan_chunks_reference, nonsilent, 20.0, cfg)
        assert [c.start for c in plan_chunks(nonsilent, 20.0, cfg).chunks[:2]] == [9.39, 11.0]

    def test_cuts_rounding_onto_the_close(self):
        # Times on 1 ms and 10 ms grids, min_dur on a 0.1 s grid and max_dur
        # equal to it or 1.5 times it: forced cuts that round onto a
        # stretch's close turn up about once in 2,000 sets.
        rng = np.random.default_rng(2718)
        dropped = 0
        for case in range(20000):
            step = (0.001, 0.01)[case % 2]
            min_dur = round(float(rng.uniform(0.5, 10.0)), 1)
            cfg = ChunkConfig(min_dur, min_dur * (1.0, 1.5)[case // 2 % 2], include_leading_silence=case // 4 % 2 == 1)
            n = int(rng.integers(1, 12))
            lengths = rng.exponential(min_dur, n) * rng.choice([0.2, 1.0, 4.0], n)
            gaps = rng.exponential(min_dur / 2, n) * (rng.random(n) < 0.5)
            bounds = np.round(np.cumsum(np.column_stack([gaps, lengths]).ravel()) / step) * step
            nonsilent = [TimeSpan(a, b) for a, b in bounds.reshape(-1, 2).tolist() if a < b]
            dropped += self.matches_reference(nonsilent, nonsilent[-1].end if nonsilent else 0.0, cfg, case)
        assert dropped >= 5

    def test_last_cut_onto_the_close_is_dropped(self):
        # 74.11 - 70.96 > 3.1500000000000004, yet 70.96 + 3.1500000000000004 == 74.11.
        plan = plan_chunks(spans((70.96, 74.11)), 75.0, ChunkConfig(2.1, 2.1 * 1.5))
        assert [(c.start, c.end) for c in plan.chunks] == [(70.96, 74.11)]
        assert plan.boundary_kinds == ["silence"] and plan.forced_split_count == 0
        # Not the final stretch: pulled back by min_dur, the last cut would land
        # on the previous one. The closing piece opens where the dropped one did.
        plan = plan_chunks(spans((12.419, 18.719), (20.19, 28.318)), 30.0, ChunkConfig(2.1, 2.1))
        assert [(c.start, c.end) for c in plan.chunks[1:3]] == [(14.519, 16.619), (16.619, 18.719)]
        assert plan.boundary_kinds[1:3] == ["forced", "silence"]


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
        plan = ChunkPlan([TimeSpan(30.0 * i, 30.0 * (i + 1)) for i in range(20)], 600.0, 19,
                         ["forced"] * 19 + ["end-of-audio"])
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            pieces = chunk_to_samples(plan, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(p.samples.nbytes for p in pieces)


class TestBoundaryAudit:
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
                words.append(TimeSpan(round(clock, 3), round(clock + 0.35, 3)))
                clock += 0.45
        aware = plan_chunks(nonsilent, 240.0, ChunkConfig(20, 30))
        n_aware = straddle_count(words, aware.chunks)
        n_fixed = straddle_count(words, fixed_interval_chunks(240.0, 30.0))
        assert n_fixed >= n_aware
