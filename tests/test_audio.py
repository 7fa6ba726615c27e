from __future__ import annotations

import math
import struct
import tracemalloc

import numpy as np
import pytest

from speechpipe import audio
from speechpipe import (
    MusicDetectConfig,
    ParameterError,
    StructuralError,
    Waveform,
    downmix_mono,
    frame_rms_db,
    highpass,
    load_mono,
    music_presence,
    peak_normalize,
    resample,
    split_on_silence,
    wav_bytes,
    write_wav,
)
from speechpipe.cli import PreprocessConfig, _conditioned
from synth import (
    SR,
    downmix_mono_reference,
    flux_and_energy_reference,
    frame_rms_db_reference,
    highpass_reference,
    music_presence_reference,
    music_proxy,
    resample_reference,
    silence,
    speech_proxy,
    split_on_silence_reference,
    tone,
)


def analytic_butterworth_hp(freq: float, cutoff: float) -> float:
    ratio = (freq / cutoff) ** 2
    return ratio / np.sqrt(1.0 + ratio**2)


class TestDownmix:
    def test_single_channel_identity(self):
        w = downmix_mono([np.array([0.5, -0.5], dtype=np.float32)], SR)
        assert np.array_equal(w.samples, [0.5, -0.5])

    def test_symmetric_channels_cancel(self):
        w = downmix_mono([np.array([1.0, 1.0]), np.array([-1.0, -1.0])], SR)
        assert np.array_equal(w.samples, [0.0, 0.0])

    def test_mean_of_two(self):
        w = downmix_mono([np.array([0.2, 0.4]), np.array([0.6, 0.0])], SR)
        assert np.allclose(w.samples, [0.4, 0.2])

    def test_mismatched_lengths(self):
        with pytest.raises(StructuralError):
            downmix_mono([np.zeros(3), np.zeros(4)], SR)


class TestResample:
    def test_identity_rate_is_bit_identical(self):
        w = Waveform(tone(440, 0.5), SR)
        out = resample(w, SR)
        assert out.sample_rate == SR
        assert np.array_equal(out.samples, w.samples)

    def test_sine_zero_crossings_preserved(self):
        t = np.arange(32000) / 32000
        w = Waveform(np.sin(2 * np.pi * 1000 * t).astype(np.float32), 32000)
        out = resample(w, 16000)
        signs = np.signbit(out.samples[:16000])
        crossings = int(np.abs(np.diff(signs.astype(int))).sum())
        assert abs(crossings - 2000) <= 2

    def test_silence_stays_silent(self):
        w = Waveform(np.zeros(100, dtype=np.float32), 48000)
        out = resample(w, 16000)
        assert out.sample_rate == 16000
        assert np.all(np.abs(out.samples) < 1e-6)

    def test_duration_preserved_within_one_sample(self):
        w = Waveform(tone(500, 1.237), SR)
        out = resample(w, 22050)
        assert abs(out.duration_seconds - w.duration_seconds) <= 1.0 / 22050

    def test_round_trip_correlation(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            freqs = rng.uniform(100, 0.4 * SR / 2, size=4)
            x = sum(tone(f, 1.0, amplitude=0.2) for f in freqs)
            w = Waveform(x, SR)
            back = resample(resample(w, 32000), SR)
            n = min(len(back), len(w))
            corr = np.corrcoef(w.samples[:n].astype(float), back.samples[:n].astype(float))[0, 1]
            assert corr >= 0.999

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ParameterError):
            resample(Waveform(tone(100, 0.1), SR), 0)

    def test_bound_admits_up_to_32767(self):
        # From 1 Hz the reduced ratio is target/1: 64 * 32767 + 1 taps fit
        # the 2**21-sample bound, 64 * 32768 + 1 do not.
        w = Waveform(np.ones(10, dtype=np.float32), 1)
        assert len(resample(w, 32767)) == 10 * 32767
        with pytest.raises(ParameterError, match="1 Hz to 32768 Hz"):
            resample(w, 32768)

    def test_tap_bound_does_not_follow_the_block_size(self, monkeypatch):
        # 44.1 -> 16 kHz needs a 10,241-tap filter, more than 64 samples.
        w = Waveform(noise(3 * 44100, np.random.default_rng(16)).samples, 44100)
        want = resample(w, 16000).samples
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", 64)
        assert same_bytes(resample(w, 16000).samples, want)

    def test_library_filters_need_no_trailing_pad(self):
        # `_polyphase_filter` pads no zeros after the taps: for the filters
        # `resample` designs, `upfirdn` already yields every output it keeps.
        from scipy import signal as sps

        ratios = [(up, down) for up in range(1, 40) for down in range(1, 40)] + [(160, 441), (441, 160), (147, 160)]
        for up, down in ratios:
            h, skip = audio._polyphase_filter(audio._design_resample_filter(up, down), up, down)
            for n_in in (1, 2, 59, 1000, 4097):
                n_out = -(-n_in * up // down)
                assert len(sps.upfirdn(h, np.zeros(n_in), up, down)) >= skip + n_out, (up, down, n_in)


class TestPeakNormalize:
    def test_scales_by_ratio(self):
        x = np.array([0.5, -0.25, 0.1], dtype=np.float32)
        out = peak_normalize(Waveform(x, SR), 0.95)
        assert np.allclose(out.samples, x * 1.9, atol=1e-6)

    def test_all_zero_unchanged(self):
        out = peak_normalize(Waveform(np.zeros(10, dtype=np.float32), SR), 0.95)
        assert np.array_equal(out.samples, np.zeros(10))

    def test_fixed_point(self):
        x = tone(440, 0.1, amplitude=0.98)
        out = peak_normalize(Waveform(x, SR), 0.98)
        assert np.allclose(out.samples, x, atol=1e-6)

    def test_idempotent(self):
        w = Waveform(tone(440, 0.25, amplitude=0.3), SR)
        once = peak_normalize(w, 0.7)
        twice = peak_normalize(once, 0.7)
        assert np.allclose(once.samples, twice.samples, atol=1e-6)

    def test_target_out_of_range(self):
        with pytest.raises(ParameterError):
            peak_normalize(Waveform(tone(440, 0.1), SR), 1.5)

    def test_equals_former_abs_max(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 1001):
            for x in (rng.uniform(-1, 1, n), -np.abs(rng.uniform(0, 1, n)), rng.uniform(0, 1, n)):
                w = Waveform(x.astype(np.float32), SR)
                peak = float(np.max(np.abs(w.samples)))
                want = w.samples * np.float32(0.95 / peak)
                assert peak_normalize(w, 0.95).samples.tobytes() == want.tobytes(), n

    def test_out_gets_the_copy_bytes(self):
        rng = np.random.default_rng(22)
        for x in (rng.uniform(-1, 1, 1001), np.zeros(5), np.array([0.0, -0.0, 0.0])):
            w = Waveform(x.astype(np.float32), SR)
            want = peak_normalize(w, 0.9).samples.tobytes()
            other = np.empty(len(x), np.float32)
            assert peak_normalize(w, 0.9, out=other).samples is other and other.tobytes() == want
            got = peak_normalize(w, 0.9, out=w.samples)
            assert got.samples is w.samples and w.samples.tobytes() == want


class TestHighpass:
    @pytest.mark.parametrize("block", [64, audio._BLOCK_SAMPLES])
    def test_out_gets_the_copy_bytes(self, block, monkeypatch):
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block)
        for n in (0, 1, block - 1, block, 3 * block + 5):
            w = noise(n, rng)
            want = highpass(w, 60.0).samples.tobytes()
            other = np.empty(n, np.float32)
            assert highpass(w, 60.0, out=other).samples is other and other.tobytes() == want
            got = highpass(w, 60.0, out=w.samples)
            assert got.samples is w.samples and w.samples.tobytes() == want, n

    def test_dc_rejection(self):
        w = Waveform(np.full(2 * SR, 0.5, dtype=np.float32), SR)
        out = highpass(w, 60.0)
        assert abs(float(out.samples[-SR:].mean())) < 1e-3

    def test_passband_flat_at_1khz(self):
        w = Waveform(tone(1000, 2.0), SR)
        out = highpass(w, 60.0)
        rms_in = np.sqrt(np.mean(w.samples[4000:].astype(float) ** 2))
        rms_out = np.sqrt(np.mean(out.samples[4000:].astype(float) ** 2))
        measured = rms_out / rms_in
        assert measured > 0.99
        assert abs(measured - analytic_butterworth_hp(1000, 60)) < 0.01

    def test_stopband_attenuation_at_10hz(self):
        w = Waveform(tone(10, 2.0), SR)
        out = highpass(w, 60.0)
        rms_in = np.sqrt(np.mean(w.samples.astype(float) ** 2))
        rms_out = np.sqrt(np.mean(out.samples[SR:].astype(float) ** 2))
        assert 20 * np.log10(rms_in / rms_out) > 20

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ParameterError):
            highpass(Waveform(tone(440, 0.1), SR), SR / 2)


class TestFrameRms:
    def test_zero_frame_floored(self):
        levels = frame_rms_db(Waveform(np.zeros(2048, dtype=np.float32), SR), 1024, 512)
        assert np.all(levels == -100.0)

    def test_unit_frame_is_zero_db(self):
        levels = frame_rms_db(Waveform(np.ones(1024, dtype=np.float32), SR), 1024, 512)
        assert levels[0] == pytest.approx(0.0, abs=1e-9)

    def test_tenth_amplitude_is_minus_20db(self):
        levels = frame_rms_db(Waveform(np.full(1024, 0.1, dtype=np.float32), SR), 1024, 512)
        assert levels[0] == pytest.approx(-20.0, abs=1e-4)

    def test_short_signal_has_no_frames(self):
        levels = frame_rms_db(Waveform(np.ones(100, dtype=np.float32), SR), 1024, 512)
        assert len(levels) == 0

    def test_equals_former_frame_copy_formula(self):
        # The former formula squared a float64 copy of every overlapping frame.
        rng = np.random.default_rng(12)
        for _ in range(150):
            n = int(rng.integers(0, 6000))
            frame_length = int(rng.integers(1, 2049))
            hop_length = int(rng.integers(1, 2 * frame_length + 1))
            x = rng.normal(scale=rng.uniform(1e-5, 0.5), size=n).astype(np.float32)
            x[int(rng.integers(0, n + 1)) : int(rng.integers(0, n + 1))] = 0.0
            got = frame_rms_db(Waveform(x, SR), frame_length, hop_length)
            want = np.empty(0)
            if n >= frame_length:
                frames = np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop_length]
                rms = np.sqrt(np.mean(frames.astype(np.float64) ** 2, axis=1))
                want = np.full(len(rms), -100.0)
                want[rms > 0] = np.maximum(20.0 * np.log10(rms[rms > 0]), -100.0)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestSplitOnSilence:
    def test_nan_top_db_rejected(self):
        with pytest.raises(ParameterError, match="top_db must be positive, got nan"):
            split_on_silence(Waveform(tone(440, 1.0), SR), float("nan"))

    def test_all_zero_returns_empty(self):
        assert split_on_silence(Waveform(np.zeros(SR, dtype=np.float32), SR)) == []

    def test_tone_silence_tone(self):
        sig = np.concatenate([tone(440, 1.0), silence(1.0), tone(440, 1.0)])
        spans = split_on_silence(Waveform(sig, SR), 25.0, 512, 512)
        assert len(spans) == 2
        hop_s = 512 / SR
        assert abs(spans[0].start - 0.0) <= hop_s
        assert abs(spans[0].end - 1.0) <= hop_s
        assert abs(spans[1].start - 2.0) <= hop_s
        assert abs(spans[1].end - 3.0) <= hop_s

    def test_uniform_tone_single_full_span(self):
        w = Waveform(tone(440, 1.0), SR)
        spans = split_on_silence(w, 25.0)
        assert len(spans) == 1
        assert spans[0].start == 0.0
        assert spans[0].end == w.duration_seconds

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            pieces = []
            for _ in range(rng.integers(2, 6)):
                if rng.random() < 0.5:
                    pieces.append(tone(rng.uniform(100, 3000), rng.uniform(0.2, 1.0), 0.6))
                else:
                    pieces.append(silence(rng.uniform(0.2, 1.0)))
            sig = np.concatenate(pieces)
            w = Waveform(sig, SR)
            half = Waveform(0.5 * sig, SR)
            assert split_on_silence(w, 25.0) == split_on_silence(half, 25.0)

    def test_equals_former_run_loop(self, monkeypatch):
        rng = np.random.default_rng(13)
        touching = 0
        module_block = audio._BLOCK_SAMPLES
        for case in range(300):
            # Every other signal has its frame RMS taken in many small blocks.
            monkeypatch.setattr(audio, "_BLOCK_SAMPLES", 64 if case % 2 else module_block)
            pieces = []
            for _ in range(int(rng.integers(1, 8))):
                seconds = float(rng.uniform(0.001, 0.3))
                if rng.random() < 0.5:
                    pieces.append(tone(rng.uniform(100, 3000), seconds, rng.uniform(0.01, 0.8)))
                else:
                    pieces.append(silence(seconds))
            w = Waveform(np.concatenate(pieces), SR)
            frame_length = int(rng.integers(16, 2049))
            args = (float(rng.uniform(1, 60)), frame_length, int(rng.integers(16, 2 * frame_length)))
            want = split_on_silence_reference(w, *args)
            assert split_on_silence(w, *args) == want
            touching += sum(a.end == b.start for a, b in zip(want, want[1:]))
        assert touching > 0  # the cap on overlapping frames was exercised

    def test_spans_sorted_disjoint_within_duration(self):
        rng = np.random.default_rng(3)
        sig = np.concatenate(
            [tone(500, 0.4), silence(0.3), tone(900, 0.5), silence(0.2), tone(1500, 0.3)]
        )
        w = Waveform(sig, SR)
        spans = split_on_silence(w, 25.0)
        for prev, cur in zip(spans, spans[1:]):
            assert prev.end <= cur.start
        assert all(0 <= s.start < s.end <= w.duration_seconds + 1e-9 for s in spans)


def default_flux(w: Waveform) -> np.ndarray:
    """The flux `music_presence` reads, at its default 2048-sample frames and 512-sample hop."""
    return audio._flux_and_energy(w, 2048, 512)[0]


class TestSpectralFlux:
    def test_dc_signal_near_zero_flux(self):
        flux = default_flux(Waveform(np.full(SR, 0.5, dtype=np.float32), SR))
        assert np.all(flux[1:] < 1e-6 * max(1.0, flux.max()))

    def test_onset_creates_dominant_peak(self):
        sig = np.concatenate([silence(1.0), tone(880, 1.0)])
        flux = default_flux(Waveform(sig, SR))
        onset_frame = int(np.argmax(flux))
        onset_time = onset_frame * 512 / SR
        assert 0.85 <= onset_time <= 1.05
        # The transient spans adjacent frames; beyond that the peak dominates.
        outside = np.delete(flux, range(onset_frame - 2, onset_frame + 3))
        assert flux[onset_frame] > 5 * outside.max()

    def test_stationary_sine_low_flux(self):
        steady = default_flux(Waveform(tone(880, 2.0), SR))
        onset = default_flux(Waveform(np.concatenate([silence(1.0), tone(880, 1.0)]), SR))
        assert steady[2:].max() < 0.01 * onset.max()

    def test_never_negative(self):
        flux = default_flux(music_proxy(3, 5))
        assert np.all(flux >= 0)

    def test_first_frame_zero(self):
        flux = default_flux(Waveform(tone(440, 0.5), SR))
        assert flux[0] == 0.0


class TestMusicPresence:
    def test_digital_silence_scores_zero(self):
        result = music_presence(Waveform(np.zeros(5 * SR, dtype=np.float32), SR))
        assert result.score == 0.0
        assert not result.is_music

    def test_music_proxy_beats_speech_proxy(self):
        music = music_presence(music_proxy(10, 1))
        speech = music_presence(speech_proxy(10, 2))
        assert music.score > speech.score
        assert music.score >= 3 * max(speech.score, 1e-9)
        assert music.is_music and not speech.is_music

    def test_concatenation_scores_between(self):
        m, s = music_proxy(10, 3), speech_proxy(10, 4)
        both = Waveform(np.concatenate([s.samples, m.samples]), SR)
        score_m = music_presence(m).score
        score_s = music_presence(s).score
        score_mix = music_presence(both).score
        assert score_s < score_mix < score_m

    def test_invariant_under_peak_normalize(self):
        w = music_proxy(6, 9)
        normalized = peak_normalize(w, 0.5)
        assert music_presence(w).score == music_presence(normalized).score

    def test_short_input_flagged(self):
        result = music_presence(Waveform(tone(440, 1.0), SR))
        assert result.low_confidence

    def test_threshold_override(self):
        cfg = MusicDetectConfig(decision_threshold=0.99)
        result = music_presence(music_proxy(6, 12), cfg)
        assert result.score <= 1.0
        assert result.is_music == (result.score > 0.99)


def music_and_speech(n: int, sr: int, rng: np.random.Generator) -> Waveform:
    """`n` samples of music and speech proxies in turns of 0.5 to 3 s."""
    pieces, total = [], 0
    while total < n:
        proxy = music_proxy if rng.integers(2) else speech_proxy
        piece = proxy(float(rng.uniform(0.5, 3.0)), int(rng.integers(2**31)), sr).samples
        pieces.append(piece)
        total += len(piece)
    return Waveform(np.concatenate(pieces)[:n], sr)


class TestMusicPresenceEqualsReference:
    def test_seeded_inputs(self):
        """Shorter than one window, whole windows and remainder frames, at three rates and two hops."""
        rng = np.random.default_rng(80)
        scores = set()
        for sr in (8000, 16000, 22050):
            for hop in (256, 512):
                cfg = MusicDetectConfig(hop_length=hop)
                window = max(2, round(sr / hop))
                for n_frames in (0, 1, 2, 3, window - 1, window, 4 * window, 4 * window + 1, 6 * window - 1,
                                 int(rng.integers(window, 12 * window))):
                    n = (n_frames - 1) * hop + cfg.frame_length if n_frames else cfg.frame_length - 1
                    w = music_and_speech(n, sr, rng)
                    got, want = music_presence(w, cfg), music_presence_reference(w, cfg)
                    assert (got.score, got.is_music, got.low_confidence) == (
                        want.score, want.is_music, want.low_confidence), (sr, hop, n_frames)
                    scores.add(got.score)
        assert any(0 < score < 1 for score in scores)


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def noise(n: int, rng: np.random.Generator) -> Waveform:
    return Waveform((rng.standard_normal(n) * rng.uniform(0.01, 1.0)).astype(np.float32), SR)


class TestBlockedEqualsReference:
    """The block-wise STFT, high-pass, resampling, framed RMS and downmix give
    the former whole-signal bytes.

    Small block sizes put many block edges inside short signals.
    """

    @pytest.mark.parametrize("block", [64, 1000, 4096])
    def test_flux_and_energy(self, block, monkeypatch):
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block)
        cases = [(0, 16, 8), (15, 16, 8), (16, 16, 8), (16, 16, 40), (500, 16, 40)]
        for frame_length, hop_length in [(16, 8), (50, 7), (block + 3, 5)]:
            step = max(1, block // frame_length)  # frames per block
            for n_frames in (step - 1, step, step + 1, 3 * step - 1, 3 * step, 3 * step + 1):
                if n_frames >= 1:
                    cases.append(((n_frames - 1) * hop_length + frame_length, frame_length, hop_length))
        for _ in range(30):
            frame_length = int(rng.integers(1, 3 * block))
            cases.append((int(rng.integers(0, 8 * block)), frame_length, int(rng.integers(1, 2 * frame_length))))
        for n, frame_length, hop_length in cases:
            w = noise(n, rng)
            want = flux_and_energy_reference(w, frame_length, hop_length)
            got = audio._flux_and_energy(w, frame_length, hop_length)
            assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1]), (n, frame_length, hop_length)

    @pytest.mark.parametrize("block", [64, 1000, 4096])
    def test_flux_and_energy_stft_blocks(self, block, monkeypatch):
        # The STFT takes frames in blocks of `_BLOCK_SAMPLES` samples.
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block + 5)
        for frame_length, hop_length in [(16, 8), (50, 7), (block + 3, 5), (2048, 512)]:
            step = max(1, block // frame_length)  # frames per block
            for n_frames in (1, step - 1, step, step + 1, 3 * step + 1):
                if n_frames >= 1:
                    w = noise((n_frames - 1) * hop_length + frame_length, rng)
                    want = flux_and_energy_reference(w, frame_length, hop_length)
                    got = audio._flux_and_energy(w, frame_length, hop_length)
                    assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1]), (frame_length, n_frames)

    def test_flux_and_energy_at_module_block_size(self):
        w = music_proxy(90, 4)
        n_frames = (len(w) - 2048) // 512 + 1
        assert n_frames > 2 * (audio._BLOCK_SAMPLES // 2048)  # at least three blocks
        want = flux_and_energy_reference(w, 2048, 512)
        got = audio._flux_and_energy(w, 2048, 512)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])

    @pytest.mark.parametrize("block", [64, 1000, audio._BLOCK_SAMPLES])
    def test_highpass(self, block, monkeypatch):
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block + 1)
        lengths = [0, 1, block - 1, block, block + 1, 3 * block + 5, int(rng.integers(2, 5 * block))]
        for n in lengths:
            w = noise(n, rng)
            cutoff = float(rng.uniform(20, 2000))
            assert same_bytes(highpass(w, cutoff).samples, highpass_reference(w, cutoff).samples), n

    @pytest.mark.parametrize("block", [7, 4096, audio._BLOCK_SAMPLES])
    def test_resample(self, block, monkeypatch):
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block + 2)
        pairs = [(rate, 16000) for rate in (8000, 11025, 16000, 22050, 32000, 44100, 48000)]
        pairs += [(16000, 8000), (16000, 44100), (44100, 48000)]
        for rate, target in pairs:
            up = target // math.gcd(rate, target)
            step = max(1, block // up) * up  # output samples per block
            per_block = -(-step * rate // target)  # input samples per block
            lengths = {0, 1, 2, 5, per_block - 1, per_block, per_block + 1, 3 * per_block + 7,
                       int(rng.integers(1, 4 * per_block))}
            for n in sorted(lengths):
                w = Waveform(noise(n, rng).samples, rate)
                got, want = resample(w, target), resample_reference(w, target)
                assert got.sample_rate == want.sample_rate == target
                assert same_bytes(got.samples, want.samples), (rate, target, n)

    @pytest.mark.parametrize("block", [1000, audio._BLOCK_SAMPLES])
    @pytest.mark.parametrize("rate, target", [(44100, 16000), (48000, 16000), (8000, 16000), (16000, 44100)])
    def test_resample_slices_reads_ascending_slices_that_cover_the_input(self, block, rate, target, monkeypatch):
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        g = math.gcd(rate, target)
        up, down = target // g, rate // g
        h, _ = audio._polyphase_filter(audio._design_resample_filter(up, down), up, down)
        history = -(-len(h) // up)
        per_block = max(1, block // up) * down  # input samples per output block
        rng = np.random.default_rng(block + rate + target)
        for n in (0, 1, per_block - 1, per_block, per_block + 1, 3 * per_block + 7):
            w = Waveform(noise(n, rng).samples, rate)
            calls = []

            def read(start: int, stop: int) -> np.ndarray:
                calls.append((start, stop))
                return w.samples[start:stop]

            got = audio.resample_slices(read, n, rate, target)
            case = (rate, target, n)
            assert all(0 <= start < stop <= n for start, stop in calls), case
            starts, stops = [c[0] for c in calls], [c[1] for c in calls]
            assert starts == sorted(starts) and stops == sorted(stops), case
            if n:  # no gap between slices, and the first and last reach the ends
                assert starts[0] == 0 and stops[-1] == n, case
                assert all(start <= stop for start, stop in zip(starts[1:], stops)), case
            assert sum(stop - start for start, stop in calls) <= n + len(calls) * (history + down), case
            assert same_bytes(got, resample_reference(w, target).samples), case

    @pytest.mark.parametrize("block", [7, 1000, 4096])
    def test_frame_rms_db(self, block, monkeypatch):
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block + 3)
        for frame_length, hop_length in [(2048, 512), (512, 1024), (3, 7), (1, 1), (16, 16), (200, 1), (5, 3)]:
            step = max(1, block // hop_length)  # frames per block
            lengths = {0, 1, frame_length - 1, frame_length, frame_length + 1}
            for n_frames in (step - 1, step, step + 1, 3 * step + 1):
                if n_frames >= 1:
                    lengths |= {(n_frames - 1) * hop_length + frame_length + extra for extra in (0, hop_length - 1)}
            for n in sorted(lengths):
                w = noise(n, rng)
                w.samples[: n // 3] = 0  # silent frames take the floor
                got, want = frame_rms_db(w, frame_length, hop_length), frame_rms_db_reference(w, frame_length, hop_length)
                assert same_bytes(got, want), (frame_length, hop_length, n)

    def test_frame_rms_db_at_module_block_size(self):
        w = speech_proxy(400, 5)
        assert (len(w) - 2048) // 512 + 1 > 2 * (audio._BLOCK_SAMPLES // 512)  # at least three blocks
        assert same_bytes(frame_rms_db(w, 2048, 512), frame_rms_db_reference(w, 2048, 512))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32])
    def test_downmix(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).num)
        scale = 1.0 if np.issubdtype(dtype, np.floating) else 32767.0
        for n_channels in range(1, 7):
            for n in (0, 1, 1001):
                channels = [(rng.uniform(-1, 1, n) * scale).astype(dtype) for _ in range(n_channels)]
                want = downmix_mono_reference(channels, SR).samples
                assert same_bytes(downmix_mono(channels, SR).samples, want), (n_channels, n)
            # Channels as strided views of one interleaved matrix, as a WAV decodes.
            interleaved = (rng.uniform(-1, 1, (1001, n_channels)) * scale).astype(dtype)
            views = list(interleaved.T)
            assert same_bytes(downmix_mono(views, SR).samples, downmix_mono_reference(views, SR).samples)


def write_tiled_pcm16(path, minutes: int, sr: int, n_channels: int, seed: int) -> None:
    """A PCM16 file of `minutes` of one 10-second noise tile repeated, written
    a tile at a time."""
    rng = np.random.default_rng(seed)
    tile = wav_bytes([(rng.standard_normal(10 * sr) * 0.1).astype(np.float32) for _ in range(n_channels)], sr)
    payload = tile[tile.index(b"data") + 8 :]
    tiles = minutes * 6
    header = tile[: tile.index(b"data")]  # RIFF, its size, WAVE and the fmt chunk
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + len(payload) * tiles) + header[8:])
        fh.write(b"data" + struct.pack("<I", len(payload) * tiles))
        for _ in range(tiles):
            fh.write(payload)


def traced_peak(fn, *args) -> int:
    """Peak traced bytes of one call; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Traced peaks grow with the signal and the output, not with whole-signal
    float64 temporaries or whole decoded copies."""

    # Block buffers sized by a signal shorter than one block differ between
    # the two lengths; everything else must grow with the output alone.
    MARGIN = 4 * 2**20

    @pytest.mark.parametrize(
        "fn", [music_presence, lambda w: highpass(w, 60.0)], ids=["music_presence", "highpass"]
    )
    def test_peak_growth_from_two_to_eight_minutes(self, fn):
        rng = np.random.default_rng(8)
        peaks, signal_bytes = [], []
        for minutes in (2, 8):
            w = Waveform((rng.standard_normal(minutes * 60 * SR) * 0.1).astype(np.float32), SR)
            peaks.append(traced_peak(fn, w))
            signal_bytes.append(w.samples.nbytes)
        assert peaks[1] - peaks[0] < 2 * (signal_bytes[1] - signal_bytes[0])

    def test_resample_grows_with_its_output(self):
        rng = np.random.default_rng(9)
        resample(Waveform(np.ones(44100, np.float32), 44100), 16000)  # loads scipy untraced
        peaks, output_bytes = [], []
        for minutes in (2, 8):
            w = Waveform((rng.standard_normal(minutes * 60 * 44100) * 0.1).astype(np.float32), 44100)
            peaks.append(traced_peak(resample, w, 16000))
            output_bytes.append(minutes * 60 * 16000 * 4)
        assert peaks[1] - peaks[0] < output_bytes[1] - output_bytes[0] + self.MARGIN

    def test_split_on_silence_grows_with_its_frames(self):
        # The output and the per-frame levels take 8 bytes per 512-sample hop:
        # about 0.1 MB over these six minutes.
        rng = np.random.default_rng(10)
        peaks = []
        for minutes in (2, 8):
            w = Waveform((rng.standard_normal(minutes * 60 * SR) * 0.1).astype(np.float32), SR)
            peaks.append(traced_peak(split_on_silence, w))
        assert peaks[1] - peaks[0] < self.MARGIN

    def test_load_mono_grows_with_its_output(self, tmp_path):
        rng = np.random.default_rng(11)
        peaks, output_bytes = [], []
        for minutes in (2, 8):
            path = tmp_path / f"{minutes}.wav"
            left = (rng.standard_normal(minutes * 60 * SR) * 0.1).astype(np.float32)
            write_wav(path, [left, left[::-1]], SR, "pcm16")
            del left
            peaks.append(traced_peak(load_mono, path))
            output_bytes.append(minutes * 60 * SR * 4)
        assert peaks[1] - peaks[0] < output_bytes[1] - output_bytes[0] + self.MARGIN

    def test_load_mono_resampling_peak_does_not_grow_with_channels(self, tmp_path):
        # Each resampled block's input slice is decoded a 2**20-sample block
        # at a time, so eight channels hold no more than one.
        peaks = []
        for n_channels in (1, 8):
            path = tmp_path / f"{n_channels}.wav"
            write_tiled_pcm16(path, 1, 48000, n_channels, 18)
            load_mono(path, 16000)  # loads scipy untraced
            peaks.append(traced_peak(load_mono, path, 16000))
        assert peaks[1] - peaks[0] < self.MARGIN

    @pytest.mark.parametrize("sr, n_channels", [(44100, 2), (SR, 1)], ids=["44k_stereo", "16k_mono"])
    def test_conditioning_grows_with_its_16k_output(self, sr, n_channels, tmp_path):
        # A 44.1 kHz file goes into the resampler a decoded block at a time,
        # so it is never whole at its own rate; high-pass and gain write into
        # the 16 kHz output, so no second signal is made at either rate.
        cfg = PreprocessConfig()
        write_tiled_pcm16(tmp_path / "warm.wav", 1, sr, n_channels, 12)
        _conditioned(str(tmp_path / "warm.wav"), cfg)  # loads scipy untraced
        peaks, output_bytes = [], []
        for minutes in (2, 8):
            path = tmp_path / f"{minutes}.wav"
            write_tiled_pcm16(path, minutes, sr, n_channels, 12)
            peaks.append(traced_peak(_conditioned, str(path), cfg))
            output_bytes.append(minutes * 60 * 16000 * 4)
        assert peaks[1] - peaks[0] < output_bytes[1] - output_bytes[0] + self.MARGIN

    def test_highpass_in_place_peak_is_fixed(self):
        # Two float64 blocks, the cast input and the filtered output: 4 MB.
        highpass(Waveform(np.ones(100, np.float32), SR), 60.0)  # loads scipy untraced
        w = Waveform((np.random.default_rng(17).standard_normal(2 * 60 * SR) * 0.1).astype(np.float32), SR)
        assert traced_peak(highpass, w, 60.0, w.samples) < 8 * 2**20

    def test_music_presence_peak_is_fixed(self):
        # Flux and energy take 16 bytes a frame (0.24 MB at eight minutes);
        # the STFT's blocks about 6 MB.
        rng = np.random.default_rng(14)
        for minutes in (2, 8):
            w = Waveform((rng.standard_normal(minutes * 60 * SR) * 0.1).astype(np.float32), SR)
            assert traced_peak(music_presence, w) < 16 * 2**20, minutes

    def test_wav_bytes_peak_of_a_30s_chunk(self):
        # One float32 buffer, its int16 samples and the file's bytes.
        chunk = (np.random.default_rng(15).standard_normal(30 * SR) * 0.5).astype(np.float32)
        for encoding in ("pcm16", "float32"):
            assert traced_peak(wav_bytes, [chunk], SR, encoding) <= 2.5 * chunk.nbytes, encoding
