"""Waveform representation and per-sample DSP.

Covers downmix, polyphase resampling, peak normalization, high-pass
filtering, framed energy, silence splitting and the spectral-flux
music-presence heuristic. Everything here is a pure function: no global
state, safe to call concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .spans import TimeSpan

SILENCE_FLOOR_DB = -100.0
# Below this global frame level the input is treated as digital silence.
DIGITAL_SILENCE_DB = -80.0
# Samples per block wherever a whole-signal float64 temporary would otherwise
# be made (resampled output, whose input slices are down/up times as long;
# high-pass; framed RMS; the music-detection STFT): 2 MB of float64 each, so
# memory grows with the float32 signal alone.
_BLOCK_SAMPLES = 2**18
# The most taps a resampling filter may have, each a float64 temporary.
_MAX_TAPS = 2**21
_TAPS_PER_PHASE = 64  # resampling filter taps per phase of the upsampling factor


@dataclass
class Waveform:
    """Mono sample buffer with its sample rate.

    Samples are normalized real amplitudes in [-1, 1], stored as float32.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise ParameterError("Waveform samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ParameterError(f"sample_rate must be positive, got {self.sample_rate}")
        # NaN propagates to the minimum and an infinity is an extreme: no
        # whole-signal mask is made.
        if len(self.samples) and not (math.isfinite(self.samples.min()) and math.isfinite(self.samples.max())):
            raise ParameterError("Waveform samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate


def check_frame_params(frame_length: int, hop_length: int) -> None:
    """Raise unless both framing lengths are at least one sample."""
    if frame_length < 1 or hop_length < 1:
        raise ParameterError("frame_length and hop_length must be >= 1")


def _frame_view(x: np.ndarray, frame_length: int, hop_length: int) -> np.ndarray:
    """Left-aligned frames; empty (0, frame_length) array when the signal is too short."""
    check_frame_params(frame_length, hop_length)
    if len(x) < frame_length:
        return np.empty((0, frame_length), dtype=x.dtype)
    return np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop_length]


def downmix_mono(channels: list[np.ndarray], sample_rate: int) -> Waveform:
    """Average the channels into a mono waveform."""
    if not channels:
        raise StructuralError("need at least one channel")
    lengths = {len(c) for c in channels}
    if len(lengths) != 1:
        raise StructuralError(f"channel lengths differ: {sorted(lengths)}")
    # Summed in channel order in float32, the order and precision of a float32
    # mean over axis 0, in one buffer. Each channel is cast first: `+=` of a
    # float64 channel would add in float64.
    total = np.array(channels[0], dtype=np.float32)
    for c in channels[1:]:
        total += np.asarray(c, dtype=np.float32)
    total /= len(channels)
    return Waveform(total, sample_rate)


def _design_resample_filter(up: int, down: int) -> np.ndarray:
    """Kaiser-windowed sinc prototype for a polyphase resampler.

    Length is _TAPS_PER_PHASE * up, made odd so the group delay lands on the
    sample grid and no fractional shift survives a round trip.
    """
    ntaps = _TAPS_PER_PHASE * up + 1
    cutoff = 1.0 / max(up, down)  # relative to Nyquist of the upsampled rate
    k = np.arange(ntaps) - (ntaps - 1) / 2
    h = cutoff * np.sinc(cutoff * k) * np.kaiser(ntaps, 8.6)
    return h / h.sum()


def _polyphase_filter(h: np.ndarray, up: int, down: int) -> tuple[np.ndarray, int]:
    """The filter `scipy.signal.resample_poly` runs through `upfirdn` for window
    `h`: `h * up`, zero-padded in front so the kept outputs are centred, and the
    number of leading outputs it drops.

    Specific to `_design_resample_filter`'s `_TAPS_PER_PHASE * up + 1`-tap
    windows: these reach at least `31 * up + 1` upsampled samples past the last
    kept output, so `resample_poly`'s trailing zero padding is always empty and
    is not made.
    """
    half_len = (len(h) - 1) // 2
    n_pre_pad = down - half_len % down
    return np.concatenate((np.zeros(n_pre_pad), h * up)), (half_len + n_pre_pad) // down


def resample(w: Waveform, target_hz: int) -> Waveform:
    """Band-limited resampling to `target_hz` via a windowed-sinc polyphase filter.

    Equal byte for byte to `scipy.signal.resample_poly` on the whole signal
    in float64; see `resample_slices`, which reads slices of the signal.
    """
    if target_hz == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    out = resample_slices(lambda start, stop: w.samples[start:stop], len(w.samples), w.sample_rate, target_hz)
    return Waveform(out, target_hz)


def resample_slices(read: Callable[[int, int], np.ndarray], n_in: int, rate: int, target_hz: int) -> np.ndarray:
    """Resample `n_in` float32 samples at `rate` to one float32 signal at
    `target_hz`, computed one output block at a time from `read(start, stop)`,
    the input samples [start, stop) that the block sums over.

    Output j of `upfirdn` sums input samples up to (j * down) // up, over the
    filter's taps per phase, in input order; so an output block computed from
    the input slice that starts at a multiple of `down`, at least that many
    samples back, sums the same terms in the same order as on the whole
    signal, and the block size does not change a byte. Calls ascend in both
    ends; consecutive slices overlap by at most `history + down` samples.
    """
    if target_hz <= 0:
        raise ParameterError(f"target_hz must be positive, got {target_hz}")
    g = math.gcd(target_hz, rate)
    up, down = target_hz // g, rate // g
    ntaps = _TAPS_PER_PHASE * up + 1
    if ntaps > _MAX_TAPS:
        raise ParameterError(
            f"cannot resample {rate} Hz to {target_hz} Hz: the reduced ratio {up}/{down} "
            f"needs a {ntaps}-tap filter, over the {_MAX_TAPS}-sample bound"
        )
    from scipy import signal as sps  # on first use: a cold start loads no scipy

    n_out = -(-n_in * up // down)
    h, skip = _polyphase_filter(_design_resample_filter(up, down), up, down)
    history = -(-len(h) // up)  # input samples summed into each output
    out = np.empty(n_out, dtype=np.float32)
    step = max(1, _BLOCK_SAMPLES // up) * up  # a whole number of the upsampling factor
    for first in range(0, n_out, step):
        last = min(first + step, n_out)
        # Upsampled output j sits after input sample (j * down) // up.
        start = max(0, (first + skip) * down // up - history + 1) // down * down
        stop = min(n_in, (last - 1 + skip) * down // up + 1)
        lead = skip - start // down * up  # outputs of the slice before `first`
        x = np.asarray(read(start, stop), dtype=np.float64)
        out[first:last] = sps.upfirdn(h, x, up, down)[first + lead : last + lead]
    return out


def peak_normalize(w: Waveform, target_peak: float, out: np.ndarray | None = None) -> Waveform:
    """Scale so max |sample| equals `target_peak`; all-zero input is returned
    unchanged. The samples are written into `out` (it may be `w.samples`)
    when given, else into a new array."""
    if not (0.0 < target_peak <= 1.0):
        raise ParameterError(f"target_peak must be in (0, 1], got {target_peak}")
    # The largest magnitude without an |x| copy of the signal.
    peak = max(float(w.samples.max()), -float(w.samples.min())) if len(w.samples) else 0.0
    # A gain of 1 leaves every sample's bits as they are.
    gain = np.float32(target_peak / peak if peak else 1.0)
    return Waveform(np.multiply(w.samples, gain, out=out), w.sample_rate)


def highpass_coefficients(cutoff_hz: float, sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Biquad (b, a) for a second-order Butterworth high-pass, bilinear transform.

    Cookbook formulation with Q = 1/sqrt(2), prewarped at the cutoff.
    """
    if not (0.0 < cutoff_hz < sample_rate / 2):
        raise ParameterError(
            f"cutoff must lie in (0, Nyquist) = (0, {sample_rate / 2}), got {cutoff_hz}"
        )
    w0 = 2.0 * math.pi * cutoff_hz / sample_rate
    q = 1.0 / math.sqrt(2.0)
    alpha = math.sin(w0) / (2.0 * q)
    cosw = math.cos(w0)
    b = np.array([(1 + cosw) / 2, -(1 + cosw), (1 + cosw) / 2])
    a = np.array([1 + alpha, -2 * cosw, 1 - alpha])
    return b / a[0], a / a[0]


def highpass(w: Waveform, cutoff_hz: float, out: np.ndarray | None = None) -> Waveform:
    """Apply the Butterworth high-pass once, forward (causal) direction.

    Filtered in float64 one block at a time, the filter state carried across
    block edges, into one float32 output: `out` (it may be `w.samples`) when
    given, else a new array.
    """
    from scipy import signal as sps  # on first use: a cold start loads no scipy

    b, a = highpass_coefficients(cutoff_hz, w.sample_rate)
    if out is None:
        out = np.empty(len(w.samples), dtype=np.float32)
    zi = np.zeros(max(len(a), len(b)) - 1)
    for start in range(0, len(out), _BLOCK_SAMPLES):
        block = w.samples[start : start + _BLOCK_SAMPLES]
        out[start : start + len(block)], zi = sps.lfilter(b, a, block.astype(np.float64), zi=zi)
    return Waveform(out, w.sample_rate)


def frame_rms_db(w: Waveform, frame_length: int, hop_length: int) -> np.ndarray:
    """Per-frame RMS level in dB, floored at -100 dB for silent frames; frame
    i covers samples [i * hop_length, i * hop_length + frame_length).

    Squared in float64 a block of frames at a time; each block's frames are
    views of its squares, so memory grows with neither the signal nor the
    overlap, and each frame's mean is the same reduction as over the squares
    of the whole signal.
    """
    x = w.samples
    n_frames = len(_frame_view(x, frame_length, hop_length))
    mean_squares = np.empty(n_frames)
    step = max(1, _BLOCK_SAMPLES // hop_length)
    buffer = np.empty(min(len(x), (step - 1) * hop_length + frame_length))
    for first in range(0, n_frames, step):
        last = min(first + step, n_frames)
        block = x[first * hop_length : (last - 1) * hop_length + frame_length]
        squares = np.square(block, out=buffer[: len(block)], dtype=np.float64)
        mean_squares[first:last] = np.mean(_frame_view(squares, frame_length, hop_length), axis=1)
    rms = np.sqrt(mean_squares)
    values = np.full(len(rms), SILENCE_FLOOR_DB)
    nonzero = rms > 0
    values[nonzero] = np.maximum(20.0 * np.log10(rms[nonzero]), SILENCE_FLOOR_DB)
    return values


def split_on_silence(
    w: Waveform,
    top_db: float = 25.0,
    frame_length: int = 2048,
    hop_length: int = 512,
) -> list[TimeSpan]:
    """Maximal non-silent intervals, thresholded `top_db` below the loudest frame.

    Edges are at frame granularity. A run that includes the final frame is
    extended to the end of the signal, so a uniformly loud input maps to a
    single span covering the full duration. If the loudest frame is itself
    at or below the digital-silence floor, the input is treated as silent.
    """
    if not top_db > 0:
        raise ParameterError(f"top_db must be positive, got {top_db}")
    levels = frame_rms_db(w, frame_length, hop_length)
    if len(levels) == 0:
        return []
    peak = levels.max()
    if peak <= DIGITAL_SILENCE_DB:
        return []
    nonsilent = levels > peak - top_db

    # Runs of non-silent frames: padding with silence makes every rise a
    # start and every fall the (exclusive) end of one run.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], nonsilent.astype(np.int8), [0]))))
    starts, ends = edges[::2], edges[1::2]
    n = len(w.samples)
    start_samples = starts * hop_length
    end_samples = np.minimum((ends - 1) * hop_length + frame_length, n)
    end_samples[ends == len(levels)] = n
    # Overlapping analysis frames can push a span's tail past the next span's
    # head; cap it so the output stays disjoint.
    end_samples[:-1] = np.minimum(end_samples[:-1], start_samples[1:])
    sr = w.sample_rate
    return [TimeSpan(a / sr, b / sr) for a, b in zip(start_samples.tolist(), end_samples.tolist())]


def _flux_and_energy(w: Waveform, frame_length: int, hop_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive frame-to-frame magnitude-spectrum change (flux[0] = 0) and the
    magnitude sum of each Hann-windowed, left-aligned frame.

    The spectrum is taken a block of frames at a time; the last magnitude
    row of each block is carried to the next for the flux difference.
    """
    frames = _frame_view(w.samples, frame_length, hop_length)
    n = len(frames)
    flux, energy = np.zeros(n), np.zeros(n)
    if n == 0:
        return flux, energy
    window = np.hanning(frame_length)
    step = max(1, _BLOCK_SAMPLES // frame_length)
    previous = None
    for start in range(0, n, step):
        block = frames[start : start + step].astype(np.float64)
        block *= window
        mags = np.abs(np.fft.rfft(block, axis=1))
        energy[start : start + len(mags)] = mags.sum(axis=1)
        diffs = np.diff(mags, axis=0, prepend=mags[:1] if previous is None else previous)
        np.maximum(diffs, 0.0, out=diffs)
        flux[start : start + len(mags)] = diffs.sum(axis=1)
        previous = mags[-1:]
    return flux, energy


@dataclass
class MusicDetectConfig:
    """Calibration constants of the spectral-flux music-presence heuristic."""

    frame_length: int = 2048
    hop_length: int = 512
    flux_threshold: float = 0.08     # median normalized flux a window must exceed
    peak_rate_threshold: float = 1.5  # onset peaks per second a window must exceed
    peak_min_height: float = 0.04    # normalized-flux height for a local max to count
    decision_threshold: float = 0.5  # fraction of music votes that flips is_music
    min_duration: float = 3.0        # shorter inputs are flagged low-confidence

    def __post_init__(self):
        check_frame_params(self.frame_length, self.hop_length)


@dataclass
class MusicPresence:
    score: float
    is_music: bool
    low_confidence: bool = False


def music_presence(w: Waveform, config: MusicDetectConfig | None = None) -> MusicPresence:
    """Score the fraction of one-second windows whose flux statistics look musical.

    Flux is normalized by frame spectral energy, so the score is invariant
    under pure rescaling of the waveform (peak normalization included). The
    frame and hop lengths count samples, so the thresholds hold for the
    signal they were calibrated on: the conditioned one every CLI command
    analyses (16 kHz by default, high-passed, peak-normalized).
    """
    cfg = config or MusicDetectConfig()
    flux, energy = _flux_and_energy(w, cfg.frame_length, cfg.hop_length)
    low_confidence = w.duration_seconds < cfg.min_duration
    if len(flux) < 2:
        return MusicPresence(0.0, False, low_confidence)

    nflux = np.divide(flux, energy, out=np.zeros_like(flux), where=energy > 1e-12)

    # One row per whole one-second window (the remainder frames are dropped);
    # a signal shorter than one window is a single, low-confidence row.
    frames_per_second = w.sample_rate / cfg.hop_length
    window_frames = max(2, int(round(frames_per_second)))
    width = min(window_frames, len(nflux))
    rows = nflux[: len(nflux) // width * width].reshape(-1, width)
    interior = rows[:, 1:-1]
    is_peak = (interior > rows[:, :-2]) & (interior >= rows[:, 2:]) & (interior >= cfg.peak_min_height)
    peak_rate = is_peak.sum(axis=1) * frames_per_second / width
    votes = (np.median(rows, axis=1) > cfg.flux_threshold) & (peak_rate > cfg.peak_rate_threshold)
    score = float(np.count_nonzero(votes) / len(votes))
    return MusicPresence(score, score > cfg.decision_threshold, bool(low_confidence or width < window_frames))
