"""Signals and per-sample DSP.

Covers downmix, polyphase resampling, peak normalization, high-pass
filtering, framed energy, silence splitting and the spectral-flux
music-presence heuristic. A signal is a `Waveform`, held in memory, or a
`SpooledSignal`, float32 samples written once to an unnamed temporary file
and scaled as they are read back by a gain fixed when it is written. The
analyses and the chunk writer read either through `read(start, stop)`, a
block of frames at a time, and resampling and high-pass turn float32 blocks
into float32 blocks, so a long recording never needs to be held whole. No
global state: the functions are safe to call concurrently, and a spooled
signal reads by position, so any thread or forked process may read it.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .spans import TimeSpan

SILENCE_FLOOR_DB = -100.0
# Below this global frame level the input is treated as digital silence.
DIGITAL_SILENCE_DB = -80.0
# Samples per block wherever a whole-signal temporary would otherwise be made
# (resampled output, whose input slices are down/up times as long; high-pass;
# framed RMS; the music-detection STFT): 2 MB of float64 each, so memory does
# not grow with the signal.
_BLOCK_SAMPLES = 2**18
# The most taps a resampling filter may have, each a float64 temporary.
_MAX_TAPS = 2**21
_TAPS_PER_PHASE = 64  # resampling filter taps per phase of the upsampling factor
_READ_SAMPLES = 2**28  # per positional read of a spool: Linux reads at most about 2 GB a call


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
        _finite_extremes(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop), a view."""
        return self.samples[start:stop]


class SpooledSignal:
    """A mono signal written once, from its float32 blocks in order, to an
    unnamed `tempfile.TemporaryFile` in the standard temp dir: 4 bytes a
    sample. `read` reads by position, so any process may read at once, and
    multiplies each slice by `gain` in float32, fixed when the last block is
    written: `peak_normalize`'s gain for a nonzero `peak_target`, else 1. The
    file is gone once closed (by `close`, the `with` block, or a block that
    fails to come or is not finite) or once the process dies.
    """

    def __init__(self, blocks: Iterable[np.ndarray], sample_rate: int, peak_target: float = 0.0):
        if sample_rate <= 0:
            raise ParameterError(f"sample_rate must be positive, got {sample_rate}")
        self.sample_rate = sample_rate
        self._length, low, high = 0, 0.0, 0.0
        self._file = tempfile.TemporaryFile()
        try:
            for block in blocks:
                block_low, block_high = _finite_extremes(block)
                low, high = min(low, block_low), max(high, block_high)
                self._file.write(np.ascontiguousarray(block, dtype=np.float32))
                self._length += len(block)
            self._file.flush()
            self.gain = _peak_gain(peak_target, low, high) if peak_target else np.float32(1.0)
        except BaseException:
            self._file.close()
            raise

    def __len__(self) -> int:
        return self._length

    @property
    def duration_seconds(self) -> float:
        return self._length / self.sample_rate

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop) of the signal (0 <= start <= stop), times the gain."""
        out = np.empty(max(0, min(stop, self._length) - start), dtype=np.float32)
        for at in range(0, len(out), _READ_SAMPLES):
            os.preadv(self._file.fileno(), [out[at : at + _READ_SAMPLES]], 4 * (start + at))
        out *= self.gain
        return out

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "SpooledSignal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# What the analyses and the chunk writer read: both give `read(start, stop)`,
# `len`, `sample_rate` and `duration_seconds`.
Signal = Waveform | SpooledSignal


def _finite_extremes(x: np.ndarray) -> tuple[float, float]:
    """(min, max) of an array, (0, 0) when empty; ParameterError unless every
    sample is finite. NaN propagates to the minimum and an infinity is an
    extreme: no mask of the array is made."""
    if not len(x):
        return 0.0, 0.0
    low, high = float(x.min()), float(x.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ParameterError("Waveform samples must be finite")
    return low, high


def _peak_gain(target_peak: float, low: float, high: float) -> np.float32:
    """The float32 gain that takes the largest magnitude in [low, high] to
    `target_peak`; 1, which leaves every sample's bits as they are, for 0."""
    if not (0.0 < target_peak <= 1.0):
        raise ParameterError(f"target_peak must be in (0, 1], got {target_peak}")
    peak = max(high, -low)
    return np.float32(target_peak / peak if peak else 1.0)


def join_blocks(blocks: Iterable[np.ndarray], n: int) -> np.ndarray:
    """One float32 array of `n` samples from the blocks that make it up, in order."""
    out = np.empty(n, dtype=np.float32)
    at = 0
    for block in blocks:
        out[at : at + len(block)] = block
        at += len(block)
    return out


def check_frame_params(frame_length: int, hop_length: int) -> None:
    """Raise unless both framing lengths are at least one sample."""
    if frame_length < 1 or hop_length < 1:
        raise ParameterError("frame_length and hop_length must be >= 1")


def _frame_count(n: int, frame_length: int, hop_length: int) -> int:
    """Left-aligned frames of `frame_length` at `hop_length` in `n` samples."""
    check_frame_params(frame_length, hop_length)
    return (n - frame_length) // hop_length + 1 if n >= frame_length else 0


def _frame_view(x: np.ndarray, frame_length: int, hop_length: int) -> np.ndarray:
    """Left-aligned frames; empty (0, frame_length) array when the signal is too short."""
    if _frame_count(len(x), frame_length, hop_length) == 0:
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
    in float64: the blocks of `resample_slices`, joined.
    """
    if target_hz == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    blocks = resample_slices(w.read, len(w), w.sample_rate, target_hz)
    return Waveform(join_blocks(blocks, resampled_length(len(w), w.sample_rate, target_hz)), target_hz)


def resampled_length(n_in: int, rate: int, target_hz: int) -> int:
    """Samples that `resample_slices` makes of `n_in` samples at `rate`."""
    return -(-n_in * target_hz // rate)


def resample_slices(read: Callable[[int, int], np.ndarray], n_in: int, rate: int, target_hz: int) -> Iterator[np.ndarray]:
    """Resample `n_in` float32 samples at `rate` to `target_hz`: float32
    output blocks in order, each computed from `read(start, stop)`, the
    input samples [start, stop) that the block sums over.

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

    n_out = resampled_length(n_in, rate, target_hz)
    h, skip = _polyphase_filter(_design_resample_filter(up, down), up, down)
    history = -(-len(h) // up)  # input samples summed into each output
    step = max(1, _BLOCK_SAMPLES // up) * up  # a whole number of the upsampling factor
    for first in range(0, n_out, step):
        last = min(first + step, n_out)
        # Upsampled output j sits after input sample (j * down) // up.
        start = max(0, (first + skip) * down // up - history + 1) // down * down
        stop = min(n_in, (last - 1 + skip) * down // up + 1)
        lead = skip - start // down * up  # outputs of the slice before `first`
        x = np.asarray(read(start, stop), dtype=np.float64)
        # A sum past float32's range casts to inf, which a finiteness check rejects.
        with np.errstate(over="ignore"):
            block = sps.upfirdn(h, x, up, down)[first + lead : last + lead].astype(np.float32)
        yield block


def peak_normalize(w: Waveform, target_peak: float) -> Waveform:
    """Scale so max |sample| equals `target_peak`; all-zero input is returned
    unchanged."""
    return Waveform(w.samples * _peak_gain(target_peak, *_finite_extremes(w.samples)), w.sample_rate)


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


def highpass(w: Waveform, cutoff_hz: float) -> Waveform:
    """Apply the Butterworth high-pass once, forward (causal) direction: the
    blocks of `highpass_blocks`, joined."""
    return Waveform(join_blocks(highpass_blocks([w.samples], cutoff_hz, w.sample_rate), len(w)), w.sample_rate)


def highpass_blocks(blocks: Iterable[np.ndarray], cutoff_hz: float, sample_rate: int) -> Iterator[np.ndarray]:
    """The high-pass of a signal given as float32 blocks in order, as float32
    blocks: filtered in float64 at most `_BLOCK_SAMPLES` samples at a time,
    the filter state carried across block edges, so no block length
    changes a byte."""
    from scipy import signal as sps  # on first use: a cold start loads no scipy

    b, a = highpass_coefficients(cutoff_hz, sample_rate)
    zi = np.zeros(max(len(a), len(b)) - 1)
    for block in blocks:
        for start in range(0, len(block), _BLOCK_SAMPLES):
            filtered, zi = sps.lfilter(b, a, block[start : start + _BLOCK_SAMPLES].astype(np.float64), zi=zi)
            yield filtered.astype(np.float32)


def frame_rms_db(w: Signal, frame_length: int, hop_length: int) -> np.ndarray:
    """Per-frame RMS level in dB, floored at -100 dB for silent frames; frame
    i covers samples [i * hop_length, i * hop_length + frame_length).

    Read and squared in float64 a block of frames at a time; each block's
    frames are views of its squares, so memory grows with neither the signal
    nor the overlap, and each frame's mean is the same reduction as over the
    squares of the whole signal.
    """
    n_frames = _frame_count(len(w), frame_length, hop_length)
    mean_squares = np.empty(n_frames)
    step = max(1, _BLOCK_SAMPLES // hop_length)
    buffer = np.empty(min(len(w), (step - 1) * hop_length + frame_length))
    for first in range(0, n_frames, step):
        last = min(first + step, n_frames)
        block = w.read(first * hop_length, (last - 1) * hop_length + frame_length)
        squares = np.square(block, out=buffer[: len(block)], dtype=np.float64)
        mean_squares[first:last] = np.mean(_frame_view(squares, frame_length, hop_length), axis=1)
    rms = np.sqrt(mean_squares)
    values = np.full(len(rms), SILENCE_FLOOR_DB)
    nonzero = rms > 0
    values[nonzero] = np.maximum(20.0 * np.log10(rms[nonzero]), SILENCE_FLOOR_DB)
    return values


def split_on_silence(
    w: Signal,
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
    n = len(w)
    start_samples = starts * hop_length
    end_samples = np.minimum((ends - 1) * hop_length + frame_length, n)
    end_samples[ends == len(levels)] = n
    # Overlapping analysis frames can push a span's tail past the next span's
    # head; cap it so the output stays disjoint.
    end_samples[:-1] = np.minimum(end_samples[:-1], start_samples[1:])
    sr = w.sample_rate
    return [TimeSpan(a / sr, b / sr) for a, b in zip(start_samples.tolist(), end_samples.tolist())]


def _flux_and_energy(w: Signal, frame_length: int, hop_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive frame-to-frame magnitude-spectrum change (flux[0] = 0) and the
    magnitude sum of each Hann-windowed, left-aligned frame.

    The frames are read and their spectrum taken a block of frames at a
    time; the last magnitude row of each block is carried to the next for
    the flux difference.
    """
    n = _frame_count(len(w), frame_length, hop_length)
    flux, energy = np.zeros(n), np.zeros(n)
    if n == 0:
        return flux, energy
    window = np.hanning(frame_length)
    step = max(1, _BLOCK_SAMPLES // frame_length)
    previous = None
    for start in range(0, n, step):
        stop = min(start + step, n)
        x = w.read(start * hop_length, (stop - 1) * hop_length + frame_length)
        block = _frame_view(x, frame_length, hop_length).astype(np.float64)
        block *= window
        mags = np.abs(np.fft.rfft(block, axis=1))
        energy[start:stop] = mags.sum(axis=1)
        diffs = np.diff(mags, axis=0, prepend=mags[:1] if previous is None else previous)
        np.maximum(diffs, 0.0, out=diffs)
        flux[start:stop] = diffs.sum(axis=1)
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


def music_presence(w: Signal, config: MusicDetectConfig | None = None) -> MusicPresence:
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
