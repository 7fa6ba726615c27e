"""RIFF/WAVE reader and writer.

Supports 16-bit PCM and IEEE float32, mono or multichannel, little-endian.
Compressed or otherwise exotic codecs are rejected with a clear error.

Reading seeks through the chunk headers of an open file (bytes are read
through `io.BytesIO`), then decodes the frames it needs, a slice at a time:
`read_wav` into one float32 (frames, channels) matrix, and `mono_stream`
into float32 mono blocks, resampled or not, which `load_mono` joins; so a
file's raw bytes and its decoded channels are never held whole at once.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .audio import Waveform, downmix_mono, join_blocks, resample_slices, resampled_length
from .errors import FormatError, ParameterError
from .interchange import write_atomic

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
# Samples (frames times channels) decoded per block: 0.5 MB of PCM16 and
# 1 MB of float32.
_BLOCK_SAMPLES = 2**18


@dataclass(frozen=True)
class _Layout:
    """Where a WAV file's samples are and how they are stored."""

    dtype: str        # numpy dtype of one stored sample
    pcm: bool         # integer samples, scaled by 1/32768 on decode
    n_channels: int
    sample_rate: int
    data_start: int   # file offset of the first sample
    n_frames: int     # whole frames; a trailing partial frame is ignored


def _opened(data_or_path):
    if isinstance(data_or_path, (bytes, bytearray)):
        return nullcontext(io.BytesIO(data_or_path))
    return open(data_or_path, "rb")


def _read_layout(fh) -> _Layout:
    """Walk the chunk headers of the open, seekable file `fh`; a later fmt or
    data chunk replaces an earlier one."""
    if not fh.seekable():
        raise FormatError("not a seekable file")
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    head = fh.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", _read_exact(fh, 8, pos))
        present = min(chunk_size, size - pos - 8)  # body bytes the file holds
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError("fmt chunk too short", offset=pos)
            if present < chunk_size:
                raise FormatError("fmt chunk truncated", offset=pos)
            body = _read_exact(fh, min(chunk_size, 26), pos)  # up to the extensible subformat
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if chunk_size < 40:
                    raise FormatError("extensible fmt chunk too short", offset=pos)
                (sub_format,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_format,) + fmt[1:]
            if fmt[2] == 0:
                raise FormatError("sample rate must be >= 1", offset=pos)
        elif chunk_id == b"data":
            if present < chunk_size:
                raise FormatError("data chunk truncated", offset=pos + 8 + present)
            payload = (pos, chunk_size)
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise FormatError("missing fmt chunk")
    if payload is None:
        raise FormatError("missing data chunk")

    format_code, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise FormatError("channel count must be >= 1")
    if format_code == _FORMAT_PCM:
        if bits != 16:
            raise FormatError(f"unsupported PCM bit depth {bits}: only 16-bit PCM is supported")
        dtype = "<i2"
    elif format_code == _FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise FormatError(f"unsupported float bit depth {bits}: only float32 is supported")
        dtype = "<f4"
    else:
        raise FormatError(
            f"unsupported codec 0x{format_code:04x}: only PCM 16-bit and IEEE float32"
        )
    payload_offset, payload_len = payload
    if payload_len % (bits // 8):
        raise FormatError(
            f"data chunk of {payload_len} bytes is not a whole number of {bits}-bit samples",
            offset=payload_offset,
        )
    n_frames = payload_len // (bits // 8) // n_channels
    return _Layout(dtype, format_code == _FORMAT_PCM, n_channels, sample_rate, payload_offset + 8, n_frames)


def _read_exact(fh, n: int, chunk_offset: int) -> bytes:
    data = fh.read(n)
    if len(data) < n:  # the file shrank since its size was taken
        raise FormatError("file truncated while reading", offset=chunk_offset)
    return data


def _frames(fh, layout: _Layout, first: int, stop: int) -> np.ndarray:
    """Frames [first, stop) as a float32 (frames, channels) array of its own.
    Float32 samples are read into it as stored, PCM ones cast and divided by
    32768 in float32."""
    frame_bytes = layout.n_channels * np.dtype(layout.dtype).itemsize
    stored = np.empty((stop - first, layout.n_channels), dtype=layout.dtype)
    fh.seek(layout.data_start + first * frame_bytes)
    got = fh.readinto(stored.reshape(-1).view(np.uint8))
    if got < stored.nbytes:  # the file shrank since its size was taken
        raise FormatError("data chunk truncated", offset=layout.data_start + first * frame_bytes + got)
    if not layout.pcm:
        return stored
    decoded = stored.astype(np.float32)
    decoded /= 32768.0
    return decoded


def _decode_blocks(layout: _Layout, first: int, stop: int) -> Iterator[tuple[int, int]]:
    """Frames [first, stop) as [a, b) decode blocks of `_BLOCK_SAMPLES` samples, in order."""
    step = max(1, _BLOCK_SAMPLES // layout.n_channels)
    for a in range(first, stop, step):
        yield a, min(a + step, stop)


def read_wav(data_or_path) -> tuple[list[np.ndarray], int]:
    """Read a WAV file; returns (channels, sample_rate) with float32 channels in [-1, 1]."""
    with _opened(data_or_path) as fh:
        layout = _read_layout(fh)
        frames = np.empty((layout.n_frames, layout.n_channels), dtype=np.float32)
        for first, stop in _decode_blocks(layout, 0, layout.n_frames):
            frames[first:stop] = _frames(fh, layout, first, stop)
    # Each channel is a view of the one decoded (frames, channels) matrix.
    return list(frames.T), layout.sample_rate


def load_mono(path, target_hz: int = 0) -> Waveform:
    """Read a WAV file and downmix it to a mono waveform, resampled to
    `target_hz` when that is nonzero and not the file's rate: the blocks of
    `mono_stream`, joined.

    Equal byte for byte to `downmix_mono(*read_wav(path))`, resampled with
    `resample`.
    """
    with mono_stream(path, target_hz) as (rate, n, blocks):
        return Waveform(join_blocks(blocks, n), rate)


@contextmanager
def mono_stream(path, target_hz: int = 0) -> Iterator[tuple[int, int, Iterator[np.ndarray]]]:
    """Open a WAV file as (sample rate, sample count, float32 blocks in
    order) of its mono downmix, resampled to `target_hz` when that is
    nonzero and not the file's rate; the blocks are read while the file is
    open, inside the `with` block.

    `downmix_mono` runs on each decoded block of frames. When resampling,
    `resample_slices` reads from the file only the frames each output block
    sums over, so the file's own rate is never held whole.
    """
    with _opened(path) as fh:
        layout = _read_layout(fh)
        rate = layout.sample_rate

        def mono(first: int, stop: int) -> np.ndarray:
            # Decoded a block at a time: memory does not grow with the channel
            # count. Non-finite float32 samples make no warning here: a
            # finiteness check rejects them.
            samples = np.empty(stop - first, dtype=np.float32)
            with np.errstate(invalid="ignore", over="ignore"):
                for a, b in _decode_blocks(layout, first, stop):
                    samples[a - first : b - first] = downmix_mono(list(_frames(fh, layout, a, b).T), rate).samples
            return samples

        if target_hz and target_hz != rate:
            n = resampled_length(layout.n_frames, rate, target_hz)
            yield target_hz, n, resample_slices(mono, layout.n_frames, rate, target_hz)
        else:
            yield rate, layout.n_frames, (mono(a, b) for a, b in _decode_blocks(layout, 0, layout.n_frames))


def wav_bytes(channels: list[np.ndarray], sample_rate: int, encoding: str = "pcm16") -> bytes:
    """Encode channels as a WAV byte string (`encoding` is 'pcm16' or 'float32')."""
    if not channels:
        raise ParameterError("need at least one channel")
    lengths = {len(c) for c in channels}
    if len(lengths) != 1:
        raise ParameterError("channel lengths differ")
    # One interleaved float32 buffer of this call's own; PCM16 is clipped,
    # scaled and rounded in it, and the file is joined from its samples once.
    payload = np.stack([np.asarray(c, dtype=np.float32) for c in channels], axis=1)
    n_channels = payload.shape[1]

    if encoding == "pcm16":
        format_code, bits = _FORMAT_PCM, 16
        np.clip(payload, -1.0, 1.0, out=payload)
        payload *= 32767.0
        payload = np.round(payload, out=payload).astype("<i2")
    elif encoding == "float32":
        format_code, bits = _FORMAT_IEEE_FLOAT, 32
        payload = payload.astype("<f4", copy=False)
    else:
        raise ParameterError(f"unknown encoding {encoding!r}: use 'pcm16' or 'float32'")

    block_align = n_channels * bits // 8
    byte_rate = sample_rate * block_align
    fmt = struct.pack("<HHIIHH", format_code, n_channels, sample_rate, byte_rate, block_align, bits)
    # Samples take 2 or 4 bytes, so the data chunk needs no pad byte.
    head = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", payload.nbytes)
    return b"".join((b"RIFF", struct.pack("<I", len(head) + payload.nbytes), head, payload))


def write_wav(path, channels_or_waveform, sample_rate: int | None = None, encoding: str = "pcm16") -> None:
    """Write a WAV file atomically (temp file + rename)."""
    if isinstance(channels_or_waveform, Waveform):
        channels = [channels_or_waveform.samples]
        sample_rate = channels_or_waveform.sample_rate
    else:
        channels = channels_or_waveform
        if sample_rate is None:
            raise ParameterError("sample_rate is required when writing raw channels")
    write_atomic(path, wav_bytes(channels, sample_rate, encoding), ".wav.tmp")
