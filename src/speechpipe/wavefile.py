"""RIFF/WAVE reader and writer.

Supports 16-bit PCM and IEEE float32, mono or multichannel, little-endian.
Compressed or otherwise exotic codecs are rejected with a clear error.
"""

from __future__ import annotations

import struct

import numpy as np

from .audio import Waveform, downmix_mono
from .errors import FormatError, ParameterError
from .interchange import write_atomic

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE


def read_wav(data_or_path) -> tuple[list[np.ndarray], int]:
    """Read a WAV file; returns (channels, sample_rate) with float32 channels in [-1, 1]."""
    if isinstance(data_or_path, (bytes, bytearray)):
        data = bytes(data_or_path)
    else:
        with open(data_or_path, "rb") as fh:
            data = fh.read()

    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError("fmt chunk too short", offset=pos)
            if len(body) < chunk_size:
                raise FormatError("fmt chunk truncated", offset=pos)
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if chunk_size < 40:
                    raise FormatError("extensible fmt chunk too short", offset=pos)
                (sub_format,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_format,) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError("data chunk truncated", offset=pos + 8 + len(body))
            payload, payload_offset = body, pos
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
    if len(payload) % (bits // 8):
        raise FormatError(
            f"data chunk of {len(payload)} bytes is not a whole number of {bits}-bit samples",
            offset=payload_offset,
        )
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float32)
    if format_code == _FORMAT_PCM:
        samples /= 32768.0

    usable = (len(samples) // n_channels) * n_channels
    frames = samples[:usable].reshape(-1, n_channels)
    return [np.ascontiguousarray(frames[:, c]) for c in range(n_channels)], sample_rate


def load_mono(path) -> Waveform:
    """Read a WAV file and downmix to a mono waveform."""
    channels, sample_rate = read_wav(path)
    return downmix_mono(channels, sample_rate)


def wav_bytes(channels: list[np.ndarray], sample_rate: int, encoding: str = "pcm16") -> bytes:
    """Encode channels as a WAV byte string (`encoding` is 'pcm16' or 'float32')."""
    if not channels:
        raise ParameterError("need at least one channel")
    lengths = {len(c) for c in channels}
    if len(lengths) != 1:
        raise ParameterError("channel lengths differ")
    frames = np.stack([np.asarray(c, dtype=np.float32) for c in channels], axis=1)

    if encoding == "pcm16":
        format_code, bits = _FORMAT_PCM, 16
        clipped = np.clip(frames, -1.0, 1.0)
        payload = (clipped * 32767.0).round().astype("<i2").tobytes()
    elif encoding == "float32":
        format_code, bits = _FORMAT_IEEE_FLOAT, 32
        payload = frames.astype("<f4").tobytes()
    else:
        raise ParameterError(f"unknown encoding {encoding!r}: use 'pcm16' or 'float32'")

    n_channels = frames.shape[1]
    block_align = n_channels * bits // 8
    byte_rate = sample_rate * block_align
    fmt = struct.pack("<HHIIHH", format_code, n_channels, sample_rate, byte_rate, block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


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
