from __future__ import annotations

import struct

import numpy as np
import pytest

from speechpipe import FormatError, Waveform, load_mono, read_wav, wav_bytes, write_wav
from synth import SR, tone


def test_pcm16_round_trip():
    x = tone(440, 0.25)
    data = wav_bytes([x], SR, "pcm16")
    channels, rate = read_wav(data)
    assert rate == SR
    assert len(channels) == 1
    assert np.max(np.abs(channels[0] - x)) < 1.0 / 32767


def test_float32_round_trip_exact():
    x = tone(440, 0.25, amplitude=0.31)
    data = wav_bytes([x], SR, "float32")
    channels, rate = read_wav(data)
    assert np.array_equal(channels[0], x)


def test_multichannel_preserved():
    left, right = tone(300, 0.1), tone(700, 0.1)
    channels, rate = read_wav(wav_bytes([left, right], SR, "float32"))
    assert len(channels) == 2
    assert np.array_equal(channels[0], left)
    assert np.array_equal(channels[1], right)


def test_rejects_non_riff():
    with pytest.raises(FormatError, match="RIFF"):
        read_wav(b"OggS" + b"\x00" * 40)


def test_rejects_compressed_codec():
    data = bytearray(wav_bytes([tone(440, 0.05)], SR, "pcm16"))
    # Patch the format code to MP3 (0x0055).
    fmt_at = data.index(b"fmt ") + 8
    struct.pack_into("<H", data, fmt_at, 0x0055)
    with pytest.raises(FormatError, match="0x0055"):
        read_wav(bytes(data))


def test_rejects_24bit_pcm():
    data = bytearray(wav_bytes([tone(440, 0.05)], SR, "pcm16"))
    fmt_at = data.index(b"fmt ") + 8
    struct.pack_into("<H", data, fmt_at + 14, 24)
    with pytest.raises(FormatError, match="bit depth"):
        read_wav(bytes(data))


def test_write_and_load_mono(tmp_path):
    path = tmp_path / "x.wav"
    w = Waveform(tone(440, 0.2), SR)
    write_wav(path, w, encoding="float32")
    loaded = load_mono(path)
    assert loaded.sample_rate == SR
    assert np.array_equal(loaded.samples, w.samples)


def test_load_mono_downmixes(tmp_path):
    path = tmp_path / "stereo.wav"
    write_wav(path, [np.full(100, 0.2, np.float32), np.full(100, 0.6, np.float32)], SR, "float32")
    w = load_mono(path)
    assert np.allclose(w.samples, 0.4, atol=1e-7)


def test_truncated_fmt_chunk_located():
    data = wav_bytes([tone(440, 0.05)], SR, "pcm16")
    with pytest.raises(FormatError, match=r"fmt chunk truncated \(byte offset 12\)"):
        read_wav(data[:30])


def test_truncated_extensible_fmt_chunk_located():
    data = bytearray(wav_bytes([tone(440, 0.05)], SR, "pcm16"))
    fmt_at = data.index(b"fmt ")
    struct.pack_into("<I", data, fmt_at + 4, 40)
    struct.pack_into("<H", data, fmt_at + 8, 0xFFFE)
    with pytest.raises(FormatError, match=r"fmt chunk truncated \(byte offset 12\)"):
        read_wav(bytes(data[:50]))


def extensible(data: bytes, cb_size: int = 22) -> bytes:
    """`data` (a plain WAV) with its fmt chunk rewritten as WAVE_FORMAT_EXTENSIBLE:
    cbSize, valid bits, channel mask and the codec as the subformat GUID's
    first two bytes; a cbSize of 0 leaves the 18-byte chunk too short."""
    fmt_at = data.index(b"fmt ")
    (size,) = struct.unpack_from("<I", data, fmt_at + 4)
    fmt = bytearray(data[fmt_at + 8 : fmt_at + 8 + size])
    code, bits = struct.unpack_from("<H", fmt, 0)[0], struct.unpack_from("<H", fmt, 14)[0]
    struct.pack_into("<H", fmt, 0, 0xFFFE)
    fmt += struct.pack("<H", cb_size)
    if cb_size:
        fmt += struct.pack("<HI", bits, 0x4) + struct.pack("<H", code) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    body = data[12:fmt_at] + b"fmt " + struct.pack("<I", len(fmt)) + bytes(fmt) + data[fmt_at + 8 + size :]
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_extensible_fmt_chunk_read_as_its_subformat(encoding):
    data = wav_bytes([tone(440, 0.05), tone(660, 0.05)], SR, encoding)
    want, rate = read_wav(data)
    got, got_rate = read_wav(extensible(data))
    assert got_rate == rate == SR
    assert len(got) == 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_extensible_fmt_chunk_too_short_located():
    data = extensible(wav_bytes([tone(440, 0.05)], SR, "pcm16"), cb_size=0)
    with pytest.raises(FormatError, match=r"extensible fmt chunk too short \(byte offset 12\)"):
        read_wav(data)


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_partial_sample_in_data_chunk_located(encoding):
    data = bytearray(wav_bytes([tone(440, 0.05)], SR, encoding))
    data_at = data.index(b"data")
    (size,) = struct.unpack_from("<I", data, data_at + 4)
    struct.pack_into("<I", data, data_at + 4, size - 1)
    with pytest.raises(FormatError, match=rf"not a whole number .*\(byte offset {data_at}\)"):
        read_wav(bytes(data))
