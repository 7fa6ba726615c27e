from __future__ import annotations

import itertools
import json
import os
import struct
import threading

import numpy as np
import pytest

from speechpipe import FormatError, Waveform, load_mono, read_wav, wav_bytes, wavefile, write_wav
from speechpipe.cli import main
from synth import SR, load_mono_reference, tone


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


def stored_frames(channels: list[np.ndarray], encoding: str) -> np.ndarray:
    """The float32 (frames, channels) matrix a reader must decode from
    `wav_bytes(channels, ...)`: PCM16 is stored as round(32767 x) and read
    back as that integer / 32768."""
    frames = np.stack(channels, axis=1)
    if encoding == "float32":
        return frames
    stored = (np.clip(frames, -1.0, 1.0) * 32767.0).round().astype(np.int16)
    return stored.astype(np.float32) / np.float32(32768.0)


def with_partial_frame(data: bytes, encoding: str) -> bytes:
    """`data` with one more sample in its data chunk: a trailing partial frame
    of a multichannel file, a whole frame of a mono one."""
    extra = struct.pack("<h", 8192) if encoding == "pcm16" else struct.pack("<f", 0.25)
    data_at = data.index(b"data")
    (size,) = struct.unpack_from("<I", data, data_at + 4)
    samples = data[data_at + 8 : data_at + 8 + size] + extra
    body = data[12:data_at] + b"data" + struct.pack("<I", len(samples)) + samples
    if len(samples) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestStreamedDecode:
    """The block-wise decode gives the bytes of decoding the whole payload."""

    @pytest.mark.parametrize("block", [1, 7, 1000, wavefile._BLOCK_SAMPLES])
    def test_equals_whole_payload_decode(self, block, monkeypatch, tmp_path):
        monkeypatch.setattr(wavefile, "_BLOCK_SAMPLES", block)
        rng = np.random.default_rng(block)
        path = tmp_path / "x.wav"
        for n_channels in (1, 2, 5):
            frames_per_block = max(1, block // n_channels)
            lengths = sorted({0, 1, frames_per_block - 1, frames_per_block, frames_per_block + 1,
                              3 * frames_per_block + 2})
            for n, encoding, wrap, partial in itertools.product(
                [n for n in lengths if n <= 3000], ["pcm16", "float32"], [False, True], [False, True]
            ):
                channels = [rng.uniform(-1.1, 1.1, n).astype(np.float32) for _ in range(n_channels)]
                data = wav_bytes(channels, SR, encoding)
                data = extensible(data) if wrap else data
                if partial:
                    data = with_partial_frame(data, encoding)
                path.write_bytes(data)
                case = (n_channels, n, encoding, wrap, partial)
                want = stored_frames(channels, encoding)
                if partial and n_channels == 1:  # 8192 / 32768 or 0.25: the extra sample
                    want = np.concatenate([want, np.full((1, 1), 0.25, np.float32)])
                for source in (data, path):
                    got, rate = read_wav(source)
                    assert rate == SR and len(got) == n_channels, case
                    assert np.stack(got, axis=1).tobytes() == want.tobytes(), case
                mono = load_mono(path)
                assert mono.sample_rate == SR
                assert mono.samples.tobytes() == load_mono_reference(path).samples.tobytes(), case

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_unseekable_path_is_that_files_error(self, tmp_path):
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)
        data = wav_bytes([tone(440, 0.05)], SR, "pcm16")

        def feed():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:  # the reader gave up first
                pass

        writer = threading.Thread(target=feed, daemon=True)  # blocks until the pipe is opened
        writer.start()
        report = tmp_path / "report.json"
        try:
            assert main(["detect-music", str(fifo), "--out", str(report)]) == 1
        finally:
            writer.join(timeout=30)
        assert json.loads(report.read_text())["errors"] == {str(fifo): "not a seekable file"}

    def test_file_shrunk_while_reading_is_located(self, tmp_path):
        # One second of stereo is more than the reader's buffer holds, so the
        # samples are read after the cut.
        path = tmp_path / "x.wav"
        data = wav_bytes([tone(440, 1.0), tone(660, 1.0)], SR, "pcm16")
        path.write_bytes(data)
        cut = data.index(b"data") + 8 + 20000
        with open(path, "rb") as fh:
            layout = wavefile._read_layout(fh)
            os.truncate(path, cut)
            with pytest.raises(FormatError, match=rf"data chunk truncated \(byte offset {cut}\)"):
                wavefile._frames(fh, layout, 0, layout.n_frames)
