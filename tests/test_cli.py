from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from speechpipe import audio, wavefile
from speechpipe import (
    MusicDetectConfig,
    ParameterError,
    SpeakerSegment,
    SpeakerTimeline,
    TimeSpan,
    Waveform,
    der,
    highpass,
    load_mono,
    parse_rttm,
    peak_normalize,
    read_embeddings_file,
    resample,
    wav_bytes,
    write_embeddings,
    write_embeddings_file,
    write_rttm,
    write_segments_csv,
    write_wav,
)
from speechpipe.cli import (
    OPTIONS, MetricsConfig, PipelineConfig, PreprocessConfig, SilenceConfig, _conditioned, build_parser, main,
)
from synth import SR, clean_rows, corrupt_row, random_timeline, silence, tone, two_speaker_scene


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def speech_wav(tmp_path):
    sig = np.concatenate([tone(440, 4.0), silence(1.0), tone(880, 4.0)])
    path = tmp_path / "speech.wav"
    write_wav(path, Waveform(sig, SR), encoding="float32")
    return path


# Runs the CLI with a write that takes a spool file past 32 MiB failing.
_FAILING_SPOOL_CHILD = """
import errno, sys, tempfile
from speechpipe import cli

make_file = tempfile.TemporaryFile

class SpoolQuota:
    def __init__(self):
        self.file, self.size = make_file(), 0

    def write(self, data):
        self.size += memoryview(data).nbytes
        if self.size > 32 << 20:
            raise {failure}
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)

tempfile.TemporaryFile = SpoolQuota
sys.exit(cli.main(sys.argv[1:]))
"""


class TestChunkCommand:
    def test_silent_file_empty_plan(self, tmp_path, capsys):
        path = tmp_path / "quiet.wav"
        write_wav(path, Waveform(silence(5.0), SR), encoding="float32")
        code, out = run(capsys, "chunk", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["files"][0]["chunks"] == []

    def test_rerun_byte_identical(self, speech_wav, capsys):
        code1, out1 = run(capsys, "chunk", str(speech_wav), "--min-dur", "3", "--max-dur", "6")
        code2, out2 = run(capsys, "chunk", str(speech_wav), "--min-dur", "3", "--max-dur", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_three_files_any_worker_count(self, tmp_path, capsys):
        for i in range(3):
            write_wav(tmp_path / f"f{i}.wav", Waveform(tone(300 + 100 * i, 2.0), SR))
        paths = sorted(str(p) for p in tmp_path.glob("*.wav"))
        _, serial = run(capsys, "chunk", *paths, "--workers", "1")
        _, parallel = run(capsys, "chunk", *paths, "--workers", "4")
        assert serial == parallel
        assert len(json.loads(serial)["files"]) == 3

    def test_unreadable_file_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        code, out = run(capsys, "chunk", str(bad))
        assert code == 1
        assert "errors" in json.loads(out)

    @pytest.mark.parametrize("defect", ["cut-in-fmt", "odd-pcm16-payload"])
    def test_malformed_wav_reported_beside_good_file(self, defect, speech_wav, tmp_path, capsys):
        data = bytearray(wav_bytes([tone(440, 1.0)], SR, "pcm16"))
        if defect == "cut-in-fmt":
            data = data[:30]
        else:
            data_at = data.index(b"data")
            struct.pack_into("<I", data, data_at + 4, struct.unpack_from("<I", data, data_at + 4)[0] - 1)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(bytes(data))
        code = main(["chunk", str(bad), str(speech_wav), "--workers", "2"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 1
        assert [f["path"] for f in doc["files"]] == [str(speech_wav)]
        assert doc["files"][0]["chunks"]
        assert "byte offset" in doc["errors"][str(bad)]
        assert "Traceback" not in captured.err

    def test_write_chunks(self, speech_wav, tmp_path, capsys):
        out_dir = tmp_path / "pieces"
        code, out = run(
            capsys, "chunk", str(speech_wav), "--min-dur", "3", "--max-dur", "6",
            "--write-chunks", str(out_dir),
        )
        assert code == 0
        written = sorted(out_dir.glob("*.wav"))
        assert len(written) == len(json.loads(out)["files"][0]["chunks"])

    def test_write_chunks_beside_corrupt_file_any_worker_count(self, tmp_path, capsys):
        # Chunk WAVs are written by the workers: a failing file must not stop
        # the good file's writes, and the pieces must not depend on the pool.
        sig = np.concatenate([tone(440, 4.0), silence(1.0), tone(880, 4.0), silence(1.0), tone(660, 3.0)])
        good = tmp_path / "good.wav"
        write_wav(good, Waveform(sig, SR), encoding="float32")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")
        written = {}
        for workers in ("1", "2"):
            out_dir = tmp_path / f"pieces{workers}"
            code, out = run(capsys, "chunk", str(good), str(bad), "--min-dur", "3", "--max-dur", "6",
                            "--write-chunks", str(out_dir), "--workers", workers)
            doc = json.loads(out)
            assert code == 1
            assert list(doc["errors"]) == [str(bad)]
            assert [f["path"] for f in doc["files"]] == [str(good)]
            written[workers] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            assert sorted(written[workers]) == [f"good_chunk{i:03d}.wav" for i in range(len(doc["files"][0]["chunks"]))]
        assert len(written["2"]) >= 2
        assert written["1"] == written["2"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_shared_stem_is_the_later_files_error(self, workers, tmp_path, capsys):
        # Both inputs are named take.wav: the first path in sorted order owns
        # the chunk WAV names, and the later path must not overwrite them.
        first, second = str(tmp_path / "a" / "take.wav"), str(tmp_path / "b" / "take.wav")
        for path, sig in ((first, [tone(440, 4.0), silence(1.0), tone(880, 4.0)]), (second, [tone(660, 7.0)])):
            os.mkdir(os.path.dirname(path))
            write_wav(path, Waveform(np.concatenate(sig), SR))
        flags = ["--min-dur", "3", "--max-dur", "6"]
        alone = tmp_path / "alone"
        assert run(capsys, "chunk", first, *flags, "--write-chunks", str(alone))[0] == 0
        out_dir = tmp_path / "pieces"
        code, out = run(capsys, "chunk", second, first, *flags, "--write-chunks", str(out_dir), "--workers", workers)
        assert code == 1
        doc = json.loads(out)
        assert [f["path"] for f in doc["files"]] == [first]
        assert list(doc["errors"]) == [second]
        assert "'take'" in doc["errors"][second] and first in doc["errors"][second]
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert len(written) >= 2
        assert written == {p.name: p.read_bytes() for p in alone.iterdir()}
        code, _ = run(capsys, "chunk", first, second)  # without writes the shared stem is harmless
        assert code == 0

    def test_max_dur_below_time_resolution_reported_per_file(self, tmp_path):
        # After 1 s of leading silence, 1 + 1e-300 == 1: a forced cut could
        # never advance. That file is an input error and the silent one is
        # still described. A child with a timeout and a capped address space
        # makes a regression fail instead of hanging or exhausting the host.
        resource = pytest.importorskip("resource")
        late, quiet = str(tmp_path / "late.wav"), str(tmp_path / "quiet.wav")
        write_wav(late, Waveform(np.concatenate([silence(1.0), tone(440, 2.0)]), SR))
        write_wav(quiet, Waveform(silence(2.0), SR))
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        result = subprocess.run(
            [sys.executable, "-m", "speechpipe.cli", "chunk", late, quiet, "--min-dur", "1e-300", "--max-dur", "1e-300"],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, timeout=60,
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        doc = json.loads(result.stdout)
        assert [f["path"] for f in doc["files"]] == [quiet]
        assert doc["files"][0]["chunks"] == []
        assert list(doc["errors"]) == [late]
        assert "max_dur=1e-300" in doc["errors"][late]

    def test_huge_target_rate_reported_per_file(self, tmp_path):
        # The resampling filter for 16 kHz -> 2**31 - 1 Hz would take 1 TiB;
        # each file is reported under errors instead. The child's address
        # space is capped so that a regression fails here instead of
        # exhausting the host.
        resource = pytest.importorskip("resource")
        paths = [str(tmp_path / name) for name in ("a.wav", "b.wav")]
        for path in paths:
            write_wav(path, Waveform(tone(440, 1.0), SR))
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"preprocess": {"target_sample_rate": 2**31 - 1}}))
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        result = subprocess.run(
            [sys.executable, "-m", "speechpipe.cli", "chunk", *paths, "--config", str(config)],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        errors = json.loads(result.stdout)["errors"]
        assert sorted(errors) == paths
        assert all("16000 Hz to 2147483647 Hz" in message for message in errors.values())

    @pytest.mark.parametrize("failure, message", [
        ("MemoryError('Unable to allocate 8.00 MiB')", "Unable to allocate"),
        ("OSError(errno.ENOSPC, 'No space left on device')", "No space left on device"),
    ], ids=["memory", "disk"])
    def test_unallocatable_upsampled_output_reported_per_file(self, failure, message, tmp_path):
        # 16 kHz -> 131.072 MHz passes the filter bound, and the 5-s file's
        # 655 M output samples would take a 2.4 GiB spool file. Its spool
        # write past 32 MiB fails here, as memory or the disk running out
        # would make it fail: that file is reported under errors, and the
        # short file's 26 MB spool is still planned. A child with a timeout
        # and a capped address space makes a regression fail instead of
        # hanging or exhausting the host.
        resource = pytest.importorskip("resource")
        long_wav, short_wav = str(tmp_path / "long.wav"), str(tmp_path / "short.wav")
        write_wav(long_wav, Waveform(tone(440, 5.0), SR))
        write_wav(short_wav, Waveform(tone(440, 0.05), SR))
        config = tmp_path / "fast.json"
        config.write_text(json.dumps({"preprocess": {"target_sample_rate": 131072000}}))
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        argv = ["chunk", long_wav, short_wav, "--config", str(config)]
        result = subprocess.run(
            [sys.executable, "-c", _FAILING_SPOOL_CHILD.format(failure=failure), *argv],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        doc = json.loads(result.stdout)
        assert [f["path"] for f in doc["files"]] == [short_wav]
        assert doc["files"][0]["chunks"]
        assert list(doc["errors"]) == [long_wav]
        assert message in doc["errors"][long_wav]

    def test_resampled_input_planned_and_written_at_target_rate(self, speech_wav, tmp_path, capsys):
        # The same signal at 44.1 kHz: resampled to 16 kHz before planning.
        sig = np.concatenate([tone(440, 4.0, sr=44100), silence(1.0, sr=44100), tone(880, 4.0, sr=44100)])
        path = tmp_path / "cd.wav"
        write_wav(path, Waveform(sig, 44100), encoding="float32")
        flags = ["--min-dur", "3", "--max-dur", "6"]
        code, out = run(capsys, "chunk", str(path), *flags, "--write-chunks", str(tmp_path / "pieces"))
        assert code == 0
        chunks = json.loads(out)["files"][0]["chunks"]
        _, native = run(capsys, "chunk", str(speech_wav), *flags)
        want = json.loads(native)["files"][0]["chunks"]
        assert [c["kind"] for c in chunks] == [c["kind"] for c in want]
        for got_chunk, want_chunk in zip(chunks, want):
            assert got_chunk["start"] == pytest.approx(want_chunk["start"], abs=0.05)
            assert got_chunk["end"] == pytest.approx(want_chunk["end"], abs=0.05)
        pieces = sorted((tmp_path / "pieces").glob("*.wav"))
        assert len(pieces) == len(chunks)
        assert {load_mono(p).sample_rate for p in pieces} == {SR}


class TestDetectMusicCommand:
    def test_silence_scores_zero(self, tmp_path, capsys):
        path = tmp_path / "quiet.wav"
        write_wav(path, Waveform(silence(5.0), SR), encoding="float32")
        code, out = run(capsys, "detect-music", str(path))
        assert code == 0
        entry = json.loads(out)["files"][0]
        assert entry["score"] == 0.0
        assert entry["is_music"] is False

    def test_threshold_override_respected(self, tmp_path, capsys):
        from synth import music_proxy

        path = tmp_path / "m.wav"
        write_wav(path, music_proxy(6, 1), encoding="float32")
        _, strict_out = run(capsys, "detect-music", str(path), "--threshold", "1.0")
        entry = json.loads(strict_out)["files"][0]
        assert entry["is_music"] is False  # score can never exceed 1.0

    def test_deterministic(self, tmp_path, capsys):
        from synth import music_proxy

        path = tmp_path / "m.wav"
        write_wav(path, music_proxy(4, 2), encoding="float32")
        _, a = run(capsys, "detect-music", str(path))
        _, b = run(capsys, "detect-music", str(path))
        assert a == b

    def test_frame_longer_than_file_in_bounded_memory(self, tmp_path):
        # A file shorter than one frame has no frames: nothing frame-sized is
        # built. The child's address space is capped so that a regression
        # fails here instead of exhausting the host.
        resource = pytest.importorskip("resource")
        path = tmp_path / "short.wav"
        write_wav(path, Waveform(tone(440, 1.0), SR))
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"music": {"frame_length": 2**31}}))
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        result = subprocess.run(
            [sys.executable, "-m", "speechpipe.cli", "detect-music", str(path), "--config", str(config)],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        entry = json.loads(result.stdout)["files"][0]
        assert (entry["score"], entry["is_music"], entry["low_confidence"]) == (0.0, False, True)

    @pytest.mark.parametrize("rate", [16000, 22050, 44100, 48000])
    def test_scores_the_signal_chunk_scores(self, rate, tmp_path, capsys):
        # Both commands condition the file the same way (16 kHz, high-pass,
        # peak-normalized) before the vote, whatever its native rate.
        from synth import music_proxy, speech_proxy

        write_wav(tmp_path / "music.wav", music_proxy(8, 0, sr=rate), encoding="float32")
        write_wav(tmp_path / "speech.wav", speech_proxy(8, 0, sr=rate), encoding="float32")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"preprocess": {"detect_music": true}}')
        paths = [str(tmp_path / "music.wav"), str(tmp_path / "speech.wav")]
        _, detected = run(capsys, "detect-music", *paths)
        _, chunked = run(capsys, "chunk", *paths, "--config", str(cfg))
        got = [(f["score"], f["is_music"]) for f in json.loads(detected)["files"]]
        assert got == [(f["music"]["score"], f["music"]["is_music"]) for f in json.loads(chunked)["files"]]
        assert [is_music for _, is_music in got] == [True, False]

    def test_report_echoes_the_sections_it_reads(self, speech_wav, capsys):
        _, out = run(capsys, "detect-music", str(speech_wav), "--threshold", "0.25")
        config = json.loads(out)["config"]
        assert config == {"preprocess": asdict(PreprocessConfig()),
                          "music": asdict(MusicDetectConfig(decision_threshold=0.25))}


class TestDiarizeCommand:
    def test_two_speaker_container(self, tmp_path, capsys):
        emb, truth = two_speaker_scene(seed=5)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        out_dir = tmp_path / "out"
        code, out = run(
            capsys, "diarize", str(container), "--out-dir", str(out_dir),
            "--tau", "0.65", "--min-cluster-size", "20", "--min-duration-off", "0.1",
        )
        assert code == 0
        entry = json.loads(out)["files"][0]
        assert entry["speakers"] == 2
        hyp = parse_rttm((out_dir / "scene.rttm").read_text())[0]
        report = der(truth, hyp)
        assert report.der < 0.05

    def test_empty_container_ok(self, tmp_path, capsys):
        from speechpipe import EmbeddingSet

        container = tmp_path / "empty.emb"
        write_embeddings_file(
            container, EmbeddingSet(np.empty((0, 0), dtype=np.float32), [], "empty")
        )
        code, out = run(capsys, "diarize", str(container), "--out-dir", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(out)["files"][0]["segments"] == 0

    def test_same_seed_identical_csv(self, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=6)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        texts = []
        for d in ("o1", "o2"):
            out_dir = tmp_path / d
            run(capsys, "diarize", str(container), "--out-dir", str(out_dir),
                "--method", "kmeans", "--seed", "3")
            texts.append((out_dir / "scene.csv").read_bytes())
        assert texts[0] == texts[1]


    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unwritable_output_is_that_files_error(self, workers, tmp_path, capsys):
        paths = []
        for seed, rid in ((5, "a"), (6, "b")):
            emb, _ = two_speaker_scene(seed=seed)
            emb.recording_id = rid
            paths.append(tmp_path / f"{rid}.emb")
            write_embeddings_file(paths[-1], emb)
        out_dir, report = tmp_path / "d", tmp_path / "r.json"
        (out_dir / "a.csv").mkdir(parents=True)
        code = main(["diarize", *map(str, paths), "--out-dir", str(out_dir), "--out", str(report),
                     "--workers", workers])
        assert code == 1
        doc = json.loads(report.read_text())
        assert list(doc["errors"]) == [str(paths[0])]
        assert [f["recording_id"] for f in doc["files"]] == ["b"]
        assert (out_dir / "b.csv").is_file() and (out_dir / "b.rttm").is_file()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_repeated_recording_id_is_the_later_files_error(self, workers, tmp_path, capsys):
        # Both containers hold recording id "scene": the later path must not
        # overwrite the earlier one's outputs.
        first, second = tmp_path / "x.emb", tmp_path / "y.emb"
        for path, seed in ((first, 5), (second, 6)):
            write_embeddings_file(path, two_speaker_scene(seed=seed)[0])
        alone = tmp_path / "alone"
        assert run(capsys, "diarize", str(first), "--out-dir", str(alone))[0] == 0
        out_dir = tmp_path / "out"
        code, out = run(capsys, "diarize", str(second), str(first), "--out-dir", str(out_dir),
                        "--workers", workers)
        assert code == 1
        doc = json.loads(out)
        assert [f["path"] for f in doc["files"]] == [str(first)]
        assert list(doc["errors"]) == [str(second)]
        assert "'scene'" in doc["errors"][str(second)] and str(first) in doc["errors"][str(second)]
        for name in ("scene.csv", "scene.rttm"):
            assert (out_dir / name).read_bytes() == (alone / name).read_bytes()


class TestScoreCommand:
    def test_wer_identical_transcripts(self, tmp_path, capsys):
        lines = (
            '{"id":"a","start":0,"end":5,"text":"ami bhalo"}\n'
            '{"id":"a","start":5,"end":9,"text":"achi"}\n'
        )
        ref = tmp_path / "ref.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        ref.write_text(lines)
        hyp.write_text(lines)
        code, out = run(capsys, "score", "wer", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 0
        doc = json.loads(out)
        assert doc["micro"]["wer"] == 0.0

    def test_der_identical_timelines(self, tmp_path, capsys):
        t = SpeakerTimeline.from_segments(
            "a", [SpeakerSegment(TimeSpan(0, 5), "A"), SpeakerSegment(TimeSpan(6, 9), "B")]
        )
        ref = tmp_path / "ref.rttm"
        hyp = tmp_path / "hyp.rttm"
        ref.write_text(write_rttm([t]))
        hyp.write_text(write_rttm([t]))
        code, out = run(capsys, "score", "der", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 0
        assert json.loads(out)["micro"]["der"] == 0.0

    def test_der_hand_case_through_cli(self, tmp_path, capsys):
        ref_t = SpeakerTimeline.from_segments("a", [SpeakerSegment(TimeSpan(0, 10), "A")])
        hyp_t = SpeakerTimeline.from_segments("a", [SpeakerSegment(TimeSpan(0, 8), "X")])
        ref = tmp_path / "ref.csv"
        hyp = tmp_path / "hyp.csv"
        ref.write_text(write_segments_csv([ref_t]))
        hyp.write_text(write_segments_csv([hyp_t]))
        code, out = run(capsys, "score", "der", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 0
        doc = json.loads(out)
        assert doc["files"]["a"]["der"] == pytest.approx(0.2)

    def test_unparseable_strict_input_exits_one(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        hyp = tmp_path / "hyp.csv"
        ref.write_text("id,start,end,speaker\na, 0.0 ,5.0,A\n")
        hyp.write_text("id,start,end,speaker\na,0.0,5.0,A\n")
        code, _ = run(capsys, "score", "der", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 1
        code, _ = run(capsys, "score", "der", "--ref", str(ref), "--hyp", str(hyp), "--repair")
        assert code == 0

    @pytest.mark.parametrize("name, row, where", [
        ("hyp.rttm", "SPEAKER a 1 1.000 inf <NA> <NA> B <NA> <NA>", "line 2: invalid span [1.0, inf)"),
        ("hyp.rttm", "SPEAKER a 1 nan 1.000 <NA> <NA> B <NA> <NA>", "line 2: invalid span [nan, nan)"),
        ("hyp.rttm", "SPEAKER a 1 1.000 1e-7 <NA> <NA> B <NA> <NA>", "line 2: invalid span [1.0, 1.0)"),
        ("hyp.csv", "a,1," + "9" * 400 + ",B", "line 3: bad end time '999"),
    ])
    def test_non_finite_or_empty_time_is_located(self, name, row, where, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER a 1 0.000 5.000 <NA> <NA> A <NA> <NA>\n")
        hyp = tmp_path / name
        head = "SPEAKER a 1 0.000 1.000 <NA> <NA> B <NA> <NA>" if name.endswith(".rttm") else "id,start,end,speaker\na,0,1,B"
        hyp.write_text(f"{head}\n{row}\n")
        code = main(["score", "der", "--ref", str(ref), "--hyp", str(hyp)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert where in captured.err
        assert "Traceback" not in captured.err

    def test_repair_drops_an_infinite_end_time(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER a 1 0.000 5.000 <NA> <NA> A <NA> <NA>\n")
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("id,start,end,speaker\na,0,1,B\na,1," + "9" * 400 + ",B\n")
        code, out = run(capsys, "score", "der", "--ref", str(ref), "--hyp", str(hyp), "--repair")
        assert code == 0
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        assert doc["files"]["a"]["der"] == pytest.approx(0.8)

    def test_overflowing_times_are_that_ids_error(self, tmp_path, capsys):
        # Two speakers of 1e308 s each: every span is finite, their sum is not.
        rows = "SPEAKER big 1 0 1e308 <NA> <NA> A <NA> <NA>\nSPEAKER big 1 0 1e308 <NA> <NA> B <NA> <NA>\n"
        ref = tmp_path / "ref.rttm"
        ref.write_text(rows + "SPEAKER ok 1 0.000 5.000 <NA> <NA> A <NA> <NA>\n")
        out = tmp_path / "report.json"
        code = main(["score", "der", "--ref", str(ref), "--hyp", str(ref), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        assert list(doc["files"]) == ["ok"] and doc["micro"]["der"] == 0.0
        assert "overflow" in doc["errors"]["big"]

    def test_undefined_recording_is_that_ids_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        ref.write_text('{"id":"a","start":0,"end":5,"text":"ami bhalo achi"}\n'
                       '{"id":"b","start":0,"end":5,"text":"  "}\n'
                       '{"id":"c","start":0,"end":5,"text":"tumi"}\n')
        hyp.write_text('{"id":"a","start":0,"end":5,"text":"ami bhalo"}\n')
        code, out = run(capsys, "score", "wer", "--ref", str(ref), "--hyp", str(hyp), "--workers", "2")
        assert code == 1
        doc = json.loads(out)
        assert sorted(doc["files"]) == ["a", "c"]
        assert doc["errors"] == {"b": "WER is undefined for an empty reference"}
        assert doc["micro"]["ref_word_count"] == 4
        assert doc["macro_wer"] == pytest.approx((1 / 3 + 1) / 2)

    def test_no_recording_scores_one_error_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.jsonl"
        ref.write_text('{"id":"b","start":0,"end":5,"text":""}\n{"id":"c","start":0,"end":5,"text":" "}\n')
        code = main(["score", "wer", "--ref", str(ref), "--hyp", str(ref)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "score: error: WER is undefined for an empty reference\n"


class TestRepairCommand:
    def test_clean_file_identity(self, tmp_path, capsys):
        rows = clean_rows(20, seed=1)
        src = tmp_path / "clean.csv"
        src.write_text("id,start,end,speaker\n" + "\n".join(rows) + "\n")
        code, out = run(capsys, "repair", str(src))
        assert code == 0
        assert out == src.read_text()

    def test_corrupted_rows_recovered(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = clean_rows(50, seed=3)
        bad = [corrupt_row(r, rng)[1] for r in rows]
        src = tmp_path / "bad.csv"
        src.write_text("id,start,end,speaker\n" + "\n".join(bad) + "\n")
        report_path = tmp_path / "report.json"
        code, out = run(capsys, "repair", str(src), "--report", str(report_path))
        assert code == 0
        recovered = out.splitlines()[1:]
        assert recovered == rows
        report = json.loads(report_path.read_text())["report"]
        assert report["repaired"] == 50

    def test_garbled_rows_dropped(self, tmp_path, capsys):
        src = tmp_path / "garbled.csv"
        src.write_text("id,start,end,speaker\n@@@@\nrec1,0.0,5.0,A\n")
        code, out = run(capsys, "repair", str(src))
        assert code == 0
        assert out.splitlines() == ["id,start,end,speaker", "rec1,0.0,5.0,A"]

    def test_strict_mode_lists_rows_and_fails(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("id,start,end,speaker\nrec1,5.0,0.0,A\n")
        code = main(["repair", str(src), "--strict"])
        err = capsys.readouterr().err
        assert code == 1
        assert ":2:" in err


class TestWindowsCommand:
    def test_from_wav(self, speech_wav, capsys):
        code, out = run(capsys, "windows", str(speech_wav))
        assert code == 0
        doc = json.loads(out)
        assert doc["windows"]
        for w in doc["windows"]:
            assert w["end"] - w["start"] <= 1.5 + 1e-9

    def test_from_plan_json(self, tmp_path, capsys):
        plan = {
            "recording_id": "x",
            "source_duration": 10.0,
            "forced_split_count": 0,
            "chunks": [{"start": 0.0, "end": 4.5, "kind": "silence"}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code, out = run(capsys, "windows", str(path), "--window", "1.5", "--hop", "0.75")
        assert code == 0
        starts = [w["start"] for w in json.loads(out)["windows"]]
        assert starts == [0.0, 0.75, 1.5, 2.25, 3.0]

    def test_chunk_report_of_one_file(self, speech_wav, tmp_path, capsys):
        plans = tmp_path / "plans.json"
        assert main(["chunk", str(speech_wav), "--out", str(plans)]) == 0
        code, out = run(capsys, "windows", str(plans))
        assert code == 0
        assert json.loads(out)["windows"]

    def test_chunk_report_of_two_files_exits_one(self, speech_wav, tmp_path, capsys):
        other = tmp_path / "other.wav"
        write_wav(other, Waveform(tone(440, 3.0), SR), encoding="float32")
        plans = tmp_path / "plans.json"
        assert main(["chunk", str(speech_wav), str(other), "--out", str(plans)]) == 0
        capsys.readouterr()
        code = main(["windows", str(plans)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "windows: error: the chunk report lists 2 files" in captured.err

    @pytest.mark.parametrize("flags", [["--window", "inf"], ["--window", "nan"], ["--hop", "inf", "--window", "inf"],
                                       ["--hop", "0"], ["--hop", "2", "--window", "1"]])
    def test_bad_window_or_hop_exits_two_before_reading_input(self, flags, tmp_path, capsys):
        code = main(["windows", str(tmp_path / "missing.wav"), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "config error: need 0 < hop <= window, both finite" in captured.err
        assert "missing.wav" not in captured.err


class TestClusterCommand:
    def test_cluster_report(self, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=9)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        code, out = run(capsys, "cluster", str(container), "--tau", "0.65",
                        "--min-cluster-size", "20")
        assert code == 0
        entry = json.loads(out)["files"][0]
        assert entry["k"] == 2
        assert len(entry["labels"]) == len(emb)

    @pytest.mark.parametrize("method, reported", [("ahc", "ahc-centroid"), ("gmm", "gmm"), ("kmeans", "kmeans")])
    def test_empty_container_reports_every_key(self, method, reported, tmp_path, capsys):
        from speechpipe import EmbeddingSet

        container = tmp_path / "empty.emb"
        write_embeddings_file(container, EmbeddingSet(np.empty((0, 4), dtype=np.float32), [], "empty"))
        code, out = run(capsys, "cluster", str(container), "--method", method)
        assert code == 0
        assert json.loads(out)["files"] == [{"path": str(container), "recording_id": "empty", "method": reported,
                                             "k": 0, "labels": [], "centroids": [], "diagnostics": {}}]

    def test_cluster_and_diarize_give_one_recording_id(self, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=9)
        emb.recording_id = ""
        container = tmp_path / "noid.emb"
        write_embeddings_file(container, emb)
        ids = []
        for argv in (["cluster"], ["diarize", "--out-dir", str(tmp_path / "out")]):
            code, out = run(capsys, *argv, str(container))
            assert code == 0
            ids.append(json.loads(out)["files"][0]["recording_id"])
        assert ids == ["noid", "noid"]

    @pytest.mark.parametrize("command, flags", [
        ("cluster", ["--method", "gmm", "--fixed-k", "4"]),
        ("cluster", ["--method", "gmm"]),
        ("diarize", ["--method", "gmm"]),
    ])
    def test_gmm_k_above_distinct_points(self, command, flags, tmp_path, capsys):
        from speechpipe import EmbeddingSet

        # 12 windows holding 3 distinct vectors: k-means can fill only 3 clusters.
        spans = [TimeSpan(0.75 * i, 0.75 * i + 1.5) for i in range(12)]
        container = tmp_path / "dup.emb"
        write_embeddings_file(container, EmbeddingSet(np.repeat(np.eye(3), 4, axis=0), spans, "dup"))
        argv = [command, str(container), *flags]
        if command == "diarize":
            argv += ["--out-dir", str(tmp_path / "out")]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["files"][0]["k" if command == "cluster" else "speakers"] == 3


    def test_gmm_reports_em_iterations_and_warns_when_unconverged(self, tmp_path, capsys, monkeypatch):
        import speechpipe.clustering as clustering
        from speechpipe import select_k_gmm

        paths = []
        for seed in (9, 10):
            emb, _ = two_speaker_scene(seed=seed)
            paths.append(str(tmp_path / f"scene{seed}.emb"))
            write_embeddings_file(paths[-1], emb)
        for limit in (clustering.EM_MAX_ITER, 1):
            monkeypatch.setattr(clustering, "EM_MAX_ITER", limit)
            assert main(["cluster", *paths, "--method", "gmm", "--k-max", "4"]) == 0
            captured = capsys.readouterr()
            warnings = [line for line in captured.err.splitlines() if "warning" in line]
            for entry in json.loads(captured.out)["files"]:
                _, model = select_k_gmm(read_embeddings_file(entry["path"]).vectors, (2, 4), "AIC", 0)
                assert entry["diagnostics"]["iterations"] == model.iterations
                assert entry["diagnostics"]["converged"] is model.converged is (limit > 1)
            want = [] if limit > 1 else [f"cluster: {path}: warning: EM iteration limit (1) reached without converging"
                                         for path in sorted(paths)]
            assert warnings == want

    def test_diarize_reports_unchanged_by_em_diagnostics(self, tmp_path, capsys, monkeypatch):
        # The gmm diagnostics' iterations and converged keys only add the
        # stderr warning: without them, diarize writes the same bytes.
        import speechpipe.cli as cli
        import speechpipe.clustering as clustering

        monkeypatch.setattr(clustering, "EM_MAX_ITER", 1)
        emb, _ = two_speaker_scene(seed=9)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        out_dir = tmp_path / "out"
        argv = ["diarize", str(container), "--method", "gmm", "--fixed-k", "6", "--out-dir", str(out_dir)]

        def without_em_keys(*args):
            result = clustering.cluster_embeddings(*args)
            del result.diagnostics["iterations"], result.diagnostics["converged"]
            return result

        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(cli, "cluster_embeddings", without_em_keys)
            assert main(argv) == 0
            captured = capsys.readouterr()
            runs.append((captured, (out_dir / "scene.csv").read_bytes(), (out_dir / "scene.rttm").read_bytes()))
        (warned, *outputs), (quiet, *former) = runs
        assert outputs == former and warned.out == quiet.out
        warning = f"diarize: {container}: warning: EM iteration limit (1) reached without converging\n"
        assert warned.err == quiet.err + warning

    def test_pca_components_cluster_in_reduced_space(self, tmp_path, capsys):
        paths = []
        for seed in (9, 10):
            emb, _ = two_speaker_scene(seed=seed)
            paths.append(str(tmp_path / f"scene{seed}.emb"))
            write_embeddings_file(paths[-1], emb)
        reports = {}
        for workers in ("1", "2"):
            code, reports[workers] = run(capsys, "cluster", *paths, "--method", "kmeans",
                                         "--pca-components", "8", "--workers", workers)
            assert code == 0
        assert reports["1"] == reports["2"]
        files = json.loads(reports["1"])["files"]
        assert [f["path"] for f in files] == sorted(paths)
        for entry in files:
            assert entry["k"] >= 2
            assert {len(row) for row in entry["centroids"]} == {8}
        _, full = run(capsys, "cluster", paths[0], "--method", "kmeans")
        assert {len(row) for row in json.loads(full)["files"][0]["centroids"]} == {emb.vectors.shape[1]}

    def test_reports_identical_under_one_and_two_blas_threads(self, tmp_path):
        # The matrix products of the GMM, k-means screen, silhouette and AHC
        # run in BLAS, which splits large products across threads; the
        # reports must not depend on how.
        emb, _ = two_speaker_scene(seed=11, total_seconds=1020.0, dim=64)
        assert len(emb) >= 1200
        container = str(tmp_path / "long.emb")
        write_embeddings_file(container, emb)
        for flags in (["--method", "gmm", "--fixed-k", "25"], ["--method", "gmm", "--k-min", "1", "--k-max", "10"],
                      ["--method", "kmeans"], []):
            reports = set()
            for threads in ("1", "2"):
                result = subprocess.run(
                    [sys.executable, "-m", "speechpipe.cli", "cluster", container, *flags],
                    capture_output=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, timeout=300,
                )
                assert result.returncode == 0, result.stderr
                reports.add(result.stdout)
            assert len(reports) == 1, flags

    def test_kmeans_fixed_k(self, tmp_path, capsys):
        from speechpipe import kmeans

        emb, _ = two_speaker_scene(seed=9)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        code, out = run(capsys, "cluster", str(container), "--method", "kmeans", "--fixed-k", "3", "--seed", "4")
        assert code == 0
        entry = json.loads(out)["files"][0]
        want = kmeans(emb.vectors, 3, 4)
        assert entry["method"] == "kmeans" and entry["k"] == want.k == 3
        assert entry["diagnostics"]["estimated_k"] == 3
        assert entry["diagnostics"]["inertia"] == want.diagnostics["inertia"]
        assert entry["diagnostics"]["iterations"] == want.diagnostics["iterations"]
        assert sorted(set(entry["labels"])) == [0, 1, 2]


class TestConfig:
    def test_unknown_config_key_exit_two(self, tmp_path, capsys, speech_wav):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"silence": {"top_db": 25, "bogus": 1}}')
        code = main(["chunk", str(speech_wav), "--config", str(cfg)])
        assert code == 2

    def test_unknown_section_exit_two(self, tmp_path, capsys, speech_wav):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nonsense": {}}')
        assert main(["chunk", str(speech_wav), "--config", str(cfg)]) == 2

    def test_config_file_used(self, tmp_path, capsys, speech_wav):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"chunking": {"min_dur": 3, "max_dur": 6}}')
        code, out = run(capsys, "chunk", str(speech_wav), "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["chunking"]["min_dur"] == 3
        assert '"min_dur": 3,' in out  # an int in a float field is echoed as given

    def test_detect_music_toggle_annotates_plans(self, tmp_path, capsys, speech_wav):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"preprocess": {"detect_music": true}, "chunking": {"min_dur": 3, "max_dur": 6}}'
        )
        code, out = run(capsys, "chunk", str(speech_wav), "--config", str(cfg))
        assert code == 0
        entry = json.loads(out)["files"][0]
        assert "music" in entry and set(entry["music"]) == {"score", "is_music"}


SWEEP_VALUES = [1.5, 2.0, "5", True, None, [], -1, 0, 1e308, 1e-300, math.nan, math.inf]


def wrong_type(default, value) -> bool:
    """The config type rule: a float field takes a finite int or float, any
    other field a value of its default's exact type (so no bool for an int)."""
    if type(default) is float:
        return type(value) not in (int, float) or not math.isfinite(value)
    return type(value) is not type(default)


class TestConfigValidation:
    """Bad config values exit 2 before any input is read: nothing is written,
    and a missing input file is never reported."""

    @pytest.mark.parametrize("command, flags, section", [
        ("diarize", ["--smoothing-window", "4"], None),
        ("diarize", ["--tau", "0"], None),
        ("diarize", ["--min-duration-off", "-1"], None),
        ("diarize", ["--method", "kmeans", "--k-min", "5", "--k-max", "3"], None),
        ("cluster", ["--pca-components", "-1"], None),
        ("cluster", ["--fixed-k", "-2"], None),
        ("diarize", [], {"clustering": {"method": "spectral"}}),
        ("cluster", [], {"clustering": {"smoothing_window": 4}}),
        ("cluster", [], {"clustering": {"tau": -0.5}}),
        ("cluster", [], {"clustering": {"criterion": "HQIC"}}),
        ("cluster", [], {"clustering": {"k_min": 0}}),
        ("diarize", [], {"diarization": {"min_duration_off": -0.1}}),
        ("chunk", [], {"silence": {"hop_length": 0}}),
        ("chunk", [], {"silence": {"top_db": 0}}),
        ("chunk", [], {"preprocess": {"peak_target": 2}}),
        ("chunk", [], {"preprocess": {"highpass_hz": -60}}),
        ("chunk", [], {"preprocess": {"highpass_hz": 8000}}),
        ("detect-music", [], {"preprocess": {"target_sample_rate": 8000, "highpass_hz": 9000}}),
        ("chunk", [], {"preprocess": {"detect_music": True}, "music": {"hop_length": 0}}),
        ("score der", ["--collar", "-1"], None),
        ("score der", ["--collar", "nan"], None),
        ("cluster", ["--tau", "inf"], None),
        ("diarize", ["--min-duration-off", "inf"], None),
        ("chunk", ["--top-db", "inf"], None),
        ("detect-music", ["--threshold", "nan"], None),
        ("diarize", ["--workers", "0"], None),
        ("cluster", ["--workers", "-1"], None),
        ("cluster", ["--method", "gmm", "--seed=-1"], None),
        ("cluster", ["--method", "kmeans", "--seed=-1"], None),
        ("diarize", ["--method", "gmm", "--seed=-1"], None),
        ("diarize", ["--method", "kmeans", "--seed=-1"], None),
    ])
    def test_exit_two_and_nothing_written(self, command, flags, section, tmp_path, capsys):
        self.assert_exit_two(command, flags, section, tmp_path, capsys)

    # Every field of every section, with each sweep value the type rule
    # rejects, so a new field is covered without editing this test.
    @pytest.mark.parametrize("section", [
        pytest.param({s.name: {f.name: value}}, id=f"{s.name}.{f.name}={value!r}")
        for s in fields(PipelineConfig)
        for f in fields(s.default_factory)
        for value in SWEEP_VALUES
        if wrong_type(getattr(s.default_factory(), f.name), value)
    ])
    def test_wrongly_typed_value_exit_two(self, section, tmp_path, capsys):
        self.assert_exit_two("diarize", [], section, tmp_path, capsys)

    @staticmethod
    def assert_exit_two(command, flags, section, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=5)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        out_dir = tmp_path / "out"
        inputs = [str(container), str(tmp_path / "missing.emb")]
        if command == "score der":
            inputs = ["--ref", inputs[0], "--hyp", inputs[1]]
        argv = [*command.split(), *inputs, *flags, "--out", str(tmp_path / "report.json")]
        if command == "diarize":
            argv += ["--out-dir", str(out_dir)]
        if section is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(section))
            argv += ["--config", str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err and "missing.emb" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "report.json").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, name", [(SilenceConfig, "top_db"), (MetricsConfig, "collar")])
    def test_nan_rejected_by_the_section_itself(self, section, name):
        with pytest.raises(ParameterError, match=f"{name} must be"):
            section(**{name: math.nan})

    def test_chunk_bounds_from_flags_exit_two(self, speech_wav, capsys):
        code = main(["chunk", str(speech_wav), "--min-dur", "5", "--max-dur", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "Traceback" not in captured.err

    def test_method_and_criterion_any_case(self, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=9)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"clustering": {"method": "GMM", "criterion": "bic", "k_min": 1, "k_max": 3}}')
        code, out = run(capsys, "cluster", str(container), "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["files"][0]["method"] == "gmm"

    def test_config_syntax_error_located(self, speech_wav, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"chunking": {"min_dur": 3},\n "silence" {}}')
        assert main(["chunk", str(speech_wav), "--config", str(cfg)]) == 2
        assert "config error: line 2: config file is not valid JSON" in capsys.readouterr().err


class TestLocatedInputErrors:
    """Malformed inputs exit 1 with a message that says where, never a traceback."""

    def test_non_utf8_recording_id(self, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=5)
        emb.recording_id = "scene"
        data = bytearray(write_embeddings(emb))
        data[-5] = 0xFF
        container = tmp_path / "scene.emb"
        container.write_bytes(bytes(data))
        code = main(["diarize", str(container), "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert f"byte offset {len(data) - 5}" in json.loads(captured.out)["errors"][str(container)]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text, where", [
        ("[]", "chunk plan must be a JSON object"),
        ('{"files": []}', "chunk plan: missing key 'chunks'"),
        ('{"source_duration": 5, "forced_split_count": 0,'
         ' "chunks": [{"start": 0, "end": 2, "kind": "silence"}, {"start": 3, "end": "x", "kind": "silence"}]}',
         "chunk plan chunks[1]:"),
        ('{"chunks": [\n  {"start": 0,', "line 2: chunk plan is not valid JSON"),
        ('{"source_duration": 5, "forced_split_count": 0,'
         ' "chunks": [{"start": 0, "end": 2, "kind": "silence"}, {"start": 3, "end": 4, "kind": "bogus"}]}',
         "chunk plan chunks[1]: kind must be one of silence, forced, end-of-audio, got 'bogus'"),
        ('{"source_duration": "abc", "forced_split_count": 0, "chunks": [{"start": 0, "end": 2, "kind": "silence"}]}',
         "chunk plan: source_duration must be a finite number, got 'abc'"),
        ('{"source_duration": 5, "forced_split_count": "x", "chunks": [{"start": 0, "end": 2, "kind": "forced"}]}',
         "chunk plan: forced_split_count must be 1, the number of forced chunks, got 'x'"),
        ('{"source_duration": 5, "forced_split_count": 0, "chunks": [{"start": 0, "end": 2, "kind": "forced"}]}',
         "chunk plan: forced_split_count must be 1"),
    ])
    def test_bad_plan_document(self, text, where, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(text)
        code = main(["windows", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert where in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, flag, target", [
        ("diarize", "--out-dir", "afile"),
        ("chunk", "--write-chunks", "afile"),
        ("cluster", "--out", "missing_dir/r.json"),
    ])
    def test_unwritable_output(self, command, flag, target, speech_wav, tmp_path, capsys):
        emb, _ = two_speaker_scene(seed=5)
        container = tmp_path / "scene.emb"
        write_embeddings_file(container, emb)
        (tmp_path / "afile").write_text("")
        source = speech_wav if command == "chunk" else container
        code = main([command, str(source), flag, str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("error:") == 1
        assert f"{command}: error: " in captured.err
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("command", ["chunk", "detect-music", "windows"])
    def test_sample_rate_zero_is_that_files_error(self, command, tmp_path, capsys):
        bad = tmp_path / "rate0.wav"
        bad.write_bytes(wav_bytes([np.full(100, 0.25, np.float32)], 0, "pcm16"))
        code = main([command, str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        message = "sample rate must be >= 1 (byte offset 12)"  # at the fmt chunk
        if command == "windows":
            assert captured.out == ""
            assert captured.err.splitlines() == [f"windows: error: {message}"]
        else:
            assert json.loads(captured.out)["errors"] == {str(bad): message}

    def test_sample_rate_zero_beside_good_file(self, speech_wav, tmp_path, capsys):
        bad = tmp_path / "rate0.wav"
        bad.write_bytes(wav_bytes([np.full(100, 0.25, np.float32)], 0, "pcm16"))
        out_dir = tmp_path / "pieces"
        code, out = run(capsys, "chunk", str(bad), str(speech_wav), "--min-dur", "3", "--max-dur", "6",
                        "--write-chunks", str(out_dir), "--workers", "2")
        doc = json.loads(out)
        assert code == 1
        assert list(doc["errors"]) == [str(bad)]
        assert [f["path"] for f in doc["files"]] == [str(speech_wav)]
        n_chunks = len(doc["files"][0]["chunks"])
        assert n_chunks >= 2
        assert sorted(p.name for p in out_dir.iterdir()) == [f"speech_chunk{i:03d}.wav" for i in range(n_chunks)]


# Every flag of every subcommand today: flag -> (dest, type, choices, default, nargs, required).
_COMMON = {
    "--config": ("config", None, None, None, None, False),
    "--out": ("out", None, None, None, None, False),
    "--workers": ("workers", "int", None, None, None, False),
}
_CLUSTERING = {
    "--method": ("method", None, ["ahc", "gmm", "kmeans"], None, None, False),
    "--tau": ("tau", "float", None, None, None, False),
    "--min-cluster-size": ("min_cluster_size", "int", None, None, None, False),
    "--pca-components": ("pca_components", "int", None, None, None, False),
    "--fixed-k": ("fixed_k", "int", None, None, None, False),
    "--k-min": ("k_min", "int", None, None, None, False),
    "--k-max": ("k_max", "int", None, None, None, False),
    "--criterion": ("criterion", None, ["AIC", "BIC"], None, None, False),
    "--smoothing-window": ("smoothing_window", "int", None, None, None, False),
    "--seed": ("seed", "int", None, 0, None, False),
    "paths": ("paths", None, None, None, "+", True),
}
_SCORE = {
    "--ref": ("ref", None, None, None, None, True),
    "--hyp": ("hyp", None, None, None, None, True),
}
EXPECTED_FLAGS = {
    "chunk": {
        **_COMMON,
        "paths": ("paths", None, None, None, "+", True),
        "--top-db": ("top_db", "float", None, None, None, False),
        "--min-dur": ("min_dur", "float", None, None, None, False),
        "--max-dur": ("max_dur", "float", None, None, None, False),
        "--write-chunks": ("write_chunks", None, None, None, None, False),
    },
    "detect-music": {
        **_COMMON,
        "paths": ("paths", None, None, None, "+", True),
        "--threshold": ("threshold", "float", None, None, None, False),
    },
    "diarize": {
        **_COMMON,
        **_CLUSTERING,
        "--out-dir": ("out_dir", None, None, None, None, False),
        "--min-duration-off": ("min_duration_off", "float", None, None, None, False),
    },
    "cluster": {**_COMMON, **_CLUSTERING},
    "score wer": {
        "--out": _COMMON["--out"],
        "--workers": _COMMON["--workers"],
        **_SCORE,
        "--strip-punctuation": ("strip_punctuation", None, None, False, 0, False),
    },
    "score der": {
        **_COMMON,
        **_SCORE,
        "--repair": ("repair", None, None, False, 0, False),
        "--collar": ("collar", "float", None, None, None, False),
        "--skip-overlap": ("skip_overlap", None, None, None, 0, False),
    },
    "repair": {
        "path": ("path", None, None, None, None, True),
        "--strict": ("strict", None, None, False, 0, False),
        "--out": ("out", None, None, None, None, False),
        "--report": ("report", None, None, None, None, False),
    },
    "windows": {
        "--config": _COMMON["--config"],
        "--out": _COMMON["--out"],
        "path": ("path", None, None, None, None, True),
        "--window": ("window", "float", None, 1.5, None, False),
        "--hop": ("hop", "float", None, 0.75, None, False),
    },
}


def _leaf_parsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = any(isinstance(a, argparse._SubParsersAction) for a in sub._actions)
                yield from _leaf_parsers(sub, f"{prefix}{name} ") if nested else [(prefix + name, sub)]


class TestOptionTable:
    def test_rows_name_real_config_fields(self):
        config = PipelineConfig()
        for dest, section, name, _, commands in OPTIONS:
            assert name in {f.name for f in fields(getattr(config, section))}, dest
            assert set(commands) <= set(EXPECTED_FLAGS), dest

    def test_every_subcommand_keeps_its_flags(self):
        found = {}
        for name, parser in _leaf_parsers(build_parser()):
            found[name] = {
                "/".join(a.option_strings) or a.dest:
                    (a.dest, getattr(a.type, "__name__", a.type), a.choices, a.default, a.nargs, a.required)
                for a in parser._actions if not isinstance(a, argparse._HelpAction)
            }
        assert found == EXPECTED_FLAGS


def _number_flag_cases():
    """(command, argv tail) for every int and float flag of every subcommand
    at -1 and 0, floats also at nan, inf and -inf; the clustering flags
    under each method. `--flag=value` keeps argparse from reading -inf as a flag."""
    for command, parser in _leaf_parsers(build_parser()):
        methods = next((a.choices for a in parser._actions if a.dest == "method"), [None])
        for action in parser._actions:
            if action.type not in (int, float):
                continue
            values = ["-1", "0"] + (["nan", "inf", "-inf"] if action.type is float else [])
            for method, value in itertools.product(methods, values):
                tail = [f"{action.option_strings[0]}={value}"] + (["--method", method] if method else [])
                yield pytest.param(command, tail, id=f"{command} {' '.join(tail)}")


def _sweep_inputs(command: str, tmp_path) -> list[str]:
    """Small valid inputs for `command`, with its outputs under `tmp_path`."""
    if command in ("chunk", "detect-music", "windows"):
        path = tmp_path / "speech.wav"
        write_wav(path, Waveform(np.concatenate([tone(440, 2.0), silence(0.5), tone(880, 2.0)]), SR))
        return [str(path)]
    emb, truth = two_speaker_scene(seed=5, total_seconds=20.0, dim=8)
    if command in ("diarize", "cluster"):
        write_embeddings_file(tmp_path / "scene.emb", emb)
        return [str(tmp_path / "scene.emb")] + (["--out-dir", str(tmp_path / "out")] if command == "diarize" else [])
    if command == "score der":
        (tmp_path / "ref.rttm").write_text(write_rttm([truth]))
        return ["--ref", str(tmp_path / "ref.rttm"), "--hyp", str(tmp_path / "ref.rttm")]
    (tmp_path / "s.txt").write_text("one two three")
    return ["--ref", str(tmp_path / "s.txt"), "--hyp", str(tmp_path / "s.txt")]


@pytest.mark.parametrize("command, tail", list(_number_flag_cases()))
def test_no_number_flag_value_escapes_main(command, tail, tmp_path, capsys):
    argv = [*command.split(), *_sweep_inputs(command, tmp_path), *tail, "--out", str(tmp_path / "report.json")]
    assert main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_console_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "speechpipe.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "speechpipe" in result.stdout


def test_cold_start_loads_no_scipy():
    # scipy.signal is imported by the audio functions that use it; scoring needs no scipy.
    code = "import sys, speechpipe.cli; speechpipe.cli.build_parser(); print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# Runs the CLI where any import of scipy fails; the report goes to stdout.
_NO_SCIPY_CHILD = """
import sys
sys.modules["scipy"] = None
from speechpipe import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.fixture
def score_inputs(tmp_path):
    """Reference and hypothesis timelines of three recordings with overlapping
    speakers (the hypothesis CSV with corrupted rows), and transcripts."""
    rng = np.random.default_rng(11)
    ids = ["rec_a", "rec_b", "rec_c"]
    ref = [random_timeline(rng, rid, 4) for rid in ids]
    hyp = [random_timeline(rng, rid, 5) for rid in ids]
    (tmp_path / "ref.rttm").write_text(write_rttm(ref))
    header, *rows = write_segments_csv(hyp).splitlines()
    rows = [corrupt_row(row, rng)[1] if i % 4 == 0 else row for i, row in enumerate(rows)]
    (tmp_path / "hyp.csv").write_text("\n".join([header, *rows]) + "\n")
    words = "ami bhalo achi tumi kemon acho".split()
    for name, picks in [("ref", [0, 1, 2, 3, 4, 5]), ("hyp", [0, 2, 2, 3, 5])]:
        text = " ".join(words[i] for i in picks)
        (tmp_path / f"{name}.jsonl").write_text(
            "".join(f'{{"id":"{rid}","start":0,"end":5,"text":"{text}"}}\n' for rid in ids))
    return tmp_path


@pytest.mark.parametrize("metric, ref, hyp, flags", [
    ("der", "ref.rttm", "hyp.csv", ["--repair", "--collar", "0.25"]),
    ("der", "ref.rttm", "hyp.csv", ["--repair", "--skip-overlap"]),
    ("wer", "ref.jsonl", "hyp.jsonl", []),
])
def test_score_runs_without_scipy(metric, ref, hyp, flags, score_inputs, capsys):
    argv = ["score", metric, "--ref", str(score_inputs / ref), "--hyp", str(score_inputs / hyp), *flags]
    code, expected = run(capsys, *argv)
    assert code == 0
    if metric == "der":
        assert all(len(f["mapping"]) >= 2 for f in json.loads(expected)["files"].values())
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, *argv], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


# Runs the CLI, then reports its status, the directory each spool file was
# made in and whether each was closed.
_SPOOL_CHILD = """
import json, os, sys, tempfile
from speechpipe import cli

make_file, spools = tempfile.TemporaryFile, []

def recorded():
    fh = make_file()
    spools.append((fh, os.path.dirname(os.readlink(f"/proc/self/fd/{fh.fileno()}"))))
    return fh

tempfile.TemporaryFile = recorded
status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, "dirs": [d for _, d in spools], "closed": [fh.closed for fh, _ in spools]}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="reads where the spool files are")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_spool_files_removed_on_every_exit_path(workers, tmp_path):
    # A float32 file with a NaN after its first decode block fails once its
    # first block is spooled; the good file is still planned. Every spool
    # is made in TMPDIR and closed, none is left to the collector (which
    # would warn), and TMPDIR is empty after the failed run and a clean one.
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    x = (np.random.default_rng(5).standard_normal(wavefile._BLOCK_SAMPLES + SR) * 0.1).astype(np.float32)
    x[wavefile._BLOCK_SAMPLES + 7] = np.nan
    bad, good = str(tmp_path / "bad.wav"), str(tmp_path / "good.wav")
    write_wav(bad, [x], SR, "float32")
    write_wav(good, Waveform(np.concatenate([tone(440, 4.0), silence(1.0), tone(880, 4.0)]), SR))
    (tmp_path / "config.json").write_text(json.dumps({"preprocess": {"detect_music": True}}))
    flags = ["--config", str(tmp_path / "config.json"), "--workers", workers,
             "--min-dur", "3", "--max-dur", "6", "--write-chunks", str(tmp_path / "pieces")]
    for paths, status in (([bad, good], 1), ([good], 0)):
        result = subprocess.run(
            [sys.executable, "-W", "always::ResourceWarning", "-c", _SPOOL_CHILD, "chunk", *paths, *flags,
             "--out", str(tmp_path / "report.json")],
            capture_output=True, text=True, env={**os.environ, "TMPDIR": str(spool_dir), "OPENBLAS_NUM_THREADS": "1"},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr and "ResourceWarning" not in result.stderr
        run = json.loads(result.stdout)
        assert run["status"] == status
        assert run["dirs"] == [str(spool_dir)] * len(paths) and all(run["closed"]), run
        assert list(spool_dir.iterdir()) == []
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [f["path"] for f in doc["files"]] == [good]
        assert doc.get("errors", {}) == ({bad: "Waveform samples must be finite"} if status else {})


def write_speech_like_wav(path, minutes: int) -> None:
    """`minutes` of 16 kHz mono PCM16 with 0.3 s bursts of 220 Hz over
    noise, one 10-second tile repeated, written a tile at a time."""
    rng = np.random.default_rng(0)
    t = np.arange(10 * SR) / SR
    bursts = 0.3 * np.sin(2 * np.pi * 220 * t) * (np.sin(2 * np.pi * 0.3 * t) > 0)
    tile = wav_bytes([(bursts + 0.01 * rng.standard_normal(len(t))).astype(np.float32)], SR, "pcm16")
    payload = tile[tile.index(b"data") + 8 :]
    size = len(payload) * minutes * 6
    with open(path, "wb") as fh:
        fh.write(tile[: tile.index(b"data")].replace(tile[4:8], struct.pack("<I", 36 + size), 1)
                 + b"data" + struct.pack("<I", size))
        for _ in range(minutes * 6):
            fh.write(payload)


# Imports the CLI once, then runs each command line of the JSON list in
# argv[1] in a forked child of its own, which prints its exit status, its
# VmHWM before the run and its VmHWM after it (ru_maxrss would carry the
# parent's peak into the child).
_PEAK_RSS_RUNS = """
import json, os, sys
import scipy.signal  # loaded on first use: part of the baseline
from speechpipe import cli

def high_water_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

for argv in json.loads(sys.argv[1]):
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        base = high_water_kb()
        status = cli.main(argv)
        print(status, base, high_water_kb(), flush=True)
        os._exit(0)
    os.waitpid(pid, 0)
"""


@pytest.mark.skipif(not (os.path.exists("/proc/self/status") and hasattr(os, "fork")), reason="reads a forked child's VmHWM")
def test_chunk_peak_memory_bounded_by_file_size(tmp_path):
    """`chunk --write-chunks` with music detection, at one worker and at two
    (on two files), `detect-music` and `windows` on a WAV peak as high on
    6 minutes of audio as on 24, within a fixed 24 MB, above the process's
    import-time peak: the conditioned signal waits in a spool file, and
    memory holds blocks of it. Holding the 16 kHz float32 signal took 69 MB
    more at 24 minutes than at 6."""
    (tmp_path / "config.json").write_text(json.dumps({"preprocess": {"detect_music": True}}))
    config = ["--config", str(tmp_path / "config.json")]
    runs = []
    for minutes in (6, 24):
        paths = [str(tmp_path / f"{name}{minutes}.wav") for name in ("a", "b")]
        write_speech_like_wav(paths[0], minutes)
        os.link(paths[0], paths[1])
        runs += [
            ["chunk", paths[0], *config, "--workers", "1", "--write-chunks", str(tmp_path / f"w1_{minutes}")],
            ["chunk", *paths, *config, "--workers", "2", "--write-chunks", str(tmp_path / f"w2_{minutes}")],
            ["detect-music", *paths, "--workers", "2"],
            ["windows", paths[0]],
        ]
    runs = [[*argv, "--out", str(tmp_path / "report.json")] for argv in runs]
    result = subprocess.run([sys.executable, "-c", _PEAK_RSS_RUNS, json.dumps(runs)], capture_output=True, text=True,
                            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120)
    assert result.returncode == 0, result.stderr
    measured = [tuple(map(int, line.split())) for line in result.stdout.splitlines()]
    assert [status for status, _, _ in measured] == [0] * len(runs), result.stderr
    growth = [(peak_kb - base_kb) / 1024 for _, base_kb, peak_kb in measured]
    half = len(runs) // 2
    for argv, short, long in zip(runs, growth[:half], growth[half:]):
        assert abs(long - short) < 24, (argv[0], growth)


def conditioned_by_library_calls(path, cfg: PreprocessConfig) -> Waveform:
    """The signal every audio command analyses, from the copying library calls:
    `peak_normalize(highpass(resample(load_mono(path), 16000), 60), 0.98)` by
    default, each step skipped when its field is 0."""
    w = load_mono(path)
    if cfg.target_sample_rate and w.sample_rate != cfg.target_sample_rate:
        w = resample(w, cfg.target_sample_rate)
    if cfg.highpass_hz:
        w = highpass(w, cfg.highpass_hz)
    if cfg.peak_target:
        w = peak_normalize(w, cfg.peak_target)
    return w


class TestConditionedEqualsLibraryCalls:
    """`_conditioned` decodes, downmixes, resamples and high-passes a block at
    a time into a spool file, and scales each block read back by the peak
    gain; it reads back the copying calls' bytes."""

    CONFIGS = [
        PreprocessConfig(),
        PreprocessConfig(target_sample_rate=0),
        PreprocessConfig(highpass_hz=0),
        PreprocessConfig(peak_target=0),
        PreprocessConfig(target_sample_rate=0, highpass_hz=0, peak_target=0),
    ]

    @staticmethod
    def assert_same(path, cfg: PreprocessConfig, case):
        want = conditioned_by_library_calls(str(path), cfg)
        with _conditioned(str(path), cfg) as got:
            assert got.sample_rate == want.sample_rate and len(got) == len(want), case
            samples = got.read(0, len(got))
        assert samples.dtype == want.samples.dtype == np.float32, case
        assert samples.tobytes() == want.samples.tobytes(), case

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
    def test_many_block_edges(self, rate, monkeypatch, tmp_path):
        # Decode blocks of 999 samples and resampling blocks of a few hundred
        # outputs put many edges of both, and slices over several decode
        # blocks, inside short files.
        monkeypatch.setattr(wavefile, "_BLOCK_SAMPLES", 999)
        monkeypatch.setattr(audio, "_BLOCK_SAMPLES", 500)
        rng = np.random.default_rng(rate)
        path = tmp_path / "x.wav"
        for n_channels, encoding in itertools.product((1, 2, 3), ("pcm16", "float32")):
            for n in (0, 1, 2, 998, 7001):
                channels = [rng.uniform(-1.1, 1.1, n).astype(np.float32) for _ in range(n_channels)]
                write_wav(path, channels, rate, encoding)
                for cfg in self.CONFIGS:
                    self.assert_same(path, cfg, (n_channels, encoding, n, cfg))
            write_wav(path, [np.zeros(7001, np.float32)] * n_channels, rate, encoding)
            for cfg in self.CONFIGS:
                self.assert_same(path, cfg, (n_channels, encoding, "all zero", cfg))

    @pytest.mark.parametrize("rate, n_channels, encoding, spans", [
        (22050, 3, "float32", 2),
        (44100, 2, "pcm16", 2),
        (44100, 3, "pcm16", 3),
        (48000, 3, "float32", 3),
    ])
    def test_slices_over_module_size_decode_blocks(self, rate, n_channels, encoding, spans, tmp_path):
        g = math.gcd(rate, 16000)
        up, down = 16000 // g, rate // g
        per_output_block = audio._BLOCK_SAMPLES // up * up * down // up  # input samples, about
        frames_per_block = wavefile._BLOCK_SAMPLES // n_channels
        assert per_output_block > (spans - 1) * frames_per_block  # a slice spans this many decode blocks
        rng = np.random.default_rng(rate + n_channels)
        n = 2 * per_output_block + 4321
        path = tmp_path / "x.wav"
        write_wav(path, [rng.uniform(-1, 1, n).astype(np.float32) for _ in range(n_channels)], rate, encoding)
        self.assert_same(path, PreprocessConfig(), (rate, n_channels, encoding))

    @pytest.mark.parametrize("rate", [16000, 44100])
    def test_nan_sample_is_that_files_error(self, rate, tmp_path):
        x = (np.random.default_rng(rate).standard_normal(3 * rate) * 0.1).astype(np.float32)
        x[rate + 7] = np.nan
        path, report = tmp_path / "nan.wav", tmp_path / "report.json"
        write_wav(path, [x, x[::-1]], rate, "float32")
        assert main(["chunk", str(path), "--out", str(report)]) == 1
        assert json.loads(report.read_text())["errors"] == {str(path): "Waveform samples must be finite"}

    @pytest.mark.parametrize("rate", [16000, 44100])
    def test_data_chunk_cut_mid_read_is_located(self, rate, tmp_path, monkeypatch):
        # Stereo of one and a half decode blocks, cut inside the second: the
        # first block is decoded and downmixed before the cut is read.
        n = wavefile._BLOCK_SAMPLES * 3 // 4
        x = (np.random.default_rng(rate).standard_normal(n) * 0.1).astype(np.float32)
        path, report = tmp_path / "cut.wav", tmp_path / "report.json"
        data = wav_bytes([x, x[::-1]], rate, "pcm16")
        path.write_bytes(data)
        cut = data.index(b"data") + 8 + 2 * wavefile._BLOCK_SAMPLES + 1001
        read_layout = wavefile._read_layout

        def cut_after_layout(fh):
            layout = read_layout(fh)
            os.truncate(path, cut)
            return layout

        monkeypatch.setattr(wavefile, "_read_layout", cut_after_layout)
        assert main(["chunk", str(path), "--out", str(report)]) == 1
        assert json.loads(report.read_text())["errors"] == {str(path): f"data chunk truncated (byte offset {cut})"}
