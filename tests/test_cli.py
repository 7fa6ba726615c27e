from __future__ import annotations

import argparse
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from speechpipe import (
    SpeakerSegment,
    SpeakerTimeline,
    TimeSpan,
    Waveform,
    der,
    parse_rttm,
    wav_bytes,
    write_embeddings,
    write_embeddings_file,
    write_rttm,
    write_segments_csv,
    write_wav,
)
from speechpipe.cli import OPTIONS, PipelineConfig, build_parser, main
from synth import SR, clean_rows, corrupt_row, silence, tone, two_speaker_scene


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

    def test_write_chunks_rejects_shared_stems(self, tmp_path, capsys):
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            write_wav(tmp_path / folder / "take.wav", Waveform(tone(440, 2.0), SR))
        paths = [str(tmp_path / "a" / "take.wav"), str(tmp_path / "b" / "take.wav")]
        code = main(["chunk", *paths, "--write-chunks", str(tmp_path / "pieces")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("chunk: error: ") == 1
        assert "'take'" in captured.err
        assert not (tmp_path / "pieces").exists()
        code, _ = run(capsys, "chunk", *paths)  # without writes the shared stem is harmless
        assert code == 0

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

    @pytest.mark.parametrize("flags", [["--window", "inf"], ["--window", "nan"], ["--hop", "inf", "--window", "inf"]])
    def test_non_finite_window_or_hop_exits_one(self, flags, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"recording_id": "x", "source_duration": 10.0, "forced_split_count": 0,
                                    "chunks": [{"start": 0.0, "end": 4.5, "kind": "silence"}]}))
        code = main(["windows", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "windows: error: need 0 < hop <= window, both finite" in captured.err


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
        ("chunk", [], {"preprocess": {"detect_music": True}, "music": {"hop_length": 0}}),
        ("score der", ["--collar", "-1"], None),
        ("score der", ["--collar", "nan"], None),
        ("cluster", ["--tau", "inf"], None),
        ("diarize", ["--min-duration-off", "inf"], None),
        ("chunk", ["--top-db", "inf"], None),
        ("detect-music", ["--threshold", "nan"], None),
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
    "--repair": ("repair", None, None, False, 0, False),
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
        **_COMMON,
        **_SCORE,
        "--strip-punctuation": ("strip_punctuation", None, None, False, 0, False),
    },
    "score der": {
        **_COMMON,
        **_SCORE,
        "--collar": ("collar", "float", None, None, None, False),
        "--skip-overlap": ("skip_overlap", None, None, None, 0, False),
    },
    "repair": {
        "path": ("path", None, None, None, None, True),
        "--strict": ("strict", None, None, False, 0, False),
        "--out": ("out", None, None, None, None, False),
        "--report": ("report", None, None, None, None, False),
        "--config": ("config", None, None, None, None, False),
    },
    "windows": {
        **_COMMON,
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


def test_console_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "speechpipe.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "speechpipe" in result.stdout
