from __future__ import annotations

import json
import struct
import subprocess
import sys

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
    write_embeddings_file,
    write_rttm,
    write_segments_csv,
    write_wav,
)
from speechpipe.cli import main
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

    def test_detect_music_toggle_annotates_plans(self, tmp_path, capsys, speech_wav):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"preprocess": {"detect_music": true}, "chunking": {"min_dur": 3, "max_dur": 6}}'
        )
        code, out = run(capsys, "chunk", str(speech_wav), "--config", str(cfg))
        assert code == 0
        entry = json.loads(out)["files"][0]
        assert "music" in entry and set(entry["music"]) == {"score", "is_music"}


def test_console_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "speechpipe.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "speechpipe" in result.stdout
