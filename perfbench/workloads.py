"""Seeded inputs, CLI ops and output checks for the three benchmark workloads.

Inputs are written with this module's own encoders (RIFF/WAVE, the EMB1
container, JSONL, RTTM, segments CSV), so the benchmark depends on the
program only through its command line and its documented file formats.
Sizes and per-file costs are fixed by the scale; the seed changes content
only, so every seed asks the program for about the same amount of work.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

WORKLOADS = ("longform_chunk", "diarize_batch", "score_corpus")

# Per-scale sizes. "full" is what the timed and traced runs use; "tiny" is the
# smoke check's.
SCALES = {
    "full": {
        # (name, seconds, sample rate, channels, encoding)
        "audio": [
            ("long_a", 1800.0, 16000, 1, "float32"),
            ("long_b", 900.0, 44100, 2, "pcm16"),
            ("long_c", 300.0, 48000, 2, "pcm16"),
        ],
        # (windows, speakers): about 1, 2, 3 and 4 minutes of speech
        "scenes": [(65, 3), (130, 5), (195, 2), (260, 4)],
        "wer_docs": 10,
        "wer_words": (3000, 6000),
        "der_recordings": 10,
        "der_segments": 2000,
        "der_seconds": 3600.0,
        "repair_rows": 100_000,
    },
    "tiny": {
        "audio": [
            ("long_a", 40.0, 16000, 1, "float32"),
            ("long_b", 25.0, 44100, 2, "pcm16"),
            ("long_c", 15.0, 48000, 2, "pcm16"),
        ],
        "scenes": [(65, 3), (100, 2)],
        "wer_docs": 3,
        "wer_words": (200, 400),
        "der_recordings": 3,
        "der_segments": 120,
        "der_seconds": 240.0,
        "repair_rows": 2000,
    },
}

EMB_DIM = 192
WINDOW, HOP = 1.5, 0.75


# ---------------------------------------------------------------------------
# Encoders for the documented formats

def _wav_header(n_frames: int, sample_rate: int, channels: int, encoding: str) -> bytes:
    code, bits = (1, 16) if encoding == "pcm16" else (3, 32)
    block_align = channels * bits // 8
    payload = n_frames * block_align
    fmt = struct.pack("<HHIIHH", code, channels, sample_rate, sample_rate * block_align, block_align, bits)
    return (
        b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + payload + (payload & 1)) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", payload)
    )


def _emb1_bytes(vectors: np.ndarray, spans: list[tuple[float, float]], rid: str) -> bytes:
    n, d = vectors.shape
    out = bytearray(struct.pack("<4sHII", b"EMB1", 1, n, d))
    out += vectors.astype("<f4").tobytes()
    for start, end in spans:
        out += struct.pack("<dd", start, end)
    rid_bytes = rid.encode("utf-8")
    return bytes(out + struct.pack("<I", len(rid_bytes)) + rid_bytes)


def _fmt_time(t: float) -> str:
    text = f"{t:.3f}".rstrip("0").rstrip(".")
    return text or "0"


# ---------------------------------------------------------------------------
# longform_chunk: speech-like bursts over a music bed

TILE_S = 0.4  # the signal is a seeded sequence of 0.4 s tiles from small pools
POOL = 64


def _tile_pools(rng, sr: int) -> tuple[np.ndarray, np.ndarray]:
    """(speech, music) pools of POOL tiles each, float32, peak about 0.25."""
    t = np.arange(int(round(TILE_S * sr))) / sr
    # Speech proxy: low-passed noise under a ~4 Hz syllable envelope.
    noise = rng.standard_normal((POOL, len(t)))
    noise[:, 1:] += 0.7 * noise[:, :-1]
    syllable = np.abs(np.sin(np.pi * 4.2 * (t + rng.uniform(0, 0.25, size=(POOL, 1)))))
    speech = 0.07 * noise * syllable
    # Music proxy: a three-partial chord with a sharp onset every 0.1 s.
    freqs = rng.uniform(200.0, 4000.0, size=(POOL, 3, 1))
    chord = np.sin(2 * np.pi * freqs * t).sum(axis=1) / 3.0
    music = 0.25 * chord * np.exp(-((t % 0.1) / 0.03))
    return speech.astype(np.float32), music.astype(np.float32)


def _on_off_tiles(rng, n_tiles: int, on: tuple[int, int], off: tuple[int, int], first: bool) -> np.ndarray:
    """Per-tile on/off flags in runs whose lengths are drawn from `on` and `off`."""
    flags = np.zeros(n_tiles, dtype=bool)
    i, state = 0, first
    while i < n_tiles:
        run = int(rng.integers(*(on if state else off)))
        flags[i:i + run] = state
        i, state = i + run, not state
    return flags


def write_long_wav(path: Path, seconds: float, sr: int, channels: int, encoding: str, seed: int) -> int:
    """Write one long WAV: utterances (1.6-8.8 s) and pauses (0.4-2.4 s) over a
    quiet music bed (about -36 dB) that turns loud in 8-20 s interludes.
    Returns the frame count."""
    rng = np.random.default_rng(seed)
    speech, music = _tile_pools(rng, sr)
    n_tiles = int(round(seconds / TILE_S))
    speaking = _on_off_tiles(rng, n_tiles, (4, 23), (1, 7), True)
    interlude = _on_off_tiles(rng, n_tiles, (20, 51), (100, 226), False)
    speech_idx = np.where(speaking, rng.integers(POOL, size=n_tiles), -1)
    music_idx = rng.integers(POOL, size=n_tiles)
    music_gain = np.where(interlude, 1.0, 0.016).astype(np.float32)[:, None]
    silent = np.zeros((1, speech.shape[1]), dtype=np.float32)
    speech = np.concatenate([speech, silent])  # index -1: no speech
    n = n_tiles * speech.shape[1]
    with open(path, "wb") as fh:
        fh.write(_wav_header(n, sr, channels, encoding))
        for a in range(0, n_tiles, 128):
            b = min(a + 128, n_tiles)
            s, m = speech[speech_idx[a:b]], music[music_idx[a:b]] * music_gain[a:b]
            frames = (s + m).reshape(-1, 1) if channels == 1 else np.stack([s + m, 0.8 * s + 1.2 * m], axis=-1).reshape(-1, 2)
            if encoding == "pcm16":
                data = np.rint(np.clip(frames, -1.0, 1.0) * 32767.0).astype("<i2")
            else:
                data = frames.astype("<f4")
            fh.write(data.tobytes())
    return n


# ---------------------------------------------------------------------------
# diarize_batch: EMB1 containers from a seeded multi-speaker scene

def speaker_scene(windows: int, n_spk: int, seed: int) -> tuple[np.ndarray, list[tuple[float, float]], list[int]]:
    """Exactly `windows` windows of an `n_spk`-speaker scene with turn gaps.

    Speakers take 3-12 s turns round-robin in a shuffled order, so each holds
    about the same share; the last turn is cut to the window count, which
    fixes the clustering cost of the scene whatever the seed.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_spk, EMB_DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    order = rng.permutation(n_spk)
    spans, owners = [], []
    clock, turn = 0.0, 0
    while len(spans) < windows:
        count = min(int(rng.integers(3, 16)), windows - len(spans))
        for i in range(count):
            start = clock + i * HOP
            spans.append((round(start, 6), round(start + WINDOW, 6)))
            owners.append(int(order[turn % n_spk]))
        clock += WINDOW + (count - 1) * HOP + float(rng.uniform(0.2, 1.5))
        turn += 1
    noise = rng.standard_normal((windows, EMB_DIM)) * (0.8 / np.sqrt(EMB_DIM))
    vectors = centers[np.array(owners)] + noise
    return vectors.astype(np.float32), spans, np.bincount(owners, minlength=n_spk).tolist()


# ---------------------------------------------------------------------------
# score_corpus: transcripts, timelines and segments CSVs

def _vocabulary(rng, size: int = 3000) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(letters, size=int(rng.integers(2, 10)))))
    return sorted(words)


def _edit_words(rng, words: list[str], vocab: list[str], rate: float) -> tuple[list[str], int]:
    out, edits = [], 0
    for word in words:
        if rng.random() >= rate:
            out.append(word)
            continue
        edits += 1
        kind = int(rng.integers(3))
        if kind == 0:
            out.append(vocab[int(rng.integers(len(vocab)))])
        elif kind == 2:
            out.extend((word, vocab[int(rng.integers(len(vocab)))]))
    return out, edits


def _transcript_lines(rid: str, words: list[str], per_chunk: int = 120) -> list[str]:
    lines = []
    for i in range(0, len(words), per_chunk):
        lines.append(json.dumps(
            {"id": rid, "start": i * 0.4, "end": (i + per_chunk) * 0.4, "text": " ".join(words[i:i + per_chunk])},
            separators=(",", ":"),
        ))
    return lines


def _timeline(rng, n_segments: int, seconds: float) -> list[tuple[float, float, str]]:
    """Segments of 4-6 speakers, about one in six overlapping the one before."""
    n_spk = int(rng.integers(4, 7))
    step = seconds / n_segments
    out = []
    clock = 0.0
    for _ in range(n_segments):
        length = float(rng.uniform(0.6, 2.6)) * step
        start = clock - float(rng.uniform(0.1, 0.5)) * step if out and rng.random() < 0.17 else clock
        start = max(0.0, round(start, 3))
        end = round(start + length, 3)
        out.append((start, end, f"S{int(rng.integers(n_spk))}"))
        clock = max(clock, end) + float(rng.uniform(0.0, 0.3)) * step
    return out


def _hypothesis(rng, ref: list[tuple[float, float, str]]) -> list[tuple[float, float, str]]:
    """Jittered boundaries, relabelled speakers, some confusions, misses and false alarms."""
    rename = {}
    out = []
    for start, end, spk in ref:
        label = rename.setdefault(spk, f"H{len(rename) * 7 % 10}{len(rename)}")
        roll = rng.random()
        if roll < 0.05:
            continue  # missed
        if roll < 0.12:
            label = f"H9{int(rng.integers(3))}"  # confusion
        a = max(0.0, round(start + float(rng.normal(0, 0.08)), 3))
        b = round(end + float(rng.normal(0, 0.08)), 3)
        if b > a:
            out.append((a, b, label))
        if rng.random() < 0.04:
            out.append((b + 0.05, b + 0.05 + float(rng.uniform(0.2, 1.0)), "HFA"))
    return out


def _corrupt(rng, row: str) -> str:
    """One recoverable corruption of a canonical row."""
    f = row.split(",")
    kind = int(rng.integers(5))
    if kind == 0:
        k = int(rng.integers(4))
        f[k] = " " + f[k] + "  "
    elif kind == 1 and "." in f[1] + f[2]:
        f[1], f[2] = f[1].replace(".", ","), f[2].replace(".", ",")
    elif kind == 2:
        k = 1 + int(rng.integers(2))
        f[k] = '"' + f[k] + '"'
    elif kind == 3:
        f[1], f[2] = f[2], f[1]
    else:
        k = 1 + int(rng.integers(3))
        return ",".join(f[:k]) + ",," + ",".join(f[k:])
    return ",".join(f)


def _csv(rows: list[str]) -> str:
    return "\n".join(["id,start,end,speaker", *rows]) + "\n"


# ---------------------------------------------------------------------------
# Input generation and op lists

def generate(workload: str, scale: str, seed: int, in_dir: Path) -> dict:
    """Write the workload's inputs under `in_dir`; return the truth used by `check`."""
    size = SCALES[scale]
    in_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    truth: dict = {}
    if workload == "longform_chunk":
        truth["frames"] = {}
        for i, (name, seconds, sr, channels, encoding) in enumerate(size["audio"]):
            n = write_long_wav(in_dir / f"{name}.wav", seconds, sr, channels, encoding,
                               int(rng.integers(2**31)) + i)
            truth["frames"][name] = [n, sr]
        (in_dir / "config.json").write_text(json.dumps({"preprocess": {"detect_music": True}}))
    elif workload == "diarize_batch":
        truth["windows_per_speaker"] = {}
        for i, (windows, n_spk) in enumerate(size["scenes"]):
            rid = f"scene{i}"
            vectors, spans, counts = speaker_scene(windows, n_spk, int(rng.integers(2**31)))
            (in_dir / f"{rid}.emb").write_bytes(_emb1_bytes(vectors, spans, rid))
            truth["windows_per_speaker"][rid] = counts
    elif workload == "score_corpus":
        vocab = _vocabulary(rng)
        lo, hi = size["wer_words"]
        ref_lines, hyp_lines = [], []
        ref_words = edits = 0
        for i, count in enumerate(np.linspace(lo, hi, size["wer_docs"]).astype(int)):
            words = [vocab[j] for j in rng.integers(len(vocab), size=int(count))]
            hyp, n_edits = _edit_words(rng, words, vocab, 0.12)
            ref_lines += _transcript_lines(f"doc{i:02d}", words)
            hyp_lines += _transcript_lines(f"doc{i:02d}", hyp)
            ref_words += len(words)
            edits += n_edits
        (in_dir / "ref.jsonl").write_text("\n".join(ref_lines) + "\n")
        (in_dir / "hyp.jsonl").write_text("\n".join(hyp_lines) + "\n")

        rttm, hyp_rows, bad_rows = [], [], []
        for r in range(size["der_recordings"]):
            rid = f"rec{r:02d}"
            ref = _timeline(rng, size["der_segments"], size["der_seconds"])
            rttm += [f"SPEAKER {rid} 1 {a:.3f} {b - a:.3f} <NA> <NA> {s} <NA> <NA>" for a, b, s in ref]
            for a, b, s in _hypothesis(rng, ref):
                row = f"{rid},{_fmt_time(a)},{_fmt_time(b)},{s}"
                hyp_rows.append(row)
                bad_rows.append(_corrupt(rng, row) if rng.random() < 0.2 else row)
        (in_dir / "ref.rttm").write_text("\n".join(rttm) + "\n")
        (in_dir / "hyp.csv").write_text(_csv(hyp_rows))
        (in_dir / "hyp_corrupt.csv").write_text(_csv(bad_rows))

        rows, corrupted, garbage = [], 0, 0
        for i in range(size["repair_rows"]):
            start = round(float(rng.uniform(0, 3600)), 3)
            row = f"rec{int(rng.integers(1, 9))},{_fmt_time(start)},{_fmt_time(start + float(rng.uniform(0.05, 20)))},SPK_{int(rng.integers(8))}"
            roll = rng.random()
            if roll < 0.01:
                row, garbage = f"rec{i % 7},n/a,,", garbage + 1
            elif roll < 0.2:
                bad = _corrupt(rng, row)
                corrupted += bad != row
                row = bad
            rows.append(row)
        (in_dir / "segments.csv").write_text(_csv(rows))
        truth.update(ref_words=ref_words, edits=edits, der_recordings=size["der_recordings"],
                     repair_rows=len(rows), repair_garbage=garbage, repair_corrupted=corrupted)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return truth


def ops(workload: str, scale: str, workers: int) -> list[tuple[str, list[str]]]:
    """(op name, argv) pairs, run from the work directory: every op reads under
    in/ and writes only under out/<op name>/, so report paths are the same in
    every run."""
    in_dir = "in"
    w = ["--workers", str(workers)]
    if workload == "longform_chunk":
        wavs = [f"{in_dir}/long_a.wav", f"{in_dir}/long_b.wav", f"{in_dir}/long_c.wav"]
        return [("chunk", ["chunk", *wavs, "--config", f"{in_dir}/config.json",
                           "--write-chunks", "out/chunk/wavs", "--out", "out/chunk/plans.json", *w])]
    if workload == "diarize_batch":
        embs = [f"{in_dir}/scene{i}.emb" for i in range(len(SCALES[scale]["scenes"]))]
        variants = [
            ("diarize_ahc", []),
            ("diarize_overcluster", ["--method", "gmm", "--fixed-k", "25", "--smoothing-window", "5"]),
            ("diarize_gmm_aic", ["--method", "gmm", "--k-min", "1", "--k-max", "10"]),
            ("diarize_kmeans", ["--method", "kmeans"]),
        ]
        return [(name, ["diarize", *embs, *flags, "--out-dir", f"out/{name}",
                        "--out", f"out/{name}/report.json", *w]) for name, flags in variants]
    if workload == "score_corpus":
        return [
            ("score_wer", ["score", "wer", "--ref", f"{in_dir}/ref.jsonl", "--hyp", f"{in_dir}/hyp.jsonl",
                           "--out", "out/score_wer/report.json", *w]),
            ("score_der", ["score", "der", "--ref", f"{in_dir}/ref.rttm", "--hyp", f"{in_dir}/hyp.csv",
                           "--collar", "0.25", "--out", "out/score_der/report.json", *w]),
            ("score_der_repair", ["score", "der", "--ref", f"{in_dir}/ref.rttm", "--hyp", f"{in_dir}/hyp_corrupt.csv",
                                  "--skip-overlap", "--repair", "--out", "out/score_der_repair/report.json", *w]),
            ("repair", ["repair", f"{in_dir}/segments.csv", "--out", "out/repair/fixed.csv",
                        "--report", "out/repair/report.json"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks that hold for every seed

def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _wav_frames(path: Path) -> int:
    """Frame count from a WAV file's fmt and data chunk headers."""
    block_align = None
    with open(path, "rb") as fh:
        fh.seek(12)
        while header := fh.read(8):
            chunk_id, size = header[:4], struct.unpack("<I", header[4:])[0]
            if chunk_id == b"fmt ":
                block_align = struct.unpack("<HHIIH", fh.read(14))[4]
                fh.seek(size - 14 + (size & 1), os.SEEK_CUR)
            elif chunk_id == b"data" and block_align:
                return size // block_align
            else:
                fh.seek(size + (size & 1), os.SEEK_CUR)
    raise ValueError(f"{path}: no fmt and data chunks")


def check(workload: str, op: str, truth: dict) -> list[str]:
    """Problems with the op's outputs under out/<op>/ (empty when it is correct)."""
    problems: list[str] = []
    if workload == "longform_chunk":
        plans = _load("out/chunk/plans.json")["files"]
        if sorted(Path(f["path"]).stem for f in plans) != sorted(truth["frames"]):
            return [f"chunk: plans for {[f['path'] for f in plans]}"]
        wavs = Path("out/chunk/wavs")
        for f in plans:
            rid = f["recording_id"]
            n, sr = truth["frames"][rid]
            if abs(f["source_duration"] - n / sr) > 1.0 / sr:
                problems.append(f"{rid}: source_duration {f['source_duration']} != {n / sr}")
            if not isinstance(f.get("music", {}).get("is_music"), bool):
                problems.append(f"{rid}: no music decision")
            for i, c in enumerate(f["chunks"]):
                if not 0 < c["end"] - c["start"] <= 30.0 + 1e-6:
                    problems.append(f"{rid} chunk {i}: length {c['end'] - c['start']}")
                expected = round(c["end"] * 16000) - round(c["start"] * 16000)
                got = _wav_frames(wavs / f"{rid}_chunk{i:03d}.wav")
                if got != expected:
                    problems.append(f"{rid} chunk {i}: {got} frames, expected {expected}")
        written = sum(len(f["chunks"]) for f in plans)
        if len(list(wavs.iterdir())) != written:
            problems.append(f"chunk: {len(list(wavs.iterdir()))} WAVs for {written} chunks")
    elif workload == "diarize_batch":
        files = _load(f"out/{op}/report.json")["files"]
        scenes = truth["windows_per_speaker"]
        if sorted(f["recording_id"] for f in files) != sorted(scenes):
            return [f"{op}: files {[f['recording_id'] for f in files]}"]
        for f in files:
            rid, k = f["recording_id"], f["speakers"]
            # Speakers are far apart, so AHC finds each one and then dissolves
            # those with fewer windows than the default min_cluster_size (20).
            expected = max(1, sum(c >= 20 for c in scenes[rid])) if op == "diarize_ahc" else None
            rttm = Path(f["rttm"]).read_text().splitlines()
            csv = Path(f["csv"]).read_text().splitlines()
            if not (len(rttm) == len(csv) - 1 == f["segments"] > 0):
                problems.append(f"{op} {rid}: {len(rttm)} RTTM lines, {len(csv) - 1} CSV rows, {f['segments']} segments")
            if expected is not None and k != expected:
                problems.append(f"{op} {rid}: {k} speakers, expected {expected}")
            if not 1 <= k <= 25:
                problems.append(f"{op} {rid}: {k} speakers")
    elif workload == "score_corpus":
        if op == "score_wer":
            micro = _load("out/score_wer/report.json")["micro"]
            errors = micro["substitutions"] + micro["deletions"] + micro["insertions"]
            if micro["ref_word_count"] != truth["ref_words"] or not 0 < errors <= truth["edits"]:
                problems.append(f"score_wer: {micro} for {truth['ref_words']} words, {truth['edits']} edits")
        elif op.startswith("score_der"):
            doc = _load(f"out/{op}/report.json")
            if len(doc["files"]) != truth["der_recordings"] or not 0 < doc["micro"]["der"] < 1:
                problems.append(f"{op}: {len(doc['files'])} files, micro {doc['micro']}")
        else:
            report = _load("out/repair/report.json")["report"]
            kept = len(Path("out/repair/fixed.csv").read_text().splitlines()) - 1
            expected = (truth["repair_rows"], truth["repair_corrupted"], truth["repair_garbage"])
            got = (report["total_lines"], report["repaired"], report["dropped"])
            if got != expected or kept != report["total_lines"] - report["dropped"]:
                problems.append(f"repair: (rows, repaired, dropped) {got}, expected {expected}; {kept} kept")
    return problems
