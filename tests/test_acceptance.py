"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from speechpipe import (
    ChunkConfig,
    EmbeddingSet,
    Waveform,
    ahc_centroid,
    der,
    gmm_fit,
    highpass,
    optimal_assignment,
    parse_rttm,
    parse_segments_csv,
    peak_normalize,
    plan_chunks,
    read_embeddings,
    read_transcripts_jsonl,
    resample,
    select_k_gmm,
    split_on_silence,
    wer,
    write_embeddings,
    write_embeddings_file,
    write_rttm,
    write_segments_csv,
    write_transcripts_jsonl,
)
from speechpipe import SpeakerSegment, SpeakerTimeline, TimeSpan, TranscriptRecord, audio
from speechpipe.cli import main
from synth import (
    SR,
    ahc_oracle,
    clean_rows,
    corrupt_row,
    edit_distance_oracle,
    frame_der_oracle,
    random_timeline,
    silence,
    tone,
    two_speaker_scene,
)


def report(n: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {n}: {label}{suffix}")
    assert ok, f"acceptance {n} failed: {label} {suffix}"


def test_criterion_01_wer_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    alphabet = list("abcde")
    mismatch = 0
    for _ in range(1000):
        ref = [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 21))]
        hyp = [alphabet[i] for i in rng.integers(0, 5, rng.integers(0, 21))]
        rep = wer(" ".join(ref), " ".join(hyp))
        edits = edit_distance_oracle(ref, hyp)
        if rep.substitutions + rep.deletions + rep.insertions != edits:
            mismatch += 1
        elif rep.wer != edits / len(ref):
            mismatch += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "WER matches DP brute force on 1000 pairs",
        mismatch == 0 and elapsed < 10.0,
        f"mismatches={mismatch}, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_der_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    checked = 0
    for _ in range(500):
        ref = random_timeline(rng, "r", int(rng.integers(1, 6)))
        hyp = random_timeline(rng, "r", int(rng.integers(1, 6)))
        if not ref.segments:
            continue
        sweep = der(ref, hyp)
        oracle = frame_der_oracle(ref, hyp)
        assert oracle is not None
        rel = abs(sweep.der - oracle[0]) / max(oracle[0], 1e-12)
        worst = max(worst, rel if oracle[0] > 0 else abs(sweep.der - oracle[0]))
        checked += 1

        assert der(ref, ref).der == 0.0, "self-score must be exactly zero"

        perm_hyp = SpeakerTimeline(
            "r",
            [SpeakerSegment(s.span, f"P{s.speaker}") for s in hyp.segments],
        )
        perm_ref = SpeakerTimeline(
            "r",
            [SpeakerSegment(s.span, f"Q{s.speaker}") for s in ref.segments],
        )
        assert der(perm_ref, perm_hyp).der == sweep.der, "permutation invariance"
    elapsed = time.perf_counter() - start
    report(
        2,
        "sweep DER matches 1 ms frame oracle on 500 timelines",
        worst < 0.002 and elapsed < 60.0 and checked >= 490,
        f"worst rel dev={worst:.2e} < 0.2%, {checked} scored, {elapsed:.1f}s < 60s",
    )


def test_criterion_03_optimal_assignment_exhaustive():
    rng = np.random.default_rng(303)
    bad = 0
    for _ in range(200):
        cost = rng.integers(0, 100, size=(6, 6)).astype(float)
        _, total = optimal_assignment(cost)
        brute = min(
            sum(cost[i, p[i]] for i in range(6))
            for p in itertools.permutations(range(6))
        )
        if total != brute:
            bad += 1
    report(3, "assignment equals 720-permutation minimum on 200 matrices", bad == 0,
           f"mismatches={bad}")


def _random_span_set(rng, total=300.0):
    out = []
    clock = rng.uniform(0, 5)
    while clock < total - 2:
        end = min(clock + rng.uniform(0.5, 40.0), total)
        out.append(TimeSpan(round(float(clock), 3), round(float(end), 3)))
        clock = end + rng.uniform(0.1, 12.0)
    return out


def test_criterion_04_chunk_planner_invariants():
    plan1 = plan_chunks(
        [TimeSpan(0, 12), TimeSpan(13, 26), TimeSpan(27, 40)], 40, ChunkConfig(20, 30)
    )
    hand1 = [(c.start, c.end) for c in plan1.chunks] == [(0, 26), (27, 40)] and \
        plan1.boundary_kinds == ["silence", "end-of-audio"]
    plan2 = plan_chunks([TimeSpan(0, 70)], 70, ChunkConfig(20, 30))
    hand2 = [(c.start, c.end) for c in plan2.chunks] == [(0, 30), (30, 60), (60, 70)] and \
        plan2.forced_split_count == 2

    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(1000):
        nonsilent = _random_span_set(rng)
        min_dur = float(rng.uniform(5, 25))
        max_lo = float(rng.uniform(max(min_dur, 20), 45))
        max_hi = max_lo + float(rng.uniform(1, 25))
        plan_lo = plan_chunks(nonsilent, 300.0, ChunkConfig(min_dur, max_lo))
        plan_hi = plan_chunks(nonsilent, 300.0, ChunkConfig(min_dur, max_hi))
        for plan, max_dur in ((plan_lo, max_lo), (plan_hi, max_hi)):
            for prev, cur in zip(plan.chunks, plan.chunks[1:]):
                if prev.end > cur.start + 1e-12:
                    violations += 1
            for i, (chunk, kind) in enumerate(zip(plan.chunks, plan.boundary_kinds)):
                if chunk.duration > max_dur + 1e-9:
                    violations += 1
                if kind == "silence" and not any(
                    abs(chunk.end - s.end) < 1e-9 for s in nonsilent
                ):
                    violations += 1
                if (
                    kind == "silence"
                    and i < len(plan.chunks) - 1
                    and chunk.duration < min_dur - 1e-9
                ):
                    violations += 1
            for span in nonsilent:
                for p in np.linspace(span.start + 1e-6, span.end - 1e-6, 5):
                    if not any(c.start - 1e-9 <= p <= c.end + 1e-9 for c in plan.chunks):
                        violations += 1
        if plan_hi.forced_split_count > plan_lo.forced_split_count:
            violations += 1
    report(
        4,
        "chunk-plan invariants + monotonicity on 1000 span sets, hand cases exact",
        hand1 and hand2 and violations == 0,
        f"hand1={hand1} hand2={hand2} violations={violations}",
    )


def test_criterion_05_silence_split_scaling_and_tone_case():
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(100):
        pieces = []
        for _ in range(int(rng.integers(2, 5))):
            if rng.random() < 0.5:
                pieces.append(tone(float(rng.uniform(100, 3000)), float(rng.uniform(0.2, 0.8)), 0.6))
            else:
                pieces.append(silence(float(rng.uniform(0.2, 0.8))))
        sig = np.concatenate(pieces)
        w = Waveform(sig, SR)
        half = Waveform(0.5 * sig, SR)
        if split_on_silence(w, 25.0) != split_on_silence(half, 25.0):
            mismatches += 1

    sig = np.concatenate([tone(440, 1.0), silence(1.0), tone(440, 1.0)])
    spans = split_on_silence(Waveform(sig, SR), 25.0, 512, 512)
    hop_s = 512 / SR
    tone_case = (
        len(spans) == 2
        and abs(spans[0].start - 0.0) <= hop_s
        and abs(spans[0].end - 1.0) <= hop_s
        and abs(spans[1].start - 2.0) <= hop_s
        and abs(spans[1].end - 3.0) <= hop_s
    )
    report(
        5,
        "silence split scale-invariant on 100 signals, tone case within one hop",
        mismatches == 0 and tone_case,
        f"scale mismatches={mismatches} tone_case={tone_case}",
    )


def test_criterion_06_ahc_bruteforce_equivalence():
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        tau = float(rng.uniform(0.1, 1.2))
        mcs = int(rng.integers(1, 4))
        if ahc_centroid(x, tau, mcs).labels.tolist() != ahc_oracle(x, tau, mcs):
            mismatches += 1

    rng2 = np.random.default_rng(607)
    a = np.array([1.0, 0, 0, 0])
    b = np.array([0.1, np.sqrt(1 - 0.01), 0, 0])
    big = a + rng2.normal(scale=0.03, size=(25, 4))
    small = b + rng2.normal(scale=0.03, size=(3, 4))
    x = np.vstack([big, small])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    dissolved = ahc_centroid(x, tau=0.65, min_cluster_size=20)
    report(
        6,
        "AHC equals brute-force merge simulation (200 trials, N<=12); 25+3 case k=1",
        mismatches == 0 and dissolved.k == 1,
        f"mismatches={mismatches} dissolved_k={dissolved.k}",
    )


def test_criterion_07_gmm_aic():
    rng = np.random.default_rng(707)
    x = np.concatenate([rng.normal(c, 1.0, size=(200, 1)) for c in (-10.0, 0.0, 10.0)])
    hits = 0
    monotone = True
    for seed in range(20):
        k, model = select_k_gmm(x, (1, 6), "AIC", seed=seed)
        if k == 3:
            hits += 1
    for seed in range(20):
        for k in range(1, 7):
            trace = gmm_fit(x, k, seed=seed).ll_trace
            for a, b in zip(trace, trace[1:]):
                if b < a - 1e-8 * max(1.0, abs(a)):
                    monotone = False

    model = gmm_fit(np.asarray(rng.normal(size=(150, 3))), 2, seed=0)
    gap = model.bic(150) - model.aic()
    expected = model.param_count * (np.log(150) - 2.0)
    identity = abs(gap - expected) <= 1e-9 * max(1.0, abs(expected))
    report(
        7,
        "AIC picks k=3 in >=90% of 20 seeds; EM log-likelihood monotone; AIC-BIC identity",
        hits >= 18 and monotone and identity,
        f"hits={hits}/20 monotone={monotone} identity={identity}",
    )


def test_criterion_08_end_to_end_synthetic_diarization(tmp_path, capsys):
    start = time.perf_counter()
    emb, truth = two_speaker_scene(seed=808, total_seconds=120.0)
    centers_cos = 1.0 - 0.15  # generator pins cos(c0, c1) = 0.15
    container = tmp_path / "scene.emb"
    write_embeddings_file(container, emb)
    out_dir = tmp_path / "out"
    code = main([
        "diarize", str(container), "--out-dir", str(out_dir),
        "--tau", "0.65", "--min-cluster-size", "20", "--min-duration-off", "0.1",
    ])
    capsys.readouterr()
    hyp = parse_rttm((out_dir / "scene.rttm").read_text())[0]
    result = der(truth, hyp)
    elapsed = time.perf_counter() - start
    report(
        8,
        "cmd_diarize on 120s 2-speaker container reaches DER < 0.05",
        code == 0 and centers_cos >= 0.8 and result.der < 0.05 and elapsed < 30.0,
        f"der={result.der:.4f} separation={centers_cos} {elapsed:.1f}s < 30s",
    )


def test_criterion_09_repair_corpus(tmp_path, capsys):
    rng = np.random.default_rng(909)
    originals = clean_rows(1000, seed=909)
    corrupted = [corrupt_row(row, rng)[1] for row in originals]
    src = tmp_path / "corrupted.csv"
    src.write_text("id,start,end,speaker\n" + "\n".join(corrupted) + "\n")
    out_csv = tmp_path / "repaired.csv"
    code = main(["repair", str(src), "--out", str(out_csv),
                 "--report", str(tmp_path / "report.json")])
    capsys.readouterr()
    recovered_rows = out_csv.read_text().splitlines()[1:]
    recovered = sum(
        1 for got, want in zip(recovered_rows, originals) if got == want
    ) if len(recovered_rows) == len(originals) else sum(
        1 for row in recovered_rows if row in set(originals)
    )
    strict_code = main(["repair", str(src), "--strict"])
    capsys.readouterr()
    report_doc = json.loads((tmp_path / "report.json").read_text())["report"]
    report(
        9,
        "repair recovers >=95% of 1000 corrupted rows byte-exactly; strict accepts 0",
        code == 0 and recovered >= 950 and strict_code == 1 and report_doc["parsed_ok"] == 0,
        f"recovered={recovered}/1000 strict_parsed_ok={report_doc['parsed_ok']}",
    )


def test_criterion_10_format_round_trips():
    rng = np.random.default_rng(1010)
    ok = True

    for _ in range(100):  # RTTM
        t = random_timeline(rng, f"rec{rng.integers(0, 3)}", int(rng.integers(1, 4)))
        text = write_rttm([t])
        back = parse_rttm(text)
        ok &= back == ([t] if t.segments else [])
        ok &= write_rttm(back) == (text if t.segments else "")

    for _ in range(100):  # segments CSV
        t = random_timeline(rng, "rec", int(rng.integers(1, 4)))
        text = write_segments_csv([t])
        back, rep = parse_segments_csv(text)
        ok &= rep.repaired == 0 and rep.dropped == 0
        ok &= write_segments_csv(back) == text

    for _ in range(100):  # embedding container
        n = int(rng.integers(0, 30))
        d = int(rng.integers(1, 48))
        starts = np.sort(rng.uniform(0, 50, size=n))
        spans = [TimeSpan(round(float(s), 3), round(float(s), 3) + 1.0) for s in starts]
        emb = EmbeddingSet(rng.normal(size=(n, d)).astype(np.float32), spans, "rid")
        data = write_embeddings(emb)
        back = read_embeddings(data)
        ok &= np.array_equal(back.vectors, emb.vectors) and back.spans == emb.spans
        ok &= write_embeddings(back) == data

    for _ in range(100):  # transcripts JSONL
        records = [
            TranscriptRecord(
                f"r{rng.integers(0, 3)}",
                TimeSpan(round(float(s), 3), round(float(s), 3) + 1.0),
                "টেক্সট" * int(rng.integers(1, 4)),
            )
            for s in rng.uniform(0, 50, size=int(rng.integers(0, 10)))
        ]
        text = write_transcripts_jsonl(records)
        back = read_transcripts_jsonl(text)
        ok &= write_transcripts_jsonl(back) == text
        ok &= len(back) == len(records)

    report(10, "RTTM/CSV/container/JSONL round-trips on 100 instances each", ok)


def test_criterion_11_dsp_checks():
    w = Waveform(tone(440, 0.5, amplitude=0.37), SR)
    once = peak_normalize(w, 0.8)
    twice = peak_normalize(once, 0.8)
    idempotent = float(np.max(np.abs(once.samples - twice.samples))) < 1e-6

    const = Waveform(np.full(2 * SR, 0.5, dtype=np.float32), SR)
    dc_residual = abs(float(highpass(const, 60.0).samples[-SR:].mean()))

    sine = Waveform(tone(1000, 2.0), SR)
    filtered = highpass(sine, 60.0)
    measured = float(
        np.sqrt(np.mean(filtered.samples[4000:].astype(float) ** 2))
        / np.sqrt(np.mean(sine.samples[4000:].astype(float) ** 2))
    )
    ratio = (1000 / 60) ** 2
    analytic = ratio / np.sqrt(1 + ratio**2)
    passband_ok = abs(measured - analytic) < 0.01

    rng = np.random.default_rng(1111)
    freqs = rng.uniform(100, 0.4 * SR / 2, size=5)
    sig = sum(tone(float(f), 1.0, amplitude=0.15) for f in freqs)
    orig = Waveform(sig, SR)
    back = resample(resample(orig, 32000), SR)
    n = min(len(back), len(orig))
    corr = float(np.corrcoef(orig.samples[:n].astype(float), back.samples[:n].astype(float))[0, 1])

    flux = audio._flux_and_energy(Waveform(tone(700, 1.5), SR), 2048, 512)[0]
    onset_flux = audio._flux_and_energy(Waveform(np.concatenate([silence(0.5), tone(700, 0.5)]), SR), 2048, 512)[0]
    stationary_ok = float(flux[2:].max()) < 0.01 * float(onset_flux.max())

    report(
        11,
        "DSP: peak-norm idempotent, highpass DC+passband, resample round trip, flux",
        idempotent and dc_residual < 1e-3 and passband_ok and corr >= 0.999 and stationary_ok,
        f"dc={dc_residual:.1e} |H-analytic|={abs(measured - analytic):.2e} corr={corr:.6f}",
    )
