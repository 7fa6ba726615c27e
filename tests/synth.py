"""Shared synthetic-data generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: plain-python
dynamic programming for edit distance, 1 ms frame counting for DER,
exhaustive permutations for assignment, and a literal re-simulation of the
merge rule for agglomerative clustering. The `*_reference` functions are the
exception: the library's former loops, kept to check that their vectorised
or simplified replacements give identical output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from speechpipe import SpeakerSegment, SpeakerTimeline, TimeSpan, Waveform

SR = 16000


# ---------------------------------------------------------------------------
# Audio generators

def tone(freq: float, seconds: float, amplitude: float = 0.5, sr: int = SR) -> np.ndarray:
    t = np.arange(int(seconds * sr)) / sr
    return (amplitude * np.sin(2 * np.pi * freq * t)).astype(np.float32)


def silence(seconds: float, sr: int = SR) -> np.ndarray:
    return np.zeros(int(seconds * sr), dtype=np.float32)


def music_proxy(seconds: float, seed: int, sr: int = SR) -> Waveform:
    """Dense overlapping tone chords with sharp onsets every 100 ms."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sr)
    x = np.zeros(n)
    t0 = 0.0
    while t0 < seconds:
        start = int(t0 * sr)
        length = min(int(0.4 * sr), n - start)
        if length <= 0:
            break
        tt = np.arange(length) / sr
        envelope = np.minimum(1.0, tt / 0.005)
        for _ in range(3):
            f = rng.uniform(200, 4000)
            x[start : start + length] += 0.2 * envelope * np.sin(
                2 * np.pi * f * tt + rng.uniform(0, 2 * np.pi)
            )
        t0 += 0.1
    return Waveform((0.8 * x / np.abs(x).max()).astype(np.float32), sr)


def speech_proxy(seconds: float, seed: int, sr: int = SR) -> Waveform:
    """Sparse band-limited noise bursts: 250 ms burst, 750 ms silence."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sr)
    x = np.zeros(n)
    kernel = np.hanning(9)
    kernel /= kernel.sum()
    t0 = 0.0
    while t0 < seconds:
        burst = np.convolve(rng.normal(size=int(0.25 * sr)), kernel, mode="same")
        start = int(t0 * sr)
        end = min(start + len(burst), n)
        x[start:end] = 0.5 * burst[: end - start]
        t0 += 1.0
    return Waveform((0.8 * x / np.abs(x).max()).astype(np.float32), sr)


# ---------------------------------------------------------------------------
# Edit-distance oracle (plain python DP, costs 1/1/1)

def edit_distance_oracle(ref: list, hyp: list) -> int:
    previous = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        current = [i]
        for j, h in enumerate(hyp, start=1):
            current.append(
                min(
                    previous[j - 1] + (0 if r == h else 1),
                    previous[j] + 1,
                    current[-1] + 1,
                )
            )
        previous = current
    return previous[-1]


# ---------------------------------------------------------------------------
# Timeline generators and frame-level DER oracle

def random_timeline(
    rng: np.random.Generator,
    recording_id: str,
    n_speakers: int,
    max_end: float = 60.0,
    grid: float = 0.01,
) -> SpeakerTimeline:
    """Segments on a 10 ms grid; different speakers may overlap."""
    segments = []
    for s in range(n_speakers):
        clock = rng.uniform(0, 5.0)
        while clock < max_end - 1.0:
            length = rng.uniform(0.5, 6.0)
            start = round(round(clock / grid) * grid, 6)
            end = round(round(min(clock + length, max_end) / grid) * grid, 6)
            if end > start:
                segments.append(SpeakerSegment(TimeSpan(start, end), f"S{s}"))
            clock = end + rng.uniform(0.2, 8.0)
    return SpeakerTimeline.from_segments(recording_id, segments)


def frame_der_oracle(
    ref: SpeakerTimeline,
    hyp: SpeakerTimeline,
    collar: float = 0.0,
    skip_overlap: bool = False,
    step: float = 0.001,
):
    """DER by 1 ms frame counting with brute-force speaker mapping."""
    end = max(
        [seg.span.end for seg in ref.segments + hyp.segments],
        default=0.0,
    )
    n = int(round(end / step)) + 1
    mid = (np.arange(n) + 0.5) * step

    def masks(timeline):
        out = {}
        for seg in timeline.segments:
            mask = out.setdefault(seg.speaker, np.zeros(n, dtype=bool))
            mask |= (mid > seg.span.start) & (mid < seg.span.end)
        return out

    ref_masks, hyp_masks = masks(ref), masks(hyp)
    scored = np.ones(n, dtype=bool)
    if collar > 0:
        for seg in ref.segments:
            for b in (seg.span.start, seg.span.end):
                scored &= ~((mid > b - collar) & (mid < b + collar))
    ref_count = np.sum([m for m in ref_masks.values()], axis=0) if ref_masks else np.zeros(n)
    if skip_overlap:
        scored &= ref_count < 2

    ref_names = sorted(ref_masks)
    hyp_names = sorted(hyp_masks)
    co = np.zeros((len(ref_names), len(hyp_names)))
    for i, r in enumerate(ref_names):
        for j, h in enumerate(hyp_names):
            co[i, j] = np.sum(ref_masks[r] & hyp_masks[h] & scored)

    best_map: dict[str, str] = {}
    best_total = -1.0
    if ref_names and hyp_names:
        short, long_ = (ref_names, hyp_names) if len(ref_names) <= len(hyp_names) else (hyp_names, ref_names)
        for perm in itertools.permutations(range(len(long_)), len(short)):
            total = 0.0
            for a, b in enumerate(perm):
                total += co[a, b] if short is ref_names else co[b, a]
            if total > best_total:
                best_total = total
                if short is ref_names:
                    best_map = {long_[b]: short[a] for a, b in enumerate(perm)}
                else:
                    best_map = {short[a]: long_[b] for a, b in enumerate(perm)}

    hyp_count = np.sum([m for m in hyp_masks.values()], axis=0) if hyp_masks else np.zeros(n)
    matched = np.zeros(n)
    for h, r in best_map.items():
        matched += ref_masks[r] & hyp_masks[h]

    sel = scored
    r_c = ref_count[sel]
    h_c = hyp_count[sel]
    m_c = matched[sel]
    missed = np.maximum(0, r_c - h_c).sum() * step
    false_alarm = np.maximum(0, h_c - r_c).sum() * step
    confusion = (np.minimum(r_c, h_c) - m_c).sum() * step
    total_ref = r_c.sum() * step
    if total_ref <= 0:
        return None
    return (missed + false_alarm + confusion) / total_ref, missed, false_alarm, confusion, total_ref


# ---------------------------------------------------------------------------
# Agglomerative-merge oracle (literal re-simulation on small N)

def ahc_oracle(vectors: np.ndarray, tau: float, min_cluster_size: int) -> list[int]:
    def cosine(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 1.0
        return 1.0 - float(u @ v) / (nu * nv)

    clusters: list[list[int]] = [[i] for i in range(len(vectors))]
    while len(clusters) > 1:
        best = (np.inf, -1, -1)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                ca = vectors[clusters[a]].mean(axis=0)
                cb = vectors[clusters[b]].mean(axis=0)
                d = cosine(ca, cb)
                if d < best[0]:
                    best = (d, a, b)
        if best[0] >= tau:
            break
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    survivors = [c for c in clusters if len(c) >= min_cluster_size]
    if not survivors:
        sizes = [len(c) for c in clusters]
        best_i = max(range(len(clusters)), key=lambda i: (sizes[i], -min(clusters[i])))
        survivors = [clusters[best_i]]
    if len(survivors) < len(clusters):
        centroids = [vectors[c].mean(axis=0) for c in survivors]
        assigned = {i for c in survivors for i in c}
        for i in sorted(set(range(len(vectors))) - assigned):
            dists = [cosine(vectors[i], c) for c in centroids]
            survivors[int(np.argmin(dists))].append(i)

    labels = [0] * len(vectors)
    for j, cluster in enumerate(survivors):
        for i in cluster:
            labels[i] = j
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return out


def ahc_centroid_reference(vectors: np.ndarray, tau: float, min_cluster_size: int = 1):
    """The library's former `ahc_centroid`: a full pairwise rescan per merge.

    Same distances, merge order and post-processing as the library, at cubic
    cost; the library's nearest-partner cache must reproduce it exactly.
    """
    from speechpipe.clustering import (
        ClusterResult,
        _centroids_for,
        _relabel_by_first_appearance,
        cosine_distance_matrix,
    )

    x = np.asarray(vectors, dtype=np.float64)
    n = len(x)
    members: list[list[int] | None] = [[i] for i in range(n)]
    centroids = x.copy()
    active = list(range(n))
    dist = cosine_distance_matrix(centroids, centroids)
    np.fill_diagonal(dist, np.inf)
    merge_count = 0

    while len(active) > 1:
        best = (np.inf, -1, -1)
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                a, b = active[ai], active[bi]
                if dist[a, b] < best[0]:
                    best = (dist[a, b], a, b)
        d, a, b = best
        if d >= tau:
            break
        members[a] = members[a] + members[b]  # type: ignore[operator]
        members[b] = None
        centroids[a] = x[members[a]].mean(axis=0)
        active.remove(b)
        merge_count += 1
        row = cosine_distance_matrix(centroids[a : a + 1], centroids[active]).ravel()
        for j, other in enumerate(active):
            dist[a, other] = dist[other, a] = row[j] if other != a else np.inf

    clusters = [members[a] for a in active]
    sizes = [len(c) for c in clusters]
    survivors = [c for c in clusters if len(c) >= min_cluster_size]
    dissolved = 0
    if not survivors:
        largest = max(range(len(clusters)), key=lambda i: (sizes[i], -min(clusters[i])))
        survivors = [clusters[largest]]
    if len(survivors) < len(clusters):
        surviving_centroids = np.stack([x[c].mean(axis=0) for c in survivors])
        strays = sorted(set(range(n)) - {i for c in survivors for i in c})
        dissolved = len(strays)
        if strays:
            d_stray = cosine_distance_matrix(x[strays], surviving_centroids)
            nearest = np.argmin(d_stray, axis=1)
            for idx, target in zip(strays, nearest):
                survivors[target].append(idx)

    labels = np.empty(n, dtype=int)
    for j, cluster in enumerate(survivors):
        labels[cluster] = j
    labels = _relabel_by_first_appearance(labels)
    k = len(survivors)
    return ClusterResult(
        labels,
        k,
        _centroids_for(x, labels, k),
        "ahc-centroid",
        {"merges": merge_count, "dissolved_points": dissolved, "tau": tau},
    )


def relabel_by_first_appearance_reference(labels: np.ndarray) -> np.ndarray:
    """The library's former `_relabel_by_first_appearance`: one dict lookup per label."""
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


# ---------------------------------------------------------------------------
# Former diarization steps: a repeated last Lloyd assignment and E-step, a
# GMM filled in field by field, best-so-far k sweeps, a row-by-row PCA sign
# rule, dict vote counting and a two-pass window merge.
# The iteration limits are read from `speechpipe.clustering` at call time, so
# a test that patches them patches both sides.

def kmeans_reference(x: np.ndarray, k: int, seed: int):
    """The library's former `kmeans`: the last assignment repeated after the loop."""
    from speechpipe import clustering as C

    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    rng = np.random.default_rng(seed)
    centers = C._kmeans_pp_init(x, k, rng)
    labels = np.zeros(n, dtype=int)
    inertia_trace: list[float] = []
    for _ in range(C.LLOYD_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        costs = d2[np.arange(n), labels]
        inertia_trace.append(float(costs.sum()))
        new_centers = centers.copy()
        empty = []
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = x[mask].mean(axis=0)
            else:
                empty.append(j)
        if empty:
            order = np.argsort(-costs)
            for slot, j in enumerate(empty):
                new_centers[j] = x[order[slot]]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < C.LLOYD_TOL:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    occupied, labels = np.unique(labels, return_inverse=True)
    k = len(occupied)
    centers = C._centroids_for(x, labels, k)
    return C.ClusterResult(
        labels,
        k,
        centers,
        "kmeans",
        {"inertia": inertia, "iterations": len(inertia_trace), "inertia_trace": inertia_trace, "seed": seed},
    )


def _log_joint_reference(x: np.ndarray, model) -> np.ndarray:
    """The former `GmmModel._log_joint` method."""
    d = x.shape[1]
    out = np.empty((len(x), model.k))
    for j in range(model.k):
        var = model.variances[j]
        diff2 = (x - model.means[j]) ** 2 / var
        out[:, j] = (
            math.log(model.weights[j])
            - 0.5 * (d * math.log(2 * math.pi) + np.log(var).sum() + diff2.sum(axis=1))
        )
    return out


def gmm_fit_reference(x: np.ndarray, k: int, seed: int):
    """The library's former `gmm_fit`: a placeholder model filled in field by
    field and the last E-step repeated after the loop."""
    from speechpipe import clustering as C

    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    init = kmeans_reference(x, k, seed)
    k = init.k
    weights = np.array([(init.labels == j).mean() for j in range(k)])
    weights = np.maximum(weights, 1.0 / (10.0 * n))
    weights /= weights.sum()
    means = init.centroids.copy()
    global_var = np.maximum(x.var(axis=0), C.VARIANCE_FLOOR)
    variances = np.empty((k, d))
    for j in range(k):
        mask = init.labels == j
        variances[j] = np.maximum(x[mask].var(axis=0), C.VARIANCE_FLOOR) if mask.sum() > 1 else global_var

    model = C.GmmModel(weights, means, variances, -np.inf, k * 2 * d + (k - 1))
    trace: list[float] = []
    previous = -np.inf
    converged = False
    for iteration in range(C.EM_MAX_ITER):
        log_joint = _log_joint_reference(x, model)
        log_norm = np.logaddexp.reduce(log_joint, axis=1)
        ll = float(log_norm.sum())
        trace.append(ll)
        resp = np.exp(log_joint - log_norm[:, None])

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        model.weights = nk / n
        model.means = (resp.T @ x) / nk[:, None]
        for j in range(k):
            diff2 = (x - model.means[j]) ** 2
            model.variances[j] = np.maximum((resp[:, j] @ diff2) / nk[j], C.VARIANCE_FLOOR)

        if ll - previous < C.EM_TOL and iteration > 0:
            converged = True
            break
        previous = ll

    log_joint = _log_joint_reference(x, model)
    final_ll = float(np.logaddexp.reduce(log_joint, axis=1).sum())
    trace.append(final_ll)
    model.log_likelihood = final_ll
    model.converged = converged
    model.iterations = len(trace) - 1
    model.ll_trace = trace
    return model


def gmm_predict_reference(model, x: np.ndarray) -> np.ndarray:
    """The former `GmmModel.predict`."""
    return np.argmax(_log_joint_reference(np.asarray(x, dtype=np.float64), model), axis=1)


def silhouette_score_reference(x: np.ndarray, labels: np.ndarray) -> float:
    """The library's former `silhouette_score`: a per-point loop over boolean
    masks, a distance matrix per call."""
    from speechpipe import clustering as C

    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        raise C.ParameterError("silhouette needs at least 2 clusters")
    dist = C.cosine_distance_matrix(x, x)
    n = len(x)
    scores = np.zeros(n)
    masks = {lab: labels == lab for lab in unique}
    for i in range(n):
        own = masks[labels[i]]
        own_size = own.sum()
        if own_size <= 1:
            continue  # singleton contributes 0
        a = dist[i, own].sum() / (own_size - 1)
        b = min(dist[i, masks[lab]].mean() for lab in unique if lab != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def estimate_k_silhouette_reference(x: np.ndarray, k_min: int, k_max: int, seed: int):
    """The library's former `estimate_k_silhouette` after its range check: a
    best-so-far loop that replaces the kept k only on a strictly higher score,
    each k scored by the former per-point silhouette and k-means loops."""
    best, best_score = None, -np.inf
    for k in range(k_min, k_max + 1):
        result = kmeans_reference(x, k, seed)
        score = silhouette_score_reference(x, result.labels) if result.k >= 2 else -np.inf
        if best is None or score > best_score:
            best, best_score = (k, result), score
    return best


def select_k_gmm_reference(x: np.ndarray, k_range: tuple[int, int], criterion: str = "AIC", seed: int = 0):
    """The library's former `select_k_gmm` after its argument checks: a
    best-so-far loop that replaces the kept k only on a strictly lower value,
    each k fit by the former EM (`gmm_fit_reference`)."""
    criterion = criterion.upper()
    x = np.asarray(x, dtype=np.float64)
    best_k, best_model, best_value = k_range[0], None, np.inf
    for k in range(k_range[0], k_range[1] + 1):
        model = gmm_fit_reference(x, k, seed)
        value = model.aic() if criterion == "AIC" else model.bic(len(x))
        if value < best_value:
            best_k, best_model, best_value = k, model, value
    assert best_model is not None
    return best_k, best_model


def pca_fit_reference(x: np.ndarray, components: int):
    """The library's former `pca_fit` after its argument checks: the sign
    rule applied row by row."""
    from speechpipe import clustering as C

    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    directions = eigenvectors[:, order].T[:components].copy()
    for row in directions:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return C.PcaBasis(mean, directions, eigenvalues[:components])


def smooth_labels_temporal_reference(labels, window: int) -> list:
    """The library's former `smooth_labels_temporal` after its argument check:
    a hand-rolled vote dict and a winners list."""
    out = list(labels)
    if window == 1:
        return out
    half = window // 2
    for i in range(len(out)):
        lo = max(0, i - half)
        hi = min(len(out), i + half + 1)
        votes: dict = {}
        for value in out[lo:hi]:
            votes[value] = votes.get(value, 0) + 1
        best_count = max(votes.values())
        winners = [value for value, count in votes.items() if count == best_count]
        if out[i] not in winners:
            for value in out[lo:hi]:
                if value in winners:
                    out[i] = value
                    break
    return out


def merge_adjacent_windows_reference(window_spans: list[TimeSpan], labels: list, recording_id: str = ""):
    """The library's former `merge_adjacent_windows` after its checks: a list of
    runs, then a second pass over it. Returns the timeline and how many runs
    were dropped because they ended inside the previous boundary."""
    if not window_spans:
        return SpeakerTimeline(recording_id, []), 0
    runs: list[tuple[object, int, int]] = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[run_start]:
            runs.append((labels[run_start], run_start, i - 1))
            run_start = i

    segments: list[SpeakerSegment] = []
    dropped = 0
    boundary = window_spans[0].start
    for r, (label, first, last) in enumerate(runs):
        seg_start = max(boundary, window_spans[first].start)
        if r + 1 < len(runs):
            prev_win = window_spans[last]
            next_win = window_spans[runs[r + 1][1]]
            if next_win.start < prev_win.end:
                end = (next_win.start + prev_win.end) / 2.0
            else:
                end = prev_win.end
        else:
            end = window_spans[last].end
        if end > seg_start:
            segments.append(SpeakerSegment(TimeSpan(seg_start, end), str(label)))
            boundary = end
        else:
            dropped += 1
            boundary = max(boundary, end)
    return SpeakerTimeline.from_segments(recording_id, segments), dropped


# ---------------------------------------------------------------------------
# Former chunk planner: each forced cut rescans the spans from the first

def plan_chunks_reference(nonsilent: list[TimeSpan], total_duration: float, cfg):
    """The library's former `plan_chunks` after its structural checks: after a
    forced cut, the next chunk opens at the first span ending past the cut,
    found by a linear scan from the first span."""
    from speechpipe.chunking import KIND_END_OF_AUDIO, KIND_FORCED, KIND_SILENCE, ChunkPlan

    stretches = []
    open_at = None
    for span in nonsilent:
        if open_at is None:
            open_at = 0.0 if cfg.include_leading_silence and not stretches else span.start
        if span.end - open_at >= cfg.min_dur:
            stretches.append((open_at, span.end, KIND_SILENCE))
            open_at = None
    if open_at is not None:
        stretches.append((open_at, nonsilent[-1].end, KIND_END_OF_AUDIO))

    chunks, kinds = [], []
    for i, (cursor, close_at, kind) in enumerate(stretches):
        pieces = []
        while close_at - cursor > cfg.max_dur:
            cut = cursor + cfg.max_dur
            pieces.append([cursor, cut, KIND_FORCED])
            cursor = cut
            for span in nonsilent:
                if span.end > cut:
                    cursor = max(cut, span.start)
                    break
        if pieces and close_at - cursor < cfg.min_dur:
            if i == len(stretches) - 1:
                kind = KIND_END_OF_AUDIO
            else:
                cursor = close_at - cfg.min_dur
                pieces[-1][1] = min(pieces[-1][1], cursor)
        pieces.append([cursor, close_at, kind])
        for a, b, piece_kind in pieces:
            chunks.append(TimeSpan(a, b))
            kinds.append(piece_kind)
    return ChunkPlan(chunks, total_duration, kinds.count(KIND_FORCED), kinds)


# ---------------------------------------------------------------------------
# Word-boundary straddles, for the silence-aware chunking claim

def fixed_interval_chunks(total_duration: float, chunk_seconds: float) -> list[TimeSpan]:
    """Back-to-back `chunk_seconds` chunks from 0, the last cut short at the end."""
    starts = np.arange(0.0, total_duration, chunk_seconds).tolist()
    return [TimeSpan(t, min(t + chunk_seconds, total_duration)) for t in starts]


def straddle_count(word_spans: list[TimeSpan], chunks: list[TimeSpan]) -> int:
    """Words that strictly contain a cut, counted once per cut. The cuts are
    every chunk end but the last and every chunk start but the first (a gap
    between chunks is cut on both sides)."""
    cuts = {t for prev, cur in zip(chunks, chunks[1:]) for t in (prev.end, cur.start)}
    return sum(1 for w in word_spans for t in cuts if w.start < t < w.end)


# ---------------------------------------------------------------------------
# Former silence split: runs found and capped in Python loops

def split_on_silence_reference(
    w: Waveform, top_db: float = 25.0, frame_length: int = 2048, hop_length: int = 512
) -> list[TimeSpan]:
    """The library's former `split_on_silence` after its argument check."""
    from speechpipe.audio import DIGITAL_SILENCE_DB

    levels = frame_rms_db_reference(w, frame_length, hop_length)
    n_frames = len(levels)
    if n_frames == 0:
        return []
    peak = levels.max()
    if peak <= DIGITAL_SILENCE_DB:
        return []
    nonsilent = levels > peak - top_db

    sr = w.sample_rate
    n = len(w.samples)
    edges = np.flatnonzero(np.diff(nonsilent.astype(np.int8)))
    starts = [int(e) + 1 for e in edges if nonsilent[e + 1]]
    ends = [int(e) + 1 for e in edges if not nonsilent[e + 1]]
    if nonsilent[0]:
        starts.insert(0, 0)
    if nonsilent[-1]:
        ends.append(n_frames)

    raw: list[tuple[int, int]] = []
    for a, b in zip(starts, ends):
        start_sample = a * hop_length
        if b == n_frames:
            end_sample = n
        else:
            end_sample = min((b - 1) * hop_length + frame_length, n)
        raw.append((start_sample, end_sample))

    out: list[TimeSpan] = []
    for i, (start_sample, end_sample) in enumerate(raw):
        if i + 1 < len(raw):
            end_sample = min(end_sample, raw[i + 1][0])
        out.append(TimeSpan(start_sample / sr, end_sample / sr))
    return out


# ---------------------------------------------------------------------------
# Former whole-signal audio paths: one float64 temporary the size of the input,
# or every channel decoded at once

def flux_and_energy_reference(w: Waveform, frame_length: int, hop_length: int) -> tuple[np.ndarray, np.ndarray]:
    """The library's former `_flux_and_energy`: one spectrogram of every frame."""
    from speechpipe.audio import _frame_view

    frames = _frame_view(w.samples, frame_length, hop_length)
    mags = np.abs(np.fft.rfft(frames.astype(np.float64) * np.hanning(frame_length), axis=1))
    flux = np.zeros(len(mags))
    flux[1:] = np.maximum(np.diff(mags, axis=0), 0.0).sum(axis=1)
    return flux, mags.sum(axis=1)


def music_presence_reference(w: Waveform, config=None):
    """The library's former `music_presence`: one Python vote per window, and
    a separate single vote for a signal shorter than one window."""
    from speechpipe.audio import MusicDetectConfig, MusicPresence, _flux_and_energy

    cfg = config or MusicDetectConfig()
    flux, energy = _flux_and_energy(w, cfg.frame_length, cfg.hop_length)
    low_confidence = w.duration_seconds < cfg.min_duration
    if len(flux) < 2:
        return MusicPresence(0.0, False, low_confidence)

    nflux = np.divide(flux, energy, out=np.zeros_like(flux), where=energy > 1e-12)

    frames_per_second = w.sample_rate / cfg.hop_length

    def vote(chunk: np.ndarray) -> bool:
        median_flux = float(np.median(chunk))
        interior = chunk[1:-1]
        is_peak = (
            (interior > chunk[:-2])
            & (interior >= chunk[2:])
            & (interior >= cfg.peak_min_height)
        )
        peak_rate = float(is_peak.sum()) * frames_per_second / len(chunk)
        return bool(median_flux > cfg.flux_threshold and peak_rate > cfg.peak_rate_threshold)

    window_frames = max(2, int(round(frames_per_second)))
    if len(nflux) < window_frames:
        votes = [vote(nflux)]
        low_confidence = True
    else:
        votes = [
            vote(nflux[start : start + window_frames])
            for start in range(0, len(nflux) - window_frames + 1, window_frames)
        ]

    score = sum(votes) / len(votes)
    return MusicPresence(float(score), bool(score > cfg.decision_threshold), low_confidence)


def highpass_reference(w: Waveform, cutoff_hz: float) -> Waveform:
    """The library's former `highpass`: the whole signal filtered in one call."""
    from scipy import signal as sps

    from speechpipe.audio import highpass_coefficients

    b, a = highpass_coefficients(cutoff_hz, w.sample_rate)
    out = sps.lfilter(b, a, w.samples.astype(np.float64))
    return Waveform(out.astype(np.float32), w.sample_rate)


def downmix_mono_reference(channels: list[np.ndarray], sample_rate: int) -> Waveform:
    """The library's former `downmix_mono` after its checks: a mean over stacked channels."""
    stacked = np.stack([np.asarray(c, dtype=np.float32) for c in channels])
    return Waveform(stacked.mean(axis=0), sample_rate)


def load_mono_reference(data_or_path) -> Waveform:
    """The library's former `load_mono`: every channel decoded, then their mean."""
    from speechpipe import read_wav

    return downmix_mono_reference(*read_wav(data_or_path))


def resample_reference(w: Waveform, target_hz: int) -> Waveform:
    """The library's former `resample`: one `resample_poly` call on the whole
    signal in float64."""
    from scipy import signal as sps

    from speechpipe.audio import _design_resample_filter

    if target_hz == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    g = math.gcd(target_hz, w.sample_rate)
    up, down = target_hz // g, w.sample_rate // g
    out = sps.resample_poly(w.samples.astype(np.float64), up, down, window=_design_resample_filter(up, down))
    return Waveform(out.astype(np.float32), target_hz)


def frame_rms_db_reference(w: Waveform, frame_length: int, hop_length: int) -> np.ndarray:
    """The library's former `frame_rms_db`: frames as views of one float64
    copy of the squares of the whole signal."""
    from speechpipe.audio import SILENCE_FLOOR_DB

    squares = np.square(w.samples, dtype=np.float64)
    if len(squares) < frame_length:
        frames = np.empty((0, frame_length))
    else:
        frames = np.lib.stride_tricks.sliding_window_view(squares, frame_length)[::hop_length]
    rms = np.sqrt(np.mean(frames, axis=1))
    values = np.full(len(rms), SILENCE_FLOOR_DB)
    nonzero = rms > 0
    values[nonzero] = np.maximum(20.0 * np.log10(rms[nonzero]), SILENCE_FLOOR_DB)
    return values


# ---------------------------------------------------------------------------
# Former scorers: a full distance matrix for WER, a Python set per interval for DER

def wer_reference(ref: str, hyp: str, strip_punctuation: bool = False):
    """The library's former `wer`: an (n+1)×(m+1) int32 row DP, then the backtrace."""
    from speechpipe import UndefinedMetricError, WerReport, normalize_text

    ref_tokens = normalize_text(ref, strip_punctuation).split()
    hyp_tokens = normalize_text(hyp, strip_punctuation).split()
    if not ref_tokens:
        raise UndefinedMetricError("WER is undefined for an empty reference")

    n, m = len(ref_tokens), len(hyp_tokens)
    dist = np.zeros((n + 1, m + 1), dtype=np.int32)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    ref_arr = np.array(ref_tokens)
    hyp_arr = np.array(hyp_tokens)
    idx = np.arange(m + 1, dtype=np.int32)
    base = np.empty(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        base[0] = i
        np.minimum(
            dist[i - 1, :-1] + (ref_arr[i - 1] != hyp_arr),
            dist[i - 1, 1:] + 1,
            out=base[1:],
        )
        dist[i] = np.minimum.accumulate(base - idx) + idx

    s = d = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref_tokens[i - 1] != hyp_tokens[j - 1]):
            if ref_tokens[i - 1] != hyp_tokens[j - 1]:
                s += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerReport(s, d, ins, n, (s + d + ins) / n)


def _active_sets_reference(timeline: SpeakerTimeline, edges: np.ndarray) -> list[set[str]]:
    sets: list[set[str]] = [set() for _ in range(len(edges) - 1)]
    for seg in timeline.segments:
        lo = int(np.searchsorted(edges, seg.span.start))
        hi = int(np.searchsorted(edges, seg.span.end))
        for idx in range(lo, hi):
            sets[idx].add(seg.speaker)
    return sets


def der_reference(ref: SpeakerTimeline, hyp: SpeakerTimeline, collar: float = 0.0, skip_overlap: bool = False):
    """The library's former `der`: speaker sets per elementary interval, summed in loops."""
    from speechpipe import DerReport, ParameterError, StructuralError, UndefinedMetricError, optimal_assignment

    if ref.recording_id != hyp.recording_id:
        raise StructuralError(f"recording ids differ: {ref.recording_id!r} vs {hyp.recording_id!r}")
    if collar < 0:
        raise ParameterError(f"collar must be >= 0, got {collar}")

    edge_values: set[float] = set()
    for timeline in (ref, hyp):
        for seg in timeline.segments:
            edge_values.add(seg.span.start)
            edge_values.add(seg.span.end)
    exclusions: list[tuple[float, float]] = []
    if collar > 0:
        for seg in ref.segments:
            for b in (seg.span.start, seg.span.end):
                lo, hi = max(0.0, b - collar), b + collar
                exclusions.append((lo, hi))
                edge_values.update((lo, hi))
    if not edge_values:
        raise UndefinedMetricError("DER is undefined when the reference has no speech")
    edges = np.array(sorted(edge_values))

    ref_sets = _active_sets_reference(ref, edges)
    hyp_sets = _active_sets_reference(hyp, edges)
    lengths = np.diff(edges)
    midpoints = (edges[:-1] + edges[1:]) / 2.0

    scored = np.ones(len(lengths), dtype=bool)
    for lo, hi in exclusions:
        scored &= ~((midpoints > lo) & (midpoints < hi))
    if skip_overlap:
        scored &= np.array([len(s) < 2 for s in ref_sets])

    ref_speakers = ref.speakers()
    hyp_speakers = hyp.speakers()
    ref_index = {spk: i for i, spk in enumerate(ref_speakers)}
    hyp_index = {spk: i for i, spk in enumerate(hyp_speakers)}

    overlap = np.zeros((len(ref_speakers), len(hyp_speakers)))
    for idx in np.flatnonzero(scored):
        for r in ref_sets[idx]:
            for h in hyp_sets[idx]:
                overlap[ref_index[r], hyp_index[h]] += lengths[idx]
    if overlap.size:
        pairs, _ = optimal_assignment(-overlap)
    else:
        pairs = []
    mapping = {hyp_speakers[h]: ref_speakers[r] for r, h in pairs if overlap[r, h] > 0}

    missed = false_alarm = confusion = total_ref = 0.0
    for idx in np.flatnonzero(scored):
        length = float(lengths[idx])
        r_set, h_set = ref_sets[idx], hyp_sets[idx]
        r_count, h_count = len(r_set), len(h_set)
        total_ref += length * r_count
        matched = sum(1 for h in h_set if mapping.get(h) in r_set)
        missed += length * max(0, r_count - h_count)
        false_alarm += length * max(0, h_count - r_count)
        confusion += length * (min(r_count, h_count) - matched)

    if total_ref <= 0:
        raise UndefinedMetricError("DER is undefined when scored reference speech is empty")
    error = missed + false_alarm + confusion
    return DerReport(missed, false_alarm, confusion, total_ref, error / total_ref, mapping)


# ---------------------------------------------------------------------------
# Two-speaker embedding scene for end-to-end diarization

def two_speaker_scene(seed: int, total_seconds: float = 120.0, dim: int = 32):
    """Alternating speaker turns (multiples of 0.75 s), unit-vector clouds.

    Returns (EmbeddingSet, truth SpeakerTimeline). Cosine separation between
    the two cluster centers is >= 0.8.
    """
    from speechpipe import EmbeddingSet, window_schedule

    rng = np.random.default_rng(seed)
    base = rng.normal(size=(2, dim))
    base[0] /= np.linalg.norm(base[0])
    # Orthogonalize, then mix so that cos(c0, c1) = 0.15 (distance 0.85).
    base[1] -= (base[1] @ base[0]) * base[0]
    base[1] /= np.linalg.norm(base[1])
    centers = np.stack([base[0], 0.15 * base[0] + np.sqrt(1 - 0.15**2) * base[1]])

    turns = []
    clock = 0.0
    speaker = 0
    while clock < total_seconds - 1e-9:
        length = 0.75 * int(rng.integers(6, 13))  # 4.5 .. 9 s, multiple of hop
        length = min(length, total_seconds - clock)
        if length < 1.5:
            prev_span, prev_spk = turns[-1]
            turns[-1] = (TimeSpan(prev_span.start, total_seconds), prev_spk)
            break
        turns.append((TimeSpan(clock, clock + length), speaker))
        clock += length
        speaker = 1 - speaker

    spans = []
    vectors = []
    for turn_span, spk in turns:
        for scheduled in window_schedule([turn_span], 1.5, 0.75):
            spans.append(scheduled.span)
            v = centers[spk] + rng.normal(scale=0.05, size=dim)
            vectors.append(v / np.linalg.norm(v))
    truth = SpeakerTimeline.from_segments(
        "scene", [SpeakerSegment(span, f"T{spk}") for span, spk in turns]
    )
    return EmbeddingSet(np.array(vectors, dtype=np.float32), spans, "scene"), truth


# ---------------------------------------------------------------------------
# Clean CSV rows and rule-inverse corruption generators

def clean_rows(n: int, seed: int) -> list[str]:
    from speechpipe import format_seconds

    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        start = round(float(rng.uniform(0, 500)), 3)
        end = round(start + float(rng.uniform(0.01, 30)), 3)
        rows.append(
            f"rec{int(rng.integers(1, 6))},{format_seconds(start)},"
            f"{format_seconds(end)},SPK_{int(rng.integers(0, 9))}"
        )
    return rows


def corrupt_whitespace(row: str, rng: np.random.Generator) -> str:
    fields = row.split(",")
    k = int(rng.integers(0, 4))
    fields[k] = " " * int(rng.integers(1, 3)) + fields[k] + " " * int(rng.integers(0, 3))
    return ",".join(fields)


def corrupt_decimal_comma(row: str, rng: np.random.Generator) -> str | None:
    fields = row.split(",")
    candidates = [i for i in (1, 2) if "." in fields[i]]
    if not candidates:
        return None
    for i in candidates:
        fields[i] = fields[i].replace(".", ",")
    return ",".join(fields)


def corrupt_quotes(row: str, rng: np.random.Generator) -> str:
    # Only time fields: quotes inside id/speaker labels are legal characters,
    # so quoting those would produce a row strict mode still accepts.
    fields = row.split(",")
    quote = '"' if rng.integers(2) else "'"
    k = int(rng.integers(1, 3))
    fields[k] = quote + fields[k] + quote
    return ",".join(fields)


def corrupt_swap(row: str, rng: np.random.Generator) -> str:
    fields = row.split(",")
    fields[1], fields[2] = fields[2], fields[1]
    return ",".join(fields)


def corrupt_delimiters(row: str, rng: np.random.Generator) -> str:
    k = int(rng.integers(1, 4))
    parts = row.split(",")
    return ",".join(parts[:k]) + ",," + ",".join(parts[k:])


CORRUPTIONS = [
    ("whitespace", corrupt_whitespace),
    ("decimal-comma", corrupt_decimal_comma),
    ("quotes", corrupt_quotes),
    ("swap", corrupt_swap),
    ("delimiters", corrupt_delimiters),
]


def corrupt_row(row: str, rng: np.random.Generator) -> tuple[str, str]:
    """Apply one randomly-chosen applicable corruption; returns (name, bad_row)."""
    order = rng.permutation(len(CORRUPTIONS))
    for idx in order:
        name, fn = CORRUPTIONS[idx]
        result = fn(row, rng)
        if result is not None and result != row:
            return name, result
    raise AssertionError(f"no corruption applicable to {row!r}")


# ---------------------------------------------------------------------------
# Former annotation parsers: a grouping loop each, counters kept in step

def split_lines_reference(text: str) -> list[str]:
    """The annotation formats' lines: ended by `\r\n`, `\r` or `\n` only."""
    import re

    lines = re.split(r"\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def parse_row_reference(tokens: list[str]):
    """The library's former row check, token by token: (record, "") for a
    canonical row, else (None, the first failed check)."""
    import re

    time_re, token_re = re.compile(r"^\d+(\.\d+)?$"), re.compile(r"^\S+$")
    if len(tokens) != 4:
        return None, f"expected 4 fields, got {len(tokens)}"
    rec_id, start, end, speaker = tokens
    if not token_re.match(rec_id):
        return None, f"bad id {rec_id!r}"
    if not time_re.match(start):
        return None, f"bad start time {start!r}"
    if not time_re.match(end):
        return None, f"bad end time {end!r}"
    if not token_re.match(speaker):
        return None, f"bad speaker {speaker!r}"
    t0, t1 = float(start), float(end)
    if math.isinf(t1):
        return None, f"bad end time {end!r}"
    if not t0 < t1:
        return None, f"start {start} not before end {end}"
    return (rec_id, t0, t1, speaker), ""


def repair_rows_reference(text: str, strict: bool = False):
    """The library's former `repair_rows`: four counters and a dict updated
    inside the branches that build the outcomes, and every row checked token
    by token with `parse_row_reference`."""
    from speechpipe.errors import FormatError
    from speechpipe.repair import HEADER, RepairReport, RowOutcome, _repair_line

    lines = split_lines_reference(text)
    if not lines or lines[0].lstrip("\ufeff").strip() != HEADER:
        found = lines[0] if lines else "<empty>"
        raise FormatError(f"expected header {HEADER!r}, found {found!r}", line=1)

    outcomes = []
    report = RepairReport()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        report.total_lines += 1
        tokens = line.split(",")
        record, diagnosis = parse_row_reference(tokens)
        if record is not None:
            outcomes.append(RowOutcome(line_no, "ok", record, raw=line))
            report.parsed_ok += 1
            continue
        if strict:
            outcomes.append(RowOutcome(line_no, "dropped", diagnosis=diagnosis))
            report.dropped += 1
            continue
        record, rules = _repair_line(tokens)
        if record is None:
            outcomes.append(RowOutcome(line_no, "dropped", rules=rules, diagnosis=diagnosis))
            report.dropped += 1
        else:
            outcomes.append(RowOutcome(line_no, "repaired", record, rules, diagnosis))
            report.repaired += 1
            for rule in rules:
                report.rules_fired[rule] = report.rules_fired.get(rule, 0) + 1
    return outcomes, report


def parse_segments_csv_reference(text: str, strict: bool = False):
    """The library's former `parse_segments_csv`: its own grouping loop."""
    from speechpipe.errors import FormatError

    outcomes, report = repair_rows_reference(text, strict=strict)
    if strict:
        for outcome in outcomes:
            if outcome.status == "dropped":
                raise FormatError(outcome.diagnosis, line=outcome.line_no)
    grouped: dict[str, list[SpeakerSegment]] = {}
    for outcome in outcomes:
        if outcome.record is None:
            continue
        rec_id, start, end, speaker = outcome.record
        grouped.setdefault(rec_id, []).append(SpeakerSegment(TimeSpan(start, end), speaker))
    timelines = [SpeakerTimeline.from_segments(rid, segs) for rid, segs in grouped.items()]
    return timelines, report


def parse_rttm_reference(text: str):
    """The library's former `parse_rttm`: its own grouping loop."""
    from speechpipe.errors import FormatError
    from speechpipe.timeline import _parse_time

    grouped: dict[str, list[SpeakerSegment]] = {}
    for line_no, line in enumerate(split_lines_reference(text), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "SPEAKER":
            raise FormatError(f"unsupported record type {fields[0]!r}", line=line_no)
        if len(fields) != 10:
            raise FormatError(f"expected 10 fields, got {len(fields)}", line=line_no)
        file_id = fields[1]
        tbeg = _parse_time(fields[3], line_no, "onset")
        tdur = _parse_time(fields[4], line_no, "duration")
        speaker = fields[7]
        if tdur <= 0:
            continue
        grouped.setdefault(file_id, []).append(
            SpeakerSegment(TimeSpan(tbeg, round(tbeg + tdur, 6)), speaker)
        )
    return [SpeakerTimeline.from_segments(fid, segs) for fid, segs in grouped.items()]
