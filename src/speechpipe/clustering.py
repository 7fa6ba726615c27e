"""Numerical clustering of speaker embeddings.

PCA, centroid-linkage agglomerative clustering under a cosine-distance
threshold, k-means with silhouette-based speaker-count estimation,
diagonal-covariance Gaussian mixtures fit by EM with AIC/BIC model
selection, and temporal label smoothing; `cluster_embeddings` runs the
method a `ClusteringConfig` names.

All stochastic routines take explicit seeds; there is no hidden RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

VARIANCE_FLOOR = 1e-6
# Iteration limits and convergence tolerances: Lloyd stops when no center
# moves by LLOYD_TOL, EM when the log-likelihood gains less than EM_TOL.
LLOYD_MAX_ITER, LLOYD_TOL = 300, 1e-6
EM_MAX_ITER, EM_TOL = 200, 1e-6


# ---------------------------------------------------------------------------
# Distances

def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `a` scaled to unit norm, and the mask of zero-norm rows (left as is)."""
    norms = np.linalg.norm(a, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return a / safe[:, None], norms == 0


def _cosine_from_units(unit_a, zero_a, unit_b, zero_b) -> np.ndarray:
    sim = unit_a @ unit_b.T
    sim[zero_a, :] = 0.0
    sim[:, zero_b] = 0.0
    return np.subtract(1.0, sim, out=sim)


def cosine_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances between rows of `a` and rows of `b`.

    Zero-norm rows are treated as equidistant (distance 1) from everything.
    """
    return _cosine_from_units(*_unit_rows(a), *_unit_rows(b))


# ---------------------------------------------------------------------------
# PCA

@dataclass
class PcaBasis:
    mean: np.ndarray
    components: np.ndarray       # (n_components, D), orthonormal rows
    eigenvalues: np.ndarray      # variance captured per component, descending


def pca_fit(x: np.ndarray, components: int) -> PcaBasis:
    """Principal directions of the sample covariance, descending eigenvalue order.

    Sign convention: each direction's largest-magnitude coordinate is positive,
    so the basis is deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        raise ParameterError("pca_fit needs at least 2 samples")
    if not (1 <= components <= min(n, d)):
        raise ParameterError(
            f"components must be in [1, min(N, D)] = [1, {min(n, d)}], got {components}"
        )
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
    return PcaBasis(mean, directions, eigenvalues[:components])


def pca_transform(basis: PcaBasis, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != basis.mean.shape[0]:
        raise ParameterError(
            f"dimension mismatch: basis is {basis.mean.shape[0]}-d, data is {x.shape[1]}-d"
        )
    return (x - basis.mean) @ basis.components.T


def pca_inverse_transform(basis: PcaBasis, z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=np.float64) @ basis.components + basis.mean


# ---------------------------------------------------------------------------
# Cluster result container

@dataclass
class ClusterResult:
    labels: np.ndarray
    k: int
    centroids: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "labels": [int(v) for v in self.labels],
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "diagnostics": self.diagnostics,
        }


def _relabel_by_first_appearance(labels: np.ndarray) -> np.ndarray:
    """Renumber labels 0, 1, ... in order of their first occurrence; same dtype."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first)).astype(labels.dtype)[inverse]


def _centroids_for(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    return np.stack([x[labels == j].mean(axis=0) for j in range(k)])


# ---------------------------------------------------------------------------
# Agglomerative clustering, centroid linkage

def ahc_centroid(vectors: np.ndarray, tau: float, min_cluster_size: int = 1) -> ClusterResult:
    """Merge the closest centroid pair (cosine distance) while below `tau`.

    Each step merges the active pair (a, b), a < b, of smallest distance; ties
    go to the smallest `a`, then the smallest `b`. Cluster `b` joins `a`, whose
    centroid becomes the mean of the joined members, and merging stops once
    the smallest distance is >= `tau`. Every active cluster caches its nearest
    later partner (the "generic" algorithm of Muellner, arXiv:1109.2378), so a
    merge rescans only the rows whose partner it moved or removed. Cost: one
    n x n float64 matrix (184 MB at 4,800 windows) and about O(n^2)
    vectorised work per recording.

    After merging terminates, clusters smaller than `min_cluster_size` are
    dissolved and their members reassigned to the nearest surviving centroid;
    if nothing survives, the largest cluster is kept. Labels are renumbered
    by first appearance in time order.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    x = np.asarray(vectors, dtype=np.float64)
    n = len(x)
    if n == 0:
        return ClusterResult(np.empty(0, dtype=int), 0, np.empty((0, 0)), "ahc-centroid")

    members: list[list[int] | None] = [[i] for i in range(n)]
    unit, zero = _unit_rows(x)
    dist = cosine_distance_matrix(x, x)
    # Only dist[a, b] with a < b is read: the GEMM result is not exactly
    # symmetric. Blanking the rest makes a row's argmin its nearest later
    # partner, first on ties. NaN never merges, exactly like inf.
    for i in range(n):
        dist[i, : i + 1] = np.inf
    np.fmin(dist, np.inf, out=dist)
    active = np.ones(n, dtype=bool)
    partner = np.argmin(dist, axis=1)
    near = dist[np.arange(n), partner]
    merge_count = 0

    while True:
        a = int(np.argmin(near))
        if near[a] >= tau:
            break
        b = int(partner[a])
        members[a].extend(members[b])  # type: ignore[union-attr]
        members[b] = None
        active[b] = False
        near[b] = np.inf
        dist[:b, b] = np.inf
        merge_count += 1

        unit[a : a + 1], zero[a : a + 1] = _unit_rows(x[members[a]].mean(axis=0, keepdims=True))
        # Over the active columns only, as the full rescan did: the same BLAS
        # call on the same operands keeps every distance bit for bit.
        act = np.flatnonzero(active)
        row = _cosine_from_units(unit[a : a + 1], zero[a : a + 1], unit[act], zero[act])[0]
        np.fmin(row, np.inf, out=row)
        pos = int(np.searchsorted(act, a))
        dist[act[:pos], a] = row[:pos]
        dist[a, act[pos + 1 :]] = row[pos + 1 :]

        # Every row whose partner was a or b rescans, row a among them; the
        # other earlier rows keep their partner unless a is now closer (or as
        # close and earlier).
        stale = active & ((partner == a) | (partner == b))
        keep = np.flatnonzero(active[:a] & ~stale[:a])
        cand = dist[keep, a]
        wins = (cand < near[keep]) | ((cand == near[keep]) & (partner[keep] > a))
        near[keep[wins]] = cand[wins]
        partner[keep[wins]] = a
        rows = np.flatnonzero(stale)
        partner[rows] = np.argmin(dist[rows], axis=1)
        near[rows] = dist[rows, partner[rows]]

    clusters = [members[a] for a in np.flatnonzero(active)]
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
    result_centroids = _centroids_for(x, labels, k)
    return ClusterResult(
        labels,
        k,
        result_centroids,
        "ahc-centroid",
        {"merges": merge_count, "dissolved_points": dissolved, "tau": tau},
    )


# ---------------------------------------------------------------------------
# k-means

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # duplicates everywhere: any point works
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def kmeans(x: np.ndarray, k: int, seed: int) -> ClusterResult:
    """Lloyd's algorithm with k-means++ initialization; deterministic given `seed`."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not (1 <= k <= n):
        raise ParameterError(f"k must be in [1, N] = [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, k, rng)
    labels = np.zeros(n, dtype=int)
    inertia_trace: list[float] = []
    for _ in range(LLOYD_MAX_ITER):
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
            # Re-seat empty clusters on the worst-fit points.
            order = np.argsort(-costs)
            for slot, j in enumerate(empty):
                new_centers[j] = x[order[slot]]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift < LLOYD_TOL:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    # Degenerate inputs (mass duplicates) can strand a cluster; compact so
    # every reported cluster is non-empty.
    occupied, labels = np.unique(labels, return_inverse=True)
    k = len(occupied)
    centers = _centroids_for(x, labels, k)
    return ClusterResult(
        labels,
        k,
        centers,
        "kmeans",
        {"inertia": inertia, "iterations": len(inertia_trace), "inertia_trace": inertia_trace, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Silhouette

def silhouette_score(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean cosine-distance silhouette; singleton points contribute 0."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ParameterError("silhouette needs at least 2 clusters")
    dist = cosine_distance_matrix(x, x)
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


def estimate_k_silhouette(x: np.ndarray, k_min: int, k_max: int, seed: int) -> tuple[int, ClusterResult]:
    """Sweep k over [k_min, k_max] with k-means; argmax silhouette, ties to smaller k.

    Returns the chosen k and its k-means result; when no k yields two
    clusters, k_min's.
    """
    n = len(x)
    if not (2 <= k_min <= k_max <= n - 1):
        raise ParameterError(
            f"need 2 <= k_min <= k_max <= N-1 = {n - 1}, got [{k_min}, {k_max}]"
        )
    best, best_score = None, -np.inf
    for k in range(k_min, k_max + 1):
        result = kmeans(x, k, seed)
        score = silhouette_score(x, result.labels) if result.k >= 2 else -np.inf
        if best is None or score > best_score:
            best, best_score = (k, result), score
    return best


# ---------------------------------------------------------------------------
# Diagonal-covariance GMM

@dataclass
class GmmModel:
    weights: np.ndarray      # (k,), sums to 1
    means: np.ndarray        # (k, D)
    variances: np.ndarray    # (k, D), diagonal, floored
    log_likelihood: float
    param_count: int
    converged: bool = True
    iterations: int = 0
    ll_trace: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.weights)

    def aic(self) -> float:
        return 2.0 * self.param_count - 2.0 * self.log_likelihood

    def bic(self, n: int) -> float:
        return self.param_count * math.log(n) - 2.0 * self.log_likelihood

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self._log_joint(np.asarray(x, dtype=np.float64)), axis=1)

    def _log_joint(self, x: np.ndarray) -> np.ndarray:
        d = x.shape[1]
        out = np.empty((len(x), self.k))
        for j in range(self.k):
            var = self.variances[j]
            diff2 = (x - self.means[j]) ** 2 / var
            out[:, j] = (
                math.log(self.weights[j])
                - 0.5 * (d * math.log(2 * math.pi) + np.log(var).sum() + diff2.sum(axis=1))
            )
        return out


def gmm_fit(x: np.ndarray, k: int, seed: int) -> GmmModel:
    """Diagonal-covariance EM initialized from k-means; deterministic given `seed`."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if not (1 <= k <= n):
        raise ParameterError(f"k must be in [1, N] = [1, {n}], got {k}")
    init = kmeans(x, k, seed)
    k = init.k  # fewer than asked when x has fewer distinct points
    weights = np.array([(init.labels == j).mean() for j in range(k)])
    weights = np.maximum(weights, 1.0 / (10.0 * n))
    weights /= weights.sum()
    means = init.centroids.copy()
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    variances = np.empty((k, d))
    for j in range(k):
        mask = init.labels == j
        variances[j] = np.maximum(x[mask].var(axis=0), VARIANCE_FLOOR) if mask.sum() > 1 else global_var

    model = GmmModel(weights, means, variances, -np.inf, k * 2 * d + (k - 1))
    trace: list[float] = []
    previous = -np.inf
    converged = False
    for iteration in range(EM_MAX_ITER):
        log_joint = model._log_joint(x)
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
            model.variances[j] = np.maximum((resp[:, j] @ diff2) / nk[j], VARIANCE_FLOOR)

        if ll - previous < EM_TOL and iteration > 0:
            converged = True
            break
        previous = ll

    log_joint = model._log_joint(x)
    final_ll = float(np.logaddexp.reduce(log_joint, axis=1).sum())
    trace.append(final_ll)
    model.log_likelihood = final_ll
    model.converged = converged
    model.iterations = len(trace) - 1
    model.ll_trace = trace
    return model


def select_k_gmm(
    x: np.ndarray, k_range: tuple[int, int], criterion: str = "AIC", seed: int = 0,
) -> tuple[int, GmmModel]:
    """Fit over k_range and return the argmin-criterion model, ties toward smaller k."""
    criterion = criterion.upper()
    if criterion not in ("AIC", "BIC"):
        raise ParameterError(f"criterion must be AIC or BIC, got {criterion!r}")
    k_min, k_max = k_range
    x = np.asarray(x, dtype=np.float64)
    if not (1 <= k_min <= k_max <= len(x)):
        raise ParameterError(f"invalid k_range {k_range} for N={len(x)}")
    best_k, best_model, best_value = k_min, None, np.inf
    for k in range(k_min, k_max + 1):
        model = gmm_fit(x, k, seed)
        value = model.aic() if criterion == "AIC" else model.bic(len(x))
        if value < best_value:
            best_k, best_model, best_value = k, model, value
    assert best_model is not None
    return best_k, best_model


# ---------------------------------------------------------------------------
# Temporal smoothing

def smooth_labels_temporal(labels, window: int) -> list:
    """Sequential sliding majority vote over a time-ordered label sequence.

    Already-smoothed values feed later votes, so an isolated flicker inside a
    stable run is absorbed. Ties keep the position's current label; edge
    positions use truncated windows.
    """
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"window must be odd and >= 1, got {window}")
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
            # Deterministic pick: first winner in window order.
            for value in out[lo:hi]:
                if value in winners:
                    out[i] = value
                    break
    return out


# ---------------------------------------------------------------------------
# Entry point: the clustering stage of `diarize` and `cluster`

@dataclass
class ClusteringConfig:
    method: str = "ahc"             # ahc | gmm | kmeans, any case
    tau: float = 0.65
    min_cluster_size: int = 20
    pca_components: int = 0         # 0 disables
    k_min: int = 2
    k_max: int = 10
    fixed_k: int = 0                # 0 selects k automatically
    criterion: str = "AIC"          # AIC | BIC, any case
    smoothing_window: int = 1       # 1 disables
    # The over-clustering recipe is method=gmm, fixed_k=25, smoothing_window=5.

    def __post_init__(self):
        if str(self.method).lower() not in ("ahc", "gmm", "kmeans"):
            raise ParameterError(f"method must be ahc, gmm or kmeans, got {self.method!r}")
        if not self.tau > 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if self.pca_components < 0 or self.fixed_k < 0:
            raise ParameterError(
                f"pca_components and fixed_k must be >= 0, got {self.pca_components} and {self.fixed_k}"
            )
        if not 1 <= self.k_min <= self.k_max:
            raise ParameterError(f"need 1 <= k_min <= k_max, got k_min={self.k_min} k_max={self.k_max}")
        if str(self.criterion).upper() not in ("AIC", "BIC"):
            raise ParameterError(f"criterion must be AIC or BIC, got {self.criterion!r}")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ParameterError(f"smoothing_window must be odd and >= 1, got {self.smoothing_window}")


def cluster_embeddings(vectors: np.ndarray, cfg: ClusteringConfig, seed: int) -> ClusterResult:
    """Cluster time-ordered embedding windows by `cfg.method`. AHC reads only
    `tau` and `min_cluster_size`; gmm and kmeans read the other fields."""
    x = np.asarray(vectors, dtype=np.float64)
    n = len(x)
    method = cfg.method.lower()
    if method == "ahc":
        return ahc_centroid(x, cfg.tau, cfg.min_cluster_size)

    if cfg.pca_components and n >= 2:
        components = min(cfg.pca_components, n, x.shape[1])
        basis = pca_fit(x, components)
        x = pca_transform(basis, x)

    if method == "gmm":
        if cfg.fixed_k:
            model = gmm_fit(x, min(cfg.fixed_k, n), seed)
        else:
            k_max = min(cfg.k_max, n)
            _, model = select_k_gmm(x, (min(cfg.k_min, k_max), k_max), cfg.criterion, seed)
        labels = model.predict(x)
        diagnostics = {"criterion": cfg.criterion, "log_likelihood": model.log_likelihood,
                       "aic": model.aic(), "bic": model.bic(n), "fitted_k": model.k, "seed": seed}
    else:
        if cfg.fixed_k or n <= 2:
            k = min(cfg.fixed_k, n) if cfg.fixed_k else 1  # silhouette needs k_max <= N-1 with k >= 2
            result = kmeans(x, k, seed)
        else:
            k_max = min(cfg.k_max, n - 1)
            k, result = estimate_k_silhouette(x, min(max(2, cfg.k_min), k_max), k_max, seed)
        labels = result.labels
        diagnostics = {**result.diagnostics, "estimated_k": k}

    # One tail for gmm and kmeans: smooth, renumber by first appearance, and
    # take centroids in the space that was clustered.
    labels = np.asarray(smooth_labels_temporal(list(labels), cfg.smoothing_window))
    labels = _relabel_by_first_appearance(labels)
    k = len(np.unique(labels))
    return ClusterResult(labels, k, _centroids_for(x, labels, k), method, diagnostics)
