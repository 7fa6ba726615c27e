"""Numerical clustering of speaker embeddings.

PCA, centroid-linkage agglomerative clustering under a cosine-distance
threshold, k-means with silhouette-based speaker-count estimation,
diagonal-covariance Gaussian mixtures fit by EM with AIC/BIC model
selection, and temporal label smoothing; `cluster_embeddings` runs the
method a `ClusteringConfig` names.

k-means, the silhouette and AHC reproduce their former per-point loops bit
for bit. EM does not: its E- and M-steps are one matrix product each, about
the data's mean row (see `_log_joint` and `gmm_fit`), and agree with the
former per-component sums to a relative 1e-6, with the same labels on the
benchmark scenes.

All stochastic routines take explicit seeds; there is no hidden RNG state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

VARIANCE_FLOOR = 1e-6
# Iteration limits and convergence tolerances: Lloyd stops when no center
# moves by LLOYD_TOL, EM when the log-likelihood gains less than EM_TOL.
LLOYD_MAX_ITER, LLOYD_TOL = 300, 1e-6
EM_MAX_ITER, EM_TOL = 200, 1e-6
# Working-set sizes, in float64 elements: k-means sums at most this many
# gathered coordinates at once, the silhouette at most this many distances.
_PAIR_BLOCK = 1 << 18
_SILHOUETTE_BLOCK = 1 << 20


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
    pivots = directions[np.arange(components), np.argmax(np.abs(directions), axis=1)]
    directions[pivots < 0] *= -1.0
    return PcaBasis(mean, directions, eigenvalues[:components])


def pca_transform(basis: PcaBasis, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != basis.mean.shape[0]:
        raise ParameterError(
            f"dimension mismatch: basis is {basis.mean.shape[0]}-d, data is {x.shape[1]}-d"
        )
    return (x - basis.mean) @ basis.components.T


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


def _finish(x: np.ndarray, labels: np.ndarray, method: str, diagnostics: dict) -> ClusterResult:
    """`labels` renumbered by first appearance, with their centroids in the space `x` clustered."""
    labels = _relabel_by_first_appearance(labels)
    k = len(np.unique(labels))
    return ClusterResult(labels, k, _centroids_for(x, labels, k), method, diagnostics)


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
    if not tau > 0:
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

    # Listed by lowest member (b > a joins a), so max() keeps the largest with the lowest member.
    clusters = [members[a] for a in np.flatnonzero(active)]
    survivors = [c for c in clusters if len(c) >= min_cluster_size] or [max(clusters, key=len)]
    labels = np.full(n, -1)
    for j, cluster in enumerate(survivors):
        labels[cluster] = j
    # Members of dissolved clusters join the nearest surviving centroid.
    strays = np.flatnonzero(labels < 0)
    if len(strays):
        centroids = np.stack([x[c].mean(axis=0) for c in survivors])
        labels[strays] = np.argmin(cosine_distance_matrix(x[strays], centroids), axis=1)
    return _finish(x, labels, "ahc-centroid", {"merges": merge_count, "dissolved_points": len(strays), "tau": tau})


# ---------------------------------------------------------------------------
# k-means

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; rows whose D^2 weights overflow float64 raise ParameterError."""
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    with np.errstate(over="ignore"):  # an overflowed total is refused below
        d2 = np.sum((x - centers[0]) ** 2, axis=1)
        total = d2.sum()
        # A draw only lowers the weights, so this first total bounds every later one.
        if not np.isfinite(total):
            raise ParameterError(f"k-means++ needs squared distances that fit in float64, got a total of {total}")
        for j in range(1, k):
            if total <= 0:
                idx = int(rng.integers(n))  # duplicates everywhere: any point works
            else:
                idx = int(rng.choice(n, p=d2 / total))
            centers[j] = x[idx]
            d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
            total = d2.sum()
    return centers


def _candidate_centers(x: np.ndarray, x_norm2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) mask of the centers that may be nearest to each row of `x`.

    A BLAS screen `g = |x|^2 - 2 x.c + |c|^2` and the exact sum
    `((x - c) ** 2).sum()` each differ from the true squared distance by at
    most about (D + 3) roundings of `(|x| + |c|)^2`, plus one smallest
    subnormal per product where they underflow; `bound` covers both twice
    over. A center whose `g - bound` exceeds the row's least `g + bound` is
    then farther than another center in exact arithmetic and in the exact
    sums alike. Rows too large for a finite screen keep every center.
    """
    d = x.shape[1]
    with np.errstate(all="ignore"):  # a screen that is not finite is not used
        c_norm2 = np.einsum("ij,ij->i", centers, centers)
        screen = x @ centers.T
        screen *= -2.0
        screen += x_norm2[:, None]
        screen += c_norm2
        bound = np.sqrt(x_norm2)[:, None] + np.sqrt(c_norm2)
        np.square(bound, out=bound)
        bound *= 4 * (d + 4) * np.finfo(np.float64).eps
        bound += 4 * (d + 4) * np.finfo(np.float64).smallest_subnormal
        lo, hi = screen - bound, np.add(screen, bound, out=screen)
        # Twice the largest (|x| + |c|)^2 of a row: where it is finite, so
        # are the row's screen, its bounds and its exact sums.
        row_scale = 2 * (np.sqrt(x_norm2) + np.sqrt(c_norm2.max())) ** 2
    candidate = lo <= hi.min(axis=1, keepdims=True)
    candidate[~np.isfinite(row_scale)] = True
    return candidate


def _screened_sq_distances(x: np.ndarray, x_norm2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances `((x[r] - c[j]) ** 2).sum()` for the candidate pairs
    of `_candidate_centers`, `inf` for the rest: argmin over a row picks the
    same first minimum as over the full row, and its value bit for bit."""
    rows, cols = np.nonzero(_candidate_centers(x, x_norm2, centers))
    out = np.full((len(x), len(centers)), np.inf)
    d = x.shape[1]
    # Pairs in blocks, so the gathered rows stay a few MB at any n.
    step = max(1, _PAIR_BLOCK // max(d, 1))
    for start in range(0, len(rows), step):
        r, c = rows[start : start + step], cols[start : start + step]
        # Laid out like x, as the former (n, k, D) tensor was: an F-ordered
        # x sums its coordinates in sequence, a C-ordered one pairwise.
        diff = np.subtract(x[r], centers[c], out=np.empty_like(x, shape=(len(r), d)))
        np.square(diff, out=diff)
        out[r, c] = diff.sum(axis=1)
    return out


def kmeans(x: np.ndarray, k: int, seed: int) -> ClusterResult:
    """Lloyd's algorithm with k-means++ initialization; deterministic given `seed`.

    Each assignment screens all distances with one BLAS product and sums
    exactly only the pairs that can be a row's nearest center
    (`_screened_sq_distances`), so labels, centroids and inertia are those
    of the full `(x - c) ** 2` sums, bit for bit, with no `(n, k, D)` tensor.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not (1 <= k <= n):
        raise ParameterError(f"k must be in [1, N] = [1, {n}], got {k}")
    if not seed >= 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, k, rng)
    # One more assignment than updates: the last, after convergence or the limit, is the result.
    inertia_trace: list[float] = []
    shift = np.inf
    with np.errstate(over="ignore"):  # rows this large take the exact path
        x_norm2 = np.einsum("ij,ij->i", x, x)
    for iteration in range(LLOYD_MAX_ITER + 1):
        d2 = _screened_sq_distances(x, x_norm2, centers)
        labels = np.argmin(d2, axis=1)
        costs = d2[np.arange(n), labels]
        if shift < LLOYD_TOL or iteration == LLOYD_MAX_ITER:
            break
        inertia_trace.append(float(costs.sum()))
        counts = np.bincount(labels, minlength=k)
        new_centers = centers.copy()
        for j in np.flatnonzero(counts):
            new_centers[j] = x[labels == j].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # Re-seat empty clusters, in index order, on the worst-fit points.
            new_centers[empty] = x[np.argsort(-costs)[: empty.size]]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
    inertia = float(costs.sum())
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
    """Mean cosine-distance silhouette; singleton points contribute 0.

    Bit for bit the per-point definition: a point's distance sum to each
    cluster is one pairwise sum over that cluster's members in index order,
    taken for a block of points at a time from the `n x n` distance matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise ParameterError("silhouette needs at least 2 clusters")
    if not np.isfinite(x).all():
        raise ParameterError("silhouette needs finite rows")
    return _silhouette_from_distances(cosine_distance_matrix(x, x), labels)


def _silhouette_from_distances(dist: np.ndarray, labels: np.ndarray) -> float:
    """`silhouette_score` on the precomputed cosine distances of its rows. A row's
    b, its least mean distance to another cluster, is the row minimum of the
    means with its own cluster's set to inf: on finite distances, the builtin min."""
    unique, own = np.unique(labels, return_inverse=True)
    members = [np.flatnonzero(labels == lab) for lab in unique]
    sizes = np.array([len(m) for m in members])
    n = len(dist)
    scores = np.zeros(n)
    step = max(1, _SILHOUETTE_BLOCK // max(n, 1))
    for start in range(0, n, step):
        rows = dist[start : start + step]
        block_own = own[start : start + step]
        # np.take keeps the gathered block C-ordered, so each row sums as
        # dist[i, mask].sum() does.
        sums = np.stack([np.take(rows, m, axis=1).sum(axis=1) for m in members], axis=1)
        own_size = sizes[block_own]
        own_col = np.arange(len(rows)), block_own
        means = sums / sizes
        means[own_col] = np.inf
        b = means.min(axis=1)
        # Singletons (own_size - 1 == 0) and denom == 0 score 0: those quotients are unused.
        with np.errstate(divide="ignore", invalid="ignore"):
            a = sums[own_col] / (own_size - 1)
            denom = np.where(b > a, b, a)  # max(a, b) keeps a unless b is larger
            score = np.where(denom == 0, 0.0, (b - a) / denom)
        scores[start : start + step] = np.where(own_size <= 1, 0.0, score)
    return float(scores.mean())


def estimate_k_silhouette(x: np.ndarray, k_min: int, k_max: int, seed: int) -> tuple[int, ClusterResult]:
    """Sweep k over [k_min, k_max] with k-means; argmax silhouette, ties to smaller k.

    Every k is scored on one cosine distance matrix, built once per sweep.
    Returns the chosen k and its k-means result; when no k yields two
    clusters, k_min's.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not (2 <= k_min <= k_max <= n - 1):
        raise ParameterError(
            f"need 2 <= k_min <= k_max <= N-1 = {n - 1}, got [{k_min}, {k_max}]"
        )
    # The fits come first, so rows that k-means refuses build no distance matrix.
    fits = [(k, kmeans(x, k, seed)) for k in range(k_min, k_max + 1)]
    dist = cosine_distance_matrix(x, x)
    # max keeps the first of equal scores: ties go to the smaller k.
    return max(fits, key=lambda fit: _silhouette_from_distances(dist, fit[1].labels) if fit[1].k >= 2 else -np.inf)


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
        return np.argmax(_log_joint(np.asarray(x, np.float64), self.weights, self.means, self.variances), axis=1)


def _centred(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The origin `o`, the mean row of `x`, and the features `[(x - o)^2, x - o]`
    of each row side by side, shaped (n, 2D): the one operand of both EM steps."""
    origin = x.mean(axis=0)
    xc = x - origin
    return origin, np.hstack([xc * xc, xc])


def _log_joint(x: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray,
               centred: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """log(weight_j) + log N(x_i | mean_j, diag(variance_j)) for every row i and component j.

    The scaled squared distances of every row to every mean are one matrix
    product, the diagonal-Gaussian expansion of scikit-learn's
    `_estimate_log_gaussian_prob`: with `p = 1 / variance`,
    `sum((x - m)^2 p) = (x*x) @ p - 2 x @ (m p) + sum(m^2 p)`. Rows and
    means are taken relative to the mean row of `x` (`centred` is
    `_centred(x)`, made when not given), so the terms do not cancel on
    offset data.
    """
    origin, features = _centred(x) if centred is None else centred
    mc = means - origin
    prec = 1.0 / variances
    out = features @ np.hstack([prec, -2.0 * mc * prec]).T
    out += np.einsum("ij,ij->i", mc * mc, prec)
    out *= -0.5
    out += np.log(weights) - 0.5 * (x.shape[1] * math.log(2 * math.pi) + np.log(variances).sum(axis=1))
    return out


def gmm_fit(x: np.ndarray, k: int, seed: int) -> GmmModel:
    """Diagonal-covariance EM initialized from k-means; deterministic given `seed`.

    Each E-step is `_log_joint`'s one product. Each M-step is one more,
    `resp.T @ [(x - o)^2, x - o]` about the E-step's origin `o`, which
    gives every component's weighted sums of `x - o` (so the means) and
    of `(x - mean)^2` (so the floored variances) without a pass over `x`
    per component. Each row's log-likelihood is its log-sum-exp shifted by
    the row's largest log-joint. The arithmetic is reordered from the
    per-component loops and `np.logaddexp` of former versions, so results
    agree with them to a relative 1e-6, not bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if not (1 <= k <= n):
        raise ParameterError(f"k must be in [1, N] = [1, {n}], got {k}")
    init = kmeans(x, k, seed)
    k = init.k  # fewer than asked when x has fewer distinct points
    counts = np.bincount(init.labels, minlength=k)
    weights = np.maximum(counts / n, 1.0 / (10.0 * n))
    weights /= weights.sum()
    means = init.centroids
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    variances = np.stack([np.maximum(x[init.labels == j].var(axis=0), VARIANCE_FLOOR) if counts[j] > 1
                          else global_var for j in range(k)])

    # One more E-step than M-steps: the last, after convergence or the limit, is the final score.
    trace: list[float] = []
    converged = False
    centred = _centred(x)
    origin, features = centred
    for iteration in range(EM_MAX_ITER + 1):
        # Each row's log-sum-exp, shifted by its largest term; resp keeps the exponentials.
        resp = _log_joint(x, weights, means, variances, centred)
        peak = resp.max(axis=1, keepdims=True)
        np.exp(np.subtract(resp, peak, out=resp), out=resp)
        total = resp.sum(axis=1, keepdims=True)
        trace.append(float((peak + np.log(total)).sum()))
        if converged or iteration == EM_MAX_ITER:
            break
        converged = iteration > 0 and trace[-1] - trace[-2] < EM_TOL
        resp /= total
        mass = resp.sum(axis=0)
        nk = np.maximum(mass, 1e-12)
        weights = nk / n
        sums = resp.T @ features
        sq, lin = sums[:, :d], sums[:, d:]
        # sum(resp (x - m)^2) = sq - 2 mc lin + mc^2 mass with mc = m - o; the
        # mass term is not folded into nk, which the floor makes larger.
        means = (lin + np.outer(mass, origin)) / nk[:, None]
        mc = means - origin
        variances = np.maximum((sq - mc * (2.0 * lin - mc * mass[:, None])) / nk[:, None], VARIANCE_FLOOR)
    return GmmModel(weights, means, variances, trace[-1], k * 2 * d + (k - 1), converged, len(trace) - 1, trace)


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
    # min keeps the first of equal values: ties go to the smaller k.
    fits = ((k, gmm_fit(x, k, seed)) for k in range(k_min, k_max + 1))
    return min(fits, key=lambda fit: fit[1].aic() if criterion == "AIC" else fit[1].bic(len(x)))


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
        votes = Counter(out[lo:hi])
        best_count = max(votes.values())
        if votes[out[i]] < best_count:
            # Deterministic pick: first winner in window order, a Counter's key order.
            out[i] = next(value for value, count in votes.items() if count == best_count)
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
    `tau` and `min_cluster_size`; gmm and kmeans read the other fields. Zero
    windows give k 0 under every method."""
    x = np.asarray(vectors, dtype=np.float64)
    n = len(x)
    method = cfg.method.lower()
    if method == "ahc":
        return ahc_centroid(x, cfg.tau, cfg.min_cluster_size)
    if n == 0:
        return ClusterResult(np.empty(0, dtype=int), 0, np.empty((0, 0)), method)

    # 0-d vectors clamp to 0 components: a 0-column projection is the input.
    components = min(cfg.pca_components, n, x.shape[1])
    if components and n >= 2:
        x = pca_transform(pca_fit(x, components), x)

    if method == "gmm":
        # A fixed k is a sweep over that one k.
        k_max = min(cfg.fixed_k or cfg.k_max, n)
        k_min = k_max if cfg.fixed_k else min(cfg.k_min, k_max)
        _, model = select_k_gmm(x, (k_min, k_max), cfg.criterion, seed)
        labels = model.predict(x)
        diagnostics = {"criterion": cfg.criterion, "log_likelihood": model.log_likelihood,
                       "aic": model.aic(), "bic": model.bic(n), "fitted_k": model.k,
                       "iterations": model.iterations, "converged": model.converged, "seed": seed}
    else:
        if cfg.fixed_k or n <= 2:
            k = min(cfg.fixed_k, n) if cfg.fixed_k else 1  # silhouette needs k_max <= N-1 with k >= 2
            result = kmeans(x, k, seed)
        else:
            k_max = min(cfg.k_max, n - 1)
            k, result = estimate_k_silhouette(x, min(max(2, cfg.k_min), k_max), k_max, seed)
        labels = result.labels
        diagnostics = {**result.diagnostics, "estimated_k": k}

    labels = np.asarray(smooth_labels_temporal(list(labels), cfg.smoothing_window))
    return _finish(x, labels, method, diagnostics)
