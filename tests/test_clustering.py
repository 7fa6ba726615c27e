from __future__ import annotations

import math
import time

import numpy as np
import pytest

from speechpipe import (
    ParameterError,
    ahc_centroid,
    estimate_k_silhouette,
    gmm_fit,
    kmeans,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    select_k_gmm,
    silhouette_score,
    smooth_labels_temporal,
)
from speechpipe.clustering import _relabel_by_first_appearance
from synth import ahc_centroid_reference, ahc_oracle, relabel_by_first_appearance_reference, two_speaker_scene


def unit_bundle(rng, center, n, scale=0.03):
    out = center + rng.normal(scale=scale, size=(n, len(center)))
    return out / np.linalg.norm(out, axis=1, keepdims=True)


class TestPca:
    def test_exact_subspace_zero_reconstruction_error(self):
        rng = np.random.default_rng(0)
        basis_vecs = rng.normal(size=(3, 10))
        coords = rng.normal(size=(40, 3))
        x = coords @ basis_vecs + rng.normal(size=10)
        basis = pca_fit(x, 3)
        recon = pca_inverse_transform(basis, pca_transform(basis, x))
        assert np.max(np.abs(recon - x)) < 1e-9

    def test_full_basis_zero_error(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 6))
        basis = pca_fit(x, 6)
        recon = pca_inverse_transform(basis, pca_transform(basis, x))
        assert np.max(np.abs(recon - x)) < 1e-9

    def test_explained_variance_matches_brute_force(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 128))
        basis = pca_fit(x, 64)
        centered = x - x.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / 199))[::-1]
        ratio = basis.eigenvalues / eigvals.sum()
        expect = eigvals[:64] / eigvals.sum()
        assert np.max(np.abs(ratio - expect)) < 1e-8

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 8))
        basis = pca_fit(x, 4)
        z = pca_transform(basis, x.mean(axis=0, keepdims=True))
        assert np.max(np.abs(z)) < 1e-9

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(4)
        basis = pca_fit(rng.normal(size=(50, 12)), 6)
        gram = basis.components @ basis.components.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-9

    def test_projection_contracts_norm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 10))
        basis = pca_fit(x, 3)
        z = pca_transform(basis, x)
        centered = x - basis.mean
        assert np.all(
            np.linalg.norm(z, axis=1) <= np.linalg.norm(centered, axis=1) + 1e-12
        )

    def test_reconstruction_error_equals_discarded_eigenvalues(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 20))
        basis_full = pca_fit(x, 20)
        basis = pca_fit(x, 5)
        recon = pca_inverse_transform(basis, pca_transform(basis, x))
        err = np.sum((x - recon) ** 2) / (len(x) - 1)
        discarded = basis_full.eigenvalues[5:].sum()
        assert err == pytest.approx(discarded, rel=1e-6)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 8))
        b1, b2 = pca_fit(x, 4), pca_fit(x.copy(), 4)
        assert np.array_equal(b1.components, b2.components)
        for row in b1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_too_many_components_rejected(self):
        with pytest.raises(ParameterError):
            pca_fit(np.zeros((5, 3)), 4)


class TestAhcCentroid:
    def test_two_separated_bundles(self):
        rng = np.random.default_rng(10)
        a = np.array([1.0, 0, 0, 0])
        b = np.array([0.1, np.sqrt(1 - 0.01), 0, 0])  # cosine distance 0.9
        x = np.vstack([unit_bundle(rng, a, 6), unit_bundle(rng, b, 6)])
        result = ahc_centroid(x, tau=0.65)
        assert result.k == 2
        assert len(set(result.labels[:6])) == 1
        assert len(set(result.labels[6:])) == 1

    def test_identical_vectors_single_cluster(self):
        x = np.tile([0.6, 0.8], (7, 1))
        assert ahc_centroid(x, tau=0.1).k == 1

    def test_min_cluster_size_dissolution(self):
        rng = np.random.default_rng(11)
        a = np.array([1.0, 0, 0, 0])
        b = np.array([0.1, np.sqrt(1 - 0.01), 0, 0])
        x = np.vstack([unit_bundle(rng, a, 25), unit_bundle(rng, b, 3)])
        result = ahc_centroid(x, tau=0.65, min_cluster_size=20)
        assert result.k == 1
        assert set(result.labels) == {0}

    def test_empty_input(self):
        result = ahc_centroid(np.empty((0, 4)), tau=0.5)
        assert result.k == 0 and len(result.labels) == 0

    def test_matches_bruteforce_oracle_small_n(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(2, 6))
            x = rng.normal(size=(n, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            tau = float(rng.uniform(0.1, 1.2))
            mcs = int(rng.integers(1, 4))
            result = ahc_centroid(x, tau, mcs)
            assert result.labels.tolist() == ahc_oracle(x, tau, mcs)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(15, 5))
        r1 = ahc_centroid(x, 0.4)
        r2 = ahc_centroid(3.7 * x, 0.4)
        assert np.array_equal(r1.labels, r2.labels)

    def test_labels_numbered_by_first_appearance(self):
        rng = np.random.default_rng(14)
        a = unit_bundle(rng, np.array([1.0, 0, 0]), 4)
        b = unit_bundle(rng, np.array([0, 1.0, 0]), 4)
        x = np.vstack([b, a])  # second bundle appears first in time
        result = ahc_centroid(x, 0.5)
        assert result.labels[0] == 0

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(10, 3))
        result = ahc_centroid(x, 0.6)
        for j in range(result.k):
            np.testing.assert_allclose(
                result.centroids[j], x[result.labels == j].mean(axis=0), atol=1e-12
            )


def _awkward_vectors(rng, n: int, d: int) -> np.ndarray:
    """Random rows with exact duplicates, zero rows or quantised values mixed in."""
    kind = int(rng.integers(4))
    if kind == 0:
        x = rng.normal(size=(n, d))
    elif kind == 1:
        x = rng.integers(-1, 2, size=(n, d)).astype(float)  # many exact ties
    elif kind == 2:
        pool = rng.normal(size=(max(1, n // 4), d))
        x = pool[rng.integers(len(pool), size=n)]  # duplicate rows
    else:
        centers = rng.normal(size=(3, d))
        x = centers[rng.integers(3, size=n)] + rng.normal(scale=0.3, size=(n, d))
    if rng.random() < 0.4:
        x[rng.random(n) < 0.15] = 0.0
    return x


class TestAhcMatchesReference:
    """The nearest-partner cache reproduces the full pairwise rescan exactly."""

    @staticmethod
    def check(x, tau, mcs) -> dict:
        got, want = ahc_centroid(x, tau, mcs), ahc_centroid_reference(x, tau, mcs)
        assert got.labels.tolist() == want.labels.tolist()
        assert got.k == want.k
        assert np.array_equal(got.centroids, want.centroids)
        assert got.diagnostics == want.diagnostics
        return got.diagnostics

    def test_random_awkward_inputs(self):
        rng = np.random.default_rng(31)
        dissolved = 0
        for _ in range(150):
            n = int(rng.integers(1, 50))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 9)))
            tau = float(rng.choice([rng.uniform(0.05, 1.5), 1.0, np.inf]))
            dissolved += self.check(x, tau, int(rng.integers(1, 8)))["dissolved_points"]
        assert dissolved > 0

    def test_exact_tie_with_merged_cluster_goes_to_smaller_index(self):
        # A merged centroid lands exactly as far from an earlier row as that
        # row's cached partner; the earlier-indexed cluster must win the tie.
        x = np.array([[-1, 1, 0], [0, 1, 0], [1, 1, 1], [1, 1, -1], [-1, 0, -1]], float)
        self.check(x, 1.01, 1)
        assert ahc_centroid(x, 1.01).labels.tolist() == [0, 0, 0, 0, 1]

    def test_larger_inputs(self):
        rng = np.random.default_rng(32)
        for n, mcs in [(120, 5), (160, 12), (200, 1)]:
            self.check(_awkward_vectors(rng, n, 16), float(rng.uniform(0.3, 1.0)), mcs)

    def test_recording_sized_scene(self):
        emb, _ = two_speaker_scene(seed=33, total_seconds=260.0, dim=48)
        assert len(emb.vectors) >= 290
        assert self.check(emb.vectors[:300], 0.65, 20)["merges"] > 0


class TestAhcScale:
    def test_two_thousand_windows_finish_quickly(self):
        emb, _ = two_speaker_scene(seed=34, total_seconds=1750.0)
        x = emb.vectors[:2000]
        assert len(x) == 2000
        start = time.perf_counter()
        result = ahc_centroid(x, tau=0.65, min_cluster_size=20)
        elapsed = time.perf_counter() - start
        assert result.k == 2, result.diagnostics
        assert elapsed < 15.0, f"{elapsed:.1f}s >= 15s"

    def test_merges_count_without_dissolving(self):
        emb, _ = two_speaker_scene(seed=35, total_seconds=1750.0)
        x = emb.vectors[:2000]
        result = ahc_centroid(x, tau=0.65, min_cluster_size=1)
        assert result.diagnostics["dissolved_points"] == 0
        assert result.diagnostics["merges"] == len(x) - result.k


class TestKmeans:
    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(8, 3))
        result = kmeans(x, 8, seed=0)
        assert result.diagnostics["inertia"] == pytest.approx(0.0, abs=1e-12)
        assert sorted(result.labels) == list(range(8))

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 4))
        result = kmeans(x, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], x.mean(axis=0), atol=1e-12)

    def test_separated_clouds_recovered(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(40, 2)) + [0, 0]
        b = rng.normal(size=(40, 2)) + [10, 10]
        x = np.vstack([a, b])
        result = kmeans(x, 2, seed=1)
        truth = np.array([0] * 40 + [1] * 40)
        agreement = max(
            np.mean(result.labels == truth), np.mean(result.labels == 1 - truth)
        )
        assert agreement == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(50, 3))
        r1, r2 = kmeans(x, 4, seed=9), kmeans(x, 4, seed=9)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            x = rng.normal(size=(60, 4))
            trace = kmeans(x, 5, seed=seed).diagnostics["inertia_trace"]
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_duplicate_points_never_report_empty_clusters(self):
        x = np.tile([1.0, 2.0], (6, 1))
        result = kmeans(x, 3, seed=0)
        for j in range(result.k):
            assert (result.labels == j).any()


class TestSilhouette:
    def test_antipodal_clusters_near_one(self):
        rng = np.random.default_rng(30)
        a = unit_bundle(rng, np.array([1.0, 0, 0]), 8, scale=0.01)
        b = unit_bundle(rng, np.array([-1.0, 0, 0]), 8, scale=0.01)
        x = np.vstack([a, b])
        labels = np.array([0] * 8 + [1] * 8)
        assert silhouette_score(x, labels) > 0.95

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(300, 5))
        labels = rng.integers(0, 2, size=300)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        assert abs(silhouette_score(x, labels)) < 0.1

    def test_identical_duplicated_clusters_nonpositive(self):
        rng = np.random.default_rng(32)
        cloud = rng.normal(size=(10, 3))
        x = np.vstack([cloud, cloud])
        labels = np.array([0] * 10 + [1] * 10)
        assert silhouette_score(x, labels) <= 0

    def test_single_cluster_rejected(self):
        with pytest.raises(ParameterError):
            silhouette_score(np.zeros((5, 2)), np.zeros(5, dtype=int))


class TestEstimateK:
    def _clouds(self, rng, centers, per=30, scale=0.05):
        parts = [unit_bundle(rng, np.asarray(c, float), per, scale) for c in centers]
        return np.vstack(parts)

    def test_three_clouds(self):
        rng = np.random.default_rng(40)
        x = self._clouds(rng, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert estimate_k_silhouette(x, 2, 8, seed=0)[0] == 3

    def test_two_clouds(self):
        rng = np.random.default_rng(41)
        x = self._clouds(rng, [[1, 0, 0], [0, 1, 0]])
        assert estimate_k_silhouette(x, 2, 4, seed=0)[0] == 2

    def test_degenerate_range(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(20, 3))
        assert estimate_k_silhouette(x, 3, 3, seed=0)[0] == 3

    def test_result_is_kmeans_of_chosen_k(self):
        rng = np.random.default_rng(43)
        clouds = self._clouds(rng, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], per=10)
        # All-equal points never give two clusters: the result is k_min's.
        for x, k_min, want_k in [(clouds, 2, None), (np.ones((10, 3)), 3, 3)]:
            for seed in range(3):
                k, got = estimate_k_silhouette(x, k_min, 6, seed)
                want = kmeans(x, k, seed)
                assert want_k is None or k == want_k
                assert got.labels.tolist() == want.labels.tolist() and got.k == want.k
                assert np.array_equal(got.centroids, want.centroids)
                assert got.diagnostics == want.diagnostics


class TestRelabel:
    def test_equals_former_loop(self):
        rng = np.random.default_rng(34)
        for _ in range(2000):
            dtype = (np.int64, np.int32)[int(rng.integers(2))]
            labels = rng.integers(-3, int(rng.integers(-2, 12)), size=int(rng.integers(0, 60))).astype(dtype)
            got, want = _relabel_by_first_appearance(labels), relabel_by_first_appearance_reference(labels)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


class TestGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(50)
        x = rng.normal(loc=2.0, scale=1.5, size=(500, 3))
        model = gmm_fit(x, 1, seed=0)
        np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(model.variances[0], x.var(axis=0), atol=1e-6)
        assert model.weights[0] == pytest.approx(1.0)

    def test_loglik_monotone_every_iteration(self):
        rng = np.random.default_rng(51)
        for seed in range(5):
            x = np.concatenate(
                [rng.normal(-5, 1, size=(300, 1)), rng.normal(5, 1, size=(300, 1))]
            )
            model = gmm_fit(x, 2, seed=seed)
            trace = model.ll_trace
            for a, b in zip(trace, trace[1:]):
                assert b >= a - 1e-8 * max(1.0, abs(a))

    def test_two_component_1d_mixture_recovered(self):
        rng = np.random.default_rng(52)
        x = np.concatenate(
            [rng.normal(-5, 1, size=(1000, 1)), rng.normal(5, 1, size=(1000, 1))]
        )
        model = gmm_fit(x, 2, seed=3)
        means = sorted(float(m) for m in model.means[:, 0])
        assert abs(means[0] - (-5)) < 0.2
        assert abs(means[1] - 5) < 0.2

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(200, 2))
        model = gmm_fit(x, 4, seed=1)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_param_count(self):
        rng = np.random.default_rng(54)
        model = gmm_fit(rng.normal(size=(50, 6)), 3, seed=0)
        assert model.param_count == 3 * 12 + 2

    def test_k_above_distinct_points_fits_distinct_count(self):
        # k-means compacts to the 3 distinct points; the model must match it.
        x = np.repeat(np.eye(3), 4, axis=0)
        model = gmm_fit(x, 4, seed=0)
        assert model.k == 3
        assert model.means.shape == model.variances.shape == (3, 3)
        assert model.param_count == 3 * 6 + 2
        assert np.isfinite(model.log_likelihood)
        assert sorted(np.bincount(model.predict(x)).tolist()) == [4, 4, 4]

    def test_restart_reduction_deterministic(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=(120, 2))
        m1 = gmm_fit(x, 3, seed=7)
        m2 = gmm_fit(x, 3, seed=7)
        assert m1.log_likelihood == m2.log_likelihood
        assert np.array_equal(m1.means, m2.means)


class TestSelectK:
    def test_single_gaussian_picks_one(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(400, 2)) * 0.3
        k, _ = select_k_gmm(x, (1, 4), "AIC", seed=0)
        assert k == 1

    def test_three_components_mostly_selected(self):
        # 1-D keeps the spurious-split likelihood gain far below the AIC
        # penalty; in higher dimensions AIC's known overselection kicks in.
        rng = np.random.default_rng(61)
        x = np.concatenate(
            [rng.normal(c, 1.0, size=(200, 1)) for c in (-10.0, 0.0, 10.0)]
        )
        hits = sum(select_k_gmm(x, (1, 6), "AIC", seed=s)[0] == 3 for s in range(20))
        assert hits >= 18

    def test_aic_bic_identity(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(150, 3))
        model = gmm_fit(x, 2, seed=0)
        n = len(x)
        gap = model.bic(n) - model.aic()
        expect = model.param_count * (math.log(n) - 2.0)
        assert gap == pytest.approx(expect, rel=1e-12, abs=1e-9)

    def test_bic_criterion_accepted(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=(100, 2))
        k, model = select_k_gmm(x, (1, 3), "BIC", seed=0)
        assert 1 <= k <= 3


class TestOverclusterPreset:
    """The over-clustering recipe (fixed-k GMM, then temporal smoothing) runs
    through the clustering path of `diarize`/`cluster`:
    `--method gmm --fixed-k K --smoothing-window W`."""

    def test_runs_and_keeps_time_structure(self):
        from speechpipe.clustering import ClusteringConfig, cluster_embeddings

        rng = np.random.default_rng(80)
        a = rng.normal(size=(60, 4)) + [8, 0, 0, 0]
        b = rng.normal(size=(60, 4)) - [8, 0, 0, 0]
        x = np.vstack([a, b])
        cfg = ClusteringConfig(method="gmm", fixed_k=10, smoothing_window=5)
        result = cluster_embeddings(x, cfg, seed=0)
        labels = result.labels
        assert len(labels) == 120
        assert len(np.unique(labels)) == result.k <= 10
        again = cluster_embeddings(x, cfg, seed=0)
        assert np.array_equal(labels, again.labels)
        assert np.array_equal(result.centroids, again.centroids)
        # The recipe itself, renumbered by first appearance.
        smoothed = smooth_labels_temporal(list(gmm_fit(x, 10, 0).predict(x)), 5)
        first = {lab: i for i, lab in enumerate(dict.fromkeys(smoothed))}
        assert labels.tolist() == [first[lab] for lab in smoothed]


class TestSmoothing:
    def test_window_one_identity(self):
        assert smooth_labels_temporal([3, 1, 4, 1, 5], 1) == [3, 1, 4, 1, 5]

    def test_flicker_absorbed(self):
        assert smooth_labels_temporal([1, 1, 2, 1, 1], 3) == [1, 1, 1, 1, 1]

    def test_alternating_resolves_to_first(self):
        assert smooth_labels_temporal([1, 2, 1, 2, 1], 3) == [1, 1, 1, 1, 1]

    def test_even_window_rejected(self):
        with pytest.raises(ParameterError):
            smooth_labels_temporal([1, 2], 2)

    def test_no_label_invented(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            labels = rng.integers(0, 4, size=int(rng.integers(1, 40))).tolist()
            window = int(rng.choice([1, 3, 5, 7]))
            out = smooth_labels_temporal(labels, window)
            assert set(out) <= set(labels)
            half = window // 2
            state = list(labels)
            for i in range(len(labels)):
                lo, hi = max(0, i - half), min(len(labels), i + half + 1)
                visible = set(state[lo:i]) | set(labels[i:hi])
                assert out[i] in visible
                state[i] = out[i]
