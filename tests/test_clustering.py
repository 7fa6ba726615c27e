from __future__ import annotations

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from speechpipe import (
    ParameterError,
    ahc_centroid,
    estimate_k_silhouette,
    gmm_fit,
    kmeans,
    pca_fit,
    pca_transform,
    select_k_gmm,
    silhouette_score,
    smooth_labels_temporal,
)
from speechpipe.clustering import (
    VARIANCE_FLOOR,
    ClusteringConfig,
    _relabel_by_first_appearance,
    cluster_embeddings,
    cosine_distance_matrix,
)
from synth import (
    ahc_centroid_reference,
    ahc_oracle,
    gmm_fit_reference,
    gmm_predict_reference,
    estimate_k_silhouette_reference,
    kmeans_reference,
    pca_fit_reference,
    relabel_by_first_appearance_reference,
    select_k_gmm_reference,
    silhouette_score_reference,
    smooth_labels_temporal_reference,
    two_speaker_scene,
)


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
        recon = pca_transform(basis, x) @ basis.components + basis.mean
        assert np.max(np.abs(recon - x)) < 1e-9

    def test_full_basis_zero_error(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 6))
        basis = pca_fit(x, 6)
        recon = pca_transform(basis, x) @ basis.components + basis.mean
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
        recon = pca_transform(basis, x) @ basis.components + basis.mean
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
    def test_nan_tau_rejected(self):
        with pytest.raises(ParameterError, match="tau must be positive, got nan"):
            ahc_centroid(np.eye(3), math.nan)

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

    def test_nothing_survives_and_largest_clusters_tie(self):
        # Every cluster is below min_cluster_size and two share the largest
        # size: the largest with the lowest member is kept and every other
        # point joins it, as in the reference and the oracle.
        x = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 1]], float)
        assert ahc_centroid(x, 0.1, 1).labels.tolist() == [0, 0, 1, 1, 2]
        assert self.check(x, 0.1, 3)["dissolved_points"] == 3
        assert ahc_centroid(x, 0.1, 3).labels.tolist() == ahc_oracle(x, 0.1, 3)

        rng = np.random.default_rng(35)
        ties = 0
        for _ in range(300):
            x = _awkward_vectors(rng, int(rng.integers(2, 30)), int(rng.integers(1, 6)))
            tau = float(rng.uniform(0.05, 1.2))
            sizes = sorted(np.bincount(ahc_centroid(x, tau, 1).labels).tolist(), reverse=True)
            mcs = sizes[0] + 1  # nothing survives
            self.check(x, tau, mcs)
            ties += len(sizes) > 1 and sizes[0] == sizes[1]
        assert ties >= 20

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
    @pytest.mark.parametrize("fit", ["kmeans", "gmm_fit", "estimate_k_silhouette"])
    def test_rows_whose_weights_overflow_are_refused(self, fit):
        # Squared distances near 1e400 overflow the k-means++ weights: an
        # input error before any numpy warning, in every fit that seeds there.
        run = {"kmeans": lambda x: kmeans(x, 3, 0), "gmm_fit": lambda x: gmm_fit(x, 3, 0),
               "estimate_k_silhouette": lambda x: estimate_k_silhouette(x, 2, 4, 0)}[fit]
        x = np.random.default_rng(0).standard_normal((20, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"k-means\+\+ needs squared distances"):
                run(x * 1e200)
            run(x * 1e150)  # weights near 1e300 still fit

    def test_one_center_on_overflowing_rows_is_refused(self):
        # k = 1 draws no weights, but the first center's D^2 total is checked.
        x = np.random.default_rng(0).standard_normal((20, 4))
        with pytest.raises(ParameterError, match=r"k-means\+\+ needs squared distances"):
            kmeans(x * 1e200, 1, 0)
        assert kmeans(x * 1e150, 1, 0).k == 1

    @pytest.mark.parametrize("fit", ["kmeans", "gmm_fit", "estimate_k_silhouette", "select_k_gmm"])
    def test_negative_seed_is_refused(self, fit):
        run = {"kmeans": lambda x: kmeans(x, 2, -1), "gmm_fit": lambda x: gmm_fit(x, 2, -1),
               "estimate_k_silhouette": lambda x: estimate_k_silhouette(x, 2, 3, -1),
               "select_k_gmm": lambda x: select_k_gmm(x, (1, 3), "AIC", -1)}[fit]
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            run(np.random.default_rng(0).standard_normal((20, 4)))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        x = np.eye(4)
        x[2, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            silhouette_score(x, np.array([0, 0, 1, 1]))


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

    def test_offsets_and_scales(self):
        # EM is translation-equivariant; the E-step's expansion is so in
        # floating point only because it is taken about the mean row: without
        # that centring, the 1e6 and 1e8 shifts change the fit (at 1e8 the
        # log-likelihood reads about +1.4e8 instead of -1214). A scale keeps
        # the labels while the variances stay above VARIANCE_FLOOR; at 1e-150
        # every variance is floored, so that fit is only held to the former EM's.
        rng = np.random.default_rng(56)
        centers = rng.normal(scale=3.0, size=(4, 3))
        x = np.concatenate([c + rng.normal(scale=0.8, size=(m, 3)) for c, m in zip(centers, (40, 55, 70, 85))])
        x = x[rng.permutation(len(x))]
        base = gmm_fit(x, 4, 0)
        labels = base.predict(x).tolist()
        assert sorted(np.bincount(labels).tolist()) == [40, 55, 70, 85]
        cases = [(x + shift, base.log_likelihood) for shift in (1e2, 1e4, 1e6, 1e8)]
        cases += [(x * scale, base.log_likelihood - x.size * math.log(scale)) for scale in (1e-150, 1e100)]
        for moved, log_likelihood in cases:
            got, want = gmm_fit(moved, 4, 0), gmm_fit_reference(moved, 4, 0)
            assert got.predict(moved).tolist() == gmm_predict_reference(want, moved).tolist()
            assert_gmm_close(got, want)
            if np.all(want.variances > VARIANCE_FLOOR):
                assert got.predict(moved).tolist() == labels
                assert _close(got.log_likelihood, log_likelihood)
        assert np.all(gmm_fit(x * 1e-150, 4, 0).variances == VARIANCE_FLOOR)

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


@pytest.mark.parametrize("method", ["ahc", "kmeans", "gmm"])
@pytest.mark.parametrize("fixed_k", [0, 3])
def test_zero_windows_give_k_zero(method, fixed_k):
    cfg = ClusteringConfig(method=method, fixed_k=fixed_k, pca_components=2)
    result = cluster_embeddings(np.empty((0, 4)), cfg, seed=0)
    assert result.k == 0
    assert result.labels.shape == (0,)
    assert result.centroids.shape == (0, 0)


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


def _same_floats(a, b) -> bool:
    """Bitwise equality of two float sequences or arrays (NaN matches NaN)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The GMM's E- and M-steps are matrix products, a reordering of the former
# per-component sums, so they are checked against `gmm_fit_reference` to this
# relative tolerance, not bit for bit. Over 19,000 seeded `_awkward_vectors`
# inputs (n < 40, D < 6) the largest relative differences seen were 1.3e-8 in
# weights, means and variances and 2.1e-7 in a log-likelihood trace, mid-run
# on an EM path near a saddle; no label and no iteration count differed.
GMM_RTOL = 1e-6


def _close(got, want, rtol: float = GMM_RTOL) -> bool:
    """Equal shapes, and every |got - want| within `rtol` of the largest |want|."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want).max(initial=0.0)))


def _first_stop_disagreement(got, want) -> int | None:
    """The first EM iteration at which the two fits' convergence tests
    (`ll_trace[i] - ll_trace[i - 1] < EM_TOL`) disagree, or None."""
    from speechpipe.clustering import EM_TOL

    steps = min(len(got.ll_trace), len(want.ll_trace))
    return next((i for i in range(1, steps)
                 if (got.ll_trace[i] - got.ll_trace[i - 1] < EM_TOL) != (want.ll_trace[i] - want.ll_trace[i - 1] < EM_TOL)),
                None)


def assert_gmm_close(got, want) -> None:
    """`got` is `want` up to GMM_RTOL: weights, means, variances and the
    log-likelihood trace within it, and the same (iterations, converged)
    unless the reference's gain where the stopping tests disagree is within
    the tolerance of EM_TOL (then the traces agree up to there)."""
    from speechpipe.clustering import EM_TOL

    assert got.param_count == want.param_count
    assert type(got.converged) is bool and type(got.log_likelihood) is float
    split = _first_stop_disagreement(got, want)
    if split is None:
        assert (got.converged, got.iterations) == (want.converged, want.iterations)
        for name in ("weights", "means", "variances", "ll_trace", "log_likelihood"):
            assert _close(getattr(got, name), getattr(want, name)), name
        return
    gain = want.ll_trace[split] - want.ll_trace[split - 1]
    assert abs(gain - EM_TOL) <= 2 * GMM_RTOL * np.abs(want.ll_trace[: split + 1]).max()
    assert _close(got.ll_trace[: split + 1], want.ll_trace[: split + 1])


class TestDiarizationStepsMatchReference:
    """k-means and smoothing: the single-pass loops reproduce the former ones
    bit for bit. EM, in matrix products: the same labels, the rest within GMM_RTOL."""

    @staticmethod
    def check_kmeans(x, k, seed) -> dict:
        got, want = kmeans(x, k, seed), kmeans_reference(x, k, seed)
        assert got.labels.dtype == want.labels.dtype and got.labels.tolist() == want.labels.tolist()
        assert got.k == want.k and _same_floats(got.centroids, want.centroids)
        assert _same_floats(got.diagnostics.pop("inertia_trace"), want.diagnostics.pop("inertia_trace"))
        assert _same_floats(got.diagnostics.pop("inertia"), want.diagnostics.pop("inertia"))
        assert got.diagnostics == want.diagnostics
        return got.diagnostics

    @staticmethod
    def check_gmm(x, k, seed):
        got, want = gmm_fit(x, k, seed), gmm_fit_reference(x, k, seed)
        assert got.predict(x).tolist() == gmm_predict_reference(want, x).tolist()
        assert_gmm_close(got, want)
        return got

    def test_kmeans_random_awkward_inputs(self):
        rng = np.random.default_rng(90)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 6)))
            self.check_kmeans(x, int(rng.integers(1, n + 1)), int(rng.integers(1000)))

    def test_gmm_random_awkward_inputs(self):
        rng = np.random.default_rng(91)
        outcomes = set()
        for _ in range(120):
            n = int(rng.integers(2, 30))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 4)))
            model = self.check_gmm(x, int(rng.integers(1, min(n, 6) + 1)), int(rng.integers(1000)))
            outcomes.add(model.converged)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_iteration_limits_reached(self, limit, monkeypatch):
        import speechpipe.clustering as clustering

        monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", limit)
        monkeypatch.setattr(clustering, "EM_MAX_ITER", limit)
        rng = np.random.default_rng(92 + limit)
        at_lloyd_limit = at_em_limit = 0
        for _ in range(60):
            n = int(rng.integers(4, 40))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 5)))
            k, seed = int(rng.integers(1, min(n, 6) + 1)), int(rng.integers(1000))
            at_lloyd_limit += self.check_kmeans(x, k, seed)["iterations"] == limit
            model = self.check_gmm(x, k, seed)
            at_em_limit += model.iterations == limit and not model.converged
        assert at_lloyd_limit > 0 and at_em_limit > 0

    def test_k_sweeps(self):
        # The sweeps call kmeans and gmm_fit; each kept result equals a direct
        # fit (for the GMM, the former EM's up to GMM_RTOL).
        rng = np.random.default_rng(93)
        for _ in range(20):
            n = int(rng.integers(8, 30))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 4)))
            k, got = estimate_k_silhouette(x, 2, min(5, n - 1), 0)
            assert got.labels.tolist() == kmeans_reference(x, k, 0).labels.tolist()
            k, model = select_k_gmm(x, (1, min(4, n)), "BIC", 0)
            assert k == select_k_gmm_reference(x, (1, min(4, n)), "BIC", 0)[0]
            want = gmm_fit_reference(x, k, 0)
            assert model.predict(x).tolist() == gmm_predict_reference(want, x).tolist()
            assert_gmm_close(model, want)

    def test_smoothing_random_sequences(self):
        rng = np.random.default_rng(94)
        for case in range(3000):
            n = int(rng.integers(0, 40))
            raw = rng.integers(0, int(rng.integers(1, 6)), size=n)
            labels = (raw.tolist(), list(raw), [f"S{v}" for v in raw])[case % 3]
            window = int(rng.choice([1, 3, 5, 7, 9]))
            got, want = smooth_labels_temporal(labels, window), smooth_labels_temporal_reference(labels, window)
            assert got == want
            assert all(a is b for a, b in zip(got, want))


class TestSweepsAndSignRuleMatchReference:
    """The k sweeps as one max/min, the fixed GMM k as a sweep of one, the
    bincount k-means update and the masked PCA sign rule reproduce the former
    loops bit for bit; the GMM sweep keeps the former k, its fit within GMM_RTOL."""

    @staticmethod
    def check_sweeps(x, k_min, k_max, seed):
        k, got = estimate_k_silhouette(x, k_min, k_max, seed)
        want_k, want = estimate_k_silhouette_reference(x, k_min, k_max, seed)
        assert k == want_k and got.labels.tolist() == want.labels.tolist()
        assert _same_floats(got.centroids, want.centroids) and got.diagnostics == want.diagnostics
        for criterion in ("AIC", "bic"):
            k, model = select_k_gmm(x, (k_min, k_max), criterion, seed)
            want_k, want = select_k_gmm_reference(x, (k_min, k_max), criterion, seed)
            assert k == want_k and model.predict(x).tolist() == gmm_predict_reference(want, x).tolist()
            assert_gmm_close(model, want)

    def test_sweeps_random_awkward_inputs(self):
        rng = np.random.default_rng(95)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 4)))
            k_min = int(rng.integers(2, 4))
            self.check_sweeps(x, k_min, int(rng.integers(k_min, min(6, n - 1) + 1)), int(rng.integers(1000)))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_ties_go_to_smaller_k(self, seed):
        # Two distinct points: k = 3 compacts to the k = 2 partition, so both
        # sweeps see equal scores and must keep k = 2.
        x = np.repeat([[1.0, 0.0], [0.0, 1.0]], [5, 7], axis=0)[np.random.default_rng(seed).permutation(12)]
        two, three = kmeans(x, 2, seed), kmeans(x, 3, seed)
        assert two.labels.tolist() == three.labels.tolist()
        assert silhouette_score(x, two.labels) == silhouette_score(x, three.labels)
        assert gmm_fit(x, 2, seed).aic() == gmm_fit(x, 3, seed).aic()
        assert estimate_k_silhouette(x, 2, 3, seed)[0] == 2
        assert select_k_gmm(x, (2, 3), "AIC", seed)[0] == 2
        self.check_sweeps(x, 2, 3, seed)

    def test_empty_clusters_reseated_in_index_order(self, monkeypatch):
        # Seed every cluster but the first far from the data: the first
        # assignment leaves them all empty, so the re-seat must run, and the
        # worst-fit point goes to the lowest empty index.
        import speechpipe.clustering as clustering

        rng = np.random.default_rng(96)
        for _ in range(20):
            n, d, k = int(rng.integers(6, 25)), int(rng.integers(1, 4)), int(rng.integers(3, 6))
            x = rng.normal(size=(n, d))
            init = np.vstack([x[:1], 1e3 + rng.normal(size=(k - 1, d))])
            monkeypatch.setattr(clustering, "_kmeans_pp_init", lambda x, k, rng, init=init: init.copy())
            first = np.argmin(((x[:, None, :] - init[None, :, :]) ** 2).sum(axis=2), axis=1)
            assert set(first.tolist()) == {0}
            TestDiarizationStepsMatchReference.check_kmeans(x, k, 0)

    def test_fixed_k_gmm_is_gmm_fit(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            n = int(rng.integers(3, 30))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 4)))
            fixed_k, seed = int(rng.integers(1, 8)), int(rng.integers(1000))
            got = cluster_embeddings(x, ClusteringConfig(method="gmm", fixed_k=fixed_k), seed)
            model = gmm_fit(x, min(fixed_k, n), seed)
            labels = _relabel_by_first_appearance(model.predict(x))
            assert got.labels.tolist() == labels.tolist()
            assert got.diagnostics["log_likelihood"] == model.log_likelihood
            assert got.diagnostics["fitted_k"] == model.k

    def test_pca_sign_rule_matches_former_loop(self):
        rng = np.random.default_rng(98)
        flipped = 0
        for _ in range(200):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 9))
            x = _awkward_vectors(rng, n, d)
            components = int(rng.integers(1, min(n, d) + 1))
            got, want = pca_fit(x, components), pca_fit_reference(x, components)
            for name in ("mean", "components", "eigenvalues"):
                assert _same_floats(getattr(got, name), getattr(want, name)), name
            centered = x - x.mean(axis=0)
            values, vectors = np.linalg.eigh(centered.T @ centered / (n - 1))
            raw = vectors[:, np.argsort(values)[::-1]].T[:components]
            flipped += int(np.sum(raw[np.arange(components), np.argmax(np.abs(raw), axis=1)] < 0))
        assert flipped > 0


class TestScreenedKmeans:
    """The BLAS screen only narrows each row to its candidate centers: inputs
    built to defeat it still give the former exact-sum k-means bit for bit."""

    @staticmethod
    def spy_candidates(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
        """(|x|^2, candidate mask) of every screen."""
        import speechpipe.clustering as clustering

        masks = []
        screen = clustering._candidate_centers

        def spy(x, x_norm2, centers):
            masks.append((x_norm2, screen(x, x_norm2, centers)))
            return masks[-1][1]

        monkeypatch.setattr(clustering, "_candidate_centers", spy)
        return masks

    @staticmethod
    def inputs(kind: str, rng) -> np.ndarray:
        n, d = int(rng.integers(8, 40)), int(rng.integers(1, 9))
        if kind == "midway":
            # Points in pairs and at their exact midpoints: ties by construction.
            ends = rng.integers(-4, 5, size=(3, 2, d)).astype(float) * 2
            halves = ends.mean(axis=1)
            x = np.vstack([ends.reshape(-1, d), halves])
            return x[rng.integers(len(x), size=n)]
        if kind == "ternary":
            return rng.integers(-1, 2, size=(n, d)).astype(float)
        if kind == "offset":
            # |x|^2 and 2 x.c agree to about 12 of their 16 digits.
            return 1e6 + rng.normal(size=(n, d))
        if kind == "tiny":
            # Squares and products fall among the subnormals, which round to
            # a fixed absolute step rather than a relative one.
            return rng.choice([1e-158, 1e-161, 1e-162]) * rng.integers(-3, 4, size=(n, d))
        if kind == "huge":
            # |x|^2 overflows: the screen is not finite and rows keep every
            # center. At 1e153 the exact sums stay finite, at 1e200 some do not.
            pool = rng.normal(size=(4, d)) * (1e153 if rng.random() < 0.5 else 1e200)
            return pool[rng.integers(4, size=n)]
        assert kind == "fortran"
        return np.asfortranarray(rng.normal(size=(n, 12)))

    @pytest.mark.parametrize("kind", ["midway", "ternary", "offset", "tiny", "huge", "fortran"])
    def test_matches_former_kmeans(self, kind, monkeypatch):
        import speechpipe.clustering as clustering

        masks = self.spy_candidates(monkeypatch)
        if kind == "huge":
            # k-means++ weights overflow at this scale; seed on distinct rows instead.
            monkeypatch.setattr(clustering, "_kmeans_pp_init",
                                lambda x, k, rng: np.unique(x, axis=0)[rng.permutation(k)])
        rng = np.random.default_rng(["midway", "ternary", "offset", "tiny", "huge", "fortran"].index(kind))
        with np.errstate(over="ignore", invalid="ignore"):  # the former sums overflow at 1e200
            for _ in range(40):
                x = self.inputs(kind, rng)
                k = int(rng.integers(2, min(len(np.unique(x, axis=0)), 6) + 1))
                TestDiarizationStepsMatchReference.check_kmeans(x, k, int(rng.integers(1000)))
        counts = np.concatenate([m.sum(axis=1) for _, m in masks])
        assert counts.min() >= 1
        # Ties and lost digits leave rows with several candidates to sum
        # exactly; on plain data the screen settles every row alone.
        assert (counts > 1).any() == (kind != "fortran")
        overflowed = np.concatenate([m[~np.isfinite(norm2)].all(axis=1) for norm2, m in masks])
        assert overflowed.all() and (len(overflowed) > 0) == (kind == "huge")

    def test_peak_memory_is_far_below_the_former_tensor(self):
        x = np.random.default_rng(99).normal(size=(2000, 192))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            kmeans(x, 25, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The former (n, k, D) float64 tensor alone was 2000 x 25 x 192 x 8 bytes (77 MB).
        assert peak < 16 * 2**20


class TestSilhouetteMatchesReference:
    """The blocked one-pass silhouette reproduces the former per-point loop bit for bit."""

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    def test_random_awkward_inputs(self, block, monkeypatch):
        import speechpipe.clustering as clustering

        if block is not None:
            monkeypatch.setattr(clustering, "_SILHOUETTE_BLOCK", block)
        rng = np.random.default_rng(100 + (block or 0))
        for case in range(150):
            n = int(rng.integers(2, 40))
            x = _awkward_vectors(rng, n, int(rng.integers(1, 6)))
            raw = rng.integers(0, int(rng.integers(2, min(n, 8) + 1)), size=n)
            if case % 4 == 0:
                raw[rng.integers(n)] = 99  # a singleton cluster
            if len(np.unique(raw)) < 2:
                raw[0] = raw[0] + 1
            labels = (raw, raw * 5 - 7, np.array([f"S{v}" for v in raw]), raw.astype(float))[case % 4]
            got, want = silhouette_score(x, labels), silhouette_score_reference(x, labels)
            assert _same_floats(got, want), (case, got, want)
            assert type(got) is float

    def test_zero_rows_and_duplicates(self):
        x = np.vstack([np.zeros((3, 4)), np.repeat(np.eye(4)[:2], 4, axis=0)])
        for labels in ([0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2], [0, 1, 2, 0, 0, 1, 1, 0, 2, 2, 1], list("abcabcabcab")):
            labels = np.array(labels)
            assert _same_floats(silhouette_score(x, labels), silhouette_score_reference(x, labels))

    def test_nearest_other_cluster_is_not_the_first(self):
        # Clusters at 180, 90 and 0 degrees: for the one at 0 the nearest other
        # is the one at 90, which no label order puts first when 180 precedes it.
        x = np.array([[-1.0, 0.0], [-1.0, 0.1], [0.0, 1.0], [0.1, 1.0], [1.0, 0.0], [1.0, 0.1]])
        dist = cosine_distance_matrix(x, x)
        assert (dist[4:, 2:4].mean(axis=1) < dist[4:, :2].mean(axis=1)).all()
        for names in itertools.permutations("abc"):
            labels = np.repeat(list(names), 2)
            assert _same_floats(silhouette_score(x, labels), silhouette_score_reference(x, labels)), names

    def test_tied_other_clusters(self):
        # Clusters mirrored about the x axis are exactly as far from the
        # cluster on it; the tie is at every place in label order.
        x = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 1.0], [2.0, 3.0], [1.0, -1.0], [2.0, -3.0],
                      [-1.0, 0.5], [-2.0, 0.25]])
        dist = cosine_distance_matrix(x, x)
        assert (dist[:2, 2:4] == dist[:2, 4:6]).all()
        for names in itertools.permutations("abcd"):
            labels = np.repeat(list(names), 2)
            assert _same_floats(silhouette_score(x, labels), silhouette_score_reference(x, labels)), names

    def test_sweep_builds_one_distance_matrix(self, monkeypatch):
        import speechpipe.clustering as clustering

        calls = []
        matrix = clustering.cosine_distance_matrix
        monkeypatch.setattr(clustering, "cosine_distance_matrix", lambda a, b: calls.append(1) or matrix(a, b))
        x = _awkward_vectors(np.random.default_rng(101), 30, 4)
        k, got = estimate_k_silhouette(x, 2, 6, 0)
        assert len(calls) == 1
        want_k, want = estimate_k_silhouette_reference(x, 2, 6, 0)
        assert k == want_k and got.labels.tolist() == want.labels.tolist()
