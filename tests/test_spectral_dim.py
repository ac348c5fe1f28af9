import tracemalloc

import numpy as np
import pytest

from mrgap import spectral_dim
from mrgap.point_cloud import (
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    gen_cassini,
    gen_ellipsoid_embedded,
)
from mrgap.spectral_dim import (
    DimensionEstimateError,
    diffusion_embedding,
    estimate_dimension,
    mean_local_eigenvalues,
)

from . import oracles


def noisy_ring(n=300, sigma=0.02, seed=0):
    theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    clean = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
    return add_gaussian_noise(clean, NoiseSpec(sigma, seed + 1))


class TestGraphLaplacian:
    def test_rows_sum_to_zero(self):
        cloud = noisy_ring(100)
        L = oracles.graph_laplacian(cloud, 0.5)
        np.testing.assert_allclose(L @ np.ones(100), 0.0, atol=1e-12)

    def test_two_point_oracle(self):
        # hand computation for two points at distance t
        t, eps = 0.7, 0.9
        cloud = PointCloud(np.array([[0.0], [t]]))
        a = np.exp(-(t / eps) ** 2)
        k = np.array([[1.0, a], [a, 1.0]])
        q = k.sum(axis=1)
        W = k / np.outer(q, q)
        deg = W.sum(axis=1)
        expected = (W / deg[:, None] - np.eye(2)) / eps ** 2
        np.testing.assert_allclose(oracles.graph_laplacian(cloud, eps),
                                   expected, atol=1e-14)
        spec = diffusion_embedding(cloud, eps, 1)
        np.testing.assert_allclose(spec.eigenvalues,
                                   np.linalg.eigvalsh(-expected), atol=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            diffusion_embedding(PointCloud(np.zeros((3, 2))), 0.0, 1)
        for eps in (-1.0, np.nan, np.inf, 1e-200, 1e200):
            with pytest.raises(ValueError, match="finite and positive"):
                diffusion_embedding(PointCloud(np.zeros((3, 2))), eps, 1)


class TestDiffusionEmbedding:
    def test_first_pair_is_constant_zero(self):
        cloud = noisy_ring(120, seed=2)
        spec = diffusion_embedding(cloud, 0.5, 4)
        assert abs(spec.eigenvalues[0]) <= 1e-8
        v0 = spec.eigenvectors[:, 0]
        np.testing.assert_allclose(v0, v0[0], atol=1e-8)

    def test_eigenvalues_ascending_nonnegative(self):
        cloud = noisy_ring(120, seed=3)
        spec = diffusion_embedding(cloud, 0.5, 6)
        mu = spec.eigenvalues
        assert np.all(np.diff(mu) >= -1e-10)
        assert np.all(mu >= -1e-8)

    def test_eigenpairs_satisfy_definition(self):
        cloud = noisy_ring(80, seed=4)
        L = oracles.graph_laplacian(cloud, 0.6)
        spec = diffusion_embedding(cloud, 0.6, 5)
        for mu, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            np.testing.assert_allclose(-L @ v, mu * v, atol=1e-8)
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)

    def test_deterministic_signs(self):
        cloud = noisy_ring(80, seed=5)
        a = diffusion_embedding(cloud, 0.6, 3)
        b = diffusion_embedding(PointCloud(cloud.points.copy()), 0.6, 3)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    SMALL = {"seven_points": 7, "eight_points": 8, "nine_points": 9,
             "ten_points": 10, "eleven_points": 11, "twelve_points": 12}

    @pytest.mark.parametrize("case", ["ring", "ellipsoid", *SMALL])
    def test_matches_dense_oracle(self, case):
        # Lanczos pairs against the full eigendecomposition of the
        # detailed-balance symmetrization.  Eight points are the fewest
        # Lanczos iteration takes for 7 pairs; seven points ask for all 7
        # pairs, more than Lanczos iteration delivers.  In clouds of 7 to 12
        # points every packed kernel row is moved into place from the
        # pairwise distances, so a row moved one entry short or to the
        # wrong place shifts a kernel entry that every pair depends on.
        if case == "ring":
            cloud, eps = noisy_ring(120, seed=2), 0.5
        elif case == "ellipsoid":
            clean = gen_ellipsoid_embedded(800, 30, 0)
            cloud, eps = add_gaussian_noise(clean, NoiseSpec(0.05, 100)), 2.0
        else:
            n = self.SMALL[case]
            cloud = PointCloud(np.random.default_rng(0).normal(size=(n, 3)))
            eps = 1.0
        spec = diffusion_embedding(cloud, eps, 6)
        mu, V = oracles.diffusion_embedding(
            oracles.graph_laplacian(cloud, eps), 6)
        np.testing.assert_allclose(spec.eigenvalues, mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.eigenvectors, V, rtol=0, atol=1e-10)

    @staticmethod
    def copies(m):
        # 10 copies of each of m random points
        pts = np.random.default_rng(m).normal(size=(m, 3))
        return PointCloud(np.repeat(pts, 10, axis=0))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_too_few_distinct_points(self, m):
        # 7 pairs of an operator of rank m < 7: the pairs beyond the m-th
        # would be an arbitrary, run-dependent basis of its null space
        with pytest.raises(DimensionEstimateError,
                           match=f"{m} distinct points, fewer than the 7"):
            diffusion_embedding(self.copies(m), 1.0, 6)

    def test_as_many_distinct_points_as_pairs(self):
        cloud = self.copies(7)
        a = diffusion_embedding(cloud, 1.0, 6)
        b = diffusion_embedding(cloud, 1.0, 6)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        mu, V = oracles.diffusion_embedding(
            oracles.graph_laplacian(cloud, 1.0), 6)
        np.testing.assert_allclose(a.eigenvalues, mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.eigenvectors, V, rtol=0, atol=1e-10)

    def test_rejects_more_points_than_32_bit_blas_indexes(self,
                                                          monkeypatch):
        # 65536 points have 2^31 + 2^15 packed kernel entries; the check
        # comes before any of them is computed
        def pdist(*args, **kwargs):
            raise AssertionError("the kernel build started")

        monkeypatch.setattr(spectral_dim, "pdist", pdist)
        cloud = PointCloud(np.arange(65536.0)[:, None])
        with pytest.raises(ValueError, match="2\\^31"):
            diffusion_embedding(cloud, 1.0, 6)

    def test_peak_memory_is_about_half_a_dense_kernel(self):
        # the packed upper triangle is 0.5 x 8 n^2 bytes; a dense n x n
        # kernel alone would be 1.0 x
        n = 2000
        cloud = PointCloud(np.random.default_rng(0).normal(size=(n, 3)))
        tracemalloc.start()
        try:
            diffusion_embedding(cloud, 1.0, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.65 * 8 * n * n


class TestMeanLocalEigenvalues:
    def test_recomputation_oracle(self):
        cloud = noisy_ring(60, seed=6)
        np.testing.assert_allclose(mean_local_eigenvalues(cloud, 0.4),
                                   oracles.mean_local_eigenvalues(cloud, 0.4),
                                   atol=1e-12)

    def test_balls_covering_most_of_the_cloud(self):
        # the raw ellipsoid in R^30: at epsilon 2 most balls hold most of
        # the 800 points, and the points are gathered in several blocks
        clean = gen_ellipsoid_embedded(800, 30, 0)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.05, 100))
        lam = mean_local_eigenvalues(noisy, 2.0)
        np.testing.assert_allclose(
            lam, oracles.mean_local_eigenvalues(noisy, 2.0), atol=1e-12)

    @pytest.mark.parametrize("case", ["triplicates", "far_point",
                                      "one_point_blocks"])
    def test_pair_edge_cases(self, case, monkeypatch):
        # Pairs at distance 0, a ball of one point, and one-point blocks
        # whose every edge is a cut in the sorted pair keys; at epsilon 100
        # every ball holds the whole cloud.
        cloud = noisy_ring(40, seed=9)
        if case == "triplicates":
            cloud = PointCloud(np.repeat(cloud.points, 3, axis=0))
        elif case == "far_point":
            cloud = PointCloud(np.vstack([cloud.points, [[30.0, 40.0]]]))
        else:
            monkeypatch.setattr(spectral_dim, "_BLOCK_ENTRIES", 8)
        for eps in (0.3, 1.0, 100.0):
            np.testing.assert_allclose(
                mean_local_eigenvalues(cloud, eps),
                oracles.mean_local_eigenvalues(cloud, eps), atol=1e-12)

    def test_peak_memory_is_the_pair_keys_and_a_few_blocks(self, monkeypatch):
        # Every pair is in a ball: the sorted keys take 8 (n + 2 pairs)
        # bytes, and the arrays of one block of points a few times
        # _BLOCK_ENTRIES float64.  The tree's own list of pairs is not
        # allocated through Python, so tracemalloc does not count it.
        monkeypatch.setattr(spectral_dim, "_BLOCK_ENTRIES", 2 ** 16)
        n = 2000
        cloud = PointCloud(np.random.default_rng(0).normal(size=(n, 3)))
        tracemalloc.start()
        try:
            mean_local_eigenvalues(cloud, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n + n * (n - 1)) + 6 * 8 * 2 ** 16

    def test_flat_plane_trailing_eigenvalue_vanishes(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(-1, 1, size=(200, 2)),
                               np.zeros(200)])
        lam = mean_local_eigenvalues(PointCloud(pts), 0.5)
        assert lam[2] <= 1e-10 * lam[0]

    def test_descending(self):
        lam = mean_local_eigenvalues(noisy_ring(60, seed=8), 0.4)
        assert np.all(np.diff(lam) <= 1e-15)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, 1e-200, 1e200])
    def test_rejects_bad_epsilon(self, eps):
        # estimate_dimension, the one caller, checks each bandwidth.
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_dimension(noisy_ring(20), 2.0, eps_grid=[eps])


class TestEstimateDimension:
    def test_clean_circle_is_one(self):
        theta = np.random.default_rng(0).uniform(0, 2 * np.pi, 400)
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
        profile = estimate_dimension(cloud, eps_dm=0.5)
        assert profile.estimated_dim == 1

    def test_noisy_ellipsoid_is_two(self):
        hits = 0
        for seed in range(3):
            clean = gen_ellipsoid_embedded(800, 30, seed)
            noisy = add_gaussian_noise(clean, NoiseSpec(0.05, seed + 100))
            profile = estimate_dimension(noisy, eps_dm=2.0)
            hits += profile.estimated_dim == 2
        assert hits >= 2

    def test_noisy_cassini_is_one(self):
        clean = gen_cassini(300, seed=1)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 2))
        profile = estimate_dimension(noisy, eps_dm=0.5)
        assert profile.estimated_dim == 1

    def test_permutation_invariance(self):
        cloud = noisy_ring(150, seed=9)
        rng = np.random.default_rng(10)
        perm = rng.permutation(150)
        a = estimate_dimension(cloud, 0.5)
        b = estimate_dimension(PointCloud(cloud.points[perm]), 0.5)
        assert a.estimated_dim == b.estimated_dim
        for la, lb in zip(a.lambda_bars, b.lambda_bars):
            np.testing.assert_allclose(la, lb, atol=1e-8)

    def test_profile_shapes(self):
        cloud = noisy_ring(100, seed=11)
        profile = estimate_dimension(cloud, 0.5, embed_dims=[3, 4])
        assert len(profile.epsilons) == 2
        assert [len(l) for l in profile.lambda_bars] == [3, 4]

    def test_eps_grid_override(self):
        cloud = noisy_ring(100, seed=12)
        profile = estimate_dimension(cloud, 0.5, embed_dims=[3],
                                     eps_grid=[0.3, 0.4, 0.5])
        assert profile.epsilons == [0.3, 0.4, 0.5]

    def test_array_inputs_match_lists(self):
        cloud = noisy_ring(100, seed=12)
        lists = estimate_dimension(cloud, 0.5, embed_dims=[3, 4],
                                   eps_grid=[0.3, 0.4])
        arrays = estimate_dimension(cloud, 0.5, embed_dims=np.array([3, 4]),
                                    eps_grid=np.array([0.3, 0.4]))
        assert arrays.epsilons == lists.epsilons
        assert arrays.estimated_dim == lists.estimated_dim
        for a, b in zip(arrays.lambda_bars, lists.lambda_bars, strict=True):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError, match="^epsilon must be finite"):
            estimate_dimension(cloud, 0.5, eps_grid=np.array([0.0]))

    def test_embedding_suppresses_noise_floor(self):
        # the smallest averaged eigenvalue relative to the largest is
        # smaller after re-embedding than on the raw noisy cloud
        clean = gen_ellipsoid_embedded(800, 30, 0)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.05, 100))
        raw = mean_local_eigenvalues(noisy, 2.0)
        profile = estimate_dimension(noisy, eps_dm=2.0, embed_dims=[4])
        emb = profile.lambda_bars[0]
        assert emb[2] / emb[0] < raw[2] / raw[0]

    def test_two_separated_rings_are_one(self):
        # unit rings 10 apart at their nearest points: kernel entries
        # between the farthest points underflow to 0, where recovering the
        # degrees from ratios of kernel entries failed
        theta = np.random.default_rng(13).uniform(0, 2 * np.pi, 200)
        ring = np.column_stack([np.cos(theta), np.sin(theta)])
        cloud = PointCloud(np.vstack([ring, ring + [12.0, 0.0]]))
        assert estimate_dimension(cloud, eps_dm=0.5).estimated_dim == 1

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_scale_equivariance(self, c):
        cloud = noisy_ring(150, seed=14)
        a = estimate_dimension(cloud, 0.5)
        b = estimate_dimension(PointCloud(c * cloud.points), c * 0.5)
        assert a.estimated_dim == b.estimated_dim
        # relative to the whole spectrum: trailing eigenvalues are rounding
        # noise of the leading one
        for la, lb in zip(a.lambda_bars, b.lambda_bars):
            assert np.linalg.norm(lb - la) <= 1e-10 * np.linalg.norm(la)

    def test_zero_spectrum_casts_no_vote(self):
        # 7 points: no epsilon-ball of the 5- and 6-dimensional embeddings
        # holds a second point, and their all-zero spectra have no gap
        cloud = PointCloud(np.random.default_rng(0).normal(size=(7, 3)))
        profile = estimate_dimension(cloud, eps_dm=1.0)
        assert not np.any(profile.lambda_bars[2])
        assert not np.any(profile.lambda_bars[3])
        alone = estimate_dimension(cloud, eps_dm=1.0, embed_dims=[3, 4])
        assert profile.estimated_dim == alone.estimated_dim

    def test_bad_eps_grid_fails_before_the_embedding(self, monkeypatch):
        def embedding(*args):
            raise AssertionError("the embedding ran")

        monkeypatch.setattr(spectral_dim, "diffusion_embedding", embedding)
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_dimension(noisy_ring(20), 2.0, eps_grid=[np.nan])

    @pytest.mark.parametrize("dims", [[0], [3, 0], [-1, 4]])
    def test_rejects_embedding_dimension_below_one(self, dims):
        with pytest.raises(ValueError, match="embed_dims entry must be >= 2"):
            estimate_dimension(noisy_ring(20), 0.5, embed_dims=dims)

    @pytest.mark.parametrize("dims", [[1], [1, 3]])
    def test_rejects_embedding_dimension_one(self, dims):
        # a one-dimensional embedding's spectrum has no gap to vote for
        with pytest.raises(ValueError, match="embed_dims entry must be >= 2"):
            estimate_dimension(noisy_ring(20), 0.5, embed_dims=dims)

    @pytest.mark.parametrize("n, dims, bad", [(5, None, 5), (6, None, 6),
                                              (9, [3, 12, 4], 12)])
    def test_rejects_embedding_dimension_not_below_n(self, monkeypatch, n,
                                                     dims, bad):
        def embedding(*args):
            raise AssertionError("the embedding ran")

        monkeypatch.setattr(spectral_dim, "diffusion_embedding", embedding)
        cloud = PointCloud(np.random.default_rng(0).normal(size=(n, 3)))
        with pytest.raises(ValueError, match=f"embed_dims entry must be < "
                                             f"n = {n} points, got {bad}"):
            estimate_dimension(cloud, 2.0, embed_dims=dims)

    def test_no_vote_is_an_error(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(7, 3)))
        with pytest.raises(DimensionEstimateError):
            estimate_dimension(cloud, eps_dm=1.0, embed_dims=[5, 6])
