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
            diffusion_embedding(PointCloud(np.zeros((1, 2))), 1.0, 0)
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

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            diffusion_embedding(noisy_ring(20), 0.6, 20)

    @pytest.mark.parametrize("case", ["ring", "ellipsoid", "seven_points"])
    def test_matches_dense_oracle(self, case):
        # Lanczos pairs against the full eigendecomposition of the
        # detailed-balance symmetrization; seven points ask for all 7 pairs,
        # more than Lanczos iteration delivers
        if case == "ring":
            cloud, eps = noisy_ring(120, seed=2), 0.5
        elif case == "ellipsoid":
            clean = gen_ellipsoid_embedded(800, 30, 0)
            cloud, eps = add_gaussian_noise(clean, NoiseSpec(0.05, 100)), 2.0
        else:
            cloud = PointCloud(np.random.default_rng(0).normal(size=(7, 3)))
            eps = 1.0
        spec = diffusion_embedding(cloud, eps, 6)
        mu, V = oracles.diffusion_embedding(
            oracles.graph_laplacian(cloud, eps), 6)
        np.testing.assert_allclose(spec.eigenvalues, mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.eigenvectors, V, rtol=0, atol=1e-10)


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
        with pytest.raises(ValueError, match="finite and positive"):
            mean_local_eigenvalues(noisy_ring(20), eps)


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
        with pytest.raises(ValueError, match=">= 1"):
            estimate_dimension(noisy_ring(20), 0.5, embed_dims=dims)

    def test_no_vote_is_an_error(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(7, 3)))
        with pytest.raises(DimensionEstimateError):
            estimate_dimension(cloud, eps_dm=1.0, embed_dims=[5, 6])
