import numpy as np
import pytest

from mrgap.local_geometry import InsufficientNeighborsError, build_charts
from mrgap.point_cloud import PointCloud, gen_cassini

from . import oracles


def random_cloud(n, D, seed):
    return PointCloud(np.random.default_rng(seed).normal(size=(n, D)))


def axis_cloud():
    """The origin and +-3 e1, +-2 e2, +-e3: the covariance of the ball of
    radius 4 at the origin is diagonal with distinct entries."""
    steps = np.diag([3.0, 2.0, 1.0])
    return PointCloud(np.vstack([np.zeros(3), steps, -steps]))


class TestLocalCovariance:
    def test_empty_ball_is_zero(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [10.0, 0.0]]))
        C = oracles.local_covariance(cloud, 0, 1.0)
        np.testing.assert_array_equal(C, np.zeros((2, 2)))

    def test_single_term(self):
        eps = 2.0
        cloud = PointCloud(np.array([[0.0, 0.0], [eps / 2, 0.0]]))
        C = oracles.local_covariance(cloud, 0, eps)
        expected = np.zeros((2, 2))
        expected[0, 0] = (eps / 2) ** 2 / 2  # divisor n = 2
        np.testing.assert_allclose(C, expected, atol=1e-15)

    def test_matches_direct_summation(self):
        cloud = random_cloud(30, 4, 0)
        k, eps = 7, 1.5
        C = oracles.local_covariance(cloud, k, eps)
        # independent re-summation
        acc = np.zeros((4, 4))
        for y in cloud.points:
            diff = y - cloud.points[k]
            if np.linalg.norm(diff) <= eps:
                acc += np.outer(diff, diff)
        np.testing.assert_allclose(C, acc / 30, atol=1e-12)

    def test_psd(self):
        for seed in range(10):
            cloud = random_cloud(25, 3, seed)
            C = oracles.local_covariance(cloud, seed % 25, 1.0)
            assert np.min(np.linalg.eigvalsh(C)) >= -1e-10

    def test_translation_invariance(self):
        cloud = random_cloud(30, 3, 1)
        shifted = PointCloud(cloud.points + np.array([5.0, -2.0, 7.0]))
        C1 = oracles.local_covariance(cloud, 3, 1.2)
        C2 = oracles.local_covariance(shifted, 3, 1.2)
        np.testing.assert_allclose(C1, C2, atol=1e-12)

    def test_rotation_equivariance(self):
        cloud = random_cloud(30, 3, 2)
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        rotated = PointCloud(cloud.points @ q.T)
        C1 = oracles.local_covariance(cloud, 3, 1.2)
        C2 = oracles.local_covariance(rotated, 3, 1.2)
        np.testing.assert_allclose(C2, q @ C1 @ q.T, atol=1e-10)

    def test_linear_subspace_rank(self):
        # clean samples in a 2-plane of R^4: exactly 2 nonzero eigenvalues
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        pts = rng.normal(size=(60, 2)) @ basis.T
        cloud = PointCloud(pts)
        C = oracles.local_covariance(cloud, 0, 10.0)
        ev = np.sort(np.linalg.eigvalsh(C))[::-1]
        assert ev[2] <= 1e-12 * ev[0] and ev[3] <= 1e-12 * ev[0]
        U = build_charts(cloud, 10.0, 11.0, 2)[0].U
        # top-2 eigenvectors span the plane: principal angles ~ 0
        overlap = np.linalg.svd(U.T @ basis, compute_uv=False)
        np.testing.assert_allclose(overlap, 1.0, atol=1e-8)


class TestEigenFrame:
    """The tangent basis U of build_charts: the top-d eigenvectors of the
    epsilon-ball covariance, from the SVD of the ball's displacements."""

    def test_diagonal_input(self):
        U = build_charts(axis_cloud(), 4.0, 5.0, 2)[0].U
        np.testing.assert_allclose(U, np.eye(3)[:, :2], atol=1e-12)

    def test_zero_matrix(self):
        chart = build_charts(PointCloud(np.ones((3, 3))), 1.0, 2.0, 2)[0]
        np.testing.assert_allclose(chart.U.T @ chart.U, np.eye(2), atol=1e-10)
        np.testing.assert_array_equal(chart.predictors, 0.0)
        np.testing.assert_array_equal(chart.responses, 0.0)

    def test_reconstruction(self):
        # U spans the top-d eigenspace of the brute-force covariance
        rng = np.random.default_rng(0)
        for _ in range(20):
            cloud = PointCloud(rng.normal(size=(30, 5)))
            k = int(rng.integers(30))
            chart = build_charts(cloud, 6.0, 7.0, 2)[k]
            C = oracles.local_covariance(cloud, k, 6.0)
            U = chart.U
            lam = np.diag(U.T @ C @ U)
            assert np.linalg.norm(C @ U - U * lam) <= 1e-8 * max(
                np.linalg.norm(C), 1)
            assert np.max(np.abs(U.T @ U - np.eye(2))) <= 1e-10
            assert np.all(np.diff(lam) <= 1e-12)
            evals, V = oracles.eigen_frame(C)
            np.testing.assert_allclose(lam, evals[:2], atol=1e-10)
            np.testing.assert_allclose(U @ U.T, V[:, :2] @ V[:, :2].T,
                                       atol=1e-8)

    def test_sign_convention_deterministic(self):
        cloud = random_cloud(30, 4, 1)
        c1 = build_charts(cloud, 5.0, 6.0, 2)
        c2 = build_charts(PointCloud(cloud.points.copy()), 5.0, 6.0, 2)
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a.U, b.U)
            peaks = a.U[np.argmax(np.abs(a.U), axis=0), np.arange(2)]
            assert np.all(peaks > 0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            build_charts(random_cloud(10, 3, 0), 0.0, 1.0, 1)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            build_charts(random_cloud(10, 3, 0), 5.0, 6.0, 3)


class TestProjections:
    """Predictors W = X U and residual responses X - W U^T."""

    def _chart(self, seed=0, D=3, d=2):
        cloud = random_cloud(25, D, seed)
        k = seed % 25
        return cloud, build_charts(cloud, 4.0, 5.0, d)[k], k

    def test_base_maps_to_zero(self):
        cloud, chart, k = self._chart()
        row = np.flatnonzero(chart.member_indices == k)[0]
        np.testing.assert_array_equal(chart.predictors[row], np.zeros(2))
        np.testing.assert_array_equal(chart.responses[row], np.zeros(3))

    def test_identity_frame(self):
        cloud = axis_cloud()
        chart = build_charts(cloud, 4.0, 5.0, 2)[0]
        y = cloud.points[chart.member_indices]
        np.testing.assert_allclose(chart.predictors, y[:, :2], atol=1e-12)
        np.testing.assert_allclose(chart.responses[:, :2], 0.0, atol=1e-12)
        np.testing.assert_allclose(chart.responses[:, 2], y[:, 2], atol=1e-12)

    def test_norm_preserved(self):
        # and both parts agree with the brute-force full eigen-frame
        cloud, chart, k = self._chart(seed=3)
        _, V = oracles.eigen_frame(oracles.local_covariance(cloud, k, 4.0))
        X = cloud.points[chart.member_indices] - chart.base
        for x, w, z in zip(X, chart.predictors, chart.responses):
            assert abs(
                np.hypot(np.linalg.norm(w), np.linalg.norm(z))
                - np.linalg.norm(x)
            ) < 1e-10
            np.testing.assert_allclose(
                w, oracles.project_tangent(V, 2, x), atol=1e-10)
            assert abs(np.linalg.norm(z) - np.linalg.norm(
                oracles.project_normal(V, 2, x))) < 1e-10

    def test_inversion(self):
        cloud, chart, _ = self._chart(seed=5)
        back = chart.base + chart.predictors @ chart.U.T + chart.responses
        np.testing.assert_allclose(
            back, cloud.points[chart.member_indices], atol=1e-10)

    def test_residuals_orthogonal_to_basis(self):
        for seed in range(5):
            _, chart, _ = self._chart(seed=seed, D=5, d=2)
            assert chart.codim == 3
            assert chart.responses.shape == (chart.predictors.shape[0], 5)
            np.testing.assert_allclose(chart.responses @ chart.U, 0.0,
                                       atol=1e-10)


class TestBuildChartData:
    """Charts as build_charts returns them."""

    def test_flat_plane_zero_responses(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), np.zeros(50)]
        )
        chart = build_charts(PointCloud(pts), 0.8, 1.2, 2)[0]
        np.testing.assert_allclose(chart.responses, 0.0, atol=1e-10)

    def test_isolated_point_errors(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        with pytest.raises(InsufficientNeighborsError, match="point 0"):
            build_charts(PointCloud(pts), 0.5, 1.0, 1)

    def test_delta_not_above_epsilon_warns(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(20, 2)))
        with pytest.warns(UserWarning):
            build_charts(cloud, 3.0, 2.0, 1)

    def test_cassini_charts_consistent(self):
        cloud = gen_cassini(102, seed=7)
        charts = build_charts(cloud, 0.3, 0.6, 1)
        for k in range(0, 102, 17):
            chart = charts[k]
            assert chart.predictors.shape[0] >= 2
            recon = chart.base + chart.predictors @ chart.U.T + chart.responses
            np.testing.assert_allclose(
                recon, cloud.points[chart.member_indices], atol=1e-10
            )

    def test_self_pair_is_zero(self):
        cloud = gen_cassini(102, seed=7)
        chart = build_charts(cloud, 0.3, 0.6, 1)[5]
        pos = np.where(chart.member_indices == 5)[0][0]
        np.testing.assert_allclose(chart.predictors[pos], 0.0, atol=1e-12)
        np.testing.assert_allclose(chart.responses[pos], 0.0, atol=1e-12)
