import numpy as np
import pytest

from mrgap.denoiser import DenoiseConfig, DenoiseTrace, denoise
from mrgap.interpolator import (
    DomainBall,
    estimate_domain_ball,
    interpolate,
    sample_ball_uniform,
)
from mrgap.point_cloud import NoiseSpec, PointCloud, add_gaussian_noise, gen_cassini

from .oracles import grmse_analytic, interpolate_full_scan, plane


def flat_plane_trace(n=150, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-2, 2, size=(n, 2))
    cloud = PointCloud(np.column_stack([xy, np.zeros(n)]))
    cfg = DenoiseConfig(epsilon=0.8, delta=1.2, intrinsic_dim=2,
                        max_iter=1, sigma_tol=0.0)
    return denoise(cloud, cfg), cfg


@pytest.fixture(scope="module")
def cassini_trace():
    clean = gen_cassini(102, seed=7)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 8))
    cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                        max_iter=2, sigma_tol=0.0)
    return denoise(noisy, cfg), cfg


class TestDomainBall:
    def test_symmetric_pair(self):
        ball = estimate_domain_ball(np.array([[-1.0], [1.0]]))
        np.testing.assert_allclose(ball.center, [0.0])
        # both distances equal 1: mean 1, stddev 0
        np.testing.assert_allclose(ball.radius, 1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=(rng.integers(2, 15), 2))
            ball = estimate_domain_ball(w)
            c = w.mean(axis=0)
            d = np.linalg.norm(w - c, axis=1)
            np.testing.assert_allclose(ball.center, c, atol=1e-12)
            np.testing.assert_allclose(ball.radius, d.mean() - d.std(),
                                       atol=1e-12)

    def test_needs_two_predictors(self):
        with pytest.raises(ValueError):
            estimate_domain_ball(np.zeros((1, 2)))

    def test_nonpositive_radius_falls_back_to_half_mean(self):
        # nine coincident predictors and one far one: distances 1 (x9) and
        # 9, mean 1.8 below the stddev 2.4
        w = np.vstack([np.zeros((9, 1)), [[10.0]]])
        ball = estimate_domain_ball(w)
        np.testing.assert_allclose(ball.center, [1.0])
        np.testing.assert_allclose(ball.radius, 0.9, rtol=1e-12)

    def test_coincident_predictors_chart_skipped(self):
        # Three copies of one point: their charts' predictors coincide, the
        # ball has radius 0, and interpolate skips those charts.
        np.testing.assert_array_equal(
            estimate_domain_ball(np.zeros((3, 2))).radius, 0.0)
        trace, cfg = flat_plane_trace()
        cloud = PointCloud(np.vstack([trace.clouds[-2].points,
                                      np.tile([10.0, 10.0, 0.0], (3, 1))]))
        trace = DenoiseTrace(clouds=[cloud, cloud], hypers=trace.hypers)
        with pytest.warns(UserWarning, match="degenerate domain"):
            out, idx = interpolate(trace, cfg, K=2, seed=0,
                                   return_chart_index=True)
        assert out.n == 2 * (cloud.n - 3)
        assert idx.max() == cloud.n - 4


class TestSampleBall:
    def test_inside_ball(self):
        ball = DomainBall(center=np.array([1.0, -2.0]), radius=0.7)
        pts = sample_ball_uniform(ball, 500, seed=1)
        assert pts.shape == (500, 2)
        r = np.linalg.norm(pts - ball.center, axis=1)
        assert np.max(r) <= ball.radius + 1e-12

    def test_seed_determinism(self):
        ball = DomainBall(center=np.zeros(3), radius=1.0)
        a = sample_ball_uniform(ball, 50, seed=9)
        b = sample_ball_uniform(ball, 50, seed=9)
        np.testing.assert_array_equal(a, b)
        c = sample_ball_uniform(ball, 50, seed=10)
        assert not np.array_equal(a, c)

    def test_radial_moment_1d(self):
        # uniform on [-R, R]: E|x - c| = R/2
        ball = DomainBall(center=np.array([0.0]), radius=2.0)
        pts = sample_ball_uniform(ball, 100_000, seed=2)
        mean_abs = np.mean(np.abs(pts))
        np.testing.assert_allclose(mean_abs, 1.0, rtol=0.02)

    def test_radial_moment_2d(self):
        # uniform on the disk of radius R: E r = 2R/3
        ball = DomainBall(center=np.zeros(2), radius=1.5)
        pts = sample_ball_uniform(ball, 100_000, seed=3)
        r = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(np.mean(r), 1.0, rtol=0.02)

    def test_dimension_of_center(self):
        ball = DomainBall(center=np.array([3.0]), radius=0.5)
        pts = sample_ball_uniform(ball, 7, seed=0)
        assert pts.shape == (7, 1)
        assert np.max(np.abs(pts - 3.0)) <= 0.5

    def test_rejects_bad_count(self):
        ball = DomainBall(center=np.zeros(2), radius=1.0)
        with pytest.raises(ValueError):
            sample_ball_uniform(ball, 0, seed=0)


class TestInterpolate:
    def test_point_count(self):
        trace, cfg = flat_plane_trace()
        out = interpolate(trace, cfg, K=5, seed=0)
        assert out.n == trace.clouds[-2].n * 5
        assert out.ambient_dim == 3

    def test_flat_plane_membership(self):
        trace, cfg = flat_plane_trace()
        out = interpolate(trace, cfg, K=10, seed=0)
        assert grmse_analytic(out, plane(2)).value <= 1e-6

    def test_chart_index_shape(self):
        trace, cfg = flat_plane_trace()
        out, idx = interpolate(trace, cfg, K=4, seed=0,
                               return_chart_index=True)
        assert idx.shape == (out.n,)
        counts = np.bincount(idx, minlength=150)
        assert np.all(counts == 4)

    def test_seed_determinism(self):
        trace, cfg = flat_plane_trace()
        a = interpolate(trace, cfg, K=3, seed=5)
        b = interpolate(trace, cfg, K=3, seed=5)
        np.testing.assert_array_equal(a.points, b.points)
        c = interpolate(trace, cfg, K=3, seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_cassini_interpolants_near_curve(self, cassini_trace):
        trace, cfg = cassini_trace
        out = interpolate(trace, cfg, K=20, seed=0)
        assert out.n == 102 * 20
        from mrgap.evaluation import grmse
        truth = gen_cassini(100_000, seed=99)
        assert grmse(out, truth).value <= 0.035

    def test_rejects_short_trace(self):
        trace, cfg = flat_plane_trace()
        short = DenoiseTrace(clouds=trace.clouds[:1], hypers=trace.hypers,
                             predictive_variances=trace.predictive_variances)
        with pytest.raises(ValueError):
            interpolate(short, cfg, K=2)

    def test_rejects_bad_k(self):
        trace, cfg = flat_plane_trace()
        with pytest.raises(ValueError):
            interpolate(trace, cfg, K=0)


def assert_matches_full_scan(trace, cfg, K, seed):
    out, idx = interpolate(trace, cfg, K=K, seed=seed,
                           return_chart_index=True)
    points, chart_of = interpolate_full_scan(trace, cfg, K, seed)
    np.testing.assert_array_equal(out.points, points)
    np.testing.assert_array_equal(idx, chart_of)
    return idx


class TestGlueLookup:
    """The glue rows found through each chart's reach are exactly those of
    a scan over every earlier point, so the outputs agree bitwise."""

    def test_cassini_two_rounds(self, cassini_trace):
        trace, cfg = cassini_trace
        assert len(trace.clouds) == 3
        assert_matches_full_scan(trace, cfg, K=20, seed=3)

    def test_skipped_charts_contribute_nothing(self):
        # Three copies of one far point come first: their charts are skipped
        # before any chart has produced a point.
        trace, cfg = flat_plane_trace()
        cloud = PointCloud(np.vstack([np.tile([10.0, 10.0, 0.0], (3, 1)),
                                      trace.clouds[-2].points]))
        trace = DenoiseTrace(clouds=[cloud, cloud], hypers=trace.hypers)
        with pytest.warns(UserWarning, match="degenerate domain"):
            idx = assert_matches_full_scan(trace, cfg, K=3, seed=1)
        assert idx.min() == 3

    def test_every_earlier_point_glues(self, cassini_trace):
        trace, cfg = cassini_trace
        wide = DenoiseConfig(epsilon=cfg.epsilon, delta=100.0,
                             intrinsic_dim=1, max_iter=2, sigma_tol=0.0)
        assert_matches_full_scan(trace, wide, K=2, seed=0)
