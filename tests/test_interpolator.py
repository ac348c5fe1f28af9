import numpy as np
import pytest

from mrgap.denoiser import DenoiseConfig, DenoiseTrace, denoise
from mrgap.gp import GpHyperParams
from mrgap.interpolator import (
    estimate_domain_ball,
    interpolate,
    sample_ball_uniform,
)
from mrgap.local_geometry import build_charts
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
        center, radius = estimate_domain_ball(np.array([[-1.0], [1.0]]))
        np.testing.assert_allclose(center, [0.0])
        # both distances equal 1: mean 1, stddev 0
        np.testing.assert_allclose(radius, 1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=(rng.integers(2, 15), 2))
            center, radius = estimate_domain_ball(w)
            c = w.mean(axis=0)
            d = np.linalg.norm(w - c, axis=1)
            np.testing.assert_allclose(center, c, atol=1e-12)
            np.testing.assert_allclose(radius, d.mean() - d.std(),
                                       atol=1e-12)

    def test_one_predictor_gives_radius_zero(self):
        # A lone predictor is its own center, and so are coincident ones.
        center, radius = estimate_domain_ball(np.array([[0.5, -1.0]]))
        np.testing.assert_array_equal(center, [0.5, -1.0])
        assert radius == 0.0
        assert estimate_domain_ball(np.zeros((3, 2)))[1] == 0.0

    def test_nonpositive_radius_falls_back_to_half_mean(self):
        # nine coincident predictors and one far one: distances 1 (x9) and
        # 9, mean 1.8 below the stddev 2.4
        w = np.vstack([np.zeros((9, 1)), [[10.0]]])
        center, radius = estimate_domain_ball(w)
        np.testing.assert_allclose(center, [1.0])
        np.testing.assert_allclose(radius, 0.9, rtol=1e-12)


class TestSampleBall:
    def test_inside_ball(self):
        center = np.array([1.0, -2.0])
        pts = sample_ball_uniform(center, 0.7, 500, seed=1)
        assert pts.shape == (500, 2)
        r = np.linalg.norm(pts - center, axis=1)
        assert np.max(r) <= 0.7 + 1e-12

    def test_seed_determinism(self):
        a = sample_ball_uniform(np.zeros(3), 1.0, 50, seed=9)
        b = sample_ball_uniform(np.zeros(3), 1.0, 50, seed=9)
        np.testing.assert_array_equal(a, b)
        c = sample_ball_uniform(np.zeros(3), 1.0, 50, seed=10)
        assert not np.array_equal(a, c)

    def test_radial_moment_1d(self):
        # uniform on [-R, R]: E|x - c| = R/2
        pts = sample_ball_uniform(np.array([0.0]), 2.0, 100_000, seed=2)
        mean_abs = np.mean(np.abs(pts))
        np.testing.assert_allclose(mean_abs, 1.0, rtol=0.02)

    def test_radial_moment_2d(self):
        # uniform on the disk of radius R: E r = 2R/3
        pts = sample_ball_uniform(np.zeros(2), 1.5, 100_000, seed=3)
        r = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(np.mean(r), 1.0, rtol=0.02)

    def test_radius_zero_gives_copies_of_center(self):
        center = np.array([1.5, -2.0, 0.25])
        pts = sample_ball_uniform(center, 0.0, 6, seed=4)
        np.testing.assert_array_equal(pts, np.tile(center, (6, 1)))

    def test_dimension_of_center(self):
        pts = sample_ball_uniform(np.array([3.0]), 0.5, 7, seed=0)
        assert pts.shape == (7, 1)
        assert np.max(np.abs(pts - 3.0)) <= 0.5


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

    def test_rows_grouped_by_chart(self):
        # Rows j K to (j + 1) K - 1 are chart j's: their tangent
        # coordinates about its base lie in its domain ball.
        trace, cfg = flat_plane_trace()
        K = 4
        out = interpolate(trace, cfg, K=K, seed=0).points.reshape(-1, K, 3)
        charts = build_charts(trace.clouds[-2], cfg.epsilon, cfg.delta,
                              cfg.intrinsic_dim)
        for rows, chart in zip(out, charts, strict=True):
            center, radius = estimate_domain_ball(chart.predictors)
            u = (rows - chart.base) @ chart.U
            assert np.all(np.linalg.norm(u - center, axis=1)
                          <= radius + 1e-9)

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
        # A trace of one cloud has no clouds[-2] to interpolate from, and
        # DenoiseTrace refuses to build it.
        trace, cfg = flat_plane_trace()
        with pytest.raises(ValueError, match="'clouds'"):
            DenoiseTrace(clouds=trace.clouds[:1], hypers=trace.hypers,
                         predictive_variances=trace.predictive_variances)

    def test_rejects_bad_k(self):
        trace, cfg = flat_plane_trace()
        with pytest.raises(ValueError):
            interpolate(trace, cfg, K=0)

    def test_every_chart_degenerate_repeats_the_cloud(self):
        # Isolated clusters of d + 1 copies of one point: every epsilon-ball
        # holds enough points, but every chart's predictors coincide, so
        # each chart yields K copies of its base.
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=1)
        cloud = PointCloud(np.repeat(np.eye(3) * 10.0, 2, axis=0))
        trace = DenoiseTrace(clouds=[cloud, cloud],
                             hypers=[GpHyperParams(A=1.0, rho=1.0, sigma=0.1)],
                             predictive_variances=[0.0] * cloud.n)
        out = interpolate(trace, cfg, K=3)
        np.testing.assert_array_equal(out.points,
                                      np.repeat(cloud.points, 3, axis=0))


def assert_matches_full_scan(trace, cfg, K, seed):
    out = interpolate(trace, cfg, K=K, seed=seed)
    np.testing.assert_array_equal(out.points,
                                  interpolate_full_scan(trace, cfg, K, seed))
    return out.points


class TestGlueLookup:
    """The glue rows found through each chart's reach are exactly those of
    a scan over every earlier point, so the outputs agree bitwise."""

    def test_cassini_two_rounds(self, cassini_trace):
        trace, cfg = cassini_trace
        assert len(trace.clouds) == 3
        assert_matches_full_scan(trace, cfg, K=20, seed=3)

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_degenerate_charts_yield_their_point(self, first):
        # Three copies of one far point, before or after the plane: their
        # charts' predictors coincide, each yields K copies of the point,
        # and only the copies' charts can glue to them.
        trace, cfg = flat_plane_trace()
        far = np.tile([10.0, 10.0, 0.0], (3, 1))
        parts = [far, trace.clouds[-2].points]
        cloud = PointCloud(np.vstack(parts if first else parts[::-1]))
        trace = DenoiseTrace(clouds=[cloud, cloud], hypers=trace.hypers,
                             predictive_variances=[0.0] * cloud.n)
        K = 3
        rows = assert_matches_full_scan(trace, cfg, K=K, seed=1)
        far_rows = rows[:3 * K] if first else rows[-3 * K:]
        np.testing.assert_array_equal(far_rows, np.tile(far[0], (3 * K, 1)))

    def test_every_earlier_point_glues(self, cassini_trace):
        trace, cfg = cassini_trace
        wide = DenoiseConfig(epsilon=cfg.epsilon, delta=100.0,
                             intrinsic_dim=1, max_iter=2, sigma_tol=0.0)
        assert_matches_full_scan(trace, wide, K=2, seed=0)
