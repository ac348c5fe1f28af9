import numpy as np
import pytest

from mrgap.denoiser import DenoiseConfig, denoise, denoise_round
from mrgap.evaluation import grmse, grmse_analytic, plane
from mrgap.local_geometry import InsufficientNeighborsError, build_charts
from mrgap.point_cloud import NoiseSpec, PointCloud, add_gaussian_noise, gen_cassini


def flat_plane_cloud(n=150, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-2, 2, size=(n, 2))
    return PointCloud(np.column_stack([xy, np.zeros(n)]))


CFG_PLANE = DenoiseConfig(epsilon=0.8, delta=1.2, intrinsic_dim=2,
                          max_iter=1, sigma_tol=0.0)


class TestConfig:
    def test_delta_must_exceed_epsilon(self):
        with pytest.raises(ValueError):
            DenoiseConfig(epsilon=1.0, delta=0.5, intrinsic_dim=1)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", np.nan), ("epsilon", np.inf), ("delta", np.nan),
        ("delta", np.inf), ("sigma_tol", np.nan), ("sigma_tol", np.inf),
        ("sigma_tol", -0.1)])
    def test_rejects_nonfinite_and_negative(self, field, value):
        kwargs = dict(epsilon=0.3, delta=0.6, intrinsic_dim=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            DenoiseConfig(**kwargs)

    def test_max_iter_positive(self):
        with pytest.raises(ValueError):
            DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1, max_iter=0)


class TestDenoiseRound:
    def test_flat_plane_fixed_point(self):
        cloud = flat_plane_cloud()
        out, hyper, _ = denoise_round(cloud, CFG_PLANE)
        assert np.max(np.abs(out.points - cloud.points)) <= 1e-6

    def test_single_point_errors(self):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(InsufficientNeighborsError):
            denoise_round(cloud, CFG_PLANE)

    def test_cassini_round_improves_grmse(self):
        clean = gen_cassini(102, seed=7)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 8))
        truth = gen_cassini(40_000, seed=99)
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=1, sigma_tol=0.0)
        out, _, _ = denoise_round(noisy, cfg)
        assert grmse(out, truth).value < grmse(noisy, truth).value

    def test_moves_only_in_normal_subspace(self):
        clean = gen_cassini(102, seed=7)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 8))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=1, sigma_tol=0.0)
        out, _, _ = denoise_round(noisy, cfg)
        charts = build_charts(noisy, 0.3, 0.6, 1)
        for k in range(0, 102, 11):
            w_new = (out.points[k] - noisy.points[k]) @ charts[k].U
            np.testing.assert_allclose(w_new, 0.0, atol=1e-10)

    def test_rigid_motion_equivariance(self):
        clean = gen_cassini(102, seed=3)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 4))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=1, sigma_tol=0.0)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        moved = PointCloud(noisy.points @ q.T + shift)
        out_a, _, _ = denoise_round(noisy, cfg)
        out_b, _, _ = denoise_round(moved, cfg)
        np.testing.assert_allclose(
            out_a.points @ q.T + shift, out_b.points, atol=1e-6
        )


class TestDenoise:
    def test_max_iter_one_trace_shape(self):
        cloud = flat_plane_cloud()
        trace = denoise(cloud, CFG_PLANE)
        assert len(trace.clouds) == 2
        assert trace.rounds == 1
        assert len(trace.sigma_history) == 1
        assert len(trace.predictive_variances) == cloud.n

    def test_trace_cloud_shapes_consistent(self):
        clean = gen_cassini(80, seed=1)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 2))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=2, sigma_tol=0.0)
        trace = denoise(noisy, cfg)
        assert len(trace.clouds) == trace.rounds + 1
        for c in trace.clouds:
            assert (c.n, c.ambient_dim) == (noisy.n, noisy.ambient_dim)
        assert trace.sigma_history == [h.sigma for h in trace.hypers]

    def test_relative_sigma_tol_stops_iteration(self):
        clean = gen_cassini(80, seed=1)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 2))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=8, sigma_tol=None)
        trace = denoise(noisy, cfg)
        tol = 0.05 * trace.sigma_history[0]
        stopped_early = trace.rounds < cfg.max_iter
        if stopped_early:
            assert abs(trace.sigma_history[-1] - trace.sigma_history[-2]) <= tol
        else:
            assert trace.rounds == cfg.max_iter

    def test_warm_start_used(self):
        # second round warm-starts from round-1 fit; the run is deterministic
        clean = gen_cassini(80, seed=1)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 2))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=2, sigma_tol=0.0)
        t1 = denoise(noisy, cfg)
        t2 = denoise(noisy, cfg)
        for a, b in zip(t1.clouds, t2.clouds):
            np.testing.assert_array_equal(a.points, b.points)
        assert t1.hypers == t2.hypers

    def test_permutation_invariance(self):
        # Neither the input order nor the k-d tree's candidate order may
        # leak into the results.
        clean = gen_cassini(102, seed=7)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 8))
        perm = np.random.default_rng(3).permutation(102)
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=2, sigma_tol=0.0)
        a = denoise(noisy, cfg)
        b = denoise(PointCloud(noisy.points[perm]), cfg)
        assert a.rounds == b.rounds == 2
        np.testing.assert_allclose(b.clouds[-1].points,
                                   a.clouds[-1].points[perm], rtol=0,
                                   atol=1e-10)
        for ha, hb in zip(a.hypers, b.hypers):
            np.testing.assert_allclose([hb.A, hb.rho, hb.sigma],
                                       [ha.A, ha.rho, ha.sigma], rtol=1e-10)

    @pytest.mark.parametrize("c", [1e-3, 3.0, 1e3])
    def test_scale_equivariance(self, c):
        # c X with c epsilon and c delta: the points scale by c, A and rho
        # by c^2 and sigma by c.
        clean = gen_cassini(102, seed=7)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 8))
        a = denoise(noisy, DenoiseConfig(epsilon=0.3, delta=0.6,
                                         intrinsic_dim=1, max_iter=2,
                                         sigma_tol=0.0))
        b = denoise(PointCloud(c * noisy.points),
                    DenoiseConfig(epsilon=0.3 * c, delta=0.6 * c,
                                  intrinsic_dim=1, max_iter=2, sigma_tol=0.0))
        assert a.rounds == b.rounds == 2
        want = a.clouds[-1].points
        np.testing.assert_allclose(b.clouds[-1].points / c, want, rtol=0,
                                   atol=1e-10 * np.max(np.abs(want)))
        for ha, hb in zip(a.hypers, b.hypers):
            np.testing.assert_allclose(
                [hb.A / c ** 2, hb.rho / c ** 2, hb.sigma / c],
                [ha.A, ha.rho, ha.sigma], rtol=1e-10)

    def test_flat_plane_interpolation_ready_trace(self):
        cloud = flat_plane_cloud()
        trace = denoise(cloud, CFG_PLANE)
        assert grmse_analytic(trace.clouds[-1], plane(2)).value <= 1e-6
