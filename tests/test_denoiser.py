import functools
import warnings

import numpy as np
import pytest

from mrgap import cli, gp
from mrgap.denoiser import DenoiseConfig, denoise, denoise_round
from mrgap.evaluation import grmse
from mrgap.interpolator import interpolate
from mrgap.local_geometry import InsufficientNeighborsError, build_charts
from mrgap.point_cloud import (NoiseSpec, PointCloud, add_gaussian_noise,
                               gen_cassini, save_csv)

from .oracles import circle, grmse_analytic, plane


def flat_plane_cloud(n=150, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-2, 2, size=(n, 2))
    return PointCloud(np.column_stack([xy, np.zeros(n)]))


CFG_PLANE = DenoiseConfig(epsilon=0.8, delta=1.2, intrinsic_dim=2,
                          max_iter=1, sigma_tol=0.0)


_SHIFT = np.array([1.0, -2.0, 0.5])


@functools.cache
def translation_run(seed, c):
    """Two denoising rounds of noisy Cassini translated by c * _SHIFT."""
    noisy = add_gaussian_noise(gen_cassini(102, seed=seed),
                               NoiseSpec(0.04, seed + 1))
    return denoise(PointCloud(noisy.points + c * _SHIFT),
                   DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                                 max_iter=2, sigma_tol=0.0))


@functools.cache
def padded_run(seed, k):
    """Two denoising rounds and K = 5 interpolation of noisy Cassini with k
    zero coordinates appended."""
    noisy = add_gaussian_noise(gen_cassini(102, seed=seed),
                               NoiseSpec(0.04, seed + 1))
    cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1, max_iter=2)
    trace = denoise(PointCloud(np.hstack([noisy.points, np.zeros((102, k))])),
                    cfg)
    return trace, interpolate(trace, cfg, K=5, seed=0)


@functools.cache
def cassini_run(c):
    """Two denoising rounds and K = 3 interpolation of noisy Cassini scaled
    by c, with epsilon and delta scaled alike."""
    noisy = add_gaussian_noise(gen_cassini(102, seed=0), NoiseSpec(0.04, 1))
    cfg = DenoiseConfig(epsilon=0.3 * c, delta=0.6 * c, intrinsic_dim=1,
                        max_iter=2)
    trace = denoise(PointCloud(c * noisy.points), cfg)
    return trace, interpolate(trace, cfg, K=3, seed=1)


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
        assert len(trace.hypers) == 1
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

    def test_relative_sigma_tol_stops_iteration(self):
        clean = gen_cassini(80, seed=1)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.04, 2))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=8, sigma_tol=None)
        trace = denoise(noisy, cfg)
        tol = 0.05 * trace.hypers[0].sigma
        stopped_early = trace.rounds < cfg.max_iter
        if stopped_early:
            assert abs(trace.hypers[-1].sigma - trace.hypers[-2].sigma) <= tol
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
        # leak into the results, on any seed.  Seed 11 has a point with
        # an empty epsilon-ball, in either order.
        perm = np.random.default_rng(3).permutation(102)
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=2, sigma_tol=0.0)
        for seed in range(24):
            noisy = add_gaussian_noise(gen_cassini(102, seed=seed),
                                       NoiseSpec(0.04, seed + 1))
            moved = PointCloud(noisy.points[perm])
            if seed == 11:
                for cloud in (noisy, moved):
                    with pytest.raises(InsufficientNeighborsError):
                        denoise(cloud, cfg)
                continue
            a = denoise(noisy, cfg)
            b = denoise(moved, cfg)
            assert a.rounds == b.rounds == 2
            np.testing.assert_allclose(b.clouds[-1].points,
                                       a.clouds[-1].points[perm], rtol=0,
                                       atol=1e-10, err_msg=f"seed {seed}")
            for ha, hb in zip(a.hypers, b.hypers):
                np.testing.assert_allclose([hb.A, hb.rho, hb.sigma],
                                           [ha.A, ha.rho, ha.sigma],
                                           rtol=1e-10, err_msg=f"seed {seed}")

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

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("c", [1e3, 1e6])
    def test_translation_equivariance(self, c, seed):
        # X + c v denoises to the outputs of X plus c v.  Translation
        # changes cdist at rounding level, and L-BFGS-B stops wherever its
        # tolerance is first met, which amplifies that change: the bounds
        # are the optimizer's stopping tolerance, not rounding error.
        # Seeds 1 and 3 are the worst of 0-5 (7.0e-9 on the points and
        # 2.2e-7 relative on A, rho and sigma).
        a = translation_run(seed, 0.0)
        b = translation_run(seed, c)
        assert a.rounds == b.rounds == 2
        np.testing.assert_allclose(b.clouds[-1].points - c * _SHIFT,
                                   a.clouds[-1].points, rtol=0, atol=1e-7)
        for ha, hb in zip(a.hypers, b.hypers):
            np.testing.assert_allclose([hb.A, hb.rho, hb.sigma],
                                       [ha.A, ha.rho, ha.sigma], rtol=5e-6)

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("k", [1, 20])
    def test_zero_padding(self, k, seed):
        # k constant coordinates add normal directions that no point moves
        # along: the padding stays exactly 0, and the first three
        # coordinates, rho and s = sigma^2 / A are those of the unpadded
        # run, within the bounds of test_translation_equivariance (seeds 0-3
        # reach 5.4e-10 denoised, 2.1e-8 interpolated and 7.8e-7 relative).
        # A* = T / (qN) spreads the same residual energy over q + k normal
        # directions, q = 2, so A, sigma^2 and every predictive variance
        # scale by q / (q + k): seeds 1 and 3 reach 2e-13, 1.5e-13 and
        # 6.3e-12 relative.
        (trace_a, dense_a), (trace_b, dense_b) = (padded_run(seed, 0),
                                                  padded_run(seed, k))
        assert trace_a.rounds == trace_b.rounds == 2
        for a, b in ((trace_a.clouds[-1], trace_b.clouds[-1]),
                     (dense_a, dense_b)):
            assert not np.any(b.points[:, 3:])
            np.testing.assert_allclose(b.points[:, :3], a.points, rtol=0,
                                       atol=1e-7)
        shrink = 2 / (2 + k)
        for ha, hb in zip(trace_a.hypers, trace_b.hypers):
            np.testing.assert_allclose([hb.rho, hb.sigma ** 2 / hb.A],
                                       [ha.rho, ha.sigma ** 2 / ha.A],
                                       rtol=5e-6)
            np.testing.assert_allclose([hb.A, hb.sigma ** 2],
                                       [shrink * ha.A, shrink * ha.sigma ** 2],
                                       rtol=1e-9)
        np.testing.assert_allclose(trace_b.predictive_variances,
                                   shrink * np.array(trace_a.predictive_variances),
                                   rtol=1e-9)

    # Just past the checked range the outputs go wrong with no warning or
    # error: at c = 2^504 the denoised cloud is ~3% of max |x| off.  Below
    # it, c = 2^-507 to 2^-509 put rho0 e^-40, the search box's lower rho
    # bound, under the smallest float: the box must not take its log.
    @pytest.mark.parametrize("c", [1e-150, 1e-12, 1e-9, 1e-6, 1e6, 1e9,
                                   1e12, 1e150, pytest.param(
                                       2.0 ** 504, id="2^504",
                                       marks=pytest.mark.xfail(
                                           strict=True, raises=AssertionError,
                                           reason="ROADMAP item 10"))]
                             + [pytest.param(2.0 ** -e, id=f"2^-{e}")
                                for e in (507, 508, 509)])
    def test_scale_equivariance_at_extreme_scales(self, c):
        # The fit's search box is relative to the data, so no bound binds
        # in one unit and not in another: c X denoises and interpolates to
        # c times the outputs at c = 1.
        (trace_a, dense_a), (trace_b, dense_b) = cassini_run(1.0), cassini_run(c)
        assert trace_a.rounds == trace_b.rounds == 2
        for a, b in ((trace_a.clouds[-1], trace_b.clouds[-1]),
                     (dense_a, dense_b)):
            np.testing.assert_allclose(b.points / c, a.points, rtol=0,
                                       atol=1e-6 * np.max(np.abs(a.points)))
        for ha, hb in zip(trace_a.hypers, trace_b.hypers):
            np.testing.assert_allclose(
                [hb.rho / c ** 2, hb.A / c ** 2, hb.sigma / c],
                [ha.rho, ha.A, ha.sigma], rtol=1e-6)

    # Beyond the checked range the first fit's start fails loudly: at
    # c = 2^510 sum |Z|^2 overflows, and at c = 2^-540 every squared
    # distance between a chart's predictors underflows to 0.
    OUT_OF_RANGE = [(2.0 ** 510, "overflow"), (2.0 ** -540, "underflow to 0")]

    @staticmethod
    def out_of_range_cloud(c):
        noisy = add_gaussian_noise(gen_cassini(102, seed=7), NoiseSpec(0.04, 8))
        return PointCloud(c * noisy.points)

    @pytest.mark.parametrize("c, word", OUT_OF_RANGE, ids=["2^510", "2^-540"])
    def test_scale_outside_checked_range_raises(self, c, word):
        cfg = DenoiseConfig(epsilon=0.3 * c, delta=0.6 * c, intrinsic_dim=1,
                            max_iter=2)
        with pytest.raises(ValueError, match=(
                f"^coordinate scale out of range: squared coordinates {word}; "
                "rescale the data into the checked range, 1e-150 to 1e150$")):
            denoise(self.out_of_range_cloud(c), cfg)

    @pytest.mark.parametrize("c, word", OUT_OF_RANGE, ids=["2^510", "2^-540"])
    def test_cli_scale_outside_checked_range_exits_2(self, tmp_path, capsys,
                                                     c, word):
        noisy, out = tmp_path / "noisy.csv", tmp_path / "den.csv"
        save_csv(self.out_of_range_cloud(c), noisy)
        assert cli.main(["denoise", "--in", str(noisy), "--epsilon",
                         repr(0.3 * c), "--delta", repr(0.6 * c), "--d", "1",
                         "--max-iter", "2", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("error: coordinate scale out of range")
        assert f"squared coordinates {word};" in err and "A " not in err
        assert not out.exists()

    # A flat cloud's responses are all 0, so its start has A = rho, and
    # within the checked range A0 e^-40 can underflow to 0: the profiled A*
    # must stay a positive float there.
    @staticmethod
    def flat_cloud(d, c):
        xy = np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, d))
        return PointCloud(c * np.column_stack([xy, np.zeros((200, 3 - d))]))

    @pytest.mark.parametrize("d, c", [(2, 2.0 ** -482), (2, 2.0 ** -512),
                                      (1, 2.0 ** -480)],
                             ids=["plane-2^-482", "plane-2^-512",
                                  "line-2^-480"])
    def test_flat_cloud_at_tiny_scale_denoises_to_itself(self, d, c):
        cloud = self.flat_cloud(d, c)
        trace = denoise(cloud, DenoiseConfig(epsilon=0.3 * c, delta=0.6 * c,
                                             intrinsic_dim=d, max_iter=2))
        assert trace.rounds == 2
        np.testing.assert_allclose(trace.clouds[-1].points / c,
                                   cloud.points / c, rtol=0, atol=1e-15)

    def test_cli_flat_cloud_at_tiny_scale_exits_0(self, tmp_path):
        c = 2.0 ** -482
        noisy, out = tmp_path / "flat.csv", tmp_path / "den.csv"
        save_csv(self.flat_cloud(2, c), noisy)
        assert cli.main(["denoise", "--in", str(noisy), "--epsilon",
                         repr(0.3 * c), "--delta", repr(0.6 * c), "--d", "2",
                         "--max-iter", "2", "--out", str(out)]) == 0
        np.testing.assert_allclose(np.loadtxt(out, delimiter=",") / c,
                                   np.loadtxt(noisy, delimiter=",") / c,
                                   rtol=0, atol=1e-15)

    # Below the checked range, but above where the start fails loudly, a
    # search point's rho = e^theta can underflow to 0.  That point is
    # infeasible like one that does not factor, with no RuntimeWarning.
    @pytest.mark.parametrize("c", [2.0 ** -534, 2.0 ** -537],
                             ids=["2^-534", "2^-537"])
    def test_rho_underflow_is_factorization_error(self, c):
        cfg = DenoiseConfig(epsilon=0.3 * c, delta=0.6 * c, intrinsic_dim=1,
                            max_iter=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gp.FactorizationError,
                               match="^no point the fit evaluated factored$"):
                denoise(self.out_of_range_cloud(c), cfg)

    def test_denoised_cloud_is_the_reconstruction_at_its_bases(self):
        # The README's chain.  The charts of clouds[-2] at hypers[-1] are
        # the fitted model: each evaluated at u = 0 with no extra rows gives
        # its denoised point and the variance the trace records there.
        trace, _ = cassini_run(1.0)
        evaluated = [gp.chart_points(chart, np.zeros((1, 1)), trace.hypers[-1],
                                     np.empty((0, 3)))
                     for chart in build_charts(trace.clouds[-2], 0.3, 0.6, 1)]
        points, variances = (np.concatenate(v) for v in zip(*evaluated))
        assert points.tobytes() == trace.clouds[-1].points.tobytes()
        assert variances.tobytes() == \
            np.array(trace.predictive_variances).tobytes()

    def test_flat_plane_interpolation_ready_trace(self):
        cloud = flat_plane_cloud()
        trace = denoise(cloud, CFG_PLANE)
        assert grmse_analytic(trace.clouds[-1], plane(2)).value <= 1e-6


class TestAwkwardInputs:
    def test_duplicates_denoise_like_their_originals(self):
        # A copy has the same balls as its original, so the same chart.
        noisy = add_gaussian_noise(gen_cassini(102, seed=0), NoiseSpec(0.04, 1))
        cloud = PointCloud(np.vstack([noisy.points, noisy.points[:10]]))
        trace = denoise(cloud, DenoiseConfig(epsilon=0.3, delta=0.6,
                                             intrinsic_dim=1, max_iter=2,
                                             sigma_tol=0.0))
        assert trace.rounds == 2
        out = trace.clouds[-1].points
        np.testing.assert_array_equal(out[102:], out[:10])

    def test_curve_of_codimension_one(self):
        # D = d + 1: a noisy unit circle in the plane.
        theta = np.random.default_rng(1).uniform(0, 2 * np.pi, 200)
        clean = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
        noisy = add_gaussian_noise(clean, NoiseSpec(0.05, 2))
        cfg = DenoiseConfig(epsilon=0.3, delta=0.5, intrinsic_dim=1,
                            max_iter=2)
        trace = denoise(noisy, cfg)
        dense = interpolate(trace, cfg, K=10)
        before = grmse_analytic(noisy, circle(1.0)).value
        assert grmse_analytic(trace.clouds[-1], circle(1.0)).value <= 0.5 * before
        assert grmse_analytic(dense, circle(1.0)).value < before

    def test_d_plus_one_points(self):
        # n = d + 1 points span their own plane: nothing to remove.
        cloud = PointCloud(np.random.default_rng(0).normal(size=(3, 3)))
        trace = denoise(cloud, DenoiseConfig(epsilon=10.0, delta=20.0,
                                             intrinsic_dim=2, max_iter=3))
        for c in trace.clouds:
            assert np.all(np.isfinite(c.points))
        for h in trace.hypers:
            assert np.all(np.isfinite([h.A, h.rho, h.sigma]))
        assert np.max(np.abs(trace.clouds[-1].points - cloud.points)) <= 1e-12

    def test_d_points_is_an_error(self):
        cloud = PointCloud(np.random.default_rng(0).normal(size=(2, 3)))
        with pytest.raises(InsufficientNeighborsError):
            denoise(cloud, DenoiseConfig(epsilon=10.0, delta=20.0,
                                         intrinsic_dim=2))
