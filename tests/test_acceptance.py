"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line so the suite output doubles as a report.
"""

import time

import numpy as np

from mrgap.denoiser import DenoiseConfig, denoise
from mrgap.evaluation import grmse
from mrgap.gp import GpHyperParams, predictive
from mrgap.interpolator import interpolate
from mrgap.local_geometry import InsufficientNeighborsError, build_charts
from mrgap.point_cloud import (
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    gen_cassini,
    gen_ellipsoid_embedded,
    gen_torus,
)
from mrgap.spectral_dim import diffusion_embedding, estimate_dimension

from .oracles import (
    circle,
    dense_log_marginal,
    local_covariance,
    log_marginal,
    log_marginal_gradient,
    sandwich_gap_check,
)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def run_pipeline(gen, n, sigma, cfg, K, seed, truth):
    clean = gen(n, seed=seed)
    noisy = add_gaussian_noise(clean, NoiseSpec(sigma, seed + 100))
    trace = denoise(noisy, cfg)
    interp = interpolate(trace, cfg, K=K, seed=seed)
    return (
        grmse(noisy, truth).value,
        grmse(trace.clouds[-1], truth).value,
        grmse(interp, truth).value,
    )


class TestPipelines:
    def test_cassini_pipeline(self):
        t0 = time.perf_counter()
        cfg = DenoiseConfig(epsilon=0.3, delta=0.6, intrinsic_dim=1,
                            max_iter=2, sigma_tol=0.0)
        truth = gen_cassini(100_000, seed=999)
        rows = [run_pipeline(gen_cassini, 102, 0.04, cfg, 20, s, truth)
                for s in range(5)]
        noisy, den, interp = np.median(np.asarray(rows), axis=0)
        elapsed = time.perf_counter() - t0
        ok = (
            0.045 <= noisy <= 0.075
            and den <= 0.035
            and interp <= 0.035
            and noisy / den >= 1.7
            and elapsed <= 60.0
        )
        report(
            f"cassini pipeline: noisy {noisy:.4f}, denoised {den:.4f}, "
            f"interpolated {interp:.4f}, ratio {noisy / den:.2f}, "
            f"{elapsed:.1f}s",
            ok,
        )

    def test_torus_pipeline(self):
        t0 = time.perf_counter()
        cfg = DenoiseConfig(epsilon=0.8, delta=1.0, intrinsic_dim=2,
                            max_iter=2, sigma_tol=0.0)
        truth = gen_torus(100_000, seed=999)
        rows = [run_pipeline(gen_torus, 558, 0.12, cfg, 20, s, truth)
                for s in range(3)]
        noisy, den, interp = np.median(np.asarray(rows), axis=0)
        elapsed = time.perf_counter() - t0
        ok = (
            den <= 0.085
            and interp <= 0.095
            and noisy / den >= 1.5
            and elapsed <= 600.0
        )
        report(
            f"torus pipeline: noisy {noisy:.4f}, denoised {den:.4f}, "
            f"interpolated {interp:.4f}, ratio {noisy / den:.2f}, "
            f"{elapsed:.1f}s",
            ok,
        )


class TestGpGuarantees:
    def test_predictive_matches_dense_conditioning(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            N = int(rng.integers(1, 10))
            m = int(rng.integers(1, 13 - N))
            d, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            hyper = GpHyperParams(
                A=float(np.exp(rng.uniform(-1, 1))),
                rho=float(np.exp(rng.uniform(-1, 1))),
                sigma=float(np.exp(rng.uniform(-2, 0))),
            )
            w = rng.normal(size=(N, d))
            z = rng.normal(size=(N, q))
            u = rng.normal(size=(m, d))
            allp = np.vstack([w, u])
            sq = np.sum((allp[:, None] - allp[None, :]) ** 2, axis=2)
            full = hyper.A * np.exp(-sq / hyper.rho)
            inv = np.linalg.inv(full[:N, :N] + hyper.sigma ** 2 * np.eye(N))
            mean = full[N:, :N] @ inv @ z
            cov = full[N:, N:] - full[N:, :N] @ inv @ full[:N, N:]
            post = predictive(w, z, u, hyper)
            worst = max(worst, float(np.max(np.abs(post.mean - mean))),
                        float(np.max(np.abs(post.covariance - cov))))
        report(f"gp predictive vs dense conditioning: max err {worst:.2e}",
               worst <= 1e-8)

    def test_log_marginal_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            N = int(rng.integers(1, 12))
            q = int(rng.integers(1, 4))
            hyper = GpHyperParams(
                A=float(np.exp(rng.uniform(-1, 1))),
                rho=float(np.exp(rng.uniform(-1, 1))),
                sigma=float(np.exp(rng.uniform(-2, 0))),
            )
            w = rng.normal(size=(N, 2))
            z = rng.normal(size=(N, q))
            want = dense_log_marginal(w, z, hyper)
            worst = max(worst, abs(log_marginal(w, z, hyper) - want))
        report(f"gp log marginal vs dense oracle: max err {worst:.2e}",
               worst <= 1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            N = int(rng.integers(2, 9))
            w = rng.normal(size=(N, 2))
            z = rng.normal(size=(N, 2))
            hyper = GpHyperParams(
                A=float(np.exp(rng.uniform(-1, 1))),
                rho=float(np.exp(rng.uniform(-1, 1))),
                sigma=float(np.exp(rng.uniform(-1.5, 0))),
            )
            grad = log_marginal_gradient(w, z, hyper)
            theta = np.log([hyper.A, hyper.rho, hyper.sigma])
            for i in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd = (
                    log_marginal(w, z, GpHyperParams(*np.exp(tp)))
                    - log_marginal(w, z, GpHyperParams(*np.exp(tm)))
                ) / (2 * h)
                worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-12))
        report(f"gp gradient vs finite differences: max rel err {worst:.2e}",
               worst <= 1e-4)


def chart_basis(cloud, k, eps, d):
    """The tangent basis build_charts gives chart k.

    It depends only on the epsilon-ball of y_k, so the charts are built on
    that ball alone, with a radius that holds the whole ball from each of
    its points: elsewhere in the cloud a point may hold too few neighbors
    for a chart, and build_charts would stop there.
    """
    dist = np.linalg.norm(cloud.points - cloud.points[k], axis=1)
    ball = np.flatnonzero(dist <= eps)
    charts = build_charts(PointCloud(cloud.points[ball]), 3 * eps, 4 * eps, d)
    return charts[int(np.searchsorted(ball, k))].U


class TestFrameGuarantees:
    def test_frame_invariants(self):
        # The tangent basis U of build_charts: orthonormal columns that are
        # eigenvectors of the epsilon-ball covariance C with descending
        # eigenvalues lam = diag(U^T C U).  An epsilon-ball of d or fewer
        # points has no chart, and build_charts must refuse it.
        rng = np.random.default_rng(3)
        ortho = recon = order = trans = 0.0
        refused = wrongly_refused = 0
        for _ in range(100):
            n, D = int(rng.integers(20, 60)), int(rng.integers(2, 6))
            cloud = PointCloud(rng.normal(size=(n, D)))
            k = int(rng.integers(n))
            eps = float(rng.uniform(0.8, 2.0))
            d = int(rng.integers(1, D))
            C = local_covariance(cloud, k, eps)
            try:
                U = chart_basis(cloud, k, eps, d)
            except InsufficientNeighborsError:
                refused += 1
                n_ball = np.count_nonzero(
                    np.linalg.norm(cloud.points - cloud.points[k], axis=1) <= eps)
                wrongly_refused += n_ball > d
            else:
                lam = np.diag(U.T @ C @ U)
                ortho = max(ortho, float(np.max(np.abs(U.T @ U - np.eye(d)))))
                recon = max(recon, float(np.max(np.abs(C @ U - U * lam))))
                order = max(order, float(np.max(np.diff(lam), initial=0.0)))
            shift = rng.normal(size=D)
            C2 = local_covariance(PointCloud(cloud.points + shift), k, eps)
            trans = max(trans, float(np.max(np.abs(C2 - C))))
        ok = (ortho <= 1e-10 and recon <= 1e-8 and order <= 0.0
              and trans <= 1e-12 and wrongly_refused == 0)
        report(
            f"frame invariants: orthonormality {ortho:.2e}, eigenvector "
            f"residual {recon:.2e}, translation {trans:.2e}, "
            f"{100 - refused} charts, {refused} balls of <= d points refused",
            ok,
        )


class TestFlatFixedPoint:
    def test_plane_round_trip(self):
        rng = np.random.default_rng(4)
        xy = rng.uniform(-2, 2, size=(150, 2))
        cloud = PointCloud(np.column_stack([xy, np.zeros(150)]))
        cfg = DenoiseConfig(epsilon=0.8, delta=1.2, intrinsic_dim=2,
                            max_iter=1, sigma_tol=0.0)
        trace = denoise(cloud, cfg)
        disp = float(np.max(np.abs(trace.clouds[-1].points - cloud.points)))
        interp = interpolate(trace, cfg, K=10, seed=0)
        off_plane = float(np.max(np.abs(interp.points[:, 2])))
        ok = disp <= 1e-6 and off_plane <= 1e-6
        report(
            f"flat fixed point: displacement {disp:.2e}, interpolant "
            f"off-plane {off_plane:.2e}",
            ok,
        )


class TestGrmseGuarantees:
    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        ok = True
        for _ in range(50):
            ev = rng.normal(size=(int(rng.integers(5, 20)), 3))
            ref = rng.normal(size=(int(rng.integers(5, 20)), 3))
            extra = rng.normal(size=(int(rng.integers(1, 8)), 3))
            cloud = PointCloud(ev)
            ok &= grmse(cloud, cloud).value == 0.0
            g_small = grmse(cloud, PointCloud(ref)).value
            g_big = grmse(cloud, PointCloud(np.vstack([ref, extra]))).value
            ok &= g_big <= g_small + 1e-12
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            t = rng.normal(size=3)
            g_moved = grmse(PointCloud(ev @ q.T + t),
                            PointCloud(ref @ q.T + t)).value
            ok &= abs(g_moved - g_small) <= 1e-10 * max(g_small, 1.0)
        theta = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        ring = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
        ev = PointCloud(rng.normal(scale=1.2, size=(50, 2)))
        sandwich, _ = sandwich_gap_check(ev, ring, circle(1.0),
                                      2 * np.sin(np.pi / 400))
        ok &= sandwich
        report("grmse properties and circle sandwich", bool(ok))


class TestDimensionEstimation:
    def test_dimension_recovery(self):
        hits = 0
        for seed in range(5):
            clean = gen_ellipsoid_embedded(800, 30, seed)
            noisy = add_gaussian_noise(clean, NoiseSpec(0.05, seed + 100))
            hits += estimate_dimension(noisy, eps_dm=2.0).estimated_dim == 2
        theta = np.random.default_rng(6).uniform(0, 2 * np.pi, 400)
        ring = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
        circle_dim = estimate_dimension(ring, eps_dm=0.5).estimated_dim
        spec = diffusion_embedding(ring, 0.5, 3)
        mu0 = abs(float(spec.eigenvalues[0]))
        v0 = spec.eigenvectors[:, 0]
        const_dev = float(np.max(np.abs(v0 - v0[0])))
        ok = hits >= 4 and circle_dim == 1 and mu0 <= 1e-8 and const_dev <= 1e-8
        report(
            f"dimension estimation: ellipsoid hits {hits}/5, circle "
            f"d-hat {circle_dim}, mu0 {mu0:.2e}",
            ok,
        )


class TestHighDimensionalSmoke:
    def test_spectra_scale_pipeline(self):
        # 86 samples of a smooth closed curve in R^701, matching the scale
        # of a reflectance-spectra batch
        rng = np.random.default_rng(7)
        D, n = 701, 86
        basis, _ = np.linalg.qr(rng.normal(size=(D, 10)))
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        coords = []
        for j in range(5):
            amp = 1.0 / (j + 1)
            coords.append(amp * np.cos((j + 1) * t))
            coords.append(amp * np.sin((j + 1) * t))
        clean = PointCloud(np.column_stack(coords) @ basis.T)
        noisy = add_gaussian_noise(clean, NoiseSpec(0.005, 8))
        cfg = DenoiseConfig(epsilon=0.7, delta=0.9, intrinsic_dim=1,
                            max_iter=3, sigma_tol=0.0)
        trace = denoise(noisy, cfg)
        interp = interpolate(trace, cfg, K=30, seed=0)
        ok = trace.rounds == 3 and interp.n == 2580 and interp.ambient_dim == D
        report(f"high-dimensional smoke: {interp.n} interpolated points", ok)
