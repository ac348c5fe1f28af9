import numpy as np
import pytest
from scipy.linalg import cholesky

from mrgap import gp
from mrgap.gp import (
    SIGMA_FLOOR,
    FactorizationError,
    GpHyperParams,
    fit_hyperparams,
    gram,
    predictive,
)
from mrgap.local_geometry import ChartRegression, build_charts
from mrgap.point_cloud import NoiseSpec, add_gaussian_noise, gen_cassini, gen_torus

from .oracles import dense_log_marginal as dense_log_marginal_oracle
from .oracles import (
    default_init,
    joint_log_marginal,
    kernel,
    log_marginal,
    log_marginal_gradient,
)

HYPER = GpHyperParams(A=1.3, rho=0.7, sigma=0.2)


def make_chart(w, z, Q=None):
    """A chart with predictors w whose normal coordinates are z, in the
    orthonormal frame Q (the coordinate axes by default): U = Q[:, :d]
    and the ambient responses are z Q[:, d:]^T."""
    d, D = w.shape[1], w.shape[1] + z.shape[1]
    Q = np.eye(D) if Q is None else Q
    return ChartRegression(
        base=np.zeros(D), U=Q[:, :d], predictors=w, responses=z @ Q[:, d:].T,
        member_indices=np.arange(w.shape[0]),
    )


def rotated_chart():
    """A chart whose responses have D = 4 columns in a rotated frame but
    only q = 2 normal directions, with its normal coordinates z."""
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    w, z = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    return make_chart(w, z, Q), w, z


def normal_part(chart):
    """Normal coordinates of an axis-frame chart's responses: the input
    log_marginal expects, since it counts q from their width."""
    return chart.responses[:, chart.U.shape[1]:]


def random_instance(rng, N, m, d=2, q=2):
    w = rng.normal(size=(N, d))
    z = rng.normal(size=(N, q))
    u = rng.normal(size=(m, d))
    return w, z, u


def conditioning_oracle(w, z, u, hyper):
    """Brute-force joint-Gaussian conditioning on the full (N+m) Gram."""
    N = w.shape[0]
    allp = np.vstack([w, u])
    full = np.array([[kernel(a, b, hyper) for b in allp] for a in allp])
    s1 = full[:N, :N] + hyper.sigma ** 2 * np.eye(N)
    s2 = full[:N, N:]
    s3 = full[N:, :N]
    s4 = full[N:, N:]
    inv = np.linalg.inv(s1)
    return s3 @ inv @ z, s4 - s3 @ inv @ s2


class TestKernel:
    def test_zero_distance(self):
        assert kernel(np.ones(3), np.ones(3), HYPER) == HYPER.A

    def test_half_value(self):
        u = np.zeros(2)
        v = np.array([np.sqrt(HYPER.rho * np.log(2)), 0.0])
        np.testing.assert_allclose(kernel(u, v, HYPER), HYPER.A / 2, rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=(2, 3))
            assert kernel(u, v, HYPER) == kernel(v, u, HYPER)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kernel(np.zeros(2), np.zeros(3), HYPER)


class TestGram:
    def test_single_point(self):
        G = gram(np.zeros((1, 2)), HYPER)
        np.testing.assert_allclose(G, [[HYPER.A]])

    def test_coincident_points(self):
        G = gram(np.zeros((2, 3)), HYPER)
        np.testing.assert_allclose(G, HYPER.A * np.ones((2, 2)))

    def test_psd_spot_check(self):
        rng = np.random.default_rng(1)
        G = gram(rng.normal(size=(50, 2)), HYPER)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-8
        np.testing.assert_allclose(np.diag(G), HYPER.A)


class TestPredictive:
    def test_no_data_returns_prior(self):
        u = np.random.default_rng(2).normal(size=(3, 2))
        post = predictive(np.empty((0, 2)), np.empty((0, 1)), u, HYPER)
        np.testing.assert_array_equal(post.mean, np.zeros((3, 1)))
        np.testing.assert_allclose(post.covariance, gram(u, HYPER))

    def test_noise_free_interpolation(self):
        hyper = GpHyperParams(A=1.0, rho=0.5, sigma=0.0)
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        post = predictive(w, z, w[1:2], hyper)
        np.testing.assert_allclose(post.mean[0], z[1], atol=1e-8)

    def test_matches_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        w, z, u = random_instance(rng, 3, 2)
        post = predictive(w, z, u, HYPER)
        mean, cov = conditioning_oracle(w, z, u, HYPER)
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.covariance, cov, atol=1e-8)

    @pytest.mark.parametrize("N, m, q", [
        (1, 1, 64), (7, 5, 64), (60, 2, 64), (60, 5, 16),  # q >> m
        (4, 60, 1), (30, 40, 3),  # m >> q
    ])
    def test_wide_responses_match_conditioning_oracle(self, N, m, q):
        rng = np.random.default_rng(100 * N + m + q)
        w, z, u = random_instance(rng, N, m, q=q)
        post = predictive(w, z, u, HYPER)
        mean, cov = conditioning_oracle(w, z, u, HYPER)
        assert post.mean.shape == (m, q)
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.covariance, cov, atol=1e-8)

    def test_duplicate_predictors_at_zero_noise(self, monkeypatch):
        # Four of 56 grid points appear twice, with equal responses.  The
        # noise-free Gram is then singular and is factored again with
        # jitter, and the posterior is that of the 56 distinct points.
        # Their Gram is well conditioned (spacing 1 against rho 0.5), so
        # the jitter moves the result by about 1e-12.
        attempts = []

        def counting_cholesky(*args, **kwargs):
            attempts.append(1)
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(gp, "cholesky", counting_cholesky)
        rng = np.random.default_rng(8)
        grid = np.stack(np.meshgrid(np.arange(8.0), np.arange(7.0)), -1)
        grid = grid.reshape(-1, 2)
        z = rng.normal(size=(56, 64))
        twice = rng.choice(56, 4, replace=False)
        u = rng.uniform(0.0, 7.0, size=(5, 2))
        hyper = GpHyperParams(A=1.3, rho=0.5, sigma=0.0)
        post = predictive(np.vstack([grid, grid[twice]]),
                          np.vstack([z, z[twice]]), u, hyper)
        assert len(attempts) > 1
        mean, cov = conditioning_oracle(grid, z, u, hyper)
        np.testing.assert_allclose(post.mean, mean, atol=1e-8)
        np.testing.assert_allclose(post.covariance, cov, atol=1e-8)

    def test_inputs_unmodified(self):
        # also with duplicate predictors at sigma 0, where the Gram is
        # factored again with jitter
        rng = np.random.default_rng(7)
        w, z, u = random_instance(rng, 6, 3)
        w[1] = w[0]
        for hyper in (HYPER, GpHyperParams(A=1.3, rho=0.7, sigma=0.0)):
            copies = [w.copy(), z.copy(), u.copy()]
            post = predictive(w, z, u, hyper)
            assert np.all(np.isfinite(post.mean))
            for before, after in zip(copies, (w, z, u)):
                np.testing.assert_array_equal(after, before)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w, z, u = random_instance(rng, 6, 4)
            post = predictive(w, z, u, HYPER)
            assert np.all(np.diag(post.covariance) >= 0.0)
            assert np.all(np.diag(post.covariance) <= HYPER.A + 1e-8)

    def test_more_data_never_increases_variance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            w, z, u = random_instance(rng, 5, 3)
            extra_w = rng.normal(size=(1, 2))
            extra_z = rng.normal(size=(1, 2))
            v1 = np.diag(predictive(w, z, u, HYPER).covariance)
            v2 = np.diag(
                predictive(
                    np.vstack([w, extra_w]), np.vstack([z, extra_z]), u, HYPER
                ).covariance
            )
            assert np.all(v2 <= v1 + 1e-8)


class TestLogMarginal:
    def test_single_point_closed_form(self):
        z = 0.7
        val = log_marginal(np.zeros((1, 1)), np.array([[z]]), HYPER)
        s = HYPER.A + HYPER.sigma ** 2
        expected = -z ** 2 / s - np.log(s) - 0.5 * np.log(2 * np.pi)
        np.testing.assert_allclose(val, expected, rtol=1e-12)

    def test_doubling_responses_decreases(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(5, 2))
        z = rng.normal(size=(5, 1))
        assert log_marginal(w, 2 * z, HYPER) < log_marginal(w, z, HYPER)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            N = rng.integers(1, 9)
            w = rng.normal(size=(N, 2))
            z = rng.normal(size=(N, 2))
            got = log_marginal(w, z, HYPER)
            want = dense_log_marginal_oracle(w, z, HYPER)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(6, 2))
        z = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            log_marginal(w, z, HYPER),
            log_marginal(w[perm], z[perm], HYPER),
            rtol=1e-10,
        )


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(20):
            N = rng.integers(2, 8)
            w = rng.normal(size=(N, 2))
            z = rng.normal(size=(N, 2))
            hyper = GpHyperParams(
                A=np.exp(rng.uniform(-1, 1)),
                rho=np.exp(rng.uniform(-1, 1)),
                sigma=np.exp(rng.uniform(-2, 0)),
            )
            grad = log_marginal_gradient(w, z, hyper)
            theta = np.log([hyper.A, hyper.rho, hyper.sigma])
            fd = np.empty(3)
            for i in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                hp = GpHyperParams(*np.exp(tp))
                hm = GpHyperParams(*np.exp(tm))
                fd[i] = (log_marginal(w, z, hp) - log_marginal(w, z, hm)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_multi_output_decomposition(self):
        # trace term is additive over output columns; det term is shared
        rng = np.random.default_rng(11)
        w = rng.normal(size=(5, 2))
        z = rng.normal(size=(5, 2))
        g_joint = log_marginal_gradient(w, z, HYPER)
        g0 = log_marginal_gradient(w, z[:, :1], HYPER)
        g1 = log_marginal_gradient(w, z[:, 1:], HYPER)
        np.testing.assert_allclose(g_joint, g0 + g1, rtol=1e-9, atol=1e-12)


class TestJointAndFit:
    def _charts(self, seed, count=5):
        rng = np.random.default_rng(seed)
        charts = []
        for _ in range(count):
            N = rng.integers(3, 8)
            charts.append(make_chart(rng.normal(size=(N, 2)),
                                     rng.normal(size=(N, 2))))
        return charts

    def test_single_chart_equals_log_marginal(self):
        charts = self._charts(0, count=1)
        np.testing.assert_allclose(
            joint_log_marginal(charts, HYPER),
            log_marginal(charts[0].predictors, normal_part(charts[0]), HYPER),
        )

    def test_duplicate_chart_doubles(self):
        charts = self._charts(1, count=1)
        single = joint_log_marginal(charts, HYPER)
        np.testing.assert_allclose(
            joint_log_marginal(charts * 2, HYPER), 2 * single, rtol=1e-12
        )

    def test_sum_over_charts(self):
        charts = self._charts(2)
        total = sum(
            log_marginal(c.predictors, normal_part(c), HYPER) for c in charts
        )
        np.testing.assert_allclose(
            joint_log_marginal(charts, HYPER), total, rtol=1e-10
        )

    def test_ambient_responses_count_normal_directions(self):
        # The likelihood and the default start of a rotated chart must
        # equal those of its normal coordinates.
        chart, w, z = rotated_chart()
        assert chart.codim == 2
        np.testing.assert_allclose(joint_log_marginal([chart], HYPER),
                                   dense_log_marginal_oracle(w, z, HYPER),
                                   rtol=1e-10)
        start = gp._ChartStack.of_charts([chart]).default_start()
        np.testing.assert_allclose(start.A, np.mean(z ** 2), rtol=1e-12)

    def test_fit_improves_objective(self):
        charts = self._charts(3)
        init = GpHyperParams(A=0.5, rho=0.5, sigma=0.5)
        fitted = fit_hyperparams(charts, init)
        assert joint_log_marginal(charts, fitted) >= joint_log_marginal(
            charts, init
        ) - 1e-8

    def test_fit_stationary_gradient(self):
        charts = self._charts(4)
        fitted = fit_hyperparams(charts, GpHyperParams(1.0, 1.0, 0.3))
        grad = sum(
            log_marginal_gradient(c.predictors, normal_part(c), fitted)
            for c in charts
        )
        assert np.linalg.norm(grad) <= 1e-3

    def test_fit_recovers_noise_scale(self):
        # data simulated from a known GP: sigma recovered within 1.5x
        rng = np.random.default_rng(5)
        true = GpHyperParams(A=1.0, rho=0.5, sigma=0.1)
        charts = []
        for _ in range(20):
            w = rng.uniform(-1, 1, size=(10, 1))
            K = gram(w, true)
            f = rng.multivariate_normal(np.zeros(10), K, size=2).T
            z = f + rng.normal(0, true.sigma, size=f.shape)
            charts.append(make_chart(w, z))
        fitted = fit_hyperparams(charts, GpHyperParams(0.5, 1.0, 0.3))
        assert true.sigma / 1.5 <= fitted.sigma <= true.sigma * 1.5

    def test_fit_deterministic(self):
        charts = self._charts(6)
        init = GpHyperParams(1.0, 1.0, 0.2)
        a = fit_hyperparams(charts, init)
        b = fit_hyperparams(charts, init)
        assert a == b

    def test_invalid_hyperparams_rejected(self):
        with pytest.raises(ValueError):
            GpHyperParams(A=-1.0, rho=1.0, sigma=0.1)
        with pytest.raises(ValueError):
            GpHyperParams(A=1.0, rho=0.0, sigma=0.1)
        with pytest.raises(ValueError):
            GpHyperParams(A=1.0, rho=1.0, sigma=-0.1)
        for bad in (np.nan, np.inf):
            for args in ((bad, 1.0, 0.1), (1.0, bad, 0.1), (1.0, 1.0, bad)):
                with pytest.raises(ValueError, match="finite"):
                    GpHyperParams(*args)


def mixed_charts(seed):
    """Charts of sizes 1 to 20 across several padded sizes, one empty."""
    rng = np.random.default_rng(seed)
    charts = [make_chart(np.empty((0, 2)), np.empty((0, 2)))]
    for N in (1, 3, 8, 9, 17, 20):
        charts.append(make_chart(rng.normal(size=(N, 2)),
                                 rng.normal(size=(N, 2))))
    return charts


def hyper_from(theta):
    """Hyperparameters at (log A, log rho, log s), s = sigma^2 / A."""
    A, rho, s = np.exp(theta)
    return GpHyperParams(A=A, rho=rho, sigma=np.sqrt(s * A))


def dense_joint(charts, hyper):
    return sum(dense_log_marginal_oracle(c.predictors, normal_part(c), hyper)
               for c in charts if c.predictors.shape[0])


class TestStackedKernel:
    def test_value_and_gradient_match_dense_oracle(self):
        charts = mixed_charts(20)
        theta = np.log([1.3, 0.7, 0.2 ** 2 / 1.3])
        hyper = hyper_from(theta)
        stack = gp._ChartStack.of_charts(charts)
        assert len(stack.buckets) >= 3
        value, grad = gp._value_grad(
            stack.stats(hyper.rho, hyper.sigma ** 2 / hyper.A), hyper.A)
        np.testing.assert_allclose(value, dense_joint(charts, hyper),
                                   rtol=1e-10)
        np.testing.assert_allclose(joint_log_marginal(charts, hyper), value,
                                   rtol=1e-12)
        h = 1e-5
        fd = np.empty(3)
        for i in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (dense_joint(charts, hyper_from(tp))
                     - dense_joint(charts, hyper_from(tm))) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_profiled_signal_variance_is_stationary(self):
        # A* = sum tr(Z^T (K0 + sI)^-1 Z) / (q sum N), from dense matrices.
        charts = mixed_charts(21)
        rho, s = 0.5, 0.05
        T, qN = 0.0, 0
        for c in charts:
            z = normal_part(c)
            N, q = z.shape
            if not N:
                continue
            K0 = gram(c.predictors, GpHyperParams(1.0, rho, 0.0))
            T += np.trace(z.T @ np.linalg.solve(K0 + s * np.eye(N), z))
            qN += q * N
        a_star = np.log(T / qN)
        h = 1e-5

        def dL(log_a):
            up = hyper_from([log_a + h, np.log(rho), np.log(s)])
            down = hyper_from([log_a - h, np.log(rho), np.log(s)])
            return (joint_log_marginal(charts, up)
                    - joint_log_marginal(charts, down)) / (2 * h)

        assert abs(dL(a_star)) <= 1e-6 * qN
        assert dL(a_star + 1.0) < -0.1 * qN
        assert dL(a_star - 1.0) > 0.1 * qN

    def test_jitter_on_duplicate_predictors_at_sigma_floor(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(6, 2))
        dup = make_chart(np.vstack([w, w]), rng.normal(size=(12, 1)))
        other = make_chart(rng.normal(size=(7, 2)), rng.normal(size=(7, 1)))
        hyper = GpHyperParams(A=1.0, rho=0.5, sigma=SIGMA_FLOOR)
        single = log_marginal(dup.predictors, normal_part(dup), hyper)
        assert np.isfinite(single)
        assert np.all(np.isfinite(
            log_marginal_gradient(dup.predictors, normal_part(dup), hyper)))
        # Only the singular chart gets jitter; its stack-mate keeps none.
        np.testing.assert_allclose(
            joint_log_marginal([dup, other], hyper),
            single + log_marginal(other.predictors, normal_part(other), hyper),
            rtol=1e-12)
        fitted = fit_hyperparams([dup, other], hyper)
        assert fitted.sigma >= SIGMA_FLOOR
        assert (joint_log_marginal([dup, other], fitted)
                >= joint_log_marginal([dup, other], hyper))

    def test_jitter_escalates_per_matrix_then_raises(self):
        pd = np.array([[2.0, 0.5], [0.5, 1.0]])
        singular = np.ones((2, 2))
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        real = np.ones((2, 2))
        L = gp._cholesky_stack(np.stack([pd, singular]), real)
        np.testing.assert_array_equal(L[0], np.linalg.cholesky(pd))
        np.testing.assert_allclose(L[1] @ L[1].T, singular, atol=1e-6)
        with pytest.raises(FactorizationError):
            gp._cholesky_stack(np.stack([pd, indefinite]), real)

    @staticmethod
    def padded(K, n):
        """K in the top-left of an n x n identity, and its real-row mask."""
        M = np.eye(n)
        M[:K.shape[0], :K.shape[0]] = K
        real = np.zeros(n)
        real[:K.shape[0]] = 1.0
        return M, real

    def test_failed_stack_is_factored_per_matrix_by_factor(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 2))
        unit = GpHyperParams(A=1.0, rho=1.0, sigma=0.0)
        dup = gram(np.vstack([w, w]), unit)  # s = 0: exactly singular
        pd = [gram(rng.normal(size=(8, 2)), unit) + 0.5 * np.eye(8)
              for _ in range(2)]
        blocks = [self.padded(K, 8) for K in (pd[0], dup, pd[1])]
        M = np.stack([m for m, _ in blocks])
        real = np.stack([r for _, r in blocks])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M)
        L = gp._cholesky_stack(M, real)
        for b in range(3):
            np.testing.assert_array_equal(
                L[b], gp._factor(lambda: M[b].copy(), real[b]))
        np.testing.assert_array_equal(L[1, 6:, :], np.eye(8)[6:])

    def test_failed_stack_names_the_real_size(self):
        indefinite = np.ones((6, 6)) - 2.0 * np.eye(6)
        M, real = self.padded(indefinite, 8)
        with pytest.raises(FactorizationError, match=r"6x6 system"):
            gp._cholesky_stack(np.stack([np.eye(8), M]),
                               np.stack([np.ones(8), real]))

    def test_single_factor_escalates_jitter_on_a_fresh_matrix(self):
        # a failed attempt overwrites its matrix, so every attempt builds
        # a new one
        built = []

        def build():
            built.append(np.ones((2, 2)))
            return built[-1]

        L = gp._factor(build, 1.0)
        assert len(built) == 2
        np.testing.assert_allclose(L @ L.T, np.ones((2, 2)) + 1e-12 * np.eye(2),
                                   rtol=0, atol=1e-15)

    def test_single_factor_raises_on_indefinite(self):
        built = []

        def build():
            built.append(np.array([[1.0, 2.0], [2.0, 1.0]]))
            return built[-1]

        with pytest.raises(FactorizationError):
            gp._factor(build, 1.0)
        assert len(built) == len(gp._JITTERS)

    def test_fit_is_no_worse_than_any_start(self, monkeypatch):
        results = []
        minimize = gp.minimize

        def spy(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gp, "minimize", spy)
        charts = mixed_charts(23)
        init = GpHyperParams(A=0.5, rho=2.0, sigma=0.5)
        fitted = fit_hyperparams(charts, init)
        assert len(results) == 5
        qN = 2 * sum(c.predictors.shape[0] for c in charts)
        got = joint_log_marginal(charts, fitted)
        assert got >= joint_log_marginal(charts, init)
        for res in results:
            assert got >= -res.fun * qN - 1e-9 * abs(got)

    def test_non_pd_start_cannot_corrupt_fit(self, monkeypatch):
        # Every factorization at rho > 3x the init's fails, so the rho x10
        # start begins at an objective of inf.
        charts = mixed_charts(23)
        init = GpHyperParams(A=0.5, rho=2.0, sigma=0.5)
        stats = gp._ChartStack.stats

        def failing(self, rho, s):
            if rho > 3 * init.rho:
                raise FactorizationError("not positive definite")
            return stats(self, rho, s)

        starts, made = [], []
        minimize, real = gp.minimize, gp.GpHyperParams

        def minimize_spy(fun, x0, **kwargs):
            starts.append(fun(x0)[0])
            return minimize(fun, x0, **kwargs)

        def hyper_spy(*args, **kwargs):
            made.append(list(args) + list(kwargs.values()))
            return real(*args, **kwargs)

        monkeypatch.setattr(gp._ChartStack, "stats", failing)
        monkeypatch.setattr(gp, "minimize", minimize_spy)
        monkeypatch.setattr(gp, "GpHyperParams", hyper_spy)
        fitted = fit_hyperparams(charts, init)
        assert np.isfinite(starts[0]) and np.isinf(starts[2])  # rho x10
        assert np.all(np.isfinite([fitted.A, fitted.rho, fitted.sigma]))
        assert fitted.rho <= 3 * init.rho
        assert joint_log_marginal(charts, fitted) >= \
            joint_log_marginal(charts, init)
        assert made and np.all(np.isfinite(made))


def noisy_charts(gen, n, sigma, epsilon, delta, d):
    cloud = add_gaussian_noise(gen(n, seed=7), NoiseSpec(sigma, 8))
    return build_charts(cloud, epsilon, delta, d)


@pytest.mark.parametrize("charts", [
    pytest.param(lambda: noisy_charts(gen_cassini, 102, 0.04, 0.3, 0.6, 1),
                 id="cassini"),
    pytest.param(lambda: noisy_charts(gen_torus, 558, 0.12, 0.8, 1.0, 2),
                 id="torus"),
    pytest.param(lambda: mixed_charts(23), id="one-row-and-empty"),
    pytest.param(lambda: [rotated_chart()[0]], id="rotated"),
])
def test_default_start_equals_chart_by_chart_oracle(charts):
    # The stack reuses the squared distances it keeps for the likelihood;
    # the start must be bitwise the one computed chart by chart.
    charts = charts()
    assert gp._ChartStack.of_charts(charts).default_start() == \
        default_init(charts)
