import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky

from mrgap import gp
from mrgap.gp import (
    S_FLOOR,
    FactorizationError,
    GpHyperParams,
    fit_hyperparams,
    predictive,
)
from mrgap.denoiser import DenoiseConfig, denoise
from mrgap.local_geometry import ChartRegression, build_charts
from mrgap.point_cloud import (
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    gen_cassini,
    gen_torus,
)

from .oracles import dense_log_marginal as dense_log_marginal_oracle
from .oracles import (
    default_init,
    five_start_fit,
    joint_log_marginal,
    kernel,
    log_marginal,
    log_marginal_gradient,
)

HYPER = GpHyperParams(A=1.3, rho=0.7, sigma=0.2)


def gram(points, hyper):
    return np.array([[kernel(a, b, hyper) for b in points] for a in points])


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
    full = gram(np.vstack([w, u]), hyper)
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


class TestPredictive:
    def test_noise_free_interpolation(self):
        hyper = GpHyperParams(A=1.0, rho=0.5, sigma=0.0)
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 2))
        z = rng.normal(size=(4, 2))
        mean, _ = predictive(w, z, w[1:2], hyper)
        np.testing.assert_allclose(mean[0], z[1], atol=1e-8)

    def test_matches_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        w, z, u = random_instance(rng, 3, 2)
        mean, var = predictive(w, z, u, HYPER)
        want_mean, cov = conditioning_oracle(w, z, u, HYPER)
        np.testing.assert_allclose(mean, want_mean, atol=1e-8)
        np.testing.assert_allclose(var, np.diag(cov), atol=1e-8)

    @pytest.mark.parametrize("N, m, q", [
        (1, 1, 64), (7, 5, 64), (60, 2, 64), (60, 5, 16),  # q >> m
        (4, 60, 1), (30, 40, 3),  # m >> q
    ])
    def test_wide_responses_match_conditioning_oracle(self, N, m, q):
        # A far from 1, with sigma^2 scaled alike, leaves the mean and
        # var / A as they are: A only scales the variance.
        rng = np.random.default_rng(100 * N + m + q)
        w, z, u = random_instance(rng, N, m, q=q)
        for A in (HYPER.A, 1e-20, 1e20):
            hyper = GpHyperParams(A, HYPER.rho,
                                  HYPER.sigma * np.sqrt(A / HYPER.A))
            mean, var = predictive(w, z, u, hyper)
            want_mean, cov = conditioning_oracle(w, z, u, hyper)
            assert mean.shape == (m, q) and var.shape == (m,)
            np.testing.assert_allclose(mean, want_mean, atol=1e-8)
            np.testing.assert_allclose(var / A, np.diag(cov) / A, atol=1e-8)

    def test_duplicate_predictors_at_zero_noise(self, monkeypatch):
        # Four of 56 grid points appear twice, with equal responses.  The
        # noise-free Gram is then singular, but the noise floor S_FLOOR * A
        # lets it factor at once, and the posterior is that of the 56
        # distinct points.  Their Gram is well conditioned (spacing 1
        # against rho 0.5), so the floor moves the result by about 1e-10.
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
        mean, var = predictive(np.vstack([grid, grid[twice]]),
                               np.vstack([z, z[twice]]), u, hyper)
        assert len(attempts) == 1
        want_mean, cov = conditioning_oracle(grid, z, u, hyper)
        np.testing.assert_allclose(mean, want_mean, atol=1e-8)
        np.testing.assert_allclose(var, np.diag(cov), atol=1e-8)

    def test_inputs_unmodified(self):
        # also with duplicate predictors at sigma 0, where the Gram is
        # factored with the noise floor
        rng = np.random.default_rng(7)
        w, z, u = random_instance(rng, 6, 3)
        w[1] = w[0]
        for hyper in (HYPER, GpHyperParams(A=1.3, rho=0.7, sigma=0.0)):
            copies = [w.copy(), z.copy(), u.copy()]
            mean, var = predictive(w, z, u, hyper)
            assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
            for before, after in zip(copies, (w, z, u)):
                np.testing.assert_array_equal(after, before)

    def test_failed_factorization_names_the_system(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "cholesky", failing)
        w, z, u = random_instance(np.random.default_rng(9), 6, 3)
        with pytest.raises(FactorizationError, match=r"6x6 system"):
            predictive(w, z, u, HYPER)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w, z, u = random_instance(rng, 6, 4)
            _, var = predictive(w, z, u, HYPER)
            assert np.all(var >= 0.0)
            assert np.all(var <= HYPER.A + 1e-8)

    def test_more_data_never_increases_variance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            w, z, u = random_instance(rng, 5, 3)
            extra_w = rng.normal(size=(1, 2))
            extra_z = rng.normal(size=(1, 2))
            _, v1 = predictive(w, z, u, HYPER)
            _, v2 = predictive(
                np.vstack([w, extra_w]), np.vstack([z, extra_z]), u, HYPER)
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
        start = gp._default_start([chart])
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
        # A sigma whose square over A overflows: no noise the kernels can add.
        for A, sigma in ((1.0, 1e160), (np.float64(1.0), np.float64(1e160)),
                         (1e-300, 1e5)):
            with pytest.raises(ValueError, match=r"^sigma\^2 / A .*sigma="):
                GpHyperParams(A=A, rho=1.0, sigma=sigma)


def mixed_charts(seed):
    """Charts of six sizes from 1 to 20 rows."""
    rng = np.random.default_rng(seed)
    return [make_chart(rng.normal(size=(N, 2)), rng.normal(size=(N, 2)))
            for N in (1, 3, 8, 9, 17, 20)]


def same_size_charts(seed, count):
    """count charts of 40 rows; a stack holds at most 20 of them."""
    rng = np.random.default_rng(seed)
    return [make_chart(rng.normal(size=(40, 2)), rng.normal(size=(40, 2)))
            for _ in range(count)]


def stacked_charts():
    """mixed_charts, a 46-row chart like the largest torus charts, and 25
    charts of 40 rows, more than one stack holds."""
    rng = np.random.default_rng(24)
    return mixed_charts(20) + [
        make_chart(rng.normal(size=(46, 2)), rng.normal(size=(46, 2)))
    ] + same_size_charts(25, 25)


def hyper_from(theta):
    """Hyperparameters at (log A, log rho, log s), s = sigma^2 / A."""
    A, rho, s = np.exp(theta)
    return GpHyperParams(A=A, rho=rho, sigma=np.sqrt(s * A))


def dense_joint(charts, hyper):
    return sum(dense_log_marginal_oracle(c.predictors, normal_part(c), hyper)
               for c in charts)


class TestStackedKernel:
    def test_value_and_gradient_match_dense_oracle(self):
        # At rho = 0.012 about 90% of the off-diagonal kernel entries lie
        # below an ulp of the unit diagonal, hundreds of them subnormal.
        charts = stacked_charts()
        stack = gp._ChartStack(charts)
        assert [sq.shape[1] for sq, _ in stack.stacks].count(40) == 2
        K0 = np.exp(-np.concatenate([sq.ravel() for sq, _ in stack.stacks])
                    / 0.012)
        assert np.count_nonzero((K0 > 0) & (K0 < np.finfo(float).tiny)) > 100
        for rho in (0.7, 0.012):
            theta = np.log([1.3, rho, 0.2 ** 2 / 1.3])
            hyper = hyper_from(theta)
            value, grad = gp._value_grad(
                stack.stats(hyper.rho, hyper.sigma ** 2 / hyper.A), hyper.A)
            np.testing.assert_allclose(value, dense_joint(charts, hyper),
                                       rtol=1e-10)
            np.testing.assert_allclose(joint_log_marginal(charts, hyper),
                                       value, rtol=1e-12)
            h = 1e-5
            fd = np.empty(3)
            for i in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (dense_joint(charts, hyper_from(tp))
                         - dense_joint(charts, hyper_from(tm))) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_stacks_hold_charts_of_one_exact_size(self):
        charts = stacked_charts()
        stack = gp._ChartStack(charts)
        rows = 0
        for sq, R in stack.stacks:
            B, n = sq.shape[:2]
            assert sq.shape == (B, n, n)
            assert R.ndim == 3 and R.shape[:2] == (B, n)
            assert B * n * n <= max(gp._STACK_ELEMS, n * n)
            rows += B * n
        assert rows == stack.N == sum(c.predictors.shape[0] for c in charts)

    def test_stats_temporaries_stay_small(self):
        # Stacks of 20 charts peak at 1.8 MB; one stack of all 400 at 26.6 MB.
        stack = gp._ChartStack(same_size_charts(26, 400))
        tracemalloc.start()
        try:
            stack.stats(0.7, 0.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_profiled_signal_variance_is_stationary(self):
        # A* = sum tr(Z^T (K0 + sI)^-1 Z) / (q sum N), from dense matrices.
        charts = mixed_charts(21)
        rho, s = 0.5, 0.05
        T, qN = 0.0, 0
        for c in charts:
            z = normal_part(c)
            N, q = z.shape
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

    def test_failed_inverse_raises_factorization_error(self, monkeypatch):
        monkeypatch.setattr(gp, "dtrtri", lambda l, lower: (l, 1))
        stack = gp._ChartStack(mixed_charts(20))
        with pytest.raises(FactorizationError, match="info 1"):
            stack.stats(0.7, 0.03)

    def test_duplicate_predictors_factor_at_sigma_floor(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(6, 2))
        dup = make_chart(np.vstack([w, w]), rng.normal(size=(12, 1)))
        other = make_chart(rng.normal(size=(7, 2)), rng.normal(size=(7, 1)))
        hyper = GpHyperParams(A=1.0, rho=0.5, sigma=np.sqrt(S_FLOOR * 1.0))
        single = log_marginal(dup.predictors, normal_part(dup), hyper)
        assert np.isfinite(single)
        assert np.all(np.isfinite(
            log_marginal_gradient(dup.predictors, normal_part(dup), hyper)))
        # The chart with each predictor twice factors at the floor, and the
        # joint likelihood is the sum of the two charts' own.
        np.testing.assert_allclose(
            joint_log_marginal([dup, other], hyper),
            single + log_marginal(other.predictors, normal_part(other), hyper),
            rtol=1e-12)
        fitted = fit_hyperparams([dup, other], hyper)
        assert fitted.sigma ** 2 / fitted.A >= S_FLOOR
        assert (joint_log_marginal([dup, other], fitted)
                >= joint_log_marginal([dup, other], hyper))

    def test_indefinite_stack_raises_factorization_error(self):
        # With a repeated predictor, M = K0 + sI at s = -0.5 has an
        # eigenvalue of -0.5.
        rng = np.random.default_rng(6)
        w = rng.normal(size=(5, 2))
        chart = make_chart(np.vstack([w, w[:1]]), rng.normal(size=(6, 1)))
        stack = gp._ChartStack([chart])
        with pytest.raises(FactorizationError, match="Cholesky failed"):
            stack.stats(0.5, -0.5)

    def test_fit_is_never_worse_than_its_init(self):
        # From a poor init, and from the fit's own optimum, where only
        # rounding separates the points the finish may step to.
        charts = mixed_charts(23)
        qN = 2 * sum(c.predictors.shape[0] for c in charts)
        init = GpHyperParams(A=0.5, rho=2.0, sigma=0.5)
        for _ in range(2):
            fitted = fit_hyperparams(charts, init)
            want = joint_log_marginal(charts, init) / qN
            assert joint_log_marginal(charts, fitted) / qN >= \
                want - gp._ROUNDING * (1.0 + abs(want))
            init = fitted

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

    def test_no_factorable_point_is_factorization_error(self, monkeypatch):
        # Every start begins at an objective of inf, so the fit has no
        # point to return and fails the one way a factorization does.
        def failing(self, rho, s):
            raise FactorizationError("not positive definite")

        monkeypatch.setattr(gp._ChartStack, "stats", failing)
        with pytest.raises(FactorizationError, match="no point the fit"):
            fit_hyperparams(mixed_charts(23))


def noisy_charts(gen, n, sigma, epsilon, delta, d):
    cloud = add_gaussian_noise(gen(n, seed=7), NoiseSpec(sigma, 8))
    return build_charts(cloud, epsilon, delta, d)


@pytest.mark.parametrize("seed", range(4))
def test_round_one_charts_factor_at_the_noise_floor(seed):
    # S_FLOOR's reason: at s = S_FLOOR every round-1 chart stack factors,
    # at rho across the fit's box, on the clouds whose fits end at or near
    # the floor: noise-free, every point twice, and a noise-free surface.
    cassini = gen_cassini(102, seed=seed)
    noisy = add_gaussian_noise(cassini, NoiseSpec(0.04, seed + 1))
    twice = PointCloud(np.vstack([noisy.points, noisy.points]))
    for cloud, epsilon, delta, d in [(cassini, 0.3, 0.6, 1),
                                     (twice, 0.3, 0.6, 1),
                                     (gen_torus(300, seed=seed), 0.8, 1.0, 2)]:
        charts = build_charts(cloud, epsilon, delta, d)
        stack = gp._ChartStack(charts)
        rho = gp._default_start(charts).rho
        for k in range(-40, 41, 10):
            assert np.isfinite(stack.stats(rho * np.exp(k), S_FLOOR).T)


def test_net_covers_every_base_whatever_the_order_or_position():
    cloud = add_gaussian_noise(gen_cassini(102, seed=7), NoiseSpec(0.04, 8))
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    perm = rng.permutation(cloud.n)

    def net_of(points, order):
        charts = build_charts(PointCloud(points), 0.3, 0.6, 1)
        index = {id(c): k for k, c in enumerate(charts)}
        net = gp._net(charts)
        return charts, [order[index[id(c)]] for c in net]

    charts, net = net_of(cloud.points, np.arange(cloud.n))
    reach = max(np.max(np.linalg.norm(cloud.points[c.member_indices] - c.base,
                                      axis=1)) for c in charts)
    gaps = np.min(np.linalg.norm(cloud.points[:, None] - cloud.points[net],
                                 axis=2), axis=1)
    assert 1 < len(net) < cloud.n and np.max(gaps) <= reach
    assert net_of(cloud.points[perm], perm)[1] == net
    assert net_of(cloud.points @ Q.T + 3.0, np.arange(cloud.n))[1] == net


def spectra_round_3():
    """Charts and warm start of round 3 on the five-harmonic closed curve
    through a random 10-dimensional subspace of R^701 (86 points, noise
    0.005).  The warm start's own L-BFGS-B run ends 0.035 (scaled) below
    an optimum that the rho / 10 and s / 100 starts find."""
    basis = np.linalg.qr(np.random.default_rng(7).normal(size=(701, 10)))[0]
    t = np.linspace(0.0, 2.0 * np.pi, 86, endpoint=False)
    coords = np.column_stack([f(j * t) / j for j in range(1, 6)
                              for f in (np.cos, np.sin)])
    noise = np.random.default_rng([1, 1]).normal(0.0, 0.005, size=(86, 701))
    trace = denoise(PointCloud(coords @ basis.T + noise),
                    DenoiseConfig(epsilon=0.7, delta=0.9, intrinsic_dim=1,
                                  max_iter=2, sigma_tol=0.0))
    return build_charts(trace.clouds[-1], 0.7, 0.9, 1), trace.hypers[-1]


@pytest.mark.parametrize("case, two_optima", [
    pytest.param(lambda: (noisy_charts(gen_cassini, 102, 0.04, 0.3, 0.6, 1),
                          None), False, id="cassini"),
    pytest.param(lambda: (noisy_charts(gen_torus, 558, 0.12, 0.8, 1.0, 2),
                          None), False, id="torus"),
    pytest.param(lambda: (mixed_charts(23),
                          GpHyperParams(A=0.5, rho=2.0, sigma=0.5)),
                 False, id="mixed"),
    pytest.param(spectra_round_3, True, id="spectra-round-3"),
])
def test_fit_is_no_worse_than_five_start_oracle(case, two_optima):
    # The net chooses the basin, but the fit returns an optimum of the
    # likelihood of all charts, as good as a five-start search over them.
    charts, init = case()
    qN = charts[0].codim * sum(c.predictors.shape[0] for c in charts)
    oracle, ends = five_start_fit(charts, init)
    if two_optima:
        assert ends[0] < max(ends) - 0.03
    got = joint_log_marginal(charts, fit_hyperparams(charts, init)) / qN
    assert got >= joint_log_marginal(charts, oracle) / qN - 1e-9


@pytest.mark.parametrize("charts", [
    pytest.param(lambda: noisy_charts(gen_cassini, 102, 0.04, 0.3, 0.6, 1),
                 id="cassini"),
    pytest.param(lambda: noisy_charts(gen_torus, 558, 0.12, 0.8, 1.0, 2),
                 id="torus"),
    pytest.param(lambda: mixed_charts(23), id="one-row"),
    pytest.param(lambda: [rotated_chart()[0]], id="rotated"),
    pytest.param(lambda: [make_chart(c.predictors, 0.0 * c.responses)
                          for c in mixed_charts(5)],
                 id="zero-responses"),
    pytest.param(lambda: [make_chart(np.repeat(np.eye(2), [4, 1], axis=0),
                                     np.ones((5, 1)))],
                 id="mostly-coincident"),
    pytest.param(lambda: [make_chart(np.zeros((3, 2)), np.zeros((3, 1)))],
                 id="one-point-zero-responses"),
])
def test_default_start_equals_chart_by_chart_oracle(charts):
    # The start must be bitwise the one computed chart by chart.
    charts = charts()
    assert gp._default_start(charts) == \
        default_init(charts)


def test_every_stats_call_is_one_the_fit_asked_for(monkeypatch):
    # The screen and the polish compute statistics only where L-BFGS-B
    # asks, once per point.  Outside L-BFGS-B the fit scores the init on
    # all charts, then the finish scores triples: the Hessian's two probes
    # _PROBE along each axis from its current point, and the step from it.
    calls, inside = [], []
    stats, minimize = gp._ChartStack.stats, gp.minimize

    def stats_spy(self, rho, s):
        calls.append((self, np.log([rho, s]), bool(inside)))
        return stats(self, rho, s)

    def minimize_spy(fun, x0, **kwargs):
        inside.append(True)
        try:
            return minimize(fun, x0, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(gp._ChartStack, "stats", stats_spy)
    monkeypatch.setattr(gp, "minimize", minimize_spy)
    charts = noisy_charts(gen_cassini, 102, 0.04, 0.3, 0.6, 1)
    init = gp._default_start(charts)
    fit_hyperparams(charts)
    net, full = calls[0][0], calls[-1][0]
    assert net.N < full.N
    on_net = [c for c in calls if c[0] is net]
    assert calls[:len(on_net)] == on_net and all(c[2] for c in on_net)
    on_full = calls[len(on_net):]
    assert all(c[0] is full for c in on_full)
    theta0 = np.log([init.rho, init.sigma ** 2 / init.A])
    assert not on_full[0][2] and np.allclose(on_full[0][1], theta0,
                                             rtol=0, atol=1e-14)
    polish = [c for c in on_full[1:] if c[2]]
    finish = on_full[1 + len(polish):]
    assert polish and not any(c[2] for c in finish)
    assert len(finish) <= 3 * gp._NEWTON_STEPS
    points = [tuple(c[1]) for c in on_full[:1 + len(polish)]]
    for i in range(0, len(finish), 3):
        triple = [c[1] for c in finish[i:i + 3]]
        start = triple[0] - gp._PROBE * np.array([1.0, 0.0])
        assert np.any(np.all(np.abs(np.array(points) - start) <= 1e-12,
                             axis=1))
        np.testing.assert_allclose(triple[1] - triple[0],
                                   gp._PROBE * np.array([-1.0, 1.0]),
                                   rtol=1e-6, atol=0)
        points += [tuple(t) for t in triple]
    for stack in (net, full):
        seen = [tuple(c[1]) for c in calls if c[0] is stack]
        assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("charts, init", [
    pytest.param(lambda: mixed_charts(23),
                 GpHyperParams(A=0.5, rho=2.0, sigma=0.5), id="mixed"),
    pytest.param(lambda: noisy_charts(gen_cassini, 102, 0.04, 0.3, 0.6, 1),
                 None, id="cassini"),
])
def test_fit_is_the_best_point_evaluated(monkeypatch, charts, init):
    # Best among the points scored on all charts: by the init, the polish
    # and the finish.  The net's scores are of another likelihood.
    values = []
    objective = gp._Search.__call__

    def recorded(self, theta):
        value, grad = objective(self, theta)
        values.append((self.qN, value))
        return value, grad

    monkeypatch.setattr(gp._Search, "__call__", recorded)
    charts = charts()
    fitted = fit_hyperparams(charts, init)
    qN = charts[0].codim * sum(c.predictors.shape[0] for c in charts)
    best = -min(v for n, v in values if n == qN and np.isfinite(v))
    assert joint_log_marginal(charts, fitted) / qN == \
        pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_newton_finish_is_no_worse_than_its_start(monkeypatch, seed):
    # Near the s floor the likelihood of noise-free Cassini is rough, and
    # on each of these seeds the round-1 finish refuses a Newton step.
    # Whether it stops there or after a kept step, the point it returns
    # scores no worse than the best point it started from, up to rounding.
    objective, newton = gp._Search.__call__, gp._Search.newton
    scores, finishes = [], []

    def recorded(self, theta):
        value, grad = objective(self, theta)
        scores.append(self.last)
        return value, grad

    def finish(self):
        f0 = self.best[0]
        hyper = newton(self)
        finishes.append((f0, hyper))
        return hyper

    monkeypatch.setattr(gp._Search, "__call__", recorded)
    monkeypatch.setattr(gp._Search, "newton", finish)
    fitted = fit_hyperparams(build_charts(gen_cassini(102, seed=seed),
                                          0.3, 0.6, 1))
    ((f0, hyper),) = finishes
    assert hyper is fitted
    (f,) = {last[0] for last in scores if last[3] is fitted}
    assert f <= f0 + gp._ROUNDING * (1.0 + abs(f0))


def test_tiny_responses_leave_the_start():
    # Responses 1e-20 of their O(1) predictors: A* lies far outside any box
    # around the start's rho, but inside the one around the start's A.
    rng = np.random.default_rng(11)
    charts = [make_chart(rng.normal(size=(8, 2)),
                         1e-20 * rng.normal(size=(8, 1))) for _ in range(6)]
    start = gp._default_start(charts)
    fitted = fit_hyperparams(charts)
    assert joint_log_marginal(charts, fitted) > \
        joint_log_marginal(charts, start)
    assert start.A * np.exp(-40) <= fitted.A <= start.A * np.exp(40)
