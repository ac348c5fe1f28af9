"""Brute-force references the tests check the program against.

Each is the textbook formula, evaluated directly: no k-d tree, batching,
profiling or factorization shortcut, so it can be checked by eye.  The
closed-form distances to a circle, sphere, torus or coordinate plane
(AnalyticManifold and grmse_analytic) are references of the same kind.

The last helpers are test-only compositions of mrgap's own kernels:

- interpolate_full_scan: interpolate with a scan of every earlier point
  for glue rows, from build_charts, estimate_domain_ball,
  sample_ball_uniform and gp.predictive;
- log_marginal and log_marginal_gradient: one chart's likelihood from
  gp._ChartStack and gp._value_grad, taking q from the width of z;
- joint_log_marginal: the summed likelihood of a list of charts, the
  same way;
- default_init: the fit's default start, computed chart by chart;
- five_start_fit: the fit as a plain five-start L-BFGS-B search over all
  charts, from gp._ChartStack and gp._value_grad;
- sandwich_gap_check: grmse against grmse_analytic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from mrgap import gp
from mrgap.evaluation import GrmseReport, grmse
from mrgap.interpolator import estimate_domain_ball, sample_ball_uniform
from mrgap.local_geometry import ChartRegression, build_charts


def radius_neighbors(points, center, r):
    """Indices i with ||points[i] - center|| <= r (closed ball), ascending."""
    return np.flatnonzero(np.linalg.norm(points - center, axis=1) <= r)


def dist_to_set(point, reference):
    """Minimum Euclidean distance from a point to a PointCloud."""
    if reference.n == 0:
        raise ValueError("reference set is empty")
    return float(np.min(np.linalg.norm(reference.points - point, axis=1)))


def local_covariance(cloud, k, epsilon):
    """Second-moment matrix of displacements within the epsilon-ball at y_k.

    (1/n) sum_i (y_i - y_k)(y_i - y_k)^T over points with
    ||y_i - y_k|| <= epsilon.  The divisor is the full sample size n, not
    the ball occupancy.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pts = cloud.points
    diff = pts - pts[k]
    mask = np.linalg.norm(diff, axis=1) <= epsilon
    sel = diff[mask]
    return (sel.T @ sel) / cloud.n


def mean_local_eigenvalues(cloud, epsilon):
    """Descending local-covariance eigenvalues, clamped at zero and
    averaged over all points, one point at a time."""
    acc = np.zeros(cloud.ambient_dim)
    for k in range(cloud.n):
        C = local_covariance(cloud, k, epsilon)
        acc += np.clip(np.linalg.eigvalsh(C)[::-1], 0.0, None)
    return acc / cloud.n


def graph_laplacian(cloud, eps_dm):
    """Density-normalized graph Laplacian L = (D^-1 W - I) / eps_dm^2.

    W is the Gaussian kernel matrix with each entry divided by the
    product of its row and column kernel degrees (density correction).
    """
    if cloud.n < 2:
        raise ValueError("need at least 2 points")
    if eps_dm <= 0:
        raise ValueError("eps_dm must be positive")
    sq = cdist(cloud.points, cloud.points, "sqeuclidean")
    k = np.exp(-sq / eps_dm ** 2)
    q = k.sum(axis=1)
    W = k / np.outer(q, q)
    deg = W.sum(axis=1)
    return ((W / deg[:, None]) - np.eye(cloud.n)) / eps_dm ** 2


def diffusion_embedding(L, ell):
    """First ell + 1 eigenpairs (mu, V) of -L in ascending order, from a
    full eigendecomposition.

    -L is conjugate to a symmetric matrix through the degree scaling; the
    degrees are recovered from detailed balance, M_ij / M_ji = deg_j /
    deg_i, which needs every kernel entry positive.  Columns of V are
    l2-normalized, with their largest-magnitude entry positive.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if not 0 <= ell < n:
        raise ValueError("ell must satisfy 0 <= ell < n")
    c = -1.0 / np.min(np.diag(L))
    M = c * L + np.eye(n)
    off = M - np.diag(np.diag(M))
    if np.min(off + np.eye(n)) <= 0.0:
        raise ValueError("Laplacian off-diagonal entries must be positive")
    deg = np.ones(n)
    deg[1:] = M[0, 1:] / M[1:, 0]
    s = np.sqrt(deg)
    S = (M * s[:, None]) / s[None, :]
    S = 0.5 * (S + S.T)
    nu, phi = np.linalg.eigh(S)
    order = np.argsort(nu)[::-1][: ell + 1]
    nu = nu[order]
    V = phi[:, order] / s[:, None]
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0
    return (1.0 - nu) / c, np.where(flip, -V, V)


def kernel(u, v, hyper):
    """Squared-exponential kernel A exp(-||u - v||^2 / rho)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return float(hyper.A * np.exp(-np.sum((u - v) ** 2) / hyper.rho))


def eigen_frame(C):
    """Full eigendecomposition (eigenvalues, U) of a symmetric D x D matrix.

    Eigenvalues descend and are clamped at zero; each column of U is
    oriented so its largest-magnitude entry is positive.
    """
    C = np.asarray(C, dtype=float)
    if np.max(np.abs(C - C.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    evals, evecs = np.linalg.eigh(C)
    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]
    flip = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(C.shape[0])] < 0
    return evals, np.where(flip, -evecs, evecs)


def project_tangent(U, d, x):
    """Coordinates of the displacement x along the first d columns of U."""
    return U[:, :d].T @ x


def project_normal(U, d, x):
    """Coordinates of the displacement x along the last D - d columns of U."""
    return U[:, d:].T @ x


def dense_log_marginal(w, z, hyper):
    """Un-halved log marginal likelihood of the N x q responses z, from the
    explicit inverse and determinant of the N x N covariance."""
    N, q = z.shape
    K = np.array([[kernel(w[i], w[j], hyper) for j in range(N)]
                  for i in range(N)])
    K += hyper.sigma ** 2 * np.eye(N)
    inv = np.linalg.inv(K)
    return (
        -np.trace(z.T @ inv @ z)
        - q * np.log(np.linalg.det(K))
        - 0.5 * q * N * np.log(2 * np.pi)
    )


@dataclass(frozen=True)
class AnalyticManifold:
    """Closed-form distance oracle for a handful of simple shapes."""

    kind: str
    params: tuple[float, ...]

    def distances(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "circle":
            (r,) = self.params
            ring = np.hypot(pts[:, 0], pts[:, 1]) - r
            rest = np.sum(pts[:, 2:] ** 2, axis=1)
            return np.sqrt(ring ** 2 + rest)
        if self.kind == "sphere":
            (r,) = self.params
            return np.abs(np.linalg.norm(pts, axis=1) - r)
        if self.kind == "torus":
            R, r = self.params
            spine = np.sqrt(
                (np.hypot(pts[:, 0], pts[:, 1]) - R) ** 2 + pts[:, 2] ** 2
            )
            return np.abs(spine - r)
        if self.kind == "plane":
            (d,) = self.params
            return np.linalg.norm(pts[:, int(d) :], axis=1)
        raise ValueError(f"unsupported shape: {self.kind}")


def circle(r: float) -> AnalyticManifold:
    """Circle of radius r in the span of the first two coordinates."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return AnalyticManifold("circle", (r,))


def sphere(r: float) -> AnalyticManifold:
    if r <= 0:
        raise ValueError("radius must be positive")
    return AnalyticManifold("sphere", (r,))


def torus(R: float, r: float) -> AnalyticManifold:
    if R <= 0 or r <= 0 or r >= R:
        raise ValueError("need 0 < r < R")
    return AnalyticManifold("torus", (R, r))


def plane(d: int) -> AnalyticManifold:
    """Coordinate plane spanned by the first d axes."""
    if d < 1:
        raise ValueError("plane dimension must be >= 1")
    return AnalyticManifold("plane", (float(d),))


def grmse_analytic(eval_set, manifold):
    """GRMSE against an analytic surface instead of a reference set."""
    if eval_set.n == 0:
        raise ValueError("evaluation set is empty")
    d = manifold.distances(eval_set.points)
    return GrmseReport(value=float(np.sqrt(np.mean(d ** 2))),
                       per_point_distances=d)


def interpolate_full_scan(trace, config, K, seed=0):
    """mrgap's interpolate with the glue rows of each chart found by
    scanning every point produced so far; returns the (n K, D) points.

    The charts, samples and posterior means come from mrgap itself, so the
    result must equal interpolate's bitwise.
    """
    cloud = trace.clouds[-2]
    hyper = trace.hypers[-1]
    d = config.intrinsic_dim
    seeds = np.random.SeedSequence(seed).generate_state(cloud.n, dtype=np.uint64)
    accumulated = np.empty((0, cloud.ambient_dim))
    charts = build_charts(cloud, config.epsilon, config.delta, d)
    for k, chart in enumerate(charts):
        center, radius = estimate_domain_ball(chart.predictors)
        test_u = sample_ball_uniform(center, radius, K, int(seeds[k]))
        rel = accumulated - chart.base
        rel = rel[np.linalg.norm(rel, axis=1) <= config.delta]
        w_glue = rel @ chart.U
        mean, _ = gp.predictive(
            np.vstack([chart.predictors, w_glue]),
            np.vstack([chart.responses, rel - w_glue @ chart.U.T]),
            test_u, hyper)
        new = chart.base + test_u @ chart.U.T + mean
        accumulated = np.vstack([accumulated, new])
    return accumulated


def _single(train_w, train_z, hyper):
    train_w = np.atleast_2d(np.asarray(train_w, dtype=float))
    train_z = np.atleast_2d(np.asarray(train_z, dtype=float))
    if train_w.shape[0] < 1:
        raise ValueError("need at least one training point")
    # A one-chart stack: predictors train_w on the first d axes, responses
    # train_z on the q after them.
    (N, d), q = train_w.shape, train_z.shape[1]
    chart = ChartRegression(
        base=np.zeros(d + q), U=np.eye(d + q)[:, :d], predictors=train_w,
        responses=np.hstack([np.zeros((N, d)), train_z]),
        member_indices=np.arange(N))
    stack = gp._ChartStack([chart])
    return gp._value_grad(stack.stats(hyper.rho, hyper.sigma ** 2 / hyper.A),
                          hyper.A)


def log_marginal(train_w, train_z, hyper):
    """Un-halved log marginal likelihood of the responses, with q the
    width of train_z: give it normal coordinates, not a chart's ambient
    residuals."""
    return float(_single(train_w, train_z, hyper)[0])


def log_marginal_gradient(train_w, train_z, hyper):
    """Gradient of log_marginal with respect to (log A, log rho, log sigma)."""
    _, g = _single(train_w, train_z, hyper)
    # s = sigma^2 / A: d/dlog A at fixed sigma picks up -d/dlog s.
    return np.array([g[0] - g[2], g[1], 2.0 * g[2]])


def joint_log_marginal(charts, hyper):
    """Sum of per-chart log marginal likelihoods under shared hyperparameters."""
    if not charts:
        raise ValueError("charts list is empty")
    stack = gp._ChartStack(charts)
    st = stack.stats(hyper.rho, hyper.sigma ** 2 / hyper.A)
    return float(gp._value_grad(st, hyper.A)[0])


def default_init(charts):
    """Scale-aware starting point: A from response variance, rho from
    predictor spread, sigma at a tenth of the signal scale."""
    var_sum, var_cnt = 0.0, 0
    sq_all = []
    for chart in charts:
        var_sum += float(np.sum(chart.responses ** 2))
        var_cnt += chart.responses.shape[0] * chart.codim
        w = chart.predictors
        if w.shape[0] > 1:
            sq = cdist(w, w, "sqeuclidean")
            sq_all.append(sq[np.triu_indices_from(sq, k=1)])
    # Degenerate charts keep the data's units: a zero median falls back to
    # the largest squared distance, 1 only when all predictors coincide,
    # and all-zero responses start at A = rho.
    sq = np.concatenate(sq_all) if sq_all else np.zeros(0)
    rho = float(np.median(sq)) if sq.size else 0.0
    if rho == 0.0:
        rho = float(np.max(sq)) if sq.size and np.max(sq) > 0 else 1.0
    A = var_sum / var_cnt
    if A == 0.0:
        A = rho
    return gp.GpHyperParams(A=A, rho=rho, sigma=0.1 * np.sqrt(A))


def five_start_fit(charts, init=None):
    """The joint fit searched the plain way: L-BFGS-B over (log rho, log s)
    on every chart, from the init and from rho x10, /10 and s x100, /100,
    in the same boxes as gp.fit_hyperparams, keeping the best point
    evaluated.  Returns that point and, per start, the scaled log
    likelihood its run ended at."""
    stack = gp._ChartStack(charts)
    init = init or gp._default_start(charts)
    init = gp.GpHyperParams(init.A, init.rho, max(
        init.sigma, float(np.sqrt(gp.S_FLOOR * init.A))))
    qN = stack.q * stack.N
    span = np.exp([-gp._LOG_SPAN, gp._LOG_SPAN])
    best = [np.inf, None]

    def neg(theta):
        rho, s = np.exp(theta)
        try:
            st = stack.stats(rho, s)
        except gp.FactorizationError:
            return np.inf, np.zeros(2)
        A = float(np.clip(st.T / qN, *(init.A * span)))
        value, grad = gp._value_grad(st, A)
        if -value / qN < best[0]:
            best[:] = -value / qN, gp.GpHyperParams(A, rho, np.sqrt(s * A))
        return -value / qN, -grad[1:] / qN

    t0 = np.log([init.rho, init.sigma ** 2 / init.A])
    bounds = [np.log(init.rho * span), (np.log(gp.S_FLOOR), -np.log(gp.S_FLOOR))]
    ends = []
    for dt in ([0, 0], [np.log(10), 0], [-np.log(10), 0],
               [0, np.log(100)], [0, -np.log(100)]):
        res = minimize(neg, t0 + dt, jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": 200})
        ends.append(-float(res.fun))
    if best[1] is None:
        raise gp.FactorizationError("no point the fit evaluated factored")
    return best[1], ends


def sandwich_gap_check(eval_set, reference_on_manifold, analytic_manifold, r):
    """Sandwich inequality between sample-based and analytic GRMSE.

    Checks GRMSE(Y, M) <= GRMSE(Y, ref) and
    GRMSE(Y, ref)^2 - 2 r GRMSE(Y, M) - r^2 <= GRMSE(Y, M)^2 for a
    caller-supplied empirical covering radius r of the reference sample.
    """
    if r <= 0:
        raise ValueError("covering radius must be positive")
    ref_d = analytic_manifold.distances(reference_on_manifold.points)
    if np.max(ref_d) > 1e-8:
        raise ValueError(
            f"reference is not on the manifold (max deviation {np.max(ref_d):g})"
        )
    g_m = grmse_analytic(eval_set, analytic_manifold).value
    g_ref = grmse(eval_set, reference_on_manifold).value
    upper_ok = g_m <= g_ref + 1e-12
    lower_ok = g_ref ** 2 - 2.0 * r * g_m - r ** 2 <= g_m ** 2 + 1e-12
    diag = {
        "grmse_manifold": g_m,
        "grmse_reference": g_ref,
        "covering_radius": r,
        "upper_ok": upper_ok,
        "lower_ok": lower_ok,
    }
    return bool(upper_ok and lower_ok), diag
