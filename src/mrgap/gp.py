"""Squared-exponential GP machinery shared by denoising and interpolation.

One (A, rho, sigma) triple is fitted jointly across all local charts by
maximizing the summed log marginal likelihood.  The likelihood is kept in
the un-halved scaling

    -tr(Z^T K^-1 Z) - q log det K - (qN/2) log 2pi,   K = Sigma_1 + sigma^2 I,

whose maximizer coincides with the conventional -1/2 form.

Every likelihood value and gradient comes from one batched kernel,
``_ChartStack.stats``.  Writing K = A M with M = K0 + s I, K0 the
unit-variance Gram and s = sigma^2 / A, the likelihood of all charts is

    L = -T/A - q N log A - q log det M - (qN/2) log 2pi,

with T = sum_k tr(M_k^-1 P_k) and P_k = Z_k Z_k^T.  For fixed (rho, s) it
is maximized by A* = T / (qN) (the profile likelihood, Rasmussen &
Williams, GPML ch. 5), so the fit searches (log rho, log s) only.  P_k is
kept as a factor R_k R_k^T with at most N_k columns, computed once per
fit, so an evaluation costs no more for q = 700 than for q = N_k.

The fit chooses the basin on a farthest-point net of the charts, a few
dozen of them spread over the cloud (the "subset of datapoints" of GPML
section 8.3), and then finishes on all charts, so its result is still an
optimum of the full joint likelihood: an L-BFGS-B polish, then Newton
steps on the analytic gradient.

A chart's responses are ambient residuals: D columns that span only its
q = D - d normal directions.  Z_k Z_k^T is the same in any orthonormal
basis of that space, so the likelihood uses them as they are, with the
chart's q (not D) as the count of response dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import cdist, pdist

from .local_geometry import ChartRegression
from .point_cloud import _check_real

# s = sigma^2 / A stays in [S_FLOOR, 1 / S_FLOOR]: sigma >= 1e-5 sqrt(A).
# Rounding perturbs an N x N unit-diagonal Gram by about N ulps in norm,
# 3 to 5 orders below this floor for the charts seen, so M = K0 + s I
# factors without jitter, also where predictors repeat.
S_FLOOR = 1e-10
_LOG_2PI = np.log(2.0 * np.pi)
# The fit keeps rho and the profiled A* within e^(+-_LOG_SPAN) of the
# start's rho and A, so that its search box scales with the data.
_LOG_SPAN = 40.0
# Charts of one size are stacked at most _STACK_ELEMS entries per matrix
# array.  On gen_torus(5000) with noise 0.12 (epsilon 0.4, delta 0.5) one
# stack per size took a median 700 ms per stats call against 597 ms, and
# its temporaries peaked at 45.6 MB against 1.8 MB.
_STACK_ELEMS = 2 ** 15
# The fit's Newton finish: the forward-difference step of its Hessian in
# (log rho, log s), the rise in f (relative to 1 + |f|) it takes for
# rounding, the step length below which it stops, and its most steps.
_PROBE = 1e-6
_ROUNDING = 1e-13
_NEWTON_TOL = 1e-9
_NEWTON_STEPS = 10


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on its first call.

    Importing scipy.optimize costs ~0.1 s and ~9 MB, which only a process
    that fits should pay: the dimension estimate, generate, interpolate
    and evaluate never reach it.  The fit calls it through this
    module-level name, so that is also where a tracer or a test spy
    replaces it.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **options)


class FactorizationError(RuntimeError):
    """A covariance matrix did not factor: it is not positive definite."""


@dataclass(frozen=True)
class GpHyperParams:
    """Signal variance A, squared-exponential length parameter rho, noise sigma."""

    A: float
    rho: float
    sigma: float

    def __post_init__(self):
        _check_real(self.A, "A")
        _check_real(self.rho, "rho")
        _check_real(self.sigma, "sigma", "nonnegative")
        if self.s == np.inf:
            raise ValueError(f"sigma^2 / A must be finite, got sigma={self.sigma!r}")

    @property
    def s(self) -> float:
        """max(sigma^2 / A, S_FLOOR): the noise added to the unit Gram K0.
        Python floats overflow to inf where sigma ** 2 would raise."""
        sigma = float(self.sigma)
        return max(sigma * sigma / float(self.A), S_FLOOR)


def _inner(X: np.ndarray, Y: np.ndarray) -> float:
    """sum(X * Y), deliberately without BLAS.

    OpenBLAS runs a dot product of more than ~10^4 entries on all its
    threads, and their idle spinning afterwards halved the speed of the
    fit on two cores, where SciPy's BLAS threads spin as well.
    """
    return float(np.einsum("i,i->", X.ravel(), Y.ravel()))


def predictive(
    train_w: np.ndarray,
    train_z: np.ndarray,
    test_u: np.ndarray,
    hyper: GpHyperParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean (m, q) and variance (m,), GPML eqs. 2.25-2.26, for
    K = A (K0 + s I), s = hyper.s: with sigma = 0 and repeated predictors
    it is the posterior of the distinct ones."""
    N = len(train_w)
    # Rows :N of the unit kernel block are K0, rows N: the cross kernel k.
    K = cdist(np.vstack([train_w, test_u]), train_w, "sqeuclidean")
    K *= -1.0 / hyper.rho
    np.exp(K, out=K)
    M, k = K[:N], K[N:]
    M[np.diag_indices(N)] += hyper.s
    try:
        # M is symmetric: M.T is M in the column order LAPACK factors in place.
        L = cholesky(M.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Cholesky failed for {N}x{N} system") from exc
    # The solves take the m columns of k^T, never the q of the responses,
    # which may be hundreds: mean = Z^T W with W = M^-1 k^T, and
    # variance = A (1 - colsum(V o V)) with V = L^-1 k^T.  The
    # factorization, solves and product are SciPy's: NumPy and SciPy each
    # bring their own threaded BLAS, and alternating between the two made
    # each call several times slower on two cores.  train_z.T and W are
    # Fortran-ordered, so dgemm copies neither.
    V = solve_triangular(L, k.T, lower=True, check_finite=False)
    W = solve_triangular(L, V, lower=True, trans="T", check_finite=False)
    mean = dgemm(1.0, train_z.T, W).T
    variance = hyper.A * np.clip(1.0 - np.einsum("ij,ij->j", V, V), 0.0, None)
    return mean, variance


def chart_points(chart: ChartRegression, u: np.ndarray, hyper: GpHyperParams,
                 extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chart's surface base + u U^T + mu(u) at tangent coordinates u
    (m, d), and the posterior variances (m,) there.

    mu is the posterior mean of the normal residuals, trained on the
    chart's own rows and on the points base + extra, extra an (r, D)
    array of ambient displacements split into tangent and normal parts
    as the chart's members are.  Denoising evaluates every chart at
    u = 0 with no extra rows; interpolation at sampled u, with the
    points of earlier charts as extra rows.
    """
    w = extra @ chart.U
    train_w = np.vstack([chart.predictors, w])
    train_z = np.vstack([chart.responses, extra - w @ chart.U.T])
    mean, variance = predictive(train_w, train_z, u, hyper)
    return chart.base + u @ chart.U.T + mean, variance


class _Stats(NamedTuple):
    """Sufficient statistics of the likelihood of a chart stack at (rho, s).

    U and V hold sum G o (M^-1 P M^-1) and sum G o M^-1 for the generators
    G = dM/dlog rho (index 0) and G = I (index 1).
    """

    T: float
    logdet: float
    U: np.ndarray
    V: np.ndarray
    s: float
    N: int
    q: int


def _default_start(charts: list[ChartRegression]) -> GpHyperParams:
    """Scale-aware starting point: A the mean square response, rho the
    median squared distance between two predictors of a chart, sigma a
    tenth of the signal scale.  A zero median falls back to the largest
    distance, then to 1 (in units of max |x|); zero responses give A = rho."""
    zz = 0.0  # sum of |Z_k|^2, added in chart order
    for c in charts:
        zz += float(np.sum(c.responses ** 2))
    sq = np.concatenate([pdist(c.predictors, "sqeuclidean") for c in charts])
    rho = float(np.median(sq, overwrite_input=True)) if sq.size else 0.0
    rho = rho or float(sq.max(initial=0.0)) or 1.0
    N = sum(c.predictors.shape[0] for c in charts)
    A = zz / (charts[0].codim * N) or rho
    return GpHyperParams(A=A, rho=rho, sigma=0.1 * np.sqrt(A))


class _ChartStack:
    """The charts of a joint fit, each holding at least its base's row,
    grouped by size n, each size split into stacks of at most
    _STACK_ELEMS entries per matrix array.  A stack is a pair (sq, R): the
    (B, n, n) squared predictor distances of its B charts and a (B, n, r)
    R with R R^T = Z Z^T.  q is the count of response dimensions: a
    chart's codim, not the D columns of its residuals."""

    def __init__(self, charts: list[ChartRegression]):
        self.q = charts[0].codim
        sizes = np.array([c.predictors.shape[0] for c in charts])
        self.N = int(sizes.sum())
        self.stacks = []
        for n in np.unique(sizes):
            same = np.flatnonzero(sizes == n)
            per_stack = max(1, _STACK_ELEMS // (n * n))
            for start in range(0, len(same), per_stack):
                group = [charts[i] for i in same[start:start + per_stack]]
                self.stacks.append((
                    np.stack([cdist(c.predictors, c.predictors, "sqeuclidean")
                              for c in group]),
                    np.stack([np.linalg.qr(c.responses.T, mode="r").T
                              for c in group]),
                ))

    def stats(self, rho: float, s: float) -> _Stats:
        T = logdet = 0.0
        U = np.zeros(2)
        V = np.zeros(2)
        for sq, R in self.stacks:
            # M = K0 + s I with K0 = exp(-sq / rho), formed as predictive does.
            G = sq * (-1.0 / rho)
            M = np.exp(G)
            G *= M
            G *= -1.0  # dM/dlog rho
            np.einsum("bii->bi", M)[...] += s
            # M^-1 = L^-T L^-1, each stacked factor L inverted by dtrtri.
            try:
                L = np.linalg.cholesky(M)
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    f"Cholesky failed in a stack of {sq.shape[1]}-row charts"
                ) from exc
            logdet += 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
            Linv = np.empty_like(L)
            for k, l in enumerate(L):
                Linv[k], info = dtrtri(l, lower=1)
                if info:
                    raise FactorizationError(f"dtrtri failed with info {info}")
            Minv = np.matmul(Linv.transpose(0, 2, 1), Linv)
            alpha = Minv @ R
            T += _inner(R, alpha)
            U += (_inner(G @ alpha, alpha), _inner(alpha, alpha))
            V += (_inner(G, Minv), float(np.einsum("bii->", Minv)))
        return _Stats(T, logdet, U, V, s, self.N, self.q)


def _value_grad(st: _Stats, A: float) -> tuple[float, np.ndarray]:
    """Un-halved log likelihood at signal variance A and its gradient in
    (log A, log rho, log s), each with the other two held fixed."""
    qN = st.q * st.N
    value = -st.T / A - qN * (np.log(A) + 0.5 * _LOG_2PI) - st.q * st.logdet
    grad = np.array([
        st.T / A - qN,
        st.U[0] / A - st.q * st.V[0],
        st.s * (st.U[1] / A - st.q * st.V[1]),
    ])
    return value, grad


def _net(charts: list[ChartRegression]) -> list[ChartRegression]:
    """A farthest-point net of the chart bases, in the order chosen: from
    the base farthest from their centroid, it adds the base farthest from
    the net until every base lies within the charts' reach, their largest
    member distance.  The charts' order and rigid motions leave it as it
    is, ties aside."""
    bases = np.array([c.base for c in charts])
    # A member's distance from its base is |(w, z)|: z is orthogonal to U.
    reach = np.sqrt(max(np.max(np.sum(c.predictors ** 2, axis=1)
                               + np.sum(c.responses ** 2, axis=1))
                        for c in charts))
    dist = np.full(len(charts), np.inf)
    k = int(np.argmax(np.linalg.norm(bases - bases.mean(axis=0), axis=1)))
    net = []
    while dist[k] > reach:
        net.append(charts[k])
        np.minimum(dist, np.linalg.norm(bases - bases[k], axis=1), out=dist)
        k = int(np.argmax(dist))
    return net


class _Search:
    """The fit's search on one chart stack, in theta = (log rho, log s),
    boxed around the init.  Its objective f is minus the log likelihood
    over qN at the profiled A*: scaled so that the optimizer's tolerances
    do not depend on the data size (unscaled, starts stopped after two
    evaluations at rho -> 0).  It keeps the last point it scored and the
    best, each as (f, theta, gradient of f, hyperparameters).  A later
    point is better only by more than rounding, so on a surface flat to
    rounding the first stays the best."""

    def __init__(self, stack: _ChartStack, init: GpHyperParams):
        self.stack, self.qN = stack, stack.q * stack.N
        log_rho, span = math.log(init.rho), math.exp(_LOG_SPAN)
        self.A_box = (init.A / span, init.A * span)
        self.bounds = [(log_rho - _LOG_SPAN, log_rho + _LOG_SPAN),
                       (math.log(S_FLOOR), -math.log(S_FLOOR))]
        self.last = self.best = (np.inf, None, None, None)

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        rho, s = np.exp(theta)
        try:
            st = self.stack.stats(rho, s)
        except FactorizationError:
            return np.inf, np.zeros(2)
        A = float(np.clip(st.T / self.qN, *self.A_box))
        # At a clamped A this is the full likelihood, else the profiled one
        # (whose gradient the envelope theorem makes the fixed-A gradient).
        value, grad = _value_grad(st, A)
        f, g = -value / self.qN, -grad[1:] / self.qN
        self.last = (f, np.array(theta), g,
                     GpHyperParams(A, float(rho), float(np.sqrt(s * A))))
        if self.best[3] is None or \
                f < self.best[0] - _ROUNDING * (1.0 + abs(self.best[0])):
            self.best = self.last
        return f, g

    def lbfgs(self, theta: np.ndarray) -> None:
        minimize(self, theta, jac=True, method="L-BFGS-B", bounds=self.bounds,
                 options={"maxiter": 200})

    def newton(self) -> GpHyperParams:
        """Newton steps from the best point, with the Hessian from forward
        differences of the gradient, each step clipped to the box.  A step
        is kept if f rises by no more than rounding.  The last point kept
        is returned once a step is refused or moves less than _NEWTON_TOL,
        or the Hessian is not positive definite: the gradient, not an
        f-based stopping rule, fixes it."""
        f0, theta, g, hyper = self.best
        for _ in range(_NEWTON_STEPS):
            probes = [self(theta + _PROBE * e) for e in np.eye(2)]
            H = (np.column_stack([p[1] for p in probes]) - g[:, None]) / _PROBE
            H = 0.5 * (H + H.T)
            if not np.isfinite(probes[0][0] + probes[1][0]) or \
                    np.linalg.eigvalsh(H)[0] <= 0:
                break
            new = np.clip(theta - np.linalg.solve(H, g),
                          *np.transpose(self.bounds))
            if not self(new)[0] <= f0 + _ROUNDING * (1.0 + abs(f0)):
                break
            moved = np.max(np.abs(new - theta))
            _, theta, g, hyper = self.last
            if moved < _NEWTON_TOL:
                break
        return hyper


def fit_hyperparams(
    charts: list[ChartRegression],
    init: GpHyperParams | None = None,
) -> GpHyperParams:
    """Maximize the joint log marginal likelihood over (A, rho, sigma).

    A is profiled out, and the search is over (log rho, log s), s =
    sigma^2 / A.  Each parameter's box is relative to the init (by
    default _default_start(charts)): rho within e^(+-40) of its
    rho, A* within e^(+-40) of its A, and s in [S_FLOOR, 1 / S_FLOOR].
    So c X fits c^2 A, c^2 rho and c sigma.

    The screen runs L-BFGS-B from the init and from rho x10, /10 and
    s x100, /100 on the charts of _net.  On all charts the fit then
    scores the init, polishes the screen's best point with one L-BFGS-B
    run, and takes Newton steps from the best point scored there.  So
    the result is never worse than the init by more than rounding, and
    its gradient, not a stopping rule, fixes it: the order of the charts
    moves it by rounding only.  It raises FactorizationError if no point
    evaluated on all charts factors.  Deterministic.  The charts are those
    of build_charts, at unit scale (denoiser._at_unit_scale).
    """
    init = init or _default_start(charts)
    t0 = np.log([init.rho, init.s])
    screen = _Search(_ChartStack(_net(charts)), init)
    for t in [t0] + [t0 + sign * step for step in np.diag(np.log([10.0, 100.0]))
                     for sign in (-1.0, 1.0)]:
        screen.lbfgs(t)
    winner = t0 if screen.best[1] is None else screen.best[1]
    full = _Search(_ChartStack(charts), init)
    if not np.array_equal(winner, t0):
        full(t0)
    full.lbfgs(winner)
    if full.best[3] is None:
        raise FactorizationError("no point the fit evaluated factored")
    return full.newton()
