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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtrtri
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .local_geometry import ChartRegression

# s = sigma^2 / A stays in [S_FLOOR, 1 / S_FLOOR]: sigma >= 1e-5 sqrt(A).
# Rounding perturbs an N x N unit-diagonal Gram by about N ulps in norm,
# 3 to 5 orders below this floor for the charts seen, so M = K0 + s I
# factors without jitter, also where predictors repeat.
S_FLOOR = 1e-10
_LOG_2PI = np.log(2.0 * np.pi)
# The fit keeps rho and the profiled A* within e^(+-_LOG_SPAN) of the
# start's rho and A, so that its search box scales with the data.
_LOG_SPAN = 40.0
# exp(_EXP_MIN) is half an ulp of 1; smaller kernel entries are set to 0.
_EXP_MIN = np.log(0.5 * np.finfo(float).eps)
# Charts are padded to a multiple of _BUCKET rows, grouping them into
# stacks of at most _STACK_ELEMS entries per matrix array: one stack per
# size measured ~30% slower per torus evaluation, likely from page faults.
_BUCKET = 8
_STACK_ELEMS = 2 ** 15
# The fit's Newton finish: the forward-difference step of its Hessian in
# (log rho, log s), the rise in f (relative to 1 + |f|) it takes for
# rounding, the step length below which it stops, and its most steps.
_PROBE = 1e-6
_ROUNDING = 1e-13
_NEWTON_TOL = 1e-9
_NEWTON_STEPS = 10


class FactorizationError(RuntimeError):
    """A covariance matrix did not factor: it is not positive definite."""


@dataclass(frozen=True)
class GpHyperParams:
    """Signal variance A, squared-exponential length parameter rho, noise sigma."""

    A: float
    rho: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.A < np.inf or not 0 < self.rho < np.inf:
            raise ValueError("A and rho must be finite and positive")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative")


def _cross_gram(a: np.ndarray, b: np.ndarray, hyper: GpHyperParams) -> np.ndarray:
    """A exp(-||a_i - b_j||^2 / rho), built in place in one buffer."""
    K = cdist(a, b, "sqeuclidean")
    np.negative(K, out=K)
    K /= hyper.rho
    np.exp(K, out=K)
    K *= hyper.A
    return K


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
    """Posterior mean (m, q) and variance (m,), GPML eqs. 2.25-2.26.

    The noise variance is at least S_FLOOR * A, so that sigma = 0 works:
    with repeated predictors the posterior is that of the distinct ones.
    """
    K = _cross_gram(train_w, train_w, hyper)
    K[np.diag_indices_from(K)] += max(hyper.sigma ** 2, S_FLOOR * hyper.A)
    try:
        # K is symmetric: K.T is K in the column-major order LAPACK
        # factors in place.
        L = cholesky(K.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        n = len(K)
        raise FactorizationError(f"Cholesky failed for {n}x{n} system") from exc
    s3 = _cross_gram(test_u, train_w, hyper)
    # The solves take the m columns of s3^T, never the q of the responses,
    # which may be hundreds: mean = W^T z with W = K^-1 s3^T, and
    # variance = A - colsum(V o V) with V = L^-1 s3^T.  The factorization,
    # solves and product are SciPy's: NumPy and SciPy each bring their own
    # threaded BLAS, and alternating between the two made each call several
    # times slower on two cores.  train_z.T and W are Fortran-ordered, so
    # dgemm copies neither.
    V = solve_triangular(L, s3.T, lower=True, check_finite=False)
    W = solve_triangular(L, V, lower=True, trans="T", check_finite=False)
    mean = dgemm(1.0, train_z.T, W).T
    variance = np.clip(hyper.A - np.einsum("ij,ij->j", V, V), 0.0, None)
    return mean, variance


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


@dataclass(frozen=True)
class _Bucket:
    """Charts of one padded size n.  Padding rows carry an identity block
    of M and zero responses, so they add nothing to any statistic."""

    sq: np.ndarray  # (B, n, n) squared predictor distances, inf in padding
    real: np.ndarray  # (B, n) 1 on real rows, 0 on padding
    R: np.ndarray  # (B, n, r) with R R^T = Z Z^T, 0 in padding

    @classmethod
    def of(cls, n: int, pairs: list[tuple[np.ndarray, np.ndarray]]) -> "_Bucket":
        width = pairs[0][1].shape[1]
        sq = np.full((len(pairs), n, n), np.inf)
        real = np.zeros((len(pairs), n))
        R = np.zeros((len(pairs), n, min(width, n)))
        for b, (w, z) in enumerate(pairs):
            m = w.shape[0]
            sq[b, :m, :m] = cdist(w, w, "sqeuclidean")
            real[b, :m] = 1.0
            r = np.linalg.qr(z.T, mode="r").T  # r r^T = z z^T
            R[b, :m, : r.shape[1]] = r
        return cls(sq, real, R)


class _ChartStack:
    """The charts of a joint fit, each holding at least its base's row,
    grouped by size rounded up to a multiple of _BUCKET, each size split
    into stacks of at most _STACK_ELEMS entries per matrix array.  q is
    the count of response dimensions: a chart's codim, not the D columns
    of its residuals."""

    def __init__(self, pairs: list[tuple[np.ndarray, np.ndarray]], q: int):
        self.q = q
        self.zz = 0.0  # sum of |Z_k|^2, added in chart order
        for _, z in pairs:
            self.zz += float(np.sum(z ** 2))
        sizes = np.array([w.shape[0] for w, _ in pairs])
        self.N = int(sizes.sum())
        self.pair_count = int(np.sum(sizes * (sizes - 1) // 2))
        padded = -(-sizes // _BUCKET) * _BUCKET
        self.buckets = []
        for n in np.unique(padded):
            same = np.flatnonzero(padded == n)
            per_stack = max(1, _STACK_ELEMS // (n * n))
            for start in range(0, len(same), per_stack):
                self.buckets.append(
                    _Bucket.of(n, [pairs[i] for i in same[start:start + per_stack]])
                )

    @classmethod
    def of_charts(cls, charts: list[ChartRegression]) -> "_ChartStack":
        return cls([(c.predictors, c.responses) for c in charts],
                   charts[0].codim)

    def default_start(self) -> GpHyperParams:
        """Scale-aware starting point: A the mean square response, rho the
        median squared distance between two predictors of a chart, sigma
        a tenth of the signal scale.  A zero median falls back to the
        largest distance, then to 1, and zero responses to A = rho."""
        # One buffer, filled bucket by bucket and partitioned in place: a
        # list of pieces, their concatenation and median's copy, all next
        # to the stack, raised the torus fit's peak memory by ~1 MB.
        sq, at = np.empty(self.pair_count), 0
        for b in self.buckets:
            i, j = np.triu_indices(b.sq.shape[1], k=1)
            real = b.real > 0
            v = b.sq[:, i, j][real[:, i] & real[:, j]]
            sq[at:at + v.size], at = v, at + v.size
        rho = float(np.median(sq, overwrite_input=True)) if sq.size else 0.0
        rho = rho or float(sq.max(initial=0.0)) or 1.0
        A = self.zz / (self.q * self.N) or rho
        return GpHyperParams(A=A, rho=rho, sigma=0.1 * np.sqrt(A))

    def stats(self, rho: float, s: float) -> _Stats:
        T = logdet = 0.0
        U = np.zeros(2)
        V = np.zeros(2)
        for b in self.buckets:
            # Kernel entries below half an ulp of the unit diagonal, and the
            # padding, are set to 0: subnormal results would slow exp and
            # every product after it several times over.
            G = b.sq * (-1.0 / rho)
            np.maximum(G, _EXP_MIN, out=G)
            M = np.exp(G)
            M *= G > _EXP_MIN
            G *= M
            G *= -1.0  # dM/dlog rho
            np.einsum("bii->bi", M)[...] += s * b.real + (1.0 - b.real)
            # M^-1 = L^-T L^-1, each stacked factor L inverted by dtrtri.
            try:
                L = np.linalg.cholesky(M)
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    f"Cholesky failed in a stack of {b.sq.shape[1]}-row charts"
                ) from exc
            logdet += 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
            Linv = np.empty_like(L)
            for k, l in enumerate(L):
                Linv[k], info = dtrtri(l, lower=1)
                if info:
                    raise FactorizationError(f"dtrtri failed with info {info}")
            Minv = np.matmul(Linv.transpose(0, 2, 1), Linv)
            alpha = Minv @ b.R
            T += _inner(b.R, alpha)
            U += (_inner(G @ alpha, alpha), _inner(alpha, alpha))
            V += (_inner(G, Minv), _inner(np.einsum("bii->bi", Minv), b.real))
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
        span = np.exp([-_LOG_SPAN, _LOG_SPAN])
        self.A_box = init.A * span
        self.bounds = [np.log(init.rho * span),
                       (np.log(S_FLOOR), -np.log(S_FLOOR))]
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
    default the chart stack's default_start): rho within e^(+-40) of its
    rho, A* within e^(+-40) of its A, and s in [S_FLOOR, 1 / S_FLOOR].
    So c X fits c^2 A, c^2 rho and c sigma.

    The screen runs L-BFGS-B from the init and from rho x10, /10 and
    s x100, /100 on the charts of _net.  On all charts the fit then
    scores the init, polishes the screen's best point with one L-BFGS-B
    run, and takes Newton steps from the best point scored there.  So
    the result is never worse than the init by more than rounding, and
    its gradient, not a stopping rule, fixes it: the order of the charts
    moves it by rounding only.  It raises FactorizationError if no point
    evaluated on all charts factors.  Deterministic.  The charts are
    those of build_charts: at least one, each holding a row.
    """
    stack = _ChartStack.of_charts(charts)
    init = init or stack.default_start()
    init = GpHyperParams(init.A, init.rho,
                         max(init.sigma, float(np.sqrt(S_FLOOR * init.A))))
    t0 = np.log([init.rho, init.sigma ** 2 / init.A])
    screen = _Search(_ChartStack.of_charts(_net(charts)), init)
    for t in [t0] + [t0 + sign * step for step in np.diag(np.log([10.0, 100.0]))
                     for sign in (-1.0, 1.0)]:
        screen.lbfgs(t)
    winner = t0 if screen.best[1] is None else screen.best[1]
    full = _Search(stack, init)
    if not np.array_equal(winner, t0):
        full(t0)
    full.lbfgs(winner)
    if full.best[3] is None:
        raise FactorizationError("no point the fit evaluated factored")
    return full.newton()
