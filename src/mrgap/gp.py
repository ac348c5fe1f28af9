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
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .local_geometry import ChartRegression

SIGMA_FLOOR = 1e-9
_LOG_2PI = np.log(2.0 * np.pi)
# Bound on |log A| for the profiled maximizer A*; with SIGMA_FLOOR it also
# bounds log s.
_LOG_A_BOUND = 40.0
# Cholesky jitter levels relative to the kernel scale A; the noise-free Gram
# of duplicate predictors is exactly singular, so some jitter is routinely
# needed when sigma is tiny.
_JITTERS = np.concatenate([[0.0], 10.0 ** np.arange(-12, -5)])
# exp(_EXP_MIN) is half an ulp of 1; smaller kernel entries are set to 0.
_EXP_MIN = np.log(0.5 * np.finfo(float).eps)
# Charts are padded to a multiple of _BUCKET rows so that a few stacks hold
# them.  A stack holds at most _STACK_ELEMS entries per matrix array: one
# stack per size measured ~30% slower per evaluation on the torus, most
# likely from page-faulting its larger temporaries in again each time.
_BUCKET = 8
_STACK_ELEMS = 2 ** 15


class FactorizationError(RuntimeError):
    """Gram factorization failed even after jitter escalation."""


class OptimizationError(RuntimeError):
    """Hyperparameter optimization failed from every start."""


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


@dataclass(frozen=True)
class PredictiveGaussian:
    """Posterior over m test points shared across q output dimensions."""

    mean: np.ndarray  # (m, q)
    covariance: np.ndarray  # (m, m)


def gram(points: np.ndarray, hyper: GpHyperParams) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _cross_gram(points, points, hyper)


def _cross_gram(a: np.ndarray, b: np.ndarray, hyper: GpHyperParams) -> np.ndarray:
    """A exp(-||a_i - b_j||^2 / rho), built in place in one buffer."""
    K = cdist(a, b, "sqeuclidean")
    np.negative(K, out=K)
    K /= hyper.rho
    np.exp(K, out=K)
    K *= hyper.A
    return K


def _diagonal(M: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (B, n, n) stack."""
    n = M.shape[-1]
    return M.reshape(M.shape[0], n * n)[:, :: n + 1]


def _cholesky_stack(M: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (B, n, n) stack of symmetric matrices
    scaled to a unit kernel diagonal.

    If the stack does not factor, _factor factors each matrix on its own,
    with jitter on its real rows only (real is a (B, n) 0/1 array), so the
    other matrices of the stack keep none.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return np.stack([_factor(lambda b=b: M[b].copy(), real[b])
                         for b in range(M.shape[0])])


def _inner(X: np.ndarray, Y: np.ndarray) -> float:
    """sum(X * Y), deliberately without BLAS.

    OpenBLAS runs a dot product of more than ~10^4 entries on all its
    threads, and their idle spinning afterwards halved the speed of the
    fit on two cores, where SciPy's BLAS threads spin as well.
    """
    return float(np.einsum("i,i->", X.ravel(), Y.ravel()))


def _lower_inverse(L: np.ndarray, b: int = _BUCKET) -> np.ndarray:
    """Inverses of a (B, n, n) stack of lower-triangular matrices, n a
    multiple of b, by block forward substitution.

    Batched matmuls run several times faster than np.linalg.inv, which
    does one small LU factorization per matrix.  Diagonal b x b blocks are
    inverted together, by the same substitution with b = 1.
    """
    B, n, _ = L.shape
    m = n // b
    idx = np.arange(m)
    D = L.reshape(B, m, b, m, b)[:, idx, :, idx, :]  # (m, B, b, b)
    if b == 1:
        D_inv = 1.0 / D
    else:
        D_inv = _lower_inverse(D.reshape(m * B, b, b), 1).reshape(m, B, b, b)
    X = np.zeros_like(L)
    for i in range(m):
        rows, done = slice(i * b, (i + 1) * b), slice(0, i * b)
        X[:, rows, rows] = D_inv[i]
        if i:
            X[:, rows, done] = -D_inv[i] @ (L[:, rows, done] @ X[:, done, done])
    return X


def _factor(build, scale) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix build() returns.

    A matrix that does not factor gets diagonal jitter level * scale, the
    level escalating tenfold from 1e-12 to 1e-6; scale is the kernel scale
    A, or one value per row (0 on rows that take no jitter).

    Each attempt factors a new matrix from build() in place, since a failed
    attempt leaves its buffer partly overwritten.  SciPy's, like the solves
    that follow it: NumPy and SciPy each bring their own threaded BLAS, and
    alternating between the two made each call several times slower on two
    cores.
    """
    for level in _JITTERS:
        K = build()
        if level:
            K[np.diag_indices_from(K)] += level * scale
        try:
            # K is symmetric: K.T is K in the column-major order LAPACK
            # factors in place.
            return cholesky(K.T, lower=True, overwrite_a=True,
                            check_finite=False)
        except np.linalg.LinAlgError:
            pass
    n = np.count_nonzero(np.broadcast_to(scale, K.shape[:1]))
    raise FactorizationError(
        f"Cholesky failed for {n}x{n} system at max jitter "
        f"{_JITTERS[-1] * np.max(scale):g}"
    )


def predictive(
    train_w: np.ndarray,
    train_z: np.ndarray,
    test_u: np.ndarray,
    hyper: GpHyperParams,
) -> PredictiveGaussian:
    """Posterior mean and covariance at test inputs by block conditioning."""
    train_w = np.atleast_2d(np.asarray(train_w, dtype=float))
    train_z = np.atleast_2d(np.asarray(train_z, dtype=float))
    test_u = np.atleast_2d(np.asarray(test_u, dtype=float))
    m = test_u.shape[0]
    s4 = gram(test_u, hyper)
    if train_w.shape[0] == 0:
        return PredictiveGaussian(
            mean=np.zeros((m, train_z.shape[1])), covariance=s4
        )
    if train_w.shape[0] != train_z.shape[0]:
        raise ValueError("training inputs and responses disagree in count")

    def train_cov():
        K = gram(train_w, hyper)
        K[np.diag_indices_from(K)] += hyper.sigma ** 2
        return K

    L = _factor(train_cov, hyper.A)
    s3 = _cross_gram(test_u, train_w, hyper)
    # The solves take the m columns of s3^T, never the q of the responses,
    # which may be hundreds: mean = W^T z with W = K^-1 s3^T, and
    # cov = s4 - V^T V with V = L^-1 s3^T.  Both products use SciPy's BLAS,
    # as _factor does, for the reason given there; train_z.T and the
    # solves' results are Fortran-ordered, so dgemm copies neither.
    V = solve_triangular(L, s3.T, lower=True, check_finite=False)
    W = solve_triangular(L, V, lower=True, trans="T", check_finite=False)
    mean = dgemm(1.0, train_z.T, W).T
    cov = dgemm(-1.0, V, V, beta=1.0, c=s4, trans_a=True)
    cov = 0.5 * (cov + cov.T)
    d = np.diag(cov).copy()
    np.fill_diagonal(cov, np.clip(d, 0.0, None))
    return PredictiveGaussian(mean=mean, covariance=cov)


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
    """The non-empty charts of a joint fit, grouped by size rounded up to a
    multiple of _BUCKET, each size split into stacks of at most
    _STACK_ELEMS entries per matrix array.  q is the count of response
    dimensions: a chart's codim, not the D columns of its residuals."""

    def __init__(self, pairs: list[tuple[np.ndarray, np.ndarray]], q: int):
        pairs = [(w, z) for w, z in pairs if w.shape[0]]
        if len({z.shape[1] for _, z in pairs}) > 1:
            raise ValueError("charts disagree in response dimension")
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
        a tenth of the signal scale."""
        # One buffer, filled bucket by bucket and partitioned in place: a
        # list of pieces, their concatenation and median's copy, all next
        # to the stack, raised the torus fit's peak memory by ~1 MB.
        sq, at = np.empty(self.pair_count), 0
        for b in self.buckets:
            i, j = np.triu_indices(b.sq.shape[1], k=1)
            real = b.real > 0
            v = b.sq[:, i, j][real[:, i] & real[:, j]]
            sq[at:at + v.size], at = v, at + v.size
        rho = float(np.median(sq, overwrite_input=True)) if sq.size else 1.0
        A = max(self.zz / (self.q * self.N), 1e-12)
        return GpHyperParams(A=A, rho=max(rho, 1e-12), sigma=0.1 * np.sqrt(A))

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
            _diagonal(M)[...] += s * b.real + (1.0 - b.real)
            L = _cholesky_stack(M, b.real)
            logdet += 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
            Linv = _lower_inverse(L)
            Minv = np.matmul(Linv.transpose(0, 2, 1), Linv)
            alpha = Minv @ b.R
            T += _inner(b.R, alpha)
            U += (_inner(G @ alpha, alpha), _inner(alpha, alpha))
            V += (_inner(G, Minv), _inner(_diagonal(Minv), b.real))
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


def fit_hyperparams(
    charts: list[ChartRegression],
    init: GpHyperParams | None = None,
) -> GpHyperParams:
    """Maximize the joint log marginal likelihood over (A, rho, sigma).

    A is profiled out; L-BFGS searches (log rho, log s), s = sigma^2 / A,
    from the init (by default the chart stack's default_start) and from
    rho x10, /10 and s x100, /100.
    Deterministic, and the returned point is never worse than the init
    nor than any start's optimum.
    """
    if not charts:
        raise ValueError("charts list is empty")
    stack = _ChartStack.of_charts(charts)
    if not stack.N:
        raise OptimizationError("all charts are empty")
    init = init or stack.default_start()
    init = GpHyperParams(init.A, init.rho, max(init.sigma, SIGMA_FLOOR))
    # Scaled by qN so that the optimizer's tolerances do not depend on the
    # data size: unscaled, starts stopped after two evaluations at rho -> 0.
    qN = stack.q * stack.N

    last: dict = {}

    def profiled(theta) -> tuple[_Stats, float]:
        """Statistics at theta and the maximizing A within its bounds.  The
        last point is kept: L-BFGS usually returns the point it evaluated
        last."""
        key = tuple(theta)
        if key not in last:
            rho, s = np.exp(theta)
            st = stack.stats(rho, s)
            A = float(np.clip(st.T / qN, np.exp(-_LOG_A_BOUND),
                              np.exp(_LOG_A_BOUND)))
            last.clear()
            last[key] = st, A
        return last[key]

    def neg(theta):
        try:
            st, A = profiled(theta)
        except FactorizationError:
            return np.inf, np.zeros(2)
        # At a clamped A this is the full likelihood, else the profiled one
        # (whose gradient the envelope theorem makes the fixed-A gradient).
        value, grad = _value_grad(st, A)
        return -value / qN, -grad[1:] / qN

    def scaled(hyper: GpHyperParams) -> float:
        try:
            st = stack.stats(hyper.rho, hyper.sigma ** 2 / hyper.A)
        except FactorizationError:
            return -np.inf
        return _value_grad(st, hyper.A)[0] / qN

    t0 = np.log([init.rho, init.sigma ** 2 / init.A])
    starts = [t0]
    for i, shift in ((0, np.log(10.0)), (1, np.log(100.0))):
        for sign in (-1.0, 1.0):
            t = t0.copy()
            t[i] += sign * shift
            starts.append(t)
    bounds = [(-40.0, 40.0),
              (2.0 * np.log(SIGMA_FLOOR) - _LOG_A_BOUND, 3.0 * _LOG_A_BOUND)]

    best, best_val = init, scaled(init)
    for t in starts:
        res = minimize(neg, t, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 200})
        if not np.isfinite(res.fun):
            continue
        st, A = profiled(res.x)
        sigma = float(np.sqrt(st.s * A))
        hyper = GpHyperParams(A=A, rho=float(np.exp(res.x[0])),
                              sigma=max(sigma, SIGMA_FLOOR))
        # The sigma floor moves the point off the optimizer's value.
        val = -res.fun if sigma >= SIGMA_FLOOR else scaled(hyper)
        if val > best_val:
            best, best_val = hyper, val
    if not np.isfinite(best_val):
        raise OptimizationError("factorization failed from every start")
    return best
