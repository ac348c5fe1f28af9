"""Diffusion-map embedding and intrinsic-dimension estimation.

Noise inflates every eigenvalue of the raw local covariance matrices, so
the dimension is read off a diffusion-map re-embedding instead: embed the
cloud with the leading Laplacian eigenvectors, average the local
covariance spectra there, and look for the largest spectral-gap ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dspmv
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .point_cloud import PointCloud, _check_count, _check_real

# Bound on the entries of the arrays mean_local_eigenvalues builds for one
# block of points (16 MB of float64), its list of ball pairs aside.
_BLOCK_ENTRIES = 2 ** 21


class DimensionEstimateError(RuntimeError):
    """The dimension estimate has no answer: the cloud has fewer distinct
    points than the diffusion eigenpairs it needs, the eigensolver did not
    converge, or no embedding dimension had a nonzero local spectrum to
    vote with."""


@dataclass(frozen=True)
class DiffusionSpectrum:
    """Leading eigenpairs of minus the normalized graph Laplacian.

    Eigenvalues ascend from mu_0 ~ 0; eigenvectors are l2-normalized
    columns with deterministic signs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (n, ell + 1)


@dataclass(frozen=True)
class DimensionProfile:
    epsilons: list[float]
    lambda_bars: list[np.ndarray]
    estimated_dim: int


def _check_bandwidth(eps: float, name: str) -> None:
    """The rule for eps_dm and every local-PCA epsilon: _check_real's, and
    a square that neither underflows to 0 nor overflows, since the
    kernel divides by eps_dm ** 2.  A product of Python floats, unlike
    eps ** 2 or a product of NumPy scalars, neither raises nor warns."""
    _check_real(eps, name)
    eps = float(eps)
    if not 0 < eps * eps < np.inf:
        raise ValueError(f"{name} must be finite and positive, and its "
                         f"square a nonzero finite float")


def diffusion_embedding(
    cloud: PointCloud, eps_dm: float, ell: int
) -> DiffusionSpectrum:
    """First ell + 1 eigenpairs of -L in ascending order, L the
    density-normalized graph Laplacian (D^-1 W - I) / eps_dm^2.

    W is the Gaussian kernel matrix K with each entry divided by the
    product of its row and column kernel degrees q, and D holds the row
    sums of W.  D^-1 W is conjugate to S = D^-1/2 W D^-1/2 = C K C, C the
    diagonal of c = D^-1/2 q^-1.  Only the upper triangle of K is stored,
    in BLAS packed order (n(n+1)/2 float64, row i's entries i..n-1
    contiguous); S is never formed, since each product S x is
    c * (K (c * x)).  The leading eigenpairs (nu, phi) of S come from
    Lanczos iteration started from all ones, and -L has eigenvalues
    (1 - nu) / eps_dm^2 and eigenvectors D^-1/2 phi, l2-normalized.  Signs
    are fixed so each vector's largest-magnitude entry is positive.

    ell < n, as estimate_dimension, the one caller, checks.  Raises
    ValueError for a bad eps_dm or when n(n+1)/2 reaches 2^31 (the 32-bit
    BLAS index limit), and DimensionEstimateError when the cloud has fewer
    than ell + 1 distinct points: S then has rank below ell + 1, and the
    pairs beyond its rank would be an arbitrary basis of its null space.
    """
    n = cloud.n
    _check_bandwidth(eps_dm, "eps_dm")
    size = n * (n + 1) // 2
    if size >= 2 ** 31:
        raise ValueError(f"{n} points are too many: the packed kernel's "
                         f"n(n+1)/2 entries must be fewer than 2^31")
    k = ell + 1
    pts = cloud.points
    distinct = len(np.unique(pts, axis=0))
    if distinct < k:
        raise DimensionEstimateError(
            f"the cloud has {distinct} distinct points, fewer than the "
            f"{k} diffusion eigenpairs asked for"
        )
    # pdist puts row i's n - 1 - i distances that many entries past their
    # place after its diagonal entry d; moved in row order, none overlaps.
    K = np.empty(size)
    pdist(pts, "sqeuclidean", out=K[n:])
    d = 0
    for m in range(n - 1, -1, -1):
        K[d] = 0.0
        K[d + 1 : d + 1 + m] = K[d + 1 + m : d + 1 + 2 * m]
        d += 1 + m
    np.negative(K, out=K)
    K /= eps_dm ** 2
    np.exp(K, out=K)

    def kernel_times(x):
        # Row-major packed upper storage is BLAS's column-major packed lower.
        return dspmv(n, 1.0, K, x, lower=1)

    q = kernel_times(np.ones(n))
    s = 1.0 / np.sqrt(kernel_times(1.0 / q) / q)
    c = s / q
    S = LinearOperator((n, n), dtype=float,
                       matvec=lambda x: c * kernel_times(c * np.ravel(x)))
    if k < n:
        try:
            nu, phi = eigsh(S, k=k, which="LA", tol=0, v0=np.ones(n))
        except ArpackNoConvergence as exc:
            raise DimensionEstimateError(
                f"Lanczos iteration for {k} diffusion eigenpairs of {n} "
                f"points did not converge"
            ) from exc
    else:
        # ARPACK finds at most n - 1 pairs; all n come from the dense solver.
        nu, phi = np.linalg.eigh(S.matmat(np.eye(n)))
    order = np.argsort(nu)[::-1][:k]
    V = phi[:, order] * s[:, None]
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    flip = V[np.argmax(np.abs(V), axis=0), np.arange(k)] < 0
    V = np.where(flip, -V, V)
    mu = (1.0 - nu[order]) / eps_dm ** 2
    return DiffusionSpectrum(eigenvalues=mu, eigenvectors=V)


def mean_local_eigenvalues(cloud: PointCloud, epsilon: float) -> np.ndarray:
    """Descending local-covariance eigenvalues averaged over all points.

    The local covariance at y_k is (1/n) sum (y_i - y_k)(y_i - y_k)^T over
    the closed epsilon-ball, with the full sample size n as divisor.  One
    k-d tree query lists the candidate pairs as sorted int64 keys, 16 bytes
    a pair (32 while they are built); the exact distance tests them a block
    of points at a time, in arrays of at most _BLOCK_ENTRIES entries each,
    however many points a ball holds.  estimate_dimension checks epsilon.
    """
    pts = cloud.points
    n, D = pts.shape
    # Despite tree rounding, the slack keeps every pair the exact test accepts.
    pairs = cKDTree(pts).query_pairs(epsilon * (1.0 + 1e-9),
                                     output_type="ndarray")
    # Keys i n + j, each pair in both orders and each point with itself:
    # sorted, they list the balls in point order, members ascending.
    keys = np.empty(n + 2 * len(pairs), dtype=np.int64)
    keys[:n] = np.arange(n) * (n + 1)
    np.matmul(pairs, [[n, 1], [1, n]], out=keys[n:].reshape(-1, 2))
    del pairs
    keys.sort()
    acc = np.zeros(D)
    size = max(1, _BLOCK_ENTRIES // (n * D))  # a ball holds <= n points
    cuts = np.searchsorted(keys, np.arange(0, n + size, size) * n)
    for start, lo, hi in zip(range(0, n, size), cuts, cuts[1:]):
        rows, members = np.divmod(keys[lo:hi], n)
        diff = pts[members] - pts[rows]
        keep = np.linalg.norm(diff, axis=1) <= epsilon
        rows, diff = rows[keep] - start, diff[keep]
        # The ball members of each point, zero-padded to one stack.
        counts = np.bincount(rows, minlength=min(size, n - start))
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        X = np.zeros((len(counts), counts.max(), D))
        X[rows, slot] = diff
        C = np.matmul(X.transpose(0, 2, 1), X) / n
        acc += np.clip(np.linalg.eigvalsh(C)[:, ::-1], 0.0, None).sum(axis=0)
    return acc / n


GAP_DAMPING = 0.05


def _gap_index(lam: np.ndarray) -> int | None:
    """1-based index of the largest damped ratio
    lambda_i / (lambda_{i+1} + eta * lambda_1), or None when the spectrum
    is all zero and has no gap.

    The damping term keeps ratios between two already-negligible tail
    eigenvalues from outscoring the drop after the last large one.
    """
    if not lam[0] > 0.0:
        return None
    ratios = lam[:-1] / (lam[1:] + GAP_DAMPING * lam[0])
    return int(np.argmax(ratios)) + 1


def estimate_dimension(
    cloud: PointCloud,
    eps_dm: float,
    embed_dims: list[int] | None = None,
    eps_grid: list[float] | None = None,
) -> DimensionProfile:
    """Estimate intrinsic dimension via diffusion-map re-embedding.

    For each target embedding dimension m the cloud is re-embedded with
    the eigenvectors V_1..V_m (scaled by sqrt(n) so coordinates match the
    empirical-measure normalization of the eigenfunctions), the mean
    local-covariance spectrum is computed at the matching bandwidth, and
    each spectrum votes for its largest-gap index.  An all-zero spectrum,
    from balls that hold only their own point, casts no vote.  The default
    bandwidth for embedding dimension m is 0.3 + 0.1 * (m - 2).

    Raises ValueError unless every embed_dims entry m has 2 <= m < n and
    every eps_grid entry keeps _check_bandwidth's rule (both checked
    before the embedding), and DimensionEstimateError when the cloud has
    fewer than max(embed_dims) + 1 distinct points, when no spectrum
    votes or when the eigensolver does not converge.
    """
    if embed_dims is None:
        embed_dims = [3, 4, 5, 6]
    if len(embed_dims) == 0:
        raise ValueError("embed_dims is empty")
    for m in embed_dims:
        # A spectrum needs a second eigenvalue to have a gap.
        _check_count(m, "each embed_dims entry", 2)
        if m >= cloud.n:
            raise ValueError(f"each embed_dims entry must be < n = {cloud.n} "
                             f"points, got {m}")
    if eps_grid is not None and len(eps_grid) == 0:
        raise ValueError("eps_grid is empty")
    for eps in () if eps_grid is None else eps_grid:
        _check_bandwidth(eps, "epsilon")
    spec = diffusion_embedding(cloud, eps_dm, max(embed_dims))
    scale = np.sqrt(cloud.n)

    epsilons: list[float] = []
    lambda_bars: list[np.ndarray] = []
    votes: list[int] = []
    for m in embed_dims:
        coords = spec.eigenvectors[:, 1 : m + 1] * scale
        embedded = PointCloud(coords)
        eps_list = eps_grid if eps_grid is not None else [0.3 + 0.1 * (m - 2)]
        for eps in eps_list:
            lam = mean_local_eigenvalues(embedded, eps)
            epsilons.append(float(eps))
            lambda_bars.append(lam)
            vote = _gap_index(lam)
            if vote is not None:
                votes.append(vote)
    if not votes:
        raise DimensionEstimateError(
            "every averaged local spectrum is zero: no epsilon-ball of the "
            "embedded cloud holds a second point"
        )
    counts = np.bincount(votes)
    d_hat = int(np.argmax(counts))
    return DimensionProfile(
        epsilons=epsilons, lambda_bars=lambda_bars, estimated_dim=d_hat
    )
