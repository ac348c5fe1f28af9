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
from scipy.spatial.distance import cdist

from .point_cloud import PointCloud

# Bound on the entries of the arrays mean_local_eigenvalues builds for one
# block of points (16 MB of float64).
_BLOCK_ENTRIES = 2 ** 21
# Bound on the distances diffusion_embedding computes for one block of
# kernel rows (1 MB of float64).
_KERNEL_BLOCK = 2 ** 17


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
    """The rule for eps_dm and every local-PCA epsilon: finite and positive,
    with a square that neither underflows to 0 nor overflows, since the
    kernel divides by eps_dm ** 2.  A product of Python floats, unlike
    eps ** 2 or a product of NumPy scalars, neither raises nor warns."""
    eps = float(eps)
    if not (eps > 0 and 0 < eps * eps < np.inf):
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

    Raises ValueError when n(n+1)/2 reaches 2^31, the index limit of the
    32-bit BLAS, and DimensionEstimateError when the cloud has fewer than
    ell + 1 distinct points: S then has rank below ell + 1, and the pairs
    beyond its rank would be an arbitrary basis of its null space.
    """
    n = cloud.n
    if n < 2:
        raise ValueError("need at least 2 points")
    _check_bandwidth(eps_dm, "eps_dm")
    if not 0 <= ell < n:
        raise ValueError("ell must satisfy 0 <= ell < n")
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
    # Squared distances first, a block of rows at a time; row i of the
    # upper triangle starts at entry i n - i (i - 1) / 2.
    K = np.empty(size)
    a = 0
    while a < n:
        b = min(n, a + max(1, _KERNEL_BLOCK // (n - a)))
        d2 = cdist(pts[a:b], pts[a:], "sqeuclidean")
        K[a * n - a * (a - 1) // 2 : b * n - b * (b - 1) // 2] = d2[
            np.arange(n - a) >= np.arange(b - a)[:, None]]
        a = b
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
    the closed epsilon-ball, with the full sample size n as divisor.  A k-d
    tree finds the candidates of a block of points at a time, which keeps
    memory bounded when the balls cover the whole cloud; each candidate is
    then tested by the exact distance.
    """
    _check_bandwidth(epsilon, "epsilon")
    pts = cloud.points
    n, D = pts.shape
    tree = cKDTree(pts)
    # The slack keeps every point the exact test accepts, whatever rounding
    # the tree's own distances have.
    radius = epsilon * (1.0 + 1e-9)
    acc = np.zeros(D)
    # A ball holds at most n points, so a block's arrays of displacements
    # hold at most _BLOCK_ENTRIES entries.
    size = max(1, _BLOCK_ENTRIES // (n * D))
    for start in range(0, n, size):
        block = np.arange(start, min(start + size, n))
        cand = tree.query_ball_point(pts[block], radius)
        rows = np.repeat(np.arange(len(block)), [len(c) for c in cand])
        diff = pts[np.concatenate(cand)] - pts[block[rows]]
        keep = np.linalg.norm(diff, axis=1) <= epsilon
        rows, diff = rows[keep], diff[keep]
        # The ball members of each point, zero-padded to one stack.
        counts = np.bincount(rows, minlength=len(block))
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        X = np.zeros((len(block), counts.max(), D))
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

    Raises DimensionEstimateError when the cloud has fewer than
    max(embed_dims) + 1 distinct points, when no spectrum votes or when the
    eigensolver does not converge.
    """
    if embed_dims is None:
        embed_dims = [3, 4, 5, 6]
    if not embed_dims:
        raise ValueError("embed_dims is empty")
    if min(embed_dims) < 1:
        raise ValueError("embedding dimensions must be >= 1")
    if eps_grid is not None and not eps_grid:
        raise ValueError("eps_grid is empty")
    for eps in eps_grid or ():
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
