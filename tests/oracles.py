"""Brute-force references the tests check the program against.

Each is the textbook formula, evaluated directly: no k-d tree, batching,
profiling or factorization shortcut, so it can be checked by eye.
"""

import numpy as np
from scipy.spatial.distance import cdist


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
