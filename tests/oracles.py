"""Brute-force references the tests check the program against.

Each is the textbook formula, evaluated directly: no k-d tree, batching,
profiling or factorization shortcut, so it can be checked by eye.
"""

import numpy as np


def radius_neighbors(points, center, r):
    """Indices i with ||points[i] - center|| <= r (closed ball), ascending."""
    return np.flatnonzero(np.linalg.norm(points - center, axis=1) <= r)


def dist_to_set(point, reference):
    """Minimum Euclidean distance from a point to a PointCloud."""
    if reference.n == 0:
        raise ValueError("reference set is empty")
    return float(np.min(np.linalg.norm(reference.points - point, axis=1)))


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
