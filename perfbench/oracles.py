"""Input generators and reference computations for the benchmark.

Nothing here imports mrgap: the benchmark makes its inputs and checks the
program's outputs with this code alone, so a change to the program cannot
move the inputs or the yardstick.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_LOG_2PI = np.log(2.0 * np.pi)

# Torus of the paper's experiments.
TORUS_R, TORUS_TUBE = 2.0, 0.8

# Five-harmonic closed curve through a random 10-dimensional subspace of
# R^701, the scale of a reflectance-spectra batch.
SPECTRA_D, SPECTRA_N, SPECTRA_HARMONICS = 701, 86, 5
SPECTRA_BASIS_SEED = 7

# The ellipsoid x^2/4 + y^2/2.25 + z^2 = 1 is a surface.
ELLIPSOID_AXES = (2.0, 1.5, 1.0)
ELLIPSOID_SLOT = 13
TRUE_DIM = 2


def grmse(distances: np.ndarray) -> float:
    """Root mean square of per-point distances."""
    return float(np.sqrt(np.mean(np.square(distances))))


def sample_torus(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform by area on the torus: the tube angle is
    rejection-sampled with acceptance (R + r cos u) / (R + r)."""
    R, r = TORUS_R, TORUS_TUBE
    us = np.empty(0)
    while us.size < n:
        cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
        keep = rng.uniform(0.0, 1.0, size=cand.size) < (R + r * np.cos(cand)) / (R + r)
        us = np.concatenate([us, cand[keep]])
    u = us[:n]
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = R + r * np.cos(u)
    return np.column_stack([ring * np.cos(v), ring * np.sin(v), r * np.sin(u)])


def torus_distance(points: np.ndarray) -> np.ndarray:
    """Closed-form distance to the torus: |sqrt((|(x, y)| - R)^2 + z^2) - r|."""
    pts = np.asarray(points, dtype=float)
    spine = np.hypot(np.hypot(pts[:, 0], pts[:, 1]) - TORUS_R, pts[:, 2])
    return np.abs(spine - TORUS_TUBE)


def spectra_basis() -> np.ndarray:
    """Orthonormal (D, 10) basis of the curve's subspace."""
    rng = np.random.default_rng(SPECTRA_BASIS_SEED)
    basis, _ = np.linalg.qr(rng.normal(size=(SPECTRA_D, 2 * SPECTRA_HARMONICS)))
    return basis


def spectra_coords(t: np.ndarray) -> np.ndarray:
    """Curve coordinates in the basis: (cos jt / j, sin jt / j), j = 1..5."""
    cols = []
    for j in range(1, SPECTRA_HARMONICS + 1):
        cols += [np.cos(j * t) / j, np.sin(j * t) / j]
    return np.column_stack(cols)


def spectra_clean(basis: np.ndarray) -> np.ndarray:
    """The 86 equally spaced clean samples of the curve in R^701."""
    t = np.linspace(0.0, 2.0 * np.pi, SPECTRA_N, endpoint=False)
    return spectra_coords(t) @ basis.T


class SpectraDistance:
    """Distance to the spectra curve: the part off the basis span, combined
    with the distance from the in-span part to a dense sample of the curve.

    The dense sample refines the 86 clean parameters, so the clean samples
    are themselves sample points and lie at distance zero.
    """

    def __init__(self, basis: np.ndarray, refine: int = 400):
        self.basis = basis
        t = np.linspace(0.0, 2.0 * np.pi, SPECTRA_N * refine, endpoint=False)
        self.tree = cKDTree(spectra_coords(t))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        inside = pts @ self.basis
        off = pts - inside @ self.basis.T
        along, _ = self.tree.query(inside, k=1)
        return np.sqrt(np.sum(off ** 2, axis=1) + along ** 2)


def random_rotation(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Haar-random orthogonal matrix (QR with the sign fix)."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def sample_ellipsoid(n: int, ambient_dim: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform by area on the ellipsoid, rotated at random and
    placed in coordinates [13, 16) of R^ambient_dim.

    Directions uniform on the sphere are thinned by the area distortion of
    u -> (a u1, b u2, c u3), which peaks at a*b.
    """
    a, b, c = ELLIPSOID_AXES
    pts = np.empty((0, 3))
    while pts.shape[0] < n:
        u = rng.normal(size=(2 * n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        stretch = np.sqrt((b * c * u[:, 0]) ** 2 + (a * c * u[:, 1]) ** 2
                          + (a * b * u[:, 2]) ** 2)
        keep = rng.uniform(0.0, 1.0, size=u.shape[0]) < stretch / (a * b)
        pts = np.vstack([pts, u[keep] * np.array([a, b, c])])
    out = np.zeros((n, ambient_dim))
    out[:, ELLIPSOID_SLOT:ELLIPSOID_SLOT + 3] = pts[:n] @ random_rotation(rng).T
    return out


def mean_local_spectrum(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Descending eigenvalues of (1/n) sum (y_i - y_k)(y_i - y_k)^T over the
    closed epsilon-ball at each y_k, averaged over k."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    acc = np.zeros(pts.shape[1])
    for k in range(n):
        diff = pts - pts[k]
        sel = diff[np.einsum("ij,ij->i", diff, diff) <= epsilon ** 2]
        acc += np.clip(np.linalg.eigvalsh(sel.T @ sel / n)[::-1], 0.0, None)
    return acc / n


def chart_regressions(points: np.ndarray, epsilon: float, delta: float, d: int):
    """Per-point regression data (tangent predictors W, normal responses Z).

    The tangent space at y_k is spanned by the top-d eigenvectors of the
    epsilon-ball covariance; the chart holds every delta-neighbour.  Only
    the two subspaces are fixed, not bases within them; the likelihood
    below does not depend on that choice, since it sees W only through
    pairwise distances and Z only through Z Z^T.
    """
    pts = np.asarray(points, dtype=float)
    charts = []
    for k in range(pts.shape[0]):
        diff = pts - pts[k]
        dist = np.linalg.norm(diff, axis=1)
        sel = diff[dist <= epsilon]
        _, vecs = np.linalg.eigh(sel.T @ sel)
        vecs = vecs[:, ::-1]
        members = diff[dist <= delta]
        charts.append((members @ vecs[:, :d], members @ vecs[:, d:]))
    return charts


def dense_joint_log_likelihood(charts, A: float, rho: float, sigma: float) -> float:
    """Sum over charts of -tr(Z^T K^-1 Z) - q log det K - (qN/2) log 2 pi,
    K = A exp(-|w_i - w_j|^2 / rho) + sigma^2 I, by explicit inverse and
    log-determinant (the un-halved scaling mrgap maximises)."""
    total = 0.0
    for W, Z in charts:
        N, q = Z.shape
        sq = np.sum((W[:, None, :] - W[None, :, :]) ** 2, axis=2)
        K = A * np.exp(-sq / rho) + sigma ** 2 * np.eye(N)
        sign, logdet = np.linalg.slogdet(K)
        if sign <= 0:
            return -np.inf
        total += (-float(np.trace(Z.T @ np.linalg.inv(K) @ Z))
                  - q * logdet - 0.5 * q * N * _LOG_2PI)
    return total
