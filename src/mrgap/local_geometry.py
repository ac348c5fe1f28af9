"""The per-point chart regressions.

The chart at a sample point y_k turns the global reconstruction problem
into a regression: the tangent coordinates of the displacements y_j - y_k
are the predictors, and what is left of each displacement after its
tangent part is removed is the response.  The responses stay in ambient
coordinates.  The likelihood sees them only through Z Z^T and the count
q = D - d of normal directions, and neither depends on a basis of the
normal space, so no chart computes or stores one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .point_cloud import PointCloud, _check_real


class InsufficientNeighborsError(ValueError):
    """Raised when a bandwidth ball contains too few points to fit a chart."""


@dataclass(frozen=True)
class ChartRegression:
    """Regression data of the chart at base: tangent predictors W = X U and
    ambient residual responses X - W U^T, X the displacements of the
    members from base.

    For each member j, base + predictors[j] @ U.T + responses[j] recovers
    the original point.
    """

    base: np.ndarray  # (D,)
    U: np.ndarray  # (D, d) orthonormal tangent basis
    predictors: np.ndarray  # (N, d)
    responses: np.ndarray  # (N, D), orthogonal to U
    member_indices: np.ndarray  # (N,) ascending

    @property
    def codim(self) -> int:
        """Number q = D - d of normal directions: the likelihood's count of
        response columns."""
        return self.U.shape[0] - self.U.shape[1]


def check_radii(epsilon: float, delta: float) -> None:
    """The rule on the chart radii: 0 < epsilon < delta < inf."""
    _check_real(epsilon, "epsilon")
    _check_real(delta, "delta")
    if delta <= epsilon:
        raise ValueError("delta must exceed epsilon")


def build_charts(
    cloud: PointCloud, epsilon: float, delta: float, d: int
) -> list[ChartRegression]:
    """The chart regression at every point of the cloud, in index order.

    U holds the top d right singular vectors of the epsilon-ball
    displacements, which are the top d eigenvectors of their second-moment
    matrix (the local covariance at y_k); each is oriented so its
    largest-magnitude entry is positive, which makes runs deterministic.
    Predictors and responses come from all delta-neighbors (y_k itself
    contributes a zero row).  Both balls are closed.  One k-d tree query
    finds the candidates of both, which are then tested by the exact
    distance.  Fails loudly if an epsilon-ball holds d or fewer points.
    """
    check_radii(epsilon, delta)
    D = cloud.ambient_dim
    if not 1 <= d < D:
        raise ValueError(f"intrinsic dim must satisfy 1 <= d < {D}, got {d}")
    pts = cloud.points
    # The slack keeps every point the exact test below accepts, whatever
    # rounding the tree's own distances have.
    radius = delta * (1.0 + 1e-9)
    candidates = cKDTree(pts).query_ball_point(pts, radius, return_sorted=True)
    charts = []
    for k, cand in enumerate(candidates):
        cand = np.asarray(cand, dtype=np.intp)
        diff = pts[cand] - pts[k]
        dist = np.linalg.norm(diff, axis=1)
        ball = diff[dist <= epsilon]
        if ball.shape[0] <= d:
            raise InsufficientNeighborsError(
                f"point {k}: epsilon-ball holds {ball.shape[0]} points, "
                f"need more than {d}"
            )
        U = np.linalg.svd(ball, full_matrices=False)[2][:d].T
        flip = U[np.argmax(np.abs(U), axis=0), np.arange(d)] < 0
        U = np.where(flip, -U, U)
        keep = dist <= delta
        X = diff[keep]
        W = X @ U
        charts.append(ChartRegression(
            base=pts[k], U=U, predictors=W, responses=X - W @ U.T,
            member_indices=cand[keep],
        ))
    return charts
