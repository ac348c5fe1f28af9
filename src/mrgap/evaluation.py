"""Geometric RMSE between point sets, with analytic-manifold oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .point_cloud import PointCloud

__all__ = [
    "GrmseReport",
    "AnalyticManifold",
    "circle",
    "sphere",
    "torus",
    "plane",
    "grmse",
    "grmse_analytic",
    "dists_to_set",
]


@dataclass(frozen=True)
class GrmseReport:
    value: float
    n: int
    m: int  # reference size; 0 for analytic references
    per_point_distances: np.ndarray | None = None


def dists_to_set(points: np.ndarray, reference: PointCloud) -> np.ndarray:
    """Exact minimum Euclidean distance from each query point to a finite
    set, by a k-d tree."""
    if reference.n == 0:
        raise ValueError("reference set is empty")
    tree = cKDTree(reference.points)
    d, _ = tree.query(np.asarray(points, dtype=float), k=1)
    return np.atleast_1d(d)


def grmse(
    eval_set: PointCloud,
    reference: PointCloud,
    keep_distances: bool = False,
) -> GrmseReport:
    """Root mean square of exact nearest-neighbor distances to the reference."""
    if eval_set.n == 0 or reference.n == 0:
        raise ValueError("both point sets must be nonempty")
    if eval_set.ambient_dim != reference.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {eval_set.ambient_dim} "
                         f"vs {reference.ambient_dim}")
    d = dists_to_set(eval_set.points, reference)
    return GrmseReport(
        value=float(np.sqrt(np.mean(d ** 2))),
        n=eval_set.n,
        m=reference.n,
        per_point_distances=d if keep_distances else None,
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


def grmse_analytic(
    eval_set: PointCloud,
    manifold: AnalyticManifold,
    keep_distances: bool = False,
) -> GrmseReport:
    if eval_set.n == 0:
        raise ValueError("evaluation set is empty")
    d = manifold.distances(eval_set.points)
    return GrmseReport(
        value=float(np.sqrt(np.mean(d ** 2))),
        n=eval_set.n,
        m=0,
        per_point_distances=d if keep_distances else None,
    )
