"""Geometric RMSE between point sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .point_cloud import PointCloud


@dataclass(frozen=True)
class GrmseReport:
    value: float
    per_point_distances: np.ndarray


def dists_to_set(points: np.ndarray, reference: PointCloud) -> np.ndarray:
    """Exact minimum Euclidean distance from each query point to a finite
    set, by a k-d tree."""
    if reference.n == 0:
        raise ValueError("reference set is empty")
    tree = cKDTree(reference.points)
    d, _ = tree.query(np.asarray(points, dtype=float), k=1)
    return np.atleast_1d(d)


def grmse(eval_set: PointCloud, reference: PointCloud) -> GrmseReport:
    """Root mean square of exact nearest-neighbor distances to the reference."""
    if eval_set.n == 0 or reference.n == 0:
        raise ValueError("both point sets must be nonempty")
    if eval_set.ambient_dim != reference.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {eval_set.ambient_dim} "
                         f"vs {reference.ambient_dim}")
    d = dists_to_set(eval_set.points, reference)
    return GrmseReport(value=float(np.sqrt(np.mean(d ** 2))),
                       per_point_distances=d)
