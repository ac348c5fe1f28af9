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


def grmse(eval_set: PointCloud, reference: PointCloud) -> GrmseReport:
    """RMS of exact nearest-neighbor distances to the reference (k-d tree)."""
    if eval_set.ambient_dim != reference.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {eval_set.ambient_dim} "
                         f"vs {reference.ambient_dim}")
    d, _ = cKDTree(reference.points).query(eval_set.points, k=1)
    return GrmseReport(value=float(np.sqrt(np.mean(d ** 2))),
                       per_point_distances=d)
