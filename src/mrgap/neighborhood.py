"""Nearest-set distances."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .point_cloud import PointCloud

__all__ = ["dists_to_set"]


def dists_to_set(points: np.ndarray, reference: PointCloud) -> np.ndarray:
    """Exact minimum Euclidean distance from each query point to a finite
    set, by a k-d tree."""
    if reference.n == 0:
        raise ValueError("reference set is empty")
    tree = cKDTree(reference.points)
    d, _ = tree.query(np.asarray(points, dtype=float), k=1)
    return np.atleast_1d(d)
