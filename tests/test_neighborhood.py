"""Neighborhood queries: chart membership (build_charts' closed balls)
and nearest-point distances (grmse's per-point distances)."""

import numpy as np
import pytest

from mrgap.evaluation import grmse
from mrgap.local_geometry import build_charts
from mrgap.point_cloud import PointCloud

from .oracles import dist_to_set, radius_neighbors


class TestRadiusNeighbors:
    """Chart membership: build_charts' member_indices is the closed
    delta-ball, and its epsilon-ball is closed too."""

    def test_direct(self):
        cloud = PointCloud(np.array(
            [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0], [3.0, 0.0],
             [3.5, 0.0]]))
        charts = build_charts(cloud, 0.6, 1.0, 1)
        np.testing.assert_array_equal(charts[0].member_indices, [0, 1, 2])
        np.testing.assert_array_equal(charts[4].member_indices, [4, 5])

    def test_duplicates_are_members(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0],
                                     [5.0, 0.0]]))
        charts = build_charts(cloud, 0.5, 1.0, 1)
        np.testing.assert_array_equal(charts[0].member_indices, [0, 1])
        np.testing.assert_array_equal(charts[3].member_indices, [2, 3])

    def test_closed_ball_boundary(self):
        # y_1 lies at exactly epsilon from y_0 and y_2 at exactly delta; the
        # epsilon-ball of y_0 holds d + 1 points only if y_1 counts.
        cloud = PointCloud(np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0],
                                     [0.0, 1.5]]))
        charts = build_charts(cloud, 0.5, 1.0, 1)
        np.testing.assert_array_equal(charts[0].member_indices, [0, 1, 2])
        np.testing.assert_allclose(np.abs(charts[0].U[:, 0]), [1.0, 0.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(size=(200, 3)))
        for _ in range(5):
            eps = rng.uniform(0.45, 0.5)
            delta = rng.uniform(eps, 0.8)
            for k, chart in enumerate(build_charts(cloud, eps, delta, 2)):
                np.testing.assert_array_equal(
                    chart.member_indices,
                    radius_neighbors(cloud.points, cloud.points[k], delta),
                )

    def test_dimension_mismatch(self):
        cloud = PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            build_charts(cloud, 1.0, 2.0, 0)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.normal(size=(50, 2)))
        prev = [set() for _ in range(50)]
        for delta in [2.5, 3.0, 4.0, 6.0]:
            charts = build_charts(cloud, 2.0, delta, 1)
            cur = [set(c.member_indices.tolist()) for c in charts]
            assert all(p <= c for p, c in zip(prev, cur))
            prev = cur

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        perm = rng.permutation(40)
        a = build_charts(PointCloud(pts), 2.0, 2.5, 1)
        b = build_charts(PointCloud(pts[perm]), 2.0, 2.5, 1)
        for j, k in enumerate(perm):
            assert sorted(perm[b[j].member_indices].tolist()) == \
                a[k].member_indices.tolist()


class TestDistToSet:
    """grmse's per-point distances are the exact distance from each point
    of the evaluation set to the nearest reference point."""

    def test_member_is_zero(self):
        cloud = PointCloud(np.array([[1.0, 2.0], [3.0, 4.0]]))
        d = grmse(PointCloud(np.array([[3.0, 4.0]])), cloud)
        np.testing.assert_array_equal(d.per_point_distances, [0.0])

    def test_direct(self):
        ref = PointCloud(np.array([[0.0, 0.0], [5.0, 0.0]]))
        d = grmse(PointCloud(np.array([[2.0, 0.0]])), ref)
        np.testing.assert_array_equal(d.per_point_distances, [2.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        ref = PointCloud(rng.normal(size=(500, 3)))
        queries = rng.normal(size=(30, 3))
        fast = grmse(PointCloud(queries), ref).per_point_distances
        for q, f in zip(queries, fast):
            assert abs(f - dist_to_set(q, ref)) < 1e-12

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            grmse(PointCloud(np.zeros((1, 2))), PointCloud(np.empty((0, 2))))

    def test_union_is_min(self):
        rng = np.random.default_rng(4)
        s1 = rng.normal(size=(20, 2))
        s2 = rng.normal(size=(30, 2))
        p = PointCloud(rng.normal(size=(1, 2)))

        def dist(ref):
            return grmse(p, PointCloud(ref)).per_point_distances[0]

        d_union = dist(np.vstack([s1, s2]))
        assert abs(d_union - min(dist(s1), dist(s2))) < 1e-15
