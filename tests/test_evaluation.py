import numpy as np
import pytest

from mrgap.evaluation import grmse
from mrgap.point_cloud import PointCloud, gen_cassini

from .oracles import (
    circle,
    dist_to_set,
    grmse_analytic,
    plane,
    sandwich_gap_check,
    sphere,
    torus,
)


def ring_points(n, r=1.0, seed=0):
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return PointCloud(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))


class TestGrmse:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        assert grmse(cloud, cloud).value == 0.0

    def test_direct_value(self):
        ev = PointCloud(np.array([[0.0, 0.0], [3.0, 0.0]]))
        ref = PointCloud(np.array([[1.0, 0.0]]))
        # distances 1 and 2 -> rms sqrt(5/2)
        np.testing.assert_allclose(grmse(ev, ref).value, np.sqrt(2.5))

    def test_reference_monotonicity(self):
        # enlarging the reference never increases the value
        rng = np.random.default_rng(1)
        for _ in range(50):
            ev = PointCloud(rng.normal(size=(10, 2)))
            ref_a = rng.normal(size=(15, 2))
            ref_b = rng.normal(size=(5, 2))
            g_small = grmse(ev, PointCloud(ref_a)).value
            g_union = grmse(ev, PointCloud(np.vstack([ref_a, ref_b]))).value
            assert g_union <= g_small + 1e-12

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ev = rng.normal(size=(8, 3))
            ref = rng.normal(size=(12, 3))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            t = rng.normal(size=3)
            g1 = grmse(PointCloud(ev), PointCloud(ref)).value
            g2 = grmse(PointCloud(ev @ q.T + t),
                       PointCloud(ref @ q.T + t)).value
            np.testing.assert_allclose(g1, g2, rtol=1e-10, atol=1e-12)

    def test_keep_distances(self):
        ev = PointCloud(np.array([[0.0], [2.0]]))
        ref = PointCloud(np.array([[0.0]]))
        rep = grmse(ev, ref)
        np.testing.assert_allclose(rep.per_point_distances, [0.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grmse(PointCloud(np.zeros((2, 2))), PointCloud(np.zeros((2, 3))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            grmse(PointCloud(np.empty((0, 2))), PointCloud(np.zeros((2, 2))))


class TestAnalytic:
    def test_circle_exact(self):
        m = circle(1.0)
        pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        np.testing.assert_allclose(m.distances(pts), [1.0, 0.5])

    def test_circle_off_plane(self):
        m = circle(1.0)
        d = m.distances(np.array([[1.0, 0.0, 0.3]]))
        np.testing.assert_allclose(d, [0.3])

    def test_sphere_exact(self):
        m = sphere(2.0)
        np.testing.assert_allclose(
            m.distances(np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
            [1.0, 2.0],
        )

    def test_torus_spine_point(self):
        m = torus(2.0, 0.8)
        # (2, 0, 0) sits on the spine circle: distance is the tube radius
        np.testing.assert_allclose(m.distances(np.array([[2.0, 0.0, 0.0]])),
                                   [0.8])

    def test_torus_surface_point(self):
        m = torus(2.0, 0.8)
        np.testing.assert_allclose(m.distances(np.array([[2.8, 0.0, 0.0]])),
                                   [0.0], atol=1e-15)

    def test_plane_residual(self):
        m = plane(2)
        np.testing.assert_allclose(
            m.distances(np.array([[5.0, -3.0, 0.6, 0.8]])), [1.0]
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            circle(0.0)
        with pytest.raises(ValueError):
            torus(1.0, 1.0)
        with pytest.raises(ValueError):
            plane(0)

    def test_dense_sample_converges_to_analytic(self):
        # a fine reference ring approximates the analytic circle distance
        rng = np.random.default_rng(3)
        ev = PointCloud(rng.normal(size=(30, 2)))
        exact = grmse_analytic(ev, circle(1.0)).value
        ref = ring_points(20_000)
        sampled = grmse(ev, ref).value
        np.testing.assert_allclose(sampled, exact, rtol=1e-4)


class TestSandwich:
    def test_circle_sandwich(self):
        rng = np.random.default_rng(4)
        ev = PointCloud(rng.normal(scale=1.2, size=(50, 2)))
        ref = ring_points(400)
        # covering radius of an n-point ring: half chord of 2 pi / n
        r_cov = 2 * np.sin(np.pi / 400)
        ok, diag = sandwich_gap_check(ev, ref, circle(1.0), r_cov)
        assert ok, diag

    def test_rejects_off_manifold_reference(self):
        ev = PointCloud(np.zeros((2, 2)))
        bad_ref = PointCloud(np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError):
            sandwich_gap_check(ev, bad_ref, circle(1.0), 0.1)

    def test_rejects_bad_radius(self):
        ev = PointCloud(np.zeros((2, 2)))
        ref = ring_points(10)
        with pytest.raises(ValueError):
            sandwich_gap_check(ev, ref, circle(1.0), 0.0)


class TestCassiniTruth:
    def test_cassini_sample_is_on_cassini(self):
        # generator output has zero analytic residual against a dense truth
        cloud = gen_cassini(200, seed=0)
        truth = gen_cassini(100_000, seed=1)
        assert grmse(cloud, truth).value <= 5e-3


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
        with pytest.raises(ValueError, match="n >= 1"):
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
