"""Tests of the benchmark's reference computations; no workload runs here.

    python3 -m pytest -q perfbench/test_perfbench_oracles.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def test_torus_distance_closed_form():
    clean = oracles.sample_torus(2000, np.random.default_rng(0))
    assert np.max(oracles.torus_distance(clean)) <= 1e-12
    probes = np.array([[2.9, 0.0, 0.0],   # 0.1 outside the outer equator
                       [0.0, 2.0, 0.0],   # on the spine circle
                       [0.0, 0.0, 0.0],   # centre of the hole
                       [0.0, -2.0, 1.0]])  # above the spine
    want = [0.1, 0.8, 2.0 - 0.8, 1.0 - 0.8]
    assert np.allclose(oracles.torus_distance(probes), want, atol=1e-12)


def test_torus_sample_is_uniform_by_area():
    pts = oracles.sample_torus(40_000, np.random.default_rng(1))
    # The outer half of the tube (|(x, y)| > R) holds a share
    # (pi R + 2 r) / (2 pi R) of the area.
    outer = np.mean(np.hypot(pts[:, 0], pts[:, 1]) > oracles.TORUS_R)
    want = (np.pi * 2.0 + 2 * 0.8) / (2 * np.pi * 2.0)
    assert abs(outer - want) < 0.01


def test_spectra_distance_zero_on_clean_and_exact_off_span():
    basis = oracles.spectra_basis()
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    clean = oracles.spectra_clean(basis)
    distance = oracles.SpectraDistance(basis)
    assert np.max(distance(clean)) <= 1e-12
    rng = np.random.default_rng(2)
    normal = rng.normal(size=clean.shape)
    normal -= (normal @ basis) @ basis.T
    normal *= 0.3 / np.linalg.norm(normal, axis=1, keepdims=True)
    assert np.allclose(distance(clean + normal), 0.3, atol=1e-12)


def test_spectra_distance_within_the_span_matches_brute_force():
    basis = oracles.spectra_basis()
    distance = oracles.SpectraDistance(basis)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2.0 * np.pi, 20)
    inside = oracles.spectra_coords(t) + rng.normal(scale=0.05, size=(20, 10))
    dense = oracles.spectra_coords(np.linspace(0.0, 2.0 * np.pi, 200_000))
    brute = [np.min(np.linalg.norm(dense - p, axis=1)) for p in inside]
    assert np.allclose(distance(inside @ basis.T), brute, atol=1e-4)


def test_dense_likelihood_matches_direct_inverse_and_determinant():
    rng = np.random.default_rng(4)
    charts = [(rng.normal(size=(N, 2)), rng.normal(size=(N, q)))
              for N, q in ((1, 1), (5, 2), (9, 3))]
    A, rho, sigma = 0.7, 1.3, 0.4
    want = 0.0
    for W, Z in charts:
        N, q = Z.shape
        K = np.empty((N, N))
        for i in range(N):
            for j in range(N):
                K[i, j] = A * np.exp(-np.sum((W[i] - W[j]) ** 2) / rho)
        K += sigma ** 2 * np.eye(N)
        want += (-np.trace(Z.T @ np.linalg.inv(K) @ Z)
                 - q * np.log(np.linalg.det(K)) - 0.5 * q * N * np.log(2 * np.pi))
    got = oracles.dense_joint_log_likelihood(charts, A, rho, sigma)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_dense_likelihood_prefers_the_generating_noise_level():
    rng = np.random.default_rng(5)
    W = rng.uniform(-1, 1, size=(40, 1))
    Z = np.sin(3 * W) + rng.normal(scale=0.1, size=W.shape)
    charts = [(W, Z)]
    at = [oracles.dense_joint_log_likelihood(charts, 0.5, 0.2, s)
          for s in (0.01, 0.1, 1.0)]
    assert at[1] > at[0] and at[1] > at[2]


def test_charts_of_a_plane_have_zero_responses_and_keep_distances():
    rng = np.random.default_rng(6)
    xy = rng.uniform(-1, 1, size=(60, 2))
    rot = oracles.random_rotation(rng, 4)
    pts = np.column_stack([xy, np.zeros((60, 2))]) @ rot.T + 5.0
    for k, (W, Z) in enumerate(oracles.chart_regressions(pts, 0.6, 0.9, 2)):
        assert np.max(np.abs(Z)) <= 1e-10
        members = pts[np.linalg.norm(pts - pts[k], axis=1) <= 0.9]
        gap_w = np.linalg.norm(W[:, None] - W[None], axis=2)
        gap_y = np.linalg.norm(members[:, None] - members[None], axis=2)
        assert np.allclose(gap_w, gap_y, atol=1e-10)


def test_mean_local_spectrum_of_a_plane_and_of_the_ellipsoid():
    rng = np.random.default_rng(7)
    flat = np.zeros((300, 5))
    flat[:, :oracles.TRUE_DIM] = rng.uniform(-1, 1, size=(300, 2))
    lam = oracles.mean_local_spectrum(flat, 0.5)
    assert np.all(np.diff(lam) <= 0)
    assert lam[1] > 0 and np.max(lam[oracles.TRUE_DIM:]) <= 1e-15
    surface = oracles.sample_ellipsoid(300, 30, rng)
    off_slot = np.delete(surface, range(oracles.ELLIPSOID_SLOT,
                                        oracles.ELLIPSOID_SLOT + 3), axis=1)
    assert not off_slot.any()
    # Small balls on a surface are nearly flat.
    lam = oracles.mean_local_spectrum(surface, 0.4)
    assert lam[2] < 0.1 * lam[1]
