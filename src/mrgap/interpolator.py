"""Chart-by-chart interpolation of new on-manifold points.

Charts are rebuilt from the second-to-last denoised cloud and visited in
index order; each chart's training set is augmented with previously
interpolated points inside its delta-ball, which glues overlapping charts
together smoothly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gp
from .denoiser import DenoiseConfig, DenoiseTrace
from .local_geometry import build_chart_data
from .point_cloud import PointCloud

__all__ = [
    "DomainBall",
    "estimate_domain_ball",
    "sample_ball_uniform",
    "interpolate",
]


@dataclass(frozen=True)
class DomainBall:
    """Sampling region in a chart's tangent coordinates."""

    center: np.ndarray
    radius: float  # mean minus stddev of distances to the center


def estimate_domain_ball(predictors: np.ndarray) -> DomainBall:
    """Center = mean predictor; radius = mean - population stddev of the
    distances to the center."""
    predictors = np.atleast_2d(np.asarray(predictors, dtype=float))
    if predictors.shape[0] < 2:
        raise ValueError("need at least 2 predictors")
    center = predictors.mean(axis=0)
    dists = np.linalg.norm(predictors - center, axis=1)
    return DomainBall(center=center, radius=float(dists.mean() - dists.std()))


def sample_ball_uniform(
    ball: DomainBall, K: int, d: int, seed: int
) -> np.ndarray:
    """K i.i.d. uniform draws from the closed d-ball (Gaussian direction,
    radius scaled by u^(1/d))."""
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(K, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = ball.radius * rng.uniform(0.0, 1.0, size=K) ** (1.0 / d)
    return ball.center + dirs * radii[:, None]


def interpolate(
    trace: DenoiseTrace,
    config: DenoiseConfig,
    K: int,
    seed: int = 0,
    return_chart_index: bool = False,
) -> PointCloud | tuple[PointCloud, np.ndarray]:
    """Interpolate K points per chart, gluing each chart to the points
    already produced by earlier charts.

    Uses the second-to-last cloud of the trace and the last-round fitted
    hyperparameters.  Returns n*K points (fewer only if degenerate charts
    had to be skipped).
    """
    if len(trace.clouds) < 2:
        raise ValueError("trace must contain at least 2 clouds")
    if K < 1:
        raise ValueError("K must be >= 1")
    cloud = trace.clouds[-2]
    hyper = trace.hypers[-1]
    d = config.intrinsic_dim
    chart_seeds = np.random.SeedSequence(seed).generate_state(cloud.n, dtype=np.uint64)

    chart_of: list[int] = []
    # Interpolated points so far are accumulated[:filled].
    accumulated = np.empty((cloud.n * K, cloud.ambient_dim))
    filled = 0
    for k in range(cloud.n):
        chart = build_chart_data(cloud, k, config.epsilon, config.delta, d)
        w = chart.predictors
        center = w.mean(axis=0)
        dists = np.linalg.norm(w - center, axis=1)
        m_k, s_k = float(dists.mean()), float(dists.std())
        radius = m_k - s_k
        if radius <= 0.0:
            if m_k == 0.0:
                warnings.warn(f"chart {k}: degenerate domain, skipped")
                continue
            radius = 0.5 * m_k
        ball = DomainBall(center=center, radius=radius)
        test_u = sample_ball_uniform(ball, K, d, int(chart_seeds[k]))

        # Gluing points: earlier interpolated points within delta of y_k.
        base = chart.frame.base
        if filled:
            rel = accumulated[:filled] - base
            glue = rel[np.linalg.norm(rel, axis=1) <= config.delta] @ chart.frame.U
            w_glue, z_glue = glue[:, :d], glue[:, d:]
        else:
            w_glue = np.empty((0, d))
            z_glue = np.empty((0, cloud.ambient_dim - d))
        train_w = np.vstack([w, w_glue])
        train_z = np.vstack([chart.responses, z_glue])
        try:
            post = gp.predictive(train_w, train_z, test_u, hyper)
        except gp.FactorizationError as exc:
            raise gp.FactorizationError(f"chart {k}: {exc}") from exc
        local = np.hstack([test_u, post.mean])
        pts = base + local @ chart.frame.U.T
        chart_of.extend([k] * K)
        accumulated[filled:filled + K] = pts
        filled += K

    out = PointCloud(accumulated[:filled])
    if return_chart_index:
        return out, np.asarray(chart_of, dtype=int)
    return out
