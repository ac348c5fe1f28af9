"""Chart-by-chart interpolation of new on-manifold points.

Charts are rebuilt from the second-to-last denoised cloud and visited in
index order; each chart's training set is augmented with previously
interpolated points inside its delta-ball, which glues overlapping charts
together smoothly.  A new point is the chart's base plus its sampled
tangent displacement plus the posterior mean of the ambient residual
there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gp
from .denoiser import DenoiseConfig, DenoiseTrace
from .local_geometry import build_charts
from .point_cloud import PointCloud


@dataclass(frozen=True)
class DomainBall:
    """Sampling region in a chart's tangent coordinates."""

    center: np.ndarray
    radius: float  # see estimate_domain_ball


def estimate_domain_ball(predictors: np.ndarray) -> DomainBall:
    """Center = mean predictor; radius = mean - population stddev of the
    distances to the center, or half their mean where that is not
    positive.  The radius is 0 only if all predictors coincide."""
    predictors = np.atleast_2d(np.asarray(predictors, dtype=float))
    if predictors.shape[0] < 2:
        raise ValueError("need at least 2 predictors")
    center = predictors.mean(axis=0)
    dists = np.linalg.norm(predictors - center, axis=1)
    mean = float(dists.mean())
    radius = mean - float(dists.std())
    if radius <= 0.0:
        radius = 0.5 * mean
    return DomainBall(center=center, radius=radius)


def sample_ball_uniform(ball: DomainBall, K: int, seed: int) -> np.ndarray:
    """K i.i.d. uniform draws from the closed ball, of the dimension d of
    its center (Gaussian direction, radius scaled by u^(1/d))."""
    if K < 1:
        raise ValueError("K must be >= 1")
    d = ball.center.shape[0]
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
    D = cloud.ambient_dim
    chart_seeds = np.random.SeedSequence(seed).generate_state(cloud.n, dtype=np.uint64)

    # Chart j's K points are out[j], all within reach[j] of y_j; a skipped
    # chart reaches nowhere.
    out = np.empty((cloud.n, K, D))
    reach = np.full(cloud.n, -np.inf)
    charts = build_charts(cloud, config.epsilon, config.delta,
                          config.intrinsic_dim)
    for k, chart in enumerate(charts):
        ball = estimate_domain_ball(chart.predictors)
        if ball.radius == 0.0:
            warnings.warn(f"chart {k}: degenerate domain, skipped")
            continue
        test_u = sample_ball_uniform(ball, K, int(chart_seeds[k]))

        # Gluing points: earlier interpolated points within delta of y_k.
        # By the triangle inequality only charts j with
        # ||y_j - y_k|| <= delta + reach[j] can hold one; the slack keeps
        # every chart whose points the exact test below may accept, whatever
        # the rounding of these distances.  Their rows, in ascending order,
        # are then the same rows a scan of all earlier points would keep.
        base_dist = np.linalg.norm(cloud.points[:k] - chart.base, axis=1)
        near = np.flatnonzero(
            base_dist <= (config.delta + reach[:k]) * (1.0 + 1e-9))
        rel = out[near].reshape(-1, D) - chart.base
        rel = rel[np.linalg.norm(rel, axis=1) <= config.delta]
        w_glue = rel @ chart.U
        train_w = np.vstack([chart.predictors, w_glue])
        train_z = np.vstack([chart.responses, rel - w_glue @ chart.U.T])
        try:
            post = gp.predictive(train_w, train_z, test_u, hyper)
        except gp.FactorizationError as exc:
            raise gp.FactorizationError(f"chart {k}: {exc}") from exc
        out[k] = chart.base + test_u @ chart.U.T + post.mean
        reach[k] = np.max(np.linalg.norm(out[k] - chart.base, axis=1))

    made = np.flatnonzero(reach != -np.inf)
    # Rebinding frees the (n, K, D) buffer before PointCloud copies the rows.
    out = out[made].reshape(-1, D)
    points = PointCloud(out)
    if return_chart_index:
        return points, np.repeat(made, K)
    return points
