"""Chart-by-chart interpolation of new on-manifold points.

Charts are rebuilt from the second-to-last denoised cloud and visited in
index order; each chart's training set is augmented with previously
interpolated points inside its delta-ball, which glues overlapping charts
together smoothly.  A new point is the chart's base plus its sampled
tangent displacement plus the posterior mean of the ambient residual there.
"""

from __future__ import annotations

import numpy as np

from . import gp
from .denoiser import DenoiseConfig, DenoiseTrace
from .local_geometry import build_charts
from .point_cloud import PointCloud, _check_count


def estimate_domain_ball(predictors: np.ndarray) -> tuple[np.ndarray, float]:
    """(center, radius) of a chart's sampling ball: the mean predictor, and
    the mean less the population stddev of the distances to it, or half
    their mean if that is not positive.  0 only if all predictors coincide."""
    center = predictors.mean(axis=0)
    dists = np.linalg.norm(predictors - center, axis=1)
    mean = float(dists.mean())
    radius = mean - float(dists.std())
    if radius <= 0.0:
        radius = 0.5 * mean
    return center, radius


def sample_ball_uniform(center: np.ndarray, radius: float, K: int,
                        seed: int) -> np.ndarray:
    """K i.i.d. uniform draws from the closed ball, in the dimension d of
    its center (Gaussian direction, radius scaled by u^(1/d))."""
    d = center.shape[0]
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(K, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=K) ** (1.0 / d)
    return center + dirs * radii[:, None]


def interpolate(
    trace: DenoiseTrace,
    config: DenoiseConfig,
    K: int,
    seed: int = 0,
) -> PointCloud:
    """Interpolate K points per chart from the trace's second-to-last cloud
    and last-round hyperparameters, gluing each chart to the points that
    earlier charts produced.  Returns n*K points: chart j's are rows j*K
    to (j+1)*K - 1.  A chart whose predictors coincide samples its
    radius-0 ball, so its K points are its surface at that one point."""
    _check_count(K, "K")
    _check_count(seed, "seed", 0)
    cloud = trace.clouds[-2]
    hyper = trace.hypers[-1]
    D = cloud.ambient_dim
    chart_seeds = np.random.SeedSequence(seed).generate_state(cloud.n, dtype=np.uint64)

    # Chart j's K points are out[j], all within reach[j] of y_j.
    out = np.empty((cloud.n, K, D))
    reach = np.empty(cloud.n)
    charts = build_charts(cloud, config.epsilon, config.delta,
                          config.intrinsic_dim)
    for k, chart in enumerate(charts):
        test_u = sample_ball_uniform(*estimate_domain_ball(chart.predictors),
                                     K, int(chart_seeds[k]))

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
        try:
            out[k], _ = gp.chart_points(chart, test_u, hyper, rel)
        except gp.FactorizationError as exc:
            raise gp.FactorizationError(f"chart {k}: {exc}") from exc
        reach[k] = np.max(np.linalg.norm(out[k] - chart.base, axis=1))

    return PointCloud(out.reshape(-1, D))
