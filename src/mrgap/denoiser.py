"""Iterative denoising: per-point GP chart regressions, repeated until the
fitted noise level stabilizes.

Each round rebuilds every chart from the current cloud, fits one shared
(A, rho, sigma) across all charts, and moves each point by the chart's
posterior mean at the origin of its tangent coordinates.  That mean is a
combination of the chart's residual responses, so it is a displacement
in the normal space: no point moves along its own tangent directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gp
from .local_geometry import build_charts, check_radii
from .point_cloud import PointCloud


@dataclass(frozen=True)
class DenoiseConfig:
    epsilon: float
    delta: float
    intrinsic_dim: int
    sigma_tol: float | None = None  # None: 0.05 * first-round sigma
    max_iter: int = 10

    def __post_init__(self):
        check_radii(self.epsilon, self.delta)
        if self.sigma_tol is not None and not 0 <= self.sigma_tol < np.inf:
            raise ValueError("sigma_tol must be finite and nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.intrinsic_dim < 1:
            raise ValueError("intrinsic_dim must be >= 1")


@dataclass(frozen=True)
class DenoiseTrace:
    """Everything the interpolation phase needs from the denoising run.

    clouds[0] is the input, clouds[-1] the final denoised output; the
    interpolator consumes clouds[-2] together with hypers[-1].  A trace
    read from a file (mrgap.cli.trace_from_json) holds only its last two
    clouds, clouds[-2] and clouds[-1]; its other fields are complete.
    """

    clouds: list[PointCloud]
    hypers: list[gp.GpHyperParams]
    predictive_variances: list[float] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.hypers)

    @property
    def sigma_history(self) -> list[float]:
        return [h.sigma for h in self.hypers]


def denoise_round(
    cloud: PointCloud,
    config: DenoiseConfig,
    hyper_warm: gp.GpHyperParams | None = None,
) -> tuple[PointCloud, gp.GpHyperParams, np.ndarray]:
    """One denoising pass: returns (new cloud, fitted hyperparameters,
    per-point predictive variance at the chart origin)."""
    charts = build_charts(cloud, config.epsilon, config.delta,
                          config.intrinsic_dim)
    hyper = gp.fit_hyperparams(charts, hyper_warm)
    origin = np.zeros((1, config.intrinsic_dim))
    new_pts = np.empty_like(cloud.points)
    variances = np.empty(cloud.n)
    for k, chart in enumerate(charts):
        post = gp.predictive(chart.predictors, chart.responses, origin, hyper)
        new_pts[k] = cloud.points[k] + post.mean[0]
        variances[k] = post.covariance[0, 0]
    return PointCloud(new_pts), hyper, variances


def denoise(cloud: PointCloud, config: DenoiseConfig) -> DenoiseTrace:
    """Run denoising rounds until |sigma_i - sigma_{i-1}| <= sigma_tol or
    max_iter is reached, recording every intermediate cloud."""
    clouds = [cloud]
    hypers: list[gp.GpHyperParams] = []
    variances: list[float] = []
    tol = config.sigma_tol
    for _ in range(config.max_iter):
        new_cloud, hyper, var = denoise_round(
            clouds[-1], config, hypers[-1] if hypers else None)
        clouds.append(new_cloud)
        hypers.append(hyper)
        variances = list(var)
        if tol is None:
            tol = 0.05 * hypers[0].sigma
        if len(hypers) >= 2 and abs(hypers[-1].sigma - hypers[-2].sigma) <= tol:
            break
    return DenoiseTrace(
        clouds=clouds,
        hypers=hypers,
        predictive_variances=variances,
    )
