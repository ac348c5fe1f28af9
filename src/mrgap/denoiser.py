"""Iterative denoising: per-point GP chart regressions, repeated until the
fitted noise level stabilizes.

Each round rebuilds every chart from the current cloud, fits one shared
(A, rho, sigma) across all charts, and moves each point by the chart's
posterior mean at the origin of its tangent coordinates.  That mean is a
combination of the chart's residual responses, so it is a displacement
in the normal space: no point moves along its own tangent directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp
from .local_geometry import build_charts, check_radii
from .point_cloud import PointCloud, _check_count, _check_real


@dataclass(frozen=True)
class DenoiseConfig:
    epsilon: float
    delta: float
    intrinsic_dim: int
    sigma_tol: float | None = None  # None: 0.05 * first-round sigma
    max_iter: int = 10

    def __post_init__(self):
        check_radii(self.epsilon, self.delta)
        if self.sigma_tol is not None:
            _check_real(self.sigma_tol, "sigma_tol", "nonnegative")
        _check_count(self.max_iter, "max_iter")
        _check_count(self.intrinsic_dim, "intrinsic_dim")


@dataclass(frozen=True)
class DenoiseTrace:
    """Everything the interpolation phase needs from the denoising run.

    clouds[-1] is the denoised output; the interpolator reads clouds[-2]
    with hypers[-1].  A trace from denoise holds the input as clouds[0];
    one from cli.trace_from_json holds just clouds[-2:].
    predictive_variances[k] is the last round's posterior variance at the
    base of chart k, where its displacement was predicted.  A trace holds
    at least 2 clouds, all of one shape, at least 1 fit, and one finite,
    nonnegative variance per point of clouds[-1]; anything else raises
    ValueError naming the field.
    """

    clouds: list[PointCloud]
    hypers: list[gp.GpHyperParams]
    predictive_variances: list[float]

    def __post_init__(self):
        if len(self.clouds) < 2 or len({c.points.shape
                                        for c in self.clouds}) > 1:
            raise ValueError("field 'clouds' must hold at least 2 clouds, "
                             "all of one shape")
        if not self.hypers:
            raise ValueError("field 'hypers' must hold at least 1 fit")
        var = np.asarray(self.predictive_variances, dtype=float)
        n = self.clouds[-1].n
        if var.shape != (n,) or not np.all((0 <= var) & (var < np.inf)):
            raise ValueError(f"field 'predictive_variances' must hold one "
                             f"finite, nonnegative value per point of "
                             f"clouds[-1]: {var.size} values, {n} points")

    @property
    def rounds(self) -> int:
        return len(self.hypers)


def denoise_round(cloud: PointCloud, config: DenoiseConfig,
                  hyper_warm: gp.GpHyperParams | None = None,
                  ) -> tuple[PointCloud, gp.GpHyperParams, np.ndarray]:
    """One denoising pass: returns (new cloud, fitted hyperparameters,
    per-point predictive variance at the chart origin)."""
    charts = build_charts(cloud, config.epsilon, config.delta,
                          config.intrinsic_dim)
    hyper = gp.fit_hyperparams(charts, hyper_warm)
    origin = np.zeros((1, config.intrinsic_dim))
    no_extra = np.empty((0, cloud.ambient_dim))
    points, variances = zip(*(gp.chart_points(chart, origin, hyper, no_extra)
                              for chart in charts))
    return PointCloud(np.vstack(points)), hyper, np.concatenate(variances)


def denoise(cloud: PointCloud, config: DenoiseConfig) -> DenoiseTrace:
    """Run denoising rounds until |sigma_i - sigma_{i-1}| <= sigma_tol or
    max_iter is reached, recording every intermediate cloud."""
    clouds = [cloud]
    hypers: list[gp.GpHyperParams] = []
    tol = config.sigma_tol
    for _ in range(config.max_iter):
        new_cloud, hyper, var = denoise_round(
            clouds[-1], config, hypers[-1] if hypers else None)
        clouds.append(new_cloud)
        hypers.append(hyper)
        if tol is None:
            tol = 0.05 * hypers[0].sigma
        if len(hypers) >= 2 and abs(hypers[-1].sigma - hypers[-2].sigma) <= tol:
            break
    # max_iter >= 1, so var holds the last round's variances.
    return DenoiseTrace(clouds, hypers, list(var))
