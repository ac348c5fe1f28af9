"""Iterative denoising: per-point GP chart regressions, repeated until the
fitted noise level stabilizes.

Each round rebuilds every chart from the current cloud, fits one shared
(A, rho, sigma) across all charts, and moves each point by the chart's
posterior mean at the origin of its tangent coordinates.  That mean is a
combination of the chart's residual responses, so it is a displacement
in the normal space: no point moves along its own tangent directions.
"""

from __future__ import annotations

import math
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


def _at_unit_scale(cloud: PointCloud, config: DenoiseConfig,
                   hyper: gp.GpHyperParams | None = None):
    """(cloud, config, hyper, back) at unit scale: lengths times 2^-e, A and
    rho times 4^-e, e the frexp exponent of max |x| (0 if all x are 0).
    back(points, fits, variances) scales outputs back, points in place.  A
    power of 2 scales exactly, so 2^k X gives 2^k times the outputs.  A is
    kept positive: a flat cloud's A, its box's lower bound, underflows."""
    e = math.frexp(float(np.max(np.abs(cloud.points))))[1]

    def scaled(make, k, *values):  # make(*values), each (x, p) as x 2^(p k)
        try:
            return make(*(math.ldexp(x, p * k) for x, p in values))
        except (OverflowError, ValueError):
            raise ValueError(f"coordinate scale out of range: max |x| = "
                             f"{np.max(np.abs(cloud.points)):.3g}") from None

    def fit(h, k):
        return scaled(lambda A, rho, sigma: gp.GpHyperParams(
            max(A, math.ulp(0.0)), rho, sigma), k, (h.A, 2), (h.rho, 2),
            (h.sigma, 1))

    def back(points, hypers=(), variances=()):
        return ([PointCloud(np.ldexp(p, e, out=p)) for p in points],
                [fit(h, e) for h in hypers], np.ldexp(variances, 2 * e))

    unit = scaled(lambda epsilon, delta: DenoiseConfig(
        epsilon, delta, config.intrinsic_dim, config.sigma_tol and
        math.ldexp(config.sigma_tol, -e), config.max_iter), -e,
        (config.epsilon, 1), (config.delta, 1))
    return (PointCloud(np.ldexp(cloud.points, -e)), unit,
            hyper and fit(hyper, -e), back)


def denoise(cloud: PointCloud, config: DenoiseConfig) -> DenoiseTrace:
    """Run denoising rounds, at unit scale, until |sigma_i - sigma_{i-1}|
    <= sigma_tol or max_iter is reached, recording every intermediate cloud."""
    unit_cloud, config, _, back = _at_unit_scale(cloud, config)
    clouds, hypers = [unit_cloud], []
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
    clouds, hypers, var = back([np.array(c.points) for c in clouds[1:]],
                               hypers, var)
    return DenoiseTrace([cloud] + clouds, hypers, list(var))
