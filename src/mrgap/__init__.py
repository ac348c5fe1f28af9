"""MrGap: probabilistic manifold reconstruction from noisy point clouds.

Denoises samples onto an estimated manifold with iterated local
Gaussian-process chart regressions, interpolates new on-manifold points
by gluing the charts, scores results with a geometric RMSE, and estimates
intrinsic dimension via diffusion maps.
"""

from .denoiser import DenoiseConfig, DenoiseTrace, denoise, denoise_round
from .evaluation import GrmseReport, grmse, grmse_analytic
from .gp import GpHyperParams, PredictiveGaussian, fit_hyperparams, predictive
from .interpolator import DomainBall, interpolate
from .local_geometry import ChartRegression
from .point_cloud import (
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    gen_cassini,
    gen_ellipsoid_embedded,
    gen_torus,
    load_csv,
    save_csv,
)
from .spectral_dim import estimate_dimension, mean_local_eigenvalues

__all__ = [
    "PointCloud",
    "NoiseSpec",
    "load_csv",
    "save_csv",
    "gen_cassini",
    "gen_torus",
    "gen_ellipsoid_embedded",
    "add_gaussian_noise",
    "ChartRegression",
    "GpHyperParams",
    "PredictiveGaussian",
    "predictive",
    "fit_hyperparams",
    "DenoiseConfig",
    "DenoiseTrace",
    "denoise",
    "denoise_round",
    "DomainBall",
    "interpolate",
    "GrmseReport",
    "grmse",
    "grmse_analytic",
    "estimate_dimension",
    "mean_local_eigenvalues",
]

__version__ = "0.1.0"
