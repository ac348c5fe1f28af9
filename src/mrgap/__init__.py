"""MrGap: probabilistic manifold reconstruction from noisy point clouds.

Denoises samples onto an estimated manifold with iterated local
Gaussian-process chart regressions, interpolates new on-manifold points
by gluing the charts, scores results with a geometric RMSE, and estimates
intrinsic dimension via diffusion maps.
"""

from .denoiser import DenoiseConfig, DenoiseTrace, denoise
from .evaluation import grmse
from .gp import GpHyperParams
from .interpolator import interpolate
from .point_cloud import (NoiseSpec, PointCloud, add_gaussian_noise,
                          gen_cassini, gen_ellipsoid_embedded, gen_torus,
                          load_csv, save_csv)
from .spectral_dim import estimate_dimension

__all__ = [
    "PointCloud", "NoiseSpec", "load_csv", "save_csv",
    "gen_cassini", "gen_torus", "gen_ellipsoid_embedded", "add_gaussian_noise",
    "GpHyperParams", "DenoiseConfig", "DenoiseTrace", "denoise",
    "interpolate", "grmse", "estimate_dimension",
]

__version__ = "0.1.0"
