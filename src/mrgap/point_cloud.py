"""Point-cloud container, CSV persistence, synthetic generators and noise."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "NoiseSpec",
    "CsvFormatError",
    "load_csv",
    "save_csv",
    "gen_cassini",
    "gen_torus",
    "gen_ellipsoid_embedded",
    "add_gaussian_noise",
]

# All randomness goes through numpy's PCG64 generator seeded explicitly,
# so every stochastic operation is reproducible from its seed argument.


class CsvFormatError(ValueError):
    """Raised when a CSV file cannot be parsed into a point cloud."""


@dataclass(frozen=True)
class PointCloud:
    """n points in R^D stored as an (n, D) array.

    The array is made read-only on construction; clouds can be shared
    freely across threads.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d (n, D), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Isotropic Gaussian noise: per-coordinate standard deviation and seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


def _looks_numeric(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def load_csv(path) -> PointCloud:
    """Read one point per row from a comma-separated file.

    A non-numeric first row is treated as a header and skipped.
    Ragged or non-numeric rows raise CsvFormatError naming the offending
    row and column (1-based, counting the header if present).
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    start = 0
    if not _looks_numeric(rows[0]):
        start = 1
        if len(rows) == 1:
            raise CsvFormatError(f"{path}: header only, no data rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {i + 1} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                data[i - start, j] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {i + 1}, column {j + 1}: not numeric: {cell!r}"
                ) from None
    return PointCloud(data)


def save_csv(cloud: PointCloud, path) -> None:
    """Write one point per row; 17 significant digits for lossless round-trip."""
    np.savetxt(path, cloud.points, delimiter=",", fmt="%.17g")


def _cassini_xyz(theta: np.ndarray) -> np.ndarray:
    c2 = np.cos(2.0 * theta)
    rad = np.sqrt(c2 + np.sqrt(c2 ** 2 + 0.2))
    return np.column_stack(
        [rad * np.cos(theta), rad * np.sin(theta), 0.3 * np.sin(theta + np.pi)]
    )


def gen_cassini(n: int, seed: int = 0) -> PointCloud:
    """Cassini oval curve in R^3, sampled uniformly in the parameter theta.

    Uniform in [0, 2*pi) on the parameter, hence non-uniform along the
    curve itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PointCloud(_cassini_xyz(theta))


def gen_torus(n: int, seed: int = 0) -> PointCloud:
    """Torus (R=2, r=0.8) in R^3, uniform with respect to surface area.

    The tube angle u is rejection-sampled with acceptance proportional to
    2 + 0.8*cos(u); the axial angle v is uniform.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    R, r = 2.0, 0.8
    us = np.empty(0)
    while us.size < n:
        cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * n)
        acc = rng.uniform(0.0, 1.0, size=cand.size)
        us = np.concatenate([us, cand[acc < (R + r * np.cos(cand)) / (R + r)]])
    u = us[:n]
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = R + r * np.cos(u)
    return PointCloud(
        np.column_stack([ring * np.cos(v), ring * np.sin(v), r * np.sin(u)])
    )


# Semi-axes of the dimension-estimation test surface.
_ELLIPSOID_AXES = (2.0, 1.5, 1.0)


def gen_ellipsoid_embedded(
    n: int,
    ambient_dim: int = 30,
    seed: int = 0,
    slot: int = 13,
) -> PointCloud:
    """Uniform samples on a 2-ellipsoid, rotated and zero-padded into R^D.

    The ellipsoid x^2/4 + y^2/2.25 + z^2 = 1 is sampled uniformly by
    area (rejection against the spherical parametrization), rotated by a
    seeded random orthogonal 3x3 matrix, and placed in coordinates
    [slot, slot+3) of R^D (default: coordinates 14-16 of R^30).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if ambient_dim < 3:
        raise ValueError("ambient_dim must be >= 3")
    if not 0 <= slot <= ambient_dim - 3:
        raise ValueError(f"slot {slot} does not fit 3 coordinates in R^{ambient_dim}")
    rng = np.random.default_rng(seed)
    a, b, c = _ELLIPSOID_AXES
    # Uniform-on-sphere directions, thinned by the area distortion of the
    # map u -> (a u1, b u2, c u3); the distortion is maximized at a*b.
    pts = np.empty((0, 3))
    while pts.shape[0] < n:
        u = rng.normal(size=(2 * n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        dist = np.sqrt(
            (b * c * u[:, 0]) ** 2 + (a * c * u[:, 1]) ** 2 + (a * b * u[:, 2]) ** 2
        )
        keep = rng.uniform(0.0, 1.0, size=u.shape[0]) < dist / (a * b)
        pts = np.vstack([pts, u[keep] * np.array([a, b, c])])
    pts = pts[:n]
    rot = random_rotation(rng)
    embedded = np.zeros((n, ambient_dim))
    embedded[:, slot : slot + 3] = pts @ rot.T
    return PointCloud(embedded)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal 3x3 matrix (Haar via QR with sign fix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def add_gaussian_noise(cloud: PointCloud, spec: NoiseSpec) -> PointCloud:
    """Perturb every coordinate by independent N(0, sigma^2) draws."""
    if spec.sigma == 0.0:
        return cloud
    rng = np.random.default_rng(spec.seed)
    return PointCloud(cloud.points + rng.normal(0.0, spec.sigma, size=cloud.points.shape))
