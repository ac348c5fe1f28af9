"""Point-cloud container, CSV persistence, synthetic generators and noise."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

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
        if not 0 <= self.sigma < np.inf:
            raise ValueError(
                f"sigma must be finite and nonnegative, got {self.sigma}")


def _bad_row(path, rows: list[str], start: int) -> CsvFormatError | None:
    """The error naming the first ragged or non-numeric row of rows[start:],
    if float() finds one."""
    width = None
    for i, row in enumerate(csv.reader(rows[start:]), start=start):
        width = len(row) if width is None else width
        if len(row) != width:
            return CsvFormatError(
                f"{path}: row {i + 1} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                return CsvFormatError(
                    f"{path}: row {i + 1}, column {j + 1}: not numeric: {cell!r}"
                )
    return None


def load_csv(path) -> PointCloud:
    """Read one point per row from a comma-separated file.

    A non-numeric first row is treated as a header and skipped; blank
    rows are skipped.  Ragged or non-numeric rows raise CsvFormatError
    naming the offending row and column (1-based among the non-blank
    rows, counting the header if present).
    """
    with open(path) as fh:
        rows = [line for line in fh if line != "\n"]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    start = 0 if _bad_row(path, rows[:1], 0) is None else 1
    if start == len(rows):
        raise CsvFormatError(f"{path}: header only, no data rows")
    # numpy's C parser reads the rows; a row it rejects is then found
    # and named by the loop in _bad_row.
    try:
        data = np.loadtxt(rows[start:], dtype=float, delimiter=",",
                          comments=None, quotechar='"', ndmin=2)
    except ValueError as exc:
        raise _bad_row(path, rows, start) or CsvFormatError(
            f"{path}: {exc}") from None
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


# Semi-axes of the dimension-estimation test surface, and the first of the
# three coordinates of R^D it occupies.
_ELLIPSOID_AXES = (2.0, 1.5, 1.0)
_ELLIPSOID_SLOT = 13


def gen_ellipsoid_embedded(
    n: int,
    ambient_dim: int = 30,
    seed: int = 0,
) -> PointCloud:
    """Uniform samples on a 2-ellipsoid, rotated and zero-padded into R^D.

    The ellipsoid x^2/4 + y^2/2.25 + z^2 = 1 is sampled uniformly by
    area (rejection against the spherical parametrization), rotated by a
    seeded random orthogonal 3x3 matrix, and placed in coordinates
    14-16 of R^D (0-based 13-15), so D must be at least 16.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if ambient_dim < _ELLIPSOID_SLOT + 3:
        raise ValueError(
            f"ambient_dim must be >= {_ELLIPSOID_SLOT + 3}, got {ambient_dim}")
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
    embedded[:, _ELLIPSOID_SLOT : _ELLIPSOID_SLOT + 3] = pts @ rot.T
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
