"""Point-cloud container, CSV persistence, synthetic generators and noise."""

from __future__ import annotations

import contextlib
import csv
import io
import operator
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

# All randomness goes through numpy's PCG64 generator seeded explicitly,
# so every stochastic operation is reproducible from its seed argument.


class CsvFormatError(ValueError):
    """Raised when a CSV file cannot be parsed into a point cloud."""


def _check_count(value, name: str, low: int = 1) -> None:
    """The rule for every count and seed: an integer (not a bool) >= low."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= low
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be >= {low} and an integer, "
                         f"got {value!r}")


def _check_real(value, name: str, low: str = "positive") -> None:
    """The rule for every real parameter: a Python or NumPy number, not a
    bool or a string, finite and positive (low="nonnegative": >= 0)."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and (0 < value if low == "positive" else 0 <= value)
            and value <= np.finfo(float).max):
        raise ValueError(f"{name} must be finite and {low}, got {value!r}")


@dataclass(frozen=True)
class PointCloud:
    """n >= 1 points in R^D, D >= 1, stored as an (n, D) array.

    The array is made read-only on construction; clouds can be shared
    freely across threads.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or not pts.size:
            raise ValueError(
                f"points must be (n, D), n >= 1, D >= 1, got {pts.shape}")
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
        _check_real(self.sigma, "sigma", "nonnegative")
        _check_count(self.seed, "seed", 0)


def _split(path, rows: list[str], start: int):
    """(1-based row number, cells) of each CSV row of rows[start:]; a cell
    over the csv module's field size limit raises CsvFormatError."""
    i = start
    try:
        for i, cells in enumerate(csv.reader(rows[start:]), start + 1):
            yield i, cells
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: row {i + 1}: {exc}")


def _bad_row(path, rows: list[str], start: int) -> CsvFormatError | None:
    """The error naming the first ragged or non-numeric row of rows[start:],
    if float() finds one."""
    width = None
    for i, row in _split(path, rows, start):
        width = len(row) if width is None else width
        if len(row) != width:
            return CsvFormatError(
                f"{path}: row {i} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                return CsvFormatError(
                    f"{path}: row {i}, column {j + 1}: not numeric: {cell!r}")
    return None


def load_csv(path) -> PointCloud:
    """Read one point per row from a comma-separated UTF-8 file, opened
    once and read whole, so a pipe or a FIFO works.

    Lines end where text-mode open ends them.  A non-numeric first row
    is a header and is skipped; so are blank rows, whitespace-only ones
    included, and a UTF-8 byte-order mark.  Ragged, non-numeric,
    non-finite (nan, inf) or oversized cells raise CsvFormatError naming
    the row and column (1-based among the non-blank rows, counting the
    header if present), and a byte that is not UTF-8 its line.
    """
    with open(path, "rb") as fh:
        text = io.TextIOWrapper(io.BytesIO(fh.read()), encoding="utf-8-sig")
    try:
        rows = [line for line in text if line.strip()]
    except UnicodeDecodeError as exc:
        # exc.object is the chunk being decoded; it ends at buffer.tell().
        offset = text.buffer.tell() - len(exc.object) + exc.start
        line = text.buffer.getvalue().count(b"\n", 0, offset) + 1
        raise CsvFormatError(f"{path}: line {line}: not UTF-8 at offset "
                             f"{offset}: {exc.reason}") from None
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
    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        row, cells = next(_split(path, rows, start + i))
        raise CsvFormatError(f"{path}: row {row}, column {j + 1}: "
                             f"not finite: {cells[j]!r}")
    return PointCloud(data)


# Values per part of a split CSV write.  Formatting 2^17 values at %.17g
# takes 65-85 ms on a 2-core x86 VM (CPython 3.11), against 11-15 ms to
# start `python -I -S`, so an array of fewer than two parts is written in
# process.
_PART_VALUES = 2 ** 17

# A child's script: the rows of one block arrive on stdin as native
# float64, argv[1] values a row, and leave on stdout as np.savetxt writes
# them at fmt="%.17g", delimiter=",": both use CPython's own % formatting.
_FORMAT_ROWS = """
import array, sys
values = array.array("d", sys.stdin.buffer.read())
cols = int(sys.argv[1])
row = ",".join(["%.17g"] * cols) + "\\n"
write = sys.stdout.buffer.write
for i in range(0, len(values), cols):
    write((row % tuple(values[i:i + cols])).encode())
"""


def _usable_cpus() -> int:
    """The count of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def save_csv(cloud: PointCloud | np.ndarray, path) -> None:
    """Write a cloud or array as CSV rows of 17 significant digits to an
    open text file, or as plain text to a path (opened once, any suffix).
    An empty array (load_csv refuses the empty file it would make), or
    one that is not 1-D or 2-D, raises ValueError before the path is
    opened.

    The bytes are np.savetxt's at fmt="%.17g".  The rows are cut into
    min(usable CPUs, values // _PART_VALUES, rows) blocks, or into one if
    that is below 2 or no interpreter path is known.  This process
    formats the first block and a child interpreter each other one into
    a spool file, copied out in order.  Every child has ended when the
    call returns or raises; a child that fails raises OSError."""
    rows = np.asarray(cloud.points if isinstance(cloud, PointCloud) else cloud)
    if rows.size == 0:
        raise ValueError(f"cannot write an empty array, shape {rows.shape}")
    if rows.ndim not in (1, 2):
        raise ValueError(
            f"Expected 1D or 2D array, got {rows.ndim}D array instead")
    parts = min(_usable_cpus(), rows.size // _PART_VALUES, len(rows))
    blocks = np.array_split(rows, parts if parts >= 2 and sys.executable
                            else 1)
    with contextlib.ExitStack() as stack:
        fh = (path if hasattr(path, "write")
              else stack.enter_context(open(path, "w")))
        children = []
        for block in blocks[1:]:
            spool = stack.enter_context(tempfile.TemporaryFile())
            with tempfile.TemporaryFile() as values:
                values.write(np.ascontiguousarray(block, dtype=float))
                values.seek(0)
                child = stack.enter_context(subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _FORMAT_ROWS,
                     str(block[0].size)],
                    stdin=values, stdout=spool, stderr=subprocess.PIPE))
            # Kill, then reap: after an interrupt Popen's exit waits at
            # most 0.25 s, or not at all if an interrupted wait already did.
            stack.callback(child.wait)
            stack.callback(child.kill)
            children.append((child, spool))
        np.savetxt(fh, blocks[0], delimiter=",", fmt="%.17g")
        for child, spool in children:
            _, err = child.communicate()
            if child.returncode:
                last = err.decode(errors="replace").strip().rsplit("\n", 1)
                raise OSError(f"a CSV writer process exited with status "
                              f"{child.returncode}: {last[-1] or 'no message'}")
            spool.seek(0)
            for line in spool:
                fh.write(line.decode())


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
    _check_count(n, "n")
    _check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PointCloud(_cassini_xyz(theta))


def gen_torus(n: int, seed: int = 0) -> PointCloud:
    """Torus (R=2, r=0.8) in R^3, uniform with respect to surface area.

    The tube angle u is rejection-sampled with acceptance proportional to
    2 + 0.8*cos(u); the axial angle v is uniform.
    """
    _check_count(n, "n")
    _check_count(seed, "seed", 0)
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
    _check_count(n, "n")
    _check_count(ambient_dim, "ambient_dim", _ELLIPSOID_SLOT + 3)
    _check_count(seed, "seed", 0)
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
