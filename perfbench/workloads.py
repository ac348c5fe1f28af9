"""The benchmark's workloads: inputs made from the seed, one timed operation
through mrgap's public API or its CLI, and checks against perfbench.oracles.

Every workload looks mrgap's functions up on the module at call time
(mrgap.denoise, cli.main, ...), which is where the tracer wraps them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import mrgap
import oracles
from mrgap import cli


def op_rng(seed: int, op: int) -> np.random.Generator:
    """Generator of operation op's inputs; stream 0 is reserved for
    references shared by all operations of a run."""
    return np.random.default_rng([seed, op + 1])


@dataclass
class Outcome:
    ok: bool
    residual_ratio: float
    info: dict


class Torus:
    """The paper's torus experiment, one seed per operation: denoise,
    interpolate, then grmse of the noisy, denoised and interpolated clouds
    against a 100 000-point truth sample."""

    n, sigma, K = 558, 0.12, 20
    config = mrgap.DenoiseConfig(epsilon=0.8, delta=1.0, intrinsic_dim=2,
                                 max_iter=2, sigma_tol=0.0)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        truth = oracles.sample_torus(100_000, np.random.default_rng([seed, 0]))
        self.truth = mrgap.PointCloud(truth)

    def inputs(self, op: int) -> dict:
        rng = op_rng(self.seed, op)
        clean = oracles.sample_torus(self.n, rng)
        noisy = clean + rng.normal(0.0, self.sigma, size=clean.shape)
        return {"noisy": mrgap.PointCloud(noisy),
                "interp_seed": int(rng.integers(2 ** 31))}

    def run(self, inp: dict):
        trace = mrgap.denoise(inp["noisy"], self.config)
        dense = mrgap.interpolate(trace, self.config, K=self.K,
                                  seed=inp["interp_seed"])
        clouds = (inp["noisy"], trace.clouds[-1], dense)
        program = [mrgap.grmse(c, self.truth).value for c in clouds]
        return trace, dense, program

    def check(self, inp: dict, out) -> Outcome:
        trace, dense, program = out
        clouds = (inp["noisy"], trace.clouds[-1], dense)
        dist = [oracles.torus_distance(c.points) for c in clouds]
        noisy, den, interp = (oracles.grmse(d) for d in dist)
        # The acceptance test's levels (0.085, 0.095, gain 1.5) bound a
        # median over seeds; single seeds miss them (seed 15: a few dozen
        # charts interpolate far off the torus).  Every seed seen keeps the
        # denoised cloud nearer than the noisy one, and most interpolated
        # points nearer than most noisy points.
        ok = den < noisy and np.median(dist[2]) < np.median(dist[0])
        ok &= dense.points.shape == (self.n * self.K, 3)
        ok &= bool(np.all(np.isfinite(dense.points)))
        # A finite sample of the surface is never nearer than the surface.
        for exact, sampled in zip((noisy, den, interp), program):
            ok &= exact <= sampled + 1e-9 and sampled <= exact + 0.01
        ok &= warm_start_kept(trace, self.config)
        # The ratio is taken on the denoised cloud.  With one operation per
        # run it is one seed's figure, and on the interpolated cloud it
        # spreads too widely between seeds to hold a bound (see README).
        return Outcome(bool(ok), den / noisy, {
            "grmse_noisy": noisy, "grmse_denoised": den,
            "grmse_interpolated": interp, "grmse_program": program,
        })


def warm_start_kept(trace, config) -> bool:
    """Every round after the first returns hyperparameters no worse than its
    warm start, under the dense likelihood on that round's charts."""
    for r in range(1, trace.rounds):
        charts = oracles.chart_regressions(
            trace.clouds[r].points, config.epsilon, config.delta,
            config.intrinsic_dim)
        new, warm = (oracles.dense_joint_log_likelihood(charts, h.A, h.rho, h.sigma)
                     for h in (trace.hypers[r], trace.hypers[r - 1]))
        if not new >= warm - 1e-9 * abs(warm):
            return False
    return True


class Spectra:
    """The 86-point five-harmonic curve in R^701, driven through the CLI:
    denoise --trace-out, then interpolate --trace, with CSV files between."""

    sigma, K = 0.005, 30
    denoise_args = ["--epsilon", "0.7", "--delta", "0.9", "--d", "1",
                    "--max-iter", "3", "--tol", "0"]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        basis = oracles.spectra_basis()
        self.clean = oracles.spectra_clean(basis)
        self.distance = oracles.SpectraDistance(basis)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def inputs(self, op: int) -> dict:
        rng = op_rng(self.seed, op)
        noisy = self.clean + rng.normal(0.0, self.sigma, size=self.clean.shape)
        path = self._path(f"noisy-{op}.csv")
        np.savetxt(path, noisy, delimiter=",", fmt="%.17g")
        return {"noisy": noisy, "path": path,
                "interp_seed": int(rng.integers(2 ** 31))}

    def run(self, inp: dict):
        den, trace, dense = (self._path(f) for f in
                             ("denoised.csv", "trace.json", "dense.csv"))
        code = cli.main(["denoise", "--in", inp["path"], *self.denoise_args,
                         "--out", den, "--trace-out", trace])
        if code == 0:
            code = cli.main(["interpolate", "--trace", trace, "--k", str(self.K),
                             "--seed", str(inp["interp_seed"]), "--out", dense])
        if code != 0:
            raise RuntimeError(f"mrgap exited with code {code}")
        return den, trace, dense

    def check(self, inp: dict, out) -> Outcome:
        den_path, trace_path, dense_path = out
        den = np.loadtxt(den_path, delimiter=",", ndmin=2)
        dense = np.loadtxt(dense_path, delimiter=",", ndmin=2)
        noisy_g, den_g, dense_g = (oracles.grmse(self.distance(p))
                                   for p in (inp["noisy"], den, dense))
        n_out = oracles.SPECTRA_N * self.K
        ok = (den.shape == inp["noisy"].shape
              and dense.shape == (n_out, oracles.SPECTRA_D)
              and bool(np.all(np.isfinite(dense)))
              and den_g < noisy_g and dense_g < noisy_g)
        return Outcome(bool(ok), dense_g / noisy_g, {
            "grmse_noisy": noisy_g, "grmse_denoised": den_g,
            "grmse_interpolated": dense_g,
            "trace_bytes": os.path.getsize(trace_path),
        })


class EllipsoidDim:
    """The ellipsoid in R^30: one estimate_dimension call per operation, each
    on its own sample."""

    n, ambient_dim, sigma, eps_dm = 2000, 30, 0.05, 2.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, op: int) -> dict:
        rng = op_rng(self.seed, op)
        clean = oracles.sample_ellipsoid(self.n, self.ambient_dim, rng)
        noisy = clean + rng.normal(0.0, self.sigma, size=clean.shape)
        return {"noisy": mrgap.PointCloud(noisy)}

    def run(self, inp: dict):
        return mrgap.estimate_dimension(inp["noisy"], eps_dm=self.eps_dm)

    def check(self, inp: dict, profile) -> Outcome:
        raw = oracles.mean_local_spectrum(inp["noisy"].points, self.eps_dm)
        floor = [lam[2] / lam[0] for lam in profile.lambda_bars]
        ok = (profile.estimated_dim == oracles.TRUE_DIM
              and max(floor) < raw[2] / raw[0])
        gap = float(np.median([lam[2] / lam[1] for lam in profile.lambda_bars]))
        return Outcome(bool(ok), gap, {
            "estimated_dim": profile.estimated_dim,
            "floor_embedded": floor, "floor_raw": raw[2] / raw[0],
        })


WORKLOADS = {"torus": Torus, "spectra": Spectra, "ellipsoid-dim": EllipsoidDim}
