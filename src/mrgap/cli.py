"""Command-line pipeline: generate, denoise, interpolate, evaluate,
estimate-dim.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import gp
from .denoiser import DenoiseConfig, DenoiseTrace, denoise
from .evaluation import grmse
from .interpolator import interpolate
from .local_geometry import InsufficientNeighborsError
from .point_cloud import (
    CsvFormatError,
    NoiseSpec,
    PointCloud,
    add_gaussian_noise,
    gen_cassini,
    gen_ellipsoid_embedded,
    gen_torus,
    load_csv,
    save_csv,
)
from .spectral_dim import DimensionEstimateError, estimate_dimension

TRACE_SCHEMA = 1

_GENERATORS = {
    "cassini": gen_cassini,
    "torus": gen_torus,
    "ellipsoid": gen_ellipsoid_embedded,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def trace_to_json(trace: DenoiseTrace, config: DenoiseConfig) -> dict:
    return {
        "schema": TRACE_SCHEMA,
        "config": {
            "epsilon": config.epsilon,
            "delta": config.delta,
            "intrinsic_dim": config.intrinsic_dim,
            "max_iter": config.max_iter,
        },
        "rounds": trace.rounds,
        "hypers": [
            {"A": h.A, "rho": h.rho, "sigma": h.sigma} for h in trace.hypers
        ],
        "sigma_history": list(trace.sigma_history),
        "predictive_variances": list(trace.predictive_variances),
        "clouds": [c.points.tolist() for c in trace.clouds],
    }


def trace_from_json(doc: dict) -> tuple[DenoiseTrace, DenoiseConfig]:
    if doc.get("schema") != TRACE_SCHEMA:
        raise CliError(f"unsupported trace schema: {doc.get('schema')!r}")
    cfg = doc["config"]
    config = DenoiseConfig(
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        intrinsic_dim=cfg["intrinsic_dim"],
        max_iter=cfg["max_iter"],
    )
    trace = DenoiseTrace(
        clouds=[PointCloud(np.asarray(c)) for c in doc["clouds"]],
        hypers=[gp.GpHyperParams(**h) for h in doc["hypers"]],
        sigma_history=list(doc["sigma_history"]),
        predictive_variances=list(doc.get("predictive_variances", [])),
    )
    return trace, config


def _load(path: str) -> PointCloud:
    if not os.path.exists(path):
        raise CliError(f"input file not found: {path}")
    try:
        return load_csv(path)
    except CsvFormatError as exc:
        raise CliError(str(exc)) from exc


def _cap_threads(n: int | None) -> None:
    if n is None:
        env = os.environ.get("MRGAP_THREADS")
        n = int(env) if env else None
    if n is not None:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            print("warning: thread cap unavailable", file=sys.stderr)
            return
        threadpool_limits(limits=n)


def cmd_generate(args) -> int:
    gen = _GENERATORS.get(args.shape)
    if gen is None:
        raise CliError(f"unknown shape: {args.shape}")
    if args.shape == "ellipsoid":
        clean = gen(args.n, args.ambient_dim, args.seed)
    else:
        clean = gen(args.n, args.seed)
    base, ext = os.path.splitext(args.out)
    clean_path = args.out if args.sigma == 0 else f"{base}_clean{ext}"
    save_csv(clean, clean_path)
    print(clean_path)
    if args.sigma > 0:
        noisy = add_gaussian_noise(clean, NoiseSpec(args.sigma, args.seed + 1))
        save_csv(noisy, args.out)
        print(args.out)
    return 0


def cmd_denoise(args) -> int:
    cloud = _load(args.input)
    config = DenoiseConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        intrinsic_dim=args.d,
        sigma_tol=args.tol,
        max_iter=args.max_iter,
    )
    try:
        trace = denoise(cloud, config)
    except (InsufficientNeighborsError, gp.FactorizationError,
            gp.OptimizationError) as exc:
        raise CliError(str(exc), code=3) from exc
    save_csv(trace.clouds[-1], args.out)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(trace_to_json(trace, config), fh)
    print(args.out)
    return 0


def cmd_interpolate(args) -> int:
    if not os.path.exists(args.trace):
        raise CliError(f"trace file not found: {args.trace}")
    with open(args.trace) as fh:
        trace, config = trace_from_json(json.load(fh))
    try:
        cloud, chart_idx = interpolate(
            trace, config, args.k, args.seed, return_chart_index=True
        )
    except gp.FactorizationError as exc:
        raise CliError(str(exc), code=3) from exc
    save_csv(cloud, args.out)
    if args.chart_index_out:
        with open(args.chart_index_out, "w") as fh:
            json.dump({"chart_index": chart_idx.tolist()}, fh)
    print(args.out)
    return 0


def cmd_evaluate(args) -> int:
    eval_set = _load(args.input)
    reference = _load(args.reference)
    if eval_set.ambient_dim != reference.ambient_dim:
        raise CliError(
            f"ambient dimensions differ: {eval_set.ambient_dim} vs "
            f"{reference.ambient_dim}"
        )
    report = grmse(eval_set, reference, keep_distances=bool(args.distances_out))
    print(f"{report.value:.17g}")
    if args.distances_out:
        np.savetxt(args.distances_out, report.per_point_distances,
                   delimiter=",", fmt="%.17g")
    return 0


def cmd_estimate_dim(args) -> int:
    cloud = _load(args.input)
    embed_dims = [int(x) for x in args.embed_dims.split(",")] \
        if args.embed_dims else None
    eps_grid = [float(x) for x in args.eps_grid.split(",")] \
        if args.eps_grid else None
    try:
        profile = estimate_dimension(cloud, args.eps_dm, embed_dims, eps_grid)
    except DimensionEstimateError as exc:
        raise CliError(str(exc), code=3) from exc
    print(profile.estimated_dim)
    if args.profile_out:
        width = max(len(lam) for lam in profile.lambda_bars)
        rows = []
        for eps, lam in zip(profile.epsilons, profile.lambda_bars):
            row = [eps] + list(lam) + [np.nan] * (width - len(lam))
            rows.append(row)
        np.savetxt(args.profile_out, np.asarray(rows), delimiter=",",
                   fmt="%.17g")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mrgap")
    p.add_argument("--threads", type=int, default=None,
                   help="cap internal linear-algebra parallelism")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a manifold sample")
    g.add_argument("--shape", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--ambient-dim", type=int, default=30)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("denoise", help="iteratively denoise a cloud")
    d.add_argument("--in", dest="input", required=True)
    d.add_argument("--epsilon", type=float, required=True)
    d.add_argument("--delta", type=float, required=True)
    d.add_argument("--d", type=int, required=True)
    d.add_argument("--tol", type=float, default=None)
    d.add_argument("--max-iter", type=int, default=10)
    d.add_argument("--out", required=True)
    d.add_argument("--trace-out", default=None)
    d.set_defaults(func=cmd_denoise)

    i = sub.add_parser("interpolate", help="interpolate points per chart")
    i.add_argument("--trace", required=True)
    i.add_argument("--k", type=int, required=True)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--out", required=True)
    i.add_argument("--chart-index-out", default=None)
    i.set_defaults(func=cmd_interpolate)

    e = sub.add_parser("evaluate", help="GRMSE between two clouds")
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--ref", dest="reference", required=True)
    e.add_argument("--distances-out", default=None)
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("estimate-dim", help="intrinsic dimension estimate")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--eps-dm", type=float, required=True)
    s.add_argument("--embed-dims", default=None,
                   help="comma-separated embedding dimensions")
    s.add_argument("--eps-grid", default=None,
                   help="comma-separated local-PCA bandwidths")
    s.add_argument("--profile-out", default=None)
    s.set_defaults(func=cmd_estimate_dim)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    _cap_threads(args.threads)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
