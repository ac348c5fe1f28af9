"""Command-line pipeline: generate, denoise, interpolate, evaluate,
estimate-dim.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import base64
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

TRACE_SCHEMA = 2

_GENERATORS = {
    "cassini": gen_cassini,
    "torus": gen_torus,
    "ellipsoid": gen_ellipsoid_embedded,
}


# Numerical failures, which exit 3.  InsufficientNeighborsError is a
# ValueError, so main catches these first.
_NUMERICAL = (InsufficientNeighborsError, gp.FactorizationError,
              gp.OptimizationError, DimensionEstimateError)


class CliError(Exception):
    """A malformed field of a trace file.  main maps it, like every
    ValueError and OSError, to exit 2."""


def _encode_cloud(cloud: PointCloud) -> dict:
    """A cloud as its shape and base64 little-endian float64 bytes."""
    pts = cloud.points.astype("<f8", copy=False)
    return {"shape": list(pts.shape), "dtype": "<f8",
            "data": base64.b64encode(pts.tobytes()).decode("ascii")}


def trace_to_json(trace: DenoiseTrace, config: DenoiseConfig) -> dict:
    """The trace document: config, fitted hyperparameters, last-round
    variances, and only the last two clouds, which is all that interpolate
    reads.  rounds and sigma_history are derived from the hyperparameters,
    written for readers of the file and never read back."""
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
        "clouds": [_encode_cloud(c) for c in trace.clouds[-2:]],
    }


_KINDS = {
    # abs(v) <= max is False for inf and nan, and exact for any int.
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _check(value, kind: str, name: str):
    if not _KINDS[kind](value):
        raise CliError(f"trace: field {name!r} must be of type {kind}")
    return value


def _field(obj: dict, key: str, kind: str, where: str = ""):
    """obj[key], checked to be present and of the given kind."""
    name = f"{where}.{key}" if where else key
    if key not in obj:
        raise CliError(f"trace: missing field {name!r}")
    return _check(obj[key], kind, name)


def _numbers(doc: dict, key: str) -> list[float]:
    values = _field(doc, key, "list")
    for i, v in enumerate(values):
        _check(v, "number", f"{key}[{i}]")
    return list(values)


def _decode_cloud(doc, where: str) -> PointCloud:
    _check(doc, "object", where)
    shape = _field(doc, "shape", "list", where)
    if len(shape) != 2 or not all(_KINDS["integer"](x) and x > 0
                                  for x in shape):
        raise CliError(f"trace: field '{where}.shape' must be [n, D], "
                       f"both positive integers")
    if _field(doc, "dtype", "string", where) != "<f8":
        raise CliError(f"trace: field '{where}.dtype' must be '<f8'")
    try:
        raw = base64.b64decode(_field(doc, "data", "string", where),
                               validate=True)
    except ValueError as exc:
        raise CliError(f"trace: field '{where}.data' is not base64: {exc}") \
            from exc
    n, D = shape
    if len(raw) != 8 * n * D:
        raise CliError(f"trace: field '{where}.data' holds {len(raw)} bytes, "
                       f"shape {shape} needs {8 * n * D}")
    try:
        return PointCloud(np.frombuffer(raw, dtype="<f8").reshape(n, D))
    except ValueError as exc:
        raise CliError(f"trace: field {where!r}: {exc}") from exc


def trace_from_json(doc) -> tuple[DenoiseTrace, DenoiseConfig]:
    """The trace and config of a schema-2 document.  A missing or
    ill-typed field raises CliError naming it.  rounds and sigma_history
    are not read: the hyperparameters determine them."""
    if not isinstance(doc, dict):
        raise CliError("trace: not a JSON object")
    if doc.get("schema") != TRACE_SCHEMA:
        raise CliError(
            f"trace: field 'schema' is {doc.get('schema')!r}, this version "
            f"reads schema {TRACE_SCHEMA}; re-run `mrgap denoise "
            f"--trace-out` to write a new trace")
    cfg = _field(doc, "config", "object")
    try:
        config = DenoiseConfig(
            epsilon=_field(cfg, "epsilon", "number", "config"),
            delta=_field(cfg, "delta", "number", "config"),
            intrinsic_dim=_field(cfg, "intrinsic_dim", "integer", "config"),
            max_iter=_field(cfg, "max_iter", "integer", "config"),
        )
    except ValueError as exc:
        raise CliError(f"trace: field 'config': {exc}") from exc
    hypers = []
    for i, h in enumerate(_field(doc, "hypers", "list")):
        where = f"hypers[{i}]"
        _check(h, "object", where)
        try:
            hypers.append(gp.GpHyperParams(
                *(_field(h, k, "number", where) for k in ("A", "rho", "sigma"))))
        except ValueError as exc:
            raise CliError(f"trace: field {where!r}: {exc}") from exc
    if not hypers:
        raise CliError("trace: field 'hypers' is empty")
    variances = _numbers(doc, "predictive_variances")
    encoded = _field(doc, "clouds", "list")
    if len(encoded) != 2:
        raise CliError(f"trace: field 'clouds' must hold 2 clouds, "
                       f"not {len(encoded)}")
    clouds = [_decode_cloud(c, f"clouds[{i}]") for i, c in enumerate(encoded)]
    if clouds[0].points.shape != clouds[1].points.shape:
        raise CliError("trace: field 'clouds': the two shapes differ")
    if len(variances) != clouds[1].n:
        raise CliError(f"trace: field 'predictive_variances' holds "
                       f"{len(variances)} values, the clouds {clouds[1].n} "
                       f"points")
    return DenoiseTrace(clouds, hypers, variances), config


def cmd_generate(args) -> int:
    gen = _GENERATORS[args.shape]
    noise = NoiseSpec(args.sigma, args.seed + 1)
    extra = {}
    if args.ambient_dim is not None:
        if args.shape != "ellipsoid":
            raise ValueError("--ambient-dim applies only to --shape ellipsoid")
        extra["ambient_dim"] = args.ambient_dim
    clean = gen(args.n, seed=args.seed, **extra)
    base, ext = os.path.splitext(args.out)
    clean_path = args.out if noise.sigma == 0 else f"{base}_clean{ext}"
    save_csv(clean, clean_path)
    print(clean_path)
    if noise.sigma > 0:
        noisy = add_gaussian_noise(clean, noise)
        save_csv(noisy, args.out)
        print(args.out)
    return 0


def cmd_denoise(args) -> int:
    cloud = load_csv(args.input)
    config = DenoiseConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        intrinsic_dim=args.d,
        sigma_tol=args.tol,
        max_iter=args.max_iter,
    )
    trace = denoise(cloud, config)
    save_csv(trace.clouds[-1], args.out)
    if args.trace_out:
        # json.dumps runs the C encoder; json.dump the pure-Python one.
        with open(args.trace_out, "w") as fh:
            fh.write(json.dumps(trace_to_json(trace, config)))
    print(args.out)
    return 0


def cmd_interpolate(args) -> int:
    with open(args.trace) as fh:
        trace, config = trace_from_json(json.load(fh))
    cloud, chart_idx = interpolate(
        trace, config, args.k, args.seed, return_chart_index=True
    )
    save_csv(cloud, args.out)
    if args.chart_index_out:
        with open(args.chart_index_out, "w") as fh:
            json.dump({"chart_index": chart_idx.tolist()}, fh)
    print(args.out)
    return 0


def cmd_evaluate(args) -> int:
    eval_set = load_csv(args.input)
    reference = load_csv(args.reference)
    report = grmse(eval_set, reference)
    print(f"{report.value:.17g}")
    if args.distances_out:
        np.savetxt(args.distances_out, report.per_point_distances,
                   delimiter=",", fmt="%.17g")
    return 0


def cmd_estimate_dim(args) -> int:
    cloud = load_csv(args.input)
    embed_dims = [int(x) for x in args.embed_dims.split(",")] \
        if args.embed_dims else None
    eps_grid = [float(x) for x in args.eps_grid.split(",")] \
        if args.eps_grid else None
    profile = estimate_dimension(cloud, args.eps_dm, embed_dims, eps_grid)
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
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a manifold sample")
    g.add_argument("--shape", required=True, choices=sorted(_GENERATORS))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--ambient-dim", type=int, help="ellipsoid only")
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
    try:
        return args.func(args)
    except _NUMERICAL as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
