"""Command-line pipeline: generate, denoise, interpolate, evaluate,
estimate-dim.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import json
import os
import stat
import sys

import numpy as np

from . import gp
from .denoiser import DenoiseConfig, DenoiseTrace, denoise
from .evaluation import grmse
from .interpolator import interpolate
from .local_geometry import InsufficientNeighborsError
from .point_cloud import (NoiseSpec, PointCloud, add_gaussian_noise,
                          gen_cassini, gen_ellipsoid_embedded, gen_torus,
                          load_csv)
from .spectral_dim import DimensionEstimateError, estimate_dimension

TRACE_SCHEMA = 3

_GENERATORS = {
    "cassini": gen_cassini,
    "torus": gen_torus,
    "ellipsoid": gen_ellipsoid_embedded,
}


# Numerical failures, which exit 3.  InsufficientNeighborsError is a
# ValueError, so main catches these first.
_NUMERICAL = (InsufficientNeighborsError, gp.FactorizationError,
              gp.OptimizationError, DimensionEstimateError)


# The JSON kind of each config and hyperparameter field of a trace.
_CONFIG = {"epsilon": "number", "delta": "number", "intrinsic_dim": "integer",
           "max_iter": "integer"}
_HYPER = {"A": "number", "rho": "number", "sigma": "number"}


def trace_to_json(trace: DenoiseTrace, config: DenoiseConfig) -> dict:
    """The trace document: the config, every round's fitted
    hyperparameters, the last round's variances, and clouds[-2] (which
    interpolate reads) and clouds[-1] (the denoised output) as one base64
    block of little-endian float64 of shape [2, n, D]."""
    pair = np.stack([c.points for c in trace.clouds[-2:]], dtype="<f8")
    return {
        "schema": TRACE_SCHEMA,
        "config": {k: getattr(config, k) for k in _CONFIG},
        "hypers": [{k: getattr(h, k) for k in _HYPER} for h in trace.hypers],
        "predictive_variances": list(trace.predictive_variances),
        "clouds": {"shape": list(pair.shape),
                   "data": base64.b64encode(pair.tobytes()).decode("ascii")},
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
        raise ValueError(f"trace: field {name!r} must be of type {kind}")
    return value


def _field(obj: dict, key: str, kind: str, where: str = ""):
    """obj[key], checked to be present and of the given kind."""
    name = f"{where}.{key}" if where else key
    if key not in obj:
        raise ValueError(f"trace: missing field {name!r}")
    return _check(obj[key], kind, name)


def _fields(obj: dict, kinds: dict, where: str) -> dict:
    """The fields of obj named in kinds, each checked to be of its kind."""
    return {k: _field(obj, k, kind, where) for k, kind in kinds.items()}


def trace_from_json(doc) -> tuple[DenoiseTrace, DenoiseConfig]:
    """The trace and config of a schema-3 document: its two clouds are the
    clouds[-2] and clouds[-1] of the trace written.  A missing or
    ill-typed field, or a value the library rejects, raises ValueError
    naming the field."""
    if not isinstance(doc, dict):
        raise ValueError("trace: not a JSON object")
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"trace: field 'schema' is {doc.get('schema')!r}, "
                         f"this version reads schema {TRACE_SCHEMA}; re-run "
                         f"`mrgap denoise --trace-out` to write a new trace")
    try:
        config = DenoiseConfig(**_fields(_field(doc, "config", "object"),
                                         _CONFIG, "config"))
    except ValueError as exc:
        raise ValueError(f"trace: field 'config': {exc}") from exc
    hypers = []
    for i, h in enumerate(_field(doc, "hypers", "list")):
        where = f"hypers[{i}]"
        try:
            hypers.append(gp.GpHyperParams(
                **_fields(_check(h, "object", where), _HYPER, where)))
        except ValueError as exc:
            raise ValueError(f"trace: field {where!r}: {exc}") from exc
    variances = _field(doc, "predictive_variances", "list")
    for i, v in enumerate(variances):
        _check(v, "number", f"predictive_variances[{i}]")
    block = _field(doc, "clouds", "object")
    shape = _field(block, "shape", "list", "clouds")
    if not (len(shape) == 3 and shape[0] == 2
            and all(_KINDS["integer"](x) and x > 0 for x in shape)):
        raise ValueError("trace: field 'clouds.shape' must be [2, n, D], "
                         "n and D positive integers")
    data = _field(block, "data", "string", "clouds")
    try:
        raw = base64.b64decode(data, validate=True)
        clouds = [PointCloud(p) for p in
                  np.frombuffer(raw, dtype="<f8").reshape(shape)]
    except ValueError as exc:
        raise ValueError(f"trace: field 'clouds.data': {exc}") from exc
    try:
        return DenoiseTrace(clouds, hypers, variances), config
    except ValueError as exc:
        # DenoiseTrace names the field in its message.
        raise ValueError(f"trace: {exc}") from exc


def _write(outputs) -> None:
    """Write each (path, value) of outputs whose path is given: an array as
    CSV rows of 17 significant digits, a dict as json.dumps.  Every path is
    opened before any is written.  If one cannot be opened, two name one
    regular file, or a write fails, the files this call created are
    removed.  A regular file that already existed is emptied only once
    every path is open; a device or pipe, such as /dev/null, a FIFO or
    /dev/stdout, is written as it is."""
    outputs = [(path, value) for path, value in outputs if path is not None]
    created = []
    with contextlib.ExitStack() as stack:
        try:
            handles = []
            for path, _ in outputs:
                new = not os.path.exists(path)
                handles.append(stack.enter_context(open(path, "a")))
                if new:
                    created.append(path)
            files = [fh for fh in handles
                     if stat.S_ISREG(os.fstat(fh.fileno()).st_mode)]
            # (inode, device): one file under two names counts as one.
            if len({os.fstat(fh.fileno())[1:3] for fh in files}) < len(files):
                raise ValueError("two output paths name one file: "
                                 + ", ".join(path for path, _ in outputs))
            for fh in files:
                fh.truncate(0)
            for fh, (_, value) in zip(handles, outputs):
                if isinstance(value, dict):
                    # json.dumps runs the C encoder, json.dump a Python one.
                    fh.write(json.dumps(value))
                else:
                    np.savetxt(fh, value, delimiter=",", fmt="%.17g")
        except BaseException:
            stack.close()
            for path in created:
                os.remove(path)
            raise


def cmd_generate(args):
    gen = _GENERATORS[args.shape]
    extra = {}
    if args.ambient_dim is not None:
        if args.shape != "ellipsoid":
            raise ValueError("--ambient-dim applies only to --shape ellipsoid")
        extra["ambient_dim"] = args.ambient_dim
    clean = gen(args.n, seed=args.seed, **extra)
    noise = NoiseSpec(args.sigma, args.seed + 1)
    if noise.sigma == 0:
        written = [(args.out, clean.points)]
    else:
        base, ext = os.path.splitext(args.out)
        written = [(f"{base}_clean{ext}", clean.points),
                   (args.out, add_gaussian_noise(clean, noise).points)]
    return "\n".join(path for path, _ in written), written


def cmd_denoise(args):
    cloud = load_csv(args.input)
    config = DenoiseConfig(epsilon=args.epsilon, delta=args.delta,
                           intrinsic_dim=args.d, sigma_tol=args.tol,
                           max_iter=args.max_iter)
    trace = denoise(cloud, config)
    return args.out, [(args.out, trace.clouds[-1].points),
                      (args.trace_out, trace_to_json(trace, config))]


def cmd_interpolate(args):
    with open(args.trace) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"trace: {args.trace}: not a readable JSON "
                             f"document: {exc}") from None
    trace, config = trace_from_json(doc)
    cloud, chart_idx = interpolate(trace, config, args.k, args.seed,
                                   return_chart_index=True)
    return args.out, [(args.out, cloud.points),
                      (args.chart_index_out,
                       {"chart_index": chart_idx.tolist()})]


def cmd_evaluate(args):
    report = grmse(load_csv(args.input), load_csv(args.reference))
    return (f"{report.value:.17g}",
            [(args.distances_out, report.per_point_distances)])


def cmd_estimate_dim(args):
    profile = estimate_dimension(load_csv(args.input), args.eps_dm,
                                 args.embed_dims, args.eps_grid)
    width = max(len(lam) for lam in profile.lambda_bars)
    rows = [[eps, *lam] + [np.nan] * (width - len(lam))
            for eps, lam in zip(profile.epsilons, profile.lambda_bars)]
    return str(profile.estimated_dim), [(args.profile_out, np.asarray(rows))]


def _list_of(kind):
    """An argparse type: comma-separated values of kind, [] when empty."""
    def parse(text: str) -> list:
        return [kind(x) for x in text.split(",")] if text else []
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


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
    s.add_argument("--embed-dims", type=_list_of(int),
                   help="comma-separated embedding dimensions")
    s.add_argument("--eps-grid", type=_list_of(float),
                   help="comma-separated local-PCA bandwidths")
    s.add_argument("--profile-out", default=None)
    s.set_defaults(func=cmd_estimate_dim)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Its cmd_* function writes nothing: it returns the
    text to print and the (path, value) pairs to write, path None where an
    option is not given.  _write writes them, and leaves no file it created
    if any fails; the text is printed only after _write returns.  A
    numerical failure exits 3; a usage error, a ValueError (a bad
    parameter, CSV or trace) or an OSError exits 2 with one error line on
    stderr."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text, outputs = args.func(args)
        _write(outputs)
        print(text)
        return 0
    except _NUMERICAL as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
