"""Spans around calls into mrgap's modules, and the per-layer metrics
derived from them.

A Tracer replaces a module attribute by a wrapper for as long as it is
installed.  Each function is wrapped where its caller looks it up, so the
program itself is unchanged: mrgap.denoiser calls build_chart_data through
its own module namespace, the gp layer through the module object gp, and so
on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import mrgap
from mrgap import cli, denoiser, gp, interpolator, local_geometry, spectral_dim

# (module, attribute, span name).  A name may appear under several lookups.
WRAPPED = [
    (mrgap, "denoise", "denoiser.denoise"),
    (mrgap, "interpolate", "interpolator.interpolate"),
    (mrgap, "grmse", "evaluation.grmse"),
    (mrgap, "estimate_dimension", "spectral_dim.estimate_dimension"),
    (cli, "main", "cli.main"),
    (cli, "denoise", "denoiser.denoise"),
    (cli, "interpolate", "interpolator.interpolate"),
    (denoiser, "build_chart_data", "local_geometry.build_chart_data"),
    (interpolator, "build_chart_data", "local_geometry.build_chart_data"),
    (local_geometry, "eigen_frame", "local_geometry.eigen_frame"),
    (gp, "fit_hyperparams", "gp.fit_hyperparams"),
    (gp, "minimize", "gp.minimize"),
    (gp, "predictive", "gp.predictive"),
    (spectral_dim, "graph_laplacian", "spectral_dim.graph_laplacian"),
    (spectral_dim, "diffusion_embedding", "spectral_dim.diffusion_embedding"),
    (spectral_dim, "mean_local_eigenvalues", "spectral_dim.mean_local_eigenvalues"),
    (spectral_dim, "local_covariance", "spectral_dim.local_covariance"),
]

# (metric, unit); every workload reports all of them, 0 where it never
# calls the layer.
PER_LAYER = [
    ("local_geometry.chart_s", "s"),
    ("local_geometry.frame_s", "s"),
    ("local_geometry.charts", "count"),
    ("gp.fit_s", "s"),
    ("gp.objective_evals", "count"),
    ("gp.ms_per_eval", "ms"),
    ("gp.predictive_s", "s"),
    ("gp.predictive_calls", "count"),
    ("gp.predictive_rows_mean", "count"),
    ("denoiser.denoise_s", "s"),
    ("denoiser.self_s", "s"),
    ("interpolator.interpolate_s", "s"),
    ("interpolator.self_s", "s"),
    ("evaluation.grmse_s", "s"),
    ("spectral_dim.laplacian_s", "s"),
    ("spectral_dim.embedding_s", "s"),
    ("spectral_dim.local_eig_s", "s"),
    ("spectral_dim.local_cov_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.trace_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _attrs(name: str, args, kwargs, result) -> dict:
    if name == "gp.minimize":
        return {"nfev": int(result.nfev)}
    if name == "gp.predictive":
        train_w = args[0] if args else kwargs["train_w"]
        return {"rows": len(train_w)}
    return {}


class Tracer:
    """Records one span per wrapped call while installed (a context manager).

    op names the operation the spans belong to; set it before each one.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._stack[-1] if self._stack else None,
                        self.op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = _attrs(name, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module, attr, name in WRAPPED:
            # A lookup the program no longer makes leaves its metrics at 0.
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def self_time(spans: list[Span], name: str) -> float:
    """Total time of the spans called name, minus the time of their direct
    children."""
    ids = {s.id for s in spans if s.name == name}
    total = sum((s.seconds for s in spans if s.id in ids), 0.0)
    return total - sum((s.seconds for s in spans if s.parent in ids), 0.0)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans."""

    def total(name):
        return sum((s.seconds for s in spans if s.name == name), 0.0)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    evals = sum(s.attrs.get("nfev", 0) for s in spans)
    rows = [s.attrs["rows"] for s in spans if s.name == "gp.predictive"]
    fit_s = total("gp.fit_hyperparams")
    return {
        "local_geometry.chart_s": total("local_geometry.build_chart_data"),
        "local_geometry.frame_s": total("local_geometry.eigen_frame"),
        "local_geometry.charts": count("local_geometry.build_chart_data"),
        "gp.fit_s": fit_s,
        "gp.objective_evals": evals,
        "gp.ms_per_eval": 1000.0 * fit_s / evals if evals else 0.0,
        "gp.predictive_s": total("gp.predictive"),
        "gp.predictive_calls": len(rows),
        "gp.predictive_rows_mean": sum(rows) / len(rows) if rows else 0.0,
        "denoiser.denoise_s": total("denoiser.denoise"),
        "denoiser.self_s": self_time(spans, "denoiser.denoise"),
        "interpolator.interpolate_s": total("interpolator.interpolate"),
        "interpolator.self_s": self_time(spans, "interpolator.interpolate"),
        "evaluation.grmse_s": total("evaluation.grmse"),
        "spectral_dim.laplacian_s": total("spectral_dim.graph_laplacian"),
        "spectral_dim.embedding_s": total("spectral_dim.diffusion_embedding"),
        "spectral_dim.local_eig_s": total("spectral_dim.mean_local_eigenvalues"),
        "spectral_dim.local_cov_calls": count("spectral_dim.local_covariance"),
        "cli.self_s": self_time(spans, "cli.main"),
    }
