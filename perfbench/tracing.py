"""Span recorder for the traced benchmark run.

The tracer wraps dissipon's public callables from outside the package.  A
callable is replaced in every ``dissipon`` module namespace that holds it,
so a call made from inside the package (``rates`` calling
``integrate_sinc_squared``, ``tls`` calling ``integrate_principal_value``)
is recorded as a child span of its caller.  Spans (name, start, end,
parent) stay in memory; the caller reads them out when a pass ends.

A layer's self time is its spans' duration minus the part covered by their
child spans.  A ``<function>_s`` metric is the inclusive time of that
function's calls, and the counts marked *computed* are derived from array
sizes, so they repeat exactly.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    nested: bool = False  # a span of the same name is already open above it
    error: str | None = None
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans between ``install`` (wraps) and ``uninstall`` (restores)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            opened = tracer._open
            span = Span(label, parent=opened[-1] if opened else -1,
                        nested=any(tracer.spans[i].name == label for i in opened))
            opened.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                opened.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in ``targets()`` wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dissipon" or n.startswith("dissipon."))]
        for owner, attr, name, observe in targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._wrap(raw.__func__, name, observe)))
                continue
            wrapped = self._wrap(raw, name, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, key, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# --- what is wrapped -------------------------------------------------------

def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _observe_quadrature(span, args, kwargs, result):
    from dissipon.quadrature import QuadratureConfig
    cfg = next((a for a in list(args) + list(kwargs.values())
                if isinstance(a, QuadratureConfig)), None)
    value, err = result
    if cfg is not None:
        span.info["err_ratio"] = err / cfg.tolerance_for(value)


def _observe_steps(span, args, kwargs, result):
    span.info["steps"] = len(result.times) - 1


def _observe_volterra(span, args, kwargs, result):
    n = len(result.times)
    span.info["steps"] = n - 1
    # direct trapezoid memory sum: step i reads i past velocity 3-vectors
    span.info["macs"] = 3 * n * (n - 1) // 2


def _observe_lattice_kernel(span, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    span.info["terms"] = int(grid.mode_mask().sum()) * len(result.times)


def _observe_field(span, args, kwargs, result):
    n_steps = len(result.times) - 1
    if "leapfrog" in span.name:
        every = kwargs.get("energy_every", args[6] if len(args) > 6 else 1)
        evals = 1 + sum(1 for i in range(n_steps)
                        if (i + 1) % every == 0 or i == n_steps - 1)
    else:
        evals = n_steps + 1
    span.info["energy_evals"] = evals


def _observe_written(span, args, kwargs, result):
    span.info["bytes"] = os.path.getsize(args[0])


def _sample_name(args, kwargs):
    coupling = _arg(args, kwargs, 1, "coupling")
    return ("reservoir.kernel_sample" if coupling.kind == "canonical"
            else "reservoir.tabulated_sample")


def _field_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "kspace")
    return f"field.{method}"


def targets():
    """(owner, attribute, span name, observer) for every wrapped callable."""
    from dissipon import (field, io, langevin, oscillator, quadrature, rates,
                          reservoir, tls)
    return [
        (quadrature, "integrate_semi_infinite", "quadrature.semi_inf", _observe_quadrature),
        (quadrature, "integrate_principal_value", "quadrature.pv", _observe_quadrature),
        (quadrature, "integrate_oscillatory", "quadrature.osc", _observe_quadrature),
        (quadrature, "integrate_sinc_squared", "quadrature.sinc2", _observe_quadrature),
        (reservoir.MemoryKernel, "sample", _sample_name, None),
        (reservoir, "friction_coefficient", "reservoir.friction", None),
        (langevin, "evolve_mean_volterra", "langevin.volterra", _observe_volterra),
        (langevin, "evolve_mean_markov", "langevin.markov", _observe_steps),
        (tls, "evolve_bloch_markov", "tls.bloch", _observe_steps),
        (tls, "level_shifts", "tls.level_shifts", None),
        (tls, "coherence_frequencies", "tls.coherence_frequencies", None),
        (field, "lattice_memory_kernel", "field.lattice_kernel", _observe_lattice_kernel),
        (field, "evolve_field_with_source", _field_name, _observe_field),
        (field, "write_snapshot", "io.snapshot", _observe_written),
        (oscillator, "asymptotic_reservoir_energy", "oscillator.reservoir_energy", None),
        (oscillator, "thermal_steady_energy", "oscillator.thermal", None),
        (rates, "finite_time_emission_probability", "rates.finite_time", None),
        (rates, "rates_thermal", "rates.closed_form", None),
        (rates, "rates_fock", "rates.closed_form", None),
        (rates, "rate_emission_vacuum", "rates.closed_form", None),
        (io, "emit_table", "io.emit", _observe_written),
    ]


# --- from spans to per-layer metrics ----------------------------------------

# metric name -> span name whose inclusive time it reports
INCLUSIVE = {
    "quadrature.sinc2_s": "quadrature.sinc2",
    "quadrature.pv_s": "quadrature.pv",
    "quadrature.semi_inf_s": "quadrature.semi_inf",
    "quadrature.osc_s": "quadrature.osc",
    "reservoir.kernel_sample_s": "reservoir.kernel_sample",
    "reservoir.tabulated_sample_s": "reservoir.tabulated_sample",
    "reservoir.friction_s": "reservoir.friction",
    "langevin.volterra_s": "langevin.volterra",
    "langevin.markov_s": "langevin.markov",
    "tls.bloch_s": "tls.bloch",
    "tls.level_shifts_s": "tls.level_shifts",
    "field.lattice_kernel_s": "field.lattice_kernel",
    "field.kspace_s": "field.kspace",
    "field.leapfrog_s": "field.leapfrog",
    "oscillator.reservoir_energy_s": "oscillator.reservoir_energy",
    "rates.finite_time_s": "rates.finite_time",
    "rates.closed_form_s": "rates.closed_form",
    "io.emit_s": "io.emit",
    "io.snapshot_s": "io.snapshot",
}

# metric name -> (span name prefix, info key) summed over spans
COUNTS = {
    "langevin.volterra_steps": ("langevin.volterra", "steps"),
    "langevin.memory_macs": ("langevin.volterra", "macs"),
    "langevin.markov_steps": ("langevin.markov", "steps"),
    "tls.bloch_steps": ("tls.bloch", "steps"),
    "field.kernel_terms": ("field.lattice_kernel", "terms"),
    "field.energy_evals": ("field.", "energy_evals"),
    "io.bytes_written": ("io.", "bytes"),
}


def span_metrics(span_lists):
    """Per-layer metrics of one pass, from one or more independent span lists.

    Also returns the summed self time of all spans, which the caller
    compares with the pass's wall time to report what no layer covers.
    """
    out = {name: 0 for name in COUNTS}
    out.update({"quadrature.calls": 0, "quadrature.self_s": 0.0,
                "quadrature.errors": 0, "quadrature.err_est_max": 0.0})
    inclusive = defaultdict(float)
    self_total = 0.0
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        for s, child in zip(spans, covered):
            own = (s.end - s.start) - child
            self_total += own
            if not s.nested:
                inclusive[s.name] += s.end - s.start
            for metric, (prefix, key) in COUNTS.items():
                if s.name.startswith(prefix):
                    out[metric] += s.info.get(key, 0)
            if s.name.startswith("quadrature."):
                out["quadrature.calls"] += 1
                out["quadrature.self_s"] += own
                outermost = s.parent < 0 or not spans[s.parent].name.startswith("quadrature.")
                if s.error and outermost:
                    out["quadrature.errors"] += 1
                out["quadrature.err_est_max"] = max(out["quadrature.err_est_max"],
                                                    s.info.get("err_ratio", 0.0))
    for metric, span_name in INCLUSIVE.items():
        out[metric] = inclusive[span_name]
    return out, self_total
