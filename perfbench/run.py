#!/usr/bin/env python3
"""Benchmark of dissipon: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports dissipon from the
checkout's ``src`` and nothing else.  Workloads (see ``workloads.py`` for
why each exists): ``time-loops``, ``lattice-field``, ``spectral-sweep`` and
``cli-cold``.  The seed fixes the inputs.  A run sets up ``SETUP_REPS``
times, then repeats the workload's fixed batch while ``--seconds`` lasts
(at least once) and checks every pass's outputs outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead and the part of the batch no layer span covers.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

BLAS libraries are pinned to one thread, in this process and in every
child, so that one run uses at most two cores (the CLI sweep runs two
worker processes).
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# the pinning above must precede numpy, which workloads imports
import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
P90_SAMPLES_ABOVE = 10  # op_p90_s needs ten samples above the 90th percentile

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "ops_per_s": "1/s",
    "tol_used_max": "ratio",
    "peak_rss_mb": "MB",
}

IMPORT_LAYERS = {
    "quadrature.import_s": ("dissipon.quadrature",),
    "reservoir.import_s": ("dissipon.reservoir",),
    "oscillator.import_s": ("dissipon.oscillator",),
    "cli.import_s": ("dissipon", "dissipon.cli"),
}


PER_LAYER = {name: "s" for name in tracing.INCLUSIVE}
PER_LAYER.update({name: "count" for name in tracing.COUNTS})
PER_LAYER.update({
    "quadrature.calls": "count", "quadrature.self_s": "s",
    "quadrature.errors": "count", "quadrature.err_est_max": "ratio",
    "field.balance_kspace": "ratio", "field.balance_leapfrog": "ratio",
    "oscillator.thermal_s": "s", "cli.sweep_jobs_per_s": "1/s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
})
PER_LAYER.update({name: "s" for name in IMPORT_LAYERS})
PER_LAYER.update({f"cli.{name}_s": "s" for name in workloads.CliCold.RUNS})


IMPORT_PROBE = ("import time; t = time.perf_counter(); import dissipon.cli; "
                "print(repr(time.perf_counter() - t))")


def fresh_import(importtime):
    """Seconds to import dissipon.cli in a fresh interpreter, and per-module
    cumulative import seconds from ``-X importtime`` when asked."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", IMPORT_PROBE]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    layers = {metric: sum(cumulative.get(m, 0.0) for m in modules)
              for metric, modules in IMPORT_LAYERS.items()}
    return float(proc.stdout.split()[-1]), layers


@dataclass
class Pass:
    traced: bool
    batch_s: float
    wall_s: float
    latencies: list
    attempted: int
    failures: dict
    checks: list
    layer: dict = field(default_factory=dict)


def run_pass(wl, inp, out_dir, traced):
    """One timed pass over the batch, then its checks (untimed)."""
    started = time.perf_counter()
    out_dir.mkdir(parents=True)
    if not wl.in_process:
        wl.child_spans = [] if traced else None
    ops, st = wl.batch(inp, out_dir)
    tracer = tracing.Tracer() if traced and wl.in_process else None
    latencies, failures = [], {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # first-order probability warnings
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for name, fn in ops:
                s = time.perf_counter()
                try:
                    fn()
                except Exception as exc:  # a raising operation is a failed operation
                    first = (str(exc).splitlines() or [""])[0]
                    failures[name] = f"{type(exc).__name__}: {first[:200]}"
                latencies.append(time.perf_counter() - s)
            batch_s = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        checks = wl.check(inp, st)
    for c in checks:
        if not c.ratio <= 1.0:
            failures.setdefault(c.op, f"{c.name}: error {c.err:.4g} > tolerance {c.tol:.4g}")
    layer = {}
    if traced:
        if tracer:
            span_lists = [tracer.spans]
        else:
            span_lists = [[tracing.Span(**s) for s in json.loads(Path(p).read_text())]
                          for p in wl.child_spans]
        layer, self_total = tracing.span_metrics(span_lists)
        layer["trace.unattributed_s"] = batch_s - self_total
        layer.update(wl.extras(inp, st))
    shutil.rmtree(out_dir, ignore_errors=True)
    return Pass(traced, batch_s, time.perf_counter() - started, latencies,
                len(ops), failures, checks, layer)


def measure(wl, args, out_dir):
    setups, imports = [], []
    for _ in range(SETUP_REPS):
        seconds, layers = fresh_import(importtime=bool(args.trace))
        t0 = time.perf_counter()
        inp = wl.inputs(args.seed)
        setups.append(seconds + time.perf_counter() - t0)
        imports.append(layers)

    # a traced run alternates untraced and traced passes, at least one each
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(wl, inp, out_dir / f"pass{len(passes)}", traced))
        both = not args.trace or len(passes) >= 2
        typical = statistics.median(p.wall_s for p in passes)
        if both and time.perf_counter() - start + typical > args.seconds:
            break

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    lat = [x for p in plain for x in p.latencies]
    ops = plain[0].attempted
    # the mean, not the median: on a shared host whose speed swings, the
    # median of many short passes snaps to the fast or the slow speed
    batch = statistics.fmean(p.batch_s for p in plain)
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                               else resource.RUSAGE_CHILDREN)
    # headroom used by the checks that pass; a failed check counts in `failed`
    ratios = [c.ratio for p in passes for c in p.checks if c.tol > 0 and c.ratio <= 1.0]
    rep = {
        "setup_s": statistics.median(setups),
        "batch_s": batch,
        "ops_per_s": ops / batch,
        "tol_used_max": max(ratios),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(plain), "traced_passes": len(traced), "ops_per_pass": ops,
        "latency_samples": len(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[-1]
                     if ops >= 10 * P90_SAMPLES_ABOVE else None),
    }
    layer = {}
    if traced:
        layer = {name: 0 for name in PER_LAYER}
        for name in traced[0].layer:
            layer[name] = statistics.median(p.layer.get(name, 0) for p in traced)
        for name in IMPORT_LAYERS:
            layer[name] = statistics.median(i[name] for i in imports)
        layer["trace.overhead_s"] = statistics.fmean(p.batch_s for p in traced) - batch
    return rep, info, layer, passes


def report(wl, args, rep, info, layer, passes):
    attempted = sum(p.attempted for p in passes)
    failed = {}
    for p in passes:
        for op, reason in p.failures.items():
            failed.setdefault(op, [reason, 0])[1] += 1
    n_failed = sum(n for _, n in failed.values())
    unexpected = [op for op in failed if (wl.name, op) not in workloads.KNOWN_DEFECTS]

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"openblas_threads {BLAS_THREADS}")
    print(f"  passes {info['passes']} untraced + {info['traced_passes']} traced, "
          f"{info['ops_per_pass']} operations per pass, "
          f"{info['latency_samples']} latency samples")
    print("  pass batch_s " + " ".join(f"{p.batch_s:.4f}{'t' if p.traced else ''}"
                                       for p in passes))
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {rep[name]:.6g} {unit}")
    print(f"  {'op_p50_s':<16} {info['op_p50_s']:.6g} s ({info['latency_samples']} samples)")
    if info["op_p90_s"] is None:
        print(f"  {'op_p90_s':<16} not reported: {info['ops_per_pass']} operations per pass "
              f"leave fewer than {P90_SAMPLES_ABOVE} samples above the 90th percentile")
    else:
        print(f"  {'op_p90_s':<16} {info['op_p90_s']:.6g} s ({info['latency_samples']} samples)")
    print(f"  {'failed_ratio':<16} {n_failed / attempted:.6g} ratio ({n_failed}/{attempted})")
    for op, (reason, n) in sorted(failed.items()):
        known = workloads.KNOWN_DEFECTS.get((wl.name, op))
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        print(f"  failed {op} x{n}: {reason} [{tag}]")
    for name in sorted(layer):
        print(f"  {name:<32} {layer[name]:.6g} {PER_LAYER[name]}")

    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": rep[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dissipon" / "__init__.py").is_file():
        print(f"run.py: no dissipon sources under {SRC}", file=sys.stderr)
        return 2
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))
    import dissipon.cli  # loaded before any timing
    if not Path(dissipon.cli.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: dissipon was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    out_dir = OUT / f"{wl.name}-{os.getpid()}"
    try:
        rep, info, layer, passes = measure(wl, args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it
    report(wl, args, rep, info, layer, passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
