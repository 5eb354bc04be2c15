"""Scenario runner: one subcommand per experiment, CSV/binary outputs.

Every run writes its tables, a manifest recording parameters / version /
wall time, and returns exit code 0.  A run that integrates over the bath
records its frequency window [epsilon, Lambda] in the tables' metadata
block.  Lambda is the run's coupling's cutoff: --uv-cutoff, else a coupling
table's last knot, else QuadratureConfig.for_frequencies's default, which
also sets epsilon unless --ir-cutoff does.  A Markov
langevin run and a rates run without --t integrate nothing over the bath,
so they take no cutoff.  Physics and regime failures exit 1 with the
module's diagnostic; usage and config errors exit 2.

Each subcommand accepts only the flags its run reads.  A run has one
coupling (--beta or --coupling-file) and a rates run one reservoir; a
flag, a config file and a sweep job that name two are config errors.

A config file given via --config overrides the corresponding flags, so a
run can be pinned down in a diff-friendly text file.  Parameter sweeps fan
out over a process pool and are merged in input order.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DissiponError, DomainError
from .field import (FieldGrid, evolve_field_with_source, lattice_memory_kernel,
                    write_snapshot)
from .io import emit_table, parse_config, write_manifest
from .langevin import PotentialSpec, evolve_mean_markov, evolve_mean_volterra
from .oscillator import (FockTriple, OscillatorParams, asymptotic_reservoir_energy,
                         asymptotic_system_energy, damped_frequency,
                         thermal_steady_energy)
from .quadrature import QuadratureConfig
from .rates import (RateRequest, finite_time_emission_probability,
                    rate_emission_vacuum, rates_fock, rates_thermal)
from .reservoir import (CouplingFunction, MemoryKernel, ReservoirState,
                        friction_coefficient)
from .tls import BlochState, TwoLevelParams, decay_rate_mu, evolve_bloch_markov

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_USAGE = 2


def _parse_triple(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"expected three numbers, got {text!r}") from None


def _parse_fock_triple(text):
    return FockTriple(*_parse_triple(text))


# the canonical coupling's friction when a run sets no --beta
DEFAULT_BETA = 0.1


def _beta(args):
    return DEFAULT_BETA if args.beta is None else args.beta


def _coupling(args):
    """The run's one coupling: canonical with friction --beta, or the table."""
    if args.coupling_file is None:
        return CouplingFunction.canonical(_beta(args), uv_cutoff=args.uv_cutoff)
    if args.beta is not None:
        raise ConfigError("--beta (canonical coupling) and --coupling-file (table) "
                          "are two couplings; give one")
    return CouplingFunction.from_file(args.coupling_file, uv_cutoff=args.uv_cutoff)


def _quad_config(args, uv_cutoff, *frequencies):
    """The bath window of a run: Lambda is its coupling's ``uv_cutoff`` and
    epsilon is --ir-cutoff; either one left None takes the default for the
    run's frequencies."""
    return QuadratureConfig.for_frequencies(*frequencies, uv_cutoff=uv_cutoff,
                                            ir_cutoff=args.ir_cutoff)


# no float64 array of more points can be allocated at all
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _allocate_grid(points, make):
    """``make()`` a time grid of ``points`` points, rejecting one too large
    to allocate before trying; :func:`main` reports a failed allocation."""
    if not points <= _MAX_GRID_POINTS:
        raise DomainError(f"a time grid of {points:.3g} points is too large to allocate")
    return make()


def _time_grid(args):
    """The uniform grid 0, step, ..., tmax of the kernel, langevin and field runs."""
    if not (0.0 < args.tmax < np.inf and 0.0 < args.step < np.inf):
        raise DomainError(
            f"--tmax ({args.tmax}) and --step ({args.step}) must be positive and finite")
    return _allocate_grid(args.tmax / args.step + 1.0,
                          lambda: np.arange(0.0, args.tmax + args.step / 2.0, args.step))


def _metadata(args, cfg, **extra):
    """A table's metadata block: the window ``cfg`` of a run that integrates
    over the bath (None for one that does not), then ``extra``."""
    meta = {"experiment": args.experiment}
    if cfg is not None:
        meta.update(uv_cutoff=cfg.uv_cutoff, ir_cutoff=cfg.ir_cutoff)
    meta.update(extra)
    return meta


def cmd_kernel(args, out_dir):
    coup = _coupling(args)
    # the kernel has no system frequency: by default its window is w = 1's
    cfg = _quad_config(args, coup.uv_cutoff, 1.0)
    times = _time_grid(args)
    kern = MemoryKernel.sample(coup, times, cfg)
    beta_eff = friction_coefficient(coup, cfg)
    path = out_dir / "kernel.csv"
    emit_table(path, ["t", "gamma"],
               np.column_stack([kern.times, kern.values]),
               metadata=_metadata(args, cfg, beta_eff=beta_eff))
    return {"beta_eff": beta_eff}, [path]


def cmd_langevin(args, out_dir):
    if not args.volterra:
        if args.coupling_file is not None:
            raise ConfigError("--coupling-file needs --volterra: the Markov solver's "
                              "friction is --beta")
        if args.uv_cutoff is not None:
            raise ConfigError("--uv-cutoff needs --volterra: the Markov solver "
                              "integrates nothing over the bath")
    pot = PotentialSpec.harmonic(args.m, args.omega)  # omega = 0 is the free particle
    grid = _time_grid(args)
    x0 = _parse_triple(args.x0)
    v0 = _parse_triple(args.v0)
    cfg = None
    if args.volterra:
        coup = _coupling(args)
        # epsilon = 1e-8 max(omega, 1/tmax)
        cfg = QuadratureConfig.for_frequencies(max(args.omega, 1.0 / args.tmax),
                                               uv_cutoff=coup.uv_cutoff)
        kern = MemoryKernel.sample(coup, grid, cfg)
        traj = evolve_mean_volterra(args.m, pot, kern, x0, v0, grid)
    else:
        traj = evolve_mean_markov(args.m, pot, _beta(args), x0, v0, grid)
    path = out_dir / "trajectory.csv"
    traj.write_csv(path, metadata=_metadata(args, cfg, solver="volterra" if args.volterra
                                            else "markov"))
    return {}, [path]


def cmd_oscillator(args, out_dir):
    p = OscillatorParams(args.m, args.omega, _beta(args))
    n = _parse_fock_triple(args.n)
    # the oscillator's coupling is the canonical one, cut at --uv-cutoff
    cfg = _quad_config(args, args.uv_cutoff, args.omega)
    w1 = damped_frequency(p)
    sys_e = asymptotic_system_energy(p, n)
    res_e = asymptotic_reservoir_energy(p, n, cfg)
    rows = [
        ("omega1", w1),
        ("system_energy_velocity_form", sys_e.velocity_form),
        ("system_energy_canonical_form", sys_e.canonical_form),
        ("reservoir_energy_numeric", res_e.numeric),
        ("reservoir_energy_closed_form", res_e.residue_closed_form),
    ]
    summary = {k: v for k, v in rows}
    if args.kt is not None:
        # whole-axis integrals: the window above cuts only the reservoir rows
        thermal = thermal_steady_energy(p, args.kt)
        rows.append(("thermal_energy_direct", thermal.direct))
        rows.append(("thermal_energy_mode_sum", thermal.mode_sum))
        summary["thermal_direct"] = thermal.direct
    path = out_dir / "oscillator.csv"
    emit_table(path, ["quantity", "value"], rows, metadata=_metadata(args, cfg))
    return summary, [path]


def cmd_rates(args, out_dir):
    chosen = [flag for flag, given in (("--thermal", args.thermal),
                                       ("--fock", args.fock is not None),
                                       ("--t", args.t is not None)) if given]
    if len(chosen) > 1:
        raise ConfigError(f"a rates run has one reservoir, not {' and '.join(chosen)}")
    if args.thermal != (args.kt is not None):
        raise ConfigError("--kt and --thermal go together: the thermal reservoir's "
                          "temperature")
    if args.t is None:
        for flag, value in (("--uv-cutoff", args.uv_cutoff),
                            ("--ir-cutoff", args.ir_cutoff)):
            if value is not None:
                raise ConfigError(f"{flag} needs --t: only the finite-time probability "
                                  "integrates over the bath")
    # the rates are first order in the coupling: the oscillator itself is undamped
    p = OscillatorParams(args.m, args.omega, 0.0)
    n = _parse_fock_triple(args.n)
    coup = _coupling(args)
    cfg = None
    absorption = 0.0
    if args.thermal:
        reservoir = f"thermal kT={args.kt}"
        emission, absorption = rates_thermal(
            RateRequest(p, n, ReservoirState.thermal(args.kt), coup))
    elif args.fock is not None:
        momenta = [_parse_triple(tok) for tok in args.fock]
        reservoir = f"fock r={len(momenta)}"
        emission, absorption = rates_fock(
            RateRequest(p, n, ReservoirState.fock(momenta), coup))
    elif args.t is not None:
        reservoir = f"vacuum t={args.t}"
        cfg = _quad_config(args, coup.uv_cutoff, args.omega)
        req = RateRequest(p, n, ReservoirState.vacuum(), coup, t=args.t)
        emission = finite_time_emission_probability(req, cfg) / args.t
    else:
        reservoir = "vacuum"
        emission = rate_emission_vacuum(RateRequest(p, n, ReservoirState.vacuum(), coup))
    path = out_dir / "rates.csv"
    emit_table(path, ["n", "reservoir", "emission", "absorption"],
               [(f"{n.n1} {n.n2} {n.n3}", reservoir, emission, absorption)],
               metadata=_metadata(args, cfg))
    return {"emission": emission, "absorption": absorption}, [path]


def cmd_tls(args, out_dir):
    if not 0.0 <= args.x12sq < np.inf:
        raise DomainError(f"--x12sq ({args.x12sq}) must be finite and nonnegative")
    if args.steps < 1:
        raise DomainError(f"--steps ({args.steps}) must be positive")
    if not 0.0 < args.tmax < np.inf:
        raise DomainError(f"--tmax ({args.tmax}) must be positive and finite")
    coup = _coupling(args)
    x12 = np.zeros(3)
    x12[0] = np.sqrt(args.x12sq)
    p = TwoLevelParams(args.omega0, tuple(x12), coup)
    cfg = _quad_config(args, coup.uv_cutoff, args.omega0)
    mu = decay_rate_mu(p)
    grid = _allocate_grid(args.steps + 1,
                          lambda: np.linspace(0.0, args.tmax, args.steps + 1))
    hist = evolve_bloch_markov(p, BlochState(sz=args.sz0, f=args.f0), grid, cfg)
    path = out_dir / "tls_decay.csv"
    # ReF is the population-coherence quadrature <s + s^dag> (real for
    # physical states); ImF is the conjugate quadrature <s^dag - s>/i
    emit_table(path, ["t", "sz", "ReF", "ImF"],
               np.column_stack([hist.times, hist.sz, hist.f, hist.e_im]),
               metadata=_metadata(args, cfg, mu=mu, decay_rate=2.0 * mu))
    return {"mu": mu}, [path]


def cmd_field(args, out_dir):
    if not args.omega > 0:
        raise DomainError(f"--omega ({args.omega}) must be positive")
    coup = _coupling(args)
    grid = FieldGrid(n=args.modes, dx=args.dx, uv_cutoff=args.uv_cutoff)
    times = _time_grid(args)
    kern = lattice_memory_kernel(coup, grid, times)
    pot = PotentialSpec.harmonic(args.m, args.omega)
    traj = evolve_mean_volterra(args.m, pot, kern,
                                _parse_triple(args.x0), _parse_triple(args.v0),
                                times)
    hist = evolve_field_with_source(traj, coup, grid, method=args.method)
    e_mech = traj.mechanical_energy(args.m, args.omega)
    trace_path = out_dir / "field_energy.csv"
    emit_table(trace_path, ["t", "field_energy", "mechanical_energy"],
               np.column_stack([hist.times, hist.energy, e_mech]),
               metadata={"experiment": args.experiment, "modes": args.modes,
                         "dx": args.dx, "uv_cutoff": args.uv_cutoff,
                         "method": args.method})
    snap_path = out_dir / "field_final.bin"
    write_snapshot(snap_path, hist.final_y, grid.dx)
    # a particle that lost nothing leaves the share the field gained undefined
    lost = e_mech[0] - e_mech[-1]
    balance = (hist.energy[-1] - hist.energy[0]) / lost if lost != 0 else np.nan
    return {"energy_balance": balance}, [trace_path, snap_path]


EXPERIMENTS = {
    "kernel": cmd_kernel,
    "langevin": cmd_langevin,
    "oscillator": cmd_oscillator,
    "rates": cmd_rates,
    "tls": cmd_tls,
    "field": cmd_field,
}


def _add_common(sub, *, m=False, ir_cutoff=False, coupling_file=False):
    """The flags every experiment reads, and those of ``m``, ``ir_cutoff`` and
    ``coupling_file`` that this one reads too."""
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None,
                     help="key=value config file; its values override flags")
    sub.add_argument("--beta", type=float, default=None,
                     help=f"friction of the canonical coupling (default {DEFAULT_BETA})")
    if m:
        sub.add_argument("--m", type=float, default=1.0, help="particle mass")
    sub.add_argument("--uv-cutoff", dest="uv_cutoff", type=float, default=None)
    if ir_cutoff:
        sub.add_argument("--ir-cutoff", dest="ir_cutoff", type=float, default=None)
    if coupling_file:
        sub.add_argument("--coupling-file", dest="coupling_file", default=None,
                         help="two-column (w, f) table in place of the canonical "
                              "coupling; not with --beta")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="dissipon",
        description="Memory kernels, damped-oscillator energy flow, golden-rule "
                    "rates, two-level decay and the reservoir field of a "
                    "minimally coupled dissipative system.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="experiment", required=True)

    k = subs.add_parser("kernel", help="sample the memory kernel and its friction limit")
    _add_common(k, ir_cutoff=True, coupling_file=True)
    k.add_argument("--tmax", type=float, default=5.0)
    k.add_argument("--step", type=float, default=1e-3)

    l = subs.add_parser("langevin", help="mean trajectory (Markovian or full memory)")
    _add_common(l, m=True, coupling_file=True)
    l.add_argument("--omega", type=float, default=1.0)
    l.add_argument("--tmax", type=float, default=20.0)
    l.add_argument("--step", type=float, default=1e-3)
    l.add_argument("--x0", default="1,0,0")
    l.add_argument("--v0", default="0,0,0")
    l.add_argument("--volterra", action="store_true",
                   help="solve the full memory equation instead of local friction")

    o = subs.add_parser("oscillator", help="damped-oscillator closed-form energies")
    _add_common(o, m=True, ir_cutoff=True)
    o.add_argument("--omega", type=float, default=1.0)
    o.add_argument("--n", default="0,0,0")
    o.add_argument("--kt", type=float, default=None,
                   help="also evaluate the thermal steady state at this temperature")

    r = subs.add_parser("rates", help="golden-rule transition rates")
    _add_common(r, m=True, ir_cutoff=True, coupling_file=True)
    r.add_argument("--omega", type=float, default=1.0)
    r.add_argument("--n", default="1,0,0")
    r.add_argument("--thermal", action="store_true")
    r.add_argument("--kt", type=float, default=None)
    r.add_argument("--fock", nargs="+", default=None,
                   help="reservoir quanta as px,py,pz triples")
    r.add_argument("--t", type=float, default=None,
                   help="finite observation time (vacuum reservoir)")

    t = subs.add_parser("tls", help="two-level population and coherence decay")
    _add_common(t, ir_cutoff=True, coupling_file=True)
    t.add_argument("--omega0", type=float, default=1.0)
    t.add_argument("--x12sq", type=float, default=1.0)
    t.add_argument("--tmax", type=float, default=100.0)
    t.add_argument("--steps", type=int, default=10000)
    t.add_argument("--sz0", type=float, default=1.0)
    t.add_argument("--f0", type=float, default=0.0)

    f = subs.add_parser("field", help="drive the reservoir field with a damped trajectory")
    _add_common(f, m=True, coupling_file=True)
    f.add_argument("--omega", type=float, default=1.0)
    f.add_argument("--modes", type=int, default=16)
    f.add_argument("--dx", type=float, default=1.0)
    f.add_argument("--tmax", type=float, default=20.0)
    f.add_argument("--step", type=float, default=0.02)
    f.add_argument("--x0", default="1,0,0")
    f.add_argument("--v0", default="0,0,0")
    f.add_argument("--method", choices=["kspace", "leapfrog"], default="kspace")

    s = subs.add_parser("sweep", help="run one experiment over a parameter sweep")
    s.add_argument("--config", required=True,
                   help="config with a [sweep] section (experiment, parameter, values)")
    s.add_argument("--out", default=".")
    s.add_argument("--workers", type=int, default=None)
    return parser


def _read_config(path):
    """The sections of a config file, by name ("" for the global one)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return parse_config(text)


def _configure(args, parser, sections, overrides):
    """Set the config's values on ``args``, converted as their flags convert them.

    Config values override flags, per the runner contract.  The
    experiment's own section overrides the global one, and ``overrides``
    (a sweep's parameter) override both.
    """
    known = _flag_actions(parser, args.experiment)
    flat = dict(sections.get("", {}))
    flat.update(sections.get(args.experiment, {}))
    flat.update(overrides)
    for key, value in flat.items():
        dest = key.replace("-", "_")
        if dest == "experiment":
            continue
        if dest not in known:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(args, dest, _coerce(known[dest], key, value))
    return args


def _flag_actions(parser, experiment):
    """The argparse actions of one experiment's flags, by destination."""
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub_action.choices[experiment]._actions}


def _coerce(action, key, value):
    """A config value converted as its flag would convert it on the command line."""
    if isinstance(action, argparse._StoreTrueAction):
        flag = value.lower()
        if flag in ("1", "true", "yes", "on"):
            return True
        if flag in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} expects a boolean, got {value!r}")
    items = value.split() if action.nargs in ("*", "+") else [value]
    if action.type is not None:
        try:
            items = [action.type(item) for item in items]
        except (TypeError, ValueError):
            raise ConfigError(
                f"config key {key!r} expects {action.type.__name__}, got {value!r}") from None
    if action.choices is not None and any(item not in action.choices for item in items):
        raise ConfigError(f"config key {key!r} must be one of {sorted(action.choices)}")
    return items if action.nargs in ("*", "+") else items[0]


def _run_single(args):
    """Run one parsed and configured experiment: a standalone run or a sweep job."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary, outputs = EXPERIMENTS[args.experiment](args, out_dir)
    return summary, [str(p) for p in outputs]


def cmd_sweep(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sections = _read_config(args.config)
    sweep = sections.get("sweep")
    if not sweep:
        raise ConfigError("sweep config needs a [sweep] section")
    for key in ("experiment", "parameter", "values"):
        if key not in sweep:
            raise ConfigError(f"[sweep] section is missing {key!r}")
    experiment = sweep["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown sweep experiment {experiment!r}")
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers ({args.workers}) must be at least 1")
    parameter = sweep["parameter"]
    values = [v for v in sweep["values"].replace(",", " ").split() if v]

    # every job is configured here, so a bad key or value fails before the pool
    parser = build_parser()
    jobs = []
    for i, value in enumerate(values):
        job = parser.parse_args([experiment, "--out", str(out_dir / f"sweep_{i:04d}")])
        jobs.append(_configure(job, parser, sections, {parameter: value}))

    from concurrent.futures import ProcessPoolExecutor  # imported by sweeps alone
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(_run_single, jobs))

    rows = []
    for value, (summary, _) in zip(values, results):
        row = [value]
        row += [summary.get(k) for k in sorted(results[0][0].keys())]
        rows.append(row)
    path = out_dir / "sweep.csv"
    emit_table(path, [parameter] + sorted(results[0][0].keys()) if results else
               [parameter], rows,
               metadata={"experiment": experiment, "parameter": parameter})
    return {"jobs": len(jobs)}, [path]


def main(argv=None):
    parser = build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.experiment == "sweep":
            summary, outputs = cmd_sweep(args)
        else:
            if args.config:
                _configure(args, parser, _read_config(args.config), {})
            summary, outputs = _run_single(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"dissipon: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DissiponError as exc:
        print(f"dissipon: {args.experiment}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except MemoryError as exc:
        print(f"dissipon: {args.experiment}: out of memory: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # finite but extreme inputs (1e308, 1e-308) overflow on the way
        print(f"dissipon: {args.experiment}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    wall = time.perf_counter() - start
    params = {k: v for k, v in vars(args).items()
              if k not in ("experiment", "config", "out") and v is not None}
    write_manifest(Path(args.out) / "manifest.txt", params, wall,
                   outputs=[Path(p).name for p in outputs])
    for key, value in summary.items():
        print(f"{key} = {value}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
