"""The benchmark's four workloads.

Each workload makes its inputs from a seed, returns one pass of operations
(its fixed batch) and checks the outputs against references that do not
come from the code path being timed.  Each is sized so that a different
layer does most of the work; README.md records why each was chosen.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Operations that fail at the parent commit for a documented reason.  They
# count as failed; ``correct`` stays true only if nothing else fails.
KNOWN_DEFECTS = {
    ("spectral-sweep", "friction_linear_table"):
        "friction_coefficient raises QuadratureError on the 500-point linear "
        "canonical table on [0.01, 50]",
    ("spectral-sweep", "kernel_linear_table"):
        "MemoryKernel.sample misses the panel-exact transform of the 500-point "
        "linear table by ~2e-4 of its scale, against 1e-5 for tabulated sampling",
    ("time-loops", "bloch_ground"):
        "for some (beta, w0) the ground state is not an exact floating-point fixed "
        "point of the RK4 affine map; drift grows an ulp per step to ~1e-10",
    ("lattice-field", "leapfrog"):
        "leapfrog energy balance outside 5%: the trajectory is driven by the "
        "exact-dispersion kernel, the leapfrog field has stencil dispersion",
}


@dataclass
class Check:
    """One comparison of an output with its reference: |error| <= tol."""

    op: str
    name: str
    err: float
    tol: float

    @property
    def ratio(self):
        if self.tol > 0:
            return self.err / self.tol
        return 0.0 if self.err == 0 else math.inf


def _rel(value, ref):
    return abs(value / ref - 1.0)


def _gap(traj, p, x0, v0):
    """Largest distance between a trajectory and the closed-form mean."""
    from dissipon.oscillator import mean_trajectory
    ref = mean_trajectory(p, x0, p.m * np.asarray(v0), traj.times)
    return float(np.max(np.linalg.norm(traj.positions - ref, axis=1)))


class Workload:
    """What the runner needs from a workload."""

    name = ""
    in_process = True   # False: the work runs in child processes
    child_spans = None  # traced pass out of process: span files the children wrote

    def inputs(self, seed):
        """The workload's inputs, made from ``seed`` alone."""
        raise NotImplementedError

    def batch(self, inp, out_dir):
        """([(op name, callable)], state dict the callables fill in)."""
        raise NotImplementedError

    def check(self, inp, st):
        """[Check] of the outputs in ``st``; runs outside the timed region."""
        raise NotImplementedError

    def extras(self, inp, st):
        """Per-layer metrics that do not come from spans."""
        return {}


# --- time-loops ------------------------------------------------------------

class TimeLoops(Workload):
    """Long-grid time steppers in-process: Volterra, Markov, Bloch, CSV."""

    name = "time-loops"
    M, LAMBDA, STEP, TMAX = 1.0, 50.0, 1e-3, 40.0

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        # released from rest at unit distance, in a random direction: the
        # system is isotropic and linear, so errors measured as vector norms
        # do not depend on the direction
        x0 = rng.normal(size=3)
        return {
            "beta": rng.uniform(0.15, 0.25),
            "omega": rng.uniform(0.9, 1.1),
            "x0": x0 / np.linalg.norm(x0),
            "v0": np.zeros(3),
            "grid": np.arange(0.0, self.TMAX + self.STEP / 2.0, self.STEP),
            # acceptance 6 two-level system, parameters drawn around it
            "tls_beta": rng.uniform(0.04, 0.06),
            "omega0": rng.uniform(0.9, 1.1),
        }

    def batch(self, inp, out_dir):
        from dissipon import io, langevin, quadrature, reservoir, tls
        st = {}
        pot = langevin.PotentialSpec.harmonic(self.M, inp["omega"])
        coupling = reservoir.CouplingFunction.canonical(inp["beta"], uv_cutoff=self.LAMBDA)
        tls_p = tls.TwoLevelParams(
            inp["omega0"], (1.0, 0.0, 0.0),
            reservoir.CouplingFunction.canonical(inp["tls_beta"], uv_cutoff=100.0))
        tls_cfg = quadrature.QuadratureConfig(ir_cutoff=1e-3 * inp["omega0"],
                                              uv_cutoff=100.0)
        st["tls_p"], st["tls_cfg"] = tls_p, tls_cfg

        def volterra():
            st["kernel"] = reservoir.MemoryKernel.sample(coupling, inp["grid"])
            st["volterra"] = langevin.evolve_mean_volterra(
                self.M, pot, st["kernel"], inp["x0"], inp["v0"], inp["grid"])

        def markov():
            st["markov"] = langevin.evolve_mean_markov(
                self.M, pot, inp["beta"], inp["x0"], inp["v0"], inp["grid"])

        def bloch_decay():
            mu = tls.decay_rate_mu(tls_p)
            st["decay_grid"] = np.linspace(0.0, 10.0 / mu, 20_001)
            st["decay"] = tls.evolve_bloch_markov(
                tls_p, tls.BlochState(sz=1.0), st["decay_grid"], tls_cfg)

        def bloch_ground():
            st["ground"] = tls.evolve_bloch_markov(
                tls_p, tls.BlochState(sz=-1.0), np.linspace(0.0, 1.0, 1_000_001), tls_cfg)

        def write_csv():
            st["csv"] = out_dir / "trajectory.csv"
            st["volterra"].write_csv(st["csv"])

        def emit():
            hist = st["decay"]
            st["table"] = out_dir / "tls_decay.csv"
            io.emit_table(st["table"], ["t", "sz", "ReF", "ImF"],
                          zip(hist.times, hist.sz, hist.f, hist.e_im),
                          metadata={"experiment": "tls", "mu": tls.decay_rate_mu(tls_p)})

        return [("volterra", volterra), ("markov", markov), ("bloch_decay", bloch_decay),
                ("bloch_ground", bloch_ground), ("write_csv", write_csv),
                ("emit_table", emit)], st

    def check(self, inp, st):
        from dissipon import io
        from dissipon.oscillator import OscillatorParams
        p = OscillatorParams(self.M, inp["omega"], inp["beta"])
        out = []
        if "markov" in st:
            out.append(Check("markov", "markov vs mean_trajectory",
                             _gap(st["markov"], p, inp["x0"], inp["v0"]), 1e-6))
        if "volterra" in st:
            traj, kern = st["volterra"], st["kernel"]
            # equation-of-motion residual through the separate FFT convolution
            force = self.M * traj.accelerations() + kern.convolve(traj.velocities) \
                + self.M * inp["omega"] ** 2 * traj.positions
            out.append(Check("volterra", "volterra residual",
                             float(np.max(np.linalg.norm(force[1:-1], axis=1))), 1e-5))
            # the O(1/Lambda) mass renormalisation gap, ~ 2 w / (e pi Lambda)
            out.append(Check("volterra", "volterra vs mean_trajectory",
                             _gap(traj, p, inp["x0"], inp["v0"]),
                             0.5 * inp["omega"] / self.LAMBDA))
        if "decay" in st:
            mu = st["tls_p"].coupling.beta * inp["omega0"]  # canonical: beta w0 |x12|^2
            closed = -1.0 + 2.0 * np.exp(-2.0 * mu * st["decay_grid"])
            out.append(Check("bloch_decay", "bloch sup vs closed form",
                             float(np.max(np.abs(st["decay"].sz - closed))), 1e-8))
        if "ground" in st:
            out.append(Check("bloch_ground", "ground-state drift",
                             float(np.max(np.abs(st["ground"].sz + 1.0))), 1e-12))
        if "csv" in st:
            _, cols, rows = io.read_table(st["csv"])
            traj = st["volterra"]
            back = np.array(rows)
            ref = np.column_stack([traj.times, traj.positions, traj.velocities])
            err = np.inf if back.shape != ref.shape else float(np.max(np.abs(back - ref)))
            out.append(Check("write_csv", "csv round trip", err, 0.0))
        if "table" in st:
            _, _, rows = io.read_table(st["table"])
            hist = st["decay"]
            ref = np.column_stack([hist.times, hist.sz, hist.f, hist.e_im])
            back = np.array(rows)
            err = np.inf if back.shape != ref.shape else float(np.max(np.abs(back - ref)))
            out.append(Check("emit_table", "table round trip", err, 0.0))
        return out


# --- lattice-field ---------------------------------------------------------

class LatticeField(Workload):
    """The field experiment on a 32^3 lattice, as cmd_field runs it."""

    name = "lattice-field"
    M, OMEGA, BETA, LAMBDA = 1.0, 1.0, 0.1, 2.8
    MODES, DX, STEP, TMAX = 32, 1.0, 0.02, 20.0

    def inputs(self, seed):
        # released from rest at unit distance in a random direction, as in
        # time-loops; the energy balance is a ratio, so the distance cancels
        x0 = np.random.default_rng(seed).normal(size=3)
        return {"x0": x0 / np.linalg.norm(x0), "v0": np.zeros(3),
                "times": np.arange(0.0, self.TMAX + self.STEP / 2.0, self.STEP)}

    def batch(self, inp, out_dir):
        from dissipon import field, langevin, reservoir
        st = {}
        grid = field.FieldGrid(n=self.MODES, dx=self.DX, uv_cutoff=self.LAMBDA)
        coupling = reservoir.CouplingFunction.canonical(self.BETA, uv_cutoff=self.LAMBDA)
        pot = langevin.PotentialSpec.harmonic(self.M, self.OMEGA)
        st["grid"] = grid

        def kernel():
            st["kernel"] = field.lattice_memory_kernel(coupling, grid, inp["times"])

        def volterra():
            st["traj"] = langevin.evolve_mean_volterra(
                self.M, pot, st["kernel"], inp["x0"], inp["v0"], inp["times"])

        def kspace():
            st["kspace"] = field.evolve_field_with_source(st["traj"], coupling, grid,
                                                          method="kspace")

        def leapfrog():
            st["leapfrog"] = field.evolve_field_with_source(st["traj"], coupling, grid,
                                                            method="leapfrog")

        def snapshot():
            st["snap"] = out_dir / "field_final.bin"
            field.write_snapshot(st["snap"], st["leapfrog"].final_y, grid.dx)

        return [("lattice_kernel", kernel), ("volterra", volterra), ("kspace", kspace),
                ("leapfrog", leapfrog), ("write_snapshot", snapshot)], st

    def _balance(self, st, method):
        e_mech = st["traj"].mechanical_energy(self.M, self.OMEGA)
        energy = st[method].energy
        return (energy[-1] - energy[0]) / (e_mech[0] - e_mech[-1])

    def check(self, inp, st):
        from dissipon import field
        out = []
        for method in ("kspace", "leapfrog"):
            if method in st:
                out.append(Check(method, f"{method} energy balance",
                                 abs(self._balance(st, method) - 1.0), 0.05))
        if "snap" in st:
            back, dx = field.read_snapshot(st["snap"])
            ok = dx == self.DX and np.array_equal(back, st["leapfrog"].final_y)
            out.append(Check("write_snapshot", "snapshot round trip", 0.0 if ok else 1.0, 0.0))
        return out

    def extras(self, inp, st):
        return {f"field.balance_{m}": self._balance(st, m)
                for m in ("kspace", "leapfrog") if m in st}


# --- spectral-sweep --------------------------------------------------------

def _panel_transform(coupling, times, nodes=12):
    """Cosine transform of a piecewise-linear table's spectral weight, panel
    by panel with Gauss-Legendre nodes (exact for its degree-7 pieces up to
    the cosine's curvature), and the transform's scale at t = 0."""
    x, wt = np.polynomial.legendre.leggauss(nodes)
    a, b = coupling.grid[:-1, None], coupling.grid[1:, None]
    w = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    sw = (8.0 * np.pi / 3.0) * coupling.spectral_weight(w) * (0.5 * (b - a) * wt).ravel()
    return np.array([np.dot(sw, np.cos(w * t)) for t in times]), abs(sw.sum())


class SpectralSweep(Workload):
    """Seed-drawn parameter points over the quadrature-backed functions."""

    name = "spectral-sweep"
    POINTS = 14       # points per closed-form / shift / energy family
    LONG_T = 500.0    # omega t of the golden-rule limit (acceptance 4)
    CHECK_TIMES = np.array([0.0, 0.35, 2.0])

    def inputs(self, seed):
        from dissipon.reservoir import CouplingFunction
        rng = np.random.default_rng(seed)
        k = self.POINTS

        def u(lo, hi, n=k):
            return rng.uniform(lo, hi, n)

        def fock():
            return [tuple(int(v) for v in rng.integers(0, 3, 3)) for _ in range(k)]

        # Frequencies and cutoffs, which set how hard an integral is, vary
        # over a narrow band; amplitudes (beta, mass, dipole) vary widely.
        inp = {
            "long": list(zip(u(0.5e-3, 1.5e-3, 4), u(0.8, 1.25, 4))),
            "onset": list(zip(u(0.5e-3, 1.5e-3, 2), u(0.8, 1.25, 2))),
            "tls": list(zip(u(0.05, 0.15), u(0.8, 1.25), u(0.2, 1.0))),
            "energy": list(zip(u(0.5, 2.0), u(0.8, 1.25), u(1e-3, 1e-2), fock())),
            "friction": list(zip(u(0.1, 1.0, 8), u(40.0, 60.0, 8))),
            "rates": list(zip(u(0.5, 2.0), u(0.3, 3.0), u(0.01, 0.2), u(0.2, 3.0),
                              [max(1, sum(n)) for n in fock()])),
            "fock_momenta": [rng.normal(size=(3, 3)) for _ in range(k)],
        }
        # the smooth log-grid table of the reservoir tests, beta drawn
        lam = 60.0
        w = np.geomspace(1e-6, lam, 20_000)
        beta_s = rng.uniform(0.2, 0.4)
        inp["smooth_beta"] = beta_s
        inp["smooth"] = CouplingFunction.tabulated(
            w, np.sqrt(3.0 * beta_s / (4.0 * np.pi**2 * w**5))
            * np.exp(-((w / (lam / 2)) ** 8) / 2), uv_cutoff=lam)
        # the 500-point linear canonical table on [0.01, 50]
        beta_l = rng.uniform(0.1, 1.0)
        w = np.linspace(0.01, 50.0, 500)
        inp["linear"] = CouplingFunction.tabulated(
            w, np.sqrt(3.0 * beta_l / (4.0 * np.pi**2 * w**5)), uv_cutoff=50.0)
        inp["kernel_times"] = np.linspace(0.0, 2.0, 41)
        return inp

    def batch(self, inp, out_dir):
        from dissipon import oscillator, quadrature, rates, reservoir, tls
        from dissipon.oscillator import FockTriple, OscillatorParams
        from dissipon.reservoir import CouplingFunction, ReservoirState
        st = {}
        ops = []

        def add(name, fn):
            ops.append((name, fn))

        for i, (beta, om) in enumerate(inp["long"]):
            def long(i=i, beta=beta, om=om):
                c = CouplingFunction.canonical(beta, uv_cutoff=100.0 * om)
                req = rates.RateRequest(OscillatorParams(1.0, om, beta), FockTriple(1, 0, 0),
                                        ReservoirState.vacuum(), c, t=self.LONG_T / om)
                st[f"long{i}"] = rates.finite_time_emission_probability(req)
            add(f"finite_time_long{i}", long)

        for i, (beta, om) in enumerate(inp["onset"]):
            def onset(i=i, beta=beta, om=om):
                c = CouplingFunction.canonical(beta, uv_cutoff=100.0 * om)
                cfg = quadrature.QuadratureConfig(uv_cutoff=10.0 * om, ir_cutoff=1e-8 * om)
                ts = np.geomspace(1e-3, 1e-2, 7) / om
                st[f"onset{i}"] = (ts, [rates.finite_time_emission_probability(
                    rates.RateRequest(OscillatorParams(1.0, om, beta), FockTriple(1, 0, 0),
                                      ReservoirState.vacuum(), c, t=float(t)), cfg)
                    for t in ts])
            add(f"finite_time_onset{i}", onset)

        for i, (beta, w0, x12) in enumerate(inp["tls"]):
            p = tls.TwoLevelParams(w0, (x12, 0.0, 0.0),
                                   CouplingFunction.canonical(beta, uv_cutoff=1e3))
            cfg = quadrature.QuadratureConfig(ir_cutoff=1e-3 * w0, uv_cutoff=1e3)

            def shifts(i=i, p=p, cfg=cfg):
                st[f"shifts{i}"] = tls.level_shifts(p, cfg)

            def spectrum(i=i, p=p, cfg=cfg):
                st[f"spectrum{i}"] = tls.coherence_frequencies(p, cfg)
            add(f"level_shifts{i}", shifts)
            add(f"coherence_frequencies{i}", spectrum)

        for i, (m, om, ratio, n) in enumerate(inp["energy"]):
            def energy(i=i, p=OscillatorParams(m, om, ratio * m * om), n=FockTriple(*n)):
                st[f"energy{i}"] = oscillator.asymptotic_reservoir_energy(p, n)
            add(f"reservoir_energy{i}", energy)

        for i, (beta, lam) in enumerate(inp["friction"]):
            def friction(i=i, c=CouplingFunction.canonical(beta, uv_cutoff=lam)):
                st[f"friction{i}"] = reservoir.friction_coefficient(c)
            add(f"friction_canonical{i}", friction)

        for i, (m, om, beta, kt, n) in enumerate(inp["rates"]):
            p = OscillatorParams(m, om, beta)
            c = CouplingFunction.canonical(beta, uv_cutoff=100.0 * om)
            triple = FockTriple(n, 0, 0)
            # two resonant quanta along random directions, one off resonance
            mom = inp["fock_momenta"][i]
            mom = mom / np.linalg.norm(mom, axis=1)[:, None] * np.array([[om], [om], [2 * om]])

            def thermal(i=i, req=rates.RateRequest(p, triple, ReservoirState.thermal(kt), c)):
                st[f"thermal{i}"] = rates.rates_thermal(req)

            def fock(i=i, req=rates.RateRequest(p, triple, ReservoirState.fock(mom), c)):
                st[f"fock{i}"] = rates.rates_fock(req)

            def vacuum(i=i, req=rates.RateRequest(p, triple, ReservoirState.vacuum(), c)):
                st[f"vacuum{i}"] = rates.rate_emission_vacuum(req)
            add(f"rates_thermal{i}", thermal)
            add(f"rates_fock{i}", fock)
            add(f"rate_emission_vacuum{i}", vacuum)

        for label in ("smooth", "linear"):
            def sample(label=label):
                st[f"{label}_kernel"] = reservoir.MemoryKernel.sample(inp[label],
                                                                      inp["kernel_times"])
            add(f"kernel_{label}_table", sample)

        def friction_smooth():
            st["friction_smooth"] = reservoir.friction_coefficient(inp["smooth"])

        def friction_linear():
            st["friction_linear"] = reservoir.friction_coefficient(inp["linear"])
        add("friction_smooth_table", friction_smooth)
        add("friction_linear_table", friction_linear)
        return ops, st

    def check(self, inp, st):
        out = []
        for i, (beta, om) in enumerate(inp["long"]):
            if f"long{i}" in st:  # acceptance 4: P/t -> golden-rule rate n beta / m
                out.append(Check(f"finite_time_long{i}", "P/t vs rate",
                                 _rel(st[f"long{i}"] / (self.LONG_T / om), beta), 0.02))
        for i in range(len(inp["onset"])):
            if f"onset{i}" in st:
                ts, probs = st[f"onset{i}"]
                slope = np.polyfit(np.log(ts), np.log(probs), 1)[0]
                out.append(Check(f"finite_time_onset{i}", "onset exponent",
                                 abs(slope - 2.0), 0.05))
        for i, (beta, w0, x12) in enumerate(inp["tls"]):
            lam, eps, x2 = 1e3, 1e-3 * w0, x12 * x12
            d1 = beta * w0**5 * x2 * (np.log((lam - w0) / lam) - np.log((w0 - eps) / eps))
            d2 = beta * w0**5 * x2 * np.log(lam * (eps + w0) / (eps * (lam + w0)))
            if f"shifts{i}" in st:
                s = st[f"shifts{i}"]
                out.append(Check(f"level_shifts{i}", "delta1 closed form",
                                 _rel(s.delta1, d1), 1e-8))
                out.append(Check(f"level_shifts{i}", "delta2 closed form",
                                 _rel(s.delta2, d2), 1e-10))
            if f"spectrum{i}" in st:
                s = st[f"spectrum{i}"]
                out.append(Check(f"coherence_frequencies{i}", "mu closed form",
                                 _rel(s.mu, beta * w0 * x2), 1e-12))
                out.append(Check(f"coherence_frequencies{i}", "shifted frequency",
                                 _rel(s.gamma_shifted, w0 - 2.0 * d2 - 2.0 * d1), 1e-8))
        for i, (m, om, ratio, n) in enumerate(inp["energy"]):
            if f"energy{i}" in st:  # acceptance 2
                out.append(Check(f"reservoir_energy{i}", "energy vs residue form",
                                 _rel(st[f"energy{i}"].numeric, (sum(n) + 1.5) * om), 1e-3))
        for i, (beta, lam) in enumerate(inp["friction"]):
            if f"friction{i}" in st:
                out.append(Check(f"friction_canonical{i}", "friction vs beta",
                                 _rel(st[f"friction{i}"], beta), 1e-3))
        for i, (m, om, beta, kt, n) in enumerate(inp["rates"]):
            x = om / kt
            rate = n * beta / m
            if f"thermal{i}" in st:  # acceptance 5 closed forms and detailed balance
                pair = st[f"thermal{i}"]
                out.append(Check(f"rates_thermal{i}", "thermal emission",
                                 _rel(pair.emission, rate * np.exp(x) / np.expm1(x)), 1e-12))
                out.append(Check(f"rates_thermal{i}", "thermal absorption",
                                 _rel(pair.absorption, (n + 3) * beta / m / np.expm1(x)),
                                 1e-12))
                out.append(Check(f"rates_thermal{i}", "detailed balance",
                                 _rel(pair.emission / pair.absorption,
                                      n * np.exp(x) / (n + 3)), 1e-12))
            if f"fock{i}" in st:
                pair = st[f"fock{i}"]
                mom = inp["fock_momenta"][i][:2]
                mom = mom / np.linalg.norm(mom, axis=1)[:, None] * om
                f2 = 3.0 * beta / (4.0 * np.pi**2 * om**5)
                absorption = np.pi * om * f2 / m * float(
                    np.sum(mom**2 @ np.array([n + 1, 1.0, 1.0])))
                out.append(Check(f"rates_fock{i}", "fock emission",
                                 _rel(pair.emission, rate), 1e-12))
                out.append(Check(f"rates_fock{i}", "fock absorption",
                                 _rel(pair.absorption, absorption), 1e-12))
            if f"vacuum{i}" in st:
                out.append(Check(f"rate_emission_vacuum{i}", "vacuum rate",
                                 _rel(st[f"vacuum{i}"], rate), 1e-12))
        for label in ("smooth", "linear"):
            if f"{label}_kernel" in st:
                kern = st[f"{label}_kernel"]
                idx = np.searchsorted(kern.times, self.CHECK_TIMES)
                ref, scale = _panel_transform(inp[label], self.CHECK_TIMES)
                # the reservoir tests' tolerance for tabulated sampling
                out.append(Check(f"kernel_{label}_table", "kernel vs panel-exact transform",
                                 float(np.max(np.abs(kern.values[idx] - ref))), 1e-5 * scale))
        if "friction_smooth" in st:
            out.append(Check("friction_smooth_table", "friction vs beta",
                             _rel(st["friction_smooth"], inp["smooth_beta"]), 0.02))
        if "friction_linear" in st:  # the table's friction is the canonical beta
            beta_l = float(inp["linear"].values[-1] ** 2 * 4.0 * np.pi**2 * 50.0**5 / 3.0)
            out.append(Check("friction_linear_table", "friction vs beta",
                             _rel(st["friction_linear"], beta_l), 0.02))
        return out


# --- cli-cold --------------------------------------------------------------

def _summary(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = float(value)
    return out


class CliCold(Workload):
    """Fresh-process ``dissipon`` runs, one at a time (closed loop, one client)."""

    name = "cli-cold"
    in_process = False
    SWEEP_VALUES = 8
    RUNS = ("kernel", "rates_thermal", "rates_t", "tls", "oscillator", "oscillator_kt",
            "langevin_volterra", "field", "sweep")

    def __init__(self):
        self.first_tables = None  # CSV bytes of the first checked pass

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        omega0 = round(float(rng.uniform(1.5, 2.5)), 6)
        inp = {
            "kernel_beta": round(float(rng.uniform(0.3, 0.7)), 6),
            "kt": round(float(rng.uniform(0.5, 2.0)), 6),
            "omega": round(float(rng.uniform(0.5, 1.0)), 6),
            "t_beta": round(float(rng.uniform(0.8e-3, 1.2e-3)), 8),
            "tls_beta": round(float(rng.uniform(0.05, 0.15)), 6),
            "omega0": omega0,
            "x12sq": round(float(rng.uniform(0.1, 0.4)), 6),
            "osc_beta": round(float(rng.uniform(5e-4, 2e-3)), 8),
            "kt_osc": round(float(rng.uniform(0.5, 1.5)), 6),
            "lang_beta": round(float(rng.uniform(0.15, 0.25)), 6),
        }
        # omega0 itself is job 4, so that job repeats the standalone tls run
        values = [round(omega0 * (0.5 + 0.125 * k), 6) for k in range(self.SWEEP_VALUES)]
        inp["sweep_values"] = values
        return inp

    def commands(self, inp):
        """(op name, argv) of one pass, in ``RUNS`` order; argv are CLI arguments."""
        tls_flags = ["--beta", str(inp["tls_beta"]), "--x12sq", str(inp["x12sq"]),
                     "--tmax", "100", "--ir-cutoff", "1e-6"]
        return list(zip(self.RUNS, [
            ["kernel", "--beta", str(inp["kernel_beta"]), "--uv-cutoff", "50", "--tmax", "2"],
            ["rates", "--thermal", "--kt", str(inp["kt"]), "--omega", str(inp["omega"])],
            ["rates", "--t", "500", "--beta", str(inp["t_beta"]), "--uv-cutoff", "100"],
            ["tls", "--omega0", str(inp["omega0"])] + tls_flags,
            ["oscillator", "--beta", str(inp["osc_beta"]), "--n", "1,0,0"],
            ["oscillator", "--beta", "0.1", "--kt", str(inp["kt_osc"])],
            ["langevin", "--volterra", "--beta", str(inp["lang_beta"])],
            ["field"],
            ["sweep", "--config", "{sweep_cfg}", "--workers", "2"],
        ], strict=True))

    def _sweep_config(self, inp, path):
        path.write_text(
            "[sweep]\nexperiment = tls\nparameter = omega0\n"
            f"values = {' '.join(str(v) for v in inp['sweep_values'])}\n\n"
            f"[tls]\nbeta = {inp['tls_beta']}\nx12sq = {inp['x12sq']}\n"
            "tmax = 100\nir_cutoff = 1e-6\n")

    def batch(self, inp, out_dir):
        st = {}
        sweep_cfg = out_dir / "sweep.cfg"
        self._sweep_config(inp, sweep_cfg)
        env = dict(os.environ)
        here = Path(__file__).resolve().parent
        ops = []
        for name, argv in self.commands(inp):
            argv = [a.format(sweep_cfg=sweep_cfg) for a in argv]

            def run(name=name, argv=argv):
                out = out_dir / name
                if self.child_spans is None:
                    cmd = [sys.executable, "-m", "dissipon.cli"]
                else:
                    spans = out_dir / f"{name}.spans.json"
                    cmd = [sys.executable, str(here / "cli_child.py"), str(spans)]
                start = time.perf_counter()
                # own session, so a hung run is killed with its sweep workers
                proc = subprocess.Popen(cmd + argv + ["--out", str(out)], env=env,
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                        text=True, start_new_session=True)
                try:
                    stdout, stderr = proc.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
                    raise
                st[f"{name}_s"] = time.perf_counter() - start
                if proc.returncode != 0:
                    raise RuntimeError(f"exit {proc.returncode}: {stderr.strip()[-300:]}")
                if self.child_spans is not None:
                    self.child_spans.append(spans)
                st[name] = (out, _summary(stdout))
            ops.append((name, run))
        return ops, st

    def check(self, inp, st):
        from dissipon import io
        out = []

        def table(name, filename):
            return io.read_table(st[name][0] / filename)

        if "kernel" in st:
            out.append(Check("kernel", "beta_eff vs beta",
                             _rel(st["kernel"][1]["beta_eff"], inp["kernel_beta"]), 1e-3))
        if "rates_thermal" in st:
            s, x = st["rates_thermal"][1], inp["omega"] / inp["kt"]
            out.append(Check("rates_thermal", "thermal emission",
                             _rel(s["emission"], 0.1 * np.exp(x) / np.expm1(x)), 1e-12))
            out.append(Check("rates_thermal", "thermal absorption",
                             _rel(s["absorption"], 0.4 / np.expm1(x)), 1e-12))
        if "rates_t" in st:
            out.append(Check("rates_t", "P/t vs rate",
                             _rel(st["rates_t"][1]["emission"], inp["t_beta"]), 0.02))
        if "tls" in st:
            mu = inp["tls_beta"] * inp["omega0"] * inp["x12sq"]
            out.append(Check("tls", "mu closed form", _rel(st["tls"][1]["mu"], mu), 1e-12))
            _, _, rows = table("tls", "tls_decay.csv")
            t, sz = rows[-1][0], rows[-1][1]
            out.append(Check("tls", "final population vs closed form",
                             abs(sz - (-1.0 + 2.0 * np.exp(-2.0 * mu * t))), 1e-8))
        for name, beta, quanta in (("oscillator", inp["osc_beta"], 1),
                                   ("oscillator_kt", 0.1, 0)):
            if name not in st:
                continue
            s = st[name][1]
            out.append(Check(name, "omega1 closed form",
                             _rel(s["omega1"], math.sqrt(1.0 - beta**2 / 4.0)), 1e-14))
            out.append(Check(name, "reservoir energy vs residue form",
                             _rel(s["reservoir_energy_numeric"], quanta + 1.5), 1e-3))
        if "oscillator_kt" in st:
            _, _, rows = table("oscillator_kt", "oscillator.csv")
            mode_sum = dict((r[0], r[1]) for r in rows)["thermal_energy_mode_sum"]
            out.append(Check("oscillator_kt", "mode-sum oracle vs FD response",
                             _rel(mode_sum, _fd_response(0.1, inp["kt_osc"])), 0.05))
        if "langevin_volterra" in st:
            from dissipon.langevin import Trajectory
            from dissipon.oscillator import OscillatorParams
            _, _, rows = table("langevin_volterra", "trajectory.csv")
            rows = np.array(rows)
            traj = Trajectory(rows[:, 0], rows[:, 1:4], rows[:, 4:7])
            gap = _gap(traj, OscillatorParams(1.0, 1.0, inp["lang_beta"]),
                       [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
            # the CLI's default cutoff is 100 w
            out.append(Check("langevin_volterra", "volterra vs mean_trajectory",
                             gap, 0.5 / 100.0))
        if "field" in st:
            out.append(Check("field", "kspace energy balance",
                             abs(st["field"][1]["energy_balance"] - 1.0), 0.05))
        if "sweep" in st:
            _, cols, rows = table("sweep", "sweep.csv")
            err = max(_rel(r[cols.index("mu")], inp["tls_beta"] * r[0] * inp["x12sq"])
                      for r in rows)
            out.append(Check("sweep", "mu per omega0", err, 1e-12))
            out.append(Check("sweep", "job count",
                             abs(len(rows) - len(inp["sweep_values"])), 0.0))
            if "tls" in st:  # aim 4: the same run gives a byte-identical table
                job = inp["sweep_values"].index(inp["omega0"])
                same = (st["sweep"][0] / f"sweep_{job:04d}" / "tls_decay.csv").read_bytes() \
                    == (st["tls"][0] / "tls_decay.csv").read_bytes()
                out.append(Check("sweep", "sweep job table byte-identical to tls run",
                                 0.0 if same else 1.0, 0.0))
        # aim 4 across passes: only manifests (timestamps, timings) may differ
        tables = self._tables(st)
        if self.first_tables is None:
            self.first_tables = tables
        else:
            for path, data in tables.items():
                out.append(Check(path.split("/")[0], f"{path} byte-identical to first pass",
                                 0.0 if self.first_tables.get(path) == data else 1.0, 0.0))
        return out

    def extras(self, inp, st):
        out = {f"cli.{name}_s": st[f"{name}_s"] for name in self.RUNS if f"{name}_s" in st}
        if "sweep_s" in st:
            out["cli.sweep_jobs_per_s"] = len(inp["sweep_values"]) / st["sweep_s"]
        if "oscillator_kt_s" in st and "oscillator_s" in st:
            out["oscillator.thermal_s"] = st["oscillator_kt_s"] - st["oscillator_s"]
        return out

    def _tables(self, st):
        """Bytes of every CSV table a pass wrote, keyed by op-relative path."""
        out = {}
        for value in st.values():
            if isinstance(value, tuple):
                for path in sorted(value[0].rglob("*.csv")):
                    out[path.relative_to(value[0].parent).as_posix()] = path.read_bytes()
        return out


def _fd_response(beta, kt, m=1.0, omega=1.0):
    """3 beta/(pi m) (I3 + w^2 I1): the weak-coupling thermal energy, by scipy quad."""
    from scipy.integrate import quad

    def moment(k):
        f = lambda x: x**k / (((omega**2 - x**2) ** 2 + (beta / m) ** 2 * x**2)
                              * np.expm1(x / kt))
        edges = (0.0, omega, 2.0 * omega, np.inf)
        return sum(quad(f, a, b, limit=400, epsrel=1e-10)[0]
                   for a, b in zip(edges, edges[1:]))

    return 3.0 * beta / (np.pi * m) * (moment(3) + omega**2 * moment(1))


WORKLOADS = {w.name: w for w in (TimeLoops, LatticeField, SpectralSweep, CliCold)}
