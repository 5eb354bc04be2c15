"""Acceptance suite: every criterion is asserted at its stated tolerance and
reports one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``)."""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dissipon.field import (FieldGrid, evolve_field_with_source,
                            hamiltonian_identity_check, lattice_memory_kernel)
from dissipon.langevin import PotentialSpec, Trajectory, evolve_mean_volterra
from dissipon.oscillator import (FockTriple, OscillatorParams,
                                 asymptotic_reservoir_energy,
                                 asymptotic_system_energy)
from dissipon.quadrature import QuadratureConfig
from dissipon.rates import (RateRequest, finite_time_emission_probability,
                            rate_emission_vacuum, rates_thermal)
from dissipon.reservoir import CouplingFunction, MemoryKernel, ReservoirState
from dissipon.tls import (BlochState, TwoLevelParams, coherence_evolution,
                          coherence_frequencies, evolve_bloch_markov,
                          sigma_z_evolution)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_01_kernel_friction_limit():
    started = time.perf_counter()
    beta = 1.0
    sups = []
    for lam in (1e2, 3e2, 1e3):
        coupling = CouplingFunction.canonical(beta, uv_cutoff=lam)
        h = np.pi / (40.0 * lam)
        times = np.arange(0.0, 5.0 + h / 2.0, h)
        kernel = MemoryKernel.sample(coupling, times)
        conv = kernel.convolve(np.cos(times))
        window = times >= 1.0
        sups.append(np.max(np.abs(conv[window] - beta * np.cos(times[window]))) / beta)
    elapsed = time.perf_counter() - started
    ok = sups[-1] < 0.01 and sups[0] > sups[1] > sups[2] and elapsed < 10.0
    report("1 kernel-friction-limit", ok,
           f"sup dev at Lambda=1e3: {sups[-1]:.2e} (< 1e-2), "
           f"sweep {['%.2e' % s for s in sups]}, {elapsed:.1f}s")


def test_02_asymptotic_reservoir_energy():
    started = time.perf_counter()
    p = OscillatorParams(m=1.0, omega=1.0, beta=1e-3)
    worst = 0.0
    for n in (FockTriple(0, 0, 0), FockTriple(1, 0, 0), FockTriple(2, 1, 0)):
        r = asymptotic_reservoir_energy(p, n)
        assert r.residue_closed_form == (n.total + 1.5) * p.omega
        worst = max(worst, abs(r.numeric / r.residue_closed_form - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 5.0
    report("2 asymptotic-reservoir-energy", ok,
           f"worst relative deviation {worst:.2e} (< 1e-3), {elapsed:.1f}s")


def test_03_asymptotic_system_energy():
    cases = [
        (OscillatorParams(1.0, 1.0, 0.1), FockTriple(0, 0, 0)),
        (OscillatorParams(2.0, 0.5, 0.1), FockTriple(1, 1, 0)),
        (OscillatorParams(1.5, 2.0, 0.2), FockTriple(3, 0, 2)),
    ]
    ok = True
    for p, n in cases:
        e = asymptotic_system_energy(p, n)
        expect = p.beta**2 / (2.0 * p.m**2 * p.omega) * (n.total + 1.5)
        ok = ok and e.velocity_form == 0.0 and e.canonical_form == expect
    report("3 asymptotic-system-energy", ok,
           "canonical form algebraically exact, velocity form 0")


def test_04_golden_rule_consistency():
    started = time.perf_counter()
    beta = 1e-3  # keeps the first-order probability below 1 out to w t = 500
    p = OscillatorParams(1.0, 1.0, beta)
    coupling = CouplingFunction.canonical(beta, uv_cutoff=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        req = RateRequest(p, FockTriple(1, 0, 0), ReservoirState.vacuum(),
                          coupling, t=500.0)
        prob = finite_time_emission_probability(req)
    rate = rate_emission_vacuum(
        RateRequest(p, FockTriple(1, 0, 0), ReservoirState.vacuum(), coupling))
    rel_dev = abs(prob / 500.0 / rate - 1.0)

    onset_cfg = QuadratureConfig(uv_cutoff=10.0, ir_cutoff=1e-8)
    ts = np.geomspace(1e-3, 1e-2, 7)
    probs = [finite_time_emission_probability(
        RateRequest(p, FockTriple(1, 0, 0), ReservoirState.vacuum(), coupling,
                    t=float(t)), onset_cfg) for t in ts]
    exponent = np.polyfit(np.log(ts), np.log(probs), 1)[0]
    elapsed = time.perf_counter() - started
    ok = rel_dev < 0.02 and abs(exponent - 2.0) < 0.05 and elapsed < 30.0
    report("4 golden-rule-consistency", ok,
           f"P/t dev {rel_dev:.3%} (< 2%), onset exponent {exponent:.4f} "
           f"(2 +- 0.05), {elapsed:.1f}s")


def test_05_thermal_rates():
    beta, m = 0.1, 1.0
    omega = np.log(2.0)
    p = OscillatorParams(m, omega, beta)
    coupling = CouplingFunction.canonical(beta, uv_cutoff=100.0)
    pair = rates_thermal(RateRequest(p, FockTriple(1, 0, 0),
                                     ReservoirState.thermal(1.0), coupling))
    dev_e = abs(pair.emission / (2.0 * beta / m) - 1.0)
    dev_a = abs(pair.absorption / (4.0 * beta / m) - 1.0)

    cold = rates_thermal(RateRequest(p, FockTriple(1, 0, 0),
                                     ReservoirState.thermal(omega / 50.0), coupling))
    vacuum = rate_emission_vacuum(RateRequest(p, FockTriple(1, 0, 0),
                                              ReservoirState.vacuum(), coupling))
    cold_emission_dev = abs(cold.emission / vacuum - 1.0)
    cold_absorption = cold.absorption / cold.emission
    ok = dev_e < 1e-12 and dev_a < 1e-12 and cold_emission_dev < 1e-12 \
        and cold_absorption < 1e-15
    report("5 thermal-rates", ok,
           f"emission/absorption devs {dev_e:.1e}/{dev_a:.1e} (< 1e-12), "
           f"cold absorption/emission {cold_absorption:.1e} (< 1e-15)")


def test_06_tls_population_decay():
    started = time.perf_counter()
    coupling = CouplingFunction.canonical(0.05, uv_cutoff=100.0)
    p = TwoLevelParams(1.0, (1.0, 0.0, 0.0), coupling)
    cfg = QuadratureConfig(ir_cutoff=1e-3, uv_cutoff=100.0)
    mu = coherence_frequencies(p, cfg).mu
    grid = np.linspace(0.0, 10.0 / mu, 20_001)
    hist = evolve_bloch_markov(p, BlochState(sz=1.0), grid, cfg)
    sup = np.max(np.abs(hist.sz - (-1.0 + 2.0 * np.exp(-2.0 * mu * grid))))

    ground_grid = np.linspace(0.0, 1.0, 1_000_001)
    ground = evolve_bloch_markov(p, BlochState(sz=-1.0), ground_grid, cfg)
    drift = np.max(np.abs(ground.sz + 1.0))
    elapsed = time.perf_counter() - started
    ok = sup < 1e-8 and drift < 1e-12 and elapsed < 5.0
    report("6 tls-population-decay", ok,
           f"sup dev {sup:.1e} (< 1e-8), ground drift {drift:.1e} (< 1e-12), "
           f"{elapsed:.1f}s")


def test_07_coherence_envelope():
    # oscillatory regime of the coherence pair: w0 Gamma > mu^2, where both
    # characteristic roots share the imaginary part mu
    coupling = CouplingFunction.canonical(0.05, uv_cutoff=100.0)
    p = TwoLevelParams(1.0, (1.0, 0.0, 0.0), coupling)
    cfg = QuadratureConfig(ir_cutoff=1e-3, uv_cutoff=100.0)
    spec = coherence_frequencies(p, cfg)
    assert p.omega0 * spec.gamma_shifted > spec.mu**2
    mu = spec.mu
    t = np.linspace(0.0, 20.0 / mu, 8001)
    f_t, _ = coherence_evolution(p, 1.0, 0.0, t, cfg)
    s_plus, s_minus = 1j * spec.omega_plus, 1j * spec.omega_minus
    coeff = np.array([[1.0, 1.0],
                      [1j * p.omega0 / s_plus, 1j * p.omega0 / s_minus]])
    c1, c2 = np.linalg.solve(coeff, np.array([1.0 + 0j, 0.0 + 0j]))
    bound = abs(c1) + abs(c2)
    growth = np.max(np.abs(f_t) * np.exp(mu * t)) / bound

    def rhs(_, y):
        f = y[0] + 1j * y[1]
        e = y[2] + 1j * y[3]
        df = 1j * spec.gamma_shifted * e - 2.0 * mu * f
        de = 1j * p.omega0 * f
        return [df.real, df.imag, de.real, de.imag]

    t_short = t[t <= 5.0 / mu]
    sol = solve_ivp(rhs, (0.0, t_short[-1]), [1.0, 0.0, 0.0, 0.0], t_eval=t_short,
                    rtol=1e-12, atol=1e-14, method="DOP853")
    oracle = sol.y[0] + 1j * sol.y[1]
    sup = np.max(np.abs(f_t[: len(t_short)] - oracle))
    ok = growth <= 1.0 + 1e-6 and sup < 1e-8
    report("7 coherence-envelope", ok,
           f"|F| e^(mu t) growth {growth - 1.0:+.1e} (<= 1e-6), "
           f"closed-vs-ODE sup {sup:.1e} (< 1e-8)")


def test_08_field_hamiltonian_identity():
    started = time.perf_counter()
    grid = FieldGrid(n=16, dx=0.5)
    rng = np.random.default_rng(2026)
    a = rng.normal(size=(16,) * 3) + 1j * rng.normal(size=(16,) * 3)
    a[~grid.mode_mask()] = 0.0
    scale = float(np.sum(grid.omega() * np.abs(a) ** 2))
    residual = hamiltonian_identity_check(a, grid) / scale
    elapsed = time.perf_counter() - started
    ok = residual < 1e-10 and elapsed < 1.0
    report("8 field-hamiltonian-identity", ok,
           f"relative Parseval residual {residual:.1e} (< 1e-10), {elapsed:.2f}s")


def test_09_energy_balance():
    started = time.perf_counter()
    m, omega, beta = 1.0, 1.0, 0.1  # beta/(m w) = 0.1
    grid = FieldGrid(n=32, dx=1.0, uv_cutoff=2.8)
    coupling = CouplingFunction.canonical(beta, uv_cutoff=2.8)
    h = 0.01
    times = np.arange(0.0, 25.0 + h / 2.0, h)
    kernel = lattice_memory_kernel(coupling, grid, times)
    pot = PotentialSpec.harmonic(m, omega)
    traj = evolve_mean_volterra(m, pot, kernel, [1.0, 0, 0], [0, 0, 0], times)
    hist = evolve_field_with_source(traj, coupling, grid, method="kspace")
    e_mech = traj.mechanical_energy(m, omega)
    lost = e_mech[0] - e_mech[-1]
    gained = hist.energy[-1] - hist.energy[0]
    rel = abs(gained / lost - 1.0)
    period = int(round(2.0 * np.pi / omega / h))
    monotone = bool(np.all(np.diff(hist.energy[::period]) > 0.0))
    elapsed = time.perf_counter() - started
    ok = rel < 0.05 and monotone and elapsed < 120.0
    report("9 energy-balance", ok,
           f"field gain vs mechanical loss dev {rel:.2e} (< 5e-2), "
           f"monotone={monotone}, {elapsed:.0f}s")


def test_10_solver_orders():
    started = time.perf_counter()
    # memory-equation solver under grid halving
    coupling = CouplingFunction.canonical(0.2, uv_cutoff=20.0)
    pot = PotentialSpec.harmonic(1.0, 1.0)

    def solve(h):
        grid = np.arange(0.0, 5.0 + h / 2.0, h)
        kernel = MemoryKernel.sample(coupling, grid)
        return evolve_mean_volterra(1.0, pot, kernel, [1, 0, 0], [0, 0, 0], grid)

    ref = solve(2.5e-4)
    errs, hs = [], [4e-3, 2e-3, 1e-3]
    for h in hs:
        traj = solve(h)
        stride = int(round(h / 2.5e-4))
        errs.append(np.max(np.abs(traj.positions[:, 0] - ref.positions[::stride, 0])))
    volterra_order = np.polyfit(np.log(hs), np.log(errs), 1)[0]

    # field leapfrog against the analytic travelling mode, Y and Pi, at t = 5:
    # at t = 4 the mode has turned by k0 t = pi on every grid, where the
    # initial-momentum error term of an exact-phase step vanishes
    y_errs, pi_errs, steps = [], [], []
    for n, dx in [(8, 1.0), (16, 0.5), (32, 0.25)]:
        g = FieldGrid(n=n, dx=dx)
        k0 = 2.0 * np.pi / g.box_length
        a0 = np.zeros((n,) * 3, dtype=complex)
        a0[1, 0, 0] = 1.0
        dt = 0.2 * dx
        t_grid = np.arange(0.0, 5.0 + dt / 2.0, dt)
        still = Trajectory(t_grid, np.zeros((len(t_grid), 3)),
                           np.zeros((len(t_grid), 3)))
        hist = evolve_field_with_source(still, CouplingFunction.zero(), g,
                                        method="leapfrog", initial_amplitudes=a0)
        x = dx * np.arange(n)
        amp = 1.0 / np.sqrt(2.0 * g.volume * k0)
        wave = 2.0 * amp * np.exp(1j * k0 * (x - t_grid[-1]))
        y_errs.append(np.max(np.abs(hist.final_y[:, 0, 0] - wave.real)))
        pi_errs.append(np.max(np.abs(hist.final_pi[:, 0, 0] - k0 * wave.imag)))
        steps.append(dt)
    y_order, pi_order = (np.polyfit(np.log(steps), np.log(errs), 1)[0]
                         for errs in (y_errs, pi_errs))
    elapsed = time.perf_counter() - started
    ok = all(abs(order - 2.0) < 0.1 for order in (volterra_order, y_order, pi_order))
    report("10 solver-orders", ok,
           f"volterra order {volterra_order:.3f}, leapfrog order Y {y_order:.3f}, "
           f"Pi {pi_order:.3f} (all 2 +- 0.1), {elapsed:.0f}s")
