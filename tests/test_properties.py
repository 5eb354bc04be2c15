"""Property-based checks of the golden-rule rates, two-level constants,
mean-trajectory solvers and lattice field maps.

Skipped where hypothesis is not installed.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dissipon.errors import StabilityError  # noqa: E402
from dissipon.field import (FieldGrid, field_from_modes,  # noqa: E402
                            hamiltonian_identity_check, modes_from_fields)
from dissipon.langevin import (PotentialSpec, evolve_mean_markov,  # noqa: E402
                               evolve_mean_volterra)
from dissipon.oscillator import FockTriple, OscillatorParams  # noqa: E402
from dissipon.quadrature import QuadratureConfig  # noqa: E402
from dissipon.rates import RateRequest, rate_emission_vacuum, rates_thermal  # noqa: E402
from dissipon.reservoir import CouplingFunction, MemoryKernel, ReservoirState  # noqa: E402
from dissipon.tls import TwoLevelParams, decay_rate_mu, level_shifts  # noqa: E402
from test_langevin import direct_volterra, stepwise_markov  # noqa: E402

occupations = st.tuples(*[st.integers(0, 5)] * 3)


def canonical_request(beta, omega, m, n, reservoir):
    c = CouplingFunction.canonical(beta, uv_cutoff=100.0 * omega)
    return RateRequest(OscillatorParams(m, omega, beta), FockTriple(*n), reservoir, c)


def canonical_tls(beta, omega0, x, lam):
    c = CouplingFunction.canonical(beta, uv_cutoff=lam)
    return TwoLevelParams(omega0, (x, 0.0, 0.0), c)


class TestRateProperties:
    @settings(deadline=None, max_examples=150)
    @given(m=st.floats(0.1, 10.0), omega=st.floats(0.01, 10.0),
           beta=st.floats(1e-4, 1.0), x=st.floats(1e-6, 1500.0), n=occupations)
    @example(m=1.0, omega=1.0, beta=0.1, x=700.5, n=(1, 0, 0))
    def test_thermal_rates_canonical(self, m, omega, beta, x, n):
        kt = omega / x
        x = omega / kt  # the ratio the rate sees
        r = canonical_request(beta, omega, m, n, ReservoirState.thermal(kt))
        pair = rates_thermal(r)
        total = sum(n)
        assert pair.emission == pytest.approx(
            total * beta / m / -math.expm1(-x), rel=1e-12)  # e^x / (e^x - 1)
        if x > 700.0:
            assert pair.absorption == 0.0
        else:
            assert pair.absorption == pytest.approx(
                (total + 3) * beta / m / math.expm1(x), rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(m=st.floats(0.1, 10.0), omega=st.floats(0.01, 10.0),
           beta=st.floats(1e-4, 1.0), n=occupations)
    def test_vacuum_rate_canonical(self, m, omega, beta, n):
        r = canonical_request(beta, omega, m, n, ReservoirState.vacuum())
        assert rate_emission_vacuum(r) == pytest.approx(sum(n) * beta / m, rel=1e-12)


class TestCanonicalProperties:
    @settings(deadline=None, max_examples=100)
    @given(beta=st.floats(1e-3, 1.0), omega0=st.floats(0.1, 5.0),
           x=st.floats(0.1, 2.0))
    def test_decay_rate_mu(self, beta, omega0, x):
        p = canonical_tls(beta, omega0, x, lam=100.0)
        assert decay_rate_mu(p) == pytest.approx(beta * omega0 * x * x, rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(beta=st.floats(1e-3, 1.0), omega0=st.floats(0.1, 5.0),
           x=st.floats(0.1, 2.0), eps_ratio=st.floats(1e-4, 1e-2),
           lam=st.floats(10.0, 1e4))
    def test_level_shifts_closed_forms(self, beta, omega0, x, eps_ratio, lam):
        eps = eps_ratio * omega0
        p = canonical_tls(beta, omega0, x, lam)
        shifts = level_shifts(p, QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        scale = beta * omega0**5 * x * x
        d1 = scale * (np.log((lam - omega0) / lam) - np.log((omega0 - eps) / eps))
        d2 = scale * np.log(lam * (eps + omega0) / (eps * (lam + omega0)))
        assert shifts.delta1 == pytest.approx(d1, rel=1e-8)
        assert shifts.delta2 == pytest.approx(d2, rel=1e-10)


solver_steps = st.one_of(st.sampled_from([63, 64, 65, 1024, 1025]), st.integers(2, 1100))
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


class TestLinearSolverProperties:
    @settings(deadline=None, max_examples=60)
    @given(m=st.floats(0.1, 3.0), omega=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
           beta=st.floats(1e-3, 1.0), lam=st.floats(1.0, 20.0), h=st.floats(1e-3, 0.05),
           x0=unit_vectors, v0=unit_vectors, n=solver_steps)
    @example(m=1.0, omega=1.0, beta=0.2, lam=20.0, h=0.05, x0=(1.0, 0.0, 0.0),
             v0=(0.0, 0.0, 0.0), n=1025)
    def test_block_solvers_match_stepwise(self, m, omega, beta, lam, h, x0, v0, n):
        grid = np.arange(n) * h
        pot = PotentialSpec.harmonic(m, omega)
        kern = MemoryKernel.sample(CouplingFunction.canonical(beta, uv_cutoff=lam), grid)
        cases = [
            (lambda: evolve_mean_markov(m, pot, beta, x0, v0, grid),
             lambda: stepwise_markov(m, pot, beta, x0, v0, grid)),
            (lambda: evolve_mean_volterra(m, pot, kern, x0, v0, grid),
             lambda: direct_volterra(m, pot, kern, x0, v0, grid)),
        ]
        for solve, reference in cases:
            try:
                x, v = reference()
            except StabilityError:
                with pytest.raises(StabilityError):
                    solve()
                continue
            traj = solve()
            scale = max(1.0, np.abs(x).max(), np.abs(v).max())
            assert np.max(np.abs(traj.positions - x)) <= 1e-12 * scale
            assert np.max(np.abs(traj.velocities - v)) <= 1e-12 * scale


# (n, dx, cutoff as a fraction of the Nyquist bound pi/dx, or None: every
# nonzero mode, Nyquist planes included); a cutoff reaches the first shell,
# dk = (2/n) pi/dx up to rounding, so at n = 2 every mode is on a Nyquist plane
field_grids = st.sampled_from([2, 4, 8, 16]).flatmap(lambda n: st.tuples(
    st.just(n), st.floats(0.05, 5.0),
    st.none() if n == 2 else st.one_of(st.none(), st.floats(2.0 / n + 1e-9, 0.999))))


def masked_amplitudes(grid_spec, seed):
    n, dx, frac = grid_spec
    grid = FieldGrid(n=n, dx=dx, uv_cutoff=None if frac is None else frac * np.pi / dx)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n,) * 3) + 1j * rng.normal(size=(n,) * 3)
    a[~grid.mode_mask()] = 0.0
    return grid, a


class TestFieldMapProperties:
    @settings(deadline=None, max_examples=80)
    @given(grid_spec=field_grids, seed=st.integers(0, 2**32 - 1))
    def test_parseval_residual(self, grid_spec, seed):
        grid, a = masked_amplitudes(grid_spec, seed)
        scale = float(np.sum(grid.omega() * np.abs(a) ** 2))
        assert hamiltonian_identity_check(a, grid) <= 1e-12 * scale

    @settings(deadline=None, max_examples=80)
    @given(grid_spec=field_grids, seed=st.integers(0, 2**32 - 1))
    def test_modes_from_fields_inverts_field_from_modes(self, grid_spec, seed):
        grid, a = masked_amplitudes(grid_spec, seed)
        back = modes_from_fields(*field_from_modes(a, grid), grid)
        assert np.max(np.abs(back - a)) <= 1e-12 * max(1.0, np.abs(a).max())
