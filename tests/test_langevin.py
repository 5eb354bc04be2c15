import numpy as np
import pytest

from dissipon.errors import DomainError, StabilityError
from dissipon.field import FieldGrid, lattice_memory_kernel
from dissipon.langevin import (_DIRECT_LAGS, PotentialSpec, Trajectory,
                               evolve_mean_markov, evolve_mean_volterra)
from dissipon.oscillator import OscillatorParams, mean_trajectory
from dissipon.reservoir import CouplingFunction, MemoryKernel


def uniform_grid(t_max, h):
    return np.arange(0.0, t_max + h / 2.0, h)


def direct_volterra(m, pot, kernel, x0, v0, grid):
    """The memory equation with the full O(n^2) trapezoid sum at every step."""
    h = grid[1] - grid[0]
    n = len(grid)
    gam = kernel.at(np.arange(n) * h)
    x = np.empty((n, 3))
    v = np.empty((n, 3))
    x[0], v[0] = x0, v0
    conv0 = 0.5 * h * gam[0]
    damp = 1.0 + 0.5 * h * conv0 / m
    a = -pot.gradient(x[0]) / m
    for i in range(1, n):
        vh = v[i - 1] + 0.5 * h * a
        x[i] = x[i - 1] + h * vh
        tail = h * (gam[i:0:-1] @ v[:i]) - 0.5 * h * gam[i] * v[0]
        force = -pot.gradient(x[i]) - tail
        v[i] = (vh + 0.5 * h * force / m) / damp
        a = (force - conv0 * v[i]) / m
    return x, v


class TestMarkov:
    def test_undamped_oscillator(self):
        grid = uniform_grid(10.0, 1e-3)
        pot = PotentialSpec.harmonic(1.0, 1.0)
        traj = evolve_mean_markov(1.0, pot, 0.0, [1, 0, 0], [0, 0, 0], grid)
        assert np.max(np.abs(traj.positions[:, 0] - np.cos(grid))) < 1e-6

    def test_free_particle_velocity_decay(self):
        # the Lambda -> inf surrogate of the canonical kernel: a local beta v term
        grid = uniform_grid(10.0, 1e-3)
        traj = evolve_mean_markov(1.0, PotentialSpec.free(), 0.5,
                                  [0, 0, 0], [1, 0, 0], grid)
        assert np.max(np.abs(traj.velocities[:, 0] - np.exp(-0.5 * grid))) < 1e-6

    def test_overdamped_free_limit(self):
        grid = uniform_grid(60.0, 1e-3)
        traj = evolve_mean_markov(1.0, PotentialSpec.free(), 2.0,
                                  [0, 0, 0], [1, 0, 0], grid)
        assert traj.positions[-1, 0] == pytest.approx(0.5, abs=1e-5)

    def test_energy_drift_conservative(self):
        h = 1e-4
        grid = uniform_grid(h * 10_000, h)
        pot = PotentialSpec.harmonic(1.0, 1.0)
        traj = evolve_mean_markov(1.0, pot, 0.0, [1, 0, 0], [0, 0, 0], grid)
        energy = traj.mechanical_energy(1.0, 1.0)
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-8

    def test_zero_crossing_spacing(self):
        m, omega, beta = 1.0, 1.0, 0.2
        w1 = OscillatorParams(m, omega, beta).omega1
        grid = uniform_grid(20.0, 1e-4)
        pot = PotentialSpec.harmonic(m, omega)
        traj = evolve_mean_markov(m, pot, beta, [1, 0, 0], [0, 0, 0], grid)
        x = traj.positions[:, 0]
        sign_flips = np.nonzero(np.diff(np.sign(x)))[0]
        crossings = []
        for i in sign_flips:
            # linear interpolation of the crossing instant
            crossings.append(grid[i] - x[i] * (grid[i + 1] - grid[i]) / (x[i + 1] - x[i]))
        spacing = np.diff(crossings)
        assert np.max(np.abs(spacing - np.pi / w1)) < 1e-4

    def test_closed_form_oracle_second_order(self):
        m, omega, beta = 1.0, 1.0, 0.3
        p = OscillatorParams(m, omega, beta)
        pot = PotentialSpec.harmonic(m, omega)
        errs = []
        hs = [4e-3, 2e-3, 1e-3]
        for h in hs:
            grid = uniform_grid(10.0, h)
            traj = evolve_mean_markov(m, pot, beta, [1, 0, 0], [0.5, 0, 0], grid)
            closed = mean_trajectory(p, [1.0, 0, 0], [0.5, 0, 0], grid)
            errs.append(np.max(np.abs(traj.positions - closed)))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order == pytest.approx(2.0, abs=0.1)

    def test_dissipativity_envelope(self):
        m, omega, beta = 1.0, 1.0, 0.4
        grid = uniform_grid(30.0, 1e-3)
        pot = PotentialSpec.harmonic(m, omega)
        traj = evolve_mean_markov(m, pot, beta, [1, 0, 0], [0, 0, 0], grid)
        energy = traj.mechanical_energy(m, omega)
        period = int(round(2 * np.pi / OscillatorParams(m, omega, beta).omega1 / 1e-3))
        samples = energy[::period]
        assert np.all(np.diff(samples) <= 1e-12)

    def test_invalid_inputs(self):
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(DomainError):
            evolve_mean_markov(0.0, pot, 0.1, [0, 0, 0], [0, 0, 0], uniform_grid(1, 0.1))
        with pytest.raises(DomainError):
            evolve_mean_markov(1.0, pot, -0.1, [0, 0, 0], [0, 0, 0], uniform_grid(1, 0.1))
        with pytest.raises(DomainError):
            evolve_mean_markov(1.0, pot, 0.1, [0, 0, 0], [0, 0, 0], [0.0, 0.1, 0.3])

    def test_unstable_step_raises(self):
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(StabilityError):
            evolve_mean_markov(1.0, pot, 0.0, [1, 0, 0], [0, 0, 0],
                               uniform_grid(2000.0, 2.5))


class TestVolterra:
    def test_zero_kernel_is_conservative(self):
        grid = uniform_grid(10.0, 1e-3)
        kern = MemoryKernel(grid, np.zeros_like(grid))
        pot = PotentialSpec.harmonic(1.0, 1.0)
        traj = evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], grid)
        assert np.max(np.abs(traj.positions[:, 0] - np.cos(grid))) < 1e-6

    def test_matches_markov_closed_form_at_large_cutoff(self):
        # cross-module oracle: the damped-oscillator closed form
        m, omega, beta, lam = 1.0, 1.0, 0.2, 400.0
        c = CouplingFunction.canonical(beta, uv_cutoff=lam)
        h = 5e-4
        grid = uniform_grid(10.0, h)
        kern = MemoryKernel.sample(c, grid)
        pot = PotentialSpec.harmonic(m, omega)
        traj = evolve_mean_volterra(m, pot, kern, [1, 0, 0], [0, 0, 0], grid)
        closed = mean_trajectory(OscillatorParams(m, omega, beta),
                                 [1.0, 0, 0], [0.0, 0, 0], grid)
        assert np.max(np.abs(traj.positions[:, 0] - closed[:, 0])) < 1e-3

    def test_kernel_limit_equivalence(self):
        # sup-norm distance to the local-friction solution decreases with Lambda
        m, omega, beta = 1.0, 1.0, 0.2
        h = 5e-4
        grid = uniform_grid(10.0, h)
        pot = PotentialSpec.harmonic(m, omega)
        markov = evolve_mean_markov(m, pot, beta, [1, 0, 0], [0, 0, 0], grid)
        sups = []
        for lam in (50.0, 100.0, 200.0):
            c = CouplingFunction.canonical(beta, uv_cutoff=lam)
            kern = MemoryKernel.sample(c, grid)
            traj = evolve_mean_volterra(m, pot, kern, [1, 0, 0], [0, 0, 0], grid)
            sups.append(np.max(np.abs(traj.positions - markov.positions)))
        assert sups[0] > sups[1] > sups[2]

    def test_second_order_convergence(self):
        m, omega, beta, lam = 1.0, 1.0, 0.2, 20.0
        c = CouplingFunction.canonical(beta, uv_cutoff=lam)
        pot = PotentialSpec.harmonic(m, omega)

        def solve(h):
            grid = uniform_grid(5.0, h)
            kern = MemoryKernel.sample(c, grid)
            return evolve_mean_volterra(m, pot, kern, [1, 0, 0], [0, 0, 0], grid)

        ref = solve(2.5e-4)
        errs, hs = [], [4e-3, 2e-3, 1e-3]
        for h in hs:
            traj = solve(h)
            stride = int(round(h / 2.5e-4))
            errs.append(np.max(np.abs(traj.positions[:, 0]
                                      - ref.positions[::stride, 0])))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order == pytest.approx(2.0, abs=0.15)

    @pytest.mark.parametrize("steps", [_DIRECT_LAGS - 1, _DIRECT_LAGS, _DIRECT_LAGS + 1,
                                       2 * _DIRECT_LAGS + 1, 3000])
    @pytest.mark.parametrize("lattice", [False, True], ids=["canonical", "lattice"])
    def test_blocked_history_matches_direct_sum(self, steps, lattice):
        h = 0.02 if lattice else 2e-3
        grid = np.arange(steps) * h
        if lattice:
            coupling = CouplingFunction.canonical(0.1, uv_cutoff=2.8)
            kern = lattice_memory_kernel(coupling, FieldGrid(n=8, dx=1.0, uv_cutoff=2.8),
                                         grid)
        else:
            kern = MemoryKernel.sample(CouplingFunction.canonical(0.2, uv_cutoff=50.0), grid)
        pot = PotentialSpec.harmonic(1.0, 0.9)
        x0, v0 = [0.6, 0.0, 0.8], [0.0, 0.3, 0.0]
        traj = evolve_mean_volterra(1.0, pot, kern, x0, v0, grid)
        x, v = direct_volterra(1.0, pot, kern, x0, v0, grid)
        assert np.max(np.abs(traj.positions - x)) <= 1e-12
        assert np.max(np.abs(traj.velocities - v)) <= 1e-12

    def test_kernel_must_cover_grid(self):
        grid = uniform_grid(10.0, 1e-2)
        kern = MemoryKernel(uniform_grid(5.0, 1e-2), np.zeros(501))
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(DomainError, match="cover"):
            evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], grid)

    def test_kernel_must_be_fine_enough(self):
        grid = uniform_grid(1.0, 1e-3)
        kern = MemoryKernel(uniform_grid(2.0, 1e-2), np.zeros(201))
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(DomainError, match="finely"):
            evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], grid)


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(DomainError):
            Trajectory([0.0, 1.0], np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(DomainError):
            Trajectory([0.0, 0.0], np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DomainError):
            Trajectory([0.0, 1.0], np.full((2, 3), np.nan), np.zeros((2, 3)))

    def test_csv_round_trip(self, tmp_path):
        from dissipon.io import read_table
        grid = uniform_grid(1.0, 0.25)
        pot = PotentialSpec.harmonic(1.0, 1.0)
        traj = evolve_mean_markov(1.0, pot, 0.1, [1, 0, 0], [0, 0, 0], grid)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        _, columns, rows = read_table(path)
        assert columns == ["t", "x1", "x2", "x3", "v1", "v2", "v3"]
        assert len(rows) == len(grid)
        assert rows[2][1] == traj.positions[2, 0]  # repr round trip is bit exact
