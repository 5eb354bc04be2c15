import warnings

import numpy as np
import pytest

from dissipon.errors import DomainError, StabilityError
from dissipon.field import FieldGrid, lattice_memory_kernel
from dissipon.langevin import (_DIRECT_LAGS, PotentialSpec, Trajectory, _block_response,
                               _check_grid, _energy_guard, evolve_mean_markov,
                               evolve_mean_volterra)
from dissipon.oscillator import OscillatorParams, mean_trajectory
from dissipon.reservoir import CouplingFunction, MemoryKernel


def uniform_grid(t_max, h):
    return np.arange(0.0, t_max + h / 2.0, h)


def _guard_row(pot, m, x, v, i, e0, label):
    """The energy guard on the single row i, as a per-step loop applies it."""
    if (i - 1) % 256 == 0:
        _energy_guard(pot, m, x[i:i + 1], v[i:i + 1], i, e0, label)


def stepwise_markov(m, pot, beta, x0, v0, grid):
    """The Markov solver's step, one Python iteration per time step."""
    h = grid[1] - grid[0]
    n = len(grid)
    x = np.empty((n, 3))
    v = np.empty((n, 3))
    x[0], v[0] = x0, v0
    e0 = 0.5 * m * v[0] @ v[0] + 0.5 * pot.stiffness * (x[0] @ x[0])
    damp = 1.0 + h * beta / (2.0 * m)
    f = -pot.gradient(x[0]) - beta * v[0]
    for i in range(1, n):
        vh = v[i - 1] + 0.5 * h * f / m
        x[i] = x[i - 1] + h * vh
        grad = pot.gradient(x[i])
        v[i] = (vh - 0.5 * h * grad / m) / damp
        f = -grad - beta * v[i]
        _guard_row(pot, m, x, v, i, e0, "markov step")
    return x, v


def direct_volterra(m, pot, kernel, x0, v0, grid):
    """The memory equation with the full O(n^2) trapezoid sum at every step."""
    h = grid[1] - grid[0]
    n = len(grid)
    gam = kernel.values[:n]
    x = np.empty((n, 3))
    v = np.empty((n, 3))
    x[0], v[0] = x0, v0
    e0 = 0.5 * m * v[0] @ v[0] + 0.5 * pot.stiffness * (x[0] @ x[0])
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
        _guard_row(pot, m, x, v, i, e0, "volterra step")
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
        perturbed = uniform_grid(1, 0.1)
        perturbed[5:] += 1e-6 * 0.1  # one step 1e-6 relative too long
        with pytest.raises(DomainError, match="uniform"):
            evolve_mean_markov(1.0, pot, 0.1, [0, 0, 0], [0, 0, 0], perturbed)

    def test_grid_rounding_of_long_linspace_accepted(self):
        # step spread ~1e-10 relative from float spacing of t = 100, not non-uniformity
        grid = np.linspace(0.0, 100.0, 10**6 + 1)
        _, h = _check_grid(grid)
        assert h == pytest.approx(1e-4, rel=1e-9)

    def test_unstable_step_raises(self):
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(StabilityError):
            evolve_mean_markov(1.0, pot, 0.0, [1, 0, 0], [0, 0, 0],
                               uniform_grid(2000.0, 2.5))

    @pytest.mark.parametrize("steps", [2, 1025, 5000])
    @pytest.mark.parametrize("omega", [0.0, 1.3])
    def test_block_powers_match_stepwise(self, steps, omega):
        m, beta = 0.7, 0.3
        grid = np.arange(steps) * 5e-3
        pot = PotentialSpec.harmonic(m, omega)
        x0, v0 = [0.6, -0.2, 0.8], [0.1, 0.3, -0.5]
        traj = evolve_mean_markov(m, pot, beta, x0, v0, grid)
        x, v = stepwise_markov(m, pot, beta, x0, v0, grid)
        assert np.max(np.abs(traj.positions - x)) <= 1e-12
        assert np.max(np.abs(traj.velocities - v)) <= 1e-12


@pytest.mark.parametrize("first", [0, 1, 200, 257])
def test_energy_guard_reads_rows_one_mod_256(first):
    # a block holds rows first, first + 1, ...; only rows 1, 257, 513, ... count
    pot = PotentialSpec.harmonic(1.0, 1.0)
    x = np.zeros((600, 3))
    v = np.zeros((600, 3))
    guarded = [i - first for i in (1, 257, 513) if 0 <= i - first < 600]
    x[[i + 1 for i in guarded]] = 10.0  # the row after each guarded one
    _energy_guard(pot, 1.0, x, v, first, 1.0, "block")
    x[guarded[-1]] = 10.0
    with pytest.raises(StabilityError, match="block: mechanical energy grew by more than 5%"):
        _energy_guard(pot, 1.0, x, v, first, 1.0, "block")
    _energy_guard(PotentialSpec.free(), 1.0, x, v, first, 1.0, "block")  # no guard at k = 0


@pytest.mark.parametrize("solver", ["markov", "volterra"])
@pytest.mark.parametrize("h, omega", [(2.5, 1.0), (1.0, 50.0)])
def test_unstable_step_raises_before_any_overflow(solver, h, omega):
    # the precomputed powers and block responses must stay finite until the
    # energy guard has seen the growth, so no overflow warning comes first
    grid = uniform_grid(800.0 * h, h)
    pot = PotentialSpec.harmonic(1.0, omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StabilityError, match="5%"):
            if solver == "markov":
                evolve_mean_markov(1.0, pot, 0.0, [1, 0, 0], [0, 0, 0], grid)
            else:
                kern = MemoryKernel(grid, np.zeros_like(grid))
                evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], grid)


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

    @pytest.mark.parametrize("kernel, steps", [
        *((kernel, steps) for kernel in ("canonical", "lattice")
          for steps in (_DIRECT_LAGS - 1, _DIRECT_LAGS, _DIRECT_LAGS + 1,
                        2 * _DIRECT_LAGS + 1, 4 * _DIRECT_LAGS, 4 * _DIRECT_LAGS + 1,
                        8 * _DIRECT_LAGS + _DIRECT_LAGS // 2, 1025, 3000, 4097)),
        # a growing free particle, whose block response halves to 32 and 16 rows
        ("block32", 100), ("block16", 100)])
    def test_blocked_history_matches_direct_sum(self, kernel, steps):
        h = {"canonical": 2e-3, "lattice": 0.02}.get(kernel, 0.5)
        grid = np.arange(steps) * h
        pot = PotentialSpec.harmonic(1.0, 0.9)
        if kernel == "lattice":
            coupling = CouplingFunction.canonical(0.1, uv_cutoff=2.8)
            kern = lattice_memory_kernel(coupling, FieldGrid(n=8, dx=1.0, uv_cutoff=2.8),
                                         grid)
        elif kernel == "canonical":
            kern = MemoryKernel.sample(CouplingFunction.canonical(0.2, uv_cutoff=50.0), grid)
        else:
            size = int(kernel[5:])
            kern = MemoryKernel(grid, np.full(steps, -50.0 if size == 32 else -20.0))
            pot = PotentialSpec.free()
            assert _block_response(1.0, 0.0, h, kern.values)[1].shape[1] == size
        x0, v0 = [0.6, 0.0, 0.8], [0.0, 0.3, 0.0]
        traj = evolve_mean_volterra(1.0, pot, kern, x0, v0, grid)
        x, v = direct_volterra(1.0, pot, kern, x0, v0, grid)
        grows = kernel.startswith("block")
        assert np.all(np.abs(traj.positions - x)
                      <= 1e-12 * (np.maximum(1.0, np.abs(x)) if grows else 1.0))
        assert np.all(np.abs(traj.velocities - v)
                      <= 1e-12 * (np.maximum(1.0, np.abs(v)) if grows else 1.0))

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
        with pytest.raises(DomainError, match="step"):
            evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], grid)

    def test_finer_kernel_rejected(self):
        # its lags are not the grid's offsets, and the solver does not resample
        grid = uniform_grid(1.0, 1e-2)
        kern = MemoryKernel(uniform_grid(2.0, 1e-3), np.ones(2001))
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(DomainError, match="step"):
            evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], grid)

    # lags 0, 0.1, 0.3, ... and a kernel sampled from t = 1, which the solver
    # used to read as lags 0, 0.1, ... (the second clamped to gamma(1))
    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.3, 0.4, 0.5, 0.6],
                                       [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]],
                             ids=["non-uniform", "from t = 1"])
    def test_kernel_must_be_a_lag_grid(self, times):
        kern = MemoryKernel(times, np.ones(6))
        pot = PotentialSpec.harmonic(1.0, 1.0)
        with pytest.raises(DomainError, match="kernel"):
            evolve_mean_volterra(1.0, pot, kern, [1, 0, 0], [0, 0, 0], uniform_grid(0.5, 0.1))


class TestPotentialSpec:
    def test_linear_potentials(self):
        assert PotentialSpec.harmonic(2.0, 3.0).stiffness == 18.0
        assert PotentialSpec.harmonic(2.0, 0.0).stiffness == 0.0
        assert PotentialSpec.free().stiffness == 0.0
        np.testing.assert_array_equal(PotentialSpec.harmonic(2.0, 3.0).gradient([1, 0, -2]),
                                      [18.0, 0.0, -36.0])

    @pytest.mark.parametrize("make", [lambda: PotentialSpec(-1.0),
                                      lambda: PotentialSpec(float("nan")),
                                      lambda: PotentialSpec.harmonic(0.0, 1.0),
                                      lambda: PotentialSpec.harmonic(1.0, -1.0)])
    def test_invalid(self, make):
        with pytest.raises(DomainError):
            make()


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(DomainError):
            Trajectory([0.0, 1.0], np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(DomainError):
            Trajectory([0.0, 0.0], np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DomainError):
            Trajectory([0.0, 1.0], np.full((2, 3), np.nan), np.zeros((2, 3)))
        with pytest.raises(DomainError, match="uniform"):
            Trajectory([0.0, 0.1, 0.15, 0.9, 2.5], np.zeros((5, 3)), np.zeros((5, 3)))

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
