import numpy as np
import pytest
from scipy.special import spherical_jn

from dissipon.errors import DomainError, StabilityError
from dissipon.field import (FieldGrid, _field_energy, _gradient_weights,
                            _lattice_source_shapes, evolve_field_with_source,
                            field_from_modes, hamiltonian_identity_check,
                            lattice_memory_kernel, modes_from_fields,
                            read_snapshot, source_shapes, write_snapshot)
from dissipon.langevin import PotentialSpec, Trajectory, evolve_mean_volterra
from dissipon.oscillator import OscillatorParams, mean_trajectory
from dissipon.reservoir import CouplingFunction


def random_amplitudes(grid, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(grid.n,) * 3) + 1j * rng.normal(size=(grid.n,) * 3)
    a[~grid.mode_mask()] = 0.0
    return a


def still_trajectory(times):
    n = len(times)
    return Trajectory(times, np.zeros((n, 3)), np.zeros((n, 3)))


class TestGrid:
    def test_invariants(self):
        with pytest.raises(DomainError):
            FieldGrid(n=12, dx=0.5)  # not a power of two
        with pytest.raises(DomainError):
            FieldGrid(n=16, dx=0.5, uv_cutoff=7.0)  # dx * cutoff >= pi

    def test_box_relations(self):
        g = FieldGrid(n=16, dx=0.5)
        assert g.box_length == 8.0
        assert g.dk == pytest.approx(2.0 * np.pi / 8.0)


class TestModeFieldMaps:
    def test_zero_modes(self):
        g = FieldGrid(n=8, dx=0.5)
        y, pi = field_from_modes(np.zeros((8, 8, 8), dtype=complex), g)
        assert not y.any() and not pi.any()

    def test_single_mode_is_cosine(self):
        g = FieldGrid(n=16, dx=0.5)
        a = np.zeros((16,) * 3, dtype=complex)
        a[2, 0, 0] = 1.0
        y, _ = field_from_modes(a, g)
        k0 = 2.0 * np.pi * np.fft.fftfreq(16, 0.5)[2]
        x = 0.5 * np.arange(16)
        expect = 2.0 / np.sqrt(2.0 * g.volume * k0) * np.cos(k0 * x)
        assert np.max(np.abs(y[:, 0, 0] - expect)) < 1e-14
        assert np.max(np.abs(y - y[:, :1, :1])) < 1e-14  # constant along y, z

    def test_round_trip(self):
        g = FieldGrid(n=16, dx=0.5)
        a = random_amplitudes(g)
        y, pi = field_from_modes(a, g)
        back = modes_from_fields(y, pi, g)
        assert np.max(np.abs(back - a)) < 1e-12

    def test_zero_mode_rejected(self):
        g = FieldGrid(n=8, dx=0.5)
        a = np.zeros((8,) * 3, dtype=complex)
        a[0, 0, 0] = 1.0
        with pytest.raises(DomainError):
            field_from_modes(a, g)


class TestHamiltonianIdentity:
    def test_zero(self):
        g = FieldGrid(n=8, dx=0.5)
        assert hamiltonian_identity_check(np.zeros((8,) * 3, dtype=complex), g) == 0.0

    def test_single_mode_exact(self):
        g = FieldGrid(n=16, dx=0.5)
        a = np.zeros((16,) * 3, dtype=complex)
        a[0, 3, 0] = 0.7 - 0.2j
        w = g.omega()[0, 3, 0]
        residual = hamiltonian_identity_check(a, g)
        assert residual < 1e-14 * w * abs(a[0, 3, 0]) ** 2

    def test_random_data_parseval(self):
        g = FieldGrid(n=16, dx=0.5)
        a = random_amplitudes(g)
        scale = float(np.sum(g.omega() * np.abs(a) ** 2))
        assert hamiltonian_identity_check(a, g) < 1e-10 * scale


    @pytest.mark.parametrize("dx", [0.5, 1.3])
    def test_parseval_energy_matches_real_space_gradient(self, dx):
        g = FieldGrid(n=16, dx=dx)
        rng = np.random.default_rng(17)
        y = rng.normal(size=(16,) * 3)
        pi = rng.normal(size=(16,) * 3)
        # spectral gradient in real space: one forward and three inverse FFTs
        y_k = np.fft.fftn(y)
        grad_sq = sum(np.abs(np.fft.ifftn(1j * kc * y_k)) ** 2 for kc in g.k_vectors())
        expected = float(np.sum(0.5 * (pi**2 + grad_sq)) * dx**3)
        got = _field_energy(y, pi, g, _gradient_weights(g))
        assert abs(got - expected) <= 1e-12 * expected


class TestSourceShapes:
    def test_vanish_at_origin(self):
        g = FieldGrid(n=16, dx=0.6)
        c = CouplingFunction.canonical(0.1, uv_cutoff=5.0)
        sh = source_shapes(c, g)
        assert np.abs(sh.m_field[0, 0, 0]).max() == 0.0
        assert np.abs(sh.n_field[0, 0, 0]).max() == 0.0

    def test_velocity_shape_vanishes_for_real_coupling(self):
        # Re of the angular-reduced integral is identically zero when f is real
        g = FieldGrid(n=16, dx=0.6)
        c = CouplingFunction.canonical(0.1, uv_cutoff=5.0)
        sh = source_shapes(c, g)
        assert np.abs(sh.m_field).max() < 1e-14 * np.abs(sh.n_field).max()

    def test_shapes_point_radially(self):
        g = FieldGrid(n=16, dx=0.6)
        c = CouplingFunction.canonical(0.1, uv_cutoff=5.0)
        sh = source_shapes(c, g)
        _, (gx, gy, gz) = g.radii()
        pos = np.stack([gx, gy, gz], axis=-1)
        cross = np.cross(sh.n_field.reshape(-1, 3), pos.reshape(-1, 3))
        scale = np.abs(sh.n_field).max() * np.abs(pos).max()
        assert np.abs(cross).max() < 1e-12 * scale

    def test_thin_shell_profile_is_spherical_bessel(self):
        g = FieldGrid(n=16, dx=0.6)
        w0, width = 2.0, 0.02
        k = np.linspace(w0 - 5 * width, w0 + 5 * width, 1001)
        f = np.exp(-(((k - w0) / width) ** 2) / 2.0)
        shell = CouplingFunction.tabulated(k, f, uv_cutoff=w0 + 5 * width)
        sh = source_shapes(shell, g)
        r = sh.radial_r[1:]
        profile = sh.radial_n[1:]
        reference = spherical_jn(1, w0 * r)
        corr = np.corrcoef(profile, reference)[0, 1]
        assert abs(corr) > 0.9999

    def test_band_limited_shape_decays(self):
        # a smooth mid-band weight produces a spatially localised shape
        lam = 5.0
        k = np.linspace(1e-3, lam, 6000)
        f = np.exp(-(((k - 2.5) / 0.6) ** 2)) / k**2
        c = CouplingFunction.tabulated(k, f, uv_cutoff=lam)
        g = FieldGrid(n=32, dx=0.6, uv_cutoff=lam)
        sh = source_shapes(c, g)
        prof = np.abs(sh.radial_n)
        peak = prof.max()
        assert prof[sh.radial_r > 8.0].max() < 1e-3 * peak
        assert prof[sh.radial_r > 12.0].max() < 1e-6 * peak

    def test_missing_cutoff_rejected(self):
        g = FieldGrid(n=8, dx=0.6)
        with pytest.raises(DomainError, match="cutoff"):
            source_shapes(CouplingFunction.canonical(0.1), g)

    def test_lattice_shapes_converge_to_continuum(self):
        # the continuum shapes are the oracle of the mode sums the leapfrog
        # uses; a band-limited table, since the canonical coupling's do not
        # converge
        k = np.linspace(1e-3, 2.0, 2000)
        c = CouplingFunction.tabulated(k, np.exp(-((k - 1.0) / 0.3) ** 2) / k**2,
                                       uv_cutoff=2.0)
        errs = []
        for n in (16, 32, 64):
            g = FieldGrid(n=n, dx=1.0, uv_cutoff=2.0)
            continuum = source_shapes(c, g)
            m_field, n_field = _lattice_source_shapes(c, g)
            scale = np.abs(continuum.n_field).max()
            errs.append(np.abs(n_field - continuum.n_field).max() / scale)
            assert np.abs(m_field).max() < 1e-14 * scale
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 3e-4


class TestEvolution:
    def test_kspace_free_mode_is_exact(self):
        g = FieldGrid(n=16, dx=0.5)
        a0 = np.zeros((16,) * 3, dtype=complex)
        a0[1, 0, 0] = 1.0
        k0 = 2.0 * np.pi * np.fft.fftfreq(16, 0.5)[1]
        period = 2.0 * np.pi / k0
        dt = period / 40.0
        nt = int(100 * period / dt) + 1
        times = np.arange(nt) * dt
        czero = CouplingFunction.zero()
        hist = evolve_field_with_source(still_trajectory(times), czero, g,
                                        method="kspace", initial_amplitudes=a0)
        assert abs(abs(hist.final_amplitudes[1, 0, 0]) - 1.0) < 1e-6
        drift = np.max(np.abs(hist.energy - hist.energy[0])) / hist.energy[0]
        assert drift < 1e-8  # free-field conservation over 1e4 steps

    def test_free_energy_conservation_many_steps(self):
        g = FieldGrid(n=8, dx=0.5)
        a0 = random_amplitudes(g, seed=3)
        times = np.arange(10_001) * 1e-3
        hist = evolve_field_with_source(still_trajectory(times),
                                        CouplingFunction.zero(), g,
                                        method="kspace", initial_amplitudes=a0)
        assert np.max(np.abs(hist.energy - hist.energy[0])) / hist.energy[0] < 1e-8

    def test_leapfrog_conserves_with_small_step(self):
        # the pointwise trace oscillates at the stencil-dispersion level, but
        # a symplectic scheme has no secular drift: compare window means
        g = FieldGrid(n=8, dx=1.0)
        a0 = np.zeros((8,) * 3, dtype=complex)
        a0[1, 0, 0] = 1.0
        times = np.arange(20_001) * 1e-3
        hist = evolve_field_with_source(still_trajectory(times),
                                        CouplingFunction.zero(), g,
                                        method="leapfrog", initial_amplitudes=a0)
        n_win = len(times) // 5
        head = hist.energy[:n_win].mean()
        tail = hist.energy[-n_win:].mean()
        assert abs(tail - head) / head < 1e-5

    def test_cfl_violation_rejected(self):
        g = FieldGrid(n=8, dx=0.5)
        times = np.arange(11) * 0.5
        with pytest.raises(StabilityError, match="CFL"):
            evolve_field_with_source(still_trajectory(times),
                                     CouplingFunction.zero(), g, method="leapfrog")

    def test_leapfrog_order_against_analytic_mode(self):
        errs, steps = [], []
        for n, dx in [(8, 1.0), (16, 0.5), (32, 0.25)]:
            g = FieldGrid(n=n, dx=dx)
            k0 = 2.0 * np.pi / g.box_length
            a0 = np.zeros((n,) * 3, dtype=complex)
            a0[1, 0, 0] = 1.0
            dt = 0.2 * dx
            times = np.arange(0.0, 4.0 + dt / 2.0, dt)
            hist = evolve_field_with_source(still_trajectory(times),
                                            CouplingFunction.zero(), g,
                                            method="leapfrog",
                                            initial_amplitudes=a0,
                                            energy_every=10**9)
            x = dx * np.arange(n)
            amp = 1.0 / np.sqrt(2.0 * g.volume * k0)
            y_exact = 2.0 * amp * np.real(np.exp(-1j * k0 * times[-1])
                                          * np.exp(1j * k0 * x))
            errs.append(np.max(np.abs(hist.final_y[:, 0, 0] - y_exact)))
            steps.append(dt)
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert order == pytest.approx(2.0, abs=0.1)

    def test_leapfrog_matches_kspace_with_source(self):
        # same discrete system, two integrators: O(dt^2) + O(dx^2) difference
        devs, steps = [], []
        for n, dx in [(16, 0.5), (32, 0.25)]:
            g = FieldGrid(n=n, dx=dx, uv_cutoff=2.0)
            coup = CouplingFunction.canonical(0.1, uv_cutoff=2.0)
            dt = 0.2 * dx
            times = np.arange(0.0, 8.0 + dt / 2.0, dt)
            p = OscillatorParams(1.0, 1.0, 0.1)
            xs = mean_trajectory(p, [1.0, 0, 0], [0.0, 0, 0], times)
            vs = np.gradient(xs, times, axis=0)
            traj = Trajectory(times, xs, vs)
            lf = evolve_field_with_source(traj, coup, g, method="leapfrog",
                                          energy_every=10**9)
            ks = evolve_field_with_source(traj, coup, g, method="kspace")
            devs.append(np.max(np.abs(lf.final_y - ks.final_y)))
            steps.append(dt)
        order = np.log2(devs[0] / devs[1])
        assert order == pytest.approx(2.0, abs=0.1)

    def test_energy_balance_against_trajectory(self):
        # stay inside the 16^3 box's recurrence window L = 16
        m, omega, beta = 1.0, 1.0, 0.1
        grid = FieldGrid(n=16, dx=1.0, uv_cutoff=2.8)
        coup = CouplingFunction.canonical(beta, uv_cutoff=2.8)
        h = 0.01
        times = np.arange(0.0, 12.0 + h / 2.0, h)
        kern = lattice_memory_kernel(coup, grid, times)
        pot = PotentialSpec.harmonic(m, omega)
        traj = evolve_mean_volterra(m, pot, kern, [1.0, 0, 0], [0, 0, 0], times)
        hist = evolve_field_with_source(traj, coup, grid, method="kspace")
        e_mech = traj.mechanical_energy(m, omega)
        lost = e_mech[0] - e_mech[-1]
        gained = hist.energy[-1] - hist.energy[0]
        assert gained == pytest.approx(lost, rel=5e-3)
        # coarse-grained over an oscillator period the field only absorbs
        period = int(round(2.0 * np.pi / omega / h))
        coarse = hist.energy[::period]
        assert np.all(np.diff(coarse) > 0.0)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = FieldGrid(n=8, dx=0.25)
        y, _ = field_from_modes(random_amplitudes(g, seed=2), g)
        path = tmp_path / "field.bin"
        write_snapshot(path, y, g.dx)
        back, dx = read_snapshot(path)
        assert dx == 0.25
        assert np.array_equal(back, y)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFILE" + b"\0" * 64)
        with pytest.raises(DomainError):
            read_snapshot(path)
