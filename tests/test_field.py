import numpy as np
import pytest
from scipy.special import spherical_jn

from dissipon.errors import DomainError, StabilityError
from dissipon.field import (FieldGrid, _cubic_orbits, _field_energy,
                            _gradient_weights, _masked_modes, _shells,
                            evolve_field_with_source, field_from_modes,
                            hamiltonian_identity_check, lattice_memory_kernel,
                            modes_from_fields, read_snapshot, source_shapes,
                            write_snapshot)
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


# The per-mode and real-space integrators that the class integrators of
# dissipon.field replaced, kept as references.

def mode_coupling(coupling, grid):
    w = grid.omega()
    mask = grid.mode_mask()
    g_k = np.zeros_like(w)
    g_k[mask] = np.asarray(coupling(w[mask]), dtype=float) * np.sqrt(grid.dk**3)
    return g_k, w, mask


def permode_kernel(coupling, grid, times):
    g_k, w, mask = mode_coupling(coupling, grid)
    kx = grid.k_vectors()[0]
    weights = 2.0 * (g_k[mask] ** 2) * w[mask] * kx[mask] ** 2
    return np.cos(np.outer(times, w[mask])) @ weights


def permode_kspace(traj, coupling, grid, a0=None):
    """Energy trace, final (Y, Pi) and final amplitudes, one mode at a time."""
    g_k, w, mask = mode_coupling(coupling, grid)
    kx, ky, kz = grid.k_vectors()
    a = np.zeros((grid.n,) * 3, dtype=complex) if a0 is None else a0.copy()
    times = traj.times
    v = traj.velocities
    energies = np.empty(len(times))
    energies[0] = float(np.sum(w * np.abs(a) ** 2))
    wm, gm, am = w[mask], g_k[mask], a[mask]
    kdot = np.stack([kx[mask], ky[mask], kz[mask]], axis=-1)
    dt = traj.step
    theta = wm * dt
    rot = np.exp(-1j * theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        b_new = (1.0 - (1.0 - rot) / (1j * theta)) / (1j * wm)
        b_old = (1.0 - rot) / (1j * wm) - b_new
    small = theta < 1e-6
    b_new[small] = dt / 2.0
    b_old[small] = dt / 2.0
    for i in range(len(times) - 1):
        am = rot * am + 1j * gm * (b_old * (kdot @ v[i]) + b_new * (kdot @ v[i + 1]))
        energies[i + 1] = float(np.sum(wm * np.abs(am) ** 2))
    a = np.zeros((grid.n,) * 3, dtype=complex)
    a[mask] = am
    y, pi = field_from_modes(a, grid)
    return energies, y, pi, a


def lattice_source_shapes(coupling, grid):
    """Source shapes of the real-space leapfrog, summed over the lattice's
    modes:

        M(x) = Re sum_k sqrt(w_k/2V) g_k k e^{-ikx},
        N(x) = Im sum_k g_k/sqrt(2V w_k) k e^{-ikx}.

    As the box grows, N converges to the continuum :func:`source_shapes`
    for a band-limited coupling.  For a real coupling M vanishes unless the
    mask holds modes on a Nyquist plane (``uv_cutoff=None``), where k and
    -k alias.
    """
    g_k, w, mask = mode_coupling(coupling, grid)
    n3 = grid.n**3
    w_masked = np.where(mask, w, 1.0)
    weight_m = g_k * np.sqrt(np.where(mask, w, 0.0) / (2.0 * grid.volume))
    weight_n = g_k * mask / np.sqrt(2.0 * grid.volume * w_masked)
    m_comps, n_comps = [], []
    for kc in grid.k_vectors():
        # sum_k c_k e^{-ikx} = conj(n^3 ifftn(conj(c)))
        sm = np.conj(np.fft.ifftn(np.conj(weight_m * kc)) * n3)
        sn = np.conj(np.fft.ifftn(np.conj(weight_n * kc)) * n3)
        m_comps.append(np.real(sm))
        n_comps.append(np.imag(sn))
    return np.stack(m_comps, axis=-1), np.stack(n_comps, axis=-1)


def stencil_laplacian(y, dx):
    out = -6.0 * y
    for axis in range(3):
        out = out + np.roll(y, 1, axis=axis) + np.roll(y, -1, axis=axis)
    return out / (dx * dx)


def realspace_leapfrog(traj, coupling, grid, a0=None):
    """Energy trace and final (Y, Pi), one grid point at a time."""
    m_field, n_field = lattice_source_shapes(coupling, grid)
    if a0 is None:
        y = np.zeros((grid.n,) * 3)
        pi = np.zeros_like(y)
    else:
        y, pi = field_from_modes(a0, grid)
    v = traj.velocities
    acc = traj.accelerations()
    dt = traj.step
    weights = _gradient_weights(grid)
    energies = np.empty(len(traj.times))
    energies[0] = _field_energy(y, pi, grid, weights)
    # W = dY/dt = Pi + 2 v . N;  staggered half-step start
    w_vel = pi + 2.0 * (n_field @ v[0])
    source0 = 2.0 * (n_field @ acc[0]) + 2.0 * (m_field @ v[0])
    w_half = w_vel + 0.5 * dt * (stencil_laplacian(y, grid.dx) + source0)
    for i in range(len(traj.times) - 1):
        y = y + dt * w_half
        source = 2.0 * (n_field @ acc[i + 1]) + 2.0 * (m_field @ v[i + 1])
        accel = stencil_laplacian(y, grid.dx) + source
        w_full = w_half + 0.5 * dt * accel
        pi = w_full - 2.0 * (n_field @ v[i + 1])
        energies[i + 1] = _field_energy(y, pi, grid, weights)
        w_half = w_half + dt * accel
    return energies, y, pi


def rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def driven_trajectory(dx, steps=120):
    """A damped oscillator's mean path, moving along all three axes."""
    dt = 0.2 * dx
    times = np.arange(steps + 1) * dt
    xs = mean_trajectory(OscillatorParams(1.0, 1.0, 0.1), [1.0, -0.5, 0.3],
                         [0.0, 0.4, -0.2], times)
    return Trajectory(times, xs, np.gradient(xs, times, axis=0))


def lattice_coupling(kind, cutoff):
    if kind == "canonical":
        return CouplingFunction.canonical(0.1, uv_cutoff=cutoff)
    # band-limited, and still nonzero on the Nyquist planes of dx = 0.5 and 1
    k = np.linspace(1e-3, 8.0, 800)
    return CouplingFunction.tabulated(k, np.exp(-(((k - 2.0) / 1.5) ** 2)) / k**2,
                                      uv_cutoff=cutoff)


# every combination of grid, cutoff (None puts the Nyquist planes in the
# mask), coupling and initial amplitudes the class integrators must match
# their references on
REFERENCE_CASES = [
    pytest.param(n, dx, cutoff, kind, id=f"n{n}-dx{dx}-cut{cutoff}-{kind}")
    for n in (8, 16) for dx in (0.5, 1.0) for cutoff in (None, 2.0)
    for kind in ("canonical", "table")
]


class TestGrid:
    def test_invariants(self):
        with pytest.raises(DomainError):
            FieldGrid(n=12, dx=0.5)  # not a power of two
        with pytest.raises(DomainError):
            FieldGrid(n=16, dx=0.5, uv_cutoff=7.0)  # dx * cutoff >= pi
        for dx in (np.nan, np.inf):
            with pytest.raises(DomainError, match="spacing must be positive"):
                FieldGrid(n=8, dx=dx)
        for dx in (1e-200, np.float64(1e-308)):  # the corner mode's |k|^2 overflows
            with pytest.raises(DomainError, match="too fine"):
                FieldGrid(n=8, dx=dx)
        for cutoff in (np.nan, 0.0, -1.0, 0.7):  # dk = 2 pi / 8 = 0.785
            with pytest.raises(DomainError, match="below the mode spacing"):
                FieldGrid(n=8, dx=1.0, uv_cutoff=cutoff)
        with pytest.raises(DomainError, match="too large"):
            FieldGrid(n=2**21, dx=1.0)  # 2^63 points: no array indexes them

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

    @pytest.mark.parametrize("use", ["field_from_modes", "kspace", "leapfrog"])
    def test_amplitudes_above_cutoff_rejected(self, use):
        # the k-space trace used to count them at t = 0 and drop them after
        g = FieldGrid(n=8, dx=1.0, uv_cutoff=2.0)
        a = random_amplitudes(g)
        a[3, 3, 3] = 0.5  # |k| = 4.08 > 2
        with pytest.raises(DomainError, match="UV cutoff"):
            if use == "field_from_modes":
                field_from_modes(a, g)
            else:
                evolve_field_with_source(still_trajectory(np.arange(3) * 0.1),
                                         CouplingFunction.zero(), g, method=use,
                                         initial_amplitudes=a)


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
            m_field, n_field = lattice_source_shapes(c, g)
            scale = np.abs(continuum.n_field).max()
            errs.append(np.abs(n_field - continuum.n_field).max() / scale)
            assert np.abs(m_field).max() < 1e-14 * scale
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 3e-4


class TestClassIntegrators:
    @pytest.mark.parametrize("n, dx, cutoff", [(16, 0.5, None), (32, 1.0, 2.8)])
    def test_classes_are_the_integer_partitions(self, n, dx, cutoff):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        modes = _masked_modes(CouplingFunction.zero(), grid)
        assert np.allclose(modes.index * grid.dk, modes.k, rtol=1e-14, atol=0.0)
        triples = modes.index.tolist()
        shell_keys = [i * i + j * j + l * l for i, j, l in triples]
        orbit_keys = [tuple(sorted(map(abs, t))) for t in triples]
        for (label, first), keys in ((_shells(modes), shell_keys),
                                     (_cubic_orbits(modes, n), orbit_keys)):
            # one class per key and one key per class: float keys split shells
            assert len(first) == len(set(keys))
            assert len(set(zip(label.tolist(), keys))) == len(first)
        if n == 32:
            counts = (len(modes.w), len(_shells(modes)[1]),
                      len(_cubic_orbits(modes, n)[1]))
            assert counts == (12148, 171, 360)

    @pytest.mark.parametrize("n, dx, cutoff, kind", REFERENCE_CASES)
    def test_kernel_matches_permode(self, n, dx, cutoff, kind):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coup = lattice_coupling(kind, cutoff)
        times = np.arange(0.0, 20.0, 0.05)
        got = lattice_memory_kernel(coup, grid, times).values
        assert rel_dev(got, permode_kernel(coup, grid, times)) <= 1e-12

    @pytest.mark.parametrize("start", ["rest", "random"])
    @pytest.mark.parametrize("n, dx, cutoff, kind", REFERENCE_CASES)
    def test_kspace_matches_permode(self, n, dx, cutoff, kind, start):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coup = lattice_coupling(kind, cutoff)
        a0 = None if start == "rest" else 0.01 * random_amplitudes(grid)
        traj = driven_trajectory(dx)
        hist = evolve_field_with_source(traj, coup, grid, method="kspace",
                                        initial_amplitudes=a0)
        refs = permode_kspace(traj, coup, grid, a0)
        got = (hist.energy, hist.final_y, hist.final_pi, hist.final_amplitudes)
        for name, value, ref in zip(("energy", "y", "pi", "amplitudes"), got, refs):
            assert rel_dev(value, ref) <= 1e-12, name

    @pytest.mark.parametrize("start", ["rest", "random"])
    @pytest.mark.parametrize("n, dx, cutoff, kind", REFERENCE_CASES)
    def test_leapfrog_matches_realspace(self, n, dx, cutoff, kind, start):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coup = lattice_coupling(kind, cutoff)
        a0 = None if start == "rest" else 0.01 * random_amplitudes(grid)
        traj = driven_trajectory(dx)
        hist = evolve_field_with_source(traj, coup, grid, method="leapfrog",
                                        initial_amplitudes=a0)
        refs = realspace_leapfrog(traj, coup, grid, a0)
        got = (hist.energy, hist.final_y, hist.final_pi)
        for name, value, ref in zip(("energy", "y", "pi"), got, refs):
            assert rel_dev(value, ref) <= 1e-12, name


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
                                            initial_amplitudes=a0)
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
            lf = evolve_field_with_source(traj, coup, g, method="leapfrog")
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
