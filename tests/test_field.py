import numpy as np
import pytest

from dissipon.errors import DomainError, StabilityError
from dissipon.field import (_ENERGY_BLOCK, FieldGrid, _field_energy,
                            _gradient_weights, _masked_modes, _mode_spectra,
                            _rotate_shells, evolve_field_with_source, field_from_modes,
                            hamiltonian_identity_check, lattice_memory_kernel,
                            read_snapshot, write_snapshot)
from dissipon.langevin import PotentialSpec, Trajectory, evolve_mean_volterra
from dissipon.oscillator import OscillatorParams, mean_trajectory
from dissipon.reservoir import CouplingFunction


def random_amplitudes(grid, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(grid.n,) * 3) + 1j * rng.normal(size=(grid.n,) * 3)
    a[~grid.mode_mask()] = 0.0
    return a


def start_amplitudes(grid, start):
    """Initial amplitudes of the class integrator tests: at rest (None),
    explicit zeros, one excited mode, or every mode excited."""
    if start == "rest":
        return None
    if start == "random":
        return 0.01 * random_amplitudes(grid)
    a = np.zeros((grid.n,) * 3, dtype=complex)
    if start == "one-mode":
        a[0, -1, 0] = 0.01 - 0.02j  # |k| = dk: inside every cutoff
    return a


def assert_same_history(got, ref):
    for name, value, expect in zip(got._fields, got, ref):
        if expect is None:
            assert value is None, name
        else:
            np.testing.assert_array_equal(value, expect, err_msg=name)


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
    kx = np.meshgrid(*grid.k_axes(), indexing="ij")[0]
    weights = 2.0 * (g_k[mask] ** 2) * w[mask] * kx[mask] ** 2
    return np.cos(np.outer(times, w[mask])) @ weights


def permode_kspace(traj, coupling, grid, a0=None):
    """Energy trace, final (Y, Pi) and final amplitudes, one mode at a time."""
    g_k, w, mask = mode_coupling(coupling, grid)
    kx, ky, kz = np.meshgrid(*grid.k_axes(), indexing="ij")
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

    As the box grows, N converges to the continuum :func:`continuum_n_field`
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
    for kc in np.meshgrid(*grid.k_axes(), indexing="ij"):
        # sum_k c_k e^{-ikx} = conj(n^3 ifftn(conj(c)))
        sm = np.conj(np.fft.ifftn(np.conj(weight_m * kc)) * n3)
        sn = np.conj(np.fft.ifftn(np.conj(weight_n * kc)) * n3)
        m_comps.append(np.real(sm))
        n_comps.append(np.imag(sn))
    return np.stack(m_comps, axis=-1), np.stack(n_comps, axis=-1)


def continuum_n_field(coupling, grid, radii=1200, frequencies=4000):
    """The continuum acceleration source shape N(x) = S'(r) rhat on the
    grid, for a coupling cut at its UV cutoff Lambda.  The 3-d mode integral
    reduces to a spherical-Bessel radial transform,

        S'(r) = -4 pi int_0^Lambda dk k^3 f(k) / sqrt(2 (2 pi)^3 k) j1(k r),

    here composite Simpson over k (from 1e-10 Lambda), sampled at ``radii``
    points and interpolated linearly to each grid point's minimum-image
    distance from the origin.  The velocity shape M vanishes for a real
    coupling.
    """
    lam = coupling.uv_cutoff
    k = np.linspace(lam * 1e-10, lam, frequencies + 1)
    weight = np.full(frequencies + 1, 2.0)
    weight[1::2] = 4.0
    weight[0] = weight[-1] = 1.0
    weight *= (k[1] - k[0]) / 3.0
    g = coupling(k) / np.sqrt(2.0 * (2.0 * np.pi) ** 3 * k)
    r = np.linspace(0.0, np.sqrt(3.0) * grid.box_length / 2.0 * 1.001, radii)
    kr = np.outer(r, k)
    with np.errstate(invalid="ignore", divide="ignore"):
        j1 = np.where(kr > 1e-8, np.sin(kr) / kr**2 - np.cos(kr) / kr, kr / 3.0)
    radial = -4.0 * np.pi * (j1 @ (k**3 * g * weight))
    x = grid.dx * np.arange(grid.n)
    x = np.where(x > grid.box_length / 2, x - grid.box_length, x)
    pos = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
    dist = np.sqrt(np.sum(pos**2, axis=-1))
    unit = pos / np.where(dist > 0, dist, 1.0)[..., None]
    return np.interp(dist, r, radial)[..., None] * unit


def fullgrid_spectra(a, grid):
    """(Y^, Pi^) of field_from_modes on the whole grid, with a_-k read by
    flipping and rolling the grid: the form the masked-mode spectra
    replaced, kept as a reference."""
    w = grid.omega()
    mask = grid.mode_mask()
    root = np.zeros_like(w)
    root[mask] = 1.0 / np.sqrt(2.0 * grid.volume * w[mask])
    a_rev = np.roll(a[::-1, ::-1, ::-1], shift=1, axis=(0, 1, 2))
    n3 = grid.n**3
    y_hat = root * (a + np.conj(a_rev)) * n3
    pi_hat = 1j * np.where(mask, w, 0.0) * root * (np.conj(a_rev) - a) * n3
    return y_hat, pi_hat


def complex_rotation(z0, rot, ends, drive, weights):
    """The states and energies of field._rotate_shells, one row at a time in
    complex arithmetic."""
    z = z0.astype(complex)
    energies = []
    for r in range(len(ends)):
        if r:
            pair = np.concatenate([ends[r - 1], ends[r]]).astype(complex)
            z = rot * z + (pair @ drive).reshape(z.shape)
        parts = np.stack([z.real, z.imag], axis=-1).ravel()
        energies.append(np.sum(weights * parts**2))
    return z, np.array(energies)


def symbol_laplacian(y, grid, dt):
    """-sigma Y, with the leapfrog's exact-phase symbol
    sigma = (2/dt)^2 sin^2(|k| dt/2) applied by FFT."""
    sigma = (2.0 / dt * np.sin(0.5 * dt * grid.omega())) ** 2
    return -np.real(np.fft.ifftn(sigma * np.fft.fftn(y)))


def realspace_leapfrog(traj, coupling, grid, a0=None):
    """Energy trace and final (Y, Pi), stepped on the real grid."""
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
    w_half = w_vel + 0.5 * dt * (symbol_laplacian(y, grid, dt) + source0)
    for i in range(len(traj.times) - 1):
        y = y + dt * w_half
        source = 2.0 * (n_field @ acc[i + 1]) + 2.0 * (m_field @ v[i + 1])
        accel = symbol_laplacian(y, grid, dt) + source
        w_full = w_half + 0.5 * dt * accel
        pi = w_full - 2.0 * (n_field @ v[i + 1])
        energies[i + 1] = _field_energy(y, pi, grid, weights)
        w_half = w_half + dt * accel
    return energies, y, pi


def rel_dev(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def driven_trajectory(dt, steps=120):
    """A damped oscillator's mean path at time step ``dt``, moving along all
    three axes."""
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
        for dx in (1e160, 1e300):  # the first shell's |k|^2 underflows
            with pytest.raises(DomainError, match="too coarse"):
                FieldGrid(n=8, dx=dx)
        for dx in (1e103, 1e104, np.float64(1e150)):  # the volume (n dx)^3 overflows
            with pytest.raises(DomainError, match="too coarse: the volume"):
                FieldGrid(n=8, dx=dx)
        for dx in (1e-103, 1e-120, np.float64(1e-150)):  # dk^3 overflows
            with pytest.raises(DomainError, match="too fine: the mode density"):
                FieldGrid(n=8, dx=dx)
        FieldGrid(n=8, dx=5e101)  # a box near each bound still builds
        FieldGrid(n=8, dx=1e-102)
        for cutoff in (np.nan, 0.0, -1.0, 0.7):  # dk = 2 pi / 8 = 0.785
            with pytest.raises(DomainError, match="below the mode spacing"):
                FieldGrid(n=8, dx=1.0, uv_cutoff=cutoff)
        with pytest.raises(DomainError, match="too large"):
            FieldGrid(n=2**21, dx=1.0)  # 2^63 points: no array indexes them

    def test_nonfinite_lattice_coupling_rejected(self):
        # f(dk) ~ sqrt(beta) dk^(-5/2) overflows, so f dk^(3/2) is inf
        grid = FieldGrid(n=8, dx=1e100)
        with pytest.raises(DomainError, match="not finite"):
            lattice_memory_kernel(CouplingFunction.canonical(1e300), grid, np.arange(3.0))

    def test_geometry_is_built_once_per_grid(self, monkeypatch):
        calls = []
        omega = FieldGrid.omega
        monkeypatch.setattr(FieldGrid, "omega", lambda self: calls.append(self) or omega(self))
        grid = FieldGrid(n=8, dx=0.5, uv_cutoff=2.0)
        coup = lattice_coupling("canonical", 2.0)
        traj = driven_trajectory(0.1)
        lattice_memory_kernel(coup, grid, traj.times)
        for method in ("kspace", "leapfrog"):
            evolve_field_with_source(traj, coup, grid, method=method)
        assert len(calls) == 1 and calls[0] is grid
        # an equal grid builds its own geometry, and neither can be written
        twin = FieldGrid(n=8, dx=0.5, uv_cutoff=2.0)
        assert twin == grid and "geometry" not in vars(twin)
        for name, mine, theirs in zip(grid.geometry._fields, grid.geometry, twin.geometry):
            np.testing.assert_array_equal(mine, theirs, err_msg=name)
            assert not np.shares_memory(mine, theirs), name
            assert not mine.flags.writeable and not theirs.flags.writeable, name
        mask = grid.mode_mask()
        mask[...] = False  # a copy
        assert grid.geometry.mask.any()

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

    @pytest.mark.parametrize("n, dx, cutoff", [(2, 1.0, None), (8, 0.5, None), (16, 1.0, 2.8)])
    def test_mode_spectra_match_full_grid(self, n, dx, cutoff):
        # Nyquist planes in the mask (no cutoff) or none (cutoff 2.8)
        g = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        a = random_amplitudes(g)
        mask = g.mode_mask()
        for got, ref in zip(_mode_spectra(a, g), fullgrid_spectra(a, g)):
            assert not ref[~mask].any()
            assert rel_dev(got, ref[mask]) <= 1e-15
        y_hat, pi_hat = fullgrid_spectra(a, g)
        fields = np.fft.ifftn(y_hat + 1j * pi_hat)
        for got, ref in zip(field_from_modes(a, g), (fields.real, fields.imag)):
            assert rel_dev(got, ref) <= 1e-15

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
        grad_sq = sum(np.abs(np.fft.ifftn(1j * kc * y_k)) ** 2
                      for kc in np.meshgrid(*g.k_axes(), indexing="ij"))
        expected = float(np.sum(0.5 * (pi**2 + grad_sq)) * dx**3)
        got = _field_energy(y, pi, g, _gradient_weights(g))
        assert abs(got - expected) <= 1e-12 * expected


class TestSourceShapes:
    def test_lattice_shapes_converge_to_continuum(self):
        # the continuum N is the limit of the mode sums the leapfrog uses; a
        # band-limited table, since the canonical coupling's do not converge
        k = np.linspace(1e-3, 2.0, 2000)
        c = CouplingFunction.tabulated(k, np.exp(-((k - 1.0) / 0.3) ** 2) / k**2,
                                       uv_cutoff=2.0)
        errs = []
        for n in (16, 32, 64):
            g = FieldGrid(n=n, dx=1.0, uv_cutoff=2.0)
            continuum = continuum_n_field(c, g)
            m_field, n_field = lattice_source_shapes(c, g)
            scale = np.abs(continuum).max()
            errs.append(np.abs(n_field - continuum).max() / scale)
            assert np.abs(m_field).max() < 1e-14 * scale
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 3e-4


class TestClassIntegrators:
    @pytest.mark.parametrize("n, dx, cutoff", [(16, 0.5, None), (32, 1.0, 2.8)])
    def test_classes_are_the_integer_partitions(self, n, dx, cutoff):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        geo = grid.geometry
        assert np.allclose(geo.index * grid.dk, geo.k, rtol=1e-14, atol=0.0)
        keys = [i * i + j * j + l * l for i, j, l in geo.index.tolist()]
        # one shell per key and one key per shell: float keys split shells
        assert len(geo.first) == len(set(keys))
        assert len(set(zip(geo.label.tolist(), keys))) == len(geo.first)
        if n == 32:
            assert (len(geo.w), len(geo.first)) == (12148, 171)

    @pytest.mark.parametrize("n, dx, cutoff, kind", REFERENCE_CASES)
    def test_kernel_matches_permode(self, n, dx, cutoff, kind):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coup = lattice_coupling(kind, cutoff)
        times = np.arange(0.0, 20.0, 0.05)
        got = lattice_memory_kernel(coup, grid, times).values
        assert rel_dev(got, permode_kernel(coup, grid, times)) <= 1e-12

    def test_kernel_blocks_match_one_shot(self):
        # a grid of two and a half blocks of cosines, the last one partial
        from dissipon.reservoir import _TRANSFORM_BLOCK
        grid = FieldGrid(n=16, dx=1.0)
        coup = CouplingFunction.canonical(0.1, uv_cutoff=3.0)
        geo, g = _masked_modes(coup, grid)
        times = np.arange(5 * (_TRANSFORM_BLOCK // len(geo.first)) // 2) * 0.05
        weights = np.bincount(geo.label, weights=2.0 * g**2 * geo.w * geo.k[:, 0] ** 2)
        one_shot = np.cos(np.outer(times, geo.w[geo.first])) @ weights
        got = lattice_memory_kernel(coup, grid, times).values
        assert rel_dev(got, one_shot) <= 1e-14

    # three states of five shells driven by a pair of 2-vectors, over rows
    # that end in a short block; with no live column nothing is stepped
    @pytest.mark.parametrize("cols, width, rows", [
        (3, 2, 2 * _ENERGY_BLOCK + 6), (3, 2, 1), (0, 0, _ENERGY_BLOCK + 3)])
    def test_rotation_matches_complex_reference(self, cols, width, rows):
        rng = np.random.default_rng(5)
        shells = 5
        rot = np.exp(-1j * rng.uniform(0.0, 3.0, shells))
        z0 = rng.normal(size=(cols, shells)) + 1j * rng.normal(size=(cols, shells))
        ends = rng.normal(size=(rows, width))
        drive = (rng.normal(size=(2 * width, cols * shells))
                 + 1j * rng.normal(size=(2 * width, cols * shells)))
        weights = rng.uniform(0.5, 2.0, 2 * cols * shells)
        z, energies = _rotate_shells(z0, rot, ends, drive, weights)
        ref_z, ref_energies = complex_rotation(z0, rot, ends, drive, weights)
        assert z.shape == ref_z.shape and energies.shape == (rows,)
        if cols == 0:
            assert not energies.any()
        else:
            assert rel_dev(z, ref_z) <= 1e-13
            assert rel_dev(energies, ref_energies) <= 1e-13

    # "zeros" is a field at rest given explicitly, and must run as the
    # implicit one; "one-mode" keeps the initial-state columns live
    @pytest.mark.parametrize("start", ["rest", "zeros", "one-mode", "random"])
    @pytest.mark.parametrize("n, dx, cutoff, kind", REFERENCE_CASES)
    def test_kspace_matches_permode(self, n, dx, cutoff, kind, start):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coup = lattice_coupling(kind, cutoff)
        a0 = start_amplitudes(grid, start)
        traj = driven_trajectory(0.2 * dx)
        hist = evolve_field_with_source(traj, coup, grid, method="kspace",
                                        initial_amplitudes=a0)
        refs = permode_kspace(traj, coup, grid, a0)
        got = (hist.energy, hist.final_y, hist.final_pi, hist.final_amplitudes)
        for name, value, ref in zip(("energy", "y", "pi", "amplitudes"), got, refs):
            assert rel_dev(value, ref) <= 1e-12, name
        if start == "zeros":
            assert_same_history(hist, evolve_field_with_source(traj, coup, grid, "kspace"))

    @pytest.mark.parametrize("start", ["rest", "zeros", "one-mode", "random"])
    @pytest.mark.parametrize("n, dx, cutoff, kind", REFERENCE_CASES)
    def test_leapfrog_matches_realspace(self, n, dx, cutoff, kind, start):
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coup = lattice_coupling(kind, cutoff)
        a0 = start_amplitudes(grid, start)
        traj = driven_trajectory(0.2 * dx)
        hist = evolve_field_with_source(traj, coup, grid, method="leapfrog",
                                        initial_amplitudes=a0)
        refs = realspace_leapfrog(traj, coup, grid, a0)
        got = (hist.energy, hist.final_y, hist.final_pi)
        for name, value, ref in zip(("energy", "y", "pi"), got, refs):
            assert rel_dev(value, ref) <= 1e-12, name
        if start == "zeros":
            assert_same_history(hist, evolve_field_with_source(traj, coup, grid, "leapfrog"))


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

    @pytest.mark.parametrize("phase", [2e-6, 1e-5, 1e-3])
    def test_kspace_ramp_kick_is_exact_at_small_phase(self, phase):
        # one step of a velocity ramp 0 -> v from rest: a_k = i g_k (k . v) b_new
        # with b_new = dt [(1 - cos theta) - i (theta - sin theta)] / theta^2,
        # theta = w dt, whose two differences cancel in floats at small theta;
        # the reference is b_new at 40 digits on the lowest shell, |k| = dk
        mpmath = pytest.importorskip("mpmath")
        grid = FieldGrid(n=8, dx=1.0, uv_cutoff=3.0)
        coupling = CouplingFunction.canonical(0.1, uv_cutoff=3.0)
        w = float(grid.k_axes()[0][1])
        dt = phase / w
        traj = Trajectory(np.array([0.0, dt]), np.zeros((2, 3)),
                          np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]))
        a = evolve_field_with_source(traj, coupling, grid, method="kspace").final_amplitudes
        g = float(coupling(w)) * np.sqrt(grid.dk**3)
        with mpmath.workdps(40):
            theta = mpmath.mpf(w) * mpmath.mpf(dt)
            b_new = mpmath.mpf(dt) * ((1 - mpmath.cos(theta))
                                      - 1j * (theta - mpmath.sin(theta))) / theta**2
            ref = complex(1j * mpmath.mpf(g) * mpmath.mpf(w) * mpmath.mpf(0.3) * b_new)
        for index, sign in (((1, 0, 0), 1.0), ((7, 0, 0), -1.0)):  # k = (+-dk, 0, 0)
            assert abs(a[index] - sign * ref) <= 1e-13 * abs(ref)

    def test_free_energy_conservation_many_steps(self):
        g = FieldGrid(n=8, dx=0.5)
        a0 = random_amplitudes(g, seed=3)
        times = np.arange(10_001) * 1e-3
        hist = evolve_field_with_source(still_trajectory(times),
                                        CouplingFunction.zero(), g,
                                        method="kspace", initial_amplitudes=a0)
        assert np.max(np.abs(hist.energy - hist.energy[0])) / hist.energy[0] < 1e-8

    def test_leapfrog_conserves_with_small_step(self):
        # the pointwise trace oscillates at the O((w dt)^2) level, but
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

    @pytest.mark.parametrize("dt", [0.8, 1.05, 1.15, 1.16])
    def test_cutoff_sets_the_step_bound(self, dt):
        # with a UV cutoff the fastest masked mode is below sqrt(3) pi / dx:
        # the bound is w dt < pi there (dt < 1.1547 at w = 2.7207), not
        # dt < dx/sqrt(3) = 0.577
        g = FieldGrid(n=8, dx=1.0, uv_cutoff=2.8)
        coupling = lattice_coupling("canonical", 2.8)
        traj = driven_trajectory(dt, steps=60)
        if dt * g.geometry.w.max() >= np.pi:
            with pytest.raises(StabilityError, match=r"CFL violation: .* w dt = 3\.15"):
                evolve_field_with_source(traj, coupling, g, method="leapfrog")
            return
        hist = evolve_field_with_source(traj, coupling, g, method="leapfrog")
        refs = realspace_leapfrog(traj, coupling, g)
        for value, ref in zip((hist.energy, hist.final_y, hist.final_pi), refs):
            assert rel_dev(value, ref) <= 1e-12

    def test_leapfrog_order_against_analytic_mode(self):
        # t = 5: at t = 4 the mode has turned by k0 t = pi on every grid,
        # where the initial-momentum error term of an exact-phase step vanishes
        errs, steps = {"y": [], "pi": []}, []
        for n, dx in [(8, 1.0), (16, 0.5), (32, 0.25)]:
            g = FieldGrid(n=n, dx=dx)
            k0 = 2.0 * np.pi / g.box_length
            a0 = np.zeros((n,) * 3, dtype=complex)
            a0[1, 0, 0] = 1.0
            dt = 0.2 * dx
            times = np.arange(0.0, 5.0 + dt / 2.0, dt)
            hist = evolve_field_with_source(still_trajectory(times),
                                            CouplingFunction.zero(), g,
                                            method="leapfrog",
                                            initial_amplitudes=a0)
            x = dx * np.arange(n)
            amp = 1.0 / np.sqrt(2.0 * g.volume * k0)
            wave = 2.0 * amp * np.exp(1j * k0 * (x - times[-1]))
            errs["y"].append(np.max(np.abs(hist.final_y[:, 0, 0] - wave.real)))
            errs["pi"].append(np.max(np.abs(hist.final_pi[:, 0, 0] - k0 * wave.imag)))
            steps.append(dt)
        for name, err in errs.items():
            order = np.polyfit(np.log(steps), np.log(err), 1)[0]
            assert order == pytest.approx(2.0, abs=0.1), name

    def test_leapfrog_matches_kspace_with_source(self):
        # same discrete system, two integrators: an O(dt^2) difference
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

    def test_leapfrog_energy_balance_matches_kspace(self):
        # acceptance 9's lattice at the benchmark's step and horizon: the
        # exact-dispersion kernel drives the particle, so the leapfrog
        # balances with it only if it follows the same dispersion
        m, omega, beta = 1.0, 1.0, 0.1
        grid = FieldGrid(n=32, dx=1.0, uv_cutoff=2.8)
        coup = CouplingFunction.canonical(beta, uv_cutoff=2.8)
        times = np.arange(0.0, 20.0 + 0.01, 0.02)
        kern = lattice_memory_kernel(coup, grid, times)
        traj = evolve_mean_volterra(m, PotentialSpec.harmonic(m, omega), kern,
                                    [1.0, 0, 0], [0, 0, 0], times)
        e_mech = traj.mechanical_energy(m, omega)
        balance = {}
        for method in ("kspace", "leapfrog"):
            energy = evolve_field_with_source(traj, coup, grid, method=method).energy
            balance[method] = (energy[-1] - energy[0]) / (e_mech[0] - e_mech[-1])
        assert balance["leapfrog"] == pytest.approx(1.0, abs=0.05)
        assert balance["leapfrog"] == pytest.approx(balance["kspace"], abs=1e-5)

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


@pytest.mark.parametrize("make, message", [
    (lambda path: field_from_modes(np.zeros((4, 4, 4)), FieldGrid(n=8, dx=0.25)),
     "amplitudes must have shape"),
    (lambda path: evolve_field_with_source(driven_trajectory(0.1),
                                           lattice_coupling("canonical", 2.0),
                                           FieldGrid(n=8, dx=0.5), method="euler"),
     "unknown method"),
    # g = f dk^(3/2) is finite, but 2 g^2 w k_x^2 on the first shell is not
    (lambda path: lattice_memory_kernel(CouplingFunction.canonical(1e307),
                                        FieldGrid(n=8, dx=0.01), np.arange(3.0)),
     "shell weights .* overflow"),
    (lambda path: write_snapshot(path / "field.bin", np.zeros((4, 4)), 0.25),
     "snapshots hold one 3-d scalar field"),
], ids=["amplitudes", "method", "shell weights", "snapshot"])
def test_bad_input_rejected(tmp_path, make, message):
    with pytest.raises(DomainError, match=message):
        make(tmp_path)
