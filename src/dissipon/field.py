"""Reservoir as a sourced scalar field on a finite mode lattice.

The reservoir modes double as a massless Klein-Gordon field: Y and its
conjugate momentum are mode sums over a periodic k-lattice, the particle
drives the field through static source shapes weighting its velocity and
acceleration, and the bath Hamiltonian equals the field energy
(Pi^2 + |grad Y|^2)/2 identically (a Parseval identity on the lattice).

Fields are evolved at the level of c-number mode amplitudes (coherent
expectation values); operator character never enters.  Two integrators
are provided: exact per-mode rotation in k-space with a trapezoid-in-time
source, and a real-space leapfrog with a 7-point stencil Laplacian whose
stability limit dt < dx/sqrt(3) is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, StabilityError

__all__ = [
    "FieldGrid",
    "SourceShapes",
    "FieldHistory",
    "field_from_modes",
    "modes_from_fields",
    "source_shapes",
    "hamiltonian_identity_check",
    "evolve_field_with_source",
    "lattice_memory_kernel",
    "lagrangian_density",
    "hamiltonian_density",
    "write_snapshot",
    "read_snapshot",
]


@dataclass(frozen=True)
class FieldGrid:
    """Cubic k-lattice and its dual real-space grid.

    ``n`` modes per axis (a power of two), real-space spacing ``dx``; the
    box length is L = n dx, the mode spacing dk = 2 pi / L, and the radial
    UV cutoff must respect the Nyquist bound dx * cutoff < pi.
    """

    n: int
    dx: float
    uv_cutoff: float | None = None

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise DomainError("mode count per axis must be a power of two")
        if self.dx <= 0:
            raise DomainError("grid spacing must be positive")
        if self.uv_cutoff is not None and self.dx * self.uv_cutoff >= np.pi:
            raise DomainError(
                f"Nyquist violation: dx * cutoff = {self.dx * self.uv_cutoff:.3g} "
                ">= pi; refine the grid or lower the cutoff")

    @property
    def box_length(self):
        return self.n * self.dx

    @property
    def volume(self):
        return self.box_length**3

    @property
    def dk(self):
        return 2.0 * np.pi / self.box_length

    def k_axes(self):
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        return k, k, k

    def k_vectors(self):
        kx, ky, kz = self.k_axes()
        return np.meshgrid(kx, ky, kz, indexing="ij")

    def omega(self):
        """|k| per mode (zero at the zero mode; mask before dividing)."""
        kx, ky, kz = self.k_vectors()
        return np.sqrt(kx**2 + ky**2 + kz**2)

    def mode_mask(self):
        """Modes carrying dynamics: nonzero and inside the radial cutoff."""
        w = self.omega()
        mask = w > 0
        if self.uv_cutoff is not None:
            mask &= w <= self.uv_cutoff
        return mask

    def radii(self):
        """Minimum-image distance of every grid point from the origin."""
        x = self.dx * np.arange(self.n)
        x = np.where(x > self.box_length / 2, x - self.box_length, x)
        gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
        return np.sqrt(gx**2 + gy**2 + gz**2), (gx, gy, gz)


def _checked_amplitudes(a, grid):
    a = np.asarray(a, dtype=complex)
    if a.shape != (grid.n, grid.n, grid.n):
        raise DomainError(f"amplitudes must have shape {(grid.n,) * 3}")
    if abs(a[0, 0, 0]) != 0.0:
        raise DomainError("the zero mode carries no dynamics; its amplitude must be 0")
    return a


def field_from_modes(a, grid):
    """Reconstruct (Y, Pi) on the real grid from mode amplitudes.

    Y(x)  = sum_k (2 V w_k)^(-1/2) (a_k e^{ikx} + a_k* e^{-ikx})
    Pi(x) = i sum_k (w_k / 2V)^(1/2) (a_k* e^{-ikx} - a_k e^{ikx})
    """
    a = _checked_amplitudes(a, grid)
    w = grid.omega()
    mask = grid.mode_mask()
    root = np.zeros_like(w)
    root[mask] = 1.0 / np.sqrt(2.0 * grid.volume * w[mask])
    a_rev = _reverse_modes(a)
    y_k = root * (a + np.conj(a_rev))
    pi_k = 1j * np.where(mask, w, 0.0) * root * (np.conj(a_rev) - a)
    n3 = grid.n**3
    y = np.real(np.fft.ifftn(y_k) * n3)
    pi = np.real(np.fft.ifftn(pi_k) * n3)
    return y, pi


def _reverse_modes(a):
    """a[-k] on the fft layout."""
    return np.roll(a[::-1, ::-1, ::-1], shift=1, axis=(0, 1, 2))


def modes_from_fields(y, pi, grid):
    """Invert :func:`field_from_modes` (round trip exact off the zero mode)."""
    n3 = grid.n**3
    y_k = np.fft.fftn(y) / n3
    pi_k = np.fft.fftn(pi) / n3
    w = grid.omega()
    mask = grid.mode_mask()
    a = np.zeros_like(y_k)
    a[mask] = (np.sqrt(grid.volume * w[mask] / 2.0) * y_k[mask]
               + 1j * np.sqrt(grid.volume / (2.0 * w[mask])) * pi_k[mask])
    return a


@dataclass
class SourceShapes:
    """Static spatial weights of the velocity and acceleration sources.

    ``m_field`` and ``n_field`` are (n, n, n, 3) arrays on the grid; the
    radial profiles of the continuum reduction are kept alongside.  Both
    fields point radially and vanish at the origin.
    """

    m_field: np.ndarray
    n_field: np.ndarray
    radial_r: np.ndarray
    radial_m: np.ndarray
    radial_n: np.ndarray


def source_shapes(coupling, grid, cfg=None, n_radial=1200, n_freq=4000):
    """Velocity and acceleration source weights of the coupled field.

    The 3-d integrals reduce to spherical-Bessel (j1) radial transforms:

        M(x) = -Im S_M'(r) rhat,  S_M(r) = 4 pi int dk k^2 sqrt(k/(2(2pi)^3)) f(k) sinc(kr)
        N(x) = +Re S_N'(r) rhat,  S_N(r) = 4 pi int dk k^2 f(k)/sqrt(2(2pi)^3 k) sinc(kr)

    with S'(r) = -4 pi int dk k^3 g(k) j1(kr).  The canonical coupling
    makes the M integrand only conditionally convergent, so a UV cutoff is
    mandatory.
    """
    lam = coupling.uv_cutoff
    if cfg is not None and np.isfinite(cfg.uv_cutoff):
        lam = cfg.uv_cutoff
    if lam is None or not np.isfinite(lam):
        raise DomainError(
            "source shapes need a UV cutoff; the canonical coupling integrand "
            "is only conditionally convergent")
    lo = cfg.ir_cutoff if cfg is not None else 0.0

    k = np.linspace(max(lo, lam * 1e-10), lam, n_freq + 1)
    fk = np.asarray(coupling(k), dtype=complex)
    norm = np.sqrt(2.0 * (2.0 * np.pi) ** 3)
    gm = np.sqrt(k) * fk / norm          # M-shape weight
    gn = fk / (norm * np.sqrt(k))        # N-shape weight

    r_max = np.sqrt(3.0) * grid.box_length / 2.0 * 1.001
    r = np.linspace(0.0, r_max, n_radial)

    # S'(r) = -4 pi int k^3 g(k) j1(k r) dk via composite Simpson over k
    wt = np.full(n_freq + 1, 2.0)
    wt[1::2] = 4.0
    wt[0] = wt[-1] = 1.0
    wt *= (k[1] - k[0]) / 3.0
    kr = np.outer(r, k)
    with np.errstate(invalid="ignore", divide="ignore"):
        j1 = np.where(kr > 1e-8, np.sin(kr) / kr**2 - np.cos(kr) / kr, kr / 3.0)
    sm_prime = -4.0 * np.pi * (j1 @ (k**3 * gm * wt))
    sn_prime = -4.0 * np.pi * (j1 @ (k**3 * gn * wt))
    radial_m = -np.imag(sm_prime)
    radial_n = np.real(sn_prime)

    radii, (gx, gy, gz) = grid.radii()
    mag_m = np.interp(radii, r, radial_m)
    mag_n = np.interp(radii, r, radial_n)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_r = np.where(radii > 0, 1.0 / radii, 0.0)
    unit = np.stack([gx * inv_r, gy * inv_r, gz * inv_r], axis=-1)
    return SourceShapes(
        m_field=mag_m[..., None] * unit,
        n_field=mag_n[..., None] * unit,
        radial_r=r, radial_m=radial_m, radial_n=radial_n)


def _lattice_source_shapes(coupling, grid):
    """Lattice-exact source shapes (the mode-sum analogue of the continuum
    radial reduction), used by the real-space integrator so both evolution
    methods describe the same discrete system:

        M(x) = Re sum_k sqrt(w_k/2V) g_k k e^{-ikx},
        N(x) = Im sum_k g_k/sqrt(2V w_k) k e^{-ikx}.
    """
    g_k, w, mask = _mode_coupling(coupling, grid)
    kx, ky, kz = grid.k_vectors()
    n3 = grid.n**3
    w_masked = np.where(mask, w, 1.0)
    weight_m = g_k * np.sqrt(np.where(mask, w, 0.0) / (2.0 * grid.volume))
    weight_n = g_k * mask / np.sqrt(2.0 * grid.volume * w_masked)
    m_comps, n_comps = [], []
    for kc in (kx, ky, kz):
        # sum_k c_k e^{-ikx} = conj(n^3 ifftn(conj(c)))
        sm = np.conj(np.fft.ifftn(np.conj(weight_m * kc)) * n3)
        sn = np.conj(np.fft.ifftn(np.conj(weight_n * kc)) * n3)
        m_comps.append(np.real(sm))
        n_comps.append(np.imag(sn))
    return np.stack(m_comps, axis=-1), np.stack(n_comps, axis=-1)


class FieldHistory(NamedTuple):
    times: np.ndarray
    energy: np.ndarray
    final_y: np.ndarray
    final_pi: np.ndarray
    final_amplitudes: np.ndarray | None


def hamiltonian_identity_check(a, grid):
    """|sum_k w_k |a_k|^2  -  sum_x dx^3 (Pi^2 + |grad Y|^2)/2|.

    With c-number amplitudes carrying no zero-point term the two sides are
    a Parseval pair; the residual is numerical noise.  The gradient is
    spectral.
    """
    a = _checked_amplitudes(a, grid)
    w = grid.omega()
    mode_energy = float(np.sum(w * np.abs(a) ** 2))
    y, pi = field_from_modes(a, grid)
    density = 0.5 * (pi**2 + _grad_sq(y, grid))
    lattice_energy = float(density.sum() * grid.dx**3)
    return abs(mode_energy - lattice_energy)


def _gradient_weights(grid):
    """|k|^2 / n^3 on the rfftn half spectrum, doubled where the dropped
    half mirrors it (every kz column but the zero and Nyquist ones)."""
    kx, ky, _ = grid.k_axes()
    kz = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    ksq = kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2
    mirror = np.full(len(kz), 2.0)
    mirror[0] = mirror[-1] = 1.0
    return ksq * mirror / grid.n**3


def _field_energy(y, pi, grid, weights):
    """dx^3 sum_x (Pi^2 + |grad Y|^2)/2, the spectral gradient term summed
    in k-space by Parseval (``weights`` from :func:`_gradient_weights`)."""
    y_k = np.fft.rfftn(y)
    grad_sq = float(np.sum(weights * (y_k.real**2 + y_k.imag**2)))
    return 0.5 * (float(np.sum(pi * pi)) + grad_sq) * grid.dx**3


def evolve_field_with_source(traj, coupling, grid, method="kspace",
                             initial_amplitudes=None, substeps=1,
                             energy_every=1):
    """Drive the lattice field with a prescribed particle trajectory.

    ``kspace`` rotates every mode exactly and accumulates the source with
    a trapezoid-in-time (second order) update; ``leapfrog`` steps Y in
    real space with a 7-point stencil Laplacian and the lattice source
    shapes.  The trajectory's grid sets the time step; the leapfrog
    enforces the CFL bound dt < dx / sqrt(3).  ``energy_every`` thins the
    leapfrog energy trace (entries in between repeat the last value).

    Returns the energy trace (bath Hamiltonian identity form) and the
    final field state.
    """
    dt_full = traj.step
    if method == "kspace":
        return _evolve_kspace(traj, coupling, grid, initial_amplitudes, substeps)
    if method == "leapfrog":
        if dt_full >= grid.dx / np.sqrt(3.0):
            raise StabilityError(
                f"CFL violation: dt = {dt_full:.3g} >= dx/sqrt(3) = "
                f"{grid.dx / np.sqrt(3.0):.3g}")
        return _evolve_leapfrog(traj, coupling, grid, initial_amplitudes,
                                energy_every)
    raise DomainError(f"unknown method {method!r}")


def _mode_coupling(coupling, grid):
    w = grid.omega()
    mask = grid.mode_mask()
    g_k = np.zeros_like(w)
    g_k[mask] = np.asarray(coupling(w[mask]), dtype=float) * np.sqrt(grid.dk**3)
    return g_k, w, mask


def lattice_memory_kernel(coupling, grid, times):
    """Memory kernel the finite mode lattice exerts on the particle.

    Per Cartesian component, gamma(t) = sum_k 2 g_k^2 w_k k_x^2 cos(w_k t)
    over the masked modes; feeding this kernel to the mean-trajectory
    solver makes particle and lattice members of the same closed system,
    so their energy exchange balances exactly (up to integration error).
    """
    from .reservoir import MemoryKernel
    g_k, w, mask = _mode_coupling(coupling, grid)
    kx = grid.k_vectors()[0]
    weights = 2.0 * (g_k[mask] ** 2) * w[mask] * kx[mask] ** 2
    times = np.asarray(times, dtype=float)
    values = np.cos(np.outer(times, w[mask])) @ weights
    return MemoryKernel(times, values)


def _evolve_kspace(traj, coupling, grid, initial_amplitudes, substeps):
    g_k, w, mask = _mode_coupling(coupling, grid)
    kx, ky, kz = grid.k_vectors()
    if initial_amplitudes is None:
        a = np.zeros((grid.n,) * 3, dtype=complex)
    else:
        a = _checked_amplitudes(initial_amplitudes, grid).copy()

    times = traj.times
    v = traj.velocities
    n_steps = len(times) - 1
    energies = np.empty(len(times))
    energies[0] = float(np.sum(w * np.abs(a) ** 2))

    wm = w[mask]
    gm = g_k[mask]
    kdot = np.stack([kx[mask], ky[mask], kz[mask]], axis=-1)
    am = a[mask]
    dt = traj.step / substeps
    theta = wm * dt
    rot = np.exp(-1j * theta)
    # trapezoid-in-time source: integral of the linear interpolant of v
    with np.errstate(invalid="ignore", divide="ignore"):
        b_new = (1.0 - (1.0 - rot) / (1j * theta)) / (1j * wm)
        b_old = (1.0 - rot) / (1j * wm) - b_new
    small = theta < 1e-6
    b_new[small] = dt / 2.0
    b_old[small] = dt / 2.0

    for i in range(n_steps):
        v0 = v[i]
        v1 = v[i + 1]
        for s in range(substeps):
            f = (substeps - s) / substeps
            f1 = (substeps - s - 1) / substeps
            va = f * v0 + (1 - f) * v1
            vb = f1 * v0 + (1 - f1) * v1
            am = rot * am + 1j * gm * (b_old * (kdot @ va) + b_new * (kdot @ vb))
        energies[i + 1] = float(np.sum(wm * np.abs(am) ** 2))
    a = np.zeros((grid.n,) * 3, dtype=complex)
    a[mask] = am
    y, pi = field_from_modes(a, grid)
    return FieldHistory(times=times.copy(), energy=energies,
                        final_y=y, final_pi=pi, final_amplitudes=a)


def _stencil_laplacian(y, dx):
    out = -6.0 * y
    for axis in range(3):
        out = out + np.roll(y, 1, axis=axis) + np.roll(y, -1, axis=axis)
    return out / (dx * dx)


def _evolve_leapfrog(traj, coupling, grid, initial_amplitudes, energy_every):
    m_field, n_field = _lattice_source_shapes(coupling, grid)
    if initial_amplitudes is None:
        y = np.zeros((grid.n,) * 3)
        pi = np.zeros_like(y)
    else:
        y, pi = field_from_modes(_checked_amplitudes(initial_amplitudes, grid), grid)
    v = traj.velocities
    acc = traj.accelerations()
    dt = traj.step
    times = traj.times
    n_steps = len(times) - 1
    weights = _gradient_weights(grid)
    energies = np.empty(len(times))
    energies[0] = _field_energy(y, pi, grid, weights)

    # W = dY/dt = Pi + 2 v . N;  staggered half-step start
    w_vel = pi + 2.0 * (n_field @ v[0])
    source0 = 2.0 * (n_field @ acc[0]) + 2.0 * (m_field @ v[0])
    w_half = w_vel + 0.5 * dt * (_stencil_laplacian(y, grid.dx) + source0)
    for i in range(n_steps):
        y = y + dt * w_half
        source = 2.0 * (n_field @ acc[i + 1]) + 2.0 * (m_field @ v[i + 1])
        accel = _stencil_laplacian(y, grid.dx) + source
        # canonical momentum at the new full step, for the energy trace
        w_full = w_half + 0.5 * dt * accel
        pi = w_full - 2.0 * (n_field @ v[i + 1])
        if (i + 1) % energy_every == 0 or i == n_steps - 1:
            energies[i + 1] = _field_energy(y, pi, grid, weights)
        else:
            energies[i + 1] = energies[i]
        w_half = w_half + dt * accel
    return FieldHistory(times=times.copy(), energy=energies,
                        final_y=y, final_pi=pi, final_amplitudes=None)


def lagrangian_density(y, y_dot, particle_velocity, shapes, grid):
    """Pointwise Lagrangian density of the sourced field (diagnostic)."""
    grad_sq = _grad_sq(y, grid)
    vn = shapes.n_field @ np.asarray(particle_velocity, dtype=float)
    vm = shapes.m_field @ np.asarray(particle_velocity, dtype=float)
    return 0.5 * y_dot**2 - 0.5 * grad_sq - 2.0 * vn * y_dot + 2.0 * vm * y


def hamiltonian_density(y, pi, particle_velocity, shapes, grid):
    """Pointwise Hamiltonian density of the sourced field (diagnostic)."""
    grad_sq = _grad_sq(y, grid)
    vn = shapes.n_field @ np.asarray(particle_velocity, dtype=float)
    vm = shapes.m_field @ np.asarray(particle_velocity, dtype=float)
    return 0.5 * (pi + 2.0 * vn) ** 2 + 0.5 * grad_sq - 2.0 * vm * y


def _grad_sq(y, grid):
    # abs keeps the unpaired Nyquist component, which the Parseval sum of
    # _field_energy counts too
    y_k = np.fft.fftn(y)
    kx, ky, kz = grid.k_vectors()
    total = 0.0
    for kc in (kx, ky, kz):
        gc = np.fft.ifftn(1j * kc * y_k)
        total = total + np.abs(gc) ** 2
    return total


SNAPSHOT_MAGIC = b"DISSIPON"


def write_snapshot(path, field, dx):
    """Flat binary snapshot: magic, dims (3 x int64), spacing (float64),
    row-major float64 payload."""
    field = np.ascontiguousarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise DomainError("snapshots hold one 3-d scalar field")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        np.asarray(field.shape, dtype=np.int64).tofile(fh)
        np.asarray([dx], dtype=np.float64).tofile(fh)
        field.tofile(fh)


def read_snapshot(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise DomainError(f"{path} is not a field snapshot")
        dims = np.fromfile(fh, dtype=np.int64, count=3)
        dx = float(np.fromfile(fh, dtype=np.float64, count=1)[0])
        payload = np.fromfile(fh, dtype=np.float64, count=int(np.prod(dims)))
    return payload.reshape(dims), dx
