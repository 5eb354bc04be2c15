"""Reservoir as a sourced scalar field on a finite mode lattice.

The reservoir modes double as a massless Klein-Gordon field: Y and its
conjugate momentum are mode sums over a periodic k-lattice, the particle
drives the field through static source shapes weighting its velocity and
acceleration, and the bath Hamiltonian equals the field energy
(Pi^2 + |grad Y|^2)/2 identically (a Parseval identity on the lattice).

Fields are evolved at the level of c-number mode amplitudes (coherent
expectation values); operator character never enters.  Two integrators
are provided: exact per-mode rotation in k-space with the source's
velocity interpolated linearly in time, and a leapfrog with a 7-point
stencil Laplacian whose stability limit dt < dx/sqrt(3) is enforced.

Both run on classes of equivalent modes, keyed by exact integers built
from the fft index triple (i, j, l): the k-space rotation per shell of one
i^2 + j^2 + l^2 (one |k|, one coupling), the leapfrog per cubic orbit of
one sorted (|i|, |j|, |l|) (also one stencil symbol).  By linearity every
mode is a fixed combination of its class's state, so each step costs
O(classes), and the modes and fields are rebuilt once, at the end.  The
discrete schemes are unchanged: the same rotation and source integral
per mode, and the same stencil leapfrog per grid point, read in Fourier
space.
"""

from __future__ import annotations

import math
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
    "write_snapshot",
    "read_snapshot",
]


@dataclass(frozen=True)
class FieldGrid:
    """Cubic k-lattice and its dual real-space grid.

    ``n`` modes per axis (a power of two), real-space spacing ``dx``; the
    box length is L = n dx, the mode spacing dk = 2 pi / L, and the radial
    UV cutoff must respect the Nyquist bound dx * cutoff < pi and reach
    the first shell, dk <= cutoff.
    """

    n: int
    dx: float
    uv_cutoff: float | None = None

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise DomainError("mode count per axis must be a power of two")
        # a complex array of n^3 points must be indexable at all
        if int(self.n) ** 3 > np.iinfo(np.intp).max // np.dtype(complex).itemsize:
            raise DomainError(f"a lattice of {self.n}^3 modes is too large to allocate")
        if not 0.0 < self.dx < np.inf:
            raise DomainError("grid spacing must be positive and finite")
        k_nyquist = math.pi / float(self.dx)
        if not 3.0 * k_nyquist * k_nyquist < math.inf:  # the corner mode's |k|^2
            raise DomainError(f"grid spacing {self.dx:.3g} is too fine: the squared "
                              "wavenumbers of its modes overflow")
        if self.uv_cutoff is None:
            return
        if self.dx * self.uv_cutoff >= np.pi:
            raise DomainError(
                f"Nyquist violation: dx * cutoff = {self.dx * self.uv_cutoff:.3g} "
                ">= pi; refine the grid or lower the cutoff")
        # the first shell's |k| as mode_mask computes it, within an ulp of dk
        if not self.uv_cutoff >= self.k_axes()[0][1]:
            raise DomainError(
                f"UV cutoff {self.uv_cutoff} is below the mode spacing dk = {self.dk:.3g}; "
                "no mode carries dynamics")

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
    if np.any(a[~grid.mode_mask()]):
        raise DomainError(
            f"modes above the UV cutoff {grid.uv_cutoff} carry no dynamics; "
            "their amplitudes must be 0")
    return a


def field_from_modes(a, grid):
    """Reconstruct (Y, Pi) on the real grid from mode amplitudes.

    Y(x)  = sum_k (2 V w_k)^(-1/2) (a_k e^{ikx} + a_k* e^{-ikx})
    Pi(x) = i sum_k (w_k / 2V)^(1/2) (a_k* e^{-ikx} - a_k e^{ikx})
    """
    y_hat, pi_hat = _field_spectra(a, grid)
    return np.real(np.fft.ifftn(y_hat)), np.real(np.fft.ifftn(pi_hat))


def _field_spectra(a, grid):
    """Discrete Fourier transforms (numpy's ``fftn`` convention) of the
    fields (Y, Pi) of :func:`field_from_modes`."""
    a = _checked_amplitudes(a, grid)
    w = grid.omega()
    mask = grid.mode_mask()
    root = np.zeros_like(w)
    root[mask] = 1.0 / np.sqrt(2.0 * grid.volume * w[mask])
    a_rev = _reverse_modes(a)
    n3 = grid.n**3
    y_hat = root * (a + np.conj(a_rev)) * n3
    pi_hat = 1j * np.where(mask, w, 0.0) * root * (np.conj(a_rev) - a) * n3
    return y_hat, pi_hat


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


# radial samples and Simpson frequency panels of the continuum source shapes
SHAPE_RADII = 1200
SHAPE_FREQUENCIES = 4000


def source_shapes(coupling, grid):
    """Velocity and acceleration source weights of the coupled field.

    The 3-d integrals reduce to spherical-Bessel (j1) radial transforms:

        M(x) = -Im S_M'(r) rhat,  S_M(r) = 4 pi int dk k^2 sqrt(k/(2(2pi)^3)) f(k) sinc(kr)
        N(x) = +Re S_N'(r) rhat,  S_N(r) = 4 pi int dk k^2 f(k)/sqrt(2(2pi)^3 k) sinc(kr)

    with S'(r) = -4 pi int dk k^3 g(k) j1(kr).  The canonical coupling
    makes the M integrand only conditionally convergent, so the coupling's
    UV cutoff is mandatory; the k grid starts at 1e-10 of it.
    """
    lam = coupling.uv_cutoff
    if lam is None or not np.isfinite(lam):
        raise DomainError(
            "source shapes need a UV cutoff; the canonical coupling integrand "
            "is only conditionally convergent")

    k = np.linspace(lam * 1e-10, lam, SHAPE_FREQUENCIES + 1)
    fk = np.asarray(coupling(k), dtype=complex)
    norm = np.sqrt(2.0 * (2.0 * np.pi) ** 3)
    gm = np.sqrt(k) * fk / norm          # M-shape weight
    gn = fk / (norm * np.sqrt(k))        # N-shape weight

    r_max = np.sqrt(3.0) * grid.box_length / 2.0 * 1.001
    r = np.linspace(0.0, r_max, SHAPE_RADII)

    # S'(r) = -4 pi int k^3 g(k) j1(k r) dk via composite Simpson over k
    wt = np.full(SHAPE_FREQUENCIES + 1, 2.0)
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
    spectral, summed in k-space by :func:`_field_energy`.
    """
    a = _checked_amplitudes(a, grid)
    mode_energy = float(np.sum(grid.omega() * np.abs(a) ** 2))
    y, pi = field_from_modes(a, grid)
    return abs(mode_energy - _field_energy(y, pi, grid, _gradient_weights(grid)))


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


def evolve_field_with_source(traj, coupling, grid, method="kspace", *,
                             initial_amplitudes=None):
    """Drive the lattice field with a prescribed particle trajectory.

    ``kspace`` rotates every mode exactly and integrates the source
    exactly over each step against the linear interpolant of the
    velocity; ``leapfrog`` steps Y with a 7-point stencil Laplacian and the
    lattice source shapes.  Both advance one state per class of equivalent
    modes (see the module docstring) and rebuild the modes and fields once,
    at the end.  The trajectory's grid sets the time step; the leapfrog
    enforces the CFL bound dt < dx / sqrt(3).

    Returns the energy trace (bath Hamiltonian identity form) at every
    time and the final field state.
    """
    if method == "kspace":
        return _evolve_kspace(traj, coupling, grid, initial_amplitudes)
    if method == "leapfrog":
        if traj.step >= grid.dx / np.sqrt(3.0):
            raise StabilityError(
                f"CFL violation: dt = {traj.step:.3g} >= dx/sqrt(3) = "
                f"{grid.dx / np.sqrt(3.0):.3g}")
        return _evolve_leapfrog(traj, coupling, grid, initial_amplitudes)
    raise DomainError(f"unknown method {method!r}")


class _Modes(NamedTuple):
    """The masked modes, flattened in grid order."""

    mask: np.ndarray   # (n, n, n) modes carrying dynamics
    index: np.ndarray  # (M, 3) integer fft indices (i, j, l)
    k: np.ndarray      # (M, 3) wave vectors
    w: np.ndarray      # |k|
    g: np.ndarray      # lattice coupling f(|k|) dk^(3/2)


def _masked_modes(coupling, grid):
    mask = grid.mode_mask()
    i = np.arange(grid.n)
    i = np.where(i < grid.n // 2, i, i - grid.n)
    index = np.stack(np.meshgrid(i, i, i, indexing="ij"), axis=-1)[mask]
    w = grid.omega()[mask]
    g = np.asarray(coupling(w), dtype=float) * np.sqrt(grid.dk**3)
    return _Modes(mask, index, np.stack(grid.k_vectors(), axis=-1)[mask], w, g)


def _classes(keys):
    """Each mode's class label and each class's first mode, for exact
    integer class keys."""
    _, first, label = np.unique(keys, return_index=True, return_inverse=True)
    return label, first


def _shells(modes):
    """Shells, one value of i^2 + j^2 + l^2: the modes share |k| and g_k."""
    return _classes(np.sum(modes.index**2, axis=1))


def _cubic_orbits(modes, n):
    """Cubic orbits, one sorted (|i|, |j|, |l|): the modes of a shell that
    also share the stencil symbol."""
    a = np.sort(np.abs(modes.index), axis=1)
    base = n // 2 + 1
    return _classes((a[:, 0] * base + a[:, 1]) * base + a[:, 2])


def _class_sums(label, count, values):
    """Sum of ``values`` (one row per mode) over each class."""
    out = np.zeros((count,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, label, values)
    return out


def _class_energies(states, gram):
    """sum_k |basis_k . s_c|^2 over the modes k of each class c, for every
    row of ``states`` (classes, rows, columns); ``gram`` holds each class's
    sum of basis_k conj(basis_k)^T.  Returns (classes, rows)."""
    return np.einsum("crj,crj->cr", states.conj(), states @ gram).real


# rows of the energy trace evaluated per batched product
_ENERGY_BLOCK = 64


def _row_blocks(n_rows):
    for start in range(0, n_rows, _ENERGY_BLOCK):
        yield np.arange(start, min(start + _ENERGY_BLOCK, n_rows))


def _initial_amplitudes(a, grid):
    if a is None:
        return np.zeros((grid.n,) * 3, dtype=complex)
    return _checked_amplitudes(a, grid)


def lattice_memory_kernel(coupling, grid, times):
    """Memory kernel the finite mode lattice exerts on the particle.

    Per Cartesian component, gamma(t) = sum_k 2 g_k^2 w_k k_x^2 cos(w_k t)
    over the masked modes, with the weights summed per shell of one |k|
    before the cosines are taken; feeding this kernel to the
    mean-trajectory solver makes particle and lattice members of the same
    closed system, so their energy exchange balances exactly (up to
    integration error).
    """
    from .reservoir import MemoryKernel
    modes = _masked_modes(coupling, grid)
    label, first = _shells(modes)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        weights = np.bincount(label, weights=2.0 * modes.g**2 * modes.w * modes.k[:, 0] ** 2)
    if not np.isfinite(weights).all():
        raise DomainError("the lattice kernel's shell weights 2 g^2 w k_x^2 overflow; "
                          "the coupling is too strong for this lattice")
    times = np.asarray(times, dtype=float)
    values = np.cos(np.outer(times, modes.w[first])) @ weights
    return MemoryKernel(times, values)


def _evolve_kspace(traj, coupling, grid, initial_amplitudes):
    modes = _masked_modes(coupling, grid)
    label, first = _shells(modes)
    # a mode of shell s is a_k(n) = k . Z_s(n) + a_k(0) rot_s^n: one complex
    # 4-vector z_s = (Z_s, rot_s^n) per shell against the basis (k, a_k(0))
    basis = np.column_stack(
        [modes.k, _initial_amplitudes(initial_amplitudes, grid)[modes.mask]])
    gram = _class_sums(label, len(first), basis[:, :, None] * basis[:, None, :].conj())
    w, g = modes.w[first], modes.g[first]
    dt = traj.step
    theta = w * dt
    rot = np.exp(-1j * theta)
    # exact integral of the rotating source against the linear interpolant of v
    with np.errstate(invalid="ignore", divide="ignore"):
        b_new = (1.0 - (1.0 - rot) / (1j * theta)) / (1j * w)
        b_old = (1.0 - rot) / (1j * w) - b_new
    small = theta < 1e-6
    b_new[small] = dt / 2.0
    b_old[small] = dt / 2.0

    n_rows = len(traj.times)
    u = np.zeros((n_rows, 4))
    u[:, :3] = traj.velocities
    kick_old = (1j * g * b_old)[:, None]
    kick_new = (1j * g * b_new)[:, None]
    rot = rot[:, None]
    z = np.zeros((len(w), 4), dtype=complex)
    z[:, 3] = 1.0
    energies = np.empty(n_rows)
    for rows in _row_blocks(n_rows):
        kicks = (kick_old * u[np.maximum(rows - 1, 0), None]
                 + kick_new * u[rows, None])
        zs = np.empty((len(w), len(rows), 4), dtype=complex)
        for j, i in enumerate(rows):
            if i:
                z = rot * z + kicks[j]
            zs[:, j] = z
        energies[rows] = w @ _class_energies(zs, gram)
    a = np.zeros((grid.n,) * 3, dtype=complex)
    a[modes.mask] = np.sum(basis * z[label], axis=1)
    y, pi = field_from_modes(a, grid)
    return FieldHistory(times=traj.times.copy(), energy=energies,
                        final_y=y, final_pi=pi, final_amplitudes=a)


def _evolve_leapfrog(traj, coupling, grid, initial_amplitudes):
    modes = _masked_modes(coupling, grid)
    label, first = _cubic_orbits(modes, grid.n)
    n3 = grid.n**3
    # The lattice source shapes
    #     M(x) = Re sum_k sqrt(w_k/2V) g_k k e^{-ikx},
    #     N(x) = Im sum_k g_k/sqrt(2V w_k) k e^{-ikx}
    # have the discrete Fourier transforms N^_k = n^3 i c_N k_odd and
    # M^_k = n^3 c_M k_nyq, with c_N = g_k / sqrt(2V w_k) and
    # c_M = g_k sqrt(w_k / 2V).  k_nyq keeps the components on a Nyquist index,
    # where k and -k alias: the sine source loses them and the cosine source
    # gains them, so M vanishes only when no masked mode sits on a Nyquist
    # plane.
    k_nyq = np.where(modes.index == -(grid.n // 2), modes.k, 0.0)
    k_odd = modes.k - k_nyq
    c_n = modes.g / np.sqrt(2.0 * grid.volume * modes.w)
    c_m = modes.g * np.sqrt(modes.w / (2.0 * grid.volume))
    y_hat0, pi_hat0 = _field_spectra(_initial_amplitudes(initial_amplitudes, grid), grid)
    # (Y^_k, Pi^_k) = basis_k . (y_o, pi_o): one real 8-vector pair per orbit,
    # each column stepped by the scalar leapfrog of the orbit's stencil symbol
    # sigma_o.  Columns 0-2 are driven by the acceleration through N (and
    # W - Pi = 2 v . N), 3-5 by the velocity through M; 6 and 7 start at unit
    # Y and unit Pi.  By Parseval the energy is
    # dx^3 / (2 n^3) sum_o (pi_o^T G_o pi_o + |k_o|^2 y_o^T G_o y_o), with G_o
    # the real part of the orbit's sum of basis_k conj(basis_k)^T (the states
    # are real).
    basis = np.column_stack([2j * n3 * c_n[:, None] * k_odd,
                             2.0 * n3 * c_m[:, None] * k_nyq,
                             y_hat0[modes.mask], pi_hat0[modes.mask]])
    gram = _class_sums(label, len(first),
                       (basis[:, :, None] * basis[:, None, :].conj()).real)
    k_first = modes.k[first]
    sigma = (4.0 / grid.dx**2) * np.sum(np.sin(0.5 * grid.dx * k_first) ** 2, axis=1)
    ksq = np.sum(k_first**2, axis=1)

    n_rows = len(traj.times)
    v = traj.velocities
    source = np.zeros((n_rows, 8))
    source[:, :3] = traj.accelerations()
    source[:, 3:6] = v
    offset = np.zeros((n_rows, 8))
    offset[:, :3] = v
    y = np.zeros((len(first), 8))
    y[:, 6] = 1.0
    pi = np.zeros_like(y)
    pi[:, 7] = 1.0
    sigma = sigma[:, None]
    dt = traj.step
    # W = dY/dt = Pi + 2 v . N;  staggered half-step start
    w_half = pi + offset[0] + 0.5 * dt * (source[0] - sigma * y)
    energies = np.empty(n_rows)
    for rows in _row_blocks(n_rows):
        ys = np.empty((len(first), len(rows), 8))
        pis = np.empty_like(ys)
        for j, i in enumerate(rows):
            if i:
                y = y + dt * w_half
                accel = source[i] - sigma * y
                # canonical momentum at the new full step, for the energy trace
                pi = w_half + 0.5 * dt * accel - offset[i]
                w_half = w_half + dt * accel
            ys[:, j] = y
            pis[:, j] = pi
        energies[rows] = (_class_energies(pis, gram).sum(axis=0)
                          + ksq @ _class_energies(ys, gram)) * (0.5 * grid.dx**3 / n3)
    fields = []
    for state in (y, pi):
        spectrum = np.zeros((grid.n,) * 3, dtype=complex)
        spectrum[modes.mask] = np.sum(basis * state[label], axis=1)
        fields.append(np.real(np.fft.ifftn(spectrum)))
    return FieldHistory(times=traj.times.copy(), energy=energies,
                        final_y=fields[0], final_pi=fields[1], final_amplitudes=None)


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
