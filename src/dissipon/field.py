"""Reservoir as a sourced scalar field on a finite mode lattice.

The reservoir modes double as a massless Klein-Gordon field: Y and its
conjugate momentum are mode sums over a periodic k-lattice, the particle
drives the field through static source shapes weighting its velocity and
acceleration, and the bath Hamiltonian equals the field energy
(Pi^2 + |grad Y|^2)/2 identically (a Parseval identity on the lattice).

Fields are evolved at the level of c-number mode amplitudes (coherent
expectation values); operator character never enters.  Two integrators
are provided: exact per-mode rotation in k-space with the source's
velocity interpolated linearly in time, and a trigonometric
(Gautschi-type) leapfrog with the exact-phase symbol
sigma = (2/dt)^2 sin^2(w dt/2), under which a free step rotates each mode
by exactly w dt (W. Gautschi, Numer. Math. 3 (1961) 381; M. Hochbruck and
Ch. Lubich, Numer. Math. 83 (1999) 403).  Both follow the dispersion
w = |k| of the lattice memory kernel, so the particle and either field
describe one discrete system.  The leapfrog enforces dt < dx/sqrt(3).

Both run on shells of equivalent modes, one i^2 + j^2 + l^2 of the fft
index triple (i, j, l): one |k|, one coupling, one symbol.  By linearity
every mode is a fixed combination, its basis, of its shell's state
columns, so each step costs O(shells), and the modes and fields are
rebuilt once, at the end.  Only the live columns are stepped, those
whose basis is nonzero on some masked mode: with a UV cutoff (no masked
mode on a Nyquist plane) and a field starting at rest, the 3 the particle
drives.  Each shell's states are stepped in the eigenframe of its Gram
matrix (the sum over its modes of conj(b) b^T, for the basis rows b), in
which the energy summed over the shell's modes is a weighted sum of
squares: the energy trace is one product per block of rows.  Both real
fields come from one inverse FFT of Y^ + i Pi^.
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
        k, _, _ = self.k_axes()
        return np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)

    def mode_mask(self):
        """Modes carrying dynamics: nonzero and inside the radial cutoff."""
        return self._carries_dynamics(self.omega())

    def _carries_dynamics(self, w):
        """:meth:`mode_mask` of the per-mode |k| ``w``."""
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
    y_hat, pi_hat = _field_spectra(_checked_amplitudes(a, grid), grid)
    return _real_fields(y_hat + 1j * pi_hat)


def _real_fields(spectrum):
    """(Y, Pi) on the real grid from ``spectrum`` = Y^ + i Pi^, their
    discrete Fourier transforms: both fields are real, so one inverse FFT
    has Y as its real part and Pi as its imaginary part."""
    fields = np.fft.ifftn(spectrum)
    return fields.real, fields.imag


def _field_spectra(a, grid):
    """Discrete Fourier transforms (numpy's ``fftn`` convention) of the
    fields (Y, Pi) of :func:`field_from_modes`, for checked amplitudes."""
    w = grid.omega()
    mask = grid._carries_dynamics(w)
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
    mask = grid._carries_dynamics(w)
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
    velocity; ``leapfrog`` steps Y with the exact-phase symbol and the
    lattice source shapes.  Both advance one state per shell (see the
    module docstring) and rebuild the modes and fields once, at the end.
    The trajectory's grid sets the time step.  The leapfrog's CFL bound
    dt < dx / sqrt(3) keeps w dt < pi on every mode (|k| <= sqrt(3) pi / dx),
    so sigma dt^2 = 4 sin^2(w dt/2) stays below 4, its stability edge.

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
    w = grid.omega()
    mask = grid._carries_dynamics(w)
    w = w[mask]
    position = np.argwhere(mask)  # grid order, as boolean indexing takes them
    index = np.where(position < grid.n // 2, position, position - grid.n)
    g = np.asarray(coupling(w), dtype=float) * np.sqrt(grid.dk**3)
    return _Modes(mask, index, grid.k_axes()[0][position], w, g)


def _shells(modes):
    """Each mode's shell label and each shell's first mode.  A shell is one
    exact integer i^2 + j^2 + l^2: its modes share |k|, g_k and the
    leapfrog's symbol.  Shells are labelled in increasing i^2 + j^2 + l^2."""
    key = np.sum(modes.index**2, axis=1)
    rank = np.cumsum(np.bincount(key) > 0) - 1
    label = rank[key]
    first = np.full(rank[-1] + 1, len(key))
    np.minimum.at(first, label, np.arange(len(key)))
    return label, first


def _live_columns(basis):
    """Columns of ``basis`` (one row per masked mode) that are nonzero on
    some mode; a state column against a zero basis column never reaches a
    mode, a field or the energy, so it is not stepped."""
    return np.flatnonzero(np.any(basis != 0, axis=0))


def _shell_frames(label, count, basis):
    """Each shell's Gram matrix H_s = sum_k conj(b_k) b_k^T over its modes k,
    the rows b_k of ``basis``, in its eigenframe.

    H_s is scaled to unit diagonal, D_s^-1 H_s D_s^-1 = Q_s diag(lam_s) Q_s^H,
    so that the frame's state z' = Q_s^H D_s z has sum_k |b_k . z|^2 =
    sum_i lam_si |z'_i|^2.  A column that is zero on every mode of a shell
    keeps unit scale there.  Returns lam (shells, columns), the rotation into
    the frames as (columns of z, columns of z', shells), and the rotation
    back, D_s^-1 Q_s, as (shells, columns of z, columns of z').  A real
    ``basis`` gives real frames.
    """
    cols = basis.shape[1]
    gram = np.zeros((count, cols, cols), dtype=basis.dtype)
    # one column pair at a time keeps the temporaries to one column of modes
    for i, j in zip(*np.tril_indices(cols)):  # the triangle eigh reads
        product = basis[:, i].conj() * basis[:, j]
        gram[:, i, j] = np.bincount(label, weights=product.real, minlength=count)
        if np.iscomplexobj(product):
            gram[:, i, j] += 1j * np.bincount(label, weights=product.imag, minlength=count)
    diagonal = np.diagonal(gram, axis1=1, axis2=2).real
    scale = np.sqrt(np.where(diagonal > 0.0, diagonal, 1.0))
    lam, q = np.linalg.eigh(gram / (scale[:, :, None] * scale[:, None, :]))
    return lam, q.conj().transpose(1, 2, 0) * scale.T[:, None, :], q / scale[:, :, None]


# rows of the history stepped and rotated per block: the block's states, its
# drive in the shells' frames and its energies are the only arrays of rows
# times shells
_ENERGY_BLOCK = 64


def _step_blocks(n_rows):
    """(start, stop) of each block of the rows 1, ..., n_rows - 1, each row
    one step from the row before."""
    for start in range(1, n_rows, _ENERGY_BLOCK):
        yield start, min(start + _ENERGY_BLOCK, n_rows)


def _squares(states):
    """Squares of every real number in each row of ``states``."""
    x = states.reshape(len(states), -1)
    if np.iscomplexobj(x):
        x = x.view(float)
    return x * x


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
    # a mode of shell s is a_k(n) = k . Z_s(n) + a_k(0) rot_s^n: a complex
    # 4-vector z_s = (Z_s, rot_s^n) per shell against the basis (k, a_k(0)),
    # of which only the live columns are stepped (a field at rest has no
    # a_k(0) column), in the shell's frame
    basis = np.column_stack(
        [modes.k, _initial_amplitudes(initial_amplitudes, grid)[modes.mask]])
    live = _live_columns(basis)
    basis = basis[:, live]
    lam, into, back = _shell_frames(label, len(first), basis)
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
    u = u[:, live]
    # a step's kick on state column c of shell s's frame from velocity
    # column q at its start (rows q < C of ``drive``) and its end (q >= C);
    # the states are (columns, shells)
    drive = np.concatenate([1j * g * b_old * into, 1j * g * b_new * into])
    drive = drive.reshape(2 * len(live), -1)
    weights = np.repeat((lam * w[:, None]).T.ravel(), 2)  # per real, imaginary part
    zs = np.zeros((_ENERGY_BLOCK + 1,) + into.shape[1:], dtype=complex)
    if live[-1] == 3:  # z_s(0) = (0, 1)
        zs[0] = into[-1]
    energies = np.empty(n_rows)
    energies[:1] = _squares(zs[:1]) @ weights
    turned = np.empty_like(zs[0])
    z_rows = list(zs)
    # zs[0] holds the row before the block
    for start, stop in _step_blocks(n_rows):
        m = stop - start
        block = zs[1:m + 1]
        np.matmul(np.hstack([u[start - 1:stop - 1], u[start:stop]]), drive,
                  out=block.reshape(m, -1))
        for before, z in zip(z_rows[:m], z_rows[1:m + 1]):
            np.multiply(before, rot, out=turned)
            z += turned
        energies[start:stop] = _squares(block) @ weights
        zs[0] = zs[m]
    z = np.einsum("sab,bs->sa", back, zs[0])
    a = np.zeros((grid.n,) * 3, dtype=complex)
    a[modes.mask] = np.sum(basis * z[label], axis=1)
    y_hat, pi_hat = _field_spectra(a, grid)
    y, pi = _real_fields(y_hat + 1j * pi_hat)
    return FieldHistory(times=traj.times.copy(), energy=energies,
                        final_y=y, final_pi=pi, final_amplitudes=a)


def _evolve_leapfrog(traj, coupling, grid, initial_amplitudes):
    modes = _masked_modes(coupling, grid)
    label, first = _shells(modes)
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
    a0 = _initial_amplitudes(initial_amplitudes, grid)
    if a0.any():
        y_hat0, pi_hat0 = (spectrum[modes.mask] for spectrum in _field_spectra(a0, grid))
    else:
        y_hat0 = pi_hat0 = np.zeros(len(modes.w))
    # (Y^_k, Pi^_k) = basis_k . (y_s, pi_s): a real 8-vector pair per shell,
    # each column stepped by the scalar leapfrog of the shell's symbol
    # sigma_s = (2/dt)^2 sin^2(w_s dt/2).  Columns 0-2 are driven by the
    # acceleration through N (and W - Pi = 2 v . N), 3-5 by the velocity
    # through M; 6 and 7 start at unit Y and unit Pi.  Only the live columns
    # are stepped: with a UV cutoff M vanishes, and a field at rest has no
    # columns 6 and 7.  The states are real, so the shells' frames are those
    # of the real part of the Gram matrix: the Gram matrix of the real and
    # imaginary parts of the basis.  By Parseval the energy is
    # dx^3 / (2 n^3) sum_s sum_i lam_si (pi'_si^2 + |k_s|^2 y'_si^2).
    basis = np.column_stack([2j * n3 * c_n[:, None] * k_odd,
                             2.0 * n3 * c_m[:, None] * k_nyq, y_hat0, pi_hat0])
    live = _live_columns(basis)
    basis = basis[:, live]
    lam, into, back = _shell_frames(np.concatenate([label, label]), len(first),
                                    np.concatenate([basis.real, basis.imag]))
    dt = traj.step
    sigma_dt2 = 4.0 * np.sin(0.5 * dt * modes.w[first]) ** 2
    ksq = np.sum(modes.k[first] ** 2, axis=1)
    energy_scale = 0.5 * grid.dx**3 / n3
    weights_pi = (lam * energy_scale).T.ravel()
    weights_y = (lam * (ksq * energy_scale)[:, None]).T.ravel()

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
    source, offset, y, pi = (x[:, live] for x in (source, offset, y, pi))
    # u = dt W, W = dY/dt = Pi + 2 v . N;  staggered half-step start
    kicks = dt**2 * source
    u = dt * (pi + offset[0]) + 0.5 * (kicks[0] - sigma_dt2[:, None] * y)
    # a drive common to every shell, (rows, columns), rotated into each
    # shell's frame: (rows, columns, shells)
    rotate = into.reshape(len(live), len(live) * len(first))  # no -1: none may be live
    ys, us = (np.zeros((_ENERGY_BLOCK + 1,) + into.shape[1:]) for _ in range(2))
    ys[0], us[0], pi = (np.einsum("bas,sb->as", into, x) for x in (y, u, pi))
    energies = np.empty(n_rows)
    energies[:1] = _squares(pi[None]) @ weights_pi + _squares(ys[:1]) @ weights_y
    sigma_y = np.empty_like(ys[0])
    yu_rows = list(zip(ys, us))
    # ys[0], us[0] hold Y and u after the row before the block
    for start, stop in _step_blocks(n_rows):
        m = stop - start
        np.matmul(kicks[start:stop], rotate, out=us[1:m + 1].reshape(m, -1))
        for (y_before, u_before), (y, u) in zip(yu_rows[:m], yu_rows[1:m + 1]):
            np.add(y_before, u_before, out=y)
            np.multiply(sigma_dt2, y, out=sigma_y)
            u -= sigma_y
            u += u_before
        # canonical momentum at the block's full steps, for the energy trace:
        # the mean of W over the half steps either side, less 2 v . N
        pis = (us[:m] + us[1:m + 1]) / (2.0 * dt)
        pis -= (offset[start:stop] @ rotate).reshape(pis.shape)
        energies[start:stop] = (_squares(pis) @ weights_pi
                                + _squares(ys[1:m + 1]) @ weights_y)
        ys[0], us[0], pi = ys[m], us[m], pis[-1]
    y, pi = (np.einsum("sab,bs->sa", back, x) for x in (ys[0], pi))
    spectrum = np.zeros((grid.n,) * 3, dtype=complex)
    spectrum[modes.mask] = np.sum(basis * (y + 1j * pi)[label], axis=1)
    y, pi = _real_fields(spectrum)
    return FieldHistory(times=traj.times.copy(), energy=energies,
                        final_y=y, final_pi=pi, final_amplitudes=None)


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
