"""Reservoir as a sourced scalar field on a finite mode lattice.

The reservoir modes double as a massless Klein-Gordon field: Y and its
conjugate momentum are mode sums over a periodic k-lattice, the particle
drives the field through static source shapes weighting its velocity and
acceleration, and the bath Hamiltonian equals the field energy
(Pi^2 + |grad Y|^2)/2 identically (a Parseval identity on the lattice).

Fields are evolved at the level of c-number mode amplitudes (coherent
expectation values); operator character never enters.  Two integrators
are provided: exact per-mode rotation in k-space with the source's
velocity interpolated linearly in time (its kicks in half angles of
theta = w dt, exact to rounding down to theta = 0), and a trigonometric
(Gautschi-type) leapfrog with the exact-phase symbol
sigma = (2/dt)^2 sin^2(w dt/2), under which a free step rotates each mode
by exactly w dt (W. Gautschi, Numer. Math. 3 (1961) 381; M. Hochbruck and
Ch. Lubich, Numer. Math. 83 (1999) 403).  Both follow the dispersion
w = |k| of the lattice memory kernel, so the particle and either field
describe one discrete system.  The leapfrog requires w dt < pi on every
masked mode: dt < dx/sqrt(3) without a UV cutoff, dt < pi/Lambda with one.

Both run on shells of equivalent modes, one i^2 + j^2 + l^2 of the fft
index triple (i, j, l): one |k|, one coupling, one symbol.  A grid builds
its masked modes, their shells and each mode's mirror -k once, as its
read-only ``geometry``, which the lattice kernel and both integrators
share.  By linearity
every mode is a fixed combination, its basis, of its shell's state
columns, so each step costs O(shells), and the modes and fields are
rebuilt once, at the end.  Only the live columns are stepped, those
whose basis is nonzero on some masked mode: with a UV cutoff (no masked
mode on a Nyquist plane) and a field starting at rest, the 3 the particle
drives.  Each shell's states are stepped in the eigenframe of its Gram
matrix (the sum over its modes of conj(b) b^T, for the basis rows b), in
which the energy summed over the shell's modes is a weighted sum of
squares: the energy trace is one product per block of rows.  Both step
one complex state per column by the same rotation e^{-i w dt}: the mode
amplitude, and for the leapfrog z = Pi - i w~ Y at full steps, with
w~ = sin(w dt)/dt.  Both real fields come from one inverse FFT of
Y^ + i Pi^, whose spectra are formed on the masked modes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, StabilityError
from .reservoir import _TRANSFORM_BLOCK, MemoryKernel, _tau_minus_sin

__all__ = [
    "FieldGrid",
    "FieldHistory",
    "field_from_modes",
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
        with np.errstate(over="ignore"):  # with both finite, every |k|^2 is a normal float
            volume, density = np.float64(self.box_length) ** 3, np.float64(self.dk) ** 3
        if not density < np.inf:
            raise DomainError(f"grid spacing {self.dx:.3g} is too fine: the mode density "
                              f"dk^3 of its box n dx = {self.box_length:.3g} overflows")
        if not volume < np.inf:
            raise DomainError(f"grid spacing {self.dx:.3g} is too coarse: the volume "
                              f"(n dx)^3 of its box n dx = {self.box_length:.3g} overflows")
        if self.uv_cutoff is None:
            return
        # the first shell's |k| as the geometry computes it, within an ulp of dk
        k_first = float(self.k_axes()[0][1])
        if self.dx * self.uv_cutoff >= np.pi:
            raise DomainError(
                f"Nyquist violation: dx * cutoff = {self.dx * self.uv_cutoff:.3g} "
                ">= pi; refine the grid or lower the cutoff")
        if not self.uv_cutoff >= k_first:
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

    def omega(self):
        """|k| per mode (zero at the zero mode; mask before dividing)."""
        k, _, _ = self.k_axes()
        return np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)

    def mode_mask(self):
        """Modes carrying dynamics: nonzero and inside the radial cutoff."""
        return self.geometry.mask.copy()

    @cached_property
    def geometry(self):
        """The masked modes and their shells (:class:`_Geometry`), built once
        per grid; its arrays are read-only."""
        w = self.omega()
        mask = w > 0
        if self.uv_cutoff is not None:
            mask &= w <= self.uv_cutoff
        position = np.argwhere(mask)  # grid order, as boolean indexing takes them
        index = np.where(position < self.n // 2, position, position - self.n)
        key = np.sum(index**2, axis=1)
        rank = np.cumsum(np.bincount(key) > 0) - 1
        label = rank[key]
        first = np.full(rank[-1] + 1, len(key))
        np.minimum.at(first, label, np.arange(len(key)))
        mirror = np.ravel_multi_index((-position % self.n).T, mask.shape)
        geometry = _Geometry(mask, index, self.k_axes()[0][position], w[mask],
                             label, first, mirror)
        for array in geometry:
            array.flags.writeable = False
        return geometry


class _Geometry(NamedTuple):
    """A grid's masked modes in grid order and their shells, labelled in increasing
    i^2 + j^2 + l^2 of the fft index triple: one |k|, one g_k, one symbol each."""

    mask: np.ndarray    # (n, n, n) modes carrying dynamics
    index: np.ndarray   # (M, 3) integer fft indices (i, j, l)
    k: np.ndarray       # (M, 3) wave vectors
    w: np.ndarray       # |k|
    label: np.ndarray   # each mode's shell
    first: np.ndarray   # each shell's first mode
    mirror: np.ndarray  # flat grid index of each mode's -k


def _checked_amplitudes(a, grid):
    a = np.asarray(a, dtype=complex)
    if a.shape != (grid.n, grid.n, grid.n):
        raise DomainError(f"amplitudes must have shape {(grid.n,) * 3}")
    if abs(a[0, 0, 0]) != 0.0:
        raise DomainError("the zero mode carries no dynamics; its amplitude must be 0")
    if np.any(a[~grid.geometry.mask]):
        raise DomainError(
            f"modes above the UV cutoff {grid.uv_cutoff} carry no dynamics; "
            "their amplitudes must be 0")
    return a


def field_from_modes(a, grid):
    """Reconstruct (Y, Pi) on the real grid from mode amplitudes.

    Y(x)  = sum_k (2 V w_k)^(-1/2) (a_k e^{ikx} + a_k* e^{-ikx})
    Pi(x) = i sum_k (w_k / 2V)^(1/2) (a_k* e^{-ikx} - a_k e^{ikx})
    """
    y_hat, pi_hat = _mode_spectra(_checked_amplitudes(a, grid), grid)
    return _real_fields(y_hat + 1j * pi_hat, grid)


def _real_fields(spectrum, grid):
    """(Y, Pi) on the real grid from ``spectrum`` = Y^ + i Pi^ at the masked
    modes (zero elsewhere): both fields are real, so one inverse FFT has Y
    as its real part and Pi as its imaginary part."""
    full = np.zeros((grid.n,) * 3, dtype=complex)
    full[grid.geometry.mask] = spectrum
    fields = np.fft.ifftn(full)
    return fields.real, fields.imag


def _mode_spectra(a, grid):
    """Discrete Fourier transforms (numpy's ``fftn`` convention) of the fields
    (Y, Pi) of :func:`field_from_modes` at the masked modes, for checked
    amplitudes: Y^_k = n^3 r_k (a_k + conj(a_-k)) and
    Pi^_k = i n^3 w_k r_k (conj(a_-k) - a_k), with r_k = (2 V w_k)^(-1/2)."""
    geo = grid.geometry
    a_k = a[geo.mask]
    a_rev = np.conj(a.ravel()[geo.mirror])
    root = 1.0 / np.sqrt(2.0 * grid.volume * geo.w)
    n3 = grid.n**3
    return root * (a_k + a_rev) * n3, 1j * geo.w * root * (a_rev - a_k) * n3


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
    The trajectory's grid sets the time step.  The leapfrog needs
    w dt < pi on every masked mode, so that w~ = sin(w dt)/dt, by which its
    state z = Pi - i w~ Y scales Y, stays positive: dt < dx / sqrt(3)
    without a UV cutoff (|k| <= sqrt(3) pi / dx), dt < pi / Lambda with one.

    Returns the energy trace (bath Hamiltonian identity form) at every
    time and the final field state.
    """
    if method == "kspace":
        return _evolve_kspace(traj, coupling, grid, initial_amplitudes)
    if method == "leapfrog":
        phase = float(grid.geometry.w.max()) * traj.step
        if not phase < np.pi:
            raise StabilityError(
                f"CFL violation: the fastest masked mode turns by w dt = {phase:.6g} "
                f">= pi per step of dt = {traj.step:.3g}")
        return _evolve_leapfrog(traj, coupling, grid, initial_amplitudes)
    raise DomainError(f"unknown method {method!r}")


def _masked_modes(coupling, grid):
    """The grid's :attr:`~FieldGrid.geometry` and the lattice coupling
    g_k = f(|k|) dk^(3/2) of each masked mode."""
    geo = grid.geometry
    f = np.asarray(coupling(geo.w), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        g = f * np.sqrt(grid.dk**3)
    if not np.isfinite(g).all():
        raise DomainError("the lattice coupling f(|k|) dk^(3/2) is not finite on this lattice")
    return geo, g


def _live_basis(columns, modes):
    """The ``columns`` (one value per masked mode each) that are nonzero on
    some mode, stacked as a basis, and their positions.  A state column
    against a zero basis column never reaches a mode, a field or the energy,
    so it is not stepped; real columns give a real basis."""
    live = [i for i, column in enumerate(columns) if column.any()]
    basis = np.stack([columns[i] for i in live], axis=1) if live else np.zeros((modes, 0))
    return basis, live


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


def lattice_memory_kernel(coupling, grid, times):
    """Memory kernel the finite mode lattice exerts on the particle.

    Per Cartesian component, gamma(t) = sum_k 2 g_k^2 w_k k_x^2 cos(w_k t)
    over the masked modes, with the weights summed per shell of one |k|
    before the cosines are taken; feeding this kernel to the
    mean-trajectory solver makes particle and lattice members of the same
    closed system, so their energy exchange balances exactly (up to
    integration error).
    """
    geo, g = _masked_modes(coupling, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        weights = np.bincount(geo.label, weights=2.0 * g**2 * geo.w * geo.k[:, 0] ** 2)
    if not np.isfinite(weights).all():
        raise DomainError("the lattice kernel's shell weights 2 g^2 w k_x^2 overflow; "
                          "the coupling is too strong for this lattice")
    kernel = MemoryKernel(times, np.empty(np.shape(times)))
    w = geo.w[geo.first]
    # the (times, shells) cosines are held a block of times at a time
    rows = max(1, _TRANSFORM_BLOCK // len(w))
    for start in range(0, len(kernel.times), rows):
        phases = np.outer(kernel.times[start:start + rows], w)
        kernel.values[start:start + rows] = np.cos(phases, out=phases) @ weights
    return kernel


def _rotate_shells(z0, rot, ends, drive, weights):
    """Step the shells' states z, (columns, shells), along the rows of ``ends``:

        z_r = rot z_(r-1) + [e_(r-1), e_r] . drive,   z_0 = ``z0``,

    with e_r the r-th (real) row of ``ends``, each shell turned by its
    ``rot``, and ``drive`` mapping a pair of rows to the flattened states.
    The energy of a row is the sum of the squares of its states' real and
    imaginary parts, weighted by ``weights``.  Returns the last row's states
    and the energy of every row.
    """
    n_rows = len(ends)
    zs = np.zeros((_ENERGY_BLOCK + 1,) + z0.shape, dtype=complex)
    zs[0] = z0
    # the real and imaginary parts of each row's states: real rows times the
    # drive's parts are the parts of their kicks
    parts = zs.reshape(_ENERGY_BLOCK + 1, z0.size).view(float)
    kicks = drive.view(float)
    pairs = np.hstack([ends[:-1], ends[1:]])
    squares = np.empty((_ENERGY_BLOCK, parts.shape[1]))
    energies = np.empty(n_rows)
    np.multiply(parts[:1], parts[:1], squares[:1])
    energies[:1] = squares[:1] @ weights
    turned = np.empty_like(zs[0])
    z_rows = list(zs)
    # zs[0] holds the row before the block
    for start in range(1, n_rows, _ENERGY_BLOCK):
        stop = min(start + _ENERGY_BLOCK, n_rows)
        m = stop - start
        np.matmul(pairs[start - 1:stop - 1], kicks, parts[1:m + 1])
        for before, z in zip(z_rows[:m], z_rows[1:m + 1]):
            np.multiply(before, rot, turned)
            np.add(z, turned, z)
        np.multiply(parts[1:m + 1], parts[1:m + 1], squares[:m])
        energies[start:stop] = squares[:m] @ weights
        zs[0] = zs[m]
    return zs[0], energies


def _evolve_kspace(traj, coupling, grid, initial_amplitudes):
    geo, g_k = _masked_modes(coupling, grid)
    label, first = geo.label, geo.first
    # a mode of shell s is a_k(n) = k . Z_s(n) + a_k(0) rot_s^n: a complex
    # 4-vector z_s = (Z_s, rot_s^n) per shell against the basis (k, a_k(0)),
    # of which only the live columns are stepped (a field at rest has no
    # a_k(0) column, and a real basis), in the shell's frame
    columns = list(geo.k.T)
    if initial_amplitudes is not None:
        columns.append(_checked_amplitudes(initial_amplitudes, grid)[geo.mask])
    basis, live = _live_basis(columns, len(label))
    lam, into, back = _shell_frames(label, len(first), basis)
    w, g = geo.w[first], g_k[first]
    dt = traj.step
    theta = w * dt
    rot = np.exp(-1j * theta)
    # exact integral of the rotating source against the linear interpolant of
    # v, in half angles of theta so that nothing cancels; both are dt/2 at 0
    sinc = np.sinc(theta / (2.0 * np.pi))  # sin(theta/2) / (theta/2)
    inverse = np.divide(1.0, theta, out=np.zeros_like(theta), where=theta > 0)
    b_new = dt * (0.5 * sinc * sinc - 1j * _tau_minus_sin(theta) * inverse * inverse)
    b_old = dt * np.exp(-0.5j * theta) * sinc - b_new

    u = np.zeros((len(traj.times), 4))
    u[:, :3] = traj.velocities
    # a step's kick on state column c of shell s's frame from velocity
    # column q at its start (rows q < C of ``drive``) and its end (q >= C);
    # the states are (columns, shells)
    drive = np.concatenate([1j * g * b_old * into, 1j * g * b_new * into])
    drive = drive.reshape(2 * len(live), len(live) * len(first))
    weights = np.repeat((lam * w[:, None]).T.ravel(), 2)  # per real, imaginary part
    z0 = np.zeros(into.shape[1:], dtype=complex)
    if live[-1] == 3:  # z_s(0) = (0, 1)
        z0[:] = into[-1]
    z, energies = _rotate_shells(z0, rot, u[:, live], drive, weights)
    z = np.einsum("sab,bs->sa", back, z)
    a = np.zeros((grid.n,) * 3, dtype=complex)
    a[geo.mask] = np.sum(basis * z[label], axis=1)
    y_hat, pi_hat = _mode_spectra(a, grid)
    y, pi = _real_fields(y_hat + 1j * pi_hat, grid)
    return FieldHistory(times=traj.times.copy(), energy=energies,
                        final_y=y, final_pi=pi, final_amplitudes=a)


def _evolve_leapfrog(traj, coupling, grid, initial_amplitudes):
    geo, g = _masked_modes(coupling, grid)
    label, first = geo.label, geo.first
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
    k_nyq = np.where(geo.index == -(grid.n // 2), geo.k, 0.0)
    k_odd = geo.k - k_nyq
    c_n = g / np.sqrt(2.0 * grid.volume * geo.w)
    c_m = g * np.sqrt(geo.w / (2.0 * grid.volume))
    # (Y^_k, Pi^_k) = basis_k . (Y_s, Pi_s): a real 8-vector pair per shell.
    # Columns 0-2 are driven by the acceleration through N (and W - Pi =
    # 2 v . N), 3-5 by the velocity through M; 6 and 7 start at unit Y and
    # unit Pi.  Only the live columns are stepped: with a UV cutoff M
    # vanishes, and a field at rest has no columns 6 and 7.  Y and Pi are
    # real, so the shells' frames are those of the real part of the Gram
    # matrix: the Gram matrix of the real and imaginary parts of the basis.
    # At full steps a column's Pi (the mean of W = dY/dt over the half steps
    # either side, less 2 v . N) and Y make z = Pi - i w~ Y, w~ = sin(w dt)/dt,
    # and the leapfrog of the symbol (2/dt)^2 sin^2(w dt/2) is exactly
    #     z_r = rot z_(r-1) + rot (q_(r-1) + o_(r-1)) + q_r - o_r,
    # with q = dt S / 2 for the source S and o = 2 v . N.  By Parseval the
    # energy is dx^3 / (2 n^3) sum_s sum_i lam_si (Pi'_si^2 + w_s^2 Y'_si^2).
    columns = [2j * n3 * c_n * k for k in k_odd.T] + [2.0 * n3 * c_m * k for k in k_nyq.T]
    if initial_amplitudes is not None:
        columns += _mode_spectra(_checked_amplitudes(initial_amplitudes, grid), grid)
    basis, live = _live_basis(columns, len(label))
    lam, into, back = _shell_frames(np.concatenate([label, label]), len(first),
                                    np.concatenate([basis.real, basis.imag]))
    cols, shells = len(live), len(first)
    dt = traj.step
    w = geo.w[first]
    w_tilde = np.sin(w * dt) / dt
    rot = np.exp(-1j * w * dt)
    ends = np.zeros((len(traj.times), 2, 8))  # the rows (q, o)
    ends[:, 0, :3] = 0.5 * dt * traj.accelerations()
    ends[:, 0, 3:6] = 0.5 * dt * traj.velocities
    ends[:, 1, :3] = traj.velocities
    ends = ends[:, :, live].reshape(len(traj.times), 2 * cols)
    # rotated into each shell's frame, (columns, shells) per row; no -1:
    # none may be live
    drive = np.concatenate([rot * into, rot * into, into, -into])
    drive = drive.reshape(4 * cols, cols * shells)
    weights = np.stack([lam.T, (lam * ((w / w_tilde) ** 2)[:, None]).T], axis=-1)
    weights = weights.ravel() * (0.5 * grid.dx**3 / n3)  # per Re z, Im z
    start = np.zeros((shells, 8), dtype=complex)
    start[:, 6] = -1j * w_tilde  # unit Y
    start[:, 7] = 1.0            # unit Pi
    z, energies = _rotate_shells(np.einsum("bas,sb->as", into, start[:, live]), rot,
                                 ends, drive, weights)
    y, pi = (np.einsum("sab,bs->sa", back, x) for x in (-z.imag / w_tilde, z.real))
    y, pi = _real_fields(np.sum(basis * (y + 1j * pi)[label], axis=1), grid)
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
