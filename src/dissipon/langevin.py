"""Mean-trajectory solvers for the generalized Langevin equation.

The mean of the stochastic force vanishes in every reservoir eigenstate.
For a linear force the mean of the force is the force at the mean
position (Ehrenfest), so the mean trajectory obeys exactly the
deterministic integro-differential equation

    m x'' + integral_0^t dt' gamma(t - t') x'(t') = -k x

with a harmonic potential (k = m w^2) or a free particle (k = 0); a
nonlinear force would not close on the mean.  It is solved with a
velocity-Verlet-style step and a trapezoidal memory sum (second order
overall).  The Markovian specialisation replaces the convolution by a
local friction beta * x'.

Every step is one fixed linear map, so neither solver loops over time
steps: the Markov solver propagates blocks of rows with precomputed
powers of its 2x2 step map, and the memory solver propagates blocks of
B steps with a precomputed response of the block to the history known
at its start.  That history is a divide-and-conquer fast convolution
(Hairer, Lubich & Schlichte), one FFT product per block, O(n log^2 n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError

__all__ = ["PotentialSpec", "Trajectory", "evolve_mean_volterra", "evolve_mean_markov"]


class PotentialSpec:
    """Harmonic external potential v(x) = (1/2) k x^2 with stiffness k = m w^2.

    ``free()`` is k = 0.  The force is linear, which is what makes the mean
    equation exact (Ehrenfest) and each solver step one fixed linear map.
    """

    def __init__(self, stiffness):
        if not 0.0 <= stiffness < np.inf:
            raise DomainError(f"potential stiffness ({stiffness}) must be finite "
                              "and nonnegative")
        self.stiffness = float(stiffness)

    @classmethod
    def harmonic(cls, m, omega):
        if m is None or not 0 < m < np.inf:
            raise DomainError("harmonic potential requires a finite m > 0")
        if omega is None or not 0 <= omega < np.inf:
            raise DomainError("harmonic potential requires a finite omega >= 0")
        return cls(float(m) * float(omega) ** 2)

    @classmethod
    def free(cls):
        return cls(0.0)

    def gradient(self, x):
        return self.stiffness * np.asarray(x, dtype=float)


@dataclass
class Trajectory:
    """Positions and velocities on a uniform time grid."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.times, _ = _check_grid(self.times)
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        n = len(self.times)
        if self.positions.shape != (n, 3) or self.velocities.shape != (n, 3):
            raise DomainError("positions/velocities must be (n, 3) arrays")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))):
            raise DomainError("trajectory contains non-finite values")

    @property
    def step(self):
        return float(self.times[1] - self.times[0])

    def accelerations(self):
        """Second-order finite differences of the velocity samples.

        The grid is uniform, so the differences take its one step: weights
        built from the time array, dx1 (dx1 + dx2), underflow on a tiny step.
        """
        return np.gradient(self.velocities, self.step, axis=0)

    def mechanical_energy(self, m, omega):
        """(1/2) m v^2 + (1/2) m w^2 x^2 along the trajectory."""
        return _mechanical_energy(m, m * omega**2, self.positions, self.velocities)

    def write_csv(self, path, metadata=None):
        """The trajectory as a CSV table (see :func:`dissipon.io.emit_table`)."""
        from .io import emit_table
        emit_table(path, ["t", "x1", "x2", "x3", "v1", "v2", "v3"],
                   np.column_stack([self.times, self.positions, self.velocities]),
                   metadata=metadata)


def _check_grid(grid, name="time grid"):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError(f"{name} must be a 1-d array with at least 2 points")
    h = np.diff(grid)
    # a few ulps of the largest time: np.linspace's own rounding, not non-uniformity
    slack = 1e-10 * h[0] + 4.0 * np.spacing(np.abs(grid).max())
    if not np.all(h > 0) or not np.all(np.abs(h - h[0]) <= slack):
        raise DomainError(f"{name} must be uniform and increasing")
    return grid, float(h[0])


# the energy guard looks at rows 1, 1 + G, 1 + 2G, ...
_GUARD_EVERY = 256
# rows filled per batched product when a fixed step map is propagated
_POWER_BLOCK = 1024
# precomputed powers and block responses stop short of a full block once an
# entry passes this, so an unstable step stays finite until the guard sees it
_GROWTH_CAP = 1e30


def _mechanical_energy(m, k, x, v):
    """(1/2) m v^2 + (1/2) k x^2 of the last axis of x, v."""
    return 0.5 * m * np.sum(v * v, axis=-1) + 0.5 * k * np.sum(x * x, axis=-1)


def _energy_guard(pot, m, x, v, first, e0, label):
    """Raise if a guarded row of the block x, v (rows first, first + 1, ...)
    has gained more than 5% of the initial mechanical energy e0."""
    # beta >= 0 dynamics must not gain mechanical energy beyond discretisation
    skip = (1 - first) % _GUARD_EVERY
    if pot.stiffness == 0.0 or e0 <= 0.0 or skip >= len(x):
        return
    x, v = x[skip::_GUARD_EVERY], v[skip::_GUARD_EVERY]
    if np.any(_mechanical_energy(m, pot.stiffness, x, v) > 1.05 * e0):
        raise StabilityError(
            f"{label}: mechanical energy grew by more than 5%; reduce the step")


def _block_powers(step_map, state, n):
    """Yield (start, rows), rows[j] = S^(start + j) state, until n rows are out.

    Each block of rows is one product with the precomputed powers S^k,
    k < _POWER_BLOCK, and the jump S^_POWER_BLOCK carries the state to the
    next block.  The powers stop short of that once an entry passes
    _GROWTH_CAP, so a block stays finite for an unstable S; the caller
    checks each block before it asks for the next.
    """
    state = np.asarray(state, dtype=float)
    dim = len(step_map)
    powers = np.eye(dim)[None]
    while len(powers) < min(_POWER_BLOCK, n):
        more = powers @ (step_map @ powers[-1])  # S^k .. S^(2k-1)
        bounded = np.abs(more).max(axis=(1, 2)) <= _GROWTH_CAP
        if not bounded.all():
            powers = np.concatenate([powers, more[:np.argmin(bounded)]])
            break
        powers = np.concatenate([powers, more])
    powers = powers[:min(_POWER_BLOCK, n)]
    size = len(powers)
    jump = step_map @ powers[-1]
    stacked = powers.reshape(size * dim, dim)  # row dim * k + i holds (S^k)_i
    for start in range(0, n, size):
        rows = min(size, n - start)
        yield start, (stacked[:dim * rows] @ state).reshape(rows, *state.shape)
        if start + size < n:
            state = jump @ state


def _initial_state(*vectors):
    return np.array([np.broadcast_to(vec, 3) for vec in vectors], dtype=float)


def evolve_mean_markov(m, pot, beta, x0, v0, grid):
    """Integrate m x'' + beta x' = -k x for the mean trajectory.

    Velocity Verlet with the friction half-step folded in implicitly, so
    the scheme stays second order for any beta >= 0.  The step is one
    fixed 2x2 map on each axis' (x, v), propagated a block of rows at a
    time by :func:`_block_powers`.
    """
    if not 0 < m < np.inf:
        raise DomainError("mass must be positive and finite")
    if not 0 <= beta < np.inf:
        raise DomainError("friction must be nonnegative and finite")
    grid, h = _check_grid(grid)
    n = len(grid)
    k = pot.stiffness
    # the step applied to the unit states (x, v) = (1, 0) and (0, 1)
    x, v = np.eye(2)
    vh = v + 0.5 * h * (-k * x - beta * v) / m
    x1 = x + h * vh
    v1 = (vh - 0.5 * h * (k * x1) / m) / (1.0 + h * beta / (2.0 * m))
    state = _initial_state(x0, v0)
    e0 = _mechanical_energy(m, k, *state)
    x = np.empty((n, 3))
    v = np.empty((n, 3))
    for start, rows in _block_powers(np.array([x1, v1]), state, n):
        stop = start + len(rows)
        x[start:stop], v[start:stop] = rows[:, 0], rows[:, 1]
        _energy_guard(pot, m, x[start:stop], v[start:stop], start, e0, "markov step")
    return Trajectory(grid, x, v)


# the Volterra block size B: lags inside a block couple its outputs
# (_block_response); the samples before it reach it through the FFT
# products of evolve_mean_volterra
_DIRECT_LAGS = 64


def evolve_mean_volterra(m, pot, kernel, x0, v0, grid):
    """Integrate the full memory equation on a uniform grid.

    The kernel is read as its lags gamma(0), gamma(h), gamma(2h), ...: it
    must be sampled from t = 0 on the grid's own step h, over at least the
    grid's n points, and is not resampled.  The trapezoidal memory
    sum includes the current velocity implicitly (the term is linear, so
    the half-weight endpoint is solved for exactly), keeping the scheme
    second order.

    The history sum is the fast convolution of Hairer, Lubich & Schlichte
    (SIAM J. Sci. Stat. Comput. 6 (1985) 532) in its divide-and-conquer
    form.  Outputs are made in blocks of L rows aligned to multiples of L,
    where L is B, or less where :func:`_block_response` halves it.  When
    the block at row s >= L starts, the b = s & -s samples before it are
    added to the history of rows s .. s + b - 1 by one FFT product on 2b
    points.  A sample j and a row i > j in different blocks meet there
    exactly once: at i rounded down to a multiple of 2^k, 2^k the highest
    bit in which i and j differ, which is no later than i's own block.
    The first block's rows know only v[0].  So at a block's start the
    history of all its outputs is known except the lags inside the block,
    and the block's (x, v, a) is one linear map of the state before it and
    of that known history.  The cost is O(n log^2 n); the result is the
    same trapezoid rule up to roundoff.
    """
    if not 0 < m < np.inf:
        raise DomainError("mass must be positive and finite")
    grid, h = _check_grid(grid)
    n = len(grid)
    if not abs(kernel.step - h) <= 1e-9 * h or len(kernel.values) < n:
        raise DomainError(f"the kernel's lags must have the grid's step {h:.6g} "
                          f"and cover its {n} points")
    gam = kernel.values[:n]
    m_state, m_force = _block_response(m, pot.stiffness, h, gam)
    size = m_force.shape[1]

    # (x, v, a) before the next block; the memory integral is empty at t = 0
    state = _initial_state(x0, v0, 0.0)
    state[2] = -pot.gradient(state[0]) / m
    e0 = _mechanical_energy(m, pot.stiffness, state[0], state[1])
    x = np.empty((n, 3))
    v = np.empty((n, 3))
    x[0], v[0] = state[0], state[1]
    # far[i] = sum_j gam[i - j] v[j] over the samples j < i added so far
    far = np.zeros((n, 3))
    far[1:size] = gam[1:size, None] * v[0]
    g_hat = {}  # b -> rfft of gam[:2b] on 2b points
    for start in range(0, n, size):
        lo, hi = max(start, 1), min(start + size, n)
        if lo == hi:
            continue
        if start:
            b = start & -start
            if b not in g_hat:
                g_hat[b] = np.fft.rfft(gam[:2 * b], 2 * b)[:, None]
            conv = np.fft.irfft(np.fft.rfft(v[start - b:start], 2 * b, axis=0) * g_hat[b],
                                2 * b, axis=0)
            end = min(start + b, n)
            far[start:end] += conv[b:b + end - start]
        rows = hi - lo
        # each output's trapezoid tail over the samples before the block
        known = h * far[lo:hi] - (0.5 * h) * gam[lo:hi, None] * v[0]
        out = (m_state[:3 * rows] @ state
               + m_force[:3 * rows, :rows] @ known).reshape(rows, 3, 3)
        x[lo:hi], v[lo:hi] = out[:, 0], out[:, 1]
        state = out[-1]
        _energy_guard(pot, m, x[lo:hi], v[lo:hi], lo, e0, "volterra step")
    return Trajectory(grid, x, v)


def _block_response(m, k, h, gam):
    """A Volterra block's outputs as linear maps of what is known before it.

    Output r of a block depends on the state (x, v, a) just before the
    block and on the known part e_0..e_r of the memory tails; the lags
    inside the block couple the outputs.  Running the step recurrence once
    on unit inputs (three state columns, then one column per e_r) gives
    M_state (3L x 3) and M_force (3L x L), row 3r + c for component c of
    output r; a shorter block uses their leading rows and columns.  L is B,
    halved past the row where an entry passes _GROWTH_CAP.
    """
    size = _DIRECT_LAGS
    near = np.pad(gam, (0, max(size - len(gam), 0)))  # lags 0..B-1 at least
    conv0 = 0.5 * h * gam[0]  # implicit self-weight of the trapezoid endpoint
    damp = 1.0 + 0.5 * h * conv0 / m
    unit = np.eye(3 + size)
    x, v, a = unit[:3]
    out = np.empty((size, 3, 3 + size))
    for r in range(size):
        vh = v + 0.5 * h * a
        x = x + h * vh
        tail = unit[3 + r] + h * (near[r:0:-1] @ out[:r, 1])
        force = -k * x - tail
        v = (vh + 0.5 * h * force / m) / damp
        a = (force - conv0 * v) / m
        out[r] = x, v, a
        if np.abs(out[r]).max() > _GROWTH_CAP:
            size = 1 << (max(r, 1).bit_length() - 1)
            break
    out = out[:size, :, :3 + size].reshape(3 * size, 3 + size)
    return out[:, :3], out[:, 3:]
