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
local friction beta * x'; that constant-coefficient pair is solved by
its exact exponential (:func:`_damped_pair`), exact at any step.

Neither solver loops over time steps.  The Markov solver samples its
exact solution: each row is the exponential at a block start times the
exponential at an offset (:func:`_pair_rows`).  Every memory step is one
fixed linear map, so the memory solver propagates blocks of B steps with
a precomputed response of the block to the history known at its start.
That history is a divide-and-conquer fast convolution (Hairer, Lubich &
Schlichte), one FFT product per block, O(n log^2 n).
"""

from __future__ import annotations

import cmath
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
# row offsets per block start at which :func:`_pair_rows` evaluates the exponential
_ROW_BLOCK = 1024
# a Volterra block response stops short of a full block once an entry
# passes this, so an unstable step stays finite until the guard sees it
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


def _damped_pair(mu, omega_sq, t, upper, lower):
    """The roots s_-, s_+ of A = [[-2 mu, upper], [lower, 0]] and e^{tA}, complex.

    upper * lower = -omega_sq.  s_pm = -mu +- d, d = sqrt(mu^2 - omega_sq) the
    principal root, taken as sqrt(mu - w) sqrt(mu + w), w^2 = omega_sq, and
    s_+ = -omega_sq / (mu + d) (0 at mu = d = 0), which does not cancel where
    omega_sq << mu^2.  Putzer's form (E. J. Putzer, Amer. Math. Monthly 73
    (1966) 2), e^{tA} = e^{s_- t} I + c (A - s_- I) with c = e^{s_+ t} t psi(2dt),
    psi(x) = (1 - e^{-x}) / x, psi(0) = 1, holds through d = 0; its 0 corner is
    written e^{s_+ t} - c s_+, which is exactly 1 at omega_sq = 0.  Every entry
    is bounded by the slower mode e^{Re(s_+) t}, so the map is 0 where that has
    underflowed; elsewhere a phase Im(2dt) past the float range is a
    DomainError, and a real 2dt past it has e^{-2dt} = 0, so t psi = 1/(2d).
    The shape is (2, 2) + t's; past the float range otherwise the matrix is
    not finite, unwarned.
    """
    w = cmath.sqrt(omega_sq)
    d = cmath.sqrt(mu - w) * cmath.sqrt(mu + w)
    s_minus = -mu - d
    s_plus = -omega_sq / (mu + d) if mu + d else 0.0
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = 2.0 * d * t
        decayed = np.exp(s_plus.real * t) == 0.0
        if np.any(np.isinf(x.imag) & ~decayed):
            raise DomainError(f"the phase 2|d| t = 2 x {abs(d):.3g} x {t.max():.3g} of "
                              "the pair's exponential passes the float range")
        # psi is 1 to rounding below the smallest normal x, where NumPy's
        # complex division (by way of 1/x) would overflow
        psi = np.divide(-np.expm1(-x), x, out=np.ones_like(x),
                        where=np.abs(x) >= np.finfo(float).tiny)
        lead, slow = np.exp(s_minus * t), np.exp(s_plus * t)
        cross = slow * t * psi
        overflow = np.isinf(x)  # d != 0 there
        if overflow.any():
            cross = np.where(overflow, slow * (0.5 / d), cross)
        e_ta = np.array([[lead + cross * s_plus, cross * upper],
                         [cross * lower, slow - cross * s_plus]])
        return s_minus, s_plus, np.where(decayed, 0.0, e_ta)


def _pair_rows(mu, omega_sq, upper, lower, state, n, h):
    """Rows j < n of e^{jhA} state, A of :func:`_damped_pair`, for a real state
    of shape (2,) or (2, k); the result has shape (n,) + state's.

    Row s + r, s a multiple of _ROW_BLOCK and r below it, is
    e^{rhA} (e^{shA} state): the map is evaluated once on the offsets r h
    and once on the block starts s h, and every row comes out of one
    product, with no propagation from row to row.
    """
    size = min(_ROW_BLOCK, n)
    near = _damped_pair(mu, omega_sq, np.arange(size) * h, upper, lower)[2].real
    far = _damped_pair(mu, omega_sq, np.arange(0, n, size) * h, upper, lower)[2].real
    if not (np.isfinite(near).all() and np.isfinite(far).all()):
        raise DomainError(f"the exponential of the pair (mu, omega^2) = ({mu:.3g}, "
                          f"{omega_sq:.3g}) passes the float range")
    state = np.asarray(state, dtype=float)
    starts = np.moveaxis(far, -1, 0) @ state.reshape(2, -1)  # e^{shA} state
    rows = np.moveaxis(near, -1, 0).reshape(2 * size, 2) @ starts
    return rows.reshape(-1, *state.shape)[:n]


def _initial_state(m, k, x0, v0):
    """The rows (x0, v0) and their mechanical energy e0, checked before any step:
    an infinite e0 would leave :func:`_energy_guard` nothing to compare with."""
    state = np.array([np.broadcast_to(vec, 3) for vec in (x0, v0)], dtype=float)
    if not np.isfinite(state).all():
        raise DomainError("the initial position x0 and velocity v0 must be finite")
    with np.errstate(over="ignore"):  # checked just below
        # a free particle's position holds no energy, however far out it is
        e0 = _mechanical_energy(m, k, state[0] if k else np.zeros(3), state[1])
    if not e0 < np.inf:
        raise DomainError("the initial mechanical energy m v0^2/2 + k x0^2/2 passes "
                          "the float range")
    return state, e0


def evolve_mean_markov(m, pot, beta, x0, v0, grid):
    """Integrate m x'' + beta x' = -k x for the mean trajectory.

    Row j is the pair's exact exponential e^{jhA} on each axis' (v, x),
    A = [[-beta/m, -k/m], [1, 0]], sampled by :func:`_pair_rows`, so the
    rows are the exact solution at the grid's times, at any step, and no
    step size is unstable.
    """
    if not 0 < m < np.inf:
        raise DomainError("mass must be positive and finite")
    if not 0 <= beta < np.inf:
        raise DomainError("friction must be nonnegative and finite")
    grid, h = _check_grid(grid)
    n = len(grid)
    w2 = pot.stiffness / m
    state, _ = _initial_state(m, pot.stiffness, x0, v0)
    rows = _pair_rows(0.5 * beta / m, w2, -w2, 1.0, state[::-1], n, h)  # on (v, x)
    return Trajectory(grid, rows[:, 1], rows[:, 0])


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
    xv, e0 = _initial_state(m, pot.stiffness, x0, v0)
    state = np.vstack([xv, -pot.gradient(xv[0]) / m])
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
