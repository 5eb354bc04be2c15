"""Mean-trajectory solvers for the generalized Langevin equation.

The mean of the stochastic force vanishes in every reservoir eigenstate,
so the mean trajectory obeys the deterministic integro-differential
equation

    m x'' + integral_0^t dt' gamma(t - t') x'(t') = -grad v(x)

solved here with a velocity-Verlet-style step and a trapezoidal memory
sum (second order overall).  The Markovian specialisation replaces the
convolution by a local friction beta * x'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError

__all__ = ["PotentialSpec", "Trajectory", "evolve_mean_volterra", "evolve_mean_markov"]


class PotentialSpec:
    """External potential: harmonic (1/2 m w^2 x^2) or a custom gradient."""

    def __init__(self, kind, *, m=None, omega=None, gradient=None):
        self.kind = kind
        if kind == "harmonic":
            if m is None or m <= 0:
                raise DomainError("harmonic potential requires m > 0")
            if omega is None or omega < 0:
                raise DomainError("harmonic potential requires omega >= 0")
            self.m = float(m)
            self.omega = float(omega)
        elif kind == "custom":
            if gradient is None:
                raise DomainError("custom potential requires a gradient callable")
            self._gradient = gradient
        else:
            raise DomainError(f"unknown potential kind {kind!r}")

    @classmethod
    def harmonic(cls, m, omega):
        return cls("harmonic", m=m, omega=omega)

    @classmethod
    def free(cls):
        return cls("custom", gradient=lambda x: np.zeros(3))

    @classmethod
    def custom(cls, gradient):
        return cls("custom", gradient=gradient)

    def gradient(self, x):
        if self.kind == "harmonic":
            return self.m * self.omega**2 * np.asarray(x, dtype=float)
        return np.asarray(self._gradient(x), dtype=float)


@dataclass
class Trajectory:
    """Positions and velocities on a uniform time grid."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        n = len(self.times)
        if not np.all(np.diff(self.times) > 0):
            raise DomainError("trajectory grid must be strictly increasing")
        if self.positions.shape != (n, 3) or self.velocities.shape != (n, 3):
            raise DomainError("positions/velocities must be (n, 3) arrays")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))):
            raise DomainError("trajectory contains non-finite values")

    @property
    def step(self):
        return float(self.times[1] - self.times[0])

    def accelerations(self):
        """Second-order finite differences of the velocity samples."""
        return np.gradient(self.velocities, self.times, axis=0)

    def mechanical_energy(self, m, omega):
        """(1/2) m v^2 + (1/2) m w^2 x^2 along the trajectory."""
        kin = 0.5 * m * np.sum(self.velocities**2, axis=1)
        pot = 0.5 * m * omega**2 * np.sum(self.positions**2, axis=1)
        return kin + pot

    def write_csv(self, path):
        from .io import emit_table
        rows = (
            (self.times[i], *self.positions[i], *self.velocities[i])
            for i in range(len(self.times))
        )
        emit_table(path, ["t", "x1", "x2", "x3", "v1", "v2", "v3"], rows)


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError("time grid must be a 1-d array with at least 2 points")
    h = np.diff(grid)
    if not np.all(h > 0) or not np.allclose(h, h[0], rtol=1e-10, atol=0.0):
        raise DomainError("time grid must be uniform and increasing")
    return grid, float(h[0])


def _energy_guard(pot, m, x, v, e0, label):
    # beta >= 0 dynamics must not gain mechanical energy beyond discretisation
    if pot.kind != "harmonic" or e0 <= 0.0:
        return
    e = 0.5 * m * v @ v + 0.5 * pot.m * pot.omega**2 * (x @ x)
    if e > 1.05 * e0:
        raise StabilityError(
            f"{label}: mechanical energy grew by more than 5%; reduce the step")


def evolve_mean_markov(m, pot, beta, x0, v0, grid):
    """Integrate m x'' + beta x' = -grad v for the mean trajectory.

    Velocity Verlet with the friction half-step folded in implicitly, so
    the scheme stays second order for any beta >= 0.
    """
    if m <= 0:
        raise DomainError("mass must be positive")
    if beta < 0:
        raise DomainError("friction must be nonnegative")
    grid, h = _check_grid(grid)
    n = len(grid)
    x = np.empty((n, 3))
    v = np.empty((n, 3))
    x[0] = np.asarray(x0, dtype=float)
    v[0] = np.asarray(v0, dtype=float)
    e0 = 0.5 * m * v[0] @ v[0] + (
        0.5 * pot.m * pot.omega**2 * (x[0] @ x[0]) if pot.kind == "harmonic" else 0.0)
    damp = 1.0 + h * beta / (2.0 * m)
    f = -pot.gradient(x[0]) - beta * v[0]
    for i in range(n - 1):
        vh = v[i] + 0.5 * h * f / m
        x[i + 1] = x[i] + h * vh
        grad = pot.gradient(x[i + 1])
        v[i + 1] = (vh - 0.5 * h * grad / m) / damp
        f = -grad - beta * v[i + 1]
        if i % 256 == 0:
            _energy_guard(pot, m, x[i + 1], v[i + 1], e0, "markov step")
    return Trajectory(grid, x, v)


# lags below this are summed directly at every step; longer lags go through
# the blocked FFT convolution of evolve_mean_volterra
_DIRECT_LAGS = 64


def evolve_mean_volterra(m, pot, kernel, x0, v0, grid):
    """Integrate the full memory equation on a uniform grid.

    The kernel must be sampled at least as finely as the grid; it is
    resampled onto the step offsets internally.  The trapezoidal memory
    sum includes the current velocity implicitly (the term is linear, so
    the half-weight endpoint is solved for exactly), keeping the scheme
    second order.

    The history sum runs as an online blocked convolution (Hairer, Lubich
    & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): lags below a
    fixed block B are summed directly at each step, and each dyadic lag
    band [b, 2b), b = B, 2B, 4B, ..., adds its share to the next b outputs
    through one FFT product every b steps, using velocities already known.
    The cost is O(n log^2 n); the result is the same trapezoid rule up to
    roundoff.
    """
    if m <= 0:
        raise DomainError("mass must be positive")
    grid, h = _check_grid(grid)
    if kernel.step > h * (1.0 + 1e-9):
        raise DomainError("kernel must be sampled at least as finely as the grid")
    if grid[-1] - grid[0] > kernel.times[-1] + 1e-12:
        raise DomainError("kernel samples do not cover the integration window")
    n = len(grid)
    offsets = np.arange(n) * h
    gam = kernel.at(offsets)
    history = _BlockedHistory(gam)

    x = np.empty((n, 3))
    v = np.empty((n, 3))
    x[0] = np.asarray(x0, dtype=float)
    v[0] = np.asarray(v0, dtype=float)
    e0 = 0.5 * m * v[0] @ v[0] + (
        0.5 * pot.m * pot.omega**2 * (x[0] @ x[0]) if pot.kind == "harmonic" else 0.0)
    conv0 = 0.5 * h * gam[0]  # implicit self-weight of the trapezoid endpoint
    damp = 1.0 + 0.5 * h * conv0 / m

    a = -pot.gradient(x[0]) / m  # the memory integral is empty at t = 0
    for i in range(n - 1):
        vh = v[i] + 0.5 * h * a
        x[i + 1] = x[i] + h * vh
        # trapezoid over past samples v_0..v_i for the force at t_{i+1}
        tail = h * history.lagged_sum(v, i + 1) - (0.5 * h * gam[i + 1]) * v[0]
        force = -pot.gradient(x[i + 1]) - tail
        v[i + 1] = (vh + 0.5 * h * force / m) / damp
        a = (force - conv0 * v[i + 1]) / m
        if i % 256 == 0:
            _energy_guard(pot, m, x[i + 1], v[i + 1], e0, "volterra step")
    return Trajectory(grid, x, v)


class _BlockedHistory:
    """sum_{l=1}^{i} gam[l] v[i-l] for i = 1, 2, ... as v fills in order.

    Lags 1..B-1 are a direct dot product per output.  The lags [b, 2b) of
    outputs [s, s+b), s a multiple of b, only touch v[s-2b+1 .. s-1], so
    they are added to a far-history buffer by one FFT product when output
    s is first asked for; each band's kernel transform is taken once.
    """

    def __init__(self, gam):
        self.n = len(gam)
        short = max(_DIRECT_LAGS - self.n, 0)
        self.near = np.pad(gam, (0, short))[_DIRECT_LAGS - 1:0:-1]  # lags B-1 .. 1
        self.far = np.zeros((self.n, 3))
        self.bands = []  # (b, rfft of gam[b:2b] on 2b points)
        b = _DIRECT_LAGS
        while b < self.n:
            self.bands.append((b, np.fft.rfft(gam[b:2 * b], 2 * b)[:, None]))
            b *= 2

    def lagged_sum(self, v, i):
        """The sum for output i; v[0..i-1] must be final."""
        for b, g_hat in self.bands:
            if i % b:
                break  # bands are dyadic: no larger b divides i either
            lo = i - 2 * b + 1
            seg = v[max(lo, 0):i]
            conv = np.fft.irfft(np.fft.rfft(seg, 2 * b, axis=0) * g_hat, 2 * b, axis=0)
            # the linear convolution index r + b - 1 of output i + r, shifted
            # by the zeros the clipped segment omits before v[0]
            shift = b - 1 - max(-lo, 0)
            hi = min(i + b, self.n)
            self.far[i:hi] += conv[shift:shift + hi - i]
        lo = i - _DIRECT_LAGS + 1
        if lo >= 0:
            return self.far[i] + self.near @ v[lo:i]
        return self.far[i] + self.near[-lo:] @ v[:i]
