"""Bath description: coupling functions, reservoir states and the memory kernel.

Units are hbar = c = K = 1 throughout, so every energy is a frequency and
the canonical coupling sqrt(3 beta / (4 pi^2 w^5)) produces exactly Ohmic
friction beta.  The kernel

    gamma(t) = (8 pi / 3) * integral_0^Lambda dw |f(w)|^2 w^5 cos(w t)

is the cosine transform of the coupling's spectral weight; convolved
against velocity (one-sided, with the convention
integral_0^inf delta(tau) g(tau) dtau = g(0)/2) it generates the friction
force, and for the canonical coupling the convolution tends to
beta * v(t) as Lambda grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonMarkovianError
from .quadrature import QuadratureConfig, integrate_oscillatory

__all__ = [
    "CouplingFunction",
    "ReservoirState",
    "MemoryKernel",
    "friction_coefficient",
    "bose_factor",
]


class CouplingFunction:
    """Scalar weight f(w) attaching each reservoir mode to the interaction.

    Either the canonical closed form (parametrised by the friction beta it
    produces) or a tabulated (w, f) grid with linear interpolation and zero
    extension outside the table.
    """

    def __init__(self, kind, *, beta=None, grid=None, values=None, uv_cutoff=None):
        self.kind = kind
        if kind == "canonical":
            if beta is None or not 0 < beta < np.inf:
                raise DomainError("canonical coupling requires a finite beta > 0")
            self.beta = float(beta)
        elif kind == "tabulated":
            grid = np.asarray(grid, dtype=float)
            values = np.asarray(values, dtype=float)
            if grid.ndim != 1 or grid.shape != values.shape:
                raise DomainError("tabulated coupling needs matching 1-d grids")
            if not np.all(np.diff(grid) > 0):
                raise DomainError("tabulated frequency grid must be strictly increasing")
            if not np.all(np.isfinite(values)):
                raise DomainError("tabulated coupling values must be finite")
            self.grid = grid
            self.values = values
            if uv_cutoff is None:
                uv_cutoff = float(grid[-1])
        else:
            raise DomainError(f"unknown coupling kind {kind!r}")
        self.uv_cutoff = None if uv_cutoff is None else float(uv_cutoff)

    @classmethod
    def canonical(cls, beta, uv_cutoff=None):
        return cls("canonical", beta=beta, uv_cutoff=uv_cutoff)

    @classmethod
    def tabulated(cls, grid, values, uv_cutoff=None):
        return cls("tabulated", grid=grid, values=values, uv_cutoff=uv_cutoff)

    @classmethod
    def zero(cls, uv_cutoff=1.0):
        return cls.tabulated([0.0, uv_cutoff], [0.0, 0.0], uv_cutoff=uv_cutoff)

    @classmethod
    def from_file(cls, path, uv_cutoff=None):
        """Load a two-column (w, f) text table; '#' starts a comment."""
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read coupling table: {exc}") from None
        rows = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(
                    f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise DomainError(
                    f"{path}:{lineno}: non-numeric entry {line!r}") from None
        if len(rows) < 2:
            raise DomainError(f"{path}: need at least two tabulated points")
        grid, values = zip(*rows)
        return cls.tabulated(grid, values, uv_cutoff=uv_cutoff)

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.kind == "canonical":
            with np.errstate(divide="ignore"):
                out = np.sqrt(3.0 * self.beta / (4.0 * np.pi**2 * omega**5))
        else:
            out = np.interp(omega, self.grid, self.values, left=0.0, right=0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def spectral_weight(self, omega):
        """|f(w)|^2 w^5, the weight entering the memory kernel."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == "canonical":
            out = np.full(omega.shape, 3.0 * self.beta / (4.0 * np.pi**2))
        else:
            out = self(omega) ** 2 * omega**5
        if out.ndim == 0 or np.isscalar(omega):
            return float(out)
        return out

    def golden_rule(self, omega):
        """The golden-rule weight (4 pi^2 / 3) |f(w)|^2 w^5; beta when canonical."""
        return 4.0 * np.pi**2 / 3.0 * self.spectral_weight(omega)

    def default_config(self, cfg=None):
        if cfg is not None:
            return cfg
        if self.uv_cutoff is None:
            raise DomainError("coupling has no UV cutoff and no config was given")
        return QuadratureConfig(uv_cutoff=self.uv_cutoff)


class ReservoirState:
    """Vacuum, a list of Fock quanta, or a thermal distribution.

    Carries what the rate formulas read: the temperature, or the quanta's
    momenta, frequencies and line-width weights; nothing operator-valued.
    """

    def __init__(self, kind, *, temperature=None, momenta=None, weights=None):
        self.kind = kind
        if kind == "vacuum":
            pass
        elif kind == "thermal":
            if temperature is None or not temperature > 0:
                raise DomainError("thermal state requires T > 0")
            self.temperature = float(temperature)
        elif kind == "fock":
            momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
            if momenta.shape[1] != 3:
                raise DomainError("fock quanta are 3-vectors")
            norms = np.linalg.norm(momenta, axis=1)
            if np.any(norms == 0):
                raise DomainError("fock momenta must be nonzero vectors")
            self.momenta = momenta
            self.frequencies = norms
            if weights is None:
                weights = np.ones(len(momenta))
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (len(momenta),):
                raise DomainError("one line-width weight per quantum is required")
        else:
            raise DomainError(f"unknown reservoir kind {kind!r}")

    @classmethod
    def vacuum(cls):
        return cls("vacuum")

    @classmethod
    def thermal(cls, temperature):
        return cls("thermal", temperature=temperature)

    @classmethod
    def fock(cls, momenta, weights=None):
        return cls("fock", momenta=momenta, weights=weights)


def bose_factor(omega, temperature):
    """Bose occupation 1/(e^(w/T) - 1), exactly 0 where w/T > 700.

    A scalar ``omega`` gives a float, an array an array.
    """
    with np.errstate(over="ignore"):  # w/T = inf is past 700 too
        x = np.asarray(omega, dtype=float) / temperature
    out = np.zeros_like(x)
    warm = x <= 700.0
    out[warm] = 1.0 / np.expm1(x[warm])
    return float(out) if out.ndim == 0 else out


# cos(w t) entries held at once by _table_cosine_transform: 32 MB of float64
_TRANSFORM_BLOCK = 1 << 22


def _table_cosine_transform(coupling, times, cfg):
    """Dense-Simpson cosine transform of the spectral weight.

    Tabulated couplings are piecewise linear, which caps what adaptive
    panels can certify; a phase- and knot-resolving fixed grid is the
    appropriate evaluator for them.  The cos(w t) matrix is built a block
    of times at a time, so its memory stays at _TRANSFORM_BLOCK entries.
    """
    lam = cfg.uv_cutoff
    t_max = max(float(times.max()), 1e-12)
    n_w = int(max(8192, 8 * lam * t_max / np.pi, 4 * len(coupling.grid)))
    n_w += n_w % 2
    w = np.linspace(cfg.ir_cutoff, lam, n_w + 1)
    weights = np.full(n_w + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= (w[1] - w[0]) / 3.0
    s = (8.0 * np.pi / 3.0) * coupling.spectral_weight(w) * weights
    out = np.empty(len(times))
    rows = max(1, _TRANSFORM_BLOCK // len(w))
    for start in range(0, len(times), rows):
        phase = np.outer(times[start:start + rows], w)
        out[start:start + rows] = np.cos(phase, out=phase) @ s
    return out


@dataclass
class MemoryKernel:
    """gamma(t) sampled on a uniform time grid; its Ohmic friction limit is
    :func:`friction_coefficient`."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise DomainError("kernel needs matching 1-d time and value arrays")
        if len(self.times) < 2 or not np.all(np.diff(self.times) > 0):
            raise DomainError("kernel time grid must be strictly increasing")

    @property
    def step(self):
        return float(self.times[1] - self.times[0])

    @classmethod
    def sample(cls, coupling, times, cfg=None):
        """Sample gamma on ``times`` (uniform grid starting at 0).

        The canonical coupling uses its closed cutoff form directly; a
        tabulated coupling goes through a dense cosine-transform panel sum.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times < 0):
            raise DomainError("the memory kernel is defined for t >= 0")
        cfg = coupling.default_config(cfg)
        lam = cfg.uv_cutoff
        if not np.isfinite(lam):
            raise DomainError("kernel sampling needs a finite UV cutoff")
        if coupling.kind == "canonical":
            beta = coupling.beta
            vals = np.empty_like(times)
            small = np.abs(times) * lam < 1e-8
            vals[small] = 2.0 * beta * lam / np.pi
            tt = times[~small]
            vals[~small] = 2.0 * beta / np.pi * np.sin(lam * tt) / tt
            return cls(times, vals)
        return cls(times, _table_cosine_transform(coupling, times, cfg))

    def at(self, t):
        return np.interp(t, self.times, self.values)

    def convolve(self, velocities):
        """Trapezoidal one-sided convolution of gamma against sampled velocity.

        ``velocities`` is sampled on this kernel's grid; returns the array
        C_n = integral_0^{t_n} gamma(t_n - s) v(s) ds.
        """
        v = np.asarray(velocities, dtype=float)
        if v.shape[0] != len(self.times):
            raise DomainError("velocity samples must match the kernel grid")
        h = self.step
        # zero-padded to 2n points, so the circular product is the linear one
        n = len(v)
        kern = np.fft.rfft(self.values, 2 * n)
        spec = np.fft.rfft(v, 2 * n, axis=0)
        full = np.fft.irfft(spec * (kern if v.ndim == 1 else kern[:, None]),
                            2 * n, axis=0)[:n]
        corr = 0.5 * (np.multiply.outer(self.values, v[0]) if v.ndim > 1
                      else self.values * v[0])
        corr = corr + 0.5 * self.values[0] * v
        return h * (full - corr)


def friction_coefficient(coupling, cfg=None):
    """Ohmic friction limit of the kernel's one-sided time integral.

    Evaluates J(T) = (8 pi / 3) * integral dw S(w) sin(w T)/w over a
    doubling sweep of T and returns the plateau; a kernel whose integral
    keeps drifting (no local friction limit) raises
    :class:`~dissipon.errors.NonMarkovianError`.
    """
    cfg = coupling.default_config(cfg)
    lam = cfg.uv_cutoff
    if not np.isfinite(lam):
        raise DomainError("the friction sweep needs a finite UV cutoff")
    pref = 8.0 * np.pi / 3.0

    def g(w):
        return pref * coupling.spectral_weight(w) / w

    # the plateau is judged at 5e-4 relative, so the per-horizon integrals
    # only need a fraction of that, well within QAWO's roundoff floor on
    # tabulated couplings
    sweep_cfg = QuadratureConfig(
        abs_tol=1e-8, rel_tol=1e-6,
        uv_cutoff=lam, ir_cutoff=max(cfg.ir_cutoff, 1e-12 * lam),
        max_subdivisions=max(cfg.max_subdivisions, 400))

    # the plateau test reads three doubling horizons; each is its own integral
    horizons = [2.0**j * 100.0 / lam for j in range(6, 9)]
    sweep = [integrate_oscillatory(g, 1.0, T, sweep_cfg, kind="sin")[0]
             for T in horizons]
    diffs = np.abs(np.diff(sweep))
    scale = max(abs(sweep[-1]), cfg.abs_tol)
    if diffs[-1] <= 5e-4 * scale and diffs[-2] <= 5e-4 * scale:
        return sweep[-1]
    raise NonMarkovianError(
        "kernel time integral shows no plateau over the horizon sweep "
        f"(last values {sweep}); the coupling is not Ohmic at zero frequency")
