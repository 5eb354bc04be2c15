"""Dissipative two-level system: decay constant, level shifts, Bloch dynamics.

In the Markovian regime the population obeys

    d<s_z>/dt = -2 mu (1 + <s_z>),      mu = (4 pi^2 w0^6 / 3) |f(w0)|^2 |x12|^2,

so an excited state decays to the ground state at rate 2 mu and the ground
state is an exact fixed point.  The coherence quadratures F = <s + s^dag>
and E = <s^dag - s> close among themselves,

    dF/dt = i Gamma E - 2 mu F,     dE/dt = i w0 F,
    Gamma = w0 - 2 D2 - 2 D1,

with the reservoir-induced shifts D1 (principal value across w0) and D2.
Both shifts are infrared-log-divergent for the canonical coupling, so the
infrared cutoff is a mandatory, explicit parameter.  Each is one prefactor
times ``reservoir``'s principal value of |f|^2 w^4, for either coupling:
logarithms for the canonical one, exact panel sums for a table.

The characteristic frequencies used for the closed form are the exact
roots of that linear pair,

    Omega_pm = i mu +- i sqrt(mu^2 - w0 Gamma),

so in the oscillatory regime w0 Gamma > mu^2 both roots share the
imaginary part mu and the coherence envelope decays at exactly that rate
(flipping the radicand sign would break both the equations of motion and
the free mu = 0 oscillation, so it is fixed by the characteristic
equation).

A unit dipole, |x12|^2 = 1, gives the bare constant (4 pi^2 w0^6 / 3) |f(w0)|^2.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, StabilityError
from .langevin import _block_powers, _check_grid
from .reservoir import _principal_value

__all__ = [
    "TwoLevelParams",
    "BlochState",
    "BlochHistory",
    "LevelShifts",
    "CoherenceSpectrum",
    "decay_rate_mu",
    "level_shifts",
    "coherence_frequencies",
    "sigma_z_evolution",
    "coherence_evolution",
    "evolve_bloch_markov",
]


@dataclass(frozen=True)
class TwoLevelParams:
    """Level splitting w0 = E2 - E1, dipole matrix element x12, bath coupling."""

    omega0: float
    x12: tuple
    coupling: object

    def __post_init__(self):
        if not self.omega0 > 0:
            raise DomainError("the level splitting must be positive")
        x = np.asarray(self.x12, dtype=float)
        if x.shape != (3,):
            raise DomainError("x12 must be a 3-vector")
        object.__setattr__(self, "x12", tuple(float(v) for v in x))

    @property
    def x12_sq(self):
        x = np.asarray(self.x12)
        return float(x @ x)


@dataclass
class BlochState:
    """Population inversion plus the two real coherence quadratures.

    ``f`` is <s + s^dag> (real for physical states); ``e_im`` is the
    imaginary-part bookkeeping of <s^dag - s> = i * e_im.
    """

    sz: float
    f: float = 0.0
    e_im: float = 0.0

    def __post_init__(self):
        if not abs(self.sz) <= 1.0 + 1e-9:
            raise DomainError("|<s_z>| cannot exceed 1")
        if not abs(self.f) < np.inf:
            raise DomainError("<s + s^dag> must be finite")


class BlochHistory(NamedTuple):
    times: np.ndarray
    sz: np.ndarray
    f: np.ndarray
    e_im: np.ndarray


def decay_rate_mu(p):
    """Population decay constant mu.

    mu = (4 pi^2 w0^6 / 3) |f(w0)|^2 |x12|^2; the canonical coupling gives
    beta w0 |x12|^2.
    """
    return p.omega0 * p.coupling.golden_rule(p.omega0) * p.x12_sq


class LevelShifts(NamedTuple):
    delta1: float
    delta2: float
    ir_cutoff: float
    uv_cutoff: float


def level_shifts(p, cfg):
    """Reservoir-induced shifts (D1, D2), reported with their cutoffs.

    D1 = pref * PV int dw |f|^2 w^4 / (w - w0),
    D2 = pref * int dw |f|^2 w^4 / (w + w0),     pref = 4 pi^2 w0^6 |x12|^2 / 3,

    over the window [epsilon, Lambda] = [ir_cutoff, uv_cutoff]: ``reservoir``'s
    principal value with the pole at +w0 (D1) and -w0 (D2).  For the
    canonical coupling the integrands are 3 beta / (4 pi^2 w (w -+ w0)), so

        D1 = beta w0^5 |x12|^2 [ln(|Lambda - w0| / Lambda) - ln(|epsilon - w0| / epsilon)],
        D2 = beta w0^5 |x12|^2 [ln(Lambda / (Lambda + w0)) - ln(epsilon / (epsilon + w0))],

    whose Lambda terms vanish at Lambda = inf.  Both diverge as epsilon -> 0
    and D1 as either cutoff approaches w0: a w0 on a cutoff with f(w0) != 0
    is rejected.  A w0 outside the window leaves D1 a plain
    integral, which the same formula gives.  A tabulated coupling's shifts
    are exact panel sums, with the pole's logarithm in closed form.
    """
    pref = p.omega0**6 * p.x12_sq * (4.0 * np.pi**2 / 3.0)
    d1 = _principal_value(p.coupling, p.omega0, cfg.ir_cutoff, cfg.uv_cutoff)
    d2 = _principal_value(p.coupling, -p.omega0, cfg.ir_cutoff, cfg.uv_cutoff)
    return LevelShifts(delta1=pref * d1, delta2=pref * d2,
                       ir_cutoff=cfg.ir_cutoff, uv_cutoff=cfg.uv_cutoff)


class CoherenceSpectrum(NamedTuple):
    mu: float
    gamma_shifted: float        # Gamma = w0 - 2 D2 - 2 D1
    omega_plus: complex
    omega_minus: complex


def coherence_frequencies(p, cfg):
    """mu, the shifted frequency Gamma and the characteristic pair Omega_pm.

    Omega_pm = i mu +- i sqrt(mu^2 - w0 Gamma) are the exact roots of the
    coherence pair; F ~ e^{i Omega t}.  When w0 Gamma > mu^2 both roots
    share the imaginary part mu: damped oscillation at rate mu.
    """
    mu = decay_rate_mu(p)
    shifts = level_shifts(p, cfg)
    gamma = p.omega0 - 2.0 * shifts.delta2 - 2.0 * shifts.delta1
    radical = cmath.sqrt(complex(mu * mu - p.omega0 * gamma))
    omega_plus = 1j * mu + 1j * radical
    omega_minus = 1j * mu - 1j * radical
    return CoherenceSpectrum(mu=mu, gamma_shifted=gamma,
                             omega_plus=omega_plus, omega_minus=omega_minus)


def sigma_z_evolution(p, sz0, t):
    """Closed-form population inversion: -1 + (1 + sz0) e^{-2 mu t}."""
    if abs(sz0) > 1.0 + 1e-9:
        raise DomainError("|<s_z>(0)| cannot exceed 1")
    mu = decay_rate_mu(p)
    t = np.asarray(t, dtype=float)
    out = -1.0 + (1.0 + sz0) * np.exp(-2.0 * mu * t)
    return float(out) if out.ndim == 0 else out


def coherence_evolution(p, f0, e0, t, cfg):
    """Closed-form coherence pair (F(t), E(t)) from initial values (f0, e0).

    F(t) = C1 e^{i Omega_+ t} + C2 e^{i Omega_- t} and
    E(t) = (w0/Omega_+) C1 e^{i Omega_+ t} + (w0/Omega_-) C2 e^{i Omega_- t},
    with C1, C2 solving the 2x2 initial-value system.  A degenerate pair
    Omega_+ = Omega_- falls back to the secular (t e^{i Omega t}) form.
    """
    spec = coherence_frequencies(p, cfg)
    t = np.asarray(t, dtype=float)
    w0 = p.omega0
    s_plus = 1j * spec.omega_plus   # characteristic exponents: F ~ e^{s t}
    s_minus = 1j * spec.omega_minus
    if abs(s_plus - s_minus) <= 1e-12 * max(abs(s_plus), 1.0):
        warnings.warn("degenerate coherence frequencies; using the secular form",
                      stacklevel=2)
        # F = (c1 + c2 t) e^{st}; E follows from dE/dt = i w0 F with E(0) = e0
        s = s_plus
        c1 = complex(f0)
        # dF/dt(0) = i Gamma e0 - 2 mu f0 = s c1 + c2
        c2 = 1j * spec.gamma_shifted * complex(e0) - 2.0 * spec.mu * complex(f0) \
            - s * c1
        grow = np.exp(s * t)
        f_t = (c1 + c2 * t) * grow
        e_t = e0 + 1j * w0 * ((c1 / s) * (grow - 1.0)
                              + c2 * (grow * (t / s - 1.0 / s**2) + 1.0 / s**2))
        return f_t, e_t
    rhs = np.array([complex(f0), complex(e0)])
    coeff = np.array([[1.0, 1.0],
                      [1j * w0 / s_plus, 1j * w0 / s_minus]])
    c1, c2 = np.linalg.solve(coeff, rhs)
    f_t = c1 * np.exp(s_plus * t) + c2 * np.exp(s_minus * t)
    e_t = (1j * w0 / s_plus) * c1 * np.exp(s_plus * t) \
        + (1j * w0 / s_minus) * c2 * np.exp(s_minus * t)
    return f_t, e_t


def evolve_bloch_markov(p, initial, grid, cfg):
    """RK4 integration of the Markovian Bloch equations on a uniform grid.

    The system is linear and time invariant, so the classical RK4 update
    is one affine map per step; its spectral radius doubles as the
    stability check the step size must pass, and a map that overflows
    fails it too.  The map is applied to the deviation from the exact
    fixed point y* = (-1, 0, 0) (A y* + c = 0 holds exactly), so the
    ground state stays exactly stationary.  Rows are filled a block at a
    time by :func:`dissipon.langevin._block_powers`.
    """
    grid, h = _check_grid(grid)
    spec = coherence_frequencies(p, cfg)
    mu, gamma = spec.mu, spec.gamma_shifted

    # state y = (sz, f, e_im):  y' = A y + c,  c = (-2 mu, 0, 0)
    a_mat = np.array([
        [-2.0 * mu, 0.0, 0.0],
        [0.0, -2.0 * mu, -gamma],
        [0.0, p.omega0, 0.0],
    ])
    taylor = [np.eye(3)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is unstable
        ha = h * a_mat
        for _ in range(4):
            taylor.append(taylor[-1] @ ha)
        step_map = sum(taylor[k] / math.factorial(k) for k in range(5))
    if not np.isfinite(step_map).all() \
            or np.abs(np.linalg.eigvals(step_map)).max() > 1.0 + 1e-12:
        raise StabilityError(
            f"step {h:.3g} is unstable for (w0, mu) = ({p.omega0}, {mu:.3g}); "
            "the RK4 amplification factor exceeds 1")

    # every RK4 stage vanishes at y*, so the deviation d = y - y* obeys d -> S d
    fixed = np.array([-1.0, 0.0, 0.0])
    out = np.empty((len(grid), 3))
    d = np.array([initial.sz, initial.f, initial.e_im]) - fixed
    for start, rows in _block_powers(step_map, d, len(grid)):
        out[start:start + len(rows)] = rows + fixed
    out[0] = (initial.sz, initial.f, initial.e_im)
    return BlochHistory(times=grid, sz=out[:, 0], f=out[:, 1], e_im=out[:, 2])
