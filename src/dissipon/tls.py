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

The characteristic frequencies are the exact roots of that linear pair,

    Omega_pm = i mu +- i sqrt(mu^2 - w0 Gamma),

so in the oscillatory regime w0 Gamma > mu^2 both roots share the
imaginary part mu and the coherence envelope decays at exactly that rate
(flipping the radicand sign would break both the equations of motion and
the free mu = 0 oscillation, so it is fixed by the characteristic
equation).  The closed form is Putzer's 2x2 exponential, one formula through
the degenerate pair mu^2 = w0 Gamma (:func:`coherence_evolution`).

A unit dipole, |x12|^2 = 1, gives the bare constant (4 pi^2 w0^6 / 3) |f(w0)|^2.
"""

from __future__ import annotations

import cmath
import math
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

    (F, E)' = M (F, E) with M = [[-2 mu, i Gamma], [i w0, 0]], whose
    eigenvalues are s_pm = -mu +- d, d = sqrt(mu^2 - w0 Gamma) (the
    principal root: real >= 0 or imaginary).  Putzer's form of the 2x2
    exponential (E. J. Putzer, Amer. Math. Monthly 73 (1966) 2),

        e^{tM} = e^{s_- t} I + e^{s_+ t} t psi(2 d t) (M - s_- I),
        psi(x) = (1 - e^{-x}) / x,  psi(0) = 1,

    holds through the degenerate pair d = 0, where it is the secular
    (t e^{-mu t}) form, with no cancellation on either side of it.
    """
    spec = coherence_frequencies(p, cfg)
    mu, gamma, w0 = spec.mu, spec.gamma_shifted, p.omega0
    t = np.asarray(t, dtype=float)
    d = cmath.sqrt(complex(mu * mu - w0 * gamma))
    s_plus, s_minus = -mu + d, -mu - d
    x = 2.0 * d * t
    psi = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
    lead = np.exp(s_minus * t)
    cross = np.exp(s_plus * t) * t * psi
    f_t = lead * f0 + cross * ((-2.0 * mu - s_minus) * f0 + 1j * gamma * e0)
    e_t = lead * e0 + cross * (1j * w0 * f0 - s_minus * e0)
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
