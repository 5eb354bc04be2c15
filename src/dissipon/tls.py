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
the degenerate pair mu^2 = w0 Gamma (:func:`dissipon.langevin._damped_pair`),
and the Bloch solver samples that same exponential, exact at any step.

A unit dipole, |x12|^2 = 1, gives the bare constant (4 pi^2 w0^6 / 3) |f(w0)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RegimeError
from .langevin import _check_grid, _damped_pair, _pair_rows
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
    share the imaginary part mu: damped oscillation at rate mu.  Omega_- is
    i w0 Gamma / (mu + sqrt(mu^2 - w0 Gamma)), with no cancellation.
    """
    mu = decay_rate_mu(p)
    shifts = level_shifts(p, cfg)
    gamma = p.omega0 - 2.0 * shifts.delta2 - 2.0 * shifts.delta1
    # F ~ e^{s t} = e^{i Omega t} at the generator's roots s_pm
    s_minus, s_plus, _ = _damped_pair(mu, p.omega0 * gamma, 0.0, 1j * gamma, 1j * p.omega0)
    return CoherenceSpectrum(mu=mu, gamma_shifted=gamma,
                             omega_plus=-1j * s_minus, omega_minus=-1j * s_plus)


def sigma_z_evolution(p, sz0, t):
    """Closed-form population inversion: -1 + (1 + sz0) e^{-2 mu t}."""
    if abs(sz0) > 1.0 + 1e-9:
        raise DomainError("|<s_z>(0)| cannot exceed 1")
    mu = decay_rate_mu(p)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # an exponent past the float range decays to 0
        out = -1.0 + (1.0 + sz0) * np.exp(-2.0 * mu * t)
    return float(out) if out.ndim == 0 else out


def coherence_evolution(p, f0, e0, t, cfg):
    """Closed-form coherence pair (F(t), E(t)) from initial values (f0, e0).

    (F, E)' = M (F, E) with M = [[-2 mu, i Gamma], [i w0, 0]].  Putzer's form
    of e^{tM} (:func:`dissipon.langevin._damped_pair`) holds through the
    degenerate pair mu^2 = w0 Gamma, where it is the secular (t e^{-mu t})
    form, and cancels nowhere, near it or where w0 Gamma << mu^2.
    """
    spec = coherence_frequencies(p, cfg)
    mu, gamma, w0 = spec.mu, spec.gamma_shifted, p.omega0
    _, _, e_tm = _damped_pair(mu, w0 * gamma, t, 1j * gamma, 1j * w0)
    return e_tm[0, 0] * f0 + e_tm[0, 1] * e0, e_tm[1, 0] * f0 + e_tm[1, 1] * e0


def evolve_bloch_markov(p, initial, grid, cfg):
    """The Markovian Bloch equations on a uniform grid, exact at any step.

    The system is linear and time invariant, so the rows are its exact
    solution: the population from :func:`sigma_z_evolution`, and the
    coherence pair's exponential (:func:`dissipon.langevin._damped_pair`)
    on (f, e_im), sampled by :func:`dissipon.langevin._pair_rows`.  The
    ground state therefore stays exactly stationary.  A negative Gamma
    makes the pair grow, which is a ``RegimeError``; an exponential past
    the float range is a ``DomainError``.
    """
    grid, h = _check_grid(grid)
    spec = coherence_frequencies(p, cfg)
    mu, gamma = spec.mu, spec.gamma_shifted
    if gamma < 0:
        raise RegimeError(
            f"the shifted frequency Gamma = w0 - 2 D2 - 2 D1 = {gamma:.6g} is negative, so "
            "the coherence grows: the level shifts exceed the Markovian regime")
    # f' = -2 mu f - Gamma e_im,  e_im' = w0 f; a pair past the float range
    # (mu = inf included) is rejected before the population is formed
    pair = _pair_rows(mu, p.omega0 * gamma, -gamma, p.omega0, [initial.f, initial.e_im],
                      len(grid), h)
    # row j lies j h after the first time; a grid from 0 needs no shifted copy
    sz = sigma_z_evolution(p, initial.sz, grid - grid[0] if grid[0] else grid)
    sz[0] = initial.sz
    return BlochHistory(times=grid, sz=sz, f=pair[:, 0], e_im=pair[:, 1])
