"""Closed-form physics of the damped 3-d harmonic oscillator.

Houses the damped frequency w1 = sqrt(w^2 - beta^2/(4 m^2)), the decaying
mean trajectory, the long-time normal-ordered system and reservoir
energies, and the thermal steady state.  The asymptotic reservoir energy
is computed twice on purpose: once by quadrature of its Lorentzian
integrals and once from their residue closed form (n1+n2+n3+3/2) w, so the
energy bookkeeping is checked rather than assumed.

The thermal steady state likewise carries an independent mode-sum oracle:
the bath is discretised into N modes with the coupling's spectral weight,
and the resulting closed linear system is diagonalised exactly.  It
conserves a quadratic energy s^T G s / 2, so in G-scaled coordinates its
generator is real antisymmetric and couples (x, p_j) only to (v, q_j);
one real SVD of that (N+1)^2 coupling block gives every eigenvalue +-i sigma
and eigenvector, and the infinite-time average of the system energy is
read off the pairs of equal sigma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RegimeError
from .quadrature import QuadratureConfig, integrate_semi_infinite
from .reservoir import bose_factor

__all__ = [
    "OscillatorParams",
    "FockTriple",
    "damped_frequency",
    "mean_trajectory",
    "asymptotic_system_energy",
    "asymptotic_reservoir_energy",
    "thermal_steady_energy",
    "lorentzian_moments",
]

WEAK_DAMPING_RATIO = 0.3  # beta/(m w) above this, the small-beta forms degrade


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, frequency and friction of the damped oscillator."""

    m: float
    omega: float
    beta: float

    def __post_init__(self):
        if not self.m > 0:
            raise DomainError("mass must be positive")
        if not self.omega > 0:
            raise DomainError("frequency must be positive")
        if not self.beta >= 0:
            raise DomainError("friction must be nonnegative")

    @property
    def omega1(self):
        return damped_frequency(self)

    @property
    def damping_ratio(self):
        return self.beta / (self.m * self.omega)


@dataclass(frozen=True)
class FockTriple:
    """Occupation numbers of the three Cartesian oscillator modes."""

    n1: int = 0
    n2: int = 0
    n3: int = 0

    def __post_init__(self):
        for name in ("n1", "n2", "n3"):
            n = getattr(self, name)
            if not (n >= 0 and float(n).is_integer()):
                raise DomainError("occupation numbers must be nonnegative integers")
            object.__setattr__(self, name, int(n))

    @property
    def total(self):
        return self.n1 + self.n2 + self.n3


def damped_frequency(p):
    """w1 = sqrt(w^2 - beta^2 / (4 m^2)); requires the underdamped regime."""
    disc = p.omega**2 - p.beta**2 / (4.0 * p.m**2)
    if disc <= 0.0:
        raise RegimeError(
            f"beta = {p.beta} reaches or exceeds critical damping 2 m w = "
            f"{2 * p.m * p.omega}; the oscillatory solution does not apply")
    return math.sqrt(disc)


def mean_trajectory(p, x0, p0, t):
    """Mean position at time(s) t for initial position x0 and momentum p0.

    The reservoir-dependent drift terms average to zero in vacuum and
    thermal states, leaving the decaying envelope

        e^(-beta t / 2m) [x0 cos(w1 t) + (p0/(m w1) + beta x0/(2 m w1)) sin(w1 t)]

    per Cartesian component.
    """
    w1 = damped_frequency(p)
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    t = np.asarray(t, dtype=float)
    env = np.exp(-p.beta * t / (2.0 * p.m))
    c = np.cos(w1 * t)
    s = np.sin(w1 * t)
    sin_coeff = p0 / (p.m * w1) + p.beta * x0 / (2.0 * p.m * w1)
    return env[..., None] * (np.multiply.outer(c, x0) + np.multiply.outer(s, sin_coeff)) \
        if t.ndim else env * (c * x0 + s * sin_coeff)


class SystemEnergyLimit(NamedTuple):
    velocity_form: float
    canonical_form: float


def asymptotic_system_energy(p, n):
    """Long-time normal-ordered system energy, both operator orderings.

    The velocity form (1/2 m x'^2 + 1/2 m w^2 x^2) tends to zero; the
    canonical form retains (beta^2 / (2 m^2 w)) (n1+n2+n3+3/2).  Valid for
    weak damping; a ratio beta/(m w) above 0.3 only warns.
    """
    if p.damping_ratio > WEAK_DAMPING_RATIO:
        warnings.warn(
            f"beta/(m w) = {p.damping_ratio:.3g} exceeds the weak-damping regime "
            "of the asymptotic energy formulas", stacklevel=2)
    canonical = p.beta**2 / (2.0 * p.m**2 * p.omega) * (n.total + 1.5)
    return SystemEnergyLimit(velocity_form=0.0, canonical_form=canonical)


def _lorentzian_denominator(p):
    g = p.beta / p.m
    return lambda x: (p.omega**2 - x**2) ** 2 + g**2 * x**2


def lorentzian_moments(p, cfg=None):
    """(I0, I2) = integrals of 1/D and x^2/D with D the response denominator.

    Residue evaluation gives I0 = pi m / (2 beta w^2) and I2 = pi m / (2 beta)
    exactly in the underdamped regime; the quadrature values returned here
    are used to check that identity, not to replace it.
    """
    if p.beta <= 0:
        raise RegimeError("the Lorentzian moments require beta > 0")
    damped_frequency(p)  # underdamped check
    if cfg is None:
        cfg = QuadratureConfig.for_frequencies(p.omega)
    D = _lorentzian_denominator(p)
    hints = _resonance_hints(p)
    i0, _ = integrate_semi_infinite(lambda x: 1.0 / D(x), cfg, singularities=hints)
    i2, _ = integrate_semi_infinite(lambda x: x**2 / D(x), cfg, singularities=hints)
    return i0, i2


def _resonance_hints(p):
    """Panel seeds bracketing the Lorentzian peak of half-width beta/2m."""
    half = 0.5 * p.beta / p.m
    return [p.omega - 5.0 * half, p.omega, p.omega + 5.0 * half]


class ReservoirEnergyLimit(NamedTuple):
    numeric: float
    residue_closed_form: float


def asymptotic_reservoir_energy(p, n, cfg=None):
    """Long-time normal-ordered reservoir energy.

    numeric evaluates the pair of Lorentzian integrals by
    quadrature; residue_closed_form is (n1+n2+n3+3/2) w.  The two agree as
    beta -> 0 (and, because the Lorentzian moments are exact, essentially
    for any underdamped beta).
    """
    if p.beta <= 0:
        raise RegimeError("without relaxation (beta = 0) no energy reaches the bath")
    i0, i2 = lorentzian_moments(p, cfg)
    weight = n.total + 1.5
    numeric = (p.beta * p.omega**3 / (np.pi * p.m)) * weight * i0 \
        + (p.beta * p.omega / (np.pi * p.m)) * weight * i2
    return ReservoirEnergyLimit(numeric=numeric,
                                residue_closed_form=weight * p.omega)


class ThermalSteadyEnergy(NamedTuple):
    direct: float
    mode_sum: float


def thermal_steady_energy(p, temperature, cfg=None, oracle_modes=(320, 320)):
    """Long-time thermal system energy: direct integral plus oracle.

    ``direct`` evaluates the steady-state expression

        (6 beta / pi m^2) [ int x dx / (D (e^{x/T}-1)) + int x^3 dx / (D (e^{x/T}-1)) ],

    whose common prefactor is dimensionally suspect; ``mode_sum`` is the
    independent discretised-bath value (see :func:`_mode_sum_oracle`), so
    the two can be compared rather than trusted blindly.
    """
    if not temperature > 0:
        raise DomainError("temperature must be positive")
    if p.beta <= 0:
        raise RegimeError("thermal steady state requires beta > 0")
    if cfg is None:
        cfg = QuadratureConfig.for_frequencies(p.omega, temperature)
    D = _lorentzian_denominator(p)
    hints = _resonance_hints(p)
    i1, _ = integrate_semi_infinite(
        lambda x: x / D(x) * bose_factor(x, temperature), cfg, singularities=hints)
    i3, _ = integrate_semi_infinite(
        lambda x: x**3 / D(x) * bose_factor(x, temperature), cfg, singularities=hints)
    direct = 6.0 * p.beta / (np.pi * p.m**2) * (i1 + i3)
    oracle = _mode_sum_oracle(p, temperature, oracle_modes)
    return ThermalSteadyEnergy(direct=direct, mode_sum=oracle)


def _discretised_bath(p, temperature, oracle_modes):
    """Oracle bath frequencies w_j and panel couplings c_j.

    The grid is dense across the resonance w +- 8 beta/m and sparse below
    and above it; the couplings are panel-integrated so that
    sum_j 2 c_j^2 w_j cos(w_j t) tracks gamma(t).
    """
    n_res, n_bg = oracle_modes
    w, g = p.omega, p.beta / p.m
    w_max = max(30.0 * temperature, w + 20.0 * g, 8.0 * w)
    lo, hi = max(w - 8.0 * g, 1e-6 * w), w + 8.0 * g
    dense = np.linspace(lo, hi, n_res)
    below = np.linspace(1e-4 * w, lo, n_bg // 2, endpoint=False)
    above = np.geomspace(hi, w_max, n_bg // 2 + 1)[1:]
    wj = np.unique(np.concatenate([below, dense, above]))
    dw = np.empty_like(wj)
    dw[1:-1] = 0.5 * (wj[2:] - wj[:-2])
    dw[0] = 0.5 * (wj[1] - wj[0])
    dw[-1] = 0.5 * (wj[-1] - wj[-2])
    spectral = 3.0 * p.beta / (4.0 * np.pi**2)  # |f|^2 w^5 of the matching coupling
    c = np.sqrt((8.0 * np.pi / 3.0) * spectral * dw / (2.0 * wj))
    return wj, c


def _mode_sum_oracle(p, temperature, oracle_modes):
    """Exact long-time average of the system energy for a discretised bath.

    One Cartesian component couples, through its velocity, to N bath modes
    (q_j, p_j) carrying the canonical spectral weight (see
    :func:`_discretised_bath`).  The closed linear system s' = A s,
    s = (x, v, q, p), conserves the energy s^T G s / 2 with
    G = diag(m w^2, m, w_j, w_j), so in the scaled coordinates G^(1/2) s its
    generator K = G^(1/2) A G^(-1/2) is real antisymmetric.  K only links
    (x, p_j) with (v, q_j), K = [[0, C], [-C^T, 0]], so one SVD
    C = U diag(sigma) V^T gives its whole spectrum: eigenvalues +-i sigma_k
    with orthonormal eigenvectors (u_k, +-i v_k)/sqrt(2).

    The infinite-time average of the energy keeps the products of equal
    eigenvalues, sigma_k = sigma_l for each sign, so per component it is
    2 sum over those (k, l) of M_E[k, l] M_Y[k, l], with
    M = (U^T diag(y_P) U + V^T diag(y_Q) V) / 2 for the energy form (scaled
    by G^-1) and for the initial thermal-minus-vacuum variance (scaled by
    G).  Normal ordering is that difference, which removes every zero-point
    term and all transients exactly.  A degenerate sigma needs no special
    case: the sum over a degenerate block does not depend on the basis the
    SVD picks inside it.
    """
    m, w = p.m, p.omega
    wj, c = _discretised_bath(p, temperature, oracle_modes)
    # rows (x, p_j), columns (v, q_j) of K
    c_mat = np.zeros((len(wj) + 1, len(wj) + 1))
    c_mat[0, 0] = w
    c_mat[1:, 0] = np.sqrt(2.0 / m) * c * np.sqrt(wj)
    c_mat[1:, 1:] = np.diag(-wj)
    u, sigma, vt = np.linalg.svd(c_mat)

    # x and v carry the energy form, q_j and p_j the bath's thermal variance
    y = np.concatenate([[0.0], wj * bose_factor(wj, temperature)])
    m_e = 0.25 * (np.outer(u[0], u[0]) + np.outer(vt[:, 0], vt[:, 0]))
    m_y = 0.5 * ((u.T * y) @ u + (vt * y) @ vt.T)
    resonant = np.abs(sigma[:, None] - sigma[None, :]) <= 1e-9 * sigma.max()
    return 3.0 * 2.0 * (m_e * m_y)[resonant].sum()
