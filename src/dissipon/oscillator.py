"""Closed-form physics of the damped 3-d harmonic oscillator.

Houses the damped frequency w1 = sqrt(w^2 - beta^2/(4 m^2)), the decaying
mean trajectory, the long-time normal-ordered system and reservoir
energies, and the thermal steady state, all without quadrature: each
integral over the response denominator D(x) is a partial fraction in its
roots.  The asymptotic reservoir energy is computed twice on purpose: once
from the window's closed form and once from the whole-axis residues
(n1+n2+n3+3/2) w, so the energy bookkeeping is checked rather than
assumed.  The thermal steady state likewise carries an independent
mode-sum oracle, the exact long-time average of a discretised bath.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RegimeError
from .quadrature import QuadratureConfig
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


def lorentzian_moments(p, cfg=None):
    """(I0, I2) = integrals of 1/D and x^2/D over the window [epsilon, Lambda].

    D = (w^2 - x^2)^2 + g^2 x^2 = (x^2 + l^2)(x^2 + conj(l)^2) (g = beta/m,
    l = g/2 + i w1), so with F = atan(Lambda/l) - atan(eps/l) the partial
    fractions give I0 = [Re F / g - Im F / (2 w1)] / w^2 and
    I2 = Re F / g + Im F / (2 w1).  Over the whole axis F = pi/2, which gives
    the residues pi m / (2 beta w^2) and pi m / (2 beta).
    """
    if p.beta <= 0:
        raise RegimeError("the Lorentzian moments require beta > 0")
    w1 = damped_frequency(p)  # underdamped check
    if cfg is None:
        cfg = QuadratureConfig.for_frequencies(p.omega)
    g = p.beta / p.m
    lam = complex(0.5 * g, w1)
    try:
        f = cmath.atan(cfg.uv_cutoff / lam) - cmath.atan(cfg.ir_cutoff / lam)
    except ValueError:  # a cutoff / l of exactly -i: g/2 is lost against w1
        raise DomainError(f"beta/m = {g:.3g} is below D(x)'s float resolution") from None
    i0 = (f.real / g - 0.5 * f.imag / w1) / p.omega**2
    i2 = f.real / g + 0.5 * f.imag / w1
    if not (math.isfinite(i0) and math.isfinite(i2)):
        raise DomainError(f"the Lorentzian moments of beta/m = {g:.3g} pass the float range")
    return i0, i2


class ReservoirEnergyLimit(NamedTuple):
    numeric: float
    residue_closed_form: float


def asymptotic_reservoir_energy(p, n, cfg=None):
    """Long-time normal-ordered reservoir energy.

    numeric evaluates the pair of Lorentzian integrals on the window;
    residue_closed_form is (n1+n2+n3+3/2) w, their whole-axis value.  The
    two agree as beta -> 0 and as the window opens to [0, inf).
    """
    if p.beta <= 0:
        raise RegimeError("without relaxation (beta = 0) no energy reaches the bath")
    i0, i2 = lorentzian_moments(p, cfg)
    weight = n.total + 1.5
    numeric = (p.beta * p.omega**3 / (np.pi * p.m)) * weight * i0 \
        + (p.beta * p.omega / (np.pi * p.m)) * weight * i2
    if not math.isfinite(numeric):
        raise DomainError(f"the reservoir energy of w = {p.omega:.3g} passes the float range")
    return ReservoirEnergyLimit(numeric=numeric,
                                residue_closed_form=weight * p.omega)


# Stirling coefficients B_2k / 2k of psi(z) ~ ln z - 1/(2z) - sum_k B_2k / (2k z^2k),
# which alone give psi to double precision from |z| = 10
_STIRLING = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)


def _log_ratio(a, b):
    """ln b - ln a for Re a, Re b >= 0, as 2 atanh((b - a)/(b + a)) where b is near a."""
    w = (b - a) / (b + a)
    return 2.0 * cmath.atanh(w) if abs(w) < 0.5 else cmath.log(b) - cmath.log(a)


def _binet_pair(a, b):
    """K(b) and K(b) - K(a), K(z) = [ln z - 1/(2z) - psi(z)] / 2 (Re z > 0).

    K(z) = int_0^inf t dt / ((t^2 + z^2)(e^(2 pi t) - 1)) (Binet, DLMF 5.9.16).
    Below |z| = 10 both points recur upward, psi(z) = psi(z + n) - sum_j<n 1/(z + j),
    to Re z >= 10 and the Stirling series (DLMF 5.11.2).  The difference is
    summed in exact forms, so it keeps its relative accuracy as b nears a.
    """
    n = 0 if min(abs(a), abs(b)) >= 10.0 else math.ceil(10.0 - min(a.real, b.real))
    h = b - a
    an, bn = a + n, b + n
    k = dk = 0j
    if n:
        k = -_log_ratio(b, bn) - 0.5 / b + 0.5 / bn + sum(1.0 / (b + j) for j in range(n))
        dk = (_log_ratio(a, b) - _log_ratio(an, bn) + 0.5 * (h / a / b - h / an / bn)
              - sum(h / (a + j) / (b + j) for j in range(n)))
    # 1/z^2 as (1/z)^2: z^2 overflows long before 1/z^2 underflows to 0
    ia, ib = 1.0 / an, 1.0 / bn
    ua, ub = ia * ia, ib * ib
    pa = pb = d = 0j  # the series at ua and ub, and their divided difference
    for c in reversed((0.0,) + _STIRLING):
        d = d * ub + pa
        pa = pa * ua + c
        pb = pb * ub + c
    return 0.5 * (k + pb), 0.5 * (dk - (h * ia * ib) * (ia + ib) * d)


class ThermalSteadyEnergy(NamedTuple):
    direct: float
    mode_sum: float


def thermal_steady_energy(p, temperature, *, oracle_modes=(320, 320)):
    """Long-time thermal system energy: direct integral plus oracle.

    ``direct`` is (6 beta / pi m^2) [I1 + I3], I_k = int_0^inf x^k dx / (D (e^{x/T}-1)),
    whose common prefactor is dimensionally suspect; ``mode_sum`` is the
    independent discretised-bath value (see :func:`_mode_sum_oracle`), so
    the two can be compared rather than trusted blindly.  With
    D = (x^2 + l1^2)(x^2 + l2^2), l = g/2 +- r (g = beta/m, r = sqrt(g^2/4 - w^2)),
    I1 = -[K(a1) - K(a2)] / (2 g r) and I3 = K(a1) - l2^2 I1, a = l / (2 pi T)
    (see :func:`_binet_pair`).  Near the imaginary axis 2i Im K(a1), the
    underdamped difference, is Im K(iy) = -(pi/2) / (e^(2 pi y) - 1) plus
    the exact difference along Re a.
    """
    if not 0 < temperature < np.inf:
        raise DomainError("temperature must be positive and finite")
    if p.beta <= 0:
        raise RegimeError("thermal steady state requires beta > 0")
    # first, so a temperature its bath grid cannot hold fails before any integral
    oracle = _mode_sum_oracle(p, temperature, oracle_modes)
    g = p.beta / p.m
    r = cmath.sqrt(0.5 * g - p.omega) * math.sqrt(0.5 * g + p.omega)
    if r == 0:
        raise RegimeError(f"beta = {p.beta} is exactly critical: D(x) has a double root")
    lam1 = 0.5 * g + r
    # overdamped, l1 l2 = w^2 gives the smaller root without cancelling
    lam2 = lam1.conjugate() if r.imag else p.omega * (p.omega / lam1)
    a1, a2 = lam1 / (2.0 * math.pi * temperature), lam2 / (2.0 * math.pi * temperature)
    if r.imag and cmath.isinf(a1):  # T/w, and with it both moments, underflow
        return ThermalSteadyEnergy(0.0, oracle)
    if not (cmath.isfinite(a1) and a2 != 0):
        raise DomainError(f"temperature {temperature:.3g} puts D(x)'s roots past the float range")
    if r.imag >= 0.5 * g:
        k1, dk = _binet_pair(1j * a1.imag, a1)
        with np.errstate(over="ignore", divide="ignore"):  # checked below
            dk = 2j * (dk.imag - 0.5 * math.pi * bose_factor(r.imag, temperature))
    else:
        k1, dk = _binet_pair(a2, a1)
    i1 = (-dk / (2.0 * g * r)).real
    direct = 6.0 * g / (np.pi * p.m) * (i1 + (k1 - lam2 * lam2 * i1).real)
    if not math.isfinite(direct):
        raise DomainError(f"the thermal energy at T = {temperature:.3g} passes the float range")
    return ThermalSteadyEnergy(direct=direct, mode_sum=oracle)


def _discretised_bath(p, temperature, oracle_modes):
    """Oracle bath frequencies w_j and panel couplings c_j.

    The grid is dense across the resonance w +- 8 beta/m and sparse below
    and above it; the couplings are panel-integrated so that
    sum_j 2 c_j^2 w_j cos(w_j t) tracks gamma(t).
    """
    n_res, n_bg = oracle_modes
    w, g = p.omega, p.beta / p.m
    # a Python float overflows to inf without a warning
    w_max = max(30.0 * float(temperature), w + 20.0 * g, 8.0 * w)
    if not w_max < np.inf:
        raise DomainError(
            f"the oracle's bath grid must be finite; temperature {temperature:.3g} "
            f"and beta/m = {g:.3g} put its top frequency at {w_max}")
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
    if not np.isfinite(c_mat).all():  # LAPACK's SVD can spin on inf or NaN
        raise DomainError(f"the oracle's coupling matrix at m = {m:.3g}, omega = {w:.3g} "
                          f"and beta = {p.beta:.3g} passes the float range")
    u, sigma, vt = np.linalg.svd(c_mat)

    # x and v carry the energy form, q_j and p_j the bath's thermal variance
    with np.errstate(over="ignore", divide="ignore"):  # checked just below
        y = np.concatenate([[0.0], wj * bose_factor(wj, temperature)])
    if not np.isfinite(y).all():
        raise DomainError(f"temperature {temperature:.3g} overflows the thermal "
                          "occupations of the oracle's bath grid")
    # M_E and M_Y on the resonant pairs only: the diagonal and degenerate blocks
    k, l = np.nonzero(np.abs(sigma[:, None] - sigma[None, :]) <= 1e-9 * sigma.max())
    m_e = 0.25 * (u[0, k] * u[0, l] + vt[k, 0] * vt[l, 0])
    m_y = 0.5 * (np.sum(u.T[k] * y * u.T[l], axis=1) + np.sum(vt[k] * y * vt[l], axis=1))
    return 3.0 * 2.0 * (m_e * m_y).sum()
