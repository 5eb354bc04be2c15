"""First-order transition probabilities and golden-rule rates.

Finite-time emission keeps the exact sinc^2 kernel; the long-time rates
use its 2 pi t delta replacement evaluated in closed form.  Resonance
deltas of Fock reservoirs are consumed analytically: only quanta whose
frequency matches the oscillator within a relative tolerance contribute,
weighted by a caller-supplied line-width weight, because a delta at exact
resonance is not a number and its regularisation is a modelling choice.

Everything here is strictly first order: any probability above 0.1 trips
a warning, above 1 an error.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PerturbationTheoryError
from .oscillator import FockTriple, OscillatorParams
from .quadrature import _EULER_GAMMA, QuadratureConfig, _cin_si, _gauss_legendre
from .reservoir import CouplingFunction, ReservoirState, _table_sinc_squared, bose_factor

__all__ = [
    "RateRequest",
    "RatePair",
    "finite_time_emission_probability",
    "rate_emission_vacuum",
    "rates_fock",
    "rates_thermal",
]

FIRST_ORDER_WARN = 0.1
# a Fock quantum is resonant when its frequency is within this fraction of w
RESONANCE_REL_TOL = 1e-8


class RatePair(NamedTuple):
    emission: float
    absorption: float


@dataclass(frozen=True)
class RateRequest:
    """One rate evaluation: oscillator, initial excitation, reservoir, coupling.

    ``t`` is the elapsed time in finite-time mode; ``None`` asks for the
    long-time rate (probability per unit time).
    """

    params: OscillatorParams
    n: FockTriple
    reservoir: ReservoirState
    coupling: CouplingFunction
    t: float | None = None

    def __post_init__(self):
        if self.t is not None and not self.t > 0:
            raise DomainError("finite-time mode requires t > 0")

    def _require_reservoir(self, kind, op):
        if self.reservoir.kind != kind:
            raise DomainError(f"{op} applies to a {kind} reservoir, "
                              f"got {self.reservoir.kind}")


def _guard_probability(prob):
    if prob > 1.0:
        raise PerturbationTheoryError(
            f"first-order probability {prob:.3g} exceeds 1; the perturbative "
            "treatment has broken down")
    if prob > FIRST_ORDER_WARN:
        warnings.warn(
            f"first-order probability {prob:.3g} exceeds {FIRST_ORDER_WARN}; "
            "treat the result as qualitative", stacklevel=3)
    return prob


def finite_time_emission_probability(r, cfg=None):
    """Probability that the vacuum reservoir has absorbed one quantum by time t.

    Evaluates the integral

        (2 pi w (n1+n2+n3) / 3m) * int dw_k w_k^4 |f|^2 sinc^2((w_k - w) t / 2)

    over the window [ir_cutoff, uv_cutoff]; for w t >> 1 it approaches
    t * rate_emission_vacuum.  The canonical coupling's integral is a closed
    form in Si and Cin (:func:`_emission_antiderivative`), which needs a
    positive ir_cutoff: the integrand behaves like t^2 / w_k at w_k -> 0.  A
    tabulated coupling's is ``reservoir``'s panel sum, exact near the
    resonance and Gauss-Legendre elsewhere, in work growing as t Lambda.
    Without ``cfg`` the window is :meth:`QuadratureConfig.for_frequencies`
    of w, up to the coupling's cutoff when it has one.
    """
    r._require_reservoir("vacuum", "finite_time_emission_probability")
    if r.t is None:
        raise DomainError("finite-time probability needs a finite t")
    if r.n.total == 0:
        return 0.0
    p = r.params
    if cfg is None:
        cfg = QuadratureConfig.for_frequencies(p.omega, uv_cutoff=r.coupling.uv_cutoff)
    if r.coupling.kind == "canonical":
        if cfg.ir_cutoff <= 0.0:
            raise DomainError(
                "the canonical coupling makes finite-time emission infrared-divergent; "
                "supply a positive ir_cutoff")
        if not p.omega * r.t < math.inf:
            raise DomainError(f"the phase omega t = {p.omega:.3g} x {r.t:.3g} overflows")
        # P = pref beta int dw_k 2 (1 - cos(y t)) / (w_k y^2), pref = w n / (2 pi m),
        # and the antiderivative carries a factor w^2 / 2
        integral = (_emission_antiderivative(cfg.uv_cutoff, p.omega, r.t)
                    - _emission_antiderivative(cfg.ir_cutoff, p.omega, r.t))
        return _guard_probability(
            r.n.total * r.coupling.beta / (np.pi * p.m * p.omega) * integral)
    # pref (4 pi^2 / 3) |f|^2 w^4 against the kernel, pref = w n / (2 pi m)
    integral = _table_sinc_squared(r.coupling, p.omega, r.t, cfg.ir_cutoff, cfg.uv_cutoff)
    return _guard_probability(
        2.0 * np.pi * p.omega * r.n.total / (3.0 * p.m) * integral)


def _emission_antiderivative(end, omega, t):
    """(w^2 / 2) times an antiderivative of 2 (1 - cos(y t)) / (w_k y^2) at w_k = end.

    This is the canonical coupling's sinc^2 integrand, whose weight is
    constant.  Partial fractions split 1/(w_k y^2) into
    1/(w^2 w_k) - 1/(w^2 y) + 1/(w y^2), and each part against
    2 (1 - cos y t) is elementary plus Si and Cin.  With tau = w t,
    c = cos tau, s = sin tau, h = 1 - c, X = end t and f(u) = (1 - cos u) / u,
    it is

        h ln(end) + c Cin(X) - Cin(|y| t) - s Si(X) + sign(y) tau [Si(|y| t) - f(|y| t)]

    at y = end - w: the 1/w_k part gives the first, second and fourth terms,
    the 1/y part the third (Cin(|y| t) is even in y) and the 1/y^2 part the
    last (odd in y).  Above the resonance with tau <= 1 the integral is
    O(tau^2) while these terms are O(tau), so there the same antiderivative
    is summed as

        h (ln(end) - Cin(X)) + (tau - s) Si(X)
            + int_{X-tau}^{X} [f(u) - f(X - tau) - tau sin(u)/u] du,

    whose terms are all O(tau^2), with the short integral by Gauss-Legendre.
    Its limit at end = inf (or an end t that overflows) is
    -h (gamma + ln t) + (tau - s) pi/2.
    """
    tau = omega * t
    h = 2.0 * math.sin(0.5 * tau) ** 2
    if end * t == math.inf:
        return -h * (_EULER_GAMMA + math.log(t)) + _tau_minus_sin(tau) * 0.5 * math.pi
    cin_end, si_end = _cin_si(end * t)
    if end > omega and tau <= 1.0:
        nodes, weights = _unit_gauss_legendre()
        v = tau * nodes
        x_gap = (end - omega) * t
        u = x_gap + v
        cos_gap, sin_gap = math.cos(x_gap), math.sin(x_gap)
        # f(u) - f(X - tau) and sin(u) by the addition theorem, so that the
        # rounding of X - tau + v shifts no phase
        df = (2.0 * cos_gap * np.sin(0.5 * v) ** 2 + sin_gap * np.sin(v) - _f(x_gap) * v) / u
        sin_u = sin_gap * np.cos(v) + cos_gap * np.sin(v)
        return (h * (math.log(end) - cin_end) + _tau_minus_sin(tau) * si_end
                + tau * float(weights @ (df - tau * sin_u / u)))
    y = end - omega
    x = abs(y) * t
    cin_gap, si_gap = _cin_si(x)
    return (h * math.log(end) + math.cos(tau) * cin_end - cin_gap - math.sin(tau) * si_end
            + math.copysign(tau * (si_gap - _f(x)), y))


@functools.cache
def _unit_gauss_legendre():
    """Eight-point Gauss-Legendre nodes and weights on [0, 1]: exact to
    rounding for the entire integrands above on an interval of length <= 1."""
    x, w = _gauss_legendre(8)
    return 0.5 * (x + 1.0), 0.5 * w


def _tau_minus_sin(tau):
    """tau - sin(tau), as int_0^tau 2 sin^2(v/2) dv by Gauss-Legendre for tau <= 1."""
    if tau > 1.0:
        return tau - math.sin(tau)
    nodes, weights = _unit_gauss_legendre()
    return tau * float(weights @ (2.0 * np.sin(0.5 * tau * nodes) ** 2))


def _f(x):
    """(1 - cos x) / x = 2 sin^2(x/2) / x, 0 at x = 0."""
    if x == 0.0:
        return 0.0
    half = math.sin(0.5 * x)
    return 2.0 * half * (half / x)


def rate_emission_vacuum(r):
    """Long-time emission rate into the vacuum: 4 pi^2 w^5 n |f(w)|^2 / 3m.

    For the canonical coupling this collapses to (n1+n2+n3) beta / m.
    Absorption from the vacuum is exactly zero.
    """
    r._require_reservoir("vacuum", "rate_emission_vacuum")
    if r.n.total == 0:
        return 0.0
    return _golden_rate(r, r.n.total)


def _golden_rate(r, quanta, occupation=1.0):
    """quanta * golden_rule(w) / m times a Bose ``occupation``, the rate every
    reservoir kind scales; one that overflows is a DomainError."""
    weight = r.coupling.golden_rule(r.params.omega)  # beta when canonical
    rate = quanta * weight / r.params.m * occupation
    if not rate < math.inf:
        strength = (f"beta = {r.coupling.beta:.3g}" if r.coupling.kind == "canonical"
                    else f"golden-rule weight {weight:.3g}")
        raise DomainError(f"the golden-rule rate of {quanta} quanta overflows at {strength}, "
                          f"m = {r.params.m:.3g}")
    return rate


def rates_fock(r):
    """(emission, absorption) against a reservoir holding discrete quanta.

    Emission equals the vacuum rate (no stimulated enhancement appears at
    this order).  Absorption sums the resonant quanta,

        (pi w / m) |f(w)|^2 sum_l w_l [(n1+1) p_l1^2 + (n2+1) p_l2^2 + (n3+1) p_l3^2],

    where w_l is the caller-supplied line-width weight standing in for the
    squared resonance delta's normalisation.
    """
    r._require_reservoir("fock", "rates_fock")
    p = r.params
    emission = _golden_rate(r, r.n.total)
    res = r.reservoir
    resonant = np.abs(res.frequencies - p.omega) <= RESONANCE_REL_TOL * p.omega
    occupancy = np.array([r.n.n1 + 1, r.n.n2 + 1, r.n.n3 + 1], dtype=float)
    dipole_sum = float(
        (res.weights[resonant, None] * res.momenta[resonant] ** 2 @ occupancy).sum())
    absorption = np.pi * p.omega * r.coupling(p.omega) ** 2 / p.m * dipole_sum
    return RatePair(emission=emission, absorption=absorption)


def rates_thermal(r):
    """(emission, absorption) against a thermal reservoir.

    emission   = (4 pi^2 w^5 n / 3m) |f(w)|^2 e^{w/T} / (e^{w/T} - 1)
    absorption = (4 pi^2 w^5 (n+3) / 3m) |f(w)|^2 / (e^{w/T} - 1)

    so at T -> 0 the emission reduces to the vacuum rate and absorption
    vanishes: no energy flows from the reservoir to the oscillator.
    """
    r._require_reservoir("thermal", "rates_thermal")
    p = r.params
    temperature = r.reservoir.temperature
    with np.errstate(over="ignore", divide="ignore"):  # checked just below
        bose = bose_factor(p.omega, temperature)
    if not bose < np.inf:
        raise DomainError(f"temperature {temperature:.3g} overflows the Bose "
                          f"occupation at omega = {p.omega:.3g}")
    emission = _golden_rate(r, r.n.total, 1.0 + bose)  # e^x / (e^x - 1)
    absorption = _golden_rate(r, r.n.total + 3, bose)
    return RatePair(emission=emission, absorption=absorption)
