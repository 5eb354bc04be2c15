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

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PerturbationTheoryError
from .oscillator import FockTriple, OscillatorParams
from .quadrature import QuadratureConfig
from .reservoir import CouplingFunction, ReservoirState, _sinc_squared, bose_factor

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

    Evaluates

        (2 pi w (n1+n2+n3) / 3m) * int dw_k w_k^4 |f|^2 sinc^2((w_k - w) t / 2)

    over the window [ir_cutoff, uv_cutoff], the integral being
    ``reservoir``'s sinc^2 integral for either coupling; for w t >> 1 it
    approaches t * rate_emission_vacuum.  The canonical coupling's is a
    closed form in Si and Cin, which needs a positive ir_cutoff: the
    integrand behaves like t^2 / w_k at w_k -> 0.  A tabulated coupling's is
    a panel sum, exact near the resonance and Gauss-Legendre elsewhere, in
    work growing as t Lambda.  Without ``cfg`` the window is
    :meth:`QuadratureConfig.for_frequencies` of w, up to the coupling's
    cutoff when it has one.
    """
    r._require_reservoir("vacuum", "finite_time_emission_probability")
    if r.t is None:
        raise DomainError("finite-time probability needs a finite t")
    if r.n.total == 0:
        return 0.0
    p = r.params
    if cfg is None:
        cfg = QuadratureConfig.for_frequencies(p.omega, uv_cutoff=r.coupling.uv_cutoff)
    integral = _sinc_squared(r.coupling, p.omega, r.t, cfg.ir_cutoff, cfg.uv_cutoff)
    return _guard_probability(
        2.0 * np.pi * p.omega * r.n.total / (3.0 * p.m) * integral)


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
