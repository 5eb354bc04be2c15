"""Adaptive quadrature oracles, the sine and cosine integrals, and the
bath window shared by all physics modules.

No bath integral of the package needs adaptive quadrature.  The canonical
coupling's spectral weight is constant on the window, so its integrals
reduce to logarithms and the sine and cosine integrals, which
:func:`_cin_si` evaluates without scipy.  A tabulated coupling is linear
between knots, and ``reservoir`` sums its kernel, friction sweep, level
shifts and finite-time emission exactly, panel by panel.  ``oscillator``'s
Lorentzian and thermal moments are partial fractions in closed form.

The four ``integrate_*`` routines have no caller in the package: they are
the tests' independent oracles.  Semi-infinite integrals are mapped to
(0, 1) via x = u/(1-u); principal values use the Cauchy-weight rule
(QAWC), long-time oscillatory integrals a resolved head plus
Chebyshev-moment (Filon-type) tails, and sinc^2 kernels a dedicated split.
Each is ``scipy.integrate.quad`` (QUADPACK), imported on the first call
from the ``test`` extra, and returns ``(value, error_estimate)`` or raises
:class:`~dissipon.errors.QuadratureError` carrying the best estimate when
the requested tolerance cannot be certified.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "integrate_semi_infinite",
    "integrate_principal_value",
    "integrate_oscillatory",
    "integrate_sinc_squared",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Spectral cutoffs for the bath integrals, and the adaptive oracles'
    tolerances.

    Parameters
    ----------
    abs_tol, rel_tol : float
        Requested absolute / relative accuracy of the ``integrate_*``
        oracles.  The package's bath integrals are exact and read neither.
    uv_cutoff : float
        Upper frequency cutoff Lambda.  ``inf`` maps the tail to (0, 1).
    ir_cutoff : float
        Lower frequency cutoff epsilon (>= 0).
    max_subdivisions : int
        Panel budget of the oracles' adaptive subdivision.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    uv_cutoff: float = np.inf
    ir_cutoff: float = 0.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if not (0.0 <= self.ir_cutoff < self.uv_cutoff):
            raise DomainError(
                f"cutoffs must satisfy 0 <= ir_cutoff < uv_cutoff, got "
                f"[{self.ir_cutoff}, {self.uv_cutoff}]"
            )
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")

    @classmethod
    def for_frequencies(cls, *frequencies, **overrides):
        """Config with Lambda = 100 * max frequency, epsilon = 1e-8 * min.

        The canonical coupling weights the infrared heavily, so the cutoff
        choice is explicit here rather than buried in the integrators.  An
        override of ``None`` leaves that field at its default, so a caller
        passes an optional cutoff (a coupling's, a flag's) as it is.
        """
        freqs = [f for f in frequencies if f > 0]
        if not freqs:
            raise DomainError("at least one positive frequency is required")
        defaults = dict(uv_cutoff=100.0 * max(freqs), ir_cutoff=1e-8 * min(freqs))
        defaults.update((key, value) for key, value in overrides.items()
                        if value is not None)
        return cls(**defaults)

    def tolerance_for(self, value):
        return max(self.abs_tol, self.rel_tol * abs(value))


def _quad(f, a, b, cfg, points=None, weight=None, wvar=None):
    """``scipy.integrate.quad`` honouring the config; raises on uncertified results.

    ``weight`` is None, 'cauchy', 'cos' or 'sin'; ``points`` inside (a, b)
    are passed only without a weight and to a finite b, which is all
    ``quad`` accepts.  A result QUADPACK flags is accepted when its error
    estimate is within 10x of the requested tolerance.
    """
    if a == b:
        return 0.0, 0.0
    try:
        from scipy.integrate import quad  # ~0.5 s cold; only these oracles load it
    except ImportError as exc:
        raise ImportError("the quadrature oracles need scipy: pip install 'dissipon[test]'") from exc

    # b < a when integrate_sinc_squared's resonance window lies past the
    # cutoff; the sign flip makes its head and tail still add up
    flip, lo, hi = b < a, min(a, b), max(a, b)
    kwargs = dict(epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
                  full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar)
        if weight != "cauchy" and not np.isfinite(hi):
            kwargs["limlst"] = max(cfg.max_subdivisions, 50)
    elif points is not None and np.isfinite(hi):
        kwargs["points"] = [p for p in points if a < p < b] or None
    out = quad(f, lo, hi, **kwargs)
    value, err = (-out[0] if flip else out[0]), out[1]
    if len(out) == 3 or err <= 10.0 * cfg.tolerance_for(value):
        return value, err
    raise QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: {out[3].splitlines()[0]}",
        best_estimate=value, error_estimate=err)


def integrate_semi_infinite(f, cfg, singularities=None):
    """Integrate ``f`` over (ir_cutoff, uv_cutoff).

    An infinite uv_cutoff is mapped onto (0, 1) via x = u/(1-u) so every
    bath integral runs through the same adaptive Gauss-Kronrod panels.

    Parameters
    ----------
    f : callable
        Real integrand of a frequency-like variable.
    cfg : QuadratureConfig
    singularities : sequence of float, optional
        Interior points (sharp peaks, near-poles) the subdivision should
        place panel boundaries on.

    Returns
    -------
    (value, error_estimate) : tuple of float
    """
    a, b = cfg.ir_cutoff, cfg.uv_cutoff
    if np.isfinite(b):
        return _quad(f, a, b, cfg, points=singularities)
    u0 = a / (1.0 + a)
    mapped = lambda u: f(u / (1.0 - u)) / (1.0 - u) ** 2
    pts = None
    if singularities is not None:
        pts = [s / (1.0 + s) for s in singularities if np.isfinite(s)]
    return _quad(mapped, u0, 1.0, cfg, points=pts)


def integrate_principal_value(g, pole, cfg):
    """Cauchy principal value PV int g(x) / (x - pole) dx over the window.

    ``g`` is the numerator, not the full integrand: QUADPACK's Cauchy-weight
    rule (QAWC; Piessens et al., 1983) integrates the 1/(x - pole) factor
    through modified Clenshaw-Curtis moments and may evaluate g at the pole
    itself.  An infinite uv_cutoff keeps QAWC on the window symmetric about
    the pole and adds the plain tail above it.  A pole outside
    (ir_cutoff, uv_cutoff) degenerates to the plain integral, with a warning.
    """
    a, b = cfg.ir_cutoff, cfg.uv_cutoff
    full = lambda x: g(x) / (x - pole)
    if not (a < pole < b):
        warnings.warn(
            f"pole {pole} outside integration window [{a}, {b}]; "
            "falling back to a plain integral", stacklevel=2)
        return integrate_semi_infinite(full, cfg)
    if np.isfinite(b):
        return _quad(g, a, b, cfg, weight="cauchy", wvar=pole)
    split = 2.0 * pole - a
    near, e1 = _quad(g, a, split, cfg, weight="cauchy", wvar=pole)
    tail, e2 = integrate_semi_infinite(full, replace(cfg, ir_cutoff=split))
    return near + tail, e1 + e2


def integrate_oscillatory(g, phase_freq, t, cfg, kind="cos"):
    """Integrate ``g(x) * cos(phase_freq * x * t)`` (or sin) over the window.

    The first few oscillation periods are integrated directly; the tail
    goes through QUADPACK's Chebyshev-moment (Filon-type) oscillatory
    weights, which stay accurate when t * uv_cutoff >> 1.
    """
    if t < 0:
        raise DomainError("oscillatory integrals are defined for t >= 0")
    if kind not in ("cos", "sin"):
        raise DomainError(f"kind must be 'cos' or 'sin', got {kind!r}")
    trig = np.cos if kind == "cos" else np.sin
    w = phase_freq * t
    a, b = cfg.ir_cutoff, cfg.uv_cutoff

    span = (b - a) if np.isfinite(b) else np.inf
    if w == 0.0 or w * span < 16.0 * np.pi:
        return integrate_semi_infinite(lambda x: g(x) * trig(w * x), cfg)

    head_end = min(b, a + 8.0 * np.pi / w)
    v1, e1 = _quad(lambda x: g(x) * trig(w * x), a, head_end, cfg)
    if head_end >= b:
        return v1, e1
    v2, e2 = _quad(g, head_end, b, cfg, weight=kind, wvar=w)
    return v1 + v2, e1 + e2


def integrate_sinc_squared(g, center, t, cfg):
    """Integrate ``g(x) * sin^2((x-c) t/2) / ((x-c)/2)^2`` over the window.

    This is the finite-time transition kernel whose t -> infinity limit is
    2 pi t delta(x - c); the kernel is kept at finite t, never replaced
    by the delta on a grid.
    The resonance region is resolved directly, the far tails are split into
    the smooth 2 g/(x-c)^2 part and its oscillatory correction.
    """
    if t < 0:
        raise DomainError("sinc^2 kernels are defined for t >= 0")
    if t == 0.0:
        return 0.0, 0.0
    a, b = cfg.ir_cutoff, cfg.uv_cutoff

    def kernel(x):
        u = (x - center) * t / (2.0 * np.pi)
        return g(x) * t * t * np.sinc(u) ** 2

    span = (b - a) if np.isfinite(b) else np.inf
    if t * span < 48.0 * np.pi:
        return integrate_semi_infinite(kernel, cfg, singularities=[center])

    half_width = 24.0 * np.pi / t
    lo = max(a, center - half_width)
    hi = min(b, center + half_width)
    value, err = _quad(kernel, lo, hi, cfg, points=[center])

    def tail(ta, tb):
        nonlocal value, err
        smooth = lambda x: 2.0 * g(x) / (x - center) ** 2
        if np.isfinite(tb):
            v, e = _quad(smooth, ta, tb, cfg)
        else:
            v, e = integrate_semi_infinite(smooth, replace(cfg, ir_cutoff=ta))
        value += v
        err += e
        # subtract the oscillatory part: 2 g cos((x-c)t)/(x-c)^2, expanded so
        # QUADPACK's cos/sin weights (anchored at x=0) apply
        cc, ec = _quad(smooth, ta, tb, cfg, weight="cos", wvar=t)
        cs, es = _quad(smooth, ta, tb, cfg, weight="sin", wvar=t)
        value -= np.cos(center * t) * cc + np.sin(center * t) * cs
        err += ec + es

    if lo > a:
        tail(a, lo)
    if np.isfinite(b) and hi < b:
        tail(hi, b)
    elif not np.isfinite(b):
        tail(hi, np.inf)
    return value, err


@functools.cache
def _gauss_legendre(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only:
    every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# --- sine and cosine integrals ----------------------------------------------

_EULER_GAMMA = 0.57721566490153286061
# _cin_si sums the power series below this argument and the continued
# fraction from it on; both stay within 7e-16 of 30-digit values there
_SERIES_LIMIT = 4.0
# Si(x) = x sum_k a_k x^2k and Cin(x) = x^2 sum_k b_k x^2k; sixteen terms
# reach 1e-17 relative at x = 4
_SI_SERIES = [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(16)]
_CIN_SERIES = [(-1) ** k / ((2 * k + 2) * math.factorial(2 * k + 2)) for k in range(16)]


def _cin_si(x):
    """(Cin(x), Si(x)) for x >= 0, to within a few ulps.

    Si(x) = int_0^x sin(u)/u du and Cin(x) = int_0^x (1 - cos u)/u du
    = gamma + ln x - Ci(x) (DLMF 6.2).  Below _SERIES_LIMIT both come from
    their power series, so Cin never cancels gamma + ln x against Ci;
    above it from :func:`_ci_si_tail`.
    """
    if x < _SERIES_LIMIT:
        u = x * x
        si = cin = 0.0
        for a, b in zip(reversed(_SI_SERIES), reversed(_CIN_SERIES)):
            si = si * u + a
            cin = cin * u + b
        return cin * u, si * x
    ci, si = _ci_si_tail(x)
    return _EULER_GAMMA + math.log(x) - ci, si


def _ci_si_tail(x):
    """(Ci(x), Si(x)) for x >= _SERIES_LIMIT.

    The continued fraction of E1(ix) = -Ci(x) + i (Si(x) - pi/2), summed by
    the modified Lentz method (Numerical Recipes, 3rd ed., section 6.8
    ``cisi``); it converges in at most 52 terms from x = 4 on.
    """
    b = complex(1.0, x)
    c = 1.0 / sys.float_info.min
    d = h = 1.0 / b
    for i in range(1, 100):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if abs(step.real - 1.0) + abs(step.imag) <= sys.float_info.epsilon:
            break
    h *= complex(math.cos(x), -math.sin(x))
    return -h.real, 0.5 * math.pi + h.imag
