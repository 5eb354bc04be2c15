"""Numerical integration engine shared by all physics modules.

Semi-infinite bath integrals are mapped to (0, 1) via x = u/(1-u) and
handled by adaptive Gauss-Kronrod panels (QUADPACK).  Principal values use
QUADPACK's Cauchy-weight rule (QAWC), long-time oscillatory integrals a
split into a resolved head plus Chebyshev-moment (Filon-type) tails, and
the sinc^2 kernels of finite-time transition probabilities get a
dedicated routine so the infinite-time delta limit never has to be
represented on a grid.

All routines return ``(value, error_estimate)`` and raise
:class:`~dissipon.errors.QuadratureError` carrying the best estimate when
the requested tolerance cannot be certified.
"""

from __future__ import annotations

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
    """Tolerances and spectral cutoffs for the bath integrals.

    Parameters
    ----------
    abs_tol, rel_tol : float
        Requested absolute / relative accuracy of every integral.
    uv_cutoff : float
        Upper frequency cutoff Lambda.  ``inf`` maps the tail to (0, 1).
    ir_cutoff : float
        Lower frequency cutoff epsilon (>= 0).
    max_subdivisions : int
        Panel budget of the adaptive subdivision.
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
        choice is explicit here rather than buried in the integrators.
        """
        freqs = [f for f in frequencies if f > 0]
        if not freqs:
            raise DomainError("at least one positive frequency is required")
        defaults = dict(uv_cutoff=100.0 * max(freqs), ir_cutoff=1e-8 * min(freqs))
        defaults.update(overrides)
        return cls(**defaults)

    def tolerance_for(self, value):
        return max(self.abs_tol, self.rel_tol * abs(value))


def _quad(f, a, b, cfg, points=None, weight=None, wvar=None):
    """QUADPACK call honouring the config; raises on uncertified results."""
    # imported here: scipy.integrate is most of a cold import of the package,
    # and the field and Volterra runs never integrate
    from scipy.integrate import quad
    kwargs = dict(epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
                  full_output=True)
    if points is not None and np.isfinite(b):
        pts = [p for p in points if a < p < b]
        if pts:
            kwargs["points"] = pts
    if weight is not None:
        kwargs.pop("points", None)
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
        if not np.isfinite(b):
            kwargs["limlst"] = max(cfg.max_subdivisions, 50)
    out = quad(f, a, b, **kwargs)
    value, err = out[0], out[1]
    if len(out) > 3:  # QUADPACK flagged trouble
        if err <= 10.0 * cfg.tolerance_for(value):
            return value, err
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: {out[3].splitlines()[0]}",
            best_estimate=value, error_estimate=err,
        )
    return value, err


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
