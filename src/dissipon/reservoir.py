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

This module is the one place that integrates against a coupling, on the
window [epsilon, Lambda] and for both kinds: the kernel and the friction
sweep (:func:`_transform`), the two-level shifts of ``tls``
(:func:`_principal_value`) and the finite-time emission of ``rates``
(:func:`_sinc_squared`); the callers add only the physical prefactor.  The
canonical weight f(w)^2 w^5 is the constant c = 3 beta / (4 pi^2), so its
integrals are closed forms: a sinc, logarithms, Si and Cin.  A tabulated f
is linear between knots, so on each panel of the window (its ends and the
knots inside) f(w)^2 w^5 is a polynomial of degree 7 in the panel's local
variable, and its transform against exp(i w t) is a Filon-type sum in
closed form: a power series in the panel's phase spread below 2, an upward
moment recurrence above.  For the principal value and sinc^2, a panel
within two half-widths of the pole, or holding the resonance, subtracts
the Taylor terms there and integrates them in closed form; every other
piece is smooth and goes through one fixed Gauss-Legendre rule.  No bath
integral calls QUADPACK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonMarkovianError
from .langevin import _check_grid
from .quadrature import _EULER_GAMMA, QuadratureConfig, _cin_si, _gauss_legendre

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
            self._weight = 3.0 * self.beta / (4.0 * np.pi**2)  # f(w)^2 w^5
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
            with np.errstate(divide="ignore", over="ignore"):
                quintic = 4.0 * np.pi**2 * omega**5
                out = np.sqrt(3.0 * self.beta / quintic)
                exact = (quintic >= np.finfo(float).tiny) & (quintic < np.inf)
                if not exact.all():  # past w ~ 2e61 or below ~1e-62; f ~ w^(-5/2)
                    out = np.where(exact, out, math.sqrt(self._weight) * omega**-2.5)
        else:
            out = np.interp(omega, self.grid, self.values, left=0.0, right=0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def spectral_weight(self, omega):
        """|f(w)|^2 w^5, the weight entering the memory kernel."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == "canonical":
            out = np.full(omega.shape, self._weight)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # f = 0 where w^5 overflows
                f = self(omega)
                out = f**2 * omega**5
            if np.isnan(out).any():
                out = np.where(np.isnan(out) & (f == 0.0), 0.0, out)
        if out.ndim == 0 or np.isscalar(omega):
            return float(out)
        return out

    def golden_rule(self, omega):
        """The golden-rule weight (4 pi^2 / 3) |f(w)|^2 w^5; beta when canonical."""
        return 4.0 * np.pi**2 / 3.0 * self.spectral_weight(omega)

    def default_config(self, cfg=None):
        """The kernel's and the friction sweep's window: ``cfg``, else [0, uv_cutoff]."""
        if cfg is None:
            cfg = QuadratureConfig(uv_cutoff=np.inf if self.uv_cutoff is None else self.uv_cutoff)
        if not cfg.uv_cutoff < np.inf:
            raise DomainError("the kernel and the friction sweep need a finite UV cutoff")
        return cfg


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
            with np.errstate(over="ignore"):  # checked just below
                norms = np.linalg.norm(momenta, axis=1)
            bad = ~((norms > 0) & (norms < np.inf))
            if bad.any():
                raise DomainError("each fock momentum needs a norm |p| that is positive "
                                  f"and finite, not {norms[bad][0]}")
            self.momenta = momenta
            self.frequencies = norms
            if weights is None:
                weights = np.ones(len(momenta))
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (len(momenta),):
                raise DomainError("one line-width weight per quantum is required")
            if not np.isfinite(self.weights).all():
                raise DomainError("fock line-width weights must be finite")
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
    """Bose occupation 1/(e^(w/T) - 1), exactly 0 where e^(w/T) overflows
    (w/T past ~709.78), where the occupation is below the smallest normal float.

    A scalar ``omega`` gives a float, an array an array.
    """
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(np.asarray(omega, dtype=float) / temperature)
    return float(out) if out.ndim == 0 else out


# float64 entries of the (time, panel) temporaries a tabulated transform
# holds at once: 8 MB
_TRANSFORM_BLOCK = 1 << 20
# a panel's phase spread theta = h t below which the transforms sum the
# power series in theta; from it on they recur upward in the moments
_SERIES_THETA = 2.0
# rows of a uniform time grid per row whose phases are evaluated directly;
# the others are rotated from earlier rows
_ROTATIONS = 16
# the friction sweep's plateau test: its absolute floor, for a sweep settling at 0
_PLATEAU_FLOOR = 1e-10


def _table_panels(coupling, lo, hi, power):
    """The tabulated coupling's panels inside the window [lo, hi].

    The edges are lo, the table's knots inside the window and hi; outside
    the table f is zero, so no panel lies there.  On a panel w = c + h s
    with s in [-1, 1] and f is linear, so f(w)^2 w^power is the polynomial
    sum_k q[k] s^k.  Returns (c, h, q, edges, order) with the panels sorted
    by h: panel i spans edges[order[i]] to edges[order[i] + 1].
    """
    knots = coupling.grid
    lo, hi = max(lo, knots[0]), min(hi, knots[-1])
    if not lo < hi:
        empty = np.empty(0)
        return empty, empty, np.empty((power + 3, 0)), empty, empty.astype(np.intp)
    edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
    f = coupling(edges)
    order = np.argsort(np.diff(edges), kind="stable")
    c = 0.5 * (edges[1:] + edges[:-1])[order]
    h = 0.5 * np.diff(edges)[order]
    mid = 0.5 * (f[1:] + f[:-1])[order]
    slope = 0.5 * np.diff(f)[order]
    # (mid + slope s)^2 times (c + h s)^power by the binomial theorem
    square = np.stack((mid * mid, 2.0 * mid * slope, slope * slope))
    c_pow, h_pow = [np.ones_like(c)], [np.ones_like(h)]
    for _ in range(power):
        c_pow.append(c_pow[-1] * c)
        h_pow.append(h_pow[-1] * h)
    q = np.zeros((power + 3, len(c)))
    for k in range(power + 1):
        q[k:k + 3] += square * (math.comb(power, k) * c_pow[power - k] * h_pow[k])
    return c, h, q, edges, order


def _transform(coupling, times, lo, hi, power, part):
    """integral_lo^hi f(w)^2 w^power exp(i w t) dw, exact for both kinds.

    ``part`` picks the real ("cos") or imaginary ("sin") part at each time.
    The canonical coupling has the kernel's (5, "cos"), c (sin(hi t) -
    sin(lo t)) / t, taken in half angles as c (hi - lo) cos((hi + lo) t/2)
    sinc((hi - lo) t/2) so that no difference cancels near t = 0, and the
    friction sweep's (4, "sin"), c [Si(hi t) - Si(lo t)].  A tabulated
    coupling's is a sum over its panels: on each, h exp(i c t) integral
    Q(s) exp(i theta s) ds with theta = h t.  Below theta = 2 that is the
    power series sum_j (i theta)^j mu_j / j! in Q's
    moments mu_j, whose coefficients do not depend on time, so a block of
    times is one BLAS product against cos(c t) and one against sin(c t).
    From theta = 2 on it is
    sum_k q_k m_k(theta), with m_k = integral s^k exp(i theta s) ds by
    upward recurrence from m_0 = 2 sin(theta)/theta, which amplifies
    rounding by at most 7!/2^7.  The (time, panel) temporaries are held a
    block of times at a time, at most _TRANSFORM_BLOCK float64 entries;
    the per-panel series coefficients (26 at most) come on top.
    """
    times = np.asarray(times, dtype=float)
    if coupling.kind == "canonical" and (power, part) == (5, "cos"):
        return coupling._weight * (hi - lo) * np.cos(0.5 * (hi + lo) * times) \
            * np.sinc((hi - lo) * times / (2.0 * np.pi))
    if coupling.kind == "canonical" and (power, part) == (4, "sin"):
        return coupling._weight * np.array([_cin_si(hi * t)[1] - _cin_si(lo * t)[1]
                                            for t in times.tolist()])
    # edges and order go at once: held through the block temporaries they
    # shift malloc's mmap threshold, ~25% on a 20000-knot table
    c, h, q = _table_panels(coupling, lo, hi, power)[:3]
    out = np.zeros(len(times))
    if len(c) == 0:
        return out
    # at t = 0 the real part is sum h mu_0 and the imaginary part 0
    if part == "cos":
        out[times == 0] = (2.0 / np.arange(1, len(q) + 1, 2)) @ q[0::2] @ h
    order = np.flatnonzero(times > 0)
    order = order[np.argsort(times[order], kind="stable")]
    ts = times[order]
    n_p = len(h)
    r0 = 0
    while r0 < len(ts):
        # panels [0, mixed) take the series and [series, P) the recurrence
        # at every time of a block; the band between takes both, masked.
        # A block spans at most a factor 2^16 in t, which keeps the series'
        # scaled powers far from overflow.  Its rows are sized for the
        # series (cos and sin per pair, and the rotation's scratch), then
        # cut to fit the recurrence's nine temporaries per pair.
        series = int(np.searchsorted(h * ts[r0], _SERIES_THETA))
        cost = 2 * series + series // 8 + 1
        r1 = min(int(np.searchsorted(ts, 65536.0 * float(ts[r0]), side="right")),
                 r0 + max(1, _TRANSFORM_BLOCK // cost))
        mixed = int(np.searchsorted(h * ts[r1 - 1], _SERIES_THETA))
        if mixed < n_p:
            cost += 9 * (n_p - mixed)
            r1 = min(r1, r0 + max(1, _TRANSFORM_BLOCK // cost))
            mixed = int(np.searchsorted(h * ts[r1 - 1], _SERIES_THETA))
        tb = ts[r0:r1]
        acc = np.zeros(len(tb))
        if series:
            acc += _series_block(tb, c[:series], h[:series], q[:, :series], mixed, part)
        if mixed < n_p:
            acc += _recurrence_block(tb, c[mixed:], h[mixed:], q[:, mixed:], part)
        out[order[r0:r1]] = acc
        r0 = r1
    return out


def _series_terms(theta):
    """Terms of sum_j (i theta)^j mu_j / j! that leave a remainder below
    1e-17 of the panel's integral of |Q|, which bounds every |mu_j|."""
    j, term = 0, 1.0
    while term * math.exp(theta) >= 1e-17:
        j += 1
        term *= theta / j
    return j


def _series_block(tb, c, h, q, mixed, part):
    """The series part at the times ``tb``; pairs of the band h[mixed:]
    with theta >= 2 are the recurrence's and count zero here."""
    tau = tb[-1]
    n_j = _series_terms(min(_SERIES_THETA, h[-1] * tau))
    # coef[j] = h (h tau)^j (-1)^(j//2) mu_j / j!, so that theta^j is
    # (h tau)^j (t/tau)^j with both factors bounded in the block; the moment
    # mu_j = integral Q s^j ds takes 2/(k+j+1) from each q_k with k+j even
    coef = np.empty((n_j, len(h)))
    scale = h.copy()
    for j in range(n_j):
        row = coef[j]
        np.multiply(q[j % 2], 2.0 / (j % 2 + j + 1), out=row)
        for k in range(j % 2 + 2, len(q), 2):
            row += q[k] * (2.0 / (k + j + 1))
        row *= scale if j % 4 < 2 else -scale
        scale *= h * tau / (j + 1)
    cos_ct, sin_ct = _phases(tb, c)
    if mixed < len(h):
        beyond = np.multiply.outer(tb, h[mixed:]) >= _SERIES_THETA
        cos_ct[:, mixed:][beyond] = 0.0
        sin_ct[:, mixed:][beyond] = 0.0
    # the real part takes the even powers against cos(c t) and the odd
    # against -sin(c t); the imaginary part the odd against cos(c t) and
    # the even against sin(c t)
    first, second, sign = (0, 1, -1.0) if part == "cos" else (1, 0, 1.0)
    powers = np.power(tb / tau, np.arange(n_j)[:, None])
    from_cos = np.einsum("ji,ji->i", coef[first::2] @ cos_ct.T, powers[first::2])
    from_sin = np.einsum("ji,ji->i", coef[second::2] @ sin_ct.T, powers[second::2])
    return from_cos + sign * from_sin


def _phases(tb, c):
    """cos(c t) and sin(c t) at the times ``tb``, a row per time.

    On a uniform grid of n times only the first stride = ceil(n/_ROTATIONS)
    rows are evaluated; each later row is the row one stride before it,
    rotated through the stride's phase.  A row is at most _ROTATIONS - 1
    rotations from an evaluated one, each adding a rounding error.
    """
    rows = len(tb)
    stride = rows
    if rows > 2:
        step = (tb[-1] - tb[0]) / (rows - 1)
        drift = np.abs(tb - (tb[0] + step * np.arange(rows))).max()
        if drift <= 8.0 * np.finfo(float).eps * tb[-1]:
            stride = -(-rows // _ROTATIONS)
    cos_ct = np.empty((rows, len(c)))
    sin_ct = np.empty((rows, len(c)))
    first = np.multiply.outer(tb[:stride], c, out=cos_ct[:stride])
    np.sin(first, out=sin_ct[:stride])
    np.cos(first, out=first)
    if stride < rows:
        turn = stride * step * c
        turn_cos, turn_sin = np.cos(turn), np.sin(turn)
        scratch = np.empty((stride, len(c)))
    for start in range(stride, rows, stride):
        n = min(stride, rows - start)
        prev, new = slice(start - stride, start - stride + n), slice(start, start + n)
        # cos(a + b) = cos a cos b - sin a sin b, sin(a + b) = sin a cos b + cos a sin b
        np.multiply(cos_ct[prev], turn_cos, out=cos_ct[new])
        np.multiply(sin_ct[prev], turn_sin, out=scratch[:n])
        cos_ct[new] -= scratch[:n]
        np.multiply(sin_ct[prev], turn_cos, out=sin_ct[new])
        np.multiply(cos_ct[prev], turn_sin, out=scratch[:n])
        sin_ct[new] += scratch[:n]
    return cos_ct, sin_ct


def _recurrence_block(tb, c, h, q, part):
    """The recurrence part at the times ``tb``; pairs with theta < 2 (the
    band's) are the series' and count zero here."""
    theta = np.multiply.outer(tb, h)
    sin_2 = 2.0 * np.sin(theta)
    cos_2 = 2.0 * np.cos(theta)
    # m_k is C_k = integral s^k cos(theta s) ds for even k and i S_k, with
    # S_k = integral s^k sin(theta s) ds, for odd k; by parts,
    # C_k = (2 sin(theta) - k S_(k-1)) / theta, S_k = (k C_(k-1) - 2 cos(theta)) / theta
    m = sin_2 / theta
    even = m * q[0]
    odd = np.zeros_like(theta)
    for k in range(1, len(q)):
        if k % 2:
            m *= k
            m -= cos_2
            m /= theta
            odd += m * q[k]
        else:
            m *= -k
            m += sin_2
            m /= theta
            even += m * q[k]
    del sin_2, cos_2, m
    phase = np.multiply.outer(tb, c)
    cos_ct = np.cos(phase)
    sin_ct = np.sin(phase, out=phase)
    if part == "cos":
        even *= cos_ct
        odd *= sin_ct
        even -= odd
    else:
        even *= sin_ct
        odd *= cos_ct
        even += odd
    even[theta < _SERIES_THETA] = 0.0
    return even @ h


# Gauss-Legendre nodes per panel or sub-panel of the smooth pieces of a
# tabulated principal value and sinc^2: exact to rounding for a pole two
# half-widths from the panel and for a phase spread of _SUB_THETA
_GL_NODES = 20
# the largest phase theta = h t a sub-panel of half-width h spans
_SUB_THETA = 8.0
# a panel whose centre lies within this many half-widths of a principal
# value's pole subtracts the pole's Taylor term and integrates it in closed
# form; farther off, the rule above is exact to rounding
_NEAR = 2.0


def _divide_out(q, s0):
    """B's coefficients, a row shorter than q's, in Q(s) = Q(s0) + (s - s0)
    B(s) for Q(s) = sum_k q[k] s^k, by synthetic division."""
    b = np.empty_like(q[1:])
    b[-1] = q[-1]
    for k in range(len(b) - 1, 0, -1):
        b[k - 1] = q[k] + s0 * b[k]
    return b


def _gauss_legendre_sum(coef, weight, subpanels):
    """sum over panels p of integral_-1^1 P_p(s) weight(s, p) ds, with
    P_p = sum_k coef[k, p] s^k, by _GL_NODES-point Gauss-Legendre on
    ``subpanels[p]`` equal sub-panels of each.  ``weight`` gets the nodes, a
    row per sub-panel, and the rows' panels.  The rows are taken in blocks
    of at most _TRANSFORM_BLOCK / 8 nodes."""
    x, wt = _gauss_legendre(_GL_NODES)
    starts = np.concatenate(([0], np.cumsum(subpanels)))
    rows = (_TRANSFORM_BLOCK // 8) // len(x)
    total = 0.0
    for r0 in range(0, int(starts[-1]), rows):
        k = np.arange(r0, min(int(starts[-1]), r0 + rows))
        panel = np.searchsorted(starts, k, side="right") - 1
        m = subpanels[panel]
        # sub-panel j of m is centred on -1 + (2j + 1)/m with half-width 1/m
        s = (-1.0 + (2 * (k - starts[panel]) + 1) / m)[:, None] + x / m[:, None]
        poly = np.zeros_like(s)
        for row in coef[::-1]:
            poly *= s
            poly += row[panel][:, None]
        poly *= weight(s, panel)
        total += float(((poly @ wt) / m).sum())
    return total


def _pole_offsets(ends, h, pole):
    """s0 = (pole - c) / h on each panel, from its (lower, upper) ends'
    offsets from the pole, which are exact near it: the panel then ends
    where its knots are to within rounding of the offsets, not of the
    knots themselves."""
    y = ends - pole
    return -0.5 * (y[0] + y[1]) / h


def _line_at(coupling, ends, x):
    """f(x) on each panel's line through f at its (lower, upper) ends,
    taken from the nearer end, and the line's slope: exact where x is an
    end, and free of the rounding of the expanded coefficients q."""
    a, z = ends
    fa, fz = coupling(a), coupling(z)
    slope = (fz - fa) / (z - a)
    return np.where(x - a <= z - x, fa + slope * (x - a), fz - slope * (z - x)), slope


def _principal_value(coupling, pole, lo, hi):
    """PV integral_lo^hi f(w)^2 w^4 / (w - pole) dw, for a nonzero pole.

    The canonical c / (w (w - pole)) integrates to (c / pole) ln(|w - pole|
    / w) between the ends, an infrared logarithm: lo must be positive.  A
    tabulated coupling's, on a panel w = c + h s, is integral
    Q(s) / (s - s0) ds with s0 = (pole - c) / h.  A panel with |s0| <= _NEAR
    subtracts Q(s0): the rest, B(s) = (Q(s) - Q(s0)) / (s - s0), is a
    polynomial and integrates exactly, and Q(s0) = f(pole)^2 pole^4, f on
    the panel's line, takes ln|(b - pole) / (a - pole)| between the panel's
    ends a, b.  Where the pole is a knot the two panels' logarithms of 0
    cancel, since f is continuous there, and are left out.  Every other
    panel is smooth and goes through one Gauss-Legendre rule.

    Where the pole is an end of the range, one-sided, the principal value
    diverges unless f(pole)^2 pole^4 is 0 (f jumps to 0 at an end of a
    table).
    """
    if coupling.kind == "canonical":
        if lo <= 0.0:
            raise DomainError(
                "the canonical coupling makes the level shifts infrared-divergent; "
                "supply a positive ir_cutoff")
        _reject_one_sided_pole(coupling, pole, lo, hi)
        return coupling._weight / pole * (_log_gap(hi, pole) - _log_gap(lo, pole))
    c, h, q, edges, order = _table_panels(coupling, lo, hi, 4)
    if len(edges):
        _reject_one_sided_pole(coupling, pole, edges[0], edges[-1])
    ends = np.stack((edges[:-1][order], edges[1:][order]))
    s0 = _pole_offsets(ends, h, pole)
    near = np.abs(s0) <= _NEAR
    s0_far = s0[~near]
    total = _gauss_legendre_sum(q[:, ~near], lambda s, p: 1.0 / (s - s0_far[p][:, None]),
                                np.ones(len(s0_far), dtype=np.int64))
    if near.any():
        b = _divide_out(q[:, near], s0[near])
        total += ((2.0 / np.arange(1, len(b) + 1, 2)) @ b[0::2]).sum()
        # Q(s0) from the panel's line, as the logarithm would amplify the
        # rounding of q: a pole on a knot then pairs the two panels' ln 0
        f0, _ = _line_at(coupling, ends[:, near], pole)
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(ends[::-1, near] - pole))
        logs[np.isinf(logs)] = 0.0
        total += (f0 * f0 * pole**4) @ (logs[0] - logs[1])
    return float(total)


def _reject_one_sided_pole(coupling, pole, first, last):
    """Raise where the pole is an end of [first, last] and f(pole) is not 0."""
    if pole in (first, last) and pole != 0.0 and coupling(pole) != 0.0:
        raise DomainError(
            f"the pole {pole:.6g} lies on the {'lower' if pole == first else 'upper'} end "
            f"of the integration window [{first:.6g}, {last:.6g}], where the principal "
            "value diverges")


def _log_gap(end, pole):
    """ln(|end - pole| / end), 0 at end = inf: log1p below end / 2, and
    above it end - pole is exact or the logarithm far from 0."""
    if abs(pole) < 0.5 * end:
        return math.log1p(-pole / end)
    return math.log(abs(end - pole) / end)


def _sinc_squared_kernel(theta, u):
    """F(u) = -4 sin^2(theta u / 2) / u + 2 theta Si(theta u), an
    antiderivative of 4 sin^2(theta u / 2) / u^2; odd, 0 at u = 0."""
    if u == 0.0:
        return 0.0
    x = abs(u)
    return math.copysign(2.0 * theta * _cin_si(theta * x)[1]
                         - 4.0 * math.sin(0.5 * theta * x) ** 2 / x, u)


def _sinc_squared(coupling, center, t, lo, hi):
    """integral_lo^hi f(w)^2 w^4 sin^2((w - center) t / 2) / ((w - center) / 2)^2 dw,
    for t > 0 and, with the canonical coupling, center > 0.

    The canonical integrand c 2 (1 - cos(y t)) / (w y^2), y = w - center, is
    :func:`_emission_antiderivative`'s; it behaves like t^2 / w as w -> 0,
    so lo must be positive.  For a tabulated coupling, on a panel
    w = c + h s with theta = h t, u = s - s0 and s0 = (center - c) / h, the
    integral is (1/h) integral Q(s) 4 sin^2(theta u / 2) / u^2 ds.  A panel
    holding the resonance (|s0| <= 1) writes
    Q(s) = Q(s0) + Q'(s0) u + u^2 R(s) and integrates the first two terms in
    closed form: [-4 sin^2(theta u / 2) / u + 2 theta Si(theta u)] and
    [2 Cin(theta |u|)] between u = -1 - s0 and 1 - s0.  Beyond its panel the
    resonance is not subtracted: the terms would cancel as ~theta u^2, and
    the kernel there is smooth.  The rest, R(s) 4 sin^2(theta u / 2) and the
    whole integrand on every other panel, goes through one Gauss-Legendre
    rule on sub-panels spanning a phase of at most _SUB_THETA, so the work
    grows as t (hi - lo).
    """
    if coupling.kind == "canonical":
        if lo <= 0.0:
            raise DomainError(
                "the canonical coupling makes finite-time emission infrared-divergent; "
                "supply a positive ir_cutoff")
        if not center * t < math.inf:
            raise DomainError(f"the phase omega t = {center:.3g} x {t:.3g} overflows")
        # the antiderivative carries a factor center^2 / 2, divided out a
        # center at a time so that neither factor leaves the float range
        return 2.0 * coupling._weight / center * ((
            _emission_antiderivative(hi, center, t)
            - _emission_antiderivative(lo, center, t)) / center)
    c, h, q, edges, order = _table_panels(coupling, lo, hi, 4)
    ends = np.stack((edges[:-1][order], edges[1:][order]))
    with np.errstate(over="ignore"):  # an overflowing count is rejected below
        theta = h * t
        subpanels = np.maximum(1.0, np.ceil(theta / _SUB_THETA))
        count = subpanels.sum()
    if not count < np.iinfo(np.intp).max:
        raise DomainError(f"the sinc^2 sum at t = {t:.3g} needs {count:.3g} sub-panels, "
                          "past the index range")
    s0 = _pole_offsets(ends, h, center)
    near = np.flatnonzero(np.abs(s0) <= 1.0)
    coef = q.copy()
    # whether the Gauss-Legendre part divides by u^2: not where Q(s0) and
    # Q'(s0) u are taken out and R(s) u^2 is left
    divided = np.ones(len(c), dtype=bool)
    total = 0.0
    if len(near):
        r = _divide_out(_divide_out(q[:, near], s0[near]), s0[near])
        # Q(s0) and Q'(s0) from the panel's line: the closed forms weigh them
        # by up to ~theta, which would amplify the rounding of q
        f0, slope = _line_at(coupling, ends[:, near], center)
        k0 = f0 * f0 * center**4
        k1 = h[near] * 2.0 * f0 * center**3 * (slope * center + 2.0 * f0)
        coef[:, near] = 0.0
        coef[:len(r), near] = r
        divided[near] = False
        for i, p in enumerate(near):
            u_lo, u_hi = (ends[:, p] - center) / h[p]
            th = theta[p]
            total += (k0[i] * (_sinc_squared_kernel(th, u_hi) - _sinc_squared_kernel(th, u_lo))
                      + 2.0 * k1[i] * (_cin_si(th * abs(u_hi))[0]
                                       - _cin_si(th * abs(u_lo))[0])) / h[p]

    def weight(s, p):
        u = s - s0[p][:, None]
        out = np.sin(0.5 * theta[p][:, None] * u)
        out *= out
        out *= 4.0 / h[p][:, None]
        u *= u
        u[~divided[p]] = 1.0
        out /= u
        return out
    return total + _gauss_legendre_sum(coef, weight, subpanels.astype(np.intp))


def _emission_antiderivative(end, omega, t):
    """(w^2 / 2) times an antiderivative of 2 (1 - cos(y t)) / (w_k y^2) at w_k = end.

    Partial fractions split 1/(w_k y^2) into 1/(w^2 w_k) - 1/(w^2 y) +
    1/(w y^2), and each part against 2 (1 - cos y t) is elementary plus Si
    and Cin.  With tau = w t, c = cos tau, s = sin tau, h = 1 - c, X = end t
    and f(u) = (1 - cos u) / u (:func:`_versine_over`), it is

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
        df = (2.0 * cos_gap * np.sin(0.5 * v) ** 2 + sin_gap * np.sin(v)
              - _versine_over(x_gap) * v) / u
        sin_u = sin_gap * np.cos(v) + cos_gap * np.sin(v)
        return (h * (math.log(end) - cin_end) + _tau_minus_sin(tau) * si_end
                + tau * float(weights @ (df - tau * sin_u / u)))
    y = end - omega
    x = abs(y) * t
    cin_gap, si_gap = _cin_si(x)
    return (h * math.log(end) + math.cos(tau) * cin_end - cin_gap - math.sin(tau) * si_end
            + math.copysign(tau * (si_gap - _versine_over(x)), y))


@functools.cache
def _unit_gauss_legendre():
    """Eight-point Gauss-Legendre nodes and weights on [0, 1]: exact to
    rounding for the entire integrands above on an interval of length <= 1."""
    x, w = _gauss_legendre(8)
    return 0.5 * (x + 1.0), 0.5 * w


def _tau_minus_sin(tau):
    """tau - sin(tau), as int_0^tau 2 sin^2(v/2) dv by Gauss-Legendre for tau <= 1;
    a scalar ``tau`` gives a float, an array an array."""
    tau = np.asarray(tau, dtype=float)
    nodes, weights = _unit_gauss_legendre()
    near = tau * ((2.0 * np.sin(np.multiply.outer(0.5 * tau, nodes)) ** 2) @ weights)
    out = np.where(tau > 1.0, tau - np.sin(tau), near)
    return float(out) if out.ndim == 0 else out


def _versine_over(x):
    """(1 - cos x) / x = 2 sin^2(x/2) / x, 0 at x = 0."""
    if x == 0.0:
        return 0.0
    half = math.sin(0.5 * x)
    return 2.0 * half * (half / x)


@dataclass
class MemoryKernel:
    """gamma(t) sampled at times t >= 0, read as lags through :attr:`step`; its
    Ohmic friction limit is :func:`friction_coefficient`."""

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
        """The step h of a kernel sampled at the lags t = 0, h, 2h, ...; else DomainError."""
        if self.times[0] != 0.0:
            raise DomainError(f"kernel lags must start at t = 0, not {self.times[0]:.6g}")
        return _check_grid(self.times, "kernel lag grid")[1]

    @classmethod
    def sample(cls, coupling, times, cfg=None):
        """Sample gamma on ``times`` (uniform grid starting at 0).

        gamma is (8 pi / 3) times the exact cosine transform of f(w)^2 w^5
        on the window [epsilon, Lambda] (see the module docstring): for the
        canonical coupling (2 beta / pi) (sin(Lambda t) - sin(epsilon t)) / t,
        for a tabulated one a panel sum, to rounding, in O(times x panels)
        work.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times < 0):
            raise DomainError("the memory kernel is defined for t >= 0")
        cfg = coupling.default_config(cfg)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            gamma = (8.0 * np.pi / 3.0) * _transform(coupling, times, cfg.ir_cutoff,
                                                     cfg.uv_cutoff, 5, "cos")
        if not np.isfinite(gamma).all():
            raise DomainError("the memory kernel passes the float range; the coupling is too strong")
        return cls(times, gamma)

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
    :class:`~dissipon.errors.NonMarkovianError`.  J(T) is the exact sine
    transform of f(w)^2 w^4 on the window: (2 beta / pi) [Si(Lambda T) -
    Si(epsilon T)] for the canonical coupling.

    J(T) tends to (4 pi^2 / 3) S(0+), the golden-rule weight at zero
    frequency, so a table has a plateau only if its S = f^2 w^5 reaches a
    nonzero value as w -> 0.  A table that is zero below its first knot has
    S(0+) = 0: the 500-knot canonical table on [0.01, 50] swings through
    J/beta = -63.8, -10.2, 1.48 at the three horizons on its way to 0.  It
    is not Ohmic, and NonMarkovianError is the right verdict.
    """
    cfg = coupling.default_config(cfg)
    lam = cfg.uv_cutoff
    # the plateau test reads three doubling horizons; each is its own integral
    horizons = [2.0**j * 100.0 / lam for j in range(6, 9)]
    sweep = ((8.0 * np.pi / 3.0) * _transform(
        coupling, np.array(horizons), cfg.ir_cutoff, lam, 4, "sin")).tolist()
    if not np.all(np.isfinite(sweep)):
        # a canonical beta past ~6e307 overflows its weight 3 beta / (4 pi^2)
        raise DomainError(f"the kernel time integral overflows (last values {sweep})")
    diffs = np.abs(np.diff(sweep))
    scale = max(abs(sweep[-1]), _PLATEAU_FLOOR)
    if diffs[-1] <= 5e-4 * scale and diffs[-2] <= 5e-4 * scale:
        return sweep[-1]
    raise NonMarkovianError(
        "kernel time integral shows no plateau over the horizon sweep "
        f"(last values {sweep}); the coupling is not Ohmic at zero frequency")
