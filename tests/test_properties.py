"""Property-based checks of the golden-rule rates, two-level constants,
the canonical bath integrals' closed forms, the memory kernel's local
limit, mean-trajectory solvers, lattice field maps and the CLI's exit
codes.

Skipped where hypothesis is not installed; the 30-digit oracles of the
closed forms are skipped where mpmath is not.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dissipon.cli import build_parser, main  # noqa: E402
from dissipon.errors import DomainError, StabilityError  # noqa: E402
from dissipon.field import (FieldGrid, evolve_field_with_source,  # noqa: E402
                            hamiltonian_identity_check)
from dissipon.langevin import (PotentialSpec, evolve_mean_markov,  # noqa: E402
                               evolve_mean_volterra)
from dissipon.oscillator import (FockTriple, OscillatorParams,  # noqa: E402
                                 lorentzian_moments, thermal_steady_energy)
from dissipon.quadrature import QuadratureConfig  # noqa: E402
from dissipon.rates import (RateRequest, finite_time_emission_probability,  # noqa: E402
                            rate_emission_vacuum, rates_thermal)
from dissipon.reservoir import (CouplingFunction, MemoryKernel,  # noqa: E402
                                ReservoirState, friction_coefficient)
from dissipon.tls import TwoLevelParams, decay_rate_mu, level_shifts  # noqa: E402
from test_cli import FLAG_BASES, FLAG_NEEDS, FLAG_VALUES, VALUE_FLAGS  # noqa: E402
from test_field import (driven_trajectory, lattice_coupling,  # noqa: E402
                        permode_kspace, realspace_leapfrog)
from test_langevin import direct_volterra, stepwise_markov  # noqa: E402
from test_reservoir import (gauss_legendre_transform, mpmath_principal_value,  # noqa: E402
                            mpmath_sinc_squared, subnormal_floor, table_edges)

import dissipon.reservoir as reservoir_module  # noqa: E402

occupations = st.tuples(*[st.integers(0, 5)] * 3)


def canonical_request(beta, omega, m, n, reservoir):
    c = CouplingFunction.canonical(beta, uv_cutoff=100.0 * omega)
    return RateRequest(OscillatorParams(m, omega, beta), FockTriple(*n), reservoir, c)


def canonical_tls(beta, omega0, x, lam):
    c = CouplingFunction.canonical(beta, uv_cutoff=lam)
    return TwoLevelParams(omega0, (x, 0.0, 0.0), c)


class TestRateProperties:
    @settings(deadline=None, max_examples=150)
    @given(m=st.floats(0.1, 10.0), omega=st.floats(0.01, 10.0),
           beta=st.floats(1e-4, 1.0), x=st.floats(1e-6, 1500.0), n=occupations)
    @example(m=1.0, omega=1.0, beta=0.1, x=700.5, n=(1, 0, 0))
    def test_thermal_rates_canonical(self, m, omega, beta, x, n):
        kt = omega / x
        x = omega / kt  # the ratio the rate sees
        r = canonical_request(beta, omega, m, n, ReservoirState.thermal(kt))
        pair = rates_thermal(r)
        total = sum(n)
        assert pair.emission == pytest.approx(
            total * beta / m / -math.expm1(-x), rel=1e-12)  # e^x / (e^x - 1)
        if x > 700.0:
            assert pair.absorption == 0.0
        else:
            assert pair.absorption == pytest.approx(
                (total + 3) * beta / m / math.expm1(x), rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(m=st.floats(0.1, 10.0), omega=st.floats(0.01, 10.0),
           beta=st.floats(1e-4, 1.0), n=occupations)
    def test_vacuum_rate_canonical(self, m, omega, beta, n):
        r = canonical_request(beta, omega, m, n, ReservoirState.vacuum())
        assert rate_emission_vacuum(r) == pytest.approx(sum(n) * beta / m, rel=1e-12)


class TestCanonicalProperties:
    @settings(deadline=None, max_examples=100)
    @given(beta=st.floats(1e-3, 1.0), omega0=st.floats(0.1, 5.0),
           x=st.floats(0.1, 2.0))
    def test_decay_rate_mu(self, beta, omega0, x):
        p = canonical_tls(beta, omega0, x, lam=100.0)
        assert decay_rate_mu(p) == pytest.approx(beta * omega0 * x * x, rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(beta=st.floats(1e-3, 1.0), omega0=st.floats(0.1, 5.0),
           x=st.floats(0.1, 2.0), eps_ratio=st.floats(1e-4, 1e-2),
           lam=st.floats(10.0, 1e4))
    def test_level_shifts_closed_forms(self, beta, omega0, x, eps_ratio, lam):
        eps = eps_ratio * omega0
        p = canonical_tls(beta, omega0, x, lam)
        shifts = level_shifts(p, QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        scale = beta * omega0**5 * x * x
        d1 = scale * (np.log((lam - omega0) / lam) - np.log((omega0 - eps) / eps))
        d2 = scale * np.log(lam * (eps + omega0) / (eps * (lam + omega0)))
        assert shifts.delta1 == pytest.approx(d1, rel=4e-15)
        assert shifts.delta2 == pytest.approx(d2, rel=4e-15)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def mp_quad(f, ends):
    """30-digit mpmath.quad of ``f`` over consecutive ``ends``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return mpmath.quad(f, [mpmath.mpf(e) for e in ends])


def log_ends(lo, hi):
    """lo, hi and the powers of ten times lo between them, so that a 1/w
    integrand spans one decade per panel."""
    ends = [lo]
    while ends[-1] * 10.0 < hi:
        ends.append(ends[-1] * 10.0)
    return ends + [hi]


def shift_integrals(w0, eps, lam):
    """PV int dw / (w (w - w0)) and int dw / (w (w + w0)) over [eps, lam] by
    mpmath.quad; the principal value folds the window symmetric about the pole."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        w0 = mpmath.mpf(w0)

        def plain(f, a, b):
            if a >= b:
                return 0
            if b < math.inf:
                return mp_quad(f, log_ends(a, b))
            return mp_quad(f, log_ends(a, 100.0 * max(a, float(w0))) + [b])

        d2 = plain(lambda w: 1 / (w * (w + w0)), eps, lam)
        pole = lambda w: 1 / (w * (w - w0))
        if not eps < w0 < lam:
            return plain(pole, eps, lam), d2
        half = min(w0 - eps, lam - w0)
        d1 = mp_quad(lambda u: (1 / (w0 + u) - 1 / (w0 - u)) / u, [0, half / 2, half])
        # the fold's ends stay at 30 digits: rounded to floats, they would
        # drop or double a sliver of the integrand ~1e-16 wide
        return d1 + plain(pole, eps, w0 - half) + plain(pole, w0 + half, lam), d2


def emission_integral(omega, t, eps, lam):
    """(w^2 / 2) int dw 2 (1 - cos(y t)) / (w y^2), y = w - omega, over [eps, lam]
    by mpmath.quad: in u = w t, scaled to O(1) (mpmath.quad stops on an absolute
    error estimate), panels of one period and one decade at most."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        tau = mpmath.mpf(omega) * mpmath.mpf(t)
        lo, hi = mpmath.mpf(eps) * mpmath.mpf(t), mpmath.mpf(lam) * mpmath.mpf(t)
        ends = set(log_ends(float(lo), float(hi)))
        ends.update(2 * k * math.pi for k in range(1, int(hi / (2 * math.pi)) + 1))
        if lo < tau < hi:
            ends.add(float(tau))
        ends = sorted(e for e in ends if lo < e < hi)

        def f(u):
            if u == tau:  # tanh-sinh nodes may round onto this end, where sinc^2 is 1
                return 1 / u
            return (2 * mpmath.sin((u - tau) / 2) / (u - tau)) ** 2 / u

        return float(tau**2 / 2 * mp_quad(f, [lo, *ends, hi]))


class TestCanonicalBathOracles:
    """The closed forms of the canonical bath integrals against 30-digit
    mpmath.quad of their defining integrals."""

    @settings(deadline=None, max_examples=40)
    @given(beta=log_uniform(1e-3, 10.0), omega0=log_uniform(0.1, 5.0),
           x=st.floats(0.1, 2.0), eps_ratio=log_uniform(1e-8, 10.0),
           window=st.one_of(st.just(math.inf), log_uniform(1.5, 1e6)))
    @example(beta=0.1, omega0=2.0, x=1.0, eps_ratio=1e-3, window=math.inf)
    @example(beta=0.1, omega0=2.0, x=1.0, eps_ratio=1e-3, window=100.0)  # w0 > Lambda
    @example(beta=0.1, omega0=2.0, x=1.0, eps_ratio=3.0, window=10.0)  # w0 < epsilon
    @example(beta=1.0, omega0=1.0, x=1.0, eps_ratio=1.000000002302585,
             window=math.inf)  # epsilon 2.3e-9 above w0
    @example(beta=1.0, omega0=1.0, x=1.0, eps_ratio=0.5000000000000001,
             window=math.inf)  # D1 = 4.4e-16 ~ 0, the fold ending at 1.5 - 1.1e-16
    def test_level_shifts(self, beta, omega0, x, eps_ratio, window):
        eps = eps_ratio * omega0
        lam = window * eps
        assume(omega0 not in (eps, lam))  # where D1 diverges: test_tls
        shifts = level_shifts(canonical_tls(beta, omega0, x, lam),
                              QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        scale = beta * omega0**6 * x * x
        d1, d2 = shift_integrals(omega0, eps, lam)
        # D1 passes through 0 (at epsilon = 0.6 w0, Lambda = 3 w0, say): its
        # error is held to 1e-12 of the two logarithms it is the difference of
        logs = abs(math.log(abs(omega0 - eps) / eps))
        if lam < math.inf:
            logs += abs(math.log(abs(lam - omega0) / lam))
        assert shifts.delta1 == pytest.approx(scale * float(d1),
                                              rel=1e-12, abs=1e-12 * scale / omega0 * logs)
        assert shifts.delta2 == pytest.approx(scale * float(d2), rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(beta=log_uniform(1e-8, 1e-5), omega=log_uniform(0.1, 10.0),
           tau=log_uniform(1e-6, 30.0), lam_t=log_uniform(1e-2, 100.0),
           eps_ratio=log_uniform(1e-10, 1.0))
    @example(beta=1e-6, omega=1.0, tau=1e-3, lam_t=10.0, eps_ratio=1e-8)  # tau << 1 << Lambda t
    @example(beta=1e-6, omega=1.0, tau=5.0, lam_t=1.0, eps_ratio=1e-8)  # w > Lambda
    @example(beta=1e-6, omega=1.0, tau=5e-3, lam_t=0.05, eps_ratio=1e-8)  # onset
    def test_finite_time_emission(self, beta, omega, tau, lam_t, eps_ratio):
        # the infrared cutoff lies below the resonance, the ultraviolet one on
        # either side of it; a window wholly above the resonance is
        # test_rates.TestFiniteTime.test_window_above_resonance
        t = tau / omega
        eps, lam = eps_ratio * omega, lam_t / t
        assume(eps < lam)
        r = RateRequest(OscillatorParams(1.0, omega, beta), FockTriple(1, 0, 0),
                        ReservoirState.vacuum(), CouplingFunction.canonical(beta), t=t)
        prob = finite_time_emission_probability(
            r, QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        oracle = beta / (math.pi * omega) * emission_integral(omega, t, eps, lam)
        assert prob == pytest.approx(oracle, rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(omega=log_uniform(0.01, 100.0), tau=log_uniform(1e-6, 1e3),
           eps_ratio=log_uniform(1e-10, 1.0))
    def test_finite_time_emission_to_infinity(self, omega, tau, eps_ratio):
        # Lambda = inf is the limit of Lambda = 1e12, whose tail
        # (w^2/2) int_Lambda^inf 4 / (w (w - omega)^2) is below w^2 / (Lambda - w)^2
        t, eps = tau / omega, eps_ratio * omega
        r = RateRequest(OscillatorParams(1.0, omega, 1e-8), FockTriple(1, 0, 0),
                        ReservoirState.vacuum(), CouplingFunction.canonical(1e-8), t=t)
        far, near = [finite_time_emission_probability(
            r, QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam)) for lam in (math.inf, 1e12)]
        tail = 1e-8 / (math.pi * omega) * omega**2 / (1e12 - omega) ** 2
        assert abs(far - near) <= 1e-12 * far + tail

    @settings(deadline=None, max_examples=60)
    @given(beta=log_uniform(1e-3, 10.0), lam=log_uniform(1.0, 1e4),
           eps_ratio=st.one_of(st.just(0.0), log_uniform(1e-14, 1e-9)))
    def test_friction(self, beta, lam, eps_ratio):
        # J(T) = (2 beta / pi) int_eps^Lambda sin(w T) / w dw at the last
        # horizon T = 25600 / Lambda spans ~8000 half periods, too many for a
        # property test's quadrature: the oracle is mpmath's 30-digit Si.
        # From epsilon ~ 3e-8 Lambda on, J drifts by the plateau's 5e-4
        # between horizons, and the sweep rightly finds no friction limit.
        mpmath = pytest.importorskip("mpmath")
        eps = eps_ratio * lam
        value = friction_coefficient(CouplingFunction.canonical(beta, uv_cutoff=lam),
                                     QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        horizon = 2.0**8 * 100.0 / lam
        with mpmath.workdps(30):
            oracle = 2 * mpmath.mpf(beta) / mpmath.pi * (
                mpmath.si(mpmath.mpf(lam) * horizon) - mpmath.si(mpmath.mpf(eps) * horizon))
        assert value == pytest.approx(float(oracle), rel=1e-12)


def lorentzian_ends(lo, hi, omega, g, *extra):
    """Panel ends across [lo, hi] that resolve D(x)'s peak of half-width g/2
    at omega, a decade apart above it, plus ``extra``."""
    inner = [omega + k * g for k in (-20, -2, -0.5, 0, 0.5, 2, 20)] + [omega / 2, 2 * omega]
    inner += [omega * 10.0**k for k in range(1, 7)] + list(extra)
    return [lo] + sorted({x for x in inner if lo < x < hi}) + [hi]


class TestOscillatorOracles:
    """The damped oscillator's Lorentzian and thermal moments, partial
    fractions of D(x) = (w^2 - x^2)^2 + g^2 x^2, against 30-digit mpmath.quad
    of their defining integrals."""

    @settings(deadline=None, max_examples=40)
    @given(m=log_uniform(0.1, 10.0), omega=log_uniform(0.1, 10.0),
           ratio=log_uniform(1e-4, 1.9), eps_ratio=st.floats(0.0, 0.5),
           window=st.one_of(st.just(math.inf), log_uniform(2.0, 1e6)))
    @example(m=1.0, omega=1.0, ratio=1e-4, eps_ratio=0.0, window=math.inf)
    @example(m=1.0, omega=1.0, ratio=1.9, eps_ratio=0.5, window=2.0)
    def test_window_moments(self, m, omega, ratio, eps_ratio, window):
        mpmath = pytest.importorskip("mpmath")
        p = OscillatorParams(m, omega, ratio * m * omega)
        eps, lam = eps_ratio * omega, window * omega
        i0, i2 = lorentzian_moments(p, QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        w, g = mpmath.mpf(omega), mpmath.mpf(p.beta) / mpmath.mpf(m)

        def dens(x):
            return (w**2 - x**2) ** 2 + g**2 * x**2

        ends = lorentzian_ends(eps, lam, omega, p.beta / m)
        assert i0 == pytest.approx(float(mp_quad(lambda x: 1 / dens(x), ends)), rel=1e-13)
        assert i2 == pytest.approx(float(mp_quad(lambda x: x**2 / dens(x), ends)), rel=1e-13)

    @settings(deadline=None, max_examples=200)
    @given(m=log_uniform(1e-3, 1e3), omega=log_uniform(1e-3, 1e3),
           ratio=log_uniform(1e-4, 1.9))
    def test_whole_axis_moments_are_the_residues(self, m, omega, ratio):
        p = OscillatorParams(m, omega, ratio * m * omega)
        i0, i2 = lorentzian_moments(p, QuadratureConfig(ir_cutoff=0.0, uv_cutoff=math.inf))
        r0, r2 = math.pi * m / (2 * p.beta * omega**2), math.pi * m / (2 * p.beta)
        assert abs(i0 - r0) <= 4 * math.ulp(r0)
        assert abs(i2 - r2) <= 4 * math.ulp(r2)

    @settings(deadline=None, max_examples=40)
    @given(m=log_uniform(0.1, 10.0), omega=log_uniform(0.1, 10.0),
           ratio=log_uniform(1e-4, 10.0), t_ratio=log_uniform(1e-3, 300.0))
    @example(m=1.0, omega=1.0, ratio=2.0 - 1e-6, t_ratio=1.0)  # a nearly double root
    @example(m=1.0, omega=1.0, ratio=2.0 + 1e-6, t_ratio=0.3)
    @example(m=1.0, omega=1.0, ratio=1e-4, t_ratio=0.05)  # K's imaginary part ~ g
    @example(m=1.0, omega=1.0, ratio=1e-4, t_ratio=1e-3)
    @example(m=1.0, omega=1.0, ratio=10.0, t_ratio=0.01)
    @example(m=1.0, omega=1.0, ratio=1.0, t_ratio=1 / (20 * math.pi))  # |z| = 10
    def test_thermal_direct(self, m, omega, ratio, t_ratio):
        mpmath = pytest.importorskip("mpmath")
        p = OscillatorParams(m, omega, ratio * m * omega)
        assume(p.beta != 2 * m * omega)  # exact critical damping: a double root
        kt = t_ratio * omega
        direct = thermal_steady_energy(p, kt, oracle_modes=(4, 4)).direct
        w, g, t = (mpmath.mpf(v) for v in (omega, p.beta / m, kt))

        def integrand(x):
            return (x + x**3) / (((w**2 - x**2) ** 2 + g**2 * x**2) * mpmath.expm1(x / t))

        ends = lorentzian_ends(0.0, math.inf, omega, p.beta / m, kt, 10 * kt, 50 * kt)
        with mpmath.workdps(30):
            oracle = 6 * mpmath.mpf(p.beta) / (mpmath.pi * mpmath.mpf(m) ** 2) \
                * mp_quad(integrand, ends)
        assert direct == pytest.approx(float(oracle), rel=1e-13 if t_ratio >= 0.2 else 1e-10)


class TestKernelProperties:
    @settings(deadline=None, max_examples=25)
    @given(beta=log_uniform(1e-3, 10.0), omega=st.floats(0.2, 2.0),
           lam=log_uniform(100.0, 400.0))
    def test_convolution_tends_to_friction_times_velocity(self, beta, omega, lam):
        # The canonical kernel 2 beta sin(Lambda s) / (pi s) integrates to
        # beta over s > 0 and narrows as Lambda grows, so the convolution
        # int_0^t gamma(t - s) v(s) ds tends to beta v(t).  With v(0) = 0
        # there is no start-up term v(0) cos(Lambda t) / (Lambda t), and the
        # error at fixed t is -(2 beta / pi) v'(t) / Lambda + O(Lambda^-2),
        # where v'(t) = omega e^(-omega t) never vanishes: each doubling of
        # Lambda about halves it.  The step h keeps h Lambda <= 0.05 at the
        # largest cutoff, so the trapezoid's share of the error stays small.
        t = 1.0
        cutoffs = lam * 2.0 ** np.arange(3)
        times = np.linspace(0.0, t, int(np.ceil(t * cutoffs[-1] / 0.05)) + 1)
        v = 1.0 - np.exp(-omega * times)
        errs = [abs(MemoryKernel.sample(CouplingFunction.canonical(beta, uv_cutoff=c), times)
                    .convolve(v)[-1] - beta * v[-1]) for c in cutoffs]
        assert errs[1] < 0.7 * errs[0]
        assert errs[2] < 0.7 * errs[1]


@st.composite
def coupling_tables(draw):
    """3-40 knots on [0, 5], at least 1e-3 apart, with values of either sign."""
    knots = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=40,
                                 unique=True)))
    assume(np.diff(knots).min() > 1e-3)
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(knots),
                           max_size=len(knots)))
    return CouplingFunction.tabulated(knots, values)


class TestTabulatedTransformProperties:
    @settings(deadline=None, max_examples=100)
    @given(coupling=coupling_tables(), lo=st.floats(0.0, 3.0), width=st.floats(0.1, 4.0),
           t_max=st.floats(0.0, 10.0), n=st.integers(1, 40),
           kind=st.sampled_from([(5, "cos"), (4, "sin")]))
    def test_panel_transforms_match_gauss_legendre(self, coupling, lo, width, t_max, n,
                                                   kind):
        # Panels are at most 2.5 wide, so theta = h t <= 25, where 40
        # Gauss-Legendre nodes per panel are exact to far below 1e-12.  A
        # uniform grid of times takes the rotated phases, and its early
        # times the power series; the mirrored grid is not uniform in the
        # order it is given, and goes through the same sums sorted
        power, part = kind
        times = np.linspace(0.0, t_max, n)
        for grid in (times, times[::-1] * 0.999):
            values = reservoir_module._transform(coupling, grid, lo, lo + width,
                                                       power, part)
            ref, scale = gauss_legendre_transform(coupling, grid, lo, lo + width, power,
                                                  part)
            # a table whose f^2 is subnormal misses by some subnormal ulps
            magnitude = ((lo + width) ** (power + 1) - lo ** (power + 1)) / (power + 1)
            assert np.max(np.abs(values - ref)) <= 1e-12 * scale + subnormal_floor(magnitude)


def bath_couplings():
    """A table of coupling_tables, or the canonical coupling at a drawn beta."""
    return st.one_of(coupling_tables(), log_uniform(1e-3, 1.0).map(CouplingFunction.canonical))


def windows(coupling):
    """The lower end of a window: 0 or anywhere up to 3, and for the
    canonical coupling, whose integrals span a panel per decade in the
    oracle, not below 1e-6 unless 0."""
    if coupling.kind == "canonical":
        return st.one_of(st.just(0.0), log_uniform(1e-6, 3.0))
    return st.one_of(st.just(0.0), st.floats(0.0, 3.0))


def poles(coupling, lo, hi):
    """Anywhere from below the window to past the table, or on a knot; a
    canonical coupling's pole is on an end of the window or a normal float,
    since its principal value divides a difference of logarithms by it."""
    if coupling.kind == "canonical":
        return st.one_of(st.floats(-1.0, 8.0).filter(lambda p: abs(p) >= 1e-300),
                         st.sampled_from([lo, hi]))
    return st.one_of(st.floats(-1.0, 8.0), st.sampled_from([float(w) for w in coupling.grid]))


class TestTabulatedShiftProperties:
    """The panel sums behind a coupling's level shifts (a principal value)
    and finite-time emission (sinc^2) against per-panel 30-digit
    mpmath.quad, within 1e-13 of the sum of the absolute contributions.
    The canonical coupling's closed forms need a positive lower end."""

    @settings(deadline=None, max_examples=40)
    @given(coupling=bath_couplings(), width=st.floats(0.1, 4.0), data=st.data())
    def test_principal_value_matches_mpmath(self, coupling, width, data):
        lo = data.draw(windows(coupling))
        hi = lo + width
        pole = data.draw(poles(coupling, lo, hi))
        if coupling.kind == "canonical" and lo == 0.0:
            with pytest.raises(DomainError, match="infrared"):
                reservoir_module._principal_value(coupling, pole, lo, hi)
            return
        # the ends of the window's part that the coupling fills
        edges = [lo, hi] if coupling.kind == "canonical" else table_edges(coupling, lo, hi)
        if len(edges) and pole in (edges[0], edges[-1]) and pole != 0.0 \
                and coupling(pole) != 0.0:
            # a one-sided pole where G = f^2 w^4 is not 0: a divergent integral
            with pytest.raises(DomainError, match="diverges"):
                reservoir_module._principal_value(coupling, pole, lo, hi)
            return
        value = reservoir_module._principal_value(coupling, pole, lo, hi)
        oracle, scale = mpmath_principal_value(coupling, pole, lo, hi)
        assert abs(value - oracle) <= 1e-13 * scale + subnormal_floor(hi**5)

    @settings(deadline=None, max_examples=30)
    @given(coupling=bath_couplings(), width=st.floats(0.1, 4.0),
           log_t=st.floats(-2.0, math.log10(200.0)), data=st.data())
    def test_sinc_squared_matches_mpmath(self, coupling, width, log_t, data):
        lo = data.draw(windows(coupling))
        t, hi = 10.0**log_t, lo + width
        center = data.draw(poles(coupling, lo, hi).filter(lambda c: c > 0.0)
                           if coupling.kind == "canonical" else poles(coupling, lo, hi))
        if coupling.kind == "canonical" and lo == 0.0:
            with pytest.raises(DomainError, match="infrared"):
                reservoir_module._sinc_squared(coupling, center, t, lo, hi)
            return
        value = reservoir_module._sinc_squared(coupling, center, t, lo, hi)
        oracle, scale = mpmath_sinc_squared(coupling, center, t, lo, hi)
        bound = 1e-13 * scale + subnormal_floor(hi**5 * t * t)
        if coupling.kind == "canonical" and not lo <= center <= hi:
            # off the window the value is small against the closed form's
            # partial fractions, O(c t / center) and O(c ln(w) / center^2),
            # which keep a few ulps each (ROADMAP, known defects)
            terms = 2.0 * coupling.spectral_weight(1.0) / center * (
                t + (abs(math.log(lo)) + abs(math.log(hi)) + 1.0) / center)
            bound += 16.0 * np.finfo(float).eps * terms
        assert abs(value - oracle) <= bound


solver_steps = st.one_of(st.sampled_from([63, 64, 65, 1024, 1025]), st.integers(2, 1100))
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


class TestLinearSolverProperties:
    @settings(deadline=None, max_examples=60)
    @given(m=st.floats(0.1, 3.0), omega=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
           beta=st.floats(1e-3, 1.0), lam=st.floats(1.0, 20.0), h=st.floats(1e-3, 0.05),
           x0=unit_vectors, v0=unit_vectors, n=solver_steps)
    @example(m=1.0, omega=1.0, beta=0.2, lam=20.0, h=0.05, x0=(1.0, 0.0, 0.0),
             v0=(0.0, 0.0, 0.0), n=1025)
    def test_block_solvers_match_stepwise(self, m, omega, beta, lam, h, x0, v0, n):
        grid = np.arange(n) * h
        pot = PotentialSpec.harmonic(m, omega)
        kern = MemoryKernel.sample(CouplingFunction.canonical(beta, uv_cutoff=lam), grid)
        cases = [
            (lambda: evolve_mean_markov(m, pot, beta, x0, v0, grid),
             lambda: stepwise_markov(m, pot, beta, x0, v0, grid)),
            (lambda: evolve_mean_volterra(m, pot, kern, x0, v0, grid),
             lambda: direct_volterra(m, pot, kern, x0, v0, grid)),
        ]
        for solve, reference in cases:
            try:
                x, v = reference()
            except StabilityError:
                with pytest.raises(StabilityError):
                    solve()
                continue
            traj = solve()
            scale = max(1.0, np.abs(x).max(), np.abs(v).max())
            assert np.max(np.abs(traj.positions - x)) <= 1e-12 * scale
            assert np.max(np.abs(traj.velocities - v)) <= 1e-12 * scale


# (n, dx, cutoff as a fraction of the Nyquist bound pi/dx, or None: every
# nonzero mode, Nyquist planes included); a cutoff reaches the first shell,
# dk = (2/n) pi/dx up to rounding, so at n = 2 every mode is on a Nyquist plane
field_grids = st.sampled_from([2, 4, 8, 16]).flatmap(lambda n: st.tuples(
    st.just(n), st.floats(0.05, 5.0),
    st.none() if n == 2 else st.one_of(st.none(), st.floats(2.0 / n + 1e-9, 0.999))))


def masked_amplitudes(grid_spec, seed):
    n, dx, frac = grid_spec
    grid = FieldGrid(n=n, dx=dx, uv_cutoff=None if frac is None else frac * np.pi / dx)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n,) * 3) + 1j * rng.normal(size=(n,) * 3)
    a[~grid.mode_mask()] = 0.0
    return grid, a


class TestFieldMapProperties:
    @settings(deadline=None, max_examples=80)
    @given(grid_spec=field_grids, seed=st.integers(0, 2**32 - 1))
    def test_parseval_residual(self, grid_spec, seed):
        grid, a = masked_amplitudes(grid_spec, seed)
        scale = float(np.sum(grid.omega() * np.abs(a) ** 2))
        assert hamiltonian_identity_check(a, grid) <= 1e-12 * scale


def drawn_start(grid, start, seed):
    """Initial amplitudes: at rest (None), every mode excited, or only the
    modes of one drawn shell, so that on every other shell the initial-state
    columns of the integrators' bases are zero."""
    if start == "rest":
        return None
    rng = np.random.default_rng(seed)
    a = 0.01 * (rng.normal(size=(grid.n,) * 3) + 1j * rng.normal(size=(grid.n,) * 3))
    live = grid.mode_mask()
    if start == "shell":
        index = np.fft.fftfreq(grid.n, 1.0 / grid.n)
        key = index[:, None, None] ** 2 + index[None, :, None] ** 2 + index[None, None, :] ** 2
        live &= key == rng.choice(key[live])
    a[~live] = 0.0
    return a


class TestFieldIntegratorProperties:
    # the shell integrators against the per-mode and real-space references,
    # on grids with and without Nyquist planes in the mask, at time steps up
    # to 0.9 of the leapfrog's CFL bound dx/sqrt(3), where sin(w dt) of the
    # fastest modes is small; a reference that is zero throughout (the
    # table's coupling misses every mode, so the leapfrog has no live
    # column) must be matched exactly
    @settings(deadline=None, max_examples=30)
    @example(grid_spec=(4, 0.125, None), kind="table", start="rest", seed=0, courant=0.2)
    @example(grid_spec=(16, 1.0, None), kind="canonical", start="random", seed=0,
             courant=0.9)
    @given(grid_spec=st.sampled_from([4, 8, 16]).flatmap(lambda n: st.tuples(
               st.just(n), st.floats(0.05, 5.0),
               st.one_of(st.none(), st.floats(2.0 / n + 1e-9, 0.999)))),
           kind=st.sampled_from(["canonical", "table"]),
           start=st.sampled_from(["rest", "random", "shell"]),
           seed=st.integers(0, 2**32 - 1),
           courant=st.floats(0.05, 0.9))
    def test_integrators_match_references(self, grid_spec, kind, start, seed, courant):
        n, dx, frac = grid_spec
        cutoff = None if frac is None else frac * np.pi / dx
        grid = FieldGrid(n=n, dx=dx, uv_cutoff=cutoff)
        coupling = lattice_coupling(kind, cutoff)
        a0 = drawn_start(grid, start, seed)
        traj = driven_trajectory(courant * dx / np.sqrt(3.0), steps=60)
        kspace = evolve_field_with_source(traj, coupling, grid, "kspace",
                                          initial_amplitudes=a0)
        refs = permode_kspace(traj, coupling, grid, a0)
        got = (kspace.energy, kspace.final_y, kspace.final_pi, kspace.final_amplitudes)
        for name, value, ref in zip(("energy", "y", "pi", "amplitudes"), got, refs):
            assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref)), f"kspace {name}"
        leapfrog = evolve_field_with_source(traj, coupling, grid, "leapfrog",
                                            initial_amplitudes=a0)
        refs = realspace_leapfrog(traj, coupling, grid, a0)
        got = (leapfrog.energy, leapfrog.final_y, leapfrog.final_pi)
        for name, value, ref in zip(("energy", "y", "pi"), got, refs):
            assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref)), f"leapfrog {name}"


# small grids keep a run to milliseconds: the drawn flag comes last and wins
CLI_BASES = {"kernel": ["--tmax", "1"], "langevin": ["--tmax", "1"],
             "field": ["--tmax", "1", "--modes", "8"], "tls": ["--steps", "200"],
             "oscillator": [], "rates": []}
# a large --workers would start that many processes; the others name files
CLI_UNDRAWN = {"--workers", "--out", "--config", "--coupling-file"}
CLI_TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "3"]
_subparsers = next(a for a in build_parser()._actions if a.dest == "experiment").choices
CLI_FLAGS = {command: [a.option_strings[-1] for a in _subparsers[command]._actions
                       if a.option_strings and a.nargs != 0
                       and not CLI_UNDRAWN & set(a.option_strings)]
             for command in CLI_BASES}
cli_cases = st.sampled_from(sorted(CLI_BASES)).flatmap(lambda command: st.tuples(
    st.just(command), st.sampled_from(CLI_FLAGS[command]), st.sampled_from(CLI_TOKENS)))


class TestCliExitCodes:
    @settings(deadline=None, max_examples=100)
    @given(case=cli_cases)
    @example(case=("oscillator", "--beta", "1e308"))
    @example(case=("oscillator", "--m", "1e-308"))
    @example(case=("oscillator", "--kt", "inf"))
    @example(case=("tls", "--x12sq", "1e308"))
    @example(case=("tls", "--omega0", "1e308"))
    @example(case=("langevin", "--omega", "1e308"))
    @example(case=("field", "--dx", "1e-308"))
    @example(case=("langevin", "--m", "inf"))
    @example(case=("langevin", "--beta", "inf"))
    @example(case=("field", "--m", "inf"))
    @example(case=("field", "--omega", "inf"))
    @example(case=("field", "--beta", "1e308"))
    @example(case=("kernel", "--beta", "1e308"))
    def test_every_failure_exits_1_or_2(self, case):
        # a bad value ends in a diagnostic (exit 1) or a usage error (exit 2),
        # never in a traceback; "--flag=value" keeps "-inf" a value
        command, flag, token = case
        with tempfile.TemporaryDirectory() as out:
            code = main([command, *CLI_BASES[command], f"{flag}={token}", "--out", out])
        assert code in (0, 1, 2)


# physical values of the oscillator's value flags, formatted as a user writes them
OSCILLATOR_VALUES = {
    "--m": log_uniform(0.1, 10.0).map(repr),
    "--omega": log_uniform(0.1, 10.0).map(repr),
    "--beta": log_uniform(1e-3, 1.0).map(repr),
    "--n": st.tuples(*[st.integers(0, 3)] * 3).map(lambda n: ",".join(map(str, n))),
    "--kt": log_uniform(0.1, 10.0).map(repr),
    "--uv-cutoff": log_uniform(5.0, 1e3).map(repr),
    "--ir-cutoff": log_uniform(1e-6, 0.1).map(repr),
}
oscillator_settings = st.lists(st.sampled_from(sorted(OSCILLATOR_VALUES)), min_size=2,
                               max_size=4, unique=True).flatmap(
    lambda flags: st.tuples(*[st.tuples(st.just(f), OSCILLATOR_VALUES[f]) for f in flags]))


class TestCliConfigFiles:
    @pytest.mark.filterwarnings("ignore:beta/\\(m w\\).*weak-damping")
    @settings(deadline=None, max_examples=10)
    @given(values=oscillator_settings)
    def test_oscillator_flags_and_config_file_agree(self, values):
        # the same settings from flags and from a config file: one table
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = tmp / "run.ini"
            config.write_text("[oscillator]\n" + "".join(
                f"{flag[2:]} = {value}\n" for flag, value in values))
            flags = [token for pair in values for token in pair]
            codes = [main(["oscillator", *flags, "--out", str(tmp / "flags")]),
                     main(["oscillator", "--config", str(config), "--out", str(tmp / "file")])]
            assert codes[0] == codes[1]
            if codes[0] == 0:
                assert (tmp / "flags" / "oscillator.csv").read_bytes() \
                    == (tmp / "file" / "oscillator.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:beta/\\(m w\\).*weak-damping")
    @pytest.mark.filterwarnings("ignore:first-order probability")
    @pytest.mark.parametrize("experiment", sorted(FLAG_BASES))
    @settings(deadline=None, max_examples=6)
    @given(data=st.data())
    def test_flags_and_config_file_agree(self, experiment, data):
        # 2-4 of the experiment's value flags, each with the flags it needs,
        # from the command line and from a config file: the same exit code,
        # and byte-identical tables and snapshots
        drawn = data.draw(st.lists(st.sampled_from(EXPERIMENT_FLAGS[experiment]),
                                   min_size=2, max_size=4, unique=True))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            run = run_settings(experiment, drawn, tmp)
            config = tmp / "run.ini"
            config.write_text(ini_section(experiment, run))
            codes = [main([experiment, *flag_tokens(run), "--out", str(tmp / "flags")]),
                     main([experiment, "--config", str(config), "--out", str(tmp / "file")])]
            assert codes[0] == codes[1]
            if codes[0] == 0:
                assert outputs(tmp / "flags") == outputs(tmp / "file")

    @settings(deadline=None, max_examples=4)
    @given(data=st.data())
    def test_tls_sweep_jobs_match_standalone_runs(self, data):
        # a sweep INI over one drawn tls flag, with 2-4 others set in its
        # [tls] section: each job's table is the standalone run's
        drawn = data.draw(st.lists(st.sampled_from(EXPERIMENT_FLAGS["tls"]),
                                   min_size=2, max_size=4, unique=True))
        parameter = data.draw(st.sampled_from(sorted(set(TLS_SWEEP_VALUES) - set(drawn))))
        values = [FLAG_VALUES[parameter], TLS_SWEEP_VALUES[parameter]]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            run = run_settings("tls", drawn, tmp)
            config = tmp / "sweep.ini"
            config.write_text(f"[sweep]\nexperiment = tls\nparameter = {parameter[2:]}\n"
                              f"values = {' '.join(values)}\n\n" + ini_section("tls", run))
            code = main(["sweep", "--config", str(config), "--workers", "1",
                         "--out", str(tmp / "sweep")])
            alone = [main(["tls", *flag_tokens({**run, parameter: value}),
                           "--out", str(tmp / f"alone{i}")]) for i, value in enumerate(values)]
            assert (code == 0) == (alone == [0, 0])
            if code == 0:
                for i in range(len(values)):
                    assert (tmp / "sweep" / f"sweep_{i:04d}" / "tls_decay.csv").read_bytes() \
                        == (tmp / f"alone{i}" / "tls_decay.csv").read_bytes()


# the value flags of each experiment, as test_cli's flag tests draw them
EXPERIMENT_FLAGS = {experiment: [flag for exp, flag in VALUE_FLAGS if exp == experiment]
                    for experiment in FLAG_BASES}
# a second valid value of each tls flag a sweep may run over
TLS_SWEEP_VALUES = {"--beta": "0.05", "--uv-cutoff": "40", "--ir-cutoff": "1e-4",
                    "--omega0": "0.7", "--x12sq": "0.2", "--tmax": "1", "--steps": "30",
                    "--sz0": "-0.5", "--f0": "0.1"}


def run_settings(experiment, drawn, tmp):
    """{flag: value or None for a switch}: the experiment's base run, then
    the flags each drawn one needs, then the drawn flags' values.  A
    coupling table goes to ``tmp``: an Ohmic one for the kernel, whose
    friction sweep needs a plateau."""
    run = flag_pairs(FLAG_BASES[experiment])
    for flag in drawn:
        run.update(flag_pairs(FLAG_NEEDS.get((experiment, flag), [])))
    for flag in drawn:
        if flag != "--coupling-file":
            run[flag] = FLAG_VALUES[flag]
            continue
        run[flag] = str(tmp / "coupling.dat")
        w = np.geomspace(1e-6, 60.0, 2000) if experiment == "kernel" else \
            np.linspace(0.0, 50.0, 11)
        f = 0.1 * w**-2.5 if experiment == "kernel" else 3e-4 * np.exp(-w / 20.0)
        np.savetxt(run[flag], np.column_stack([w, f]))
    return run


def flag_pairs(tokens):
    """Command-line tokens as {flag: value}, None for a switch."""
    pairs = {}
    for i, token in enumerate(tokens):
        if token.startswith("--"):
            value = tokens[i + 1] if i + 1 < len(tokens) else None
            pairs[token] = None if value is None or value.startswith("--") else value
    return pairs


def flag_tokens(run):
    return [token for flag, value in run.items()
            for token in ([flag] if value is None else [flag, value])]


def ini_section(experiment, run):
    return f"[{experiment}]\n" + "".join(
        f"{flag[2:]} = {'true' if value is None else value}\n" for flag, value in run.items())


def outputs(out):
    """The tables and binary snapshots a run wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())
            if path.suffix in (".csv", ".bin")}
