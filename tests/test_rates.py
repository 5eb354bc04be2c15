import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from dissipon.errors import DomainError, PerturbationTheoryError
from dissipon.oscillator import FockTriple, OscillatorParams
from dissipon.quadrature import QuadratureConfig, integrate_sinc_squared
from dissipon.rates import (RateRequest, finite_time_emission_probability,
                            rate_emission_vacuum, rates_fock, rates_thermal)
from dissipon.reservoir import CouplingFunction, ReservoirState
from test_reservoir import mpmath_sinc_squared


def canonical_request(beta=0.1, omega=1.0, m=1.0, n=(1, 0, 0), reservoir=None, t=None):
    p = OscillatorParams(m, omega, beta)
    c = CouplingFunction.canonical(beta, uv_cutoff=100.0 * omega)
    res = reservoir if reservoir is not None else ReservoirState.vacuum()
    return RateRequest(p, FockTriple(*n), res, c, t=t)


class TestVacuumRate:
    def test_canonical_value(self):
        assert rate_emission_vacuum(canonical_request()) == pytest.approx(0.1,
                                                                          rel=1e-12)

    def test_ground_state_emits_nothing(self):
        assert rate_emission_vacuum(canonical_request(n=(0, 0, 0))) == 0.0

    def test_general_formula_matches_canonical(self):
        # 4 pi^2 w^5 |f|^2/(3m) with the canonical f collapses to beta/m
        r = canonical_request(beta=0.37, omega=2.3, m=1.7)
        assert rate_emission_vacuum(r) == pytest.approx(0.37 / 1.7, rel=1e-10)

    def test_linear_in_total_occupation(self):
        rates = [rate_emission_vacuum(canonical_request(n=n))
                 for n in [(1, 0, 0), (0, 2, 0), (1, 1, 1), (4, 1, 1)]]
        assert rates == pytest.approx([0.1, 0.2, 0.3, 0.6], rel=1e-12)

    def test_wrong_reservoir_rejected(self):
        with pytest.raises(DomainError):
            rate_emission_vacuum(canonical_request(reservoir=ReservoirState.thermal(1.0)))

    def test_energy_loss_matches_trajectory_decay(self):
        # omega * (n beta/m) against (beta/m) * (n omega): algebraic identity
        r = canonical_request(beta=0.23, omega=1.7, m=2.0, n=(3, 1, 0))
        power = r.params.omega * rate_emission_vacuum(r)
        trajectory_rate = (r.params.beta / r.params.m) * r.n.total * r.params.omega
        assert power == pytest.approx(trajectory_rate, rel=1e-12)


class TestFiniteTime:
    def test_ground_state(self):
        r = canonical_request(n=(0, 0, 0), t=5.0)
        assert finite_time_emission_probability(r) == 0.0

    def test_long_time_rate(self):
        r = canonical_request(beta=1e-3, t=500.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = finite_time_emission_probability(r)
        assert prob / 500.0 == pytest.approx(1e-3, rel=0.02)

    def test_quadratic_onset(self):
        cfg = QuadratureConfig(uv_cutoff=10.0, ir_cutoff=1e-8)
        ts = np.geomspace(1e-3, 1e-2, 7)
        probs = [finite_time_emission_probability(
            canonical_request(beta=1e-3, t=float(t)), cfg) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(probs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_deviation_is_inverse_time(self):
        # P/t approaches the golden-rule rate with an O(1/(w t)) envelope
        ts = np.geomspace(50.0, 6400.0, 15)
        devs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in ts:
                r = canonical_request(beta=1e-4, t=float(t))
                devs.append(abs(finite_time_emission_probability(r) / t - 1e-4))
        slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
        assert -1.4 < slope < -0.5

    def test_probability_above_one_rejected(self):
        r = canonical_request(beta=0.01, t=500.0)
        with pytest.raises(PerturbationTheoryError):
            finite_time_emission_probability(r)

    def test_probability_above_tenth_warns(self):
        r = canonical_request(beta=1e-3, t=200.0)
        with pytest.warns(UserWarning, match="first-order"):
            finite_time_emission_probability(r)

    def test_needs_time(self):
        with pytest.raises(DomainError):
            finite_time_emission_probability(canonical_request())
        with pytest.raises(DomainError):
            canonical_request(t=-1.0)

    @pytest.mark.parametrize("omega, t, eps, lam", [
        (1.0, 5.0, 1e-8, 100.0),   # the CLI's window
        (1.0, 50.0, 1e-8, 10.0),   # the QAWO tails on both sides
        (3.0, 2.0, 1e-8, 1.0),     # resonance past Lambda
        (1.0, 0.05, 1e-4, 10.0),   # near onset
    ])
    def test_canonical_closed_form_matches_sinc_squared_quadrature(self, omega, t, eps, lam):
        # the adaptive sinc^2 oracle, at its tolerance
        beta = 1e-4
        cfg = QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam, rel_tol=1e-10, abs_tol=1e-16)
        r = canonical_request(beta=beta, omega=omega, t=t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the first-order warning
            prob = finite_time_emission_probability(r, cfg)
        pref = omega / (2.0 * np.pi)
        numeric, _ = integrate_sinc_squared(lambda w: pref * beta / w, omega, t, cfg)
        assert prob == pytest.approx(numeric, rel=1e-8)

    @pytest.mark.parametrize("ratio, tol", [(10.0, 1e-12), (100.0, 1e-9)])
    def test_window_above_resonance(self, ratio, tol):
        # with epsilon > w the partial fractions cancel as ~1e-15 (epsilon / w)^2
        # of the value: 6.6e-14 at 10 w and 3.6e-11 at 100 w here
        mpmath = pytest.importorskip("mpmath")
        omega, t = 1.0, 2.0
        eps, lam = ratio * omega, 10.0 * ratio * omega
        r = canonical_request(beta=1e-4, omega=omega, t=t)
        cfg = QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam)
        prob = finite_time_emission_probability(r, cfg)
        with mpmath.workdps(30):
            periods = range(int(eps * t / (2 * np.pi)) + 1, int(lam * t / (2 * np.pi)) + 1)
            ends = [eps] + [2 * k * np.pi / t for k in periods] + [lam]
            integral = mpmath.quad(lambda w: (2 * mpmath.sin((w - omega) * t / 2)
                                              / (w - omega)) ** 2 / w, ends)
        oracle = 1e-4 * omega / (2.0 * np.pi) * float(integral)
        assert prob == pytest.approx(oracle, rel=tol)

    def test_canonical_needs_positive_ir_cutoff(self):
        # the canonical integrand behaves like t^2 / w as w -> 0
        r = canonical_request(t=5.0)
        with pytest.raises(DomainError, match="infrared"):
            finite_time_emission_probability(r, QuadratureConfig(uv_cutoff=100.0))

    def test_phase_overflow_rejected(self):
        r = canonical_request(omega=1e10, t=1e300)
        with pytest.raises(DomainError, match="overflows"):
            finite_time_emission_probability(r, QuadratureConfig(ir_cutoff=1.0,
                                                                 uv_cutoff=1e11))

    # the sub-panel count of the sinc^2 sum passes the index range: at 1e20
    # it was cast to int64 with a warning, at 1e308 an overflowing phase
    @pytest.mark.parametrize("t", [1e20, 1e308])
    def test_tabulated_sub_panel_count_overflow_rejected(self, t):
        c = CouplingFunction.tabulated([0.1, 2.5, 5.0], [1e-12] * 3)
        r = RateRequest(OscillatorParams(1.0, 1.0, 0.1), FockTriple(1, 0, 0),
                        ReservoirState.vacuum(), c, t=t)
        with pytest.raises(DomainError, match=re.escape(f"at t = {t:.3g} ")):
            finite_time_emission_probability(r, QuadratureConfig(uv_cutoff=5.0))

    # QUADPACK flagged roundoff in the oscillatory tail above the resonance
    # of these, on the 11-knot table's kinks
    @pytest.mark.parametrize("lam, omega, t", [(10.0, 3.0, 40.0), (50.0, 3.0, 40.0),
                                               (20.0, 1.0, 100.0)])
    def test_tabulated_coupling_at_long_times(self, lam, omega, t):
        w = np.linspace(0.0, lam, 11)
        c = CouplingFunction.tabulated(w, 0.01 * np.exp(-w / 5.0))
        r = RateRequest(OscillatorParams(100.0, omega, 0.1), FockTriple(1, 0, 0),
                        ReservoirState.vacuum(), c, t=t)
        prob = finite_time_emission_probability(r, QuadratureConfig(uv_cutoff=lam))
        pref = 2.0 * np.pi * omega / (3.0 * 100.0)
        oracle, scale = mpmath_sinc_squared(c, omega, t, 0.0, lam)
        assert abs(prob - pref * oracle) <= 1e-13 * pref * scale

    def test_tabulated_coupling_with_zero_ir_cutoff(self):
        # the window starts at w = 0, where |f|^2 w^4 vanishes
        omega, t, lam = 1.0, 100.0, 10.0
        w = np.linspace(0.0, lam, 11)
        f = 0.005 * np.exp(-w / 5.0)
        r = RateRequest(OscillatorParams(1.0, omega, 0.1), FockTriple(1, 0, 0),
                        ReservoirState.vacuum(), CouplingFunction.tabulated(w, f), t=t)
        prob = finite_time_emission_probability(r, QuadratureConfig(uv_cutoff=lam))
        kernel = lambda x: (np.interp(x, w, f) ** 2 * x**4
                            * np.sin((x - omega) * t / 2.0) ** 2 / ((x - omega) / 2.0) ** 2)
        direct = sum(quad(kernel, a, b, epsabs=0.0, epsrel=1e-12, limit=2000)[0]
                     for a, b in zip(w[:-1], w[1:]))
        assert prob == pytest.approx(2.0 * np.pi * omega / 3.0 * direct, rel=1e-8)


class TestOverflow:
    @pytest.mark.parametrize("reservoir", [None, ReservoirState.thermal(1.0)],
                             ids=["vacuum", "thermal"])
    def test_overflowing_rate_rejected(self, reservoir):
        # 3 quanta at beta = 1e308 overflow the double range
        r = canonical_request(beta=1e308, n=(3, 0, 0), reservoir=reservoir)
        rate = rates_thermal if reservoir is not None else rate_emission_vacuum
        with pytest.raises(DomainError, match=r"3 quanta .* beta = 1e\+308"):
            rate(r)

    def test_overflowing_bose_product_rejected(self):
        # each factor is finite, their product is not
        r = canonical_request(beta=1e300, omega=1e-5, reservoir=ReservoirState.thermal(1e5))
        with pytest.raises(DomainError, match="overflows"):
            rates_thermal(r)


class TestFock:
    def test_no_resonant_quanta(self):
        res = ReservoirState.fock([[0.0, 0.0, 2.0]])
        pair = rates_fock(canonical_request(n=(0, 0, 0), reservoir=res))
        assert pair.absorption == 0.0

    def test_single_resonant_quantum(self):
        beta, omega, m = 0.1, 1.0, 1.0
        res = ReservoirState.fock([[omega, 0.0, 0.0]])
        pair = rates_fock(canonical_request(beta=beta, omega=omega, m=m,
                                            n=(0, 0, 0), reservoir=res))
        assert pair.absorption == pytest.approx(
            3.0 * beta / (4.0 * np.pi * m * omega**2), rel=1e-12)

    def test_emission_equals_vacuum(self):
        res = ReservoirState.fock([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        r = canonical_request(n=(2, 1, 0), reservoir=res)
        vac = canonical_request(n=(2, 1, 0))
        assert rates_fock(r).emission == pytest.approx(rate_emission_vacuum(vac),
                                                       rel=1e-14)

    def test_occupancy_weights(self):
        # (n_i + 1) p_i^2 weighting of a resonant quantum along y
        beta, omega = 0.1, 2.0
        res = ReservoirState.fock([[0.0, omega, 0.0]], weights=[0.5])
        pair = rates_fock(canonical_request(beta=beta, omega=omega,
                                            n=(0, 3, 0), reservoir=res))
        expect = 3.0 * beta / (4.0 * np.pi * omega**4) * 0.5 * (3 + 1) * omega**2
        assert pair.absorption == pytest.approx(expect, rel=1e-12)


class TestThermal:
    def test_closed_form_values_at_log2(self):
        res = ReservoirState.thermal(1.0 / np.log(2.0))
        pair = rates_thermal(canonical_request(reservoir=res))
        assert pair.emission == pytest.approx(0.2, rel=1e-12)
        assert pair.absorption == pytest.approx(0.4, rel=1e-12)

    def test_detailed_balance_structure(self):
        # n e^{w/T} / (n + 3) -> 1 at n_total = 3, w/T = ln 2
        res = ReservoirState.thermal(1.0 / np.log(2.0))
        pair = rates_thermal(canonical_request(n=(1, 1, 1), reservoir=res))
        assert pair.emission / pair.absorption == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature_limit(self):
        res = ReservoirState.thermal(1.0 / 50.0)  # w/KT = 50
        r = canonical_request(reservoir=res)
        pair = rates_thermal(r)
        vac = rate_emission_vacuum(canonical_request())
        assert pair.emission == pytest.approx(vac, rel=1e-15)
        assert pair.absorption < 1e-15 * pair.emission

    def test_general_coupling(self):
        omega, kt = 1.5, 0.8
        w = np.linspace(0.1, 10.0, 500)
        c = CouplingFunction.tabulated(w, 0.05 / w, uv_cutoff=10.0)
        p = OscillatorParams(1.0, omega, 0.1)
        res = ReservoirState.thermal(kt)
        pair = rates_thermal(RateRequest(p, FockTriple(2, 0, 0), res, c))
        base = 4.0 * np.pi**2 * omega**5 * c(omega) ** 2 / 3.0
        x = omega / kt
        assert pair.emission == pytest.approx(
            2.0 * base * np.exp(x) / np.expm1(x), rel=1e-12)
        assert pair.absorption == pytest.approx(5.0 * base / np.expm1(x), rel=1e-12)
