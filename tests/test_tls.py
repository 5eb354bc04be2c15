import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from dissipon.errors import DomainError, StabilityError
from dissipon.quadrature import QuadratureConfig
from dissipon.reservoir import CouplingFunction
from dissipon.tls import (BlochState, CoherenceSpectrum, TwoLevelParams,
                          coherence_evolution, coherence_frequencies, decay_rate_mu,
                          evolve_bloch_markov, level_shifts, sigma_z_evolution)


def canonical_tls(beta=0.05, omega0=1.0, x12=(1.0, 0.0, 0.0), lam=100.0):
    c = CouplingFunction.canonical(beta, uv_cutoff=lam)
    return TwoLevelParams(omega0, x12, c)


def shifts_config(omega0=1.0, eps=1e-3, lam=100.0):
    return QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam)


def ode_oracle(p, cfg, f0, e0, t_grid):
    """High-resolution integration of the coherence pair, independent route."""
    spec = coherence_frequencies(p, cfg)
    mu, gamma, w0 = spec.mu, spec.gamma_shifted, p.omega0

    def rhs(_, y):
        f = y[0] + 1j * y[1]
        e = y[2] + 1j * y[3]
        df = 1j * gamma * e - 2.0 * mu * f
        de = 1j * w0 * f
        return [df.real, df.imag, de.real, de.imag]

    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]),
                    [np.real(f0), np.imag(f0), np.real(e0), np.imag(e0)],
                    t_eval=t_grid, rtol=1e-12, atol=1e-14, method="DOP853")
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


class TestDecayConstant:
    def test_canonical(self):
        p = canonical_tls(beta=0.1, omega0=2.0, x12=(0.5, 0.0, 0.0))
        assert decay_rate_mu(p) == pytest.approx(0.05, rel=1e-12)

    def test_unit_dipole_gives_bare_constant(self):
        p = canonical_tls(beta=0.1, omega0=2.0, x12=(1.0, 0.0, 0.0))
        assert decay_rate_mu(p) == pytest.approx(0.2, rel=1e-12)

    def test_zero_coupling(self):
        p = TwoLevelParams(1.0, (1, 0, 0), CouplingFunction.zero(uv_cutoff=10.0))
        assert decay_rate_mu(p) == 0.0

    def test_tabulated_equals_canonical(self):
        beta, omega0 = 0.1, 2.0
        w = np.union1d(np.geomspace(1e-3, 50.0, 30000), [omega0])
        f = np.sqrt(3.0 * beta / (4.0 * np.pi**2 * w**5))
        tab = TwoLevelParams(omega0, (0.5, 0, 0),
                             CouplingFunction.tabulated(w, f, uv_cutoff=50.0))
        can = canonical_tls(beta=beta, omega0=omega0, x12=(0.5, 0, 0))
        assert decay_rate_mu(tab) == pytest.approx(decay_rate_mu(can), rel=1e-10)

    def test_scaling_linear_in_beta_quadratic_in_dipole(self):
        base = decay_rate_mu(canonical_tls(beta=0.02, x12=(0.3, 0, 0)))
        assert decay_rate_mu(canonical_tls(beta=0.06, x12=(0.3, 0, 0))) \
            == pytest.approx(3.0 * base, rel=1e-12)
        assert decay_rate_mu(canonical_tls(beta=0.02, x12=(0.6, 0, 0))) \
            == pytest.approx(4.0 * base, rel=1e-12)


class TestLevelShifts:
    def test_canonical_second_shift_closed_form(self):
        beta, omega0, eps, lam = 0.1, 1.0, 1e-3, 1e3
        p = canonical_tls(beta=beta, omega0=omega0, lam=lam)
        shifts = level_shifts(p, shifts_config(eps=eps, lam=lam))
        closed = beta * omega0 * np.log(lam * (eps + omega0)
                                        / (eps * (lam + omega0)))
        assert shifts.delta2 == pytest.approx(closed, rel=1e-10)
        assert shifts.ir_cutoff == eps and shifts.uv_cutoff == lam

    def test_symmetric_weight_kills_pv_shift(self):
        # |f|^2 w^4 even about w0 on (0, 2 w0): the principal value vanishes
        omega0 = 1.0
        w = np.linspace(1e-4, 2.0 * omega0 - 1e-4, 40001)
        weight = np.exp(-((w - omega0) / 0.3) ** 2)  # even about w0
        f = np.sqrt(weight / w**4)
        p = TwoLevelParams(omega0, (1, 0, 0),
                           CouplingFunction.tabulated(w, f, uv_cutoff=2.0 * omega0))
        cfg = QuadratureConfig(ir_cutoff=1e-4, uv_cutoff=2.0 * omega0 - 1e-4)
        shifts = level_shifts(p, cfg)
        assert abs(shifts.delta1) < 1e-6 * abs(shifts.delta2)

    def test_canonical_shift_ordering(self):
        # the principal-value shift is large and negative for eps << w0 << Lambda
        # (its closed form is (beta w0)[ln((Lam-w0)/Lam) - ln((w0-eps)/eps)])
        p = canonical_tls(beta=0.1, omega0=1.0, lam=1e3)
        shifts = level_shifts(p, shifts_config(eps=1e-3, lam=1e3))
        assert shifts.delta1 < 0.0 < shifts.delta2
        assert shifts.delta1 < shifts.delta2

    @pytest.mark.parametrize("kind", ["canonical", "tabulated"])
    @pytest.mark.parametrize("cutoff", ["ir_cutoff", "uv_cutoff"])
    def test_level_splitting_on_a_cutoff_rejected(self, cutoff, kind):
        # canonical D1 = beta w0^5 [ln(|Lambda - w0| / Lambda) - ln(|eps - w0| / eps)]
        # diverges; the quadrature fell back to a plain integral and divided by 0
        w = np.linspace(0.0, 50.0, 11)
        p = canonical_tls(omega0=1.0) if kind == "canonical" else TwoLevelParams(
            1.0, (1, 0, 0), CouplingFunction.tabulated(w, 0.01 * np.exp(-w / 20.0)))
        window = {"ir_cutoff": 1e-3, "uv_cutoff": 50.0, cutoff: 1.0}
        end = {"ir_cutoff": "lower end", "uv_cutoff": "upper end"}[cutoff]
        with pytest.raises(DomainError, match=end):
            level_shifts(p, QuadratureConfig(**window))

    @pytest.mark.parametrize("cutoff", ["ir_cutoff", "uv_cutoff"])
    def test_table_vanishing_on_a_cutoff_gives_a_finite_shift(self, cutoff):
        # f(w0) = 0 at a knot on the cutoff: f^2 w^4 / (w - w0) stays bounded
        # there, so D1 is a plain integral, here by 30-digit mpmath.quad
        mpmath = pytest.importorskip("mpmath")
        w = [0.2, 0.6, 1.0, 1.5, 2.5]
        f = [0.3, 0.2, 0.0, 0.25, 0.1]
        p = TwoLevelParams(1.0, (0.7, 0, 0), CouplingFunction.tabulated(w, f))
        window = {"ir_cutoff": 0.2, "uv_cutoff": 2.5, cutoff: 1.0}
        shifts = level_shifts(p, QuadratureConfig(**window))
        with mpmath.workdps(30):
            knots = [mpmath.mpf(x) for x in w]
            lo, hi = mpmath.mpf(window["ir_cutoff"]), mpmath.mpf(window["uv_cutoff"])
            pv = mpmath.mpf(0)
            for a, b, fa, fb in zip(knots[:-1], knots[1:], f[:-1], f[1:]):
                if lo <= a and b <= hi:
                    pv += mpmath.quad(
                        lambda x: (fa + (fb - fa) * (x - a) / (b - a)) ** 2 * x**4 / (x - 1),
                        [a, b])
            oracle = float(4 * mpmath.pi**2 / 3 * mpmath.mpf(0.7) ** 2 * pv)
        assert shifts.delta1 == pytest.approx(oracle, rel=1e-12)

    def test_infinite_uv_cutoff_is_the_limit(self):
        # the Lambda terms of both closed forms vanish at Lambda = inf
        beta, omega0, eps = 0.1, 2.0, 1e-3
        p = canonical_tls(beta=beta, omega0=omega0)
        far = level_shifts(p, QuadratureConfig(ir_cutoff=eps))
        scale = beta * omega0**5
        assert far.delta1 == pytest.approx(-scale * np.log((omega0 - eps) / eps), rel=1e-15)
        assert far.delta2 == pytest.approx(scale * np.log1p(omega0 / eps), rel=1e-15)
        near = level_shifts(p, QuadratureConfig(ir_cutoff=eps, uv_cutoff=1e12))
        assert near.delta1 == pytest.approx(far.delta1, rel=1e-12)
        assert near.delta2 == pytest.approx(far.delta2, rel=1e-12)

    @pytest.mark.parametrize("eps, lam", [(1e-3, 0.5), (1.5, 100.0)],
                             ids=["above Lambda", "below epsilon"])
    def test_level_splitting_outside_window_matches_quadrature(self, eps, lam):
        # D1 is then a plain integral; the quadrature warns that it falls back to one
        beta, omega0 = 0.1, 1.0
        p = canonical_tls(beta=beta, omega0=omega0, lam=lam)
        shifts = level_shifts(p, QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam))
        pref = beta * omega0**6
        d1 = quad(lambda w: 1.0 / (w * (w - omega0)), eps, lam, epsabs=0.0, epsrel=1e-13)[0]
        d2 = quad(lambda w: 1.0 / (w * (w + omega0)), eps, lam, epsabs=0.0, epsrel=1e-13)[0]
        assert shifts.delta1 == pytest.approx(pref * d1, rel=1e-12)
        assert shifts.delta2 == pytest.approx(pref * d2, rel=1e-12)

    def test_vanishing_ir_cutoff_rejected(self):
        p = canonical_tls()
        with pytest.raises(DomainError, match="infrared"):
            level_shifts(p, QuadratureConfig(ir_cutoff=0.0, uv_cutoff=100.0))

    def test_tabulated_coupling_with_zero_ir_cutoff(self):
        # QUADPACK evaluates the weight at w = 0, where |f|^2 w^4 vanishes
        omega0, lam = 1.0, 50.0
        w = np.linspace(0.0, lam, 11)
        f = 0.01 * np.exp(-w / 20.0)
        p = TwoLevelParams(omega0, (1, 0, 0), CouplingFunction.tabulated(w, f))
        shifts = level_shifts(p, QuadratureConfig(uv_cutoff=lam))
        weight = lambda x: 4.0 * np.pi**2 / 3.0 * np.interp(x, w, f) ** 2 * x**4
        tight = dict(epsabs=0.0, epsrel=1e-13, limit=500)
        d1 = d2 = 0.0
        for a, b in zip(w[:-1], w[1:]):  # the weight is a polynomial on each panel
            d2 += quad(lambda x: weight(x) / (x + omega0), a, b, **tight)[0]
            if a < omega0 < b:  # subtract the pole: PV of the constant is a log
                d1 += quad(lambda x: (weight(x) - weight(omega0)) / (x - omega0),
                           a, b, **tight)[0]
                d1 += weight(omega0) * np.log((b - omega0) / (omega0 - a))
            else:
                d1 += quad(lambda x: weight(x) / (x - omega0), a, b, **tight)[0]
        assert shifts.ir_cutoff == 0.0
        assert shifts.delta1 == pytest.approx(omega0**6 * d1, rel=1e-8)
        assert shifts.delta2 == pytest.approx(omega0**6 * d2, rel=1e-8)


class TestPopulation:
    def test_ground_state_is_stationary(self):
        p = canonical_tls()
        assert sigma_z_evolution(p, -1.0, 7.3) == -1.0

    def test_half_life(self):
        p = canonical_tls(beta=0.1, omega0=2.0, x12=(0.5, 0, 0))
        mu = decay_rate_mu(p)
        assert sigma_z_evolution(p, 1.0, np.log(2.0) / (2.0 * mu)) \
            == pytest.approx(0.0, abs=1e-14)

    def test_long_time_limit(self):
        p = canonical_tls()
        assert sigma_z_evolution(p, 0.3, 1e4) == pytest.approx(-1.0, abs=1e-12)

    def test_log_population_is_affine(self):
        p = canonical_tls(beta=0.08)
        mu = decay_rate_mu(p)
        t = np.linspace(0.0, 5.0 / mu, 200)
        sz = sigma_z_evolution(p, 0.5, t)
        slope, _ = np.polyfit(t, np.log1p(sz), 1)
        assert abs(slope + 2.0 * mu) < 1e-10
        residual = np.log1p(sz) - (np.log(1.5) - 2.0 * mu * t)
        assert np.max(np.abs(residual)) < 1e-10


class TestCoherence:
    def test_free_limit_oscillates(self):
        p = TwoLevelParams(1.0, (1, 0, 0), CouplingFunction.zero(uv_cutoff=10.0))
        cfg = QuadratureConfig(ir_cutoff=1e-6, uv_cutoff=10.0)
        spec = coherence_frequencies(p, cfg)
        assert spec.mu == 0.0
        assert spec.gamma_shifted == pytest.approx(1.0, abs=1e-12)
        t = np.linspace(0.0, 20.0, 401)
        f_t, e_t = coherence_evolution(p, 1.0, 0.0, t, cfg)
        assert np.max(np.abs(f_t - np.cos(t))) < 1e-12
        assert np.max(np.abs(np.abs(e_t) - np.abs(np.sin(t)))) < 1e-12

    def test_oscillatory_regime_envelope(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        spec = coherence_frequencies(p, cfg)
        assert p.omega0 * spec.gamma_shifted > spec.mu**2
        mu = spec.mu
        t = np.linspace(0.0, 20.0 / mu, 4001)
        f_t, _ = coherence_evolution(p, 1.0, 0.0, t, cfg)
        # envelope bound |C1| + |C2| from the same initial-value solve
        s_plus, s_minus = 1j * spec.omega_plus, 1j * spec.omega_minus
        coeff = np.array([[1.0, 1.0],
                          [1j * p.omega0 / s_plus, 1j * p.omega0 / s_minus]])
        c1, c2 = np.linalg.solve(coeff, np.array([1.0 + 0j, 0.0 + 0j]))
        bound = abs(c1) + abs(c2)
        assert np.max(np.abs(f_t) * np.exp(mu * t)) <= bound * (1.0 + 1e-6)

    def test_degenerate_pair_uses_secular_form(self, monkeypatch):
        # mu = Gamma = w0 = 1 makes the radicand mu^2 - w0 Gamma exactly 0
        spectrum = CoherenceSpectrum(mu=1.0, gamma_shifted=1.0, omega_plus=1j, omega_minus=1j)
        monkeypatch.setattr("dissipon.tls.coherence_frequencies", lambda p, cfg: spectrum)
        p = canonical_tls(omega0=1.0)
        t = np.linspace(0.0, 5.0, 101)
        with pytest.warns(UserWarning, match="secular form"):
            f_t, e_t = coherence_evolution(p, 0.7, 0.2j, t, shifts_config())
        generator = np.array([[-2.0, 1j], [1j, 0.0]])  # [[-2 mu, i Gamma], [i w0, 0]]
        ref = np.array([expm(generator * ti) @ [0.7, 0.2j] for ti in t])
        assert np.max(np.abs(f_t - ref[:, 0])) <= 1e-12
        assert np.max(np.abs(e_t - ref[:, 1])) <= 1e-12

    def test_closed_form_matches_ode_oracle(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        mu = coherence_frequencies(p, cfg).mu
        t = np.linspace(0.0, 10.0 / mu, 1501)
        f_c, e_c = coherence_evolution(p, 0.7, 0.2j, t, cfg)
        f_o, e_o = ode_oracle(p, cfg, 0.7, 0.2j, t)
        assert np.max(np.abs(f_c - f_o)) < 1e-8
        assert np.max(np.abs(e_c - e_o)) < 1e-8


class TestBlochIntegration:
    def test_population_matches_closed_form(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        mu = decay_rate_mu(p)
        grid = np.linspace(0.0, 10.0 / mu, 20001)
        hist = evolve_bloch_markov(p, BlochState(sz=1.0), grid, cfg)
        assert np.max(np.abs(hist.sz - sigma_z_evolution(p, 1.0, grid))) < 1e-8

    def test_coherence_matches_closed_form(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        grid = np.arange(0.0, 30.0, 1e-4)  # step 1e-4 / omega0
        hist = evolve_bloch_markov(p, BlochState(sz=0.0, f=1.0, e_im=0.0), grid, cfg)
        f_c, e_c = coherence_evolution(p, 1.0, 0.0, grid, cfg)
        assert np.max(np.abs(hist.f - np.real(f_c))) < 1e-8
        assert np.max(np.abs(hist.e_im - np.imag(e_c))) < 1e-8

    def test_zero_decay_keeps_population(self):
        p = TwoLevelParams(1.0, (1, 0, 0), CouplingFunction.zero(uv_cutoff=10.0))
        cfg = QuadratureConfig(ir_cutoff=1e-6, uv_cutoff=10.0)
        grid = np.linspace(0.0, 10.0, 2001)
        hist = evolve_bloch_markov(p, BlochState(sz=0.25, f=0.5), grid, cfg)
        assert np.max(np.abs(hist.sz - 0.25)) < 1e-14

    def test_ground_state_fixed_point(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        grid = np.linspace(0.0, 1.0, 1_000_001)
        hist = evolve_bloch_markov(p, BlochState(sz=-1.0), grid, cfg)
        assert np.max(np.abs(hist.sz + 1.0)) < 1e-12

    @pytest.mark.parametrize("beta, omega0", [(0.045, 1.0), (0.05, 0.9)])
    def test_ground_state_has_no_drift(self, beta, omega0):
        # acceptance 6's grid and cutoffs, where stepping the affine map
        # itself drifted by ~1e-10
        p = canonical_tls(beta=beta, omega0=omega0)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        hist = evolve_bloch_markov(p, BlochState(sz=-1.0), grid, shifts_config())
        assert np.all(hist.sz == -1.0)
        assert np.all(hist.f == 0.0) and np.all(hist.e_im == 0.0)

    def test_block_powers_match_stepwise_rk4(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        spec = coherence_frequencies(p, cfg)
        mu, gamma = spec.mu, spec.gamma_shifted
        a_mat = np.array([[-2.0 * mu, 0.0, 0.0],
                          [0.0, -2.0 * mu, -gamma],
                          [0.0, p.omega0, 0.0]])
        c_vec = np.array([-2.0 * mu, 0.0, 0.0])
        grid = np.linspace(0.0, 200.0, 20_001)
        h = grid[1] - grid[0]
        ref = np.empty((len(grid), 3))
        ref[0] = y = np.array([0.0, 1.0, -0.5])

        def rate(y):
            return a_mat @ y + c_vec

        for i in range(1, len(grid)):
            k1 = rate(y)
            k2 = rate(y + 0.5 * h * k1)
            k3 = rate(y + 0.5 * h * k2)
            k4 = rate(y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ref[i] = y
        hist = evolve_bloch_markov(p, BlochState(sz=0.0, f=1.0, e_im=-0.5), grid, cfg)
        got = np.column_stack([hist.sz, hist.f, hist.e_im])
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_emission_power_is_nonnegative(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        grid = np.linspace(0.0, 60.0, 6001)
        hist = evolve_bloch_markov(p, BlochState(sz=1.0), grid, cfg)
        power = -0.5 * p.omega0 * np.gradient(hist.sz, grid)
        assert np.all(power >= -1e-12)

    @pytest.mark.filterwarnings("error")
    def test_unstable_step_rejected(self):
        p = canonical_tls(beta=0.05)
        cfg = shifts_config()
        with pytest.raises(StabilityError):
            evolve_bloch_markov(p, BlochState(sz=1.0),
                                np.linspace(0.0, 100.0, 11), cfg)
        # a step map whose Taylor terms overflow is unstable too
        with pytest.raises(StabilityError):
            evolve_bloch_markov(p, BlochState(sz=1.0),
                                np.linspace(0.0, 1e308, 201), cfg)

    def test_state_validation(self):
        with pytest.raises(DomainError):
            BlochState(sz=1.5)


@pytest.mark.parametrize("make, message", [
    (lambda: TwoLevelParams(0.0, (1, 0, 0), CouplingFunction.canonical(0.1)),
     "level splitting must be positive"),
    (lambda: TwoLevelParams(1.0, (1, 0), CouplingFunction.canonical(0.1)),
     "x12 must be a 3-vector"),
    (lambda: sigma_z_evolution(canonical_tls(), 1.5, 1.0), "cannot exceed 1"),
], ids=["splitting", "x12", "sz0"])
def test_bad_input_rejected(make, message):
    with pytest.raises(DomainError, match=message):
        make()
