import numpy as np
import pytest
import scipy.linalg as sla

from dissipon.errors import DomainError, RegimeError
from dissipon.oscillator import (FockTriple, OscillatorParams, _discretised_bath,
                                 _mode_sum_oracle, asymptotic_reservoir_energy,
                                 asymptotic_system_energy, damped_frequency,
                                 lorentzian_moments, mean_trajectory,
                                 thermal_steady_energy)
from dissipon.quadrature import QuadratureConfig


def bose(x, kt):
    return 1.0 / np.expm1(x / kt)


def dense_mode_sum(p, kt, oracle_modes):
    """The oracle by a general eigendecomposition of the (2N+2)^2 generator.

    s = (x, v, q_j, p_j) evolves by s' = A s; the second moments evolve as
    e^{At} S0 e^{A^T t}, so the long-time energy keeps the terms with
    lambda_i + lambda_j = 0 of V^T E V and V^-1 S0 V^-T.
    """
    m, w = p.m, p.omega
    wj, c = _discretised_bath(p, kt, oracle_modes)
    n = len(wj)
    a_mat = np.zeros((2 * n + 2, 2 * n + 2))
    a_mat[0, 1] = 1.0
    a_mat[1, 0] = -w**2
    a_mat[1, 2 + n:] = -(np.sqrt(2.0) / m) * c * wj
    idx = np.arange(n)
    a_mat[2 + idx, 2 + n + idx] = wj
    a_mat[2 + n + idx, 2 + idx] = -wj
    a_mat[2 + n + idx, 1] = np.sqrt(2.0) * c

    lam, vecs = sla.eig(a_mat)
    s0 = np.zeros_like(a_mat)
    s0[2 + idx, 2 + idx] = bose(wj, kt)
    s0[2 + n + idx, 2 + n + idx] = bose(wj, kt)
    vinv = np.linalg.inv(vecs)
    b = vinv @ s0 @ vinv.T
    energy_form = np.zeros_like(a_mat)
    energy_form[0, 0] = 0.5 * m * w**2
    energy_form[1, 1] = 0.5 * m
    weights = (vecs.T @ energy_form @ vecs).T * b
    resonant = np.abs(lam[:, None] + lam[None, :]) <= 1e-9 * np.abs(lam).max()
    return 3.0 * weights[resonant].sum().real


class TestDampedFrequency:
    def test_undamped(self):
        assert damped_frequency(OscillatorParams(1.0, 1.0, 0.0)) == 1.0

    def test_formula(self):
        p = OscillatorParams(1.0, 1.0, 1.0)
        assert damped_frequency(p) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)

    def test_critical_damping_rejected(self):
        with pytest.raises(RegimeError):
            damped_frequency(OscillatorParams(2.0, 3.0, 12.0))

    def test_monotone_in_friction(self):
        betas = np.linspace(0.0, 1.5, 12)
        w1 = [damped_frequency(OscillatorParams(1.0, 1.0, b)) for b in betas]
        assert np.all(np.diff(w1) < 0.0)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            OscillatorParams(-1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            OscillatorParams(1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            OscillatorParams(1.0, 1.0, -0.1)


class TestMeanTrajectory:
    def test_initial_value(self):
        p = OscillatorParams(1.0, 1.0, 0.2)
        assert mean_trajectory(p, [1, 0, 0], [0, 0, 0], 0.0) == pytest.approx([1, 0, 0])

    def test_half_period_undamped(self):
        p = OscillatorParams(1.0, 1.0, 0.0)
        x = mean_trajectory(p, [1, 0, 0], [0, 0, 0], np.pi)
        assert x == pytest.approx([-1.0, 0.0, 0.0], abs=1e-14)

    def test_envelope_after_one_period(self):
        p = OscillatorParams(1.0, 1.0, 0.2)
        t = 2.0 * np.pi / p.omega1
        x = mean_trajectory(p, [1, 0, 0], [0, 0, 0], t)
        assert x[0] == pytest.approx(np.exp(-0.1 * t), rel=1e-12)
        assert x[0] == pytest.approx(0.5318, abs=5e-4)

    def test_envelope_bound(self):
        p = OscillatorParams(1.0, 1.3, 0.5)
        x0 = np.array([0.7, -0.2, 0.1])
        p0 = np.array([0.3, 0.4, -0.8])
        t = np.linspace(0.0, 40.0, 4001)
        xs = mean_trajectory(p, x0, p0, t)
        w1 = p.omega1
        bound = (np.linalg.norm(x0) + np.linalg.norm(p0) / (p.m * w1)
                 + p.beta * np.linalg.norm(x0) / (2 * p.m * w1))
        envelope = np.exp(-p.beta * t / (2 * p.m)) * bound
        assert np.all(np.linalg.norm(xs, axis=1) <= envelope + 1e-12)

    def test_overdamped_rejected(self):
        with pytest.raises(RegimeError):
            mean_trajectory(OscillatorParams(1.0, 1.0, 2.5), [1, 0, 0], [0, 0, 0], 1.0)


class TestSystemEnergy:
    def test_ground_state(self):
        e = asymptotic_system_energy(OscillatorParams(1.0, 1.0, 0.1), FockTriple())
        assert e.velocity_form == 0.0
        assert e.canonical_form == pytest.approx(0.0075, rel=1e-14)

    def test_excited(self):
        e = asymptotic_system_energy(OscillatorParams(2.0, 0.5, 0.1),
                                     FockTriple(1, 1, 0))
        assert e.canonical_form == pytest.approx(0.00875, rel=1e-14)

    def test_zero_friction(self):
        e = asymptotic_system_energy(OscillatorParams(1.0, 1.0, 0.0), FockTriple(2))
        assert e.canonical_form == 0.0

    def test_strong_damping_warns(self):
        with pytest.warns(UserWarning, match="weak-damping"):
            asymptotic_system_energy(OscillatorParams(1.0, 1.0, 0.5), FockTriple())

    def test_fock_validation(self):
        with pytest.raises(DomainError):
            FockTriple(-1, 0, 0)


class TestReservoirEnergy:
    @pytest.mark.parametrize("n", [FockTriple(0, 0, 0), FockTriple(1, 0, 0),
                                   FockTriple(2, 1, 0)])
    def test_residue_closed_form(self, n):
        p = OscillatorParams(1.0, 1.0, 1e-3)
        r = asymptotic_reservoir_energy(p, n)
        assert r.residue_closed_form == (n.total + 1.5) * 1.0
        assert r.numeric == pytest.approx(r.residue_closed_form, rel=1e-3)

    def test_lorentzian_moments_vs_residues(self):
        # I0 -> pi m/(2 beta w^2), I2 -> pi m/(2 beta) as beta -> 0
        ratios0, ratios2 = [], []
        for beta in (0.1, 0.01, 1e-3):
            p = OscillatorParams(1.0, 1.0, beta)
            cfg = QuadratureConfig(uv_cutoff=1e3)
            i0, i2 = lorentzian_moments(p, cfg)
            g = beta / p.m
            ratios0.append(i0 * 2.0 * g * p.omega**2 / np.pi)
            ratios2.append(i2 * 2.0 * g / np.pi)
        assert ratios0[-1] == pytest.approx(1.0, rel=1e-5)
        assert ratios2[-1] == pytest.approx(1.0, rel=1e-3)
        assert abs(ratios0[-1] - 1.0) <= abs(ratios0[0] - 1.0) + 1e-12

    def test_moment_example(self):
        p = OscillatorParams(1.0, 1.0, 0.1)
        i0, _ = lorentzian_moments(p)
        assert i0 == pytest.approx(np.pi / (2.0 * 0.1), rel=1e-2)

    def test_no_relaxation_rejected(self):
        with pytest.raises(RegimeError):
            asymptotic_reservoir_energy(OscillatorParams(1.0, 1.0, 0.0), FockTriple())


class TestThermalSteadyEnergy:
    def test_frozen_at_low_temperature(self):
        # soft-mode weight makes the approach power-law (~T^2), not exponential,
        # but the limit is still zero and monotone in T
        p = OscillatorParams(1.0, 1.0, 0.1)
        values = [thermal_steady_energy(p, kt, oracle_modes=(60, 60)).direct
                  for kt in (1.0, 0.1, 0.02)]
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 1e-4 * values[0]

    def test_direct_integral_matches_simpson_oracle(self):
        m, omega, beta, kt = 1.0, 1.0, 0.1, 1.0
        p = OscillatorParams(m, omega, beta)
        r = thermal_steady_energy(p, kt, oracle_modes=(80, 80))

        def dens(x):
            return (omega**2 - x**2) ** 2 + (beta / m) ** 2 * x**2

        n = 1_000_000
        x = np.linspace(1e-9, 100.0, n + 1)
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (x[1] - x[0]) / 3.0
        core = 1.0 / (dens(x) * np.expm1(x / kt))
        oracle = 6.0 * beta / (np.pi * m**2) * float(((x + x**3) * core) @ w)
        assert r.direct == pytest.approx(oracle, rel=1e-3)

    def test_narrow_lorentzian_pole_estimate(self):
        # x-weighted integral ~ (pi m/(2 beta w^2)) * w * nbar(w) at small beta
        m, omega, beta, kt = 1.0, 1.0, 0.01, 1.0
        p = OscillatorParams(m, omega, beta)
        cfg = QuadratureConfig.for_frequencies(omega, kt)
        from dissipon.quadrature import integrate_semi_infinite

        def dens(x):
            return (omega**2 - x**2) ** 2 + (beta / m) ** 2 * x**2

        i1, _ = integrate_semi_infinite(
            lambda x: x / (dens(x) * np.expm1(x / kt)), cfg, singularities=[omega])
        estimate = np.pi * m / (2.0 * beta * omega**2) * omega * bose(omega, kt)
        assert i1 == pytest.approx(estimate, rel=0.02)

    def test_mode_sum_oracle_recovers_physical_value(self):
        # weak coupling: E -> 3 w nbar(w); the direct formula's prefactor doubles it at w=m=1
        m, omega, beta, kt = 1.0, 1.0, 0.1, 1.0
        p = OscillatorParams(m, omega, beta)
        r = thermal_steady_energy(p, kt, oracle_modes=(320, 320))
        from dissipon.quadrature import integrate_semi_infinite
        cfg = QuadratureConfig.for_frequencies(omega, kt)

        def dens(x):
            return (omega**2 - x**2) ** 2 + (beta / m) ** 2 * x**2

        i1, _ = integrate_semi_infinite(
            lambda x: x / (dens(x) * np.expm1(x / kt)), cfg, singularities=[omega])
        i3, _ = integrate_semi_infinite(
            lambda x: x**3 / (dens(x) * np.expm1(x / kt)), cfg, singularities=[omega])
        response_value = 3.0 * beta / (np.pi * m) * (i3 + omega**2 * i1)
        assert r.mode_sum == pytest.approx(response_value, rel=0.05)
        assert r.direct == pytest.approx(2.0 * r.mode_sum, rel=0.08)

    @pytest.mark.parametrize("oracle_modes", [(40, 40), (80, 80)])
    @pytest.mark.parametrize("beta, kt", [(0.1, 1.0), (0.1, 0.5), (0.05, 1.3),
                                          (0.2, 0.7), (0.4, 2.0)])
    def test_mode_sum_oracle_matches_dense_eigendecomposition(self, oracle_modes,
                                                               beta, kt):
        p = OscillatorParams(1.0, 1.0, beta)
        assert _mode_sum_oracle(p, kt, oracle_modes) == pytest.approx(
            dense_mode_sum(p, kt, oracle_modes), rel=1e-10)

    @pytest.mark.parametrize("spectrum", ["default", "degenerate"])
    def test_resonant_pair_sum_matches_dense_formula(self, monkeypatch, spectrum):
        # the oracle sums M_E M_Y over the resonant (k, l) pairs only; the
        # dense formula forms every entry of both and masks them
        p, kt = OscillatorParams(1.0, 1.0, 0.1), 1.0
        svd = np.linalg.svd

        def coupling_matrix(wj, c):
            c_mat = np.zeros((len(wj) + 1, len(wj) + 1))
            c_mat[0, 0] = p.omega
            c_mat[1:, 0] = np.sqrt(2.0 / p.m) * c * np.sqrt(wj)
            c_mat[1:, 1:] = np.diag(-wj)
            return c_mat

        if spectrum == "default":
            wj, c = _discretised_bath(p, kt, (320, 320))
        else:
            # uncoupled modes at two of the coupled system's singular values,
            # and an uncoupled pair at one frequency: three degenerate blocks,
            # two of them holding the particle
            wj, c = np.array([0.5, 0.9, 1.3, 2.0]), np.array([0.1, 0.2, 0.15, 0.05])
            sigma = svd(coupling_matrix(wj, c))[1]
            wj = np.concatenate([wj, sigma[[1, 3]], [3.0, 3.0]])
            c = np.concatenate([c, np.zeros(4)])
            monkeypatch.setattr("dissipon.oscillator._discretised_bath",
                                lambda *args: (wj, c))
            unrotated = _mode_sum_oracle(p, kt, (320, 320))

            # LAPACK keeps these blocks unmixed; any basis of a block is as
            # valid, so hand the oracle one that spreads the particle over it
            def rotated_svd(a):
                u, sigma, vt = svd(a)
                rot = np.array([[0.8, -0.6], [0.6, 0.8]])
                for i in np.flatnonzero(np.abs(sigma[1:] - sigma[:-1]) <= 1e-9 * sigma[0]):
                    u[:, i:i + 2] = u[:, i:i + 2] @ rot
                    vt[i:i + 2] = rot.T @ vt[i:i + 2]
                return u, sigma, vt

            monkeypatch.setattr(np.linalg, "svd", rotated_svd)
        u, sigma, vt = np.linalg.svd(coupling_matrix(wj, c))
        y = np.concatenate([[0.0], wj * bose(wj, kt)])
        m_e = 0.25 * (np.outer(u[0], u[0]) + np.outer(vt[:, 0], vt[:, 0]))
        m_y = 0.5 * ((u.T * y) @ u + (vt * y) @ vt.T)
        resonant = np.abs(sigma[:, None] - sigma[None, :]) <= 1e-9 * sigma.max()
        dense = 6.0 * (m_e * m_y)[resonant].sum()
        got = _mode_sum_oracle(p, kt, (320, 320))
        assert got == pytest.approx(dense, rel=1e-13)
        if spectrum == "degenerate":
            assert np.count_nonzero(resonant) == len(sigma) + 6
            # the off-diagonal pairs carry part of the value, and the sum
            # over each block does not depend on its basis
            diagonal = 6.0 * np.trace(m_e * m_y)
            assert abs(dense - diagonal) > 0.01 * dense
            assert got == pytest.approx(unrotated, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_validation(self):
        p = OscillatorParams(1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            thermal_steady_energy(p, 0.0)
        with pytest.raises(RegimeError):
            thermal_steady_energy(OscillatorParams(1.0, 1.0, 0.0), 1.0)
        # the oracle's bath grid reaches 30 T, and the occupation T / w of its
        # lowest mode overflows
        with pytest.raises(DomainError, match="bath grid must be finite"):
            thermal_steady_energy(p, np.float64(1e308))
        with pytest.raises(DomainError, match="thermal occupations"):
            thermal_steady_energy(p, 2e306)
        # the whole-axis integrals take no window: a stale positional one fails
        with pytest.raises(TypeError):
            thermal_steady_energy(p, 1.0, QuadratureConfig(uv_cutoff=10.0))
        # exact critical damping: D(x) has a double root
        with pytest.raises(RegimeError, match="double root"):
            thermal_steady_energy(OscillatorParams(1.0, 1.0, 2.0), 1.0,
                                  oracle_modes=(20, 20))
        # a subnormal beta/m puts I0 = pi m / (2 beta w^2) past the float range
        with pytest.raises(DomainError, match="float range"):
            lorentzian_moments(OscillatorParams(1.0, 1.0, 1e-310))
        # a cutoff on a peak so narrow that epsilon / l rounds to -i: a
        # diagnostic, not the ValueError of atan(-i)
        with pytest.raises(DomainError, match="float resolution"):
            lorentzian_moments(OscillatorParams(1.0, 1e100, 1e-300),
                               QuadratureConfig(ir_cutoff=1e100))
        # the closed forms hold where the float range of D(x) ~ x^4 ends: the
        # classical limit n(x) -> T/x, 3 T (1 + 1/w^2) / m, and the window [0, inf)
        hot = thermal_steady_energy(p, 1e300, oracle_modes=(20, 20)).direct
        assert hot == pytest.approx(6e300, rel=1e-14)
        assert thermal_steady_energy(p, 1e-300, oracle_modes=(20, 20)).direct == 0.0
        i0, i2 = lorentzian_moments(p, QuadratureConfig(uv_cutoff=1e100))
        assert (i0, i2) == pytest.approx((np.pi / 0.2, np.pi / 0.2), rel=1e-15)

    def test_oracle_rejects_a_coupling_matrix_past_the_float_range(self):
        # sqrt(2/m) is inf at a subnormal mass: LAPACK's SVD spun for more than
        # 20 s on the inf entries instead of failing
        p = OscillatorParams(5e-324, 1e-10, 1e-308)
        with pytest.raises(DomainError, match="coupling matrix"):
            thermal_steady_energy(p, 5e-324, oracle_modes=(2, 2))
