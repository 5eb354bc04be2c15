import numpy as np
import pytest

from dissipon.errors import DomainError, QuadratureError
from dissipon.quadrature import (QuadratureConfig, _quad, integrate_oscillatory,
                                 integrate_principal_value,
                                 integrate_semi_infinite,
                                 integrate_sinc_squared)
from test_cli import run_python

# 1e6-point Simpson oracle for x / (((1-x^2)^2 + 0.01 x^2)(e^x - 1)) on (0, 50),
# cross-checked against 30-digit adaptive quadrature (9.36786797651810453...)
SIMPSON_ORACLE = 9.3678679765181
# PV int_0^inf e^{-x}/(x-1) dx = -e^{-1} Ei(1); the series oracle
# -2 sum 1/((2k+1)(2k+1)!) + E1(1) reproduces the same digits
PV_EXP_ORACLE = -0.697174883235066


def oracle_integrand(x):
    return x / (((1.0 - x * x) ** 2 + 0.01 * x * x) * np.expm1(x))


def simpson_oracle(f, a, b, n=1_000_000):
    x = np.linspace(a, b, n + 1)
    y = f(x)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(y @ w) * (x[1] - x[0]) / 3.0


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-8

    @pytest.mark.parametrize("kw", [
        dict(abs_tol=0.0), dict(rel_tol=-1e-3),
        dict(ir_cutoff=2.0, uv_cutoff=1.0), dict(ir_cutoff=-1.0),
        dict(max_subdivisions=0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            QuadratureConfig(**kw)

    def test_for_frequencies(self):
        cfg = QuadratureConfig.for_frequencies(2.0, 0.5)
        assert cfg.uv_cutoff == 200.0
        assert cfg.ir_cutoff == pytest.approx(5e-9)


class TestSemiInfinite:
    def test_exponential(self):
        value, err = integrate_semi_infinite(lambda x: np.exp(-x), QuadratureConfig())
        assert value == pytest.approx(1.0, abs=1e-9)
        assert err >= 0.0

    def test_lorentzian(self):
        value, _ = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x),
                                           QuadratureConfig())
        assert value == pytest.approx(np.pi / 2.0, rel=1e-10)

    def test_against_simpson_oracle(self):
        cfg = QuadratureConfig(uv_cutoff=50.0)
        value, _ = integrate_semi_infinite(oracle_integrand, cfg, singularities=[1.0])
        assert value == pytest.approx(SIMPSON_ORACLE, rel=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        cfg = QuadratureConfig(uv_cutoff=30.0)
        for _ in range(3):
            s1, s2 = rng.uniform(0.3, 3.0, size=2)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            f = lambda x: np.exp(-x / s1)
            g = lambda x: x * np.exp(-x / s2) / (1 + x)
            lhs, _ = integrate_semi_infinite(lambda x: a * f(x) + b * g(x), cfg)
            vf, _ = integrate_semi_infinite(f, cfg)
            vg, _ = integrate_semi_infinite(g, cfg)
            tol = 10.0 * cfg.rel_tol * (abs(a * vf) + abs(b * vg) + 1.0)
            assert abs(lhs - (a * vf + b * vg)) <= tol

    def test_refinement_monotone_vs_oracle(self):
        # halving tolerances never worsens agreement with the Simpson oracle
        devs = []
        for rel in (1e-4, 1e-6, 1e-8):
            cfg = QuadratureConfig(rel_tol=rel, abs_tol=rel * 1e-2, uv_cutoff=50.0)
            value, _ = integrate_semi_infinite(oracle_integrand, cfg,
                                               singularities=[1.0])
            devs.append(abs(value - SIMPSON_ORACLE))
        assert devs[1] <= devs[0] + 1e-12
        assert devs[2] <= devs[1] + 1e-12

    def test_nonconvergence_carries_best_estimate(self):
        cfg = QuadratureConfig(max_subdivisions=3, uv_cutoff=50.0)
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(
                lambda x: np.cos(200.0 * x) / np.sqrt(abs(x - 7.123) + 1e-14), cfg)
        assert info.value.best_estimate is not None
        assert info.value.error_estimate >= 0.0


class TestPrincipalValue:
    def test_symmetric_pole(self):
        cfg = QuadratureConfig(uv_cutoff=2.0)
        value, _ = integrate_principal_value(lambda x: 1.0, 1.0, cfg)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_exponential_over_pole(self):
        value, _ = integrate_principal_value(
            lambda x: np.exp(-x), 1.0, QuadratureConfig())
        assert value == pytest.approx(PV_EXP_ORACLE, abs=5e-8)

    def test_linear_over_pole(self):
        cfg = QuadratureConfig(ir_cutoff=0.5, uv_cutoff=1.5)
        value, _ = integrate_principal_value(lambda x: x, 1.0, cfg)
        assert value == pytest.approx(1.0, rel=1e-7)

    def test_antisymmetry(self):
        # odd-about-pole integrand on a symmetric window integrates to zero
        cfg = QuadratureConfig(ir_cutoff=1.0, uv_cutoff=5.0)
        value, _ = integrate_principal_value(
            lambda x: np.sin(x - 3.0) ** 2 * np.sinc((x - 3.0) / np.pi)
            + 2.0 * (x - 3.0) ** 2 + 1.0, 3.0, cfg)
        assert value == pytest.approx(0.0, abs=cfg.abs_tol)

    def test_pole_outside_window_degenerates(self):
        cfg = QuadratureConfig(ir_cutoff=2.0, uv_cutoff=5.0)
        with pytest.warns(UserWarning, match="outside"):
            value, _ = integrate_principal_value(
                lambda x: np.exp(-x) * (x - 1.0), 1.0, cfg)
        plain, _ = integrate_semi_infinite(lambda x: np.exp(-x), cfg)
        assert value == pytest.approx(plain, rel=1e-12)


class TestOscillatory:
    def test_laplace_cosine(self):
        value, _ = integrate_oscillatory(lambda x: np.exp(-x), 10.0, 1.0,
                                         QuadratureConfig())
        assert value == pytest.approx(1.0 / 101.0, rel=1e-8)

    def test_dirichlet(self):
        cfg = QuadratureConfig(ir_cutoff=1e-300, uv_cutoff=2000.0)
        value, _ = integrate_oscillatory(lambda x: 1.0 / x, 2000.0, 1.0, cfg,
                                         kind="sin")
        assert value == pytest.approx(np.pi / 2.0, abs=1e-6)

    def test_sinc_squared_mass(self):
        t = 200.0
        value, _ = integrate_sinc_squared(lambda x: 1.0, 1.0, t, QuadratureConfig())
        assert value == pytest.approx(2.0 * np.pi * t, rel=1e-2)

    def test_sinc_squared_matches_brute_force(self):
        t = 50.0
        cfg = QuadratureConfig(uv_cutoff=400.0)
        value, _ = integrate_sinc_squared(lambda x: 1.0 / (1.0 + x), 2.0, t, cfg)

        def integrand(x):
            return t * t * np.sinc((x - 2.0) * t / (2 * np.pi)) ** 2 / (1.0 + x)

        brute = simpson_oracle(integrand, 0.0, 400.0, n=2_000_000)
        assert value == pytest.approx(brute, rel=1e-8)

    def test_zero_time(self):
        assert integrate_sinc_squared(lambda x: 1.0, 1.0, 0.0,
                                      QuadratureConfig()) == (0.0, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            integrate_oscillatory(lambda x: np.exp(-x), 1.0, -1.0,
                                  QuadratureConfig())
        with pytest.raises(DomainError):
            integrate_sinc_squared(lambda x: 1.0, 1.0, -2.0, QuadratureConfig())

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            integrate_oscillatory(lambda x: np.exp(-x), 1.0, 1.0,
                                  QuadratureConfig(), kind="tan")


def _scipy_quad(f, a, b, cfg, weight=None, wvar=None, points=None):
    """``scipy.integrate.quad`` with the arguments dissipon's QUADPACK calls use."""
    from scipy.integrate import quad
    kwargs = dict(epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
                  full_output=True, points=points, weight=weight, wvar=wvar)
    if weight in ("cos", "sin") and not np.isfinite(b):
        kwargs["limlst"] = max(cfg.max_subdivisions, 50)
    return quad(f, a, b, **kwargs)


class TestQuadpackParity:
    """The direct QUADPACK calls reproduce ``scipy.integrate.quad`` bit for bit."""

    @pytest.mark.parametrize("a, b, kwargs", [
        pytest.param(0.0, 3.0, {}, id="qagse"),
        pytest.param(3.0, 0.0, {}, id="qagse-reversed"),
        pytest.param(0.0, 3.0, dict(points=[1.0, 0.5, 1.0]), id="qagpe"),
        pytest.param(0.0, 3.0, dict(weight="cauchy", wvar=1.2), id="qawce"),
        pytest.param(0.0, 3.0, dict(weight="cos", wvar=7.0), id="qawoe-cos"),
        pytest.param(0.5, 3.0, dict(weight="sin", wvar=7.0), id="qawoe-sin"),
        pytest.param(0.5, np.inf, dict(weight="cos", wvar=3.0), id="qawfe-cos"),
        pytest.param(0.5, np.inf, dict(weight="sin", wvar=3.0), id="qawfe-sin"),
    ])
    def test_value_and_error_estimate(self, a, b, kwargs):
        f = lambda x: np.exp(-x) / np.sqrt(1.0 + (x - 1.0) ** 2)
        cfg = QuadratureConfig()
        out = _scipy_quad(f, a, b, cfg, **kwargs)
        assert len(out) == 3  # QUADPACK flagged nothing
        assert _quad(f, a, b, cfg, **kwargs) == out[:2]

    def test_flagged_result_within_slack_is_accepted(self):
        # QAGS reports roundoff (ier 2) at a 1e-14 request but its estimate
        # stays within 10x of it
        f = lambda x: np.exp(-x)
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300)
        out = _scipy_quad(f, 0.0, 1.0, cfg)
        assert len(out) > 3 and out[1] <= 10.0 * cfg.tolerance_for(out[0])
        assert _quad(f, 0.0, 1.0, cfg) == out[:2]

    @pytest.mark.parametrize("b, weight", [(50.0, None), (np.inf, "cos")])
    def test_flagged_result_outside_slack_raises_with_quads_message(self, b, weight):
        # three panels: QAGS stops at its subdivision limit (ier 1), QAWF
        # reports bad behaviour within the cycles (ier 7)
        f = lambda x: np.cos(37.3 * x) / np.sqrt(abs(x - 7.123) + 1e-14)
        cfg = QuadratureConfig(max_subdivisions=3)
        wvar = 1.0 if weight else None
        out = _scipy_quad(f, 1.0, b, cfg, weight=weight, wvar=wvar)
        with pytest.raises(QuadratureError) as info:
            _quad(f, 1.0, b, cfg, weight=weight, wvar=wvar)
        assert str(info.value).endswith(out[3].splitlines()[0])
        assert (info.value.best_estimate, info.value.error_estimate) == out[:2]

    @pytest.mark.parametrize("first", ["dissipon", "scipy.integrate"])
    def test_one_extension_module_whichever_loads_first(self, first):
        # fresh interpreter: this process may already hold scipy.integrate
        load = {"dissipon": "from dissipon.quadrature import _quadpack; _quadpack()",
                "scipy.integrate": "import scipy.integrate"}
        code = "; ".join([
            "import sys", load[first],
            load["scipy.integrate" if first == "dissipon" else "dissipon"],
            "from dissipon.quadrature import _quadpack",
            "from scipy.integrate import _quadpack_py",
            "module = sys.modules['scipy.integrate._quadpack']",
            "print(_quadpack() is module and _quadpack_py._quadpack is module)",
        ])
        assert run_python(code) == "True"

