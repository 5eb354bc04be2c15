import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dissipon.reservoir as reservoir_module
from dissipon.errors import DomainError, NonMarkovianError
from dissipon.quadrature import (QuadratureConfig, integrate_oscillatory,
                                 integrate_semi_infinite)
from dissipon.oscillator import FockTriple, OscillatorParams
from dissipon.rates import (RateRequest, finite_time_emission_probability,
                            rate_emission_vacuum)
from dissipon.reservoir import (CouplingFunction, MemoryKernel, ReservoirState,
                                bose_factor, friction_coefficient)
from dissipon.tls import TwoLevelParams, level_shifts


def quadpack_kernel(coupling, t):
    """gamma(t) as QUADPACK's cosine-weighted integral of (8 pi/3) S(w)."""
    cfg = coupling.default_config()
    value, _ = integrate_oscillatory(
        lambda w: 8.0 * np.pi / 3.0 * coupling.spectral_weight(w), 1.0, t, cfg,
        kind="cos")
    return value


def sampled_kernel(coupling, t):
    """gamma(t) from MemoryKernel.sample on the grid (0, t)."""
    return MemoryKernel.sample(coupling, [0.0, t]).values[1]


def table_edges(coupling, lo, hi):
    """The panel edges of a tabulated coupling inside the window [lo, hi];
    none where the window misses the table."""
    knots = coupling.grid
    lo, hi = max(lo, knots[0]), min(hi, knots[-1])
    if not lo < hi:
        return np.empty(0)
    return np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))


def gauss_legendre_transform(coupling, times, lo, hi, power, part, nodes=40):
    """integral_lo^hi f(w)^2 w^power cos(w t) (or sin) of a tabulated coupling
    by Gauss-Legendre nodes on each panel, and the integral of |integrand|."""
    x, wt = np.polynomial.legendre.leggauss(nodes)
    edges = table_edges(coupling, lo, hi)
    a, b = edges[:-1, None], edges[1:, None]
    w = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    # f from the panel's ends in the local variable: interpolating at w would
    # cancel the digits w shares with a knot next to a narrow panel
    fa, fb = coupling(a), coupling(b)
    f = (0.5 * (fa + fb) + 0.5 * (fb - fa) * x).ravel()
    weights = f**2 * w**power * (0.5 * (b - a) * wt).ravel()
    trig = np.cos if part == "cos" else np.sin
    return np.array([np.dot(weights, trig(w * t)) for t in times]), np.abs(weights).sum()


def mpmath_transform(coupling, t, lo, hi, power, part):
    """The same integral by 30-digit mpmath.quad, panel by panel."""
    mpmath = pytest.importorskip("mpmath")
    edges = table_edges(coupling, lo, hi)
    trig = mpmath.cos if part == "cos" else mpmath.sin
    total = 0
    with mpmath.workdps(30):
        for a, b in zip(edges[:-1], edges[1:]):
            fa, fb = mpmath.mpf(coupling(a)), mpmath.mpf(coupling(b))
            a, b = mpmath.mpf(a), mpmath.mpf(b)

            def integrand(w, a=a, b=b, fa=fa, fb=fb):
                f = fa + (fb - fa) * (w - a) / (b - a)
                return f * f * w**power * trig(w * t)
            total += mpmath.quad(integrand, [a, b])
    return float(total)


def _mpmath_weights(coupling, lo, hi):
    """The table's panels (a, b, G) in [lo, hi] with G(w) = f(w)^2 w^4 at the
    working precision, scaled by the bound max f^2 max w^4 of G, and the
    factor that scales integrals of G back: mpmath.quad stops on an
    absolute error estimate, which a tiny integrand meets too early.  The
    canonical G(w) = 3 beta / (4 pi^2 w) takes a panel per decade of the
    window, each scaled by G(lo)."""
    mpmath = pytest.importorskip("mpmath")
    if coupling.kind == "canonical":
        weight = 3 * mpmath.mpf(coupling.beta) / (4 * mpmath.pi**2)
        ends = [mpmath.mpf(lo)]
        while ends[-1] * 10 < hi:
            ends.append(ends[-1] * 10)
        ends.append(mpmath.mpf(hi))
        return [(a, b, lambda w: ends[0] / w) for a, b in zip(ends[:-1], ends[1:])], \
            weight / ends[0]
    edges = table_edges(coupling, lo, hi)
    if len(edges) == 0:
        return [], 1.0
    f = [mpmath.mpf(v) for v in coupling(edges)]
    factor = (max(v * v for v in f) * mpmath.mpf(max(-edges[0], edges[-1])) ** 4
              or mpmath.mpf(1))
    panels = []
    for a, b, fa, fb in zip(edges[:-1], edges[1:], f[:-1], f[1:]):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def weight(w, a=a, b=b, fa=fa, fb=fb):
            v = fa + (fb - fa) * (w - a) / (b - a)
            return v * v * w**4 / factor
        panels.append((a, b, weight))
    return panels, factor


def mpmath_principal_value(coupling, pole, lo, hi):
    """PV integral_lo^hi f(w)^2 w^4 / (w - pole) dw by 30-digit mpmath.quad,
    panel by panel, and the sum of the absolute contributions.  The pole is
    subtracted: G0 = f(pole)^2 pole^4 comes off every panel's numerator,
    which leaves each integrand bounded, and G0 ln|(E - pole) / (e - pole)|
    over the table's part [e, E] of the window is added back."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        panels, factor = _mpmath_weights(coupling, lo, hi)
        w0 = mpmath.mpf(pole)
        g0 = next((weight(w0) for a, b, weight in panels if a <= w0 <= b), 0)
        parts = [mpmath.quad(lambda w: (weight(w) - g0) / (w - w0), [a, b])
                 for a, b, weight in panels]
        if g0:
            parts.append(g0 * mpmath.log(abs((panels[-1][1] - w0) / (panels[0][0] - w0))))
        return (float(sum(parts) * factor),
                float(sum(abs(v) for v in parts) * factor))


def mpmath_sinc_squared(coupling, center, t, lo, hi):
    """integral_lo^hi f(w)^2 w^4 sin^2((w - center) t / 2) / ((w - center) / 2)^2 dw
    by 30-digit mpmath.quad, panel by panel on pieces of at most two
    periods of cos((w - center) t), and the sum of the absolute
    contributions."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        panels, factor = _mpmath_weights(coupling, lo, hi)
        c, t = mpmath.mpf(center), mpmath.mpf(t)
        parts = []
        for a, b, weight in panels:
            n = int(mpmath.ceil((b - a) * t / (4 * mpmath.pi)))
            pieces = sorted({a + (b - a) * k / n for k in range(n + 1)}
                            | ({c} if a < c < b else set()))
            parts.append(mpmath.quad(
                lambda w: weight(w) * t * t * mpmath.sinc((w - c) * t / 2) ** 2, pieces))
        return (float(sum(parts) * factor),
                float(sum(abs(v) for v in parts) * factor))


def subnormal_floor(magnitude):
    """An absolute floor under a bound relative to a panel sum's scale.
    f(w)^2 rounds to the subnormal grid, so where it is subnormal a sum can
    miss by a few subnormal ulps per unit of its integrand's magnitude with
    f = 1 (``magnitude``); the floor allows 64.  Above the smallest normal
    scales it is far below 1e-13 of the scale."""
    return 64.0 * np.finfo(float).smallest_subnormal * (1.0 + magnitude)


def gaussian_tail_coupling(beta=0.3, lam=60.0, n=20000):
    """Canonical coupling with a smooth UV rolloff, tabulated on a log grid."""
    w = np.geomspace(1e-6, lam, n)
    f = np.sqrt(3.0 * beta / (4.0 * np.pi**2 * w**5)) * np.exp(-((w / (lam / 2)) ** 8) / 2)
    return CouplingFunction.tabulated(w, f, uv_cutoff=lam)


class TestCoupling:
    def test_canonical_value(self):
        c = CouplingFunction.canonical(1.0)
        assert c(1.0) == pytest.approx(np.sqrt(3.0 / (4.0 * np.pi**2)))
        assert c.spectral_weight(2.5) == pytest.approx(3.0 / (4.0 * np.pi**2))

    def test_canonical_value_outside_the_quintic_range(self):
        # 4 pi^2 w^5 overflows past w ~ 2e61 and is subnormal below w ~ 1e-62,
        # where f ~ w^(-5/2) is representable
        mpmath = pytest.importorskip("mpmath")
        c = CouplingFunction.canonical(0.1)
        w = np.array([1e-120, 1e-70, 1e-63, 1e61, 2e61, 3e61, 1e70, 1e150, 1e300, np.inf])
        expected = [float(mpmath.sqrt(0.3 / (4 * mpmath.pi**2 * mpmath.mpf(x) ** 5)))
                    for x in w]
        assert c(w) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert c(1e70) == pytest.approx(expected[6], rel=1e-15)
        assert c(0.0) == np.inf
        # the closed form's own bits wherever its quintic is a normal float
        w = np.geomspace(1e-60, 1e61, 400)
        np.testing.assert_array_equal(c(w), np.sqrt(3.0 * 0.1 / (4.0 * np.pi**2 * w**5)))

    def test_tabulated_weight_past_the_quintic_overflow_is_zero(self):
        # f = 0 outside the table, even where w^5 overflows
        t = CouplingFunction.tabulated([0.0, 1.0, 2.0], [0.1, 0.2, 0.1])
        w = np.array([0.5, 3.0, 1e70, 1e300, np.inf])
        assert t.spectral_weight(w).tolist() == [t(0.5) ** 2 * 0.5**5, 0.0, 0.0, 0.0, 0.0]
        assert t.spectral_weight(1e70) == 0.0 and t.golden_rule(1e70) == 0.0

    def test_canonical_requires_positive_beta(self):
        with pytest.raises(DomainError):
            CouplingFunction.canonical(0.0)

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_canonical_requires_finite_beta(self, beta):
        with pytest.raises(DomainError):
            CouplingFunction.canonical(beta)

    def test_tabulated_validation(self):
        with pytest.raises(DomainError):
            CouplingFunction.tabulated([1.0, 1.0], [0.1, 0.2])
        with pytest.raises(DomainError):
            CouplingFunction.tabulated([1.0, 2.0], [0.1, np.inf])

    def test_from_file(self, tmp_path):
        path = tmp_path / "coupling.dat"
        path.write_text(
            "# frequency  coupling\n"
            "0.5 0.2   # low band\n"
            "\n"
            "1.0 0.1\n"
            "2.0 0.05\n")
        c = CouplingFunction.from_file(path)
        assert c(1.0) == pytest.approx(0.1)
        assert c(1.5) == pytest.approx(0.075)
        assert c(5.0) == 0.0  # outside the table
        assert c.uv_cutoff == 2.0

    def test_from_file_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(DomainError, match="two columns"):
            CouplingFunction.from_file(path)


class TestMemoryKernel:
    # the canonical closed form in MemoryKernel.sample, and QUADPACK's
    # cosine-weighted integral of the spectral weight as its oracle
    def test_canonical_zero_crossing(self):
        c = CouplingFunction.canonical(1.0, uv_cutoff=50.0)
        for kernel in (sampled_kernel, quadpack_kernel):
            assert kernel(c, np.pi / 50.0) == pytest.approx(0.0, abs=1e-10)

    def test_short_time_limit(self):
        beta, lam = 1.0, 50.0
        c = CouplingFunction.canonical(beta, uv_cutoff=lam)
        for kernel in (sampled_kernel, quadpack_kernel):
            assert kernel(c, 1e-12) == pytest.approx(2.0 * beta * lam / np.pi,
                                                     rel=1e-9)

    def test_closed_form(self):
        beta, lam = 0.4, 80.0
        c = CouplingFunction.canonical(beta, uv_cutoff=lam)
        for t in (0.05, 0.31, 1.7):
            expect = 2.0 * beta / np.pi * np.sin(lam * t) / t
            assert sampled_kernel(c, t) == pytest.approx(expect, abs=1e-8)
            assert quadpack_kernel(c, t) == pytest.approx(expect, abs=1e-8)

    def test_canonical_kernel_honours_the_ir_cutoff(self):
        # the window [epsilon, Lambda] = [1, 50]: gamma(0) = 2 beta (Lambda -
        # epsilon) / pi = 15.597, not the 15.915 of [0, 50]
        beta, eps, lam = 0.5, 1.0, 50.0
        cfg = QuadratureConfig(ir_cutoff=eps, uv_cutoff=lam)
        times = np.array([0.0, 1e-12, 0.05, 0.31, 1.7])
        kern = MemoryKernel.sample(CouplingFunction.canonical(beta), times, cfg)
        assert kern.values[0] == pytest.approx(15.597, abs=5e-4)
        assert kern.values[0] == pytest.approx(2.0 * beta * (lam - eps) / np.pi, rel=1e-15)
        expect = [2.0 * beta / np.pi * (np.sin(lam * t) - np.sin(eps * t)) / t
                  for t in times[1:]]
        assert kern.values[1:] == pytest.approx(expect, rel=1e-13, abs=1e-13)
        for t, value in zip(times, kern.values):
            # QUADPACK's cosine-weighted integral over the same window
            oracle, _ = integrate_oscillatory(lambda w: 2.0 * beta / np.pi, 1.0, t, cfg)
            assert value == pytest.approx(oracle, abs=1e-8)

    def test_zero_coupling(self):
        c = CouplingFunction.zero(uv_cutoff=10.0)
        assert sampled_kernel(c, 0.3) == pytest.approx(0.0, abs=1e-12)
        assert quadpack_kernel(c, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_negative_time_rejected(self):
        c = CouplingFunction.canonical(1.0, uv_cutoff=10.0)
        with pytest.raises(DomainError):
            MemoryKernel.sample(c, [-0.1, 0.0])

    def test_overflowing_kernel_rejected(self):
        # gamma(0) = 2 beta Lambda / pi: 6.4e307 at beta = 1e306 and
        # Lambda = 100, past the float range at beta = 1e307
        times = [0.0, 0.1]
        kern = MemoryKernel.sample(CouplingFunction.canonical(1e306, uv_cutoff=100.0), times)
        assert kern.values[0] == pytest.approx(20.0 / np.pi * 1e307, rel=1e-14)
        with pytest.raises(DomainError, match="float range"):
            MemoryKernel.sample(CouplingFunction.canonical(1e307, uv_cutoff=100.0), times)

    def test_even_in_time(self):
        # the kernel is a cosine transform: the mirrored formula coincides
        c = CouplingFunction.canonical(0.5, uv_cutoff=30.0)
        cfg = QuadratureConfig(uv_cutoff=30.0)
        pref = 8.0 * np.pi / 3.0
        for t in (0.2, 1.1):
            plus, _ = integrate_semi_infinite(
                lambda w: pref * c.spectral_weight(w) * np.cos(w * t), cfg)
            minus, _ = integrate_semi_infinite(
                lambda w: pref * c.spectral_weight(w) * np.cos(w * (-t)), cfg)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_tabulated_sampling_vs_dense_oracle(self):
        # independent fine-grid Simpson of the table integrand
        c = gaussian_tail_coupling()
        times = np.array([0.0, 0.35, 2.0])
        kern = MemoryKernel.sample(c, times)
        n = 400_001
        w = np.linspace(0.0, c.uv_cutoff, n)
        sw = (8.0 * np.pi / 3.0) * c.spectral_weight(w)
        weights = np.full(n, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= (w[1] - w[0]) / 3.0
        scale = abs(np.dot(sw, weights))
        for idx, t in enumerate(times):
            oracle = float(np.dot(sw * np.cos(w * t), weights))
            assert kern.values[idx] == pytest.approx(oracle, abs=1e-5 * scale)

    def test_tabulated_sampling_in_blocks_matches_one_block(self, monkeypatch):
        # 23 times in blocks of 4 (the last one short) against one block, on
        # the canonical coupling tabulated on 500 knots (499 panels, a
        # block row holds cos and sin of each and some rotation scratch)
        w = np.linspace(0.01, 50.0, 500)
        c = CouplingFunction.tabulated(w, np.sqrt(0.9 / (4.0 * np.pi**2 * w**5)))
        times = np.linspace(0.0, 2.0, 23)
        monkeypatch.setattr(reservoir_module, "_TRANSFORM_BLOCK", 10**12)
        whole = MemoryKernel.sample(c, times).values
        monkeypatch.setattr(reservoir_module, "_TRANSFORM_BLOCK", 5 * 2 * 499)
        blocked = MemoryKernel.sample(c, times).values
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.abs(whole).max()

    def test_transform_block_leaves_values(self, monkeypatch):
        # 41 times on the 20000-knot log-grid table (19999 panels): 24 rows
        # per block of 2^20 entries against all in one block of 2^22
        c = gaussian_tail_coupling()
        times = np.linspace(0.0, 2.0, 41)
        assert reservoir_module._TRANSFORM_BLOCK == 1 << 20
        small = MemoryKernel.sample(c, times).values
        monkeypatch.setattr(reservoir_module, "_TRANSFORM_BLOCK", 1 << 22)
        large = MemoryKernel.sample(c, times).values
        assert np.max(np.abs(small - large)) <= 1e-15 * np.abs(large).max()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the sampling process's peak RSS from /proc")
    def test_tabulated_sampling_memory_is_bounded(self):
        # 20001 times x 499 panels: cos(c t) and sin(c t) for every pair at
        # once would be 160 MB, and the peak ~190 MiB instead of ~40 MiB.
        # The peak is VmHWM, the high-water mark of the process's own memory
        # since exec: getrusage's ru_maxrss also counts the test runner's
        # memory, which the child holds between fork and exec
        code = (
            "import numpy as np\n"
            "from dissipon.reservoir import CouplingFunction, MemoryKernel\n"
            "w = np.linspace(0.01, 50.0, 500)\n"
            "c = CouplingFunction.tabulated(w, np.sqrt(0.9 / (4 * np.pi**2 * w**5)))\n"
            "MemoryKernel.sample(c, np.linspace(0.0, 20.0, 20001))\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n")
        src = str(Path(reservoir_module.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) / 1024.0 < 100.0  # MiB of peak RSS (VmHWM is in kB)

    def test_positive_spectral_density(self):
        # Fejer-windowed cosine transform of the sampled kernel stays nonnegative
        beta, lam = 0.5, 40.0
        c = CouplingFunction.canonical(beta, uv_cutoff=lam)
        horizon = 60.0
        times = np.arange(0.0, horizon, np.pi / (8.0 * lam))
        kern = MemoryKernel.sample(c, times)
        window = 1.0 - times / horizon
        probe = np.linspace(0.5, lam - 0.5, 24)
        # the trapezoid rule written out: np.trapezoid is NumPy 2.0's
        step = np.diff(times)
        density = np.array([
            np.sum(0.5 * step * (y[1:] + y[:-1]))
            for y in (window * kern.values * np.cos(w * times) for w in probe)])
        scale = np.abs(density).max()
        assert np.all(density >= -1e-6 * scale)

    def test_markovian_convolution_limit(self):
        # conv(gamma_Lambda, cos)(t) -> beta cos(t), error O(1/Lambda)
        beta = 1.0
        sups = []
        for lam in (50.0, 100.0, 200.0):
            c = CouplingFunction.canonical(beta, uv_cutoff=lam)
            h = np.pi / (40.0 * lam)
            times = np.arange(0.0, 5.0 + h / 2.0, h)
            kern = MemoryKernel.sample(c, times)
            conv = kern.convolve(np.cos(times))
            window = times >= 1.0
            sups.append(np.max(np.abs(conv[window] - beta * np.cos(times[window]))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-2
        # O(1/Lambda): quadrupling Lambda shrinks the error by ~4
        assert sups[0] / sups[2] > 2.5

    def test_convolve_vector_velocity(self):
        c = CouplingFunction.canonical(0.5, uv_cutoff=40.0)
        h = 1e-3
        times = np.arange(0.0, 2.0 + h / 2.0, h)
        kern = MemoryKernel.sample(c, times)
        v = np.stack([np.cos(times), np.sin(times), 0.0 * times], axis=1)
        conv = kern.convolve(v)
        assert conv.shape == v.shape
        assert np.allclose(conv[:, 0], kern.convolve(np.cos(times)))

    @pytest.mark.parametrize("n", [2, 3, 200, 201])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_convolve_matches_direct_trapezoid_sum(self, n, columns):
        rng = np.random.default_rng(n)
        h = 0.01
        times = h * np.arange(n)
        kern = MemoryKernel(times, rng.standard_normal(n))
        v = rng.standard_normal(n if columns is None else (n, columns))
        gam = kern.values
        direct = np.array([
            h * (np.tensordot(gam[i::-1], v[:i + 1], axes=1)
                 - 0.5 * gam[i] * v[0] - 0.5 * gam[0] * v[i])
            for i in range(n)])
        conv = kern.convolve(v)
        assert conv.shape == v.shape
        assert np.max(np.abs(conv - direct)) <= 1e-12 * np.abs(direct).max()

    def test_mismatched_grid_rejected(self):
        kern = MemoryKernel(np.linspace(0, 1, 11), np.zeros(11))
        with pytest.raises(DomainError):
            kern.convolve(np.zeros(7))

    # convolve reads the samples as lags 0, h, 2h, ...: at [0, 0.1, 0.3, 0.4]
    # it returned 0.2 for integral_0^0.3 ds = 0.3
    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.3, 0.4], [1.0, 1.1, 1.2, 1.3]],
                             ids=["non-uniform", "from t = 1"])
    def test_convolve_needs_a_lag_grid(self, times):
        kern = MemoryKernel(times, np.ones(4))
        with pytest.raises(DomainError, match="kernel lag"):
            kern.convolve(np.ones(4))

    @pytest.mark.parametrize("coupling, cfg", [
        (CouplingFunction.canonical(0.3), None),
        (CouplingFunction.canonical(0.3, uv_cutoff=10.0), QuadratureConfig()),
    ], ids=["missing", "infinite"])
    @pytest.mark.parametrize("run", [
        lambda c, cfg: MemoryKernel.sample(c, [0.0, 0.1], cfg),
        lambda c, cfg: friction_coefficient(c, cfg),
    ], ids=["sample", "friction"])
    def test_finite_uv_cutoff_required(self, run, coupling, cfg):
        with pytest.raises(DomainError, match="finite UV cutoff"):
            run(coupling, cfg)


FEW_KNOTS = CouplingFunction.tabulated([0.5, 1.2, 2.0, 3.1, 4.0], [0.3, -0.2, 0.5, 0.1, -0.4])
CANONICAL = CouplingFunction.canonical(0.3)


class TestTabulatedTransforms:
    """The panel transforms behind a tabulated kernel (f^2 w^5 against
    cos(w t)) and friction sweep (f^2 w^4 against sin(w t)), against 30-digit
    mpmath.quad on a table of four panels."""

    # epsilon below the first knot and Lambda past the last; both inside
    # the table; both on knots
    @pytest.mark.parametrize("lo, hi", [(0.1, 6.0), (0.8, 2.5), (0.5, 3.1)])
    @pytest.mark.parametrize("power, part", [(5, "cos"), (4, "sin")])
    def test_against_mpmath(self, lo, hi, power, part):
        h_max = np.diff(table_edges(FEW_KNOTS, lo, hi)).max() / 2.0
        # t = 0; all panels in the series (theta < 2); some in each regime;
        # all in the recurrence; the widest panel's theta on either side of 2
        times = np.array([0.0, 0.3, 1.9 / h_max, 2.1 / h_max, 40.0,
                          2.0 / h_max * (1.0 - 1e-9), 2.0 / h_max * (1.0 + 1e-9)])
        values = reservoir_module._transform(FEW_KNOTS, times, lo, hi, power, part)
        scale = mpmath_transform(FEW_KNOTS, 0.0, lo, hi, power, "cos")
        for t, value in zip(times, values):
            oracle = mpmath_transform(FEW_KNOTS, t, lo, hi, power, part)
            assert value == pytest.approx(oracle, abs=1e-14 * scale)

    def test_kernel_against_mpmath(self):
        # MemoryKernel.sample is (8 pi / 3) times the cosine transform, on
        # the run's window
        cfg = QuadratureConfig(ir_cutoff=0.8, uv_cutoff=6.0)
        times = np.linspace(0.0, 12.0, 7)
        kern = MemoryKernel.sample(FEW_KNOTS, times, cfg)
        scale = (8.0 * np.pi / 3.0) * mpmath_transform(FEW_KNOTS, 0.0, 0.8, 6.0, 5, "cos")
        for t, value in zip(times, kern.values):
            oracle = (8.0 * np.pi / 3.0) * mpmath_transform(FEW_KNOTS, t, 0.8, 6.0, 5, "cos")
            assert value == pytest.approx(oracle, abs=1e-14 * scale)

    def test_window_outside_the_table_is_zero(self):
        cfg = QuadratureConfig(ir_cutoff=4.5, uv_cutoff=9.0)
        assert np.all(MemoryKernel.sample(FEW_KNOTS, [0.0, 0.5], cfg).values == 0.0)

    @pytest.mark.parametrize("label", ["smooth", "linear"])
    def test_benchmark_tables_against_panel_reference(self, label):
        # the smooth log-grid table and the 500-knot linear one, against
        # Gauss-Legendre nodes per panel
        if label == "smooth":
            c = gaussian_tail_coupling()
        else:
            w = np.linspace(0.01, 50.0, 500)
            c = CouplingFunction.tabulated(w, np.sqrt(0.9 / (4.0 * np.pi**2 * w**5)))
        times = np.linspace(0.0, 2.0, 41)
        kern = MemoryKernel.sample(c, times)
        ref, scale = gauss_legendre_transform(c, times, 0.0, c.uv_cutoff, 5, "cos", nodes=24)
        assert np.max(np.abs(kern.values - (8.0 * np.pi / 3.0) * ref)) <= (
            1e-12 * (8.0 * np.pi / 3.0) * scale)


class TestTabulatedShiftsAndEmission:
    """A tabulated coupling's principal value (the level shifts) and sinc^2
    integral (finite-time emission) as panel sums, against per-panel
    30-digit mpmath.quad within 1e-13 of the sum of the absolute per-panel
    contributions."""

    # a knot, inside a panel, D2's pole, past the table, below it, and a
    # pole one ulp from a knot; windows past both ends of the table, inside
    # it, and from 0 to a knot
    @pytest.mark.parametrize("pole", [1.2, 1.6, -1.6, 4.5, 0.2, np.nextafter(2.0, 3.0)])
    @pytest.mark.parametrize("lo, hi", [(0.1, 6.0), (0.8, 2.5), (0.0, 3.1)])
    def test_principal_value_against_mpmath(self, pole, lo, hi):
        value = reservoir_module._principal_value(FEW_KNOTS, pole, lo, hi)
        oracle, scale = mpmath_principal_value(FEW_KNOTS, pole, lo, hi)
        assert abs(value - oracle) <= 1e-13 * scale

    # the canonical weight c / w: D1's pole inside the window, below it and
    # above it, D2's, and windows of one and of six decades
    @pytest.mark.parametrize("pole", [1.6, 0.5, 7.0, -1.6, -1e-3])
    @pytest.mark.parametrize("lo, hi", [(1e-3, 6.0), (0.8, 6.0), (0.8, 1e3)])
    def test_canonical_principal_value_against_mpmath(self, pole, lo, hi):
        value = reservoir_module._principal_value(CANONICAL, pole, lo, hi)
        oracle, scale = mpmath_principal_value(CANONICAL, pole, lo, hi)
        assert abs(value - oracle) <= 1e-13 * scale

    @pytest.mark.parametrize("pole, lo, hi", [(0.5, 0.1, 6.0), (4.0, 0.1, 6.0),
                                              (2.5, 0.8, 2.5)])
    def test_pole_on_an_end_of_the_range_diverges(self, pole, lo, hi):
        # f jumps to 0 at the table's ends, and the window's end is one-sided
        with pytest.raises(DomainError, match="diverges"):
            reservoir_module._principal_value(FEW_KNOTS, pole, lo, hi)

    @pytest.mark.parametrize("pole", [0.1, 6.0])
    def test_canonical_pole_on_an_end_of_the_window_diverges(self, pole):
        with pytest.raises(DomainError, match="diverges"):
            reservoir_module._principal_value(CANONICAL, pole, 0.1, 6.0)

    def test_pole_on_an_end_where_f_is_zero(self):
        table = CouplingFunction.tabulated([0.5, 1.0, 2.0], [0.0, 0.3, 0.1])
        value = reservoir_module._principal_value(table, 0.5, 0.0, 3.0)
        oracle, scale = mpmath_principal_value(table, 0.5, 0.0, 3.0)
        assert abs(value - oracle) <= 1e-13 * scale

    # the resonance on a knot, inside a panel, and past the table; the
    # phase spread of the widest panel from 0.01 to 200
    @pytest.mark.parametrize("center", [1.2, 1.6, 4.5])
    @pytest.mark.parametrize("t", [0.01, 3.0, 200.0])
    def test_sinc_squared_against_mpmath(self, center, t):
        value = reservoir_module._sinc_squared(FEW_KNOTS, center, t, 0.0, 3.1)
        oracle, scale = mpmath_sinc_squared(FEW_KNOTS, center, t, 0.0, 3.1)
        assert abs(value - oracle) <= 1e-13 * scale

    # the canonical weight c / w: the resonance inside the window, below it
    # and above it
    @pytest.mark.parametrize("center", [1.6, 0.5, 7.0])
    @pytest.mark.parametrize("t", [0.01, 3.0, 200.0])
    def test_canonical_sinc_squared_against_mpmath(self, center, t):
        value = reservoir_module._sinc_squared(CANONICAL, center, t, 0.8, 6.0)
        oracle, scale = mpmath_sinc_squared(CANONICAL, center, t, 0.8, 6.0)
        assert abs(value - oracle) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_log_grid_table(self, n):
        # the Ohmic table on which QUADPACK raised for both shifts and for
        # every t below: the shifts are finite, and P / t tends to the
        # golden-rule rate n omega golden_rule(omega) / m
        c = gaussian_tail_coupling(beta=0.1, n=n)
        cfg = QuadratureConfig.for_frequencies(1.0, uv_cutoff=60.0)
        shifts = level_shifts(TwoLevelParams(1.0, (1, 0, 0), c), cfg)
        assert np.isfinite([shifts.delta1, shifts.delta2]).all()
        rate = rate_emission_vacuum(RateRequest(
            OscillatorParams(1e5, 1.0, 0.0), FockTriple(1, 0, 0), ReservoirState.vacuum(), c))
        for t in [1.0, 10.0, 100.0, 1e3, 1e4]:
            prob = finite_time_emission_probability(RateRequest(
                OscillatorParams(1e5, 1.0, 0.0), FockTriple(1, 0, 0), ReservoirState.vacuum(),
                c, t=t), cfg)
            assert np.isfinite(prob)
        assert prob / t == pytest.approx(rate, rel=1e-3)

    # windows around omega0 = 1 holding ~50 panels of each table
    @pytest.mark.parametrize("n, lo, hi", [(2000, 0.8, 1.25), (20000, 0.98, 1.02)])
    def test_log_grid_shifts_against_mpmath(self, n, lo, hi):
        c = gaussian_tail_coupling(beta=0.1, n=n)
        cfg = QuadratureConfig(ir_cutoff=lo, uv_cutoff=hi)
        knot = float(c.grid[np.searchsorted(c.grid, 1.0)])
        for omega0 in [1.0, knot]:
            shifts = level_shifts(TwoLevelParams(omega0, (1, 0, 0), c), cfg)
            pref = 4.0 * np.pi**2 / 3.0 * omega0**6
            for value, pole in [(shifts.delta1, omega0), (shifts.delta2, -omega0)]:
                oracle, scale = mpmath_principal_value(c, pole, lo, hi)
                assert abs(value - pref * oracle) <= 1e-13 * pref * scale

    @pytest.mark.parametrize("n, lo, hi, t", [(2000, 0.8, 1.25, 1.0), (2000, 0.8, 1.25, 1e3),
                                              (20000, 0.98, 1.02, 1e3)])
    def test_log_grid_emission_against_mpmath(self, n, lo, hi, t):
        c = gaussian_tail_coupling(beta=0.1, n=n)
        prob = finite_time_emission_probability(RateRequest(
            OscillatorParams(1e5, 1.0, 0.0), FockTriple(1, 0, 0), ReservoirState.vacuum(),
            c, t=t), QuadratureConfig(ir_cutoff=lo, uv_cutoff=hi))
        pref = 2.0 * np.pi / 3e5
        oracle, scale = mpmath_sinc_squared(c, 1.0, t, lo, hi)
        assert abs(prob - pref * oracle) <= 1e-13 * pref * scale


class TestFriction:
    def test_canonical(self):
        c = CouplingFunction.canonical(0.3, uv_cutoff=50.0)
        assert friction_coefficient(c) == pytest.approx(0.3, abs=1e-3)

    def test_zero(self):
        assert friction_coefficient(CouplingFunction.zero(uv_cutoff=10.0)) == 0.0

    def test_tabulated_gaussian_tail(self):
        c = gaussian_tail_coupling(beta=0.3)
        assert friction_coefficient(c) == pytest.approx(0.3, rel=0.02)

    def test_tabulated_gaussian_tail_against_panel_oracle(self):
        # the plateau is J(T) at the last horizon T = 25600 / Lambda; the
        # oracle takes 40 Gauss-Legendre nodes per panel, where theta <= 12
        c = gaussian_tail_coupling(beta=0.3)
        horizon = 2.0**8 * 100.0 / c.uv_cutoff
        oracle, _ = gauss_legendre_transform(c, [horizon], 0.0, c.uv_cutoff, 4, "sin")
        assert friction_coefficient(c) == pytest.approx(
            (8.0 * np.pi / 3.0) * oracle[0], rel=1e-10)

    def test_linear_table_is_not_ohmic(self):
        # The 500-knot canonical table on [0.01, 50] is zero below 0.01, so
        # S(w)/w vanishes at w = 0 and J(T) -> 0: it swings through the
        # three horizons (-19.1, -3.05, 0.444 at beta = 0.3) and has no
        # plateau, which the sweep reports as NonMarkovianError
        w = np.linspace(0.01, 50.0, 500)
        c = CouplingFunction.tabulated(w, np.sqrt(0.9 / (4.0 * np.pi**2 * w**5)))
        horizons = 2.0 ** np.arange(6, 9) * 100.0 / 50.0
        sweep = (8.0 * np.pi / 3.0) * reservoir_module._transform(
            c, horizons, 0.0, 50.0, 4, "sin")
        oracle, scale = gauss_legendre_transform(c, horizons, 0.0, 50.0, 4, "sin")
        assert np.max(np.abs(sweep - (8.0 * np.pi / 3.0) * oracle)) <= (
            1e-12 * (8.0 * np.pi / 3.0) * scale)
        assert sweep == pytest.approx([-19.1486, -3.05121, 0.444009], rel=1e-5)
        # long after the sweep, J is nearly gone
        late = (8.0 * np.pi / 3.0) * reservoir_module._transform(
            c, np.array([2.0**14 * 2.0]), 0.0, 50.0, 4, "sin")
        assert abs(late[0]) < 1e-2 * abs(sweep[-1])
        with pytest.raises(NonMarkovianError):
            friction_coefficient(c)

    def test_subohmic_diverges(self):
        w = np.geomspace(1e-6, 50.0, 20000)
        c = CouplingFunction.tabulated(w, np.sqrt(1e-3 / w**6), uv_cutoff=50.0)
        with pytest.raises(NonMarkovianError):
            friction_coefficient(c)


class TestReservoirState:
    def test_thermal_log2(self):
        assert bose_factor(np.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_thermal_frozen(self):
        assert bose_factor(100.0, 1.0) == pytest.approx(0.0, abs=1e-40)
        assert bose_factor(100.0, 0.1) == 0.0  # w/T > 700: frozen out exactly

    @pytest.mark.filterwarnings("error")
    def test_thermal_frozen_when_ratio_overflows(self):
        assert bose_factor(1.0, 1e-308) == 0.0
        assert np.all(bose_factor(np.array([1.0, 2.0]), 1e-308) == 0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ReservoirState.thermal(0.0)
        with pytest.raises(DomainError):
            ReservoirState.fock([[0.0, 0.0, 0.0]])


@pytest.mark.parametrize("make, message", [
    (lambda path: CouplingFunction.tabulated([0.0, 1.0], [0.1]), "needs matching 1-d grids"),
    (lambda path: CouplingFunction("ohmic"), "unknown coupling kind"),
    (lambda path: CouplingFunction.from_file(path), "need at least two tabulated points"),
    (lambda path: ReservoirState.fock([[1.0, 0.0]]), "fock quanta are 3-vectors"),
    (lambda path: ReservoirState.fock([[1.0, 0.0, 0.0]], weights=[0.5, 0.5]),
     "one line-width weight per quantum"),
    (lambda path: ReservoirState("squeezed"), "unknown reservoir kind"),
    (lambda path: MemoryKernel([0.0, 1.0], [0.0]),
     "kernel needs matching 1-d time and value arrays"),
    (lambda path: MemoryKernel([0.0, 0.0], [1.0, 1.0]), "strictly increasing"),
    # a canonical beta past ~6e307 overflows its weight 3 beta / (4 pi^2)
    (lambda path: friction_coefficient(CouplingFunction.canonical(1.7e308, uv_cutoff=10.0)),
     "the kernel time integral overflows"),
], ids=["grids", "coupling kind", "one point", "quanta", "weights", "reservoir kind",
        "kernel arrays", "kernel times", "friction overflow"])
def test_bad_input_rejected(tmp_path, make, message):
    path = tmp_path / "one_point.dat"
    path.write_text("1.0 0.1\n")
    with pytest.raises(DomainError, match=message):
        make(path)
