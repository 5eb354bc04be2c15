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
from dissipon.reservoir import (CouplingFunction, MemoryKernel, ReservoirState,
                                bose_factor, friction_coefficient)


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

    def test_zero_coupling(self):
        c = CouplingFunction.zero(uv_cutoff=10.0)
        assert sampled_kernel(c, 0.3) == pytest.approx(0.0, abs=1e-12)
        assert quadpack_kernel(c, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_negative_time_rejected(self):
        c = CouplingFunction.canonical(1.0, uv_cutoff=10.0)
        with pytest.raises(DomainError):
            MemoryKernel.sample(c, [-0.1, 0.0])

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
        # 23 times in blocks of 5 (the last one short) against one block, on
        # the canonical coupling tabulated on 500 knots (8193 frequencies)
        w = np.linspace(0.01, 50.0, 500)
        c = CouplingFunction.tabulated(w, np.sqrt(0.9 / (4.0 * np.pi**2 * w**5)))
        times = np.linspace(0.0, 2.0, 23)
        monkeypatch.setattr(reservoir_module, "_TRANSFORM_BLOCK", 10**12)
        whole = MemoryKernel.sample(c, times).values
        monkeypatch.setattr(reservoir_module, "_TRANSFORM_BLOCK", 5 * 8193)
        blocked = MemoryKernel.sample(c, times).values
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.abs(whole).max()

    def test_tabulated_sampling_memory_is_bounded(self):
        # 20001 times x 8193 frequencies: one cos(w t) matrix would be 1.3 GB
        code = (
            "import resource, numpy as np\n"
            "from dissipon.reservoir import CouplingFunction, MemoryKernel\n"
            "w = np.linspace(0.01, 50.0, 500)\n"
            "c = CouplingFunction.tabulated(w, np.sqrt(0.9 / (4 * np.pi**2 * w**5)))\n"
            "MemoryKernel.sample(c, np.linspace(0.0, 20.0, 20001))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(reservoir_module.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(out.stdout) / 1024.0 < 300.0  # MiB of peak RSS

    def test_positive_spectral_density(self):
        # Fejer-windowed cosine transform of the sampled kernel stays nonnegative
        beta, lam = 0.5, 40.0
        c = CouplingFunction.canonical(beta, uv_cutoff=lam)
        horizon = 60.0
        times = np.arange(0.0, horizon, np.pi / (8.0 * lam))
        kern = MemoryKernel.sample(c, times)
        window = 1.0 - times / horizon
        probe = np.linspace(0.5, lam - 0.5, 24)
        density = np.array([
            np.trapezoid(window * kern.values * np.cos(w * times), times)
            for w in probe])
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


class TestFriction:
    def test_canonical(self):
        c = CouplingFunction.canonical(0.3, uv_cutoff=50.0)
        assert friction_coefficient(c) == pytest.approx(0.3, abs=1e-3)

    def test_zero(self):
        assert friction_coefficient(CouplingFunction.zero(uv_cutoff=10.0)) == 0.0

    def test_tabulated_gaussian_tail(self):
        c = gaussian_tail_coupling(beta=0.3)
        assert friction_coefficient(c) == pytest.approx(0.3, rel=0.02)

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
