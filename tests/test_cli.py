import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dissipon
from dissipon.cli import build_parser, main
from dissipon.errors import ConfigError
from dissipon.io import emit_table, parse_config, read_table
from dissipon.langevin import PotentialSpec, evolve_mean_markov, evolve_mean_volterra
from dissipon.quadrature import QuadratureConfig
from dissipon.reservoir import CouplingFunction, MemoryKernel


def run_cli(*argv):
    return main(list(argv))


class TestTables:
    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_table(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_float_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "row.csv"
        values = (0.1 + 0.2, 1.0 / 3.0, np.float64(2.0) ** -52)
        emit_table(path, ["x", "y", "z"], [values])
        _, _, rows = read_table(path)
        assert tuple(rows[0]) == tuple(float(v) for v in values)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_array_rows_match_the_per_cell_rule(self, tmp_path, dtype):
        # across a chunk boundary, with the values whose repr is special
        special = [-0.0, np.nan, np.inf, -np.inf, 1e16, 5e-324, 0.1 + 0.2]
        table = np.random.default_rng(3).normal(size=(4097, 7))
        table[4095:] = special
        table[0] = special[::-1]
        table = table.astype(dtype)
        emit_table(tmp_path / "array.csv", list("abcdefg"), table)
        emit_table(tmp_path / "cells.csv", list("abcdefg"),
                   ([value for value in row] for row in table))  # numpy scalars
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_metadata_block(self, tmp_path):
        path = tmp_path / "meta.csv"
        emit_table(path, ["v"], [(1.0,)], metadata={"uv_cutoff": 100.0, "tag": "x"})
        meta, cols, rows = read_table(path)
        assert meta["uv_cutoff"] == "100.0"
        assert cols == ["v"] and rows == [[1.0]]

    def test_million_row_write_is_streamed(self, tmp_path):
        path = tmp_path / "big.csv"
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        def rows():
            for i in range(1_000_000):
                yield (float(i), float(i) * 0.5, float(i) * 0.25)

        emit_table(path, ["a", "b", "c"], rows())
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert (after - before) / 1024.0 < 100.0  # MiB of extra peak RSS
        assert path.stat().st_size > 10_000_000


    def test_mixed_cells_byte_identity(self, tmp_path):
        # one rule per cell: repr for floats (np.float64 included), str otherwise;
        # 4100 rows cross the writer's 4096-row chunk boundary
        path = tmp_path / "mixed.csv"
        rows = [(f"r{i}", i, np.int64(-i), np.float64(i / 3.0), i / 7.0, np.float32(i) / 3)
                for i in range(4100)]
        emit_table(path, ["s", "i", "i64", "f64", "f", "f32"], iter(rows),
                   metadata={"n": np.int64(4100), "tol": np.float64(0.1), "tag": "x"})
        expected = "# n = 4100\n# tol = 0.1\n# tag = x\ns,i,i64,f64,f,f32\n" + "".join(
            f"r{i},{i},{-i},{i / 3.0!r},{i / 7.0!r},{str(np.float32(i) / 3)}\n"
            for i in range(4100))
        assert path.read_text() == expected
        assert "r1,1,-1,0.3333333333333333,0.14285714285714285,0.33333334\n" in expected


class TestConfig:
    def test_line_anchored_errors(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("a = 1\n[ok]\nnot a pair\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[broken\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nkey = value  # trailing\n")
        assert cfg[""]["key"] == "value"


class TestCommands:
    def test_tls_decay_rate_from_emitted_curve(self, tmp_path):
        out = tmp_path / "tls"
        code = run_cli("tls", "--omega0", "2", "--beta", "0.1", "--x12sq", "0.25",
                       "--tmax", "100", "--out", str(out))
        assert code == 0
        meta, cols, rows = read_table(out / "tls_decay.csv")
        assert cols == ["t", "sz", "ReF", "ImF"]
        data = np.array(rows)
        t, sz = data[:, 0], data[:, 1]
        # the emitted curve decays at 2 mu = 0.1
        rate = -np.polyfit(t, np.log1p(sz), 1)[0]
        assert rate == pytest.approx(0.1, rel=1e-6)
        assert (out / "manifest.txt").exists()

    def test_thermal_rates_rows(self, tmp_path):
        out = tmp_path / "rates"
        code = run_cli("rates", "--thermal", "--kt", "1",
                       "--omega", repr(float(np.log(2.0))), "--n", "1,0,0",
                       "--beta", "0.1", "--out", str(out))
        assert code == 0
        _, _, rows = read_table(out / "rates.csv")
        assert rows[0][2] == pytest.approx(0.2, rel=1e-12)
        assert rows[0][3] == pytest.approx(0.4, rel=1e-12)

    def test_kernel_command(self, tmp_path):
        out = tmp_path / "kernel"
        code = run_cli("kernel", "--beta", "0.5", "--uv-cutoff", "50",
                       "--tmax", "1", "--step", "0.01", "--out", str(out))
        assert code == 0
        meta, _, rows = read_table(out / "kernel.csv")
        assert float(meta["beta_eff"]) == pytest.approx(0.5, abs=2e-3)
        assert rows[0][1] == pytest.approx(2 * 0.5 * 50 / np.pi, rel=1e-9)

    def test_kernel_of_a_table_runs_to_its_last_knot(self, tmp_path):
        # the reservoir tests' Ohmic log-grid table (beta = 0.1), extended to
        # 300: without --uv-cutoff the run integrates over the whole table
        table = tmp_path / "ohmic.dat"
        w = np.geomspace(1e-6, 300.0, 20000)
        f = np.sqrt(3.0 * 0.1 / (4.0 * np.pi**2 * w**5)) * np.exp(-((w / 150.0) ** 8) / 2)
        np.savetxt(table, np.column_stack([w, f]))
        out = tmp_path / "kernel"
        assert run_cli("kernel", "--coupling-file", str(table), "--tmax", "0.1",
                       "--step", "0.1", "--out", str(out)) == 0
        meta, _, rows = read_table(out / "kernel.csv")
        assert float(meta["uv_cutoff"]) == 300.0 and float(meta["ir_cutoff"]) == 1e-8
        times, gamma = np.array(rows).T
        ref = MemoryKernel.sample(CouplingFunction.from_file(table), times,
                                  QuadratureConfig(uv_cutoff=300.0, ir_cutoff=1e-8))
        assert np.array_equal(gamma, ref.values)
        # a cut at 100 would give 6.339 and -0.328
        assert gamma == pytest.approx([8.993, 0.074], abs=1e-3)

    def test_oscillator_command(self, tmp_path):
        out = tmp_path / "osc"
        code = run_cli("oscillator", "--m", "1", "--omega", "1", "--beta", "0.001",
                       "--n", "1,0,0", "--out", str(out))
        assert code == 0
        _, _, rows = read_table(out / "oscillator.csv")
        table = {r[0]: r[1] for r in rows}
        assert table["reservoir_energy_closed_form"] == pytest.approx(2.5)
        assert table["reservoir_energy_numeric"] == pytest.approx(2.5, rel=1e-3)

    def test_field_command_writes_snapshot(self, tmp_path):
        from dissipon.field import read_snapshot
        out = tmp_path / "field"
        code = run_cli("field", "--modes", "8", "--dx", "1.0", "--uv-cutoff", "2.8",
                       "--beta", "0.1", "--tmax", "5", "--step", "0.02",
                       "--out", str(out))
        assert code == 0
        snap, dx = read_snapshot(out / "field_final.bin")
        assert snap.shape == (8, 8, 8) and dx == 1.0
        _, cols, rows = read_table(out / "field_energy.csv")
        assert cols == ["t", "field_energy", "mechanical_energy"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["kspace", "leapfrog"])
    def test_field_tiny_step_is_finite(self, tmp_path, capsys, method):
        # the leapfrog's acceleration source used to difference the velocities
        # with weights dx1 (dx1 + dx2) that underflow to 0 at this step
        out = tmp_path / "field"
        code = run_cli("field", "--modes", "8", "--step", "1e-300", "--tmax", "4e-300",
                       "--method", method, "--out", str(out))
        assert code == 0
        # the particle loses no energy, so the field's share of it is undefined
        assert "energy_balance = nan" in capsys.readouterr().out
        _, _, rows = read_table(out / "field_energy.csv")
        assert len(rows) == 5 and np.isfinite(rows).all()


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run_cli() == 2
        assert run_cli("no-such-command") == 2

    def test_physics_error_is_one(self, tmp_path, capsys):
        code = run_cli("langevin", "--beta", "-1", "--tmax", "1",
                       "--out", str(tmp_path))
        assert code == 1
        assert "friction" in capsys.readouterr().err

    def test_config_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[tls]\nnot a pair\n")
        code = run_cli("tls", "--config", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[tls]\nfrequency_of_doom = 3\n")
        code = run_cli("tls", "--config", str(bad), "--out", str(tmp_path))
        assert code == 2

    def test_explicit_zero_ir_cutoff_is_one(self, tmp_path, capsys):
        code = run_cli("tls", "--ir-cutoff", "0", "--tmax", "1", "--steps", "10",
                       "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "infrared-divergent" in err and "Traceback" not in err

    def test_huge_tls_step_runs(self, tmp_path):
        # the Bloch step is the exact exponential, so h = 5e305 decays to the
        # ground state in one step
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("tls", "--tmax", "1e308", "--steps", "200", "--out", str(tmp_path))
        assert code == 0
        _, _, rows = read_table(tmp_path / "tls_decay.csv")
        assert rows[-1][1:] == [-1.0, 0.0, 0.0]

    def test_explicit_zero_ir_cutoff_with_table_runs(self, tmp_path):
        # a tabulated coupling has finite level shifts down to w = 0
        table = tmp_path / "coupling.dat"
        table.write_text("".join(f"{w} {3e-4 * np.exp(-w / 20.0)}\n"
                                 for w in np.linspace(0.0, 50.0, 11)))
        code = run_cli("tls", "--coupling-file", str(table), "--ir-cutoff", "0",
                       "--uv-cutoff", "50", "--tmax", "1", "--steps", "10",
                       "--out", str(tmp_path))
        assert code == 0
        meta, _, _ = read_table(tmp_path / "tls_decay.csv")
        assert float(meta["ir_cutoff"]) == 0.0

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_nonpositive_rate_time_is_one(self, tmp_path, capsys, t):
        code = run_cli("rates", "--t", t, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "t > 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("experiment, flag, value", [
        ("kernel", "--tmax", "0"), ("kernel", "--step", "0"),
        ("langevin", "--tmax", "0"), ("langevin", "--tmax", "-1"),
        ("langevin", "--step", "0"), ("field", "--tmax", "0"),
        ("field", "--step", "-0.02"),
    ])
    def test_nonpositive_time_grid_is_one(self, tmp_path, capsys, experiment, flag,
                                          value):
        code = run_cli(experiment, flag, value, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "must be positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("solver", [[], ["--volterra"]], ids=["markov", "volterra"])
    def test_langevin_table_bytes(self, tmp_path, solver):
        # the trajectory table is written as the per-row generator wrote it:
        # same metadata block, same header, one repr per float
        out = tmp_path / "run"
        argv = ["--omega", "0.8", "--beta", "0.3", "--tmax", "5", "--step", "1e-3",
                "--x0", "0.5,-0.25,1", "--v0", "0,0.5,0", *solver]
        assert run_cli("langevin", *argv, "--out", str(out)) == 0
        path = out / "trajectory.csv"
        meta, _, _ = read_table(path)
        assert meta["solver"] == ("volterra" if solver else "markov")
        grid = np.arange(0.0, 5.0 + 1e-3 / 2.0, 1e-3)
        pot = PotentialSpec.harmonic(1.0, 0.8)
        if solver:
            # the window the table's metadata records
            cfg = QuadratureConfig(uv_cutoff=float(meta["uv_cutoff"]),
                                   ir_cutoff=float(meta["ir_cutoff"]))
            kern = MemoryKernel.sample(CouplingFunction.canonical(0.3), grid, cfg)
            traj = evolve_mean_volterra(1.0, pot, kern, [0.5, -0.25, 1], [0, 0.5, 0], grid)
        else:
            traj = evolve_mean_markov(1.0, pot, 0.3, [0.5, -0.25, 1], [0, 0.5, 0], grid)
        ref = tmp_path / "ref.csv"
        rows = ((traj.times[i], *traj.positions[i], *traj.velocities[i])
                for i in range(len(traj.times)))
        emit_table(ref, ["t", "x1", "x2", "x3", "v1", "v2", "v3"], rows, metadata=meta)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("argv, row, expected", [
        # the classical limit n(x) -> T/x of the direct formula: 3 T (1 + 1/w^2) / m
        pytest.param(["--kt", "1e300"], "thermal_energy_direct", 6e300,
                     id="oscillator --kt 1e300"),
        pytest.param(["--kt", "1e-300"], "thermal_energy_direct", 0.0,
                     id="oscillator --kt 1e-300"),
        # the window [1e-8, 1e100] misses only the infrared slice I0 ~ epsilon / w^4
        pytest.param(["--uv-cutoff", "1e100"], "reservoir_energy_numeric",
                     1.5 * (1.0 - 0.1 / math.pi * 1e-8), id="oscillator --uv-cutoff 1e100"),
        pytest.param(["--beta", "1e-200"], "reservoir_energy_numeric", 1.5,
                     id="oscillator --beta 1e-200"),
    ])
    def test_extreme_oscillator_inputs_run(self, tmp_path, argv, row, expected):
        # the closed forms hold where the float range of D(x) ~ x^4 ends
        out = tmp_path / "out"
        assert run_cli("oscillator", *argv, "--out", str(out)) == 0
        _, _, rows = read_table(out / "oscillator.csv")
        assert dict(rows)[row] == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("argv, expected", [
        (["tls", "--steps", "-5"], 1),
        (["tls", "--x12sq", "-1"], 1),
        (["tls", "--x12sq", "inf"], 1),
        (["tls", "--coupling-file", "{missing}"], 1),
        (["tls", "--coupling-file", "{directory}"], 1),
        (["tls", "--coupling-file", "{non_numeric}"], 1),
        (["oscillator", "--n", "1e400,0,0"], 1),
        (["oscillator", "--n", "1.5,0,0"], 1),
        (["rates", "--n", "1.5,0,0"], 1),
        (["langevin", "--x0", "a,0,0"], 2),
        (["rates", "--fock", "1,x,0"], 2),
        (["sweep", "--config", "{sweep}", "--workers", "0"], 2),
        (["field", "--tmax", "inf"], 1),
        (["kernel", "--tmax", "inf"], 1),
        (["langevin", "--tmax", "inf"], 1),
        (["kernel", "--step", "1e-300"], 1),
        (["tls", "--tmax", "inf"], 1),
        (["tls", "--steps", str(2**62)], 1),
        (["rates", "--thermal", "--kt", "nan"], 1),
        (["rates", "--m", "nan"], 1),
        (["rates", "--t", "nan"], 1),
        (["tls", "--sz0", "nan"], 1),
        (["tls", "--f0", "nan"], 1),
        (["oscillator", "--beta", "nan"], 1),
        (["oscillator", "--kt", "nan"], 1),
        (["langevin", "--m", "nan"], 1),
        (["langevin", "--beta", "nan"], 1),
        (["kernel", "--beta", "nan"], 1),
        (["field", "--dx", "nan"], 1),
        (["field", "--uv-cutoff", "nan"], 1),
        (["field", "--uv-cutoff", "0"], 1),
        (["field", "--uv-cutoff", "-1"], 1),
        (["field", "--modes", "4194304"], 1),  # rejected before any allocation
        # finite but extreme values overflow or break a linear solve
        (["oscillator", "--beta", "1e308"], 1),
        (["oscillator", "--m", "1e-308"], 1),
        (["oscillator", "--kt", "inf"], 1),
        (["tls", "--x12sq", "1e308", "--steps", "200"], 1),
        (["tls", "--beta", "1e308"], 1),  # mu = inf: the pair is rejected first
        (["langevin", "--m", "0.5", "--beta", "1e308", "--tmax", "1"], 1),
        # level shifts that make Gamma = w0 - 2 D2 - 2 D1 negative: the
        # coherence grows, outside the Markovian regime
        (["tls", "--beta", "0.5", "--ir-cutoff", "0.9"], 1),
        (["tls", "--omega0", "1e308"], 1),
        (["langevin", "--omega", "1e308", "--tmax", "1"], 1),
        (["field", "--dx", "1e-308", "--tmax", "1", "--modes", "8"], 1),
        # a grid so coarse that its squared wavenumbers underflow, a box whose
        # volume (n dx)^3 or mode density dk^3 overflows, and a lattice
        # coupling f(|k|) dk^(3/2) that overflows
        (["field", "--dx", "1e300", "--tmax", "1", "--modes", "8"], 1),
        (["field", "--dx", "1e150", "--tmax", "1", "--modes", "8"], 1),
        (["field", "--dx", "1e104", "--modes", "8", "--coupling-file", "{table}"], 1),
        (["field", "--dx", "1e-120", "--modes", "8"], 1),
        (["field", "--dx", "1e100", "--beta", "1e300", "--tmax", "1", "--modes", "8"], 1),
        # a grid whose |k|^5 overflows: the canonical f ~ |k|^(-5/2) does not,
        # and the particle's huge kernel trips the Volterra energy guard
        (["field", "--dx", "1e-100", "--modes", "8"], 1),
        (["rates", "--beta", "inf"], 1),
        # an initial energy past the float range, which the energy guard could
        # not compare with, and a fock momentum whose norm overflows
        (["langevin", "--tmax", "0.5", "--x0", "1e308,0,0"], 1),
        (["field", "--tmax", "0.2", "--modes", "4", "--x0", "1e308,0,0"], 1),
        (["rates", "--fock", "1e308,0,0"], 1),
        (["oscillator", "--kt", "1e308"], 1),
        (["oscillator", "--beta", "1e-310"], 1),  # I0 = pi m / (2 beta w^2) overflows
        # infinite mass, friction or frequency, a lattice coupling whose
        # weights overflow and a Bose factor that overflows
        (["langevin", "--m=inf", "--tmax", "1"], 1),
        (["langevin", "--beta=inf", "--tmax", "1"], 1),
        (["field", "--m=inf", "--tmax", "1", "--modes", "8"], 1),
        (["field", "--omega=inf", "--tmax", "1", "--modes", "8"], 1),
        (["field", "--beta=1e308", "--tmax", "1", "--modes", "8"], 1),
        (["rates", "--thermal", "--kt", "1e308", "--omega", "1e-5"], 1),
        (["rates", "--beta", "1e308", "--n", "3,0,0"], 1),
        # a canonical memory kernel past the float range: 2 beta Lambda / pi
        (["kernel", "--beta", "1e307"], 1),
        (["langevin", "--volterra", "--beta", "1e307"], 1),
        # a window on which a canonical bath integral diverges: epsilon = 0,
        # and the level splitting on a cutoff
        (["rates", "--t", "5", "--ir-cutoff", "0"], 1),
        # a tabulated emission whose sinc^2 sub-panels no index can count
        (["rates", "--t", "1e20", "--coupling-file", "{faint}"], 1),
        (["rates", "--t", "1e308", "--coupling-file", "{faint}"], 1),
        (["tls", "--omega0", "1", "--uv-cutoff", "1"], 1),
        (["tls", "--omega0", "1", "--ir-cutoff", "1"], 1),
        # a flag the experiment does not read, a second coupling and a second
        # reservoir are usage errors, not a run that ignores one of them
        (["kernel", "--m=-inf"], 2),
        (["tls", "--m=-inf"], 2),
        (["field", "--ir-cutoff=-inf"], 2),
        (["oscillator", "--coupling-file", "{missing}"], 2),
        (["langevin", "--coupling-file", "{missing}"], 2),
        (["rates", "--kt=-inf"], 2),
        (["rates", "--thermal", "--kt", "1", "--t", "5"], 2),
        (["rates", "--fock", "1,0,0", "--t=-3"], 2),
        (["kernel", "--beta", "0.2", "--coupling-file", "{missing}"], 2),
        (["rates", "--thermal"], 2),
        (["rates", "--fock"], 2),
        # a cutoff of a run that integrates nothing over the bath
        (["langevin", "--uv-cutoff", "5"], 2),
        (["rates", "--thermal", "--kt", "1", "--uv-cutoff", "0.5"], 2),
        (["rates", "--ir-cutoff", "1e-3"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_bad_input_is_a_diagnostic(self, tmp_path, capsys, argv, expected):
        (tmp_path / "directory").mkdir()
        (tmp_path / "non_numeric").write_text("0.1 0.2\n0.5 abc\n")
        (tmp_path / "table").write_text("0 0.1\n1 0.2\n2 0.1\n")
        (tmp_path / "faint").write_text("0.1 1e-12\n2.5 1e-12\n5 1e-12\n")
        (tmp_path / "sweep").write_text(
            "[sweep]\nexperiment = tls\nparameter = sz0\nvalues = 0.5\n")
        files = {name: str(tmp_path / name)
                 for name in ("missing", "directory", "non_numeric", "sweep", "table",
                              "faint")}
        argv = [arg.format(**files) for arg in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == expected
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("dissipon: ")
        assert "did not converge" not in err and "Traceback" not in err
        assert "Warning" not in err and not caught, [str(w.message) for w in caught]
        assert not list(tmp_path.glob("out/*.csv"))

    def test_rate_far_past_the_table_is_zero(self, tmp_path, capsys):
        # f = 0 outside the table while w^5 overflows: the golden-rule weight is 0
        table = tmp_path / "table"
        table.write_text("0 0.1\n1 0.2\n2 0.1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("rates", "--omega", "1e70", "--coupling-file", str(table),
                           "--out", str(tmp_path / "out"))
        assert code == 0 and not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().out.splitlines() == ["emission = 0.0", "absorption = 0.0"]

    @pytest.mark.parametrize("config, message", [
        ("[rates]\nkt = 1\n", "--kt and --thermal"),
        ("[rates]\nthermal = true\nkt = 1\nt = 5\n", "one reservoir"),
        ("[kernel]\nbeta = 0.2\ncoupling_file = {missing}\n", "two couplings"),
        ("[langevin]\ncoupling_file = {missing}\n", "--coupling-file needs --volterra"),
        ("[langevin]\nuv_cutoff = 5\n", "--uv-cutoff needs --volterra"),
        ("[rates]\nthermal = true\nkt = 1\nuv_cutoff = 0.5\n", "--uv-cutoff needs --t"),
        ("[rates]\nir_cutoff = 1e-3\n", "--ir-cutoff needs --t"),
    ], ids=["kt without thermal", "two reservoirs", "two couplings", "table without memory",
            "markov cutoff", "thermal cutoff", "long-time ir cutoff"])
    @pytest.mark.parametrize("path", ["flags", "config", "sweep"])
    def test_config_and_sweep_follow_the_flag_rules(self, tmp_path, capsys, config,
                                                    message, path):
        # a config file and a sweep job are held to the rules a flag is
        experiment = config[1:config.index("]")]
        config = config.format(missing=tmp_path / "missing")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        if path == "flags":
            argv = [experiment]
            for key, value in (line.split(" = ") for line in config.splitlines()[1:]):
                flag = "--" + key.replace("_", "-")
                argv += [flag] if value == "true" else [flag, value]
        elif path == "sweep":
            parameter = "tmax" if experiment == "kernel" else "omega"
            with cfg.open("a") as fh:
                fh.write(f"[sweep]\nexperiment = {experiment}\nparameter = {parameter}\n"
                         "values = 0.5\n")
            argv = ["sweep", "--workers", "1", "--config", str(cfg)]
        else:
            argv = [experiment, "--config", str(cfg)]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "config error" in err and message in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["tls", "--tmax", "inf"], "must be positive and finite"),
        (["tls", "--tmax", "nan"], "must be positive and finite"),
        (["kernel", "--step", "1e-300"], "too large to allocate"),
    ])
    def test_unusable_time_grid_warns_nothing(self, tmp_path, capsys, argv, message):
        # rejected before the grid is differenced or allocated
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["field", "sweep"])
    def test_memory_error_is_one(self, tmp_path, capsys, monkeypatch, experiment):
        # a failed allocation, faked: no test may allocate that much
        from dissipon import cli

        def exhausted(args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        class InProcessPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "_time_grid", exhausted)
        # cmd_sweep imports the pool when it runs
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nexperiment = field\nparameter = tmax\nvalues = 1 2\n")
        argv = ["--config", str(cfg)] if experiment == "sweep" else []
        assert run_cli(experiment, *argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "out of memory: Unable to allocate" in err and "Traceback" not in err

    def test_negative_langevin_frequency_is_one(self, tmp_path, capsys):
        code = run_cli("langevin", "--omega", "-1", "--tmax", "1", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "omega >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_million_step_tls_grid_is_uniform(self, tmp_path):
        # np.linspace(0, 100, 10**6 + 1) has step spread ~1e-10 from rounding alone
        assert run_cli("tls", "--steps", "1000000", "--out", str(tmp_path)) == 0
        with open(tmp_path / "tls_decay.csv") as fh:
            rows = sum(1 for line in fh if line[0].isdigit())
        assert rows == 1_000_001

    def test_unknown_sweep_parameter_fails_before_pool(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("the pool started"))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nexperiment = tls\nparameter = bogus\nvalues = 1 2\n")
        code = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_value_for_flag_without_default(self, tmp_path):
        # kt defaults to None, so its type comes from the flag, not the value
        cfg = tmp_path / "kt.cfg"
        cfg.write_text("[rates]\nthermal = true\nkt = 1.0\n")
        out = tmp_path / "out"
        assert run_cli("rates", "--omega", "0.6931471805599453", "--beta", "0.1",
                       "--config", str(cfg), "--out", str(out)) == 0
        _, _, rows = read_table(out / "rates.csv")
        assert rows[0][2] == pytest.approx(0.2, rel=1e-12)

    def test_config_cutoff_is_numeric(self, tmp_path):
        cfg = tmp_path / "cut.cfg"
        cfg.write_text("[kernel]\nuv_cutoff = 50\n")
        out = tmp_path / "out"
        assert run_cli("kernel", "--tmax", "1", "--step", "0.01",
                       "--config", str(cfg), "--out", str(out)) == 0
        meta, _, _ = read_table(out / "kernel.csv")
        assert float(meta["uv_cutoff"]) == 50.0

    @pytest.mark.parametrize("line", ["kt = warm", "thermal = maybe", "steps = 1.5"])
    def test_unparsable_config_value_is_two(self, tmp_path, capsys, line):
        experiment = "tls" if line.startswith("steps") else "rates"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{experiment}]\n{line}\n")
        code = run_cli(experiment, "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err


# a small run of each experiment; every value flag it accepts then takes the
# value below (a coupling table for --coupling-file), which is valid and not
# its default, after the flags it needs.  The tls base has a coherence, which
# is all that the level shifts reach.
FLAG_BASES = {"kernel": ["--tmax", "0.2", "--step", "0.01"],
              "langevin": ["--tmax", "0.5", "--step", "0.01"],
              "oscillator": [], "rates": [],
              "tls": ["--tmax", "2", "--steps", "50", "--f0", "0.3"],
              "field": ["--tmax", "0.2", "--modes", "8"]}
FLAG_VALUES = {"--beta": "0.3", "--m": "1.5", "--uv-cutoff": "2.5", "--ir-cutoff": "1e-6",
               "--omega": "0.8", "--tmax": "0.3",
               "--step": "0.005", "--x0": "0.5,0,0", "--v0": "0,0.5,0", "--n": "2,0,1",
               "--kt": "2", "--fock": "1,0,0", "--t": "0.5", "--omega0": "1.5",
               "--x12sq": "0.5", "--steps": "40", "--sz0": "0.5", "--f0": "0.6",
               "--modes": "4", "--dx": "0.9", "--method": "leapfrog"}
# the canonical vacuum rate does not depend on omega
FLAG_NEEDS = {("rates", "--kt"): ["--thermal", "--kt", "1"],
              ("rates", "--omega"): ["--thermal", "--kt", "1"],
              ("rates", "--uv-cutoff"): ["--t", "0.5"],
              ("rates", "--ir-cutoff"): ["--t", "0.5"],
              ("langevin", "--coupling-file"): ["--volterra"],
              ("langevin", "--uv-cutoff"): ["--volterra"]}
_experiments = next(a for a in build_parser()._actions if a.dest == "experiment").choices
VALUE_FLAGS = [(experiment, action.option_strings[-1])
               for experiment, sub in _experiments.items() for action in sub._actions
               if action.option_strings and action.nargs != 0
               and action.dest not in ("out", "config", "workers")]


def _computed(out, capsys):
    """What a finished run computed: its stdout summary, its CSV rows below
    the metadata block and its binary outputs."""
    result = {"stdout": capsys.readouterr().out}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            lines = path.read_text().splitlines()
            result[path.name] = [line for line in lines if not line.startswith("#")]
        elif path.suffix == ".bin":
            result[path.name] = path.read_bytes()
    return result


@pytest.mark.parametrize("experiment, flag", VALUE_FLAGS,
                         ids=[" ".join(pair) for pair in VALUE_FLAGS])
def test_every_value_flag_changes_its_run(tmp_path, capsys, experiment, flag):
    # a flag that a run accepts and does not read would leave what it computes
    # as it was; the metadata block records the flag either way
    if flag != "--coupling-file":
        value = FLAG_VALUES[flag]
    elif experiment == "kernel":  # its friction sweep needs an Ohmic table
        value = str(tmp_path / "ohmic.dat")
        w = np.geomspace(1e-6, 60.0, 20000)
        np.savetxt(value, np.column_stack([w, np.sqrt(3.0 * 0.1 / (4.0 * np.pi**2 * w**5))
                                           * np.exp(-((w / 30.0) ** 8) / 2)]))
    else:
        value = str(tmp_path / "coupling.dat")
        w = np.linspace(0.0, 50.0, 11)
        np.savetxt(value, np.column_stack([w, 3e-4 * np.exp(-w / 20.0)]))
    base = [experiment, *FLAG_BASES[experiment], *FLAG_NEEDS.get((experiment, flag), [])]
    assert run_cli(*base, "--out", str(tmp_path / "base")) == 0
    before = _computed(tmp_path / "base", capsys)
    assert run_cli(*base, flag, value, "--out", str(tmp_path / "set")) == 0
    after = _computed(tmp_path / "set", capsys)
    assert len(before) > 1 and before != after


# each value flag of each experiment with nan, inf and -inf, in every
# component of a triple flag's FLAG_VALUES entry
NONFINITE_CASES = [(experiment, flag, ",".join(parts[:i] + [bad] + parts[i + 1:]))
                   for experiment, flag in VALUE_FLAGS
                   for parts in [FLAG_VALUES.get(flag, "").split(",")]
                   for bad in ("nan", "inf", "-inf") for i in range(len(parts))]
# a whole-axis window [epsilon, inf) of a run whose bath integrals converge there
NONFINITE_RUNS = {("oscillator", "--uv-cutoff", "inf"), ("tls", "--uv-cutoff", "inf"),
                  ("rates", "--uv-cutoff", "inf")}


@pytest.mark.parametrize("experiment, flag, value", NONFINITE_CASES,
                         ids=[f"{e} {f}={v}" for e, f, v in NONFINITE_CASES])
def test_nonfinite_value_is_a_diagnostic(tmp_path, capsys, monkeypatch, experiment, flag,
                                         value):
    monkeypatch.chdir(tmp_path)  # a --coupling-file named nan or inf is missing
    base = [experiment, *FLAG_BASES[experiment], *FLAG_NEEDS.get((experiment, flag), [])]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*base, f"{flag}={value}", "--out", str(out))
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    if (experiment, flag, value) in NONFINITE_RUNS:
        assert code == 0 and not err
        rows = [line for path in out.glob("*.csv") for line in path.read_text().splitlines()
                if not line.startswith("#")]
        assert rows and not any("nan" in row or "inf" in row for row in rows)
    else:
        assert code in (1, 2)
        assert len(err.splitlines()) == 1 and err.startswith("dissipon: ")


class TestDeterminismAndOverrides:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("rates", "--thermal", "--kt", "1", "--omega", "0.7",
                           "--beta", "0.1", "--out", str(out)) == 0
            outs.append((out / "rates.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "pin.cfg"
        cfg.write_text("[rates]\nomega = 0.6931471805599453\nkt = 1.0\nthermal = true\n")
        out = tmp_path / "out"
        assert run_cli("rates", "--omega", "99", "--kt", "5", "--beta", "0.1",
                       "--config", str(cfg), "--out", str(out)) == 0
        _, _, rows = read_table(out / "rates.csv")
        assert rows[0][2] == pytest.approx(0.2, rel=1e-12)

    def test_sweep_job_matches_standalone_run(self, tmp_path):
        # the experiment's section overrides the global one on both paths
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("steps = 100\ntmax = 2\n[tls]\nsteps = 200\n"
                       "[sweep]\nexperiment = tls\nparameter = sz0\nvalues = 0.5\n")
        alone, swept = tmp_path / "alone", tmp_path / "swept"
        assert run_cli("tls", "--sz0", "0.5", "--config", str(cfg),
                       "--out", str(alone)) == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(swept),
                       "--workers", "1") == 0
        table = (alone / "tls_decay.csv").read_bytes()
        assert (swept / "sweep_0000" / "tls_decay.csv").read_bytes() == table
        assert len(read_table(alone / "tls_decay.csv")[2]) == 201

    def test_sweep_merges_in_input_order(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[sweep]\nexperiment = rates\nparameter = kt\nvalues = 0.5 1.0 2.0\n"
            "[rates]\nomega = 1.0\nbeta = 0.1\nthermal = true\n")
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out),
                       "--workers", "2") == 0
        _, cols, rows = read_table(out / "sweep.csv")
        assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
        # emission increases with temperature
        emission_idx = cols.index("emission")
        emissions = [r[emission_idx] for r in rows]
        assert emissions[0] < emissions[1] < emissions[2]


def run_python(code):
    """Standard output of ``code`` run by a fresh interpreter on this checkout."""
    src = str(Path(dissipon.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def _loaded_by_cli_import(module):
    """Whether a fresh ``import dissipon.cli`` puts ``module`` in sys.modules."""
    return run_python(f"import sys, dissipon.cli; print({module!r} in sys.modules)") == "True"


def test_cli_import_does_not_load_scipy_signal():
    assert not _loaded_by_cli_import("scipy.signal")


def test_cli_import_does_not_load_scipy_integrate():
    # only the quadrature oracles import it, on their first call
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_does_not_load_the_process_pool():
    # only a sweep imports it, when it starts its pool
    assert not _loaded_by_cli_import("concurrent.futures.process")
    assert not _loaded_by_cli_import("multiprocessing")


def test_canonical_bath_integrals_do_not_load_scipy():
    # closed forms in Si and Cin: neither QUADPACK nor any other part of scipy
    assert run_python(
        "import contextlib, io, sys, tempfile\n"
        "from dissipon.cli import main\n"
        "from dissipon.oscillator import FockTriple, OscillatorParams\n"
        "from dissipon.quadrature import QuadratureConfig\n"
        "from dissipon.rates import RateRequest, finite_time_emission_probability\n"
        "from dissipon.reservoir import (CouplingFunction, ReservoirState,\n"
        "                                friction_coefficient)\n"
        "from dissipon.tls import TwoLevelParams, level_shifts\n"
        "c = CouplingFunction.canonical(0.1, uv_cutoff=100.0)\n"
        "cfg = QuadratureConfig(ir_cutoff=1e-3, uv_cutoff=100.0)\n"
        "level_shifts(TwoLevelParams(1.0, (1, 0, 0), c), cfg)\n"
        "finite_time_emission_probability(RateRequest(\n"
        "    OscillatorParams(1.0, 1.0, 0.1), FockTriple(1, 0, 0), ReservoirState.vacuum(),\n"
        "    CouplingFunction.canonical(1e-4), t=5.0), cfg)\n"
        "friction_coefficient(c)\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [main(['tls', '--steps', '50', '--out', out]),\n"
        "                 main(['rates', '--t', '5', '--beta', '1e-3', '--out', out])]\n"
        "print(codes, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    ) == "[0, 0] []"


def test_oscillator_runs_do_not_load_scipy():
    # the Lorentzian and thermal moments are partial fractions in closed form
    assert run_python(
        "import contextlib, io, sys, tempfile\n"
        "from dissipon.cli import main\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [main(['oscillator', '--out', out]),\n"
        "                 main(['oscillator', '--kt', '1', '--out', out])]\n"
        "print(codes, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    ) == "[0, 0] []"


def test_tabulated_runs_do_not_load_scipy():
    # a tabulated kernel, friction sweep, level shifts and finite-time emission
    # are exact panel sums in numpy; the log-grid table is the reservoir
    # tests' Ohmic one (beta = 0.1, Gaussian roll-off at Lambda = 60)
    assert run_python(
        "import contextlib, io, sys, tempfile\n"
        "import numpy as np\n"
        "from dissipon.cli import main\n"
        "w = np.geomspace(1e-6, 60.0, 2000)\n"
        "f = np.sqrt(0.3 / (4 * np.pi**2 * w**5)) * np.exp(-(w / 30) ** 8 / 2)\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    np.savetxt(out + '/table.dat', np.column_stack([w, 0.1 * w**-2.5]))\n"
        "    np.savetxt(out + '/ohmic.dat', np.column_stack([w, f]))\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [main(['kernel', '--coupling-file', out + '/table.dat',\n"
        "                       '--tmax', '0.1', '--out', out]),\n"
        "                 main(['langevin', '--volterra', '--coupling-file',\n"
        "                       out + '/table.dat', '--tmax', '0.1', '--out', out]),\n"
        "                 main(['tls', '--coupling-file', out + '/ohmic.dat',\n"
        "                       '--steps', '50', '--out', out]),\n"
        "                 main(['rates', '--t', '100', '--m', '100', '--coupling-file',\n"
        "                       out + '/ohmic.dat', '--out', out])]\n"
        "print(codes, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    ) == "[0, 0, 0, 0] []"


def test_every_subcommand_runs_without_scipy():
    # numpy is the one runtime dependency: with scipy unimportable each
    # subcommand runs, and only the quadrature oracles ask for the test extra
    lines = run_python(
        "import contextlib, io, sys, tempfile\n"
        "sys.modules['scipy'] = None\n"
        "from dissipon.cli import main\n"
        "from dissipon.quadrature import QuadratureConfig, integrate_semi_infinite\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    with open(out + '/sweep.cfg', 'w') as fh:\n"
        "        fh.write('[sweep]\\nexperiment = rates\\nparameter = kt\\n'\n"
        "                 'values = 0.5 1.0\\n[rates]\\nthermal = true\\n')\n"
        "    runs = [['kernel', '--tmax', '0.2', '--step', '0.01'],\n"
        "            ['langevin', '--volterra', '--tmax', '0.5', '--step', '0.01'],\n"
        "            ['oscillator', '--kt', '1'],\n"
        "            ['rates', '--t', '5', '--beta', '1e-3'],\n"
        "            ['tls', '--tmax', '2', '--steps', '50'],\n"
        "            ['field', '--tmax', '0.2', '--modes', '8'],\n"
        "            ['sweep', '--config', out + '/sweep.cfg', '--workers', '1']]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [main(argv + ['--out', out]) for argv in runs]\n"
        "print(codes)\n"
        "try:\n"
        "    integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x), QuadratureConfig())\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    ).splitlines()
    assert lines[0] == "[0, 0, 0, 0, 0, 0, 0]"
    assert lines[1:] == ["the quadrature oracles need scipy: pip install 'dissipon[test]'"]
