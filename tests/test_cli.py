import resource

import numpy as np
import pytest

from dissipon.cli import main
from dissipon.errors import ConfigError
from dissipon.io import emit_table, parse_config, read_table, serialize_config


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


class TestConfig:
    def test_round_trip_idempotent(self):
        text = "global_key = 1\n[tls]\nomega0 = 2.0\nbeta = 0.1\n"
        once = parse_config(text)
        twice = parse_config(serialize_config(once))
        assert once == twice
        assert serialize_config(once) == serialize_config(twice)

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
