import json
from dataclasses import replace

import pytest

from relaycov import cli
from relaycov.cli import ConfigError, parse_config, run


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        m = parse_config("")
        assert m.scenario.P_s == 10.0 and m.scenario.P_r == 10.0
        assert m.scenario.N_s == m.scenario.M_d == 2
        assert m.scenario.alpha == 3.52
        assert m.scenario.R_c == 5.5
        assert m.mc.seed == 42 and m.mc.samples == 20000
        assert m.options.L == 4
        assert m.command == "bounds"

    def test_comments_and_blanks_ignored(self):
        m = parse_config("# a comment\n\nP_s = 12.5\n")
        assert m.scenario.P_s == 12.5

    def test_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("powah=10\n")
        assert err.value.code == "unknown-key"
        assert err.value.field == "powah"
        assert "powah" in str(err.value)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("P_s=10\nnot a pair\n")
        assert err.value.code == "parse"
        assert "line 2" in str(err.value)

    def test_validation_error_names_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config("alpha=-1\n")
        assert err.value.code == "validation"
        assert err.value.field == "alpha"

    def test_fading_grammar(self):
        m = parse_config("fading_sr=rician:K=10:los=poor\n")
        assert m.scenario.fading_sr.k_factor == 10.0
        assert m.scenario.fading_sr.los.kind == "poor"
        m = parse_config("fading_sr=rician:K=3:los=well\nfading_rd=rayleigh\n")
        assert m.scenario.fading_sr.los.kind == "well"
        assert m.scenario.fading_rd.k_factor == 0.0

    def test_bad_fading_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("fading_sr=nakagami\n")
        with pytest.raises(ConfigError):
            parse_config("fading_sr=rician:K=10\n")
        with pytest.raises(ConfigError):
            parse_config("fading_sr=rician:K=oops:los=poor\n")
        with pytest.raises(ConfigError) as err:
            parse_config("fading_sr=rician:K=-2:los=poor\n")
        assert err.value.code == "validation"

    def test_db_suffix_converted(self):
        m = parse_config("P_s=20dB\nP_r=10 dB\n")
        assert m.scenario.P_s == pytest.approx(100.0)
        assert m.scenario.P_r == pytest.approx(10.0)

    def test_rician_k_db(self):
        m = parse_config("fading_sr=rician:K=10dB:los=poor\n")
        assert m.scenario.fading_sr.k_factor == pytest.approx(10.0)

    def test_command_and_flags(self):
        m = parse_config("command=coverage\njson=true\nout=x.csv\nmetric=cutset\n")
        assert m.command == "coverage"
        assert m.emit_json is True
        assert m.output_path == "x.csv"
        assert m.options.metric == "cutset"

    def test_bad_command(self):
        with pytest.raises(ConfigError):
            parse_config("command=fly\n")


SMALL = "samples=400\nseed=7\n"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestRunBounds:
    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = SMALL + "sweep_points=5\n"
        out = tmp_path / "bounds.csv"
        manifest = replace(parse_config(cfg), output_path=str(out))
        assert run(manifest) == 0
        header, rows = read_csv(out)
        assert header == ["d_x", "c1", "c2", "c3", "cutset", "df",
                          "stderr_c1", "stderr_c2", "stderr_c3",
                          "stderr_cutset", "stderr_df"]
        assert len(rows) == 5
        first = out.read_bytes()
        assert run(manifest) == 0
        assert out.read_bytes() == first

    def test_bound_ordering_in_output(self, tmp_path):
        out = tmp_path / "bounds.csv"
        manifest = replace(parse_config(SMALL + "sweep_points=5\n"),
                           output_path=str(out))
        run(manifest)
        _, rows = read_csv(out)
        for row in rows:
            d_x, c1, c2, c3, cutset, df = row[:6]
            assert cutset >= df - 1e-9
            assert c1 >= c3 - 1e-9

    def test_sidecar_written(self, tmp_path):
        out = tmp_path / "b.csv"
        manifest = replace(parse_config(SMALL + "sweep_points=4\n"),
                           output_path=str(out))
        run(manifest)
        meta = json.loads((tmp_path / "b.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["command"] == "bounds"
        assert "version" in meta and "wall_time_s" in meta

    def test_dataset_json_flag(self, tmp_path):
        out = tmp_path / "b.csv"
        manifest = replace(parse_config(SMALL + "sweep_points=4\njson=true\n"),
                           output_path=str(out))
        run(manifest)
        data = json.loads((tmp_path / "b.json").read_text())
        assert len(data) == 4
        assert set(data[0]) == {"d_x", "c1", "c2", "c3", "cutset", "df",
                                "stderr_c1", "stderr_c2", "stderr_c3",
                                "stderr_cutset", "stderr_df"}

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "b.csv"
        manifest = replace(parse_config(SMALL + "sweep_points=4\n"),
                           output_path=str(out))
        run(manifest)
        text = out.read_text()
        assert "\r" not in text
        cell = text.splitlines()[1].split(",")[1]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9


class TestRunOptloc:
    def test_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "optloc.csv"
        manifest = replace(parse_config("samples=2000\nsweep_points=6\n"
                                        "sweep_start=0.5\nsweep_stop=2.0\n"),
                           command="optloc", output_path=str(out))
        assert run(manifest) == 0
        header, rows = read_csv(out)
        assert header == ["r_R", "rate"]
        assert len(rows) == 6
        rates = [r[1] for r in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        meta = json.loads((tmp_path / "optloc.meta.json").read_text())
        assert 0.9 <= meta["r_star"] <= 1.1
        assert "r_star=" in capsys.readouterr().out


class TestRunCoverage:
    def test_explicit_relay_radius(self, tmp_path):
        out = tmp_path / "cov.csv"
        manifest = replace(parse_config("samples=800\nangular_steps=16\n"
                                        "relay_radius=0.95\n"),
                           command="coverage", output_path=str(out))
        assert run(manifest) == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "r_max"]
        assert len(rows) == 16
        assert rows[0][0] == 0.0
        assert all(r[1] > 0 for r in rows)

    def test_whole_sweep_no_solution_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("samples=200\nangular_steps=16\nrelay_radius=0.95\n"
                       "R_c=50\n")
        code = cli.main(["coverage", "--config", str(cfg),
                         "--out", str(tmp_path / "c.csv")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "no-solution"


class TestRunCoop:
    def test_gain_and_extension_report(self, tmp_path):
        out = tmp_path / "coop.csv"
        manifest = replace(parse_config("samples=800\nangular_steps=16\n"
                                        "relay_radius=0.95\n"),
                           command="coop", output_path=str(out))
        assert run(manifest) == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "r_max_noncoop", "r_max_coop", "gain"]
        assert len(rows) == 16
        assert min(r[3] for r in rows) >= 1.0
        meta = json.loads((tmp_path / "coop.meta.json").read_text())
        rep = meta["extension_report"]
        assert rep["gamma"] >= 1.0
        assert rep["coverage_gain"] >= 1.0
        assert rep["extension_factor_literal"] * rep["coverage_gain"] == \
            pytest.approx(1.0, abs=1e-15)
        assert rep["K1"] > 0 and rep["K2"] > 0


class TestMain:
    def test_cli_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=300\nsweep_points=4\n")
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out),
                         "--seed", "11", "--samples", "500"])
        assert code == 0
        meta = json.loads((tmp_path / "o.meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["samples"] == 500

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=-3\n")
        code = cli.main(["bounds", "--config", str(cfg)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["field"] == "alpha"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=300\nsweep_points=4\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestNonFiniteInput:
    @pytest.mark.parametrize("key,value", [
        ("P_s", "nan"), ("tol", "nan"), ("R_c", "inf")])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "o.csv"
        code = cli.main(["optloc", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["field"] == key
        assert not out.exists()


class TestRejectedKeyIsNamed:
    # One rejected value per validated key; the JSON error must name the
    # key as written in the config, not the parameter's attribute name.
    @pytest.mark.parametrize("key,value", [
        ("P_s", "-1"), ("P_r", "0"), ("alpha", "nan"), ("R_c", "inf"),
        ("N_s", "0"), ("N_r", "0"), ("M_r", "0"), ("M_d", "0"),
        ("samples", "0"),
        ("r_lo", "-1"), ("r_lo", "20"), ("r_hi", "nan"), ("tol", "0"),
        ("max_iter", "0"),
        ("L", "0"), ("angular_steps", "0"), ("angular_steps", "15"),
        ("sweep_points", "0"), ("d_y", "inf"), ("sweep_start", "nan"),
        ("sweep_stop", "inf"), ("backoff", "0"), ("backoff", "nan"),
        ("relay_radius", "nan"), ("relay_radius", "0"), ("relay_radius", "-1"),
        ("hata_A", "nan"), ("hata_B", "-1"),
        ("metric", "mean"), ("fading_sr", "rician:K=-1:los=poor"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["field"] == key
        assert not out.exists()

    def test_streams_is_an_unknown_key(self, tmp_path, capsys):
        # All draws come from one generator; the old layout knob is gone.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("streams=1\n")
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unknown-key"
        assert err["field"] == "streams"
        assert not out.exists()


class TestRejectedBeforeAnyFile:
    """Inputs that only fail once the command builds its geometry are
    still rejected with exit 2 naming the key, and nothing is written."""

    @pytest.mark.parametrize("command,config,key", [
        ("optloc", "sweep_start=0\n", "sweep_start"),
        ("optloc", "sweep_start=0.5\nsweep_stop=-1\n", "sweep_stop"),
        ("bounds", "d_y=0\n", "d_y"),
        ("coop", "hata_B=1e-300\nsamples=2000\n", "hata_B"),
    ], ids=["optloc-start-at-zero", "optloc-grid-below-zero",
            "bounds-relay-on-a-node", "coop-extension-factor-underflow"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, config,
                                    key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "o.csv"
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["field"] == key
        assert list(tmp_path.iterdir()) == [cfg]

    def test_zero_d_y_off_the_nodes_runs(self, tmp_path):
        out = tmp_path / "b.csv"
        manifest = replace(parse_config("d_y=0\nsweep_start=0.25\n"
                                        "sweep_stop=0.75\nsweep_points=3\n"
                                        "samples=200\n"),
                           command="bounds", output_path=str(out))
        assert run(manifest) == 0
        assert len(read_csv(out)[1]) == 3

    def test_sidecar_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_sidecar(tmp_path / "o.csv", parse_config(""),
                               {"coverage_gain": float("inf")}, 0.0)
