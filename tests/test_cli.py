import json
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaycov import cli, cooperation
from relaycov.capacity import McConfig, ScenarioConfig
from relaycov.channel import FadingModel, LosPrototype, resolve_los
from relaycov.cli import ConfigError, RunManifest, SweepOptions, parse_config, run
from relaycov.coverage import SolverConfig


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
        # Text that does not read as the key's type is a parse error naming
        # the key.
        for line in ["fading_sr=nakagami", "fading_sr=rician:K=10",
                     "fading_sr=rician:K=oops:los=poor", "fading_sr=rician:K",
                     "fading_sr=rician:K=3:los=medium",
                     "fading_sr=rician:K=3:los=well:phase=1", "seed=abc",
                     "json=maybe"]:
            with pytest.raises(ConfigError) as err:
                parse_config(line + "\n")
            key = line.split("=")[0]
            assert (err.value.code, err.value.field) == ("parse", key), line
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
        m = parse_config("json=true\nout=x.csv\nmetric=CUTSET\n")
        assert m.command == "bounds"  # main sets it from the command line
        assert m.emit_json is True
        assert m.output_path == "x.csv"
        assert m.options.metric == "cutset"

    # One bad key per section, in section order.
    BAD = ["P_s=-1", "samples=0", "tol=0", "metric=mean"]

    @pytest.mark.parametrize("i", range(len(BAD)),
                             ids=[bad.split("=")[0] for bad in BAD])
    def test_first_bad_key_in_section_order_is_named(self, i):
        # Written in reverse, so the key to be named comes last in the file.
        with pytest.raises(ConfigError) as err:
            parse_config("\n".join(reversed(self.BAD[i:])) + "\n")
        assert err.value.code == "validation"
        assert err.value.field == self.BAD[i].split("=")[0]

    def test_overrides_replace_the_document_before_validation(self):
        m = parse_config("samples=0\nseed=3\nout=a.csv\n",
                         {"samples": 500, "out": "b.csv", "json": True})
        assert (m.mc.samples, m.mc.seed) == (500, 3)
        assert (m.output_path, m.emit_json) == ("b.csv", True)
        with pytest.raises(ConfigError) as err:
            parse_config("samples=500\n", {"samples": 0})
        assert err.value.field == "samples"

    def test_bad_command(self):
        # The command is not a config key, so any value is rejected.
        for value in ("fly", "coop"):
            with pytest.raises(ConfigError) as err:
                parse_config(f"command={value}\n")
            assert err.value.code == "unknown-key"
            assert err.value.field == "command"


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
        # coop fails only when neither its noncooperative nor its
        # cooperative sweep reaches the target on any ray.
        for command, R_c in (("coverage", 50), ("coop", 12)):
            cfg = tmp_path / "cfg"
            cfg.write_text("samples=200\nangular_steps=16\n"
                           f"relay_radius=0.95\nR_c={R_c}\n")
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(tmp_path / "c.csv")])
            assert code == 3
            err = json.loads(capsys.readouterr().err)
            assert (err["error"], err["field"]) == ("no-solution", "R_c")
            assert list(tmp_path.iterdir()) == [cfg]


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
        # literal = power_ratio^(1/B), coverage_gain = power_ratio^(-10/B).
        assert rep["extension_factor_literal"] ** 10 * rep["coverage_gain"] \
            == pytest.approx(1.0, rel=1e-12)
        assert rep["K1"] > 0 and rep["K2"] > 0
        assert meta["metric"] == "df"

    def test_extension_report_against_measured_gain(self, tmp_path, capsys):
        # Defaults, seed 42: the CSV's gain at theta_null = 45 degrees is
        # the measured gain. The headline, power_ratio^(-1/alpha), the
        # distance ratio at the boundaries' path loss, lies within 2 % of
        # it; the literal power_ratio^(-1/B) at B = 10 alpha does not.
        out = tmp_path / "coop.csv"
        assert run(replace(parse_config(""), command="coop",
                           output_path=str(out))) == 0
        rep = json.loads((tmp_path / "coop.meta.json").read_text())[
            "extension_report"]
        header, rows = read_csv(out)
        at_null = next(row for row in rows if row[0] == rep["theta_null_deg"])
        assert at_null[3] == pytest.approx(rep["measured_gain"], rel=1e-8)
        assert rep["theta_null_deg"] == 45.0
        assert rep["measured_gain"] == pytest.approx(1.21296051, rel=1e-8)
        assert rep["coverage_gain"] == pytest.approx(1.22586983, rel=1e-8)
        assert rep["coverage_gain"] == pytest.approx(
            rep["power_ratio"] ** (-1.0 / 3.52), rel=1e-15)
        assert capsys.readouterr().out.startswith(
            "coverage_gain=1.22586983 ")
        literal = 1.0 / rep["extension_factor_literal"]
        assert literal == pytest.approx(1.02057385, rel=1e-8)
        gap = abs(rep["coverage_gain"] / rep["measured_gain"] - 1.0)
        literal_gap = abs(literal / rep["measured_gain"] - 1.0)
        assert gap < 0.02 < literal_gap
        assert not {"coverage_gain_db", "hata_B",
                    "hata_B_matches_alpha"} & set(rep)

    def test_hata_slope_matching_alpha_is_flagged(self, tmp_path):
        # The report's Hata slope is 10 * alpha by construction, so at
        # alpha = 3 both factors are taken at B = 30 and no flag is needed.
        out = tmp_path / "coop.csv"
        manifest = replace(parse_config("samples=800\nangular_steps=16\n"
                                        "relay_radius=0.95\nalpha=3\n"),
                           command="coop", output_path=str(out))
        assert run(manifest) == 0
        rep = json.loads((tmp_path / "coop.meta.json").read_text())[
            "extension_report"]
        assert rep["extension_factor_literal"] == pytest.approx(
            rep["power_ratio"] ** (1.0 / 30.0), rel=1e-12)
        assert rep["coverage_gain"] == pytest.approx(
            rep["power_ratio"] ** (-1.0 / 3.0), rel=1e-12)
        assert "hata_B_matches_alpha" not in rep


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

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_flag_exits_2_naming_the_key(self, tmp_path, capsys, samples):
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--samples", samples, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("validation", "samples")
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_directory_fails_before_the_run(self, tmp_path,
                                                        capsys):
        out = tmp_path / "missing" / "o.csv"
        code = cli.main(["optloc", "--samples", "500", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "io", "field": "out",
            "message": f"[Errno 2] No such file or directory: '{out}'"}
        assert list(tmp_path.iterdir()) == []

    def test_out_directory_fails_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        out.mkdir()
        code = cli.main(["optloc", "--samples", "500", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "io", "field": "out",
            "message": f"[Errno 21] Is a directory: '{out}'"}
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    def test_json_dataset_on_the_csv_path_is_rejected(self, tmp_path, capsys):
        # The dataset JSON goes to the CSV path with suffix .json, which
        # would be the CSV itself.
        out = tmp_path / "o.json"
        code = cli.main(["optloc", "--samples", "500", "--out", str(out),
                         "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["field"]) == ("validation", "out")
        assert list(tmp_path.iterdir()) == []

    def test_out_flag_beats_the_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=200\nsweep_points=2\n"
                       f"out={tmp_path / 'file.csv'}\n")
        out = tmp_path / "flag.csv"
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and not (tmp_path / "file.csv").exists()

    @pytest.mark.parametrize("content", [None, b"P_s=\xff\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_config_names_config(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("io", "config")
        assert not out.exists() and not out.with_suffix(".meta.json").exists()

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built a second argument parser")

        with pytest.raises(SystemExit):
            cli.main(["nope"])
        capsys.readouterr()
        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_new_parser)
        with pytest.raises(SystemExit) as exit_help:
            cli.main(["--help"])
        assert exit_help.value.code == 0
        assert capsys.readouterr().out.startswith(
            "usage: relaycov [-h] [--config CONFIG]")
        with pytest.raises(SystemExit) as exit_bad:
            cli.main(["bounds", "--seed", "x"])
        assert exit_bad.value.code == 2
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
        assert cli.main(["bounds", "--samples", "0"]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "samples"
        # Flags given to one call do not carry over to the next.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=200\nsweep_points=2\n")
        for argv, seed in ((["--seed", "11", "--json"], 11), ([], 42)):
            out = tmp_path / f"{seed}.csv"
            assert cli.main(["bounds", "--config", str(cfg), "--out", str(out),
                             *argv]) == 0
            assert json.loads(out.with_suffix(".meta.json").read_text())[
                "seed"] == seed
            assert out.with_suffix(".json").exists() == (seed == 11)

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
        ("P_s", "-1"), ("P_r", "0"), ("P_s", "1e300"), ("P_r", "1e300"),
        ("P_s", "4000dB"), ("fading_sd", "rician:K=4000dB:los=well"),
        ("alpha", "nan"), ("R_c", "inf"),
        ("N_s", "0"), ("N_r", "0"), ("M_r", "0"), ("M_d", "0"),
        ("samples", "0"),
        ("r_lo", "-1"), ("r_lo", "20"), ("r_hi", "nan"), ("tol", "0"),
        ("max_iter", "0"),
        ("L", "0"), ("angular_steps", "0"), ("angular_steps", "15"),
        ("sweep_points", "0"), ("d_y", "inf"), ("d_y", "1e-300"),
        ("sweep_start", "nan"),
        ("sweep_stop", "inf"), ("backoff", "0"), ("backoff", "nan"),
        ("relay_radius", "nan"), ("relay_radius", "0"), ("relay_radius", "-1"),
        ("hata_B", "-1"),
        ("metric", "mean"), ("fading_sr", "rician:K=-1:los=poor"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        # hata_B is no longer a key: the slope is 10 * alpha.
        assert err["error"] == ("unknown-key" if key == "hata_B"
                                else "validation")
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

    def test_hata_A_is_an_unknown_key(self, tmp_path, capsys):
        # Hata's intercept cancels from every distance ratio; only the slope,
        # 10 * alpha, is read.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hata_A=120\n")
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unknown-key"
        assert err["field"] == "hata_A"
        assert not out.exists()

    def test_hata_B_is_an_unknown_key(self, tmp_path, capsys):
        # The extension report's Hata slope is 10 * alpha, the path loss
        # the boundaries are measured under.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hata_B=35.2\n")
        out = tmp_path / "o.csv"
        code = cli.main(["coop", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unknown-key"
        assert err["field"] == "hata_B"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_command_is_an_unknown_key(self, tmp_path, capsys):
        # The command line names the command; a config key that it
        # overrode would be silently ignored.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command=coop\n")
        out = tmp_path / "o.csv"
        code = cli.main(["bounds", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unknown-key"
        assert err["field"] == "command"
        assert not out.exists()


class TestRejectedBeforeAnyFile:
    """Inputs that only fail once the command builds its geometry are
    still rejected with exit 2 naming the key, and nothing is written."""

    # The extension report's slope is 10 * alpha. A gain that overflows a
    # float needs an alpha far below 1e-3, at which the rate hardly falls
    # between r_lo and any finite r_hi, so no sweep reaches the report.
    # hata_slope stands in the slope such a run would use, to check that
    # the overflow is reported as alpha's.
    @pytest.mark.parametrize("command,config,key,hata_slope", [
        ("optloc", "sweep_start=0\n", "sweep_start", None),
        ("optloc", "sweep_start=0.5\nsweep_stop=-1\n", "sweep_stop", None),
        ("bounds", "d_y=0\n", "d_y", None),
        ("coop", "samples=2000\n", "alpha", 1e-300),
        ("coop", "samples=2000\n", "alpha", 0.005),
        ("coop", "metric=cutset\nsamples=2000\n", "metric", None),
        ("coverage", "relay_radius=1e-300\n", "relay_radius", None),
        ("optloc", "sweep_start=1e-300\n", "sweep_start", None),
        ("optloc", "P_s=1e300\n", "P_s", None),
        ("coverage", "backoff=1e-200\nsamples=500\n", "backoff", None),
        ("optloc", "r_hi=0.5\nsamples=1000\n", "r_hi", None),
        ("coverage", "r_hi=0.5\nsamples=1000\n", "r_hi", None),
        ("coverage", "r_hi=0.5\nrelay_radius=0.3\nsamples=1000\n", "r_hi",
         None),
        ("coop", "L=1\n", "L", None),
        ("optloc", "N_s=3\nM_r=3\nfading_sr=rician:K=5:los=well\n",
         "fading_sr", None),
        ("optloc", "N_s=3\nfading_sr=rician:K=5:los=poor\n", "fading_sr",
         None),
        ("coop", "N_s=3\nM_r=3\nfading_sr=rician:K=5:los=well\n",
         "fading_sr", None),
        ("coop", "N_s=3\nfading_sr=rician:K=5:los=poor\n", "fading_sr", None),
        ("coop", "N_s=3\nfading_sd=rician:K=5:los=well\n", "fading_sd", None),
        ("coop", "N_r=3\nM_d=3\nfading_rd=rician:K=5:los=well\n",
         "fading_rd", None),
    ], ids=["optloc-start-at-zero", "optloc-grid-below-zero",
            "bounds-relay-on-a-node", "coop-extension-factor-underflow",
            "coop-db-gain-overflows", "coop-has-no-cutset-metric",
            "coverage-relay-radius-overflows", "optloc-start-overflows",
            "optloc-power-overflows", "coverage-backoff-overflows",
            "optloc-bracket-too-narrow", "coverage-radius-bracket-too-narrow",
            "coverage-ray-bracket-too-narrow", "coop-needs-two-relays",
            "optloc-no-well-los-at-3x3", "optloc-los-not-square",
            "coop-no-well-los-at-3x3", "coop-los-not-square",
            "coop-sd-los-not-square", "coop-rd-no-well-los-at-3x3"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                    command, config, key, hata_slope):
        if hata_slope is not None:
            factor = cooperation.extension_factor
            monkeypatch.setattr(
                cooperation, "extension_factor",
                lambda K2, P_d, gamma, B: factor(K2, P_d, gamma, hata_slope))
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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
ANTENNAS = st.integers(1, 8)
FADING = st.one_of(
    st.builds(FadingModel.rayleigh),
    st.builds(FadingModel.rician,
              st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
              st.sampled_from([LosPrototype.poorly_conditioned(),
                               LosPrototype.well_conditioned()])))


@st.composite
def manifests(draw):
    """Valid run manifests, every field drawn."""
    r_lo, r_hi = draw(POSITIVE), draw(POSITIVE)
    assume(r_lo < r_hi)
    L = draw(st.integers(1, 12))
    # Square links often, so Rician models fit them often; a Rician model
    # whose LOS prototype does not exist at its link's shape is invalid,
    # and reads as Rayleigh here.
    N_s, N_r = draw(ANTENNAS), draw(ANTENNAS)
    M_r = draw(st.just(N_s) | ANTENNAS)
    M_d = draw(st.just(N_s) | st.just(N_r) | ANTENNAS)

    def fading(rows, cols):
        model = draw(FADING)
        try:
            if model.k_factor > 0:
                resolve_los(model.los, rows, cols)
        except ValueError:
            return FadingModel.rayleigh()
        return model

    return RunManifest(
        scenario=ScenarioConfig(
            P_s=draw(POSITIVE), P_r=draw(POSITIVE), N_s=N_s, N_r=N_r,
            M_r=M_r, M_d=M_d, alpha=draw(POSITIVE),
            fading_sr=fading(M_r, N_s), fading_sd=fading(M_d, N_s),
            fading_rd=fading(M_d, N_r), R_c=draw(POSITIVE)),
        mc=McConfig(seed=draw(st.integers(-2**63, 2**64)),
                    samples=draw(st.integers(1, 10**6))),
        solver=SolverConfig(r_lo=r_lo, r_hi=r_hi, tol=draw(POSITIVE),
                            max_iter=draw(st.integers(1, 1000))),
        output_path=draw(st.none() | st.text(
            "abcXYZ019._-/", min_size=1, max_size=20)),
        emit_json=draw(st.booleans()),
        options=SweepOptions(
            L=L, angular_steps=draw(st.integers(4 * L, 4 * L + 200)),
            d_y=draw(FINITE), sweep_start=draw(st.none() | FINITE),
            sweep_stop=draw(st.none() | FINITE),
            sweep_points=draw(st.integers(1, 500)), backoff=draw(POSITIVE),
            metric=draw(st.sampled_from(["df", "cutset"])),
            relay_radius=draw(st.none() | POSITIVE),
            exploit_symmetry=draw(st.booleans())))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, FadingModel):
        if value.los is None:
            return "rayleigh"
        return f"rician:K={value.k_factor!r}:los={value.los.kind}"
    return repr(value) if isinstance(value, float) else str(value)


def manifest_text(m: RunManifest) -> str:
    """The manifest as key=value lines; unset optional keys are left out."""
    pairs = {f.name: getattr(m.scenario, f.name) for f in fields(m.scenario)}
    pairs.update(seed=m.mc.seed, samples=m.mc.samples)
    pairs.update({f.name: getattr(m.solver, f.name) for f in fields(m.solver)})
    pairs.update(out=m.output_path, json=m.emit_json)
    pairs.update({f.name: getattr(m.options, f.name)
                  for f in fields(m.options)})
    return "".join(f"{key}={_text(value)}\n" for key, value in pairs.items()
                   if value is not None)


class TestParseConfigRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(manifests())
    def test_written_manifest_parses_back(self, m):
        got = parse_config(manifest_text(m))
        assert got.scenario == m.scenario
        assert (got.mc, got.solver, got.options) == (m.mc, m.solver, m.options)
        assert (got.command, got.output_path, got.emit_json) == (
            m.command, m.output_path, m.emit_json)
