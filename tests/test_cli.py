import json
import math

import numpy as np
import pytest

from qmsd.cli import main, parse_grid, resolve_config
from qmsd.constants import ValidationError
from qmsd.output import config_hash, format_number, write_csv


class TestParseGrid:
    def test_linear(self):
        assert parse_grid("linear:0:30:300") == ("linear", 0.0, 30.0, 300)

    def test_geometric(self):
        assert parse_grid("geometric:0.01:100:512") == (
            "geometric", 0.01, 100.0, 512)

    @pytest.mark.parametrize("bad", ["linear:0:30", "cubic:0:1:10",
                                     "linear:a:b:10", "linear:0:1:ten"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_grid(bad)


class TestOutputHelpers:
    def test_hash_stable_and_order_free(self):
        a = config_hash({"x": 1, "y": 2.0})
        b = config_hash({"y": 2.0, "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != config_hash({"x": 1, "y": 2.1})

    def test_number_round_trip(self):
        for x in [0.1, math.pi, 1e-30, -2.5e17]:
            assert float(format_number(x)) == x

    def test_csv_shape_guard(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0], [1.0, 2.0]],
                      "deadbeef")


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        assert run_cli("scales", "--out", str(tmp_path)) == 0
        assert "t_b" in capsys.readouterr().out

    def test_config_error_bad_physics(self, tmp_path, capsys):
        code = run_cli("scales", "--out", str(tmp_path),
                       "--temperature-K", "-5")
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_bad_grid(self, tmp_path):
        assert run_cli("ideal", "--out", str(tmp_path),
                       "--grid", "nope") == 2

    def test_config_error_unknown_format(self, tmp_path):
        assert run_cli("scales", "--out", str(tmp_path),
                       "--formats", "csv,xls") == 2

    def test_io_error_unwritable_outdir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("scales", "--out", str(blocker / "sub")) == 3

    def test_io_error_missing_config_file(self, tmp_path):
        assert run_cli("scales", "--out", str(tmp_path),
                       "--config", str(tmp_path / "none.json")) == 3

    @pytest.mark.parametrize("command,flag,value", [
        ("exact", "--mass-u", "inf"), ("exact", "--mass-u", "nan"),
        ("exact", "--temperature-K", "inf"), ("exact", "--lattice-pm", "inf"),
        ("collision", "--alpha", "inf"), ("scattering", "--q-inv-angstrom", "inf"),
        ("scattering", "--q-inv-angstrom", "nan")])
    def test_config_error_non_finite(self, tmp_path, capsys, command, flag, value):
        assert run_cli(command, "--out", str(tmp_path), f"{flag}={value}") == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("key,value", [
        ("n_cells", 10.7), ("funcs_per_cell", 100.5), ("dimensionality", 1.5),
        ("members", 1500.5), ("seed", 4.2), ("n_cells", True), ("seed", "42")])
    def test_config_error_non_integral(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({key: value}))
        assert run_cli("scales", "--out", str(tmp_path / "o"),
                       "--config", str(cfgfile)) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("mass_u", "28"), ("temperature_K", "190"), ("lattice_pm", [256]),
        ("alpha", True), ("q_inv_angstrom", None)])
    def test_config_error_non_numeric(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({key: value}))
        assert run_cli("scales", "--out", str(tmp_path / "o"),
                       "--config", str(cfgfile)) == 2
        assert f"{key} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_accepted(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"n_cells": 20.0}))

        class Args:
            command = "scales"
            config = str(cfgfile)

        cfg = resolve_config(Args())
        assert cfg["n_cells"] == 20 and isinstance(cfg["n_cells"], int)

    @pytest.mark.parametrize("argv", [
        ["ideal", "--grid", "linear:0:1:0"],
        ["ideal", "--grid", "geometric:0:1:5"],
        ["ideal", "--grid", "linear:-1:1:3"],
        ["exact", "--grid", "linear:5:1:4"],
        ["ideal", "--grid", "linear:nan:1:1"],
        ["ideal", "--grid", "linear:0:inf:3"],
        ["exact", "--funcs-per-cell", "0"],
        ["mc-verify", "--members", "1"],
        ["mc-verify", "--seed", "-1"]], ids=" ".join)
    def test_config_error_bad_input(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["collision", "scattering"])
    def test_decreasing_grid_rejected(self, tmp_path, capsys, command):
        # the same grid rule as exact: times must increase
        assert run_cli(command, "--out", str(tmp_path), "--grid", "linear:10:0:5") == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_hash_independent_of_number_spelling(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"mass_u": 28}))
        for name, extra in (("defaults", []), ("int", ["--config", str(cfgfile)])):
            assert run_cli("scales", "--out", str(tmp_path / name),
                           "--formats", "csv", *extra) == 0
        lines = [(tmp_path / name / "scales.csv").read_text().splitlines()
                 for name in ("defaults", "int")]
        assert lines[0] == lines[1]
        # the default configuration keeps its hash
        assert lines[0][0] == "# config_hash: a4795e8c67b3115b"

    @pytest.mark.parametrize("content,message", [
        ('{"grid": 5}', "grid must be a str"),
        ('{"no_timestamp": "yes"}', "no_timestamp must be a bool"),
        ("[1, 2]", "one JSON object")])
    def test_config_error_bad_file(self, tmp_path, capsys, content, message):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(content)
        assert run_cli("scales", "--out", str(tmp_path / "o"),
                       "--config", str(cfgfile)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        import qmsd.cli

        def broken(*args, **kwargs):
            raise ValueError("internal defect")

        monkeypatch.setattr(qmsd.cli, "msd_exact_curve", broken)
        with pytest.raises(ValueError, match="internal defect"):
            run_cli("exact", "--out", str(tmp_path), "--grid", "linear:0:5:8")

    @pytest.mark.parametrize("command", ["exact", "breve", "collision", "mc-verify",
                                         "figure2"])
    def test_dimensionality_other_than_one_rejected(self, tmp_path, capsys, command):
        assert run_cli(command, "--out", str(tmp_path), "--dimensionality", "3") == 2
        assert "dimensionality must be 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_ideal_scales_with_dimensionality(self, tmp_path):
        msd = {}
        for d in (1, 3):
            out = tmp_path / str(d)
            assert run_cli("ideal", "--out", str(out), "--formats", "csv",
                           "--dimensionality", str(d)) == 0
            rows = (out / "ideal.csv").read_text().splitlines()[2:]
            msd[d] = np.array([float(row.split(",")[2]) for row in rows])
        assert msd[1][0] > 0
        np.testing.assert_allclose(msd[3], 3 * msd[1], rtol=1e-15, atol=0)

    def test_numerical_error_non_finite_output(self, tmp_path, capsys, monkeypatch):
        import qmsd.cli
        real = qmsd.cli.msd_exact_curve

        def poisoned(*args, **kwargs):
            curve = real(*args, **kwargs)
            curve.values[3] = np.nan
            return curve

        monkeypatch.setattr(qmsd.cli, "msd_exact_curve", poisoned)
        assert run_cli("exact", "--out", str(tmp_path),
                       "--grid", "linear:0:5:8") == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "exact.csv").exists()


class TestConfigResolution:
    def test_file_overrides_defaults_flag_overrides_file(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"n_cells": 20, "seed": 7}))

        class Args:
            command = "scales"
            config = str(cfgfile)
            n_cells = None
            seed = 9

        cfg = resolve_config(Args())
        assert cfg["n_cells"] == 20
        assert cfg["seed"] == 9
        assert cfg["mass_u"] == 28.0
        # a command's own default sits between DEFAULTS and the file
        assert cfg["funcs_per_cell"] == 100
        Args.command = "mc-verify"
        assert resolve_config(Args())["funcs_per_cell"] == 20
        cfgfile.write_text(json.dumps({"funcs_per_cell": 60}))
        assert resolve_config(Args())["funcs_per_cell"] == 60
        Args.funcs_per_cell = 80
        assert resolve_config(Args())["funcs_per_cell"] == 80

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"massive": 1}))

        class Args:
            config = str(cfgfile)

        with pytest.raises(ValidationError):
            resolve_config(Args())

    def test_invalid_json_rejected(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text("{not json")

        class Args:
            config = str(cfgfile)

        with pytest.raises(ValidationError):
            resolve_config(Args())


class TestArtifacts:
    def test_scales_csv_and_meta(self, tmp_path):
        assert run_cli("scales", "--out", str(tmp_path)) == 0
        csv = (tmp_path / "scales.csv").read_text().splitlines()
        assert csv[0].startswith("# config_hash: ")
        assert csv[1].split(",")[1] == "t_b_s"
        t_b = float(csv[2].split(",")[1])
        assert t_b == pytest.approx(40e-15, rel=0.01, abs=0)
        meta = json.loads((tmp_path / "scales.json").read_text())
        assert meta["command"] == "scales"
        assert meta["config_hash"] == csv[0].split(": ")[1]

    def test_formats_filter(self, tmp_path):
        assert run_cli("ideal", "--out", str(tmp_path),
                       "--formats", "csv") == 0
        assert (tmp_path / "ideal.csv").exists()
        assert not (tmp_path / "ideal.svg").exists()
        assert not (tmp_path / "ideal.json").exists()

    def test_ideal_csv_values(self, tmp_path):
        assert run_cli("ideal", "--out", str(tmp_path),
                       "--grid", "linear:1:1:1", "--formats", "csv") == 0
        row = (tmp_path / "ideal.csv").read_text().splitlines()[2].split(",")
        # at t = t_b the ideal MSD is (hbar/m) t_b (sqrt(2) - 1)
        t_s, t_over_tb, msd = float(row[0]), float(row[1]), float(row[2])
        assert t_over_tb == pytest.approx(1.0, rel=1e-12, abs=0)
        hbar = 1.0545718176461565e-34
        m = 28 * 1.66053906660e-27
        assert msd == pytest.approx((hbar / m) * t_s * (math.sqrt(2) - 1),
                                    rel=1e-10, abs=0)

    def test_csv_rerun_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("breve", "--out", str(d), "--formats", "csv",
                           "--funcs-per-cell", "50") == 0
        assert (d1 / "breve.csv").read_bytes() == (d2 / "breve.csv").read_bytes()

    def test_no_timestamp_svg_reproducible(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("ideal", "--out", str(d), "--no-timestamp",
                           "--grid", "linear:0.1:10:32") == 0
        assert (d1 / "ideal.svg").read_bytes() == (d2 / "ideal.svg").read_bytes()
        assert b"<svg" in (d1 / "ideal.svg").read_bytes()

    def test_timestamped_svg_carries_comment(self, tmp_path):
        assert run_cli("ideal", "--out", str(tmp_path),
                       "--grid", "linear:0.1:10:32") == 0
        assert "generated" in (tmp_path / "ideal.svg").read_text()

    def test_exact_meta_records_path(self, tmp_path):
        assert run_cli("exact", "--out", str(tmp_path), "--grid", "linear:0:5:8",
                       "--formats", "json-meta") == 0
        params = json.loads((tmp_path / "exact.json").read_text())["params"]
        assert params["path"] == "theta"
        assert params["edge_weight"] < params["weight_floor"] == 1e-18

    def test_breve_sum_close_to_closed_form(self, tmp_path):
        assert run_cli("breve", "--out", str(tmp_path),
                       "--formats", "json-meta") == 0
        meta = json.loads((tmp_path / "breve.json").read_text())
        assert meta["breve_sum_m2"] == pytest.approx(
            meta["breve_closed_m2"], rel=1e-2, abs=0)

    def test_scattering_xe_recoil(self, tmp_path):
        assert run_cli("scattering", "--out", str(tmp_path),
                       "--mass-u", "131", "--temperature-K", "105",
                       "--q-inv-angstrom", "1.0",
                       "--formats", "json-meta") == 0
        meta = json.loads((tmp_path / "scattering.json").read_text())
        assert meta["recoil_energy_meV"] == pytest.approx(0.016, rel=0.03, abs=0)

    def test_mc_verify_passes_and_reports(self, tmp_path, capsys):
        assert run_cli("mc-verify", "--out", str(tmp_path),
                       "--members", "1500", "--grid", "linear:1:10:5") == 0
        out = capsys.readouterr().out
        meta = json.loads((tmp_path / "mc_verify.json").read_text())
        assert (f"MC vs exact: max |z| = {meta['max_abs_z']:.2f} over 5 points, "
                f"below z* = {meta['gate_z']:.2f} (family-wise false-alarm rate 0.001)"
                in out)
        assert meta["max_abs_z"] < meta["gate_z"]
        # z* = Phi^-1(1 - alpha / 2n) for alpha = 1e-3 over n = 5 points
        assert meta["gate_z"] == pytest.approx(3.7190, abs=1e-4)
        assert meta["gate_false_alarm"] == 1e-3
        assert meta["members"] == 1500
        assert meta["K"] == 201

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mc_verify_grid_with_t_zero(self, tmp_path):
        # t = 0 has mean = exact = 0 and stderr 0: z = 0, with no 0/0
        # warning, so max |z| is that of the grid without it
        z = {}
        for grid in ("linear:0:4:5", "linear:1:4:4"):
            out = tmp_path / grid.replace(":", "_")
            assert run_cli("mc-verify", "--out", str(out), "--grid", grid,
                           "--members", "2000", "--formats", "json-meta") == 0
            z[grid] = json.loads((out / "mc_verify.json").read_text())["max_abs_z"]
        assert z["linear:0:4:5"] == z["linear:1:4:4"]

    def test_mc_verify_hash_records_its_funcs_per_cell(self, tmp_path):
        # mc-verify's own default of 20 functions per cell is in its config
        # and hash, so a run at 100 is told apart from one at the default
        hashes = {}
        for fpc in (None, "100"):
            out = tmp_path / str(fpc)
            argv = ["mc-verify", "--out", str(out), "--formats", "csv,json-meta",
                    "--members", "200", "--grid", "linear:1:2:2"]
            assert run_cli(*argv, *(["--funcs-per-cell", fpc] if fpc else [])) == 0
            meta = json.loads((out / "mc_verify.json").read_text())
            assert meta["config"]["funcs_per_cell"] == int(fpc or 20)
            assert meta["K"] == 10 * int(fpc or 20) + 1
            line = (out / "mc_verify.csv").read_text().splitlines()[0]
            assert line == f"# config_hash: {meta['config_hash']}"
            hashes[fpc] = meta["config_hash"]
        assert hashes[None] != hashes["100"]

    def test_mc_verify_gate_refuses_scaled_exact_sum(self, tmp_path, capsys,
                                                     monkeypatch):
        # a 10 % scale error in the exact sum is refused at the defaults
        import dataclasses

        import qmsd.cli
        real = qmsd.cli.msd_exact_curve

        def scaled(*args, **kwargs):
            curve = real(*args, **kwargs)
            return dataclasses.replace(curve, values=1.10 * curve.values)

        monkeypatch.setattr(qmsd.cli, "msd_exact_curve", scaled)
        assert run_cli("mc-verify", "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "Monte-Carlo estimate departs from the exact sum" in err
        assert not (tmp_path / "mc_verify.csv").exists()

    def test_figure1_and_figure2(self, tmp_path):
        assert run_cli("figure1", "--out", str(tmp_path),
                       "--grid", "linear:0:5:64", "--formats", "csv,svg",
                       "--no-timestamp") == 0
        assert (tmp_path / "figure1.csv").exists()
        assert (tmp_path / "figure1.svg").exists()
        assert run_cli("figure2", "--out", str(tmp_path),
                       "--grid", "linear:0:5:16", "--funcs-per-cell", "40",
                       "--formats", "csv,json-meta") == 0
        meta = json.loads((tmp_path / "figure2.json").read_text())
        assert set(meta["plateaus"]) == {"L=10a", "L=20a", "L=40a"}
        for entry in meta["plateaus"].values():
            # 40 functions per cell leave the edge weight above the floor
            assert entry["path"] == "direct"
            assert entry["edge_weight"] > entry["weight_floor"] == 1e-18
        for n in (10, 20, 40):
            assert (tmp_path / f"figure2_exact_L{n}a.csv").exists()
            assert (tmp_path / f"figure2_collision_L{n}a.csv").exists()
        assert (tmp_path / "figure2_ideal.csv").exists()
        assert (tmp_path / "figure2_breve.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"
