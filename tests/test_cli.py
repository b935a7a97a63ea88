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

    def test_integral_float_accepted(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"n_cells": 20.0}))

        class Args:
            config = str(cfgfile)

        cfg, _ = resolve_config(Args())
        assert cfg["n_cells"] == 20 and isinstance(cfg["n_cells"], int)

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
            config = str(cfgfile)
            n_cells = None
            seed = 9

        cfg, explicit = resolve_config(Args())
        assert cfg["n_cells"] == 20
        assert cfg["seed"] == 9
        assert {"n_cells", "seed"} <= explicit
        assert cfg["mass_u"] == 28.0

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
        assert "within 3 stderr" in out
        meta = json.loads((tmp_path / "mc_verify.json").read_text())
        assert meta["members"] == 1500
        assert meta["K"] == 201

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
