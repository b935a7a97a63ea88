import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmsd
from qmsd import cli, svgplot
from qmsd.cli import COMMANDS, FLAGS, READS, Run, _build_parser, main, parse_grid
from qmsd.constants import DOMAIN, ValidationError
from oracles import SYSTEM_KEYS, csv_by_value, domain_pattern, polylines_by_point


def assert_collision_csvs_finite(outdir: Path):
    """Every CSV in outdir, a collision CSV among them, holds finite numbers."""
    csvs = sorted(outdir.glob("*.csv"))
    assert any("collision" in path.name for path in csvs)
    for path in csvs:
        rows = path.read_text().splitlines()[2:]
        assert np.all(np.isfinite([[float(v) for v in row.split(",")] for row in rows]))


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


def run_cli(*argv):
    return main(list(argv))


def config_error(tmp_path, capsys, *argv) -> str:
    """The config error of argv; asserts that it exits 2 and makes no
    output directory."""
    out = tmp_path / "refused"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err


def assert_domain_refusal(tmp_path, capsys, argv, key):
    """argv exits 2 with the message that names DOMAIN[key]'s bound, and
    makes no output directory."""
    assert re.search("config error: " + domain_pattern(key), config_error(tmp_path, capsys, *argv))


# the largest time of the domain in t_b units for CO at 190 K (t_b = 4.02e-14
# s), rounded down so that the grid's scaled end stays within 1e6 s
CO_T_MAX_TB = "2.4e19"


def run_python(*args):
    """A fresh interpreter that imports this checkout's qmsd."""
    src = str(Path(qmsd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def co_weight_floor(n_cells: int, temperature: float = 190.0) -> float:
    """1e-18 w(n = 1) of CO at the temperature (K) on a cell of n_cells
    256 pm lattice constants, from the definitions, in build_basis's float
    operations."""
    L = n_cells * (256.0 * 1e-12)
    mass = 28.0 * 1.66053906660e-27
    beta = 1.0 / (1.380649e-23 * temperature)
    hbar = 6.62607015e-34 / (2.0 * math.pi)
    q = 2.0 * math.pi * np.array([1]) / L
    w1 = np.exp(-beta * (hbar**2 * q**2 / (2.0 * mass)))
    return 1e-18 * float(w1[0])


# The CLI scales each spec time by t_b. A nan or inf in the spec is refused
# as it is parsed; a finite time whose scaled value is past the domain's
# 1e6 s (1e300 t_b, with t_b = 7.6e-3 s at 1e-9 K) is refused by the time
# rule, naming the bound. t_b is at most 7.6e-3 s in the domain, so a finite
# spec time is never scaled to inf or nan.
@pytest.mark.parametrize("kind", ["linear", "geometric"], ids=lambda kind: f"{kind}_grid")
@pytest.mark.parametrize("start,stop", [(1.0, np.inf), (np.inf, np.inf), (1.0, np.nan)])
def test_grid_endpoints_must_be_finite(tmp_path, capsys, kind, start, stop):
    spec = f"{kind}:{start}:{stop}:3"
    assert f"bad grid spec {spec!r}: bounds must be finite" in config_error(
        tmp_path, capsys, "ideal", "--grid", spec)
    if np.isnan(stop):
        return
    scaled = [("1e300" if np.isinf(v) else str(v)) for v in (start, stop)]
    err = config_error(tmp_path, capsys, "ideal", "--grid",
                       f"{kind}:{scaled[0]}:{scaled[1]}:3", "--temperature-K", "1e-9")
    assert re.search(domain_pattern("t_s") + "$", err.strip())
    assert "t_s = 7.63823258225774e+297 s" in err


@pytest.mark.parametrize("spec,message", [
    ("linear:0:1:0", "grid count must be >= 1"),
    ("geometric:1:2:-3", "grid count must be >= 1"),
    ("geometric:0:1:5", "geometric grid requires positive endpoints"),
    ("geometric:-1:1:5", "geometric grid requires positive endpoints"),
    ("geometric:1:-1:5", "geometric grid requires positive endpoints"),
])
def test_grid_count_and_geometric_positivity(tmp_path, capsys, spec, message):
    assert config_error(tmp_path, capsys, "ideal", "--grid", spec).strip() == (
        f"config error: {message}")


def test_grid_count_past_the_limit_refused(tmp_path, capsys, monkeypatch):
    # 2^20 points, 2048 times the largest default grid, is the most a grid
    # may hold; one more is refused before its times are allocated
    assert cli.MAX_GRID_POINTS == 2**20
    err = config_error(tmp_path, capsys, "ideal", "--grid", f"linear:0:1:{2**20 + 1}")
    assert err.strip() == "config error: grid count 1048577 is past the limit of 1048576 points"
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
    config_error(tmp_path, capsys, "ideal", "--grid", "geometric:1:2:9")
    assert main(["ideal", "--grid", "geometric:1:2:8", "--out", str(tmp_path / "o")]) == 0


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

    @pytest.mark.parametrize("command,flag,value", [
        ("exact", "--mass-u", "inf"), ("exact", "--mass-u", "nan"),
        ("exact", "--temperature-K", "inf"), ("exact", "--lattice-pm", "inf"),
        ("collision", "--alpha", "inf"), ("scattering", "--q-inv-angstrom", "inf"),
        ("scattering", "--q-inv-angstrom", "nan")])
    def test_config_error_non_finite(self, tmp_path, capsys, command, flag, value):
        assert run_cli(command, "--out", str(tmp_path), f"{flag}={value}") == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    # argparse parses each flag with its FLAGS type: int() refuses 10.7
    # where truncation would give 10, and float() refuses a non-number
    @pytest.mark.parametrize("key,value", [
        ("n_cells", "10.7"), ("funcs_per_cell", "100.5"), ("members", "1500.5"),
        ("seed", "4.2"), ("mass_u", "abc")])
    def test_config_error_non_integral(self, tmp_path, capsys, key, value):
        out = tmp_path / "o"
        command = "scales" if key in READS["scales"] else "mc-verify"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", str(out), f"--{key.replace('_', '-')}", value)
        assert exc.value.code == 2
        assert f"invalid {FLAGS[key][0].__name__} value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ideal", "--grid", "linear:0:1:0"],
        ["ideal", "--grid", "geometric:0:1:5"],
        ["ideal", "--grid", "linear:-1:1:3"],
        ["exact", "--grid", "linear:5:1:4"],
        ["ideal", "--grid", "linear:nan:1:1"],
        ["ideal", "--grid", "linear:0:inf:3"],
        ["mc-verify", "--funcs-per-cell", "0"],
        ["mc-verify", "--members", "1"],
        ["mc-verify", "--members", "4294967297"],
        ["mc-verify", "--seed", "-1"],
        ["collision", "--alpha", "0"],
        ["figure2", "--alpha", "-0.5"]], ids=" ".join)
    def test_config_error_bad_input(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["scales", "--temperature-K", "1e280"],    # beta hbar^2 underflows to 0
        ["breve", "--lattice-pm", "1e300"],        # L^2 overflows
        ["exact", "--lattice-pm", "1e200", "--grid", "linear:0:1:3"],  # a^2 overflows
        ["scales", "--mass-u", "1e300"],           # Q_approx overflows
        ["scales", "--temperature-K", "1e-300"],   # beta overflows
        ["scattering", "--q-inv-angstrom", "1e145"],   # q^2 overflows
        ["scattering", "--q-inv-angstrom=-1e150"],
        # the DSF peak 1 / (sqrt(2 pi) v_T |q|) overflows
        ["scattering", "--q-inv-angstrom", "5e-324", "--formats", "csv"],
        ["scattering", "--q-inv-angstrom", "1e-300", "--mass-u", "1e30",
         "--temperature-K", "1e-30"],
        # every omega of the DSF window omega0 +- 5 v_T|q| rounds to one
        # double; at 1e142 v_T^2 q^2 overflows as well
        ["scattering", "--q-inv-angstrom", "6e141"],
        ["scattering", "--q-inv-angstrom", "1e142"],
        ["scattering", "--mass-u", "1e-200"],
        # 1e308 t_b is not a finite time
        *([command, "--temperature-K", "1e-20", "--grid", "linear:1e308:1e308:1"]
          for command in ("exact", "ideal", "mc-verify")),
    ], ids=" ".join)
    def test_config_error_scale_out_of_range(self, tmp_path, capsys, argv):
        # finite flags whose derived scales or squared lengths are not
        # finite and non-zero
        config_error(tmp_path, capsys, *argv)

    @pytest.mark.parametrize("argv,message", [
        (["scales", "--temperature-K", "1e-302"],
         "temperature_K = 1e-302 K is outside the physical domain [1e-09, 1e+06] K"),
        (["exact", "--temperature-K", "1e-302"],
         "temperature_K = 1e-302 K is outside the physical domain [1e-09, 1e+06] K"),
        # 1e-290 u is a subnormal mass in kg, with 15 digits left
        (["scales", "--mass-u", "1e-290", "--temperature-K", "1e280"],
         "mass_u = 9.99999854849403e-291 u is outside the physical domain [0.0001, 1e+06] u"),
    ], ids=["scales-1e-302K", "exact-1e-302K", "scales-1e-290u-1e280K"])
    def test_config_error_denominator_underflows(self, tmp_path, capsys, argv, message):
        # derive_scales divides by k_B T and by sqrt(beta m), which would
        # underflow to 0 here; the domain refuses such a system first
        assert f"config error: {message}\n" == config_error(tmp_path, capsys, *argv)

    # the theta images' q = (b - pi nu)^2 / 4a would overflow at 1e300 t_b,
    # which is past the domain's 1e6 s and refused naming the bound; at the
    # domain's largest time q stays below 1e25, and the run is silent
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["exact", "--grid", "linear:0:1e300:2"],
                                      ["figure2", "--grid", "linear:0:1e300:3"]],
                             ids=" ".join)
    def test_theta_images_overflow_without_a_warning(self, tmp_path, capsys, argv):
        assert_domain_refusal(tmp_path, capsys, argv, "t_s")
        count = argv[-1].rsplit(":", 1)[1]
        assert run_cli(argv[0], "--grid", f"linear:0:{CO_T_MAX_TB}:{count}",
                       "--out", str(tmp_path)) == 0

    # d_max = sqrt(2 TAIL/c) grows as L sqrt(mT): 5.9e7 at 1e12 K on L = 10a,
    # 8.2e9 on 1e8 cells, both outside the domain and refused naming its
    # bound. Inside it, the command on the hottest, longest cell (2.3e13 on
    # 1e6 cells of 1e6 pm at 1e6 K; 2.3e8 for figure2's 40a) is refused
    # before the series allocates
    @pytest.mark.parametrize("argv", [
        *([command, "--temperature-K", "1e12"] for command in ("exact", "breve", "figure2")),
        ["exact", "--n-cells", "100000000"]], ids=" ".join)
    def test_theta_series_past_its_limits_refused(self, tmp_path, capsys, argv):
        key = "n_cells" if "--n-cells" in argv else "temperature_K"
        assert_domain_refusal(tmp_path, capsys, argv, key)
        cells = [] if argv[0] == "figure2" else ["--n-cells", "1000000"]
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli(argv[0], "--temperature-K", "1e6", "--lattice-pm", "1e6", *cells,
                       "--out", str(out)) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "config error: the theta series needs d_max = " in err
        assert "past its limits of 262144 outer terms and 1e+09 terms x times" in err
        assert not out.exists()

    # the K x K coupling matrix of K = 100 001 and of 200 001 states would take
    # 74.5 and 298 GiB, and x(t) of 2**32 - 1 members at 21 times 672 GiB;
    # the basis of 1e16 + 1 plane waves alone would take 80 PB, and
    # build_basis refuses it before np.arange runs
    @pytest.mark.parametrize("argv,message", [
        (["--n-cells", "100000", "--funcs-per-cell", "1"],
         "the basis has K = 100001 states, past its limit of 2049"),
        (["--funcs-per-cell", "20000"],
         "the basis has K = 200001 states, past its limit of 2049"),
        (["--funcs-per-cell", "1000000000000000"],
         "the basis has K = 10000000000000001 states, past its limit of 2049"),
        (["--members", "4294967295"],
         "the Monte-Carlo ensemble needs x(t) at 4294967295 members x 21 times = "
         "90194313195, past its limit of 16777216 members x times"),
        # one hot, heavy 1 um cell: x(t) ~ L = 1e-6 m, rounded to about
        # K eps L, so a displacement of 1.2e-23 m at t_b is rounding
        (["--mass-u", "1e6", "--temperature-K", "1e6", "--lattice-pm", "1e6", "--n-cells", "1"],
         "the exact MSD reads 1.54e-46 m^2, below the floor (K eps L)^2 = 2.17e-41 m^2")],
        ids=["n-cells", "funcs-per-cell", "funcs-per-cell-1e15", "members", "rounding-floor"])
    def test_mc_verify_past_its_limits_refused(self, tmp_path, capsys, argv, message):
        t0 = time.perf_counter()
        err = config_error(tmp_path, capsys, "mc-verify", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert f"config error: {message}" in err

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--funcs-per-cell", "20000"]],
                             ids=" ".join)
    def test_mc_verify_refuses_before_the_coupling_matrix(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        # a bad seed or a basis past MAX_K is refused before the K x K matrix
        import qmsd.montecarlo

        def unreachable(K):
            raise AssertionError(f"coupling matrix built at K = {K}")

        monkeypatch.setattr(qmsd.montecarlo, "antisym_coupling_matrix", unreachable)
        assert run_cli("mc-verify", *argv, "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_hot_figure2_within_the_limits(self, tmp_path):
        # at 1e4 K the L = 40a series has d_max = 23 752 at 300 times
        assert run_cli("figure2", "--temperature-K", "1e4", "--out", str(tmp_path),
                       "--formats", "json-meta") == 0
        plateaus = json.loads((tmp_path / "figure2.json").read_text())["plateaus"]
        assert [p["params"]["path"] for p in plateaus.values()] == ["theta"] * 3
        assert plateaus["L=40a"]["params"]["d_max"] == 23752

    # each ran the direct sum on a basis that was not converged, for up to
    # 30 s, and wrote a truncation artifact up to 39 % off
    @pytest.mark.parametrize("argv", [
        ["--n-cells", "40"], ["--temperature-K", "1e4"],
        ["--mass-u", "131", "--temperature-K", "105"]], ids=" ".join)
    def test_exact_takes_the_theta_path_of_its_system(self, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t0 = time.perf_counter()
            assert run_cli("exact", *argv, "--out", str(tmp_path),
                           "--formats", "csv,json-meta") == 0
            assert time.perf_counter() - t0 < 1.0
        assert json.loads((tmp_path / "exact.json").read_text())["params"]["path"] == "theta"

    @pytest.mark.parametrize("command", ["collision", "scattering"])
    def test_decreasing_grid_rejected(self, tmp_path, capsys, command):
        # the same grid rule as exact: times must increase
        assert run_cli(command, "--out", str(tmp_path), "--grid", "linear:10:0:5") == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_hash_independent_of_number_spelling(self, tmp_path):
        for name, extra in (("defaults", []), ("int", ["--mass-u", "28"])):
            assert run_cli("scales", "--out", str(tmp_path / name),
                           "--formats", "csv", *extra) == 0
        lines = [(tmp_path / name / "scales.csv").read_text().splitlines()
                 for name in ("defaults", "int")]
        assert lines[0] == lines[1]
        # the hash of the default configuration
        assert lines[0][0] == "# config_hash: 281021a50a605497"

    def test_config_file_flag_rejected(self, tmp_path):
        # flags are the one input path: there is no config file to name
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"n_cells": 20}))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("scales", "--out", str(out), "--config", str(cfgfile))
        assert exc.value.code == 2
        assert not out.exists()

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal defect")

        monkeypatch.setattr(qmsd.cli, "msd_exact_curve", broken)
        with pytest.raises(ValueError, match="internal defect"):
            run_cli("exact", "--out", str(tmp_path), "--grid", "linear:0:5:8")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_dimensionality_other_than_one_rejected(self, tmp_path, command):
        # every route computes one Cartesian component: there is no flag
        # for the dimension, so argparse refuses it
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", str(out), "--dimensionality", "3")
        assert exc.value.code == 2
        assert not out.exists()

    def test_numerical_error_non_finite_output(self, tmp_path, capsys, monkeypatch):
        real = qmsd.cli.msd_exact_curve

        def poisoned(*args, **kwargs):
            curve = real(*args, **kwargs)
            curve[3] = np.nan
            return curve

        monkeypatch.setattr(qmsd.cli, "msd_exact_curve", poisoned)
        assert run_cli("exact", "--out", str(tmp_path),
                       "--grid", "linear:0:5:8") == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "exact.csv").exists()

    def test_late_non_finite_csv_leaves_no_earlier_file(self, tmp_path, capsys,
                                                        monkeypatch):
        # the ideal curve is checked after the six per-cell CSVs; none of
        # them may be written when it is refused
        real = qmsd.cli.msd_ideal_curve

        def poisoned(*args, **kwargs):
            curve = real(*args, **kwargs)
            curve[-1] = np.nan
            return curve

        monkeypatch.setattr(qmsd.cli, "msd_ideal_curve", poisoned)
        out = tmp_path / "o"
        rc = run_cli("figure2", "--out", str(out), "--grid", "linear:0:5:8")
        assert rc == 4
        assert "figure2_ideal.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,csv", [
        ("collision", "collision.csv"), ("figure2", "figure2_collision_L10a.csv")])
    def test_collision_finite_where_t_squared_overflows(self, tmp_path, capsys, command,
                                                        csv):
        # (t / t_b)^2 would overflow beyond about 1.3e154, far past the
        # domain's 1e6 s, which refuses such a grid naming its bound; toward
        # 1e6 s the model tends to its plateau, finite and without a warning
        assert_domain_refusal(tmp_path, capsys, [command, "--grid", "linear:0:1e160:3"],
                              "t_s")
        with np.errstate(over="raise", invalid="raise"):
            assert run_cli(command, "--out", str(tmp_path), "--formats", "csv",
                           "--grid", f"linear:0:{CO_T_MAX_TB}:3") == 0
        rows = (tmp_path / csv).read_text().splitlines()[2:]
        msd = np.array([[float(v) for v in row.split(",")] for row in rows])[:, 2]
        assert np.all(np.isfinite(msd)) and msd[1] == msd[2] > 0

    @pytest.mark.parametrize("command,csv,column", [
        ("ideal", "ideal.csv", 2), ("figure1", "figure1.csv", 1),
        ("figure2", "figure2_ideal.csv", 2), ("scattering", "isf.csv", 1)])
    def test_ideal_finite_where_t_squared_overflows(self, tmp_path, capsys, command, csv,
                                                    column):
        # t^2 in seconds would overflow beyond about 1.3e154 s (3.4e167 t_b),
        # which the domain refuses naming its bound; toward its 1e6 s the
        # ideal MSD tends to (hbar/m) t and the ISF amplitude to 0
        assert_domain_refusal(tmp_path, capsys, [command, "--grid", "linear:0:1e168:3"],
                              "t_s")
        with np.errstate(over="raise", invalid="raise"):
            assert run_cli(command, "--out", str(tmp_path), "--formats", "csv",
                           "--grid", f"linear:0:{CO_T_MAX_TB}:3") == 0
        rows = (tmp_path / csv).read_text().splitlines()[2:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])[:, column]
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("command,grid", [
        ("collision", "linear:0:100:8"), ("figure2", "linear:0:1:3")])
    def test_collision_finite_where_t_b_squared_overflows(self, tmp_path, capsys, command,
                                                          grid):
        # t_b = hbar beta would be 7.6e188 s at 1e-200 K, so that t_b^2
        # overflows; the domain refuses that temperature naming its bound,
        # and at its coldest, 1e-9 K (t_b = 7.6e-3 s), the model is finite
        assert_domain_refusal(tmp_path, capsys,
                              [command, "--temperature-K", "1e-200", "--grid", grid],
                              "temperature_K")
        assert run_cli(command, "--out", str(tmp_path), "--formats", "csv",
                       "--temperature-K", "1e-9", "--grid", grid) == 0
        assert_collision_csvs_finite(tmp_path)

    # 2 beta / (pi m) would be 6e319 at 1e-200 u and 4.4e-71 K, outside the
    # domain; at its lightest and coldest corner the plateau, and the
    # collision model with it, is finite and silent
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["breve", "collision"])
    def test_plateau_finite_where_two_beta_over_pi_m_overflows(self, tmp_path, capsys,
                                                               command):
        assert_domain_refusal(tmp_path, capsys,
                              [command, "--mass-u", "1e-200", "--temperature-K", "4.4e-71"],
                              "mass_u")
        assert run_cli(command, "--mass-u", "1e-4", "--temperature-K", "1e-9",
                       "--out", str(tmp_path), "--formats", "csv") == 0
        rows = (tmp_path / f"{command}.csv").read_text().splitlines()[2:]
        assert np.all(np.isfinite([[float(v) for v in row.split(",")] for row in rows]))

    # alpha = 1e308 and 5e-324 are outside the domain's alpha, and refused
    # naming its bound. Inside it, z = alpha L / (sqrt(2) v_T t) still
    # overflows to inf (erf = 1) at the largest alpha and L, the smallest
    # v_T, and a time of 7.6e-303 s, which the domain admits; it is silent
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["collision", "--alpha", "1e308"],
        ["collision", "--alpha", "5e-324"],
        ["figure2", "--alpha", "1e308", "--grid", "linear:0:1:3"]], ids=" ".join)
    def test_collision_finite_at_extreme_alpha(self, tmp_path, capsys, argv):
        assert_domain_refusal(tmp_path, capsys, argv, "alpha")
        alpha = str(DOMAIN["alpha"][0 if float(argv[2]) < 1 else 1])
        cells = [] if argv[0] == "figure2" else ["--n-cells", "1000000"]
        assert run_cli(argv[0], "--alpha", alpha, "--mass-u", "1e6", "--temperature-K", "1e-9",
                       "--lattice-pm", "1e6", *cells, "--grid", "geometric:1e-300:1:3",
                       "--out", str(tmp_path), "--formats", "csv") == 0
        assert_collision_csvs_finite(tmp_path)

    @pytest.mark.parametrize("argv,svgs", [
        # the one time is 1e19 t_b: the linear t axis holds one value, and
        # lo + 1 rounds back to lo there
        (["collision", "--grid", "linear:1e19:1e19:1"], ["collision.svg"]),
        # the one time is t = 0, so the log axes have no positive point
        (["ideal", "--grid", "linear:0:1:1"], ["ideal.svg"])])
    def test_svg_on_collapsed_axis(self, tmp_path, argv, svgs):
        assert run_cli(*argv, "--out", str(tmp_path), "--formats", "svg") == 0
        for name in svgs:
            text = (tmp_path / name).read_text()
            assert "nan" not in text and "inf" not in text

    # axes a few ulps wide at a large magnitude, where a tick step is below
    # the spacing of doubles: the t axis at 1e22 t_b at 1e6 K (7.6e4 s), and
    # the collision plateau's y axis at 1e15 t_b. The t axis at 1e24 t_b is
    # 4e10 s for CO at 190 K, past the domain's 1e6 s, and refused naming it
    @pytest.mark.parametrize("argv,svg", [
        (["exact", "--grid", "linear:1e24:1.0000000000000004e24:3"], "exact.svg"),
        (["collision", "--grid", "linear:1e24:1.0000000000000004e24:3"], "collision.svg"),
        (["figure2", "--grid", "linear:1e24:1.0000000000000004e24:3"], "figure2.svg"),
        (["scattering", "--grid", "linear:1e24:1.0000000000000004e24:3"], "isf.svg"),
        *(([command, "--temperature-K", "1e6", "--grid",
            "linear:1e22:1.0000000000000004e22:3"], svg)
          for command, svg in (("exact", "exact.svg"), ("collision", "collision.svg"),
                               ("figure2", "figure2.svg"), ("scattering", "isf.svg"))),
        (["collision", "--grid", "linear:1e15:1.000000000000001e15:3"], "collision.svg")],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_svg_on_an_axis_a_few_ulps_wide(self, tmp_path, capsys, argv, svg):
        if argv[-1].startswith("linear:1e24"):
            assert_domain_refusal(tmp_path, capsys, argv, "t_s")
            return
        # a hang fails here by the alarm instead of stalling the suite;
        # pytest.fail's exception is not one that main turns into an exit code
        def hung(signum, frame):
            pytest.fail(f"{' '.join(argv)} ran past 20 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            assert run_cli(*argv, "--out", str(tmp_path)) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        text = (tmp_path / svg).read_text()
        assert text.endswith("</svg>\n") and "nan" not in text

    def test_dsf_finite_where_q_squared_underflows(self, tmp_path, capsys):
        # v_T^2 q^2 would underflow to 0 at 1e-300 / Angstrom, below the
        # domain, which refuses it naming its bound; at its smallest |q|
        # the DSF is finite and holds its area
        assert_domain_refusal(tmp_path, capsys, ["scattering", "--q-inv-angstrom", "1e-300"],
                              "q_inv_angstrom")
        assert run_cli("scattering", "--out", str(tmp_path), "--formats", "csv",
                       "--q-inv-angstrom", str(DOMAIN["q_inv_angstrom"][0])) == 0
        rows = (tmp_path / "dsf.csv").read_text().splitlines()[2:]
        omega, _, s = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        assert np.all(np.isfinite(s)) and np.all(s > 0)
        # the 256 points span omega0 +- 5 widths: all but 5.7e-7 of the area
        area = np.sum((s[1:] + s[:-1]) * np.diff(omega)) / 2
        assert area == pytest.approx(1.0, rel=1e-5, abs=0)

    def test_non_finite_dsf_leaves_no_isf_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qmsd.cli, "dsf",
                            lambda system, q, omegas: np.full(omegas.shape, np.nan))
        assert run_cli("scattering", "--out", str(tmp_path)) == 4
        assert "dsf.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


CORNERS = list(itertools.product(*(DOMAIN[key][:2] for key in SYSTEM_KEYS)))


class TestDomain:
    """The physical domain is checked where input enters: every command runs
    at each of its corners, and a value outside it exits 2 naming its bound."""

    # the light commands, exact on 3 points and mc-verify at its default
    # members and seed; each exits 0 with finite CSVs, or refuses with exit 2
    # a theta series past its limits (on the hot, heavy, long cells), a
    # Monte-Carlo basis past MAX_K (10^6 cells) or an exact MSD below the
    # rounding floor of x(t) (the hot, heavy, long single cell), never exit
    # 4, also under -W error::RuntimeWarning; an exact MSD of 0 (the cold
    # corners) is admitted, so a refused one reads a nonzero value
    REFUSALS = {
        "breve": "config error: the theta series needs d_max = ",
        "exact": "config error: the theta series needs d_max = ",
        "mc-verify": ("config error: (the basis has K = 20000001 states"
                      "|the exact MSD reads [1-9])"),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("corner", CORNERS,
                             ids=lambda c: "{:g}u-{:g}K-{:g}pm-{:d}".format(*c))
    def test_every_command_at_a_corner(self, tmp_path, capsys, corner):
        flags = [arg for key, value in zip(SYSTEM_KEYS, corner)
                 for arg in ("--" + key.replace("_", "-"), str(value))]
        for command in ("scales", "ideal", "breve", "collision", "figure1", "scattering",
                        "exact", "mc-verify"):
            out = tmp_path / command
            grid = ["--grid", "linear:0:30:3"] if command == "exact" else []
            code = run_cli(command, *flags, *grid, "--out", str(out), "--formats", "csv")
            err = capsys.readouterr().err
            if code == 2:
                assert command in self.REFUSALS, (command, err)
                assert re.match(self.REFUSALS[command], err), (command, err)
                continue
            assert code == 0, (command, err)
            for path in out.glob("*.csv"):
                rows = path.read_text().splitlines()[2:]
                assert np.all(np.isfinite([[float(v) for v in row.split(",")]
                                           for row in rows])), path.name
        # every derived scale's square is a normal double with 1e100 to spare
        scales = np.array((tmp_path / "scales" / "scales.csv").read_text()
                          .splitlines()[2].split(","), dtype=float)
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        assert np.all((scales * scales > 1e100 * tiny) & (scales * scales < huge / 1e100))

    @pytest.mark.parametrize("argv,key", [
        (["scattering", "--q-inv-angstrom", "1e4"], "q_inv_angstrom"),
        (["breve", "--mass-u", "3.4e-244", "--temperature-K", "1e76"], "mass_u"),
        (["ideal", "--mass-u", "6e-74", "--temperature-K", "1e-250"], "mass_u"),
        (["ideal", "--mass-u", "28", "--temperature-K", "1e-250"], "temperature_K"),
        (["figure2", "--lattice-pm", "1e-3"], "lattice_pm"),
        (["exact", "--n-cells", "1000001"], "n_cells"),
        (["collision", "--alpha", "1e7"], "alpha"),
        (["mc-verify", "--grid", "linear:0:1e20:3"], "t_s"),
        # every command on 1e-200 u and one 1e-140 pm cell (figure2: its own cells)
        *(([command, "--mass-u", "1e-200", "--lattice-pm", "1e-140",
            *([] if command == "figure2" else ["--n-cells", "1"])], "mass_u")
          for command in COMMANDS)], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_outside_the_domain_refused(self, tmp_path, capsys, argv, key):
        assert_domain_refusal(tmp_path, capsys, argv, key)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_names_each_range(self, capsys, command):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        for key in READS[command]:
            if key in DOMAIN:
                lo, hi = DOMAIN[key][:2]
                assert re.search(rf"--{key.replace('_', '-')} \S+ (?:(?!--).)*, in "
                                 + re.escape(f"[{lo:g}, {hi:g}]"), text), key
        if "grid" in READS[command]:
            assert f"times at most {DOMAIN['t_s'][1]:g} s" in text


class TestConfigResolution:
    def test_flag_overrides_the_default_argparse_holds(self):
        # a given flag's value, and each other flag's default
        def resolve(*argv):
            return Run(_build_parser().parse_args(list(argv))).cfg

        assert resolve("scales", "--n-cells", "20") == {
            "mass_u": 28.0, "temperature_K": 190.0, "lattice_pm": 256.0, "n_cells": 20,
            "out": "out", "formats": "csv,json-meta,svg"}
        cfg = resolve("mc-verify", "--seed", "9")
        assert (cfg["seed"], cfg["members"], cfg["funcs_per_cell"]) == (9, 10000, 20)
        assert resolve("mc-verify", "--funcs-per-cell", "80")["funcs_per_cell"] == 80
        # each command holds its own default grid
        assert resolve("exact")["grid"] == "linear:0:30:300"
        assert resolve("mc-verify")["grid"] == "linear:1:20:20"
        assert resolve("ideal", "--grid", "linear:0:1:2")["grid"] == "linear:0:1:2"


# the flags each command reads, besides --out and --formats: the particle on
# its super-cell, less the cells that figure2 sets itself, and each route's own
SYSTEM = ["mass_u", "temperature_K", "lattice_pm", "n_cells"]
CONTRACT = {
    "scales": SYSTEM,
    "ideal": [*SYSTEM, "grid"],
    "exact": [*SYSTEM, "grid"],
    "breve": SYSTEM,
    "collision": [*SYSTEM, "grid", "alpha"],
    "mc-verify": [*SYSTEM, "grid", "funcs_per_cell", "members", "seed"],
    "scattering": [*SYSTEM, "grid", "q_inv_angstrom"],
    "figure1": [*SYSTEM, "grid"],
    "figure2": [*SYSTEM[:3], "grid", "alpha"],
}
UNREAD = [(command, key) for command, keys in CONTRACT.items()
          for key in FLAGS if key not in [*keys, "out", "formats"]]
# cheap values of the flags a command reads, for one run of each
CHEAP = {"grid": ["--grid", "linear:1:2:2"], "members": ["--members", "200"]}


class TestFlagContract:
    """Each command takes the flags it reads, and no other."""

    def test_counts(self):
        assert list(CONTRACT) == list(COMMANDS)
        assert sum(len(keys) + 2 for keys in CONTRACT.values()) == 66
        assert len(UNREAD) == 42

    @pytest.mark.parametrize("command,key", UNREAD, ids=lambda v: v)
    def test_unread_flag_rejected(self, tmp_path, capsys, command, key):
        out = tmp_path / "o"
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", str(out), flag, "1")
        assert exc.value.code == 2
        # reported by the command's parser, with the command's usage
        err = capsys.readouterr().err
        assert err.startswith(f"usage: qmsd {command} [-h] ")
        assert f"\nqmsd {command}: error: unrecognized arguments: {flag} 1\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(CONTRACT))
    def test_help_and_config_list_its_keys(self, tmp_path, capsys, command):
        keys = {*CONTRACT[command], "out", "formats"}
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        flags = set(re.findall(r"^  (?:-\w, )?(--[\w-]+)", capsys.readouterr().out, re.MULTILINE))
        assert flags == {"--help", *("--" + key.replace("_", "-") for key in keys)}
        argv = [arg for key in CONTRACT[command] for arg in CHEAP.get(key, [])]
        assert run_cli(command, *argv, "--out", str(tmp_path), "--formats", "json-meta") == 0
        (meta,) = tmp_path.glob("*.json")
        assert set(json.loads(meta.read_text())["config"]) == keys


class TestArtifacts:
    def test_writers_on_real_outputs(self, tmp_path, monkeypatch):
        # every CSV is its own numbers printed one value at a time, and every
        # SVG polyline the series that reached line_plot drawn point by point
        plots = []

        def recording_line_plot(series, **kw):
            text = svgplot.line_plot(series, **kw)
            plots.append((series, kw, text))
            return text

        monkeypatch.setattr(qmsd.cli, "line_plot", recording_line_plot)
        runs = [[cmd] for cmd in ("scales", "ideal", "breve", "collision", "scattering",
                                  "figure1")] + [["figure2", "--grid", "linear:0:30:30"]]
        for argv in runs:
            assert run_cli(*argv, "--formats", "csv,svg,json-meta",
                           "--out", str(tmp_path / argv[0])) == 0
        csvs = sorted(tmp_path.glob("*/*.csv"))
        assert {path.parent.name for path in csvs} == {argv[0] for argv in runs}
        for path in csvs:
            text = path.read_text()
            hash_line, header, *rows = text.splitlines()
            columns = list(zip(*[[float(v) for v in row.split(",")] for row in rows]))
            assert text == csv_by_value(header.split(","), columns,
                                        hash_line.removeprefix("# config_hash: "))
        svgs = sorted(path.read_text() for path in tmp_path.glob("*/*.svg"))
        assert len(svgs) == len(plots) >= len(runs) - 1  # scales draws none
        assert svgs == sorted(text for _, _, text in plots)
        for series, kw, text in plots:
            _, expected = polylines_by_point(series, monkeypatch, **kw)
            assert re.findall(r'<polyline points="([^"]*)"', text) == expected

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
            assert run_cli("breve", "--out", str(d), "--formats", "csv") == 0
        assert (d1 / "breve.csv").read_bytes() == (d2 / "breve.csv").read_bytes()

    def test_no_timestamp_svg_reproducible(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("ideal", "--out", str(d), "--grid", "linear:0.1:10:32") == 0
        assert (d1 / "ideal.svg").read_bytes() == (d2 / "ideal.svg").read_bytes()
        assert b"<svg" in (d1 / "ideal.svg").read_bytes()

    def test_exact_meta_records_path(self, tmp_path):
        assert run_cli("exact", "--out", str(tmp_path), "--grid", "linear:0:5:8",
                       "--formats", "json-meta") == 0
        params = json.loads((tmp_path / "exact.json").read_text())["params"]
        co = qmsd.PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10)
        assert params == {"path": "theta", "Q": qmsd.derive_scales(co).Q_approx,
                          "d_max": 818}

    @pytest.mark.parametrize("flags", [[], ["--mass-u", "1.008", "--temperature-K", "10"]],
                             ids=["theta", "direct"])
    def test_metas_hold_method_and_exact_params(self, tmp_path, flags):
        # exact.json's and breve.json's params, and each figure2.json
        # plateau's, are exact_params of that cell's system; H at 10 K takes
        # the direct path on L = 1a and 10a, and the theta path from 20a
        cells = ["--n-cells", "1"] if flags else []
        grid = ["--grid", "linear:0.5:1:2"]
        for argv in (["ideal", *grid, *cells], ["exact", *grid, *cells], ["breve", *cells],
                     ["figure2", *grid]):
            assert run_cli(*argv, "--out", str(tmp_path), *flags,
                           "--formats", "json-meta") == 0
        mass_u, temperature, n_cells = (1.008, 10.0, 1) if flags else (28.0, 190.0, 10)
        params = {n: qmsd.exact_params(qmsd.PhysicalSystem.from_user_units(
                      mass_u, temperature, 256.0, n)) for n in (n_cells, 10, 20, 40)}
        ideal = json.loads((tmp_path / "ideal.json").read_text())
        assert (ideal["method"], ideal["points"]) == ("ideal-analytic", 2)
        exact = json.loads((tmp_path / "exact.json").read_text())
        assert exact["method"] == "exact-sum"
        assert exact["params"] == params[n_cells]
        assert exact["params"]["path"] == ("direct" if flags else "theta")
        assert json.loads((tmp_path / "breve.json").read_text())["params"] == params[n_cells]
        plateaus = json.loads((tmp_path / "figure2.json").read_text())["plateaus"]
        for n in (10, 20, 40):
            assert plateaus[f"L={n}a"]["params"] == params[n], n
        assert [params[n]["path"] for n in (10, 20, 40)] == (
            ["direct", "theta", "theta"] if flags else ["theta"] * 3)

    @pytest.mark.parametrize("funcs_per_cell,state", [
        (63, "truncated"), (64, "truncated"), (70, "truncated"), (77, "truncated"),
        (78, "converged"), (100, "converged")])
    def test_funcs_per_cell_reaches_mc_verify_alone(self, tmp_path, funcs_per_cell, state):
        # CO at 190 K on L = 10a: the edge weight falls below the floor
        # between 77 and 78 functions per cell. exact refuses the flag, and
        # mc_verify.json reports its basis against the rule
        fpc_flag = ["--funcs-per-cell", str(funcs_per_cell)]
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("exact", "--out", str(out), "--grid", "linear:0:1:2", *fpc_flag)
        assert exc.value.code == 2
        assert not out.exists()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("mc-verify", "--out", str(out), "--members", "200",
                           "--grid", "linear:1:2:2", *fpc_flag, "--formats", "json-meta") == 0
        meta = json.loads((out / "mc_verify.json").read_text())
        basis = qmsd.build_basis(qmsd.PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10),
                                 funcs_per_cell)
        assert (meta["K"], meta["Q"]) == (basis.K, qmsd.partition_function(basis))
        assert meta["weight_floor"] == co_weight_floor(10)
        assert (meta["edge_weight"] < meta["weight_floor"]) == (state == "converged")

    @pytest.mark.parametrize("temperature", [5e-5, 1e-3])
    def test_ultra_cold_basis_is_silent(self, tmp_path, temperature):
        # CO on L = 10a: below about 70 uK w(n = 1) underflows to 0, and so
        # does the floor, yet the converged basis (M = 2) is exact and its
        # MSD of 0 correctly rounded; at 1 mK the floor is still positive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("exact", "--out", str(tmp_path), "--grid", "linear:0:1:3",
                           "--temperature-K", str(temperature),
                           "--formats", "csv,json-meta") == 0
        params = json.loads((tmp_path / "exact.json").read_text())["params"]
        floor = co_weight_floor(10, temperature)
        assert (floor == 0.0) == (temperature < 7e-5)
        assert (params["path"], params["K"]) == ("direct", 5)
        rows = (tmp_path / "exact.csv").read_text().splitlines()[3:]
        msd = [float(row.split(",")[2]) for row in rows]
        assert all(v == 0.0 for v in msd) if floor == 0.0 else all(v > 0.0 for v in msd)

    def test_mc_verify_truncated_basis_is_silent(self, tmp_path):
        # its K = 201 basis is truncated on purpose (edge weight 0.064)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("mc-verify", "--out", str(tmp_path), "--members", "200",
                           "--formats", "json-meta") == 0

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
        assert (f"MC vs exact: max |z| = {meta['max_abs_z']:.2f} over 5 points and plateau "
                f"z = {meta['plateau_z']:.2f}, below z* = {meta['gate_z']:.2f} (family of "
                f"5 points plus the plateau, family-wise false-alarm rate 0.001)" in out)
        assert meta["max_abs_z"] < meta["gate_z"]
        assert abs(meta["plateau_z"]) < meta["gate_z"]
        # the decohered plateau comes from the ensemble's x(0), which has
        # no time of its own
        est, err = meta["rerandomized_estimate_m2"], meta["rerandomized_stderr_m2"]
        assert "rerandomized_t_s" not in meta
        assert abs(est - meta["breve_sum_m2"]) < 3 * err
        assert (f"decohered plateau from x(0), 2 <x(0)^2> = {est:.4e} +- {err:.1e} m^2 "
                f"(breve_sum = {meta['breve_sum_m2']:.4e} m^2)" in out)
        # z* = Phi^-1(1 - alpha / 2n) for alpha = 1e-3 over n = 5 points
        # plus the plateau
        assert meta["gate_z"] == pytest.approx(3.7648, abs=1e-4)
        assert meta["gate_false_alarm"] == 1e-3
        assert meta["members"] == 1500
        assert meta["K"] == 201
        # the truncated basis says how truncated it is
        basis = qmsd.build_basis(qmsd.PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10), 20)
        assert meta["Q"] == qmsd.partition_function(basis)
        assert meta["edge_weight"] == basis.w[0] > meta["weight_floor"] == co_weight_floor(10)

    def test_mc_verify_cold_basis_passes(self, tmp_path):
        # at 1 mK the exact sum keeps the (0, +-1) pairs, whose weight
        # w(n = 1) ~ 7e-46 is below WEIGHT_FLOOR itself; it reads max |z| = 1.06
        assert run_cli("mc-verify", "--out", str(tmp_path), "--temperature-K", "1e-3",
                       "--members", "2000", "--formats", "csv,json-meta") == 0
        meta = json.loads((tmp_path / "mc_verify.json").read_text())
        assert meta["max_abs_z"] < meta["gate_z"]
        exact = np.loadtxt(tmp_path / "mc_verify.csv", delimiter=",", skiprows=2,
                           usecols=4)
        assert np.all(exact > 0)

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
        # the default of 20 functions per cell is in mc-verify's config and
        # hash, so a run at 100 is told apart from one at the default
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
        # a 10 % scale error in the exact sum on the basis is refused at the
        # defaults
        real = qmsd.cli.msd_basis_curve

        def scaled(*args, **kwargs):
            return 1.10 * real(*args, **kwargs)

        monkeypatch.setattr(qmsd.cli, "msd_basis_curve", scaled)
        assert run_cli("mc-verify", "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "Monte-Carlo estimate departs from the exact sum" in err
        assert not (tmp_path / "mc_verify.csv").exists()

    # the plateau's factor 2 dropped (z = -68.5), and a 10 % scale error in
    # its exact sum (z = -6.33): each is refused at the defaults
    @pytest.mark.parametrize("name,wrong", [
        ("sample_msd_rerandomized", lambda real: lambda res: tuple(v / 2 for v in real(res))),
        ("breve_basis_sum", lambda real: lambda basis: 1.10 * real(basis))],
        ids=["factor-2-dropped", "breve-sum-scaled"])
    def test_mc_verify_gate_refuses_a_wrong_plateau(self, tmp_path, capsys, monkeypatch,
                                                    name, wrong):
        monkeypatch.setattr(qmsd.cli, name, wrong(getattr(qmsd.cli, name)))
        assert run_cli("mc-verify", "--out", str(tmp_path)) == 4
        assert ("Monte-Carlo estimate departs from the exact sum: the plateau's z = "
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_figure1_and_figure2(self, tmp_path):
        assert run_cli("figure1", "--out", str(tmp_path),
                       "--grid", "linear:0:5:64", "--formats", "csv,svg") == 0
        assert (tmp_path / "figure1.csv").exists()
        assert (tmp_path / "figure1.svg").exists()
        # figure2 refuses --funcs-per-cell and --n-cells: each of its own
        # cells takes its system's theta path
        for flag in ("--funcs-per-cell", "--n-cells"):
            with pytest.raises(SystemExit) as exc:
                run_cli("figure2", "--out", str(tmp_path / "o"), flag, "40")
            assert exc.value.code == 2
        assert run_cli("figure2", "--out", str(tmp_path),
                       "--grid", "linear:0:5:16", "--formats", "csv,json-meta") == 0
        meta = json.loads((tmp_path / "figure2.json").read_text())
        assert set(meta) == {"command", "config", "version", "config_hash", "alpha",
                             "plateaus"}
        assert set(meta["plateaus"]) == {"L=10a", "L=20a", "L=40a"}
        for n_cells in (10, 20, 40):
            entry = meta["plateaus"][f"L={n_cells}a"]
            assert entry["params"]["path"] == "theta"
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


class TestParserReuse:
    """No main call may leak its flags or its failure into the next."""

    def test_flag_does_not_carry_over(self, tmp_path):
        assert run_cli("scattering", "--q-inv-angstrom", "7", "--n-cells", "20",
                       "--out", str(tmp_path / "a")) == 0
        assert run_cli("scattering", "--out", str(tmp_path / "b")) == 0
        first = json.loads((tmp_path / "a" / "scattering.json").read_text())["config"]
        second = json.loads((tmp_path / "b" / "scattering.json").read_text())["config"]
        assert (first["q_inv_angstrom"], first["n_cells"]) == (7.0, 20)
        assert (second["q_inv_angstrom"], second["n_cells"]) == (1.0, 10)

    def test_rejected_argv_and_version_leave_it_working(self, tmp_path, capsys):
        for flag in ("--n-cells", "--seed"):  # a bad value, and a flag scales does not read
            with pytest.raises(SystemExit) as exc:
                run_cli("scales", flag, "seven", "--out", str(tmp_path / "a"))
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        capsys.readouterr()
        assert run_cli("scales", "--out", str(tmp_path / "b")) == 0
        assert "t_b" in capsys.readouterr().out
        cfg = json.loads((tmp_path / "b" / "scales.json").read_text())["config"]
        assert cfg["n_cells"] == 10
        assert not (tmp_path / "a").exists()

    def test_help_leaves_it_working(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("scales", "--help")
        assert exc.value.code == 0
        assert "--n-cells N_CELLS" in capsys.readouterr().out
        assert run_cli("scales", "--out", str(tmp_path)) == 0
        cfg = json.loads((tmp_path / "scales.json").read_text())["config"]
        assert cfg == {"mass_u": 28.0, "temperature_K": 190.0, "lattice_pm": 256.0,
                       "n_cells": 10, "out": str(tmp_path), "formats": "csv,json-meta,svg"}

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_import_does_not_build_parser(self):
        # the parser is built on the first main call, so importing the CLI
        # costs no more than before it was cached
        done = run_python("-c", "import qmsd.cli; "
                                "print(qmsd.cli._build_parser.cache_info().currsize)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    def test_module_help_names_every_command(self):
        done = run_python("-m", "qmsd.cli", "--help")
        assert done.returncode == 0, done.stderr
        for name in COMMANDS:
            assert name in done.stdout
