import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmsd
from qmsd import svgplot
from qmsd.cli import COMMANDS, FLAGS, READS, Run, _build_parser, main, parse_grid
from qmsd.constants import ValidationError
from qmsd.output import config_hash, write_csv, write_json_meta


def format_number(x) -> str:
    """One CSV number, 17 significant digits: the per-value oracle of write_csv."""
    return f"{float(x):.17g}"


def csv_by_value(header, columns, cfg_hash) -> str:
    """The CSV text write_csv gives, built one value at a time."""
    cols = [list(c) for c in columns]
    lines = [f"# config_hash: {cfg_hash}", ",".join(header)]
    lines += [",".join(format_number(c[i]) for c in cols) for i in range(len(cols[0]))]
    return "\n".join(lines) + "\n"


def assert_collision_csvs_finite(outdir: Path):
    """Every CSV in outdir, a collision CSV among them, holds finite numbers."""
    csvs = sorted(outdir.glob("*.csv"))
    assert any("collision" in path.name for path in csvs)
    for path in csvs:
        rows = path.read_text().splitlines()[2:]
        assert np.all(np.isfinite([[float(v) for v in row.split(",")] for row in rows]))


def pix_by_point(axis, v: float) -> float:
    """One value's pixel coordinate in Python float arithmetic: the
    per-point oracle of _Axis.to_pix."""
    x = math.log10(v) if axis.scale == "log" else v
    f = (x - axis.lo) / (axis.hi - axis.lo)
    return axis.pix_lo + f * (axis.pix_hi - axis.pix_lo)


def polylines_by_point(series, monkeypatch, **kw):
    """(polyline point lists of line_plot, the same built one point at a
    time)."""
    axes = []

    class Recorded(svgplot._Axis):
        def __init__(self, *args):
            super().__init__(*args)
            axes.append(self)

    monkeypatch.setattr(svgplot, "_Axis", Recorded)
    text = svgplot.line_plot(series, **kw)
    ax, ay = axes
    expected = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        ok = np.ones(x.size, dtype=bool)
        if kw.get("xscale") == "log":
            ok &= x > 0
        if kw.get("yscale") == "log":
            ok &= y > 0
        expected.append(" ".join(f"{pix_by_point(ax, xi):.2f},{pix_by_point(ay, yi):.2f}"
                                 for xi, yi in zip(x[ok], y[ok])))
    return re.findall(r'<polyline points="([^"]*)"', text), expected


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

    @pytest.mark.parametrize("columns", [
        [[10, 20, 40], [-0.0, 5e-324, 1.7976931348623157e308],
         [0.1 + 0.2, -1e-300, 2.0**53 + 1]],
        [np.array([0.1, 1 / 3, 7e-8], dtype=np.float32), np.array([1.0, np.pi, -2.5e17]),
         [float("inf"), float("-inf"), float("nan")]],
        [[math.pi], np.array([-0.0]), [3]],
    ], ids=["python", "numpy", "one-row"])
    def test_csv_equals_per_value_formatting(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "t.csv", header, columns, "0123456789abcdef")
        assert (tmp_path / "t.csv").read_text() == csv_by_value(
            header, columns, "0123456789abcdef")

    def test_zero_row_csv_is_hash_and_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[], np.array([])], "0123456789abcdef")
        assert (tmp_path / "t.csv").read_bytes() == b"# config_hash: 0123456789abcdef\na,b\n"

    def test_json_meta_bytes(self, tmp_path):
        meta = {"z": [1.5, -0.0], "a": {"y": 2, "x": "\u00e9"}, "p": tmp_path}
        write_json_meta(tmp_path / "m.json", meta, "0123456789abcdef")
        text = json.dumps({**meta, "config_hash": "0123456789abcdef"}, indent=2,
                          sort_keys=True, default=str) + "\n"
        assert (tmp_path / "m.json").read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_axis_maps_arrays_like_floats(self, scale):
        # bit for bit, on values where numpy's log10 and math.log10 differ
        v = np.exp(np.random.default_rng(5).uniform(-40.0, 40.0, 4000))
        axis = svgplot._Axis(1e-17, 1e17, 470, 30, scale)
        assert axis.to_pix(v).tolist() == [pix_by_point(axis, u) for u in v.tolist()]

    @pytest.mark.parametrize("xscale,yscale", [("linear", "linear"), ("log", "linear"),
                                               ("linear", "log"), ("log", "log")])
    def test_polylines_equal_per_point_rendering(self, monkeypatch, xscale, yscale):
        rng = np.random.default_rng(11)
        x = np.concatenate(([0.0, -1.0], np.geomspace(1e-3, 1e3, 97)))
        series = [
            {"x": x, "y": rng.uniform(-0.5, 3.0, x.size) * x, "label": "a"},
            {"x": x[::-1], "y": np.cos(x), "dash": "6 3"},
            {"x": [2.0], "y": [0.75], "label": "one point"},
        ]
        got, expected = polylines_by_point(series, monkeypatch, xscale=xscale,
                                           yscale=yscale)
        assert got == expected
        # the log masks drop points, and the one-point series stays a point
        assert (len(got[0].split()) < x.size) == ("log" in (xscale, yscale))
        assert got[2].count(",") == 1

    def test_series_without_points_on_a_log_axis(self, monkeypatch):
        series = [{"x": [1.0, 2.0, 3.0], "y": [-1.0, 0.0, -2.0], "label": "none"},
                  {"x": [], "y": []},
                  {"x": [1.0, 10.0], "y": [2.0, 5.0]}]
        got, expected = polylines_by_point(series, monkeypatch, xscale="log",
                                           yscale="log")
        assert got == expected
        assert got[:2] == ["", ""]

    def test_log_polyline_rounding_uses_math_log10(self, monkeypatch):
        # the middle point lands within an ulp of a .xx5 pixel: 333.33 with
        # math.log10, 333.34 with numpy 2.4's SIMD log10 on AVX-512
        series = [{"x": [1.0, 3.7766477332060533, 24.02501798281538],
                   "y": [1.0, 2.0, 3.0]}]
        got, expected = polylines_by_point(series, monkeypatch, xscale="log")
        assert got == expected


def run_cli(*argv):
    return main(list(argv))


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
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["scales", "--temperature-K", "1e-302"], "k_B T underflows to 0"),
        (["exact", "--temperature-K", "1e-302"], "k_B T underflows to 0"),
        (["scales", "--mass-u", "1e-290", "--temperature-K", "1e280"],
         "beta * mass underflows to 0"),
    ], ids=["scales-1e-302K", "exact-1e-302K", "scales-1e-290u-1e280K"])
    def test_config_error_denominator_underflows(self, tmp_path, capsys, argv, message):
        # derive_scales divides by k_B T and by sqrt(beta m); each is refused
        # where it underflows to 0, not divided by
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # the theta images' q = (b - pi nu)^2 / 4a overflows, and the cut drops it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["exact", "--grid", "linear:0:1e300:2"],
                                      ["figure2", "--grid", "linear:0:1e300:3"]],
                             ids=" ".join)
    def test_theta_images_overflow_without_a_warning(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0

    # d_max = sqrt(2 TAIL/c) grows as L sqrt(mT): 5.9e7 at 1e12 K on L = 10a,
    # 8.2e9 on 1e8 cells; refused before the series allocates
    @pytest.mark.parametrize("argv", [
        *([command, "--temperature-K", "1e12"] for command in ("exact", "breve", "figure2")),
        ["exact", "--n-cells", "100000000"]], ids=" ".join)
    def test_theta_series_past_its_limits_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli(*argv, "--out", str(out)) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "config error: the theta series needs d_max = " in err
        assert "past its limits of 262144 outer terms and 1e+09 terms x times" in err
        assert not out.exists()

    # the K x K coupling matrix of K = 100 001 and of 200 001 states would take
    # 74.5 and 298 GiB, and x(t) of 2**32 - 1 members at 21 times 672 GiB
    @pytest.mark.parametrize("argv,message", [
        (["--n-cells", "100000", "--funcs-per-cell", "1"],
         "the Monte-Carlo basis has K = 100001 states, past its limit of 2049"),
        (["--funcs-per-cell", "20000"],
         "the Monte-Carlo basis has K = 200001 states, past its limit of 2049"),
        (["--members", "4294967295"],
         "the Monte-Carlo ensemble needs x(t) at 4294967295 members x 21 times = "
         "90194313195, past its limit of 16777216 members x times")],
        ids=["n-cells", "funcs-per-cell", "members"])
    def test_mc_verify_past_its_limits_refused(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli("mc-verify", *argv, "--out", str(out)) == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

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
        import qmsd.cli

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
        import qmsd.cli
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
        import qmsd.cli
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
    def test_collision_finite_where_t_squared_overflows(self, tmp_path, command, csv):
        # (t / t_b)^2 overflows beyond about 1.3e154; the model tends to
        # its plateau there and must stay finite, without a warning
        with np.errstate(over="raise", invalid="raise"):
            assert run_cli(command, "--out", str(tmp_path), "--formats", "csv",
                           "--grid", "linear:0:1e160:3") == 0
        rows = (tmp_path / csv).read_text().splitlines()[2:]
        msd = np.array([[float(v) for v in row.split(",")] for row in rows])[:, 2]
        assert np.all(np.isfinite(msd)) and msd[1] == msd[2] > 0

    @pytest.mark.parametrize("command,csv,column", [
        ("ideal", "ideal.csv", 2), ("figure1", "figure1.csv", 1),
        ("figure2", "figure2_ideal.csv", 2), ("scattering", "isf.csv", 1)])
    def test_ideal_finite_where_t_squared_overflows(self, tmp_path, command, csv, column):
        # t^2 in seconds overflows beyond about 1.3e154 s (3.4e167 t_b);
        # the ideal MSD tends to (hbar/m) t there and the ISF amplitude to 0
        with np.errstate(over="raise", invalid="raise"):
            assert run_cli(command, "--out", str(tmp_path), "--formats", "csv",
                           "--grid", "linear:0:1e168:3") == 0
        rows = (tmp_path / csv).read_text().splitlines()[2:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])[:, column]
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("command,grid", [
        ("collision", "linear:0:100:8"), ("figure2", "linear:0:1:3")])
    def test_collision_finite_where_t_b_squared_overflows(self, tmp_path, command, grid):
        # t_b = hbar beta is 7.6e188 s at 1e-200 K, so t_b^2 overflows
        assert run_cli(command, "--out", str(tmp_path), "--formats", "csv",
                       "--temperature-K", "1e-200", "--grid", grid) == 0
        assert_collision_csvs_finite(tmp_path)

    # z = alpha L / (sqrt(2) v_T t) overflows to inf (erf = 1) at alpha = 1e308;
    # at alpha = 5e-324, alpha L underflows to 0 and t = 0 gives 0/0
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["collision", "--alpha", "1e308"],
        ["collision", "--alpha", "5e-324"],
        ["figure2", "--alpha", "1e308", "--grid", "linear:0:1:3"]], ids=" ".join)
    def test_collision_finite_at_extreme_alpha(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path), "--formats", "csv") == 0
        assert_collision_csvs_finite(tmp_path)

    @pytest.mark.parametrize("argv,svgs", [
        # the one time is 1e20 t_b: the linear t axis holds one value, and
        # lo + 1 rounds back to lo there
        (["collision", "--grid", "linear:1e20:1e20:1"], ["collision.svg"]),
        # the one time is t = 0, so the log axes have no positive point
        (["ideal", "--grid", "linear:0:1:1"], ["ideal.svg"])])
    def test_svg_on_collapsed_axis(self, tmp_path, argv, svgs):
        assert run_cli(*argv, "--out", str(tmp_path), "--formats", "svg") == 0
        for name in svgs:
            text = (tmp_path / name).read_text()
            assert "nan" not in text and "inf" not in text

    def test_dsf_finite_where_q_squared_underflows(self, tmp_path):
        # v_T^2 q^2 underflows to 0 at 1e-300 / Angstrom, while the width
        # v_T |q| is a normal double
        assert run_cli("scattering", "--out", str(tmp_path), "--formats", "csv",
                       "--q-inv-angstrom", "1e-300") == 0
        rows = (tmp_path / "dsf.csv").read_text().splitlines()[2:]
        omega, _, s = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        assert np.all(np.isfinite(s)) and np.all(s > 0)
        # the 256 points span omega0 +- 5 widths: all but 5.7e-7 of the area
        area = np.sum((s[1:] + s[:-1]) * np.diff(omega)) / 2
        assert area == pytest.approx(1.0, rel=1e-5, abs=0)

    def test_non_finite_dsf_leaves_no_isf_file(self, tmp_path, capsys, monkeypatch):
        import qmsd.cli
        monkeypatch.setattr(qmsd.cli, "dsf",
                            lambda system, q, omegas: np.full(omegas.shape, np.nan))
        assert run_cli("scattering", "--out", str(tmp_path)) == 4
        assert "dsf.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        assert (f"MC vs exact: max |z| = {meta['max_abs_z']:.2f} over 5 points, "
                f"below z* = {meta['gate_z']:.2f} (family-wise false-alarm rate 0.001)"
                in out)
        assert meta["max_abs_z"] < meta["gate_z"]
        # z* = Phi^-1(1 - alpha / 2n) for alpha = 1e-3 over n = 5 points
        assert meta["gate_z"] == pytest.approx(3.7190, abs=1e-4)
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
        import qmsd.cli
        real = qmsd.cli.msd_basis_curve

        def scaled(*args, **kwargs):
            return 1.10 * real(*args, **kwargs)

        monkeypatch.setattr(qmsd.cli, "msd_basis_curve", scaled)
        assert run_cli("mc-verify", "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "Monte-Carlo estimate departs from the exact sum" in err
        assert not (tmp_path / "mc_verify.csv").exists()

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
