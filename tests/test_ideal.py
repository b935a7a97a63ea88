import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmsd import (CONST, PhysicalSystem, ValidationError, derive_scales,
                  msd_ideal, msd_ideal_curve)
from qmsd import cli
from qmsd.cli import main
from qmsd.constants import DOMAIN
from qmsd.scattering import _delta2
from test_constants import domain_pattern, log_range

# CO at 190 K; the ideal MSD does not depend on the cell
CO = PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10)
T_B = derive_scales(CO).t_b  # 4.020122411714599e-14 s


def test_zero_at_zero():
    assert msd_ideal(CO, 0.0) == 0.0


def test_value_at_thermal_time():
    expected = (CONST.hbar / CO.mass) * T_B * (math.sqrt(2) - 1)
    assert msd_ideal(CO, T_B) == pytest.approx(expected, rel=1e-12, abs=0)


def test_long_time_slope_approaches_hbar_over_m():
    t = 1000 * T_B
    dt = 1e-3 * T_B
    slope = (msd_ideal(CO, t + dt) - msd_ideal(CO, t - dt)) / (2 * dt)
    assert slope == pytest.approx(CONST.hbar / CO.mass, rel=1e-3, abs=0)


def test_short_time_quadratic_law():
    # (k_B T / 2m) t^2 with k_B T = hbar / t_b
    t = 0.01 * T_B
    quadratic = (CONST.hbar / T_B) / (2 * CO.mass) * t * t
    assert msd_ideal(CO, t) == pytest.approx(quadratic, rel=1e-4, abs=0)


def test_cancellation_safe_at_tiny_times():
    t = 1e-8 * T_B
    quadratic = (CONST.hbar / T_B) / (2 * CO.mass) * t * t
    assert msd_ideal(CO, t) == pytest.approx(quadratic, rel=1e-10, abs=0)


def test_negative_time_rejected():
    # a nan, an inf or a negative time is refused, alone or in an array;
    # -0.0 is a time, and the times need not be sorted
    for t in (-1e-15, np.nan, np.inf, -np.inf):
        for arg in (t, [0.0, t]):
            with pytest.raises(ValidationError, match=domain_pattern("t_s")):
                msd_ideal(CO, arg)
    assert msd_ideal(CO, -0.0) == 0.0
    unsorted = [2 * T_B, 0.0, T_B]
    assert msd_ideal(CO, unsorted).tolist() == [msd_ideal(CO, t) for t in unsorted]


@pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.0, np.inf]],
                         ids=["nan", "inf", "0-inf"])
def test_non_finite_time_rejected(grid):
    with pytest.raises(ValidationError, match=domain_pattern("t_s")):
        msd_ideal_curve(CO, grid)


def test_nan_after_a_finite_time_named_as_such():
    with pytest.raises(ValidationError, match=r"^t_s = nan s is outside"):
        msd_ideal_curve(CO, [1.0, np.nan])


def grid_refusal(tmp_path, capsys, spec, *argv):
    """The config error of the ideal command on --grid spec; asserts that
    it exits 2 and makes no output directory."""
    out = tmp_path / "o"
    assert main(["ideal", "--grid", spec, "--out", str(out), *argv]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err


# The CLI scales each spec time by t_b. A nan or inf in the spec is refused
# as it is parsed; a finite time whose scaled value is past the domain's
# 1e6 s (1e300 t_b, with t_b = 7.6e-3 s at 1e-9 K) is refused by the time
# rule, naming the bound. t_b is at most 7.6e-3 s in the domain, so a finite
# spec time is never scaled to inf or nan.
@pytest.mark.parametrize("kind", ["linear", "geometric"], ids=lambda kind: f"{kind}_grid")
@pytest.mark.parametrize("start,stop", [(1.0, np.inf), (np.inf, np.inf), (1.0, np.nan)])
def test_grid_endpoints_must_be_finite(tmp_path, capsys, kind, start, stop):
    spec = f"{kind}:{start}:{stop}:3"
    assert f"bad grid spec {spec!r}: bounds must be finite" in grid_refusal(
        tmp_path, capsys, spec)
    if np.isnan(stop):
        return
    scaled = [("1e300" if np.isinf(v) else str(v)) for v in (start, stop)]
    err = grid_refusal(tmp_path, capsys, f"{kind}:{scaled[0]}:{scaled[1]}:3",
                       "--temperature-K", "1e-9")
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
    assert grid_refusal(tmp_path, capsys, spec).strip() == f"config error: {message}"


def test_grid_count_past_the_limit_refused(tmp_path, capsys, monkeypatch):
    # 2^20 points, 2048 times the largest default grid, is the most a grid
    # may hold; one more is refused before its times are allocated
    assert cli.MAX_GRID_POINTS == 2**20
    assert grid_refusal(tmp_path, capsys, f"linear:0:1:{2**20 + 1}").strip() == (
        "config error: grid count 1048577 is past the limit of 1048576 points")
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
    grid_refusal(tmp_path, capsys, "geometric:1:2:9")
    assert main(["ideal", "--grid", "geometric:1:2:8", "--out", str(tmp_path / "o")]) == 0


def msd_ideal_exact(sys: PhysicalSystem, t: float) -> Decimal:
    """Independent oracle: (hbar/m)(sqrt(t^2 + t_b^2) - t_b) at the float
    hbar, m, t_b and t, in decimal arithmetic with 2 digits more for each
    decade that t falls below t_b, so that the difference keeps 50 digits
    however small t is, and no square leaves the range."""
    t, t_b = Decimal(t), Decimal(derive_scales(sys).t_b)
    if t == 0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, t_b.adjusted() - t.adjusted())
        return Decimal(CONST.hbar) / Decimal(sys.mass) * ((t * t + t_b * t_b).sqrt() - t_b)


def msd_ideal_decimal(sys: PhysicalSystem, t: float) -> float:
    return float(msd_ideal_exact(sys, t))


def assert_within_oracle(got, exact: Decimal, rel: str):
    """|got - exact| <= rel * exact, in decimal, so that rounding the oracle
    to a float does not widen the bound."""
    assert abs(Decimal(float(got)) - exact) <= Decimal(rel) * exact, (got, exact)


# t_b = hbar beta would be 7.6e188 s at 1e-200 K, so that t_b^2 overflows,
# and at 7.64e-166 K t^2 + t_b^2 would overflow from about t = 0.9 t_b; both
# temperatures are outside the domain, and refused naming its bound. At its
# coldest, 1e-9 K, t_b = 7.6e-3 s, and the same grids match the oracle
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("temperature,grid", [("1e-200", "geometric:1e-90:1e-10:3"),
                                              ("7.64e-166", "linear:0:1.2:4")])
def test_matches_decimal_oracle_where_t_b_squared_leaves_the_range(tmp_path, capsys,
                                                                   temperature, grid):
    out = tmp_path / "refused"
    assert main(["ideal", "--temperature-K", temperature, "--grid", grid,
                 "--out", str(out)]) == 2
    assert re.search(domain_pattern("temperature_K"), capsys.readouterr().err)
    assert not out.exists()
    coldest = str(DOMAIN["temperature_K"][0])
    assert main(["ideal", "--temperature-K", coldest, "--grid", grid,
                 "--out", str(tmp_path), "--formats", "csv"]) == 0
    rows = (tmp_path / "ideal.csv").read_text().splitlines()[2:]
    t, msd = np.array([[float(v) for v in row.split(",")] for row in rows])[:, [0, 2]].T
    system = dataclasses.replace(CO, temperature=float(coldest))
    assert np.all(msd[t > 0] > 0)
    np.testing.assert_allclose(msd, [msd_ideal_decimal(system, x) for x in t], rtol=1e-15, atol=0)
    np.testing.assert_array_equal(msd_ideal(system, t), msd)


# t^2 and t_b^2 would underflow at 1e200 K (t_b = 7.6e-212 s), which is
# outside the domain and refused naming its bound. At its hottest, 1e6 K
# (t_b = 7.6e-18 s), the collision model's weight g is 1 at every t > 0 of
# the default grid (alpha L / (sqrt(2) v_T t) is at least 160), so it is
# the ideal MSD, checked here against the oracle rather than against msd_ideal
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["ideal", "collision"])
def test_matches_decimal_oracle_where_the_squares_underflow(tmp_path, capsys, command):
    out = tmp_path / "refused"
    assert main([command, "--temperature-K", "1e200", "--out", str(out)]) == 2
    assert re.search(domain_pattern("temperature_K"), capsys.readouterr().err)
    assert not out.exists()
    hottest = DOMAIN["temperature_K"][1]
    assert main([command, "--temperature-K", str(hottest), "--out", str(tmp_path),
                 "--formats", "csv"]) == 0
    rows = (tmp_path / f"{command}.csv").read_text().splitlines()[2:]
    t, msd = np.array([[float(v) for v in row.split(",")] for row in rows])[:, [0, 2]].T
    system = dataclasses.replace(CO, temperature=hottest)
    assert np.all(msd[t > 0] > 0)
    np.testing.assert_allclose(msd, [msd_ideal_decimal(system, x) for x in t], rtol=1e-15, atol=0)


def test_finite_where_t_squared_overflows():
    # t * t would overflow beyond about 1.3e154 s, past the domain's 1e6 s,
    # which refuses such times naming its bound; toward 1e6 s the MSD tends
    # to (hbar/m) t, and up to it every point is within 4e-16 of the oracle
    for t in (1e150, 1e160, 1e300):
        with pytest.raises(ValidationError, match=domain_pattern("t_s")):
            msd_ideal(CO, t)
    t = np.array([1e2, 1e4, 1e6])
    with np.errstate(over="raise", invalid="raise"):
        got = msd_ideal(CO, t)
    np.testing.assert_allclose(got, CONST.hbar / CO.mass * t, rtol=1e-15, atol=0)
    assert isinstance(msd_ideal(CO, 1e6), float)
    t = np.concatenate((np.geomspace(1e-30, 1e6, 200), [0.0]))
    for x, got in zip(t, msd_ideal(CO, t)):
        assert_within_oracle(got, msd_ideal_exact(CO, x), "4e-16")


# over the domain's masses and temperatures, with t from 1e-300 t_b to its
# 1e6 s (1.3e23 t_b at 1e6 K); a subnormal MSD carries no 4e-16, so the
# points below 2.2e-308 m^2 are left out
@given(st.floats(*log_range("mass_u")), st.floats(*log_range("temperature_K")),
       st.floats(min_value=-300.0, max_value=24.0))
@example(log_m=-4.0, log_T=-9.0, log_x=0.0)
@example(log_m=-4.0, log_T=6.0, log_x=23.0)
@example(log_m=6.0, log_T=-9.0, log_x=-90.0)
@example(log_m=6.0, log_T=6.0, log_x=23.0)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_matches_decimal_oracle_across_the_float_range(log_m, log_T, log_x):
    system = PhysicalSystem.from_user_units(10.0**log_m, 10.0**log_T, 256.0, 10)
    t = 10.0**log_x * derive_scales(system).t_b
    exact = msd_ideal_exact(system, t)
    assume(t <= DOMAIN["t_s"][1] and exact > Decimal(np.finfo(float).tiny))
    assert_within_oracle(msd_ideal(system, t), exact, "4e-16")


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_strictly_increasing_and_convex(x1, x2):
    # the slope grows monotonically from 0 toward hbar/m, so the curve
    # is convex: every midpoint lies below the chord
    lo, hi = sorted((x1, x2))
    if hi - lo < 1e-6:
        return
    mid = 0.5 * (lo + hi)
    f = lambda x: msd_ideal(CO, x * T_B)
    assert f(hi) > f(lo)
    chord = 0.5 * (f(lo) + f(hi))
    assert f(mid) <= chord * (1 + 1e-12)


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=200)
def test_bounded_by_linear_envelope(x):
    t = x * T_B
    assert msd_ideal(CO, t) <= (CONST.hbar / CO.mass) * t * (1 + 1e-12)


# x is 0 or at least 1e-100: below about 7e-142 the MSD (4.6e-23 x^2 / c m^2)
# is subnormal at c = 1e3, and no subnormal carries 12 significant digits
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.just(0.0) | st.floats(min_value=1e-100, max_value=1e2))
@settings(max_examples=100)
def test_mass_scaling(c, x):
    t = x * T_B
    # t_b = hbar beta does not depend on the mass
    scaled = dataclasses.replace(CO, mass=CO.mass * c)
    assert msd_ideal(scaled, t) == pytest.approx(msd_ideal(CO, t) / c, rel=1e-12, abs=0)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_classical_limit_vanishes_linearly(eps):
    # hbar -> hbar eps is equivalent to mass -> mass/eps with t_b -> t_b eps,
    # that is T -> T/eps; at fixed t the MSD then sits in its linear regime
    # and shrinks like eps (hbar/m) t, with a relative correction of order
    # eps t_b / t
    # (0.5 u at 0.5 K, so that m / eps and T / eps stay in the domain)
    base = PhysicalSystem.from_user_units(0.5, 0.5, 256.0, 10)
    p = dataclasses.replace(base, mass=base.mass / eps, temperature=base.temperature / eps)
    t = 5 * derive_scales(base).t_b
    assert msd_ideal(p, t) == pytest.approx(
        eps * (CONST.hbar / base.mass) * t, rel=eps, abs=0)


def test_curve_single_point_and_consistency():
    c0 = msd_ideal_curve(CO, np.array([0.0]))
    assert c0.tolist() == [0.0]
    c = msd_ideal_curve(CO, np.array([T_B, 2 * T_B]))
    assert c.dtype == np.float64
    np.testing.assert_allclose(
        c, [msd_ideal(CO, T_B), msd_ideal(CO, 2 * T_B)], rtol=1e-15)


def test_curve_monotone_on_figure_grid():
    grid = np.linspace(0.0, 10 * T_B, 512)
    c = msd_ideal_curve(CO, grid)
    assert np.all(np.diff(c) >= 0)


def test_curve_rejects_empty_and_decreasing():
    with pytest.raises(ValueError):
        msd_ideal_curve(CO, np.array([]))
    with pytest.raises(ValueError):
        msd_ideal_curve(CO, np.array([2e-14, 1e-14]))


class TestComplexSquaredLength:
    """scattering._delta2, the squared width shared by isf and
    pair_correlation_self."""

    def test_zero(self):
        assert _delta2(CO, 0.0) == 0j

    def test_components(self, co_scales):
        t = 3e-14
        z = _delta2(CO, t)
        assert z.real == pytest.approx(co_scales.v_T**2 * t**2, rel=1e-14, abs=0)
        assert z.imag == pytest.approx(-2 * co_scales.D_q * t, rel=1e-14, abs=0)

    def test_real_equals_abs_imag_at_thermal_time(self):
        z = _delta2(CO, T_B)
        assert z.real == pytest.approx(abs(z.imag), rel=1e-10, abs=0)

    def test_classical_correspondence_at_long_times(self):
        z = _delta2(CO, 1e4 * T_B)
        assert abs(z.imag) / z.real < 1e-3
