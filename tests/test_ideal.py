import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmsd import (CONST, IdealMsdParams, ScatteringParams, ValidationError,
                  derive_scales, linear_grid, msd_ideal, msd_ideal_curve)
from qmsd.scattering import _delta2

CO = IdealMsdParams(mass=28 * 1.66053906660e-27, t_b=4.020122411714599e-14)


def test_zero_at_zero():
    assert msd_ideal(CO, 0.0) == 0.0


def test_value_at_thermal_time():
    expected = (CONST.hbar / CO.mass) * CO.t_b * (math.sqrt(2) - 1)
    assert msd_ideal(CO, CO.t_b) == pytest.approx(expected, rel=1e-12, abs=0)


def test_long_time_slope_approaches_hbar_over_m():
    t = 1000 * CO.t_b
    dt = 1e-3 * CO.t_b
    slope = (msd_ideal(CO, t + dt) - msd_ideal(CO, t - dt)) / (2 * dt)
    assert slope == pytest.approx(CONST.hbar / CO.mass, rel=1e-3, abs=0)


def test_short_time_quadratic_law():
    # (k_B T / 2m) t^2 with k_B T = hbar / t_b
    t = 0.01 * CO.t_b
    quadratic = (CONST.hbar / CO.t_b) / (2 * CO.mass) * t * t
    assert msd_ideal(CO, t) == pytest.approx(quadratic, rel=1e-4, abs=0)


def test_cancellation_safe_at_tiny_times():
    t = 1e-8 * CO.t_b
    quadratic = (CONST.hbar / CO.t_b) / (2 * CO.mass) * t * t
    assert msd_ideal(CO, t) == pytest.approx(quadratic, rel=1e-10, abs=0)


def test_negative_time_rejected():
    with pytest.raises(ValidationError):
        msd_ideal(CO, -1e-15)


def test_finite_where_t_squared_overflows():
    # t * t overflows beyond about 1.3e154 s, where the MSD tends to
    # (hbar/m) t; below it every point keeps the bits of the plain form
    t = np.array([1e150, 1.3e154, 1.35e154, 1e160, 1e300])
    with np.errstate(over="raise", invalid="raise"):
        got = msd_ideal(CO, t)
    np.testing.assert_allclose(got, CONST.hbar / CO.mass * t, rtol=1e-15, atol=0)
    assert isinstance(msd_ideal(CO, 1e160), float)
    t = np.concatenate((np.geomspace(1e-30, 1e154, 200), [0.0, 1.3e154]))
    plain = CONST.hbar / CO.mass * (t * t / (np.sqrt(t * t + CO.t_b * CO.t_b) + CO.t_b))
    np.testing.assert_array_equal(msd_ideal(CO, t), plain)


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
    f = lambda x: msd_ideal(CO, x * CO.t_b)
    assert f(hi) > f(lo)
    chord = 0.5 * (f(lo) + f(hi))
    assert f(mid) <= chord * (1 + 1e-12)


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=200)
def test_bounded_by_linear_envelope(x):
    t = x * CO.t_b
    assert msd_ideal(CO, t) <= (CONST.hbar / CO.mass) * t * (1 + 1e-12)


# x is 0 or at least 1e-100: below about 7e-142 the MSD (4.6e-23 x^2 / c m^2)
# is subnormal at c = 1e3, and no subnormal carries 12 significant digits
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.just(0.0) | st.floats(min_value=1e-100, max_value=1e2))
@settings(max_examples=100)
def test_mass_scaling(c, x):
    t = x * CO.t_b
    scaled = IdealMsdParams(mass=CO.mass * c, t_b=CO.t_b)
    assert msd_ideal(scaled, t) == pytest.approx(msd_ideal(CO, t) / c, rel=1e-12, abs=0)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_classical_limit_vanishes_linearly(eps):
    # hbar -> hbar eps is equivalent to mass -> mass/eps with t_b -> t_b eps;
    # at fixed t the MSD then sits in its linear regime and shrinks like
    # eps (hbar/m) t, with a relative correction of order eps t_b / t
    p = IdealMsdParams(mass=CO.mass / eps, t_b=CO.t_b * eps)
    t = 5 * CO.t_b
    assert msd_ideal(p, t) == pytest.approx(
        eps * (CONST.hbar / CO.mass) * t, rel=eps, abs=0)


@pytest.mark.parametrize("params,field", [
    (IdealMsdParams, "mass"), (IdealMsdParams, "t_b"),
    (ScatteringParams, "v_T"), (ScatteringParams, "D_q")])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_params_reject_non_finite(params, field, value):
    # the positivity rule of PhysicalSystem: positive and finite
    good = {IdealMsdParams: dict(mass=CO.mass, t_b=CO.t_b),
            ScatteringParams: dict(v_T=237.4, D_q=1.134e-9, q=1e10)}[params]
    with pytest.raises(ValidationError, match=field):
        params(**{**good, field: value})


def test_curve_single_point_and_consistency():
    c0 = msd_ideal_curve(CO, np.array([0.0]))
    assert c0.values.tolist() == [0.0]
    c = msd_ideal_curve(CO, np.array([CO.t_b, 2 * CO.t_b]))
    assert c.method == "ideal-analytic"
    np.testing.assert_allclose(
        c.values, [msd_ideal(CO, CO.t_b), msd_ideal(CO, 2 * CO.t_b)], rtol=1e-15)


def test_curve_monotone_on_figure_grid():
    grid = linear_grid(0.0, 10 * CO.t_b, 512)
    c = msd_ideal_curve(CO, grid)
    assert np.all(np.diff(c.values) >= 0)


def test_curve_rejects_empty_and_decreasing():
    with pytest.raises(ValueError):
        msd_ideal_curve(CO, np.array([]))
    with pytest.raises(ValueError):
        msd_ideal_curve(CO, np.array([2e-14, 1e-14]))


class TestComplexSquaredLength:
    """scattering._delta2, the squared width shared by isf and
    pair_correlation_self."""
    p = ScatteringParams(v_T=237.4, D_q=1.134e-9, q=1e10)

    def test_zero(self):
        assert _delta2(self.p, 0.0) == 0j

    def test_components(self):
        t = 3e-14
        z = _delta2(self.p, t)
        assert z.real == pytest.approx(self.p.v_T**2 * t**2, rel=1e-14, abs=0)
        assert z.imag == pytest.approx(-2 * self.p.D_q * t, rel=1e-14, abs=0)

    def test_real_equals_abs_imag_at_thermal_time(self, co_scales):
        p = ScatteringParams(v_T=co_scales.v_T, D_q=co_scales.D_q, q=1e10)
        z = _delta2(p, co_scales.t_b)
        assert z.real == pytest.approx(abs(z.imag), rel=1e-10, abs=0)

    def test_classical_correspondence_at_long_times(self, co_scales):
        p = ScatteringParams(v_T=co_scales.v_T, D_q=co_scales.D_q, q=1e10)
        z = _delta2(p, 1e4 * co_scales.t_b)
        assert abs(z.imag) / z.real < 1e-3
