import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmsd import (CONST, PhysicalSystem, ValidationError, breve_closed,
                  derive_scales, msd_collision_model, msd_ideal)
from qmsd.closedforms import I_ab, J, J_AT_ZERO

# erf reference values computed once at 40 decimal digits and frozen
ERF_TABLE = [
    (0.1, 0.1124629160182848984047122510143),
    (0.35, 0.3793820535623102981309487369951),
    (0.5, 0.52049987781304653768274665389196),
    (1.0, 0.84270079294971486934122063508261),
    (1.5, 0.96610514647531072706697626164595),
    (2.0, 0.99532226501895273416206925636725),
    (3.0, 0.99997790950300141455862722387042),
    (5.0, 0.99999999999846254020557196514981),
]


class TestErf:
    @pytest.mark.parametrize("x,expected", ERF_TABLE)
    def test_reference_values(self, x, expected):
        assert math.erf(x) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_odd_and_endpoints(self):
        assert math.erf(0.0) == 0.0
        for x in (0.3, 1.7, 4.0):
            assert math.erf(-x) == -math.erf(x)
        assert math.erf(50.0) == 1.0


def J_quadrature(y):
    """Independent oracle: the defining integral of the plateau shape
    function, 2 int_0^inf exp(-y x^2) X(x)^2 dx with the dimensionless
    matrix-element profile X."""
    f = lambda x: 2 * np.exp(-y * x * x) * (
        np.sin(x / np.sqrt(2)) / x**2
        - np.cos(x / np.sqrt(2)) / (np.sqrt(2) * x)) ** 2
    val, err = quad(f, 0, np.inf, limit=2000)
    assert err < 1e-6
    return val


PI_100 = Decimal("3.14159265358979323846264338327950288419716939937510"
                 "58209749445923078164062862089986280348253421170679")


def J_exact(y) -> Decimal:
    """Independent oracle: J's closed form in decimal arithmetic, at a float
    or Decimal y > 0, as sqrt(pi) ((sqrt(2)/6) S + (2/3) sqrt(y) ((1 - e) y
    - (3 - e)/4)), with u = 1/sqrt(2y), e = e^(-u^2) and
    S = (sqrt(pi)/2) erf(u) = e^(-u^2) sum_n (2 u^2)^n u / (2n+1)!!, a series
    of positive terms. The two terms cancel to O(u^3) as y grows, about
    3 log10(y) digits, so the bracket is summed with that many digits more
    than 100; pi is a factor outside it, so 100 of its digits suffice."""
    y = Decimal(y)
    with localcontext() as ctx:
        ctx.prec = 100 + 3 * max(0, y.adjusted())
        u2 = 1 / (2 * y)
        e = (-u2).exp()
        if u2 > 240:
            # erfc(u) < e^(-u^2) < 1e-104
            S = PI_100.sqrt() / 2
        else:
            term = total = u2.sqrt()
            n = 0
            while n < u2 or term > total.scaleb(-ctx.prec):
                n += 1
                term *= 2 * u2 / (2 * n + 1)
                total += term
            S = e * total
        return PI_100.sqrt() * (Decimal(2).sqrt() / 6 * S
                                + 2 * y.sqrt() / 3 * ((1 - e) * y - (3 - e) / 4))


def J_decimal(y: float) -> float:
    return float(J_exact(y))


def breve_exact(sys: PhysicalSystem) -> Decimal:
    """Independent oracle: the plateau L hbar sqrt(2 beta / (pi m))
    J(hbar^2 beta / (2 m L^2)) at the float hbar, beta, m and L, in decimal
    arithmetic, where no factor leaves the range."""
    hbar, beta, m, L = map(Decimal, (CONST.hbar, derive_scales(sys).beta, sys.mass, sys.L))
    with localcontext() as ctx:
        ctx.prec = 60
        return (L * hbar * (2 * beta / (PI_100 * m)).sqrt()
                * J_exact(hbar * hbar * beta / (2 * m * L * L)))


class TestJ:
    def test_matches_decimal_oracle(self):
        # the closed form cancels as y grows; the series takes over below
        # u = 1/sqrt(2y) = 1 and is summed to 1 ulp
        for y in (*np.geomspace(0.02, 1e6, 41), 0.5, 50.0):
            assert J(y) == pytest.approx(J_decimal(y), rel=1e-14, abs=0), y

    def test_value_at_zero(self):
        assert J(0.0) == pytest.approx(math.sqrt(2) * math.pi / 12, rel=1e-14, abs=0)
        assert J(0.0) == J_AT_ZERO

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            J(-1e-9)

    @pytest.mark.parametrize("y", [1e-6, 1e-3, 0.1, 0.5, 1.0, 10.0, 50.0,
                                   60.0, 1e3])
    def test_matches_quadrature(self, y):
        assert J(y) == pytest.approx(J_quadrature(y), rel=1e-6, abs=1e-12)

    def test_decreasing_to_zero(self):
        ys = np.geomspace(1e-8, 1e8, 60)
        vals = np.array([J(y) for y in ys])
        assert np.all(np.diff(vals) < 0)
        assert vals[0] < J_AT_ZERO
        assert vals[-1] < 1e-12

    def test_branch_continuity(self):
        # the series branch starts at u = 1, i.e. y = 0.5
        for y in (0.49, 0.4999, 0.5, 0.5001, 0.51, 200.0):
            assert J(y) == pytest.approx(J_quadrature(y), rel=1e-6, abs=0)

    def test_large_y_no_cancellation(self):
        # naive evaluation loses all digits here; the series must not
        y = 1e12
        naive_scale = (2 * math.sqrt(math.pi) / 3) * math.sqrt(y)
        val = J(y)
        assert 0 < val < 1e-17 * naive_scale
        assert val == pytest.approx(
            math.sqrt(2 * math.pi) / (72 * (2 * y) ** 1.5), rel=1e-4, abs=0)


class TestIab:
    # a << b is excluded here: the naive reference itself cancels there
    # (covered by test_cancellation_safe_small_a instead)
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 3.0), (1e3, 1e-3)])
    def test_defining_formula(self, a, b):
        assert I_ab(a, b) == pytest.approx(
            math.sqrt(math.pi) * (math.sqrt(a + b) - math.sqrt(b)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("a,b", [(0.7, 1.3), (2.5, 0.1), (1e-3, 4.0)])
    def test_matches_gaussian_difference_integral(self, a, b):
        # int_0^inf (exp(-b x^2) - exp(-(a+b) x^2)) / x^2 dx
        f = lambda x: (np.exp(-b * x * x) - np.exp(-(a + b) * x * x)) / x**2
        ref, err = quad(f, 0, np.inf, limit=400)
        assert I_ab(a, b) == pytest.approx(ref, rel=1e-8, abs=0)

    def test_cancellation_safe_small_a(self):
        b = 1.0
        a = 1e-30
        assert I_ab(a, b) == pytest.approx(
            math.sqrt(math.pi) * a / 2, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            I_ab(-1.0, 1.0)
        with pytest.raises(ValidationError):
            I_ab(1.0, 0.0)


class TestBreveClosed:
    def test_large_L_scaling_limit(self):
        # breve/L -> hbar sqrt(pi beta / m) / 6 as L -> infinity
        sys = PhysicalSystem.from_user_units(28, 190, 256, 100000)
        s = derive_scales(sys)
        limit = CONST.hbar * math.sqrt(math.pi * s.beta / sys.mass) / 6
        assert breve_closed(sys) / sys.L == pytest.approx(limit, rel=1e-4, abs=0)

    @pytest.mark.parametrize("n_cells,plateau_a2", [(10, 0.11), (20, 0.22),
                                                    (40, 0.44)])
    def test_co_plateaus(self, n_cells, plateau_a2):
        sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
        assert breve_closed(sys) / sys.lattice_a**2 == pytest.approx(
            plateau_a2, rel=0.05, abs=0)

    @pytest.mark.parametrize("mass_u,temperature_K,lattice_pm", [
        (28.0, 190.0, 256.0),
        # 2 beta / (pi m) = 2.8e309 overflows; hbar sqrt(beta / m) does not
        (1e-200, 1e-60, 1e134)])
    def test_a_function_of_y_alone(self, mass_u, temperature_K, lattice_pm):
        # breve = L^2 (2/sqrt(pi)) sqrt(y) J(y), y = hbar^2 beta / (2 m L^2)
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, 10)
        beta, L = derive_scales(sys).beta, sys.L
        y = CONST.hbar**2 * beta / (2.0 * sys.mass * L * L)
        assert 1e-8 < y < 1e-2
        assert breve_closed(sys) == pytest.approx(
            L * L * 2.0 / math.sqrt(math.pi) * math.sqrt(y) * J(y), rel=1e-14, abs=0)

    @pytest.mark.parametrize("mass_u,temperature_K,lattice_pm,n_cells", [
        # 2 beta / (pi m) = 6e319 overflows
        (1e-200, 4.4e-71, 256.0, 10),
        # 2 m L^2 underflows to 0
        (1e-200, 190.0, 1e-140, 1)])
    def test_finite_where_its_form_leaves_the_float_range(self, mass_u, temperature_K,
                                                         lattice_pm, n_cells):
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, n_cells)
        value = breve_closed(sys)
        assert math.isfinite(value) and value >= 0.0

    # over the masses, temperatures, lattices and cell counts derive_scales
    # admits, with the tiny-mass systems above among them: at 1e-200 u and
    # 4.4e-71 K, u = L / (v_T t_b) is 2.4e-135, and J(1/(2u^2)) underflows to
    # 0 while the plateau is 1.1e-288 m^2; a subnormal plateau is held to
    # 1e-14 of the smallest normal double
    @given(st.floats(-300.0, 300.0).map(lambda v: 10.0**v),
           st.floats(-284.0, 300.0).map(lambda v: 10.0**v),
           st.floats(-140.0, 150.0).map(lambda v: 10.0**v),
           st.integers(1, 10**4))
    @example(28.0, 190.0, 256.0, 10)
    @example(28.0, 5e-5, 256.0, 10)
    @example(1e-200, 4.4e-71, 256.0, 10)
    @example(1e-200, 1e-60, 1e134, 10)
    @example(1e-200, 190.0, 1e-140, 1)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matches_decimal_oracle(self, mass_u, temperature_K, lattice_pm, n_cells):
        try:
            sys = PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, n_cells)
            derive_scales(sys)
        except ValidationError:
            reject()
        exact = breve_exact(sys)
        tol = Decimal("1e-14") * max(exact, Decimal(np.finfo(float).tiny))
        assert abs(Decimal(breve_closed(sys)) - exact) <= tol

    def test_agrees_with_discrete_sum(self, co_system, co_basis):
        from qmsd import breve_basis_sum
        # the closed form is a continuum approximation that improves with
        # L; at L = 10a it sits ~0.6% above the discrete sum
        assert breve_closed(co_system) == pytest.approx(breve_basis_sum(co_basis), rel=1e-2, abs=0)


@pytest.fixture(scope="module")
def co():
    sys = PhysicalSystem.from_user_units(28, 190, 256, 10)
    return sys, derive_scales(sys)


ALPHA = 0.35


class TestCollisionModel:
    def test_zero_at_zero(self, co):
        sys, _ = co
        assert msd_collision_model(sys, ALPHA, 0.0) == 0.0

    def test_negative_time_rejected(self, co):
        # a nan, an inf or a negative time is refused, alone or in an
        # array; -0.0 is a time, and the times need not be sorted
        sys, s = co
        for t in (-1e-18, np.nan, np.inf, -np.inf):
            rule = "nonnegative" if np.isfinite(t) else "finite"
            for arg in (t, [0.0, t]):
                with pytest.raises(ValidationError, match=f"time grid must be {rule}"):
                    msd_collision_model(sys, ALPHA, arg)
        assert msd_collision_model(sys, ALPHA, -0.0) == 0.0
        unsorted = [2 * s.t_b, 0.0, s.t_b]
        assert (msd_collision_model(sys, ALPHA, unsorted).tolist()
                == [msd_collision_model(sys, ALPHA, t) for t in unsorted])

    def test_long_time_asymptote(self, co):
        # the erf weight decays like 1/t while the free branch grows like
        # t, so their product leaves a finite slow-velocity excess of
        # sqrt(2/pi) alpha L v_T t_b on top of the decohered plateau
        sys, s = co
        limit = (breve_closed(sys)
                 + math.sqrt(2 / math.pi) * ALPHA * sys.L * s.v_T * s.t_b)
        assert msd_collision_model(sys, ALPHA, 1e9 * s.t_b) == pytest.approx(
            limit, rel=1e-6, abs=0)

    def test_bounded_by_asymptote(self, co):
        sys, s = co
        limit = (breve_closed(sys)
                 + math.sqrt(2 / math.pi) * ALPHA * sys.L * s.v_T * s.t_b)
        t_c = sys.L / s.v_T
        for x in np.geomspace(1e-2, 1e4, 40):
            assert msd_collision_model(sys, ALPHA, x * t_c) <= limit * (1 + 1e-12)

    def test_short_time_follows_ideal(self, co):
        sys, s = co
        t = 0.1 * s.t_b
        assert msd_collision_model(sys, ALPHA, t) == pytest.approx(
            msd_ideal(sys, t), rel=1e-6, abs=0)

    def test_large_alpha_recovers_ideal(self, co):
        sys, s = co
        for x in (0.5, 5.0, 50.0):
            t = x * s.t_b
            assert msd_collision_model(sys, 1e3, t) == pytest.approx(
                msd_ideal(sys, t), rel=1e-6, abs=0)

    def test_parameterization_identity(self, co):
        # v_T^2 t_b = hbar / m ties the free branch to the ideal MSD
        sys, s = co
        assert s.v_T**2 * s.t_b == pytest.approx(CONST.hbar / sys.mass,
                                                 rel=1e-12, abs=0)

    def test_monotone_nondecreasing(self, co):
        sys, s = co
        ts = np.linspace(0.0, 2000 * s.t_b, 400)
        vals = [msd_collision_model(sys, ALPHA, t) for t in ts]
        assert np.all(np.diff(vals) >= -1e-30)

    def test_validation(self, co):
        sys, s = co
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="alpha"):
                msd_collision_model(sys, alpha, s.t_b)

    def test_finite_where_t_squared_overflows(self, co):
        # (t / t_b)^2 overflows beyond about 1.3e154; x^2 / (sqrt(x^2 + 1) + 1)
        # tends to x there, and the model to its long-time limit
        sys, s = co
        limit = (breve_closed(sys)
                 + math.sqrt(2 / math.pi) * ALPHA * sys.L * s.v_T * s.t_b)
        x = np.array([1e150, 1.3e154, 1.35e154, 1e160, 1e300])
        with np.errstate(over="raise", invalid="raise"):
            got = msd_collision_model(sys, ALPHA, x * s.t_b)
        np.testing.assert_allclose(got, limit, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("n_cells,alpha", [(1, 0.05), (10, 0.35), (80, 3.0)])
    def test_array_equals_scalar_formula(self, co, n_cells, alpha):
        # the array form keeps math.erf and the scalar arithmetic, so it
        # equals the scalar formula bit for bit, t = 0 and -0.0 included
        # the blend of the one ideal MSD and the one plateau
        sys, s = co
        cell = dataclasses.replace(sys, n_cells=n_cells)

        def scalar(t):
            if t == 0.0:
                return 0.0
            g = math.erf(alpha * cell.L / (math.sqrt(2.0) * s.v_T * t))
            return g * msd_ideal(cell, t) + (1.0 - g) * breve_closed(cell)

        ts = np.concatenate(([0.0, -0.0], np.linspace(0.0, 30.0, 301) * s.t_b,
                             np.geomspace(1e-3, 1e5, 300) * s.t_b))
        got = msd_collision_model(cell, alpha, ts)
        np.testing.assert_array_equal(got, [scalar(t) for t in ts])
        assert isinstance(msd_collision_model(cell, alpha, ts[5]), float)


def test_collision_model_is_velocity_average(co_scales):
    # quadrature over the speed distribution reproduces the closed blend;
    # the integrand is rescaled to the plateau so quad's absolute
    # tolerance is meaningful despite the 1e-21 m^2 magnitudes
    sys = PhysicalSystem.from_user_units(28, 190, 256, 10)
    s = derive_scales(sys)
    plateau = breve_closed(sys)
    for x in (1.0, 30.0, 300.0):
        t = x * s.t_b
        free = msd_ideal(sys, t)
        u_star = ALPHA * sys.L / (t * s.v_T)

        def integrand(u):
            # u = v / v_T; values in units of the plateau
            val = free if u < u_star else plateau
            return (val / plateau) * math.sqrt(2 / math.pi) * math.exp(
                -u * u / 2)

        below, _ = quad(integrand, 0, u_star, limit=400)
        above, _ = quad(integrand, u_star, np.inf, limit=400)
        ref = (below + above) * plateau
        assert msd_collision_model(sys, ALPHA, t) == pytest.approx(ref, rel=1e-8, abs=0)
