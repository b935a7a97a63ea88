import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmsd import (CONST, PhysicalSystem, ValidationError, derive_scales, dsf, isf,
                  isf_phase, pair_correlation_self)
from qmsd.constants import DOMAIN
from qmsd.scattering import _delta2
from oracles import domain_pattern, dsf_decimal, dsf_tolerance, log_range

ANGSTROM_INV = 1e10
Q = 1.0 * ANGSTROM_INV  # 1/m, the momentum transfer of the Xe checks
# the domain's |q|, 1e4 to 1e12 1/m
Q_MIN, Q_MAX = (v * ANGSTROM_INV for v in DOMAIN["q_inv_angstrom"][:2])


def dsf_window(sys: PhysicalSystem, q: float) -> np.ndarray:
    """21 points over omega0 +- 5 widths."""
    s = derive_scales(sys)
    return s.D_q * q**2 + np.linspace(-5.0, 5.0, 21) * (s.v_T * q)


@pytest.fixture(scope="module")
def xe():
    return PhysicalSystem.from_user_units(131.0, 105.0, 256.0, 10)


@pytest.fixture(scope="module")
def xs(xe):
    return derive_scales(xe)


class TestPairCorrelation:
    def test_normalized(self, xe, xs):
        t = 5e-14
        w = 40 * xs.v_T * t
        re, _ = quad(lambda x: pair_correlation_self(xe, x, t).real,
                     -w, w, limit=400)
        im, _ = quad(lambda x: pair_correlation_self(xe, x, t).imag,
                     -w, w, limit=400)
        assert re == pytest.approx(1.0, abs=1e-8)
        assert im == pytest.approx(0.0, abs=1e-8)

    def test_second_moment_is_complex_width(self, xe, xs):
        t = 5e-14
        delta2 = xs.v_T**2 * t**2 - 2j * xs.D_q * t
        w = 40 * xs.v_T * t
        # epsabs=0: the integral is ~1e-23, far below quad's default
        # absolute tolerance
        re, _ = quad(lambda x: x * x * pair_correlation_self(xe, x, t).real,
                     -w, w, limit=2000, epsabs=0, epsrel=1e-11)
        im, _ = quad(lambda x: x * x * pair_correlation_self(xe, x, t).imag,
                     -w, w, limit=2000, epsabs=0, epsrel=1e-11)
        assert re == pytest.approx(delta2.real, rel=1e-8, abs=0)
        assert im == pytest.approx(delta2.imag, rel=1e-8, abs=0)

    def test_even_in_x(self, xe):
        t = 3e-14
        x = 2e-10
        assert pair_correlation_self(xe, x, t) == pair_correlation_self(
            xe, -x, t)

    def test_nonpositive_time_rejected(self, xe):
        for t in (0.0, -1e-14):
            with pytest.raises(ValidationError):
                pair_correlation_self(xe, 0.0, t)

    def test_vectorized(self, xe):
        out = pair_correlation_self(xe, np.linspace(-1e-9, 1e-9, 7), 1e-14)
        assert out.shape == (7,)
        assert out.dtype == complex


class TestDsf:
    def test_peak_at_recoil_shift(self, xe, xs):
        # Xe at q = 1/angstrom: recoil about 0.016 meV
        omega0 = xs.D_q * Q**2
        meV = omega0 * CONST.hbar / 1.602176634e-19 * 1e3
        assert meV == pytest.approx(0.016, rel=0.03, abs=0)
        grid = omega0 + np.linspace(-1, 1, 201) * 1e9
        vals = dsf(xe, Q, grid)
        assert np.argmax(vals) == 100

    def test_normalized_in_omega(self, xe, xs):
        sigma = xs.v_T * abs(Q)
        omega0 = xs.D_q * Q**2
        val, _ = quad(lambda w: dsf(xe, Q, w), omega0 - 40 * sigma,
                      omega0 + 40 * sigma, limit=400)
        assert val == pytest.approx(1.0, rel=1e-8, abs=0)

    def test_fwhm(self, xe, xs):
        sigma = xs.v_T * abs(Q)
        omega0 = xs.D_q * Q**2
        half = dsf(xe, Q, omega0) / 2
        fwhm_expected = 2 * math.sqrt(2 * math.log(2)) * sigma
        assert dsf(xe, Q, omega0 + fwhm_expected / 2) == pytest.approx(
            half, rel=1e-10, abs=0)

    @pytest.mark.parametrize("q", [1e-150, 1e-160, 1e-300, 2.73e-311, 1e-310, 1e-309,
                                   1e-308, 1e-100, 1.0, 1e10, 3e10, 1e12])
    def test_tiny_q_matches_decimal_oracle(self, xe, q):
        # q below the domain's 1e4 / m (1e-6 / Angstrom), where the width
        # v_T |q| would be subnormal and the peak could overflow, is refused
        # naming the bound; inside it, over omega0 +- 5 widths, r is at most
        # 3.0 for Xe at 105 K, and dsf is within 1e-14 of the oracle
        if q < Q_MIN:
            with pytest.raises(ValidationError, match=domain_pattern("q_inv_angstrom")):
                dsf(xe, q, 0.0)
            return
        omega = dsf_window(xe, q)
        assert dsf_tolerance(xe, q) == 1e-14
        assert dsf(xe, q, omega) == pytest.approx(dsf_decimal(xe, q, omega), rel=1e-14, abs=0)

    # over the domain's masses, temperatures and |q|, with the systems of the
    # README's table at 1e12 / m as examples: r reaches 1.1e9
    @given(st.floats(*log_range("mass_u")), st.floats(*log_range("temperature_K")),
           st.floats(math.log10(Q_MIN), math.log10(Q_MAX)))
    @example(math.log10(28.0), math.log10(190.0), 12.0)
    @example(math.log10(131.0), math.log10(105.0), 12.0)
    @example(math.log10(1.008), 1.0, 12.0)
    @example(math.log10(28.0), math.log10(5e-5), 12.0)
    @example(-4.0, -9.0, 12.0)
    @example(6.0, 6.0, 4.0)
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_decimal_oracle_over_the_domain(self, log_m, log_T, log_q):
        sys = PhysicalSystem.from_user_units(10.0**log_m, 10.0**log_T, 256.0, 10)
        q = 10.0**log_q
        omega = dsf_window(sys, q)
        assert dsf(sys, q, omega) == pytest.approx(dsf_decimal(sys, q, omega),
                                                   rel=dsf_tolerance(sys, q), abs=0)

    @pytest.mark.parametrize("q", [1e152, 1e153, 1e154])
    def test_huge_q_peak_finite(self, xe, xs, q):
        # v_T^2 q^2 would overflow above about 1.6e152 / m, far past the
        # domain's 1e12 / m, which refuses such q naming its bound; at 1e12 /m
        # the peak is 1 / (sqrt(2 pi) v_T |q|)
        with pytest.raises(ValidationError, match=domain_pattern("q_inv_angstrom")):
            dsf(xe, q, xs.D_q * q**2)
        omega0 = xs.D_q * Q_MAX**2
        peak = dsf(xe, Q_MAX, omega0)
        assert peak == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * xs.v_T * Q_MAX),
                                     rel=1e-15, abs=0)
        assert np.all(np.isfinite(dsf(xe, Q_MAX, omega0 * np.array([0.0, 0.5, 2.0]))))

    # the ids name the two forms of an earlier dsf; both cases are now z's:
    # z^2 overflows at a large omega, and z itself at the largest omega on
    # the domain's narrowest window (1e6 u at 1e-9 K, |q| = 1e4 / m)
    @pytest.mark.parametrize("mass_u,temperature_K,q,omega", [
        pytest.param(28.0, 190.0, Q_MAX, 1e200, id="var-square"),
        pytest.param(1e6, 1e-9, Q_MIN, 1.7e308, id="z-divide"),
    ])
    def test_far_tail_is_zero_without_warning(self, mass_u, temperature_K, q, omega):
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, 256.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dsf(sys, q, omega) == 0.0

    def test_zero_q_rejected(self, xe):
        with pytest.raises(ValidationError):
            dsf(xe, 0.0, 0.0)

    @pytest.mark.parametrize("q", [5e-324, 1e-315, -1e-315])
    def test_overflowing_peak_rejected(self, xe, q):
        # 1 / (sqrt(2 pi) v_T |q|) would exceed the largest double; such a q
        # is far below the domain, which refuses it naming its bound
        with pytest.raises(ValidationError, match=domain_pattern("q_inv_angstrom")):
            dsf(xe, q, 0.0)

    def test_finite_or_rejected_at_the_peak_limit(self, xe, xs):
        # across the domain's lower |q|, dsf either refuses q or returns a
        # finite peak 1 / (sqrt(2 pi) v_T |q|), without a warning
        outcomes = set()
        for q in Q_MIN * np.linspace(0.5, 2.0, 61):
            q = float(q)
            try:
                peak = dsf(xe, q, xs.D_q * q**2)
            except ValidationError:
                assert q < Q_MIN
                outcomes.add("rejected")
            else:
                assert q >= Q_MIN
                assert peak == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * xs.v_T * q),
                                             rel=1e-15, abs=0)
                outcomes.add("finite")
        assert outcomes == {"rejected", "finite"}


class TestComplexSquaredLength:
    """scattering._delta2, the squared width shared by isf and
    pair_correlation_self."""

    def test_zero(self, co_system):
        assert _delta2(co_system, 0.0) == 0j

    def test_components(self, co_system, co_scales):
        t = 3e-14
        z = _delta2(co_system, t)
        assert z.real == pytest.approx(co_scales.v_T**2 * t**2, rel=1e-14, abs=0)
        assert z.imag == pytest.approx(-2 * co_scales.D_q * t, rel=1e-14, abs=0)

    def test_real_equals_abs_imag_at_thermal_time(self, co_system, co_scales):
        z = _delta2(co_system, co_scales.t_b)
        assert z.real == pytest.approx(abs(z.imag), rel=1e-10, abs=0)

    def test_classical_correspondence_at_long_times(self, co_system, co_scales):
        z = _delta2(co_system, 1e4 * co_scales.t_b)
        assert abs(z.imag) / z.real < 1e-3


class TestIsf:
    def test_amplitude_and_phase(self, xe, xs):
        t = 2e-14
        val = isf(xe, Q, t)
        amp_expected = math.exp(-xs.v_T**2 * t**2 * Q**2 / 4) / math.sqrt(
            2 * math.pi)
        assert abs(val) == pytest.approx(amp_expected, rel=1e-12, abs=0)
        assert np.angle(val) == pytest.approx(isf_phase(xe, Q, t), rel=1e-12, abs=0)

    def test_phase_linear_in_time(self, xe, xs):
        ts = np.linspace(0, 1e-13, 9)
        ph = isf_phase(xe, Q, ts)
        np.testing.assert_allclose(np.diff(ph, 2), 0.0, atol=1e-16)
        assert ph[1] == pytest.approx(xs.D_q * ts[1] * Q**2 / 2, rel=1e-14, abs=0)

    def test_value_at_zero(self, xe):
        assert isf(xe, Q, 0.0) == complex(1 / math.sqrt(2 * math.pi))

    def test_negative_time_rejected(self, xe, xs):
        # a nan, an inf or a negative time is refused, alone or in an
        # array; -0.0 is a time, and the times need not be sorted
        unsorted = [2 * xs.t_b, 0.0, xs.t_b]
        for fn in (isf, isf_phase):
            for t in (-1e-15, np.nan, np.inf, -np.inf):
                for arg in (t, [0.0, t]):
                    with pytest.raises(ValidationError, match=domain_pattern("t_s")):
                        fn(xe, Q, arg)
            assert fn(xe, Q, -0.0) == fn(xe, Q, 0.0)
            assert fn(xe, Q, unsorted).tolist() == [fn(xe, Q, t) for t in unsorted]


class TestFourierConsistency:
    """The three observables are one Gaussian seen through two
    transforms; check both links by direct quadrature."""

    def test_pair_correlation_to_isf(self, xe, xs):
        # int Gs(x, t) e^{i q x} dx = 2 pi isf(t)^2; pick q so the
        # amplitude is O(1) rather than exponentially small
        t = 3e-14
        q = 1.5 / (xs.v_T * t)
        w = 40 * xs.v_T * t
        f = lambda x: pair_correlation_self(xe, x, t) * np.exp(1j * q * x)
        re, _ = quad(lambda x: f(x).real, -w, w, limit=2000,
                     epsabs=0, epsrel=1e-11)
        im, _ = quad(lambda x: f(x).imag, -w, w, limit=2000,
                     epsabs=0, epsrel=1e-11)
        target = 2 * math.pi * isf(xe, q, t) ** 2
        assert abs(target) > 0.1  # the check is not vacuous
        assert re == pytest.approx(target.real, rel=1e-8, abs=0)
        assert im == pytest.approx(target.imag, rel=1e-8, abs=0)

    def test_isf_to_dsf(self, xe, xs):
        # (1/2 pi) int 2 pi isf(|t|)^2 e^{-i omega t} dt = dsf(omega),
        # extending to t < 0 by conjugation (even amplitude, odd phase)
        omega0 = xs.D_q * Q**2
        sigma = xs.v_T * abs(Q)
        T = 25 / sigma
        for omega in (omega0, omega0 + sigma, omega0 - 2 * sigma):

            def f(t):
                val = isf(xe, Q, abs(t)) ** 2
                if t < 0:
                    val = np.conj(val)
                return (val * np.exp(-1j * omega * t)).real

            ref, _ = quad(f, -T, T, limit=2000, epsabs=0, epsrel=1e-11)
            assert ref == pytest.approx(dsf(xe, Q, omega), rel=1e-8, abs=0)


def test_params_validation(xe, xs):
    # |q| past the domain's 1e12 / m (q^2 would overflow beyond about
    # 1.34e154 / m) is refused; the DSF is taken at its peak
    for route, x in ((isf, 0.0), (isf_phase, 0.0), (dsf, xs.D_q * Q_MAX**2)):
        assert math.isfinite(abs(route(xe, Q_MAX, x)))
        assert math.isfinite(abs(route(xe, -Q_MAX, x)))
        for q in (math.nan, math.inf, -math.inf, 1e155, -1e155, 1.0000000000000002e12):
            with pytest.raises(ValidationError, match=domain_pattern("q_inv_angstrom")):
                route(xe, q, x)
