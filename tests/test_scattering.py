import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from qmsd import (CONST, PhysicalSystem, ValidationError, derive_scales, dsf, isf,
                  isf_phase, pair_correlation_self)

ANGSTROM_INV = 1e10
Q = 1.0 * ANGSTROM_INV  # 1/m, the momentum transfer of the Xe checks


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

    @pytest.mark.parametrize("q", [1e-150, 1e-160, 1e-300])
    def test_tiny_q_matches_decimal_oracle(self, xe, xs, q):
        # v_T^2 q^2 is a normal double at 1e-150 / m, subnormal at 1e-160
        # and 0 at 1e-300, while the width v_T |q| is normal at all three
        width = xs.v_T * q
        omega = np.linspace(-3.0, 3.0, 13) * width
        with localcontext() as ctx:
            ctx.prec = 40
            v_T, q_, D_q = Decimal(xs.v_T), Decimal(q), Decimal(xs.D_q)
            var = v_T * v_T * q_ * q_
            two_pi = 2 * Decimal("3.141592653589793238462643383279502884197")
            ref = [float((-(Decimal(w) - D_q * q_ * q_) ** 2 / (2 * var)).exp()
                         / (two_pi * var).sqrt()) for w in omega]
        assert dsf(xe, q, omega) == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("q", [1e152, 1e153, 1e154])
    def test_huge_q_peak_finite(self, xe, xs, q):
        # v_T^2 q^2 overflows above about 1.6e152 / m, while q^2 and the
        # width v_T |q| are finite: the peak is 1 / (sqrt(2 pi) v_T |q|)
        omega0 = xs.D_q * q**2
        peak = dsf(xe, q, omega0)
        assert peak == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * xs.v_T * q),
                                     rel=1e-15, abs=0)
        assert np.all(np.isfinite(dsf(xe, q, omega0 * np.array([0.0, 0.5, 2.0]))))

    @pytest.mark.parametrize("q,omega", [
        pytest.param(1e150, lambda D_q: 2 * D_q * 1e150**2, id="var-square"),
        pytest.param(1e-160, lambda D_q: 1e200, id="z-divide"),
    ])
    def test_far_tail_is_zero_without_warning(self, co_system, co_scales, q, omega):
        # (omega - omega0)^2 on the var path, and z = (omega - omega0) / (v_T |q|)
        # on the z path, overflow to inf where the Gaussian is an exact 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dsf(co_system, q, omega(co_scales.D_q)) == 0.0

    def test_zero_q_rejected(self, xe):
        with pytest.raises(ValidationError):
            dsf(xe, 0.0, 0.0)

    @pytest.mark.parametrize("q", [5e-324, 1e-315, -1e-315])
    def test_overflowing_peak_rejected(self, xe, q):
        # 1 / (sqrt(2 pi) v_T |q|) exceeds the largest double
        with pytest.raises(ValidationError, match="q = "):
            dsf(xe, q, 0.0)

    def test_finite_or_rejected_at_the_peak_limit(self, xe, xs):
        # across the q where the peak leaves the float range, dsf either
        # refuses q or returns a finite peak (no overflow warning either)
        edge = 1.0 / np.finfo(float).max / math.sqrt(2.0 * math.pi) / xs.v_T
        outcomes = set()
        for q in edge * np.linspace(0.5, 2.0, 61):
            q = float(q)
            try:
                peak = dsf(xe, q, xs.D_q * q**2)
            except ValidationError:
                outcomes.add("rejected")
            else:
                assert math.isfinite(peak) and peak > 1e307
                outcomes.add("finite")
        assert outcomes == {"rejected", "finite"}


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

    def test_negative_time_rejected(self, xe):
        with pytest.raises(ValidationError):
            isf(xe, Q, -1e-15)
        with pytest.raises(ValidationError):
            isf_phase(xe, Q, -1e-15)


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
    # q^2 overflows beyond about 1.34e154 / m; the DSF is taken at its peak
    for route, x in ((isf, 0.0), (isf_phase, 0.0), (dsf, xs.D_q * 1e154**2)):
        assert math.isfinite(abs(route(xe, 1e154, x)))
        for q in (math.nan, math.inf, -math.inf, 1e155, -1e155):
            with pytest.raises(ValidationError, match="q"):
                route(xe, q, x)
