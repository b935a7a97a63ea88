"""The test suite's independent references, in one module that pytest does
not collect. Each says what makes it independent of the code it checks, and
its own error bound; test_oracles.py checks them. It also holds the few
helpers that more than one test file shares."""

import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad

from qmsd import CONST, EigenBasis, PhysicalSystem, derive_scales, svgplot
from qmsd.constants import DOMAIN
from qmsd.exact import _BLOCK_ELEMS, TAIL, _theta_outer
from qmsd.montecarlo import _ensemble_setup, ensemble_positions, sample_phases

U = 2.0**-53  # unit roundoff


# The domain refusal as the tests state it, from DOMAIN's bounds alone.

def domain_pattern(key: str) -> str:
    """The regex of the ValidationError message that refuses a value of key
    outside DOMAIN, naming the quantity, its value and the bound."""
    lo, hi, unit, _ = DOMAIN[key]
    return (rf"{key} = \S+ {re.escape(unit)} is outside the physical domain "
            + re.escape(f"[{lo:g}, {hi:g}] {unit}"))


def log_range(key):
    """(log10 low, log10 high) of DOMAIN[key]."""
    return tuple(math.log10(v) for v in DOMAIN[key][:2])


# the PhysicalSystem fields, in from_user_units order
SYSTEM_KEYS = ("mass_u", "temperature_K", "lattice_pm", "n_cells")


# The closed-form position matrix elements. No command evaluates them (the
# ensemble kernel uses the coupling matrix A); the brute-force sums do.

def x_element(n: int, j: int, L: float) -> complex:
    """Position matrix element between plane-wave states n and j.

    Zero on the diagonal, purely imaginary and Hermitian off it:
    i (-1)^(n-j+1) / (q_n - q_j). From n, j and L alone, not from the
    basis's q or the coupling matrix; two roundings, within 2 U relative.
    """
    if n == j:
        return 0j
    sign = -1.0 if (n - j) % 2 == 0 else 1.0
    return 1j * sign * L / (2.0 * math.pi * (n - j))


def x_element_general(q: float, L: float) -> float:
    """Off-lattice matrix-element profile X(q), defined for any real q.

    X(q) = L * (2 sin(Lq/2)/(Lq)^2 - cos(Lq/2)/(Lq)); odd in q with a
    removable zero at q = 0. At lattice gaps q_n - q_j its square equals
    1/(q_n - q_j)^2. Evaluated per point, as J's integrand squares it;
    within 1e-11 relative on both branches (below).
    """
    z = L * q
    if abs(z) < 1e-2:
        # X = L (z/12 - z^3/480 + ...), from the Taylor expansion of
        # 2 sin(z/2)/z^2 - cos(z/2)/z. The direct formula cancels to
        # O(z) between terms of size O(1/z), losing ~2 digits per decade
        # below z = 1; the truncated series error is O(z^5), so the
        # crossover at z = 1e-2 keeps both branches below 1e-11 relative.
        return L * z / 12.0 * (1.0 - z * z / 40.0)
    return L * (2.0 * math.sin(z / 2.0) / (z * z) - math.cos(z / 2.0) / z)


def position_matrix(basis: EigenBasis) -> np.ndarray:
    """x_element over every pair of the basis's indices, K x K complex, no
    pair dropped, folded or pruned."""
    return np.array([[x_element(n, j, basis.L) for j in basis.indices.tolist()]
                     for n in basis.indices.tolist()])


# The coherent MSD on a basis.

def brute_force_msd(basis, Q, t):
    """Unfolded double sum over all n != j, complex arithmetic throughout:
    4/Q^2 sum w_n w_j |x_nj|^2 sin^2((E_n - E_j) t / 2 hbar).

    Unlike pair_arrays and msd_reduce it sums both orders of each pair,
    keeps every weight, and takes |x_nj|^2 from position_matrix. Its terms
    are positive, so it is within a few U per term and per addition; the
    phase's rounding moves sin^2 by about 4 U |phase|, below 1e-13 at the
    tests' times (up to 40 t_b on K = 21)."""
    arg = (basis.E[:, None] - basis.E[None, :]) * t / (2 * CONST.hbar)
    terms = (basis.w[:, None] * basis.w[None, :] * np.abs(position_matrix(basis)) ** 2
             * np.sin(arg) ** 2)
    return 4.0 / Q**2 * np.sum(terms)


def dense_theta_msd(system, times):
    """The theta series evaluated on every (d, t) element: expm1, rint, exp
    and the image mask everywhere, in the same blocks. The oracle that the
    pruned series in qmsd.exact must equal bit for bit. It reads
    _theta_outer's d, p, g, eps/hbar and a, so it checks the pruning, not
    the set-up, which TestThetaPath checks against the direct sum.
    """
    d, p, g, eps_over_hbar, a = _theta_outer(system, times.size)
    p = p[:, None]
    inv4a = 0.25 / a
    width = math.floor(math.sqrt(4.0 * a * TAIL) / math.pi + 0.5)
    out = np.empty(times.size)
    step = max(1, _BLOCK_ELEMS // d.size)
    for lo in range(0, times.size, step):
        b = eps_over_hbar * d[:, None] * times[None, lo:lo + step]
        bracket = -np.expm1(-b * b * inv4a)
        centre = np.rint(b / math.pi)
        for k in range(-width, width + 1):
            nu = centre + k
            q = (b - math.pi * nu)**2 * inv4a
            bracket -= (np.exp(-q) * ((nu != 0.0) & (q <= TAIL))
                        * (1.0 - 2.0 * p * (nu % 2.0)))
        out[lo:lo + step] = g @ bracket
    return out


def unpruned_wprod(basis):
    """w_n w_j |x_nj|^2 over every pair n < j of the basis, none dropped:
    pair_arrays without its weight floor. Each term within 3 roundings."""
    i, j = np.triu_indices(basis.K, k=1)
    dq = basis.q[i] - basis.q[j]
    return basis.w[i] * basis.w[j] / (dq * dq)


def pairwise_bound(terms) -> float:
    """Bound on |np.sum(terms) - math.fsum(terms)|.

    np.sum adds float64 values by numpy's pairwise summation: fewer than 8
    values in order; up to 128 into 8 accumulators of at most 16 values,
    added as a tree of depth 3, then the last n mod 8 values in order, so
    that a value takes part in at most 15 + 3 + 7 = 25 additions; above 128,
    two halves summed so and then added, one more addition per halving, of
    which there are at most ceil(log2 n); and the reduction adds its first
    value last, one more. Each value thus carries at most h = 26 +
    ceil(log2 n) rounding factors (1 + d), |d| <= u = 2^-53, and |np.sum -
    s| <= gamma_h sum |x_i| with gamma_h = h u / (1 - h u) (N. J. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
    sec. 4.2). math.fsum is s correctly rounded, within u |s| of it.
    """
    terms = np.asarray(terms, dtype=np.float64)
    u = 2.0**-53
    h = 26 + math.ceil(math.log2(max(terms.size, 1)))
    return (h * u / (1.0 - h * u) + u) * math.fsum(np.abs(terms))


# The Monte-Carlo ensemble.

def plain_positions(wt, thetas, eom, times, A, pref):
    """Oracle: the position form evaluated directly at each time.

    It takes _ensemble_setup's wt, eom, A and pref, so it checks the n -> -n
    fold, _cis, the blocks and the pool, but not the set-up, which
    brute_position checks through x_element. One einsum of K terms per
    time: within about K U of the largest term."""
    out = np.empty((thetas.shape[0], times.size))
    for it, t in enumerate(times):
        phi = thetas - eom[None, :] * t
        u = wt[None, :] * np.cos(phi)
        v = wt[None, :] * np.sin(phi)
        out[:, it] = pref * np.einsum("mk,mk->m", v, u @ A.T)
    return out


@dataclass(frozen=True)
class ThermalMember:
    """One random-phase member; phases match basis indices in order."""

    phases: np.ndarray  # theta_n in [0, 2 pi)

    def amplitudes(self, basis: EigenBasis, Q: float) -> np.ndarray:
        """c_n = exp(-beta E_n / 2 + i theta_n) / sqrt(Q), from beta and E,
        not _ensemble_setup's weights; each within a few U relative."""
        if self.phases.size != basis.K:
            raise ValueError("member phase count does not match basis size")
        return np.exp(-basis.beta * basis.E / 2.0 + 1j * self.phases) / math.sqrt(Q)


def brute_position(member, basis, Q, t):
    """Oracle: full complex double sum <psi(t)| x |psi(t)>.

    Complex amplitudes and position_matrix, with neither the kernel's real
    antisymmetric form, its fold nor its set-up. The imaginary part cancels
    exactly and is asserted below 1e-18 m; the real part is within about
    K^2 U of the largest term."""
    c = member.amplitudes(basis, Q)
    a = c * np.exp(-1j * basis.E * t / CONST.hbar)
    total = np.conj(a) @ position_matrix(basis) @ a
    assert abs(total.imag) < 1e-18
    return total.real


def kernel_inputs(basis, members, seed, times):
    """Helper, not a reference: ensemble_positions' arguments on the basis,
    the phases of members drawn at seed, and the times that times(eom)
    gives."""
    wt, eom, A, pref = _ensemble_setup(basis)
    return wt, sample_phases(basis, members, seed), eom, times(eom), A, pref


def one_draw_positions(basis, times, n_members, seed):
    """x(t) of every member from one draw of all members and one
    kernel call."""
    return ensemble_positions(*kernel_inputs(basis, n_members, seed, lambda _: np.asarray(times)))


# The ideal MSD.

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
    """msd_ideal_exact rounded to the nearest double."""
    return float(msd_ideal_exact(sys, t))


def assert_within_oracle(got, exact: Decimal, rel: str):
    """|got - exact| <= rel * exact, in decimal, so that rounding the oracle
    to a float does not widen the bound."""
    assert abs(Decimal(float(got)) - exact) <= Decimal(rel) * exact, (got, exact)


# The plateau's shape function J and the decohered plateau.

def J_quadrature(y):
    """Independent oracle: the defining integral of the plateau shape
    function, 2 int_0^inf exp(-y x^2) X(x)^2 dx with the dimensionless
    matrix-element profile X. Within quad's error estimate, asserted below
    1e-6."""
    f = lambda x: 2 * np.exp(-y * x * x) * (
        np.sin(x / np.sqrt(2)) / x**2
        - np.cos(x / np.sqrt(2)) / (np.sqrt(2) * x)) ** 2
    val, err = quad(f, 0, np.inf, limit=2000)
    assert err < 1e-6
    return val


# pi to 100 decimal places, for the decimal oracles
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
    """J_exact rounded to the nearest double."""
    return float(J_exact(y))


def breve_exact(sys: PhysicalSystem) -> Decimal:
    """Independent oracle: the plateau L hbar sqrt(2 beta / (pi m))
    J(hbar^2 beta / (2 m L^2)) at the float hbar, beta, m and L, in decimal
    arithmetic, where no factor leaves the range. Good to 60 digits."""
    hbar, beta, m, L = map(Decimal, (CONST.hbar, derive_scales(sys).beta, sys.mass, sys.L))
    with localcontext() as ctx:
        ctx.prec = 60
        return (L * hbar * (2 * beta / (PI_100 * m)).sqrt()
                * J_exact(hbar * hbar * beta / (2 * m * L * L)))


# The dynamic structure factor.

def dsf_tolerance(sys: PhysicalSystem, q: float) -> float:
    """The relative error allowed to dsf over omega0 +- 5 widths at the
    recoil ratio r = D_q |q| / v_T = omega0 / width.

    omega0 = D_q q^2 is rounded twice (q^2, to at most 0.52 ulp in libm's
    pow, and the product), so it is off by at most 2.04 U omega0 = 2.04 U r
    widths; that moves z by as much, and exp(-z^2/2) by |z| <= 5 times that,
    10.2 U r relative. The other roundings (z, z^2, exp, the prefactor) do
    not grow with r, and 1e-14 holds them. Where r <= 10 the bound stays at
    the 1e-14 that the whole sum is held to there.
    """
    s = derive_scales(sys)
    r = s.D_q * abs(q) / s.v_T
    return 1e-14 if r <= 10.0 else 1e-14 + 10.2 * U * r


def dsf_decimal(sys: PhysicalSystem, q: float, omega) -> list:
    """Independent oracle: the DSF Gaussian at the float D_q, v_T, q and
    omega, in 60-digit decimal arithmetic, each value rounded once to a
    double."""
    s = derive_scales(sys)
    with localcontext() as ctx:
        ctx.prec = 60
        v_T, q_, D_q = Decimal(s.v_T), Decimal(q), Decimal(s.D_q)
        var = v_T * v_T * q_ * q_
        two_pi = 2 * PI_100
        return [float((-(Decimal(w) - D_q * q_ * q_) ** 2 / (2 * var)).exp()
                      / (two_pi * var).sqrt()) for w in omega]


# The artifact writers.

def format_number(x) -> str:
    """One CSV number, 17 significant digits: the per-value oracle of
    write_csv, which formats whole columns at once. Exact: 17 digits give
    back every double."""
    return f"{float(x):.17g}"


def csv_by_value(header, columns, cfg_hash) -> str:
    """The CSV text write_csv gives, built one value at a time."""
    cols = [list(c) for c in columns]
    lines = [f"# config_hash: {cfg_hash}", ",".join(header)]
    lines += [",".join(format_number(c[i]) for c in cols) for i in range(len(cols[0]))]
    return "\n".join(lines) + "\n"


def pix_by_point(axis, v: float) -> float:
    """One value's pixel coordinate in Python float arithmetic: the
    per-point oracle of _Axis.to_pix, which maps arrays. It must agree
    bit for bit."""
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
