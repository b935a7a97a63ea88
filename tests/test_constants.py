import math

import pytest

from qmsd import CONST, PhysicalSystem, ValidationError, derive_scales
from qmsd.constants import DOMAIN, PM_TO_M, U_TO_KG, validate_times
from oracles import SYSTEM_KEYS, domain_pattern


def test_defining_constants_exact():
    assert CONST.k_B == 1.380649e-23
    assert CONST.h == 6.62607015e-34
    assert CONST.hbar == pytest.approx(CONST.h / (2 * math.pi), rel=1e-16, abs=0)


@pytest.mark.parametrize("factor", [U_TO_KG, PM_TO_M])
def test_unit_round_trips(factor):
    for x in [1.0, 28.0, 0.037, 1.9e5]:
        assert (x * factor) / factor == pytest.approx(x, rel=1e-12, abs=0)


def test_super_cell_length():
    sys = PhysicalSystem.from_user_units(28, 190, 256, 10)
    assert sys.L == pytest.approx(10 * 256e-12, rel=1e-14, abs=0)


@pytest.mark.parametrize("kwargs,field", [
    (dict(mass=-1.0, temperature=190.0, lattice_a=1e-10, n_cells=1), "mass"),
    (dict(mass=1e-26, temperature=0.0, lattice_a=1e-10, n_cells=1), "temperature"),
    (dict(mass=1e-26, temperature=190.0, lattice_a=-1e-10, n_cells=1), "lattice_a"),
    (dict(mass=1e-26, temperature=190.0, lattice_a=1e-10, n_cells=0), "n_cells"),
])
def test_validation_names_offending_field(kwargs, field):
    # each field is named by its DOMAIN key, the flag that sets it
    key = dict(zip(("mass", "temperature", "lattice_a", "n_cells"), SYSTEM_KEYS))[field]
    with pytest.raises(ValidationError, match=domain_pattern(key)):
        PhysicalSystem(**kwargs)


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_system_domain_bounds_admitted_and_the_next_value_refused(key):
    # from_user_units multiplies by the unit as check_domain does, so each
    # bound written in its unit is admitted, and the next double past it
    # (the next integer for n_cells) is not
    lo, hi, _, _ = DOMAIN[key]
    base = dict(mass_u=28.0, temperature_K=190.0, lattice_pm=256.0, n_cells=10)
    past = ((lo - 1, hi + 1) if key == "n_cells"
            else (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)))
    for value in (lo, hi):
        PhysicalSystem.from_user_units(**{**base, key: value})
    for value in (*past, *([] if key == "n_cells" else [math.nan])):
        with pytest.raises(ValidationError, match=domain_pattern(key)):
            PhysicalSystem.from_user_units(**{**base, key: value})


def test_time_domain_is_an_absolute_bound_in_seconds():
    hi = DOMAIN["t_s"][1]
    assert validate_times([0.0, hi]).tolist() == [0.0, hi]
    with pytest.raises(ValidationError, match=domain_pattern("t_s")):
        validate_times([0.0, math.nextafter(hi, math.inf)])


def test_domain_message_gives_the_value_in_its_unit():
    # converted to kg and back, 3.1e-30 u reads 3.0999999999999996e-30;
    # 15 digits give the value as it was written
    with pytest.raises(ValidationError, match=r"^mass_u = 3\.1e-30 u is outside the "
                                              r"physical domain \[0\.0001, 1e\+06\] u$"):
        PhysicalSystem.from_user_units(3.1e-30, 190, 256, 10)



def test_co_thermal_time():
    # CO at 190 K: t_b close to 40 fs
    sys = PhysicalSystem.from_user_units(28, 190, 256, 10)
    s = derive_scales(sys)
    assert s.t_b == pytest.approx(40e-15, rel=0.01, abs=0)


def test_xe_thermal_time_and_energy():
    # Xe at 105 K: t_b close to 73 fs and k_B T close to 9 meV
    sys = PhysicalSystem.from_user_units(131, 105, 256, 10)
    s = derive_scales(sys)
    assert s.t_b == pytest.approx(73e-15, rel=0.01, abs=0)
    meV = CONST.k_B * 105 / 1.602176634e-19 * 1e3
    assert meV == pytest.approx(9.0, rel=0.01, abs=0)


def test_co_quantum_diffusion_coefficient():
    sys = PhysicalSystem.from_user_units(28, 190, 256, 10)
    s = derive_scales(sys)
    assert s.D_q == pytest.approx(CONST.hbar / (2 * 28 * U_TO_KG), rel=1e-14, abs=0)
    assert s.D_q == pytest.approx(1.13e-9, rel=0.01, abs=0)


def test_scale_identities_randomized(rng):
    # t_c/t_b = L/(sqrt(2 pi) lambda_T) and the defining formulas, over
    # many random valid systems
    for _ in range(1000):
        mass_u = rng.uniform(1.0, 300.0)
        T = rng.uniform(1.0, 2000.0)
        a_pm = rng.uniform(50.0, 1000.0)
        n = int(rng.integers(1, 200))
        sys = PhysicalSystem.from_user_units(mass_u, T, a_pm, n)
        s = derive_scales(sys)
        assert s.t_c / s.t_b == pytest.approx(
            sys.L / (math.sqrt(2 * math.pi) * s.lambda_T), rel=1e-12, abs=0)
        assert s.t_b == pytest.approx(CONST.hbar * s.beta, rel=1e-12, abs=0)
        assert s.v_T == pytest.approx(1 / math.sqrt(s.beta * sys.mass), rel=1e-12, abs=0)
        assert s.Q_approx == pytest.approx(
            sys.L * math.sqrt(sys.mass / (2 * math.pi * s.beta * CONST.hbar**2)),
            rel=1e-12, abs=0)


def test_derive_scales_deterministic(co_system):
    assert derive_scales(co_system) == derive_scales(co_system)


@pytest.mark.parametrize("mass_u,temperature_K,underflow", [
    (28.0, 1e-302, "k_B T underflows to 0"),
    (1e-290, 1e280, "beta \\* mass underflows to 0"),
])
def test_zero_denominator_refused(mass_u, temperature_K, underflow):
    # a system whose k_B T, or beta m, would underflow to 0 in derive_scales
    # is outside the domain, and refused where it is built; the first field
    # outside it is named
    key = "mass_u" if mass_u < DOMAIN["mass_u"][0] else "temperature_K"
    with pytest.raises(ValidationError, match=domain_pattern(key)):
        PhysicalSystem.from_user_units(mass_u, temperature_K, 256, 10)
