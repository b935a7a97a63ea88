import numpy as np
import pytest

from qmsd import PhysicalSystem, build_basis, derive_scales


@pytest.fixture(scope="session")
def co_system():
    """CO on a flat Cu(100)-like lattice: m = 28 u, T = 190 K, a = 256 pm."""
    return PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10)


@pytest.fixture(scope="session")
def co_scales(co_system):
    return derive_scales(co_system)


@pytest.fixture(scope="session")
def co_basis(co_system):
    return build_basis(co_system, 100)


@pytest.fixture(scope="session")
def small_basis():
    """K = 21 single-cell basis for brute-force oracles."""
    sys1 = PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 1)
    return build_basis(sys1, 21)


@pytest.fixture(scope="session")
def mc_basis():
    """K = 201 basis for the Monte-Carlo oracle (deliberately small)."""
    sys10 = PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10)
    return build_basis(sys10, 20)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
