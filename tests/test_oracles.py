"""The references in oracles.py checked on their own, and the layout of the
tests: one test file per module of qmsd, besides the cross-cutting files,
and no test file that imports another."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import qmsd
from qmsd import CONST, partition_function
from oracles import ThermalMember, brute_position, format_number

TESTS = Path(__file__).parent
# suites that span modules: the paper's criteria, the digests of every
# artifact, the benchmark's workloads and tracer, and the O(K^2) kernels of
# exact.py and montecarlo.py (their test ids keep the retired kernels module)
CROSS_CUTTING = {"acceptance", "digests", "benchmark_workloads", "traced_benchmark", "kernels"}


class TestBrutePosition:
    def test_time_reversal_with_negated_phases(self, small_basis):
        # x(-t; theta) = -x(t; -theta): the coupling is purely imaginary
        # and antisymmetric, so reversing time flips the sign unless the
        # phases are negated too
        Q = partition_function(small_basis)
        t = 1.9 * CONST.hbar * small_basis.beta
        rng = np.random.default_rng(3)
        theta = rng.uniform(0, 2 * math.pi, small_basis.K)
        fwd = brute_position(ThermalMember(phases=theta), small_basis, Q, t)
        bwd = brute_position(ThermalMember(phases=-theta), small_basis, Q, -t)
        assert bwd == pytest.approx(-fwd, rel=1e-12, abs=1e-30)


class TestFormatNumber:
    def test_number_round_trip(self):
        for x in [0.1, math.pi, 1e-30, -2.5e17]:
            assert float(format_number(x)) == x


def imported_modules(path: Path):
    """The top-level names of every module that path imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


class TestLayout:
    """Each test file mirrors one module of qmsd, and the references live in
    oracles.py alone, so no test file imports another."""

    def test_no_test_file_imports_another(self):
        found = {path.name: name for path in TESTS.glob("*.py")
                 for name in imported_modules(path) if name.startswith("test_")}
        assert found == {}

    def test_each_test_file_names_a_module(self):
        modules = {path.stem for path in Path(qmsd.__file__).parent.glob("*.py")}
        stray = [path.name for path in TESTS.glob("test_*.py")
                 if path.stem.removeprefix("test_")
                 not in modules - {"__init__"} | {"oracles"} | CROSS_CUTTING]
        assert stray == []
