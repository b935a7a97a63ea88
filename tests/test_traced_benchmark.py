"""The benchmark's tracer (perfbench/spans.py) against the program.

The tracer wraps qmsd functions by module and name, and reads its work
counts from their arguments and results. A renamed or re-signatured
function would otherwise fail only the traced benchmark run.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from qmsd.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves(spans):
    for module_name, attr, _, _ in spans.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_commands_count_their_work(spans, tmp_path):
    tracer = spans.Tracer()
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in spans.WRAPS]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["mc-verify", "--members", "200"],
                         ["figure2", "--grid", "linear:0:5:4"],
                         ["breve"]):
                assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    finally:
        tracer.uninstall()
    assert [getattr(importlib.import_module(m), a)
            for m, a, _, _ in spans.WRAPS] == originals
    metrics = tracer.summary()["metrics"]
    for count in ("kernels.pairs", "kernels.member_evals",
                  "montecarlo.phase_draws", "basis.K"):
        assert metrics[count] > 0, count
    # only mc-verify draws members: K = 201 phases for each of 200 members
    # in streams 0 and 1, x(t) at 0 and 20 grid times, then x(t) once
    K = 201
    assert metrics["montecarlo.phase_draws"] == 2 * 200 * K
    assert metrics["kernels.member_evals"] == 200 * 21 + 200
