"""The benchmark's tracer (perfbench/spans.py) against the program.

The tracer wraps qmsd functions by module and name, and reads its work
counts from their arguments and results. A renamed or re-signatured
function would otherwise fail only the traced benchmark run.
"""

import contextlib
import importlib
import importlib.util
import io
import threading
from pathlib import Path

import pytest

import qmsd.montecarlo
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
    # in stream 0 alone, x(t) at 0 and 20 grid times; the plateau reuses x(0)
    K = 201
    assert metrics["montecarlo.phase_draws"] == 200 * K
    assert metrics["kernels.member_evals"] == 200 * 21


def test_traced_names_run_on_the_calling_thread(spans, tmp_path, monkeypatch):
    # the span stack is not thread-safe, so the ensemble kernel's worker
    # threads must call no traced name
    if qmsd.montecarlo._openblas() is None:
        pytest.skip("numpy's OpenBLAS thread setter is not found: the kernel runs one worker")
    pools = []

    def two_workers(n_blocks):
        pools.append(n_blocks)
        return min(2, n_blocks)

    monkeypatch.setattr(qmsd.montecarlo, "_pool_size", two_workers)
    tracer = spans.Tracer()
    calls = []
    traced_call = tracer.call

    def recording(name, *args, **kwargs):
        calls.append((name, threading.current_thread() is threading.main_thread()))
        return traced_call(name, *args, **kwargs)

    tracer.call = recording
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["mc-verify", "--members", "600", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    # 600 members are five blocks of 128, shared by two workers
    assert pools and min(pools) >= 2
    assert ("kernels.ensemble_positions", True) in calls
    assert [name for name, on_main in calls if not on_main] == []
