"""The benchmark's own argv (perfbench/worker.py) against the program.

Each workload's ops are ``qmsd.cli.main`` calls with the argv lists that
``passes`` yields. A flag the program stops accepting, or an op that
starts to fail, would otherwise show only as failed ops in a benchmark
run. The worker module is loaded from its file and not changed.
"""

import contextlib
import importlib.util
import io
import itertools
import shutil
from pathlib import Path

import pytest

from qmsd.cli import main

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
SEED = 1


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pass(argvs):
    """Exit codes of one pass; each op's directory is emptied first, as
    the worker does."""
    codes = []
    for argv in argvs:
        shutil.rmtree(argv[argv.index("--out") + 1], ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    return codes


@pytest.mark.parametrize("workload", ["figure2", "mc-verify", "cli-light"])
def test_first_pass_exits_zero(worker, tmp_path, workload):
    argvs = next(worker.passes(workload, SEED, str(tmp_path)))
    assert argvs
    assert run_pass(argvs) == [0] * len(argvs)


def test_cli_light_passes_write_the_same_csvs(worker, tmp_path):
    # the benchmark's own check: each command's CSVs equal its first run's
    records = []
    for argvs in itertools.islice(worker.passes("cli-light", SEED, str(tmp_path)), 2):
        assert run_pass(argvs) == [0] * len(argvs)
        records.append({argv[0]: worker.csv_record(argv[argv.index("--out") + 1])
                        for argv in argvs})
    assert sorted(records[0]) == sorted(worker.LIGHT_COMMANDS)
    assert all(sizes and all(sizes.values()) for _, sizes in records[0].values())
    assert records[0] == records[1]
