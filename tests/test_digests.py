"""Byte identity as a tier-1 check: the digest of every artifact that
benchmarks/csv_digests.py's configurations write, against the committed
benchmarks/digests.txt.

The script is loaded from its file and runs in-process with numpy's
OpenBLAS held at one thread. A change that moves bytes on purpose
re-records the file (``python benchmarks/csv_digests.py >
benchmarks/digests.txt``) and names each moved line in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

from qmsd.montecarlo import _one_blas_thread

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("csv_digests", BENCHMARKS / "csv_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_artifact_keeps_its_digest(script):
    lines = (BENCHMARKS / "digests.txt").read_text().splitlines()
    header = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    want = [line for line in lines if not line.startswith("# ")]
    # a different numpy, BLAS, machine or float format is not a program change
    env = script.environment()
    assert sorted(header) == sorted(env)
    for field, value in env.items():
        assert value == header[field], f"environment field {field!r} differs from digests.txt"
    with _one_blas_thread():
        got = list(script.digest_lines())
    if got == want:
        return
    # each line starts "<config> <file>" ("<config> <command>" for an exit line)
    want_by, got_by = ({tuple(line.split()[:2]): line for line in side} for side in (want, got))
    report = [f"moved: {' '.join(key)}\n  want {line}\n  got  {got_by[key]}"
              for key, line in want_by.items() if key in got_by and got_by[key] != line]
    report += [f"missing: {line}" for key, line in want_by.items() if key not in got_by]
    report += [f"extra: {line}" for key, line in got_by.items() if key not in want_by]
    pytest.fail(f"{len(report)} of the {len(want)} digest lines differ:\n" + "\n".join(report)
                if report else "the digest lines are the same but in another order")
