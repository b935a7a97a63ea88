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

from qmsd.kernels import _one_blas_thread

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
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i + 1} of the digests moved:\n  want {w}\n  got  {g}"
    assert len(got) == len(want)
