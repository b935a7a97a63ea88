"""Print the SHA-256 of every CSV and SVG the CLI commands write.

Usage: python benchmarks/csv_digests.py

It imports qmsd from the ``src`` of the checkout it belongs to, ahead of
any other qmsd on the path, so that each checkout digests its own code.

Runs each command of ``qmsd.cli.COMMANDS``, in its order, in-process
(``qmsd.cli.main``) with ``--formats csv,svg --no-timestamp``, once at
the defaults and once at a non-default configuration, each into a fresh
temporary directory. A third configuration runs ``exact`` and
``figure2`` alone on 0..24 000 t_b, which crosses the L = 10a revival at
about 11 439 t_b, so that the theta series' revival images are in the
digests. For each CSV, then each SVG, it prints one line:

    <config> <file> <sha256 of the file> <sha256 of the body>

where the body is the file without its first line, which in a CSV is the
config hash. Two checkouts write the same numbers when their outputs agree
line for line; the body digest tells a changed hash from changed numbers.

BLAS is pinned to one thread before numpy is imported: the Monte-Carlo
ensemble GEMM splits its sums differently across threads, so
``mc_verify.csv`` would otherwise depend on the host's thread count.
Needs numpy only.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qmsd.cli import COMMANDS, main  # noqa: E402  (after the BLAS pin)

# label -> (commands, flags)
CONFIGS = {
    "defaults": (COMMANDS, []),
    "custom": (COMMANDS, ["--n-cells", "20", "--temperature-K", "300", "--alpha", "0.5",
                          "--funcs-per-cell", "60", "--grid", "linear:0.5:12:17",
                          "--members", "3000", "--seed", "7", "--q-inv-angstrom", "2.0"]),
    "revival": (("exact", "figure2"), ["--grid", "linear:0:24000:49"]),
}


def digests(outdir: Path):
    """(file name, file digest, body digest) of each CSV, then each SVG, in outdir."""
    for path in [*sorted(outdir.glob("*.csv")), *sorted(outdir.glob("*.svg"))]:
        data = path.read_bytes()
        body = data.split(b"\n", 1)[1]
        yield (path.name, hashlib.sha256(data).hexdigest(),
               hashlib.sha256(body).hexdigest())


def run(command: str, flags: list[str], outdir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main([command, "--formats", "csv,svg", "--no-timestamp",
                     "--out", str(outdir), *flags])


if __name__ == "__main__":
    failed = 0
    for label, (commands, flags) in CONFIGS.items():
        for command in commands:
            with tempfile.TemporaryDirectory() as tmp:
                rc = run(command, flags, Path(tmp))
                if rc != 0:
                    print(f"{label} {command} exit {rc}", file=sys.stderr)
                    failed += 1
                for name, file_sha, body_sha in digests(Path(tmp)):
                    print(f"{label} {name} {file_sha} {body_sha}", flush=True)
    sys.exit(1 if failed else 0)
