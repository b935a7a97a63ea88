"""Print the SHA-256 of every CSV, SVG and JSON meta the CLI commands write.

Usage: python benchmarks/csv_digests.py > benchmarks/digests.txt

It imports qmsd from the ``src`` of the checkout it belongs to, ahead of
any other qmsd on the path, so that each checkout digests its own code.
``tests/test_digests.py`` runs the same ``CONFIGS`` in-process and
compares its lines with the committed ``benchmarks/digests.txt``; a change
that moves bytes on purpose re-records that file with the command above.

It first prints one ``# <field>: <value>`` line for each field of the
environment that the bytes depend on: the numpy version, its BLAS build,
the machine and ``sys.float_info``. Then it runs each command of
``qmsd.cli.COMMANDS``, in its order, in-process (``qmsd.cli.main``) with
``--formats csv,svg,json-meta``, once at the defaults and once at a
non-default configuration, each into a fresh temporary directory. Each
command is given those of a configuration's flags that it reads
(``qmsd.cli.READS``), as it refuses any other: in the ``custom``
configuration ``--funcs-per-cell 60``, ``--members`` and ``--seed`` go to
``mc-verify`` alone, and ``--n-cells`` to every command but ``figure2``,
which sets its own cells. A third configuration runs ``exact`` and
``figure2`` alone on 0..24 000 t_b, which crosses the L = 10a revival at
about 11 439 t_b, so that the theta series' revival images are in the
digests. A fourth runs the same two at 5e-5 K, where each cell sums its
converged basis of 2M + 1 = 5 states directly: on L = 10a w(n = 1)
underflows and the weight floor is 0, and on 20a and 40a the floor is
above 0 and drops n = +-2, so that both sides of the direct path's
pruning are in the digests. For each CSV, then each SVG, it prints one
line:

    <config> <file> <sha256 of the file> <sha256 of the body>

where the body is the file without its first line, which in a CSV is the
config hash. Two checkouts write the same numbers when their outputs agree
line for line; the body digest tells a changed hash from changed numbers.
Then, for each JSON meta, it prints

    <config> <file> <sha256 of the meta without config.out>

as the output directory, a fresh one per run, is the one field that
changes between runs. A command that exits non-zero prints
``<config> <command> exit <code>`` first, and the script exits 1.

Run as a script, it pins BLAS to one thread before numpy is imported;
the test holds numpy's OpenBLAS at one thread instead. The Monte-Carlo
kernel holds BLAS at one thread itself, but other BLAS calls, such as
the theta series' ``g @ bracket``, are not held, and their sums may split
differently across threads. Needs numpy only.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (after the BLAS pin)
from qmsd.cli import COMMANDS, READS, main  # noqa: E402

# label -> (commands, {config key: flag value}); a command is given the
# flags of the keys it reads
CONFIGS = {
    "defaults": (COMMANDS, {}),
    "custom": (COMMANDS, {"n_cells": "20", "temperature_K": "300", "alpha": "0.5",
                          "funcs_per_cell": "60", "grid": "linear:0.5:12:17",
                          "members": "3000", "seed": "7", "q_inv_angstrom": "2.0"}),
    "revival": (("exact", "figure2"), {"grid": "linear:0:24000:49"}),
    "cold": (("exact", "figure2"), {"temperature_K": "5e-5", "grid": "linear:0:30:7"}),
}


def environment() -> dict:
    """The fields of the environment that the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(), "float_info": repr(sys.float_info)}


def digests(outdir: Path):
    """(file name, file digest, body digest) of each CSV, then each SVG, then
    (file name, digest without config.out) of each JSON meta, in outdir."""
    for path in [*sorted(outdir.glob("*.csv")), *sorted(outdir.glob("*.svg"))]:
        data = path.read_bytes()
        body = data.split(b"\n", 1)[1]
        yield (path.name, hashlib.sha256(data).hexdigest(),
               hashlib.sha256(body).hexdigest())
    for path in sorted(outdir.glob("*.json")):
        meta = json.loads(path.read_text())
        del meta["config"]["out"]
        text = json.dumps(meta, indent=2, sort_keys=True)
        yield path.name, hashlib.sha256(text.encode()).hexdigest()


def run(command: str, flags: dict, outdir: Path) -> int:
    """Run command with those of flags that it reads."""
    argv = [command, "--formats", "csv,svg,json-meta", "--out", str(outdir)]
    for key, value in flags.items():
        if key in READS[command]:
            argv += ["--" + key.replace("_", "-"), value]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def digest_lines():
    """Each line after the header, for every command of every configuration."""
    for label, (commands, flags) in CONFIGS.items():
        for command in commands:
            with tempfile.TemporaryDirectory() as tmp:
                rc = run(command, flags, Path(tmp))
                if rc != 0:
                    yield f"{label} {command} exit {rc}"
                for line in digests(Path(tmp)):
                    yield " ".join((label, *line))


if __name__ == "__main__":
    for field, value in environment().items():
        print(f"# {field}: {value}")
    failed = False
    for line in digest_lines():
        print(line, flush=True)
        failed |= line.split()[2] == "exit"
    sys.exit(1 if failed else 0)
