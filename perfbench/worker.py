"""One benchmark process: import qmsd, generate the inputs, time the ops.

Started by run.py with the checkout's ``src`` on PYTHONPATH and the BLAS
thread count fixed. It prints ``ready <monotonic time>`` once set-up is
done, then (unless ``--probe``) runs passes of CLI calls in a closed loop
for ``--seconds`` seconds and prints ``result <json>`` as its last line.
With ``--probes N`` it also starts N ``--probe`` copies of itself between
passes, spread over the body, and reports their set-up times. Before each
pass it times a fixed calibration that uses no qmsd code, so that run.py
can tell the program's speed from the host's.

A pass is the unit a user runs: one ``qmsd figure2``, one
``qmsd mc-verify``, or one cycle through the six light commands. An op is
one ``qmsd.cli.main`` call, timed around that call only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

FIGURE2_GRID = "linear:0:30:30"
LIGHT_COMMANDS = ("scales", "ideal", "breve", "collision", "scattering", "figure1")
WORKLOADS = ("figure2", "mc-verify", "cli-light")
# calibration time is kept at this share of the timed pass time
CAL_SHARE = 0.05


def passes(workload: str, seed: int, out: str):
    """Yield each pass as a list of argv lists, generated from the seed alone."""
    import numpy as np
    if workload == "figure2":
        for k in itertools.count():
            yield [["figure2", "--grid", FIGURE2_GRID, "--out", f"{out}/op{k}"]]
    elif workload == "mc-verify":
        for k in itertools.count():
            op_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            yield [["mc-verify", "--seed", str(op_seed), "--out", f"{out}/op{k}"]]
    else:
        rng = np.random.default_rng(seed)
        while True:
            yield [[str(cmd), "--formats", "csv,svg,json-meta", "--out", f"{out}/{cmd}"]
                   for cmd in rng.permutation(LIGHT_COMMANDS)]


def csv_record(outdir: str) -> tuple[str, dict]:
    """SHA-256 over the CSVs an op wrote, and each CSV's size in bytes."""
    h = hashlib.sha256()
    sizes = {}
    for path in sorted(Path(outdir).glob("*.csv")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        sizes[path.name] = len(data)
    return h.hexdigest(), sizes


def run_op(main, argv, tracer):
    """Call ``main(argv)``; return (exit code, start, seconds, stderr tail)."""
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.call("cli.main", main, (argv,))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op may crash; record it and keep measuring
            rc = -1
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    return rc, t0, dt, err.getvalue()[-800:]


class Calibration:
    """A fixed piece of work that uses no qmsd code, timed between passes.

    An interpreted arithmetic loop. On a shared host its time follows the
    host's speed, which drifts by a third within seconds to minutes. Tried
    between cli-light passes, it tracked them better than numpy ufunc,
    memory sweep or mixed loops did. Each sample records when it started,
    so that run.py can scale an op by the calibrations taken near it.
    """

    def __init__(self):
        self.samples = []   # seconds
        self.at = []        # perf_counter at each sample's start
        self.time()  # warm-up, not kept

    @staticmethod
    def time() -> tuple[float, float]:
        """(start, seconds) of one calibration."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        return t0, time.perf_counter() - t0

    def keep_up(self, pass_total: float):
        """Calibrate until calibration time is CAL_SHARE of pass time so far."""
        while not self.samples or sum(self.samples) < CAL_SHARE * pass_total:
            t0, dt = self.time()
            self.at.append(t0)
            self.samples.append(dt)


def probe_setup(args) -> float:
    """Seconds from starting a fresh worker to its ``ready`` line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", args.out,
            "--probe"]
    t0 = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(done.stdout.split()[1]) - t0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from qmsd.backend import backend_name
        backend = backend_name()
    except ImportError:
        backend = "numpy (no qmsd.backend module)"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "qmsd_backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up (used to sample set-up time)")
    ap.add_argument("--probes", type=int, default=0,
                    help="set-up samples to take in fresh processes between passes")
    args = ap.parse_args()
    proto = sys.stdout

    import numpy  # noqa: F401  (part of set-up: the program imports it)
    import qmsd.cli
    src = Path("src").resolve()
    if Path(qmsd.__file__).resolve().parent.parent != src:
        print(f"qmsd imported from {qmsd.__file__}, not from {src}", file=sys.stderr)
        return 2
    plan = passes(args.workload, args.seed, args.out)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    print(f"ready {time.monotonic():.9f}", file=proto, flush=True)
    if args.probe:
        return 0

    ops, pass_log, setups, setup_at = [], [], [], []
    calibration = Calibration()
    pass_total = 0.0
    start = time.perf_counter()
    for index, argvs in enumerate(plan):
        elapsed = time.perf_counter() - start
        # a trace run needs at least one untraced and one traced pass
        if elapsed >= args.seconds and index >= 1 + args.trace:
            break
        # set-up probes are spread over the body, outside any pass, so that
        # their median sees the machine at the speeds the passes saw
        while len(setups) < args.probes and elapsed >= len(setups) * args.seconds / args.probes:
            setup_at.append(time.perf_counter() - start)
            setups.append(probe_setup(args))
        calibration.keep_up(pass_total)
        # the trace run alternates untraced and traced passes, so both see
        # the same machine state; the difference is the tracing overhead
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        pass_time = 0.0
        for argv in argvs:
            out = argv[argv.index("--out") + 1]
            # cli-light reuses one directory per command: empty it, so that
            # the check sees only what this op wrote
            shutil.rmtree(out, ignore_errors=True)
            rc, t0, dt, err = run_op(qmsd.cli.main, argv, tracer if traced else None)
            pass_time += dt
            op = {"pass": index, "command": argv[0], "rc": rc, "s": dt, "err": err, "out": out,
                  "t": t0 - start}
            if args.workload == "cli-light":
                op["csv_sha256"], op["csv_bytes"] = csv_record(out)
            if traced and tracer.ensembles:
                op["ensembles"] = tracer.ensembles[:]
                tracer.ensembles.clear()
            ops.append(op)
        if traced:
            tracer.uninstall()
            tracer.end_pass(pass_time)
        pass_total += pass_time
        pass_log.append({"index": index, "traced": traced, "s": pass_time})
    calibration.keep_up(pass_total)
    while len(setups) < args.probes:
        setup_at.append(time.perf_counter() - start)
        setups.append(probe_setup(args))
    result = {
        "ops": ops,
        "passes": pass_log,
        "setups": setups,
        "setup_at": setup_at,
        "calibrations": calibration.samples,
        "calibration_at": [t - start for t in calibration.at],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
        "trace": tracer.summary() if tracer else None,
    }
    if tracer:
        out = Path(args.out)
        tracer.write_spans(out.parent / f"spans-{args.workload}-seed{args.seed}.csv")
    print("result " + json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
