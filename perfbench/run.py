"""qmsd benchmark: three workloads through ``qmsd.cli.main``, end to end
and per module.

Run from the root of a qmsd checkout:

    python3 perfbench/run.py --workload figure2 --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, each op starts when the last ends):
  figure2    ``qmsd figure2`` physics at its defaults on a 30-point grid;
             the coherent pair reduction dominates.
  mc-verify  ``qmsd mc-verify`` at its defaults, its --seed drawn from ours;
             Monte-Carlo phases and the BLAS ensemble kernel dominate.
  cli-light  the six light commands in a seed-drawn order per pass, with
             csv,svg,json-meta output; CLI, writers and closed forms.

The timed body runs in a fresh process, so that its peak RSS belongs to
this run. Between its passes that process samples set-up (interpreter
start, numpy and qmsd import, input generation) in further fresh
processes, spread over the body. Outputs are checked against plain-numpy
references (oracle.py) after the body. ``--trace 1`` runs untraced and
traced passes alternately and reports the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones.

End-to-end metrics (untraced run):
  setup_s       median time from process start to the first timed op
  run_s         wall time of one pass of the timed body
  op_p50_ms     median latency of one qmsd.cli.main call
  op_p90_ms     90th percentile of the same
  peak_rss_mib  peak resident memory of the process that ran the body
A shared host's speed drifts by a third within seconds to minutes, and
every timing with it. So the worker also times a fixed calibration that
uses no qmsd code between its passes (worker.Calibration), and timings
are scaled to a reference host speed:
  figure2, mc-verify  ops last seconds. run_s is the mean pass time and
                      the percentiles run over all ops; all are scaled by
                      CAL_REF_S / the run's mean calibration time.
  cli-light           ops last milliseconds (QUIET). Only the fastest
                      QUIET_SHARE of each command's ops count: run_s sums
                      their mean over the commands, and the percentiles
                      run over them pooled. All are scaled by
                      CAL_QUIET_REF_S / the mean of the fastest
                      QUIET_SHARE of the calibrations.
  set-ups             each is scaled by CAL_REF_S / the median calibration
                      time within SCALE_WINDOW_S of it.
The unscaled figures are printed too.
The fail ratio (failed / attempted ops) is printed with its base and
carried by the ``failed`` and ``attempted`` fields of the result; it is
0 on a correct program, so it is not a bounded metric.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric with its unit, the
sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from worker import WORKLOADS  # noqa: E402

WORKER = HERE / "worker.py"
OUT_ROOT = Path(".perfbench_out")
DEADLINE_S = 170.0
# set-up samples the worker takes in fresh processes between its passes;
# with the worker's own set-up, setup_s is the median of SETUP_PROBES + 1
SETUP_PROBES = 16
# One BLAS thread: mc-verify spreads by about 10 % run to run with two
# threads on a 2-core machine and by about 1 % with one.
BLAS_THREADS = 1
ORACLE_POINTS = 3   # figure2 time points checked per L
ORACLE_TOL = 1e-12  # relative, direct sum vs program
PLATEAU_TARGETS = {10: 0.11, 20: 0.22, 40: 0.44}  # acceptance criterion 1, in a^2
PLATEAU_TOL = 0.05
# the calibration's mean time on the baseline host (BASELINE.md); timings
# are reported at the host speed at which it takes this long
CAL_REF_S = 0.0018
# the mean of the fastest QUIET_SHARE of the calibrations on that host
CAL_QUIET_REF_S = 0.0013
# calibrations within this many seconds of a set-up give its scale
SCALE_WINDOW_S = 1.0
# Workloads timed at the host's quiet speed. The host switches between a
# fast and a slow state for seconds at a time, and the share of each
# changes from run to run. Ops that last milliseconds see one state, so
# only the fastest QUIET_SHARE of each command's ops count (BASELINE.md).
QUIET = ("cli-light",)
QUIET_SHARE = 0.1
MC_GATE_MESSAGE = "Monte-Carlo estimate departs from the exact sum"
MC_GATE_Z = 3.0
# The 3-stderr gate refuses a correct program for about 1 op in 30 (14 of
# 387 ops over seeds 0-59 and forty baseline runs). A run may have as many
# refusals as Binomial(ops, MC_GATE_RATE) exceeds with probability at most
# MC_GATE_TAIL: 3 of 8 or 10 ops, 5 of 20. More than that is not chance.
MC_GATE_RATE = 0.05
MC_GATE_TAIL = 0.002
# CSVs each cli-light command must write, non-empty
LIGHT_CSVS = {"scales": ("scales.csv",), "ideal": ("ideal.csv",), "breve": ("breve.csv",),
              "collision": ("collision.csv",), "scattering": ("isf.csv", "dsf.csv"),
              "figure1": ("figure1.csv",)}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(argv: list[str], env: dict, deadline: float):
    """Run one worker process; return (set-up seconds, result or None)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(ln.split()[1]) for ln in lines if ln.startswith("ready ")]
    if not ready:
        raise BenchError("worker never reported ready")
    results = [json.loads(ln[len("result "):]) for ln in lines if ln.startswith("result ")]
    return ready[0] - t0, (results[0] if results else None)


def gate_allowance(n_ops: int) -> int:
    """Most mc-verify gate refusals a correct program shows in n_ops ops."""
    cdf = 0.0
    for k in range(n_ops + 1):
        cdf += math.comb(n_ops, k) * MC_GATE_RATE**k * (1 - MC_GATE_RATE)**(n_ops - k)
        if 1.0 - cdf <= MC_GATE_TAIL:
            break
    return min(k, n_ops - 1)  # and never every op


class Checks:
    """Per-op correctness verdicts. A failure is counted, never retried."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.failures = []    # (op index, reason)
        self.gate_refusals = []  # op indices refused by the 3-stderr gate
        self.refused_z = {}   # op index -> max |z| against the reference sum
        self.mc_ops = 0
        self.max_rel_dev = 0.0
        self.max_z = 0.0
        self._rows = None  # figure2 grid rows checked, drawn once per run
        self._cache = {}

    def fail(self, index, reason):
        self.failures.append((index, reason))

    def _oracle(self, n_cells, fpc, times):
        key = (n_cells, fpc, tuple(times))
        if key not in self._cache:
            self._cache[key] = oracle.direct_sums(n_cells, fpc, times)
        return self._cache[key]

    def _against_oracle(self, got, want):
        dev = oracle.rel_dev(got, want)
        self.max_rel_dev = max(self.max_rel_dev, dev)
        return dev <= ORACLE_TOL, dev

    def figure2(self, index, out: Path):
        plateaus = {}
        for n_cells in PLATEAU_TARGETS:
            cols = oracle.read_csv(out / f"figure2_exact_L{n_cells}a.csv")
            if self._rows is None:  # t = 0 has MSD 0, so skip row 0
                self._rows = np.sort(self.rng.choice(
                    np.arange(1, cols["t_s"].size), ORACLE_POINTS, replace=False))
            times = cols["t_s"][self._rows]
            want, plateaus[n_cells] = self._oracle(n_cells, 100, times)
            ok, dev = self._against_oracle(cols["msd_m2"][self._rows], want)
            if not ok:
                self.fail(index, f"L={n_cells}a exact MSD off the direct sum by {dev:.2e}")
        breve = oracle.read_csv(out / "figure2_breve.csv")
        for i, n_cells in enumerate(breve["n_cells"].astype(int)):
            ok, dev = self._against_oracle(breve["breve_sum_over_a2"][i],
                                           plateaus[n_cells] / oracle.LATTICE_M**2)
            if not ok:
                self.fail(index, f"L={n_cells}a breve_sum off the direct sum by {dev:.2e}")
            target = PLATEAU_TARGETS[n_cells]
            for col in ("breve_sum_over_a2", "breve_closed_over_a2"):
                if abs(breve[col][i] - target) > PLATEAU_TOL * target:
                    self.fail(index, f"L={n_cells}a {col} = {breve[col][i]:.4f}, "
                                     f"not within 5 % of {target}")

    def mc_verify(self, index, out: Path):
        cols = oracle.read_csv(out / "mc_verify.csv")
        want, _ = self._oracle(10, 20, cols["t_s"])
        ok, dev = self._against_oracle(cols["exact_msd_m2"], want)
        if not ok:
            self.fail(index, f"exact column off the direct sum by {dev:.2e}")

    def ensemble_z(self, ensembles) -> float:
        """Max |z| of the op's Monte-Carlo estimates against the reference sum.

        The traced run keeps each ``sample_msd`` result, also when the
        program's gate refuses it and writes no CSV.
        """
        z_max = 0.0
        for e in ensembles:
            want, _ = self._oracle(10, 20, e["t_s"])
            z = np.abs(np.asarray(e["mc_msd_m2"]) - want) / np.asarray(e["mc_stderr_m2"])
            z_max = max(z_max, float(z.max()))
        self.max_z = max(self.max_z, z_max)
        return z_max

    def gate_refusal(self, index, op):
        """Log an mc-verify op that the 3-stderr gate refused.

        A correct program is refused now and then (see MC_GATE_RATE). Where
        the estimate was kept, the refusal must agree with the reference sum.
        """
        self.gate_refusals.append(index)
        self.fail(index, f"mc-verify exited 4: {op['err'].strip()[-300:]}")
        if "ensembles" in op:
            z = self.refused_z[index] = self.ensemble_z(op["ensembles"])
            if z <= MC_GATE_Z:
                self.fail(index, f"gate refused an estimate within {MC_GATE_Z} "
                                 f"stderr of the reference sum (max |z| {z:.3f})")

    def cli_light(self, index, op, first_digest):
        command = op["command"]
        bad = [name for name in LIGHT_CSVS[command] if not op["csv_bytes"].get(name)]
        if bad:
            self.fail(index, f"{command} wrote no or an empty {', '.join(bad)}")
        want = first_digest.setdefault(command, op["csv_sha256"])
        if op["csv_sha256"] != want:
            self.fail(index, f"{command} CSVs differ from its first run")

    def run(self, workload: str, ops: list[dict]):
        first_digest = {}
        for index, op in enumerate(ops):
            if workload == "mc-verify":
                self.mc_ops += 1
                if op["rc"] == 0 and "ensembles" in op:
                    self.ensemble_z(op["ensembles"])
            if op["rc"] != 0:
                if workload == "mc-verify" and op["rc"] == 4 and MC_GATE_MESSAGE in op["err"]:
                    self.gate_refusal(index, op)
                else:
                    self.fail(index, f"{op['command']} exited {op['rc']}: "
                                     f"{op['err'].strip()[-300:]}")
            elif workload in ("figure2", "mc-verify"):
                check = self.figure2 if workload == "figure2" else self.mc_verify
                try:
                    check(index, Path(op["out"]))
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    self.fail(index, f"{op['command']} output unreadable: {exc!r}")
            else:
                self.cli_light(index, op, first_digest)

    @property
    def failed_ops(self) -> int:
        return len({index for index, _ in self.failures})

    @property
    def correct(self) -> bool:
        # each refusal is one failure; any other failure, or more refusals
        # than chance allows, means the program is wrong
        refused = len(self.gate_refusals)
        return (len(self.failures) == refused
                and (refused == 0 or refused <= gate_allowance(self.mc_ops)))


def calibration_s(result) -> float:
    """Mean time of the run's calibrations: the host's speed over the run."""
    return statistics.fmean(result["calibrations"])


def local_scale(result):
    """A function (t0, t1) -> CAL_REF_S / the host's calibration time then.

    That time is the median of the calibrations taken from SCALE_WINDOW_S
    before t0 to SCALE_WINDOW_S after t1 (seconds since the body began),
    or the nearest one if none falls there.
    """
    at = np.asarray(result["calibration_at"])
    cal = np.asarray(result["calibrations"])

    def scale(t0, t1):
        near = cal[(at >= t0 - SCALE_WINDOW_S) & (at <= t1 + SCALE_WINDOW_S)]
        if near.size == 0:
            near = cal[[np.argmin(np.abs(at - t0))]]
        return CAL_REF_S / float(np.median(near))
    return scale


def fastest(values) -> np.ndarray:
    """The fastest QUIET_SHARE of values, at least one."""
    v = np.sort(np.asarray(values))
    return v[:max(1, int(QUIET_SHARE * v.size))]


def end_to_end(workload, setup, result) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the unscaled timings behind them, and the
    latency scale and sample count they rest on."""
    ops = result["ops"]
    lat = np.array([op["s"] for op in ops])
    if workload in QUIET:
        # a pass runs each command once; its time is the sum of their quiet times
        commands = np.array([op["command"] for op in ops])
        quiet = [fastest(lat[commands == c]) for c in np.unique(commands)]
        pass_s = sum(q.mean() for q in quiet)
        lat = np.concatenate(quiet)
        lat_scale = CAL_QUIET_REF_S / fastest(result["calibrations"]).mean()
    else:
        # run_s is a mean: a stall in a pass is part of its cost
        pass_s = float(np.bincount([op["pass"] for op in ops], weights=lat).mean())
        lat_scale = CAL_REF_S / calibration_s(result)
    base = {"scale": lat_scale, "latencies": lat.size}
    # the worker's own set-up ended as the body began; the probes ran in it
    scale = local_scale(result)
    setups = np.array([setup, *result["setups"]])
    setup_scale = np.array([scale(-setup, 0.0)] + [scale(t, t + s) for t, s in
                                                   zip(result["setup_at"], result["setups"])])

    def timings(lat_scale, setup_scale):
        p50, p90 = np.percentile(lat * lat_scale * 1e3, [50, 90])
        return {"setup_s": float(np.median(setups * setup_scale)),
                "run_s": float(pass_s * lat_scale),
                "op_p50_ms": float(p50), "op_p90_ms": float(p90)}
    metrics = timings(lat_scale, setup_scale)
    metrics["peak_rss_mib"] = result["peak_rss_kib"] / 1024.0
    return metrics, timings(1.0, 1.0), base


def per_layer(result, checks: Checks) -> dict:
    metrics = dict(result["trace"]["metrics"])
    untraced = [p["s"] for p in result["passes"] if not p["traced"]]
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.fmean(untraced)
    metrics["exact.max_rel_dev"] = checks.max_rel_dev
    metrics["montecarlo.max_z"] = checks.max_z
    metrics["host.calibration_s"] = calibration_s(result)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if not Path("src/qmsd/__init__.py").is_file():
        raise BenchError("src/qmsd not found: run from the root of a qmsd checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(out)]
    if not args.trace:  # set-up is reported by the untraced run only
        worker_args += ["--probes", str(SETUP_PROBES)]
    try:
        setup, result = run_worker(worker_args, env, deadline)
        if result is None or not result["ops"]:
            raise BenchError("worker ran no operation")
        checks = Checks(args.seed)
        checks.run(args.workload, result["ops"])
    finally:
        shutil.rmtree(out, ignore_errors=True)

    raw = base = None
    if args.trace:
        metrics, names = per_layer(result, checks), spec["per_layer"]
    else:
        (metrics, raw, base), names = end_to_end(args.workload, setup, result), spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    report(args, result, checks, metrics, raw, base, names)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": len(result["ops"]),
        "failed": checks.failed_ops,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


def report(args, result, checks, metrics, raw, base, names):
    """Human-readable lines: every metric with unit, base counts, environment."""
    env = result["env"]
    ops = result["ops"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: nproc {os.cpu_count()}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} with {env['blas_threads']} thread(s), qmsd backend "
          f"{env['qmsd_backend']}, numba importable {env['numba_importable']}")
    for m in names:
        print(f"  {m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    cal = calibration_s(result)
    print(f"  host: {len(result['calibrations'])} calibrations, mean {cal * 1e3:.4f} ms "
          f"(reference {CAL_REF_S * 1e3:g} ms)")
    if not args.trace:
        print("  unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
              + f"; latency scale {base['scale']:.4f}")
        beyond = base["latencies"] - int(np.ceil(0.9 * base["latencies"]))
        print(f"  samples: {1 + len(result['setups'])} set-ups, {len(result['passes'])} passes, "
              f"{len(ops)} ops, {base['latencies']} timed "
              f"({'fastest share per command' if args.workload in QUIET else 'all'}), "
              f"{beyond} beyond p90"
              + ("" if beyond >= 10 else " (fewer than 10: p90 is indicative)"))
    else:
        t = result["trace"]
        selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"  {t['passes']} traced passes, {t['spans']} spans; module self "
              f"times {selfs:.6f} s + unattributed {metrics['trace.unattributed_s']:.6f} s "
              f"= traced run {metrics['trace.run_s']:.6f} s per pass")
    print(f"  fail_ratio {checks.failed_ops / len(ops):.6g} "
          f"({checks.failed_ops} failed / {len(ops)} attempted ops)")
    if args.workload == "mc-verify":
        print(f"  {len(checks.gate_refusals)} mc-verify gate refusals; at most "
              f"{gate_allowance(checks.mc_ops)} of {checks.mc_ops} ops are chance")
        for index in checks.gate_refusals:
            z = checks.refused_z.get(index)
            print(f"    op {index} refused: " + (f"max |z| {z:.3f} against the reference sum"
                  if z is not None else "max |z| not kept (untraced pass)"))
    for index, reason in checks.failures:
        print(f"  op {index} failed: {reason}", file=sys.stderr)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
