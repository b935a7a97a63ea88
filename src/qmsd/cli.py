"""Command-line front end: figure reproduction, CSV/SVG emission, metadata."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_basis, partition_function
from .closedforms import breve_closed, msd_collision_model, msd_ideal_curve
from .constants import (ANGSTROM_TO_M, CONST, J_TO_MEV, PhysicalSystem,
                        ValidationError, derive_scales, validate_grid)
from .exact import (breve_basis_sum, breve_sum, exact_params, msd_basis_curve,
                    msd_exact_curve)
from .montecarlo import sample_msd, sample_msd_rerandomized
from .output import config_hash, write_csv, write_json_meta
from .scattering import dsf, isf, isf_phase
from .svgplot import line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# config key -> (type, default, help). Each key is also the flag
# --<key with - for _>, which argparse parses with that type; the default of
# --grid is its command's
FLAGS = {
    "mass_u": (float, 28.0, "particle mass (u)"),
    "temperature_K": (float, 190.0, "temperature (K)"),
    "lattice_pm": (float, 256.0, "lattice constant a (pm)"),
    "n_cells": (int, 10, "super-cell length L in lattice constants"),
    "grid": (str, None, "{linear|geometric}:<start>:<stop>:<count>, in t_b units"),
    "alpha": (float, 0.35, "collision-model free flight, in units of L"),
    "funcs_per_cell": (int, 20, "plane waves per lattice cell of the basis"),
    "members": (int, 10000, "Monte-Carlo ensemble members"),
    "seed": (int, 42, "Monte-Carlo seed, >= 0"),
    "q_inv_angstrom": (float, 1.0, "momentum transfer wavenumber (1/Angstrom)"),
    "out": (str, "out", "output directory"),
    "formats": (str, "csv,svg,json-meta", "comma list of csv,svg,json-meta"),
}
# the particle on its super-cell
SYSTEM = ("mass_u", "temperature_K", "lattice_pm", "n_cells")
# figure2's own cells, in lattice constants
FIGURE2_CELLS = (10, 20, 40)
# command name -> its function, and -> {config key: default} of the flags it
# reads, in --help order; filled by @command
COMMANDS, READS = {}, {}

# family-wise false-alarm rate of the mc-verify gate: a correct program is
# refused with this probability over all of its grid points together
MC_GATE_FALSE_ALARM = 1e-3


class NumericalError(RuntimeError):
    """An internal numerical consistency assertion failed."""


def parse_grid(spec: str):
    """Parse '<linear|geometric>:<start>:<stop>:<count>' (times in t_b units)."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] not in ("linear", "geometric"):
        raise ValidationError(f"bad grid spec {spec!r}; "
                              "expected {linear|geometric}:<start>:<stop>:<count>")
    kind = parts[0]
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}: {exc}") from exc
    if not np.all(np.isfinite([start, stop])):
        raise ValidationError(f"bad grid spec {spec!r}: bounds must be finite")
    return kind, start, stop, count


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports the arguments it does not read itself."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# built on the first main call, not at import, and reused by every later
# call in the process: parse_args makes a fresh namespace on each call
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qmsd",
        description="Quantum MSD of a thermalized free particle: "
                    "closed forms, exact basis sums, Monte-Carlo checks "
                    "and figure reproduction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        flags = sub.add_parser(name, help=(command.__doc__ or "").split("\n")[0])
        for key, default in READS[name].items():
            kind, _, help_ = FLAGS[key]
            flags.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                               default=default, help=f"{help_} (default: {default})")
    return parser


class Run:
    """One CLI invocation: its command's flags, output directory and writers."""

    def __init__(self, args):
        self.cfg = cfg = {k: v for k, v in vars(args).items() if k != "command"}
        self.command = args.command
        self.formats = set(cfg["formats"].split(","))
        bad = self.formats - {"csv", "svg", "json-meta"}
        if bad:
            raise ValidationError(f"unknown output formats: {sorted(bad)}")
        cfg["formats"] = ",".join(sorted(self.formats))
        # presentation keys do not affect the numbers; keep them out of
        # the hash so re-runs into another directory stay byte-identical
        hashed = {k: v for k, v in cfg.items() if k not in ("out", "formats")}
        self.hash = config_hash({"command": self.command, **hashed})
        self.outdir = Path(cfg["out"])
        # figure2 reads no --n-cells: its base system serves only its ideal
        # curve, a^2 and t_b, none of which depends on L, and is its first cell
        self.system = PhysicalSystem.from_user_units(
            cfg["mass_u"], cfg["temperature_K"], cfg["lattice_pm"],
            cfg.get("n_cells", FIGURE2_CELLS[0]))
        self.scales = derive_scales(self.system)
        # file writes wait here until the command returns, so that a CSV
        # refused late in a command leaves no file from earlier ones
        self.pending = []

    def grid(self) -> np.ndarray:
        """The times (s) of --grid."""
        kind, start, stop, count = parse_grid(self.cfg["grid"])
        start, stop = start * self.scales.t_b, stop * self.scales.t_b
        if count < 1:
            raise ValidationError("grid count must be >= 1")
        if not np.all(np.isfinite([start, stop])):
            raise ValidationError(f"grid endpoints must be finite, got {start} and {stop}")
        if kind == "linear":
            return validate_grid(np.linspace(start, stop, count))
        if start <= 0 or stop <= 0:
            raise ValidationError("geometric grid requires positive endpoints")
        return validate_grid(np.geomspace(start, stop, count))

    def csv(self, name, header, columns):
        for col_name, col in zip(header, columns):
            if not np.all(np.isfinite(np.asarray(col, dtype=float))):
                raise NumericalError(f"non-finite values in column {col_name!r} "
                                     f"of {name}; no file written")
        if "csv" in self.formats:
            self.pending.append(lambda: write_csv(self.outdir / name, header, columns,
                                                  self.hash))

    def msd_csv(self, name, times, values, **style):
        """Write an MSD curve (m^2) at times (s), also in units of t_b and
        a^2, and return it in those units as a plot series."""
        x = times / self.scales.t_b
        y = values / self.system.lattice_a**2
        self.csv(name, ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"], [times, x, values, y])
        return {"x": x, "y": y, **style}

    def svg(self, name, series, xlabel="t / t_b", ylabel="MSD / a^2", **kw):
        if "svg" in self.formats:
            text = line_plot(series, xlabel=xlabel, ylabel=ylabel, **kw)
            self.pending.append(lambda: (self.outdir / name).write_bytes(text.encode()))

    def meta(self, name, extra):
        if "json-meta" in self.formats:
            payload = {"command": self.command, "config": self.cfg, "version": __version__, **extra}
            self.pending.append(lambda: write_json_meta(self.outdir / name, payload,
                                                        self.hash))

    def flush(self):
        """Make the output directory, then write the queued files in order."""
        if self.pending:
            self.outdir.mkdir(parents=True, exist_ok=True)
        for write in self.pending:
            write()
        self.pending.clear()


def command(name: str, *keys: str, **defaults):
    """Register a command that reads the flags of keys at their FLAGS
    defaults, those of defaults at the defaults given, and --out and --formats."""
    def register(fn):
        COMMANDS[name] = fn
        READS[name] = {key: defaults.get(key, FLAGS[key][1])
                       for key in (*keys, *defaults, "out", "formats")}
        return fn
    return register


@command("scales", *SYSTEM)
def cmd_scales(run: Run):
    """Derived characteristic scales."""
    s = run.scales
    run.csv("scales.csv",
            ["beta_per_J", "t_b_s", "t_c_s", "v_T_m_per_s",
             "lambda_T_m", "D_q_m2_per_s", "Q_approx"],
            [[s.beta], [s.t_b], [s.t_c], [s.v_T], [s.lambda_T], [s.D_q], [s.Q_approx]])
    run.meta("scales.json", {"scales": vars(s)})
    for k, v in vars(s).items():
        print(f"{k:10s} = {v:.6e}")


@command("ideal", *SYSTEM, grid="geometric:0.01:100:512")
def cmd_ideal(run: Run):
    """Closed-form ideal MSD curve."""
    grid = run.grid()
    series = run.msd_csv("ideal.csv", grid, msd_ideal_curve(run.system, grid), label="ideal")
    run.svg("ideal.svg", [series], xscale="log", yscale="log", title="Ideal-particle MSD")
    run.meta("ideal.json", {"method": "ideal-analytic", "points": int(grid.size)})


@command("exact", *SYSTEM, grid="linear:0:30:300")
def cmd_exact(run: Run):
    """Exact coherent double-sum MSD curve."""
    grid = run.grid()
    series = run.msd_csv("exact.csv", grid, msd_exact_curve(run.system, grid),
                         label=f"exact sum, L={run.system.n_cells}a")
    run.svg("exact.svg", [series], title="Exact coherent MSD")
    run.meta("exact.json", {"method": "exact-sum", "params": exact_params(run.system)})


@command("breve", *SYSTEM)
def cmd_breve(run: Run):
    """Decohered plateau: exact sum and closed form."""
    bs = breve_sum(run.system)
    bc = breve_closed(run.system)
    a2 = run.system.lattice_a**2
    run.csv("breve.csv",
            ["breve_sum_m2", "breve_closed_m2", "breve_sum_over_a2",
             "breve_closed_over_a2"],
            [[bs], [bc], [bs / a2], [bc / a2]])
    run.meta("breve.json", {"breve_sum_m2": bs, "breve_closed_m2": bc,
                            "params": exact_params(run.system)})
    print(f"breve_sum    = {bs:.6e} m^2 = {bs/a2:.4f} a^2")
    print(f"breve_closed = {bc:.6e} m^2 = {bc/a2:.4f} a^2")


@command("collision", *SYSTEM, "alpha", grid="linear:0:30:300")
def cmd_collision(run: Run):
    """Velocity-averaged collision-model curve."""
    grid = run.grid()
    series = run.msd_csv("collision.csv", grid,
                         msd_collision_model(run.system, run.cfg["alpha"], grid),
                         label=f"collision model, alpha={run.cfg['alpha']}")
    run.svg("collision.svg", [series], title="Collision-model MSD")
    run.meta("collision.json", {"alpha": run.cfg["alpha"]})


def _mc_gate(mean, stderr, exact) -> tuple[float, float]:
    """(max |z|, z*) of a Monte-Carlo curve against the exact sum.

    z = (mean - exact) / stderr per point. Refusing when max |z| > z* =
    Phi^-1(1 - alpha / 2n) over n points refuses a correct estimate with
    probability at most alpha when each z is standard normal (Bonferroni,
    alpha = MC_GATE_FALSE_ALARM). A point with zero stderr (t = 0)
    has z = 0 when the two agree exactly and infinite z otherwise.
    """
    # imported here: statistics loads decimal and fractions, which only
    # mc-verify needs (about 4 ms and 0.4 MiB at start-up otherwise)
    from statistics import NormalDist
    diff = np.abs(mean - exact)
    z = np.zeros_like(diff)
    moved = diff != 0.0
    with np.errstate(divide="ignore"):
        z[moved] = diff[moved] / stderr[moved]
    z_star = NormalDist().inv_cdf(1.0 - MC_GATE_FALSE_ALARM / (2 * np.size(z)))
    return float(np.max(z)), z_star


@command("mc-verify", *SYSTEM, "funcs_per_cell", "members", "seed", grid="linear:1:20:20")
def cmd_mc_verify(run: Run):
    """Monte-Carlo random-phase oracle vs exact sum."""
    grid = run.grid()
    # truncated on purpose (K = 201): the estimate and exact column share it
    basis = build_basis(run.system, run.cfg["funcs_per_cell"])
    res = sample_msd(basis, grid, run.cfg["members"], run.cfg["seed"])
    exact = msd_basis_curve(basis, grid)
    max_z, z_star = _mc_gate(res.mean_msd, res.stderr, exact)
    if not max_z <= z_star:  # a NaN z refuses too
        raise NumericalError(
            f"Monte-Carlo estimate departs from the exact sum: max |z| = "
            f"{max_z:.2f} over {grid.size} points exceeds z* = {z_star:.2f} "
            f"(family-wise false-alarm rate {MC_GATE_FALSE_ALARM:g})")
    est, err, t_used = sample_msd_rerandomized(basis, res)
    bs = breve_basis_sum(basis)
    run.csv("mc_verify.csv",
            ["t_s", "t_over_tb", "mc_msd_m2", "mc_stderr_m2", "exact_msd_m2"],
            [grid, grid / run.scales.t_b, res.mean_msd, res.stderr, exact])
    run.meta("mc_verify.json", {
        "K": basis.K, "Q": partition_function(basis), "edge_weight": float(basis.w[0]),
        "weight_floor": basis.weight_floor, "members": res.n_members, "seed": res.seed,
        "rerandomized_estimate_m2": est, "rerandomized_stderr_m2": err,
        "rerandomized_t_s": t_used, "breve_sum_m2": bs, "max_abs_z": max_z,
        "gate_z": z_star, "gate_false_alarm": MC_GATE_FALSE_ALARM})
    print(f"MC vs exact: max |z| = {max_z:.2f} over {grid.size} points, "
          f"below z* = {z_star:.2f} (family-wise false-alarm rate "
          f"{MC_GATE_FALSE_ALARM:g})")
    print(f"rerandomized plateau = {est:.4e} +- {err:.1e} m^2 "
          f"(breve_sum = {bs:.4e} m^2)")


@command("scattering", *SYSTEM, "q_inv_angstrom", grid="linear:0:10:256")
def cmd_scattering(run: Run):
    """ISF, ISF phase and DSF slices."""
    s = run.scales
    q = float(run.cfg["q_inv_angstrom"]) / ANGSTROM_TO_M
    grid = run.grid()
    # isf refuses a bad q before omega0 is formed
    amp = np.abs(isf(run.system, q, grid))
    phase = isf_phase(run.system, q, grid)
    omega0 = s.D_q * q * q
    width = s.v_T * abs(q)
    omegas = np.linspace(omega0 - 5 * width, omega0 + 5 * width, 256)
    # at a huge q (or a tiny mass) the spacing of the doubles near omega0
    # exceeds the window's step, and the window cannot resolve the width
    if not np.all(np.diff(omegas) > 0):
        raise ValidationError(
            f"the DSF window omega0 +- 5 v_T|q| is not strictly increasing: "
            f"q = {q!r} 1/m, omega0 = {omega0!r} 1/s, width v_T|q| = {width!r} 1/s")
    svals = dsf(run.system, q, omegas)
    run.csv("isf.csv", ["t_s", "isf_amplitude", "isf_phase_rad"],
            [grid, amp, phase])
    run.csv("dsf.csv", ["omega_per_s", "hbar_omega_meV", "dsf_s"],
            [omegas, CONST.hbar * omegas * J_TO_MEV, svals])
    run.svg("isf.svg",
            [{"x": grid / s.t_b, "y": amp, "label": "|ISF|"},
             {"x": grid / s.t_b, "y": phase, "label": "phase (rad)", "dash": "6 3"}],
            ylabel="", title=f"ISF, q = {run.cfg['q_inv_angstrom']} 1/A")
    run.svg("dsf.svg",
            [{"x": CONST.hbar * omegas * J_TO_MEV, "y": svals, "label": "DSF"}],
            xlabel="hbar omega (meV)", ylabel="S(q, omega) (s)", title="DSF")
    run.meta("scattering.json", {
        "q_per_m": q, "recoil_energy_meV": CONST.hbar * omega0 * J_TO_MEV,
        "dsf_fwhm_meV": 2.0 * np.sqrt(2.0 * np.log(2.0)) * CONST.hbar * width * J_TO_MEV})


@command("figure1", *SYSTEM, grid="linear:0:10:512")
def cmd_figure1(run: Run):
    """Ideal-particle MSD crossover figure."""
    s = run.scales
    grid = run.grid()
    unit = CONST.hbar * s.t_b / run.system.mass  # MSD unit hbar t_b / m
    msd = msd_ideal_curve(run.system, grid) / unit
    asym = 2.0 * s.D_q * grid
    run.csv("figure1.csv",
            ["t_over_tb", "msd_over_hbar_tb_per_m", "asymptote_over_hbar_tb_per_m"],
            [grid / s.t_b, msd, asym / unit])
    series = [
        {"x": grid / s.t_b, "y": msd, "label": "ideal MSD"},
        {"x": grid / s.t_b, "y": asym / unit, "label": "2 D_q t", "dash": "6 3"},
        {"x": np.array([1.0, 1.0]),
         "y": np.array([0.0, float(np.max(asym / unit))]),
         "label": "t = t_b", "dash": "2 3", "color": "#808080"},
    ]
    run.svg("figure1.svg", series, ylabel="MSD / (hbar t_b / m)",
            title="Ideal-particle MSD: ballistic to Brownian crossover")
    run.meta("figure1.json", {"points": int(grid.size)})


@command("figure2", *SYSTEM[:3], "alpha", grid="linear:0:30:300")
def cmd_figure2(run: Run):
    """Quasi-ideal plateaus figure (L = 10a, 20a, 40a)."""
    a2 = run.system.lattice_a**2
    grid = run.grid()
    series = []
    plateaus = {}
    for n_cells, dash in zip(FIGURE2_CELLS, ("8 4", "3 3", "8 3 3 3")):
        system = replace(run.system, n_cells=n_cells)
        series.append(run.msd_csv(f"figure2_exact_L{n_cells}a.csv", grid,
                                  msd_exact_curve(system, grid),
                                  label=f"exact, L={n_cells}a", color="#000000", dash=dash))
        series.append(run.msd_csv(f"figure2_collision_L{n_cells}a.csv", grid,
                                  msd_collision_model(system, run.cfg["alpha"], grid),
                                  label=f"model, L={n_cells}a", color="#c02020", dash=dash))
        plateaus[f"L={n_cells}a"] = {
            "breve_sum_over_a2": breve_sum(system) / a2,
            "breve_closed_over_a2": breve_closed(system) / a2, "params": exact_params(system)}
    series.insert(0, run.msd_csv("figure2_ideal.csv", grid,
                                 msd_ideal_curve(run.system, grid),
                                 label="ideal", color="#2050c0"))
    run.csv("figure2_breve.csv",
            ["n_cells", "breve_sum_over_a2", "breve_closed_over_a2"],
            [FIGURE2_CELLS,
             [p["breve_sum_over_a2"] for p in plateaus.values()],
             [p["breve_closed_over_a2"] for p in plateaus.values()]])
    run.svg("figure2.svg", series, title="Quasi-ideal MSD plateaus (CO on flat Cu(100))")
    run.meta("figure2.json", {"alpha": float(run.cfg["alpha"]), "plateaus": plateaus})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = Run(args)
        COMMANDS[args.command](run)
        run.flush()
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical assertion failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
