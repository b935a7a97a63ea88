"""Command-line front end: figure reproduction, CSV/SVG emission, metadata."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_basis, partition_function
from .closedforms import CollisionModelParams, breve_closed, msd_collision_model
from .constants import (ANGSTROM_TO_M, CONST, J_TO_MEV, PhysicalSystem,
                        ValidationError, derive_scales)
from .curves import geometric_grid, linear_grid
from .exact import breve_sum, msd_exact_curve
from .ideal import IdealMsdParams, msd_ideal_curve
from .montecarlo import sample_msd, sample_msd_rerandomized
from .output import config_hash, write_csv, write_json_meta
from .scattering import ScatteringParams, dsf, isf, isf_phase
from .svgplot import line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

DEFAULTS = {
    "mass_u": 28.0,
    "temperature_K": 190.0,
    "lattice_pm": 256.0,
    "n_cells": 10,
    "dimensionality": 1,
    "funcs_per_cell": 100,
    "alpha": 0.35,
    "members": 10000,
    "seed": 42,
    "grid": None,
    "out": "out",
    "formats": "csv,svg,json-meta",
    "no_timestamp": False,
    "q_inv_angstrom": 1.0,
}

# config keys that must hold whole numbers; int() would truncate 10.7 to 10
INTEGER_KEYS = ("n_cells", "dimensionality", "funcs_per_cell", "members", "seed")
# config keys that must hold real numbers (a JSON string or bool is refused)
FLOAT_KEYS = ("mass_u", "temperature_K", "lattice_pm", "alpha", "q_inv_angstrom")

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
    return kind, start, stop, count


def make_grid(spec, t_b, default_spec):
    kind, start, stop, count = parse_grid(spec if spec else default_spec)
    fn = linear_grid if kind == "linear" else geometric_grid
    return fn(start * t_b, stop * t_b, count)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qmsd",
        description="Quantum MSD of a thermalized free particle: "
                    "closed forms, exact basis sums, Monte-Carlo checks "
                    "and figure reproduction.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="flat JSON config file")
    common.add_argument("--mass-u", type=float, dest="mass_u")
    common.add_argument("--temperature-K", type=float, dest="temperature_K")
    common.add_argument("--lattice-pm", type=float, dest="lattice_pm")
    common.add_argument("--n-cells", type=int, dest="n_cells")
    common.add_argument("--dimensionality", type=int, dest="dimensionality")
    common.add_argument("--funcs-per-cell", type=int, dest="funcs_per_cell")
    common.add_argument("--alpha", type=float, dest="alpha")
    common.add_argument("--members", type=int, dest="members")
    common.add_argument("--seed", type=int, dest="seed")
    common.add_argument("--grid", type=str, dest="grid",
                        help="{linear|geometric}:<start>:<stop>:<count>, in t_b units")
    common.add_argument("--out", type=str, dest="out")
    common.add_argument("--formats", type=str, dest="formats",
                        help="comma list of csv,svg,json-meta")
    common.add_argument("--no-timestamp", action="store_const", const=True,
                        dest="no_timestamp")
    common.add_argument("--q-inv-angstrom", type=float, dest="q_inv_angstrom",
                        help="momentum transfer wavenumber (1/Angstrom)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("scales", "derived characteristic scales"),
        ("ideal", "closed-form ideal MSD curve"),
        ("exact", "exact coherent double-sum MSD curve"),
        ("breve", "decohered plateau: direct sum and closed form"),
        ("collision", "velocity-averaged collision-model curve"),
        ("mc-verify", "Monte-Carlo random-phase oracle vs exact sum"),
        ("scattering", "ISF, ISF phase and DSF slices"),
        ("figure1", "ideal-particle MSD crossover figure"),
        ("figure2", "quasi-ideal plateaus figure (L = 10a, 20a, 40a)"),
    ]:
        sub.add_parser(name, parents=[common], help=help_)
    return parser


def resolve_config(args) -> tuple[dict, set]:
    """Merge defaults <- config file <- CLI flags. Returns (cfg, explicit keys)."""
    cfg = dict(DEFAULTS)
    explicit = set()
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError:
            raise
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        for k, v in loaded.items():
            if k not in DEFAULTS:
                raise ValidationError(f"unknown config key {k!r}")
            cfg[k] = v
            explicit.add(k)
    for k in DEFAULTS:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
            explicit.add(k)
    fmts = set(str(cfg["formats"]).split(","))
    bad = fmts - {"csv", "svg", "json-meta"}
    if bad:
        raise ValidationError(f"unknown output formats: {sorted(bad)}")
    cfg["formats"] = ",".join(sorted(fmts))
    for k in INTEGER_KEYS:
        v = cfg[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not float(v).is_integer():
            raise ValidationError(f"{k} must be an integer, got {v!r}")
        cfg[k] = int(v)
    for k in FLOAT_KEYS:
        v = cfg[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{k} must be a number, got {v!r}")
    return cfg, explicit


class Run:
    """One CLI invocation: resolved config, output directory and writers."""

    def __init__(self, command: str, cfg: dict, explicit: set):
        self.command = command
        self.cfg = cfg
        self.explicit = explicit
        # presentation keys do not affect the numbers; keep them out of
        # the hash so re-runs into another directory stay byte-identical
        hashed = {k: v for k, v in cfg.items()
                  if k not in ("out", "formats", "no_timestamp")}
        self.hash = config_hash({"command": command, **hashed})
        self.outdir = Path(cfg["out"])
        self.formats = set(cfg["formats"].split(","))
        self.system = PhysicalSystem.from_user_units(
            cfg["mass_u"], cfg["temperature_K"], cfg["lattice_pm"],
            cfg["n_cells"], cfg["dimensionality"])
        self.scales = derive_scales(self.system)

    def ensure_outdir(self):
        self.outdir.mkdir(parents=True, exist_ok=True)

    def csv(self, name, header, columns):
        for col_name, col in zip(header, columns):
            if not np.all(np.isfinite(np.asarray(col, dtype=float))):
                raise NumericalError(f"non-finite values in column {col_name!r} "
                                     f"of {name}; no file written")
        if "csv" in self.formats:
            write_csv(self.outdir / name, header, columns, self.hash)

    def svg(self, name, svg_text):
        if "svg" in self.formats:
            (self.outdir / name).write_text(svg_text)

    def meta(self, name, extra):
        if "json-meta" in self.formats:
            payload = {
                "command": self.command,
                "config": self.cfg,
                "version": __version__,
            }
            payload.update(extra)
            write_json_meta(self.outdir / name, payload, self.hash)

    def plot(self, series, **kw):
        kw.setdefault("timestamp", not self.cfg["no_timestamp"])
        return line_plot(series, **kw)


def _ideal_params(run: Run) -> IdealMsdParams:
    return IdealMsdParams(mass=run.system.mass, t_b=run.scales.t_b,
                          dimensionality=run.system.dimensionality)


def cmd_scales(run: Run):
    s = run.scales
    run.csv("scales.csv",
            ["beta_per_J", "t_b_s", "t_c_s", "v_T_m_per_s",
             "lambda_T_m", "D_q_m2_per_s", "Q_approx"],
            [[s.beta], [s.t_b], [s.t_c], [s.v_T], [s.lambda_T], [s.D_q], [s.Q_approx]])
    run.meta("scales.json", {"scales": vars(s)})
    for k, v in vars(s).items():
        print(f"{k:10s} = {v:.6e}")


def cmd_ideal(run: Run):
    t_b = run.scales.t_b
    grid = make_grid(run.cfg["grid"], t_b, "geometric:0.01:100:512")
    curve = msd_ideal_curve(_ideal_params(run), grid)
    a2 = run.system.lattice_a**2
    run.csv("ideal.csv",
            ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"],
            [curve.times, curve.times / t_b, curve.values, curve.values / a2])
    run.svg("ideal.svg", run.plot(
        [{"x": curve.times / t_b, "y": curve.values / a2, "label": "ideal"}],
        xlabel="t / t_b", ylabel="MSD / a^2", xscale="log", yscale="log",
        title="Ideal-particle MSD"))
    run.meta("ideal.json", {"method": curve.method, "points": int(curve.times.size)})


def cmd_exact(run: Run):
    t_b = run.scales.t_b
    grid = make_grid(run.cfg["grid"], t_b, "linear:0:30:300")
    basis = build_basis(run.system, run.cfg["funcs_per_cell"])
    Q = partition_function(basis)
    curve = msd_exact_curve(basis, Q, grid)
    a2 = run.system.lattice_a**2
    run.csv("exact.csv",
            ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"],
            [curve.times, curve.times / t_b, curve.values, curve.values / a2])
    run.svg("exact.svg", run.plot(
        [{"x": curve.times / t_b, "y": curve.values / a2,
          "label": f"exact sum, L={run.system.n_cells}a"}],
        xlabel="t / t_b", ylabel="MSD / a^2", title="Exact coherent MSD"))
    run.meta("exact.json", {"method": curve.method, "K": basis.K,
                            "Q": Q, "params": curve.params})


def cmd_breve(run: Run):
    basis = build_basis(run.system, run.cfg["funcs_per_cell"])
    Q = partition_function(basis)
    bs = breve_sum(basis, Q)
    bc = breve_closed(run.system, run.scales)
    a2 = run.system.lattice_a**2
    run.csv("breve.csv",
            ["breve_sum_m2", "breve_closed_m2", "breve_sum_over_a2",
             "breve_closed_over_a2"],
            [[bs], [bc], [bs / a2], [bc / a2]])
    run.meta("breve.json", {"breve_sum_m2": bs, "breve_closed_m2": bc, "K": basis.K})
    print(f"breve_sum    = {bs:.6e} m^2 = {bs/a2:.4f} a^2")
    print(f"breve_closed = {bc:.6e} m^2 = {bc/a2:.4f} a^2")


def cmd_collision(run: Run):
    s = run.scales
    grid = make_grid(run.cfg["grid"], s.t_b, "linear:0:30:300")
    p = CollisionModelParams(alpha=float(run.cfg["alpha"]), L=run.system.L,
                             v_T=s.v_T, t_b=s.t_b)
    values = np.array([msd_collision_model(p, t) for t in grid])
    a2 = run.system.lattice_a**2
    run.csv("collision.csv",
            ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"],
            [grid, grid / s.t_b, values, values / a2])
    run.svg("collision.svg", run.plot(
        [{"x": grid / s.t_b, "y": values / a2,
          "label": f"collision model, alpha={run.cfg['alpha']}"}],
        xlabel="t / t_b", ylabel="MSD / a^2", title="Collision-model MSD"))
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
    with np.errstate(divide="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / stderr)
    z_star = NormalDist().inv_cdf(1.0 - MC_GATE_FALSE_ALARM / (2 * np.size(z)))
    return float(np.max(z)), z_star


def cmd_mc_verify(run: Run):
    t_b = run.scales.t_b
    # the Monte-Carlo oracle is O(K^2) per member: keep K small unless asked
    fpc = run.cfg["funcs_per_cell"] if "funcs_per_cell" in run.explicit else 20
    grid = make_grid(run.cfg["grid"], t_b, "linear:1:20:20")
    basis = build_basis(run.system, fpc, edge_weight_cutoff=1.0)
    Q = partition_function(basis)
    res = sample_msd(basis, Q, grid, run.cfg["members"], run.cfg["seed"])
    exact = msd_exact_curve(basis, Q, grid, weight_floor=0.0)
    max_z, z_star = _mc_gate(res.mean_msd, res.stderr, exact.values)
    if not max_z <= z_star:  # a NaN z refuses too
        raise NumericalError(
            f"Monte-Carlo estimate departs from the exact sum: max |z| = "
            f"{max_z:.2f} over {grid.size} points exceeds z* = {z_star:.2f} "
            f"(family-wise false-alarm rate {MC_GATE_FALSE_ALARM:g})")
    est, err, t_used = sample_msd_rerandomized(
        basis, Q, run.cfg["members"], run.cfg["seed"], x0=res.x0)
    bs = breve_sum(basis, Q, weight_floor=0.0)
    run.csv("mc_verify.csv",
            ["t_s", "t_over_tb", "mc_msd_m2", "mc_stderr_m2", "exact_msd_m2"],
            [grid, grid / t_b, res.mean_msd, res.stderr, exact.values])
    run.meta("mc_verify.json", {
        "K": basis.K, "members": res.n_members, "seed": res.seed,
        "rerandomized_estimate_m2": est, "rerandomized_stderr_m2": err,
        "rerandomized_t_s": t_used, "breve_sum_m2": bs,
        "max_abs_z": max_z, "gate_z": z_star,
        "gate_false_alarm": MC_GATE_FALSE_ALARM,
    })
    print(f"MC vs exact: max |z| = {max_z:.2f} over {grid.size} points, "
          f"below z* = {z_star:.2f} (family-wise false-alarm rate "
          f"{MC_GATE_FALSE_ALARM:g})")
    print(f"rerandomized plateau = {est:.4e} +- {err:.1e} m^2 "
          f"(breve_sum = {bs:.4e} m^2)")


def cmd_scattering(run: Run):
    s = run.scales
    q = float(run.cfg["q_inv_angstrom"]) / ANGSTROM_TO_M
    p = ScatteringParams(v_T=s.v_T, D_q=s.D_q, q=q)
    grid = make_grid(run.cfg["grid"], s.t_b, "linear:0:10:256")
    amp = np.abs(isf(p, grid))
    phase = isf_phase(p, grid)
    omega0 = s.D_q * q * q
    width = s.v_T * abs(q)
    omegas = np.linspace(omega0 - 5 * width, omega0 + 5 * width, 256)
    svals = dsf(p, omegas)
    run.csv("isf.csv", ["t_s", "isf_amplitude", "isf_phase_rad"],
            [grid, amp, phase])
    run.csv("dsf.csv", ["omega_per_s", "hbar_omega_meV", "dsf_s"],
            [omegas, CONST.hbar * omegas * J_TO_MEV, svals])
    run.svg("isf.svg", run.plot(
        [{"x": grid / s.t_b, "y": amp, "label": "|ISF|"},
         {"x": grid / s.t_b, "y": phase, "label": "phase (rad)", "dash": "6 3"}],
        xlabel="t / t_b", ylabel="", title=f"ISF, q = {run.cfg['q_inv_angstrom']} 1/A"))
    run.svg("dsf.svg", run.plot(
        [{"x": CONST.hbar * omegas * J_TO_MEV, "y": svals, "label": "DSF"}],
        xlabel="hbar omega (meV)", ylabel="S(q, omega) (s)", title="DSF"))
    run.meta("scattering.json", {
        "q_per_m": q,
        "recoil_energy_meV": CONST.hbar * omega0 * J_TO_MEV,
        "dsf_fwhm_meV": 2.0 * np.sqrt(2.0 * np.log(2.0)) * CONST.hbar * width * J_TO_MEV,
    })


def cmd_figure1(run: Run):
    s = run.scales
    p = _ideal_params(run)
    grid = make_grid(run.cfg["grid"], s.t_b, "linear:0:10:512")
    curve = msd_ideal_curve(p, grid)
    unit = CONST.hbar * s.t_b / run.system.mass  # MSD unit hbar t_b / m
    asym = run.system.dimensionality * 2.0 * s.D_q * grid
    run.csv("figure1.csv",
            ["t_over_tb", "msd_over_hbar_tb_per_m", "asymptote_over_hbar_tb_per_m"],
            [grid / s.t_b, curve.values / unit, asym / unit])
    series = [
        {"x": grid / s.t_b, "y": curve.values / unit, "label": "ideal MSD"},
        {"x": grid / s.t_b, "y": asym / unit, "label": "2 D_q t", "dash": "6 3"},
        {"x": np.array([1.0, 1.0]),
         "y": np.array([0.0, float(np.max(asym / unit))]),
         "label": "t = t_b", "dash": "2 3", "color": "#808080"},
    ]
    run.svg("figure1.svg", run.plot(
        series, xlabel="t / t_b", ylabel="MSD / (hbar t_b / m)",
        title="Ideal-particle MSD: ballistic to Brownian crossover"))
    run.meta("figure1.json", {"points": int(grid.size)})


def cmd_figure2(run: Run):
    s = run.scales
    a2 = run.system.lattice_a**2
    grid = make_grid(run.cfg["grid"], s.t_b, "linear:0:30:300")
    fpc = run.cfg["funcs_per_cell"]
    alpha = float(run.cfg["alpha"])
    series = []
    plateaus = {}
    for n_cells in (10, 20, 40):
        sysN = PhysicalSystem.from_user_units(
            run.cfg["mass_u"], run.cfg["temperature_K"], run.cfg["lattice_pm"],
            n_cells, run.cfg["dimensionality"])
        scN = derive_scales(sysN)
        basis = build_basis(sysN, fpc)
        Q = partition_function(basis)
        curve = msd_exact_curve(basis, Q, grid)
        bs = breve_sum(basis, Q)
        bc = breve_closed(sysN, scN)
        cm = CollisionModelParams(alpha=alpha, L=sysN.L, v_T=scN.v_T, t_b=scN.t_b)
        cvals = np.array([msd_collision_model(cm, t) for t in grid])
        run.csv(f"figure2_exact_L{n_cells}a.csv",
                ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"],
                [grid, grid / s.t_b, curve.values, curve.values / a2])
        run.csv(f"figure2_collision_L{n_cells}a.csv",
                ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"],
                [grid, grid / s.t_b, cvals, cvals / a2])
        plateaus[f"L={n_cells}a"] = {
            "breve_sum_over_a2": bs / a2,
            "breve_closed_over_a2": bc / a2,
            "path": curve.params["path"],
            "edge_weight": curve.params["edge_weight"],
            "weight_floor": curve.params["weight_floor"],
        }
        series.append({"x": grid / s.t_b, "y": curve.values / a2,
                       "label": f"exact, L={n_cells}a", "color": "#000000",
                       "dash": {10: "8 4", 20: "3 3", 40: "8 3 3 3"}[n_cells]})
        series.append({"x": grid / s.t_b, "y": cvals / a2,
                       "label": f"model, L={n_cells}a", "color": "#c02020",
                       "dash": {10: "8 4", 20: "3 3", 40: "8 3 3 3"}[n_cells]})
    ideal_curve = msd_ideal_curve(_ideal_params(run), grid)
    run.csv("figure2_ideal.csv",
            ["t_s", "t_over_tb", "msd_m2", "msd_over_a2"],
            [grid, grid / s.t_b, ideal_curve.values, ideal_curve.values / a2])
    run.csv("figure2_breve.csv",
            ["n_cells", "breve_sum_over_a2", "breve_closed_over_a2"],
            [[10, 20, 40],
             [plateaus[f"L={n}a"]["breve_sum_over_a2"] for n in (10, 20, 40)],
             [plateaus[f"L={n}a"]["breve_closed_over_a2"] for n in (10, 20, 40)]])
    series.insert(0, {"x": grid / s.t_b, "y": ideal_curve.values / a2,
                      "label": "ideal", "color": "#2050c0"})
    run.svg("figure2.svg", run.plot(
        series, xlabel="t / t_b", ylabel="MSD / a^2",
        title="Quasi-ideal MSD plateaus (CO on flat Cu(100))"))
    run.meta("figure2.json", {"alpha": alpha, "funcs_per_cell": fpc,
                              "plateaus": plateaus})


COMMANDS = {
    "scales": cmd_scales,
    "ideal": cmd_ideal,
    "exact": cmd_exact,
    "breve": cmd_breve,
    "collision": cmd_collision,
    "mc-verify": cmd_mc_verify,
    "scattering": cmd_scattering,
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, explicit = resolve_config(args)
        run = Run(args.command, cfg, explicit)
        run.ensure_outdir()
        COMMANDS[args.command](run)
    except (ValidationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, AssertionError, FloatingPointError) as exc:
        print(f"numerical assertion failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
