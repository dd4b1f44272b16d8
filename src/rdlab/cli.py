"""Command-line front end: run, verify, gap and sweep scenarios from configs.

Exit codes: 0 all verdicts pass, 1 at least one verdict failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, diffusion, kinetics, rdsim
from .config import (ConfigError, ScenarioConfig, compile_expression,
                     parse_config)
from .network import (build_network, conservation_basis, is_two_by_two,
                      optimal_rate, steady_state)

# Tolerances of the standing verdicts, shared by verify and sweep.
CONSERVATION_TOL = 1e-8
POSITIVITY_TOL = -1e-9
CLAMP_TOL = 1e-8
BOUND_MARGIN_TOL = -1e-7
ENVELOPE_SLACK = 1e-6
ODE_RATE_RTOL = 0.03
PDE_RATE_RTOL = 0.10
IDENTITY_TOL = 1e-6
ODE_CONSERVATION_TOL = 1e-13
TAIL_R2_MIN = 0.999
# Distances at or below this are storage/solver roundoff, not trajectory;
# envelope domination is only asserted above it.
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _emit(verdicts, quiet: bool):
    for v in verdicts:
        if not quiet or not v.passed:
            print(v.line())


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_summary(path: Path, entries):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for key, value in entries:
            fh.write(f"{key}: {value}\n")


def _build_operators(cfg: ScenarioConfig):
    network = build_network(cfg.reactants, cfg.products,
                            cfg.rate_forward, cfg.rate_backward)
    psi = compile_expression(cfg.potential)
    a = compile_expression(cfg.diffusivity)
    diff = diffusion.build_generator(cfg.n_cells, cfg.domain_length,
                                     potential=psi, diffusivity=a)
    return network, diff


def _initial_fields(cfg: ScenarioConfig, diff) -> np.ndarray:
    v0 = np.array([compile_expression(text)(diff.cell_centers)
                   for text in cfg.initial])
    if np.any(v0 < 0):
        raise ValueError("initial profiles must be nonnegative on the domain")
    return v0


# The summary entries that report.csv repeats, in the summary's order.
_REPORT_KEYS = ("scenario_id", "regime", "rate_theory", "rate_fit",
                "fit_r2", "envelope_margin", "verdict")


def _write_report(out_dir: Path, record: dict, verdicts) -> dict:
    """Close a run record with its verdict; write summary.txt and report.csv.

    ``record`` holds the summary entries in order; report.csv is the
    ``_REPORT_KEYS`` subset of them.
    """
    record["verdict"] = all(v.passed for v in verdicts)
    _write_csv(out_dir / "report.csv", _REPORT_KEYS,
               [[record[key] for key in _REPORT_KEYS]])
    _write_summary(out_dir / "summary.txt", record.items())
    return record


def _envelope_verdict(distances, envelope, slack: float, note: str = ""):
    """Envelope domination above NOISE_FLOOR, and the smallest margin."""
    resolved = distances > NOISE_FLOOR
    margin = float((envelope[resolved] - distances[resolved]).min())
    dominated = bool(np.all(distances[resolved]
                            <= envelope[resolved] * (1.0 + slack)))
    return Verdict("envelope_domination", dominated,
                   f"min margin {margin:.3e}{note}"), margin


def execute_ode(cfg: ScenarioConfig, out_dir: Path, full: bool):
    """Well-mixed run: trajectory CSV plus rate/envelope/identity verdicts."""
    network = build_network(cfg.reactants, cfg.products,
                            cfg.rate_forward, cfg.rate_backward)
    v0 = np.array([float(compile_expression(t)(0.0)) for t in cfg.initial])
    if np.any(v0 <= 0):
        raise ValueError("well-mixed initial data must be strictly positive")

    steady = steady_state(network, v0)
    rate_theory = optimal_rate(network, steady)
    if network.riccati_coefficients is None:
        trajectory = kinetics.integrate_reaction(network, v0, cfg.t_end, cfg.tol)
    else:
        trajectory = kinetics.exact_trajectory(network, v0, cfg.t_end)
    reduction = trajectory.reduction

    distances = np.abs(trajectory.pivot_series - steady.concentrations[trajectory.pivot])
    verdicts = [Verdict(
        "steady_state_residual", steady.product_residual <= 1e-10,
        f"product residual {steady.product_residual:.3e}")]

    basis = conservation_basis(network)
    drift = np.abs(basis @ (trajectory.states.T - trajectory.states[0][:, None]))
    basis_drift = float(drift.max()) if drift.size else 0.0
    verdicts.append(Verdict(
        "conservation", basis_drift <= ODE_CONSERVATION_TOL,
        f"max drift {basis_drift:.3e} (tol {ODE_CONSERVATION_TOL:g})"))

    envelope_margin = math.nan
    rate_fit = math.nan
    r2 = math.nan
    log_prefactor = math.nan
    if full:
        rate_fit, r2 = kinetics.measure_rate(trajectory, steady)
        verdicts.append(Verdict(
            "rate_optimality",
            abs(rate_fit - rate_theory) <= ODE_RATE_RTOL * rate_theory,
            f"fit {rate_fit:.6g} vs theory {rate_theory:.6g} (tol 3%)"))

        log_prefactor = kinetics.envelope_constant(reduction, v0)
        start_gap = distances[0]
        envelope = (np.exp(abs(log_prefactor)) * start_gap
                    * np.exp(-rate_theory * trajectory.times))
        # The bound is an exact equality whenever the rate polynomial is
        # linear, so the slack must absorb the integrator's own accuracy.
        verdict, envelope_margin = _envelope_verdict(distances, envelope,
                                                     IDENTITY_TOL)
        verdicts.append(verdict)

        residual = kinetics.exact_decay_residual(reduction, trajectory)
        verdicts.append(Verdict(
            "closed_form_identity", residual <= IDENTITY_TOL,
            f"max relative residual {residual:.3e} (tol {IDENTITY_TOL:g})"))

    header = ["t"] + [f"v_{i + 1}" for i in range(network.n_species)] + ["dist_to_steady"]
    rows = [(t, *state, d) for t, state, d in
            zip(trajectory.times, trajectory.states, distances)]
    if cfg.write_series:
        _write_csv(out_dir / "trajectory.csv", header, rows)

    return verdicts, _write_report(out_dir, {
        "scenario_id": cfg.scenario_id, "regime": "well_mixed",
        "rate_theory": rate_theory, "rate_fit": rate_fit, "fit_r2": r2,
        "envelope_log_prefactor": log_prefactor,
        "envelope_margin": envelope_margin,
    }, verdicts)


def _rd_scenario(cfg: ScenarioConfig, network, diff, v0) -> rdsim.Scenario:
    return rdsim.Scenario(network=network, diffusion=diff, v0=v0, dt=cfg.dt,
                          t_end=cfg.t_end, sample_every=cfg.sample_every)


def execute_rd(cfg: ScenarioConfig, out_dir: Path, full: bool):
    """Reaction-diffusion run: series/snapshot CSVs plus the standing verdicts."""
    network, diff = _build_operators(cfg)
    scenario = _rd_scenario(cfg, network, diff, _initial_fields(cfg, diff))
    result = rdsim.run(scenario, snapshot_times=cfg.snapshot_times)
    return _report_rd(cfg.scenario_id, result, out_dir, full,
                      check_rate=True, write_series=cfg.write_series)


def _report_rd(scenario_id: str, result: rdsim.RunResult, out_dir: Path,
               full: bool, check_rate: bool, write_series: bool):
    """Verdicts, series/snapshot CSVs and the report of one rd run.

    ``check_rate=False`` keeps the envelope and diagnostics verdicts but
    skips the tail-rate optimality check, which needs a long horizon; sweep
    rows use this so regime mapping stays affordable.
    """
    network = result.scenario.network
    diff = result.scenario.diffusion
    v0 = result.scenario.v0
    cons = float(max(result.conservation.max(), result.mean_conservation.max()))
    verdicts = [
        Verdict("conservation", cons <= CONSERVATION_TOL,
                f"max residual {cons:.3e} (tol {CONSERVATION_TOL:g})"),
        Verdict("positivity", float(result.min_value.min()) >= POSITIVITY_TOL,
                f"min concentration {result.min_value.min():.3e}"),
        Verdict("clamped_mass", float(result.clamp_l1[-1]) <= CLAMP_TOL,
                f"accumulated clamp {result.clamp_l1[-1]:.3e}"),
        Verdict("upper_bounds", float(result.bound_margin.min()) >= BOUND_MARGIN_TOL,
                f"min bound margin {result.bound_margin.min():.3e}"),
    ]

    rate_fit = math.nan
    r2 = math.nan
    rate_theory = math.nan
    envelope_margin = math.nan
    regime = "general"
    if full:
        if is_two_by_two(network):
            inputs = analysis.envelope_inputs(network, diff, v0)
            regime = analysis.classify_regime(inputs)
            gap_rate = 1.0 / (8.0 * inputs.gap_constant)
            rate_theory = min(inputs.total_mass, gap_rate)
            envelope = analysis.two_by_two_envelope(inputs, result.times)
            verdict, envelope_margin = _envelope_verdict(
                result.distances, envelope, ENVELOPE_SLACK,
                f" (regime {regime})")
            verdicts.append(verdict)
            rate_fit, r2 = analysis.fit_decay_rate(result.times,
                                                   result.distances[:, 0],
                                                   floor=1e-10)
            if check_rate and regime == "mass_below_gap":
                verdicts.append(Verdict(
                    "rate_optimality",
                    abs(rate_fit - inputs.total_mass)
                    <= PDE_RATE_RTOL * inputs.total_mass,
                    f"fit {rate_fit:.6g} vs mass {inputs.total_mass:.6g} (tol 10%)"))
        else:
            rate_fit, r2, tail_ok = analysis.exponential_tail_check(
                network, result.times, result.distances[:, 0],
                r2_min=TAIL_R2_MIN)
            verdicts.append(Verdict(
                "exponential_tail", tail_ok,
                f"rate {rate_fit:.6g}, r2 {r2:.6f} (needs r2 >= {TAIL_R2_MIN})"))

    if write_series:
        q = network.n_species
        header = (["t"] + [f"dist_{i + 1}" for i in range(q)]
                  + [f"var_{i + 1}" for i in range(q)]
                  + ["conservation_residual", "min_concentration", "clamp_l1"])
        rows = [(t, *d, *var, c.max(), mn, cl)
                for t, d, var, c, mn, cl in
                zip(result.times, result.distances, result.variances,
                    result.conservation, result.min_value, result.clamp_l1)]
        _write_csv(out_dir / "series.csv", header, rows)
        for index, (t, field) in enumerate(result.snapshots):
            _write_csv(out_dir / f"snapshot_{index:03d}.csv",
                       ["x"] + [f"v_{i + 1}" for i in range(q)],
                       [(x, *field[:, j]) for j, x in enumerate(diff.cell_centers)])

    return verdicts, _write_report(out_dir, {
        "scenario_id": scenario_id, "regime": regime,
        "rate_theory": rate_theory, "rate_fit": rate_fit, "fit_r2": r2,
        "envelope_margin": envelope_margin, "conservation_max": cons,
        "min_concentration": float(result.min_value.min()),
        "clamp_l1": float(result.clamp_l1[-1]),
    }, verdicts)


def execute_gap(cfg: ScenarioConfig, out_dir: Path, seed: int,
                quiet: bool, dump_generator: bool):
    """Refinement study of the gap constant plus the fourth-moment sweep."""
    if dump_generator and cfg.n_cells > diffusion.DENSE_MAX_CELLS:
        raise ValueError(f"--dump-generator writes the dense {cfg.n_cells} x "
                         f"{cfg.n_cells} generator; at most "
                         f"{diffusion.DENSE_MAX_CELLS} cells are allowed")
    psi = compile_expression(cfg.potential)
    a = compile_expression(cfg.diffusivity)
    study = diffusion.refinement_study(cfg.refinement_cells, cfg.domain_length,
                                       potential=psi, diffusivity=a)
    if not quiet:
        print(f"{'n':>6} {'gap_eigenvalue':>18} {'gap_constant':>16}")
        for n, lam, c in zip(study.cells, study.gap_eigenvalues,
                             study.gap_constants):
            print(f"{n:>6} {lam:>18.10f} {c:>16.10f}")
        print(f"extrapolated gap_eigenvalue {study.extrapolated_eigenvalue:.10f} "
              f"gap_constant {study.extrapolated_gap_constant:.10f}")

    _write_csv(out_dir / "gap.csv", ("n", "gap_eigenvalue", "gap_constant"),
               list(zip(study.cells, study.gap_eigenvalues, study.gap_constants)))
    _write_summary(out_dir / "gap_summary.txt", [
        ("extrapolated_gap_eigenvalue", study.extrapolated_eigenvalue),
        ("extrapolated_gap_constant", study.extrapolated_gap_constant),
        ("observed_orders", " ".join(f"{p:.4f}" for p in study.observed_orders)),
    ])

    verdicts = [Verdict(
        "refinement_order2",
        bool(np.all(np.abs(study.observed_orders - 2.0) <= 0.2)),
        "observed orders " + " ".join(f"{p:.3f}" for p in study.observed_orders))]

    psi_const = not psi.uses_x
    a_const = not a.uses_x
    if psi_const and a_const:
        a_value = float(a(0.0))
        exact = a_value * (math.pi / cfg.domain_length) ** 2
        err = abs(study.extrapolated_eigenvalue - exact) / exact
        verdicts.append(Verdict(
            "continuum_eigenvalue", err <= 1e-3,
            f"extrapolated {study.extrapolated_eigenvalue:.8f} vs exact "
            f"{exact:.8f} (rel err {err:.2e})"))

    grid = diffusion.build_generator(cfg.n_cells, cfg.domain_length,
                                     potential=psi, diffusivity=a)
    if dump_generator:
        _write_csv(out_dir / "generator.csv",
                   [f"col_{j}" for j in range(grid.n_cells)],
                   [tuple(row) for row in grid.generator])
    # The 50 random functions are checked in stacks of at most about 2^13
    # values (64 KB).  At n = 1000 (2-core x86-64 VM) one stack of all 50
    # saved 0.1 ms of the 2.8 ms and raised the peak RSS by 1.4 MB.  Row-wise
    # draws keep the stream of one draw per function.
    rng = np.random.default_rng(seed)
    rows = max(1, 2**13 // grid.n_cells)
    worst = np.inf
    all_pass = True
    for start in range(0, 50, rows):
        stack = rng.uniform(0.0, 2.0, (min(rows, 50 - start), grid.n_cells))
        ok, margins = analysis.fourth_moment_decay_check(grid, stack,
                                                         (0.01, 0.1, 1.0))
        worst = min(worst, float(margins.min()))
        all_pass = all_pass and ok
    verdicts.append(Verdict(
        "fourth_moment_decay", all_pass and worst >= 0.0,
        f"50 random functions, min margin {worst:.3e}"))
    return verdicts


def execute_sweep(cfg: ScenarioConfig, out_dir: Path):
    """Run every mass scale of the sweep as one batch.

    Each scale is a scaled copy of the base scenario, reported as an rd run
    of its own under ``scale_<value>``.
    """
    network, diff = _build_operators(cfg)
    base = _initial_fields(cfg, diff)
    # value * base is bitwise what the profile "(value)*(expr)" evaluates
    # to, so each scale matches a stand-alone rd config scaled that way.
    scenarios = [_rd_scenario(cfg, network, diff, value * base)
                 for value in cfg.sweep_values]
    results = rdsim.run_batch(scenarios, snapshot_times=cfg.snapshot_times)

    # A row is the scale's report.csv row, led by the scale instead of the
    # scenario id.
    columns = _REPORT_KEYS[1:]
    rows = []
    verdicts = []
    for value, result in zip(cfg.sweep_values, results):
        _, record = _report_rd(
            f"{cfg.scenario_id}_scale_{value:g}", result,
            out_dir / f"scale_{value:g}", full=True, check_rate=False,
            write_series=cfg.write_series)
        rows.append([value] + [record[key] for key in columns])
        verdicts.append(Verdict(
            f"scale_{value:g}", record["verdict"],
            f"regime {record['regime']}, rate_fit {record['rate_fit']:.6g}, "
            f"rate_theory {record['rate_theory']:.6g}"))
    _write_csv(out_dir / "sweep.csv", ("mass_scale",) + columns, rows)
    return verdicts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdlab",
        description="Simulate reversible mass-action reaction-diffusion "
                    "systems and verify their exponential decay rates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("run", "run a scenario and write its output files"),
            ("verify", "run a scenario and check every verdict"),
            ("gap", "grid-refinement study of the spectral gap"),
            ("sweep", "scale the initial mass over a range of values")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to the scenario config file")
        cmd.add_argument("--out", help="override the output directory")
        cmd.add_argument("--quiet", action="store_true",
                         help="only print failing verdicts")
        if name == "gap":
            cmd.add_argument("--seed", type=int, default=0,
                             help="seed of the fourth-moment sweep's random "
                                  "functions")
            cmd.add_argument("--dump-generator", action="store_true",
                             help="also write the generator matrix as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = Path(args.config)
    if not path.is_file():
        print(f"error: config file not found: {path}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(path.read_text())
    except ConfigError as exc:
        print("error: invalid config:", file=sys.stderr)
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        return 2

    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    try:
        if args.command == "gap":
            if cfg.kind not in ("spectral_gap", "rd", "sweep"):
                print("error: gap needs a config with a diffusion block",
                      file=sys.stderr)
                return 2
            verdicts = execute_gap(cfg, out_dir, args.seed, args.quiet,
                                   args.dump_generator)
        elif args.command == "sweep":
            if cfg.kind != "sweep":
                print("error: sweep needs a config of kind 'sweep'",
                      file=sys.stderr)
                return 2
            verdicts = execute_sweep(cfg, out_dir)
        elif args.command in ("run", "verify"):
            if cfg.kind not in ("ode", "rd"):
                print(f"error: {args.command} needs a config of kind "
                      "'ode' or 'rd'", file=sys.stderr)
                return 2
            full = args.command == "verify"
            if cfg.kind == "ode":
                verdicts, _ = execute_ode(cfg, out_dir, full)
            else:
                verdicts, _ = execute_rd(cfg, out_dir, full)
        else:  # pragma: no cover - argparse enforces the choices
            return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _emit(verdicts, args.quiet)
    return 0 if all(v.passed for v in verdicts) else 1


def entrypoint():  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
